//! Host-side request vocabulary: what one call into the summary engine
//! asks for.
//!
//! A [`RequestSpec`] is the *in-process* request type — the argument to
//! `CorpusRunner::serve` — as opposed to the wire types in
//! [`crate::wire`], which a daemon client speaks over a socket. The old
//! nine-method runner builder collapsed into this one struct: everything
//! a run can vary (synthesis config, worker count, cache reuse, which
//! loops) is a field here, so a request can be constructed, logged, and
//! replayed as one value.

use strsum_core::SynthesisConfig;

/// Which loops a request runs over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Scope {
    /// The built-in corpus, optionally truncated to the first `limit`
    /// loops (`--limit` on every experiment bin).
    Corpus {
        /// `Some(n)` runs only the first `n` corpus loops.
        limit: Option<usize>,
    },
    /// Caller-supplied loops (the daemon path: source arrives over the
    /// wire, not from `corpus::db`).
    Loops(Vec<LoopSpec>),
}

/// One caller-supplied loop: an identifier for reports plus raw C
/// source. Bytes, not `String` — the engine classifies non-UTF8 source
/// itself (as a compile failure) rather than rejecting it at the API
/// boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopSpec {
    /// Stable identifier used in reports and responses.
    pub id: String,
    /// Raw C source of the loop.
    pub source: Vec<u8>,
}

/// Everything one summary run asks for, in one value.
#[derive(Debug, Clone)]
pub struct RequestSpec {
    /// Synthesis configuration (vocabulary, sizes, budget, screening).
    pub cfg: SynthesisConfig,
    /// Worker threads; `None` means the host default.
    pub threads: Option<usize>,
    /// Consult the cross-loop summary store (every hit re-verified).
    pub cache: bool,
    /// Seed the cache from previously persisted summaries
    /// (`results/summaries.tsv`) before running.
    pub reuse_summaries: bool,
    /// Which loops to run.
    pub scope: Scope,
    /// Admission-queue bound for daemon-style serving: at most this many
    /// requests admitted-but-unanswered before intake blocks
    /// (backpressure, not rejection). `None` means the server default.
    /// The batch runner ignores it — a batch run admits its whole corpus
    /// by construction.
    pub queue_depth: Option<usize>,
}

impl Default for RequestSpec {
    /// The full corpus under a default config — the historical
    /// `CorpusRunner::new(default).run_corpus()` behaviour.
    fn default() -> RequestSpec {
        RequestSpec::corpus()
    }
}

impl RequestSpec {
    /// A full-corpus request under the default synthesis config.
    pub fn corpus() -> RequestSpec {
        RequestSpec {
            cfg: SynthesisConfig::default(),
            threads: None,
            cache: false,
            reuse_summaries: false,
            scope: Scope::Corpus { limit: None },
            queue_depth: None,
        }
    }

    /// A request over the first `n` corpus loops.
    pub fn corpus_slice(n: usize) -> RequestSpec {
        RequestSpec {
            scope: Scope::Corpus { limit: Some(n) },
            ..RequestSpec::corpus()
        }
    }

    /// A request over caller-supplied loops.
    pub fn loops(loops: Vec<LoopSpec>) -> RequestSpec {
        RequestSpec {
            scope: Scope::Loops(loops),
            ..RequestSpec::corpus()
        }
    }

    /// Same request with a different synthesis config.
    pub fn config(mut self, cfg: SynthesisConfig) -> RequestSpec {
        self.cfg = cfg;
        self
    }

    /// Same request with an explicit worker-thread count.
    pub fn threads(mut self, n: usize) -> RequestSpec {
        self.threads = Some(n.max(1));
        self
    }

    /// Same request with the cross-loop summary store on or off.
    pub fn cache(mut self, on: bool) -> RequestSpec {
        self.cache = on;
        self
    }

    /// Same request, loading previously persisted summaries
    /// (`results/summaries.tsv`) instead of re-synthesising when they
    /// cover the whole corpus. Independent of [`RequestSpec::cache`]:
    /// reuse is a disk-level shortcut, the cache is an in-run
    /// fingerprint group — a run can use either or both.
    pub fn reuse_summaries(mut self, on: bool) -> RequestSpec {
        self.reuse_summaries = on;
        self
    }

    /// Same request with an explicit admission-queue bound (min 1) for
    /// daemon-style serving. See [`RequestSpec::queue_depth`].
    pub fn queue_depth(mut self, depth: usize) -> RequestSpec {
        self.queue_depth = Some(depth.max(1));
        self
    }
}
