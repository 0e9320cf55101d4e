//! The per-loop summary engine: the one synthesis lifecycle, behind the
//! wire vocabulary and the persistent store.
//!
//! One request runs cfront → automatic filters → store lookup →
//! (mandatory re-verification | synthesis) → store insert. The daemon
//! serves requests through it, and the batch `CorpusRunner` runs every
//! loop through the same two halves, so a daemon answer and a batch
//! answer for the same source and budget are one code path by
//! construction. The soundness rule: **every** store hit is re-verified
//! by the bounded checker against the requesting loop before it is
//! served, and a failed re-verification tombstones the entry and falls
//! back to fresh synthesis.
//!
//! The lifecycle is split at its natural pipeline boundary:
//! [`Engine::prepare`] runs the cheap front half (decode → compile →
//! fingerprint → store and memo probe), and
//! [`Engine::resolve`] runs the expensive back half (re-verified store
//! hit | synthesis → publish) and returns a typed [`Resolution`].
//! [`Engine::finish`] renders that resolution as the wire response, and
//! [`Engine::handle`] composes the halves — the serial path every
//! correctness test and the fixed-pool baseline exercise. Scheduling can
//! therefore reorder *between* the halves without touching what either
//! half computes, so responses stay byte-identical whatever the queue
//! does.
//!
//! **Verdict memo.** A negative answer cannot be re-verified, so it is
//! memoized under an exact key instead of the semantic fingerprint: a
//! hash of the compiled IR's printed form and a hash of the entire
//! effective [`SynthesisConfig`]. [`Engine::resolve`] records every
//! deterministic negative ([`memoizable`]) under the config the synthesis
//! actually ran with; [`Engine::prepare`] answers a request whose exact
//! key holds a record straight from the store (`origin: memo`), but only
//! when the store holds no summary for its fingerprint. `flags.store =
//! false` neither reads nor writes the memo.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use strsum_api::{parse_outcome, Origin, SourceSpec, SummaryRequest, SummaryResponse};
use strsum_core::{
    loop_fingerprint, summarize_loop, verify_summary, BudgetKind, LoopOutcome, SolverTelemetry,
    SummarizeResult, Summary, SynthStats, SynthesisConfig,
};
use strsum_corpus::fingerprint_hash;
use strsum_obs::names;
use strsum_smt::SessionStats;

use crate::store::{fnv1a, ShardedStore, VerdictKey};

/// Serving counters, reported in `BENCH_pr8.json`. The soundness gate is
/// `reverified == store_hits + rejected`: every summary pulled from the
/// persistent store went through the bounded checker in this process
/// lifetime, whether it was then served or tombstoned. Verdict-memo hits
/// are neither store hits nor misses: they serve no summary and run no
/// synthesis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests served a store summary (after re-verification).
    pub store_hits: u64,
    /// Requests that missed the store (or bypassed it) and synthesised.
    pub store_misses: u64,
    /// Store hits re-verified by the bounded checker before serving.
    pub reverified: u64,
    /// Store hits that failed re-verification and were tombstoned.
    pub rejected: u64,
    /// Requests answered from the verdict memo.
    pub verdict_hits: u64,
    /// Deterministic negatives recorded into the verdict memo.
    pub verdicts_stored: u64,
}

impl strsum_obs::ToJson for EngineStats {
    fn to_json(&self) -> String {
        format!(
            "{{\"store_hits\":{},\"store_misses\":{},\"reverified\":{},\"rejected\":{},\"verdict_hits\":{},\"verdicts_stored\":{}}}",
            self.store_hits,
            self.store_misses,
            self.reverified,
            self.rejected,
            self.verdict_hits,
            self.verdicts_stored
        )
    }
}

/// The outcome of [`Engine::prepare`]: either the request resolved at
/// admission (refusals and verdict-memo hits — nothing to schedule), or
/// a compiled, fingerprinted task carrying everything the scheduler
/// needs to place it and everything [`Engine::finish`] needs to run it.
pub enum Prepared {
    /// Answered during preparation, `cost.wall_micros` included; send
    /// as-is.
    Done(SummaryResponse),
    /// Ready for the back half of the lifecycle.
    Task(PreparedTask),
}

/// A compiled request between the pipeline halves. Owning the IR means
/// `finish` never re-parses; the scheduler only reads the priority and
/// store presence.
pub struct PreparedTask {
    pub(crate) req: SummaryRequest,
    pub(crate) func: strsum_ir::Func,
    pub(crate) fp: Vec<u64>,
    pub(crate) key: u64,
    pub(crate) cfg: SynthesisConfig,
    pub(crate) store_present: bool,
    pub(crate) prep_micros: u64,
}

impl PreparedTask {
    /// The fingerprint hash: the batch runner's grouping and cost-row
    /// key.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Whether the store held this fingerprint at preparation time (a
    /// fast-lane candidate: finishing is one re-verification, not a
    /// synthesis).
    pub fn store_present(&self) -> bool {
        self.store_present
    }

    /// The request's scheduling priority.
    pub fn priority(&self) -> strsum_api::Priority {
        self.req.priority
    }

    /// The synthesis configuration the back half will run under, for
    /// harness-side doctoring (the batch runner's injected faults).
    pub fn config_mut(&mut self) -> &mut SynthesisConfig {
        &mut self.cfg
    }
}

/// How [`Engine::resolve`] settled one task: the back half of the
/// lifecycle as a typed value, before [`Engine::finish`] renders it as a
/// wire response.
#[derive(Debug, Clone)]
pub struct Resolution {
    /// The loop's outcome; `CacheHit` exactly when a store hit was
    /// re-verified and served.
    pub outcome: LoopOutcome,
    /// The summary with its encoded bytes. A served hit carries the
    /// stored bytes verbatim.
    pub summary: Option<(Summary, Vec<u8>)>,
    /// The fresh synthesis's full statistics, screen counters included.
    /// A served hit carries only its re-verification effort, as
    /// `solver.verify`.
    pub stats: SynthStats,
    /// Synthesis time, or re-verification time for a served hit.
    pub elapsed: Duration,
    /// The effort a store hit spent failing re-verification before the
    /// fresh synthesis in `stats` ran; `None` when no hit was rejected.
    /// Kept apart from `stats` so the wire telemetry stays the
    /// synthesis's own.
    pub rejected: Option<SessionStats>,
}

/// The request engine: a sharded store plus the synthesis lifecycle.
/// All methods take `&self`; one engine is shared across the daemon's
/// worker pool.
pub struct Engine {
    store: ShardedStore,
    base: SynthesisConfig,
    store_hits: AtomicU64,
    store_misses: AtomicU64,
    reverified: AtomicU64,
    rejected: AtomicU64,
    verdict_hits: AtomicU64,
    verdicts_stored: AtomicU64,
}

impl Engine {
    /// Opens an engine over the store at `dir` (created if missing) with
    /// `shards` shard files (0 = default), serving requests under
    /// `base` config defaults.
    pub fn open(dir: &Path, shards: usize, base: SynthesisConfig) -> std::io::Result<Engine> {
        let store = ShardedStore::open(dir, shards)?;
        Ok(Engine {
            store,
            base,
            store_hits: AtomicU64::new(0),
            store_misses: AtomicU64::new(0),
            reverified: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            verdict_hits: AtomicU64::new(0),
            verdicts_stored: AtomicU64::new(0),
        })
    }

    /// The underlying store (for audits and compaction).
    pub fn store(&self) -> &ShardedStore {
        &self.store
    }

    /// Serving counters accumulated so far.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            store_hits: self.store_hits.load(Ordering::Relaxed),
            store_misses: self.store_misses.load(Ordering::Relaxed),
            reverified: self.reverified.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            verdict_hits: self.verdict_hits.load(Ordering::Relaxed),
            verdicts_stored: self.verdicts_stored.load(Ordering::Relaxed),
        }
    }

    /// The effective synthesis config for one request: base defaults
    /// with the request's budget and flags folded in.
    fn request_cfg(&self, req: &SummaryRequest) -> SynthesisConfig {
        let mut cfg = self.base.clone();
        if let Some(budget) = req.budget {
            cfg.budget = budget;
        }
        cfg.screen = req.flags.screen;
        cfg.theory_fast_path = req.flags.theory_fast_path;
        cfg
    }

    /// Runs one request through the full lifecycle and produces its
    /// response — [`Engine::prepare`] and [`Engine::finish`] composed.
    /// This is the reference path; the scheduler produces byte-identical
    /// responses because it runs exactly these two halves.
    pub fn handle(&self, req: &SummaryRequest) -> SummaryResponse {
        let start = Instant::now();
        let mut span = strsum_obs::span("serve.request", "server");
        if span.active() {
            span.arg_str("id", req.id.clone());
        }
        let mut resp = match self.prepare(req.clone()) {
            Prepared::Done(resp) => resp,
            Prepared::Task(task) => self.finish(task, 1),
        };
        resp.cost.wall_micros = micros_since(start);
        resp
    }

    /// The front half of the lifecycle: classify the payload, compile,
    /// fingerprint, and probe the store and the verdict memo. Refusals (IR requests, bad UTF-8, compile errors) and memo
    /// hits resolve here — they are cheap and need no scheduling.
    pub fn prepare(&self, req: SummaryRequest) -> Prepared {
        let start = Instant::now();
        let done = |mut resp: SummaryResponse| {
            resp.cost.wall_micros = micros_since(start);
            Prepared::Done(resp)
        };
        // 1. Classify the payload. IR is reserved vocabulary; like a
        //    compile failure, it resolves as outside the fragment.
        let source = match &req.source {
            SourceSpec::Ir(_) => {
                return done(self.refuse(&req, "unsupported: ir requests are reserved vocabulary"))
            }
            SourceSpec::C(bytes) => match std::str::from_utf8(bytes) {
                Ok(text) => text.to_string(),
                Err(_) => return done(self.refuse(&req, "source is not valid UTF-8")),
            },
        };
        // 2. Compile. A rejected source is a NotMemoryless with the
        //    frontend's message — the runner's classification, verbatim.
        let func = match strsum_cfront::compile_one(&source) {
            Ok(func) => func,
            Err(e) => return done(self.refuse(&req, &format!("does not compile: {e}"))),
        };
        let cfg = self.request_cfg(&req);
        // 3. Fingerprint and probe: the scheduler routes store-present
        //    tasks down the fast lane (finishing is one bounded
        //    re-verification) and queues the rest. A loop the store
        //    holds no summary for may have a memoized verdict under its
        //    exact key.
        let fp = loop_fingerprint(&func, cfg.max_ex_size);
        let key = fingerprint_hash(&fp);
        let store_present = req.flags.store && self.store.lookup(&fp).is_some();
        if req.flags.store && !store_present {
            if let Some(resp) = self.memo_answer(&req, &func, &cfg) {
                return done(resp);
            }
        }
        let prep_micros = micros_since(start);
        Prepared::Task(PreparedTask {
            req,
            func,
            fp,
            key,
            cfg,
            store_present,
            prep_micros,
        })
    }

    /// The back half of the lifecycle, rendered as the wire response:
    /// [`Engine::resolve`] plus the response fields. Response
    /// `cost.wall_micros` is service time (preparation plus this call),
    /// never queue wait.
    ///
    /// The second argument is ignored. It once granted a cube width and
    /// stays only because the `profile` benchmark calls `finish(task, 1)`.
    pub fn finish(&self, task: PreparedTask, _unused: usize) -> SummaryResponse {
        let start = Instant::now();
        let prep_micros = task.prep_micros;
        let id = task.req.id.clone();
        let r = self.resolve(task);
        let mut resp = SummaryResponse::new(id, r.outcome);
        if resp.outcome == LoopOutcome::CacheHit {
            resp.origin = Origin::Store;
            resp.reverified = true;
        }
        resp.failure = r.stats.failure;
        resp.cost.conflicts = r.stats.solver.total().conflicts;
        resp.telemetry = Some(r.stats.solver);
        if let Some((summary, bytes)) = r.summary {
            // Surface the lane on the wire for closed forms; gadget
            // answers keep the fields omitted (v1-compatible,
            // `summary_kind()` derives Gadget).
            if summary.closed_form().is_some() {
                resp.kind = Some(summary.kind());
                resp.closed_form = Some(bytes.clone());
            }
            resp.summary = Some(bytes);
        }
        resp.cost.wall_micros = prep_micros.saturating_add(micros_since(start));
        resp
    }

    /// The back half of the lifecycle: store lookup with mandatory
    /// re-verification, fresh synthesis on miss, and publish.
    pub fn resolve(&self, task: PreparedTask) -> Resolution {
        let PreparedTask {
            req, func, fp, cfg, ..
        } = task;

        // 4. Store lookup by semantic fingerprint; every hit re-verifies
        //    against *this* loop before serving (fingerprint match is
        //    evidence, not proof — the small-model theorem stays the
        //    sole soundness root).
        let mut rejected = None;
        if req.flags.store {
            if let Some(bytes) = self.store.lookup(&fp) {
                let mut span = strsum_obs::span("loop.reverify", "corpus");
                if span.active() {
                    span.arg_str("id", req.id.clone());
                }
                let start = Instant::now();
                self.reverified.fetch_add(1, Ordering::Relaxed);
                strsum_obs::counter(names::STORE_REVERIFIED, "server", 1);
                let (ok, effort) = verify_summary(&func, &bytes, cfg.max_ex_size);
                // A verified summary always decodes: the checker decodes
                // it first.
                let verified = if ok {
                    Summary::decode(&bytes).ok()
                } else {
                    None
                };
                if let Some(summary) = verified {
                    self.store_hits.fetch_add(1, Ordering::Relaxed);
                    strsum_obs::counter(names::STORE_HIT, "server", 1);
                    return Resolution {
                        outcome: LoopOutcome::CacheHit,
                        summary: Some((summary, bytes)),
                        stats: SynthStats {
                            solver: SolverTelemetry {
                                verify: effort,
                                ..SolverTelemetry::default()
                            },
                            ..SynthStats::default()
                        },
                        elapsed: start.elapsed(),
                        rejected: None,
                    };
                }
                // Poisoned or colliding entry: tombstone it and fall
                // through to fresh synthesis.
                self.rejected.fetch_add(1, Ordering::Relaxed);
                strsum_obs::counter(names::STORE_REJECTED, "server", 1);
                let _ = self.store.remove(&fp);
                rejected = Some(effort);
            }
        }
        self.store_misses.fetch_add(1, Ordering::Relaxed);
        strsum_obs::counter(names::STORE_MISS, "server", 1);

        // 5. Fresh synthesis under the request budget. Both lanes run:
        //    the gadget fragment first, then the recurrence lane for
        //    stateful loops the memoryless screen rejects.
        let mut span = strsum_obs::span("loop", "corpus");
        if span.active() {
            span.arg_str("id", req.id.clone());
        }
        let start = Instant::now();
        let SummarizeResult { summary, stats } = summarize_loop(&func, &cfg);
        let elapsed = start.elapsed();
        span.arg_u64("synthesised", u64::from(summary.is_some()));
        let outcome = classify(&stats, summary.is_some());
        // 6. Publish. Verified fresh summaries — gadget programs and
        //    closed forms alike — enter the store so the next request
        //    with this fingerprint hits; a deterministic negative enters
        //    the verdict memo under the config this synthesis ran with.
        if req.flags.store && memoizable(&outcome) {
            let record = encode_verdict(&outcome, stats.failure.as_deref());
            if self
                .store
                .insert_verdict(verdict_key(&func, &cfg), record)
                .is_ok()
            {
                self.verdicts_stored.fetch_add(1, Ordering::Relaxed);
                strsum_obs::counter(names::STORE_VERDICT_STORED, "server", 1);
            }
        }
        let summary = summary.map(|summary| {
            let bytes = summary.encode();
            if req.flags.store {
                let _ = self.store.insert(fp, bytes.clone());
            }
            (summary, bytes)
        });
        Resolution {
            outcome,
            summary,
            stats,
            elapsed,
            rejected,
        }
    }

    /// The memoized verdict for a loop under `cfg`, as a response:
    /// outcome and failure as recorded, no summary, no solver effort.
    fn memo_answer(
        &self,
        req: &SummaryRequest,
        func: &strsum_ir::Func,
        cfg: &SynthesisConfig,
    ) -> Option<SummaryResponse> {
        let record = self.store.verdict(&verdict_key(func, cfg))?;
        let (outcome, failure) = decode_verdict(&record)?;
        self.verdict_hits.fetch_add(1, Ordering::Relaxed);
        strsum_obs::counter(names::STORE_VERDICT_HIT, "server", 1);
        let mut resp = SummaryResponse::new(req.id.clone(), outcome);
        resp.origin = Origin::Memo;
        resp.failure = failure;
        Some(resp)
    }

    /// A NotMemoryless refusal with a failure message — the shape every
    /// pre-synthesis rejection takes (mirrors the runner's compile-error
    /// classification).
    fn refuse(&self, req: &SummaryRequest, failure: &str) -> SummaryResponse {
        let mut resp = SummaryResponse::new(req.id.clone(), LoopOutcome::NotMemoryless);
        resp.failure = Some(failure.to_string());
        resp
    }
}

/// Whether the verdict memo keeps `outcome`: the negatives a re-run under
/// the same config reaches again — `NotMemoryless` and the exhaustion of
/// a counted budget. Wall exhaustion depends on host load, crashes on
/// the worker, and summaries live in the store proper.
pub fn memoizable(outcome: &LoopOutcome) -> bool {
    matches!(
        outcome,
        LoopOutcome::NotMemoryless
            | LoopOutcome::BudgetExhausted(
                BudgetKind::SolverConflicts | BudgetKind::SymexPaths | BudgetKind::SymexSteps
            )
    )
}

/// The verdict memo key of `func` under `cfg`: FNV-1a of the printed IR
/// (exact, names included, so a fingerprint collision can never alias
/// two loops) and of the derived `Debug` rendering of the whole config,
/// which names every field, so a field added later joins the key
/// without a change here.
fn verdict_key(func: &strsum_ir::Func, cfg: &SynthesisConfig) -> VerdictKey {
    [
        fnv1a(strsum_ir::printer::print(func).as_bytes()),
        fnv1a(format!("{cfg:?}").as_bytes()),
    ]
}

/// A verdict record: the outcome label, then `\n` and the failure when
/// there is one.
fn encode_verdict(outcome: &LoopOutcome, failure: Option<&str>) -> Vec<u8> {
    let mut record = outcome.label().as_bytes().to_vec();
    if let Some(failure) = failure {
        record.push(b'\n');
        record.extend_from_slice(failure.as_bytes());
    }
    record
}

/// Reads a verdict record back; `None` for anything [`encode_verdict`]
/// cannot have written from a [`memoizable`] outcome.
fn decode_verdict(record: &[u8]) -> Option<(LoopOutcome, Option<String>)> {
    let text = std::str::from_utf8(record).ok()?;
    let (label, failure) = match text.split_once('\n') {
        Some((label, failure)) => (label, Some(failure.to_string())),
        None => (text, None),
    };
    let outcome = parse_outcome(label, None).filter(memoizable)?;
    Some((outcome, failure))
}

/// Whole microseconds elapsed since `start`.
fn micros_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// How a fresh synthesis resolved, from its structured stats.
/// Precedence: a summary is success (degraded when minimisation was cut
/// short); no summary with a tripped budget is that budget's exhaustion;
/// anything else is inexpressible in either lane.
fn classify(stats: &SynthStats, summarized: bool) -> LoopOutcome {
    match (summarized, stats.exhausted) {
        (true, _) if stats.degraded => LoopOutcome::Degraded,
        (true, _) => LoopOutcome::Summarized,
        (false, Some(kind)) => LoopOutcome::BudgetExhausted(kind),
        (false, None) => LoopOutcome::NotMemoryless,
    }
}

/// Decodes stored summary bytes for audits — gadget programs and
/// closed forms alike; `None` when undecodable (which the engine treats
/// as any other re-verification failure).
pub fn decode_summary(bytes: &[u8]) -> Option<Summary> {
    Summary::decode(bytes).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use strsum_api::RequestFlags;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("strsum-engine-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    const SKIP_SPACES: &str =
        "char* loopFunction(char* s) {\n  while (*s == ' ') s++;\n  return s;\n}\n";

    #[test]
    fn fresh_then_hit_with_mandatory_reverify() {
        let dir = tmp_dir("lifecycle");
        let engine = Engine::open(&dir, 4, SynthesisConfig::default()).unwrap();

        let req = SummaryRequest::c("r1", SKIP_SPACES);
        let first = engine.handle(&req);
        assert_eq!(
            first.outcome,
            LoopOutcome::Summarized,
            "{:?}",
            first.failure
        );
        assert_eq!(first.origin, Origin::Fresh);
        assert!(first.summary.is_some());
        assert_eq!(engine.stats().store_misses, 1);

        let second = engine.handle(&SummaryRequest::c("r2", SKIP_SPACES));
        assert_eq!(second.outcome, LoopOutcome::CacheHit);
        assert_eq!(second.origin, Origin::Store);
        assert!(second.reverified, "every store hit must be re-verified");
        assert_eq!(second.summary, first.summary, "byte-identical");
        let stats = engine.stats();
        assert_eq!(stats.store_hits, 1);
        assert_eq!(
            stats.reverified,
            stats.store_hits + stats.rejected,
            "soundness gate"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_survives_engine_restart() {
        let dir = tmp_dir("restart");
        let summary = {
            let engine = Engine::open(&dir, 4, SynthesisConfig::default()).unwrap();
            engine
                .handle(&SummaryRequest::c("a", SKIP_SPACES))
                .summary
                .unwrap()
        };
        let engine = Engine::open(&dir, 4, SynthesisConfig::default()).unwrap();
        let resp = engine.handle(&SummaryRequest::c("b", SKIP_SPACES));
        assert_eq!(resp.origin, Origin::Store, "reloaded store serves the hit");
        assert!(resp.reverified);
        assert_eq!(resp.summary, Some(summary));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn poisoned_store_entry_is_rejected_and_resynthesised() {
        let dir = tmp_dir("poison");
        let engine = Engine::open(&dir, 4, SynthesisConfig::default()).unwrap();
        // Poison the store: a fingerprint mapped to garbage bytes.
        let func = strsum_cfront::compile_one(SKIP_SPACES).unwrap();
        let fp = loop_fingerprint(&func, SynthesisConfig::default().max_ex_size);
        engine
            .store()
            .insert(fp, b"\xff\xff garbage".to_vec())
            .unwrap();

        let resp = engine.handle(&SummaryRequest::c("p", SKIP_SPACES));
        assert_eq!(resp.outcome, LoopOutcome::Summarized, "fell back to fresh");
        assert_eq!(resp.origin, Origin::Fresh);
        let stats = engine.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.reverified, stats.store_hits + stats.rejected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn refusals_are_not_memoryless_with_failure() {
        let dir = tmp_dir("refuse");
        let engine = Engine::open(&dir, 2, SynthesisConfig::default()).unwrap();
        for (req, needle) in [
            (
                SummaryRequest::c("bad-utf8", vec![0xff, 0xfe]),
                "not valid UTF-8",
            ),
            (
                SummaryRequest::c("bad-c", "while (*s ++; garbage"),
                "does not compile",
            ),
            (
                // Valid C, wrong shape: compiles but the engine refuses
                // it downstream with the symbolic engine's message.
                SummaryRequest::c("bad-shape", "int main() { return 0; }"),
                "does not take a single pointer",
            ),
            (
                SummaryRequest {
                    source: SourceSpec::Ir(vec![1, 2, 3]),
                    ..SummaryRequest::c("ir", "")
                },
                "unsupported",
            ),
        ] {
            let resp = engine.handle(&req);
            assert_eq!(resp.outcome, LoopOutcome::NotMemoryless, "{}", req.id);
            let failure = resp.failure.expect("refusals carry a failure");
            assert!(failure.contains(needle), "{}: {failure}", req.id);
        }
        assert_eq!(engine.stats().store_hits, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_flag_off_bypasses_the_store() {
        let dir = tmp_dir("nostore");
        let engine = Engine::open(&dir, 2, SynthesisConfig::default()).unwrap();
        let mut req = SummaryRequest::c("n", SKIP_SPACES);
        req.flags = RequestFlags {
            store: false,
            ..RequestFlags::default()
        };
        let first = engine.handle(&req);
        assert_eq!(first.outcome, LoopOutcome::Summarized);
        assert!(engine.store().is_empty(), "nothing published");
        let second = engine.handle(&req);
        assert_eq!(second.origin, Origin::Fresh, "no store, no hit");
        assert_eq!(second.summary, first.summary, "determinism regardless");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An accumulator loop — rejected by the memoryless screen — is
    /// summarised by the recurrence lane, served with the lane surfaced
    /// on the wire, published to the store, and re-verified on the hit
    /// exactly like a gadget summary.
    #[test]
    fn accumulator_loop_served_with_kind_and_store_hit() {
        let dir = tmp_dir("recur");
        let engine = Engine::open(&dir, 2, SynthesisConfig::default()).unwrap();
        let src = "int loopFunction(char* s) {\n  int n = 0;\n  while (*s) { n = n + 1; s = s + 1; }\n  return n;\n}\n";

        let first = engine.handle(&SummaryRequest::c("a1", src));
        assert_eq!(
            first.outcome,
            LoopOutcome::Summarized,
            "{:?}",
            first.failure
        );
        assert_eq!(first.origin, Origin::Fresh);
        assert_eq!(
            first.summary_kind(),
            Some(strsum_core::SummaryKind::Accumulator)
        );
        assert_eq!(
            first.closed_form, first.summary,
            "closed form is the payload"
        );
        let summary = decode_summary(first.summary.as_ref().unwrap()).expect("decodable");
        assert!(summary.closed_form().is_some());

        let second = engine.handle(&SummaryRequest::c("a2", src));
        assert_eq!(second.outcome, LoopOutcome::CacheHit);
        assert_eq!(second.origin, Origin::Store);
        assert!(second.reverified, "closed-form hits re-verify like gadgets");
        assert_eq!(second.summary, first.summary, "byte-identical");
        assert_eq!(
            second.summary_kind(),
            Some(strsum_core::SummaryKind::Accumulator)
        );
        let stats = engine.stats();
        assert_eq!(stats.store_hits, 1);
        assert_eq!(stats.reverified, stats.store_hits + stats.rejected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An `int` and a `long` counter agree on every grid string; with the
    /// return width in the fingerprint they are two store keys, so
    /// alternating requests never tombstone each other's entry.
    #[test]
    fn int_and_long_counters_keep_separate_store_entries() {
        let dir = tmp_dir("widths");
        let engine = Engine::open(&dir, 2, SynthesisConfig::default()).unwrap();
        let stateful = strsum_corpus::stateful_corpus();
        let source = |id: &str| {
            stateful
                .iter()
                .find(|e| e.id == id)
                .expect("stateful corpus entry")
                .source
                .clone()
        };
        let (int_count, long_count) = (source("acc_01"), source("acc_08"));
        for pass in 0..2 {
            for (id, src) in [("acc_01", &int_count), ("acc_08", &long_count)] {
                let resp = engine.handle(&SummaryRequest::c(format!("{id}/{pass}"), src.as_str()));
                assert!(resp.summary.is_some(), "{id}: {:?}", resp.failure);
                let origin = if pass == 0 {
                    Origin::Fresh
                } else {
                    Origin::Store
                };
                assert_eq!(resp.origin, origin, "{id} on pass {pass}");
            }
        }
        let stats = engine.stats();
        assert_eq!(stats.rejected, 0, "no entry was tombstoned");
        assert_eq!(stats.store_hits, 2, "both second-pass requests hit");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A v1 request naming the retired `cubed` mode, at any cube count,
    /// decodes to the plan-less request: the same verdict key, and the
    /// same response bytes (wall clock aside) through the pipeline
    /// halves, whatever `finish`'s ignored argument, as through
    /// `handle`.
    #[test]
    fn cubed_request_answers_as_serial() {
        let dir = tmp_dir("cubed");
        let engine = Engine::open(&dir, 2, SynthesisConfig::default()).unwrap();
        let frame = format!(
            "{{\"v\":1,\"type\":\"summary\",\"id\":\"k\",\"source\":{:?},\
             \"plan\":{{\"mode\":\"cubed\",\"cubes\":256,\"cost_order\":true}},\
             \"flags\":{{\"store\":false,\"screen\":true,\"theory_fast_path\":true}}}}",
            SKIP_SPACES
        );
        let cubed = match strsum_api::decode_frame(&frame).unwrap() {
            strsum_api::Frame::Summary(req) => req,
            other => panic!("wrong frame: {other:?}"),
        };
        let mut serial = SummaryRequest::c("k", SKIP_SPACES);
        serial.flags.store = false; // no cross-request store effects
        assert_eq!(cubed, serial, "the cubed(256) plan decodes away");
        let func = strsum_cfront::compile_one(SKIP_SPACES).unwrap();
        assert_eq!(
            verdict_key(&func, &engine.request_cfg(&cubed)),
            verdict_key(&func, &engine.request_cfg(&serial)),
            "one verdict key"
        );
        let bytes = |mut resp: SummaryResponse| {
            resp.cost.wall_micros = 0;
            strsum_api::encode_frame(&strsum_api::Frame::Response(resp))
        };
        let halves = match engine.prepare(cubed) {
            Prepared::Task(task) => engine.finish(task, 256),
            Prepared::Done(r) => panic!("unexpected refusal: {:?}", r.failure),
        };
        assert_eq!(bytes(halves), bytes(engine.handle(&serial)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A request for `SKIP_SPACES` whose conflict cap (20) is far below
    /// what its search needs: it exhausts deterministically in
    /// milliseconds, and summarises at the default cap.
    fn capped(id: &str) -> SummaryRequest {
        let mut req = SummaryRequest::c(id, SKIP_SPACES);
        req.budget = Some(SynthesisConfig::default().budget.with_solver_conflicts(20));
        req
    }

    const CAPPED: LoopOutcome = LoopOutcome::BudgetExhausted(BudgetKind::SolverConflicts);

    #[test]
    fn restarted_engine_serves_a_capped_loop_from_the_memo() {
        let dir = tmp_dir("memo");
        let fresh = {
            let engine = Engine::open(&dir, 2, SynthesisConfig::default()).unwrap();
            let fresh = engine.handle(&capped("m1"));
            assert_eq!(fresh.outcome, CAPPED, "{:?}", fresh.failure);
            assert_eq!(fresh.origin, Origin::Fresh);
            assert!(fresh.cost.conflicts > 0);
            assert_eq!(engine.stats().verdicts_stored, 1);
            assert!(engine.store().is_empty(), "a verdict is no summary");
            fresh
        };
        let engine = Engine::open(&dir, 2, SynthesisConfig::default()).unwrap();
        let memo = engine.handle(&capped("m2"));
        assert_eq!(memo.origin, Origin::Memo);
        assert_eq!(memo.outcome, fresh.outcome);
        assert_eq!(memo.failure, fresh.failure);
        assert!(!memo.reverified);
        assert_eq!(memo.summary, None);
        assert_eq!(memo.cost.conflicts, 0);
        assert_eq!(memo.telemetry, None);
        assert!(memo.cost.wall_micros > 0, "service time is reported");
        let stats = engine.stats();
        assert_eq!(stats.verdict_hits, 1);
        assert_eq!((stats.store_hits, stats.store_misses), (0, 0));
        // A larger conflict cap is another key: it misses and summarises.
        let larger = engine.handle(&SummaryRequest::c("m3", SKIP_SPACES));
        assert_eq!(larger.origin, Origin::Fresh);
        assert_eq!(larger.outcome, LoopOutcome::Summarized);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wall_exhaustion_is_never_memoized() {
        let dir = tmp_dir("memowall");
        let engine = Engine::open(&dir, 2, SynthesisConfig::default()).unwrap();
        let mut req = SummaryRequest::c("w", SKIP_SPACES);
        req.budget = Some(SynthesisConfig::default().budget.with_wall(Duration::ZERO));
        for _ in 0..2 {
            let resp = engine.handle(&req);
            assert_eq!(resp.outcome, LoopOutcome::BudgetExhausted(BudgetKind::Wall));
            assert_eq!(resp.origin, Origin::Fresh);
        }
        let stats = engine.stats();
        assert_eq!((stats.verdicts_stored, stats.verdict_hits), (0, 0));
        assert_eq!(engine.store().verdict_count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_flag_off_neither_reads_nor_writes_the_memo() {
        let dir = tmp_dir("memooff");
        let engine = Engine::open(&dir, 2, SynthesisConfig::default()).unwrap();
        let mut off = capped("off");
        off.flags.store = false;
        assert_eq!(engine.handle(&off).outcome, CAPPED);
        assert_eq!(engine.store().verdict_count(), 0, "no write");
        assert_eq!(engine.handle(&capped("on")).origin, Origin::Fresh);
        assert_eq!(engine.store().verdict_count(), 1);
        assert_eq!(engine.handle(&capped("on")).origin, Origin::Memo);
        let bypass = engine.handle(&off);
        assert_eq!(bypass.origin, Origin::Fresh, "no read");
        assert!(bypass.cost.conflicts > 0, "the budget ran again");
        let stats = engine.stats();
        assert_eq!((stats.verdicts_stored, stats.verdict_hits), (1, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A run whose config a harness doctored (an injected solver
    /// `Unknown`) is memoized under the doctored config, so the same loop
    /// asked for plainly still synthesises.
    #[test]
    fn doctored_runs_do_not_poison_plain_requests() {
        let dir = tmp_dir("memofault");
        let engine = Engine::open(&dir, 2, SynthesisConfig::default()).unwrap();
        let mut task = match engine.prepare(SummaryRequest::c("f1", SKIP_SPACES)) {
            Prepared::Task(task) => task,
            Prepared::Done(r) => panic!("unexpected refusal: {:?}", r.failure),
        };
        task.config_mut().forced_unknown_at = Some(1);
        let faulted = engine.resolve(task);
        assert_eq!(
            faulted.outcome, CAPPED,
            "an injected Unknown reads as the cap"
        );
        assert_eq!(engine.stats().verdicts_stored, 1);
        let plain = engine.handle(&SummaryRequest::c("f2", SKIP_SPACES));
        assert_eq!(plain.origin, Origin::Fresh);
        assert_eq!(plain.outcome, LoopOutcome::Summarized);
        assert_eq!(engine.stats().verdict_hits, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The memo is probed only when the store holds no summary for the
    /// fingerprint: a verdict planted under a summarised loop's exact key
    /// stays unseen while the summary lives.
    #[test]
    fn a_live_store_summary_is_never_answered_from_the_memo() {
        let dir = tmp_dir("memoshadow");
        let engine = Engine::open(&dir, 2, SynthesisConfig::default()).unwrap();
        let req = SummaryRequest::c("s1", SKIP_SPACES);
        let fresh = engine.handle(&req);
        assert_eq!(fresh.outcome, LoopOutcome::Summarized);
        let func = strsum_cfront::compile_one(SKIP_SPACES).unwrap();
        let cfg = engine.request_cfg(&req);
        let poison = encode_verdict(&LoopOutcome::NotMemoryless, Some("planted"));
        engine
            .store()
            .insert_verdict(verdict_key(&func, &cfg), poison)
            .unwrap();
        let hit = engine.handle(&req);
        assert_eq!(hit.origin, Origin::Store);
        assert_eq!(hit.summary, fresh.summary);
        assert_eq!(engine.stats().verdict_hits, 0);
        // With the summary gone the planted record is what answers, so
        // the probe above really was skipped.
        engine
            .store()
            .remove(&loop_fingerprint(&func, cfg.max_ex_size))
            .unwrap();
        let memo = engine.handle(&req);
        assert_eq!(memo.origin, Origin::Memo);
        assert_eq!(memo.failure.as_deref(), Some("planted"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verdict_records_round_trip_and_reject_other_outcomes() {
        for (outcome, failure) in [
            (LoopOutcome::NotMemoryless, Some("no program")),
            (CAPPED, None),
            (
                LoopOutcome::BudgetExhausted(BudgetKind::SymexPaths),
                Some(""),
            ),
            (
                LoopOutcome::BudgetExhausted(BudgetKind::SymexSteps),
                Some("two\nlines"),
            ),
        ] {
            let record = encode_verdict(&outcome, failure);
            assert_eq!(
                decode_verdict(&record),
                Some((outcome, failure.map(str::to_string)))
            );
        }
        for outcome in [
            LoopOutcome::Summarized,
            LoopOutcome::CacheHit,
            LoopOutcome::Degraded,
            LoopOutcome::BudgetExhausted(BudgetKind::Wall),
            LoopOutcome::Crashed("boom".into()),
        ] {
            assert!(!memoizable(&outcome), "{outcome:?}");
            assert_eq!(decode_verdict(&encode_verdict(&outcome, None)), None);
        }
        assert_eq!(decode_verdict(b"\xff"), None);
    }

    /// Every field of the effective config is part of the memo key.
    #[test]
    fn verdict_keys_separate_configs_and_loops() {
        let func = strsum_cfront::compile_one(SKIP_SPACES).unwrap();
        let base = SynthesisConfig::default();
        let key = verdict_key(&func, &base);
        assert_eq!(key, verdict_key(&func, &base.clone()), "stable");
        let variants = [
            SynthesisConfig {
                screen: !base.screen,
                ..base.clone()
            },
            SynthesisConfig {
                theory_fast_path: !base.theory_fast_path,
                ..base.clone()
            },
            SynthesisConfig {
                max_ex_size: base.max_ex_size + 1,
                ..base.clone()
            },
            SynthesisConfig {
                forced_unknown_at: Some(3),
                ..base.clone()
            },
            SynthesisConfig {
                budget: base.budget.with_wall(Duration::from_secs(1)),
                ..base.clone()
            },
        ];
        for cfg in &variants {
            assert_eq!(verdict_key(&func, cfg)[0], key[0], "same IR");
            assert_ne!(verdict_key(&func, cfg)[1], key[1], "{cfg:?}");
        }
        let renamed =
            strsum_cfront::compile_one(&SKIP_SPACES.replace("loopFunction", "f")).unwrap();
        assert_ne!(verdict_key(&renamed, &base)[0], key[0], "names are IR");
    }

    /// The memo key must be the same every time a source is compiled,
    /// or a restarted daemon misses its own verdicts: cfront's output,
    /// φ placement included, is a function of the source alone.
    #[test]
    fn verdict_keys_are_stable_across_compiles() {
        let cfg = SynthesisConfig::default();
        let sources = strsum_corpus::corpus()
            .into_iter()
            .chain(strsum_corpus::stateful_corpus());
        for e in sources {
            let key = || verdict_key(&strsum_cfront::compile_one(&e.source).unwrap(), &cfg);
            let first = key();
            for round in 1..8 {
                assert_eq!(key(), first, "{} on compile {round}", e.id);
            }
        }
    }
}
