//! Shared infrastructure for the experiment binaries that regenerate every
//! table and figure of the paper (see `DESIGN.md` §4 for the index and
//! `EXPERIMENTS.md` for paper-vs-measured numbers).

use std::fmt::Write as _;
use std::fs;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;
use strsum_core::{LoopOutcome, ScreenStats, SolverTelemetry, Summary, SummaryKind, SynthStats};
use strsum_corpus::LoopEntry;
use strsum_gadgets::Program;

pub mod cli;
mod fault;
mod runner;
mod trace;

pub use cli::Cli;
pub use fault::{Fault, FaultPlan};
pub use runner::{CacheStats, CorpusReport, CorpusRunner, KindCounts, OutcomeCounts, RetryStats};
pub use strsum_api::{LoopSpec, PlanSpec, RequestSpec, Scope};
pub use strsum_corpus::plan::{ljf_order, PlanCounts};
pub use trace::TraceArgs;

/// The [`LoopSpec`] view of corpus entries — for feeding an explicit
/// entry list (typically a corpus subset) through
/// [`CorpusRunner::serve`] as [`Scope::Loops`]. Ids matching corpus
/// entries keep their app attribution (see the runner docs).
pub fn loop_specs(entries: &[LoopEntry]) -> Vec<LoopSpec> {
    entries
        .iter()
        .map(|e| LoopSpec {
            id: e.id.clone(),
            source: e.source.clone().into_bytes(),
        })
        .collect()
}

/// Result of synthesising one corpus loop.
#[derive(Debug, Clone)]
pub struct LoopSynth {
    /// The corpus entry.
    pub entry: LoopEntry,
    /// The synthesised summary, if any: a gadget program for memoryless
    /// loops, or a recurrence-lane closed form for accumulator/builder
    /// loops (see [`strsum_core::Summary`]).
    pub summary: Option<Summary>,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// Failure reason when unsynthesised (including C frontend rejections).
    pub failure: Option<String>,
    /// Full run statistics, including solver telemetry.
    pub stats: SynthStats,
    /// Whether the program came from the cross-loop summary store (and
    /// passed re-verification) rather than from fresh synthesis.
    pub cache_hit: bool,
    /// How the loop resolved — exhaustive over success, cache reuse,
    /// inexpressibility, budget exhaustion, worker crash and degraded
    /// minimisation (see [`strsum_core::LoopOutcome`]).
    pub outcome: LoopOutcome,
}

impl LoopSynth {
    /// The gadget program, when the summary came from the gadget lane.
    /// `None` for closed-form (accumulator/builder) summaries — the
    /// coverage/testing figures, which consume gadget programs, skip
    /// those the same way they skip unsummarised loops.
    pub fn program(&self) -> Option<&Program> {
        self.summary.as_ref().and_then(Summary::program)
    }

    /// Which lane summarised the loop, when one did.
    pub fn kind(&self) -> Option<SummaryKind> {
        self.summary.as_ref().map(Summary::kind)
    }
}

/// Maps `f` over `items` on `threads` workers, preserving order.
///
/// Workers steal indices from a shared counter and stream results back
/// over a channel, so the output order — and everything computed from it —
/// is independent of thread scheduling. Workers are **panic-isolated**:
/// each call of `f` runs under `catch_unwind`, a panicking item yields
/// `Err(payload message)` in its slot while the worker moves on to the
/// next item, and every other item still completes. The result vector is
/// therefore always full-length.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<Result<R, String>> {
    par_map_inner(items, threads, None, f)
}

/// [`par_map`], but workers claim items in the order given by the
/// `order` permutation (a cost-aware schedule, say) instead of corpus
/// order. The *output* is still indexed by the items' original positions:
/// `result[i]` is `f(&items[i])` regardless of `order`, so a schedule can
/// only change wall clock, never what callers compute from the results.
///
/// # Panics
///
/// Panics when `order` is not a permutation of `0..items.len()` (a panic
/// *inside `f`* is isolated per item instead — see [`par_map`]).
pub fn par_map_ordered<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    order: &[usize],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<Result<R, String>> {
    assert_eq!(order.len(), items.len(), "order must cover every item");
    par_map_inner(items, threads, Some(order), f)
}

/// Runs `f`, turning a panic into `Err(the message it carried)`.
/// `AssertUnwindSafe` is justified because a panicking call's partial
/// state dies here — only the `Err` crosses the boundary.
pub(crate) fn isolate<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "panic of unknown type".to_string()
        }
    })
}

fn par_map_inner<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    order: Option<&[usize]>,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<Result<R, String>> {
    let threads = threads.clamp(1, items.len().max(1));
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Result<R, String>)>();
    let mut slots: Vec<Option<Result<R, String>>> = items.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                // Relaxed suffices for the ticket counter: fetch_add is a
                // single atomic read-modify-write, so every worker still
                // draws a unique ticket; no other memory is published
                // through this counter, and each result's payload is
                // ordered by the channel's own send/recv synchronisation.
                let ticket = next.fetch_add(1, Ordering::Relaxed);
                if ticket >= items.len() {
                    break;
                }
                let i = match order {
                    Some(o) => o[ticket],
                    None => ticket,
                };
                // Panic isolation: one poisoned loop must not take down
                // the corpus run.
                let result = isolate(|| f(&items[i]));
                if tx.send((i, result)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, result) in rx {
            slots[i] = Some(result);
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every index is claimed exactly once"))
        .collect()
}

/// Sums per-loop solver telemetry over a whole run.
pub fn aggregate_telemetry(results: &[LoopSynth]) -> SolverTelemetry {
    results
        .iter()
        .fold(SolverTelemetry::default(), |acc, r| SolverTelemetry {
            search: acc.search.plus(&r.stats.solver.search),
            verify: acc.verify.plus(&r.stats.solver.verify),
        })
}

/// Human-readable aggregate solver-effort block for a run's stdout/report.
pub fn telemetry_report(results: &[LoopSynth]) -> String {
    let t = aggregate_telemetry(results);
    let total = t.total();
    let iterations: usize = results.iter().map(|r| r.stats.iterations).sum();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Solver effort ({} loops, {} CEGIS iterations):",
        results.len(),
        iterations
    );
    for (name, s) in [
        ("search", &t.search),
        ("verify", &t.verify),
        ("total", &total),
    ] {
        let _ = writeln!(
            out,
            "  {name:6} queries {:>9}  conflicts {:>11}  propagations {:>13}  learnt {:>9}",
            s.queries, s.conflicts, s.propagations, s.learnts
        );
    }
    let encodes = total.blast_hits + total.blast_misses;
    let rate = if encodes == 0 {
        0.0
    } else {
        100.0 * total.blast_hits as f64 / encodes as f64
    };
    let _ = writeln!(
        out,
        "  blast cache: {} hits / {} misses ({rate:.1}% reuse)",
        total.blast_hits, total.blast_misses
    );
    out
}

/// Sums per-loop concrete-screening counters over a whole run.
pub fn aggregate_screen(results: &[LoopSynth]) -> ScreenStats {
    results
        .iter()
        .fold(ScreenStats::default(), |acc, r| acc.plus(&r.stats.screen))
}

/// The results directory (`results/` at the workspace root).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    fs::create_dir_all(&dir).expect("can create results dir");
    dir
}

/// Writes `content` to `results/<name>` and echoes the path.
pub fn write_result(name: &str, content: &str) {
    let path = results_dir().join(name);
    fs::write(&path, content).expect("can write result file");
    println!("\n[written to {}]", path.display());
}

pub(crate) fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

pub(crate) fn unhex(s: &str) -> Vec<u8> {
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).expect("valid hex"))
        .collect()
}

/// Default worker-thread count.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
}

/// Formats a duration in minutes (the unit of Table 3).
pub fn minutes(d: Duration) -> f64 {
    d.as_secs_f64() / 60.0
}

/// Median of a slice (sorts in place).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// A simple horizontal ASCII bar.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let filled = if max > 0.0 {
        ((value / max) * width as f64)
            .round()
            .clamp(0.0, width as f64) as usize
    } else {
        0
    };
    "#".repeat(filled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        let bytes = b"P \t\0F";
        assert_eq!(unhex(&hex(bytes)), bytes);
    }

    #[test]
    fn median_cases() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn bar_scales() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(20.0, 10.0, 10), "##########");
    }
}
