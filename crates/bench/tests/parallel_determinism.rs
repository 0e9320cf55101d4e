//! Parallelism must be invisible in the results: a corpus run with worker
//! threads and cost-aware dispatch enabled produces byte-identical
//! `LoopSynth` outcomes to a 1-worker, corpus-ordered run — same
//! programs, same failure verdicts, same counterexample trajectories.
//!
//! `par_map`/`par_map_ordered` slot every result at the loop's original
//! index, and each synthesis runs the one serial candidate search on one
//! worker, so neither thread scheduling nor the dispatch permutation can
//! reorder or change results. The only legitimate divergence is a verdict
//! that raced the per-loop timeout, which this test skips rather than
//! compares.

use std::time::Duration;
use strsum_bench::{CorpusRunner, LoopSynth, PlanSpec, RequestSpec};
use strsum_core::SynthesisConfig;

/// Wall-clock-dependent verdicts, the only legitimate divergence source.
/// Besides outright exhaustion, a *degraded* success — the budget tripped
/// during minimisation, leaving a sound but unminimised program — is also
/// clock-raced: its byte encoding depends on how far minimisation got.
fn timing_dependent(r: &LoopSynth) -> bool {
    r.stats.degraded
        || r.stats.exhausted.is_some()
        || matches!(
            r.failure.as_deref(),
            Some("timeout" | "solver gave up on candidate search")
        )
}

/// Asserts byte-identity of every non-timing-raced loop between two runs,
/// returning how many loops compared cleanly.
fn assert_byte_identical(serial: &[LoopSynth], other: &[LoopSynth], label: &str) -> usize {
    let mut compared = 0usize;
    for (s, p) in serial.iter().zip(other) {
        assert_eq!(s.entry.id, p.entry.id, "results stay in corpus order");
        if timing_dependent(s) || timing_dependent(p) {
            continue;
        }
        let a = s.summary.as_ref().map(|s| s.encode());
        let b = p.summary.as_ref().map(|s| s.encode());
        assert_eq!(
            a, b,
            "{}: serial and {label} synthesised different programs",
            s.entry.id
        );
        assert_eq!(
            s.failure, p.failure,
            "{}: serial and {label} failed differently",
            s.entry.id
        );
        assert_eq!(
            s.stats.counterexamples, p.stats.counterexamples,
            "{}: serial and {label} took different counterexample trajectories",
            s.entry.id
        );
        compared += 1;
    }
    compared
}

#[test]
fn every_plan_matches_the_serial_run_byte_for_byte() {
    // The timeout only decides when a loop is cut off, never which
    // candidate or counterexample comes next, so the parallel runs may get
    // a larger budget: on a host with fewer cores than workers an
    // oversubscribed run needs more wall clock to reach the same verdicts,
    // and every loop that finishes on both sides must still agree
    // byte-for-byte.
    let cfg = |timeout: u64| SynthesisConfig::with_timeout(Duration::from_secs(timeout));
    let serial = CorpusRunner::new(PlanSpec::serial().corpus_order())
        .serve(RequestSpec::corpus_slice(12).config(cfg(8)).threads(1))
        .results;
    let threads = strsum_bench::default_threads().max(2);
    let other = CorpusRunner::new(PlanSpec::serial())
        .serve(
            RequestSpec::corpus_slice(12)
                .config(cfg(24))
                .threads(threads),
        )
        .results;
    let compared = assert_byte_identical(&serial, &other, "cost-ordered multi-worker");
    assert!(
        compared >= 6,
        "only {compared} loops compared deterministically against the multi-worker run"
    );
}
