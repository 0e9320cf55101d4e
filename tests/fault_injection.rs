//! Graceful-degradation contract of the corpus pipeline under injected
//! faults: a seeded [`FaultPlan`] (worker panic, forced solver `Unknown`,
//! expired deadline) never aborts a run — every loop resolves to the
//! documented [`LoopOutcome`] — the quarantine retry lane recovers the
//! budget-exhausted loops with an escalated clean budget, faulted runs are
//! exactly reproducible, and an *empty* plan leaves results byte-identical
//! at every thread count.

use std::time::Duration;
use strsum_bench::{
    loop_specs, CorpusReport, CorpusRunner, Fault, FaultPlan, PlanSpec, RequestSpec,
};
use strsum_core::{BudgetKind, LoopOutcome, SynthesisConfig};
use strsum_corpus::{App, LoopEntry};

fn entry(id: &str, source: &str) -> LoopEntry {
    LoopEntry {
        id: id.to_string(),
        app: App::Bash,
        description: "fault-injection test loop".to_string(),
        source: source.to_string(),
    }
}

/// Four quickly-summarisable loops: every fault target would succeed
/// cleanly, so each deviation observed below is caused by the plan alone.
fn corpus() -> Vec<LoopEntry> {
    vec![
        entry(
            "fi_01",
            "char* loopFunction(char* s) { while (*s == ' ') s++; return s; }",
        ),
        entry(
            "fi_02",
            "char* loopFunction(char* s) { while (*s != 0 && *s != ':') s++; return s; }",
        ),
        entry(
            "fi_03",
            "char* loopFunction(char* s) { while (*s != 0) s++; return s; }",
        ),
        entry(
            "fi_04",
            "char* loopFunction(char* s) { while (*s >= '0' && *s <= '9') s++; return s; }",
        ),
    ]
}

fn cfg() -> SynthesisConfig {
    SynthesisConfig::with_timeout(Duration::from_secs(120))
}

/// One panic + one forced `Unknown` + one expired deadline.
fn plan() -> FaultPlan {
    let mut plan = FaultPlan::new();
    plan.inject("fi_01", Fault::Panic)
        .inject("fi_02", Fault::UnknownAtQuery(1))
        .inject("fi_03", Fault::DeadlineExpiry);
    plan
}

fn outcome_of<'r>(report: &'r CorpusReport, id: &str) -> &'r LoopOutcome {
    &report
        .results
        .iter()
        .find(|r| r.entry.id == id)
        .unwrap_or_else(|| panic!("{id} missing from report"))
        .outcome
}

/// The faulted runner dispatches in corpus order, so its runs never
/// read the cost book.
fn faulted_runner() -> CorpusRunner {
    CorpusRunner::new(PlanSpec::serial().corpus_order()).fault_plan(plan())
}

/// The per-request side: these four loops under `cfg()` with `retries`
/// rounds of the quarantine lane.
fn request(entries: &[LoopEntry], retries: u32) -> RequestSpec {
    let mut cfg = cfg();
    cfg.budget.retries = retries;
    RequestSpec::loops(loop_specs(entries))
        .config(cfg)
        .threads(2)
}

#[test]
fn injected_faults_classify_and_never_abort_the_run() {
    let entries = corpus();
    let report = faulted_runner().serve(request(&entries, 0));

    // Degradation, not disaster: the run completes with a full accounting.
    assert_eq!(report.results.len(), entries.len());
    assert_eq!(report.outcomes.total(), entries.len());

    // The panicking worker is isolated to its slot and keeps its payload.
    match outcome_of(&report, "fi_01") {
        LoopOutcome::Crashed(msg) => {
            assert!(
                msg.contains("injected fault"),
                "panic payload is preserved: {msg:?}"
            );
        }
        other => panic!("fi_01 should crash, got {other}"),
    }
    // A forced Unknown is a solver that gave up early.
    assert_eq!(
        outcome_of(&report, "fi_02"),
        &LoopOutcome::BudgetExhausted(BudgetKind::SolverConflicts)
    );
    // An expired deadline trips the wall-clock axis.
    assert_eq!(
        outcome_of(&report, "fi_03"),
        &LoopOutcome::BudgetExhausted(BudgetKind::Wall)
    );
    // The unfaulted loop is untouched.
    assert_eq!(outcome_of(&report, "fi_04"), &LoopOutcome::Summarized);

    assert_eq!(report.outcomes.crashed, 1);
    assert_eq!(report.outcomes.budget_solver, 1);
    assert_eq!(report.outcomes.budget_wall, 1);
    assert_eq!(report.outcomes.summarized, 1);
    // No retry lane ran.
    assert_eq!(report.retries.retried, 0);
    assert_eq!(report.retries.rounds, 0);
}

#[test]
fn retry_lane_recovers_budget_exhausted_loops() {
    let entries = corpus();
    let report = faulted_runner().serve(request(&entries, 1));

    // Both budget exhaustions are retried fault-free with an escalated
    // budget and recover; the crash is not a budget exhaustion and is
    // left quarantined.
    assert_eq!(outcome_of(&report, "fi_02"), &LoopOutcome::Summarized);
    assert_eq!(outcome_of(&report, "fi_03"), &LoopOutcome::Summarized);
    assert!(matches!(
        outcome_of(&report, "fi_01"),
        LoopOutcome::Crashed(_)
    ));
    for id in ["fi_02", "fi_03"] {
        let r = report.results.iter().find(|r| r.entry.id == id).unwrap();
        assert!(r.summary.is_some(), "{id} has a summary after retry");
        assert!(r.failure.is_none(), "{id} carries no stale failure");
    }
    assert_eq!(report.retries.rounds, 1);
    assert_eq!(report.retries.retried, 2);
    assert_eq!(report.retries.recovered, 2);
    assert_eq!(report.outcomes.summarized, 3);
    assert_eq!(report.outcomes.crashed, 1);
}

#[test]
fn faulted_runs_are_exactly_reproducible() {
    let entries = corpus();
    let a = faulted_runner().serve(request(&entries, 1));
    let b = faulted_runner().serve(request(&entries, 1));
    for (ra, rb) in a.results.iter().zip(&b.results) {
        assert_eq!(ra.outcome, rb.outcome, "{}", ra.entry.id);
        assert_eq!(
            ra.summary.as_ref().map(|s| s.encode()),
            rb.summary.as_ref().map(|s| s.encode()),
            "{}",
            ra.entry.id
        );
        assert_eq!(ra.failure, rb.failure, "{}", ra.entry.id);
    }
    assert_eq!(a.retries.recovered, b.retries.recovered);
}

#[test]
fn empty_plan_is_byte_identical_across_thread_counts() {
    let entries = corpus();
    let serial =
        CorpusRunner::new(PlanSpec::serial().corpus_order()).serve(request(&entries, 0).threads(1));
    let parallel = CorpusRunner::new(PlanSpec::serial()).serve(request(&entries, 0).threads(4));
    for (s, p) in serial.results.iter().zip(&parallel.results) {
        assert_eq!(s.entry.id, p.entry.id, "results stay in corpus order");
        // These loops summarise in well under the budget, so no verdict
        // can have raced the clock.
        assert!(s.stats.exhausted.is_none() && p.stats.exhausted.is_none());
        assert_eq!(s.outcome, p.outcome, "{}", s.entry.id);
        assert_eq!(
            s.summary.as_ref().map(|sm| sm.encode()),
            p.summary.as_ref().map(|sm| sm.encode()),
            "{}",
            s.entry.id
        );
        assert_eq!(s.failure, p.failure, "{}", s.entry.id);
        assert_eq!(
            s.stats.counterexamples, p.stats.counterexamples,
            "{}: same counterexample trajectory",
            s.entry.id
        );
    }
    assert_eq!(serial.outcomes, parallel.outcomes);
}
