//! The persisted cost book (`results/costs.tsv`) is a machine-generated
//! artifact: its committed rows must stay consistent with the committed
//! benchmark results, so only the benchmark binaries — which opt in via
//! `CorpusRunner::persist_costs` — may rewrite it. Embedded and test
//! runs read the book for cost-ordered dispatch but must leave it
//! byte-identical. (Before this
//! gate existed, every keyed test run merged its own machine's timings
//! into the committed book, dirtying the tree.)

use std::time::Duration;
use strsum_bench::{loop_specs, results_dir, CorpusRunner, PlanSpec, RequestSpec};
use strsum_core::SynthesisConfig;
use strsum_corpus::{App, LoopEntry};

const SKIP_SPACES: &str = "char* loopFunction(char* s) { while (*s == ' ') s++; return s; }";

fn cfg() -> SynthesisConfig {
    SynthesisConfig::with_timeout(Duration::from_secs(120))
}

/// Cost-ordered serial (the default) keys the book for scheduling;
/// without `persist_costs` it may not write it.
#[test]
fn keyed_runs_leave_the_shared_book_untouched() {
    let entries = vec![LoopEntry {
        id: "hygiene_01".to_string(),
        app: App::Bash,
        description: "test loop".to_string(),
        source: SKIP_SPACES.to_string(),
    }];
    let path = results_dir().join("costs.tsv");
    let before = std::fs::read(&path).ok();
    let report = CorpusRunner::new(PlanSpec::serial()).serve(
        RequestSpec::loops(loop_specs(&entries))
            .config(cfg())
            .threads(1),
    );
    assert!(
        report.results[0].summary.is_some(),
        "the run itself must succeed"
    );
    let after = std::fs::read(&path).ok();
    assert_eq!(
        before, after,
        "a keyed run without persist_costs rewrote results/costs.tsv"
    );
}
