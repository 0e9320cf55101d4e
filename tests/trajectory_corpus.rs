//! Corpus trajectory golden: a fixed slice of corpus loops, synthesised
//! under a conflict cap with a wall clock far beyond reach, must reproduce
//! each loop's outcome, summary bytes and full search/verify solver
//! statistics exactly as recorded in `trajectory_corpus.golden`.
//!
//! The golden was generated with the SAT kernel before its data-layout
//! rewrite. The solver statistics (queries, conflicts, propagations,
//! learnts, clauses, variables, blaster hits and misses) move with any
//! change to the search trajectory, and the loops near the cap change
//! their verdict with it; `crates/smt/tests/trajectory.rs` pins the same
//! property on raw CNFs. On a mismatch the test prints the table it
//! computed, in the golden file's format.

use std::time::Duration;
use strsum_core::{summarize_loop, Budget, BudgetKind, Summary, SynthesisConfig};
use strsum_obs::ToJson;

const GOLDEN: &str = include_str!("trajectory_corpus.golden");

/// Conflict cap per candidate-search query: the profile benchmark's.
const CAP: u64 = 1500;

/// Gadget syntheses (`git_06` and `git_20` within a few hundred conflicts
/// of the cap), loops that exhaust the cap (`git_32` after some verify
/// queries), and two accumulator closed forms and a builder from the
/// recurrence lane.
const SLICE: [&str; 10] = [
    "bash_05", "git_20", "git_06", "bash_04", "git_05", "bash_02", "git_32", "acc_01", "acc_05",
    "acc_10",
];

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn row(id: &str) -> String {
    let entry = strsum_corpus::corpus()
        .into_iter()
        .chain(strsum_corpus::stateful_corpus())
        .find(|e| e.id == id)
        .unwrap_or_else(|| panic!("{id} is not in the corpus"));
    let func = strsum_cfront::compile_one(&entry.source).expect("corpus loops compile");
    let cfg = SynthesisConfig {
        budget: Budget {
            wall: Duration::from_secs(600),
            solver_conflicts: CAP,
            ..Budget::default()
        },
        ..SynthesisConfig::default()
    };
    let r = summarize_loop(&func, &cfg);
    assert_ne!(
        r.stats.exhausted,
        Some(BudgetKind::Wall),
        "{id}: the wall clock must never decide this test"
    );
    let (outcome, bytes) = match &r.summary {
        Some(s @ Summary::Gadget(_)) => ("gadget".to_string(), s.encode()),
        Some(s @ Summary::Accumulator(_)) => ("accumulator".to_string(), s.encode()),
        Some(s @ Summary::Builder(_)) => ("builder".to_string(), s.encode()),
        None => (
            format!(
                "{:?}:{}",
                r.stats.exhausted,
                r.stats.failure.as_deref().unwrap_or("-")
            ),
            Vec::new(),
        ),
    };
    // Closed forms carry 256-entry tables: long encodings are pinned by
    // length and FNV-1a.
    let summary = match bytes.len() {
        0 => "-".to_string(),
        1..=16 => bytes.iter().map(|b| format!("{b:02x}")).collect(),
        n => format!("{n}B:{:016x}", fnv(&bytes)),
    };
    format!(
        "{id}\t{outcome}\t{summary}\t{}\t{}",
        r.stats.solver.search.to_json(),
        r.stats.solver.verify.to_json()
    )
}

#[test]
fn corpus_slice_matches_the_trajectory_golden() {
    let rows: Vec<String> = SLICE.iter().map(|id| row(id)).collect();
    let golden: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let first_diff = (0..rows.len().max(golden.len()))
        .find(|&i| rows.get(i).map(String::as_str) != golden.get(i).copied());
    if let Some(i) = first_diff {
        panic!(
            "corpus trajectory differs from the golden at row {i}:\n  want: {}\n  got:  {}\n\nfull table:\n{}",
            golden.get(i).copied().unwrap_or("<none>"),
            rows.get(i).map(String::as_str).unwrap_or("<none>"),
            rows.join("\n")
        );
    }
}
