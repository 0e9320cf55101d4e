#![warn(missing_docs)]
//! The loop corpus: the database of 115 memoryless loops distributed over
//! the paper's 13 open-source programs, the generated loop *population*
//! behind Table 2, and the automatic + manual filter pipelines.
//!
//! ## Substitution note (see DESIGN.md §3)
//!
//! The paper harvests loops from the real bash/git/… codebases. Shipping
//! those sources is neither possible nor useful here — the synthesiser only
//! ever sees extracted `char* loopFunction(char*)` bodies — so this crate
//! reproduces the *distribution of loop shapes*: every entry in [`db`] is a
//! compilable C function modelled on the string-scanning idioms the paper
//! describes (skip-whitespace, find-delimiter, digit spans, backward
//! scans, guarded variants, …), with per-application counts matching
//! Table 3's denominators exactly. [`population`] additionally generates
//! the surrounding non-memoryless loops with category counts matching the
//! per-filter deltas of Table 2.

pub mod costs;
pub mod db;
pub mod filter;
pub mod manual;
pub mod plan;
pub mod population;

pub use costs::{fingerprint_hash, CostBook, CostStat, RecordedOutcome, COST_BOOK_HEADER};
pub use db::{corpus, stateful_corpus, App, LoopEntry, APPS};
pub use filter::{filter_report, passes_automatic_filters, FilterStage};
pub use manual::{manual_category, ManualCategory};
pub use plan::{ljf_order, PlanCounts};
pub use population::{generate_population, PopulationLoop, POPULATION_SPEC};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_115_loops_with_paper_distribution() {
        let c = corpus();
        assert_eq!(c.len(), 115);
        let count = |app: App| c.iter().filter(|e| e.app == app).count();
        // Table 3 denominators.
        assert_eq!(count(App::Bash), 14);
        assert_eq!(count(App::Diff), 5);
        assert_eq!(count(App::Awk), 3);
        assert_eq!(count(App::Git), 33);
        assert_eq!(count(App::Grep), 3);
        assert_eq!(count(App::M4), 5);
        assert_eq!(count(App::Make), 3);
        assert_eq!(count(App::Patch), 13);
        assert_eq!(count(App::Sed), 0);
        assert_eq!(count(App::Ssh), 2);
        assert_eq!(count(App::Tar), 15);
        assert_eq!(count(App::Libosip), 13);
        assert_eq!(count(App::Wget), 6);
    }

    #[test]
    fn every_corpus_loop_compiles() {
        for entry in corpus() {
            let r = strsum_cfront::compile_one(&entry.source);
            assert!(r.is_ok(), "{} failed to compile: {:?}", entry.id, r.err());
        }
    }

    #[test]
    fn corpus_ids_unique() {
        let c = corpus();
        let mut ids: Vec<&str> = c.iter().map(|e| e.id.as_str()).collect();
        ids.sort_unstable();
        let n = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }
}
