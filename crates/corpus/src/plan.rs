//! Execution-plan vocabulary of the batch runner: longest-job-first
//! dispatch from the persisted [`CostBook`] and the strategy tallies a
//! run reports.
//!
//! The cost book is the only source of cost estimates, and the batch
//! runner is its only reader; the daemon queues syntheses in admission
//! order. Every loop runs the one serial candidate search, and the book
//! only decides *when* it runs: expensive loops dispatch first so the
//! tail job never starts on the last free worker. Synthesis never reads
//! the order, so ordering changes wall clock and nothing else.

use crate::costs::CostBook;
use strsum_obs::ToJson;

/// Strategy tallies for one run, reported in the run JSON.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCounts {
    /// Loops run serial.
    pub serial: usize,
    /// Always 0: cube-and-conquer is gone. Kept, and still reported,
    /// only because the `profile` benchmark reads the field.
    pub cubed: usize,
    /// Always 0: the portfolio tier is gone. Kept, and still reported,
    /// only because the `profile` benchmark reads the field.
    pub portfolio: usize,
}

impl ToJson for PlanCounts {
    fn to_json(&self) -> String {
        format!(
            "{{\"serial\":{},\"cubed\":{},\"portfolio\":{}}}",
            self.serial, self.cubed, self.portfolio
        )
    }
}

/// Longest-job-first dispatch permutation for loops identified by their
/// fingerprint-hash `keys` (`None` for loops that could not be
/// fingerprinted, e.g. compile failures).
///
/// Three groups, in dispatch order:
///
/// 1. **Capped** — rows whose recorded outcome is budget exhaustion. The
///    recorded wall time is a lower bound on true cost, so these are the
///    best-known candidates for the tail job. Descending wall time, then
///    descending conflicts, then original index.
/// 2. **Unknown** — loops with no (trusted) book row, in corpus order.
///    A loop with no book row has *unbounded* cost from the scheduler's
///    point of view: it might be a 2ms screen reject or the 10s tail
///    job. Deferring it is the one mistake longest-job-first cannot
///    afford — if the tail job starts on the last free worker, the
///    makespan is `(sum of the rest) / workers + tail`, the exact
///    pathology LJF exists to avoid. Dispatching unknowns first costs
///    nothing when they turn out cheap and saves the whole run when
///    they turn out expensive.
/// 3. **Trusted** — rows from completed attempts, by descending wall
///    time, then descending conflicts (a machine-independent tiebreak
///    when wall clocks collide), then original index.
///
/// Every comparison is on persisted data, so the permutation is
/// deterministic for a given book.
pub fn ljf_order(keys: &[Option<u64>], book: &CostBook) -> Vec<usize> {
    let mut span = strsum_obs::span("sched.ljf", "bench");
    let mut capped: Vec<(usize, crate::CostStat)> = Vec::new();
    let mut unknown: Vec<usize> = Vec::new();
    let mut trusted: Vec<(usize, crate::CostStat)> = Vec::new();
    for (i, &k) in keys.iter().enumerate() {
        match k.and_then(|k| book.get(k)) {
            Some(cost) if cost.capped() => capped.push((i, cost)),
            Some(cost) if cost.trusted() => trusted.push((i, cost)),
            // Unknown-outcome rows (e.g. a crashed worker's stats) carry
            // no credible cost signal; treat them like unrecorded loops.
            Some(_) | None => unknown.push(i),
        }
    }
    let by_cost_desc = |a: &(usize, crate::CostStat), b: &(usize, crate::CostStat)| {
        b.1.wall_micros
            .cmp(&a.1.wall_micros)
            .then(b.1.conflicts.cmp(&a.1.conflicts))
            .then(a.0.cmp(&b.0))
    };
    capped.sort_by(by_cost_desc);
    trusted.sort_by(by_cost_desc);
    span.arg_u64("capped", capped.len() as u64);
    span.arg_u64("known", trusted.len() as u64);
    span.arg_u64("unknown", unknown.len() as u64);
    capped
        .into_iter()
        .map(|(i, _)| i)
        .chain(unknown)
        .chain(trusted.into_iter().map(|(i, _)| i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostStat, RecordedOutcome};

    mod ljf {
        use super::*;

        fn cost(conflicts: u64, wall_micros: u64) -> CostStat {
            CostStat {
                conflicts,
                wall_micros,
                outcome: RecordedOutcome::Summarized,
            }
        }

        fn capped(conflicts: u64, wall_micros: u64) -> CostStat {
            CostStat {
                conflicts,
                wall_micros,
                outcome: RecordedOutcome::BudgetExhausted,
            }
        }

        #[test]
        fn empty_book_preserves_corpus_order() {
            let keys = [Some(10), Some(11), Some(12)];
            assert_eq!(ljf_order(&keys, &CostBook::new()), vec![0, 1, 2]);
        }

        #[test]
        fn longest_recorded_job_goes_first_after_unknowns() {
            let mut book = CostBook::new();
            book.record(10, cost(5, 100));
            book.record(12, cost(9, 9_000));
            book.record(13, cost(2, 100));
            // key 11 is unrecorded and the `None` loop never fingerprinted,
            // so both dispatch first in corpus order; then 12 (longest),
            // then the two 100µs loops: 10 beats 13 on conflicts.
            let keys = [Some(10), Some(11), Some(12), Some(13), None];
            assert_eq!(ljf_order(&keys, &book), vec![1, 4, 2, 0, 3]);
        }

        /// Mixed known/unknown keys with a conflicts tiebreak inside
        /// each group, and capped rows ahead of everything.
        #[test]
        fn mixed_groups_order_capped_then_unknown_then_trusted() {
            let mut book = CostBook::new();
            book.record(30, cost(7, 500)); // trusted, mid
            book.record(31, capped(1, 200)); // capped, cheap-looking lower bound
            book.record(32, capped(9, 200)); // capped, same wall — conflicts break
            book.record(33, cost(2, 500)); // trusted, same wall as 30 — conflicts break
            book.record(34, cost(0, 9_000)); // trusted, longest
            let keys = [
                Some(30),
                Some(31),
                Some(32),
                Some(33),
                Some(34),
                None,
                Some(35),
            ];
            // Capped first (32 beats 31 on conflicts at equal wall), then
            // the unknowns in corpus order (index 5 never fingerprinted,
            // key 35 unrecorded), then trusted by wall desc with 30
            // beating 33 on conflicts.
            assert_eq!(ljf_order(&keys, &book), vec![2, 1, 5, 6, 4, 0, 3]);
        }

        /// A budget-capped row's wall time is a lower bound, so it
        /// outranks a trusted row with a *larger* recorded wall time.
        #[test]
        fn capped_rows_outrank_longer_trusted_rows() {
            let mut book = CostBook::new();
            book.record(40, capped(0, 100));
            book.record(41, cost(0, 50_000));
            assert_eq!(ljf_order(&[Some(40), Some(41)], &book), vec![0, 1]);
        }

        /// Rows recorded with an unknown outcome (v1 books, crashed
        /// workers) carry no credible cost and schedule with the
        /// unknown group.
        #[test]
        fn unknown_outcome_rows_schedule_as_unknown() {
            let mut book = CostBook::new();
            book.record(
                50,
                CostStat {
                    conflicts: 9,
                    wall_micros: 9_000,
                    outcome: RecordedOutcome::Unknown,
                },
            );
            book.record(51, cost(1, 10));
            // 50's 9ms is untrusted: it dispatches in the unknown group
            // (corpus order) rather than claiming the longest-job slot.
            assert_eq!(ljf_order(&[Some(51), Some(50)], &book), vec![1, 0]);
        }

        #[test]
        fn full_tie_falls_back_to_index() {
            let mut book = CostBook::new();
            book.record(20, cost(1, 50));
            book.record(21, cost(1, 50));
            assert_eq!(ljf_order(&[Some(20), Some(21)], &book), vec![0, 1]);
        }

        #[test]
        fn order_is_a_permutation() {
            let mut book = CostBook::new();
            for k in 0..7u64 {
                if k % 2 == 0 {
                    book.record(k, cost(k, 1000 - k));
                }
            }
            let keys: Vec<Option<u64>> = (0..7).map(Some).collect();
            let mut order = ljf_order(&keys, &book);
            order.sort_unstable();
            assert_eq!(order, (0..7).collect::<Vec<usize>>());
        }
    }
}
