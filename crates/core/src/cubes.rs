//! Deterministic intra-loop parallel candidate search (cube and conquer).
//!
//! The CEGIS candidate query at each depth asks the search session for the
//! canonical — lexicographically least over the program bytes, each byte
//! most-significant-bit first — model of the accumulated constraints. This
//! module answers the same query with `k` worker threads while returning
//! the *byte-identical* model a serial run would:
//!
//! 1. **Cube derivation.** The candidate space is split into `k` disjoint,
//!    exhaustive cubes over the top gadget-selector variable (the first
//!    program byte, `prog_vars[0]`): cube `i` constrains it to the `i`-th
//!    contiguous range of `[0, 255]` ([`cube_ranges`]). The derivation
//!    depends only on `k`, never on solver state or scheduling.
//! 2. **Fork-per-cube.** Each worker gets its own [`Session`] forked from
//!    the shared encode-once search session ([`Session::fork`]) plus its
//!    own [`TermPool`] clone, so workers share every constraint and learnt
//!    clause accumulated so far but race on nothing. The parent session is
//!    never solved on and never mutated — its evolution stays identical to
//!    a serial run's constraint-set evolution.
//! 3. **Deterministic merge.** The winner is the **lowest cube index with
//!    a SAT answer**, and its canonical-in-cube model is returned. This
//!    equals the serial canonical model: the canonical candidate's first
//!    byte is minimal over all solutions, so every cube below the one
//!    containing it covers only smaller first-byte values and is UNSAT,
//!    and within the winning cube the global canonical model is still the
//!    lexicographically least solution (the cube constraint only removes
//!    solutions that are not lexicographically least). An `Unknown` from
//!    any cube at or below the first SAT cube makes the merged answer
//!    `Unknown` — a budget-limited cube might hide a smaller candidate, so
//!    claiming SAT there could diverge from the serial answer.
//!
//! Every cube solve runs under the same per-query conflict budget as the
//! serial query (forked sessions inherit it), so `Unknown` merging only
//! triggers where a serial run is itself at the mercy of its budget — the
//! determinism audit already classifies those verdicts as timing races.
//!
//! **Cancellation.** Forked sessions also inherit the parent session's
//! [`CancelToken`](crate::budget::CancelToken) — clones share one flag —
//! so an externally cancelled attempt
//! ([`SynthSession::with_cancel`](crate::session::SynthSession::with_cancel)
//! / [`synthesize_with_cancel`](crate::cegis::synthesize_with_cancel))
//! stops all of its cube workers too: one token reaches every solver the
//! attempt ever forks.

use strsum_smt::{CheckResult, Interrupt, Lit, Session, SessionStats, TermId, TermPool};

/// Splits the byte range `[0, 255]` of the top gadget-selector variable
/// into `k` disjoint, exhaustive, contiguous ranges `(lo, hi)`, ordered so
/// cube `i` covers strictly smaller values than cube `i + 1`. `k` is
/// clamped to `[1, 256]`.
pub fn cube_ranges(k: usize) -> Vec<(u8, u8)> {
    let k = k.clamp(1, 256);
    (0..k)
        .map(|i| {
            let lo = (i * 256 / k) as u8;
            let hi = (((i + 1) * 256 / k) - 1) as u8;
            (lo, hi)
        })
        .collect()
}

/// Solves the candidate query partitioned into `k` cubes on `k` worker
/// threads, merging with the deterministic winner rule described in the
/// module docs. Returns the merged answer, the summed solver effort of
/// every cube worker (the deltas the owning session folds into its
/// telemetry), and — on a merged `Unknown` — the interrupt that stopped
/// the decisive cube.
pub(crate) fn solve_partitioned(
    search: &Session,
    pool: &TermPool,
    act: Lit,
    prog_vars: &[TermId],
    k: usize,
) -> (CheckResult, SessionStats, Option<Interrupt>) {
    let ranges = cube_ranges(k);
    let selector = prog_vars[0];
    let mut span = strsum_obs::span("cegis.cubes", "cegis");
    span.arg_u64("cubes", ranges.len() as u64);

    let outcomes: Vec<(CheckResult, SessionStats, Option<Interrupt>)> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = ranges
                .iter()
                .enumerate()
                .map(|(i, &(lo, hi))| {
                    scope.spawn(move || {
                        solve_cube(search, pool, act, prog_vars, selector, i, lo, hi)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("cube worker panicked"))
                .collect()
        });

    let mut effort = SessionStats::default();
    for (_, e, _) in &outcomes {
        effort = effort.plus(e);
    }
    // Winner rule: walk cubes in index order; the first SAT cube wins, but
    // only if every cube before it answered UNSAT.
    let mut winner: Option<usize> = None;
    for (i, (r, _, interrupt)) in outcomes.iter().enumerate() {
        match r {
            CheckResult::Sat(_) => {
                winner = Some(i);
                break;
            }
            CheckResult::Unsat => continue,
            CheckResult::Unknown => {
                span.arg_u64("unknown_cube", i as u64);
                return (CheckResult::Unknown, effort, *interrupt);
            }
        }
    }
    match winner {
        Some(i) => {
            span.arg_u64("winner", i as u64);
            let (result, _, _) = outcomes.into_iter().nth(i).expect("winner index in range");
            (result, effort, None)
        }
        None => (CheckResult::Unsat, effort, None),
    }
}

/// One cube worker: fork the shared session, assume the cube's range over
/// the selector byte, extract the canonical-in-cube model.
#[allow(clippy::too_many_arguments)]
fn solve_cube(
    search: &Session,
    pool: &TermPool,
    act: Lit,
    prog_vars: &[TermId],
    selector: TermId,
    index: usize,
    lo: u8,
    hi: u8,
) -> (CheckResult, SessionStats, Option<Interrupt>) {
    let mut span = strsum_obs::span("cegis.cube", "cegis");
    span.arg_u64("cube", index as u64);
    let mut pool = pool.clone();
    let mut worker = search.fork();
    let base = worker.stats();
    let mut assumptions = vec![act];
    if lo > 0 {
        let lo_c = pool.bv_const(u64::from(lo), 8);
        let ge = pool.bv_ule(lo_c, selector);
        assumptions.push(worker.lit(&mut pool, ge));
    }
    if hi < 255 {
        let hi_c = pool.bv_const(u64::from(hi), 8);
        let le = pool.bv_ule(selector, hi_c);
        assumptions.push(worker.lit(&mut pool, le));
    }
    let result = worker.canonical_check(&mut pool, &assumptions, prog_vars);
    let effort = worker.stats().since(&base);
    let verdict = match &result {
        CheckResult::Sat(_) => "cube.sat",
        CheckResult::Unsat => "cube.unsat",
        CheckResult::Unknown => "cube.unknown",
    };
    strsum_obs::counter(verdict, "cegis", 1);
    span.arg_u64("conflicts", effort.conflicts);
    let interrupt = worker.interrupt();
    (result, effort, interrupt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_partition_the_byte_space() {
        for k in [1, 2, 3, 4, 5, 7, 8, 16, 100, 256, 1000] {
            let ranges = cube_ranges(k);
            assert_eq!(ranges.len(), k.clamp(1, 256));
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges[ranges.len() - 1].1, 255);
            for w in ranges.windows(2) {
                let (_, hi) = w[0];
                let (lo, _) = w[1];
                assert_eq!(
                    u16::from(hi) + 1,
                    u16::from(lo),
                    "contiguous and disjoint at k={k}"
                );
            }
            for &(lo, hi) in &ranges {
                assert!(lo <= hi, "non-empty range at k={k}");
            }
        }
    }

    #[test]
    fn zero_clamps_to_one_cube() {
        assert_eq!(cube_ranges(0), vec![(0, 255)]);
    }
}
