//! Incremental solving sessions: one CDCL instance and one Tseitin
//! encoder kept alive across queries.
//!
//! [`crate::Solver::check`] answers each query from scratch; a [`Session`]
//! instead accumulates state the way a CEGIS loop wants it:
//!
//! * **assertions are permanent** — added clauses (and the learnt clauses
//!   derived from them) survive every later `check`, so constraints are
//!   encoded once when discovered, not once per iteration;
//! * **per-query conditions are assumptions** — literal assumptions scope a
//!   constraint to one `check` without polluting the clause database;
//! * **retractable groups use activation literals** — assert `g → C` via
//!   [`Session::assert_implied`], retire the whole group with a unit `¬g`
//!   ([`Session::retire`]) when, e.g., a deepening size is abandoned;
//! * **encodings are cached** — the embedded [`Blaster`] persists, so a
//!   term shared by a thousand queries is bit-blasted exactly once (gate
//!   clauses are full Tseitin biconditionals, i.e. definitions, which makes
//!   retaining them sound);
//! * **models can be canonicalised** — [`Session::canonical_check`]
//!   returns the lexicographically-least model of the probed terms, which
//!   makes answers independent of solver history (a warm incremental
//!   session and a cold from-scratch solver produce byte-identical
//!   values).

use crate::bitblast::Blaster;
use crate::model::Model;
use crate::sat::{Lit, SatResult, Solver as SatSolver};
use crate::term::{TermId, TermPool};
use crate::CheckResult;
use std::collections::HashMap;

/// Cumulative solver-effort counters for one [`Session`].
///
/// All counts are totals since the session was created; subtract two
/// snapshots to attribute effort to a phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// SAT queries issued (including canonicalisation probes).
    pub queries: u64,
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Learnt clauses kept in the database.
    pub learnts: u64,
    /// Clauses in the database (original + learnt).
    pub clauses: usize,
    /// SAT variables allocated.
    pub vars: usize,
    /// Term encodings served from the blaster cache.
    pub blast_hits: u64,
    /// Terms bit-blasted for the first time.
    pub blast_misses: u64,
}

impl strsum_obs::ToJson for SessionStats {
    /// Flat object, field order fixed — the byte-identical replacement for
    /// the old hand-rolled `session_stats_json` emitter in `strsum-bench`.
    fn to_json(&self) -> String {
        format!(
            "{{\"queries\":{},\"conflicts\":{},\"propagations\":{},\"learnts\":{},\"clauses\":{},\"vars\":{},\"blast_hits\":{},\"blast_misses\":{}}}",
            self.queries,
            self.conflicts,
            self.propagations,
            self.learnts,
            self.clauses,
            self.vars,
            self.blast_hits,
            self.blast_misses
        )
    }
}

impl SessionStats {
    /// Counter-wise difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &SessionStats) -> SessionStats {
        SessionStats {
            queries: self.queries - earlier.queries,
            conflicts: self.conflicts - earlier.conflicts,
            propagations: self.propagations - earlier.propagations,
            learnts: self.learnts - earlier.learnts,
            clauses: self.clauses.saturating_sub(earlier.clauses),
            vars: self.vars.saturating_sub(earlier.vars),
            blast_hits: self.blast_hits - earlier.blast_hits,
            blast_misses: self.blast_misses - earlier.blast_misses,
        }
    }

    /// Counter-wise sum (for aggregating several sessions).
    pub fn plus(&self, other: &SessionStats) -> SessionStats {
        SessionStats {
            queries: self.queries + other.queries,
            conflicts: self.conflicts + other.conflicts,
            propagations: self.propagations + other.propagations,
            learnts: self.learnts + other.learnts,
            clauses: self.clauses + other.clauses,
            vars: self.vars + other.vars,
            blast_hits: self.blast_hits + other.blast_hits,
            blast_misses: self.blast_misses + other.blast_misses,
        }
    }
}

/// An incremental solving session over one [`TermPool`]'s terms.
#[derive(Debug, Default)]
pub struct Session {
    sat: SatSolver,
    blaster: Blaster,
    /// Observability tag carried by every solve span ("search", "verify",
    /// …); `"smt"` until [`Session::set_role`] is called.
    role: Option<&'static str>,
}

impl Session {
    /// Creates an empty session with no resource limits.
    pub fn new() -> Session {
        Session {
            sat: SatSolver::new(),
            blaster: Blaster::new(),
            role: None,
        }
    }

    /// Tags this session's trace spans with `role` (e.g. `"search"` or
    /// `"verify"`), so a trace attributes solver effort by pipeline phase.
    pub fn set_role(&mut self, role: &'static str) {
        self.role = Some(role);
    }

    /// The observability tag spans carry ( `"smt"` when never set).
    pub fn role(&self) -> &'static str {
        self.role.unwrap_or("smt")
    }

    /// Attaches this query's effort deltas to an active span so aggregated
    /// span args reconcile exactly with [`Session::stats`] totals.
    fn finish_solve_span(&self, span: &mut strsum_obs::Span, before: Option<SessionStats>) {
        if let Some(before) = before {
            let d = self.stats().since(&before);
            span.arg_u64("queries", d.queries);
            span.arg_u64("conflicts", d.conflicts);
            span.arg_u64("propagations", d.propagations);
        }
    }

    /// An independent copy of this session: same clause database (learnt
    /// clauses included), same activation groups, same cached encodings,
    /// same conflict budget and same cumulative counters. Work done on
    /// either side afterwards is invisible to the other.
    ///
    /// Symbolic execution forks a path's incremental session when the path
    /// branches, so each successor keeps the shared encoding and learnt
    /// clauses while the parent's constraint set (the thing canonical
    /// models are a pure function of) stays untouched.
    /// Forked counters start at the parent's totals; use
    /// [`SessionStats::since`] against a snapshot taken right after the
    /// fork to attribute effort to the fork alone.
    pub fn fork(&self) -> Session {
        Session {
            sat: self.sat.clone(),
            blaster: self.blaster.clone(),
            role: self.role,
        }
    }

    /// Creates a session whose every `check` gives up after `conflicts`
    /// conflicts (the budget resets per query, not per session).
    pub fn with_conflict_limit(conflicts: u64) -> Session {
        let mut s = Session::new();
        s.sat.set_conflict_limit(conflicts);
        s
    }

    /// Sets the per-query conflict budget.
    pub fn set_conflict_limit(&mut self, conflicts: u64) {
        self.sat.set_conflict_limit(conflicts);
    }

    /// Installs a cooperative cancellation token polled mid-solve.
    /// Forked sessions inherit the token (clones share one flag).
    pub fn set_cancel(&mut self, cancel: Option<crate::CancelToken>) {
        self.sat.set_cancel(cancel);
    }

    /// Installs a wall-clock deadline enforced mid-solve.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.sat.set_deadline(deadline);
    }

    /// Installs a deterministic fault injector (see
    /// [`crate::FaultInjector`]); forked sessions share its counter.
    pub fn set_fault(&mut self, fault: Option<crate::FaultInjector>) {
        self.sat.set_fault(fault);
    }

    /// Why the most recent check returned [`CheckResult::Unknown`]
    /// (`None` after `Sat`/`Unsat`).
    pub fn interrupt(&self) -> Option<crate::Interrupt> {
        self.sat.interrupt()
    }

    /// Encodes a boolean term to its literal without asserting it. Use the
    /// result as an assumption in [`Session::check`].
    pub fn lit(&mut self, pool: &mut TermPool, t: TermId) -> Lit {
        self.blaster.encode_bool(pool, &mut self.sat, t)
    }

    /// Encodes a bit-vector term to its little-endian literal bits.
    pub fn bv_lits(&mut self, pool: &mut TermPool, t: TermId) -> Vec<Lit> {
        self.blaster.encode_bv(pool, &mut self.sat, t)
    }

    /// Permanently asserts a boolean term.
    pub fn assert_term(&mut self, pool: &mut TermPool, t: TermId) {
        match pool.as_bool_const(t) {
            Some(true) => {}
            _ => {
                let l = self.lit(pool, t);
                self.sat.add_clause(&[l]);
            }
        }
    }

    /// Asserts `guard → t`: the constraint is active only while `guard`
    /// can still be true — retire the guard to drop the whole group.
    pub fn assert_implied(&mut self, pool: &mut TermPool, guard: Lit, t: TermId) {
        let l = self.lit(pool, t);
        self.sat.add_clause(&[!guard, l]);
    }

    /// A fresh activation literal for a retractable constraint group.
    ///
    /// Pass it as an assumption while the group is live; pair it with
    /// [`Session::assert_implied`] and end with [`Session::retire`].
    pub fn new_activation(&mut self) -> Lit {
        Lit::new(self.sat.new_var(), true)
    }

    /// Permanently disables an activation literal's constraint group.
    pub fn retire(&mut self, act: Lit) {
        self.sat.add_clause(&[!act]);
    }

    /// Checks the asserted constraints under `assumptions`, returning a
    /// model over every encoded variable on `Sat`.
    pub fn check(&mut self, pool: &mut TermPool, assumptions: &[Lit]) -> CheckResult {
        let mut span = strsum_obs::span("smt.check", self.role());
        let before = span.active().then(|| self.stats());
        let result = match self.sat.solve(assumptions) {
            SatResult::Sat => CheckResult::Sat(Model::from_sat(pool, &self.blaster, &self.sat)),
            SatResult::Unsat => CheckResult::Unsat,
            SatResult::Unknown => CheckResult::Unknown,
        };
        self.finish_solve_span(&mut span, before);
        result
    }

    /// Like [`Session::check`], but on `Sat` the returned model maps each
    /// of `terms` to its value in the **lexicographically least** solution
    /// (comparing `terms` in the given order, each most-significant-bit
    /// first). Only `terms` appear in the model.
    ///
    /// The canonical solution depends solely on the satisfiable set, never
    /// on solver state (phases, activity, learnt clauses), so incremental
    /// and from-scratch runs of the same constraints agree exactly.
    ///
    /// Probing solves under `assumptions ∧ fixed-bits`; each probe shares
    /// the session's learnt clauses, and a probe answered by the current
    /// model costs no solver call at all.
    pub fn canonical_check(
        &mut self,
        pool: &mut TermPool,
        assumptions: &[Lit],
        terms: &[TermId],
    ) -> CheckResult {
        let mut span = strsum_obs::span("smt.canonical", self.role());
        let before = span.active().then(|| self.stats());
        let term_bits: Vec<Vec<Lit>> = terms.iter().map(|&t| self.bv_lits(pool, t)).collect();
        let mut fixed: Vec<Lit> = assumptions.to_vec();
        match self.sat.solve(&fixed) {
            SatResult::Unsat => {
                self.finish_solve_span(&mut span, before);
                return CheckResult::Unsat;
            }
            SatResult::Unknown => {
                self.finish_solve_span(&mut span, before);
                return CheckResult::Unknown;
            }
            SatResult::Sat => {}
        }
        // Invariant: `snap` is a satisfying assignment of the asserted
        // clauses ∧ `fixed`. A bit the snapshot already sets to 0 is
        // optimal without solving; a 1-bit needs one probe, and an Unsat
        // probe keeps the invariant because `snap` itself sets the bit.
        let result = 'probe: {
            let mut snap = self.snapshot();
            let mut values: HashMap<TermId, u64> = HashMap::new();
            for (&t, bits) in terms.iter().zip(&term_bits) {
                let mut v = 0u64;
                for bi in (0..bits.len()).rev() {
                    let l = bits[bi];
                    let snap_one = snap[l.var() as usize] == l.is_positive();
                    let one = if !snap_one {
                        fixed.push(!l);
                        false
                    } else {
                        fixed.push(!l);
                        match self.sat.solve(&fixed) {
                            SatResult::Sat => {
                                snap = self.snapshot();
                                false
                            }
                            SatResult::Unsat => {
                                fixed.pop();
                                fixed.push(l);
                                true
                            }
                            SatResult::Unknown => break 'probe CheckResult::Unknown,
                        }
                    };
                    if one {
                        v |= 1 << bi;
                    }
                }
                values.insert(t, v);
            }
            CheckResult::Sat(Model::from_values(values))
        };
        self.finish_solve_span(&mut span, before);
        result
    }

    fn snapshot(&self) -> Vec<bool> {
        (0..self.sat.num_vars())
            .map(|v| self.sat.model_value(v as u32))
            .collect()
    }

    /// Cumulative effort counters.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            queries: self.sat.num_queries(),
            conflicts: self.sat.num_conflicts(),
            propagations: self.sat.num_propagations(),
            learnts: self.sat.num_learnts(),
            clauses: self.sat.num_clauses(),
            vars: self.sat.num_vars(),
            blast_hits: self.blaster.cache_hits(),
            blast_misses: self.blaster.cache_misses(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assertions_addable_after_solve() {
        let mut pool = TermPool::new();
        let mut s = Session::new();
        let x = pool.var("x", 8);
        let ten = pool.bv_const(10, 8);
        let lt = pool.bv_ult(x, ten);
        s.assert_term(&mut pool, lt);
        assert!(s.check(&mut pool, &[]).is_sat());
        // Post-solve assertion narrows the space…
        let three = pool.bv_const(3, 8);
        let gt = pool.bv_ult(three, x);
        s.assert_term(&mut pool, gt);
        match s.check(&mut pool, &[]) {
            CheckResult::Sat(m) => {
                let v = m.value_or_zero(x);
                assert!((4..10).contains(&v), "got {v}");
            }
            other => panic!("expected sat, got {other:?}"),
        }
        // …and can make it empty.
        let nine = pool.bv_const(9, 8);
        let gt9 = pool.bv_ult(nine, x);
        s.assert_term(&mut pool, gt9);
        assert!(s.check(&mut pool, &[]).is_unsat());
    }

    #[test]
    fn assumptions_scope_to_one_query() {
        let mut pool = TermPool::new();
        let mut s = Session::new();
        let x = pool.var("x", 8);
        let five = pool.bv_const(5, 8);
        let is5 = pool.eq(x, five);
        let not5 = pool.not(is5);
        let a = s.lit(&mut pool, is5);
        let b = s.lit(&mut pool, not5);
        assert!(s.check(&mut pool, &[a, b]).is_unsat());
        // The contradiction was assumption-scoped, not permanent.
        assert!(s.check(&mut pool, &[a]).is_sat());
        assert!(s.check(&mut pool, &[b]).is_sat());
    }

    #[test]
    fn activation_groups_retract() {
        let mut pool = TermPool::new();
        let mut s = Session::new();
        let x = pool.var("x", 8);
        let zero = pool.bv_const(0, 8);
        let g = s.new_activation();
        let is0 = pool.eq(x, zero);
        let not0 = pool.ne(x, zero);
        s.assert_implied(&mut pool, g, is0);
        assert!(s.check(&mut pool, &[g]).is_sat());
        // Under g, x = 0 is forced.
        let n0 = s.lit(&mut pool, not0);
        assert!(s.check(&mut pool, &[g, n0]).is_unsat());
        // Retired, the group no longer constrains x.
        s.retire(g);
        assert!(s.check(&mut pool, &[n0]).is_sat());
    }

    #[test]
    fn canonical_model_is_lexicographically_least() {
        let mut pool = TermPool::new();
        let mut s = Session::new();
        let x = pool.var("x", 8);
        let y = pool.var("y", 8);
        let sum = pool.bv_add(x, y);
        let ten = pool.bv_const(10, 8);
        let eq = pool.eq(sum, ten);
        s.assert_term(&mut pool, eq);
        match s.canonical_check(&mut pool, &[], &[x, y]) {
            CheckResult::Sat(m) => {
                // Least x first, then least y given x.
                assert_eq!(m.value(x), Some(0));
                assert_eq!(m.value(y), Some(10));
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn canonical_model_ignores_solver_history() {
        // Same constraints, two sessions with different histories: the
        // warmed-up session must produce the same canonical values.
        let mut pool = TermPool::new();
        let x = pool.var("x", 8);
        let y = pool.var("y", 8);
        let sum = pool.bv_add(x, y);
        let target = pool.bv_const(77, 8);
        let eq = pool.eq(sum, target);
        let seven = pool.bv_const(7, 8);
        let xgt = pool.bv_ult(seven, x);

        let mut cold = Session::new();
        cold.assert_term(&mut pool, eq);
        cold.assert_term(&mut pool, xgt);
        let cold_model = cold
            .canonical_check(&mut pool, &[], &[x, y])
            .model()
            .expect("sat");

        let mut warm = Session::new();
        warm.assert_term(&mut pool, eq);
        // History: unrelated queries to populate phases/activity/learnts.
        let z = pool.var("z", 8);
        let zz = pool.bv_mul(z, z);
        let c9 = pool.bv_const(9, 8);
        let zq = pool.eq(zz, c9);
        let zl = warm.lit(&mut pool, zq);
        assert!(warm.check(&mut pool, &[zl]).is_sat());
        warm.assert_term(&mut pool, xgt);
        let warm_model = warm
            .canonical_check(&mut pool, &[], &[x, y])
            .model()
            .expect("sat");

        assert_eq!(cold_model.value(x), warm_model.value(x));
        assert_eq!(cold_model.value(y), warm_model.value(y));
    }

    #[test]
    fn fork_shares_constraints_then_diverges() {
        let mut pool = TermPool::new();
        let mut parent = Session::new();
        let x = pool.var("x", 8);
        let ten = pool.bv_const(10, 8);
        let lt = pool.bv_ult(x, ten);
        parent.assert_term(&mut pool, lt);
        assert!(parent.check(&mut pool, &[]).is_sat());

        let mut fork = parent.fork();
        // The fork sees the parent's constraints…
        let nine = pool.bv_const(9, 8);
        let gt9 = pool.bv_ult(nine, x);
        let l = fork.lit(&mut pool, gt9);
        assert!(fork.check(&mut pool, &[l]).is_unsat());
        // …and asserting into the fork never narrows the parent.
        let five = pool.bv_const(5, 8);
        let gt5 = pool.bv_ult(five, x);
        fork.assert_term(&mut pool, gt5);
        let zero = pool.bv_const(0, 8);
        let is0 = pool.eq(x, zero);
        let z = fork.lit(&mut pool, is0);
        assert!(fork.check(&mut pool, &[z]).is_unsat());
        let pz = parent.lit(&mut pool, is0);
        assert!(parent.check(&mut pool, &[pz]).is_sat());
    }

    #[test]
    fn disjoint_cube_forks_reconstruct_the_canonical_model() {
        // Partition x's byte range into four contiguous cubes (assumption
        // sets), solve each in its own fork, and check that the lowest SAT
        // cube's canonical model equals the parent's global canonical
        // model: assumptions in a fork never perturb model extraction.
        let mut pool = TermPool::new();
        let mut parent = Session::new();
        let x = pool.var("x", 8);
        let y = pool.var("y", 8);
        let sum = pool.bv_add(x, y);
        let target = pool.bv_const(200, 8);
        let eq = pool.eq(sum, target);
        parent.assert_term(&mut pool, eq);
        let c100 = pool.bv_const(100, 8);
        let xgt = pool.bv_ult(c100, x); // forces x ≥ 101 → cubes 0/1 unsat
        parent.assert_term(&mut pool, xgt);
        let global = parent
            .canonical_check(&mut pool, &[], &[x, y])
            .model()
            .expect("sat");

        let mut first_sat: Option<(usize, crate::Model)> = None;
        for (i, (lo, hi)) in [(0, 63), (64, 127), (128, 191), (192, 255)]
            .iter()
            .enumerate()
        {
            let mut worker = parent.fork();
            let lo_c = pool.bv_const(*lo, 8);
            let hi_c = pool.bv_const(*hi, 8);
            let ge = pool.bv_ule(lo_c, x);
            let le = pool.bv_ule(x, hi_c);
            let a = worker.lit(&mut pool, ge);
            let b = worker.lit(&mut pool, le);
            match worker.canonical_check(&mut pool, &[a, b], &[x, y]) {
                CheckResult::Sat(m) => {
                    if first_sat.is_none() {
                        first_sat = Some((i, m));
                    }
                }
                CheckResult::Unsat => assert!(first_sat.is_none(), "cubes above the winner"),
                CheckResult::Unknown => panic!("no budget set, Unknown impossible"),
            }
        }
        let (winner, model) = first_sat.expect("some cube is satisfiable");
        assert_eq!(winner, 1, "x = 101 lives in cube [64,127]");
        assert_eq!(model.value(x), global.value(x));
        assert_eq!(model.value(y), global.value(y));
    }

    #[test]
    fn stats_accumulate() {
        let mut pool = TermPool::new();
        let mut s = Session::new();
        let x = pool.var("x", 8);
        let y = pool.var("y", 8);
        let sum = pool.bv_add(x, y);
        let t = pool.bv_const(100, 8);
        let eq = pool.eq(sum, t);
        s.assert_term(&mut pool, eq);
        assert!(s.check(&mut pool, &[]).is_sat());
        let first = s.stats();
        assert!(first.queries >= 1);
        assert!(first.blast_misses > 0);
        // Re-encoding the same term hits the cache; a new query adds on.
        s.assert_term(&mut pool, eq);
        assert!(s.check(&mut pool, &[]).is_sat());
        let second = s.stats();
        assert!(second.blast_hits > first.blast_hits);
        assert_eq!(second.since(&first).queries, 1);
    }

    #[test]
    fn conflict_budget_resets_per_query() {
        // A pigeonhole-style instance that exceeds a tiny budget: the
        // first query is Unknown, and so is the second (budget was reset,
        // not exhausted-and-carried-over into instant Unknown).
        let mut pool = TermPool::new();
        let mut s = Session::with_conflict_limit(3);
        let vars: Vec<TermId> = (0..6).map(|i| pool.var(&format!("v{i}"), 6)).collect();
        // All-distinct + bounded: forces real search.
        for i in 0..vars.len() {
            for j in (i + 1)..vars.len() {
                let ne = pool.ne(vars[i], vars[j]);
                s.assert_term(&mut pool, ne);
            }
        }
        let five = pool.bv_const(5, 6);
        for &v in &vars {
            let le = pool.bv_ule(v, five);
            s.assert_term(&mut pool, le);
        }
        let a = s.check(&mut pool, &[]);
        let b = s.check(&mut pool, &[]);
        // With only 3 conflicts allowed the instance is realistically
        // Unknown; what matters is the second query got its own budget and
        // behaves like the first rather than failing instantly.
        assert_eq!(
            matches!(a, CheckResult::Unknown),
            matches!(b, CheckResult::Unknown)
        );
    }
}
