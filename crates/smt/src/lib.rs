#![warn(missing_docs)]
//! A small SMT solver for the quantifier-free theory of fixed-width
//! bit-vectors, plus a direct decision procedure for the string constraints
//! produced by loop summaries.
//!
//! This crate is the stand-in for the STP/Z3 solvers used by KLEE in the
//! paper *Computing Summaries of String Loops in C for Better Testing and
//! Refactoring* (PLDI 2019). It provides:
//!
//! * a hash-consed term language ([`TermPool`], [`TermId`]) over booleans and
//!   bit-vectors of width ≤ 64, with algebraic simplification applied at
//!   construction time;
//! * a Tseitin bit-blaster ([`bitblast`]) targeting CNF;
//! * a CDCL SAT solver ([`sat::Solver`]) with two-watched-literal
//!   propagation, VSIDS branching, first-UIP clause learning, phase saving
//!   and Luby restarts;
//! * incremental solving sessions ([`Session`]) that keep one SAT instance
//!   and one encoder alive across queries — assertions after a solve,
//!   assumption-scoped checks, activation-literal groups, per-query
//!   conflict budgets and canonical (history-independent) models;
//! * model extraction and a concrete term evaluator ([`Model`], [`eval`]);
//! * a constructive string solver ([`strings`]) for span/search constraints
//!   over bounded NUL-terminated buffers — the engine behind the `str.KLEE`
//!   configuration of the paper's §4.3.
//!
//! # Example
//!
//! ```
//! use strsum_smt::{TermPool, Solver, CheckResult};
//!
//! let mut pool = TermPool::new();
//! let x = pool.var("x", 8);
//! let y = pool.var("y", 8);
//! let sum = pool.bv_add(x, y);
//! let ten = pool.bv_const(10, 8);
//! let eq = pool.eq(sum, ten);
//! let lt = pool.bv_ult(x, y);
//! match Solver::new().check(&mut pool, &[eq, lt]) {
//!     CheckResult::Sat(model) => {
//!         let xv = model.value(x).unwrap();
//!         let yv = model.value(y).unwrap();
//!         assert_eq!((xv + yv) & 0xff, 10);
//!         assert!(xv < yv);
//!     }
//!     CheckResult::Unsat => unreachable!("constraints are satisfiable"),
//!     CheckResult::Unknown => unreachable!(),
//! }
//! ```

pub mod bitblast;
pub mod cancel;
pub mod eval;
pub mod model;
pub mod sat;
pub mod session;
pub mod strings;
pub mod term;

pub use bitblast::Blaster;
pub use cancel::{CancelToken, FaultInjector, Interrupt};
pub use eval::{eval_bool, eval_bv};
pub use model::Model;
pub use sat::{Lit, SatResult, Solver as SatSolver};
pub use session::{Session, SessionStats};
pub use strings::{
    ByteSet, StringAbstraction, StringTheory, TheoryState, TheoryVerdict, Translation,
};
pub use term::{Op, Sort, Term, TermId, TermPool};

/// Outcome of a satisfiability check at the term level.
#[derive(Debug, Clone)]
pub enum CheckResult {
    /// The assertions are satisfiable; a model for the variables is attached.
    Sat(Model),
    /// The assertions are unsatisfiable.
    Unsat,
    /// The check was abandoned (resource limit).
    Unknown,
}

impl CheckResult {
    /// Returns `true` for [`CheckResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, CheckResult::Sat(_))
    }

    /// Returns `true` for [`CheckResult::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, CheckResult::Unsat)
    }

    /// Extracts the model, if any.
    pub fn model(self) -> Option<Model> {
        match self {
            CheckResult::Sat(m) => Some(m),
            _ => None,
        }
    }
}

/// A bit-vector SMT solver: bit-blasts assertions and runs CDCL SAT.
///
/// Each call to [`Solver::check`] is independent — it runs a throwaway
/// [`Session`] — mirroring how KLEE issues stand-alone queries per path.
/// Callers with many related queries should hold a [`Session`] instead.
#[derive(Debug, Default, Clone)]
pub struct Solver {
    /// Optional cap on SAT conflicts before giving up with `Unknown`.
    pub conflict_limit: Option<u64>,
    /// Optional cooperative cancellation token polled mid-solve.
    pub cancel: Option<CancelToken>,
    /// Optional wall-clock deadline enforced mid-solve.
    pub deadline: Option<std::time::Instant>,
}

impl Solver {
    /// Creates a solver with no resource limits.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a solver that gives up after `conflicts` SAT conflicts.
    pub fn with_conflict_limit(conflicts: u64) -> Self {
        Self {
            conflict_limit: Some(conflicts),
            ..Self::default()
        }
    }

    /// Checks the conjunction of `assertions` for satisfiability.
    ///
    /// All assertions must be boolean-sorted terms from `pool`.
    ///
    /// # Panics
    ///
    /// Panics if an assertion is not of boolean sort.
    pub fn check(&self, pool: &mut TermPool, assertions: &[TermId]) -> CheckResult {
        self.check_parts(pool, assertions, &[]).0
    }

    /// Checks `prefix ∧ extra` without materialising the combined slice —
    /// the shape of a symbolic-execution feasibility query, where a long
    /// shared path prefix is probed against one new branch literal. The
    /// borrowed prefix is never copied.
    pub fn check_with_extra(
        &self,
        pool: &mut TermPool,
        prefix: &[TermId],
        extra: TermId,
    ) -> CheckResult {
        self.check_parts(pool, prefix, &[extra]).0
    }

    /// [`Solver::check_with_extra`] plus the solver-effort counters of the
    /// throwaway session that answered it (zeroed when the constant fast
    /// path answered without one). Ablation baselines use the counters to
    /// attribute propagations per query.
    pub fn check_with_extra_stats(
        &self,
        pool: &mut TermPool,
        prefix: &[TermId],
        extra: TermId,
    ) -> (CheckResult, SessionStats) {
        self.check_parts(pool, prefix, &[extra])
    }

    fn check_parts(
        &self,
        pool: &mut TermPool,
        prefix: &[TermId],
        extra: &[TermId],
    ) -> (CheckResult, SessionStats) {
        // Fast path on trivially-known assertions.
        let mut pending = Vec::with_capacity(prefix.len() + extra.len());
        for &a in prefix.iter().chain(extra) {
            assert_eq!(pool.sort(a), Sort::Bool, "assertion must be boolean");
            match pool.as_bool_const(a) {
                Some(true) => {}
                Some(false) => return (CheckResult::Unsat, SessionStats::default()),
                None => pending.push(a),
            }
        }
        let mut session = Session::new();
        if let Some(limit) = self.conflict_limit {
            session.set_conflict_limit(limit);
        }
        if self.cancel.is_some() {
            session.set_cancel(self.cancel.clone());
        }
        if self.deadline.is_some() {
            session.set_deadline(self.deadline);
        }
        for a in pending {
            session.assert_term(pool, a);
        }
        let result = session.check(pool, &[]);
        let stats = session.stats();
        (result, stats)
    }

    /// Returns `true` iff `cond` holds under every assignment satisfying
    /// `assumptions` — i.e. `assumptions ∧ ¬cond` is unsatisfiable.
    ///
    /// This is the `IsAlwaysTrue` primitive of the paper's Algorithm 2.
    pub fn is_always_true(
        &self,
        pool: &mut TermPool,
        assumptions: &[TermId],
        cond: TermId,
    ) -> bool {
        let not_cond = pool.not(cond);
        self.check_with_extra(pool, assumptions, not_cond)
            .is_unsat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_sat_and_unsat() {
        let mut p = TermPool::new();
        let t = p.bool_const(true);
        let f = p.bool_const(false);
        assert!(Solver::new().check(&mut p, &[t]).is_sat());
        assert!(Solver::new().check(&mut p, &[t, f]).is_unsat());
    }

    #[test]
    fn is_always_true_tautology() {
        let mut p = TermPool::new();
        let x = p.var("x", 8);
        let lt = p.bv_ult(x, x);
        let not_lt = p.not(lt);
        assert!(Solver::new().is_always_true(&mut p, &[], not_lt));
        assert!(!Solver::new().is_always_true(&mut p, &[], lt));
    }
}
