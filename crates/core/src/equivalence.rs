//! Bounded equivalence checking between a loop and a candidate program
//! (lines 10–18 of Algorithm 2).
//!
//! The loop is executed symbolically once per length bound; each candidate
//! is then checked by merging both sides' outcomes into single if-then-else
//! terms (the paper's `StartMerge`/`EndMerge`) and asking the solver whether
//! they can ever differ (`IsAlwaysTrue(isEq)`).

use crate::budget::{Budget, BudgetKind, CancelToken, Stop};
use crate::oracle::{LoopOracle, OracleOutcome};
use strsum_gadgets::symbolic::{outcomes_on_symbolic_string, INVALID_SENTINEL};
use strsum_gadgets::{Outcome, Program};
use strsum_smt::{CheckResult, Session, TermId, TermPool};
use strsum_symex::{engine::encode_outcome, Engine, SymbolicRun};

/// Result of a bounded equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivalenceResult {
    /// Equal on every string up to the bound (and on NULL when applicable).
    Equivalent,
    /// A distinguishing input (`None` = the NULL pointer).
    Counterexample(Option<Vec<u8>>),
    /// The check could not be completed (symbolic execution hit a budget).
    Unknown(String),
}

/// A reusable checker: runs the loop symbolically once, then checks many
/// candidate programs against it.
#[derive(Debug)]
pub struct BoundedChecker {
    run: SymbolicRun,
    orig_term: TermId,
    null_expected: Option<OracleOutcome>,
    /// Canonical-buffer assumptions: bytes after the first NUL are NUL, so
    /// that reads past the terminator (unsafe executions) see the same
    /// "nothing there" on both sides.
    canon: Vec<TermId>,
}

impl BoundedChecker {
    /// Prepares a checker for `func` on strings of length ≤ `max_ex_size`.
    ///
    /// # Errors
    ///
    /// Returns a message when symbolic execution cannot fully explore the
    /// loop (budget exhaustion, wrong signature).
    pub fn new(
        pool: &mut TermPool,
        func: &strsum_ir::Func,
        max_ex_size: usize,
    ) -> Result<BoundedChecker, String> {
        let engine = Engine::new(pool);
        BoundedChecker::from_engine(engine, func, max_ex_size).map_err(|e| e.message)
    }

    /// [`BoundedChecker::new`] under an explicit [`Budget`]: the symbolic
    /// engine takes its path/step caps from the budget, and — when the
    /// budget is governed — a wall-clock deadline and the cancellation
    /// token. On exhaustion the error names the budget axis that tripped.
    pub fn with_budget(
        pool: &mut TermPool,
        func: &strsum_ir::Func,
        max_ex_size: usize,
        budget: &Budget,
        cancel: Option<CancelToken>,
    ) -> Result<BoundedChecker, Stop> {
        BoundedChecker::with_budget_opts(pool, func, max_ex_size, budget, cancel, true)
    }

    /// [`BoundedChecker::with_budget`] with the engine's layered
    /// feasibility pipeline (theory → cache → incremental SAT) toggled
    /// explicitly. `fast_path = false` is the ablation baseline: every
    /// branch query bit-blasts the full path condition from scratch.
    pub fn with_budget_opts(
        pool: &mut TermPool,
        func: &strsum_ir::Func,
        max_ex_size: usize,
        budget: &Budget,
        cancel: Option<CancelToken>,
        fast_path: bool,
    ) -> Result<BoundedChecker, Stop> {
        let mut engine = Engine::new(pool);
        engine.max_paths = budget.symex_paths;
        engine.step_limit = budget.symex_steps;
        engine.set_fast_path(fast_path);
        if budget.governed {
            engine.deadline = Some(std::time::Instant::now() + budget.wall);
            engine.cancel = cancel;
        }
        BoundedChecker::from_engine(engine, func, max_ex_size)
    }

    fn from_engine(
        mut engine: Engine<'_>,
        func: &strsum_ir::Func,
        max_ex_size: usize,
    ) -> Result<BoundedChecker, Stop> {
        let run = engine
            .run_on_symbolic_string(func, max_ex_size)
            .map_err(Stop::other)?;
        let pool = engine.pool();
        let canon = canonical_buffer_constraints(pool, &run.chars);
        if !run.complete {
            let message = format!("symbolic execution of {} exceeded budgets", func.name);
            return Err(match run.exhaustion {
                Some(e) => Stop::exhausted(message, BudgetKind::from_exhaustion(e)),
                None => Stop::exhausted(message, BudgetKind::SymexSteps),
            });
        }
        let inv = pool.bv_const(INVALID_SENTINEL, 64);
        let mut orig_term = inv;
        for path in &run.paths {
            let enc = encode_outcome(pool, path, run.input_obj).unwrap_or(inv);
            let pc = pool.and_many(&path.constraints);
            orig_term = pool.ite(pc, enc, orig_term);
        }
        // NULL input behaviour, decided concretely.
        let mut oracle = LoopOracle::new(func);
        let null_expected = if oracle.null_safe() {
            Some(oracle.run(None))
        } else {
            None // unsafe on NULL ⇒ NULL excluded from the input space
        };
        Ok(BoundedChecker {
            run,
            orig_term,
            null_expected,
            canon,
        })
    }

    /// The symbolic character variables of the bound-length input string.
    pub fn chars(&self) -> &[TermId] {
        &self.run.chars
    }

    /// Asserts the checker's standing constraints (canonical buffers) into
    /// a session, once per session, before any [`BoundedChecker::check_in`].
    pub fn assert_canonical(&self, pool: &mut TermPool, session: &mut Session) {
        for &c in &self.canon {
            session.assert_term(pool, c);
        }
    }

    /// Checks a candidate program for equivalence up to the bound, inside
    /// an incremental session prepared with
    /// [`BoundedChecker::assert_canonical`].
    ///
    /// The loop's merged outcome term and the string's shared guard
    /// sub-terms are encoded into the session once and reused by every
    /// later candidate; the candidate's disequality enters only as an
    /// assumption. On `Sat` the counterexample is the *canonical* (lex
    /// least) distinguishing string, so the answer is independent of
    /// solver history.
    pub fn check_in(
        &self,
        pool: &mut TermPool,
        session: &mut Session,
        prog: &Program,
    ) -> EquivalenceResult {
        // NULL input first (concrete, cheap).
        if self.null_differs(prog) {
            return EquivalenceResult::Counterexample(None);
        }
        // Merge the program's guarded outcomes into one term.
        let inv = pool.bv_const(INVALID_SENTINEL, 64);
        let outcomes = outcomes_on_symbolic_string(pool, prog, &self.run.chars, false);
        let mut prog_term = inv;
        for go in &outcomes {
            let enc = match go.outcome {
                Outcome::Ptr(o) => pool.bv_const(o as u64, 64),
                Outcome::Null => pool.bv_const(strsum_gadgets::symbolic::NULL_SENTINEL, 64),
                Outcome::Invalid => inv,
            };
            prog_term = pool.ite(go.guard, enc, prog_term);
        }
        let neq = pool.ne(self.orig_term, prog_term);
        let differ = session.lit(pool, neq);
        match session.canonical_check(pool, &[differ], &self.run.chars) {
            CheckResult::Unsat => EquivalenceResult::Equivalent,
            CheckResult::Sat(model) => {
                let bytes: Vec<u8> = self
                    .run
                    .chars
                    .iter()
                    .map(|&c| model.value_or_zero(c) as u8)
                    .take_while(|&b| b != 0)
                    .collect();
                EquivalenceResult::Counterexample(Some(bytes))
            }
            CheckResult::Unknown => EquivalenceResult::Unknown("solver limit".to_string()),
        }
    }

    /// Tries to prove a program equivalent up to the bound with the cell
    /// decision procedure ([`crate::cells`]) instead of SAT: `true` is a
    /// proof (NULL input included), `false` leaves the question to
    /// [`BoundedChecker::check_in`].
    pub(crate) fn decide_cells(&self, pool: &mut TermPool, prog: &Program) -> bool {
        !self.null_differs(prog) && crate::cells::decide_gadget(pool, &self.run, prog)
    }

    /// Whether the program's outcome on NULL differs from the loop's,
    /// where the NULL input is in the checked space (NULL-safe loops).
    fn null_differs(&self, prog: &Program) -> bool {
        self.null_expected.is_some_and(|expected| {
            OracleOutcome::from_gadget(strsum_gadgets::interp::run(prog, None)) != expected
        })
    }

    /// Checks a candidate program for equivalence up to the bound (one
    /// throwaway session; see [`BoundedChecker::check_in`] for reuse).
    pub fn check(&self, pool: &mut TermPool, prog: &Program) -> EquivalenceResult {
        let mut session = Session::new();
        self.assert_canonical(pool, &mut session);
        self.check_in(pool, &mut session, prog)
    }
}

/// Constrains a symbolic buffer to canonical form: every byte after the
/// first NUL is NUL. Strings of length k are then represented uniquely,
/// and out-of-string reads behave identically in the loop and the summary.
pub(crate) fn canonical_buffer_constraints(pool: &mut TermPool, chars: &[TermId]) -> Vec<TermId> {
    let zero = pool.bv_const(0, 8);
    let mut out = Vec::new();
    for w in chars.windows(2) {
        let prev_nul = pool.eq(w[0], zero);
        let next_nul = pool.eq(w[1], zero);
        out.push(pool.implies(prev_nul, next_nul));
    }
    out
}

/// The decision procedure that proved a summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Procedure {
    /// The cell decision procedure ([`crate::cells`]): no SAT query.
    Cells,
    /// The bounded SAT query.
    Sat,
}

/// The verdict of [`verify_summary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reverification {
    /// Whether the summary is bounded-equivalent to the loop.
    pub verified: bool,
    /// The solver effort spent deciding that (zero when no SAT query ran).
    pub effort: strsum_smt::SessionStats,
    /// The procedure that proved the summary; `None` when it was
    /// rejected (rejections come from the grid screen or from SAT, never
    /// from the cell procedure).
    pub procedure: Option<Procedure>,
}

impl Reverification {
    fn rejected(effort: strsum_smt::SessionStats) -> Reverification {
        Reverification {
            verified: false,
            effort,
            procedure: None,
        }
    }

    fn proved(effort: strsum_smt::SessionStats, procedure: Procedure) -> Reverification {
        Reverification {
            verified: true,
            effort,
            procedure: Some(procedure),
        }
    }
}

/// Re-verifies a summary (encoded bytes of *either kind* — a gadget
/// program or a [`crate::recur::ClosedForm`], e.g. a cross-loop cache or
/// store hit) against `func`, reporting whether it is bounded-equivalent,
/// the solver effort spent deciding that, and which procedure proved it.
///
/// Gadget bytes are first screened concretely on the loop's small-model
/// grid ([`crate::screen::ConcreteScreen`]) — a visibly wrong summary is
/// rejected with zero solver queries. When the caller holds the loop's
/// [`crate::screen::loop_fingerprint`] at `max_ex_size`, passing it
/// builds the screen from the outcomes it already records instead of
/// running the loop over the grid again. A summary is *accepted* only by
/// a decision procedure for the full bounded question: first the cell
/// procedure ([`crate::cells`]), which answers only "equivalent", then —
/// when it leaves the question open — the bounded SAT query (the
/// [`BoundedChecker`] for gadget programs,
/// [`crate::recur::verify_closed_form`] for closed forms). The grid is
/// finite, so passing it proves nothing, and the small-model theorem
/// remains the sole soundness root. Undecodable bytes and loops the
/// checker cannot explore are rejected.
pub fn verify_summary(
    func: &strsum_ir::Func,
    bytes: &[u8],
    max_ex_size: usize,
    fingerprint: Option<&[u64]>,
) -> Reverification {
    let no_effort = strsum_smt::SessionStats::default();
    let prog = match crate::recur::Summary::decode(bytes) {
        Ok(crate::recur::Summary::Gadget(p)) => p,
        Ok(sum) => {
            // Closed-form summary: the recurrence lane's bounded checker
            // (same engine, same canonical constraints), cells first.
            let _span = strsum_obs::span("corpus.reverify", "verify");
            let cf = sum.closed_form().expect("non-gadget summary");
            return match crate::recur::check_closed_form(func, cf, max_ex_size, true) {
                Ok((effort, procedure)) => Reverification::proved(effort, procedure),
                Err(_) => Reverification::rejected(no_effort),
            };
        }
        Err(_) => return Reverification::rejected(no_effort),
    };
    // A gadget summary denotes a `char* → char*` function; on a loop of a
    // different shape the checker's original-loop term would be vacuous.
    if func.ret_ty != Some(strsum_ir::Ty::Ptr) {
        return Reverification::rejected(no_effort);
    }
    let _span = strsum_obs::span("corpus.reverify", "verify");
    let screen = fingerprint
        .and_then(|fp| crate::screen::ConcreteScreen::from_fingerprint(func, fp, max_ex_size));
    let mut screen = screen.unwrap_or_else(|| {
        crate::screen::ConcreteScreen::new(&mut LoopOracle::new(func), max_ex_size)
    });
    if screen.grid_rejects(bytes) {
        return Reverification::rejected(no_effort);
    }
    let mut pool = TermPool::new();
    let Ok(checker) = BoundedChecker::new(&mut pool, func, max_ex_size) else {
        return Reverification::rejected(no_effort);
    };
    if checker.decide_cells(&mut pool, &prog) {
        strsum_obs::counter(strsum_obs::names::VERIFY_CELLS_DECIDED, "verify", 1);
        return Reverification::proved(no_effort, Procedure::Cells);
    }
    strsum_obs::counter(strsum_obs::names::VERIFY_SAT_FALLBACK, "verify", 1);
    let mut session = Session::new();
    session.set_role("verify");
    checker.assert_canonical(&mut pool, &mut session);
    match checker.check_in(&mut pool, &mut session, &prog) {
        EquivalenceResult::Equivalent => Reverification::proved(session.stats(), Procedure::Sat),
        _ => Reverification::rejected(session.stats()),
    }
}

/// One-shot convenience wrapper around [`BoundedChecker`].
pub fn check_equivalence(
    func: &strsum_ir::Func,
    prog: &Program,
    max_ex_size: usize,
) -> EquivalenceResult {
    let mut pool = TermPool::new();
    match BoundedChecker::new(&mut pool, func, max_ex_size) {
        Ok(checker) => checker.check(&mut pool, prog),
        Err(e) => EquivalenceResult::Unknown(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strsum_cfront::compile_one;

    fn skip_ws() -> strsum_ir::Func {
        compile_one("char* f(char* s) { while (*s == ' ' || *s == '\\t') s++; return s; }").unwrap()
    }

    #[test]
    fn correct_summary_accepted() {
        let f = skip_ws();
        let p = Program::decode(b"P \t\0F").unwrap();
        assert_eq!(check_equivalence(&f, &p, 3), EquivalenceResult::Equivalent);
    }

    #[test]
    fn wrong_set_rejected_with_cex() {
        let f = skip_ws();
        let p = Program::decode(b"P \0F").unwrap(); // missing \t
        match check_equivalence(&f, &p, 3) {
            EquivalenceResult::Counterexample(Some(cex)) => {
                // The counterexample must actually distinguish them.
                assert!(cex.contains(&b'\t'), "cex {cex:?} should involve tab");
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn wrong_shape_rejected() {
        let f = skip_ws();
        let p = Program::decode(b"EF").unwrap(); // strlen, not strspn
        assert!(matches!(
            check_equivalence(&f, &p, 3),
            EquivalenceResult::Counterexample(Some(_))
        ));
    }

    #[test]
    fn null_guard_checked() {
        let f = compile_one(
            "char* f(char* s) { if (s == 0) return s; while (*s == ' ') s++; return s; }",
        )
        .unwrap();
        let with_guard = Program::decode(b"ZFP \0F").unwrap();
        let without = Program::decode(b"P \0F").unwrap();
        assert_eq!(
            check_equivalence(&f, &with_guard, 3),
            EquivalenceResult::Equivalent
        );
        assert_eq!(
            check_equivalence(&f, &without, 3),
            EquivalenceResult::Counterexample(None)
        );
    }

    #[test]
    fn unsafe_loop_matches_rawmemchr() {
        // This loop reads past the NUL if ';' is absent — exactly
        // rawmemchr's unsafe behaviour (§3 "Unterminated Loops").
        let f = compile_one("char* f(char* s) { while (*s != ';') s++; return s; }").unwrap();
        let m = Program::decode(b"M;F").unwrap();
        assert_eq!(check_equivalence(&f, &m, 3), EquivalenceResult::Equivalent);
        // Plain strchr differs: it returns NULL when ';' is missing.
        let c = Program::decode(b"C;F").unwrap();
        assert!(matches!(
            check_equivalence(&f, &c, 3),
            EquivalenceResult::Counterexample(Some(_))
        ));
    }
}
