//! Incremental synthesis sessions: Algorithm 2 with persistent solver
//! state.
//!
//! A [`SynthSession`] owns everything one synthesis attempt accumulates —
//! the term pool, the loop's symbolic execution ([`BoundedChecker`]), the
//! concrete oracle, the counterexample set, and two incremental
//! [`strsum_smt::Session`]s:
//!
//! * the **search** session holds the candidate-space constraints. Each
//!   counterexample's oracle constraint is encoded exactly once when the
//!   counterexample is discovered (the naive loop re-encodes every
//!   counterexample every iteration, O(iterations × counterexamples) term
//!   work); rejected candidates get blocking clauses; constraints for one
//!   program size are guarded by an activation literal so iterative
//!   deepening can retire a size wholesale and move on without discarding
//!   learnt clauses or cached encodings;
//! * the **verify** session holds the loop-vs-candidate equivalence
//!   encoding. The loop's merged symbolic outcome and the canonical-buffer
//!   constraints are asserted once; each candidate contributes only its own
//!   guarded-outcome term, queried as an assumption.
//!
//! Both sessions draw candidate models and counterexample strings through
//! canonical (lexicographically-least) model extraction, which makes the
//! whole run a pure function of the constraint sets: a warm incremental
//! session and the from-scratch reference path (`incremental: false` in
//! [`SynthesisConfig`]) synthesise byte-identical programs and report
//! identical UNSAT verdicts, differing only in solver effort.

use crate::budget::{BudgetKind, CancelToken, Stop};
use crate::cegis::{
    decode_prefix, fresh_distinguishing_input, minimize_screened, minimize_with, SynthStats,
    SynthesisConfig, SynthesisResult,
};
use crate::equivalence::{BoundedChecker, EquivalenceResult};
use crate::oracle::{LoopOracle, OracleOutcome};
use crate::screen::{ConcreteScreen, ScreenVerdict};
use std::time::{Duration, Instant};
use strsum_gadgets::interp::run_bytes;
use strsum_gadgets::symbolic::outcome_term_symbolic_prog_vocab;
use strsum_gadgets::Program;
use strsum_smt::{
    CheckResult, FaultInjector, Interrupt, Lit, Session, SessionStats, TermId, TermPool,
};

/// Solver-effort counters for one synthesis attempt, split by role.
///
/// Counters are cumulative over the owning [`SynthSession`] — across CEGIS
/// iterations and, under iterative deepening, across program sizes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverTelemetry {
    /// Effort spent finding candidate programs.
    pub search: SessionStats,
    /// Effort spent checking candidates against the loop.
    pub verify: SessionStats,
}

impl SolverTelemetry {
    /// Combined search + verify counters.
    pub fn total(&self) -> SessionStats {
        self.search.plus(&self.verify)
    }
}

impl strsum_obs::ToJson for SolverTelemetry {
    /// Object with `search`/`verify`/`total` sub-objects — the
    /// byte-identical replacement for the old `telemetry_json` emitter.
    fn to_json(&self) -> String {
        format!(
            "{{\"search\":{},\"verify\":{},\"total\":{}}}",
            self.search.to_json(),
            self.verify.to_json(),
            self.total().to_json()
        )
    }
}

/// Persistent state for one synthesis attempt (one loop, any number of
/// CEGIS iterations and program sizes).
#[derive(Debug)]
pub struct SynthSession<'f> {
    func: &'f strsum_ir::Func,
    cfg: SynthesisConfig,
    pool: TermPool,
    checker: BoundedChecker,
    oracle: LoopOracle<'f>,
    search: Session,
    verify: Session,
    verify_prepared: bool,
    counterexamples: Vec<Option<Vec<u8>>>,
    /// Concrete-first screening state; `None` when `cfg.screen` is off.
    screen: Option<ConcreteScreen>,
    /// Accumulated stats of throwaway solvers (from-scratch mode only).
    scratch_search: SessionStats,
    scratch_verify: SessionStats,
    /// The attempt's cancellation flag; handed to every solver and to the
    /// symbolic engine, and exposed via [`SynthSession::cancel_token`].
    cancel: CancelToken,
    /// Shared fault injector (`cfg.forced_unknown_at`); clones share one
    /// query counter across search, verify and from-scratch sessions.
    fault: Option<FaultInjector>,
    /// The wall-clock deadline of the current `run_size` call, armed on
    /// the persistent sessions and replicated onto throwaway ones.
    deadline: Option<Instant>,
    /// Why the verify side last answered `Unknown` (throwaway sessions
    /// are dropped inside `check_prog`, so the reason is latched here).
    verify_interrupt: Option<Interrupt>,
    /// `Unknown` verify verdicts seen so far; minimisation snapshots this
    /// to detect budget-degraded (sound but possibly non-minimal) output.
    verify_unknowns: u64,
}

impl<'f> SynthSession<'f> {
    /// Prepares a session for `func`: runs the loop symbolically once and
    /// seeds the counterexample set from the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`Stop`] when symbolic execution cannot fully explore the
    /// loop (budget exhaustion, wrong signature); on exhaustion it names
    /// the budget axis that tripped.
    pub fn new(func: &'f strsum_ir::Func, cfg: SynthesisConfig) -> Result<SynthSession<'f>, Stop> {
        SynthSession::with_cancel(func, cfg, CancelToken::new())
    }

    /// Like [`SynthSession::new`], but wires an externally owned
    /// cancellation token through the whole attempt: the symbolic
    /// engine, the search and verify solvers (clones share one flag), and
    /// the between-iteration checks.
    ///
    /// A pre-cancelled token makes the session stop at the first
    /// governor stride, surfacing as wall-budget exhaustion.
    ///
    /// # Errors
    ///
    /// Same as [`SynthSession::new`].
    pub fn with_cancel(
        func: &'f strsum_ir::Func,
        cfg: SynthesisConfig,
        cancel: CancelToken,
    ) -> Result<SynthSession<'f>, Stop> {
        let mut pool = TermPool::new();
        let fault = cfg.forced_unknown_at.map(FaultInjector::new);
        let checker = BoundedChecker::with_budget_opts(
            &mut pool,
            func,
            cfg.max_ex_size,
            &cfg.budget,
            Some(cancel.clone()),
            cfg.theory_fast_path,
        )?;
        let mut oracle = LoopOracle::new(func);
        let screen = cfg
            .screen
            .then(|| ConcreteScreen::new(&mut oracle, cfg.max_ex_size));
        let mut counterexamples: Vec<Option<Vec<u8>>> = Vec::new();
        for seed in &cfg.seed_examples {
            if let Some(s) = seed {
                if s.len() <= cfg.max_ex_size && !counterexamples.contains(seed) {
                    counterexamples.push(seed.clone());
                }
            } else if !counterexamples.contains(seed) {
                counterexamples.push(None);
            }
        }
        let mut search = Session::with_conflict_limit(cfg.budget.solver_conflicts);
        search.set_role("search");
        let mut verify = Session::new();
        verify.set_role("verify");
        if cfg.budget.governed {
            search.set_cancel(Some(cancel.clone()));
            verify.set_cancel(Some(cancel.clone()));
        }
        if fault.is_some() {
            search.set_fault(fault.clone());
            verify.set_fault(fault.clone());
        }
        Ok(SynthSession {
            func,
            cfg,
            pool,
            checker,
            oracle,
            search,
            verify,
            verify_prepared: false,
            counterexamples,
            screen,
            scratch_search: SessionStats::default(),
            scratch_verify: SessionStats::default(),
            cancel,
            fault,
            deadline: None,
            verify_interrupt: None,
            verify_unknowns: 0,
        })
    }

    /// The counterexamples accumulated so far (seeds included).
    pub fn counterexamples(&self) -> &[Option<Vec<u8>>] {
        &self.counterexamples
    }

    /// A clone of the attempt's cancellation token. Cancelling it stops
    /// the search and verify solvers and the next
    /// between-iteration check mid-run.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// The function being summarised.
    pub fn func(&self) -> &strsum_ir::Func {
        self.func
    }

    /// Runs the CEGIS loop at one program size within `timeout`.
    ///
    /// Counterexamples discovered here persist into later calls (they are
    /// facts about the loop, not about the size), as do the solver's learnt
    /// clauses and cached term encodings; the size-specific constraints are
    /// retired when the call returns.
    pub fn run_size(&mut self, size: usize, timeout: Duration) -> SynthesisResult {
        let start = Instant::now();
        // Arm the governor: a governed budget enforces the wall clock
        // *inside* the solvers, not just between CEGIS
        // iterations. Ungoverned runs keep the historical
        // between-iteration check only.
        self.deadline = self.cfg.budget.governed.then(|| start + timeout);
        self.search.set_deadline(self.deadline);
        self.verify.set_deadline(self.deadline);
        let mut size_span = strsum_obs::span("cegis.run_size", "cegis");
        size_span.arg_u64("size", size as u64);
        let mut stats = SynthStats::default();
        let allowed = self.cfg.vocab.opcodes();
        // Taken out of `self` so the minimisation closures can borrow the
        // screen and the solver sessions independently; restored on exit.
        let mut screen = self.screen.take();

        // Symbolic program bytes, allocated once for the whole size (the
        // naive loop allocated fresh bytes every iteration).
        let prog_vars: Vec<TermId> = (0..size)
            .map(|i| self.pool.fresh_var(&format!("prog{i}"), 8))
            .collect();
        let act = if self.cfg.incremental {
            Some(self.search.new_activation())
        } else {
            None
        };
        // Every constraint of this size, in assertion order — the
        // from-scratch path replays the list each iteration.
        let mut constraints: Vec<TermId> = Vec::new();
        if !self.cfg.use_meta_chars {
            use strsum_gadgets::charset::{META_DIGITS, META_WHITESPACE};
            for &v in &prog_vars {
                let d = self.pool.bv_const(u64::from(META_DIGITS), 8);
                let w = self.pool.bv_const(u64::from(META_WHITESPACE), 8);
                let nd = self.pool.ne(v, d);
                let nw = self.pool.ne(v, w);
                self.add_constraint(act, &mut constraints, nd);
                self.add_constraint(act, &mut constraints, nw);
            }
        }
        let mut encoded = 0usize;

        let outcome: Result<(Program, bool), Stop> = loop {
            if start.elapsed() >= timeout {
                break Err(Stop::exhausted("timeout", BudgetKind::Wall));
            }
            if self.cancel.is_cancelled() {
                break Err(Stop::exhausted("timeout", BudgetKind::Wall));
            }
            stats.iterations += 1;
            // One span per CEGIS iteration; the phase spans below (encode →
            // search → screen → decode/verify) nest inside it, so a trace
            // shows exactly where each iteration's time went.
            let mut iter_span = strsum_obs::span("cegis.iteration", "cegis");
            iter_span.arg_u64("size", size as u64);
            iter_span.arg_u64("iteration", stats.iterations as u64);

            // Encode counterexamples not yet seen by this size's program
            // bytes — each exactly once (lines 4–6 of Algorithm 2).
            if encoded < self.counterexamples.len() {
                let mut encode_span = strsum_obs::span("cegis.encode", "cegis");
                encode_span.arg_u64("new", (self.counterexamples.len() - encoded) as u64);
                while encoded < self.counterexamples.len() {
                    let cex = self.counterexamples[encoded].clone();
                    let expected = self.oracle.run(cex.as_deref());
                    let term = outcome_term_symbolic_prog_vocab(
                        &mut self.pool,
                        &prog_vars,
                        cex.as_deref(),
                        &allowed,
                    );
                    let expected_t = self.pool.bv_const(expected.encode8(), 8);
                    let c = self.pool.eq(term, expected_t);
                    self.add_constraint(act, &mut constraints, c);
                    encoded += 1;
                }
            }

            // Concretise the canonical candidate (lines 7–8).
            let search_span = strsum_obs::span("cegis.search", "cegis");
            let (solved, interrupt) = self.solve_candidate(act, &constraints, &prog_vars);
            drop(search_span);
            let model = match solved {
                CheckResult::Sat(m) => m,
                CheckResult::Unsat => {
                    break Err(Stop::other(format!(
                        "no program of size ≤ {size} in vocabulary {} matches the examples",
                        self.cfg.vocab
                    )));
                }
                CheckResult::Unknown => {
                    break Err(Stop::exhausted(
                        "solver gave up on candidate search",
                        interrupt
                            .map(BudgetKind::from_interrupt)
                            .unwrap_or(BudgetKind::SolverConflicts),
                    ));
                }
            };
            let bytes: Vec<u8> = prog_vars
                .iter()
                .map(|&v| model.value_or_zero(v) as u8)
                .collect();

            // Concrete-first screening (zero solver work). The search
            // constraints force circuit-consistency with every encoded
            // counterexample, so a bank mismatch is not a rejection but a
            // circuit-vs-interpreter disagreement — a soundness bug that
            // must surface, not be papered over.
            let screen_span = strsum_obs::span("cegis.screen", "cegis");
            if screen.is_some() {
                if let Some(cex) = self.bank_disagreement(&bytes) {
                    break Err(Stop::other(format!(
                        "screen/solver disagreement: candidate {bytes:?} violates \
                         already-encoded counterexample {cex:?}"
                    )));
                }
            }
            if let Some(s) = screen.as_mut() {
                match s.refute(&bytes) {
                    ScreenVerdict::Pass => {}
                    ScreenVerdict::Reject { refuter, class_hit } => {
                        if class_hit || self.counterexamples.contains(&refuter) {
                            // The class's blocking constraint is already in
                            // the session; the solver must not have been
                            // able to produce this candidate.
                            break Err(Stop::other(format!(
                                "screen/solver disagreement: candidate {bytes:?} re-explores \
                                 an OE class blocked by counterexample {refuter:?}"
                            )));
                        }
                        // Promote the class's refuter: once encoded (top of
                        // the next iteration) it blocks the entire OE class
                        // at the circuit level. The exact-byte clause keeps
                        // progress guaranteed regardless.
                        self.counterexamples.push(refuter);
                        s.stats.promoted += 1;
                        self.block_candidate(act, &mut constraints, &prog_vars, &bytes);
                        continue;
                    }
                }
            }
            drop(screen_span);

            // Bounded verification (lines 10–18).
            let decode_span = strsum_obs::span("cegis.decode", "cegis");
            let decoded = decode_prefix(&bytes);
            drop(decode_span);
            match decoded {
                Some(prog) if self.cfg.vocab.admits(&prog) => {
                    let verify_span = strsum_obs::span("cegis.verify", "cegis");
                    let verdict = self.check_prog(&prog);
                    drop(verify_span);
                    match verdict {
                        EquivalenceResult::Equivalent => {
                            let _minimize_span = strsum_obs::span("cegis.minimize", "cegis");
                            break Ok(self.minimize_prog(&prog, screen.as_mut()));
                        }
                        EquivalenceResult::Counterexample(cex) => {
                            if self.counterexamples.contains(&cex) {
                                break Err(Stop::other(format!(
                                    "duplicate counterexample {cex:?} (soundness bug?)"
                                )));
                            }
                            if screen.is_some() && !self.cex_distinguishes(&prog, &cex) {
                                break Err(Stop::other(format!(
                                    "screen/solver disagreement: verifier counterexample {cex:?} \
                                 does not concretely distinguish candidate {:?}",
                                    prog.encode()
                                )));
                            }
                            self.counterexamples.push(cex);
                            self.block_candidate(act, &mut constraints, &prog_vars, &bytes);
                        }
                        EquivalenceResult::Unknown(e) => {
                            // The verify session runs without a conflict
                            // cap, so an `Unknown` here is the governor
                            // (deadline/cancellation) or an injected
                            // fault; the latched interrupt says which.
                            break Err(Stop::exhausted(
                                e,
                                self.verify_interrupt
                                    .map(BudgetKind::from_interrupt)
                                    .unwrap_or(BudgetKind::Wall),
                            ));
                        }
                    }
                }
                _ => {
                    // Malformed candidate: find any input distinguishing the
                    // raw bytes from the oracle by brute force over tiny
                    // strings, and block the exact byte vector.
                    match fresh_distinguishing_input(
                        &mut self.oracle,
                        &bytes,
                        &self.counterexamples,
                        &self.cfg,
                    ) {
                        Some(cex) => {
                            self.counterexamples.push(cex);
                            self.block_candidate(act, &mut constraints, &prog_vars, &bytes);
                        }
                        None => {
                            break Err(Stop::other(format!(
                                "malformed candidate {bytes:?} with no distinguishing input"
                            )));
                        }
                    }
                }
            }
        };

        // Retire this size's constraint group; the next size starts clean
        // while keeping learnt clauses and cached encodings.
        if let Some(a) = act {
            self.search.retire(a);
        }
        stats.counterexamples = self.counterexamples.clone();
        stats.elapsed = start.elapsed();
        stats.solver = self.telemetry();
        stats.screen = screen.as_ref().map(|s| s.stats).unwrap_or_default();
        self.screen = screen;
        size_span.arg_u64("iterations", stats.iterations as u64);
        size_span.arg_u64("synthesised", u64::from(outcome.is_ok()));
        match outcome {
            Ok((program, degraded)) => {
                stats.degraded = degraded;
                SynthesisResult {
                    program: Some(program),
                    stats,
                }
            }
            Err(stop) => {
                stats.failure = Some(stop.message);
                stats.exhausted = stop.budget;
                SynthesisResult {
                    program: None,
                    stats,
                }
            }
        }
    }

    /// First encoded counterexample on which the interpreter's view of the
    /// raw candidate bytes differs from the oracle. The solver's circuit
    /// constraints make this impossible for a sound encoding, so any hit
    /// is reported as a screen/solver disagreement.
    fn bank_disagreement(&mut self, bytes: &[u8]) -> Option<Option<Vec<u8>>> {
        for cex in &self.counterexamples {
            let got = OracleOutcome::from_gadget(run_bytes(bytes, cex.as_deref()));
            if got != self.oracle.run(cex.as_deref()) {
                return Some(cex.clone());
            }
        }
        None
    }

    /// Concrete cross-check of a verifier counterexample: the candidate
    /// and the loop must visibly differ on it, or the SAT equivalence
    /// encoding and the interpreter disagree.
    fn cex_distinguishes(&mut self, prog: &Program, cex: &Option<Vec<u8>>) -> bool {
        let got = OracleOutcome::from_gadget(strsum_gadgets::interp::run(prog, cex.as_deref()));
        got != self.oracle.run(cex.as_deref())
    }

    /// Greedy minimisation of an accepted candidate: with screening on,
    /// each shrink candidate is first run against the counterexample bank
    /// and the grid (concrete, no solver work) and only survivors pay for
    /// a SAT equivalence check.
    ///
    /// Returns the minimised program and whether minimisation was
    /// *degraded*: an `Unknown` verify verdict during minimisation means
    /// a shrink candidate could not be decided (budget ran out), was
    /// conservatively kept, and the — still sound, fully verified —
    /// summary may not be minimal.
    fn minimize_prog(
        &mut self,
        prog: &Program,
        screen: Option<&mut ConcreteScreen>,
    ) -> (Program, bool) {
        let unknowns_before = self.verify_unknowns;
        let minimized = match screen {
            Some(s) => {
                let mut bank: Vec<(Option<Vec<u8>>, OracleOutcome)> = Vec::new();
                for cex in &self.counterexamples {
                    bank.push((cex.clone(), self.oracle.run(cex.as_deref())));
                }
                minimize_screened(
                    prog,
                    |bytes| {
                        let bank_reject = bank.iter().any(|(input, want)| {
                            OracleOutcome::from_gadget(run_bytes(bytes, input.as_deref())) != *want
                        });
                        if bank_reject {
                            s.stats.minimize_screen_rejects += 1;
                            return true;
                        }
                        s.grid_rejects(bytes)
                    },
                    |p| self.check_prog(p) == EquivalenceResult::Equivalent,
                )
            }
            None => minimize_with(prog, |p| {
                self.check_prog(p) == EquivalenceResult::Equivalent
            }),
        };
        (minimized, self.verify_unknowns > unknowns_before)
    }

    /// Asserts `c` into the search space: guarded by the size's activation
    /// literal when incremental, and always recorded for replay.
    fn add_constraint(&mut self, act: Option<Lit>, constraints: &mut Vec<TermId>, c: TermId) {
        if let Some(a) = act {
            self.search.assert_implied(&mut self.pool, a, c);
        }
        constraints.push(c);
    }

    /// Excludes an exact rejected byte vector from the search space.
    fn block_candidate(
        &mut self,
        act: Option<Lit>,
        constraints: &mut Vec<TermId>,
        prog_vars: &[TermId],
        bytes: &[u8],
    ) {
        let diffs: Vec<TermId> = prog_vars
            .iter()
            .zip(bytes)
            .map(|(&v, &b)| {
                let c = self.pool.bv_const(u64::from(b), 8);
                self.pool.ne(v, c)
            })
            .collect();
        let c = self.pool.or_many(&diffs);
        self.add_constraint(act, constraints, c);
    }

    /// One candidate-search query, canonicalised so the answer depends only
    /// on the constraint set, never on solver history. On `Unknown` the
    /// second element says which interrupt stopped the solver.
    fn solve_candidate(
        &mut self,
        act: Option<Lit>,
        constraints: &[TermId],
        prog_vars: &[TermId],
    ) -> (CheckResult, Option<Interrupt>) {
        match act {
            Some(a) => {
                let r = self.search.canonical_check(&mut self.pool, &[a], prog_vars);
                let i = self.search.interrupt();
                (r, i)
            }
            None => {
                let mut solo = Session::with_conflict_limit(self.cfg.budget.solver_conflicts);
                solo.set_role("search");
                solo.set_deadline(self.deadline);
                if self.cfg.budget.governed {
                    solo.set_cancel(Some(self.cancel.clone()));
                }
                solo.set_fault(self.fault.clone());
                for &c in constraints {
                    solo.assert_term(&mut self.pool, c);
                }
                let r = solo.canonical_check(&mut self.pool, &[], prog_vars);
                let i = solo.interrupt();
                self.scratch_search = self.scratch_search.plus(&solo.stats());
                (r, i)
            }
        }
    }

    /// Bounded equivalence of one candidate against the loop, through the
    /// persistent verify session (or a throwaway one when from-scratch).
    fn check_prog(&mut self, prog: &Program) -> EquivalenceResult {
        let (r, interrupt) = if self.cfg.incremental {
            if !self.verify_prepared {
                self.checker
                    .assert_canonical(&mut self.pool, &mut self.verify);
                self.verify_prepared = true;
            }
            let r = self
                .checker
                .check_in(&mut self.pool, &mut self.verify, prog);
            let i = self.verify.interrupt();
            (r, i)
        } else {
            let mut solo = Session::new();
            solo.set_role("verify");
            solo.set_deadline(self.deadline);
            if self.cfg.budget.governed {
                solo.set_cancel(Some(self.cancel.clone()));
            }
            solo.set_fault(self.fault.clone());
            self.checker.assert_canonical(&mut self.pool, &mut solo);
            let r = self.checker.check_in(&mut self.pool, &mut solo, prog);
            let i = solo.interrupt();
            self.scratch_verify = self.scratch_verify.plus(&solo.stats());
            (r, i)
        };
        if matches!(r, EquivalenceResult::Unknown(_)) {
            self.verify_interrupt = interrupt;
            self.verify_unknowns += 1;
        }
        r
    }

    /// Cumulative solver telemetry for this session.
    pub fn telemetry(&self) -> SolverTelemetry {
        if self.cfg.incremental {
            SolverTelemetry {
                search: self.search.stats(),
                verify: self.verify.stats(),
            }
        } else {
            SolverTelemetry {
                search: self.scratch_search,
                verify: self.scratch_verify,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strsum_cfront::compile_one;
    use strsum_gadgets::interp::{run_bytes, Outcome};

    fn cfg(incremental: bool) -> SynthesisConfig {
        SynthesisConfig {
            incremental,
            ..SynthesisConfig::with_timeout(Duration::from_secs(120))
        }
    }

    #[test]
    fn incremental_session_reuses_state_across_iterations() {
        let f = compile_one("char* f(char* s) { while (*s != 0 && *s != ':') s++; return s; }")
            .unwrap();
        let mut sess = SynthSession::new(&f, cfg(true)).unwrap();
        let r = sess.run_size(9, Duration::from_secs(120));
        let prog = r.program.expect("strchr-like loop synthesises");
        assert_eq!(run_bytes(&prog.encode(), Some(b"ab:c")), Outcome::Ptr(2));
        let t = r.stats.solver;
        assert!(t.search.queries > 0, "search telemetry recorded");
        assert!(t.verify.queries > 0, "verify telemetry recorded");
        // Encodings are shared across iterations: later queries hit the
        // blaster cache.
        assert!(t.search.blast_hits > 0, "persistent encoder reused");
    }

    #[test]
    fn from_scratch_matches_incremental() {
        let f = compile_one("char* f(char* s) { while (*s == ' ' || *s == '\\t') s++; return s; }")
            .unwrap();
        let inc = SynthSession::new(&f, cfg(true))
            .unwrap()
            .run_size(9, Duration::from_secs(120));
        let scratch = SynthSession::new(&f, cfg(false))
            .unwrap()
            .run_size(9, Duration::from_secs(120));
        let a = inc.program.expect("incremental synthesises");
        let b = scratch.program.expect("from-scratch synthesises");
        assert_eq!(a.encode(), b.encode(), "paths must agree byte-for-byte");
        assert_eq!(
            inc.stats.counterexamples, scratch.stats.counterexamples,
            "same counterexample trajectory"
        );
    }

    #[test]
    fn external_cancel_stops_the_attempt_as_wall_exhaustion() {
        // A pre-cancelled external token must stop the run at the first
        // governor stride and surface as budget exhaustion.
        let f = compile_one("char* f(char* s) { while (*s != 0 && *s != ':') s++; return s; }")
            .unwrap();
        let token = CancelToken::new();
        token.cancel();
        let r = crate::cegis::synthesize_with_cancel(&f, &cfg(true), token);
        assert!(r.program.is_none(), "cancelled attempt must not answer");
        assert!(
            r.stats.exhausted.is_some() || r.stats.failure.is_some(),
            "cancellation surfaces as exhaustion, not silence"
        );
    }

    #[test]
    fn external_token_is_shared_not_copied() {
        // with_cancel must wire the caller's token, not a fresh one:
        // cancelling the caller's clone mid-flight must stop the run.
        let f = compile_one("char* f(char* s) { while (*s) s++; return s; }").unwrap();
        let token = CancelToken::new();
        let sess = SynthSession::with_cancel(&f, cfg(true), token.clone()).unwrap();
        token.cancel();
        assert!(sess.cancel_token().is_cancelled(), "clones share one flag");
    }

    #[test]
    fn counterexamples_persist_across_sizes() {
        let f = compile_one("char* f(char* s) { while (*s) s++; return s; }").unwrap();
        let mut sess = SynthSession::new(&f, cfg(true)).unwrap();
        let r1 = sess.run_size(1, Duration::from_secs(30));
        assert!(r1.program.is_none(), "strlen has no size-1 summary");
        let seen = sess.counterexamples().len();
        let r2 = sess.run_size(2, Duration::from_secs(60));
        assert_eq!(r2.program.expect("EF at size 2").encode(), b"EF");
        assert!(
            sess.counterexamples().len() >= seen,
            "facts survive the size change"
        );
    }
}
