//! Algorithm 2: counterexample-guided synthesis of loop summaries.

use crate::budget::{Budget, BudgetKind};
use crate::equivalence::{BoundedChecker, EquivalenceResult};
use crate::oracle::LoopOracle;
use crate::session::{SolverTelemetry, SynthSession};
use crate::vocab::Vocab;
use std::time::{Duration, Instant};
use strsum_gadgets::Program;
use strsum_smt::TermPool;

/// Configuration of one synthesis attempt.
#[derive(Debug, Clone)]
pub struct SynthesisConfig {
    /// Maximum program size in encoded bytes (`MAX_PROG_SIZE`, paper: 9).
    pub max_prog_size: usize,
    /// Equivalence bound in characters (`MAX_EX_SIZE`, paper: 3).
    pub max_ex_size: usize,
    /// Gadget vocabulary to synthesise over.
    pub vocab: Vocab,
    /// Every resource limit of the attempt — wall clock, SAT conflicts
    /// per search query, symex path/step caps, retry policy — in one
    /// governor (see [`crate::budget::Budget`]).
    pub budget: Budget,
    /// Whether the `\a`-style meta-characters may appear in arguments.
    pub use_meta_chars: bool,
    /// Counterexamples to seed the loop with (speeds up convergence).
    pub seed_examples: Vec<Option<Vec<u8>>>,
    /// Deterministic fault hook: forces the `n`th SAT query of this
    /// attempt (counted across its search and verify sessions) to return
    /// `Unknown`. Test harness only; `None` in production.
    pub forced_unknown_at: Option<u64>,
    /// Keep one solver alive across CEGIS iterations (the default). When
    /// false, every query runs from scratch — the reference path used to
    /// validate that persistence never changes the synthesised program.
    pub incremental: bool,
    /// Concrete-first screening (the default): run every solver candidate
    /// with the gadget interpreter over the small-model grid before any
    /// verify query, and block refuted observational-equivalence classes.
    /// When false, every candidate goes straight to the bounded checker —
    /// the ablation baseline.
    pub screen: bool,
    /// Layered feasibility pipeline in the symbolic engine (the default):
    /// branch queries go through the constructive string theory and the
    /// canonical-constraint cache before any SAT solving, and the SAT
    /// layer keeps one incremental session per path. When false, every
    /// query bit-blasts the full path condition from scratch — the
    /// ablation baseline. Either setting explores byte-identical path
    /// sets and synthesises byte-identical summaries.
    pub theory_fast_path: bool,
    /// Recurrence lane (the default): when gadget CEGIS concludes a loop
    /// is inexpressible without exhausting a budget,
    /// [`crate::recur::summarize_loop`] tries to extract and verify an
    /// accumulator/builder closed form before classifying the loop
    /// `NotMemoryless`. When false the lane never runs — the gadget
    /// fragment's behaviour is byte-identical either way, because the lane
    /// only fires after gadget synthesis has already failed.
    pub recur_lane: bool,
}

impl Default for SynthesisConfig {
    /// The paper's §4.2.1 settings, with a laptop-scale timeout.
    fn default() -> SynthesisConfig {
        SynthesisConfig {
            max_prog_size: 9,
            max_ex_size: 3,
            vocab: Vocab::full(),
            budget: Budget::default(),
            use_meta_chars: true,
            seed_examples: vec![Some(b"".to_vec()), Some(b"ab".to_vec())],
            forced_unknown_at: None,
            incremental: true,
            screen: true,
            theory_fast_path: true,
            recur_lane: true,
        }
    }
}

impl SynthesisConfig {
    /// Convenience: the default config with only the wall clock changed
    /// (the most common adjustment across the experiment binaries).
    pub fn with_timeout(timeout: Duration) -> SynthesisConfig {
        SynthesisConfig {
            budget: Budget::default().with_wall(timeout),
            ..SynthesisConfig::default()
        }
    }
}

/// Statistics of a synthesis run.
#[derive(Debug, Clone, Default)]
pub struct SynthStats {
    /// CEGIS iterations executed.
    pub iterations: usize,
    /// Counterexamples accumulated (in discovery order).
    pub counterexamples: Vec<Option<Vec<u8>>>,
    /// Total wall-clock time.
    pub elapsed: Duration,
    /// Why synthesis stopped, when it failed.
    pub failure: Option<String>,
    /// The budget axis that tripped, when the failure was an exhaustion
    /// (structured companion to the `failure` string).
    pub exhausted: Option<BudgetKind>,
    /// True when a summary was found and verified but a budget ran out
    /// during minimisation: the program is sound but may not be minimal.
    pub degraded: bool,
    /// Solver-effort counters (cumulative over the owning session).
    pub solver: SolverTelemetry,
    /// Concrete-screening counters (cumulative over the owning session;
    /// all zero when screening is disabled).
    pub screen: crate::screen::ScreenStats,
}

/// Result of a synthesis attempt.
#[derive(Debug, Clone)]
pub struct SynthesisResult {
    /// The synthesised program, when successful.
    pub program: Option<Program>,
    /// Run statistics.
    pub stats: SynthStats,
}

/// Synthesises a summary for `func` (shape `char* f(char*)`).
///
/// Returns `SynthesisResult { program: None, .. }` when the loop cannot be
/// expressed in the vocabulary/size or the budget runs out — never panics
/// on inexpressible loops.
pub fn synthesize(func: &strsum_ir::Func, cfg: &SynthesisConfig) -> SynthesisResult {
    synthesize_with_cancel(func, cfg, crate::budget::CancelToken::new())
}

/// [`synthesize`] with an externally owned cancellation token.
///
/// The token reaches every solver and the symbolic engine of the
/// attempt, so cancelling it from another thread stops the run at the
/// next governor stride and the attempt reports wall-budget exhaustion.
/// Results are unaffected by *when* (or whether) the token fires — a run
/// that completes before cancellation returns exactly what
/// [`synthesize`] would.
pub fn synthesize_with_cancel(
    func: &strsum_ir::Func,
    cfg: &SynthesisConfig,
    cancel: crate::budget::CancelToken,
) -> SynthesisResult {
    let start = Instant::now();
    // Not a string loop at all: neither lane applies without a single
    // `char*` parameter. Refused with the symbolic engine's message, so
    // the classification predates (and survives) the recurrence lane.
    if func.params.len() != 1 || func.params[0].1 != strsum_ir::Ty::Ptr {
        return SynthesisResult {
            program: None,
            stats: SynthStats {
                failure: Some(format!("{} does not take a single pointer", func.name)),
                elapsed: start.elapsed(),
                ..SynthStats::default()
            },
        };
    }
    // Gadget programs denote `char* → char*` functions; the bounded
    // checker's original-loop term is only meaningful for pointer-returning
    // loops (an integer-returning loop would encode as Invalid on every
    // path and could vacuously "equal" an always-Invalid candidate). Such
    // loops are inexpressible here by construction — fail immediately, with
    // no budget charged, so the recurrence lane can take over.
    if func.ret_ty != Some(strsum_ir::Ty::Ptr) {
        return SynthesisResult {
            program: None,
            stats: SynthStats {
                failure: Some(format!(
                    "{}: loop does not return a pointer into its input",
                    func.name
                )),
                elapsed: start.elapsed(),
                ..SynthStats::default()
            },
        };
    }
    // Same blind spot on the effect side: the checker compares returned
    // offsets only, so a loop that *writes* the buffer could "equal" a
    // pure scan. Store-ful loops are outside the gadget fragment. (Scan
    // reachable instructions — the arena also holds dead pre-mem2reg
    // stores that no block references.)
    if func.blocks.iter().any(|b| {
        b.instrs
            .iter()
            .any(|&iid| matches!(func.instr(iid), strsum_ir::Instr::Store { .. }))
    }) {
        return SynthesisResult {
            program: None,
            stats: SynthStats {
                failure: Some(format!("{}: loop writes to memory", func.name)),
                elapsed: start.elapsed(),
                ..SynthStats::default()
            },
        };
    }
    match SynthSession::with_cancel(func, cfg.clone(), cancel) {
        Ok(mut session) => session.run_size(cfg.max_prog_size, cfg.budget.wall),
        Err(e) => SynthesisResult {
            program: None,
            stats: SynthStats {
                failure: Some(e.message),
                exhausted: e.budget,
                elapsed: start.elapsed(),
                ..SynthStats::default()
            },
        },
    }
}

/// Greedily removes gadgets that do not affect equivalence (per the given
/// predicate), yielding a (locally) minimal summary — candidates often
/// carry redundant guard prefixes that the SAT model happened to pick.
pub fn minimize_with(prog: &Program, mut equivalent: impl FnMut(&Program) -> bool) -> Program {
    let mut gadgets = prog.gadgets().to_vec();
    loop {
        let mut changed = false;
        let mut i = 0;
        while i < gadgets.len() {
            if gadgets.len() <= 1 {
                break;
            }
            let mut shorter = gadgets.clone();
            shorter.remove(i);
            let candidate = Program::new(shorter);
            if equivalent(&candidate) {
                gadgets.remove(i);
                changed = true;
            } else {
                i += 1;
            }
        }
        if !changed {
            return Program::new(gadgets);
        }
    }
}

/// [`minimize_with`] against a [`BoundedChecker`]'s bounded equivalence.
pub fn minimize(pool: &mut TermPool, checker: &BoundedChecker, prog: &Program) -> Program {
    minimize_with(prog, |p| {
        checker.check(pool, p) == EquivalenceResult::Equivalent
    })
}

/// Screen-first [`minimize_with`]: each shrink candidate is first run
/// through `cheap_reject` (the interpreter bank/grid screen — concrete,
/// zero solver work); only candidates it cannot refute fall back to the
/// full SAT equivalence predicate. Rejections by the screen are witnessed
/// by concrete disagreeing inputs, so the minimised program is identical
/// to what [`minimize_with`] over `sat_equivalent` alone would produce.
pub fn minimize_screened(
    prog: &Program,
    mut cheap_reject: impl FnMut(&[u8]) -> bool,
    mut sat_equivalent: impl FnMut(&Program) -> bool,
) -> Program {
    minimize_with(prog, |p| {
        if cheap_reject(&p.encode()) {
            return false;
        }
        sat_equivalent(p)
    })
}

/// Decodes the longest valid instruction prefix, truncated after the
/// *last* `F` (guards such as `Z` can skip earlier `F`s at run time, so
/// truncating at the first one — e.g. in `ZFP \t\0F` — would lose the
/// program body). Trailing bytes after the last `F` never execute.
pub(crate) fn decode_prefix(bytes: &[u8]) -> Option<Program> {
    let mut i = 0;
    let mut last_f_end = None;
    while i < bytes.len() {
        let end = match bytes[i] {
            b'M' | b'C' | b'R' => {
                if i + 2 > bytes.len() {
                    break;
                }
                i + 2
            }
            b'B' | b'P' | b'N' => {
                if i + 1 >= bytes.len() {
                    break;
                }
                match bytes[i + 1..].iter().position(|&b| b == 0) {
                    Some(0) | None => break, // empty or unterminated set
                    Some(rel) => i + rel + 2,
                }
            }
            b'F' => {
                last_f_end = Some(i + 1);
                i + 1
            }
            b'Z' | b'X' | b'I' | b'E' | b'S' => i + 1,
            b'V' if i == 0 => i + 1,
            _ => break, // unknown opcode or misplaced V
        };
        i = end;
    }
    Program::decode(&bytes[..last_f_end?]).ok()
}

/// Brute-force search for a small input distinguishing raw candidate bytes
/// from the oracle.
pub(crate) fn fresh_distinguishing_input(
    oracle: &mut LoopOracle<'_>,
    bytes: &[u8],
    known: &[Option<Vec<u8>>],
    cfg: &SynthesisConfig,
) -> Option<Option<Vec<u8>>> {
    // The loop's abstract alphabet plus every byte the candidate mentions
    // (its set and character arguments are where it can differ from the
    // oracle).
    let mut alphabet: Vec<u8> = crate::screen::loop_alphabet(oracle.func());
    for &b in bytes {
        if b != 0 && !alphabet.contains(&b) {
            alphabet.push(b);
        }
    }
    let alphabet = &alphabet[..];
    let mut queue: Vec<Vec<u8>> = vec![vec![]];
    let mut idx = 0;
    while idx < queue.len() {
        let s = queue[idx].clone();
        idx += 1;
        let candidate_out = strsum_gadgets::interp::run_bytes(bytes, Some(&s));
        let oracle_out = oracle.run(Some(&s));
        if crate::oracle::OracleOutcome::from_gadget(candidate_out) != oracle_out {
            let cex = Some(s.clone());
            if !known.contains(&cex) {
                return Some(cex);
            }
        }
        if s.len() < cfg.max_ex_size {
            for &c in alphabet {
                let mut t = s.clone();
                t.push(c);
                queue.push(t);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use strsum_cfront::compile_one;
    use strsum_gadgets::interp::{run_bytes, Outcome};

    fn quick_cfg() -> SynthesisConfig {
        SynthesisConfig::with_timeout(Duration::from_secs(120))
    }

    #[test]
    fn synthesises_bash_whitespace_loop() {
        let f = compile_one(
            r#"
            #define whitespace(c) (((c) == ' ') || ((c) == '\t'))
            char* loopFunction(char* line) {
                char *p;
                for (p = line; p && *p && whitespace(*p); p++)
                    ;
                return p;
            }
            "#,
        )
        .unwrap();
        let r = synthesize(&f, &quick_cfg());
        let prog = r.program.expect("bash loop synthesises");
        // Spot-check behaviour on longer strings than the bound.
        assert_eq!(
            run_bytes(&prog.encode(), Some(b" \t \t hello")),
            Outcome::Ptr(5)
        );
        assert_eq!(run_bytes(&prog.encode(), Some(b"xyz")), Outcome::Ptr(0));
        assert_eq!(run_bytes(&prog.encode(), None), Outcome::Null);
    }

    #[test]
    fn synthesises_strchr_loop() {
        let f = compile_one("char* f(char* s) { while (*s != 0 && *s != ':') s++; return s; }")
            .unwrap();
        let r = synthesize(&f, &quick_cfg());
        let prog = r.program.expect("strchr-like loop synthesises");
        assert_eq!(run_bytes(&prog.encode(), Some(b"ab:c")), Outcome::Ptr(2));
        assert_eq!(run_bytes(&prog.encode(), Some(b"abc")), Outcome::Ptr(3));
    }

    #[test]
    fn synthesises_strlen_loop() {
        let f = compile_one("char* f(char* s) { while (*s) s++; return s; }").unwrap();
        let r = synthesize(&f, &quick_cfg());
        let prog = r.program.expect("strlen loop synthesises");
        assert_eq!(run_bytes(&prog.encode(), Some(b"hello")), Outcome::Ptr(5));
    }

    #[test]
    fn respects_vocabulary() {
        // Without P (strspn), the whitespace loop needs another expression;
        // with only {E, F} nothing matches, so synthesis must fail cleanly.
        let f = compile_one("char* f(char* s) { while (*s == ' ' || *s == '\\t') s++; return s; }")
            .unwrap();
        let cfg = SynthesisConfig {
            vocab: Vocab::parse("EF").unwrap(),
            budget: Budget::default().with_wall(Duration::from_secs(30)),
            ..Default::default()
        };
        let r = synthesize(&f, &cfg);
        assert!(r.program.is_none());
        assert!(r.stats.failure.is_some());
    }

    #[test]
    fn minimize_strips_redundant_guards() {
        use crate::equivalence::BoundedChecker;
        use strsum_smt::TermPool;
        let f = compile_one("char* f(char* s) { while (*s == ' ') s++; return s; }").unwrap();
        let mut pool = TermPool::new();
        let checker = BoundedChecker::new(&mut pool, &f, 3).unwrap();
        // XX is a no-op prefix; minimisation should remove it.
        let bloated = Program::decode(b"XXP \0F").unwrap();
        let minimal = minimize(&mut pool, &checker, &bloated);
        assert_eq!(minimal.encode(), b"P \0F");
    }

    #[test]
    fn decode_prefix_ignores_trailing_garbage() {
        let p = decode_prefix(b"P \0F\x11\x22").unwrap();
        assert_eq!(p.encode(), b"P \0F");
        assert!(decode_prefix(b"\x11F").is_none());
        assert!(decode_prefix(b"III").is_none()); // no return
    }
}
