//! Concrete-first candidate screening: kill candidates by *running* them
//! before paying for any solver query.
//!
//! The CEGIS verify step (a SAT equivalence query plus canonical
//! counterexample extraction) costs dozens of solver queries per
//! candidate. Most candidates, however, already disagree with the loop on
//! some tiny input, and the gadget interpreter finds that out in
//! microseconds. [`ConcreteScreen`] evaluates every decoded candidate on
//! a fixed *small-model grid* — all strings of length ≤ `max_ex_size`
//! over the loop's abstract alphabet (plus the NULL input when the loop
//! is NULL-safe) — and rejects mismatches with zero SMT work.
//!
//! Rejection is organised around *observational-equivalence classes*: the
//! candidate's output vector over the grid is its fingerprint, and all
//! candidates sharing a fingerprint are refuted by the same grid input.
//! When a class is first refuted, that refuting input is promoted into
//! the encoded counterexample set — the resulting circuit constraint is
//! the class's blocking clause inside the incremental session, excluding
//! every member of the class (and more) from the solver's search space at
//! once. A class can therefore never be re-explored by the solver unless
//! the symbolic circuit and the interpreter disagree about some program,
//! which is a soundness bug; [`ScreenVerdict::Reject`] with
//! `class_hit = true` reports exactly that, and the caller turns it into
//! a hard "screen/solver disagreement" failure (audited by CI).
//!
//! The screen is deliberately *not* part of the soundness argument:
//! passing it proves nothing (the grid is finite), and every accepted
//! candidate still goes through the bounded checker. Only rejections are
//! trusted, and a rejection is witnessed by a concrete input on which the
//! interpreter and the loop's reference interpreter visibly differ.

use crate::oracle::{LoopOracle, OracleOutcome};
use std::collections::HashMap;
use strsum_gadgets::interp::run_bytes;
use strsum_ir::Func;
use strsum_symex::bounded_strings;

/// The base abstract alphabet of the small-model grid (§4.2.1's example
/// characters: whitespace, letters, delimiters, a digit).
pub const BASE_ALPHABET: &[u8] = b" \tab:;/0";

/// Counters for the concrete screening layer of one synthesis attempt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScreenStats {
    /// Solver candidates rejected by the grid without a verify query.
    pub screen_rejects: usize,
    /// Rejected candidates whose OE class had already been refuted and
    /// blocked — possible only when circuit and interpreter disagree, so
    /// any non-zero value is a soundness alarm (CI fails on it).
    pub oe_class_hits: usize,
    /// Grid inputs promoted into the encoded counterexample set (one per
    /// newly refuted OE class — the class's blocking clause).
    pub promoted: usize,
    /// Shrink candidates rejected by the bank/grid during minimisation
    /// without a SAT equivalence check.
    pub minimize_screen_rejects: usize,
}

impl strsum_obs::ToJson for ScreenStats {
    /// Flat object, field order fixed — the byte-identical replacement for
    /// the old hand-rolled `screen_json` emitter in `strsum-bench`.
    fn to_json(&self) -> String {
        format!(
            "{{\"screen_rejects\":{},\"oe_class_hits\":{},\"promoted\":{},\"minimize_screen_rejects\":{},\"verify_checks_avoided\":{}}}",
            self.screen_rejects,
            self.oe_class_hits,
            self.promoted,
            self.minimize_screen_rejects,
            self.verify_checks_avoided()
        )
    }
}

impl ScreenStats {
    /// Bounded-equivalence checks that concrete screening made
    /// unnecessary (each reject replaced one `check_prog` call).
    pub fn verify_checks_avoided(&self) -> usize {
        self.screen_rejects + self.minimize_screen_rejects
    }

    /// Element-wise sum (for corpus-level aggregation).
    pub fn plus(&self, other: &ScreenStats) -> ScreenStats {
        ScreenStats {
            screen_rejects: self.screen_rejects + other.screen_rejects,
            oe_class_hits: self.oe_class_hits + other.oe_class_hits,
            promoted: self.promoted + other.promoted,
            minimize_screen_rejects: self.minimize_screen_rejects + other.minimize_screen_rejects,
        }
    }
}

/// Verdict of screening one solver candidate. See [`ConcreteScreen::refute`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScreenVerdict {
    /// Indistinguishable from the loop on the whole grid; must still pass
    /// the bounded checker.
    Pass,
    /// Visibly wrong on the grid.
    Reject {
        /// A grid input on which every member of the candidate's OE class
        /// differs from the loop — the class's counterexample.
        refuter: Option<Vec<u8>>,
        /// Whether this class was already refuted (and thus blocked) —
        /// `true` means the solver re-explored a blocked class, i.e. the
        /// circuit and the interpreter disagree somewhere.
        class_hit: bool,
    },
}

/// The loop's abstract alphabet: [`BASE_ALPHABET`] plus every character
/// constant the loop compares against, sorted and deduplicated so that
/// loops identical up to renaming get byte-identical alphabets (and
/// therefore comparable fingerprints).
pub fn loop_alphabet(func: &Func) -> Vec<u8> {
    let mut alphabet: Vec<u8> = BASE_ALPHABET.to_vec();
    alphabet.extend(loop_const_bytes(func));
    alphabet.sort_unstable();
    alphabet.dedup();
    alphabet
}

/// Character constants (`i8`/`i32` in 1..=255) appearing in the loop body.
pub(crate) fn loop_const_bytes(func: &Func) -> Vec<u8> {
    let mut out = Vec::new();
    for instr in &func.instrs {
        for op in instr.operands() {
            if let strsum_ir::Operand::Const(v, strsum_ir::Ty::I8 | strsum_ir::Ty::I32) = op {
                if (1..=255).contains(&v) && !out.contains(&(v as u8)) {
                    out.push(v as u8);
                }
            }
        }
    }
    out
}

/// Semantic fingerprint of a loop for the cross-loop summary store: its
/// abstract alphabet followed by its [`strsum_symex::loop_signature`]
/// over that alphabet (outcomes on NULL and on every grid string). The
/// alphabet prefix keeps signatures over different grids from ever
/// comparing equal; `u64::MAX` separates the two parts.
pub fn loop_fingerprint(func: &Func, max_ex_size: usize) -> Vec<u64> {
    let alphabet = loop_alphabet(func);
    let mut fp: Vec<u64> = alphabet.iter().map(|&b| u64::from(b)).collect();
    fp.push(u64::MAX);
    fp.extend(strsum_symex::loop_signature(func, &alphabet, max_ex_size));
    fp
}

/// The interpreter-backed screening state for one loop: the grid, the
/// loop's expected outcome on each grid input, and the refuted OE classes.
#[derive(Debug)]
pub struct ConcreteScreen {
    /// `None` (the NULL input, present iff the loop is NULL-safe) followed
    /// by all strings of length ≤ `max_ex_size` over the loop's alphabet.
    grid: Vec<Option<Vec<u8>>>,
    /// The loop's outcome on each grid input, index-aligned with `grid`.
    expected: Vec<OracleOutcome>,
    /// Refuted OE classes: candidate fingerprint → index of the grid
    /// input promoted as the class's counterexample.
    classes: HashMap<Vec<OracleOutcome>, usize>,
    /// Counters, cumulative over the owning synthesis session.
    pub stats: ScreenStats,
}

impl ConcreteScreen {
    /// Builds the grid for `oracle`'s loop and records the loop's outcome
    /// on every grid input (see [`ConcreteScreen::from_outcomes`]).
    pub fn new(oracle: &mut LoopOracle<'_>, max_ex_size: usize) -> ConcreteScreen {
        let mut span = strsum_obs::span("screen.build", "screen");
        let strings = bounded_strings(&loop_alphabet(oracle.func()), max_ex_size);
        let mut outcomes = vec![oracle.run(None)];
        outcomes.extend(strings.iter().map(|s| oracle.run(Some(s))));
        let screen = ConcreteScreen::from_outcomes(strings, outcomes);
        span.arg_u64("grid", screen.grid.len() as u64);
        screen
    }

    /// [`ConcreteScreen::new`] without running the loop: `fingerprint` is
    /// the loop's [`loop_fingerprint`] at `max_ex_size`, which already
    /// records its outcome on the NULL input and on every grid string.
    /// `None` when the fingerprint describes another grid (alphabet or
    /// bound) or records an outcome the screen's domain cannot express
    /// (an offset into a rewritten buffer); the caller then builds the
    /// screen with [`ConcreteScreen::new`].
    pub fn from_fingerprint(
        func: &Func,
        fingerprint: &[u64],
        max_ex_size: usize,
    ) -> Option<ConcreteScreen> {
        let mut span = strsum_obs::span("screen.build", "screen");
        let alphabet = loop_alphabet(func);
        let (head, signature) = fingerprint.split_at_checked(alphabet.len() + 1)?;
        let same_alphabet = head[..alphabet.len()]
            .iter()
            .copied()
            .eq(alphabet.iter().map(|&b| u64::from(b)));
        if !same_alphabet || head[alphabet.len()] != u64::MAX {
            return None;
        }
        let strings = bounded_strings(&alphabet, max_ex_size);
        if signature.len() != strings.len() + 1 {
            return None;
        }
        let outcomes = signature
            .iter()
            .map(|&v| OracleOutcome::from_signature(v))
            .collect::<Option<Vec<_>>>()?;
        let screen = ConcreteScreen::from_outcomes(strings, outcomes);
        span.arg_u64("grid", screen.grid.len() as u64);
        Some(screen)
    }

    /// The screen over the grid `strings`, given the loop's outcome on
    /// NULL followed by its outcome on each string. The NULL input
    /// participates only when the loop is NULL-safe, mirroring the
    /// bounded checker's input space.
    fn from_outcomes(strings: Vec<Vec<u8>>, mut outcomes: Vec<OracleOutcome>) -> ConcreteScreen {
        let mut grid: Vec<Option<Vec<u8>>> = Vec::with_capacity(outcomes.len());
        if outcomes[0] == OracleOutcome::Unsafe {
            outcomes.remove(0);
        } else {
            grid.push(None);
        }
        grid.extend(strings.into_iter().map(Some));
        ConcreteScreen {
            grid,
            expected: outcomes,
            classes: HashMap::new(),
            stats: ScreenStats::default(),
        }
    }

    /// The candidate's output vector over the grid — its OE fingerprint.
    fn fingerprint(&self, bytes: &[u8]) -> Vec<OracleOutcome> {
        self.grid
            .iter()
            .map(|input| OracleOutcome::from_gadget(run_bytes(bytes, input.as_deref())))
            .collect()
    }

    /// Screens one solver candidate (raw model bytes — the interpreter is
    /// total over arbitrary byte vectors, so malformed candidates screen
    /// exactly like well-formed ones). Updates the class map and the
    /// `screen_rejects`/`oe_class_hits` counters; the caller promotes the
    /// refuter and counts `promoted`.
    pub fn refute(&mut self, bytes: &[u8]) -> ScreenVerdict {
        let _span = strsum_obs::span("screen.refute", "screen");
        let fp = self.fingerprint(bytes);
        let first_diff = fp
            .iter()
            .zip(&self.expected)
            .position(|(got, want)| got != want);
        let Some(idx) = first_diff else {
            return ScreenVerdict::Pass;
        };
        self.stats.screen_rejects += 1;
        let (refuter_idx, class_hit) = match self.classes.get(&fp) {
            Some(&known) => {
                self.stats.oe_class_hits += 1;
                (known, true)
            }
            None => {
                self.classes.insert(fp, idx);
                (idx, false)
            }
        };
        ScreenVerdict::Reject {
            refuter: self.grid[refuter_idx].clone(),
            class_hit,
        }
    }

    /// Pure grid comparison for shrink candidates during minimisation: no
    /// class bookkeeping (shrunk programs are not solver-produced, so a
    /// class re-hit means nothing there). Counts `minimize_screen_rejects`.
    pub fn grid_rejects(&mut self, bytes: &[u8]) -> bool {
        let rejected = self.grid.iter().zip(&self.expected).any(|(input, want)| {
            OracleOutcome::from_gadget(run_bytes(bytes, input.as_deref())) != *want
        });
        if rejected {
            self.stats.minimize_screen_rejects += 1;
        }
        rejected
    }

    /// Number of grid inputs (for reporting).
    pub fn grid_len(&self) -> usize {
        self.grid.len()
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
    fn alphabet_is_sorted_and_includes_loop_constants() {
        let f = compile_one("char* f(char* s) { while (*s != ',') s++; return s; }").unwrap();
        let a = loop_alphabet(&f);
        assert!(a.contains(&b','));
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted, deduped: {a:?}");
    }

    #[test]
    fn correct_candidate_passes_wrong_one_is_refuted() {
        let f = skip_ws();
        let mut oracle = LoopOracle::new(&f);
        let mut screen = ConcreteScreen::new(&mut oracle, 3);
        assert_eq!(screen.refute(b"P \t\0F"), ScreenVerdict::Pass);
        // Missing \t: refuted on a grid input containing a tab, with no
        // class hit the first time…
        match screen.refute(b"P \0F") {
            ScreenVerdict::Reject {
                refuter: Some(r),
                class_hit: false,
            } => assert!(r.contains(&b'\t'), "refuter {r:?} should involve tab"),
            other => panic!("expected fresh rejection, got {other:?}"),
        }
        // …and a class hit (same fingerprint, same refuter) the second.
        match screen.refute(b"P \0F") {
            ScreenVerdict::Reject {
                class_hit: true, ..
            } => {}
            other => panic!("expected class hit, got {other:?}"),
        }
        assert_eq!(screen.stats.screen_rejects, 2);
        assert_eq!(screen.stats.oe_class_hits, 1);
    }

    #[test]
    fn null_input_screened_only_when_loop_is_null_safe() {
        let guarded =
            compile_one("char* f(char* s) { if (!s) return s; while (*s == ' ') s++; return s; }")
                .unwrap();
        let mut o = LoopOracle::new(&guarded);
        let mut screen = ConcreteScreen::new(&mut o, 3);
        // The unguarded summary crashes on NULL; the guarded one passes.
        assert_eq!(screen.refute(b"ZFP \0F"), ScreenVerdict::Pass);
        assert!(matches!(
            screen.refute(b"P \0F"),
            ScreenVerdict::Reject { refuter: None, .. }
        ));

        // NULL-unsafe loop: NULL is outside the spec, both summaries pass.
        let unguarded =
            compile_one("char* f(char* s) { while (*s == ' ') s++; return s; }").unwrap();
        let mut o = LoopOracle::new(&unguarded);
        let mut screen = ConcreteScreen::new(&mut o, 3);
        assert_eq!(screen.refute(b"P \0F"), ScreenVerdict::Pass);
        assert_eq!(screen.refute(b"ZFP \0F"), ScreenVerdict::Pass);
    }

    #[test]
    fn malformed_bytes_are_screenable() {
        let f = skip_ws();
        let mut oracle = LoopOracle::new(&f);
        let mut screen = ConcreteScreen::new(&mut oracle, 3);
        // Raw byte soup: the interpreter is total, so the screen just runs
        // it; no valid instruction ⇒ Invalid everywhere ⇒ refuted.
        assert!(matches!(
            screen.refute(&[0x11, 0x22, 0x33]),
            ScreenVerdict::Reject { .. }
        ));
    }

    #[test]
    fn a_screen_from_the_fingerprint_is_the_screen_from_the_loop() {
        let loops = [
            "char* f(char* s) { while (*s == ' ' || *s == '\\t') s++; return s; }",
            "char* f(char* s) { if (!s) return s; while (*s == ' ') s++; return s; }",
            "char* f(char* s) { while (*s != ';') s++; return s; }",
            "char* f(char* s) { while (*s && *s != ':') s++; return *s ? s : 0; }",
            "int f(char* s) { int n = 0; while (*s) { n = n + 1; s = s + 1; } return n; }",
        ];
        for src in loops {
            let f = compile_one(src).unwrap();
            let from_loop = ConcreteScreen::new(&mut LoopOracle::new(&f), 3);
            let fp = loop_fingerprint(&f, 3);
            let from_fp = ConcreteScreen::from_fingerprint(&f, &fp, 3).expect(src);
            assert_eq!(from_fp.grid, from_loop.grid, "{src}");
            assert_eq!(from_fp.expected, from_loop.expected, "{src}");
            // Another bound is another grid.
            assert!(ConcreteScreen::from_fingerprint(&f, &fp, 2).is_none());
        }
        // A builder's outcomes hash its rewritten buffer: no screen.
        let upper = compile_one(
            "char* f(char* s) { char* p = s; while (*p) { *p = toupper(*p); p = p + 1; } return s; }",
        )
        .unwrap();
        assert!(
            ConcreteScreen::from_fingerprint(&upper, &loop_fingerprint(&upper, 3), 3).is_none()
        );
    }

    #[test]
    fn fingerprints_agree_for_renamed_loops_only() {
        let a = compile_one("char* f(char* s) { while (*s == ':') s++; return s; }").unwrap();
        let b = compile_one("char* g(char* p) { while (*p == ':') p++; return p; }").unwrap();
        let c = compile_one("char* f(char* s) { while (*s == ';') s++; return s; }").unwrap();
        assert_eq!(loop_fingerprint(&a, 3), loop_fingerprint(&b, 3));
        assert_ne!(loop_fingerprint(&a, 3), loop_fingerprint(&c, 3));
    }
}
