//! A constructive string solver for the loop-summary vocabulary.
//!
//! String solvers like Z3str or CVC4 accept constraints phrased in a fixed
//! vocabulary of string operations. Loop summaries map directly onto that
//! vocabulary (paper §4.3), so `str.KLEE` can dispatch a summarised loop to
//! the string solver instead of unrolling it. This module implements the
//! decision procedure we dispatch to: constraints over a bounded
//! NUL-terminated buffer are kept as one [`ByteSet`] per position, and
//! models are read off constructively — no search, no per-character paths.
//!
//! Two layers live here:
//!
//! * the passive abstraction ([`StringAbstraction`]): per-position
//!   [`ByteSet`] cells with intersection as propagation, used by the
//!   summary-vocabulary dispatch;
//! * the constructive theory solver ([`StringTheory`], [`TheoryState`]):
//!   a propagation pass that recognises the per-byte fragment the
//!   symbolic executor emits — byte-cell membership/equality against
//!   constants, range and class tests, and their boolean combinations —
//!   straight off [`TermPool`] terms, saturates per-variable cells, and
//!   answers Sat-with-model / Unsat / Unknown without ever reaching the
//!   bit-blaster. Only [`TheoryVerdict::Unknown`] falls through to the
//!   SAT-based [`crate::Solver`].

use crate::eval::{eval_bool, eval_per_value};
use crate::model::Model;
use crate::term::{Op, Sort, TermId, TermPool};
use std::collections::HashMap;
use std::fmt;

/// A set of byte values (0–255) as a 256-bit bitmap.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ByteSet {
    bits: [u64; 4],
}

impl ByteSet {
    /// The empty set.
    pub const EMPTY: ByteSet = ByteSet { bits: [0; 4] };

    /// The set of all 256 byte values.
    pub const FULL: ByteSet = ByteSet {
        bits: [u64::MAX; 4],
    };

    /// Creates an empty set.
    pub fn new() -> ByteSet {
        Self::EMPTY
    }

    /// Set containing exactly the bytes of `bytes`.
    pub fn from_bytes(bytes: &[u8]) -> ByteSet {
        let mut s = Self::EMPTY;
        for &b in bytes {
            s.insert(b);
        }
        s
    }

    /// Set containing a single byte.
    pub fn single(b: u8) -> ByteSet {
        let mut s = Self::EMPTY;
        s.insert(b);
        s
    }

    /// Inserts a byte.
    pub fn insert(&mut self, b: u8) {
        self.bits[(b >> 6) as usize] |= 1u64 << (b & 63);
    }

    /// Removes a byte.
    pub fn remove(&mut self, b: u8) {
        self.bits[(b >> 6) as usize] &= !(1u64 << (b & 63));
    }

    /// Membership test.
    pub fn contains(&self, b: u8) -> bool {
        self.bits[(b >> 6) as usize] >> (b & 63) & 1 == 1
    }

    /// Set union.
    pub fn union(&self, other: &ByteSet) -> ByteSet {
        let mut bits = self.bits;
        for (b, o) in bits.iter_mut().zip(&other.bits) {
            *b |= o;
        }
        ByteSet { bits }
    }

    /// Set intersection.
    pub fn intersect(&self, other: &ByteSet) -> ByteSet {
        let mut bits = self.bits;
        for (b, o) in bits.iter_mut().zip(&other.bits) {
            *b &= o;
        }
        ByteSet { bits }
    }

    /// Complement with respect to all 256 bytes.
    pub fn complement(&self) -> ByteSet {
        let mut bits = self.bits;
        for b in &mut bits {
            *b = !*b;
        }
        ByteSet { bits }
    }

    /// Number of bytes in the set.
    pub fn len(&self) -> u32 {
        self.bits.iter().map(|b| b.count_ones()).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits == [0; 4]
    }

    /// The smallest byte in the set, if any.
    pub fn first(&self) -> Option<u8> {
        for (i, &word) in self.bits.iter().enumerate() {
            if word != 0 {
                return Some((i as u32 * 64 + word.trailing_zeros()) as u8);
            }
        }
        None
    }

    /// The smallest *printable, non-NUL* byte if one exists, else any byte.
    /// Used to make models human-readable.
    pub fn pick(&self) -> Option<u8> {
        for b in 0x20u8..0x7f {
            if self.contains(b) {
                return Some(b);
            }
        }
        self.first()
    }

    /// Iterates over member bytes in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        (0u16..256)
            .map(|b| b as u8)
            .filter(move |&b| self.contains(b))
    }
}

impl Default for ByteSet {
    fn default() -> Self {
        Self::EMPTY
    }
}

impl fmt::Debug for ByteSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ByteSet{{")?;
        let mut first = true;
        for b in self.iter() {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            if (0x20..0x7f).contains(&b) {
                write!(f, "{:?}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "}}")
    }
}

impl FromIterator<u8> for ByteSet {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        let mut s = ByteSet::new();
        for b in iter {
            s.insert(b);
        }
        s
    }
}

/// Per-position abstraction of a bounded buffer: position `i` may hold any
/// byte in `cells[i]`. Constraint propagation is intersection; a model is a
/// choice of one byte per cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StringAbstraction {
    cells: Vec<ByteSet>,
}

impl StringAbstraction {
    /// Fresh abstraction of a buffer with `capacity` bytes, all unconstrained.
    pub fn new(capacity: usize) -> StringAbstraction {
        StringAbstraction {
            cells: vec![ByteSet::FULL; capacity],
        }
    }

    /// Fresh abstraction of a NUL-terminated string of exactly `len`
    /// non-NUL characters: positions `0..len` exclude NUL, position `len`
    /// is NUL.
    pub fn with_exact_len(len: usize) -> StringAbstraction {
        let mut a = StringAbstraction::new(len + 1);
        let mut non_nul = ByteSet::FULL;
        non_nul.remove(0);
        for i in 0..len {
            a.cells[i] = non_nul;
        }
        a.cells[len] = ByteSet::single(0);
        a
    }

    /// Buffer capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.cells.len()
    }

    /// The set currently allowed at position `i`.
    pub fn cell(&self, i: usize) -> ByteSet {
        self.cells[i]
    }

    /// Constrains position `i` to `set`. Returns `false` on conflict
    /// (the cell becomes empty) and `true` otherwise.
    pub fn constrain(&mut self, i: usize, set: ByteSet) -> bool {
        if i >= self.cells.len() {
            // Reads past the buffer are vacuously inconsistent.
            return false;
        }
        self.cells[i] = self.cells[i].intersect(&set);
        !self.cells[i].is_empty()
    }

    /// Constrains the buffer to satisfy `strspn(s + start, set) == k`,
    /// with C-string semantics:
    ///
    /// * positions `start..start+k` (the spanned characters) lie in
    ///   `set` **and are non-NUL** — `strspn` walks the string, and the
    ///   string ends at the first NUL, so a NUL is never spanned even
    ///   when `set` contains it;
    /// * with `terminate = true`, position `start+k` is a *stopper*:
    ///   either the terminating NUL or a byte outside `set`. The stopper
    ///   must lie within `capacity` — a NUL-terminated buffer always
    ///   ends inside its allocation, so a span that would fill the whole
    ///   buffer and leave no room for the stopper is inconsistent
    ///   (out-of-bounds [`StringAbstraction::constrain`] reports
    ///   conflict). Pass `terminate = false` for the prefix reading
    ///   `strspn(..) >= k`, which needs no stopper cell.
    ///
    /// Edge cases this implies (unit-tested below):
    ///
    /// * **empty `set`**: `strspn` is 0 on every string, so `k = 0`
    ///   always succeeds (the stopper constraint is vacuous: every byte
    ///   is outside the empty set) and any `k > 0` is a conflict;
    /// * **span reaching `capacity`**: `start + k == capacity()` with
    ///   `terminate = true` is a conflict — there is no cell left for
    ///   the stopper;
    /// * **[`StringAbstraction::with_exact_len`]`(0)`**: only the NUL
    ///   cell exists, so `k = 0` spans succeed (the NUL is a valid
    ///   stopper even when `set` contains NUL) and `k > 0` spans fail.
    ///
    /// Returns `false` on conflict; the touched cells retain their
    /// narrowed (possibly empty) sets, exactly like
    /// [`StringAbstraction::constrain`].
    pub fn constrain_span(
        &mut self,
        start: usize,
        set: ByteSet,
        k: usize,
        terminate: bool,
    ) -> bool {
        // Spanned characters are string characters: in `set`, non-NUL.
        let mut span_set = set;
        span_set.remove(0);
        for i in 0..k {
            if !self.constrain(start + i, span_set) {
                return false;
            }
        }
        if terminate {
            // The stopper is the terminating NUL or any byte outside
            // `set`; when NUL ∉ `set` the union is just the complement.
            let mut stop = set.complement();
            stop.insert(0);
            return self.constrain(start + k, stop);
        }
        true
    }

    /// Whether every cell still admits at least one byte.
    pub fn is_consistent(&self) -> bool {
        self.cells.iter().all(|c| !c.is_empty())
    }

    /// Reads off a model, preferring printable bytes. `None` on conflict.
    pub fn model(&self) -> Option<Vec<u8>> {
        self.cells.iter().map(|c| c.pick()).collect()
    }
}

/// Verdict of the constructive theory layer on a constraint set.
#[derive(Debug, Clone)]
pub enum TheoryVerdict {
    /// Every constraint was decided constructively and is satisfiable;
    /// the model assigns one byte to each constrained variable (any
    /// byte works for the rest).
    Sat(Model),
    /// Some translated subset of the constraints is contradictory —
    /// sound even when other constraints were not translated, since a
    /// subset being unsatisfiable makes the conjunction unsatisfiable.
    Unsat,
    /// The fragment does not cover the constraints; fall through to the
    /// bit-blasting [`crate::Solver`].
    Unknown,
}

/// How many distinct variables a term mentions (for fragment dispatch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarUse {
    /// No variables: the term is semantically constant.
    None,
    /// Exactly one variable (the common per-byte-cell case).
    One(TermId),
    /// Two or more distinct variables.
    Many,
}

/// Exact translation of a boolean term into the per-cell fragment.
#[derive(Debug, Clone)]
pub enum Translation {
    /// The term is equivalent to this constant.
    Const(bool),
    /// The term is equivalent to the conjunction of `var ∈ set`
    /// memberships (one entry per listed cell; a variable may repeat).
    Cells(Vec<(TermId, ByteSet)>),
    /// Outside the fragment (multi-variable coupling, wide variables).
    Opaque,
}

/// The constructive string-theory solver: a translation pass from
/// [`TermPool`] terms into per-variable [`ByteSet`] cells.
///
/// The fragment it decides exactly is every boolean term whose atoms each
/// mention **one byte-width variable** — equality/disequality against
/// constants, unsigned/signed range tests through `ZeroExt`/`SignExt`
/// chains, arithmetic like `*s - '0'`, `<ctype.h>` class tests encoded as
/// `Ite(class(c), 1, 0) ≠ 0` — closed under `And`, single-cell `Or` and
/// single-cell `Not`. Atom translation is *semantic*, not syntactic: the
/// term is evaluated for all 256 byte values of its variable (via
/// [`crate::eval`]), so any exotic but single-cell condition the front-end
/// emits is captured exactly. Conjunctions over *different* cells stay in
/// the fragment because per-cell memberships compose by intersection.
///
/// Translations are memoised per [`TermId`] — hash-consing makes the id a
/// canonical key — so a branch condition shared by thousands of paths is
/// translated once per pool.
#[derive(Debug, Default)]
pub struct StringTheory {
    trans: HashMap<TermId, Translation>,
    vars: HashMap<TermId, VarUse>,
    /// Distinct terms translated into the fragment (telemetry).
    translated: u64,
    /// Distinct terms rejected as outside the fragment (telemetry).
    rejected: u64,
}

/// All values a variable of width `w ≤ 8` can take, as a [`ByteSet`].
fn domain_set(width: u32) -> ByteSet {
    if width >= 8 {
        ByteSet::FULL
    } else {
        (0u8..1 << width).collect()
    }
}

impl StringTheory {
    /// Creates an empty theory solver (no memoised translations).
    pub fn new() -> StringTheory {
        StringTheory::default()
    }

    /// `(translated, rejected)` distinct-term translation counts.
    pub fn translation_counts(&self) -> (u64, u64) {
        (self.translated, self.rejected)
    }

    /// One-shot check of a constraint conjunction, the theory-layer
    /// analogue of [`crate::Solver::check`]. See [`TheoryVerdict`] for
    /// the soundness contract of each answer.
    pub fn check(&mut self, pool: &TermPool, assertions: &[TermId]) -> TheoryVerdict {
        let mut state = TheoryState::new();
        for &a in assertions {
            state.assert(self, pool, a);
            if state.infeasible {
                return TheoryVerdict::Unsat;
            }
        }
        if !state.is_exact() {
            return TheoryVerdict::Unknown;
        }
        TheoryVerdict::Sat(state.model())
    }

    fn var_use(&mut self, pool: &TermPool, t: TermId) -> VarUse {
        if let Some(&u) = self.vars.get(&t) {
            return u;
        }
        let mut acc = VarUse::None;
        if matches!(pool.term(t).op, Op::Var { .. }) {
            acc = VarUse::One(t);
        } else {
            for i in 0..pool.term(t).args.len() {
                let a = pool.term(t).args[i];
                let u = self.var_use(pool, a);
                acc = match (acc, u) {
                    (VarUse::None, u) => u,
                    (u, VarUse::None) => u,
                    (VarUse::One(x), VarUse::One(y)) if x == y => VarUse::One(x),
                    _ => VarUse::Many,
                };
                if acc == VarUse::Many {
                    break;
                }
            }
        }
        self.vars.insert(t, acc);
        acc
    }

    /// Exact byte-set of a single-variable boolean term: evaluate it for
    /// every value of the variable's (≤ 8-bit) domain.
    fn eval_set(pool: &TermPool, t: TermId, var: TermId) -> Option<ByteSet> {
        if !matches!(pool.sort(var), Sort::BitVec(w) if w <= 8) {
            return None;
        }
        let values = eval_per_value(pool, t, var);
        Some(
            (0..=255u8)
                .filter(|&v| values.get(usize::from(v)).is_some_and(|&x| x != 0))
                .collect(),
        )
    }

    /// The exact per-cell form of boolean term `t` (memoised), for
    /// callers that reason over product regions of byte cells.
    pub fn translate(&mut self, pool: &TermPool, t: TermId) -> Translation {
        if let Some(tr) = self.trans.get(&t) {
            return tr.clone();
        }
        let tr = self.translate_uncached(pool, t);
        match tr {
            Translation::Opaque => self.rejected += 1,
            _ => self.translated += 1,
        }
        self.trans.insert(t, tr.clone());
        tr
    }

    fn translate_uncached(&mut self, pool: &TermPool, t: TermId) -> Translation {
        if let Some(b) = pool.as_bool_const(t) {
            return Translation::Const(b);
        }
        match self.var_use(pool, t) {
            // No variables: the simplifier usually folds these, but a
            // semantic evaluation settles stragglers exactly.
            VarUse::None => Translation::Const(eval_bool(pool, t, &|_| 0)),
            VarUse::One(v) => match Self::eval_set(pool, t, v) {
                None => Translation::Opaque,
                Some(set) => {
                    let width = match pool.sort(v) {
                        Sort::BitVec(w) => w.min(8),
                        Sort::Bool => unreachable!("eval_set rejects bool vars"),
                    };
                    if set.is_empty() {
                        Translation::Const(false)
                    } else if set == domain_set(width) {
                        Translation::Const(true)
                    } else {
                        Translation::Cells(vec![(v, set)])
                    }
                }
            },
            // Multi-variable terms: structural closure of the fragment.
            VarUse::Many => {
                let term = pool.term(t);
                match term.op {
                    Op::And => {
                        let (a, b) = (term.args[0], term.args[1]);
                        match (self.translate(pool, a), self.translate(pool, b)) {
                            (Translation::Const(false), _) | (_, Translation::Const(false)) => {
                                Translation::Const(false)
                            }
                            (Translation::Const(true), x) | (x, Translation::Const(true)) => x,
                            (Translation::Cells(mut xs), Translation::Cells(ys)) => {
                                xs.extend(ys);
                                Translation::Cells(xs)
                            }
                            _ => Translation::Opaque,
                        }
                    }
                    Op::Or => {
                        let (a, b) = (term.args[0], term.args[1]);
                        match (self.translate(pool, a), self.translate(pool, b)) {
                            (Translation::Const(true), _) | (_, Translation::Const(true)) => {
                                Translation::Const(true)
                            }
                            (Translation::Const(false), x) | (x, Translation::Const(false)) => x,
                            // Disjunction stays per-cell only on one cell.
                            (Translation::Cells(xs), Translation::Cells(ys))
                                if xs.len() == 1 && ys.len() == 1 && xs[0].0 == ys[0].0 =>
                            {
                                Translation::Cells(vec![(xs[0].0, xs[0].1.union(&ys[0].1))])
                            }
                            _ => Translation::Opaque,
                        }
                    }
                    Op::Not => match self.translate(pool, term.args[0]) {
                        Translation::Const(b) => Translation::Const(!b),
                        // ¬(v ∈ S) ⇔ v ∈ (domain ∖ S); a multi-cell
                        // conjunction negates into a disjunction, which
                        // leaves the fragment.
                        Translation::Cells(xs) if xs.len() == 1 => {
                            let (v, s) = xs[0];
                            let width = match pool.sort(v) {
                                Sort::BitVec(w) => w.min(8),
                                Sort::Bool => unreachable!("cells hold bit-vector vars"),
                            };
                            let neg = s.complement().intersect(&domain_set(width));
                            if neg.is_empty() {
                                Translation::Const(false)
                            } else {
                                Translation::Cells(vec![(v, neg)])
                            }
                        }
                        _ => Translation::Opaque,
                    },
                    _ => Translation::Opaque,
                }
            }
        }
    }
}

/// Incremental per-path theory state: the saturated cells of every
/// asserted constraint, cheap to clone at a fork.
///
/// The symbolic executor keeps one of these per path. Asserting a
/// constraint intersects its translated cells ([`TheoryState::assert`]);
/// a branch query tests one extra literal against the saturated state
/// without mutating it ([`TheoryState::query`]).
#[derive(Debug, Clone, Default)]
pub struct TheoryState {
    cells: HashMap<TermId, ByteSet>,
    /// Some asserted constraint was outside the fragment: `Sat` answers
    /// are no longer available (`Unsat` still is — see
    /// [`TheoryVerdict::Unsat`]).
    opaque: bool,
    /// A translated subset of the asserted constraints is already
    /// contradictory.
    infeasible: bool,
}

impl TheoryState {
    /// Fresh state with no constraints.
    pub fn new() -> TheoryState {
        TheoryState::default()
    }

    /// Whether every asserted constraint was translated exactly (the
    /// precondition for `Sat` answers).
    pub fn is_exact(&self) -> bool {
        !self.opaque
    }

    /// Adds `t` to the path's constraint set, saturating the cells.
    pub fn assert(&mut self, theory: &mut StringTheory, pool: &TermPool, t: TermId) {
        match theory.translate(pool, t) {
            Translation::Const(true) => {}
            Translation::Const(false) => self.infeasible = true,
            Translation::Cells(xs) => {
                for (v, s) in xs {
                    let cell = self.cells.entry(v).or_insert(ByteSet::FULL);
                    *cell = cell.intersect(&s);
                    if cell.is_empty() {
                        self.infeasible = true;
                    }
                }
            }
            Translation::Opaque => self.opaque = true,
        }
    }

    /// Decides `asserted ∧ extra` without mutating the state — the shape
    /// of a branch-feasibility query. `Sat` is answered only when every
    /// constraint (asserted and extra) was translated exactly; `Unsat`
    /// whenever any translated subset is contradictory, which is sound
    /// even with opaque constraints in the path (over-approximation).
    pub fn query(
        &self,
        theory: &mut StringTheory,
        pool: &TermPool,
        extra: TermId,
    ) -> TheoryVerdict {
        if self.infeasible {
            return TheoryVerdict::Unsat;
        }
        match theory.translate(pool, extra) {
            Translation::Const(false) => TheoryVerdict::Unsat,
            Translation::Const(true) => {
                if self.opaque {
                    TheoryVerdict::Unknown
                } else {
                    TheoryVerdict::Sat(self.model())
                }
            }
            Translation::Opaque => TheoryVerdict::Unknown,
            Translation::Cells(xs) => {
                // Tentative intersection against the saturated cells.
                let mut narrowed: Vec<(TermId, ByteSet)> = Vec::with_capacity(xs.len());
                for (v, s) in xs {
                    let cur = narrowed
                        .iter()
                        .find(|(u, _)| *u == v)
                        .map(|&(_, s)| s)
                        .unwrap_or_else(|| self.cells.get(&v).copied().unwrap_or(ByteSet::FULL));
                    let next = cur.intersect(&s);
                    if next.is_empty() {
                        return TheoryVerdict::Unsat;
                    }
                    match narrowed.iter_mut().find(|(u, _)| *u == v) {
                        Some(slot) => slot.1 = next,
                        None => narrowed.push((v, next)),
                    }
                }
                if self.opaque {
                    return TheoryVerdict::Unknown;
                }
                let mut values: HashMap<TermId, u64> = self
                    .cells
                    .iter()
                    .map(|(&v, s)| (v, u64::from(s.pick().expect("non-empty cell"))))
                    .collect();
                for (v, s) in narrowed {
                    values.insert(v, u64::from(s.pick().expect("checked non-empty")));
                }
                TheoryVerdict::Sat(Model::from_values(values))
            }
        }
    }

    fn model(&self) -> Model {
        let values: HashMap<TermId, u64> = self
            .cells
            .iter()
            .map(|(&v, s)| (v, u64::from(s.pick().expect("non-empty cell"))))
            .collect();
        Model::from_values(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byteset_basics() {
        let mut s = ByteSet::new();
        assert!(s.is_empty());
        s.insert(b'a');
        s.insert(b'z');
        assert!(s.contains(b'a'));
        assert!(!s.contains(b'b'));
        assert_eq!(s.len(), 2);
        assert_eq!(s.first(), Some(b'a'));
        s.remove(b'a');
        assert_eq!(s.first(), Some(b'z'));
    }

    #[test]
    fn byteset_algebra() {
        let a = ByteSet::from_bytes(b"abc");
        let b = ByteSet::from_bytes(b"bcd");
        assert_eq!(a.union(&b).len(), 4);
        assert_eq!(a.intersect(&b).len(), 2);
        assert_eq!(a.complement().len(), 253);
        assert_eq!(a.complement().complement(), a);
    }

    #[test]
    fn byteset_iter_sorted() {
        let s = ByteSet::from_bytes(b"zax");
        let v: Vec<u8> = s.iter().collect();
        assert_eq!(v, vec![b'a', b'x', b'z']);
    }

    #[test]
    fn span_constraint_builds_model() {
        // strspn(s, " \t") == 2 on a string of exactly length 4.
        let mut a = StringAbstraction::with_exact_len(4);
        let ws = ByteSet::from_bytes(b" \t");
        assert!(a.constrain_span(0, ws, 2, true));
        let m = a.model().unwrap();
        assert!(ws.contains(m[0]) && ws.contains(m[1]));
        assert!(!ws.contains(m[2]));
        assert_ne!(m[2], 0);
        assert_eq!(m[4], 0);
    }

    #[test]
    fn conflicting_span_detected() {
        // strspn(s, "x") == 2 but the string has length 1: position 1 is NUL,
        // which cannot be 'x'.
        let mut a = StringAbstraction::with_exact_len(1);
        let xs = ByteSet::single(b'x');
        assert!(!a.constrain_span(0, xs, 2, true));
        assert!(!a.is_consistent());
    }

    #[test]
    fn out_of_bounds_is_conflict() {
        let mut a = StringAbstraction::new(3);
        assert!(!a.constrain(5, ByteSet::FULL));
    }

    #[test]
    fn empty_set_span_is_zero_only() {
        // strspn(s, "") == 0 on every string: k = 0 succeeds with a
        // vacuous stopper, any k > 0 conflicts.
        let mut a = StringAbstraction::with_exact_len(3);
        assert!(a.constrain_span(0, ByteSet::EMPTY, 0, true));
        assert!(a.is_consistent());
        let mut b = StringAbstraction::with_exact_len(3);
        assert!(!b.constrain_span(0, ByteSet::EMPTY, 1, true));
    }

    #[test]
    fn span_reaching_capacity_needs_stopper_room() {
        // A terminated span filling the whole buffer leaves no cell for
        // the stopper: conflict. Without `terminate` (the ≥-k reading)
        // the same span is fine.
        let xs = ByteSet::single(b'x');
        let mut a = StringAbstraction::new(3);
        assert!(!a.constrain_span(0, xs, 3, true));
        let mut b = StringAbstraction::new(3);
        assert!(b.constrain_span(0, xs, 3, false));
        assert!(b.is_consistent());
    }

    #[test]
    fn exact_len_zero_spans() {
        // The empty string: only the NUL cell exists. k = 0 succeeds —
        // the NUL is a valid stopper even when the set contains NUL —
        // and k > 0 fails (a NUL is never spanned).
        let ws = ByteSet::from_bytes(b" \t");
        let mut a = StringAbstraction::with_exact_len(0);
        assert!(a.constrain_span(0, ws, 0, true));
        assert_eq!(a.model().unwrap(), vec![0]);
        let mut with_nul = ws;
        with_nul.insert(0);
        let mut b = StringAbstraction::with_exact_len(0);
        assert!(b.constrain_span(0, with_nul, 0, true));
        let mut c = StringAbstraction::with_exact_len(0);
        assert!(!c.constrain_span(0, with_nul, 1, true));
    }

    #[test]
    fn nul_in_set_is_never_spanned() {
        // strspn(s, set) ignores a NUL in the set: spanned chars are
        // string chars. On a length-2 string, set {' ', NUL} spans at
        // most 2, and the stopper at position 2 is the NUL itself.
        let mut set = ByteSet::single(b' ');
        set.insert(0);
        let mut a = StringAbstraction::with_exact_len(2);
        assert!(a.constrain_span(0, set, 2, true));
        let m = a.model().unwrap();
        assert_eq!(&m[..2], b"  ");
        assert_eq!(m[2], 0);
    }

    // --- constructive theory solver ------------------------------------

    fn byte_var(pool: &mut TermPool, name: &str) -> TermId {
        pool.var(name, 8)
    }

    #[test]
    fn theory_decides_eq_and_range() {
        let mut pool = TermPool::new();
        let c0 = byte_var(&mut pool, "c0");
        let wide = pool.zero_ext(c0, 32);
        let space = pool.bv_const(u64::from(b' '), 32);
        let is_space = pool.eq(wide, space);
        let mut th = StringTheory::new();
        match th.check(&pool, &[is_space]) {
            TheoryVerdict::Sat(m) => assert_eq!(m.value(c0), Some(u64::from(b' '))),
            other => panic!("expected sat, got {other:?}"),
        }
        let not_space = pool.not(is_space);
        match th.check(&pool, &[is_space, not_space]) {
            TheoryVerdict::Unsat => {}
            other => panic!("expected unsat, got {other:?}"),
        }
    }

    #[test]
    fn theory_handles_signed_promotion_and_arith() {
        // (signed char)c - '0' < 10 unsigned — the *s - '0' idiom.
        let mut pool = TermPool::new();
        let c0 = byte_var(&mut pool, "c0");
        let wide = pool.sign_ext(c0, 32);
        let zero_ch = pool.bv_const(u64::from(b'0'), 32);
        let diff = pool.bv_sub(wide, zero_ch);
        let ten = pool.bv_const(10, 32);
        let is_digit = pool.bv_ult(diff, ten);
        let mut th = StringTheory::new();
        match th.check(&pool, &[is_digit]) {
            TheoryVerdict::Sat(m) => {
                let v = m.value(c0).unwrap() as u8;
                assert!(v.is_ascii_digit(), "{v} not a digit");
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn theory_conjunctions_across_cells() {
        let mut pool = TermPool::new();
        let c0 = byte_var(&mut pool, "c0");
        let c1 = byte_var(&mut pool, "c1");
        let w0 = pool.zero_ext(c0, 32);
        let w1 = pool.zero_ext(c1, 32);
        let a_ch = pool.bv_const(u64::from(b'a'), 32);
        let e0 = pool.eq(w0, a_ch);
        let e1 = pool.eq(w1, a_ch);
        let both = pool.and(e0, e1);
        let mut th = StringTheory::new();
        match th.check(&pool, &[both]) {
            TheoryVerdict::Sat(m) => {
                assert_eq!(m.value(c0), Some(u64::from(b'a')));
                assert_eq!(m.value(c1), Some(u64::from(b'a')));
            }
            other => panic!("expected sat, got {other:?}"),
        }
        // Negating a multi-cell conjunction leaves the fragment.
        let neg = pool.not(both);
        assert!(matches!(th.check(&pool, &[neg]), TheoryVerdict::Unknown));
    }

    #[test]
    fn theory_rejects_cross_cell_coupling() {
        let mut pool = TermPool::new();
        let c0 = byte_var(&mut pool, "c0");
        let c1 = byte_var(&mut pool, "c1");
        let eq = pool.eq(c0, c1);
        let mut th = StringTheory::new();
        assert!(matches!(th.check(&pool, &[eq]), TheoryVerdict::Unknown));
        // …but a contradictory translated subset still answers Unsat.
        let w0 = pool.zero_ext(c0, 32);
        let a_ch = pool.bv_const(u64::from(b'a'), 32);
        let b_ch = pool.bv_const(u64::from(b'b'), 32);
        let is_a = pool.eq(w0, a_ch);
        let is_b = pool.eq(w0, b_ch);
        assert!(matches!(
            th.check(&pool, &[eq, is_a, is_b]),
            TheoryVerdict::Unsat
        ));
    }

    #[test]
    fn theory_state_query_does_not_mutate() {
        let mut pool = TermPool::new();
        let c0 = byte_var(&mut pool, "c0");
        let w0 = pool.zero_ext(c0, 32);
        let a_ch = pool.bv_const(u64::from(b'a'), 32);
        let is_a = pool.eq(w0, a_ch);
        let not_a = pool.not(is_a);
        let mut th = StringTheory::new();
        let mut st = TheoryState::new();
        st.assert(&mut th, &pool, is_a);
        // Sibling queries: `is_a` sat, `¬is_a` unsat, in either order.
        assert!(matches!(
            st.query(&mut th, &pool, not_a),
            TheoryVerdict::Unsat
        ));
        assert!(matches!(
            st.query(&mut th, &pool, is_a),
            TheoryVerdict::Sat(_)
        ));
        assert!(st.is_exact());
    }

    #[test]
    fn theory_narrow_width_vars_use_their_domain() {
        // A 4-bit variable: ¬(v = 0) must complement within {0..15}, and
        // v < 16 is a tautology there.
        let mut pool = TermPool::new();
        let v = pool.var("v", 4);
        let zero = pool.bv_const(0, 4);
        let is0 = pool.eq(v, zero);
        let not0 = pool.not(is0);
        let mut th = StringTheory::new();
        match th.check(&pool, &[not0]) {
            TheoryVerdict::Sat(m) => {
                let val = m.value(v).unwrap();
                assert!((1..16).contains(&val), "{val} outside 4-bit domain");
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }
}
