//! The cell decision procedure: a second, solver-free way to decide the
//! bounded check of a store hit.
//!
//! The bounded check asks whether a loop and a summary agree on every
//! canonical buffer of length ≤ `max_ex_size` (§3's small-model theorem
//! lifts that to every length). The SAT route merges both sides into
//! if-then-else terms and bit-blasts their disequality. This module
//! decides the same question by enumeration over *regions* instead:
//!
//! * Every constraint of every symbolic-execution path tests a single
//!   character cell (`c0`, `c1`, …), so a path covers a *product* of
//!   per-cell [`ByteSet`]s ([`StringTheory::translate`] computes them
//!   exactly). The loop side is the list of those products, each with
//!   the path's outcome.
//! * The summary side is a partition of the same kind: a gadget program's
//!   guarded outcomes (every guard a conjunction of single-cell tests),
//!   or a closed form split by prefix length `n` — bytes `0..n` in the
//!   continue set, byte `n` outside it — with the outcome the form
//!   predicts there. Knowing `n` folds every `alive`/`cont` test to a
//!   constant, so each prediction is a straight-line term.
//! * Splitting each loop region by where the first NUL falls turns the
//!   canonical-buffer constraint (every byte after the first NUL is NUL)
//!   into per-cell facts as well.
//!
//! For every non-empty intersection of a canonical loop region with a
//! summary region, the two outcomes are proved equal by congruence:
//! identical terms are equal, matching operators recurse into their
//! operands, an if-then-else whose guard is constant on its cell's set
//! folds to one branch (and one whose guard is not splits the set by the
//! guard), and a maximal subterm over at most one cell is compared by
//! evaluating both sides on every byte of that cell's set — at most 256
//! evaluations. Both sides must also be partitions of the canonical
//! inputs: pairwise disjoint, with volumes summing to the number of
//! canonical buffers, so no input escapes the enumeration.
//!
//! The procedure only ever answers "equivalent" (`true`). Anything else —
//! a constraint outside the per-cell fragment, an operator mismatch, a
//! leaf that differs, a region cap — is "undecided" (`false`), and the
//! caller runs the SAT query unchanged, so a wrong summary still gets its
//! verdict (and its counterexample) from SAT.

use std::collections::HashMap;
use std::rc::Rc;

use strsum_gadgets::symbolic::{outcomes_on_symbolic_string, INVALID_SENTINEL, NULL_SENTINEL};
use strsum_gadgets::{Outcome, Program};
use strsum_ir::{Func, Ty};
use strsum_smt::eval::{eval, eval_per_value};
use strsum_smt::{ByteSet, Op, StringTheory, TermId, TermPool, Translation};
use strsum_symex::engine::encode_outcome;
use strsum_symex::{Engine, PathResult, SymObject, SymOutcome, SymVal, SymbolicRun};

use crate::equivalence::BoundedChecker;
use crate::recur::{faults_on_null, table_term, ClosedForm, Summary};

/// Most blocks either side of a check may have.
const MAX_PIECES: usize = 1024;

/// Most regions one check may compare (intersections plus guard splits).
const MAX_REGIONS: usize = 4096;

/// A product region: the set of bytes each character cell may hold.
type Region = Vec<ByteSet>;

/// One block of a partition of the inputs: a product region and the
/// outcome on it, a vector of terms over the cells (the return value and,
/// for in-place builders, the final buffer).
struct Piece {
    region: Region,
    outcome: Vec<TermId>,
}

/// The state of one check: the cells, the translation memo, and the
/// support memo.
struct Cells<'a> {
    chars: &'a [TermId],
    theory: StringTheory,
    /// The cells a term mentions, as a bit mask; `None` when it mentions
    /// a variable that is not a cell.
    support: HashMap<TermId, Option<u64>>,
    /// Per-byte values of single-cell terms (see [`Cells::values`]).
    values: HashMap<TermId, Rc<[u64]>>,
    /// Regions compared so far, against [`MAX_REGIONS`].
    regions: usize,
}

/// How an if-then-else guard behaves on a region.
enum Guard {
    /// Constant on the region.
    Const(bool),
    /// Over cell `.0` only, true exactly on the bytes `.1` of its set.
    Split(usize, ByteSet),
    /// Over several cells: neither folds nor splits.
    Mixed,
}

/// Decides the bounded check of `summary` against `func` by the cell
/// procedure alone — no grid screen, no SAT query: `true` proves them
/// equivalent on every string of length ≤ `max_ex_size` (and on the NULL
/// input wherever the SAT check also compares it), `false` is
/// "undecided". [`crate::verify_summary`] runs the same procedure before
/// its SAT query.
pub fn decide(func: &Func, summary: &Summary, max_ex_size: usize) -> bool {
    let mut pool = TermPool::new();
    match summary {
        Summary::Gadget(prog) => {
            func.ret_ty == Some(Ty::Ptr)
                && BoundedChecker::new(&mut pool, func, max_ex_size)
                    .is_ok_and(|checker| checker.decide_cells(&mut pool, prog))
        }
        Summary::Accumulator(cf) | Summary::Builder(cf) => {
            if !faults_on_null(func) {
                return false;
            }
            let run = Engine::new(&mut pool).run_on_symbolic_string(func, max_ex_size);
            run.is_ok_and(|run| run.complete && decide_closed_form(&mut pool, func, &run, cf))
        }
    }
}

/// Decides a gadget program against the loop run of a
/// [`crate::equivalence::BoundedChecker`]: `true` proves them equal on
/// every canonical buffer, `false` leaves the question to SAT. The NULL
/// input is the caller's (the checker decides it concretely).
pub(crate) fn decide_gadget(pool: &mut TermPool, run: &SymbolicRun, prog: &Program) -> bool {
    let Some(mut cells) = Cells::new(&run.chars) else {
        return false;
    };
    let inv = pool.bv_const(INVALID_SENTINEL, 64);
    let Some(lhs) = cells.loop_side(pool, run, |pool, path| {
        Some(vec![
            encode_outcome(pool, path, run.input_obj).unwrap_or(inv)
        ])
    }) else {
        return false;
    };
    let mut rhs = Vec::new();
    for go in outcomes_on_symbolic_string(pool, prog, &run.chars, false) {
        let enc = match go.outcome {
            Outcome::Ptr(o) => pool.bv_const(o as u64, 64),
            Outcome::Null => pool.bv_const(NULL_SENTINEL, 64),
            Outcome::Invalid => inv,
        };
        if cells.push(pool, &mut rhs, &[go.guard], vec![enc]).is_none() {
            return false;
        }
    }
    cells.decide(pool, &lhs, &rhs)
}

/// Decides a closed form against `func`'s loop run, with the outcome
/// shapes [`crate::recur::verify_closed_form`] requires (a fold's
/// integer at its width, a scan's offset, a builder's offset and final
/// buffer): `true` proves them equal on every canonical buffer, `false`
/// leaves the question to SAT.
pub(crate) fn decide_closed_form(
    pool: &mut TermPool,
    func: &Func,
    run: &SymbolicRun,
    cf: &ClosedForm,
) -> bool {
    let Some(mut cells) = Cells::new(&run.chars) else {
        return false;
    };
    let l = run.chars.len();
    let lhs = match cf {
        ClosedForm::Fold { width, .. } => {
            let w = u32::from(*width);
            if func.ret_ty.map(Ty::bits) != Some(w) {
                return false;
            }
            cells.loop_side(pool, run, |pool, path| match &path.outcome {
                SymOutcome::Ret(Some(SymVal::Int(t))) if pool.width(*t) == w => Some(vec![*t]),
                _ => None,
            })
        }
        ClosedForm::Scan { .. } => {
            if func.ret_ty != Some(Ty::Ptr) {
                return false;
            }
            cells.loop_side(pool, run, |pool, path| {
                encode_outcome(pool, path, run.input_obj).map(|t| vec![t])
            })
        }
        ClosedForm::Map { .. } => {
            if func.ret_ty != Some(Ty::Ptr) {
                return false;
            }
            cells.loop_side(pool, run, |_, path| match &path.outcome {
                SymOutcome::Ret(Some(SymVal::Ptr { obj, off })) if *obj == run.input_obj => {
                    match path.mem.object(run.input_obj) {
                        SymObject::Bytes(bytes) if bytes.len() == l + 1 => {
                            Some(std::iter::once(*off).chain(bytes.iter().copied()).collect())
                        }
                        _ => None,
                    }
                }
                _ => None,
            })
        }
    };
    let Some(lhs) = lhs else {
        return false;
    };
    let rhs = closed_form_side(pool, cf, &run.chars);
    cells.decide(pool, &lhs, &rhs)
}

/// The closed form's prediction, one block per prefix length `n`: bytes
/// `0..n` in the continue set, byte `n` (when `n < l`) outside it, the
/// rest free. Knowing `n` folds every `alive` test, so each outcome is the
/// straight-line term [`crate::recur::verify_closed_form`] builds under
/// its `alive` guards.
fn closed_form_side(pool: &mut TermPool, cf: &ClosedForm, chars: &[TermId]) -> Vec<Piece> {
    let l = chars.len();
    let cont = ByteSet::from_bytes(cf.cont());
    let mut side = Vec::with_capacity(l + 1);
    for n in 0..=l {
        let mut region = vec![ByteSet::FULL; l];
        region[..n].fill(cont);
        if n < l {
            region[n] = cont.complement();
        }
        let outcome = match cf {
            ClosedForm::Fold {
                cont,
                init,
                mul,
                table,
                width,
            } => {
                let w = u32::from(*width);
                let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
                let ty = if w == 64 { Ty::I64 } else { Ty::I32 };
                let mut acc = pool.bv_const(*init as u64 & mask, w);
                for &c in &chars[..n] {
                    let t = table_term(pool, cont, table, ty, c);
                    let prod = if *mul == 1 {
                        acc
                    } else {
                        let mc = pool.bv_const(*mul as u64 & mask, w);
                        pool.bv_mul(acc, mc)
                    };
                    acc = pool.bv_add(prod, t);
                }
                vec![acc]
            }
            ClosedForm::Scan { .. } => vec![pool.bv_const(n as u64, 64)],
            ClosedForm::Map {
                cont,
                table,
                ret_end,
            } => {
                let ret = pool.bv_const(if *ret_end { n as u64 } else { 0 }, 64);
                let mut outcome = vec![ret];
                for (j, &c) in chars.iter().enumerate() {
                    if j >= n {
                        outcome.push(c);
                        continue;
                    }
                    let mut mapped = c;
                    for &b in cont.iter().filter(|&&b| table[b as usize] != b) {
                        let bc = pool.bv_const(u64::from(b), 8);
                        let eqb = pool.eq(c, bc);
                        let tb = pool.bv_const(u64::from(table[b as usize]), 8);
                        mapped = pool.ite(eqb, tb, mapped);
                    }
                    outcome.push(mapped);
                }
                outcome.push(pool.bv_const(0, 8));
                outcome
            }
        };
        side.push(Piece { region, outcome });
    }
    side
}

impl<'a> Cells<'a> {
    fn new(chars: &'a [TermId]) -> Option<Cells<'a>> {
        (chars.len() <= 64).then(|| Cells {
            chars,
            theory: StringTheory::new(),
            support: HashMap::new(),
            values: HashMap::new(),
            regions: 0,
        })
    }

    /// One block per path of `run`, with `outcome` giving the path's
    /// outcome vector; `None` when a path's outcome or constraints are
    /// outside what the procedure handles.
    fn loop_side(
        &mut self,
        pool: &mut TermPool,
        run: &SymbolicRun,
        outcome: impl Fn(&mut TermPool, &PathResult) -> Option<Vec<TermId>>,
    ) -> Option<Vec<Piece>> {
        let mut side = Vec::with_capacity(run.paths.len());
        for path in &run.paths {
            let out = outcome(pool, path)?;
            self.push(pool, &mut side, &path.constraints, out)?;
        }
        Some(side)
    }

    /// Adds the block `conj ⇒ outcome` to `side` (nothing when `conj` is
    /// unsatisfiable); `None` when `conj` is outside the per-cell
    /// fragment or mentions a variable that is not a cell.
    fn push(
        &mut self,
        pool: &TermPool,
        side: &mut Vec<Piece>,
        conj: &[TermId],
        outcome: Vec<TermId>,
    ) -> Option<()> {
        let mut region = vec![ByteSet::FULL; self.chars.len()];
        for &t in conj {
            match self.theory.translate(pool, t) {
                Translation::Const(true) => {}
                Translation::Const(false) => return Some(()),
                Translation::Cells(xs) => {
                    for (v, set) in xs {
                        let i = self.chars.iter().position(|&c| c == v)?;
                        region[i] = region[i].intersect(&set);
                    }
                }
                Translation::Opaque => return None,
            }
        }
        if !region.iter().any(ByteSet::is_empty) {
            side.push(Piece { region, outcome });
        }
        Some(())
    }

    /// `true` when `lhs` and `rhs` partition the canonical inputs and
    /// agree on every region where their blocks meet.
    fn decide(&mut self, pool: &TermPool, lhs: &[Piece], rhs: &[Piece]) -> bool {
        if !(self.partitions(lhs) && self.partitions(rhs)) {
            return false;
        }
        for p in lhs {
            for canon in canonical_parts(&p.region) {
                for q in rhs {
                    let Some(region) = intersect(&canon, &q.region) else {
                        continue;
                    };
                    if !self.charge() || p.outcome.len() != q.outcome.len() {
                        return false;
                    }
                    for (&a, &b) in p.outcome.iter().zip(&q.outcome) {
                        if !self.equal_on(pool, a, b, &region) {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    /// Whether the blocks are pairwise disjoint and cover every canonical
    /// buffer: their canonical volumes sum to `Σ_{k ≤ l} 255^k`.
    fn partitions(&self, side: &[Piece]) -> bool {
        if side.len() > MAX_PIECES {
            return false;
        }
        for (i, p) in side.iter().enumerate() {
            if side[i + 1..]
                .iter()
                .any(|q| intersect(&p.region, &q.region).is_some())
            {
                return false;
            }
        }
        let l = self.chars.len();
        let mut total: u128 = 0;
        let mut strings: u128 = 1;
        for _ in 0..=l {
            total = match total.checked_add(strings) {
                Some(t) => t,
                None => return false,
            };
            strings = strings.saturating_mul(255);
        }
        let mut covered: u128 = 0;
        for p in side {
            for canon in canonical_parts(&p.region) {
                let volume = canon
                    .iter()
                    .try_fold(1u128, |v, s| v.checked_mul(u128::from(s.len())));
                match volume.and_then(|v| covered.checked_add(v)) {
                    Some(c) => covered = c,
                    None => return false,
                }
            }
        }
        covered == total
    }

    /// Counts one more region against [`MAX_REGIONS`].
    fn charge(&mut self) -> bool {
        self.regions += 1;
        self.regions <= MAX_REGIONS
    }

    /// Whether `a` and `b` agree at every point of `region`, by
    /// congruence down to single-cell leaves.
    fn equal_on(&mut self, pool: &TermPool, a: TermId, b: TermId, region: &Region) -> bool {
        let a = self.settle(pool, a, region);
        let b = self.settle(pool, b, region);
        if a == b {
            return true;
        }
        if pool.sort(a) != pool.sort(b) {
            return false;
        }
        let (Some(sa), Some(sb)) = (self.support(pool, a), self.support(pool, b)) else {
            return false;
        };
        if (sa | sb).count_ones() <= 1 {
            return self.leaf_equal(pool, a, b, sa | sb, region);
        }
        // Terms whose single-cell leaves are all constant on the region
        // are constant there: compare them at any one point.
        if self.constant_on(pool, a, region) && self.constant_on(pool, b, region) {
            let point = |id: TermId| {
                let i = self.chars.iter().position(|&c| c == id);
                i.and_then(|i| region[i].first()).map_or(0, u64::from)
            };
            return eval(pool, a, &point) == eval(pool, b, &point);
        }
        // A guard over one cell that is not constant there: split the
        // cell's set by it and decide each half.
        for t in [a, b] {
            if let Some(&guard) = ite_guard(pool, t) {
                if let Guard::Split(i, yes) = self.guard_on(pool, guard, region) {
                    let mut region_yes = region.clone();
                    region_yes[i] = yes;
                    let mut region_no = region.clone();
                    region_no[i] = region[i].intersect(&yes.complement());
                    return self.charge()
                        && self.equal_on(pool, a, b, &region_yes)
                        && self.equal_on(pool, a, b, &region_no);
                }
            }
        }
        let (ta, tb) = (pool.term(a), pool.term(b));
        if ta.op != tb.op || ta.args.len() != tb.args.len() {
            return false;
        }
        if ta
            .args
            .iter()
            .zip(&tb.args)
            .all(|(&x, &y)| self.equal_on(pool, x, y, region))
        {
            return true;
        }
        commutes(&ta.op)
            && ta.args.len() == 2
            && self.equal_on(pool, ta.args[0], tb.args[1], region)
            && self.equal_on(pool, ta.args[1], tb.args[0], region)
    }

    /// Whether every maximal single-cell subterm of `t` is constant on
    /// `region`, which makes `t` constant there.
    fn constant_on(&mut self, pool: &TermPool, t: TermId, region: &Region) -> bool {
        let Some(cells) = self.support(pool, t) else {
            return false;
        };
        match cells.count_ones() {
            0 => true,
            1 => {
                let i = cells.trailing_zeros() as usize;
                let values = self.values(pool, t, i);
                let mut bytes = region[i].iter().map(|byte| values[usize::from(byte)]);
                let first = bytes.next();
                bytes.all(|v| Some(v) == first)
            }
            _ => pool
                .term(t)
                .args
                .iter()
                .all(|&x| self.constant_on(pool, x, region)),
        }
    }

    /// Follows if-then-else terms whose guard is constant on `region` to
    /// the branch it selects.
    fn settle(&mut self, pool: &TermPool, mut t: TermId, region: &Region) -> TermId {
        while let Some(&guard) = ite_guard(pool, t) {
            match self.guard_on(pool, guard, region) {
                Guard::Const(true) => t = pool.term(t).args[1],
                Guard::Const(false) => t = pool.term(t).args[2],
                Guard::Split(..) | Guard::Mixed => break,
            }
        }
        t
    }

    /// How the boolean term `guard` behaves on `region`.
    fn guard_on(&mut self, pool: &TermPool, guard: TermId, region: &Region) -> Guard {
        let Some(cells) = self.support(pool, guard) else {
            return Guard::Mixed;
        };
        match cells.count_ones() {
            0 => Guard::Const(eval(pool, guard, &|_| 0) != 0),
            1 => {
                let i = cells.trailing_zeros() as usize;
                let values = self.values(pool, guard, i);
                let yes: ByteSet = region[i]
                    .iter()
                    .filter(|&byte| values[usize::from(byte)] != 0)
                    .collect();
                if yes.is_empty() {
                    Guard::Const(false)
                } else if yes == region[i] {
                    Guard::Const(true)
                } else {
                    Guard::Split(i, yes)
                }
            }
            _ => Guard::Mixed,
        }
    }

    /// Compares two terms over at most one cell (`cells` is its mask) by
    /// evaluating both on every byte of that cell's set.
    fn leaf_equal(
        &mut self,
        pool: &TermPool,
        a: TermId,
        b: TermId,
        cells: u64,
        region: &Region,
    ) -> bool {
        if cells == 0 {
            return eval(pool, a, &|_| 0) == eval(pool, b, &|_| 0);
        }
        let i = cells.trailing_zeros() as usize;
        let (va, vb) = (self.values(pool, a, i), self.values(pool, b, i));
        region[i]
            .iter()
            .all(|byte| va[usize::from(byte)] == vb[usize::from(byte)])
    }

    /// The value of `t`, a term over cell `i` alone, for each of the 256
    /// bytes the cell can hold (memoised).
    fn values(&mut self, pool: &TermPool, t: TermId, i: usize) -> Rc<[u64]> {
        let cell = self.chars[i];
        self.values
            .entry(t)
            .or_insert_with(|| eval_per_value(pool, t, cell).into())
            .clone()
    }

    /// The cells `t` mentions, as a bit mask (memoised); `None` when `t`
    /// mentions a variable that is not a cell.
    fn support(&mut self, pool: &TermPool, t: TermId) -> Option<u64> {
        if let Some(&s) = self.support.get(&t) {
            return s;
        }
        let term = pool.term(t);
        let s = match term.op {
            Op::Var { .. } => self.chars.iter().position(|&c| c == t).map(|i| 1u64 << i),
            _ => term
                .args
                .iter()
                .try_fold(0u64, |acc, &x| self.support(pool, x).map(|s| acc | s)),
        };
        self.support.insert(t, s);
        s
    }
}

/// The guard of an if-then-else term.
fn ite_guard(pool: &TermPool, t: TermId) -> Option<&TermId> {
    let term = pool.term(t);
    (term.op == Op::Ite).then(|| &term.args[0])
}

/// Whether a binary operator is commutative.
fn commutes(op: &Op) -> bool {
    matches!(
        op,
        Op::And | Op::Or | Op::Eq | Op::BvAdd | Op::BvMul | Op::BvAnd | Op::BvOr | Op::BvXor
    )
}

/// The intersection of two regions; `None` when it is empty.
fn intersect(a: &Region, b: &Region) -> Option<Region> {
    let region: Region = a.iter().zip(b).map(|(x, y)| x.intersect(y)).collect();
    (!region.iter().any(ByteSet::is_empty)).then_some(region)
}

/// The canonical parts of a region, one per position `k` of the first
/// NUL (`k = l`: no NUL): bytes before `k` non-NUL, bytes from `k` on NUL.
fn canonical_parts(region: &Region) -> Vec<Region> {
    let nul = ByteSet::single(0);
    (0..=region.len())
        .filter_map(|k| {
            let part: Region = region
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    if i < k {
                        s.intersect(&nul.complement())
                    } else {
                        s.intersect(&nul)
                    }
                })
                .collect();
            (!part.iter().any(ByteSet::is_empty)).then_some(part)
        })
        .collect()
}
