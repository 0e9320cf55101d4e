//! A CDCL SAT solver in the MiniSat lineage.
//!
//! Features: two-watched-literal propagation, VSIDS variable activities with
//! an indexed max-heap, first-UIP conflict analysis with clause learning,
//! phase saving, Luby-sequence restarts, and solving under assumptions.
//!
//! The solver is **incremental**: clauses may be added between (and after)
//! `solve` calls, learned clauses, VSIDS activity and saved phases are
//! retained across queries, and the conflict budget set via
//! [`Solver::set_conflict_limit`] applies to each `solve` call separately.
//! Clause-database reduction is deliberately omitted: the CEGIS sessions
//! that drive the solver issue many small, closely-related queries, and
//! every learned clause stays relevant to the next one.
//!
//! # Data layout
//!
//! The memory layout follows MiniSat (Eén & Sörensson, *An Extensible
//! SAT-solver*, SAT 2003); its search heuristics beyond the ones listed
//! above do not.
//!
//! - **Clause arena.** Every clause, original or learnt, lives in one flat
//!   `Vec<u32>` as `[len, lit0, lit1, …]`. A `ClauseRef` is the offset of
//!   the length word, so a clause is one contiguous run of words and
//!   cloning the solver copies the whole database in one `memcpy`. The
//!   first two literals are the watched ones.
//! - **Literal values.** `vals` holds one `Assign` per literal code,
//!   written for both polarities in `enqueue` and cleared in
//!   `backtrack_to`; the hot paths read a literal's value with one load.
//! - **Watchers.** A watch-list entry is a `Watcher { cref, other }`.
//!   For a binary clause `other` is the clause's other literal, so
//!   propagation passes over a binary clause that `other` satisfies
//!   without reading the arena; for a longer clause it is a sentinel.
//! - **Conflict analysis** walks arena slices by index and builds the
//!   learnt clause in a buffer the solver keeps, so it allocates nothing.
//!
//! # Trajectory contract
//!
//! Synthesis verdicts near a conflict cap depend on the exact search
//! trajectory: the same decisions, the same propagation order, the same
//! learnt clauses with the same literal order, and therefore the same
//! `conflicts`/`propagations`/`learnts`/clause/variable counters. A layout
//! change must keep all of them. In particular:
//!
//! - a watch list is scanned in order and a moved watch leaves it by
//!   `swap_remove`, appending to the new literal's list;
//! - a clause is normalised (falsified watch in slot 1) in the arena
//!   *before* it propagates or conflicts, because `analyze` reads that
//!   order; a long clause is normalised before its first literal is
//!   tested. Skipping the swap when a binary clause is satisfied is
//!   unobservable: the next visit that matters normalises it again;
//! - VSIDS bumps happen in clause-literal order, and the restart, phase
//!   and assumption logic are as above.
//!
//! Behaviour changes — each moves conflict counts — include blocker
//! literals (a stale true blocker skips a clause whose watch this solver
//! would move), learnt-clause minimisation, clause deletion and any
//! heuristic change. Two goldens catch them: `crates/smt/tests/trajectory.rs`
//! pins the counters and models of seeded random CNFs and incremental
//! sequences, and the workspace test `tests/trajectory_corpus.rs` pins the
//! outcome, summary bytes and search/verify solver statistics of a corpus
//! slice under a conflict cap.

use std::fmt;
use std::time::Instant;

use crate::cancel::{CancelToken, FaultInjector, Interrupt};

/// A propositional variable, numbered from 0.
pub type Var = u32;

/// A literal: a variable with a polarity. Encoded as `2*var + sign`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// Creates a literal for `var`, positive when `positive` is true.
    pub fn new(var: Var, positive: bool) -> Lit {
        Lit(var << 1 | u32::from(!positive))
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        self.0 >> 1
    }

    /// Whether the literal is positive.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// Integer code, usable as an array index in `0..2*num_vars`.
    pub fn code(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}",
            if self.is_positive() { "" } else { "~" },
            self.var()
        )
    }
}

/// Result of a SAT query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatResult {
    /// A satisfying assignment was found.
    Sat,
    /// The formula (under the assumptions) is unsatisfiable.
    Unsat,
    /// The conflict limit was reached before an answer.
    Unknown,
}

/// Value of a literal (or a variable's positive literal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Assign {
    False,
    True,
    Unassigned,
}

/// Offset of a clause's length word in the arena.
type ClauseRef = u32;

/// `Watcher::other` of a clause longer than two literals.
const NO_OTHER: Lit = Lit(u32::MAX);

/// A watch-list entry: the clause, and for a binary clause the literal
/// that is not the watched one (`NO_OTHER` otherwise).
#[derive(Debug, Clone, Copy)]
struct Watcher {
    cref: ClauseRef,
    other: Lit,
}

/// Max-heap over variables ordered by VSIDS activity, with position index
/// for O(log n) increase-key.
#[derive(Debug, Default, Clone)]
struct VarHeap {
    heap: Vec<Var>,
    pos: Vec<Option<u32>>,
}

impl VarHeap {
    fn grow_to(&mut self, n: usize) {
        if self.pos.len() < n {
            self.pos.resize(n, None);
        }
    }

    fn contains(&self, v: Var) -> bool {
        self.pos[v as usize].is_some()
    }

    fn push(&mut self, v: Var, act: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.pos[v as usize] = Some(self.heap.len() as u32);
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    fn pop(&mut self, act: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().unwrap();
        self.pos[top as usize] = None;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = Some(0);
            self.sift_down(0, act);
        }
        Some(top)
    }

    fn update(&mut self, v: Var, act: &[f64]) {
        if let Some(i) = self.pos[v as usize] {
            self.sift_up(i as usize, act);
        }
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if act[self.heap[i] as usize] <= act[self.heap[parent] as usize] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && act[self.heap[l] as usize] > act[self.heap[best] as usize] {
                best = l;
            }
            if r < self.heap.len() && act[self.heap[r] as usize] > act[self.heap[best] as usize] {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i] as usize] = Some(i as u32);
        self.pos[self.heap[j] as usize] = Some(j as u32);
    }
}

/// The CDCL solver.
///
/// `Clone` copies the complete solver state — clause database (learnt
/// clauses included), trail, activities, saved phases and counters — so a
/// clone continues exactly where the original stands while the two evolve
/// independently afterwards. Symbolic execution relies on this to give
/// each forked path its own incremental solver seeded with the shared
/// path condition.
#[derive(Debug, Default, Clone)]
pub struct Solver {
    arena: Vec<u32>, // clauses as [len, lit0, lit1, …]; see the module docs
    num_clauses: usize,
    watches: Vec<Vec<Watcher>>, // indexed by Lit::code of the *watched* literal
    vals: Vec<Assign>,          // indexed by Lit::code
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    heap: VarHeap,
    seen: Vec<bool>,
    learnt: Vec<Lit>, // `analyze`'s output buffer, reused across conflicts
    ok: bool,
    conflicts: u64,
    conflict_limit: u64,
    propagations: u64,
    learnts: u64,
    queries: u64,
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
    fault: Option<FaultInjector>,
    interrupt: Option<Interrupt>,
}

/// How many conflicts pass between deadline/cancellation polls. A stride
/// keeps the governor off the hot path: one `Instant::now()` and one atomic
/// load per 128 conflicts is unmeasurable next to clause propagation.
const GOVERNOR_STRIDE: u64 = 128;

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            ok: true,
            var_inc: 1.0,
            conflict_limit: u64::MAX,
            ..Default::default()
        }
    }

    /// Caps the number of conflicts before `solve` returns `Unknown`.
    pub fn set_conflict_limit(&mut self, limit: u64) {
        self.conflict_limit = limit;
    }

    /// Installs a cooperative cancellation token polled during `solve`.
    pub fn set_cancel(&mut self, cancel: Option<CancelToken>) {
        self.cancel = cancel;
    }

    /// Installs a wall-clock deadline checked during `solve`.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Installs a deterministic fault injector; the query on which it
    /// fires returns `Unknown` with [`Interrupt::Injected`].
    pub fn set_fault(&mut self, fault: Option<FaultInjector>) {
        self.fault = fault;
    }

    /// Why the most recent `solve` returned `Unknown` (`None` after
    /// `Sat`/`Unsat`).
    pub fn interrupt(&self) -> Option<Interrupt> {
        self.interrupt
    }

    /// `Unknown` exit: backtrack to the root and record the reason.
    fn give_up(&mut self, why: Interrupt) -> SatResult {
        self.backtrack_to(0);
        self.interrupt = Some(why);
        SatResult::Unknown
    }

    /// Whether the deadline has passed or the token was cancelled.
    fn governor_tripped(&self) -> Option<Interrupt> {
        if let Some(c) = &self.cancel {
            if c.is_cancelled() {
                return Some(Interrupt::Cancelled);
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Some(Interrupt::Deadline);
            }
        }
        None
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.level.len()
    }

    /// Total conflicts encountered across all `solve` calls.
    pub fn num_conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Number of clauses (original + learnt).
    pub fn num_clauses(&self) -> usize {
        self.num_clauses
    }

    /// Total literals propagated across all queries.
    pub fn num_propagations(&self) -> u64 {
        self.propagations
    }

    /// Learnt clauses kept in the database (never reduced away).
    pub fn num_learnts(&self) -> u64 {
        self.learnts
    }

    /// Number of `solve` calls issued so far.
    pub fn num_queries(&self) -> u64 {
        self.queries
    }

    /// Allocates a fresh variable and returns it.
    pub fn new_var(&mut self) -> Var {
        let v = self.level.len() as Var;
        self.vals.push(Assign::Unassigned);
        self.vals.push(Assign::Unassigned);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap.grow_to(self.level.len());
        self.heap.push(v, &self.activity);
        v
    }

    fn value(&self, l: Lit) -> Assign {
        self.vals[l.code()]
    }

    /// Value of a variable in the current (final, after `Sat`) assignment.
    pub fn model_value(&self, v: Var) -> bool {
        self.value(Lit::new(v, true)) == Assign::True
    }

    /// Adds a clause. Returns `false` if the solver became trivially unsat.
    ///
    /// May be called at any point — including after a `Sat` answer, whose
    /// model the call invalidates: the solver first backtracks to decision
    /// level 0 so level-0 simplification below stays sound.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.backtrack_to(0);
        if !self.ok {
            return false;
        }
        // Simplify: sort, dedup, drop false lits, detect tautologies/sat.
        let mut c: Vec<Lit> = lits.to_vec();
        c.sort();
        c.dedup();
        let mut out = Vec::with_capacity(c.len());
        let mut i = 0;
        while i < c.len() {
            let l = c[i];
            if i + 1 < c.len() && c[i + 1] == !l {
                return true; // tautology: l and ~l both present
            }
            match self.value(l) {
                Assign::True => return true, // already satisfied at level 0
                Assign::False => {}          // drop falsified literal
                Assign::Unassigned => out.push(l),
            }
            i += 1;
        }
        match out.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(out[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach(&out);
                true
            }
        }
    }

    /// Appends a clause of at least two literals to the arena and watches
    /// its first two.
    fn attach(&mut self, lits: &[Lit]) -> ClauseRef {
        let cref = self.arena.len() as ClauseRef;
        self.arena.push(lits.len() as u32);
        self.arena.extend(lits.iter().map(|l| l.0));
        self.num_clauses += 1;
        let (other0, other1) = match lits {
            [a, b] => (*b, *a),
            _ => (NO_OTHER, NO_OTHER),
        };
        self.watches[lits[0].code()].push(Watcher {
            cref,
            other: other0,
        });
        self.watches[lits[1].code()].push(Watcher {
            cref,
            other: other1,
        });
        cref
    }

    fn enqueue(&mut self, l: Lit, from: Option<ClauseRef>) {
        debug_assert_eq!(self.value(l), Assign::Unassigned);
        let v = l.var() as usize;
        self.vals[l.code()] = Assign::True;
        self.vals[(!l).code()] = Assign::False;
        self.phase[v] = l.is_positive();
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = from;
        self.trail.push(l);
    }

    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.propagations += 1;
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            'clauses: while i < ws.len() {
                let Watcher { cref, other } = ws[i];
                // A binary clause is satisfied by its other literal alone;
                // skipping its normalisation then is unobservable.
                if other != NO_OTHER && self.value(other) == Assign::True {
                    i += 1;
                    continue;
                }
                let c = cref as usize;
                // Normalise so slot 1 is the falsified watch.
                if self.arena[c + 1] == false_lit.0 {
                    self.arena.swap(c + 1, c + 2);
                }
                debug_assert_eq!(self.arena[c + 2], false_lit.0);
                let first = Lit(self.arena[c + 1]);
                let first_value = self.value(first);
                if first_value == Assign::True {
                    i += 1;
                    continue;
                }
                // Search for a new literal to watch.
                let end = c + 1 + self.arena[c] as usize;
                for k in c + 3..end {
                    let lk = Lit(self.arena[k]);
                    if self.value(lk) != Assign::False {
                        self.arena.swap(c + 2, k);
                        self.watches[lk.code()].push(Watcher {
                            cref,
                            other: NO_OTHER,
                        });
                        ws.swap_remove(i);
                        continue 'clauses;
                    }
                }
                // Clause is unit or conflicting.
                if first_value == Assign::False {
                    self.watches[false_lit.code()] = ws;
                    self.qhead = self.trail.len();
                    return Some(cref);
                }
                self.enqueue(first, Some(cref));
                i += 1;
            }
            self.watches[false_lit.code()] = ws;
        }
        None
    }

    fn bump(&mut self, v: Var) {
        self.activity[v as usize] += self.var_inc;
        if self.activity[v as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.update(v, &self.activity);
    }

    /// First-UIP conflict analysis. Leaves the learnt clause in
    /// `self.learnt` (asserting literal first) and returns the backtrack
    /// level.
    fn analyze(&mut self, mut confl: ClauseRef) -> u32 {
        self.learnt.clear();
        self.learnt.push(Lit::new(0, true)); // placeholder for UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let cur_level = self.trail_lim.len() as u32;

        loop {
            let c = confl as usize;
            let start = c + 1 + usize::from(p.is_some());
            for k in start..c + 1 + self.arena[c] as usize {
                let q = Lit(self.arena[k]);
                let v = q.var() as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump(q.var());
                    if self.level[v] >= cur_level {
                        counter += 1;
                    } else {
                        self.learnt.push(q);
                    }
                }
            }
            // Pick next literal on the trail to resolve.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var() as usize] {
                    break;
                }
            }
            let lit = self.trail[index];
            p = Some(lit);
            self.seen[lit.var() as usize] = false;
            counter -= 1;
            if counter == 0 {
                break;
            }
            confl = self.reason[lit.var() as usize].expect("non-UIP literal must have a reason");
        }
        self.learnt[0] = !p.unwrap();

        // Compute backtrack level: second-highest level in the clause.
        let learnt = &mut self.learnt;
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var() as usize] > self.level[learnt[max_i].var() as usize] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var() as usize]
        };
        for &l in learnt.iter() {
            self.seen[l.var() as usize] = false;
        }
        bt
    }

    fn backtrack_to(&mut self, level: u32) {
        if (self.trail_lim.len() as u32) <= level {
            return;
        }
        let bound = self.trail_lim[level as usize];
        while self.trail.len() > bound {
            let l = self.trail.pop().unwrap();
            let v = l.var() as usize;
            self.vals[l.code()] = Assign::Unassigned;
            self.vals[(!l).code()] = Assign::Unassigned;
            self.reason[v] = None;
            self.heap.push(l.var(), &self.activity);
        }
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn decide(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap.pop(&self.activity) {
            if self.value(Lit::new(v, true)) == Assign::Unassigned {
                return Some(Lit::new(v, self.phase[v as usize]));
            }
        }
        None
    }

    /// Solves under the given assumption literals.
    ///
    /// Assumptions are tried as forced decisions at the bottom of the tree;
    /// if an assumption conflicts, the result is `Unsat` (no core extraction).
    pub fn solve(&mut self, assumptions: &[Lit]) -> SatResult {
        self.queries += 1;
        self.interrupt = None;
        if let Some(f) = &self.fault {
            if f.fires() {
                return self.give_up(Interrupt::Injected);
            }
        }
        if !self.ok {
            return SatResult::Unsat;
        }
        if let Some(why) = self.governor_tripped() {
            return self.give_up(why);
        }
        self.backtrack_to(0);
        if self.propagate().is_some() {
            self.ok = false;
            return SatResult::Unsat;
        }

        let mut restart_idx = 0u64;
        let mut conflicts_since_restart = 0u64;
        let mut restart_budget = 32 * luby(restart_idx);
        let start_conflicts = self.conflicts;

        loop {
            if let Some(confl) = self.propagate() {
                self.conflicts += 1;
                conflicts_since_restart += 1;
                if self.trail_lim.is_empty() {
                    self.ok = false;
                    return SatResult::Unsat;
                }
                if self.conflicts - start_conflicts >= self.conflict_limit {
                    return self.give_up(Interrupt::ConflictLimit);
                }
                if self.conflicts.is_multiple_of(GOVERNOR_STRIDE) {
                    if let Some(why) = self.governor_tripped() {
                        return self.give_up(why);
                    }
                }
                let bt_level = self.analyze(confl);
                self.learnts += 1;
                // Never backtrack past assumptions we still rely on.
                self.backtrack_to(bt_level);
                let asserting = self.learnt[0];
                if self.learnt.len() == 1 {
                    self.backtrack_to(0);
                    if self.value(asserting) == Assign::False {
                        self.ok = false;
                        return SatResult::Unsat;
                    }
                    if self.value(asserting) == Assign::Unassigned {
                        self.enqueue(asserting, None);
                    }
                } else {
                    let learnt = std::mem::take(&mut self.learnt);
                    let cref = self.attach(&learnt);
                    self.learnt = learnt;
                    self.enqueue(asserting, Some(cref));
                }
                self.var_inc /= 0.95;
            } else {
                // Restart?
                if conflicts_since_restart >= restart_budget {
                    restart_idx += 1;
                    conflicts_since_restart = 0;
                    restart_budget = 32 * luby(restart_idx);
                    self.backtrack_to(0);
                }
                // Enforce assumptions as pseudo-decisions first.
                let depth = self.trail_lim.len();
                if depth < assumptions.len() {
                    let a = assumptions[depth];
                    match self.value(a) {
                        Assign::True => {
                            // Open an (empty) level so indexing stays aligned.
                            self.trail_lim.push(self.trail.len());
                        }
                        Assign::False => {
                            self.backtrack_to(0);
                            return SatResult::Unsat;
                        }
                        Assign::Unassigned => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(a, None);
                        }
                    }
                    continue;
                }
                match self.decide() {
                    None => return SatResult::Sat,
                    Some(l) => {
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(l, None);
                    }
                }
            }
        }
    }
}

/// The Luby restart sequence (0-indexed): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 …
fn luby(i: u64) -> u64 {
    let mut i = i + 1;
    loop {
        let k = 64 - i.leading_zeros() as u64; // bit length of i
        if i == (1u64 << k) - 1 {
            return 1u64 << (k - 1);
        }
        i -= (1u64 << (k - 1)) - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn lit(v: Var, pos: bool) -> Lit {
        Lit::new(v, pos)
    }

    #[test]
    fn lit_encoding() {
        let l = lit(3, true);
        assert_eq!(l.var(), 3);
        assert!(l.is_positive());
        assert_eq!((!l).var(), 3);
        assert!(!(!l).is_positive());
    }

    #[test]
    fn luby_prefix() {
        let expect = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(luby(i as u64), e, "luby({i})");
        }
    }

    #[test]
    fn simple_sat() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[lit(a, true), lit(b, true)]);
        s.add_clause(&[lit(a, false), lit(b, true)]);
        assert_eq!(s.solve(&[]), SatResult::Sat);
        assert!(s.model_value(b));
    }

    #[test]
    fn simple_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[lit(a, true)]);
        s.add_clause(&[lit(a, false)]);
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn unsat_via_resolution() {
        // (a|b) (a|~b) (~a|b) (~a|~b) is unsat.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        for (pa, pb) in [(true, true), (true, false), (false, true), (false, false)] {
            s.add_clause(&[lit(a, pa), lit(b, pb)]);
        }
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn assumptions_flip_result() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[lit(a, false), lit(b, true)]); // a -> b
        assert_eq!(s.solve(&[lit(a, true), lit(b, false)]), SatResult::Unsat);
        assert_eq!(s.solve(&[lit(a, true), lit(b, true)]), SatResult::Sat);
        assert_eq!(s.solve(&[]), SatResult::Sat);
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // p[i][j]: pigeon i in hole j, 3 pigeons, 2 holes.
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..3)
            .map(|_| (0..2).map(|_| Lit::new(s.new_var(), true)).collect())
            .collect();
        for row in &p {
            s.add_clause(row);
        }
        for (i1, r1) in p.iter().enumerate() {
            for r2 in &p[i1 + 1..] {
                for (&l1, &l2) in r1.iter().zip(r2) {
                    s.add_clause(&[!l1, !l2]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn chain_of_implications() {
        let mut s = Solver::new();
        let n = 50;
        let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
        for w in vars.windows(2) {
            s.add_clause(&[lit(w[0], false), lit(w[1], true)]);
        }
        s.add_clause(&[lit(vars[0], true)]);
        assert_eq!(s.solve(&[]), SatResult::Sat);
        for &v in &vars {
            assert!(s.model_value(v));
        }
    }

    #[test]
    fn conflict_limit_reports_unknown() {
        // A hard-ish pigeonhole instance with a tiny conflict budget.
        let mut s = Solver::new();
        let n = 6; // pigeons; n-1 holes
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..n - 1).map(|_| Lit::new(s.new_var(), true)).collect())
            .collect();
        for row in &p {
            s.add_clause(row);
        }
        for (i1, r1) in p.iter().enumerate() {
            for r2 in &p[i1 + 1..] {
                for (&l1, &l2) in r1.iter().zip(r2) {
                    s.add_clause(&[!l1, !l2]);
                }
            }
        }
        s.set_conflict_limit(5);
        assert_eq!(s.solve(&[]), SatResult::Unknown);
    }

    /// Uniform random 3-SAT over `n` variables at clause ratio 4.26.
    fn random_3sat(seed: u64, n: u32) -> Solver {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = Solver::new();
        for _ in 0..n {
            s.new_var();
        }
        for _ in 0..(f64::from(n) * 4.26) as usize {
            let c: Vec<Lit> = (0..3)
                .map(|_| lit(rng.random_range(0..n), rng.random::<bool>()))
                .collect();
            s.add_clause(&c);
        }
        s
    }

    /// Every public counter plus the model bits.
    fn snapshot(s: &Solver) -> (u64, u64, u64, u64, usize, usize, Vec<bool>) {
        (
            s.num_conflicts(),
            s.num_propagations(),
            s.num_learnts(),
            s.num_queries(),
            s.num_clauses(),
            s.num_vars(),
            (0..s.num_vars() as Var).map(|v| s.model_value(v)).collect(),
        )
    }

    #[test]
    fn clone_mid_life_continues_like_the_original() {
        // Two solvers built the same way, cut off after learnts and a
        // restart (the first comes after 32 conflicts); one is cloned.
        let build = || {
            let mut s = random_3sat(2, 150);
            s.set_conflict_limit(100);
            assert_eq!(s.solve(&[]), SatResult::Unknown);
            s.set_conflict_limit(u64::MAX);
            s
        };
        let mut original = build();
        let mut twin = build();
        assert!(original.num_learnts() > 0 && original.num_conflicts() > 32);
        let mut clone = original.clone();
        assert_eq!(snapshot(&clone), snapshot(&original));

        let queries: [&[Lit]; 3] = [&[], &[lit(5, true), lit(77, false)], &[]];
        let mut last = SatResult::Unknown;
        for q in queries {
            let r = original.solve(q);
            last = r;
            assert_eq!(clone.solve(q), r);
            assert_eq!(twin.solve(q), r);
            assert_eq!(snapshot(&clone), snapshot(&original));
            assert_eq!(snapshot(&twin), snapshot(&original));
        }
        assert_eq!(last, SatResult::Sat, "the last model is blocked below");

        // A clause added to the clone (blocking its model, over a fresh
        // variable) leaves the original exactly where its twin stands.
        let v = clone.new_var();
        let mut block: Vec<Lit> = (0..150).map(|u| lit(u, !clone.model_value(u))).collect();
        block.push(lit(v, true));
        assert!(clone.add_clause(&block));
        assert_eq!(clone.num_clauses(), original.num_clauses() + 1);
        assert_eq!(original.solve(&[]), twin.solve(&[]));
        assert_eq!(snapshot(&original), snapshot(&twin));
        assert_eq!(original.num_vars(), 150);
    }
}
