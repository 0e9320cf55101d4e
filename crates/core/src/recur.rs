//! The recurrence-solving synthesis lane for stateful loops.
//!
//! The 13-gadget vocabulary only expresses loops that *return a pointer
//! into their input*. Everything else — `strlen`-style counters, checksum
//! and hash folds, loops that rewrite the string in place — dead-ends as
//! [`LoopOutcome::NotMemoryless`](crate::budget::LoopOutcome). This module
//! is the second lane behind that fall-through: it extracts the loop's
//! per-iteration *recurrence* from the IR, solves it to a closed form, and
//! discharges the candidate through the same bounded machinery that
//! verifies gadget summaries (symbolic execution at string length ≤
//! `max_ex_size` plus a canonical SAT check), so the small-model theorem
//! remains the sole soundness root. Candidates the verifier cannot confirm
//! fall back to `NotMemoryless` exactly as before.
//!
//! Three closed-form families are recognised:
//!
//! * [`ClosedForm::Fold`] — an integer accumulator updated once per
//!   consumed byte as `x ← mul·x + t[b]` (counters, sums, digit parsers,
//!   polynomial hashes, geometric folds — the algebraic-recurrence shape).
//! * [`ClosedForm::Scan`] — `return s + n` where `n` is the length of the
//!   maximal prefix over a continue set (pointer scans whose sets are too
//!   big for gadget arguments, e.g. `isalnum`).
//! * [`ClosedForm::Map`] — an in-place byte map over that prefix (the
//!   first output-*building* family: case conversion, charset scrubbing),
//!   returning either the start or the end of the prefix.
//!
//! Extraction is a per-byte abstract interpretation of one loop iteration:
//! for every byte value `b` the body is executed with the accumulator held
//! abstract (every intermediate value is affine, `k·x + m`, at the
//! accumulator's width) and the byte concrete, which decides both the
//! continue set and the per-byte update. The extractor is deliberately
//! conservative — any shape it cannot prove it rejects — and is *not*
//! trusted: every candidate is verified before it becomes a summary.

use crate::cegis::{synthesize, SynthStats, SynthesisConfig};
use std::collections::HashSet;
use std::fmt;
use std::time::Instant;
use strsum_gadgets::Program;
use strsum_ir::interp::{norm, Interp, Memory, RtVal};
use strsum_ir::loops::LoopInfo;
use strsum_ir::{
    BinOp, BlockId, Builtin, CastKind, CmpOp, Func, Instr, InstrId, Operand, Terminator, Ty,
};
use strsum_smt::{CheckResult, Session, SessionStats, TermId, TermPool};
use strsum_symex::engine::encode_outcome;
use strsum_symex::{Engine, SymObject, SymOutcome, SymVal};

/// Leading byte of every encoded closed form. Not a gadget opcode
/// (`MCRBPNZXIESVF`), so the two encodings share one opaque-bytes channel
/// — cache, store, wire, `summaries.tsv` — without ambiguity.
pub const CLOSED_FORM_TAG: u8 = b'#';

/// The kind of a summary, as carried on the wire and in audit reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SummaryKind {
    /// A gadget program over the paper's 13-opcode vocabulary.
    Gadget,
    /// An integer-accumulator or pointer-scan closed form.
    Accumulator,
    /// An in-place string-building closed form.
    Builder,
}

impl SummaryKind {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            SummaryKind::Gadget => "gadget",
            SummaryKind::Accumulator => "accumulator",
            SummaryKind::Builder => "builder",
        }
    }

    /// Parses a wire label.
    pub fn parse(s: &str) -> Option<SummaryKind> {
        match s {
            "gadget" => Some(SummaryKind::Gadget),
            "accumulator" => Some(SummaryKind::Accumulator),
            "builder" => Some(SummaryKind::Builder),
            _ => None,
        }
    }
}

impl fmt::Display for SummaryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A verified closed form of a stateful loop.
///
/// All three families are parameterised by a *continue set* `cont` (sorted,
/// NUL-free): the loop consumes the maximal prefix of its input whose bytes
/// all lie in `cont`, advancing one byte per iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClosedForm {
    /// Integer accumulator: `x ← mul·x + table[b]` per consumed byte,
    /// starting from `init`, wrapping at `width` bits; the loop returns
    /// the final accumulator.
    Fold {
        /// Bytes that keep the loop running (sorted, no NUL).
        cont: Vec<u8>,
        /// Initial accumulator value (normalised at `width`).
        init: i64,
        /// Multiplicative coefficient of the recurrence.
        mul: i64,
        /// Per-byte additive term, indexed by byte value; entries outside
        /// `cont` are normalised to 0.
        table: Vec<i64>,
        /// Accumulator width in bits (32 or 64).
        width: u8,
    },
    /// Pointer scan: returns `s + n` where `n` is the `cont`-prefix length.
    Scan {
        /// Bytes that keep the loop running (sorted, no NUL).
        cont: Vec<u8>,
    },
    /// In-place byte map over the `cont`-prefix: byte `b` is rewritten to
    /// `table[b]`; entries outside `cont` are normalised to the identity.
    Map {
        /// Bytes that keep the loop running (sorted, no NUL).
        cont: Vec<u8>,
        /// Replacement byte per byte value.
        table: Vec<u8>,
        /// Whether the loop returns `s + n` (true) or `s` (false).
        ret_end: bool,
    },
}

/// Concrete result of evaluating a [`ClosedForm`] on one input string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CfValue {
    /// Final accumulator value (sign-extended to 64 bits at fold width).
    Int(i64),
    /// Returned offset into the input.
    Ptr(usize),
    /// Rewritten buffer (without the terminating NUL) plus returned offset.
    Mem {
        /// The buffer contents after the loop.
        bytes: Vec<u8>,
        /// Returned offset into the input.
        ret: usize,
    },
}

impl ClosedForm {
    /// The summary kind this form belongs to.
    pub fn kind(&self) -> SummaryKind {
        match self {
            ClosedForm::Fold { .. } | ClosedForm::Scan { .. } => SummaryKind::Accumulator,
            ClosedForm::Map { .. } => SummaryKind::Builder,
        }
    }

    /// The continue set.
    pub fn cont(&self) -> &[u8] {
        match self {
            ClosedForm::Fold { cont, .. }
            | ClosedForm::Scan { cont }
            | ClosedForm::Map { cont, .. } => cont,
        }
    }

    /// Length of the maximal `cont`-prefix of `s` (an embedded NUL always
    /// stops the scan because `cont` is NUL-free).
    pub fn prefix_len(&self, s: &[u8]) -> usize {
        let cont = self.cont();
        s.iter()
            .take_while(|b| cont.binary_search(b).is_ok())
            .count()
    }

    /// Evaluates the closed form on `s` (the logical C string contents;
    /// the terminating NUL is implicit).
    pub fn eval(&self, s: &[u8]) -> CfValue {
        let n = self.prefix_len(s);
        match self {
            ClosedForm::Fold {
                init,
                mul,
                table,
                width,
                ..
            } => {
                let ty = if *width == 64 { Ty::I64 } else { Ty::I32 };
                let mut x = *init;
                for &b in &s[..n] {
                    x = norm(mul.wrapping_mul(x).wrapping_add(table[b as usize]), ty);
                }
                CfValue::Int(x)
            }
            ClosedForm::Scan { .. } => CfValue::Ptr(n),
            ClosedForm::Map { table, ret_end, .. } => {
                let mut bytes = s.to_vec();
                for b in &mut bytes[..n] {
                    *b = table[*b as usize];
                }
                CfValue::Mem {
                    bytes,
                    ret: if *ret_end { n } else { 0 },
                }
            }
        }
    }

    /// Encodes the form as tagged bytes (see [`CLOSED_FORM_TAG`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![CLOSED_FORM_TAG];
        let push_cont = |out: &mut Vec<u8>, cont: &[u8]| {
            out.extend_from_slice(&(cont.len() as u16).to_le_bytes());
            out.extend_from_slice(cont);
        };
        match self {
            ClosedForm::Fold {
                cont,
                init,
                mul,
                table,
                width,
            } => {
                out.push(b'f');
                out.push(*width);
                out.extend_from_slice(&mul.to_le_bytes());
                out.extend_from_slice(&init.to_le_bytes());
                push_cont(&mut out, cont);
                for &b in cont {
                    out.extend_from_slice(&table[b as usize].to_le_bytes());
                }
            }
            ClosedForm::Scan { cont } => {
                out.push(b's');
                push_cont(&mut out, cont);
            }
            ClosedForm::Map {
                cont,
                table,
                ret_end,
            } => {
                out.push(b'm');
                out.push(u8::from(*ret_end));
                push_cont(&mut out, cont);
                out.extend(cont.iter().map(|&b| table[b as usize]));
            }
        }
        out
    }

    /// Decodes tagged bytes produced by [`ClosedForm::encode`].
    ///
    /// # Errors
    ///
    /// Returns a message on any malformed encoding: wrong tag, truncated
    /// payload, unsorted or NUL-containing continue set, out-of-width
    /// coefficients, trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<ClosedForm, String> {
        let mut r = Reader::new(bytes);
        if r.u8()? != CLOSED_FORM_TAG {
            return Err("missing closed-form tag".to_string());
        }
        let kind = r.u8()?;
        let form = match kind {
            b'f' => {
                let width = r.u8()?;
                if width != 32 && width != 64 {
                    return Err(format!("bad fold width {width}"));
                }
                let ty = if width == 64 { Ty::I64 } else { Ty::I32 };
                let mul = r.i64()?;
                let init = r.i64()?;
                let cont = r.cont()?;
                let mut table = vec![0i64; 256];
                for &b in &cont {
                    table[b as usize] = r.i64()?;
                }
                for &v in std::iter::once(&mul).chain(std::iter::once(&init)) {
                    if norm(v, ty) != v {
                        return Err(format!("coefficient {v} not normalised at {width} bits"));
                    }
                }
                if cont
                    .iter()
                    .any(|&b| norm(table[b as usize], ty) != table[b as usize])
                {
                    return Err("table entry not normalised".to_string());
                }
                ClosedForm::Fold {
                    cont,
                    init,
                    mul,
                    table,
                    width,
                }
            }
            b's' => ClosedForm::Scan { cont: r.cont()? },
            b'm' => {
                let ret_end = match r.u8()? {
                    0 => false,
                    1 => true,
                    v => return Err(format!("bad ret_end byte {v}")),
                };
                let cont = r.cont()?;
                let mut table: Vec<u8> = (0..=255).collect();
                for &b in &cont {
                    table[b as usize] = r.u8()?;
                }
                ClosedForm::Map {
                    cont,
                    table,
                    ret_end,
                }
            }
            k => return Err(format!("unknown closed-form kind byte {k:#04x}")),
        };
        r.finish()?;
        Ok(form)
    }
}

impl fmt::Display for ClosedForm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClosedForm::Fold {
                cont,
                init,
                mul,
                width,
                ..
            } => write!(
                f,
                "fold(x <- {mul}*x + t[c], init {init}, i{width}, |cont|={})",
                cont.len()
            ),
            ClosedForm::Scan { cont } => write!(f, "scan(s + n, |cont|={})", cont.len()),
            ClosedForm::Map { cont, ret_end, .. } => write!(
                f,
                "map(in-place, ret {}, |cont|={})",
                if *ret_end { "s+n" } else { "s" },
                cont.len()
            ),
        }
    }
}

/// Little-endian byte reader used by [`ClosedForm::decode`].
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.pos + n > self.bytes.len() {
            return Err("truncated closed-form encoding".to_string());
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn cont(&mut self) -> Result<Vec<u8>, String> {
        let len = u16::from_le_bytes(self.take(2)?.try_into().unwrap()) as usize;
        let cont = self.take(len)?.to_vec();
        if cont.is_empty() {
            return Err("empty continue set".to_string());
        }
        if cont.contains(&0) {
            return Err("NUL in continue set".to_string());
        }
        if !cont.windows(2).all(|w| w[0] < w[1]) {
            return Err("continue set not sorted".to_string());
        }
        Ok(cont)
    }

    fn finish(&self) -> Result<(), String> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err("trailing bytes after closed form".to_string())
        }
    }
}

/// A loop summary of any kind: the paper's gadget programs, or a
/// closed form from the recurrence lane.
///
/// Summaries travel as opaque bytes through the cache, the on-disk store,
/// `summaries.tsv` and the wire; [`Summary::decode`] dispatches on the
/// leading byte ([`CLOSED_FORM_TAG`] vs. a gadget opcode), so every
/// existing channel carries both kinds unchanged.
#[derive(Debug, Clone, PartialEq)]
pub enum Summary {
    /// A gadget program (the memoryless fragment).
    Gadget(Program),
    /// An integer-accumulator or pointer-scan closed form.
    Accumulator(ClosedForm),
    /// An in-place string-building closed form.
    Builder(ClosedForm),
}

impl Summary {
    /// Wraps a closed form in the matching summary kind.
    pub fn from_closed_form(cf: ClosedForm) -> Summary {
        match cf.kind() {
            SummaryKind::Builder => Summary::Builder(cf),
            _ => Summary::Accumulator(cf),
        }
    }

    /// The summary's kind.
    pub fn kind(&self) -> SummaryKind {
        match self {
            Summary::Gadget(_) => SummaryKind::Gadget,
            Summary::Accumulator(_) => SummaryKind::Accumulator,
            Summary::Builder(_) => SummaryKind::Builder,
        }
    }

    /// The gadget program, when this is a gadget summary.
    pub fn program(&self) -> Option<&Program> {
        match self {
            Summary::Gadget(p) => Some(p),
            _ => None,
        }
    }

    /// The closed form, when this is an accumulator/builder summary.
    pub fn closed_form(&self) -> Option<&ClosedForm> {
        match self {
            Summary::Gadget(_) => None,
            Summary::Accumulator(cf) | Summary::Builder(cf) => Some(cf),
        }
    }

    /// Encoded bytes (decodable by [`Summary::decode`]).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Summary::Gadget(p) => p.encode(),
            Summary::Accumulator(cf) | Summary::Builder(cf) => cf.encode(),
        }
    }

    /// Decodes summary bytes of either kind.
    ///
    /// # Errors
    ///
    /// Returns a message when the bytes parse as neither a closed form
    /// nor a gadget program.
    pub fn decode(bytes: &[u8]) -> Result<Summary, String> {
        if bytes.first() == Some(&CLOSED_FORM_TAG) {
            return ClosedForm::decode(bytes).map(Summary::from_closed_form);
        }
        Program::decode(bytes)
            .map(Summary::Gadget)
            .map_err(|e| format!("undecodable summary: {e}"))
    }

    /// One-line human description (for traces and audit output).
    pub fn describe(&self) -> String {
        match self {
            Summary::Gadget(p) => p.to_c("s"),
            Summary::Accumulator(cf) | Summary::Builder(cf) => cf.to_string(),
        }
    }
}

// ---------------------------------------------------------------------------
// Extraction: per-byte abstract interpretation of one iteration.
// ---------------------------------------------------------------------------

/// Abstract value during one-iteration emulation: every integer is either
/// concrete or affine in the accumulator; every pointer is a known offset
/// from the iteration's scan position.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Abs {
    /// Concrete integer, normalised at its producing type.
    Int(i64),
    /// `k·acc + m` at the accumulator's width.
    Acc { k: i64, m: i64 },
    /// The scan pointer at `position + offset`.
    Ptr(i64),
    /// The (opaque) start-of-string parameter.
    Start,
    /// The null pointer constant.
    Nul,
}

/// The loop's structural skeleton, resolved once before the 256 walks.
struct Shape<'a> {
    func: &'a Func,
    header: BlockId,
    blocks: HashSet<BlockId>,
    ptr_phi: InstrId,
    acc_phi: Option<InstrId>,
    acc_ty: Ty,
    acc_init: i64,
    /// Header phis with no uses inside the loop (short-circuit temporaries
    /// cfront carries around the back edge); ignored during the walk.
    dead_phis: HashSet<InstrId>,
}

/// How one emulated iteration ended.
enum IterEnd {
    /// Took a back edge; the byte is in the continue set.
    Latch,
    /// Left the loop through edge `from → to`.
    Exit { from: BlockId, to: BlockId },
}

/// Per-byte facts recorded by a completed walk.
struct IterFacts {
    end: IterEnd,
    /// `(k, m)` of the accumulator update committed on the back edge.
    acc_step: Option<(i64, i64)>,
    /// Final byte at the scan position (== the input byte unless stored).
    cell: u8,
    /// Whether the iteration stored to the scan position.
    stored: bool,
}

/// What the loop returns, resolved across every exit edge.
#[derive(Debug, Clone, Copy, PartialEq)]
enum RetSpec {
    /// The accumulator phi.
    Acc,
    /// The scan pointer phi (end of the consumed prefix).
    End,
    /// The original parameter (start of the string).
    Start,
}

const MAX_BLOCKS_PER_ITER: usize = 128;

/// Extracts a closed-form candidate from `func`, or explains why the loop
/// is outside the lane's fragment.
///
/// The result is a *candidate only* — callers must discharge it through
/// [`verify_closed_form`] before treating it as a summary.
///
/// # Errors
///
/// Returns a diagnostic for every rejected shape (nested loops, non-unit
/// pointer advance, accumulator-dependent control flow, effects before an
/// exit, NUL in the continue set, …).
pub fn extract(func: &Func) -> Result<ClosedForm, String> {
    let shape = loop_shape(func)?;
    let mut cont: Vec<u8> = Vec::new();
    let mut steps = [(0i64, 0i64); 256];
    let mut map_table: Vec<u8> = (0..=255).collect();
    let mut any_store = false;
    let mut exits: Vec<(BlockId, BlockId)> = Vec::new();
    for b in 0..=255u8 {
        let facts = walk_iteration(&shape, b)?;
        match facts.end {
            IterEnd::Latch => {
                if b == 0 {
                    return Err("loop runs past the terminating NUL".to_string());
                }
                cont.push(b);
                steps[b as usize] = facts.acc_step.unwrap_or((1, 0));
                map_table[b as usize] = facts.cell;
                any_store |= facts.stored;
            }
            IterEnd::Exit { from, to } => {
                if !exits.contains(&(from, to)) {
                    exits.push((from, to));
                }
            }
        }
    }
    if cont.is_empty() {
        return Err("loop body never taken".to_string());
    }
    let mut spec = None;
    for &(from, to) in &exits {
        let s = resolve_exit(&shape, from, to)?;
        if *spec.get_or_insert(s) != s {
            return Err("exit paths return different values".to_string());
        }
    }
    let spec = spec.ok_or("loop has no exit")?;
    match spec {
        RetSpec::Acc => {
            let _ = shape.acc_phi.ok_or("returned accumulator has no phi")?;
            if any_store {
                return Err("accumulator loop also writes memory".to_string());
            }
            let width = shape.acc_ty.bits() as u8;
            if func.ret_ty != Some(shape.acc_ty) {
                return Err("return width differs from accumulator width".to_string());
            }
            let mul = steps[cont[0] as usize].0;
            if cont.iter().any(|&b| steps[b as usize].0 != mul) {
                return Err("multiplicative coefficient varies across bytes".to_string());
            }
            let mut table = vec![0i64; 256];
            for &b in &cont {
                table[b as usize] = steps[b as usize].1;
            }
            Ok(ClosedForm::Fold {
                cont,
                init: shape.acc_init,
                mul,
                table,
                width,
            })
        }
        RetSpec::End => {
            if func.ret_ty != Some(Ty::Ptr) {
                return Err("pointer return from non-pointer function".to_string());
            }
            if any_store {
                Ok(ClosedForm::Map {
                    cont,
                    table: map_table,
                    ret_end: true,
                })
            } else {
                Ok(ClosedForm::Scan { cont })
            }
        }
        RetSpec::Start => {
            if func.ret_ty != Some(Ty::Ptr) {
                return Err("pointer return from non-pointer function".to_string());
            }
            Ok(ClosedForm::Map {
                cont,
                table: map_table,
                ret_end: false,
            })
        }
    }
}

/// Resolves the single-top-level-loop skeleton: header phis, their entry
/// incomings, the accumulator's initial value.
fn loop_shape(func: &Func) -> Result<Shape<'_>, String> {
    if func.params.len() != 1 || func.params[0].1 != Ty::Ptr {
        return Err("not a single-string-parameter loop".to_string());
    }
    let li = LoopInfo::new(func);
    if li.count() != 1 {
        return Err(format!(
            "{} loops (the lane handles exactly one)",
            li.count()
        ));
    }
    if li.has_nested_loops() {
        return Err("nested loops".to_string());
    }
    let lp = &li.loops[0];
    let header = lp.header;
    let blocks = lp.blocks.clone();
    // Uses of each value inside the loop, to spot dead header phis
    // (cfront's short-circuit temporaries cycle through the header but
    // are recomputed every iteration and never read).
    let mut used_in_loop: HashSet<InstrId> = HashSet::new();
    for &bid in &blocks {
        let block = func.block(bid);
        for &iid in &block.instrs {
            for op in func.instr(iid).operands() {
                if let Operand::Value(v) = op {
                    if v != iid {
                        used_in_loop.insert(v);
                    }
                }
            }
        }
        if let Terminator::CondBr {
            cond: Operand::Value(v),
            ..
        } = &block.term
        {
            used_in_loop.insert(*v);
        }
    }
    let mut ptr_phi = None;
    let mut acc_phi = None;
    let mut acc_ty = Ty::I32;
    let mut acc_init = 0i64;
    let mut dead_phis = HashSet::new();
    for &iid in &func.block(header).instrs {
        let Instr::Phi { incomings, ty } = func.instr(iid) else {
            break; // phis lead the block (validated by Func)
        };
        let entry: Vec<Operand> = incomings
            .iter()
            .filter(|(bb, _)| !blocks.contains(bb))
            .map(|(_, op)| *op)
            .collect();
        if entry.len() != 1 {
            return Err("header phi without a unique entry incoming".to_string());
        }
        match ty {
            Ty::Ptr => {
                if ptr_phi.is_some() {
                    return Err("multiple scan-pointer phis".to_string());
                }
                if entry[0] != Operand::Param(0) {
                    return Err("scan pointer does not start at the input".to_string());
                }
                ptr_phi = Some(iid);
            }
            _ if !used_in_loop.contains(&iid) => {
                // Dead in the loop: carried around the back edge but never
                // read, so it cannot influence anything observable. (If an
                // exit path returns it, resolution rejects the loop there.)
                dead_phis.insert(iid);
            }
            Ty::I32 | Ty::I64 => {
                if acc_phi.is_some() {
                    return Err("multiple accumulator phis".to_string());
                }
                let Operand::Const(c, _) = entry[0] else {
                    return Err("non-constant accumulator initialiser".to_string());
                };
                acc_phi = Some(iid);
                acc_ty = *ty;
                acc_init = norm(c, *ty);
            }
            _ => return Err("unsupported header phi type".to_string()),
        }
    }
    let ptr_phi = ptr_phi.ok_or("no scan-pointer phi in the loop header")?;
    Ok(Shape {
        func,
        header,
        blocks,
        ptr_phi,
        acc_phi,
        acc_ty,
        acc_init,
        dead_phis,
    })
}

/// Emulates one iteration of the loop on byte `b`, with the accumulator
/// abstract and everything else concrete.
fn walk_iteration(shape: &Shape<'_>, b: u8) -> Result<IterFacts, String> {
    let func = shape.func;
    let mut vals: Vec<Option<Abs>> = vec![None; func.instrs.len()];
    let mut cell: i64 = i64::from(b);
    let mut stored = false;
    let mut cur = shape.header;
    let mut prev: Option<BlockId> = None;
    let mut walked = 0usize;
    loop {
        walked += 1;
        if walked > MAX_BLOCKS_PER_ITER {
            return Err("iteration walk did not converge".to_string());
        }
        let block = func.block(cur);
        for &iid in &block.instrs {
            let v = match func.instr(iid) {
                Instr::Phi { incomings, .. } => {
                    if cur == shape.header {
                        if iid == shape.ptr_phi {
                            Some(Abs::Ptr(0))
                        } else if shape.acc_phi == Some(iid) {
                            Some(Abs::Acc { k: 1, m: 0 })
                        } else if shape.dead_phis.contains(&iid) {
                            None // dead in the loop; any read errors below
                        } else {
                            return Err("unsupported header phi".to_string());
                        }
                    } else {
                        let p = prev.ok_or("phi without predecessor")?;
                        let (_, op) = incomings
                            .iter()
                            .find(|(bb, _)| *bb == p)
                            .ok_or("phi missing incoming")?;
                        Some(eval_op(&vals, *op)?)
                    }
                }
                Instr::Load { ptr, ty } => {
                    if *ty != Ty::I8 {
                        return Err("non-byte load".to_string());
                    }
                    match eval_op(&vals, *ptr)? {
                        Abs::Ptr(0) => Some(Abs::Int(cell)),
                        Abs::Ptr(o) => return Err(format!("load at offset {o}")),
                        _ => return Err("load through non-scan pointer".to_string()),
                    }
                }
                Instr::Store { ptr, value } => {
                    match eval_op(&vals, *ptr)? {
                        Abs::Ptr(0) => {}
                        Abs::Ptr(o) => return Err(format!("store at offset {o}")),
                        _ => return Err("store through non-scan pointer".to_string()),
                    }
                    if func.operand_ty(*value) != Ty::I8 {
                        return Err("non-byte store".to_string());
                    }
                    match eval_op(&vals, *value)? {
                        Abs::Int(v) => {
                            cell = v & 0xff;
                            stored = true;
                        }
                        _ => return Err("accumulator-dependent store".to_string()),
                    }
                    None
                }
                Instr::Bin { op, lhs, rhs, ty } => {
                    let l = eval_op(&vals, *lhs)?;
                    let r = eval_op(&vals, *rhs)?;
                    Some(abs_bin(shape, *op, l, r, *ty)?)
                }
                Instr::Cmp { op, lhs, rhs, ty } => {
                    let l = eval_op(&vals, *lhs)?;
                    let r = eval_op(&vals, *rhs)?;
                    match (l, r) {
                        (Abs::Int(a), Abs::Int(c)) => {
                            Some(Abs::Int(i64::from(cmp_int(*op, a, c, *ty))))
                        }
                        _ => return Err("non-concrete comparison".to_string()),
                    }
                }
                Instr::Gep { base, offset } => {
                    match (eval_op(&vals, *base)?, eval_op(&vals, *offset)?) {
                        (Abs::Ptr(o), Abs::Int(c)) => Some(Abs::Ptr(o + c)),
                        _ => return Err("unsupported pointer arithmetic".to_string()),
                    }
                }
                Instr::Cast {
                    kind,
                    value,
                    from,
                    to,
                } => match eval_op(&vals, *value)? {
                    Abs::Int(v) => Some(Abs::Int(cast_int(*kind, v, *from, *to)?)),
                    _ => return Err("cast of accumulator or pointer".to_string()),
                },
                Instr::CallBuiltin { builtin, arg } => match eval_op(&vals, *arg)? {
                    Abs::Int(v) => Some(Abs::Int(norm(apply_builtin(*builtin, v), Ty::I32))),
                    _ => return Err("builtin on accumulator".to_string()),
                },
                Instr::Select {
                    cond,
                    then_v,
                    else_v,
                    ..
                } => match eval_op(&vals, *cond)? {
                    Abs::Int(c) => Some(if c != 0 {
                        eval_op(&vals, *then_v)?
                    } else {
                        eval_op(&vals, *else_v)?
                    }),
                    _ => return Err("accumulator-dependent select".to_string()),
                },
                Instr::Alloca { .. } => return Err("alloca inside loop".to_string()),
                Instr::Call { .. } => return Err("call to unknown function".to_string()),
            };
            vals[iid.0 as usize] = v;
        }
        let next = match &block.term {
            Terminator::Br(t) => *t,
            Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
            } => match eval_op(&vals, *cond)? {
                Abs::Int(c) => {
                    if c != 0 {
                        *then_bb
                    } else {
                        *else_bb
                    }
                }
                _ => return Err("accumulator-dependent branch".to_string()),
            },
            Terminator::Ret(_) => return Err("return inside loop".to_string()),
            Terminator::Unreachable => return Err("unreachable inside loop".to_string()),
        };
        if next == shape.header {
            // Back edge: commit the phi updates.
            let latch = cur;
            let ptr_in = phi_incoming(func, shape.ptr_phi, latch)?;
            match eval_op(&vals, ptr_in)? {
                Abs::Ptr(1) => {}
                Abs::Ptr(o) => return Err(format!("pointer advances by {o}, not 1")),
                _ => return Err("non-pointer latch value".to_string()),
            }
            let acc_step = match shape.acc_phi {
                None => None,
                Some(phi) => {
                    let op = phi_incoming(func, phi, latch)?;
                    match eval_op(&vals, op)? {
                        Abs::Acc { k, m } => Some((k, m)),
                        Abs::Int(c) => Some((0, c)),
                        _ => return Err("non-affine accumulator update".to_string()),
                    }
                }
            };
            return Ok(IterFacts {
                end: IterEnd::Latch,
                acc_step,
                cell: (cell & 0xff) as u8,
                stored,
            });
        }
        if !shape.blocks.contains(&next) {
            if stored {
                return Err("store on a loop-exiting path".to_string());
            }
            return Ok(IterFacts {
                end: IterEnd::Exit {
                    from: cur,
                    to: next,
                },
                acc_step: None,
                cell: b,
                stored: false,
            });
        }
        prev = Some(cur);
        cur = next;
    }
}

/// The `latch` incoming operand of phi `phi`.
fn phi_incoming(func: &Func, phi: InstrId, latch: BlockId) -> Result<Operand, String> {
    match func.instr(phi) {
        Instr::Phi { incomings, .. } => incomings
            .iter()
            .find(|(bb, _)| *bb == latch)
            .map(|(_, op)| *op)
            .ok_or_else(|| "phi missing latch incoming".to_string()),
        _ => Err("not a phi".to_string()),
    }
}

/// Evaluates an operand in the current abstract state.
fn eval_op(vals: &[Option<Abs>], op: Operand) -> Result<Abs, String> {
    Ok(match op {
        Operand::Const(v, ty) => Abs::Int(norm(v, ty)),
        Operand::NullPtr => Abs::Nul,
        Operand::Param(0) => Abs::Start,
        Operand::Param(_) => return Err("extra parameter".to_string()),
        Operand::Value(id) => vals[id.0 as usize].ok_or("use of unevaluated value")?,
    })
}

/// Abstract binary operation: concrete × concrete stays concrete; affine
/// values close under the ring operations at the accumulator's width.
fn abs_bin(shape: &Shape<'_>, op: BinOp, l: Abs, r: Abs, ty: Ty) -> Result<Abs, String> {
    use Abs::{Acc, Int};
    if let (Int(a), Int(b)) = (l, r) {
        return Ok(Int(norm(bin_int(op, a, b, ty), ty)));
    }
    if ty != shape.acc_ty {
        return Err("accumulator used at a foreign width".to_string());
    }
    let n = |v: i64| norm(v, ty);
    Ok(match (op, l, r) {
        (BinOp::Add, Acc { k, m }, Int(c)) | (BinOp::Add, Int(c), Acc { k, m }) => Acc {
            k,
            m: n(m.wrapping_add(c)),
        },
        (BinOp::Add, Acc { k: k1, m: m1 }, Acc { k: k2, m: m2 }) => Acc {
            k: n(k1.wrapping_add(k2)),
            m: n(m1.wrapping_add(m2)),
        },
        (BinOp::Sub, Acc { k, m }, Int(c)) => Acc {
            k,
            m: n(m.wrapping_sub(c)),
        },
        (BinOp::Sub, Int(c), Acc { k, m }) => Acc {
            k: n(k.wrapping_neg()),
            m: n(c.wrapping_sub(m)),
        },
        (BinOp::Sub, Acc { k: k1, m: m1 }, Acc { k: k2, m: m2 }) => Acc {
            k: n(k1.wrapping_sub(k2)),
            m: n(m1.wrapping_sub(m2)),
        },
        (BinOp::Mul, Acc { k, m }, Int(c)) | (BinOp::Mul, Int(c), Acc { k, m }) => Acc {
            k: n(k.wrapping_mul(c)),
            m: n(m.wrapping_mul(c)),
        },
        (BinOp::Shl, Acc { k, m }, Int(c)) if (0..i64::from(ty.bits())).contains(&c) => Acc {
            k: n(k.wrapping_shl(c as u32)),
            m: n(m.wrapping_shl(c as u32)),
        },
        _ => return Err("non-affine accumulator operation".to_string()),
    })
}

/// Mirror of the interpreter's binary-operation semantics on concrete
/// integers (wrapping arithmetic, width-saturating shifts).
fn bin_int(op: BinOp, a: i64, b: i64, ty: Ty) -> i64 {
    let bits = ty.bits();
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => {
            if (b as u64) >= u64::from(bits) {
                0
            } else {
                a.wrapping_shl(b as u32)
            }
        }
        BinOp::LShr => {
            if (b as u64) >= u64::from(bits) {
                0
            } else {
                let m = if bits >= 64 {
                    u64::MAX
                } else {
                    (1u64 << bits) - 1
                };
                (((a as u64) & m) >> b) as i64
            }
        }
        BinOp::AShr => {
            if (b as u64) >= u64::from(bits) {
                if a < 0 {
                    -1
                } else {
                    0
                }
            } else {
                a >> b
            }
        }
    }
}

/// Mirror of the interpreter's comparison semantics on canonical values.
fn cmp_int(op: CmpOp, a: i64, b: i64, ty: Ty) -> bool {
    let bits = ty.bits();
    let m = if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    let (ua, ub) = ((a as u64) & m, (b as u64) & m);
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Ult => ua < ub,
        CmpOp::Ule => ua <= ub,
        CmpOp::Slt => a < b,
        CmpOp::Sle => a <= b,
    }
}

/// Mirror of the interpreter's cast semantics on canonical values.
fn cast_int(kind: CastKind, v: i64, from: Ty, to: Ty) -> Result<i64, String> {
    let raw = match kind {
        CastKind::Zext => {
            let bits = from.bits();
            if bits >= 64 {
                v
            } else {
                v & (((1u64 << bits) - 1) as i64)
            }
        }
        CastKind::Sext => {
            let bits = from.bits();
            if bits >= 64 {
                v
            } else {
                let m = 1i64 << (bits - 1);
                let masked = v & (((1u64 << bits) - 1) as i64);
                (masked ^ m) - m
            }
        }
        CastKind::Trunc => v,
        CastKind::PtrToInt | CastKind::IntToPtr => {
            return Err("pointer/integer cast".to_string());
        }
    };
    Ok(norm(raw, to))
}

/// C-locale builtin application on a concrete argument (mirrors
/// [`Builtin::apply`], which treats out-of-range arguments as 0).
fn apply_builtin(b: Builtin, v: i64) -> i64 {
    b.apply(v)
}

/// Resolves the return value reached through exit edge `from → to`:
/// follows unconditional control flow outside the loop, evaluating exit
/// phis against the incoming edge, until a `ret`.
fn resolve_exit(shape: &Shape<'_>, from: BlockId, to: BlockId) -> Result<RetSpec, String> {
    #[derive(Clone, Copy, PartialEq)]
    enum ExitVal {
        Acc,
        End,
        Start,
        Other,
    }
    let func = shape.func;
    let mut vals: Vec<Option<ExitVal>> = vec![None; func.instrs.len()];
    let resolve_op = |vals: &[Option<ExitVal>], op: Operand| -> Result<ExitVal, String> {
        Ok(match op {
            Operand::Param(0) => ExitVal::Start,
            Operand::Value(id) if id == shape.ptr_phi => ExitVal::End,
            Operand::Value(id) if shape.acc_phi == Some(id) => ExitVal::Acc,
            Operand::Value(id) => vals[id.0 as usize].ok_or("value escapes the loop")?,
            _ => ExitVal::Other,
        })
    };
    let mut pred = from;
    let mut cur = to;
    for _ in 0..MAX_BLOCKS_PER_ITER {
        let block = func.block(cur);
        for &iid in &block.instrs {
            match func.instr(iid) {
                Instr::Phi { incomings, .. } => {
                    let (_, op) = incomings
                        .iter()
                        .find(|(bb, _)| *bb == pred)
                        .ok_or("exit phi missing incoming")?;
                    let v = resolve_op(&vals, *op)?;
                    vals[iid.0 as usize] = Some(v);
                }
                _ => return Err("computation after the loop".to_string()),
            }
        }
        match &block.term {
            Terminator::Ret(Some(op)) => {
                return match resolve_op(&vals, *op)? {
                    ExitVal::Acc => Ok(RetSpec::Acc),
                    ExitVal::End => Ok(RetSpec::End),
                    ExitVal::Start => Ok(RetSpec::Start),
                    ExitVal::Other => Err("unsupported return value".to_string()),
                };
            }
            Terminator::Ret(None) => return Err("void return".to_string()),
            Terminator::Br(t) => {
                pred = cur;
                cur = *t;
            }
            _ => return Err("branching after the loop".to_string()),
        }
    }
    Err("exit chain did not reach a return".to_string())
}

// ---------------------------------------------------------------------------
// Verification: the bounded checker for closed forms.
// ---------------------------------------------------------------------------

/// Whether the loop faults on a NULL input (the lane's input model excludes
/// NULL, matching the gadget checker's treatment of NULL-unsafe loops).
fn faults_on_null(func: &Func) -> bool {
    let mut mem = Memory::new();
    Interp::new(func, &mut mem).run(&[RtVal::Null]).is_err()
}

/// Concrete agreement between the loop and a closed form on one input:
/// return value *and* final buffer contents must match.
///
/// # Errors
///
/// Never fails today; the `Result` mirrors the other checkers so callers
/// can thread diagnostics.
pub fn concrete_agrees(func: &Func, cf: &ClosedForm, input: &[u8]) -> Result<bool, String> {
    let mut mem = Memory::new();
    let obj = mem.alloc_cstr(input);
    let res = {
        let mut interp = Interp::new(func, &mut mem);
        interp.run(&[RtVal::Ptr { obj, off: 0 }])
    };
    let Ok(out) = res else {
        // The loop is unsafe on this input; closed forms are total.
        return Ok(false);
    };
    let mut expected_buf: Vec<u8>;
    Ok(match (cf.eval(input), out) {
        (CfValue::Int(x), Some(RtVal::Int(v))) => x == v,
        (CfValue::Ptr(n), Some(RtVal::Ptr { obj: o, off })) => {
            expected_buf = input.to_vec();
            expected_buf.push(0);
            o == obj && off == n as i64 && mem.bytes(obj) == expected_buf.as_slice()
        }
        (CfValue::Mem { bytes, ret }, Some(RtVal::Ptr { obj: o, off })) => {
            expected_buf = bytes;
            expected_buf.push(0);
            o == obj && off == ret as i64 && mem.bytes(obj) == expected_buf.as_slice()
        }
        _ => false,
    })
}

/// Builds `c ∈ cont` as a term: an OR of 8-bit equalities over whichever of
/// `cont` / its complement is smaller (a dense continue set — e.g. "every
/// non-NUL byte" — yields `c ≠ 0 ∧ …` instead of a 255-way disjunction,
/// keeping the solver's case analysis shallow).
fn in_cont_term(pool: &mut TermPool, cont: &[u8], c: TermId) -> TermId {
    let member = |pool: &mut TermPool, set: &[u8]| {
        let eqs: Vec<TermId> = set
            .iter()
            .map(|&b| {
                let bc = pool.bv_const(u64::from(b), 8);
                pool.eq(c, bc)
            })
            .collect();
        pool.or_many(&eqs)
    };
    if cont.len() <= 128 {
        member(pool, cont)
    } else {
        let complement: Vec<u8> = (0..=255u8).filter(|b| !cont.contains(b)).collect();
        let out = member(pool, &complement);
        pool.not(out)
    }
}

/// Builds the fold's per-byte addend `table[c]` at width `w`.
///
/// When the table is affine in the byte value over `cont` — `t[b] = α·b + β`
/// wrapped at the width, which covers counters (α=0), byte sums and hashes
/// (α=1, β=0) and digit parsers (α=1, β=−48) — the term is built as the
/// same zext/mul/add shape the loop's own IR produces, so the solver
/// compares structurally similar circuits instead of a 255-deep mux chain.
/// Otherwise falls back to an ite chain over the bytes that differ from the
/// table's most common value.
fn table_term(pool: &mut TermPool, cont: &[u8], table: &[i64], ty: Ty, c: TermId) -> TermId {
    let w = ty.bits();
    let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
    // Exact affine fit over the continue set.
    let affine = 'fit: {
        let b0 = cont[0];
        let t0 = table[b0 as usize];
        let mut alpha: Option<i64> = if cont.len() == 1 { Some(0) } else { None };
        for &b in &cont[1..] {
            let db = i64::from(b) - i64::from(b0);
            let dt = table[b as usize].wrapping_sub(t0);
            if dt % db == 0 {
                let a = dt / db;
                match alpha {
                    None => alpha = Some(a),
                    Some(prev) if prev == a => {}
                    Some(_) => break 'fit None,
                }
            } else {
                break 'fit None;
            }
        }
        let alpha = alpha.unwrap_or(0);
        let beta = t0.wrapping_sub(alpha.wrapping_mul(i64::from(b0)));
        if cont.iter().all(|&b| {
            norm(alpha.wrapping_mul(i64::from(b)).wrapping_add(beta), ty) == table[b as usize]
        }) {
            Some((alpha, beta))
        } else {
            None
        }
    };
    if let Some((alpha, beta)) = affine {
        if alpha == 0 {
            return pool.bv_const(beta as u64 & mask, w);
        }
        let zc = pool.zero_ext(c, w);
        let scaled = if alpha == 1 {
            zc
        } else {
            let ac = pool.bv_const(alpha as u64 & mask, w);
            pool.bv_mul(zc, ac)
        };
        if beta == 0 {
            return scaled;
        }
        if beta < 0 {
            let bc = pool.bv_const((-beta) as u64 & mask, w);
            return pool.bv_sub(scaled, bc);
        }
        let bc = pool.bv_const(beta as u64 & mask, w);
        return pool.bv_add(scaled, bc);
    }
    // Sparse fallback: default to the most common value, mux the exceptions.
    let mut counts: std::collections::HashMap<i64, usize> = std::collections::HashMap::new();
    for &b in cont {
        *counts.entry(table[b as usize]).or_insert(0) += 1;
    }
    let default = counts
        .iter()
        .max_by_key(|(v, n)| (**n, std::cmp::Reverse(**v)))
        .map(|(v, _)| *v)
        .expect("non-empty cont");
    let mut t = pool.bv_const(default as u64 & mask, w);
    for &b in cont.iter().filter(|&&b| table[b as usize] != default) {
        let bc = pool.bv_const(u64::from(b), 8);
        let eqb = pool.eq(c, bc);
        let tb = pool.bv_const(table[b as usize] as u64 & mask, w);
        t = pool.ite(eqb, tb, t);
    }
    t
}

/// The alive chain: `alive[i]` is true iff the loop consumes byte `i`
/// (all bytes `0..=i` are in the continue set).
fn alive_chain(pool: &mut TermPool, cont: &[u8], chars: &[TermId]) -> Vec<TermId> {
    let mut alive = pool.bool_const(true);
    let mut out = Vec::with_capacity(chars.len());
    for &c in chars {
        let inc = in_cont_term(pool, cont, c);
        alive = pool.and(alive, inc);
        out.push(alive);
    }
    out
}

/// The predicted final offset (`n`, the prefix length) as a 64-bit term.
fn prefix_len_term(pool: &mut TermPool, alive: &[TermId]) -> TermId {
    let mut off = pool.bv_const(0, 64);
    for (i, &a) in alive.iter().enumerate() {
        let next = pool.bv_const(i as u64 + 1, 64);
        off = pool.ite(a, next, off);
    }
    off
}

/// Verifies a closed form against `func` on all strings of length ≤
/// `max_ex_size`, returning the solver effort spent.
///
/// The candidate is screened concretely first (loop alphabet plus the
/// continue-set boundary bytes), then checked symbolically: the loop's
/// merged path outcomes must equal the closed form's predicted term on
/// every canonical buffer — return value and, for builders, every byte of
/// the final buffer. `Unsat` is the only accepting verdict.
///
/// # Errors
///
/// Returns a diagnostic when the loop is outside the lane's input model
/// (NULL-safe), symbolically inexhaustible, or distinguishable from the
/// closed form.
pub fn verify_closed_form(
    func: &Func,
    cf: &ClosedForm,
    max_ex_size: usize,
) -> Result<SessionStats, String> {
    if !faults_on_null(func) {
        return Err("NULL-safe loop is outside the recurrence lane".to_string());
    }
    // Cheap concrete screen before any solver work.
    for s in strsum_symex::bounded_strings(&probe_alphabet(func, cf), max_ex_size.min(3)) {
        if !concrete_agrees(func, cf, &s)? {
            return Err(format!(
                "concrete mismatch on {:?}",
                String::from_utf8_lossy(&s)
            ));
        }
    }
    let mut pool = TermPool::new();
    let run = {
        let mut engine = Engine::new(&mut pool);
        engine.run_on_symbolic_string(func, max_ex_size)?
    };
    if !run.complete {
        return Err("symbolic execution exceeded budgets".to_string());
    }
    let differ = match cf {
        ClosedForm::Fold {
            cont,
            init,
            mul,
            table,
            width,
        } => {
            let w = u32::from(*width);
            if func.ret_ty.map(Ty::bits) != Some(w) {
                return Err("return width differs from fold width".to_string());
            }
            let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
            let ty = if w == 64 { Ty::I64 } else { Ty::I32 };
            let mut alive = pool.bool_const(true);
            let mut acc = pool.bv_const(*init as u64 & mask, w);
            for &c in &run.chars {
                let inc = in_cont_term(&mut pool, cont, c);
                alive = pool.and(alive, inc);
                let t = table_term(&mut pool, cont, table, ty, c);
                // `acc · mul` in the same operand order the loop's own IR
                // uses, so the blasted circuits line up structurally.
                let prod = if *mul == 1 {
                    acc
                } else {
                    let mc = pool.bv_const(*mul as u64 & mask, w);
                    pool.bv_mul(acc, mc)
                };
                let step = pool.bv_add(prod, t);
                acc = pool.ite(alive, step, acc);
            }
            let mut orig = pool.bv_const(0, w);
            for path in &run.paths {
                let t = match &path.outcome {
                    SymOutcome::Ret(Some(SymVal::Int(t))) if pool.width(*t) == w => *t,
                    _ => return Err("loop has non-integer or aborting paths".to_string()),
                };
                let pc = pool.and_many(&path.constraints);
                orig = pool.ite(pc, t, orig);
            }
            pool.ne(orig, acc)
        }
        ClosedForm::Scan { cont } => {
            if func.ret_ty != Some(Ty::Ptr) {
                return Err("scan form on a non-pointer loop".to_string());
            }
            let alive = alive_chain(&mut pool, cont, &run.chars);
            let pred = prefix_len_term(&mut pool, &alive);
            let mut orig = pool.bv_const(0, 64);
            for path in &run.paths {
                let enc = encode_outcome(&mut pool, path, run.input_obj)
                    .ok_or("loop has non-pointer or aborting paths")?;
                let pc = pool.and_many(&path.constraints);
                orig = pool.ite(pc, enc, orig);
            }
            pool.ne(orig, pred)
        }
        ClosedForm::Map {
            cont,
            table,
            ret_end,
        } => {
            if func.ret_ty != Some(Ty::Ptr) {
                return Err("map form on a non-pointer loop".to_string());
            }
            let l = run.chars.len();
            let alive = alive_chain(&mut pool, cont, &run.chars);
            let pred_ret = if *ret_end {
                prefix_len_term(&mut pool, &alive)
            } else {
                pool.bv_const(0, 64)
            };
            // Predicted final buffer: mapped over the alive prefix.
            let mut pred_bytes = Vec::with_capacity(l + 1);
            for (j, &c) in run.chars.iter().enumerate() {
                let mut mapped = c;
                for &b in cont.iter().filter(|&&b| table[b as usize] != b) {
                    let bc = pool.bv_const(u64::from(b), 8);
                    let eqb = pool.eq(c, bc);
                    let tb = pool.bv_const(u64::from(table[b as usize]), 8);
                    mapped = pool.ite(eqb, tb, mapped);
                }
                pred_bytes.push(pool.ite(alive[j], mapped, c));
            }
            pred_bytes.push(pool.bv_const(0, 8));
            let mut orig_ret = pool.bv_const(0, 64);
            let mut orig_bytes: Vec<TermId> = vec![pool.bv_const(0, 8); l + 1];
            for path in &run.paths {
                let off = match &path.outcome {
                    SymOutcome::Ret(Some(SymVal::Ptr { obj, off })) if *obj == run.input_obj => {
                        *off
                    }
                    _ => return Err("loop has non-pointer or aborting paths".to_string()),
                };
                let SymObject::Bytes(final_bytes) = path.mem.object(run.input_obj) else {
                    return Err("input buffer lost its byte shape".to_string());
                };
                if final_bytes.len() != l + 1 {
                    return Err("input buffer changed size".to_string());
                }
                let final_bytes = final_bytes.clone();
                let pc = pool.and_many(&path.constraints);
                orig_ret = pool.ite(pc, off, orig_ret);
                for (j, slot) in orig_bytes.iter_mut().enumerate() {
                    *slot = pool.ite(pc, final_bytes[j], *slot);
                }
            }
            let mut diffs = vec![pool.ne(orig_ret, pred_ret)];
            for j in 0..=l {
                diffs.push(pool.ne(orig_bytes[j], pred_bytes[j]));
            }
            pool.or_many(&diffs)
        }
    };
    let mut session = Session::new();
    session.set_role("verify");
    for c in crate::equivalence::canonical_buffer_constraints(&mut pool, &run.chars) {
        session.assert_term(&mut pool, c);
    }
    let lit = session.lit(&mut pool, differ);
    match session.canonical_check(&mut pool, &[lit], &run.chars) {
        CheckResult::Unsat => Ok(session.stats()),
        CheckResult::Sat(_) => {
            Err("bounded counterexample distinguishes the closed form".to_string())
        }
        CheckResult::Unknown => Err("solver limit during closed-form check".to_string()),
    }
}

/// Probe alphabet for the concrete screen: the loop's own alphabet plus
/// the continue set's boundary bytes (and their neighbours), capped so the
/// grid stays small.
fn probe_alphabet(func: &Func, cf: &ClosedForm) -> Vec<u8> {
    let mut alpha = crate::screen::loop_alphabet(func);
    let cont = cf.cont();
    let mut extra: Vec<u8> = Vec::new();
    if let (Some(&lo), Some(&hi)) = (cont.first(), cont.last()) {
        extra.extend([lo, hi, lo.wrapping_sub(1), hi.wrapping_add(1)]);
    }
    for b in extra {
        if b != 0 && !alpha.contains(&b) && alpha.len() < 10 {
            alpha.push(b);
        }
    }
    alpha.sort_unstable();
    alpha.dedup();
    alpha
}

// ---------------------------------------------------------------------------
// The widened entry point: gadget CEGIS first, recurrence lane second.
// ---------------------------------------------------------------------------

/// Result of [`summarize_loop`]: a summary of any kind, plus the combined
/// statistics of the gadget attempt and (when it ran) the recurrence lane.
#[derive(Debug, Clone)]
pub struct SummarizeResult {
    /// The summary, when either lane succeeded.
    pub summary: Option<Summary>,
    /// Run statistics (gadget CEGIS counters; the lane's verification
    /// effort is folded into `stats.solver.verify`).
    pub stats: SynthStats,
}

/// Synthesises a summary of any kind for `func`: the gadget lane first,
/// then — when CEGIS concludes the loop is inexpressible *without*
/// exhausting a budget and `cfg.recur_lane` is on — the recurrence lane.
///
/// A loop neither lane can summarise returns `summary: None` with the
/// gadget lane's failure untouched, so callers classify it exactly as
/// before ([`LoopOutcome::NotMemoryless`](crate::budget::LoopOutcome)).
pub fn summarize_loop(func: &Func, cfg: &SynthesisConfig) -> SummarizeResult {
    let r = synthesize(func, cfg);
    let mut stats = r.stats;
    if let Some(p) = r.program {
        return SummarizeResult {
            summary: Some(Summary::Gadget(p)),
            stats,
        };
    }
    if !cfg.recur_lane || stats.exhausted.is_some() {
        return SummarizeResult {
            summary: None,
            stats,
        };
    }
    let start = Instant::now();
    let outcome = extract(func)
        .and_then(|cf| verify_closed_form(func, &cf, cfg.max_ex_size).map(|s| (cf, s)));
    stats.elapsed += start.elapsed();
    match outcome {
        Ok((cf, effort)) => {
            stats.failure = None;
            stats.solver.verify = stats.solver.verify.plus(&effort);
            SummarizeResult {
                summary: Some(Summary::from_closed_form(cf)),
                stats,
            }
        }
        Err(_) => SummarizeResult {
            summary: None,
            stats,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strsum_cfront::compile_one;

    fn summarize(src: &str) -> SummarizeResult {
        let func = compile_one(src).unwrap();
        summarize_loop(&func, &SynthesisConfig::default())
    }

    fn closed_form(src: &str) -> ClosedForm {
        let r = summarize(src);
        let sum = r
            .summary
            .unwrap_or_else(|| panic!("no summary for {src:?}: {:?}", r.stats.failure));
        sum.closed_form().expect("closed form").clone()
    }

    #[test]
    fn strlen_counter_is_a_fold() {
        let cf = closed_form("int f(char* s) { int n = 0; while (*s) { n++; s++; } return n; }");
        match &cf {
            ClosedForm::Fold {
                cont,
                init,
                mul,
                table,
                width,
            } => {
                assert_eq!(cont.len(), 255, "every non-NUL byte continues");
                assert_eq!((*init, *mul, *width), (0, 1, 32));
                assert!(cont.iter().all(|&b| table[b as usize] == 1));
            }
            other => panic!("expected fold, got {other:?}"),
        }
        assert_eq!(cf.eval(b"hello"), CfValue::Int(5));
        assert_eq!(cf.eval(b""), CfValue::Int(0));
    }

    #[test]
    fn atoi_core_is_a_polynomial_fold() {
        let cf = closed_form(
            "int f(char* s) { int v = 0; while (*s >= '0' && *s <= '9') { v = v * 10 + (*s - '0'); s++; } return v; }",
        );
        match &cf {
            ClosedForm::Fold { mul, init, .. } => {
                assert_eq!((*init, *mul), (0, 10));
            }
            other => panic!("expected fold, got {other:?}"),
        }
        assert_eq!(cf.eval(b"142"), CfValue::Int(142));
        assert_eq!(cf.eval(b"12a34"), CfValue::Int(12));
    }

    #[test]
    fn hash_fold_wraps_at_width() {
        let cf = closed_form(
            "int f(char* s) { int h = 5381; while (*s) { h = h * 33 + *s; s++; } return h; }",
        );
        // 100 'z's overflow i32 many times over; eval must agree with the
        // interpreter's wrapping semantics (checked end-to-end by the
        // differential tests — here just sanity the closed form exists).
        match cf {
            ClosedForm::Fold { mul, init, .. } => assert_eq!((init, mul), (5381, 33)),
            other => panic!("expected fold, got {other:?}"),
        }
    }

    #[test]
    fn long_counter_uses_width_64() {
        let cf = closed_form("long f(char* s) { long n = 0; while (*s) { n++; s++; } return n; }");
        match cf {
            ClosedForm::Fold { width, .. } => assert_eq!(width, 64),
            other => panic!("expected fold, got {other:?}"),
        }
    }

    #[test]
    fn toupper_builder_is_a_map() {
        let cf = closed_form(
            "char* f(char* s) { char* p = s; while (*p) { if (*p >= 'a' && *p <= 'z') *p = *p - 32; p++; } return s; }",
        );
        match &cf {
            ClosedForm::Map { table, ret_end, .. } => {
                assert!(!*ret_end);
                assert_eq!(table[b'a' as usize], b'A');
                assert_eq!(table[b'!' as usize], b'!');
            }
            other => panic!("expected map, got {other:?}"),
        }
        assert_eq!(
            cf.eval(b"aZ!"),
            CfValue::Mem {
                bytes: b"AZ!".to_vec(),
                ret: 0
            }
        );
    }

    #[test]
    fn underscore_builder_returning_end() {
        let cf = closed_form(
            "char* f(char* s) { while (*s) { if (*s == ' ') *s = '_'; s++; } return s; }",
        );
        match &cf {
            ClosedForm::Map { table, ret_end, .. } => {
                assert!(*ret_end);
                assert_eq!(table[b' ' as usize], b'_');
            }
            other => panic!("expected map, got {other:?}"),
        }
        assert_eq!(
            cf.eval(b"a b"),
            CfValue::Mem {
                bytes: b"a_b".to_vec(),
                ret: 3
            }
        );
    }

    #[test]
    fn conditional_count_through_join_blocks() {
        let cf = closed_form(
            "int f(char* s) { int n = 0; while (*s) { if (*s == ' ') n++; s++; } return n; }",
        );
        assert_eq!(cf.eval(b"a b c"), CfValue::Int(2));
        assert_eq!(cf.eval(b"abc"), CfValue::Int(0));
    }

    #[test]
    fn gadget_fragment_still_wins_first() {
        // A memoryless skip loop must come back as a gadget summary; the
        // recurrence lane never runs for it.
        let r = summarize("char* f(char* s) { while (*s == ' ') s++; return s; }");
        assert_eq!(r.summary.unwrap().kind(), SummaryKind::Gadget);
    }

    #[test]
    fn lane_off_restores_not_memoryless() {
        let func = compile_one("int f(char* s) { int n = 0; while (*s) { n++; s++; } return n; }")
            .unwrap();
        let cfg = SynthesisConfig {
            recur_lane: false,
            ..SynthesisConfig::default()
        };
        let r = summarize_loop(&func, &cfg);
        assert!(r.summary.is_none());
        assert!(r.stats.failure.is_some());
        assert!(r.stats.exhausted.is_none());
    }

    #[test]
    fn wrong_closed_form_rejected_by_verifier() {
        let func = compile_one("int f(char* s) { int n = 0; while (*s) { n++; s++; } return n; }")
            .unwrap();
        // Claim the counter skips spaces — the verifier must refute it.
        let mut cont: Vec<u8> = (1..=255).filter(|&b| b != b' ').collect();
        cont.sort_unstable();
        let mut table = vec![0i64; 256];
        for &b in &cont {
            table[b as usize] = 1;
        }
        let wrong = ClosedForm::Fold {
            cont,
            init: 0,
            mul: 1,
            table,
            width: 32,
        };
        assert!(verify_closed_form(&func, &wrong, 3).is_err());
    }

    #[test]
    fn encode_decode_roundtrip_every_family() {
        let forms = [
            closed_form("int f(char* s) { int n = 0; while (*s) { n++; s++; } return n; }"),
            closed_form(
                "char* f(char* s) { while (*s) { if (*s == ' ') *s = '_'; s++; } return s; }",
            ),
        ];
        for cf in forms {
            let bytes = cf.encode();
            assert_eq!(bytes[0], CLOSED_FORM_TAG);
            assert_eq!(ClosedForm::decode(&bytes).unwrap(), cf);
            let sum = Summary::from_closed_form(cf);
            assert_eq!(Summary::decode(&sum.encode()).unwrap(), sum);
        }
        // Gadget bytes still decode as gadgets.
        let g = Summary::decode(b"P \0F").unwrap();
        assert_eq!(g.kind(), SummaryKind::Gadget);
        // Garbage is rejected, not misparsed.
        assert!(Summary::decode(b"#zzz").is_err());
        assert!(Summary::decode(b"#").is_err());
    }

    #[test]
    fn summary_kind_labels_roundtrip() {
        for k in [
            SummaryKind::Gadget,
            SummaryKind::Accumulator,
            SummaryKind::Builder,
        ] {
            assert_eq!(SummaryKind::parse(k.label()), Some(k));
        }
        assert_eq!(SummaryKind::parse("closed"), None);
    }

    #[test]
    fn null_safe_loop_stays_unsummarized() {
        // The lane's input model excludes NULL, so a NULL-tolerant counter
        // must not be claimed.
        let r = summarize(
            "int f(char* s) { int n = 0; if (s == 0) return 0; while (*s) { n++; s++; } return n; }",
        );
        assert!(r.summary.is_none());
    }
}
