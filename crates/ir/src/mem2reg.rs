//! The `mem2reg` pass: promotes `alloca` slots whose address never escapes
//! into SSA values, inserting φ-nodes at iterated dominance frontiers.
//!
//! The paper runs LLVM's `mem2reg` before its loop filters so that the only
//! remaining `store` instructions write through *pointers into arrays* —
//! the same property holds for this implementation and is relied on by
//! `strsum-corpus`'s filter pipeline.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::func::{BlockId, Func, InstrId};
use crate::instr::{Instr, Operand};
use crate::types::Ty;
use std::collections::{BTreeSet, HashMap, HashSet};

/// Runs mem2reg on `func` in place. Returns the number of promoted allocas.
pub fn run(func: &mut Func) -> usize {
    let cfg = Cfg::new(func);
    let dom = DomTree::new(&cfg);

    let promotable = find_promotable(func);
    if promotable.is_empty() {
        return 0;
    }
    let alloca_ty: HashMap<InstrId, Ty> = promotable
        .iter()
        .map(|&a| match func.instr(a) {
            Instr::Alloca { ty, .. } => (a, *ty),
            _ => unreachable!("promotable id must be an alloca"),
        })
        .collect();

    // 1. Insert φ-nodes at iterated dominance frontiers of store blocks.
    let mut phi_of: HashMap<InstrId, InstrId> = HashMap::new(); // φ instr → alloca
    for &alloca in &promotable {
        let mut def_blocks: Vec<BlockId> = Vec::new();
        for bid in func.block_ids() {
            for &iid in &func.block(bid).instrs {
                if let Instr::Store {
                    ptr: Operand::Value(p),
                    ..
                } = func.instr(iid)
                {
                    if *p == alloca && !def_blocks.contains(&bid) {
                        def_blocks.push(bid);
                    }
                }
            }
        }
        let mut has_phi: HashSet<BlockId> = HashSet::new();
        let mut work = def_blocks;
        while let Some(b) = work.pop() {
            for &f in &dom.frontier[b.0 as usize] {
                if !cfg.is_reachable(f) || has_phi.contains(&f) {
                    continue;
                }
                has_phi.insert(f);
                let phi_id = InstrId(func.instrs.len() as u32);
                func.instrs.push(Instr::Phi {
                    incomings: vec![],
                    ty: alloca_ty[&alloca],
                });
                func.blocks[f.0 as usize].instrs.insert(0, phi_id);
                phi_of.insert(phi_id, alloca);
                work.push(f);
            }
        }
    }

    // 2. Rename along the dominator tree.
    let n = func.blocks.len();
    let mut children: Vec<Vec<BlockId>> = vec![Vec::new(); n];
    for bid in func.block_ids() {
        if let Some(d) = dom.idom[bid.0 as usize] {
            children[d.0 as usize].push(bid);
        }
    }

    let mut replace: HashMap<InstrId, Operand> = HashMap::new();
    let resolve = |replace: &HashMap<InstrId, Operand>, op: Operand| -> Operand {
        let mut cur = op;
        while let Operand::Value(v) = cur {
            match replace.get(&v) {
                Some(&next) => cur = next,
                None => break,
            }
        }
        cur
    };

    // Value stacks per alloca; default (no store yet) is a zero constant.
    type Stacks = HashMap<InstrId, Vec<Operand>>;
    let mut stacks: Stacks = promotable.iter().map(|&a| (a, vec![])).collect();
    let current = |stacks: &Stacks, a: InstrId, ty: Ty| -> Operand {
        stacks[&a].last().copied().unwrap_or(match ty {
            Ty::Ptr => Operand::NullPtr,
            ty => Operand::Const(0, ty),
        })
    };

    // Iterative pre/post DFS to manage stack push/pop.
    enum Step {
        Enter(BlockId),
        Exit(Vec<(InstrId, usize)>), // (alloca, pushes to pop)
    }
    let mut removed: HashSet<InstrId> = HashSet::new();
    let mut dfs = vec![Step::Enter(BlockId(0))];
    while let Some(step) = dfs.pop() {
        match step {
            Step::Exit(pops) => {
                for (a, count) in pops {
                    let st = stacks.get_mut(&a).expect("stack exists");
                    for _ in 0..count {
                        st.pop();
                    }
                }
            }
            Step::Enter(bid) => {
                let mut pushes: Vec<(InstrId, usize)> = Vec::new();
                let block_instrs = func.blocks[bid.0 as usize].instrs.clone();
                for iid in block_instrs {
                    let instr = func.instrs[iid.0 as usize].clone();
                    match instr {
                        Instr::Phi { .. } if phi_of.contains_key(&iid) => {
                            let a = phi_of[&iid];
                            stacks.get_mut(&a).expect("stack").push(Operand::Value(iid));
                            pushes.push((a, 1));
                        }
                        Instr::Load {
                            ptr: Operand::Value(p),
                            ty,
                        } if promotable.contains(&p) => {
                            let v = current(&stacks, p, ty);
                            replace.insert(iid, v);
                            removed.insert(iid);
                        }
                        Instr::Store {
                            ptr: Operand::Value(p),
                            value,
                        } if promotable.contains(&p) => {
                            let v = resolve(&replace, value);
                            stacks.get_mut(&p).expect("stack").push(v);
                            pushes.push((p, 1));
                            removed.insert(iid);
                        }
                        _ => {
                            // Resolve operand uses in place.
                            rewrite_operands(&mut func.instrs[iid.0 as usize], &|op| {
                                resolve(&replace, op)
                            });
                        }
                    }
                }
                // Terminator operands.
                match &mut func.blocks[bid.0 as usize].term {
                    crate::instr::Terminator::CondBr { cond, .. } => {
                        *cond = resolve(&replace, *cond);
                    }
                    crate::instr::Terminator::Ret(Some(v)) => {
                        *v = resolve(&replace, *v);
                    }
                    _ => {}
                }
                // Fill successor φ incomings.
                for succ in func.blocks[bid.0 as usize].term.successors() {
                    let succ_instrs = func.blocks[succ.0 as usize].instrs.clone();
                    for iid in succ_instrs {
                        if let Some(&a) = phi_of.get(&iid) {
                            let ty = alloca_ty[&a];
                            let v = current(&stacks, a, ty);
                            if let Instr::Phi { incomings, .. } = &mut func.instrs[iid.0 as usize] {
                                incomings.push((bid, v));
                            }
                        }
                    }
                }
                dfs.push(Step::Exit(pushes));
                for &c in children[bid.0 as usize].iter().rev() {
                    dfs.push(Step::Enter(c));
                }
            }
        }
    }

    // 3. Strip promoted allocas, loads, and stores from block bodies.
    for &a in &promotable {
        removed.insert(a);
    }
    for block in &mut func.blocks {
        block.instrs.retain(|iid| !removed.contains(iid));
    }
    // Final operand sweep for any instruction not visited during renaming
    // (e.g. φ incomings referencing replaced loads).
    let replace_ref = &replace;
    for instr in &mut func.instrs {
        rewrite_operands(instr, &|op| resolve(replace_ref, op));
    }
    func.validate();
    promotable.len()
}

/// Allocas whose only uses are direct loads and stores-to, in id order:
/// φ-nodes are inserted per alloca in this order, so an ordered set keeps
/// the pass (and the printed IR) the same on every run.
fn find_promotable(func: &Func) -> BTreeSet<InstrId> {
    let mut allocas: BTreeSet<InstrId> = BTreeSet::new();
    for bid in func.block_ids() {
        for &iid in &func.block(bid).instrs {
            if matches!(func.instr(iid), Instr::Alloca { .. }) {
                allocas.insert(iid);
            }
        }
    }
    let mut escaped: HashSet<InstrId> = HashSet::new();
    for instr in &func.instrs {
        match instr {
            Instr::Load { .. } => {}
            Instr::Store { ptr, value } => {
                // Storing the *address* of an alloca escapes it.
                if let Operand::Value(v) = value {
                    if allocas.contains(v) {
                        escaped.insert(*v);
                    }
                }
                // A store through a non-alloca pointer is irrelevant here;
                // a store to the alloca itself is the promotable case.
                let _ = ptr;
            }
            other => {
                for op in other.operands() {
                    if let Operand::Value(v) = op {
                        if allocas.contains(&v) {
                            escaped.insert(v);
                        }
                    }
                }
            }
        }
    }
    // Loads with the alloca as a *value* being loaded from are fine; loads
    // where the alloca appears as a non-ptr operand cannot happen (loads
    // have one operand).
    allocas.retain(|a| !escaped.contains(a));
    allocas
}

fn rewrite_operands(instr: &mut Instr, f: &dyn Fn(Operand) -> Operand) {
    match instr {
        Instr::Alloca { .. } => {}
        Instr::Load { ptr, .. } => *ptr = f(*ptr),
        Instr::Store { ptr, value } => {
            *ptr = f(*ptr);
            *value = f(*value);
        }
        Instr::Bin { lhs, rhs, .. } | Instr::Cmp { lhs, rhs, .. } => {
            *lhs = f(*lhs);
            *rhs = f(*rhs);
        }
        Instr::Gep { base, offset } => {
            *base = f(*base);
            *offset = f(*offset);
        }
        Instr::Cast { value, .. } => *value = f(*value),
        Instr::CallBuiltin { arg, .. } => *arg = f(*arg),
        Instr::Call { args, .. } => {
            for a in args {
                *a = f(*a);
            }
        }
        Instr::Phi { incomings, .. } => {
            for (_, v) in incomings {
                *v = f(*v);
            }
        }
        Instr::Select {
            cond,
            then_v,
            else_v,
            ..
        } => {
            *cond = f(*cond);
            *then_v = f(*then_v);
            *else_v = f(*else_v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::FuncBuilder;
    use crate::instr::{BinOp, CmpOp};
    use crate::interp::{Interp, Memory, RtVal};

    /// int count(int n) { int i = 0; while (i < n) i = i + 1; return i; }
    fn counting_func() -> Func {
        let mut b = FuncBuilder::new("count", &[("n", Ty::I32)], Some(Ty::I32));
        let i_slot = b.alloca(Ty::I32, "i");
        b.store(i_slot, Operand::i32(0));
        let header = b.new_block("header");
        let body = b.new_block("body");
        let exit = b.new_block("exit");
        b.br(header);
        b.switch_to(header);
        let i1 = b.load(i_slot, Ty::I32);
        let c = b.cmp(CmpOp::Slt, i1, Operand::Param(0), Ty::I32);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let i2 = b.load(i_slot, Ty::I32);
        let inc = b.bin(BinOp::Add, i2, Operand::i32(1), Ty::I32);
        b.store(i_slot, inc);
        b.br(header);
        b.switch_to(exit);
        let i3 = b.load(i_slot, Ty::I32);
        b.ret(Some(i3));
        b.finish()
    }

    fn run_count(f: &Func, n: i32) -> i64 {
        let mut mem = Memory::new();
        let out = Interp::new(f, &mut mem)
            .run(&[RtVal::Int(i64::from(n))])
            .expect("interp ok");
        match out {
            Some(RtVal::Int(v)) => v,
            other => panic!("unexpected result {other:?}"),
        }
    }

    #[test]
    fn promotes_loop_counter() {
        let mut f = counting_func();
        assert_eq!(run_count(&f, 5), 5);
        let promoted = run(&mut f);
        assert_eq!(promoted, 1);
        // No loads/stores/allocas remain in block bodies.
        for bid in f.block_ids() {
            for &iid in &f.block(bid).instrs {
                assert!(!matches!(
                    f.instr(iid),
                    Instr::Alloca { .. } | Instr::Load { .. } | Instr::Store { .. }
                ));
            }
        }
        // Semantics preserved.
        assert_eq!(run_count(&f, 5), 5);
        assert_eq!(run_count(&f, 0), 0);
        assert_eq!(run_count(&f, 33), 33);
    }

    #[test]
    fn no_promotion_without_allocas() {
        let mut b = FuncBuilder::new("id", &[("p", Ty::Ptr)], Some(Ty::Ptr));
        b.ret(Some(Operand::Param(0)));
        let mut f = b.finish();
        assert_eq!(run(&mut f), 0);
    }
}
