//! Textual rendering of IR functions, LLVM-flavoured, for debugging and
//! golden tests.

use crate::func::{BlockId, Func};
use crate::instr::{Instr, Operand, Terminator};
use std::fmt::Write as _;

fn op_str(func: &Func, op: Operand) -> String {
    match op {
        Operand::Const(v, ty) => format!("{ty} {v}"),
        Operand::NullPtr => "ptr null".to_string(),
        Operand::Param(i) => format!(
            "{} %{}",
            func.params[i as usize].1, func.params[i as usize].0
        ),
        Operand::Value(id) => format!("%v{}", id.0),
    }
}

/// Pretty-prints `func` to a string.
pub fn print(func: &Func) -> String {
    let mut out = String::new();
    let ret = func
        .ret_ty
        .map(|t| t.to_string())
        .unwrap_or_else(|| "void".to_string());
    let params: Vec<String> = func
        .params
        .iter()
        .map(|(n, t)| format!("{t} %{n}"))
        .collect();
    let _ = writeln!(out, "define {ret} @{}({}) {{", func.name, params.join(", "));
    for bid in func.block_ids() {
        let block = func.block(bid);
        let _ = writeln!(out, "{}:                ; b{}", block.name, bid.0);
        for &iid in &block.instrs {
            let lhs = format!("%v{}", iid.0);
            let body = match func.instr(iid) {
                Instr::Alloca { ty, name } => format!("{lhs} = alloca {ty} ; {name}"),
                Instr::Load { ptr, ty } => {
                    format!("{lhs} = load {ty}, {}", op_str(func, *ptr))
                }
                Instr::Store { ptr, value } => {
                    format!("store {}, {}", op_str(func, *value), op_str(func, *ptr))
                }
                Instr::Bin {
                    op,
                    lhs: l,
                    rhs: r,
                    ty,
                } => {
                    format!(
                        "{lhs} = {op} {ty} {}, {}",
                        op_str(func, *l),
                        op_str(func, *r)
                    )
                }
                Instr::Cmp {
                    op,
                    lhs: l,
                    rhs: r,
                    ty,
                } => {
                    format!(
                        "{lhs} = icmp {op} {ty} {}, {}",
                        op_str(func, *l),
                        op_str(func, *r)
                    )
                }
                Instr::Gep { base, offset } => {
                    format!(
                        "{lhs} = gep {}, {}",
                        op_str(func, *base),
                        op_str(func, *offset)
                    )
                }
                Instr::Cast {
                    kind,
                    value,
                    from,
                    to,
                } => {
                    format!("{lhs} = {kind:?} {} : {from} -> {to}", op_str(func, *value))
                }
                Instr::CallBuiltin { builtin, arg } => {
                    format!(
                        "{lhs} = call i32 @{}({})",
                        builtin.name(),
                        op_str(func, *arg)
                    )
                }
                Instr::Call {
                    callee,
                    args,
                    ret_ty,
                    ..
                } => {
                    let ret = ret_ty.map_or_else(|| "void".to_string(), |t| t.to_string());
                    let a: Vec<String> = args.iter().map(|&x| op_str(func, x)).collect();
                    format!("{lhs} = call {ret} @{callee}({})", a.join(", "))
                }
                Instr::Phi { incomings, ty } => {
                    let inc: Vec<String> = incomings
                        .iter()
                        .map(|(b, v)| format!("[ {}, b{} ]", op_str(func, *v), b.0))
                        .collect();
                    format!("{lhs} = phi {ty} {}", inc.join(", "))
                }
                Instr::Select {
                    cond,
                    then_v,
                    else_v,
                    ty,
                } => format!(
                    "{lhs} = select {ty} {}, {}, {}",
                    op_str(func, *cond),
                    op_str(func, *then_v),
                    op_str(func, *else_v)
                ),
            };
            let _ = writeln!(out, "  {body}");
        }
        let term = match &block.term {
            Terminator::Br(b) => format!("br b{}", b.0),
            Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
            } => format!("br {}, b{}, b{}", op_str(func, *cond), then_bb.0, else_bb.0),
            Terminator::Ret(None) => "ret void".to_string(),
            Terminator::Ret(Some(v)) => format!("ret {}", op_str(func, *v)),
            Terminator::Unreachable => "unreachable".to_string(),
        };
        let _ = writeln!(out, "  {term}");
    }
    let _ = writeln!(out, "}}");
    out
}

/// Pretty-prints one block (used in error messages).
pub fn print_block(func: &Func, bid: BlockId) -> String {
    let full = print(func);
    let marker = format!("; b{}", bid.0);
    full.lines()
        .skip_while(|l| !l.contains(&marker))
        .take_while(|l| l.contains(&marker) || l.starts_with("  "))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::FuncBuilder;
    use crate::instr::{BinOp, CmpOp};
    use crate::types::Ty;

    #[test]
    fn prints_function() {
        let mut b = FuncBuilder::new("f", &[("p", Ty::Ptr)], Some(Ty::Ptr));
        let c = b.load(Operand::Param(0), Ty::I8);
        let cz = b.cmp(CmpOp::Ne, c, Operand::i8(0), Ty::I8);
        let one = b.bin(BinOp::Add, Operand::i32(0), Operand::i32(1), Ty::I32);
        let _ = one;
        let p1 = b.gep(Operand::Param(0), Operand::i64(1));
        let sel = b.select(cz, p1, Operand::Param(0), Ty::Ptr);
        b.ret(Some(sel));
        let f = b.finish();
        let s = print(&f);
        assert!(s.contains("define ptr @f(ptr %p)"));
        assert!(s.contains("icmp ne"));
        assert!(s.contains("gep"));
        assert!(s.contains("ret"));
    }
}
