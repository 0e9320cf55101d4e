//! Concrete evaluation of terms under a variable assignment.
//!
//! Used for model validation, for the concrete sides of the CEGIS loop, and
//! heavily in tests as a ground-truth oracle against the bit-blaster.

use crate::term::{to_signed, Op, Sort, TermId, TermPool};
use std::collections::HashMap;

fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Evaluates a term of either sort to a `u64` (booleans become 0/1).
///
/// `lookup` supplies values for variable terms; values are truncated to the
/// variable's width.
pub fn eval(pool: &TermPool, id: TermId, lookup: &dyn Fn(TermId) -> u64) -> u64 {
    let mut memo: HashMap<TermId, u64> = HashMap::new();
    eval_memo(pool, id, lookup, &mut memo)
}

fn eval_memo(
    pool: &TermPool,
    id: TermId,
    lookup: &dyn Fn(TermId) -> u64,
    memo: &mut HashMap<TermId, u64>,
) -> u64 {
    if let Some(&v) = memo.get(&id) {
        return v;
    }
    let term = pool.term(id);
    let v = match &term.op {
        Op::Var { .. } => lookup(id) & mask(sort_width(term.sort)),
        _ => apply(pool, id, &mut |i| {
            eval_memo(pool, term.args[i], lookup, memo)
        }),
    };
    memo.insert(id, v);
    v
}

fn sort_width(sort: Sort) -> u32 {
    match sort {
        Sort::Bool => 1,
        Sort::BitVec(w) => w,
    }
}

/// The value of non-variable term `id`, given its operands' values on
/// demand (`arg(i)` is operand `i`'s value). `And`, `Or` and `Ite` ask
/// only for the operands they need.
fn apply(pool: &TermPool, id: TermId, arg: &mut dyn FnMut(usize) -> u64) -> u64 {
    let term = pool.term(id);
    let width = sort_width(term.sort);
    match &term.op {
        Op::BoolConst(b) => u64::from(*b),
        Op::BvConst { value, .. } => *value,
        Op::Var { .. } => unreachable!("variables are looked up, not applied"),
        Op::Not => u64::from(arg(0) == 0),
        Op::And => {
            if arg(0) == 0 {
                0
            } else {
                arg(1)
            }
        }
        Op::Or => {
            if arg(0) != 0 {
                1
            } else {
                arg(1)
            }
        }
        Op::Eq => u64::from(arg(0) == arg(1)),
        Op::Ite => {
            if arg(0) != 0 {
                arg(1)
            } else {
                arg(2)
            }
        }
        Op::BvAdd => arg(0).wrapping_add(arg(1)) & mask(width),
        Op::BvSub => arg(0).wrapping_sub(arg(1)) & mask(width),
        Op::BvMul => arg(0).wrapping_mul(arg(1)) & mask(width),
        Op::BvNot => !arg(0) & mask(width),
        Op::BvAnd => arg(0) & arg(1),
        Op::BvOr => arg(0) | arg(1),
        Op::BvXor => arg(0) ^ arg(1),
        Op::BvUlt => u64::from(arg(0) < arg(1)),
        Op::BvUle => u64::from(arg(0) <= arg(1)),
        Op::BvSlt => {
            let w = pool.width(term.args[0]);
            u64::from(to_signed(arg(0), w) < to_signed(arg(1), w))
        }
        Op::BvSle => {
            let w = pool.width(term.args[0]);
            u64::from(to_signed(arg(0), w) <= to_signed(arg(1), w))
        }
        Op::BvShl => {
            let (x, y) = (arg(0), arg(1));
            if y >= u64::from(width) {
                0
            } else {
                (x << y) & mask(width)
            }
        }
        Op::BvLshr => {
            let (x, y) = (arg(0), arg(1));
            if y >= u64::from(width) {
                0
            } else {
                x >> y
            }
        }
        Op::ZeroExt(_) => arg(0),
        Op::SignExt(_) => {
            let w = pool.width(term.args[0]);
            (to_signed(arg(0), w) as u64) & mask(width)
        }
        Op::Extract { hi, lo } => (arg(0) >> lo) & mask(hi - lo + 1),
        Op::Concat => {
            let wl = pool.width(term.args[1]);
            let (hi, lo) = (arg(0), arg(1));
            ((hi << wl) | lo) & mask(width)
        }
    }
}

/// Evaluates `id` under every value of the variable `var` (width ≤ 8)
/// at once: entry `v` is [`eval`] of `id` with `var = v`. Every other
/// variable reads 0. One pass over the term DAG serves all values, so a
/// term with `n` distinct subterms costs `n` visits instead of `256 · n`
/// lookups in per-value memo tables.
///
/// # Panics
///
/// Panics when `var` is wider than 8 bits.
pub fn eval_per_value(pool: &TermPool, id: TermId, var: TermId) -> Vec<u64> {
    let width = pool.width(var);
    assert!(
        width <= 8,
        "per-value evaluation needs a variable of ≤ 8 bits"
    );
    let mut memo: HashMap<TermId, Vec<u64>> = HashMap::new();
    per_value(pool, id, var, 1 << width, &mut memo);
    memo.remove(&id).expect("evaluated")
}

fn per_value(
    pool: &TermPool,
    id: TermId,
    var: TermId,
    values: usize,
    memo: &mut HashMap<TermId, Vec<u64>>,
) {
    if memo.contains_key(&id) {
        return;
    }
    let term = pool.term(id);
    for &a in &term.args {
        per_value(pool, a, var, values, memo);
    }
    let lanes: Vec<u64> = match &term.op {
        Op::Var { .. } if id == var => (0..values as u64).collect(),
        Op::Var { .. } => vec![0; values],
        _ => {
            let args: Vec<&Vec<u64>> = term.args.iter().map(|a| &memo[a]).collect();
            (0..values)
                .map(|v| apply(pool, id, &mut |i| args[i][v]))
                .collect()
        }
    };
    memo.insert(id, lanes);
}

/// Evaluates a bit-vector term.
pub fn eval_bv(pool: &TermPool, id: TermId, lookup: &dyn Fn(TermId) -> u64) -> u64 {
    debug_assert!(matches!(pool.sort(id), Sort::BitVec(_)));
    eval(pool, id, lookup)
}

/// Evaluates a boolean term.
pub fn eval_bool(pool: &TermPool, id: TermId, lookup: &dyn Fn(TermId) -> u64) -> bool {
    debug_assert_eq!(pool.sort(id), Sort::Bool);
    eval(pool, id, lookup) != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TermPool;

    #[test]
    fn eval_arith() {
        let mut p = TermPool::new();
        let x = p.var("x", 8);
        let y = p.var("y", 8);
        let expr = {
            let s = p.bv_add(x, y);
            let two = p.bv_const(2, 8);
            p.bv_mul(s, two)
        };
        let val = eval_bv(&p, expr, &|v| if v == x { 10 } else { 20 });
        assert_eq!(val, 60);
    }

    #[test]
    fn eval_wraps() {
        let mut p = TermPool::new();
        let x = p.var("x", 8);
        let y = p.var("y", 8);
        let s = p.bv_add(x, y);
        let val = eval_bv(&p, s, &|_| 200);
        assert_eq!(val, (200 + 200) % 256);
    }

    #[test]
    fn per_value_evaluation_matches_eval() {
        let mut p = TermPool::new();
        let c = p.var("c", 8);
        let other = p.var("d", 8);
        let z = p.zero_ext(c, 32);
        let k = p.bv_const(0x30, 32);
        let d = p.bv_sub(z, k);
        let ten = p.bv_const(10, 32);
        let m = p.bv_mul(d, ten);
        let lo = p.bv_const(u64::from(b'0'), 8);
        let ge = p.bv_ule(lo, c);
        let lt = p.bv_slt(c, other);
        let g = p.and(ge, lt);
        let t = p.ite(g, m, z);
        let x = p.extract(t, 7, 0);
        for term in [t, g, x, d] {
            let lanes = eval_per_value(&p, term, c);
            assert_eq!(lanes.len(), 256);
            for v in 0..256u64 {
                let want = eval(&p, term, &|id| if id == c { v } else { 0 });
                assert_eq!(lanes[v as usize], want, "value {v}");
            }
        }
    }

    #[test]
    fn eval_bool_ops() {
        let mut p = TermPool::new();
        let x = p.var("x", 8);
        let five = p.bv_const(5, 8);
        let lt = p.bv_ult(x, five);
        assert!(eval_bool(&p, lt, &|_| 3));
        assert!(!eval_bool(&p, lt, &|_| 9));
    }
}
