//! Micro-benchmarks of the solving stack: CDCL SAT on bit-vector queries,
//! the symbolic-program circuit, and a whole bounded-equivalence check.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use strsum_gadgets::symbolic::outcome_term_symbolic_prog;
use strsum_smt::{CheckResult, Session, Solver, TermId, TermPool};

fn bench_bitvector_query(c: &mut Criterion) {
    c.bench_function("smt/add_mul_equality", |b| {
        b.iter(|| {
            let mut pool = TermPool::new();
            let x = pool.var("x", 16);
            let y = pool.var("y", 16);
            let prod = pool.bv_mul(x, y);
            let target = pool.bv_const(12_345, 16);
            let eq = pool.eq(prod, target);
            let five = pool.bv_const(5, 16);
            let gt = pool.bv_ult(five, x);
            black_box(Solver::new().check(&mut pool, &[eq, gt]).is_sat())
        })
    });
}

/// The SAT hot path pinned: a real bit-blasted CEGIS candidate query —
/// the strchr-like loop's counterexample constraints over 5 symbolic
/// program bytes, encoded once into a persistent session — re-solved from
/// a fork every iteration. Each iteration pays `Session::fork` plus one
/// canonical model extraction, and the work inside is pure CDCL
/// propagate/decide/learn on a fixed clause database, so this is the
/// benchmark to watch when touching `Solver::propagate`/`solve` or the
/// fork path.
fn bench_sat_hot_path(c: &mut Criterion) {
    let func = strsum_cfront::compile_one(
        "char* f(char* s) { while (*s != 0 && *s != ':') s++; return s; }",
    )
    .expect("compiles");
    let mut pool = TermPool::new();
    let mut oracle = strsum_core::LoopOracle::new(&func);
    let prog_vars: Vec<TermId> = (0..5)
        .map(|i| pool.fresh_var(&format!("prog{i}"), 8))
        .collect();
    let mut session = Session::new();
    session.set_role("search");
    let inputs: [Option<&[u8]>; 4] = [None, Some(b""), Some(b":"), Some(b"a:")];
    for cex in inputs {
        let term = outcome_term_symbolic_prog(&mut pool, &prog_vars, cex);
        let expected = pool.bv_const(oracle.run(cex).encode8(), 8);
        let eq = pool.eq(term, expected);
        session.assert_term(&mut pool, eq);
    }
    // One warm-up solve so every term is blasted into the parent's caches
    // before measurement starts.
    let warm = session
        .fork()
        .canonical_check(&mut pool.clone(), &[], &prog_vars);
    assert!(matches!(warm, CheckResult::Sat(_)), "query is satisfiable");
    c.bench_function("smt/cegis_candidate_query_pinned", |b| {
        b.iter(|| {
            let mut p = pool.clone();
            let mut worker = session.fork();
            black_box(worker.canonical_check(&mut p, &[], &prog_vars))
        })
    });
}

fn bench_interpreter_circuit(c: &mut Criterion) {
    c.bench_function("gadgets/symbolic_prog_circuit_size9", |b| {
        b.iter(|| {
            let mut pool = TermPool::new();
            let vars: Vec<TermId> = (0..9).map(|i| pool.var(&format!("p{i}"), 8)).collect();
            black_box(outcome_term_symbolic_prog(&mut pool, &vars, Some(b" \tx")))
        })
    });
}

/// Incremental session vs from-scratch reference on the same CEGIS run:
/// both synthesise the identical summary (guaranteed by canonical model
/// extraction), so the timing difference is purely the value of keeping
/// solver state — learnt clauses, cached encodings, one-time
/// counterexample constraints — across iterations.
fn bench_incremental_vs_scratch(c: &mut Criterion) {
    let func = strsum_cfront::compile_one(
        "char* f(char* s) { while (*s != 0 && *s != ':') s++; return s; }",
    )
    .expect("compiles");
    let mut group = c.benchmark_group("cegis");
    group.sample_size(10);
    for (name, incremental) in [("incremental", true), ("from_scratch", false)] {
        let cfg = strsum_core::SynthesisConfig {
            incremental,
            ..Default::default()
        };
        group.bench_function(name, |b| {
            b.iter(|| {
                let r = strsum_core::synthesize(black_box(&func), &cfg);
                assert!(r.program.is_some(), "strchr-like loop synthesises");
                black_box(r)
            })
        });
    }
    group.finish();
}

fn bench_equivalence(c: &mut Criterion) {
    let func = strsum_cfront::compile_one(
        "char* f(char* s) { while (*s == ' ' || *s == '\\t') s++; return s; }",
    )
    .expect("compiles");
    let prog = strsum_gadgets::Program::decode(b"P \t\0F").expect("valid");
    c.bench_function("core/bounded_equivalence_len3", |b| {
        b.iter(|| black_box(strsum_core::check_equivalence(&func, &prog, 3)))
    });
}

criterion_group!(
    benches,
    bench_bitvector_query,
    bench_sat_hot_path,
    bench_interpreter_circuit,
    bench_incremental_vs_scratch,
    bench_equivalence
);
criterion_main!(benches);
