//! Trajectory goldens for the CDCL kernel.
//!
//! The solver's search trajectory — its decisions, propagation order and
//! learnt clauses — is part of its contract: synthesis verdicts near a
//! conflict cap depend on it. These instances pin it down through the
//! public counters. Every query records `(result, conflicts,
//! propagations, learnts, clauses, vars, FNV of the model bits)` and the
//! whole table is compared against `trajectory.golden`, which was
//! generated with the solver before its data-layout rewrite. A change to
//! propagation order, watch-list order, learnt-clause literal order or any
//! heuristic moves at least one row.
//!
//! The instances are seeded random CNFs drawn with the vendored `StdRng`:
//! uniform 3-SAT at the threshold ratio, mixed-width CNFs with binary
//! clauses, Tseitin-encoded AND/XOR circuits, and incremental sequences — clauses added after a `Sat`,
//! queries under assumptions, and conflict limits that give `Unknown`
//! before the same solver finishes the query.
//!
//! On a mismatch the test prints the full table it computed, in the
//! golden file's format.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use strsum_smt::sat::{Lit, SatResult, Solver};

const GOLDEN: &str = include_str!("trajectory.golden");

/// A clause of `width` distinct variables out of `n`, random polarities.
fn random_clause(rng: &mut StdRng, n: u32, width: usize) -> Vec<Lit> {
    let mut vars: Vec<u32> = Vec::with_capacity(width);
    while vars.len() < width {
        let v = rng.random_range(0..n);
        if !vars.contains(&v) {
            vars.push(v);
        }
    }
    vars.into_iter()
        .map(|v| Lit::new(v, rng.random::<bool>()))
        .collect()
}

fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Records every query of one instance as golden-format rows.
struct Recorder {
    name: String,
    rows: Vec<String>,
}

impl Recorder {
    fn new(name: String) -> Recorder {
        Recorder {
            name,
            rows: Vec::new(),
        }
    }

    fn solve(&mut self, s: &mut Solver, assumptions: &[Lit]) -> SatResult {
        let r = s.solve(assumptions);
        let model = match r {
            SatResult::Sat => fnv((0..s.num_vars() as u32).map(|v| u8::from(s.model_value(v)))),
            _ => 0,
        };
        self.rows.push(format!(
            "{} {} {:?} {} {} {} {} {} {:016x}",
            self.name,
            self.rows.len(),
            r,
            s.num_conflicts(),
            s.num_propagations(),
            s.num_learnts(),
            s.num_clauses(),
            s.num_vars(),
            model
        ));
        r
    }
}

fn fresh(n: u32) -> Solver {
    let mut s = Solver::new();
    for _ in 0..n {
        s.new_var();
    }
    s
}

/// Uniform random 3-SAT at clause/variable ratio 4.26.
fn uniform_3sat(out: &mut Vec<String>) {
    for (seed, n) in (1..=12).zip([40, 60, 80, 100, 120, 140].into_iter().cycle()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = fresh(n);
        for _ in 0..(n as f64 * 4.26).round() as usize {
            s.add_clause(&random_clause(&mut rng, n, 3));
        }
        let mut rec = Recorder::new(format!("uniform3_{seed}_n{n}"));
        rec.solve(&mut s, &[]);
        out.extend(rec.rows);
    }
}

/// Mixed widths, a fifth of the clauses binary, so binary watchers carry
/// part of every propagation.
fn mixed_width(out: &mut Vec<String>) {
    const WIDTHS: [usize; 5] = [2, 3, 3, 3, 3];
    for (seed, n) in (101..=110).zip([60, 90, 120, 150, 200].into_iter().cycle()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = fresh(n);
        for _ in 0..(n as f64 * 3.2).round() as usize {
            let w = WIDTHS[rng.random_range(0..WIDTHS.len())];
            s.add_clause(&random_clause(&mut rng, n, w));
        }
        let mut rec = Recorder::new(format!("mixed_{seed}_n{n}"));
        rec.solve(&mut s, &[]);
        out.extend(rec.rows);
    }
}

/// Random AND/XOR circuits in Tseitin form (an AND gate is two binary
/// clauses and a ternary one, an XOR gate four ternary ones), a few
/// outputs forced to random values: the clause mix a bit-blaster emits.
fn gate_circuits(out: &mut Vec<String>) {
    for (seed, inputs) in (151..=158).zip([24, 32, 40, 48].into_iter().cycle()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = fresh(inputs);
        let mut nodes: Vec<Lit> = (0..inputs).map(|v| Lit::new(v, true)).collect();
        let pick = |rng: &mut StdRng, nodes: &[Lit]| {
            let l =
                nodes[rng.random_range(nodes.len().saturating_sub(inputs as usize)..nodes.len())];
            if rng.random::<bool>() {
                !l
            } else {
                l
            }
        };
        for _ in 0..inputs * 8 {
            let (a, b) = (pick(&mut rng, &nodes), pick(&mut rng, &nodes));
            if a.var() == b.var() {
                continue;
            }
            let g = Lit::new(s.new_var(), true);
            if rng.random_range(0..3u32) == 0 {
                s.add_clause(&[!g, a, b]);
                s.add_clause(&[!g, !a, !b]);
                s.add_clause(&[g, !a, b]);
                s.add_clause(&[g, a, !b]);
            } else {
                s.add_clause(&[!g, a]);
                s.add_clause(&[!g, b]);
                s.add_clause(&[g, !a, !b]);
            }
            nodes.push(g);
        }
        for _ in 0..4 {
            let g = pick(&mut rng, &nodes);
            s.add_clause(&[g]);
        }
        let mut rec = Recorder::new(format!("gates_{seed}_i{inputs}"));
        rec.solve(&mut s, &[]);
        out.extend(rec.rows);
    }
}

/// Incremental sequences: an under-constrained start, then batches of
/// clauses added after each answer, each batch solved first under four
/// random assumptions and then without them, until `Unsat`.
fn incremental(out: &mut Vec<String>) {
    for seed in 201..=208 {
        let n = 90;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = fresh(n);
        let mut rec = Recorder::new(format!("incr_{seed}"));
        for _ in 0..3 * n {
            s.add_clause(&random_clause(&mut rng, n, 3));
        }
        for _ in 0..12 {
            let assumptions = random_clause(&mut rng, n, 4);
            rec.solve(&mut s, &assumptions);
            if rec.solve(&mut s, &[]) == SatResult::Unsat {
                break;
            }
            for _ in 0..n / 5 {
                let w = if rng.random_range(0..4u32) == 0 { 2 } else { 3 };
                s.add_clause(&random_clause(&mut rng, n, w));
            }
            // New variables mid-life, wired into the old ones.
            let v = s.new_var();
            let c = random_clause(&mut rng, n, 2);
            s.add_clause(&[Lit::new(v, true), c[0], c[1]]);
        }
        out.extend(rec.rows);
    }
}

/// Conflict limits: a hard instance cut off twice by a small per-query
/// budget (`Unknown`, learnts kept), then solved to the end under
/// assumptions and without.
fn conflict_limits(out: &mut Vec<String>) {
    for seed in 301..=306 {
        let n = 160;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = fresh(n);
        for _ in 0..(n as f64 * 4.26).round() as usize {
            s.add_clause(&random_clause(&mut rng, n, 3));
        }
        let mut rec = Recorder::new(format!("limit_{seed}"));
        s.set_conflict_limit(40);
        rec.solve(&mut s, &[]);
        rec.solve(&mut s, &[]);
        s.set_conflict_limit(u64::MAX);
        let assumptions = random_clause(&mut rng, n, 3);
        rec.solve(&mut s, &assumptions);
        rec.solve(&mut s, &[]);
        out.extend(rec.rows);
    }
}

#[test]
fn solver_trajectories_match_the_golden_table() {
    let mut rows = Vec::new();
    uniform_3sat(&mut rows);
    mixed_width(&mut rows);
    gate_circuits(&mut rows);
    incremental(&mut rows);
    conflict_limits(&mut rows);
    let golden: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let first_diff = (0..rows.len().max(golden.len()))
        .find(|&i| rows.get(i).map(String::as_str) != golden.get(i).copied());
    if let Some(i) = first_diff {
        panic!(
            "trajectory differs from the golden table at row {i}:\n  want: {}\n  got:  {}\n\nfull table:\n{}",
            golden.get(i).copied().unwrap_or("<none>"),
            rows.get(i).map(String::as_str).unwrap_or("<none>"),
            rows.join("\n")
        );
    }
}
