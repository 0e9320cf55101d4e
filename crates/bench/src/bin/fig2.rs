//! Figure 2: number of programs synthesised as the maximum program size
//! grows from 1 to 10, for four timeout budgets.
//!
//! The paper's ladder is 30 s / 3 min / 10 min / 1 h per loop. We keep the
//! 1 : 6 : 20 : 120 ratio, scaled down (default ×0.25 of the already-scaled
//! 0.5 s / 3 s / 10 s / 60 s ladder; `--scale 1` for the full scaled
//! ladder). To fit the budget ladder in one pass, each size is synthesised
//! once at the top timeout and the smaller budgets are derived from the
//! per-loop wall-clock (synthesis time is deterministic up to noise, so a
//! loop solved in 2 s is counted for every budget ≥ 2 s).
//!
//! Usage: `cargo run --release -p strsum-bench --bin fig2
//!         [--scale X] [--threads N] [--max-size N] [--fault-plan PATH]
//!         [--trace PATH]`

use std::fmt::Write as _;
use std::time::Duration;
use strsum_bench::{bar, write_result, Cli, CorpusRunner, PlanSpec, RequestSpec};
use strsum_core::{SolverTelemetry, SynthesisConfig};

fn main() {
    let cli = Cli::from_env();
    cli.validate(&["--scale", "--max-size"]);
    let trace = cli.trace();
    let scale: f64 = cli.parsed("--scale", 0.25);
    let threads = cli.threads();
    let max_size: usize = cli.parsed("--max-size", 10);
    // Scaled ladder (seconds): paper 30s/3min/10min/1h → 0.5/3/10/60 × scale.
    let ladder: [f64; 4] = [0.5 * scale, 3.0 * scale, 10.0 * scale, 60.0 * scale];

    let runner = CorpusRunner::new(PlanSpec::serial())
        .persist_costs(true)
        .fault_plan(cli.fault_plan());
    let mut table: Vec<[usize; 4]> = Vec::new();
    let mut effort: Vec<SolverTelemetry> = Vec::new();
    for size in 1..=max_size {
        let cfg = SynthesisConfig {
            max_prog_size: size,
            budget: cli.budget(
                strsum_core::Budget::default().with_wall(Duration::from_secs_f64(ladder[3])),
            ),
            ..Default::default()
        };
        let report = runner.serve(RequestSpec::corpus().config(cfg).threads(threads));
        let mut row = [0usize; 4];
        for r in &report.results {
            if r.summary.is_none() {
                continue;
            }
            for (li, budget) in ladder.iter().enumerate() {
                if r.elapsed.as_secs_f64() <= *budget {
                    row[li] += 1;
                }
            }
        }
        let t = report.telemetry;
        let total = t.total();
        println!(
            "size {size}: {row:?} ({} solver queries, {} conflicts)",
            total.queries, total.conflicts
        );
        table.push(row);
        effort.push(t);
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 2. Programs synthesised vs max program size (timeout ladder {:?} s).\n",
        ladder
    );
    let _ = writeln!(
        out,
        "{:>5} {:>8} {:>8} {:>8} {:>8}",
        "size", "30s", "3min", "10min", "1h"
    );
    for (i, row) in table.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:>5} {:>8} {:>8} {:>8} {:>8}",
            i + 1,
            row[0],
            row[1],
            row[2],
            row[3]
        );
    }
    let _ = writeln!(out, "\n1h-series profile:");
    for (i, row) in table.iter().enumerate() {
        let _ = writeln!(
            out,
            "  size {:>2} |{}| {}",
            i + 1,
            bar(row[3] as f64, 115.0, 40),
            row[3]
        );
    }

    let _ = writeln!(out, "\nSolver effort per size (search+verify):");
    let _ = writeln!(
        out,
        "  {:>4} {:>10} {:>12} {:>11} {:>18}",
        "size", "queries", "conflicts", "learnt", "blast hit/miss"
    );
    for (i, t) in effort.iter().enumerate() {
        let s = t.total();
        let _ = writeln!(
            out,
            "  {:>4} {:>10} {:>12} {:>11} {:>11}/{:<6}",
            i + 1,
            s.queries,
            s.conflicts,
            s.learnts,
            s.blast_hits,
            s.blast_misses
        );
    }

    let mut csv = String::from("size,t30s,t3min,t10min,t1h,queries,conflicts,blast_hits\n");
    for (i, (row, t)) in table.iter().zip(&effort).enumerate() {
        let s = t.total();
        let _ = writeln!(
            csv,
            "{},{},{},{},{},{},{},{}",
            i + 1,
            row[0],
            row[1],
            row[2],
            row[3],
            s.queries,
            s.conflicts,
            s.blast_hits
        );
    }

    print!("{out}");
    write_result("fig2.txt", &out);
    write_result("fig2.csv", &csv);
    trace.finish();
}
