//! Figure 4: per-loop speedup of str.KLEE over vanilla symbolic execution
//! for symbolic strings of length 13, sorted by speedup.
//!
//! Usage: `cargo run --release -p strsum-bench --bin fig4
//!         [--length N] [--timeout-secs N] [--threads N] [--trace PATH]`

use std::fmt::Write as _;
use std::time::{Duration, Instant};
use strsum_bench::{bar, median, write_result, Cli, CorpusRunner, PlanSpec, RequestSpec};
use strsum_core::SynthesisConfig;
use strsum_gadgets::symbolic::string_solver_models;
use strsum_smt::TermPool;
use strsum_symex::Engine;

fn main() {
    let cli = Cli::from_env();
    cli.validate(&["--length"]);
    let trace = cli.trace();
    let len: usize = cli.parsed("--length", 13);
    let timeout: f64 = cli.timeout_secs(5.0);
    let threads = cli.threads();

    let cfg = SynthesisConfig {
        budget: strsum_core::Budget::default().with_wall(Duration::from_secs(20)),
        ..Default::default()
    };
    let summaries = CorpusRunner::new(PlanSpec::serial())
        .persist_costs(true)
        .serve(
            RequestSpec::corpus()
                .config(cfg)
                .threads(threads)
                .reuse_summaries(true),
        )
        .summaries();
    let loops: Vec<_> = summaries
        .into_iter()
        .filter_map(|(e, p)| p.map(|prog| (e, prog)))
        .collect();

    let mut rows: Vec<(String, f64, bool)> = Vec::new(); // (id, speedup, vanilla timed out)
    for (entry, prog) in &loops {
        let func = strsum_cfront::compile_one(&entry.source).expect("corpus compiles");
        let start = Instant::now();
        let mut pool = TermPool::new();
        let mut engine = Engine::new(&mut pool);
        engine.deadline = Some(start + Duration::from_secs_f64(timeout));
        let run = engine
            .run_on_symbolic_string(&func, len)
            .expect("loop shape");
        let (vanilla, hit_timeout) = if run.complete {
            (start.elapsed().as_secs_f64(), false)
        } else {
            (timeout, true)
        };
        let start = Instant::now();
        let models = string_solver_models(prog, len);
        std::hint::black_box(&models);
        let strk = start.elapsed().as_secs_f64().max(1e-6);
        rows.push((entry.id.clone(), vanilla / strk, hit_timeout));
        println!(
            "{:12} {:>10.1}x{}",
            entry.id,
            vanilla / strk,
            if hit_timeout {
                " (vanilla timeout)"
            } else {
                ""
            }
        );
    }
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));

    let mut speeds: Vec<f64> = rows.iter().map(|r| r.1).collect();
    let med = median(&mut speeds);
    let over_100x = rows.iter().filter(|r| r.1 > 100.0).count();
    let over_1000x = rows.iter().filter(|r| r.1 > 1000.0).count();
    let slowdowns = rows.iter().filter(|r| r.1 < 1.0).count();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 4. str.KLEE speedup per loop at symbolic length {len}, sorted (paper: median 79x).\n"
    );
    let _ = writeln!(
        out,
        "median {med:.0}x | >100x: {over_100x} loops | >1000x: {over_1000x} loops | slowdowns: {slowdowns}\n"
    );
    let max_log = rows.first().map(|r| r.1.log10()).unwrap_or(1.0).max(1.0);
    for (id, speedup, timed_out) in &rows {
        let _ = writeln!(
            out,
            "{:12} {:>10.1}x |{}|{}",
            id,
            speedup,
            bar(speedup.max(1.0).log10(), max_log, 30),
            if *timed_out {
                " (≥, vanilla timed out)"
            } else {
                ""
            }
        );
    }

    let mut csv = String::from("loop,speedup,vanilla_timeout\n");
    for (id, speedup, t) in &rows {
        let _ = writeln!(csv, "{id},{speedup},{t}");
    }

    print!("{out}");
    write_result("fig4.txt", &out);
    write_result("fig4.csv", &csv);
    trace.finish();
}
