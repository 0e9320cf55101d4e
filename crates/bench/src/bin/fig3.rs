//! Figure 3: mean time to symbolically execute all (summarised) loops as
//! the symbolic string length grows — vanilla symbolic execution vs the
//! string-solver-dispatched summaries (`str.KLEE`).
//!
//! Vanilla explores the loop path-by-path with bit-vector solver queries;
//! str.KLEE enumerates the summary's outcomes through the constructive
//! string solver and builds one model input per outcome. The paper's
//! per-loop timeout is 240 s; the scaled default is 5 s.
//!
//! Usage: `cargo run --release -p strsum-bench --bin fig3
//!         [--timeout-secs N] [--lengths 4,6,…] [--threads N] [--trace PATH]`

use std::fmt::Write as _;
use std::time::{Duration, Instant};
use strsum_bench::{write_result, Cli, CorpusRunner, PlanSpec, RequestSpec};
use strsum_core::SynthesisConfig;
use strsum_gadgets::symbolic::string_solver_models;
use strsum_smt::TermPool;
use strsum_symex::Engine;

fn main() {
    let cli = Cli::from_env();
    cli.validate(&["--lengths"]);
    let trace = cli.trace();
    let timeout: f64 = cli.timeout_secs(5.0);
    let threads = cli.threads();
    let lengths: Vec<usize> = cli
        .value("--lengths")
        .map(|v| v.split(',').filter_map(|x| x.parse().ok()).collect())
        .unwrap_or_else(|| vec![4, 6, 8, 10, 13, 16, 20]);

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
    println!("{} summarised loops to execute symbolically", loops.len());

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 3. Mean time (s) to execute all loops, vanilla vs str.KLEE, per symbolic string length.\n"
    );
    let _ = writeln!(
        out,
        "{:>7} {:>14} {:>14} {:>10}",
        "length", "vanilla (s)", "str.KLEE (s)", "timeouts"
    );
    let mut csv = String::from("length,vanilla_mean_s,strklee_mean_s,vanilla_timeouts\n");

    for &len in &lengths {
        let mut vanilla_total = 0.0;
        let mut str_total = 0.0;
        let mut timeouts = 0usize;
        for (entry, prog) in &loops {
            let func = strsum_cfront::compile_one(&entry.source).expect("corpus compiles");
            // Vanilla: full path exploration with a deadline; a timeout is
            // scored at the timeout value (like the paper's 240s cap).
            let start = Instant::now();
            let mut pool = TermPool::new();
            let mut engine = Engine::new(&mut pool);
            engine.deadline = Some(start + Duration::from_secs_f64(timeout));
            let run = engine
                .run_on_symbolic_string(&func, len)
                .expect("loop shape");
            let v = if run.complete {
                start.elapsed().as_secs_f64()
            } else {
                timeouts += 1;
                timeout
            };
            vanilla_total += v;
            // str.KLEE: constructive enumeration of the summary outcomes.
            let start = Instant::now();
            let models = string_solver_models(prog, len);
            std::hint::black_box(&models);
            str_total += start.elapsed().as_secs_f64();
        }
        let n = loops.len().max(1) as f64;
        let _ = writeln!(
            out,
            "{:>7} {:>14.3} {:>14.4} {:>10}",
            len,
            vanilla_total / n,
            str_total / n,
            timeouts
        );
        let _ = writeln!(
            csv,
            "{},{},{},{}",
            len,
            vanilla_total / n,
            str_total / n,
            timeouts
        );
        println!(
            "len {len}: vanilla {:.3}s str {:.4}s ({timeouts} timeouts)",
            vanilla_total / n,
            str_total / n
        );
    }

    let _ = writeln!(out, "\n(see fig4 for the per-loop speedups at length 13)");
    print!("{out}");
    write_result("fig3.txt", &out);
    write_result("fig3.csv", &csv);
    trace.finish();
}
