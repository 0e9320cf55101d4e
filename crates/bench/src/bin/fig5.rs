//! Figure 5: native-execution speedup of the summary (dispatched to the
//! optimised SWAR/bitmap string routines) over the original byte-at-a-time
//! loop, per summarised loop.
//!
//! Mirrors §4.4: each loop runs on a workload of four ~20-character
//! strings; both sides execute the same compiled summary driver, differing
//! only in whether gadgets dispatch to `libcstr::naive` or `libcstr::opt`.
//! Bars go up (speedup) and down (slowdown) exactly as in the paper.
//!
//! Usage: `cargo run --release -p strsum-bench --bin fig5
//!         [--iters N] [--threads N] [--trace PATH]`

use std::fmt::Write as _;
use std::time::Instant;
use strsum_bench::{write_result, Cli, CorpusRunner, PlanSpec, RequestSpec};
use strsum_core::SynthesisConfig;
use strsum_gadgets::compile_rust::{compile, Impl};

/// The four ~20-character workload strings (mixed hit/miss cases).
fn workload(entry_id: &str) -> [Vec<u8>; 4] {
    // Deterministic per loop, realistic mix: leading separators, a
    // delimiter in the middle, a miss, and trailing separators.
    let tail = &entry_id.as_bytes()[entry_id.len().saturating_sub(2)..];
    [
        {
            let mut v = b"  \t  value = 12345 ".to_vec();
            v.extend_from_slice(tail);
            v.push(0);
            v
        },
        b"path/to/some/file.c\0".to_vec(),
        b"abcdefghijklmnopqrst\0".to_vec(),
        b"12345:67890;rest/end\0".to_vec(),
    ]
}

fn main() {
    let cli = Cli::from_env();
    cli.validate(&["--iters"]);
    let trace = cli.trace();
    let iters: u64 = cli.parsed("--iters", 200_000);
    let threads = cli.threads();
    let cfg = SynthesisConfig {
        budget: strsum_core::Budget::default().with_wall(std::time::Duration::from_secs(20)),
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

    let mut rows: Vec<(String, f64)> = Vec::new();
    for (entry, prog) in &loops {
        let naive = compile(prog, Impl::Naive);
        let opt = compile(prog, Impl::Opt);
        let bufs = workload(&entry.id);
        let time = |f: &strsum_gadgets::compile_rust::Compiled| -> f64 {
            // Warm up, then measure.
            for b in &bufs {
                std::hint::black_box(f(b));
            }
            let start = Instant::now();
            for _ in 0..iters {
                for b in &bufs {
                    std::hint::black_box(f(b));
                }
            }
            start.elapsed().as_secs_f64()
        };
        let t_naive = time(&naive);
        let t_opt = time(&opt);
        let speedup = t_naive / t_opt;
        println!(
            "{:12} naive {:>7.3}s opt {:>7.3}s → {:>6.2}x",
            entry.id, t_naive, t_opt, speedup
        );
        rows.push((entry.id.clone(), speedup));
    }
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));

    let ups = rows.iter().filter(|r| r.1 > 1.05).count();
    let downs = rows.iter().filter(|r| r.1 < 0.95).count();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 5. Native speedup of the libc-style summary over the original loop\n({} iterations × 4 strings of ~20 chars; paper reports bars both up and down).\n",
        iters
    );
    let _ = writeln!(
        out,
        "speedups: {ups} loops | ~equal: {} | slowdowns: {downs}\n",
        rows.len() - ups - downs
    );
    for (id, speedup) in &rows {
        let direction = if *speedup >= 1.0 {
            format!(
                "+{}",
                "#".repeat(((speedup - 1.0) * 10.0).min(40.0) as usize)
            )
        } else {
            format!(
                "-{}",
                "#".repeat(((1.0 / speedup - 1.0) * 10.0).min(40.0) as usize)
            )
        };
        let _ = writeln!(out, "{:12} {:>6.2}x {}", id, speedup, direction);
    }

    let mut csv = String::from("loop,speedup\n");
    for (id, s) in &rows {
        let _ = writeln!(csv, "{id},{s}");
    }
    print!("{out}");
    write_result("fig5.txt", &out);
    write_result("fig5.csv", &csv);
    trace.finish();
}
