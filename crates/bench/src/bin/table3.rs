//! Table 3: loops synthesised per application with a generous budget,
//! plus average/median synthesis time.
//!
//! The paper uses a 2-hour timeout per loop on an i7-6700; the scaled
//! default here is 45 s per loop (`--timeout-secs` to change, `--full`
//! for 300 s).
//!
//! Usage: `cargo run --release -p strsum-bench --bin table3
//!         [--timeout-secs N] [--budget-ms N] [--retries N] [--threads N]
//!         [--full] [--fault-plan PATH] [--trace PATH]`

use std::fmt::Write as _;
use std::time::Duration;
use strsum_bench::{
    median, minutes, telemetry_report, write_result, Cli, CorpusRunner, PlanSpec, RequestSpec,
};
use strsum_core::{Budget, SynthesisConfig};
use strsum_corpus::APPS;
use strsum_obs::ToJson;

fn main() {
    let cli = Cli::from_env();
    cli.validate(&["--full"]);
    let trace = cli.trace();
    let base = if cli.flag("--full") {
        Budget::default().with_wall(Duration::from_secs(300))
    } else {
        Budget::default().with_wall(Duration::from_secs(45))
    };
    let budget = cli.budget(base);
    let timeout = budget.wall.as_secs();
    let threads = cli.threads();
    let cfg = SynthesisConfig {
        budget,
        ..Default::default()
    };
    println!(
        "synthesising 115 loops (full vocabulary, max_prog_size=9, max_ex_size=3, timeout={timeout}s, {threads} threads)…"
    );
    let mut runner = CorpusRunner::new(PlanSpec::serial())
        .persist_costs(true)
        .fault_plan(cli.fault_plan());
    if let Some(c) = trace.collector() {
        runner = runner.trace(c);
    }
    let report = runner.serve(RequestSpec::corpus().config(cfg).threads(threads));
    let results = &report.results;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 3. Successfully synthesised loops per program (timeout {timeout}s ≈ paper's 2h scaled).\n"
    );
    let _ = writeln!(
        out,
        "{:10} {:>12} {:>14} {:>14}",
        "", "synthesised", "avg (min)", "median (min)"
    );
    let mut total_ok = 0;
    let mut total_n = 0;
    for app in APPS {
        let rows: Vec<_> = results.iter().filter(|r| r.entry.app == app).collect();
        if rows.is_empty() {
            let _ = writeln!(
                out,
                "{:10} {:>12} {:>14} {:>14}",
                app.name(),
                "0/0",
                "n/a",
                "n/a"
            );
            continue;
        }
        let ok: Vec<_> = rows.iter().filter(|r| r.summary.is_some()).collect();
        let mut times: Vec<f64> = ok.iter().map(|r| minutes(r.elapsed)).collect();
        let avg = if times.is_empty() {
            f64::NAN
        } else {
            times.iter().sum::<f64>() / times.len() as f64
        };
        let med = median(&mut times);
        total_ok += ok.len();
        total_n += rows.len();
        let _ = writeln!(
            out,
            "{:10} {:>12} {:>14} {:>14}",
            app.name(),
            format!("{}/{}", ok.len(), rows.len()),
            if avg.is_nan() {
                "n/a".to_string()
            } else {
                format!("{avg:.2}")
            },
            if med.is_nan() {
                "n/a".to_string()
            } else {
                format!("{med:.2}")
            },
        );
    }
    let mut all_times: Vec<f64> = results
        .iter()
        .filter(|r| r.summary.is_some())
        .map(|r| minutes(r.elapsed))
        .collect();
    let avg = all_times.iter().sum::<f64>() / all_times.len().max(1) as f64;
    let med = median(&mut all_times);
    let _ = writeln!(
        out,
        "{:10} {:>12} {:>14.2} {:>14.2}",
        "Total",
        format!("{total_ok}/{total_n}"),
        avg,
        med
    );

    let _ = writeln!(out, "\nPer-loop detail:");
    for r in results {
        let _ = writeln!(
            out,
            "  {:12} {:>8.1}s  {}",
            r.entry.id,
            r.elapsed.as_secs_f64(),
            match &r.summary {
                Some(s) => s.describe(),
                None => format!("FAIL ({})", r.failure.clone().unwrap_or_default()),
            }
        );
    }

    let _ = writeln!(out, "\n{}", telemetry_report(results));

    print!("{out}");
    write_result("table3.txt", &out);
    write_result(
        "table3_solver.json",
        &format!(
            "{{\"timeout_secs\":{timeout},\"synthesised\":{total_ok},\"loops\":{total_n},\"telemetry\":{}}}\n",
            report.telemetry.to_json()
        ),
    );

    // Refresh the summaries cache for the downstream figure binaries.
    let cache = strsum_bench::results_dir().join("summaries.tsv");
    let mut file = std::fs::File::create(cache).expect("cache");
    use std::io::Write as _;
    for r in results {
        let enc = match &r.summary {
            Some(s) => s
                .encode()
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect::<String>(),
            None => "-".to_string(),
        };
        writeln!(file, "{}\t{}", r.entry.id, enc).expect("cache write");
    }
    trace.finish();
}
