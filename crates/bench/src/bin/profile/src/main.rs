//! `profile`: one benchmark for the strsum summary daemon and the batch
//! harness — four workloads, end-to-end metrics from an untraced run, a
//! per-layer breakdown from a traced one, and correctness checks on every
//! answer. README.md describes the workloads, metrics and bounds.

mod batch;
mod check;
mod compare;
mod daemon;
mod layers;
mod report;
mod run;
mod stats;
mod workload;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use strsum_bench::Cli;

use crate::run::Ctx;
use crate::workload::Workload;

const USAGE: &str = "usage: profile --workload NAME [--seed N] [--seconds S] [--trace 0|1]
               [--trace-dir DIR] [--work DIR]
       profile compare BASE.json NEW.json [--bench-json FILE]
       profile baseline [--seeds N,N,...] [--seconds S] [--out FILE] [--trace-out FILE]
       profile expected [--out FILE]

Workloads: cold_batch, warm_replay, hit_storm, batch_corpus (see README.md).
Run from the repository root, with strsum-server and trace_check built next
to this binary (run.sh builds all three). The last line of a run is its
result as JSON; the exit code is 0 when every answer checked correct.

  --seed N         input seed (default 11)
  --seconds S      measured time per run (default 20)
  --trace 0|1      1: per-layer metrics from a traced replay (default 0)
  --trace-dir DIR  where a traced run writes its Chrome trace
                   (default .bench_build/profile-trace)
  --work DIR       scratch stores and sockets (default .bench_build/profile-work)
";

/// The command line of one subcommand: `args` after a leading word that
/// [`Cli`] skips, with every flag checked against `known`.
fn cli(first: &str, args: &[String], known: &[&str]) -> Result<Cli, String> {
    let all: Vec<&str> = std::iter::once(first)
        .chain(args.iter().map(String::as_str))
        .collect();
    let cli = Cli::from_args(&all);
    cli.check(known)
        .map_err(|flag| format!("unknown flag {flag}"))?;
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("profile: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let rest = args.get(1..).unwrap_or(&[]);
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [base, new, flags @ ..] = rest else {
                return Err("compare takes two files".into());
            };
            let f = cli("compare", flags, &["--bench-json"])?;
            let bench = f.value("--bench-json").unwrap_or("BENCHMARK.json");
            compare::compare_main(Path::new(base), Path::new(new), Path::new(bench))
        }
        Some("baseline") => {
            let f = cli(
                "baseline",
                rest,
                &["--seeds", "--seconds", "--out", "--trace-out"],
            )?;
            let seeds = f
                .value("--seeds")
                .unwrap_or("11,12,13,14,15")
                .split(',')
                .map(|s| s.trim().parse().map_err(|_| format!("bad seed {s:?}")))
                .collect::<Result<Vec<u64>, String>>()?;
            let out = f.value("--out").unwrap_or("results/profile/baseline.json");
            report::baseline_main(
                &seeds,
                f.parsed("--seconds", 20.0),
                Path::new(out),
                f.value("--trace-out").map(Path::new),
            )
        }
        Some("expected") => {
            let f = cli("expected", rest, &["--out"])?;
            let out = f.value("--out").unwrap_or(check::EXPECTED_PATH);
            check::expected_main(Path::new(out)).map(|()| true)
        }
        Some("batch-child") => {
            let f = cli("batch-child", rest, &["--seed", "--pass"])?;
            batch::child_main(f.parsed("--seed", 11), f.parsed("--pass", 0)).map(|()| true)
        }
        Some("--help" | "-h") => {
            print!("{USAGE}");
            Ok(true)
        }
        _ => run_main(args),
    }
}

/// One benchmark run: prints every metric, then the JSON result line.
fn run_main(args: &[String]) -> Result<bool, String> {
    let f = cli(
        "profile",
        args,
        &["--workload", "--seed", "--seconds", "--trace-dir", "--work"],
    )?;
    let workload = Workload::parse(f.value("--workload").ok_or("--workload is required")?)?;
    let seed: u64 = f.parsed("--seed", 11);
    let seconds: f64 = f.parsed("--seconds", 20.0);
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match f.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bin_dir = exe.parent().ok_or("binary has no directory")?;
    let tool = |name: &str| -> Result<PathBuf, String> {
        let p = bin_dir.join(name);
        if p.is_file() {
            Ok(p)
        } else {
            Err(format!(
                "{} not found: build it first (run.sh)",
                p.display()
            ))
        }
    };
    let server = tool("strsum-server")?;
    let trace_check = if trace {
        Some(tool("trace_check")?)
    } else {
        None
    };
    let expected = check::load_expected(Path::new(check::EXPECTED_PATH))?;
    let work = Path::new(f.value("--work").unwrap_or(run::DEFAULT_WORK_DIR))
        .join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let ctx = Ctx {
        exe: exe.clone(),
        server,
        work: work.clone(),
        seed,
        seconds,
        sources: workload::sources(),
    };
    let trace_dir = PathBuf::from(
        f.value("--trace-dir")
            .unwrap_or(".bench_build/profile-trace"),
    );
    let outcome = run_and_check(
        &ctx,
        workload,
        trace_check.as_deref(),
        &trace_dir,
        &expected,
    );
    let _ = std::fs::remove_dir_all(&work);
    outcome
}

fn run_and_check(
    ctx: &Ctx,
    workload: Workload,
    trace_check: Option<&Path>,
    trace_dir: &Path,
    expected: &HashMap<String, check::Expected>,
) -> Result<bool, String> {
    let m = run::measure(ctx, workload)?;
    let answers: Vec<run::Answer> = m.answers().cloned().collect();
    let mut findings = m.errors.clone();
    let (values, defs, verdict) = match trace_check {
        None => {
            let verdict = check::check(&answers, &m.setup_answers, expected, ctx.seed);
            (
                report::end_to_end(workload, &m),
                report::END_TO_END.to_vec(),
                verdict,
            )
        }
        Some(trace_check) => {
            let t = layers::traced(ctx, workload, &m, trace_dir, trace_check)?;
            findings.extend(t.findings);
            let unmeasured: Vec<run::Answer> =
                m.setup_answers.iter().chain(&t.answers).cloned().collect();
            let verdict = check::check(&answers, &unmeasured, expected, ctx.seed);
            let mut values = t.values;
            values.insert(report::VERDICT_FLIPS.name, verdict.verdict_flips as f64);
            (values, report::per_layer_defs(), verdict)
        }
    };
    findings.extend(verdict.findings);
    for finding in &findings {
        eprintln!("profile: {finding}");
    }
    let attempted = m.attempted();
    let failed = verdict.failed + m.lost();
    let correct = failed == 0 && findings.is_empty();
    println!(
        "# {} seed {}: {} requests in {} passes, {:.2} s, tail = p{}",
        workload.name(),
        ctx.seed,
        attempted,
        m.passes.len(),
        m.passes.iter().map(|p| p.wall).sum::<f64>(),
        stats::tail_percentile(workload.min_samples()).unwrap_or(50)
    );
    report::print_result(correct, attempted, failed, &values, &defs);
    Ok(correct)
}
