//! Concrete-first + multi-worker ablations and determinism audits over a
//! corpus slice.
//!
//! Five passes:
//!
//! 1. **screened** — the default pipeline: concrete-first screening +
//!    OE-class blocking inside incremental sessions, behind the
//!    cross-loop summary store (every hit re-verified).
//! 2. **baseline** — screening and cache off, incremental sessions on:
//!    the PR-1 pipeline, i.e. the ablation reference for "how many solver
//!    queries does concrete-first screening remove?".
//! 3. **screened from-scratch** — pass 1 with throwaway solvers. Canonical
//!    model extraction makes passes 1 and 3 synthesise byte-identical
//!    programs; any divergence is a determinism violation.
//! 4. **serial reference** — pass 1 pinned to 1 thread with cost-aware
//!    scheduling on, populating the per-loop cost book
//!    (`results/costs.tsv`) and measuring the serial makespan.
//! 5. **multi-worker serial** — pass 4 with ≥ 2 corpus threads and
//!    longest-job-first dispatch from pass 4's cost book. Dispatch order
//!    never reaches synthesis, so passes 4 and 5 synthesise
//!    byte-identical programs; any divergence is a determinism violation.
//!
//! The run fails (exit 1) on any determinism violation and on any
//! screen-layer/solver disagreement — a candidate the symbolic circuit
//! and the gadget interpreter judge differently, or a solver re-entry
//! into a blocked OE class (`oe_class_hits > 0`). All audits are wired
//! into CI.
//!
//! Results land in `results/audit/bench_incremental.json`: one gate per
//! audit, each pass's counters and the makespans as metrics, per-loop
//! speedups as detail.
//!
//! With `--trace PATH` the run also writes a Chrome `trace_event` JSON of
//! every instrumented phase and *reconciles* it against the solver
//! telemetry: the per-query deltas attached to `smt.check`/`smt.canonical`
//! spans with the `search`/`verify` role tags must sum to exactly the
//! aggregated `SolverTelemetry` query count (the symex engine's own solver
//! queries carry the `smt` tag and are outside the telemetry by design).
//! A mismatch fails the run.
//!
//! Usage: `cargo run --release -p strsum-bench --bin bench_incremental
//!         [--limit N] [--timeout-secs N] [--threads N] [--trace PATH]`

use std::process::ExitCode;
use std::time::{Duration, Instant};
use strsum_bench::report::{array, object, string};
use strsum_bench::{
    aggregate_screen, aggregate_telemetry, Cli, CorpusRunner, Gate, LoopSynth, PlanSpec, Report,
    RequestSpec,
};
use strsum_core::{Budget, SynthesisConfig};
use strsum_corpus::corpus;
use strsum_obs::{fmt_f64, ToJson};

fn config(screen: bool, incremental: bool, timeout: f64) -> SynthesisConfig {
    SynthesisConfig {
        budget: Budget::default().with_wall(Duration::from_secs_f64(timeout)),
        incremental,
        screen,
        ..Default::default()
    }
}

/// Screen-layer/solver disagreements in one pass: hard failures flagged by
/// the session plus any solver re-entry into a blocked OE class.
fn disagreements(results: &[LoopSynth]) -> Vec<String> {
    let mut out = Vec::new();
    for r in results {
        if let Some(f) = &r.failure {
            if f.contains("screen/solver disagreement") {
                out.push(format!("{}: {f}", r.entry.id));
            }
        }
        if r.stats.screen.oe_class_hits > 0 {
            out.push(format!(
                "{}: solver re-explored {} blocked OE class(es)",
                r.entry.id, r.stats.screen.oe_class_hits
            ));
        }
    }
    out
}

fn main() -> ExitCode {
    let cli = Cli::from_env();
    cli.validate(&["--limit", "--verbose"]);
    let trace = cli.trace();
    let limit: usize = cli.parsed("--limit", 24);
    let timeout: f64 = cli.timeout_secs(10.0);
    if !timeout.is_finite() || timeout <= 0.0 {
        eprintln!("error: --timeout-secs must be a positive number of seconds");
        std::process::exit(2);
    }
    let threads = cli.threads();
    let verbose = cli.flag("--verbose");

    let mut entries = corpus();
    entries.truncate(limit);
    println!(
        "concrete-first ablation: {} loops, {timeout}s/loop, {threads} threads",
        entries.len()
    );

    // Passes 1–3 pin corpus-order dispatch so the screening ablation and
    // its audit stay independent of whatever cost book is on disk; passes
    // 4–5 use cost-ordered plans (pass 4 populates the book pass 5
    // schedules from).
    let run = |cfg: SynthesisConfig, cached: bool, n: usize, plan: PlanSpec| {
        let mut runner = CorpusRunner::new(plan).persist_costs(true);
        if let Some(c) = trace.collector() {
            runner = runner.trace(c);
        }
        let start = Instant::now();
        let report = runner.serve(
            RequestSpec::corpus_slice(limit)
                .config(cfg)
                .threads(n)
                .cache(cached),
        );
        (report, start.elapsed())
    };
    println!("pass 1/5: screened + cached, incremental sessions…");
    let (r1, _) = run(
        config(true, true, timeout),
        true,
        threads,
        PlanSpec::serial().corpus_order(),
    );
    let (screened, cache) = (r1.results, r1.cache);
    println!("pass 2/5: baseline (no screen, no cache), incremental sessions…");
    let baseline = run(
        config(false, true, timeout),
        false,
        threads,
        PlanSpec::serial().corpus_order(),
    )
    .0
    .results;
    println!("pass 3/5: screened + cached, from-scratch reference…");
    let (r3, _) = run(
        config(true, false, timeout),
        true,
        threads,
        PlanSpec::serial().corpus_order(),
    );
    let (scratch, scratch_cache) = (r3.results, r3.cache);
    println!("pass 4/5: serial reference (1 thread, recording costs)…");
    let (r4, serial_makespan) = run(config(true, true, timeout), true, 1, PlanSpec::serial());
    let (serial, serial_cache) = (r4.results, r4.cache);
    let threads_parallel = threads.max(2);
    println!("pass 5/5: serial at {threads_parallel} threads (cost-ordered dispatch)…");
    let (r5, parallel_makespan) = run(
        config(true, true, timeout),
        true,
        threads_parallel,
        PlanSpec::serial(),
    );
    let (parallel, parallel_cache) = (r5.results, r5.cache);

    // Determinism audits: identical programs, identical failure kinds,
    // between two passes that must agree byte-for-byte. (Timeout-bounded
    // runs can legitimately diverge only when a loop's verdict raced the
    // clock; count those separately.)
    let audit = |xs: &[LoopSynth], ys: &[LoopSynth], label_x: &str, label_y: &str| {
        let mut mismatches = Vec::new();
        let mut timing_races = 0usize;
        for (a, b) in xs.iter().zip(ys) {
            let pa = a.summary.as_ref().map(strsum_core::Summary::encode);
            let pb = b.summary.as_ref().map(strsum_core::Summary::encode);
            if pa == pb {
                continue;
            }
            // Structured check first (any tripped budget axis, including a
            // degraded success whose minimisation the budget cut short),
            // with the legacy failure strings kept as a belt-and-braces
            // fallback.
            let timeout_involved = [a, b].iter().any(|r| {
                r.stats.degraded
                    || r.stats.exhausted.is_some()
                    || matches!(
                        r.failure.as_deref(),
                        Some("timeout" | "solver gave up on candidate search")
                    )
            });
            if timeout_involved {
                timing_races += 1;
            } else {
                mismatches.push(format!(
                    "{}: {label_x} {:?} vs {label_y} {:?}",
                    a.entry.id, pa, pb
                ));
            }
        }
        (mismatches, timing_races)
    };
    let (mismatches, timing_races) = audit(&screened, &scratch, "incremental", "from-scratch");
    let (par_mismatches, par_races) = audit(&serial, &parallel, "serial", "parallel");
    if verbose {
        for (s, b) in screened.iter().zip(&baseline) {
            let show = |r: &LoopSynth| match (&r.summary, &r.failure) {
                (Some(p), _) => format!("{:?}", String::from_utf8_lossy(&p.encode())),
                (None, Some(f)) => format!("FAIL({f})"),
                (None, None) => "FAIL(?)".to_string(),
            };
            println!(
                "  {:>28}  screened {:>6.2}s {:<28} baseline {:>6.2}s {}",
                s.entry.id,
                s.elapsed.as_secs_f64(),
                show(s),
                b.elapsed.as_secs_f64(),
                show(b)
            );
        }
    }
    let mut disagreed = disagreements(&screened);
    disagreed.extend(disagreements(&baseline));
    disagreed.extend(disagreements(&scratch));
    disagreed.extend(disagreements(&serial));
    disagreed.extend(disagreements(&parallel));

    let count_ok = |rs: &[LoopSynth]| rs.iter().filter(|r| r.summary.is_some()).count();
    let screened_q = aggregate_telemetry(&screened).total().queries;
    let baseline_q = aggregate_telemetry(&baseline).total().queries;
    let reduction = 100.0 * (1.0 - screened_q as f64 / baseline_q.max(1) as f64);
    let screened_secs: f64 = screened.iter().map(|r| r.elapsed.as_secs_f64()).sum();
    let baseline_secs: f64 = baseline.iter().map(|r| r.elapsed.as_secs_f64()).sum();
    let scratch_secs: f64 = scratch.iter().map(|r| r.elapsed.as_secs_f64()).sum();
    let sstats = aggregate_screen(&screened);
    println!(
        "screened : {:>8.2}s wall-clock, {:>8} solver queries, {}/{} synthesised, {} cache hits, {} screen rejects",
        screened_secs,
        screened_q,
        count_ok(&screened),
        entries.len(),
        cache.hits - cache.rejected,
        sstats.screen_rejects
    );
    println!(
        "baseline : {:>8.2}s wall-clock, {:>8} solver queries, {}/{} synthesised",
        baseline_secs,
        baseline_q,
        count_ok(&baseline),
        entries.len()
    );
    println!(
        "ablation : {reduction:.1}% fewer solver queries with concrete-first screening \
         (target ≥ 30%)"
    );
    println!(
        "audit    : identical outcomes on {}/{} loops vs from-scratch ({} timing races), \
         {} disagreements",
        entries.len() - mismatches.len() - timing_races,
        entries.len(),
        timing_races,
        disagreed.len()
    );
    let mut report = Report::new("bench_incremental");
    let cores = report
        .cores()
        .map_or_else(|| "unknown".to_string(), |n| n.to_string());
    let makespan_speedup =
        serial_makespan.as_secs_f64() / parallel_makespan.as_secs_f64().max(1e-9);
    println!(
        "parallel : {:>8.2}s serial makespan vs {:>8.2}s parallel ({makespan_speedup:.2}x on \
         {cores} core(s), {threads_parallel} threads)",
        serial_makespan.as_secs_f64(),
        parallel_makespan.as_secs_f64()
    );
    println!(
        "audit    : identical outcomes on {}/{} loops serial-vs-parallel ({} timing races)",
        entries.len() - par_mismatches.len() - par_races,
        entries.len(),
        par_races
    );

    report.config("loops", entries.len() as f64);
    report.config("timeout_secs", timeout);
    report.config("threads", threads as f64);
    report.config("threads_parallel", threads_parallel as f64);
    report.gate(Gate::none("incremental_vs_scratch_determinism", mismatches));
    report.gate(Gate::none("serial_vs_parallel_determinism", par_mismatches));
    report.gate(Gate::none("screen_solver_disagreements", disagreed));
    // Trace ↔ telemetry reconciliation: every solver query made on behalf
    // of synthesis flows through a `search`- or `verify`-tagged
    // `smt.check`/`smt.canonical` span whose args carry the query delta,
    // so the scheduling-independent span aggregate must account for
    // exactly the telemetry totals (not gated if the ring buffer dropped
    // events — an undercounted aggregate reconciles with nothing).
    if let Some(collector) = trace.collector() {
        let agg = collector.aggregate();
        let mut trace_q: u64 = 0;
        for tag in ["search", "verify"] {
            for name in ["smt.check", "smt.canonical"] {
                trace_q += agg.get(name, tag).map_or(0, |row| row.arg("queries"));
            }
        }
        let telemetry_q = [&screened, &baseline, &scratch, &serial, &parallel]
            .iter()
            .map(|rs| aggregate_telemetry(rs).total().queries)
            .sum::<u64>();
        if collector.dropped() > 0 {
            println!(
                "trace    : ring buffer dropped {} events; skipping reconciliation",
                collector.dropped()
            );
        } else {
            println!("trace    : spans account for {trace_q} queries, telemetry {telemetry_q}");
            report.gate(Gate::at_most(
                "trace_telemetry_query_gap",
                0.0,
                trace_q.abs_diff(telemetry_q) as f64,
            ));
        }
    }

    // Each pass's scalars as `<pass>.*` metrics, its stat structs as the
    // `<pass>` detail.
    for (pass, results, cache) in [
        ("screened", &screened, Some(&cache)),
        ("baseline_no_screen", &baseline, None),
        ("screened_from_scratch", &scratch, Some(&scratch_cache)),
        ("serial", &serial, Some(&serial_cache)),
        ("parallel", &parallel, Some(&parallel_cache)),
    ] {
        let telemetry = aggregate_telemetry(results);
        let count = |f: fn(&LoopSynth) -> bool| results.iter().filter(|r| f(r)).count() as f64;
        let secs = results.iter().map(|r| r.elapsed.as_secs_f64()).sum();
        let iterations = results.iter().map(|r| r.stats.iterations).sum::<usize>() as f64;
        for (metric, unit, value) in [
            ("synthesised", "loops", count(|r| r.summary.is_some())),
            ("wall_clock", "s", secs),
            ("iterations", "iterations", iterations),
            (
                "solver_queries",
                "queries",
                telemetry.total().queries as f64,
            ),
            ("cache_hits", "loops", count(|r| r.cache_hit)),
        ] {
            report.metric(&format!("{pass}.{metric}"), unit, value);
        }
        let cache = cache.map_or("null".to_string(), ToJson::to_json);
        let screen = aggregate_screen(results).to_json();
        let telemetry = telemetry.to_json();
        report.detail(
            pass,
            object([
                ("cache", cache),
                ("screen", screen),
                ("telemetry", telemetry),
            ]),
        );
    }
    let incremental_speedup = scratch_secs / screened_secs.max(1e-9);
    let (races, par_races) = (timing_races as f64, par_races as f64);
    for (name, unit, value) in [
        ("query_reduction", "%", reduction),
        ("incremental_speedup", "x", incremental_speedup),
        ("incremental_vs_scratch_timing_races", "loops", races),
        ("serial_makespan", "s", serial_makespan.as_secs_f64()),
        ("parallel_makespan", "s", parallel_makespan.as_secs_f64()),
        ("makespan_speedup", "x", makespan_speedup),
        ("serial_vs_parallel_timing_races", "loops", par_races),
    ] {
        report.metric(name, unit, value);
    }
    let per_loop = serial.iter().zip(&parallel).map(|(s, p)| {
        let (ss, ps) = (s.elapsed.as_secs_f64(), p.elapsed.as_secs_f64());
        object([
            ("id", string(&s.entry.id)),
            ("serial_secs", fmt_f64(ss)),
            ("parallel_secs", fmt_f64(ps)),
            ("speedup", fmt_f64(ss / ps.max(1e-9))),
        ])
    });
    report.detail("per_loop", array(per_loop));

    // Write the trace before the verdict so a bad run still leaves its
    // timeline on disk for diagnosis.
    trace.finish();
    report.finish()
}
