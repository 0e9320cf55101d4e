//! The resource-governor and graceful-degradation audit (PR 5).
//!
//! Four passes over a corpus slice:
//!
//! 1. **serial clean** — 1 thread, no faults: the baseline
//!    outcomes, and the reference for every later comparison.
//! 2. **parallel clean** — ≥ 2 threads: must match pass 1
//!    byte-for-byte (programs, failures, outcomes), excepting verdicts
//!    that raced a budget (`stats.exhausted` set on either side).
//! 3. **ungoverned serial** — pass 1 with `Budget::governed = false`
//!    (no in-solver deadline polling): measures what the governor's
//!    cancellation/deadline checks cost. The sample is best-of-3 per-loop
//!    timings over the fastest loops that complete within budget on both
//!    sides — budget-bound loops finish *faster* governed, and single-shot
//!    timings on a shared host swing far more than the 2% target, so both
//!    are excluded. Reported (target ≤ 2%) but not hard-gated.
//! 4. **faulted** — a seeded [`FaultPlan`] (one worker panic, one forced
//!    solver `Unknown`, one expired deadline) over loops pass 1
//!    summarised, first with `retries = 0` to pin the [`LoopOutcome`]
//!    classification, then with `retries = 1` to prove the quarantine
//!    lane recovers the budget-exhausted loops.
//!
//! Classification or determinism violations exit 1. Results land in
//! `results/BENCH_pr5.json`.
//!
//! Usage: `cargo run --release -p strsum-bench --bin fault_audit
//!         [--limit N] [--timeout-secs N] [--threads N] [--seed N]`

use std::fmt::Write as _;
use std::time::{Duration, Instant};
use strsum_bench::{
    loop_specs, write_result, Cli, CorpusRunner, FaultPlan, LoopSynth, PlanSpec, RequestSpec,
};
use strsum_core::{Budget, BudgetKind, LoopOutcome, SynthesisConfig};
use strsum_obs::ToJson;

fn main() {
    let cli = Cli::from_env();
    cli.validate(&["--limit", "--seed"]);
    let limit: usize = cli.parsed("--limit", 18);
    let timeout: f64 = cli.timeout_secs(10.0);
    let threads = cli.threads().max(2);
    let seed: u64 = cli.parsed("--seed", 2019);

    let mut entries = strsum_corpus::corpus();
    entries.truncate(limit);
    let budget = Budget::default().with_wall(Duration::from_secs_f64(timeout));
    let cfg = SynthesisConfig {
        budget,
        ..Default::default()
    };
    println!(
        "fault audit: {} loops, {timeout}s/loop, {threads} threads",
        entries.len()
    );

    // Pass 1: serial clean baseline.
    println!("pass 1/4: serial clean baseline…");
    let start = Instant::now();
    let serial = CorpusRunner::new(PlanSpec::serial().corpus_order()).serve(
        RequestSpec::corpus_slice(limit)
            .config(cfg.clone())
            .threads(1),
    );
    let serial_makespan = start.elapsed();
    assert_eq!(
        serial.outcomes.total(),
        entries.len(),
        "every loop resolves to exactly one outcome"
    );

    // Pass 2: parallel clean — byte-identity with pass 1.
    println!("pass 2/4: parallel clean (byte-identity audit)…");
    let parallel = CorpusRunner::new(PlanSpec::serial().corpus_order()).serve(
        RequestSpec::corpus_slice(limit)
            .config(cfg.clone())
            .threads(threads),
    );
    let mut violations: Vec<String> = Vec::new();
    let mut timing_races = 0usize;
    for (a, b) in serial.results.iter().zip(&parallel.results) {
        if a.stats.exhausted.is_some() || b.stats.exhausted.is_some() {
            // A budget tripped on at least one side: the verdict raced the
            // clock and may legitimately differ between runs.
            timing_races += 1;
            continue;
        }
        let pa = a.summary.as_ref().map(strsum_core::Summary::encode);
        let pb = b.summary.as_ref().map(strsum_core::Summary::encode);
        if pa != pb || a.failure != b.failure || a.outcome != b.outcome {
            violations.push(format!(
                "{}: serial {:?}/{} vs parallel {:?}/{}",
                a.entry.id, pa, a.outcome, pb, b.outcome
            ));
        }
    }
    println!(
        "  {} loops byte-identical, {timing_races} timing races, {} violations",
        entries.len() - timing_races - violations.len(),
        violations.len()
    );

    // Pass 3: governor overhead — the same serial run without in-solver
    // deadline/cancel polling.
    println!("pass 3/4: ungoverned serial (governor-overhead measurement)…");
    let ungoverned_cfg = SynthesisConfig {
        budget: Budget {
            governed: false,
            ..budget
        },
        ..cfg.clone()
    };
    let start = Instant::now();
    let ungoverned = CorpusRunner::new(PlanSpec::serial().corpus_order()).serve(
        RequestSpec::corpus_slice(limit)
            .config(ungoverned_cfg)
            .threads(1),
    );
    let ungoverned_makespan = start.elapsed();
    println!(
        "  makespan: governed {:.2}s vs ungoverned {:.2}s",
        serial_makespan.as_secs_f64(),
        ungoverned_makespan.as_secs_f64()
    );
    // On budget-bound loops the governor *helps* (it cuts a doomed solve
    // off mid-flight instead of at the next CEGIS iteration), and on a
    // shared host single-shot timings swing by ±10% — both would swamp a
    // 2% polling cost. So the overhead sample is min-of-REPS per-loop
    // timings over the fastest loops that complete within budget on both
    // sides: identical deterministic work, minimum strips scheduler noise.
    let mut clean: Vec<usize> = (0..entries.len())
        .filter(|&i| {
            serial.results[i].stats.exhausted.is_none()
                && ungoverned.results[i].stats.exhausted.is_none()
        })
        .collect();
    clean.sort_by_key(|&i| serial.results[i].elapsed);
    clean.truncate(6);
    let subset: Vec<_> = clean.iter().map(|&i| entries[i].clone()).collect();
    const REPS: usize = 3;
    let min_elapsed = |governed: bool| -> Vec<Duration> {
        let mut mins = vec![Duration::MAX; subset.len()];
        for _ in 0..REPS {
            let report = CorpusRunner::new(PlanSpec::serial().corpus_order()).serve(
                RequestSpec::loops(loop_specs(&subset))
                    .config(SynthesisConfig {
                        budget: Budget { governed, ..budget },
                        ..cfg.clone()
                    })
                    .threads(1),
            );
            for (m, r) in mins.iter_mut().zip(&report.results) {
                *m = (*m).min(r.elapsed);
            }
        }
        mins
    };
    let clean_loops = subset.len();
    let overhead_pct = if subset.is_empty() {
        println!("  no loop completed on both sides; overhead not measurable at this budget");
        0.0
    } else {
        let governed_clean: f64 = min_elapsed(true).iter().map(Duration::as_secs_f64).sum();
        let ungoverned_clean: f64 = min_elapsed(false).iter().map(Duration::as_secs_f64).sum();
        let pct = 100.0 * (governed_clean - ungoverned_clean) / ungoverned_clean.max(1e-9);
        println!(
            "  best-of-{REPS} over the {clean_loops} fastest clean loops: governed \
             {governed_clean:.2}s vs ungoverned {ungoverned_clean:.2}s → overhead {pct:+.2}% \
             (target ≤ 2%)"
        );
        pct
    };

    // Pass 4: seeded faults over loops the clean run summarised, so the
    // recovery expectation is well-defined.
    let summarised_ids: Vec<&str> = serial
        .results
        .iter()
        .filter(|r| r.summary.is_some())
        .map(|r| r.entry.id.as_str())
        .collect();
    assert!(
        summarised_ids.len() >= 3,
        "need ≥ 3 summarised loops to fault (got {}); raise --limit",
        summarised_ids.len()
    );
    let plan = FaultPlan::seeded(seed, &summarised_ids);
    let mut planned: Vec<(String, String)> = plan
        .iter()
        .map(|(id, f)| (id.to_string(), f.encode()))
        .collect();
    planned.sort();
    println!("pass 4/4: seeded faults {planned:?}, then quarantine retry…");

    // 4a: no retries — pin the classification of each injected fault.
    let faulted = CorpusRunner::new(PlanSpec::serial().corpus_order())
        .fault_plan(plan.clone())
        .serve(
            RequestSpec::corpus_slice(limit)
                .config(cfg.clone())
                .threads(threads),
        );
    assert_eq!(
        faulted.results.len(),
        entries.len(),
        "a faulted run still resolves every loop"
    );
    let outcome_of = |results: &[LoopSynth], id: &str| -> LoopOutcome {
        results
            .iter()
            .find(|r| r.entry.id == id)
            .expect("faulted id is in the slice")
            .outcome
            .clone()
    };
    for (id, fault) in plan.iter() {
        let got = outcome_of(&faulted.results, id);
        let ok = match fault.encode().as_str() {
            "panic" => matches!(got, LoopOutcome::Crashed(_)),
            "deadline" => got == LoopOutcome::BudgetExhausted(BudgetKind::Wall),
            // A forced Unknown surfaces wherever the loop's first query
            // runs; the solver lane (conflicts) is the common case but a
            // verify-side injection classifies as the wall axis.
            _ => matches!(got, LoopOutcome::BudgetExhausted(_)),
        };
        if ok {
            println!("  {id}: {} → {got} ✓", fault.encode());
        } else {
            violations.push(format!(
                "{id}: injected {} but classified {got}",
                fault.encode()
            ));
        }
    }

    // 4b: one retry round — budget-exhausted loops must recover (they all
    // summarised cleanly in pass 1, and the retry lane runs fault-free).
    let recovered = CorpusRunner::new(PlanSpec::serial().corpus_order())
        .fault_plan(plan.clone())
        .serve(
            RequestSpec::corpus_slice(limit)
                .config(SynthesisConfig {
                    budget: Budget {
                        retries: 1,
                        ..cfg.budget
                    },
                    ..cfg
                })
                .threads(threads),
        );
    let mut recoveries = 0usize;
    for (id, fault) in plan.iter() {
        let got = outcome_of(&recovered.results, id);
        match fault.encode().as_str() {
            "panic" => {
                // Crashed loops are not budget exhaustions: the quarantine
                // lane must leave them alone.
                if !matches!(got, LoopOutcome::Crashed(_)) {
                    violations.push(format!("{id}: crashed loop resurfaced as {got}"));
                }
            }
            _ => {
                if matches!(got, LoopOutcome::Summarized | LoopOutcome::Degraded) {
                    recoveries += 1;
                    println!("  {id}: recovered by retry ✓");
                } else {
                    violations.push(format!(
                        "{id}: retry failed to recover {} (outcome {got})",
                        fault.encode()
                    ));
                }
            }
        }
    }
    println!(
        "  retry lane: {} attempted, {} recovered ({} rounds)",
        recovered.retries.retried, recovered.retries.recovered, recovered.retries.rounds
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"config\": {{\"loops\":{},\"timeout_secs\":{timeout},\"threads\":{threads},\"seed\":{seed},\"cores\":{}}},",
        entries.len(),
        strsum_corpus::plan::detected_cores()
    );
    let _ = writeln!(json, "  \"clean_outcomes\": {},", serial.outcomes.to_json());
    let _ = writeln!(
        json,
        "  \"faulted_outcomes\": {},",
        faulted.outcomes.to_json()
    );
    let _ = writeln!(
        json,
        "  \"recovered_outcomes\": {},",
        recovered.outcomes.to_json()
    );
    let _ = writeln!(json, "  \"retries\": {},", recovered.retries.to_json());
    let _ = writeln!(json, "  \"fault_recoveries\": {recoveries},");
    let _ = writeln!(
        json,
        "  \"planned_faults\": [{}],",
        planned
            .iter()
            .map(|(id, f)| format!("{{\"id\":\"{id}\",\"fault\":\"{f}\"}}"))
            .collect::<Vec<_>>()
            .join(",")
    );
    let _ = writeln!(
        json,
        "  \"governed_makespan_secs\": {:.3},",
        serial_makespan.as_secs_f64()
    );
    let _ = writeln!(
        json,
        "  \"ungoverned_makespan_secs\": {:.3},",
        ungoverned_makespan.as_secs_f64()
    );
    let _ = writeln!(
        json,
        "  \"governor_overhead_percent\": {overhead_pct:.2},\n  \"overhead_sample_loops\": {clean_loops},"
    );
    let _ = writeln!(json, "  \"timing_races\": {timing_races},");
    let _ = writeln!(json, "  \"violations\": {}", violations.len());
    let _ = writeln!(json, "}}");
    write_result("BENCH_pr5.json", &json);

    if !violations.is_empty() {
        eprintln!("FAULT AUDIT VIOLATIONS:");
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
    println!("fault audit passed");
}
