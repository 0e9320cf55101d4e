//! The layered-feasibility-pipeline ablation and byte-identity audit
//! (PR 7) — a fig5-style pass over the corpus loops.
//!
//! Three symbolic-execution configurations over the same loops at the same
//! symbolic string length:
//!
//! 1. **fast** — the full pipeline: constructive string theory, canonical
//!    constraint-set cache, incremental per-path SAT sessions.
//! 2. **incremental** — theory and cache off, per-path sessions on: what
//!    incrementality alone buys.
//! 3. **pure_sat** — everything off: every feasibility query bit-blasts
//!    the full path condition from scratch (the pre-PR-7 behaviour).
//!
//! Two gates, both hard (exit 1 on violation):
//!
//! * **byte identity** — every configuration must explore the identical
//!   path set (rendered constraints + outcome, per path, in order), and
//!   synthesis with the fast path on/off must produce byte-identical
//!   programs and failure verdicts on a corpus slice.
//! * **performance** — the theory layer must answer ≥ 50% of feasibility
//!   queries without reaching the SAT solver, and the full pipeline must
//!   spend fewer SAT propagations than the pure-SAT baseline.
//!
//! Results land in `results/BENCH_pr7.json`.
//!
//! Usage: `cargo run --release -p strsum-bench --bin feasibility_audit
//!         [--limit N] [--len N] [--synth-limit N] [--timeout-secs N]`

use std::fmt::Write as _;
use std::time::{Duration, Instant};
use strsum_bench::{write_result, Cli};
use strsum_core::{synthesize, SynthesisConfig};
use strsum_smt::TermPool;
use strsum_symex::{Engine, RunStats, SymOutcome, SymbolicRun};

/// Aggregate counters for one configuration over the corpus slice.
#[derive(Default)]
struct Agg {
    wall: Duration,
    paths: u64,
    queries: u64,
    theory_sat: u64,
    theory_unsat: u64,
    cache_hits: u64,
    sat_queries: u64,
    sat_propagations: u64,
    sat_conflicts: u64,
}

impl Agg {
    fn add(&mut self, wall: Duration, s: &RunStats) {
        self.wall += wall;
        self.paths += s.paths as u64;
        self.queries += s.solver_queries;
        self.theory_sat += s.theory_sat;
        self.theory_unsat += s.theory_unsat;
        self.cache_hits += s.cache_hits;
        self.sat_queries += s.sat_queries;
        self.sat_propagations += s.sat_propagations;
        self.sat_conflicts += s.sat_conflicts;
    }

    fn theory_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            (self.theory_sat + self.theory_unsat) as f64 / self.queries as f64
        }
    }

    fn paths_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.paths as f64 / secs
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"wall_secs\":{:.3},\"paths\":{},\"paths_per_sec\":{:.1},\"queries\":{},\"theory_sat\":{},\"theory_unsat\":{},\"theory_hit_rate\":{:.4},\"cache_hits\":{},\"sat_queries\":{},\"sat_propagations\":{},\"sat_conflicts\":{}}}",
            self.wall.as_secs_f64(),
            self.paths,
            self.paths_per_sec(),
            self.queries,
            self.theory_sat,
            self.theory_unsat,
            self.theory_rate(),
            self.cache_hits,
            self.sat_queries,
            self.sat_propagations,
            self.sat_conflicts,
        )
    }
}

/// Pool-independent rendering of a run's path set: per path, the displayed
/// constraints plus the displayed outcome, joined in exploration order.
/// Two runs explore the same paths iff their fingerprints are equal.
fn fingerprint(pool: &TermPool, run: &SymbolicRun) -> String {
    let mut out = String::new();
    for p in &run.paths {
        for &c in &p.constraints {
            let _ = write!(out, "{} && ", pool.display(c));
        }
        match &p.outcome {
            SymOutcome::Ret(v) => {
                let _ = writeln!(out, "ret {v:?}");
            }
            SymOutcome::Abort(m) => {
                let _ = writeln!(out, "abort {m}");
            }
        }
    }
    out
}

struct Config {
    name: &'static str,
    theory: bool,
    cache: bool,
    incremental: bool,
}

const CONFIGS: [Config; 3] = [
    Config {
        name: "fast",
        theory: true,
        cache: true,
        incremental: true,
    },
    Config {
        name: "incremental",
        theory: false,
        cache: false,
        incremental: true,
    },
    Config {
        name: "pure_sat",
        theory: false,
        cache: false,
        incremental: false,
    },
];

fn main() {
    let cli = Cli::from_env();
    cli.validate(&["--len", "--limit", "--synth-limit"]);
    let limit: usize = cli.parsed("--limit", 40);
    let len: usize = cli.parsed("--len", 6);
    let synth_limit: usize = cli.parsed("--synth-limit", 8);
    let timeout: f64 = cli.timeout_secs(10.0);

    let mut entries = strsum_corpus::corpus();
    entries.truncate(limit);
    println!(
        "feasibility audit: {} loops, symbolic length {len}, {timeout}s/loop",
        entries.len()
    );

    let mut aggs: Vec<Agg> = CONFIGS.iter().map(|_| Agg::default()).collect();
    let mut violations: Vec<String> = Vec::new();
    let mut compared = 0usize;
    let mut skipped = 0usize;

    for entry in &entries {
        let Ok(func) = strsum_cfront::compile_one(&entry.source) else {
            skipped += 1;
            continue;
        };
        // One run per configuration; identity is judged only on loops
        // every configuration explores to completion within the deadline.
        let mut runs = Vec::new();
        for cfg in &CONFIGS {
            let start = Instant::now();
            let mut pool = TermPool::new();
            let mut engine = Engine::new(&mut pool);
            engine.use_theory = cfg.theory;
            engine.use_cache = cfg.cache;
            engine.use_incremental = cfg.incremental;
            engine.deadline = Some(start + Duration::from_secs_f64(timeout));
            let run = match engine.run_on_symbolic_string(&func, len) {
                Ok(r) => r,
                Err(_) => {
                    runs.clear();
                    break;
                }
            };
            let wall = start.elapsed();
            if !run.complete {
                runs.clear();
                break;
            }
            runs.push((wall, fingerprint(&pool, &run), run.stats));
        }
        if runs.len() != CONFIGS.len() {
            skipped += 1;
            continue;
        }
        compared += 1;
        for (i, (wall, fp, stats)) in runs.iter().enumerate() {
            aggs[i].add(*wall, stats);
            if *fp != runs[0].1 {
                violations.push(format!(
                    "{}: path set under `{}` differs from `fast`",
                    entry.id, CONFIGS[i].name
                ));
            }
        }
    }
    println!(
        "symbolic pass: {compared} loops compared, {skipped} skipped (incomplete or non-compiling)"
    );
    for (cfg, agg) in CONFIGS.iter().zip(&aggs) {
        println!(
            "  {:>11}: {:>8.1} paths/s  {:>6} queries  theory {:>5.1}%  cache {:>5}  sat {:>6}  props {:>9}",
            cfg.name,
            agg.paths_per_sec(),
            agg.queries,
            100.0 * agg.theory_rate(),
            agg.cache_hits,
            agg.sat_queries,
            agg.sat_propagations,
        );
    }

    // Synthesis byte-identity: the fast path must be invisible in the
    // synthesised summaries, same contract as the PR 4 incremental gate.
    println!("synthesis pass: fast path on vs off over {synth_limit} loops…");
    let mut synth_compared = 0usize;
    for entry in entries.iter().take(synth_limit) {
        let Ok(func) = strsum_cfront::compile_one(&entry.source) else {
            continue;
        };
        let run = |fast: bool| {
            synthesize(
                &func,
                &SynthesisConfig {
                    theory_fast_path: fast,
                    ..SynthesisConfig::with_timeout(Duration::from_secs_f64(timeout))
                },
            )
        };
        let on = run(true);
        let off = run(false);
        // Wall-clock verdicts are the only legitimate divergence.
        let timing = |f: &Option<String>| {
            matches!(
                f.as_deref(),
                Some("timeout" | "solver gave up on candidate search")
            )
        };
        if timing(&on.stats.failure) || timing(&off.stats.failure) {
            continue;
        }
        synth_compared += 1;
        let a = on.program.as_ref().map(|p| p.encode());
        let b = off.program.as_ref().map(|p| p.encode());
        if a != b {
            violations.push(format!(
                "{}: fast path on/off synthesised different programs",
                entry.id
            ));
        }
        if on.stats.failure != off.stats.failure {
            violations.push(format!(
                "{}: fast path on/off failed differently ({:?} vs {:?})",
                entry.id, on.stats.failure, off.stats.failure
            ));
        }
    }
    println!("  {synth_compared} loops compared byte-for-byte");

    // Performance gates.
    let fast = &aggs[0];
    let pure = &aggs[2];
    let theory_ok = fast.theory_rate() >= 0.5;
    let props_ok = fast.sat_propagations < pure.sat_propagations;
    if !theory_ok {
        violations.push(format!(
            "theory hit rate {:.1}% below the 50% gate",
            100.0 * fast.theory_rate()
        ));
    }
    if !props_ok {
        violations.push(format!(
            "fast-path propagations {} not below pure-SAT baseline {}",
            fast.sat_propagations, pure.sat_propagations
        ));
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"config\": {{\"loops\":{},\"len\":{len},\"timeout_secs\":{timeout},\"synth_limit\":{synth_limit},\"cores\":{}}},",
        entries.len(),
        strsum_corpus::plan::detected_cores()
    );
    let _ = writeln!(json, "  \"compared\": {compared},");
    let _ = writeln!(json, "  \"skipped\": {skipped},");
    let _ = writeln!(json, "  \"configs\": {{");
    for (i, (cfg, agg)) in CONFIGS.iter().zip(&aggs).enumerate() {
        let comma = if i + 1 < CONFIGS.len() { "," } else { "" };
        let _ = writeln!(json, "    \"{}\": {}{comma}", cfg.name, agg.to_json());
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"synth_compared\": {synth_compared},");
    let _ = writeln!(
        json,
        "  \"gate\": {{\"theory_rate_ge_50\":{theory_ok},\"propagations_reduced\":{props_ok},\"byte_identity\":{}}},",
        violations.iter().all(|v| !v.contains("differ"))
    );
    let _ = writeln!(json, "  \"violations\": {}", violations.len());
    let _ = writeln!(json, "}}");
    write_result("BENCH_pr7.json", &json);

    if !violations.is_empty() {
        eprintln!("FEASIBILITY AUDIT VIOLATIONS:");
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
    println!("feasibility audit passed");
}
