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
//! Four gates, all hard (exit 1 on violation):
//!
//! * **byte identity** — every configuration must explore the identical
//!   path set (rendered constraints + outcome, per path, in order:
//!   `path_set_identity`), and synthesis with the fast path on/off must
//!   produce byte-identical programs and failure verdicts on a corpus
//!   slice (`synthesis_identity`).
//! * **performance** — the theory layer must answer ≥ 50% of feasibility
//!   queries without reaching the SAT solver (`theory_hit_rate`), and the
//!   full pipeline must spend fewer SAT propagations than the pure-SAT
//!   baseline (`sat_propagations_saved` ≥ 1).
//!
//! Results land in `results/audit/feasibility_audit.json`.
//!
//! Usage: `cargo run --release -p strsum-bench --bin feasibility_audit
//!         [--limit N] [--len N] [--synth-limit N] [--timeout-secs N]`

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use strsum_bench::report::object;
use strsum_bench::{Cli, Gate, Report};
use strsum_core::{synthesize, SynthesisConfig};
use strsum_obs::{fmt_f64, ToJson};
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
}

impl ToJson for Agg {
    fn to_json(&self) -> String {
        format!(
            "{{\"wall_secs\":{},\"paths\":{},\"queries\":{},\"theory_sat\":{},\"theory_unsat\":{},\"cache_hits\":{},\"sat_queries\":{},\"sat_propagations\":{},\"sat_conflicts\":{}}}",
            fmt_f64(self.wall.as_secs_f64()),
            self.paths,
            self.queries,
            self.theory_sat,
            self.theory_unsat,
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
        let _ = match &p.outcome {
            SymOutcome::Ret(v) => write!(out, "ret {v:?}"),
            SymOutcome::Abort(m) => write!(out, "abort {m}"),
        };
        out.push('\n');
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

fn main() -> ExitCode {
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
    let mut path_violations: Vec<String> = Vec::new();
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
                path_violations.push(format!(
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
    let mut synth_violations: Vec<String> = Vec::new();
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
            synth_violations.push(format!(
                "{}: fast path on/off synthesised different programs",
                entry.id
            ));
        }
        if on.stats.failure != off.stats.failure {
            synth_violations.push(format!(
                "{}: fast path on/off failed differently ({:?} vs {:?})",
                entry.id, on.stats.failure, off.stats.failure
            ));
        }
    }
    println!("  {synth_compared} loops compared byte-for-byte");

    let mut report = Report::new("feasibility_audit");
    report.config("loops", entries.len() as f64);
    report.config("len", len as f64);
    report.config("timeout_secs", timeout);
    report.config("synth_limit", synth_limit as f64);
    let (fast, pure) = (&aggs[0], &aggs[2]);
    report.gate(Gate::at_least("theory_hit_rate", 0.5, fast.theory_rate()));
    // Fewer propagations than pure SAT: at least one saved.
    let saved = pure.sat_propagations as f64 - fast.sat_propagations as f64;
    report.gate(Gate::at_least("sat_propagations_saved", 1.0, saved));
    report.gate(Gate::none("path_set_identity", path_violations));
    report.gate(Gate::none("synthesis_identity", synth_violations));
    report.metric("compared", "loops", compared as f64);
    report.metric("skipped", "loops", skipped as f64);
    report.metric("synth_compared", "loops", synth_compared as f64);
    for (cfg, agg) in CONFIGS.iter().zip(&aggs) {
        let name = |metric: &str| format!("{}.{metric}", cfg.name);
        report.metric(&name("paths_per_sec"), "paths/s", agg.paths_per_sec());
        report.metric(&name("theory_hit_rate"), "ratio", agg.theory_rate());
    }
    report.detail(
        "configs",
        object(
            CONFIGS
                .iter()
                .zip(&aggs)
                .map(|(c, a)| (c.name, a.to_json())),
        ),
    );
    report.finish()
}
