//! Table 4: optimising the vocabulary with Gaussian-process Bayesian
//! optimisation (§4.2.3).
//!
//! The GP evaluates the success function s(vocabulary) = number of loops
//! synthesised with `max_prog_size = 7` and a short per-loop timeout
//! (paper: 5 min; scaled default 2 s). 30 evaluations, then the ranked
//! vocabularies that beat the full-vocabulary baseline are reported.
//!
//! Usage: `cargo run --release -p strsum-bench --bin table4
//!         [--timeout-secs N] [--evals N] [--threads N] [--seed N] [--trace PATH]`

use std::fmt::Write as _;
use std::time::Duration;
use strsum_bench::{write_result, Cli, CorpusRunner, PlanSpec, RequestSpec};
use strsum_core::{Budget, SolverTelemetry, SynthesisConfig, Vocab};
use strsum_gp::{BayesOpt, Observation};

fn main() {
    let cli = Cli::from_env();
    cli.validate(&["--evals", "--seed"]);
    let trace = cli.trace();
    let timeout: f64 = cli.timeout_secs(2.0);
    let evals: usize = cli.parsed("--evals", 30);
    let threads = cli.threads();
    let seed: u64 = cli.parsed("--seed", 2019);

    let runner = CorpusRunner::new(PlanSpec::serial()).persist_costs(true);
    let success = |vocab: Vocab| -> (usize, SolverTelemetry) {
        let cfg = SynthesisConfig {
            vocab,
            max_prog_size: 7,
            budget: Budget::default().with_wall(Duration::from_secs_f64(timeout)),
            ..Default::default()
        };
        let report = runner.serve(RequestSpec::corpus().config(cfg).threads(threads));
        let ok = report
            .results
            .iter()
            .filter(|r| r.summary.is_some())
            .count();
        (ok, report.telemetry)
    };

    // Baseline: the full vocabulary at the same budget (the analogue of the
    // §4.2.1 2-hour experiment to beat).
    println!("baseline: full vocabulary, size 7, {timeout}s/loop…");
    let (baseline, _) = success(Vocab::full());
    println!("baseline synthesises {baseline} loops");

    let mut opt = BayesOpt::new(13, seed);
    let mut effort = SolverTelemetry::default();
    for i in 0..evals {
        let bits = opt.suggest();
        let vocab = Vocab::from_bits(bits);
        let (ok, t) = success(vocab);
        let y = ok as f64;
        effort = SolverTelemetry {
            search: effort.search.plus(&t.search),
            verify: effort.verify.plus(&t.verify),
        };
        let s = t.total();
        println!(
            "eval {:>2}/{evals}: {vocab:13} → {y} ({} queries, {} conflicts)",
            i + 1,
            s.queries,
            s.conflicts
        );
        opt.observe(Observation { x: bits, y });
    }

    let mut ranked: Vec<_> = opt.observations().to_vec();
    ranked.sort_by(|a, b| b.y.total_cmp(&a.y));

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 4. Vocabularies found by GP optimisation ({evals} evaluations, size 7, {timeout}s/loop).\n"
    );
    let _ = writeln!(out, "Full-vocabulary baseline: {baseline} loops\n");
    let _ = writeln!(out, "{:16} {:>12}", "Vocabulary", "Synthesised");
    let mut beat = 0;
    for o in ranked.iter().take(10) {
        let v = Vocab::from_bits(o.x);
        let _ = writeln!(out, "{:16} {:>12}", v.to_string(), o.y as usize);
        if o.y as usize > baseline {
            beat += 1;
        }
    }
    let _ = writeln!(
        out,
        "\n{beat} of the top-10 GP vocabularies beat the full-vocabulary baseline."
    );
    if let Some((bx, by)) = opt.best() {
        let _ = writeln!(
            out,
            "Best: {} with {} loops (paper: MPNIFV with 81).",
            Vocab::from_bits(bx),
            by as usize
        );
    }
    let s = effort.total();
    let _ = writeln!(
        out,
        "\nSolver effort across the {evals} GP evaluations: {} queries, {} conflicts, {} propagations, {} learnt clauses, {} blast-cache hits.",
        s.queries, s.conflicts, s.propagations, s.learnts, s.blast_hits
    );

    print!("{out}");
    write_result("table4.txt", &out);
    trace.finish();
}
