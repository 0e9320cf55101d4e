//! Generates the "appendix": every corpus loop with its synthesised
//! summary, the recognised library idiom, and the refactored C — the
//! artefact a maintainer would actually review.
//!
//! Usage: `cargo run --release -p strsum-bench --bin appendix [--trace PATH]`
//! (uses the summaries cache produced by `table3`, synthesising it first
//! if absent).

use std::fmt::Write as _;
use std::time::Duration;
use strsum_bench::write_result;
use strsum_bench::{Cli, CorpusRunner, PlanSpec, RequestSpec};
use strsum_core::SynthesisConfig;

fn main() {
    let cli = Cli::from_env();
    cli.validate(&[]);
    let trace = cli.trace();
    let cfg = SynthesisConfig {
        budget: cli.budget(strsum_core::Budget::default().with_wall(Duration::from_secs(20))),
        ..Default::default()
    };
    let summaries = CorpusRunner::new(PlanSpec::serial())
        .persist_costs(true)
        .serve(
            RequestSpec::corpus()
                .config(cfg)
                .threads(cli.threads())
                .reuse_summaries(true),
        )
        .summaries();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Appendix: synthesised summaries for the 115-loop corpus.\n"
    );
    let mut synthesised = 0;
    let mut idioms = 0;
    for (entry, program) in &summaries {
        let _ = writeln!(out, "### {} — {}", entry.id, entry.description);
        match program {
            None => {
                let _ = writeln!(out, "    (not synthesised)\n");
            }
            Some(p) => {
                synthesised += 1;
                let _ = writeln!(out, "    program : {p}");
                if let Some(idiom) = strsum_gadgets::recognize(p) {
                    idioms += 1;
                    let _ = writeln!(out, "    idiom   : {}", idiom.to_c("s"));
                }
                match strsum_refactor::rewrite(&entry.source, p) {
                    Ok(refactored) => {
                        for line in refactored.lines() {
                            let _ = writeln!(out, "    | {line}");
                        }
                    }
                    Err(e) => {
                        let _ = writeln!(out, "    (rewrite failed: {e})");
                    }
                }
                let _ = writeln!(out);
            }
        }
    }
    let _ = writeln!(
        out,
        "{synthesised}/{} summarised; {idioms} map to a single library idiom.",
        summaries.len()
    );
    print!("{out}");
    write_result("appendix.txt", &out);
    trace.finish();
}
