//! The recurrence-lane audit (PR 10) — lane-on vs lane-off over the
//! memoryless corpus plus the stateful accumulator corpus.
//!
//! Two passes, five hard gates (exit 1 on violation):
//!
//! 1. **Lane comparison** — every loop is summarised twice, with the
//!    recurrence lane off (the pre-PR-10 pipeline) and on. Gates:
//!
//!    * **byte identity** (`memoryless_byte_identity`) — on the
//!      memoryless fragment (every loop the
//!      lane-off pipeline resolves, success or failure) the lane-on
//!      pipeline must produce byte-identical summary bytes and the same
//!      outcome class. The lane only fires after gadget synthesis has
//!      concluded inexpressible, so turning it on must be invisible to
//!      the fragment.
//!    * **flips** (`flips`) — at least 5 loops that classify
//!      `NotMemoryless` with the lane off must summarise, as closed forms
//!      (`gadget_flips`), with the lane on.
//!    * **verification** (`flip_verification_rate`) — every flipped
//!      closed form must discharge through the bounded verifier
//!      (`verify_summary`), the same soundness root gadget summaries
//!      answer to.
//!
//! 2. **Runner integration** — the stateful corpus runs through
//!    `CorpusRunner` (cache on) so the kind tallies, cache
//!    re-verification and outcome taxonomy cover the new lane; it must
//!    tally at least 5 closed-form summaries (`runner_closed_forms`).
//!
//! Flip counts, verification rate, per-loop cost and the kind tallies
//! land in `results/audit/recur_audit.json`.
//!
//! Usage: `cargo run --release -p strsum-bench --bin recur_audit
//!         [--limit N] [--timeout-secs N]`

use std::process::ExitCode;
use std::time::{Duration, Instant};

use strsum_bench::report::{array, object, string};
use strsum_bench::{loop_specs, Cli, CorpusRunner, Gate, PlanSpec, Report, RequestSpec};
use strsum_core::{summarize_loop, verify_summary, Summary, SynthesisConfig};
use strsum_obs::ToJson as _;

fn main() -> ExitCode {
    let cli = Cli::from_env();
    cli.validate(&["--limit"]);
    let limit: usize = cli.parsed("--limit", 60);
    let timeout: f64 = cli.timeout_secs(10.0);

    let mut entries = strsum_corpus::corpus();
    entries.truncate(limit);
    let memoryless_count = entries.len();
    let stateful = strsum_corpus::stateful_corpus();
    entries.extend(stateful.iter().cloned());
    println!(
        "recurrence-lane audit: {memoryless_count} corpus loops + {} stateful loops, {timeout}s/loop",
        stateful.len()
    );

    let base = SynthesisConfig::with_timeout(Duration::from_secs_f64(timeout));
    let off_cfg = SynthesisConfig {
        recur_lane: false,
        ..base.clone()
    };
    let on_cfg = SynthesisConfig {
        recur_lane: true,
        ..base.clone()
    };

    let mut identity_violations: Vec<String> = Vec::new();
    let mut unverified: Vec<String> = Vec::new();
    let mut gadget_flips: Vec<String> = Vec::new();
    // One JSON row per flipped loop.
    let mut flipped: Vec<String> = Vec::new();
    let mut identical = 0usize;
    let mut flips = 0usize;
    let mut verified_flips = 0usize;
    // Compared and skipped loops (no compile, or a wall-clock verdict),
    // memoryless corpus and stateful corpus apart.
    let mut compared = [0usize; 2];
    let mut skipped = [0usize; 2];

    for (i, entry) in entries.iter().enumerate() {
        let stateful_row = i >= memoryless_count;
        let Ok(func) = strsum_cfront::compile_one(&entry.source) else {
            skipped[usize::from(stateful_row)] += 1;
            continue;
        };
        let off = summarize_loop(&func, &off_cfg);
        let start = Instant::now();
        let on = summarize_loop(&func, &on_cfg);
        let wall_micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);

        // Wall-clock verdicts are the only legitimate divergence between
        // the two runs (same exclusion as the PR 7 byte-identity gate).
        let timing = |stats: &strsum_core::SynthStats| stats.exhausted.is_some();
        if timing(&off.stats) || timing(&on.stats) {
            skipped[usize::from(stateful_row)] += 1;
            continue;
        }

        let off_bytes = off.summary.as_ref().map(Summary::encode);
        let on_bytes = on.summary.as_ref().map(Summary::encode);
        let flip = off.summary.is_none() && on.summary.is_some();

        if off.summary.is_some() {
            // Memoryless fragment: the lane must be invisible.
            if off_bytes == on_bytes {
                identical += 1;
            } else {
                identity_violations.push(format!(
                    "{}: lane-on summary differs from lane-off on a gadget-fragment loop",
                    entry.id
                ));
            }
        } else if !flip && off.stats.failure != on.stats.failure {
            identity_violations.push(format!(
                "{}: lane-on failure differs on an unsummarised loop ({:?} vs {:?})",
                entry.id, off.stats.failure, on.stats.failure
            ));
        }

        if flip {
            flips += 1;
            let summary = on.summary.as_ref().expect("flip has a summary");
            if summary.closed_form().is_none() {
                gadget_flips.push(format!(
                    "{}: flip produced a gadget summary the lane-off run missed",
                    entry.id
                ));
            }
            let ok = verify_summary(&func, &summary.encode(), on_cfg.max_ex_size, None).verified;
            let form = summary.closed_form().map(|cf| string(&cf.to_string()));
            flipped.push(object([
                ("id", string(&entry.id)),
                ("kind", string(summary.kind().label())),
                ("verified", ok.to_string()),
                ("wall_micros", wall_micros.to_string()),
                ("form", form.unwrap_or_else(|| "null".to_string())),
            ]));
            if ok {
                verified_flips += 1;
            } else {
                unverified.push(format!(
                    "{}: flipped closed form fails bounded re-verification",
                    entry.id
                ));
            }
        }
        compared[usize::from(stateful_row)] += 1;
    }

    let verification_rate = if flips == 0 {
        0.0
    } else {
        verified_flips as f64 / flips as f64
    };
    let [memoryless_rows, stateful_rows] = compared;
    println!(
        "lane comparison: {memoryless_rows} memoryless + {stateful_rows} stateful loops \
         ({} + {} skipped), {identical} byte-identical on the fragment, \
         {flips} flips, {verified_flips} verified ({:.0}%)",
        skipped[0],
        skipped[1],
        100.0 * verification_rate
    );

    // Runner integration over the stateful corpus: kinds tallied, cache
    // hits re-verified, outcomes classified by the full pipeline.
    let report = CorpusRunner::new(PlanSpec::serial()).serve(
        RequestSpec::loops(loop_specs(&stateful))
            .config(on_cfg.clone())
            .threads(1)
            .cache(true),
    );
    println!(
        "runner pass: {} stateful loops → kinds {}",
        report.results.len(),
        report.kinds.to_json()
    );

    let mut audit = Report::new("recur_audit");
    audit.config("memoryless_loops", memoryless_count as f64);
    audit.config("stateful_loops", stateful.len() as f64);
    audit.config("timeout_secs", timeout);
    audit.gate(Gate::none("memoryless_byte_identity", identity_violations));
    audit.gate(Gate::at_least("flips", 5.0, flips as f64));
    audit.gate(
        Gate::at_least("flip_verification_rate", 1.0, verification_rate).messages(unverified),
    );
    audit.gate(Gate::none("gadget_flips", gadget_flips));
    audit.gate(Gate::at_least(
        "runner_closed_forms",
        5.0,
        (report.kinds.accumulator + report.kinds.builder) as f64,
    ));
    audit.metric("memoryless.compared", "loops", memoryless_rows as f64);
    audit.metric("memoryless.byte_identical", "loops", identical as f64);
    audit.metric("memoryless.skipped", "loops", skipped[0] as f64);
    audit.metric("stateful.compared", "loops", stateful_rows as f64);
    audit.metric("stateful.skipped", "loops", skipped[1] as f64);
    audit.metric("flips.verified", "loops", verified_flips as f64);
    audit.detail("per_loop", array(flipped));
    audit.detail("runner_kinds", report.kinds.to_json());
    audit.finish()
}
