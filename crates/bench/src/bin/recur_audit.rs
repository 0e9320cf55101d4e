//! The recurrence-lane audit (PR 10) — lane-on vs lane-off over the
//! memoryless corpus plus the stateful accumulator corpus.
//!
//! Two passes, three hard gates (exit 1 on violation):
//!
//! 1. **Lane comparison** — every loop is summarised twice, with the
//!    recurrence lane off (the pre-PR-10 pipeline) and on. Gates:
//!
//!    * **byte identity** — on the memoryless fragment (every loop the
//!      lane-off pipeline resolves, success or failure) the lane-on
//!      pipeline must produce byte-identical summary bytes and the same
//!      outcome class. The lane only fires after gadget synthesis has
//!      concluded inexpressible, so turning it on must be invisible to
//!      the fragment.
//!    * **flips** — at least 5 loops that classify `NotMemoryless` with
//!      the lane off must summarise with the lane on (the PR's
//!      acceptance criterion).
//!    * **verification** — every flipped closed form must discharge
//!      through the bounded verifier (`verify_summary`), the same
//!      soundness root gadget summaries answer to.
//!
//! 2. **Runner integration** — the stateful corpus runs through
//!    `CorpusRunner` (cache on) so the kind tallies, cache
//!    re-verification and outcome taxonomy cover the new lane.
//!
//! Flip counts, verification rate, per-loop cost and the kind tallies
//! land in `results/BENCH_pr10.json`.
//!
//! Usage: `cargo run --release -p strsum-bench --bin recur_audit
//!         [--limit N] [--timeout-secs N]`

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use strsum_bench::{loop_specs, write_result, Cli, CorpusRunner, PlanSpec, RequestSpec};
use strsum_core::{summarize_loop, verify_summary, Summary, SynthesisConfig};
use strsum_obs::ToJson as _;

/// One loop's lane-comparison record.
struct LaneRow {
    id: String,
    /// From the stateful corpus rather than the memoryless one.
    stateful: bool,
    kind: Option<&'static str>,
    flip: bool,
    verified: bool,
    wall_micros: u64,
    form: Option<String>,
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    format!("\"{}\"", strsum_obs::escape(s))
}

fn main() {
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

    let mut violations: Vec<String> = Vec::new();
    let mut rows: Vec<LaneRow> = Vec::new();
    let mut identical = 0usize;
    let mut flips = 0usize;
    let mut verified_flips = 0usize;
    // Skipped loops (no compile, or a wall-clock verdict), memoryless
    // corpus and stateful corpus apart.
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
                violations.push(format!(
                    "{}: lane-on summary differs from lane-off on a gadget-fragment loop",
                    entry.id
                ));
            }
        } else if !flip && off.stats.failure != on.stats.failure {
            violations.push(format!(
                "{}: lane-on failure differs on an unsummarised loop ({:?} vs {:?})",
                entry.id, off.stats.failure, on.stats.failure
            ));
        }

        let mut verified = false;
        if flip {
            flips += 1;
            let summary = on.summary.as_ref().expect("flip has a summary");
            if summary.closed_form().is_none() {
                violations.push(format!(
                    "{}: flip produced a gadget summary the lane-off run missed",
                    entry.id
                ));
            }
            let (ok, _) = verify_summary(&func, &summary.encode(), on_cfg.max_ex_size);
            verified = ok;
            if ok {
                verified_flips += 1;
            } else {
                violations.push(format!(
                    "{}: flipped closed form fails bounded re-verification",
                    entry.id
                ));
            }
        }

        rows.push(LaneRow {
            id: entry.id.clone(),
            stateful: stateful_row,
            kind: on.summary.as_ref().map(|s| s.kind().label()),
            flip,
            verified,
            wall_micros,
            form: on
                .summary
                .as_ref()
                .and_then(Summary::closed_form)
                .map(|cf| cf.to_string()),
        });
    }

    let verification_rate = if flips == 0 {
        0.0
    } else {
        verified_flips as f64 / flips as f64
    };
    let stateful_rows = rows.iter().filter(|r| r.stateful).count();
    let memoryless_rows = rows.len() - stateful_rows;
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
    if report.kinds.accumulator + report.kinds.builder < 5 {
        violations.push(format!(
            "runner tallied only {} closed-form summaries over the stateful corpus",
            report.kinds.accumulator + report.kinds.builder
        ));
    }

    let flips_ok = flips >= 5;
    let verify_ok = flips > 0 && verified_flips == flips;
    let identity_ok = violations.iter().all(|v| !v.contains("differs"));
    if !flips_ok {
        violations.push(format!("only {flips} flips, need ≥ 5"));
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"config\": {{\"memoryless_loops\":{memoryless_count},\"stateful_loops\":{},\"timeout_secs\":{timeout},\"cores\":{}}},",
        stateful.len(),
        strsum_corpus::plan::detected_cores()
    );
    let _ = writeln!(
        json,
        "  \"memoryless\": {{\"compared\":{memoryless_rows},\"byte_identical\":{identical},\"skipped\":{}}},",
        skipped[0]
    );
    let _ = writeln!(
        json,
        "  \"stateful\": {{\"compared\":{stateful_rows},\"skipped\":{}}},",
        skipped[1]
    );
    let _ = writeln!(
        json,
        "  \"flips\": {{\"count\":{flips},\"verified\":{verified_flips},\"verification_rate\":{verification_rate:.4}}},"
    );
    let _ = writeln!(json, "  \"per_loop\": [");
    let flipped: Vec<&LaneRow> = rows.iter().filter(|r| r.flip).collect();
    for (i, r) in flipped.iter().enumerate() {
        let comma = if i + 1 < flipped.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"id\":{},\"kind\":{},\"verified\":{},\"wall_micros\":{},\"form\":{}}}{comma}",
            json_str(&r.id),
            r.kind.map_or("null".to_string(), json_str),
            r.verified,
            r.wall_micros,
            r.form.as_deref().map_or("null".to_string(), json_str),
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"runner_kinds\": {},", report.kinds.to_json());
    let _ = writeln!(
        json,
        "  \"gate\": {{\"memoryless_byte_identity\":{identity_ok},\"flips_ge_5\":{flips_ok},\"all_flips_verified\":{verify_ok}}},"
    );
    let _ = writeln!(json, "  \"violations\": {}", violations.len());
    let _ = writeln!(json, "}}");
    write_result("BENCH_pr10.json", &json);

    if !violations.is_empty() {
        eprintln!("RECURRENCE-LANE AUDIT VIOLATIONS:");
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
    println!("recurrence-lane audit passed");
}
