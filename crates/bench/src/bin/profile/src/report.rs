//! Metric definitions, the end-to-end numbers of a run, the result line,
//! and the `baseline` subcommand that records repeated runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use strsum_api::Json;
use strsum_obs::{escape, fmt_f64};

use crate::run::Measured;
use crate::stats::{median, percentile, quartiles, tail_percentile};
use crate::workload::Workload;

/// One metric: name, unit, and which direction is better.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn up(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

const fn down(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

/// What a user of the daemon or the batch harness sees (`--trace 0`).
pub const END_TO_END: [MetricDef; 7] = [
    up("throughput_rps", "req/s"),
    down("latency_p50_ms", "ms"),
    down("latency_tail_ms", "ms"),
    up("summarized_share", "ratio"),
    down("setup_s", "s"),
    down("peak_rss_mb", "MB"),
    down("cpu_s_per_request", "s"),
];

/// One number per layer (`--trace 1`); README.md names the end-to-end
/// metric and workload each one should move.
pub const PER_LAYER: [MetricDef; 46] = [
    down("api.decode.self_us", "us"),
    down("api.encode.self_us", "us"),
    down("api.request_bytes", "B"),
    down("api.response_bytes", "B"),
    down("sched.queue_wait_ms.p50", "ms"),
    down("sched.queue_wait_ms.tail", "ms"),
    up("sched.fast_lane", "count"),
    down("sched.heap", "count"),
    up("sched.cubed", "count"),
    down("engine.prepare.self_us", "us"),
    down("engine.finish.self_us", "us"),
    down("engine.service_ms.p50", "ms"),
    down("cfront.compile_us", "us"),
    down("core.fingerprint_us", "us"),
    down("store.lookup_us", "us"),
    up("store.hits", "count"),
    down("store.misses", "count"),
    up("store.reverified", "count"),
    down("store.rejected", "count"),
    up("store.hit_ratio", "ratio"),
    down("verify.reverify.self_us", "us"),
    down("verify.reverify.calls", "count"),
    down("cegis.search.self_us", "us"),
    down("cegis.verify.self_us", "us"),
    down("cegis.screen.self_us", "us"),
    down("cegis.encode.self_us", "us"),
    down("cegis.minimize.self_us", "us"),
    down("cegis.iterations", "count"),
    down("smt.search.queries", "count"),
    down("smt.search.conflicts", "count"),
    down("smt.search.self_us", "us"),
    down("smt.verify.queries", "count"),
    down("smt.verify.self_us", "us"),
    down("smt.conflicts_per_request", "count"),
    down("symex.run.self_us", "us"),
    down("symex.run.calls", "count"),
    up("symex.theory_hit_ratio", "ratio"),
    down("symex.sat_fallback", "count"),
    down("corpus.loop.self_us", "us"),
    down("corpus.reverify.self_us", "us"),
    up("corpus.cache_hits", "count"),
    up("corpus.plan.serial", "count"),
    down("corpus.plan.cubed", "count"),
    down("corpus.plan.portfolio", "count"),
    up("trace.reconciled_ratio", "ratio"),
    down("trace.overhead_ratio", "ratio"),
];

/// Per-layer metrics the checks produce rather than the trace.
pub const VERDICT_FLIPS: MetricDef = down("verdict_flips", "count");

/// Every per-layer metric in output order.
pub fn per_layer_defs() -> Vec<MetricDef> {
    PER_LAYER.iter().copied().chain([VERDICT_FLIPS]).collect()
}

/// The end-to-end metrics of one untraced run, over every measured pass
/// and every spawn: host noise is left to the medians of repeated runs,
/// so a slowdown confined to some passes shows.
pub fn end_to_end(workload: Workload, m: &Measured) -> BTreeMap<&'static str, f64> {
    let mut latency: Vec<f64> = m.answers().map(|a| a.latency_us as f64 / 1000.0).collect();
    latency.sort_by(f64::total_cmp);
    let tail = tail_percentile(workload.min_samples()).unwrap_or(50);
    let wall: f64 = m.passes.iter().map(|p| p.wall).sum();
    let cpu: f64 = m.passes.iter().map(|p| p.cpu_s).sum();
    let attempted = m.attempted().max(1) as f64;
    let summarized = m
        .answers()
        .filter(|a| crate::check::class(&a.outcome, a.summary.as_deref()) == "summary")
        .count();
    [
        ("throughput_rps", latency.len() as f64 / wall.max(1e-9)),
        ("latency_p50_ms", percentile(&latency, 50)),
        ("latency_tail_ms", percentile(&latency, tail)),
        ("summarized_share", summarized as f64 / attempted),
        ("setup_s", median(&m.setups)),
        ("peak_rss_mb", median(&m.rss_mb)),
        ("cpu_s_per_request", cpu / attempted),
    ]
    .into_iter()
    .collect()
}

fn number(v: f64) -> String {
    fmt_f64(if v.is_finite() { v } else { 0.0 })
}

/// `{"name": {"value": v, "unit": "u"}, …}` in `defs` order.
fn metrics_json(defs: &[MetricDef], value: impl Fn(&str) -> f64) -> String {
    let body: Vec<String> = defs
        .iter()
        .map(|d| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                number(value(d.name)),
                d.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Human-readable metric lines, then the one-line JSON result.
pub fn print_result(
    correct: bool,
    attempted: usize,
    failed: usize,
    values: &BTreeMap<&'static str, f64>,
    defs: &[MetricDef],
) {
    for d in defs {
        println!(
            "{:<28} {:>14} {:<6} ({} is better)",
            d.name,
            number(values.get(d.name).copied().unwrap_or(0.0)),
            d.unit,
            if d.higher_is_better {
                "higher"
            } else {
                "lower"
            }
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(defs, |name| values.get(name).copied().unwrap_or(0.0))
    );
}

/// One finished benchmark invocation, as read back from its last line.
struct Invocation {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: BTreeMap<String, f64>,
    wall_s: f64,
}

/// Runs this binary on one workload and reads its result line.
fn invoke(
    exe: &Path,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Invocation, String> {
    let t0 = Instant::now();
    let out = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("run {}: {e}", exe.display()))?;
    let wall_s = t0.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let json = strsum_api::json::parse(last).map_err(|e| {
        format!(
            "{} seed {seed}: unreadable result line {last:?}: {e}",
            workload.name()
        )
    })?;
    let mut values = BTreeMap::new();
    if let Some(Json::Obj(fields)) = json.get("metrics") {
        for (name, m) in fields {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                values.insert(name.clone(), v);
            }
        }
    }
    Ok(Invocation {
        correct: json.get("correct").and_then(Json::as_bool).unwrap_or(false),
        attempted: json.get("attempted").and_then(Json::as_u64).unwrap_or(0),
        failed: json.get("failed").and_then(Json::as_u64).unwrap_or(0),
        values,
        wall_s,
    })
}

fn list(values: impl IntoIterator<Item = f64>) -> String {
    let v: Vec<String> = values.into_iter().map(number).collect();
    format!("[{}]", v.join(", "))
}

/// The `baseline` subcommand: runs every workload once per seed,
/// untraced, and writes the runs with their medians and quartiles; with
/// `trace_out`, also one traced run per workload (first seed) whose
/// per-layer numbers go to that file.
pub fn baseline_main(
    seeds: &[u64],
    seconds: f64,
    out: &Path,
    trace_out: Option<&Path>,
) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let revision = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut all_ok = true;
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"host\": {{\"nproc\": {nproc}, \"os\": \"{}\", \"arch\": \"{}\"}},",
        std::env::consts::OS,
        std::env::consts::ARCH
    );
    let _ = writeln!(json, "  \"revision\": \"{}\",", escape(&revision));
    let _ = writeln!(json, "  \"seconds\": {},", number(seconds));
    let _ = writeln!(
        json,
        "  \"seeds\": [{}],",
        seeds
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(json, "  \"workloads\": {{");
    let mut layer_json: Vec<String> = Vec::new();
    for (wi, w) in Workload::ALL.into_iter().enumerate() {
        let mut runs = Vec::new();
        for &seed in seeds {
            let inv = invoke(&exe, w, seed, seconds, false)?;
            eprintln!(
                "{} seed {seed}: correct {} failed {} in {:.1} s",
                w.name(),
                inv.correct,
                inv.failed,
                inv.wall_s
            );
            all_ok &= inv.correct && inv.failed == 0;
            runs.push(inv);
        }
        let _ = writeln!(json, "    \"{}\": {{", w.name());
        let _ = writeln!(
            json,
            "      \"invocation_s\": {},",
            list(runs.iter().map(|r| r.wall_s))
        );
        let _ = writeln!(
            json,
            "      \"correct\": {},",
            runs.iter().all(|r| r.correct)
        );
        let _ = writeln!(
            json,
            "      \"attempted\": {},",
            list(runs.iter().map(|r| r.attempted as f64))
        );
        let _ = writeln!(
            json,
            "      \"failed\": {},",
            list(runs.iter().map(|r| r.failed as f64))
        );
        let _ = writeln!(json, "      \"metrics\": {{");
        for (mi, d) in END_TO_END.iter().enumerate() {
            let values: Vec<f64> = runs
                .iter()
                .map(|r| r.values.get(d.name).copied().unwrap_or(f64::NAN))
                .collect();
            let med = median(&values);
            let (q1, q3) = quartiles(&values);
            let _ = writeln!(
                json,
                "        \"{}\": {{\"unit\": \"{}\", \"median\": {}, \"q1\": {}, \"q3\": {}, \"iqr_share\": {}, \"runs\": {}}}{}",
                d.name,
                d.unit,
                number(med),
                number(q1),
                number(q3),
                number((q3 - q1) / med.abs().max(1e-12)),
                list(values.iter().copied()),
                if mi + 1 < END_TO_END.len() { "," } else { "" }
            );
        }
        let _ = writeln!(json, "      }}");
        let _ = writeln!(
            json,
            "    }}{}",
            if wi + 1 < Workload::ALL.len() {
                ","
            } else {
                ""
            }
        );
        if trace_out.is_some() {
            let inv = invoke(&exe, w, seeds[0], seconds, true)?;
            eprintln!("{} traced: correct {}", w.name(), inv.correct);
            all_ok &= inv.correct;
            layer_json.push(format!(
                "    \"{}\": {}",
                w.name(),
                metrics_json(&per_layer_defs(), |name| {
                    inv.values.get(name).copied().unwrap_or(f64::NAN)
                })
            ));
        }
    }
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");
    std::fs::write(out, json).map_err(|e| format!("{}: {e}", out.display()))?;
    if let Some(path) = trace_out {
        let text = format!(
            "{{\n  \"host\": {{\"nproc\": {nproc}}},\n  \"revision\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
            escape(&revision),
            seeds[0],
            number(seconds),
            layer_json.join(",\n")
        );
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// this binary prints, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).unwrap();
        let json = strsum_api::json::parse(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            json.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let ours = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| {
                    let better = if d.higher_is_better {
                        "higher"
                    } else {
                        "lower"
                    };
                    (d.name.into(), d.unit.into(), better.into())
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&per_layer_defs()));
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().into()).collect();
        assert_eq!(workloads, names);
    }
}
