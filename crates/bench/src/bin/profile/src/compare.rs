//! `profile compare <base.json> <new.json>`: judges every end-to-end
//! metric on every workload of two `baseline` files against the bounds
//! in `BENCHMARK.json`.
//!
//! Per (metric, workload), with medians `mb`/`mn`, the gain `g` (positive
//! when the new side is better) and the tolerance `tol = max(bound ×
//! |mb|, floor)`:
//!
//! - both sides repeated and their spread (larger IQR) wider than `tol`:
//!   **better** / **worse** only if every new run beats / loses to every
//!   base run, else **unresolved**;
//! - `g < −tol`: **worse**;
//! - repeated runs: **better** when `g` exceeds the base's IQR and the new
//!   side wins at least 9 of 10 index-paired runs; a single run each:
//!   **better** when `g > tol`;
//! - otherwise **unchanged**.
//!
//! `floor` is 0 except for `setup_s`, whose bound is "the share or
//! 0.5 ms, whichever is larger". Set-up takes 0.7–2.6 ms, so a share of
//! it is a few hundred microseconds, within the run-to-run spread; 0.5 ms
//! is above the widest IQR measured in a ten-run set (0.3 ms) and the
//! largest shift of that set's median in a second set (0.18 ms).

use std::collections::HashMap;
use std::path::Path;

use strsum_api::Json;

use crate::stats::{iqr, median};

/// Absolute tolerances that apply on top of the share bound.
const ABS_FLOOR: [(&str, f64); 1] = [("setup_s", 0.0005)];

/// Share of paired runs the new side must win to count as better.
const WIN_SHARE: f64 = 0.9;

/// The judgement on one (metric, workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `new` runs against `base` runs of one metric.
pub fn verdict(
    base: &[f64],
    new: &[f64],
    higher_is_better: bool,
    bound: f64,
    floor: f64,
) -> Verdict {
    let beats = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    let (mb, mn) = (median(base), median(new));
    let gain = if higher_is_better { mn - mb } else { mb - mn };
    let tol = (bound * mb.abs()).max(floor);
    let repeated = base.len() > 1 && new.len() > 1;
    if repeated && iqr(base).max(iqr(new)) > tol {
        let all = |f: &dyn Fn(f64, f64) -> bool| base.iter().all(|&b| new.iter().all(|&n| f(n, b)));
        return if all(&|n, b| beats(n, b)) {
            Verdict::Better
        } else if all(&|n, b| beats(b, n)) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if gain < -tol {
        return Verdict::Worse;
    }
    let better = if repeated {
        let pairs = base.len().min(new.len());
        let wins = base.iter().zip(new).filter(|(&b, &n)| beats(n, b)).count();
        gain > iqr(base) && wins as f64 >= WIN_SHARE * pairs as f64
    } else {
        gain > tol
    };
    if better {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// `(name → (bound, higher_is_better))` for the end-to-end metrics.
fn bounds(bench_json: &Path) -> Result<Vec<(String, f64, bool)>, String> {
    let text = std::fs::read_to_string(bench_json)
        .map_err(|e| format!("{}: {e}", bench_json.display()))?;
    let json = strsum_api::json::parse(&text).map_err(|e| e.to_string())?;
    json.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            let better = m.get("better").and_then(Json::as_str) == Some("higher");
            Ok((name.to_string(), bound, better))
        })
        .collect()
}

/// `workload → metric → runs` from a `baseline` file.
fn runs(path: &Path) -> Result<HashMap<String, HashMap<String, Vec<f64>>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = strsum_api::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Json::Obj(workloads)) = json.get("workloads") else {
        return Err(format!("{}: no workloads object", path.display()));
    };
    let mut out = HashMap::new();
    for (w, body) in workloads {
        let mut metrics = HashMap::new();
        if let Some(Json::Obj(ms)) = body.get("metrics") {
            for (name, m) in ms {
                let values: Vec<f64> = m
                    .get("runs")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(Json::as_f64)
                    .collect();
                metrics.insert(name.clone(), values);
            }
        }
        out.insert(w.clone(), metrics);
    }
    Ok(out)
}

/// The `compare` subcommand. Returns whether nothing got worse.
pub fn compare_main(base: &Path, new: &Path, bench_json: &Path) -> Result<bool, String> {
    let bounds = bounds(bench_json)?;
    let (b, n) = (runs(base)?, runs(new)?);
    let mut workloads: Vec<&String> = b.keys().filter(|w| n.contains_key(*w)).collect();
    workloads.sort();
    let mut ok = true;
    println!(
        "{:<14} {:<20} {:>12} {:>12} {:>8}  verdict",
        "workload", "metric", "base", "new", "change"
    );
    for w in workloads {
        for (name, bound, higher) in &bounds {
            let (Some(bv), Some(nv)) = (b[w].get(name), n[w].get(name)) else {
                continue;
            };
            if bv.is_empty() || nv.is_empty() {
                continue;
            }
            let floor = ABS_FLOOR
                .iter()
                .find(|(m, _)| m == name)
                .map_or(0.0, |(_, f)| *f);
            let v = verdict(bv, nv, *higher, *bound, floor);
            ok &= v != Verdict::Worse;
            let (mb, mn) = (median(bv), median(nv));
            println!(
                "{w:<14} {name:<20} {mb:>12.4} {mn:>12.4} {:>7.1}%  {}",
                (mn - mb) / mb.abs().max(1e-12) * 100.0,
                v.label()
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_spread_and_direction() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Throughput (higher is better), 10% bound.
        let same = [100.2, 99.8, 100.9, 99.1, 100.0];
        assert_eq!(verdict(&base, &same, true, 0.1, 0.0), Verdict::Unchanged);
        let faster = [110.5, 111.0, 109.5, 110.8, 110.2];
        assert_eq!(verdict(&base, &faster, true, 0.1, 0.0), Verdict::Better);
        let slower = [85.0, 86.0, 84.0, 85.5, 84.5];
        assert_eq!(verdict(&base, &slower, true, 0.1, 0.0), Verdict::Worse);
        // A gain inside the bound but beyond the base's spread, won on
        // every pair, is still a gain.
        let slightly = [103.0, 103.5, 102.5, 103.2, 102.8];
        assert_eq!(verdict(&base, &slightly, true, 0.1, 0.0), Verdict::Better);
        // The same numbers as latency (lower is better) flip the verdicts.
        assert_eq!(verdict(&base, &faster, false, 0.1, 0.0), Verdict::Worse);
        assert_eq!(verdict(&base, &slower, false, 0.1, 0.0), Verdict::Better);
        // Spread wider than the bound: unresolved unless fully separated.
        let noisy = [70.0, 130.0, 100.0, 60.0, 140.0];
        assert_eq!(verdict(&base, &noisy, true, 0.1, 0.0), Verdict::Unresolved);
        let noisy_low = [40.0, 55.0, 45.0, 30.0, 50.0];
        assert_eq!(verdict(&base, &noisy_low, true, 0.1, 0.0), Verdict::Worse);
        // Single runs: only the bound decides.
        assert_eq!(
            verdict(&[100.0], &[95.0], true, 0.1, 0.0),
            Verdict::Unchanged
        );
        assert_eq!(verdict(&[100.0], &[89.0], true, 0.1, 0.0), Verdict::Worse);
        assert_eq!(verdict(&[100.0], &[111.0], true, 0.1, 0.0), Verdict::Better);
    }

    #[test]
    fn setup_time_has_a_half_millisecond_floor() {
        // 1.0 ms → 1.4 ms is +40%, past a 25% share bound, but within the
        // 0.5 ms floor: process start-up jitter, not a regression.
        let base = [0.0010, 0.00101, 0.00099, 0.0010, 0.00102];
        let new = [0.0014, 0.00141, 0.00139, 0.0014, 0.00142];
        assert_eq!(
            verdict(&base, &new, false, 0.25, 0.0005),
            Verdict::Unchanged
        );
        assert_eq!(verdict(&base, &new, false, 0.25, 0.0), Verdict::Worse);
        // Beyond the floor it is a regression.
        let slow = [0.0016, 0.00161, 0.00159, 0.0016, 0.00162];
        assert_eq!(verdict(&base, &slow, false, 0.25, 0.0005), Verdict::Worse);
        assert_eq!(ABS_FLOOR[0], ("setup_s", 0.0005));
    }

    #[test]
    fn exact_counts_catch_a_single_flip() {
        // summarized_share is exact: one loop of sixteen flipping is a
        // 1/16 drop, past a 5% bound.
        let base = [0.875; 5];
        let new = [0.8125; 5];
        assert_eq!(verdict(&base, &new, true, 0.05, 0.0), Verdict::Worse);
        assert_eq!(verdict(&base, &base, true, 0.05, 0.0), Verdict::Unchanged);
    }
}
