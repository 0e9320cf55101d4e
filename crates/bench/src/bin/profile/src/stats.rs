//! Order statistics shared by the run report, the tail rule and `compare`.

/// Percentiles the tail metric may report, highest first.
const TAIL_CANDIDATES: [u32; 4] = [99, 95, 90, 75];

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index (0-based) of percentile `p` in `n` sorted samples.
fn rank(p: u32, n: usize) -> usize {
    (u64::from(p) * n as u64).div_ceil(100).max(1) as usize - 1
}

/// The `p`-th percentile of `sorted` by nearest rank.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(p, sorted.len()).min(sorted.len() - 1)]
}

/// The highest of p99/p95/p90/p75 with at least [`MIN_BEYOND`] of `n`
/// samples strictly beyond it, or `None` when even p75 has fewer.
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n > 0 && n - 1 - rank(p, n) >= MIN_BEYOND)
}

/// Median (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles, computed exactly like Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads this tool reports match the ones an outside check computes.
/// One value has no spread: both quartiles are that value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    match ld {
        0 => (f64::NAN, f64::NAN),
        1 => (v[0], v[0]),
        _ => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// Interquartile distance.
pub fn iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    q3 - q1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p75 of 40 sits at rank 30: exactly ten samples beyond it.
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(39), None);
        // p90 needs 100 samples, p95 200, p99 1000.
        assert_eq!(tail_percentile(99), Some(75));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(199), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(999), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(0), None);
        for n in [40, 54, 100, 128, 1000, 4321] {
            let p = tail_percentile(n).unwrap();
            assert!(n - 1 - rank(p, n) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[8.0, 1.0, 4.0, 2.0]), (1.25, 7.0));
        assert_eq!(iqr(&[5.0]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
