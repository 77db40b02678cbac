//! Order statistics used for every reported timing.

/// Median of `values` (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or `p` outside `(0, 100]`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of nothing");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples. The epsilon
/// keeps products such as `0.9 * 100 = 90.00000000000001` from rounding up
/// a whole rank.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The headline statistic of every repeated timing: the quartile on the
/// fast side (nearest rank), i.e. the 25th percentile of times and the
/// 75th of rates.
///
/// Interference on a shared host only ever adds time, and it comes in
/// bursts of seconds to a minute during which a repetition takes up to
/// twice as long. Over ten runs of 12-15 s the median of a run's
/// repetitions then spread 10-28 % (distance between quartiles over the
/// median), the fast quartile 3-18 %, the minimum about the same as the
/// fast quartile but resting on a single repetition. A cold first
/// repetition is never in the fast quartile, so none is discarded.
/// Medians and every sample stay in the detail files.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn fast_quartile(values: &[f64], lower_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "quartile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let r = rank(v.len(), 25.0);
    if lower_is_better {
        v[r - 1]
    } else {
        v[v.len() - r]
    }
}

/// The percentiles a tail is reported at, lowest first.
const TAIL_LADDER: [f64; 4] = [90.0, 95.0, 99.0, 99.9];

/// The highest percentile of the ladder 90 / 95 / 99 / 99.9 that still has
/// at least ten of the `n` samples beyond it; `None` below 100 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rfind(|&p| n - rank(n.max(1), p).min(n) >= 10)
}

/// Quartiles by the exclusive method, as Python's
/// `statistics.quantiles(values, n=4)` computes them, so `compare` judges
/// spread the way the acceptance driver does.
///
/// # Panics
///
/// Panics with fewer than two samples.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median;
/// zero for a single sample (nothing to spread).
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, _, q3] = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Geometric mean of positive values; `0` for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.max(1e-300).ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        // Nearest rank never interpolates: 5 samples, p50 is the third.
        assert_eq!(percentile(&[10.0, 20.0, 30.0, 40.0, 50.0], 50.0), 30.0);
        assert_eq!(percentile(&[10.0, 20.0, 30.0, 40.0, 50.0], 1.0), 10.0);
        assert_eq!(percentile(&[10.0, 20.0, 30.0, 40.0], 50.0), 20.0);
    }

    #[test]
    fn fast_quartile_is_symmetric_in_direction() {
        let times = [1.4, 1.2, 1.9, 1.3, 1.25, 1.6, 1.5];
        // Seven samples: rank ceil(1.75) = 2, the second fastest.
        assert_eq!(fast_quartile(&times, true), 1.25);
        let rates: Vec<f64> = times.iter().map(|t| 1.0 / t).collect();
        assert_eq!(fast_quartile(&rates, false), 1.0 / 1.25);
        // Three or four samples: the fastest.
        assert_eq!(fast_quartile(&[3.0, 1.0, 2.0], true), 1.0);
        assert_eq!(fast_quartile(&[3.0, 1.0, 2.0, 4.0], false), 4.0);
        assert_eq!(fast_quartile(&[5.0], true), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(99), None);
        // 100 samples: p90 leaves exactly ten beyond it.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        // The campaign's 1500 trials: fifteen samples beyond p99.
        assert_eq!(tail_percentile(1500), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
        assert_eq!(quartile_spread(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
