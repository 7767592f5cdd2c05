//! Order statistics over small sample sets.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the "exclusive" method) so that the spreads this harness prints are
//! the spreads the acceptance driver computes.

/// Median of `values` (mean of the two middle values for even counts).
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, `statistics.quantiles(values, n=4)` style.
/// With fewer than two samples both quartiles collapse onto the value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    match values.len() {
        0 => (f64::NAN, f64::NAN),
        1 => (values[0], values[0]),
        _ => {
            let v = sorted(values);
            (exclusive_quantile(&v, 1), exclusive_quantile(&v, 3))
        }
    }
}

/// The `k`-th of four cut points of the sorted sample `v`, exclusive
/// method: position `k (n + 1) / 4`, clamped to the sample's ends.
fn exclusive_quantile(v: &[f64], k: usize) -> f64 {
    let n = v.len();
    let j = (k * (n + 1) / 4).clamp(1, n - 1);
    let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

/// Inter-quartile distance as a share of the median (0 when the median
/// is 0 or the sample has fewer than two values).
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 || !m.is_finite() {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// Nearest-rank percentile `p` (0..1) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let v = sorted(values);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The highest percentile of the reporting ladder that still has at
/// least ten of `n` samples beyond it; `None` when not even the 75th
/// qualifies (then only the median and quartiles are worth printing).
pub fn tail_percentile(n: usize) -> Option<f64> {
    // In per mille, so that "a tenth of 100 samples" is exactly ten.
    const LADDER: [usize; 5] = [999, 990, 950, 900, 750];
    LADDER
        .into_iter()
        .find(|p| n * (1000 - p) / 1000 >= 10)
        .map(|p| p as f64 / 1000.0)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[2.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[5.0], 0.99), 5.0);
    }

    #[test]
    fn tail_percentile_needs_ten_beyond() {
        assert_eq!(tail_percentile(11), None);
        assert_eq!(tail_percentile(40), Some(0.75));
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(99), Some(0.75));
        assert_eq!(tail_percentile(200), Some(0.95));
        assert_eq!(tail_percentile(1_200), Some(0.99));
        // 10,800 pooled warm submits: 108 beyond p99, 10 beyond p99.9.
        assert_eq!(tail_percentile(10_800), Some(0.999));
        assert_eq!(tail_percentile(9_999), Some(0.99));
    }
}
