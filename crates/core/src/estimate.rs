//! The paper's speedup formulas (Eqs. 1–6) and validation helpers.

/// Actual speedup (Eq. 1): single-threaded time over multi-threaded time.
///
/// # Panics
///
/// Panics if `tp_cycles` is zero.
///
/// ```
/// assert_eq!(speedup_stacks::estimate::actual_speedup(8000, 1000), 8.0);
/// ```
#[must_use]
pub fn actual_speedup(ts_cycles: u64, tp_cycles: u64) -> f64 {
    assert!(
        tp_cycles > 0,
        "multi-threaded execution time must be non-zero"
    );
    ts_cycles as f64 / tp_cycles as f64
}

/// Estimated speedup (Eq. 3): estimated single-threaded time over measured
/// multi-threaded time.
///
/// # Panics
///
/// Panics if `tp_cycles` is zero.
#[must_use]
pub fn estimated_speedup(estimated_ts_cycles: f64, tp_cycles: u64) -> f64 {
    assert!(
        tp_cycles > 0,
        "multi-threaded execution time must be non-zero"
    );
    estimated_ts_cycles / tp_cycles as f64
}

/// Validation error (Eq. 6): `(Ŝ − S) / N`.
///
/// Positive error means over-estimation (expected when parallelization
/// overhead is not accounted, §6).
///
/// ```
/// let e = speedup_stacks::estimate::speedup_error(5.5, 5.0, 16);
/// assert!((e - 0.03125).abs() < 1e-12);
/// ```
#[must_use]
pub fn speedup_error(estimated: f64, actual: f64, n: usize) -> f64 {
    (estimated - actual) / n as f64
}

/// One benchmark's validation data point (a bar pair in Figure 4).
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationPoint {
    /// Benchmark name (with input size suffix where applicable).
    pub name: String,
    /// Thread/core count of the run.
    pub threads: usize,
    /// Actual speedup `S` (Eq. 1).
    pub actual: f64,
    /// Estimated speedup `Ŝ` (Eq. 3).
    pub estimated: f64,
}

impl ValidationPoint {
    /// Signed error (Eq. 6).
    #[must_use]
    pub fn error(&self) -> f64 {
        speedup_error(self.estimated, self.actual, self.threads)
    }

    /// Absolute error `|Ŝ − S| / N`.
    #[must_use]
    pub fn abs_error(&self) -> f64 {
        self.error().abs()
    }
}

/// Average absolute error over a set of validation points (the paper's
/// headline accuracy metric: 3.0 / 3.4 / 2.8 / 5.1 % for 2/4/8/16 threads).
///
/// Returns 0.0 for an empty slice.
#[must_use]
pub fn average_absolute_error(points: &[ValidationPoint]) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    points.iter().map(ValidationPoint::abs_error).sum::<f64>() / points.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actual_speedup_eq1() {
        assert_eq!(actual_speedup(1600, 400), 4.0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn actual_speedup_zero_tp() {
        let _ = actual_speedup(100, 0);
    }

    #[test]
    fn estimated_speedup_eq3() {
        assert_eq!(estimated_speedup(1500.0, 500), 3.0);
    }

    #[test]
    fn error_eq6_signed() {
        assert_eq!(speedup_error(6.0, 5.0, 4), 0.25);
        assert_eq!(speedup_error(4.0, 5.0, 4), -0.25);
    }

    #[test]
    fn validation_point_errors() {
        let p = ValidationPoint {
            name: "cholesky".into(),
            threads: 16,
            actual: 5.02,
            estimated: 5.82,
        };
        assert!((p.error() - 0.05).abs() < 1e-12);
        assert!((p.abs_error() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn average_absolute_error_mean() {
        let mk = |a: f64, e: f64| ValidationPoint {
            name: "x".into(),
            threads: 2,
            actual: a,
            estimated: e,
        };
        let pts = [mk(1.0, 1.2), mk(1.0, 0.8)];
        // each abs error = 0.1
        assert!((average_absolute_error(&pts) - 0.1).abs() < 1e-12);
        assert_eq!(average_absolute_error(&[]), 0.0);
    }
}
