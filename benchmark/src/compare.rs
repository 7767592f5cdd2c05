//! `compare A.json B.json`: one row per (end-to-end metric, workload)
//! with a verdict, by the rules of the choosing-metrics guide.
//!
//! A side's *value* is what the harness reports for the metric: the
//! median of its samples, or their better quartile for a host time.
//!
//! - `worse`: B's value is worse than A's by more than the metric's
//!   bound.
//! - `better`: B's value is better than A's by more than the distance
//!   between A's own quartiles.
//! - `unresolved`: either side's spread is wider than the bound and the
//!   two sample ranges overlap, so neither of the above can be trusted.
//!   (With a wide spread but disjoint ranges, every run of one side beat
//!   every run of the other, and the verdict stands.)
//! - `unchanged`: none of the above.

use std::fmt::Write as _;

use speedup_stacks::report::json::{parse, JsonValue};

use crate::metrics::Better;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Unchanged,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a row: a metric's samples on one workload, summarised.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub value: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl Side {
    fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            self.iqr() / self.median.abs()
        }
    }
}

pub fn verdict(a: &Side, b: &Side, better: Better, bound: f64) -> Verdict {
    let base = a.value.abs();
    if base == 0.0 || !a.value.is_finite() || !b.value.is_finite() {
        return if a.value == b.value {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        };
    }
    // Positive when B is the worse side.
    let worse_by = match better {
        Better::Lower => (b.value - a.value) / base,
        Better::Higher => (a.value - b.value) / base,
    };
    let overlap = a.min <= b.max && b.min <= a.max;
    if a.spread().max(b.spread()) > bound && overlap {
        return Verdict::Unresolved;
    }
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < 0.0 && -worse_by * base > a.iqr() {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

struct MetricRow {
    name: String,
    unit: String,
    better: Better,
    bound: f64,
    side: Side,
}

struct WorkloadRows {
    name: String,
    failed_share: f64,
    digest: String,
    metrics: Vec<MetricRow>,
}

fn load(path: &str) -> Result<Vec<WorkloadRows>, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse(&raw).map_err(|e| format!("{path}: {e}"))?;
    let num = |v: &JsonValue, key: &str| {
        v.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{path}: missing number {key}"))
    };
    let text = |v: &JsonValue, key: &str| {
        v.get(key)
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("{path}: missing string {key}"))
    };
    let mut out = Vec::new();
    for w in doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{path}: no workloads"))?
    {
        let mut metrics = Vec::new();
        for m in w
            .get("end_to_end")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("{path}: no end_to_end"))?
        {
            let samples: Vec<f64> = m
                .get("samples")
                .and_then(JsonValue::as_array)
                .unwrap_or(&[])
                .iter()
                .filter_map(JsonValue::as_f64)
                .collect();
            let fold = |init: f64, f: fn(f64, f64) -> f64| samples.iter().copied().fold(init, f);
            metrics.push(MetricRow {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                better: if text(m, "better")? == "higher" {
                    Better::Higher
                } else {
                    Better::Lower
                },
                bound: num(m, "bound")?,
                side: Side {
                    value: num(m, "value")?,
                    median: num(m, "median")?,
                    q1: num(m, "q1")?,
                    q3: num(m, "q3")?,
                    min: fold(f64::INFINITY, f64::min),
                    max: fold(f64::NEG_INFINITY, f64::max),
                },
            });
        }
        out.push(WorkloadRows {
            name: text(w, "name")?,
            failed_share: num(w, "failed_share")?,
            digest: text(w, "digest")?,
            metrics,
        });
    }
    Ok(out)
}

/// Prints the comparison; `Ok(true)` when nothing got worse.
pub fn compare(path_a: &str, path_b: &str) -> Result<(String, bool), String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut out = format!("A = {path_a}\nB = {path_b}\n");
    let _ = writeln!(
        out,
        "{:<20} {:<16} {:>5} {:>13} {:>11} {:>13} {:>11} {:>18} {:>6}  verdict",
        "workload",
        "metric",
        "unit",
        "A value",
        "A iqr",
        "B value",
        "B iqr",
        "B/A (base A)",
        "bound"
    );
    let mut ok = true;
    for wa in &a {
        let Some(wb) = b.iter().find(|w| w.name == wa.name) else {
            let _ = writeln!(out, "{:<20} missing from B", wa.name);
            ok = false;
            continue;
        };
        for ma in &wa.metrics {
            let Some(mb) = wb.metrics.iter().find(|m| m.name == ma.name) else {
                let _ = writeln!(out, "{:<20} {:<16} missing from B", wa.name, ma.name);
                ok = false;
                continue;
            };
            let v = verdict(&ma.side, &mb.side, ma.better, ma.bound);
            ok &= v != Verdict::Worse;
            let _ = writeln!(
                out,
                "{:<20} {:<16} {:>5} {:>13.6} {:>11.6} {:>13.6} {:>11.6} {:>7.4} of {:<8.4} {:>5.0}%  {}",
                wa.name,
                ma.name,
                ma.unit,
                ma.side.value,
                ma.side.iqr(),
                mb.side.value,
                mb.side.iqr(),
                mb.side.value / ma.side.value,
                ma.side.value,
                ma.bound * 100.0,
                v.as_str(),
            );
        }
        let rose = wb.failed_share > wa.failed_share;
        ok &= !rose;
        let _ = writeln!(
            out,
            "{:<20} {:<16} {:>5} {:>13} {:>11} {:>13} {:>11} {:>18} {:>6}  {}",
            wa.name,
            "failed_share",
            "share",
            wa.failed_share,
            "",
            wb.failed_share,
            "",
            "",
            "0%",
            if rose { "worse" } else { "unchanged" },
        );
        let _ = writeln!(
            out,
            "{:<20} {:<16} emitted bytes {}",
            wa.name,
            "digest",
            if wa.digest == wb.digest {
                format!("identical ({})", wa.digest)
            } else {
                format!("differ ({} vs {})", wa.digest, wb.digest)
            },
        );
    }
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(median: f64, half_iqr: f64, half_range: f64) -> Side {
        Side {
            value: median,
            median,
            q1: median - half_iqr,
            q3: median + half_iqr,
            min: median - half_range,
            max: median + half_range,
        }
    }

    #[test]
    fn tight_samples_within_the_bound_are_unchanged() {
        let a = side(2.0, 0.01, 0.03);
        assert_eq!(
            verdict(&a, &side(2.1, 0.01, 0.03), Better::Lower, 0.10),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&a, &side(2.0, 0.01, 0.03), Better::Higher, 0.10),
            Verdict::Unchanged
        );
    }

    #[test]
    fn beyond_the_bound_is_worse_in_the_metric_s_direction() {
        let a = side(2.0, 0.01, 0.03);
        assert_eq!(
            verdict(&a, &side(2.3, 0.01, 0.03), Better::Lower, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &side(1.7, 0.01, 0.03), Better::Higher, 0.10),
            Verdict::Worse
        );
    }

    #[test]
    fn better_needs_more_than_the_parents_own_quartile_distance() {
        let a = side(2.0, 0.05, 0.08);
        // 0.08 better, A's quartiles are 0.10 apart: not resolved as a gain.
        assert_eq!(
            verdict(&a, &side(1.92, 0.05, 0.08), Better::Lower, 0.10),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&a, &side(1.80, 0.05, 0.08), Better::Lower, 0.10),
            Verdict::Better
        );
        assert_eq!(
            verdict(&a, &side(2.3, 0.05, 0.08), Better::Higher, 0.25),
            Verdict::Better
        );
    }

    #[test]
    fn a_wide_overlapping_spread_is_unresolved_not_unchanged() {
        let a = side(2.0, 0.2, 0.5);
        assert_eq!(
            verdict(&a, &side(2.1, 0.2, 0.5), Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Even a median beyond the bound cannot be called while the
        // ranges overlap.
        assert_eq!(
            verdict(&a, &side(2.4, 0.2, 0.5), Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Every run of B slower than every run of A: the spread no
        // longer hides the answer.
        assert_eq!(
            verdict(&a, &side(4.0, 0.3, 0.5), Better::Lower, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &side(1.0, 0.15, 0.4), Better::Lower, 0.10),
            Verdict::Better
        );
    }

    #[test]
    fn exact_quantities_move_only_on_a_real_difference() {
        let a = side(2.5, 0.0, 0.0);
        assert_eq!(
            verdict(&a, &side(2.5, 0.0, 0.0), Better::Lower, 0.10),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&a, &side(2.4, 0.0, 0.0), Better::Lower, 0.10),
            Verdict::Better
        );
        assert_eq!(
            verdict(&a, &side(2.9, 0.0, 0.0), Better::Lower, 0.10),
            Verdict::Worse
        );
        let zero = side(0.0, 0.0, 0.0);
        assert_eq!(
            verdict(&zero, &zero, Better::Lower, 0.10),
            Verdict::Unchanged
        );
        assert_eq!(verdict(&zero, &a, Better::Lower, 0.10), Verdict::Unresolved);
    }
}
