//! Figure 1: speedup as a function of the number of cores for
//! blackscholes, facesim (both PARSEC) and cholesky (SPLASH-2).

use speedup_stacks::report::{Block, Column, Report, Table, Unit, Value};

use crate::runner::PointSummary;
use crate::study::StudyParams;

/// The thread counts of the paper's sweep.
pub(crate) const THREAD_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// One benchmark's speedup curve.
#[derive(Debug, Clone)]
struct SpeedupCurve {
    /// Benchmark display name.
    name: String,
    /// `(threads, actual speedup)` per point; 1 thread is 1.0 by
    /// definition.
    points: Vec<(usize, f64)>,
}

impl SpeedupCurve {
    /// Speedup at a given thread count, if measured.
    fn at(&self, threads: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|(t, _)| *t == threads)
            .map(|(_, s)| *s)
    }
}

/// The figure's data: three curves.
#[derive(Debug, Clone)]
pub(crate) struct Fig1 {
    /// Curves for blackscholes, facesim and cholesky.
    curves: Vec<SpeedupCurve>,
}

/// Folds the sweep's rows into the figure (the fig1 arm of
/// [`crate::decompose::GridStudy::assemble`]). The 1-thread point (1.0
/// by definition, never simulated) is synthesized here when the
/// requested counts include it.
pub(crate) fn fold(
    params: &StudyParams,
    profiles: &[workloads::WorkloadProfile],
    rows: Vec<Vec<Option<PointSummary>>>,
) -> Fig1 {
    let counts = params.counts_or(&THREAD_COUNTS);
    let curves = profiles
        .iter()
        .zip(rows)
        .map(|(p, outs)| {
            let mut points = Vec::new();
            if counts.contains(&1) {
                points.push((1usize, 1.0f64));
            }
            points.extend(outs.into_iter().flatten().map(|o| (o.threads, o.actual)));
            SpeedupCurve {
                name: workloads::display_name(p),
                points,
            }
        })
        .collect();
    Fig1 { curves }
}

impl Fig1 {
    /// The swept thread counts, in presentation order (derived from the
    /// measured points).
    fn counts(&self) -> Vec<usize> {
        let mut counts: Vec<usize> = self
            .curves
            .iter()
            .flat_map(|c| c.points.iter().map(|(t, _)| *t))
            .collect();
        counts.sort_unstable();
        counts.dedup();
        counts
    }

    /// Converts the figure into the structured [`Report`] every emitter
    /// consumes.
    pub(crate) fn to_report(&self) -> Report {
        let title = "Figure 1: speedup vs number of threads/cores";
        let mut report = Report::new("fig1", title);
        report.push(Block::line(title));
        let counts = self.counts();
        let mut columns = vec![Column::new("benchmark").text_header("{:<22}").left(22)];
        for t in &counts {
            columns.push(
                Column::new(format!("{t}t"))
                    .text_header(" {:>4}  ")
                    .prefix(" ")
                    .width(5)
                    .precision(2)
                    .suffix(" ")
                    .unit(Unit::Speedup),
            );
        }
        let mut table = Table::new("speedup_curves", columns);
        for c in &self.curves {
            let mut row = vec![Value::str(&c.name)];
            for t in &counts {
                row.push(c.at(*t).map_or(Value::Missing, Value::F64));
            }
            table.row(row);
        }
        report.push(Block::Table(table));
        report
    }
}
