//! Figures 4 and 5 plus the §6 validation numbers.
//!
//! - **Figure 4**: actual vs estimated speedup for all 28 benchmarks at 2,
//!   4, 8 and 16 threads, with the average absolute error per thread
//!   count (paper: 3.0 / 3.4 / 2.8 / 5.1 %).
//! - **Figure 5**: speedup stacks for blackscholes, facesim and cholesky
//!   as a function of the thread count.

use speedup_stacks::estimate::{average_absolute_error, ValidationPoint};
use speedup_stacks::report::{Block, Column, Report, Scalar, Table, Unit, Value};
use speedup_stacks::SpeedupStack;

use crate::runner::PointSummary;
use crate::study::StudyParams;

/// The multi-threaded counts validated in the paper.
pub const THREAD_COUNTS: [usize; 4] = [2, 4, 8, 16];

/// Figure 4 data: every benchmark × thread count, plus per-benchmark
/// instruction overhead (the §6 parallelization-overhead measure).
#[derive(Debug, Clone)]
pub(crate) struct Fig4 {
    /// One point per benchmark × thread count.
    points: Vec<ValidationPoint>,
    /// `(benchmark, instruction overhead fraction)` at
    /// `overhead_threads` threads.
    instruction_overhead: Vec<(String, f64)>,
    /// The thread count the instruction-overhead measure was taken at
    /// (16 in the paper).
    overhead_threads: usize,
}

impl Fig4 {
    /// Average absolute error for one thread count.
    fn average_error(&self, threads: usize) -> f64 {
        let pts: Vec<ValidationPoint> = self
            .points
            .iter()
            .filter(|p| p.threads == threads)
            .cloned()
            .collect();
        average_absolute_error(&pts)
    }

    /// The validated thread counts, ascending (derived from the points).
    fn counts(&self) -> Vec<usize> {
        let mut counts: Vec<usize> = self.points.iter().map(|p| p.threads).collect();
        counts.sort_unstable();
        counts.dedup();
        counts
    }

    /// Converts the figure into its structured [`Report`].
    pub(crate) fn to_report(&self) -> Report {
        let title = "Figure 4: actual vs estimated speedup (all benchmarks)";
        let mut report = Report::new("fig4", title);
        report.push(Block::line(title));
        let mut table = Table::new(
            "validation_points",
            vec![
                Column::new("benchmark").text_header("{:<22}").left(22),
                Column::new("N")
                    .text_header(" {:>3}")
                    .prefix(" ")
                    .width(3)
                    .unit(Unit::Count),
                Column::new("actual")
                    .text_header("  {:>8}")
                    .prefix("  ")
                    .width(8)
                    .precision(2)
                    .unit(Unit::Speedup),
                Column::new("estimated")
                    .header(format!(" {:>8}", "estim."))
                    .prefix(" ")
                    .width(8)
                    .precision(2)
                    .unit(Unit::Speedup),
                Column::new("error_percent")
                    .header(format!(" {:>8}", "err%"))
                    .prefix(" ")
                    .width(8)
                    .precision(1)
                    .unit(Unit::Percent),
            ],
        );
        for p in &self.points {
            table.row(vec![
                Value::str(&p.name),
                p.threads.into(),
                p.actual.into(),
                p.estimated.into(),
                (p.error() * 100.0).into(),
            ]);
        }
        report.push(Block::Table(table));
        report.push(Block::Blank);
        report.push(Block::line(
            "average absolute error per thread count (paper: 3.0/3.4/2.8/5.1%):",
        ));
        for n in self.counts() {
            let err = self.average_error(n) * 100.0;
            report.push(Block::Scalar(Scalar::new(
                format!("avg_abs_error_{n}t"),
                err,
                Unit::Percent,
                format!("  {n:>2} threads: {err:>5.1}%"),
            )));
        }
        report.push(Block::Blank);
        report.push(Block::line(format!(
            "instruction-count overhead at {} threads (§6 measure):",
            self.overhead_threads
        )));
        let mut sorted = self.instruction_overhead.clone();
        sorted.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let mut table = Table::new(
            "instruction_overhead",
            vec![
                Column::new("benchmark").prefix("  ").left(22),
                Column::new("overhead_percent")
                    .prefix(" ")
                    .width(5)
                    .precision(1)
                    .suffix("% more instructions")
                    .unit(Unit::Percent),
            ],
        )
        .headerless();
        for (name, ovh) in sorted.iter().take(6) {
            table.row(vec![Value::str(name), (ovh * 100.0).into()]);
        }
        report.push(Block::Table(table));
        report
    }
}

/// Folds the sweep's rows into Figure 4 (the fig4 arm of
/// [`crate::decompose::GridStudy::assemble`]); the instruction-overhead
/// measure is taken at the largest swept count.
pub(crate) fn fold_fig4(params: &StudyParams, rows: Vec<Vec<Option<PointSummary>>>) -> Fig4 {
    let counts = params.counts_or(&THREAD_COUNTS);
    let overhead_threads = counts.iter().copied().max().unwrap_or(16);
    let mut points = Vec::new();
    let mut overheads = Vec::new();
    for outs in rows {
        for out in outs.into_iter().flatten() {
            if out.threads == overhead_threads {
                overheads.push((out.name.clone(), out.instruction_overhead));
            }
            points.push(ValidationPoint {
                name: out.name,
                threads: out.threads,
                actual: out.actual,
                estimated: out.estimated,
            });
        }
    }
    Fig4 {
        points,
        instruction_overhead: overheads,
        overhead_threads,
    }
}

/// Figure 5 data: stacks for the three case-study benchmarks across
/// thread counts.
#[derive(Debug, Clone)]
pub(crate) struct Fig5 {
    /// `(label, stack)` in presentation order.
    stacks: Vec<(String, SpeedupStack)>,
}

/// Folds the sweep's rows into Figure 5 (the fig5 arm of
/// [`crate::decompose::GridStudy::assemble`]).
pub(crate) fn fold_fig5(rows: Vec<Vec<Option<PointSummary>>>) -> Fig5 {
    let stacks = rows
        .into_iter()
        .flatten()
        .flatten()
        .map(|out| (format!("{} {}t", out.name, out.threads), out.stack))
        .collect();
    Fig5 { stacks }
}

impl Fig5 {
    /// Converts the figure into its structured [`Report`]: the comparison
    /// table plus an annotated bar for each widest-count stack.
    pub(crate) fn to_report(&self) -> Report {
        let title = "Figure 5: speedup stacks vs thread count";
        let mut report = Report::new("fig5", title);
        report.push(Block::line(title));
        report.push(Block::StackTable {
            name: "stacks".to_string(),
            stacks: self.stacks.clone(),
        });
        report.push(Block::Blank);
        let max_n = self
            .stacks
            .iter()
            .map(|(_, s)| s.num_threads())
            .max()
            .unwrap_or(0);
        for (label, stack) in &self.stacks {
            if stack.num_threads() == max_n {
                report.push(Block::Stack {
                    label: label.clone(),
                    stack: stack.clone(),
                });
                report.push(Block::Blank);
            }
        }
        report
    }
}
