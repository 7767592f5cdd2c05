//! Figures 4 and 5 plus the §6 validation numbers.
//!
//! - **Figure 4**: actual vs estimated speedup for all 28 benchmarks at 2,
//!   4, 8 and 16 threads, with the average absolute error per thread
//!   count (paper: 3.0 / 3.4 / 2.8 / 5.1 %).
//! - **Figure 5**: speedup stacks for blackscholes, facesim and cholesky
//!   as a function of the thread count.
//!
//! `fig4_report` and `fig5_report` build each figure straight from the
//! grid's rows.

use speedup_stacks::estimate::{average_absolute_error, ValidationPoint};
use speedup_stacks::report::{Block, Column, Report, Scalar, Table, Unit, Value};
use speedup_stacks::SpeedupStack;

use crate::runner::{PointScalars, PointSummary};
use crate::study::StudyParams;

/// The multi-threaded counts validated in the paper.
pub const THREAD_COUNTS: [usize; 4] = [2, 4, 8, 16];

/// Figure 4's report from the sweep's rows (the fig4 arm of
/// [`crate::decompose::GridStudy::assemble`]): every benchmark × thread
/// count, the average absolute error of each count present, and the
/// per-benchmark instruction overhead (the §6 parallelization-overhead
/// measure) at the largest swept count.
pub(crate) fn fig4_report(params: &StudyParams, rows: Vec<Vec<Option<PointScalars>>>) -> Report {
    let overhead_threads = params
        .counts_or(&THREAD_COUNTS)
        .iter()
        .copied()
        .max()
        .unwrap_or(16);
    let mut points = Vec::new();
    let mut overheads = Vec::new();
    for out in rows.into_iter().flatten().flatten() {
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
    for p in &points {
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
    let mut counts: Vec<usize> = points.iter().map(|p| p.threads).collect();
    counts.sort_unstable();
    counts.dedup();
    for n in counts {
        let at_n: Vec<ValidationPoint> =
            points.iter().filter(|p| p.threads == n).cloned().collect();
        let err = average_absolute_error(&at_n) * 100.0;
        report.push(Block::Scalar(Scalar::new(
            format!("avg_abs_error_{n}t"),
            err,
            Unit::Percent,
            format!("  {n:>2} threads: {err:>5.1}%"),
        )));
    }
    report.push(Block::Blank);
    report.push(Block::line(format!(
        "instruction-count overhead at {overhead_threads} threads (§6 measure):"
    )));
    overheads.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
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
    for (name, ovh) in overheads.into_iter().take(6) {
        table.row(vec![Value::str(name), (ovh * 100.0).into()]);
    }
    report.push(Block::Table(table));
    report
}

/// Figure 5's report from the sweep's rows (the fig5 arm of
/// [`crate::decompose::GridStudy::assemble`]): the stacks of the three
/// case-study benchmarks across thread counts as one comparison table,
/// plus an annotated bar for each stack at the widest count present.
pub(crate) fn fig5_report(rows: Vec<Vec<Option<PointSummary>>>) -> Report {
    let stacks: Vec<(String, SpeedupStack)> = rows
        .into_iter()
        .flatten()
        .flatten()
        .map(|out| (format!("{} {}t", out.name, out.threads), out.stack))
        .collect();
    let max_n = stacks
        .iter()
        .map(|(_, s)| s.num_threads())
        .max()
        .unwrap_or(0);
    let widest: Vec<(String, SpeedupStack)> = stacks
        .iter()
        .filter(|(_, s)| s.num_threads() == max_n)
        .cloned()
        .collect();
    let title = "Figure 5: speedup stacks vs thread count";
    let mut report = Report::new("fig5", title);
    report.push(Block::line(title));
    report.push(Block::StackTable {
        name: "stacks".to_string(),
        stacks,
    });
    report.push(Block::Blank);
    for (label, stack) in widest {
        report.push(Block::Stack { label, stack });
        report.push(Block::Blank);
    }
    report
}
