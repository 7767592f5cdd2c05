//! Figure 1: speedup as a function of the number of cores for
//! blackscholes, facesim (both PARSEC) and cholesky (SPLASH-2).
//!
//! `report` builds the figure straight from the grid's rows.

use speedup_stacks::report::{Block, Column, Report, Table, Unit, Value};

use crate::runner::PointScalars;
use crate::study::StudyParams;

/// The thread counts of the paper's sweep.
pub(crate) const THREAD_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// Figure 1's report from the sweep's rows (the fig1 arm of
/// [`crate::decompose::GridStudy::assemble`]): one speedup curve per
/// benchmark, with a column for every count some curve measured. The
/// 1-thread point (1.0 by definition, never simulated) gets its column
/// when the requested counts include it.
pub(crate) fn report(
    params: &StudyParams,
    profiles: &[workloads::WorkloadProfile],
    rows: Vec<Vec<Option<PointScalars>>>,
) -> Report {
    let mut counts: Vec<usize> = rows.iter().flatten().flatten().map(|o| o.threads).collect();
    if params.counts_or(&THREAD_COUNTS).contains(&1) {
        counts.push(1);
    }
    counts.sort_unstable();
    counts.dedup();
    let title = "Figure 1: speedup vs number of threads/cores";
    let mut report = Report::new("fig1", title);
    report.push(Block::line(title));
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
    for (p, outs) in profiles.iter().zip(&rows) {
        let mut row = vec![Value::str(workloads::display_name(p))];
        row.extend(counts.iter().map(|&t| {
            match t {
                1 => Value::F64(1.0),
                _ => outs
                    .iter()
                    .flatten()
                    .find(|o| o.threads == t)
                    .map_or(Value::Missing, |o| Value::F64(o.actual)),
            }
        }));
        table.row(row);
    }
    report.push(Block::Table(table));
    report
}
