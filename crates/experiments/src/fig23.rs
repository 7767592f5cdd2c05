//! Figures 2 and 3: the illustrative speedup stack and the per-thread
//! execution-time breakup.
//!
//! These are didactic figures in the paper; here they render real data —
//! an annotated stack for one benchmark (Figure 2) and the per-thread
//! cycle-component breakup that underlies it (Figure 3).
//!
//! `fig2_report` and `fig3_report` build each figure straight from its
//! one-point grid's row.

use speedup_stacks::report::{Block, Column, Report, Scalar, Table, Unit, Value};
use speedup_stacks::Component;

use crate::runner::PointSummary;

/// Figure 2's report from the grid's one row (the fig2 arm of
/// [`crate::decompose::GridStudy::assemble`]): one annotated stack
/// (facesim at 16 threads, which exercises most components); `None`
/// when its point failed.
pub(crate) fn fig2_report(rows: Vec<Vec<Option<PointSummary>>>) -> Option<Report> {
    let PointSummary { name, stack, .. } = rows.into_iter().flatten().flatten().next()?;
    let title = format!("Figure 2: illustrative speedup stack ({name})");
    let mut report = Report::new("fig2", &title);
    report.push(Block::line(&title));
    report.push(Block::Blank);
    report.push(Block::Stack {
        label: name,
        stack: stack.clone(),
    });
    report.push(Block::Blank);
    report.push(Block::Scalar(Scalar::new(
        "net_negative_llc",
        stack.net_negative_llc(),
        Unit::Speedup,
        format!(
            "net negative LLC interference = negative − positive = {:.3}",
            stack.net_negative_llc()
        ),
    )));
    report.push(Block::line(format!(
        "max theoretical speedup = N = {}; actual speedup = {:.2}",
        stack.num_threads(),
        stack.actual_speedup().unwrap_or(f64::NAN)
    )));
    Some(report)
}

/// Figure 3's report from the grid's one row (the fig3 arm of
/// [`crate::decompose::GridStudy::assemble`]): the per-thread breakup
/// of multi-threaded execution time (cholesky at 4 threads: spin,
/// yield, memory and imbalance all visible); `None` when its point
/// failed.
pub(crate) fn fig3_report(rows: Vec<Vec<Option<PointSummary>>>) -> Option<Report> {
    let out = rows.into_iter().flatten().flatten().next()?;
    let title = format!(
        "Figure 3: per-thread execution time breakup ({}, Tp = {} cycles)",
        out.name, out.mt_cycles
    );
    let mut report = Report::new("fig3", &title);
    report.push(Block::line(&title));
    report.push(Block::hidden(Block::Scalar(Scalar::new(
        "tp_cycles",
        out.mt_cycles,
        Unit::Cycles,
        String::new(),
    ))));
    let mut columns = vec![
        Column::new("thread")
            .text_header("{:<8}")
            .left(8)
            .unit(Unit::Count),
        Column::new("estimated_st_cycles")
            .header(format!(" {:>12}", "T̂_i (est.)"))
            .prefix(" ")
            .width(12)
            .precision(0)
            .unit(Unit::Cycles),
    ];
    for c in Component::ALL {
        columns.push(
            Column::new(c.label())
                .header(format!(" {:>9}", c.label()))
                .prefix(" ")
                .width(9)
                .precision(0)
                .unit(Unit::Cycles),
        );
    }
    columns.push(
        Column::new("positive")
            .header(format!(" {:>9}", "positive"))
            .prefix(" ")
            .width(9)
            .precision(0)
            .unit(Unit::Cycles),
    );
    let mut table = Table::new("per_thread", columns);
    for (i, t) in out.stack.per_thread().iter().enumerate() {
        let mut row = vec![
            Value::U64(i as u64),
            Value::F64(t.estimated_single_thread_cycles),
        ];
        for c in Component::ALL {
            row.push(Value::F64(t.overheads[c]));
        }
        row.push(Value::F64(t.positive_cycles));
        table.row(row);
    }
    report.push(Block::Table(table));
    report.push(Block::Scalar(Scalar::new(
        "estimated_single_thread_cycles",
        out.stack.estimated_single_thread_cycles(),
        Unit::Cycles,
        format!(
            "sum of T̂_i = estimated single-threaded time = {:.0} cycles",
            out.stack.estimated_single_thread_cycles()
        ),
    )));
    Some(report)
}
