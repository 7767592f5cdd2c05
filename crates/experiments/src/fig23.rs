//! Figures 2 and 3: the illustrative speedup stack and the per-thread
//! execution-time breakup.
//!
//! These are didactic figures in the paper; here they render real data —
//! an annotated stack for one benchmark (Figure 2) and the per-thread
//! cycle-component breakup that underlies it (Figure 3).

use speedup_stacks::report::{Block, Column, Report, Scalar, Table, Unit, Value};
use speedup_stacks::{Component, SpeedupStack};

use crate::runner::PointSummary;

/// Figure 2 data: one annotated stack (facesim at 16 threads, which
/// exercises most components).
#[derive(Debug, Clone)]
pub(crate) struct Fig2 {
    /// Benchmark display name.
    name: String,
    /// The stack (actual speedup attached).
    stack: SpeedupStack,
}

/// Folds the grid's one row into Figure 2 (the fig2 arm of
/// [`crate::decompose::GridStudy::assemble`]); `None` when its point
/// failed.
pub(crate) fn fold_fig2(rows: Vec<Vec<Option<PointSummary>>>) -> Option<Fig2> {
    let out = rows.into_iter().flatten().flatten().next()?;
    Some(Fig2 {
        name: out.name,
        stack: out.stack,
    })
}

impl Fig2 {
    /// Converts the figure into its structured [`Report`].
    pub(crate) fn to_report(&self) -> Report {
        let title = format!("Figure 2: illustrative speedup stack ({})", self.name);
        let mut report = Report::new("fig2", &title);
        report.push(Block::line(&title));
        report.push(Block::Blank);
        report.push(Block::Stack {
            label: self.name.clone(),
            stack: self.stack.clone(),
        });
        report.push(Block::Blank);
        report.push(Block::Scalar(Scalar::new(
            "net_negative_llc",
            self.stack.net_negative_llc(),
            Unit::Speedup,
            format!(
                "net negative LLC interference = negative − positive = {:.3}",
                self.stack.net_negative_llc()
            ),
        )));
        report.push(Block::line(format!(
            "max theoretical speedup = N = {}; actual speedup = {:.2}",
            self.stack.num_threads(),
            self.stack.actual_speedup().unwrap_or(f64::NAN)
        )));
        report
    }
}

/// Figure 3 data: the per-thread breakup of multi-threaded execution
/// time (cholesky at 4 threads: spin, yield, memory and imbalance all
/// visible).
#[derive(Debug, Clone)]
pub(crate) struct Fig3 {
    /// Benchmark display name.
    name: String,
    /// `Tp` in cycles.
    tp_cycles: u64,
    /// The stack whose per-thread breakdowns are shown.
    stack: SpeedupStack,
}

/// Folds the grid's one row into Figure 3 (the fig3 arm of
/// [`crate::decompose::GridStudy::assemble`]); `None` when its point
/// failed.
pub(crate) fn fold_fig3(rows: Vec<Vec<Option<PointSummary>>>) -> Option<Fig3> {
    let out = rows.into_iter().flatten().flatten().next()?;
    Some(Fig3 {
        name: out.name,
        tp_cycles: out.mt_cycles,
        stack: out.stack,
    })
}

impl Fig3 {
    /// Converts the figure into its structured [`Report`].
    pub(crate) fn to_report(&self) -> Report {
        let title = format!(
            "Figure 3: per-thread execution time breakup ({}, Tp = {} cycles)",
            self.name, self.tp_cycles
        );
        let mut report = Report::new("fig3", &title);
        report.push(Block::line(&title));
        report.push(Block::hidden(Block::Scalar(Scalar::new(
            "tp_cycles",
            self.tp_cycles,
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
        for (i, t) in self.stack.per_thread().iter().enumerate() {
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
            self.stack.estimated_single_thread_cycles(),
            Unit::Cycles,
            format!(
                "sum of T̂_i = estimated single-threaded time = {:.0} cycles",
                self.stack.estimated_single_thread_cycles()
            ),
        )));
        report
    }
}
