//! Figure 6: the benchmark classification tree at 16 threads.
//!
//! `report` builds the figure straight from the grid's one column.

use speedup_stacks::report::{Block, Column, Report, Scalar, Table, Unit, Value};
use speedup_stacks::{
    ClassificationConfig, ClassificationTree, ClassifiedBenchmark, Component, ScalingClass,
};

use crate::runner::PointSummary;
use crate::study::StudyParams;

/// Figure 6's report from the sweep's rows (the fig6 arm of
/// [`crate::decompose::GridStudy::assemble`]): every benchmark at 16
/// threads (or the last `threads` entry), classified by actual speedup
/// and dominant components. The rendered tree text comes with a
/// machine-readable classification table and the summary counts as
/// scalar metrics.
pub(crate) fn report(params: &StudyParams, rows: Vec<Vec<Option<PointSummary>>>) -> Report {
    let cfg = ClassificationConfig::default();
    let tree = ClassificationTree::build(
        rows.into_iter()
            .flatten()
            .flatten()
            .map(|out| ClassifiedBenchmark::from_stack(out.name, out.suite, &out.stack, &cfg))
            .collect(),
    );
    let title = format!(
        "Figure 6: classification tree ({} threads)",
        params.single_count(16)
    );
    let mut report = Report::new("fig6", &title);
    report.push(Block::line(&title));
    report.push(Block::raw(tree.render()));
    let mut table = Table::new(
        "classification",
        vec![
            Column::new("benchmark"),
            Column::new("suite"),
            Column::new("class"),
            Column::new("speedup").unit(Unit::Speedup),
            Column::new("comp1"),
            Column::new("comp2"),
            Column::new("comp3"),
        ],
    );
    for e in tree.entries() {
        let comp = |i: usize| {
            let label = e.component_label(i);
            if label.is_empty() {
                Value::Missing
            } else {
                Value::str(label)
            }
        };
        table.row(vec![
            Value::str(&e.name),
            Value::str(&e.suite),
            Value::str(e.class.to_string()),
            e.speedup.into(),
            comp(0),
            comp(1),
            comp(2),
        ]);
    }
    report.push(Block::hidden(Block::Table(table)));
    report.push(Block::Blank);
    // Paper: 5 of 28 good scalers.
    let good_scalers = tree.in_class(ScalingClass::Good).count();
    let benchmarks = tree.entries().len();
    let yielding_largest = tree.count_largest(Component::Yielding);
    let no_visible_bottleneck = tree.count_unlimited();
    report.push(Block::line(format!(
        "good scalers: {good_scalers} of {benchmarks}  |  yielding largest for \
         {yielding_largest} benchmarks  |  no visible bottleneck for {no_visible_bottleneck}"
    )));
    for (name, value) in [
        ("good_scalers", good_scalers),
        ("benchmarks", benchmarks),
        ("yielding_largest", yielding_largest),
        ("no_visible_bottleneck", no_visible_bottleneck),
    ] {
        report.push(Block::hidden(Block::Scalar(Scalar::new(
            name,
            value as u64,
            Unit::Count,
            String::new(),
        ))));
    }
    report
}
