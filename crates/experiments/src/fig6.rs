//! Figure 6: the benchmark classification tree at 16 threads.

use speedup_stacks::report::{Block, Column, Report, Scalar, Table, Unit, Value};
use speedup_stacks::{
    ClassificationConfig, ClassificationTree, ClassifiedBenchmark, Component, ScalingClass,
    SimError,
};

use crate::decompose::grid_study;
use crate::runner::PointSummary;
use crate::study::{Study, StudyParams};

/// Figure 6 data: the classification tree.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// The tree over all 28 benchmarks.
    pub tree: ClassificationTree,
    /// The thread count the classification ran at (16 in the paper).
    pub threads: usize,
}

impl Fig6 {
    /// Number of benchmarks whose largest component is `c`.
    #[must_use]
    pub fn count_largest(&self, c: Component) -> usize {
        self.tree.count_largest(c)
    }

    /// Number of good scalers (paper: 5 of 28).
    #[must_use]
    pub fn good_scalers(&self) -> usize {
        self.tree.in_class(ScalingClass::Good).count()
    }

    /// Converts the figure into its structured [`Report`]: the rendered
    /// tree text plus a machine-readable classification table and the
    /// summary counts as scalar metrics.
    #[must_use]
    pub fn to_report(&self) -> Report {
        let title = format!("Figure 6: classification tree ({} threads)", self.threads);
        let mut report = Report::new("fig6", &title);
        report.push(Block::line(&title));
        report.push(Block::raw(self.tree.render()));
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
        for e in self.tree.entries() {
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
        let summary = format!(
            "good scalers: {} of {}  |  yielding largest for {} benchmarks  |  no visible bottleneck for {}",
            self.good_scalers(),
            self.tree.entries().len(),
            self.count_largest(Component::Yielding),
            self.tree.count_unlimited()
        );
        report.push(Block::line(summary));
        for (name, value) in [
            ("good_scalers", self.good_scalers()),
            ("benchmarks", self.tree.entries().len()),
            ("yielding_largest", self.count_largest(Component::Yielding)),
            ("no_visible_bottleneck", self.tree.count_unlimited()),
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
}

/// Regenerates Figure 6: runs every benchmark at 16 threads (or the
/// last `threads` entry) and classifies it by actual speedup and
/// dominant components.
///
/// # Panics
///
/// Panics if the sweep fails or any point degrades; [`Fig6Study`]
/// degrades gracefully instead.
#[must_use]
pub fn run(params: &StudyParams) -> Fig6 {
    fold(params, grid_study("fig6", params).clean_rows(params))
}

/// Folds the sweep's rows into the classification tree (the fig6 arm of
/// [`crate::decompose::GridStudy::assemble`]).
pub(crate) fn fold(params: &StudyParams, rows: Vec<Vec<Option<PointSummary>>>) -> Fig6 {
    let threads = params.single_count(16);
    let cfg = ClassificationConfig::default();
    let entries = rows
        .into_iter()
        .flatten()
        .flatten()
        .map(|out| ClassifiedBenchmark::from_stack(out.name, out.suite, &out.stack, &cfg))
        .collect();
    Fig6 {
        tree: ClassificationTree::build(entries),
        threads,
    }
}

/// Figure 6 as a registry [`Study`] (honors `scale`, `threads` — the
/// last entry — `parallelism` and `llc_mib`).
#[derive(Debug, Clone, Copy)]
pub struct Fig6Study;

impl Study for Fig6Study {
    fn name(&self) -> &'static str {
        "fig6"
    }

    fn description(&self) -> &'static str {
        "Benchmark classification tree over the full suite (16 threads)"
    }

    fn run(&self, params: &StudyParams) -> Result<Report, SimError> {
        grid_study("fig6", params).run(params)
    }
}
