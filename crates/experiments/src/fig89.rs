//! Figures 8 and 9: understanding LLC performance.
//!
//! - **Figure 8**: negative, positive and net LLC interference components
//!   for the benchmarks with non-negligible positive interference, at 16
//!   cores and the default 2 MB LLC.
//! - **Figure 9**: the same components for cholesky as the LLC grows from
//!   2 MB to 16 MB — negative interference shrinks (fewer capacity
//!   misses) while positive interference stays roughly constant, so the
//!   net effect of sharing eventually becomes a win.

use memsim::MemConfig;
use speedup_stacks::report::{Block, Column, Report, Table, Unit, Value};
use speedup_stacks::{Component, SimError, SpeedupStack};
use workloads::{display_name, Suite};

use crate::decompose::{finish, run_machines};
use crate::runner::{point_label, scaled_profile, PointSummary, RunOptions};
use crate::study::StudyParams;

/// One benchmark's LLC interference decomposition (a bar triple in
/// Figures 8/9).
#[derive(Debug, Clone)]
struct InterferenceBar {
    /// Row label (benchmark or LLC size).
    label: String,
    /// Negative LLC interference, in speedup units.
    negative: f64,
    /// Positive LLC interference, in speedup units.
    positive: f64,
}

impl InterferenceBar {
    /// The bar of one run's stack.
    fn of(label: String, stack: &SpeedupStack) -> InterferenceBar {
        InterferenceBar {
            label,
            negative: stack.component(Component::NegativeLlc),
            positive: stack.positive_interference(),
        }
    }

    /// Net interference (negative − positive); positive values hurt.
    fn net(&self) -> f64 {
        self.negative - self.positive
    }
}

/// Builds the shared negative/positive/net interference table of
/// Figures 8 and 9.
fn interference_table(
    name: &str,
    label: &str,
    label_width: usize,
    bars: &[InterferenceBar],
) -> Table {
    let mut table = Table::new(
        name,
        vec![
            Column::new(label)
                .text_header(&format!("{{:<{label_width}}}"))
                .left(label_width),
            Column::new("negative")
                .text_header(" {:>9}")
                .prefix(" ")
                .width(9)
                .precision(3)
                .unit(Unit::Speedup),
            Column::new("positive")
                .text_header(" {:>9}")
                .prefix(" ")
                .width(9)
                .precision(3)
                .unit(Unit::Speedup),
            Column::new("net")
                .text_header(" {:>9}")
                .prefix(" ")
                .width(9)
                .precision(3)
                .unit(Unit::Speedup),
        ],
    );
    for b in bars {
        table.row(vec![
            Value::str(&b.label),
            b.negative.into(),
            b.positive.into(),
            b.net().into(),
        ]);
    }
    table
}

/// Figure 8 data.
#[derive(Debug, Clone)]
pub(crate) struct Fig8 {
    /// One bar triple per benchmark.
    bars: Vec<InterferenceBar>,
    /// Core/thread count of the runs (16 in the paper).
    cores: usize,
    /// Shared LLC capacity of the runs, in MiB (2 in the paper).
    llc_mib: usize,
}

/// The paper's Figure 8 benchmark set (those with non-negligible positive
/// interference). The paper shows canneal small and large; the sizes
/// available here are small and medium.
pub(crate) const FIG8_BENCHMARKS: [(&str, Suite); 7] = [
    ("cholesky", Suite::Splash2),
    ("lu.cont", Suite::Splash2),
    ("canneal", Suite::ParsecSmall),
    ("canneal", Suite::ParsecMedium),
    ("bfs", Suite::Rodinia),
    ("lu.ncont", Suite::Splash2),
    ("needle", Suite::Rodinia),
];

/// Folds the grid's rows into Figure 8 (the fig8 arm of
/// [`crate::decompose::GridStudy::assemble`]): one bar per completed
/// benchmark.
pub(crate) fn fold_fig8(params: &StudyParams, rows: Vec<Vec<Option<PointSummary>>>) -> Fig8 {
    Fig8 {
        bars: rows
            .into_iter()
            .flatten()
            .flatten()
            .map(|out| InterferenceBar::of(out.name, &out.stack))
            .collect(),
        cores: params.single_count(16),
        llc_mib: params.llc_mib.unwrap_or(2),
    }
}

impl Fig8 {
    /// Converts the figure into its structured [`Report`].
    pub(crate) fn to_report(&self) -> Report {
        let title = format!(
            "Figure 8: negative, positive and net LLC interference ({} cores, {} MB LLC)",
            self.cores, self.llc_mib
        );
        let mut report = Report::new("fig8", &title);
        report.push(Block::line(&title));
        report.push(Block::Table(interference_table(
            "interference",
            "benchmark",
            18,
            &self.bars,
        )));
        report
    }
}

/// Figure 9 data: cholesky across LLC sizes.
#[derive(Debug, Clone)]
struct Fig9 {
    /// One bar triple per LLC size.
    bars: Vec<InterferenceBar>,
    /// Core/thread count of the runs (16 in the paper).
    cores: usize,
}

/// The LLC sizes of the sweep, in MiB.
const LLC_SIZES_MIB: [usize; 4] = [2, 4, 8, 16];

/// Figure 9 as the registry runs it: one cholesky reference and one
/// point per LLC size (each size is its own machine, single-threaded run
/// included), folded into the report. The thread-count override is
/// honored; the LLC sizes are the figure's swept variable, so `llc_mib`
/// is ignored. Failed points are left out of the bars and named in the
/// report's `Degraded` block.
pub(crate) fn fig9_report(params: &StudyParams) -> Result<Report, SimError> {
    let cores = params.single_count(16);
    let p = workloads::find("cholesky", Suite::Splash2).expect("catalog entry");
    let p = scaled_profile(&p, params.scale);
    let machine = |mib: usize, n: usize| RunOptions {
        mem: MemConfig::default().with_llc_mib(mib),
        ..RunOptions::symmetric(n)
    };
    let refs: Vec<RunOptions> = LLC_SIZES_MIB.iter().map(|&mib| machine(mib, 1)).collect();
    let points: Vec<(usize, RunOptions)> = LLC_SIZES_MIB
        .iter()
        .enumerate()
        .map(|(i, &mib)| (i, machine(mib, cores)))
        .collect();
    let name = point_label(&display_name(&p), cores);
    let label = |i: usize| format!("{name} {}MB", LLC_SIZES_MIB[i]);
    let (outs, degraded) = run_machines(params, &p, &refs, &points, label)?;
    let bars = outs
        .iter()
        .zip(LLC_SIZES_MIB)
        .filter_map(|(out, mib)| {
            Some(InterferenceBar::of(
                format!("{mib}MB"),
                &out.as_ref()?.stack,
            ))
        })
        .collect();
    Ok(finish(
        Fig9 { bars, cores }.to_report(),
        degraded,
        None,
        params,
    ))
}

impl Fig9 {
    /// Converts the figure into its structured [`Report`].
    fn to_report(&self) -> Report {
        let title = format!(
            "Figure 9: cholesky LLC interference vs LLC size ({} cores)",
            self.cores
        );
        let mut report = Report::new("fig9", &title);
        report.push(Block::line(&title));
        report.push(Block::Table(interference_table(
            "interference_vs_llc",
            "LLC",
            8,
            &self.bars,
        )));
        report
    }
}
