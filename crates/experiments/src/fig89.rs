//! Figures 8 and 9: understanding LLC performance.
//!
//! - **Figure 8**: negative, positive and net LLC interference components
//!   for the benchmarks with non-negligible positive interference, at 16
//!   cores and the default 2 MB LLC.
//! - **Figure 9**: the same components for cholesky as the LLC grows from
//!   2 MB to 16 MB — negative interference shrinks (fewer capacity
//!   misses) while positive interference stays roughly constant, so the
//!   net effect of sharing eventually becomes a win.
//!
//! `fig8_report` builds Figure 8 straight from the grid's rows;
//! `fig9_report` runs the LLC sweep and builds Figure 9 from its outcomes.

use memsim::MemConfig;
use speedup_stacks::report::{Block, Column, Report, Table, Unit, Value};
use speedup_stacks::{Component, SimError, SpeedupStack};
use workloads::{display_name, Suite};

use crate::decompose::{finish, run_machines};
use crate::runner::{point_label, scaled_profile, PointSummary, RunOptions};
use crate::study::StudyParams;

/// Builds the shared negative/positive/net interference table of
/// Figures 8 and 9: one bar triple per `(label, stack)`, net =
/// negative − positive (positive values hurt).
fn interference_table(
    name: &str,
    label: &str,
    label_width: usize,
    bars: impl IntoIterator<Item = (String, SpeedupStack)>,
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
    for (label, stack) in bars {
        let negative = stack.component(Component::NegativeLlc);
        let positive = stack.positive_interference();
        table.row(vec![
            Value::str(label),
            negative.into(),
            positive.into(),
            (negative - positive).into(),
        ]);
    }
    table
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

/// Figure 8's report from the grid's rows (the fig8 arm of
/// [`crate::decompose::GridStudy::assemble`]): one bar per completed
/// benchmark.
pub(crate) fn fig8_report(params: &StudyParams, rows: Vec<Vec<Option<PointSummary>>>) -> Report {
    let title = format!(
        "Figure 8: negative, positive and net LLC interference ({} cores, {} MB LLC)",
        params.single_count(16),
        params.llc_mib.unwrap_or(2)
    );
    let mut report = Report::new("fig8", &title);
    report.push(Block::line(&title));
    let bars = rows.into_iter().flatten().flatten();
    let bars = bars.map(|out| (out.name, out.stack));
    report.push(Block::Table(interference_table(
        "interference",
        "benchmark",
        18,
        bars,
    )));
    report
}

/// The LLC sizes of the sweep, in MiB.
const LLC_SIZES_MIB: [usize; 4] = [2, 4, 8, 16];

/// Figure 9 as the registry runs it: one cholesky reference and one
/// point per LLC size (each size is its own machine, single-threaded run
/// included), one bar per completed size. The thread-count override is
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
    let (outs, degraded) = run_machines(params, &p, &refs, &points, label);
    let bars = outs
        .into_iter()
        .zip(LLC_SIZES_MIB)
        .filter_map(|(out, mib)| Some((format!("{mib}MB"), out?.stack)));
    let title = format!("Figure 9: cholesky LLC interference vs LLC size ({cores} cores)");
    let mut report = Report::new("fig9", &title);
    report.push(Block::line(&title));
    report.push(Block::Table(interference_table(
        "interference_vs_llc",
        "LLC",
        8,
        bars,
    )));
    Ok(finish(report, degraded, None, params))
}
