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
use speedup_stacks::{Component, SimError};
use workloads::Suite;

use crate::par::map_mode;
use crate::runner::{run_profile, scaled_profile, RunOptions};
use crate::study::{Study, StudyParams};

/// One benchmark's LLC interference decomposition (a bar triple in
/// Figures 8/9).
#[derive(Debug, Clone)]
pub struct InterferenceBar {
    /// Row label (benchmark or LLC size).
    pub label: String,
    /// Negative LLC interference, in speedup units.
    pub negative: f64,
    /// Positive LLC interference, in speedup units.
    pub positive: f64,
}

impl InterferenceBar {
    /// Net interference (negative − positive); positive values hurt.
    #[must_use]
    pub fn net(&self) -> f64 {
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
pub struct Fig8 {
    /// One bar triple per benchmark.
    pub bars: Vec<InterferenceBar>,
    /// Core/thread count of the runs (16 in the paper).
    pub cores: usize,
    /// Shared LLC capacity of the runs, in MiB (2 in the paper).
    pub llc_mib: usize,
}

/// The paper's Figure 8 benchmark set (those with non-negligible positive
/// interference). The paper shows canneal small and large; the sizes
/// available here are small and medium.
#[must_use]
pub fn fig8_benchmarks() -> Vec<workloads::WorkloadProfile> {
    [
        ("cholesky", Suite::Splash2),
        ("lu.cont", Suite::Splash2),
        ("canneal", Suite::ParsecSmall),
        ("canneal", Suite::ParsecMedium),
        ("bfs", Suite::Rodinia),
        ("lu.ncont", Suite::Splash2),
        ("needle", Suite::Rodinia),
    ]
    .iter()
    .map(|(n, s)| workloads::find(n, *s).expect("catalog entry"))
    .collect()
}

/// Regenerates Figure 8, honoring the thread-count and LLC overrides.
///
/// # Panics
///
/// Panics if a simulation fails.
#[must_use]
pub fn run_fig8(params: &StudyParams) -> Fig8 {
    let cores = params.single_count(16);
    let mem = params.mem();
    let llc_mib = params.llc_mib.unwrap_or(2);
    let bars = map_mode(params.parallelism, fig8_benchmarks(), |p| {
        let p = scaled_profile(&p, params.scale);
        let opts = RunOptions {
            mem,
            ..RunOptions::symmetric(cores)
        };
        let out = run_profile(&p, &opts, None).expect("run");
        InterferenceBar {
            label: out.name.clone(),
            negative: out.stack.component(Component::NegativeLlc),
            positive: out.stack.positive_interference(),
        }
    });
    Fig8 {
        bars,
        cores,
        llc_mib,
    }
}

impl Fig8 {
    /// Converts the figure into its structured [`Report`].
    #[must_use]
    pub fn to_report(&self) -> Report {
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

/// Figure 8 as a registry [`Study`] (honors `scale`, `threads` — the
/// last entry — `parallelism` and `llc_mib`).
#[derive(Debug, Clone, Copy)]
pub struct Fig8Study;

impl Study for Fig8Study {
    fn name(&self) -> &'static str {
        "fig8"
    }

    fn description(&self) -> &'static str {
        "Negative/positive/net LLC interference per benchmark (16 cores, 2 MB LLC)"
    }

    fn run(&self, params: &StudyParams) -> Result<Report, SimError> {
        let mut report = run_fig8(params).to_report();
        params.record(&mut report);
        Ok(report)
    }
}

/// Figure 9 data: cholesky across LLC sizes.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// One bar triple per LLC size.
    pub bars: Vec<InterferenceBar>,
    /// Core/thread count of the runs (16 in the paper).
    pub cores: usize,
}

/// The LLC sizes of the sweep, in MiB.
pub const LLC_SIZES_MIB: [usize; 4] = [2, 4, 8, 16];

/// Regenerates Figure 9, honoring the thread-count override (the LLC
/// sizes are the figure's swept variable; `llc_mib` is ignored).
///
/// # Panics
///
/// Panics if a simulation fails.
#[must_use]
pub fn run_fig9(params: &StudyParams) -> Fig9 {
    let cores = params.single_count(16);
    let p = workloads::find("cholesky", Suite::Splash2).expect("catalog entry");
    let p = scaled_profile(&p, params.scale);
    let bars = map_mode(params.parallelism, LLC_SIZES_MIB.to_vec(), |mib| {
        let opts = RunOptions {
            mem: MemConfig::default().with_llc_mib(mib),
            ..RunOptions::symmetric(cores)
        };
        let out = run_profile(&p, &opts, None).expect("run");
        InterferenceBar {
            label: format!("{mib}MB"),
            negative: out.stack.component(Component::NegativeLlc),
            positive: out.stack.positive_interference(),
        }
    });
    Fig9 { bars, cores }
}

impl Fig9 {
    /// Converts the figure into its structured [`Report`].
    #[must_use]
    pub fn to_report(&self) -> Report {
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

/// Figure 9 as a registry [`Study`] (honors `scale`, `threads` — the
/// last entry — and `parallelism`).
#[derive(Debug, Clone, Copy)]
pub struct Fig9Study;

impl Study for Fig9Study {
    fn name(&self) -> &'static str {
        "fig9"
    }

    fn description(&self) -> &'static str {
        "Cholesky LLC interference vs LLC size, 2-16 MB (16 cores)"
    }

    fn run(&self, params: &StudyParams) -> Result<Report, SimError> {
        let mut report = run_fig9(params).to_report();
        params.record(&mut report);
        Ok(report)
    }
}
