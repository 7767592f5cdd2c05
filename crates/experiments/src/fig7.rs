//! Figure 7: ferret speedup as a function of the number of cores, with
//! `#threads = #cores` versus a fixed 16 threads.
//!
//! The paper's insight: for yield-dominated benchmarks the speedup number
//! approximates the average number of *active* threads, so performance
//! saturates once the core count exceeds it — and oversubscribing
//! (16 threads on fewer cores) performs at least as well as
//! threads = cores.

use speedup_stacks::report::{Block, Column, Report, Table, Unit, Value};
use speedup_stacks::SimError;
use workloads::Suite;

use crate::par::map_mode;
use crate::runner::{run_profile, scaled_profile, single_thread_reference, RunOptions};
use crate::study::{Study, StudyParams};

/// Core counts of the sweep.
pub const CORE_COUNTS: [usize; 4] = [2, 4, 8, 16];

/// The oversubscribed thread count of the second series.
pub const FIXED_THREADS: usize = 16;

/// Figure 7 data.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// `(cores, speedup)` with `threads == cores`.
    pub threads_eq_cores: Vec<(usize, f64)>,
    /// `(cores, speedup)` with [`FIXED_THREADS`] threads regardless of
    /// cores.
    pub sixteen_threads: Vec<(usize, f64)>,
}

impl Fig7 {
    /// Speedup with 16 threads on `cores` cores.
    #[must_use]
    pub fn sixteen_at(&self, cores: usize) -> Option<f64> {
        self.sixteen_threads
            .iter()
            .find(|(c, _)| *c == cores)
            .map(|(_, s)| *s)
    }

    /// Converts the figure into its structured [`Report`].
    #[must_use]
    pub fn to_report(&self) -> Report {
        let title = "Figure 7: ferret speedup vs number of cores";
        let mut report = Report::new("fig7", title);
        report.push(Block::line(title));
        let mut table = Table::new(
            "speedups",
            vec![
                Column::new("cores")
                    .text_header("{:<10}")
                    .left(10)
                    .unit(Unit::Count),
                Column::new("threads_eq_cores")
                    .header(format!(" {:>16}", "#threads=#cores"))
                    .prefix(" ")
                    .width(16)
                    .precision(2)
                    .unit(Unit::Speedup),
                Column::new("sixteen_threads")
                    .header(format!(" {:>14}", "16 threads"))
                    .prefix(" ")
                    .width(14)
                    .precision(2)
                    .unit(Unit::Speedup),
            ],
        );
        for (i, (c, eq)) in self.threads_eq_cores.iter().enumerate() {
            table.row(vec![
                (*c).into(),
                (*eq).into(),
                self.sixteen_threads
                    .get(i)
                    .map_or(Value::Missing, |(_, s)| Value::F64(*s)),
            ]);
        }
        report.push(Block::Table(table));
        report
    }
}

/// Regenerates Figure 7 for the paper's ferret (simsmall): `threads`
/// overrides the swept core counts (the oversubscribed series keeps
/// [`FIXED_THREADS`] software threads).
///
/// # Panics
///
/// Panics if a simulation fails.
#[must_use]
pub fn run(params: &StudyParams) -> Fig7 {
    let core_counts = params.counts_or(&CORE_COUNTS);
    let p = workloads::find("ferret", Suite::ParsecSmall).expect("catalog entry");
    let p = scaled_profile(&p, params.scale);
    let base = RunOptions {
        mem: params.mem(),
        ..RunOptions::symmetric(1)
    };
    let st = single_thread_reference(&p, &base).expect("single-thread run");

    // Both series as one parallel sweep over the independent points.
    let configs: Vec<(usize, usize)> = core_counts
        .iter()
        .map(|&c| (c, c))
        .chain(core_counts.iter().map(|&c| (c, FIXED_THREADS)))
        .collect();
    let speedups = map_mode(params.parallelism, configs, |(cores, threads)| {
        let opts = RunOptions {
            cores,
            threads,
            mem: params.mem(),
            ..RunOptions::symmetric(cores)
        };
        run_profile(&p, &opts, Some(st)).expect("run").actual
    });
    let (eq, sixteen) = speedups.split_at(core_counts.len());
    Fig7 {
        threads_eq_cores: core_counts
            .iter()
            .copied()
            .zip(eq.iter().copied())
            .collect(),
        sixteen_threads: core_counts
            .iter()
            .copied()
            .zip(sixteen.iter().copied())
            .collect(),
    }
}

/// Figure 7 as a registry [`Study`] (honors `scale`, `threads` — the
/// swept core counts — `parallelism` and `llc_mib`).
#[derive(Debug, Clone, Copy)]
pub struct Fig7Study;

impl Study for Fig7Study {
    fn name(&self) -> &'static str {
        "fig7"
    }

    fn description(&self) -> &'static str {
        "Ferret speedup vs cores: threads=cores versus a fixed 16 threads"
    }

    fn run(&self, params: &StudyParams) -> Result<Report, SimError> {
        let mut report = run(params).to_report();
        params.record(&mut report);
        Ok(report)
    }
}
