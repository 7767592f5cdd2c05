//! Figure 7: ferret speedup as a function of the number of cores, with
//! `#threads = #cores` versus a fixed 16 threads.
//!
//! The paper's insight: for yield-dominated benchmarks the speedup number
//! approximates the average number of *active* threads, so performance
//! saturates once the core count exceeds it — and oversubscribing
//! (16 threads on fewer cores) performs at least as well as
//! threads = cores.
//!
//! `report` runs the sweep and builds the figure straight from its
//! outcomes.

use speedup_stacks::report::{Block, Column, Report, Table, Unit, Value};
use speedup_stacks::SimError;
use workloads::{display_name, Suite};

use crate::decompose::{finish, run_machines};
use crate::runner::{point_label, scaled_profile, RunOptions};
use crate::study::StudyParams;

/// Core counts of the sweep.
const CORE_COUNTS: [usize; 4] = [2, 4, 8, 16];

/// The oversubscribed thread count of the second series.
const FIXED_THREADS: usize = 16;

/// Figure 7 as the registry runs it, for the paper's ferret (simsmall):
/// one single-thread reference gating both series' points (threads =
/// cores, then [`FIXED_THREADS`] threads, per core count), one table row
/// per completed threads = cores point. `threads` overrides the swept
/// core counts (the oversubscribed series keeps [`FIXED_THREADS`]
/// software threads); a failed point is left out of its series (its
/// 16-thread cell reads `Missing`) and named in the report's `Degraded`
/// block.
pub(crate) fn report(params: &StudyParams) -> Result<Report, SimError> {
    let core_counts = params.counts_or(&CORE_COUNTS);
    let p = workloads::find("ferret", Suite::ParsecSmall).expect("catalog entry");
    let p = scaled_profile(&p, params.scale);
    let machine = |cores: usize, threads: usize| RunOptions {
        cores,
        threads,
        mem: params.mem(),
        ..RunOptions::symmetric(cores)
    };
    let points: Vec<(usize, RunOptions)> = core_counts
        .iter()
        .map(|&c| machine(c, c))
        .chain(core_counts.iter().map(|&c| machine(c, FIXED_THREADS)))
        .map(|opts| (0, opts))
        .collect();
    let name = display_name(&p);
    let label = |i: usize| {
        let RunOptions { cores, threads, .. } = points[i].1;
        format!("{} on {cores} cores", point_label(&name, threads))
    };
    let (outs, degraded) = run_machines(params, &p, &[machine(1, 1)], &points, label);
    let (eq_cores, sixteen) = outs.split_at(core_counts.len());
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
    for (&cores, eq) in core_counts.iter().zip(eq_cores) {
        let Some(eq) = eq else { continue };
        // The first completed 16-thread point on as many cores.
        let sixteen = core_counts
            .iter()
            .zip(sixteen)
            .find_map(|(&c, out)| out.as_ref().filter(|_| c == cores));
        table.row(vec![
            cores.into(),
            eq.actual.into(),
            sixteen.map_or(Value::Missing, |o| Value::F64(o.actual)),
        ]);
    }
    report.push(Block::Table(table));
    Ok(finish(report, degraded, None, params))
}
