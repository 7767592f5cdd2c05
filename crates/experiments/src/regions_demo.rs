//! §4.6 region stacks: the paper's proposed refinement.
//!
//! Hardware accounting cannot tell lock waiting from barrier waiting, so
//! the whole-program stack reports barrier imbalance as synchronization
//! (spinning/yielding). Computing one stack per barrier-delimited region
//! reclassifies the pre-barrier waits as *imbalance*, quantifying barrier
//! overhead directly. This experiment shows both views side by side for
//! a rotating-imbalance workload (the lud model).
//!
//! `report` runs lud once and builds both views straight from the run.

use cmpsim::{region_stacks, MachineConfig, SimResult};
use speedup_stacks::report::{Block, Column, Degraded, Report, Scalar, Table, Unit, Value};
use speedup_stacks::{AccountingConfig, Component, SimError};
use workloads::{streams_for, Suite};

use crate::decompose::finish;
use crate::par::fault_domain;
use crate::runner::{scaled_profile, simulate};
use crate::study::StudyParams;

/// Runs lud at 16 threads with region recording on, honoring the
/// thread-count and LLC overrides: the display name and the run. The
/// one run has no single-thread reference and nothing to fan out: it
/// runs in its own fault domain under the parameters' fault policy, no
/// unit graph needed. [`SimError::Engine`] when the run fails every
/// attempt (a deadline overrun included).
fn simulate_lud(params: &StudyParams) -> Result<(String, SimResult), SimError> {
    let threads = params.single_count(16);
    let p = workloads::find("lud", Suite::Rodinia).expect("catalog entry");
    let p = scaled_profile(&p, params.scale);
    let mut cfg = MachineConfig::with_cores(threads);
    cfg.mem = params.mem();
    cfg.record_regions = true;
    let (outcome, _) = fault_domain(params.faults.retries, || {
        simulate(cfg, streams_for(&p, threads), params.faults.deadline_cycles)
            .map_err(|e| e.to_string())
    });
    let result = outcome.map_err(|what| SimError::Engine { what })?;
    Ok((workloads::display_name(&p), result))
}

/// The demonstration as the registry runs it: the whole-program stack
/// against one stack per barrier-delimited region.
pub(crate) fn report(params: &StudyParams) -> Result<Report, SimError> {
    let threads = params.single_count(16);
    let (name, result) = simulate_lud(params)?;
    let accounting = AccountingConfig::default();
    let whole = result.stack(&accounting).map_err(SimError::Stack)?;
    let regions = region_stacks(&result, &accounting).map_err(SimError::Stack)?;
    let whole_sync = whole.component(Component::Spinning) + whole.component(Component::Yielding);
    let mean_region_imbalance = if regions.is_empty() {
        0.0
    } else {
        regions
            .iter()
            .map(|s| s.component(Component::Imbalance))
            .sum::<f64>()
            / regions.len() as f64
    };
    let title = format!("§4.6 region stacks ({name}, {threads} threads)");
    let mut report = Report::new("regions", &title);
    report.push(Block::line(&title));
    report.push(Block::Blank);
    report.push(Block::line(format!(
        "whole-program stack: spinning={:.2} yielding={:.2} imbalance={:.2}",
        whole.component(Component::Spinning),
        whole.component(Component::Yielding),
        whole.component(Component::Imbalance),
    )));
    report.push(Block::hidden(Block::Stack {
        label: "whole_program".to_string(),
        stack: whole,
    }));
    report.push(Block::line(format!(
        "per-region stacks ({} regions):",
        regions.len()
    )));
    let mut table = Table::new(
        "region_stacks",
        vec![
            Column::new("region")
                .text_header("{:<8}")
                .left(8)
                .unit(Unit::Count),
            Column::new("spin")
                .text_header(" {:>8}")
                .prefix(" ")
                .width(8)
                .precision(2)
                .unit(Unit::Speedup),
            Column::new("yielding")
                .text_header(" {:>9}")
                .prefix(" ")
                .width(9)
                .precision(2)
                .unit(Unit::Speedup),
            Column::new("imbalance")
                .text_header(" {:>9}")
                .prefix(" ")
                .width(9)
                .precision(2)
                .unit(Unit::Speedup),
            Column::new("estimated_speedup")
                .header(format!(" {:>10}", "est.speedup"))
                .prefix(" ")
                .width(10)
                .precision(2)
                .unit(Unit::Speedup),
            Column::new("tp_cycles")
                .header(format!(" {:>8}", "Tp"))
                .prefix(" ")
                .width(8)
                .unit(Unit::Cycles),
        ],
    );
    for (i, s) in regions.iter().enumerate() {
        table.row(vec![
            Value::U64(i as u64),
            s.component(Component::Spinning).into(),
            s.component(Component::Yielding).into(),
            s.component(Component::Imbalance).into(),
            s.estimated_speedup().into(),
            s.tp_cycles().into(),
        ]);
    }
    report.push(Block::Table(table));
    report.push(Block::Blank);
    report.push(Block::Scalar(Scalar::new(
        "whole_program_sync",
        whole_sync,
        Unit::Speedup,
        format!(
            "whole-program sync (spin+yield) = {whole_sync:.2}  →  mean per-region imbalance = \
             {mean_region_imbalance:.2}"
        ),
    )));
    report.push(Block::hidden(Block::Scalar(Scalar::new(
        "mean_region_imbalance",
        mean_region_imbalance,
        Unit::Speedup,
        String::new(),
    ))));
    report.push(Block::line(
        "(the barrier waiting that hardware must book as synchronization is\n revealed as per-phase load imbalance once stacks are computed per region)",
    ));
    Ok(finish(report, Degraded::default(), None, params))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The value of the scalar called `name`, hidden or not.
    fn scalar(report: &Report, name: &str) -> f64 {
        report
            .blocks
            .iter()
            .map(|b| match b {
                Block::Hidden(inner) => &**inner,
                b => b,
            })
            .find_map(|b| match b {
                Block::Scalar(s) if s.name == name => s.value.as_f64(),
                _ => None,
            })
            .unwrap_or_else(|| panic!("scalar {name} missing"))
    }

    #[test]
    fn region_view_reclassifies_barrier_waits() {
        let report = report(&StudyParams::with_scale(0.25)).unwrap();
        let table = report
            .blocks
            .iter()
            .find_map(|b| match b {
                Block::Table(t) if t.name == "region_stacks" => Some(t),
                _ => None,
            })
            .expect("region table");
        assert!(!table.rows.is_empty());
        // Whole-program: barrier waits are sync; per-region: imbalance.
        let whole_sync = scalar(&report, "whole_program_sync");
        let mean_region_imbalance = scalar(&report, "mean_region_imbalance");
        assert!(whole_sync > 2.0, "whole-program sync {whole_sync:.2}");
        assert!(
            mean_region_imbalance > 2.0,
            "mean region imbalance {mean_region_imbalance:.2}"
        );
        // Inside regions there is almost no synchronization left.
        let column = |name: &str| {
            let i = table.columns.iter().position(|c| c.name == name);
            i.unwrap_or_else(|| panic!("column {name} missing"))
        };
        let (spin, yielding) = (column("spin"), column("yielding"));
        let mean_region_sync: f64 = table
            .rows
            .iter()
            .map(|r| r[spin].as_f64().unwrap() + r[yielding].as_f64().unwrap())
            .sum::<f64>()
            / table.rows.len() as f64;
        assert!(
            mean_region_sync < mean_region_imbalance / 2.0,
            "regions still sync-heavy: {mean_region_sync:.2}"
        );
    }

    #[test]
    fn region_stacks_are_valid() {
        let (_, result) = simulate_lud(&StudyParams::with_scale(0.25)).unwrap();
        let regions = region_stacks(&result, &AccountingConfig::default()).unwrap();
        for s in &regions {
            assert!(s.is_valid());
            assert_eq!(s.num_threads(), 16);
        }
    }
}
