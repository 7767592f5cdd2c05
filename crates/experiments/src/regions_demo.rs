//! §4.6 region stacks: the paper's proposed refinement.
//!
//! Hardware accounting cannot tell lock waiting from barrier waiting, so
//! the whole-program stack reports barrier imbalance as synchronization
//! (spinning/yielding). Computing one stack per barrier-delimited region
//! reclassifies the pre-barrier waits as *imbalance*, quantifying barrier
//! overhead directly. This experiment shows both views side by side for
//! a rotating-imbalance workload (the lud model).

use cmpsim::{region_stacks, MachineConfig};
use speedup_stacks::report::{Block, Column, Report, Scalar, Table, Unit, Value};
use speedup_stacks::{AccountingConfig, Component, SimError, SpeedupStack};
use workloads::{streams_for, Suite};

use crate::par::fault_domain;
use crate::runner::{scaled_profile, simulate};
use crate::study::StudyParams;

/// Whole-program vs per-region decomposition.
#[derive(Debug)]
struct RegionsDemo {
    /// Benchmark display name.
    name: String,
    /// The conventional whole-program stack.
    whole: SpeedupStack,
    /// One stack per barrier-delimited region.
    regions: Vec<SpeedupStack>,
    /// Thread count of the run (16 in the paper's demonstration).
    threads: usize,
}

impl RegionsDemo {
    /// Total synchronization (spin + yield) in the whole-program stack.
    fn whole_sync(&self) -> f64 {
        self.whole.component(Component::Spinning) + self.whole.component(Component::Yielding)
    }

    /// Average imbalance component across region stacks.
    fn mean_region_imbalance(&self) -> f64 {
        if self.regions.is_empty() {
            return 0.0;
        }
        self.regions
            .iter()
            .map(|s| s.component(Component::Imbalance))
            .sum::<f64>()
            / self.regions.len() as f64
    }
}

/// Runs the region-stack demonstration (lud at 16 threads), honoring the
/// thread-count and LLC overrides: the body of [`report`]. The one run
/// has no single-thread reference and nothing to fan out: it runs in its
/// own fault domain under the parameters' fault policy, no unit graph
/// needed. [`SimError::Engine`] when the run fails every attempt (a
/// deadline overrun included).
fn run(params: &StudyParams) -> Result<RegionsDemo, SimError> {
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
    let accounting = AccountingConfig::default();
    Ok(RegionsDemo {
        name: workloads::display_name(&p),
        whole: result.stack(&accounting).map_err(SimError::Stack)?,
        regions: region_stacks(&result, &accounting).map_err(SimError::Stack)?,
        threads,
    })
}

impl RegionsDemo {
    /// Converts the demonstration into its structured [`Report`].
    fn to_report(&self) -> Report {
        let title = format!(
            "§4.6 region stacks ({}, {} threads)",
            self.name, self.threads
        );
        let mut report = Report::new("regions", &title);
        report.push(Block::line(&title));
        report.push(Block::Blank);
        report.push(Block::line(format!(
            "whole-program stack: spinning={:.2} yielding={:.2} imbalance={:.2}",
            self.whole.component(Component::Spinning),
            self.whole.component(Component::Yielding),
            self.whole.component(Component::Imbalance),
        )));
        report.push(Block::hidden(Block::Stack {
            label: "whole_program".to_string(),
            stack: self.whole.clone(),
        }));
        report.push(Block::line(format!(
            "per-region stacks ({} regions):",
            self.regions.len()
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
        for (i, s) in self.regions.iter().enumerate() {
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
            self.whole_sync(),
            Unit::Speedup,
            format!(
                "whole-program sync (spin+yield) = {:.2}  →  mean per-region imbalance = {:.2}",
                self.whole_sync(),
                self.mean_region_imbalance()
            ),
        )));
        report.push(Block::hidden(Block::Scalar(Scalar::new(
            "mean_region_imbalance",
            self.mean_region_imbalance(),
            Unit::Speedup,
            String::new(),
        ))));
        report.push(Block::line(
            "(the barrier waiting that hardware must book as synchronization is\n revealed as per-phase load imbalance once stacks are computed per region)",
        ));
        report
    }
}

/// The demonstration as the registry runs it.
pub(crate) fn report(params: &StudyParams) -> Result<Report, SimError> {
    let mut report = run(params)?.to_report();
    params.record(&mut report);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_view_reclassifies_barrier_waits() {
        let demo = run(&StudyParams::with_scale(0.25)).unwrap();
        assert!(!demo.regions.is_empty());
        // Whole-program: barrier waits are sync; per-region: imbalance.
        assert!(
            demo.whole_sync() > 2.0,
            "whole-program sync {:.2}",
            demo.whole_sync()
        );
        assert!(
            demo.mean_region_imbalance() > 2.0,
            "mean region imbalance {:.2}",
            demo.mean_region_imbalance()
        );
        // Inside regions there is almost no synchronization left.
        let mean_region_sync: f64 = demo
            .regions
            .iter()
            .map(|s| s.component(Component::Spinning) + s.component(Component::Yielding))
            .sum::<f64>()
            / demo.regions.len() as f64;
        assert!(
            mean_region_sync < demo.mean_region_imbalance() / 2.0,
            "regions still sync-heavy: {mean_region_sync:.2}"
        );
    }

    #[test]
    fn region_stacks_are_valid() {
        let demo = run(&StudyParams::with_scale(0.25)).unwrap();
        for s in &demo.regions {
            assert!(s.is_valid());
            assert_eq!(s.num_threads(), 16);
        }
    }
}
