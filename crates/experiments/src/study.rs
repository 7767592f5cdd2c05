//! The unified study API: every experiment as data.
//!
//! A [`Study`] is a named, described, enumerable experiment whose
//! [`Study::run`] takes typed [`StudyParams`] and returns a structured
//! [`Report`] — the same value model every driver consumes: the `repro`
//! CLI (`--list`, `--format text|json|csv`), the `benchmark/` harness,
//! tests and future runners. The twelve paper studies
//! (fig1–fig9, hwcost, regions, scaling) are the entries of
//! [`registry`]: a key, a description and a run each.
//!
//! # Examples
//!
//! Enumerate the registry and run one cheap study:
//!
//! ```
//! use experiments::study::{find_study, registry, StudyParams};
//!
//! assert_eq!(registry().len(), 12);
//! assert!(registry().iter().any(|s| s.name() == "fig4"));
//!
//! let hwcost = find_study("hwcost").unwrap();
//! let report = hwcost.run(&StudyParams::default()).unwrap();
//! assert_eq!(report.study, "hwcost");
//! assert!(report.to_text().contains("Hardware cost"));
//! assert!(speedup_stacks::report::json::parse(&report.to_json()).is_ok());
//! ```

use cmpsim::MachineConfig;
use memsim::MemConfig;
use speedup_stacks::error::ConfigError;
use speedup_stacks::report::{Report, Value};
use speedup_stacks::SimError;

use workloads::mix::MAX_MEMBERS;
use workloads::trace::TraceSpec;

use crate::decompose::{decompose, grid_study};
use crate::journal::JournalSpec;
use crate::par::Parallelism;
use crate::runner::FaultPolicy;

/// Typed parameters shared by every study.
///
/// Studies honor the subset that is meaningful for them (see
/// [`registry`]); defaults reproduce the paper's configuration
/// exactly, so default-parameter runs match the golden figure output.
/// The rule each field states below is [`StudyParams::validate`]'s;
/// [`Study::check`] adds the study's own.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyParams {
    /// Workload size multiplier (1.0 = the catalog sizes); finite, > 0.
    pub scale: f64,
    /// Thread/core-count override: the sweep set for sweep studies, the
    /// last entry for single-count studies. `None` = the paper's counts.
    /// Non-empty, each count 1 to [`MachineConfig::MAX_CORES`]; for
    /// `scaling`, at most the rate mix's [`workloads::mix::MAX_MEMBERS`].
    pub threads: Option<Vec<usize>>,
    /// Sweep parallelism for every simulating study (results are
    /// deterministic and identical across modes); workers >= 1.
    pub parallelism: Parallelism,
    /// Shared-LLC capacity override in MiB (`None` = each study's
    /// default machine). A power of two up to [`MemConfig::MAX_LLC_MIB`]:
    /// the caches' set counts are powers of two, as in the paper (§5).
    pub llc_mib: Option<usize>,
    /// Per-unit fault policy (deadline, retries), honored by every
    /// simulating study: a failed unit degrades its points (`regions`,
    /// one run, fails with [`speedup_stacks::SimError::Engine`]); a
    /// deadline is >= 1 cycle.
    pub faults: FaultPolicy,
    /// Crash-safe journaling / resume for the grid studies (those
    /// [`crate::decompose::decompose`] knows: `fig1`–`fig6`, `fig8`) only.
    pub journal: Option<JournalSpec>,
    /// Compute-unit budget per invocation (references + points) of a
    /// grid study only; the sweep checkpoints and reports
    /// [`speedup_stacks::SimError::Interrupted`] when it runs out; >= 1.
    pub max_points: Option<usize>,
    /// Trace capture / replay for the grid studies (those
    /// [`crate::decompose::decompose`] knows) only. Capture records every
    /// run's op streams to the file; replay draws them back so the run
    /// reproduces the captured report bit for bit. Deliberately **not**
    /// echoed by [`StudyParams::record`]: a replayed report must stay
    /// byte-identical to the generated one.
    pub trace: Option<TraceSpec>,
}

impl Default for StudyParams {
    fn default() -> Self {
        StudyParams {
            scale: 1.0,
            threads: None,
            parallelism: Parallelism::Auto,
            llc_mib: None,
            faults: FaultPolicy::default(),
            journal: None,
            max_points: None,
            trace: None,
        }
    }
}

impl StudyParams {
    /// Default parameters at a given workload scale.
    #[must_use]
    pub fn with_scale(scale: f64) -> Self {
        StudyParams {
            scale,
            ..StudyParams::default()
        }
    }

    /// The sweep counts: the `threads` override, or `default`.
    #[must_use]
    pub fn counts_or(&self, default: &[usize]) -> Vec<usize> {
        self.threads.clone().unwrap_or_else(|| default.to_vec())
    }

    /// The single thread count for non-sweep studies: the last entry of
    /// the `threads` override, or `default`.
    #[must_use]
    pub fn single_count(&self, default: usize) -> usize {
        self.threads
            .as_ref()
            .and_then(|t| t.last().copied())
            .unwrap_or(default)
    }

    /// The memory configuration: the default hierarchy with the LLC
    /// override applied.
    #[must_use]
    pub fn mem(&self) -> MemConfig {
        match self.llc_mib {
            Some(mib) => MemConfig::default().with_llc_mib(mib),
            None => MemConfig::default(),
        }
    }

    /// The rules a value breaks whatever the study: each field's own,
    /// but for the grid-only and per-study limits [`Study::check`] adds.
    ///
    /// # Errors
    ///
    /// [`ConfigError::OutOfRange`] naming the first offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let refuse = |what, why: &'static str| Err(ConfigError::range(what, why));
        if !(self.scale.is_finite() && self.scale > 0.0) {
            return refuse("scale", "requires a positive finite number");
        }
        if let Some(counts) = &self.threads {
            check_counts(counts, MachineConfig::MAX_CORES)?;
        }
        let max = MemConfig::MAX_LLC_MIB;
        if let Some(mib) = self.llc_mib.filter(|&m| !(m.is_power_of_two() && m <= max)) {
            let why = format!("requires a power of two from 1 to {max} MiB, got {mib}");
            return Err(ConfigError::range("llc_mib", why));
        }
        if self.parallelism == Parallelism::Workers(0) {
            let why = "requires auto, serial or a worker count >= 1";
            return refuse("parallelism", why);
        }
        if self.faults.deadline_cycles == Some(0) {
            return refuse("deadline_cycles", "requires a cycle count >= 1");
        }
        if self.max_points == Some(0) {
            return refuse("max_points", "requires a point budget >= 1");
        }
        Ok(())
    }

    /// Records the parameters into a report's `params` map.
    pub fn record(&self, report: &mut Report) {
        report.param("scale", self.scale);
        if let Some(t) = &self.threads {
            let list = t
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",");
            report.param("threads", Value::str(list));
        }
        let mode = match self.parallelism {
            Parallelism::Auto => "auto".to_string(),
            Parallelism::Serial => "serial".to_string(),
            Parallelism::Workers(n) => n.to_string(),
        };
        report.param("parallelism", Value::str(mode));
        if let Some(mib) = self.llc_mib {
            report.param("llc_mib", mib as u64);
        }
    }
}

/// One enumerable experiment: a name, a description and a parameterized
/// run producing a structured [`Report`]. The entries of [`registry`]
/// are the only studies there are.
///
/// # Examples
///
/// ```
/// use experiments::study::{find_study, StudyParams};
///
/// let study = find_study("hwcost").unwrap();
/// assert_eq!(study.name(), "hwcost");
/// let report = study.run(&StudyParams::default()).unwrap();
/// assert_eq!(report.params[0].0, "scale");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Study {
    name: &'static str,
    description: &'static str,
    /// The most threads the study runs ([`Study::check`]).
    max_threads: usize,
    run: fn(&StudyParams) -> Result<Report, SimError>,
}

/// Refuses an empty list, or its first count outside `1..=max`.
fn check_counts(counts: &[usize], max: usize) -> Result<(), ConfigError> {
    let why = match counts.iter().find(|&&n| n == 0 || n > max) {
        Some(n) => format!("requires counts from 1 to {max}, got {n}"),
        None if counts.is_empty() => "requires at least one count".into(),
        None => return Ok(()),
    };
    Err(ConfigError::range("threads", why))
}

impl Study {
    /// Registry key (`fig1` … `fig9`, `hwcost`, `regions`, `scaling`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line description for `repro --list`.
    #[must_use]
    pub fn description(&self) -> &'static str {
        self.description
    }

    /// The gate: [`StudyParams::validate`], thread counts up to the
    /// study's own limit, and `journal`, `max_points` and `trace` on grid
    /// studies only. What it accepts runs without a panic.
    ///
    /// # Errors
    ///
    /// [`ConfigError::OutOfRange`] naming the first offending field.
    pub fn check(&self, params: &StudyParams) -> Result<(), ConfigError> {
        params.validate()?;
        if let Some(counts) = &params.threads {
            check_counts(counts, self.max_threads)?;
        }
        let grid_only = [
            ("journal", params.journal.is_some()),
            ("max_points", params.max_points.is_some()),
            ("trace", params.trace.is_some()),
        ];
        match grid_only.iter().find(|(_, set)| *set) {
            Some((what, _)) if decompose(self.name, params).is_none() => {
                let grids: Vec<&str> = REGISTRY
                    .iter()
                    .map(|s| s.name)
                    .filter(|name| decompose(name, params).is_some())
                    .collect();
                let (name, grids) = (self.name, grids.join(", "));
                let why = format!("is not supported by '{name}' (grid studies only: {grids})");
                Err(ConfigError::range(what, why))
            }
            _ => Ok(()),
        }
    }

    /// Runs the study and returns its structured report (with the
    /// parameters echoed into [`Report::params`]).
    ///
    /// Sweeping studies degrade gracefully: per-point faults (panics,
    /// engine errors, deadline overruns) do not fail the run — they
    /// surface in the report's `Degraded` block. An `Err` means the run
    /// as a whole could not proceed: invalid configuration, a journal
    /// problem, an exhausted point budget
    /// ([`speedup_stacks::SimError::Interrupted`] — resume finishes it),
    /// or the failed single run of `regions`.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] for what [`Study::check`] refuses, else see
    /// [`speedup_stacks::SimError`]; each variant has its own exit code.
    pub fn run(&self, params: &StudyParams) -> Result<Report, SimError> {
        self.check(params).map_err(SimError::Config)?;
        (self.run)(params)
    }
}

static REGISTRY: [Study; 12] = [
    Study {
        name: "fig1",
        description: "Speedup vs cores for blackscholes, facesim and cholesky (1-16 threads)",
        max_threads: MachineConfig::MAX_CORES,
        run: |p| grid_study("fig1", p).run(p),
    },
    Study {
        name: "fig2",
        description: "Illustrative annotated speedup stack (facesim, 16 threads)",
        max_threads: MachineConfig::MAX_CORES,
        run: |p| grid_study("fig2", p).run(p),
    },
    Study {
        name: "fig3",
        description: "Per-thread execution-time breakup underlying a stack (cholesky, 4 threads)",
        max_threads: MachineConfig::MAX_CORES,
        run: |p| grid_study("fig3", p).run(p),
    },
    Study {
        name: "fig4",
        description: "Actual vs estimated speedup for all 28 benchmarks (validation grid)",
        max_threads: MachineConfig::MAX_CORES,
        run: |p| grid_study("fig4", p).run(p),
    },
    Study {
        name: "fig5",
        description: "Speedup stacks vs thread count for the three case-study benchmarks",
        max_threads: MachineConfig::MAX_CORES,
        run: |p| grid_study("fig5", p).run(p),
    },
    Study {
        name: "fig6",
        description: "Benchmark classification tree over the full suite (16 threads)",
        max_threads: MachineConfig::MAX_CORES,
        run: |p| grid_study("fig6", p).run(p),
    },
    Study {
        name: "fig7",
        description: "Ferret speedup vs cores: threads=cores versus a fixed 16 threads",
        max_threads: MachineConfig::MAX_CORES,
        run: crate::fig7::report,
    },
    Study {
        name: "fig8",
        description: "Negative/positive/net LLC interference per benchmark (16 cores, 2 MB LLC)",
        max_threads: MachineConfig::MAX_CORES,
        run: |p| grid_study("fig8", p).run(p),
    },
    Study {
        name: "fig9",
        description: "Cholesky LLC interference vs LLC size, 2-16 MB (16 cores)",
        max_threads: MachineConfig::MAX_CORES,
        run: crate::fig89::fig9_report,
    },
    Study {
        name: "hwcost",
        description: "Hardware cost of the accounting architecture (no simulation)",
        max_threads: MachineConfig::MAX_CORES,
        run: crate::hwcost::report,
    },
    Study {
        name: "regions",
        description: "Whole-program vs per-region stacks: barrier waits become imbalance (lud)",
        max_threads: MachineConfig::MAX_CORES,
        run: crate::regions_demo::report,
    },
    Study {
        name: "scaling",
        description:
            "Beyond the paper: speedup stacks from 1 to 128 cores (weak scaling + rate mix)",
        // The rate mix runs one program per thread, in a member band each.
        max_threads: MAX_MEMBERS,
        run: crate::scaling::report,
    },
];

/// Every registered study, in presentation order (the paper's figures,
/// then the beyond-the-paper studies). The grid studies (those
/// [`crate::decompose::decompose`] knows: fig1–fig6, fig8) run their
/// grid's local sweep and honor every [`StudyParams`] field; the others
/// refuse `journal`, `max_points` and `trace` ([`Study::check`]) and
/// honor what their run reads — fig7, fig9 and scaling the rest, regions
/// the rest less `parallelism`, hwcost `threads` only.
///
/// ```
/// let names: Vec<&str> = experiments::registry().iter().map(|s| s.name()).collect();
/// assert_eq!(names[0], "fig1");
/// assert!(names.contains(&"scaling"));
/// ```
#[must_use]
pub fn registry() -> &'static [Study] {
    &REGISTRY
}

/// Looks a study up by registry key.
#[must_use]
pub fn find_study(name: &str) -> Option<&'static Study> {
    REGISTRY.iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_enumerates_twelve_unique_studies() {
        let names: Vec<&str> = registry().iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 12);
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 12, "duplicate study names: {names:?}");
        for expected in [
            "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "hwcost",
            "regions", "scaling",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn descriptions_are_nonempty() {
        for s in registry() {
            assert!(
                !s.description().is_empty(),
                "{} lacks description",
                s.name()
            );
        }
    }

    #[test]
    fn params_helpers() {
        let p = StudyParams {
            threads: Some(vec![2, 8]),
            llc_mib: Some(8),
            ..StudyParams::with_scale(0.5)
        };
        assert_eq!(p.counts_or(&[1, 2, 4]), vec![2, 8]);
        assert_eq!(p.single_count(16), 8);
        assert_eq!(p.mem().llc.lines() * 64, 8 * 1024 * 1024);
        let d = StudyParams::default();
        assert_eq!(d.counts_or(&[1, 2]), vec![1, 2]);
        assert_eq!(d.single_count(16), 16);
        assert_eq!(d.mem(), MemConfig::default());
    }

    #[test]
    fn params_recorded_into_report() {
        let mut r = Report::new("x", "x");
        let p = StudyParams {
            threads: Some(vec![2, 4]),
            ..StudyParams::with_scale(0.25)
        };
        p.record(&mut r);
        assert_eq!(r.params[0], ("scale".to_string(), Value::F64(0.25)));
        assert!(r
            .params
            .iter()
            .any(|(k, v)| k == "threads" && *v == Value::str("2,4")));
    }
}
