//! The unified study API: every experiment as data.
//!
//! A [`Study`] is a named, described, enumerable experiment whose
//! [`Study::run`] takes typed [`StudyParams`] and returns a structured
//! [`Report`] — the same value model every driver consumes: the `repro`
//! CLI (`--list`, `--format text|json|csv`), the `benchmark/` harness,
//! tests and future runners. The twelve paper studies
//! (fig1–fig9, hwcost, regions, scaling) register themselves in
//! [`registry`].
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

use memsim::MemConfig;
use speedup_stacks::report::{Report, Value};
use speedup_stacks::SimError;

use workloads::trace::TraceSpec;

use crate::journal::JournalSpec;
use crate::par::Parallelism;
use crate::runner::FaultPolicy;

/// Typed parameters shared by every study.
///
/// Studies honor the subset that is meaningful for them (documented on
/// each study struct); defaults reproduce the paper's configuration
/// exactly, so default-parameter runs match the golden figure output.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyParams {
    /// Workload size multiplier (1.0 = the catalog sizes).
    pub scale: f64,
    /// Thread/core-count override: the sweep set for sweep studies, the
    /// last entry for single-count studies. `None` = the paper's counts.
    pub threads: Option<Vec<usize>>,
    /// Sweep parallelism for grid studies (results are deterministic and
    /// identical across modes).
    pub parallelism: Parallelism,
    /// Shared-LLC capacity override in MiB (`None` = each study's
    /// default machine).
    pub llc_mib: Option<usize>,
    /// Per-point fault policy (deadline, retries) for grid studies.
    pub faults: FaultPolicy,
    /// Crash-safe journaling / resume for the grid studies (those
    /// [`crate::decompose::decompose`] knows).
    pub journal: Option<JournalSpec>,
    /// Compute-unit budget per invocation (references + points); the
    /// sweep checkpoints and reports
    /// [`speedup_stacks::SimError::Interrupted`] when it runs out.
    pub max_points: Option<usize>,
    /// Trace capture / replay for the grid studies (those
    /// [`crate::decompose::decompose`] knows). Capture records every
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
        match &self.threads {
            Some(t) if !t.is_empty() => t.clone(),
            _ => default.to_vec(),
        }
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
/// run producing a structured [`Report`].
///
/// # Examples
///
/// ```
/// use experiments::study::{Study, StudyParams};
/// use experiments::hwcost::HwCostStudy;
///
/// let study = HwCostStudy;
/// assert_eq!(study.name(), "hwcost");
/// let report = study.run(&StudyParams::default()).unwrap();
/// assert_eq!(report.params[0].0, "scale");
/// ```
pub trait Study: Sync {
    /// Registry key (`fig1` … `fig9`, `hwcost`, `regions`, `scaling`).
    fn name(&self) -> &'static str;

    /// One-line description for `repro --list`.
    fn description(&self) -> &'static str;

    /// Runs the study and returns its structured report (with the
    /// parameters echoed into [`Report::params`]).
    ///
    /// Grid studies degrade gracefully: per-point faults (panics, engine
    /// errors, deadline overruns) do not fail the run — they surface in
    /// the report's `Degraded` block. An `Err` means the run as a whole
    /// could not proceed: invalid configuration, a journal problem, or
    /// an exhausted point budget
    /// ([`speedup_stacks::SimError::Interrupted`] — resume finishes it).
    ///
    /// # Errors
    ///
    /// See [`speedup_stacks::SimError`]; each variant maps to a distinct
    /// `repro` exit code.
    fn run(&self, params: &StudyParams) -> Result<Report, SimError>;
}

impl std::fmt::Debug for dyn Study {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Study({})", self.name())
    }
}

static REGISTRY: [&dyn Study; 12] = [
    &crate::fig1::Fig1Study,
    &crate::fig23::Fig2Study,
    &crate::fig23::Fig3Study,
    &crate::fig45::Fig4Study,
    &crate::fig45::Fig5Study,
    &crate::fig6::Fig6Study,
    &crate::fig7::Fig7Study,
    &crate::fig89::Fig8Study,
    &crate::fig89::Fig9Study,
    &crate::hwcost::HwCostStudy,
    &crate::regions_demo::RegionsStudy,
    &crate::scaling::ManycoreScalingStudy,
];

/// Every registered study, in presentation order (the paper's figures,
/// then the beyond-the-paper studies).
///
/// ```
/// let names: Vec<&str> = experiments::registry().iter().map(|s| s.name()).collect();
/// assert_eq!(names[0], "fig1");
/// assert!(names.contains(&"scaling"));
/// ```
#[must_use]
pub fn registry() -> &'static [&'static dyn Study] {
    &REGISTRY
}

/// Looks a study up by registry key.
#[must_use]
pub fn find_study(name: &str) -> Option<&'static dyn Study> {
    REGISTRY.iter().copied().find(|s| s.name() == name)
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
