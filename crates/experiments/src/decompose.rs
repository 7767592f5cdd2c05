//! The grid studies as work units and their fold — shared by the local
//! sweep, the study service's worker pool and the federation.
//!
//! The four grid studies (`fig1`, `fig4`, `fig5`, `fig6`) all reduce to
//! the same sweep shape: a (benchmark × thread-count) grid of
//! independent points, each computed as one [`crate::runner`] recipe
//! run, folded into a figure-specific [`Report`]. [`decompose`] exposes
//! that shape: the profile list and count list, the two unit bodies
//! ([`GridStudy::compute_reference`], [`GridStudy::compute_point`] — the
//! same functions the local sweep's closures call), the local sweep
//! itself ([`GridStudy::sweep`]), the grid's [`UnitGraph`]
//! ([`GridStudy::graph`]), each unit's identity ([`GridStudy::unit_keys`])
//! and the fold: every path resolves its units
//! into a [`GridFold`], which decides failure order, the `retried` count
//! and the `Degraded` totals once, and [`GridStudy::assemble`] turns the
//! slots into a report **byte-identical** across local, resumed,
//! replayed, served and federated runs.
//!
//! Point indices are row-major in the same deterministic order the
//! sweep uses: `index = profile_index * counts.len() + count_index`.
//!
//! # Examples
//!
//! ```
//! use experiments::decompose::decompose;
//! use experiments::study::StudyParams;
//!
//! let params = StudyParams::default();
//! let grid = decompose("fig6", &params).unwrap();
//! assert_eq!(grid.n_points(), 28);
//! assert_eq!(grid.point(0), (0, 16));
//! assert!(decompose("hwcost", &params).is_none());
//! ```

use speedup_stacks::report::{Block, Degraded, DegradedPoint, Provenance, Report};
use speedup_stacks::SimError;
use workloads::{display_name, Suite, WorkloadProfile};

use crate::graph::{Unit, UnitGraph};
use crate::runner::{
    point_label, point_unit, reference_unit, run_grid_ft, scaled_profile, GridReport, PointSummary,
    RunOptions, SweepOptions,
};
use crate::study::StudyParams;

/// The run options every grid study uses for an `n`-thread point: the
/// default symmetric machine with the parameters' memory hierarchy.
fn options(params: &StudyParams, n: usize) -> RunOptions {
    RunOptions {
        mem: params.mem(),
        ..RunOptions::symmetric(n)
    }
}

/// Accumulates resolved units, in any completion order, into the
/// per-index slots and the `Degraded` accounting of a report. The local
/// sweep, the many-core study (`P` = its own point type) and the service
/// client's stream reassembly (a fleet coordinator's stream included)
/// all fold through this, so the same outcomes give the same bytes.
#[derive(Debug)]
pub struct GridFold<P = PointSummary> {
    points: Vec<Option<P>>,
    failures: Vec<(usize, DegradedPoint)>,
    retried: usize,
}

impl<P> GridFold<P> {
    /// An empty fold over a grid of `n_points` points.
    #[must_use]
    pub fn new(n_points: usize) -> GridFold<P> {
        GridFold {
            points: (0..n_points).map(|_| None).collect(),
            failures: Vec::new(),
            retried: 0,
        }
    }

    /// Point `index` completed after `attempts` fault-domain attempts.
    ///
    /// # Panics
    ///
    /// Panics when `index` is outside the grid.
    pub fn point(&mut self, index: usize, summary: P, attempts: u32) {
        if attempts > 1 {
            self.retried += 1;
        }
        self.points[index] = Some(summary);
    }

    /// Point `index` failed every attempt (or its reference did: see
    /// [`crate::graph::reference_failed`]).
    pub fn failed(&mut self, index: usize, label: String, reason: String, attempts: u32) {
        self.failures.push((
            index,
            DegradedPoint {
                label,
                reason,
                attempts,
            },
        ));
    }

    /// The per-index slots and the degradation accounting: failures in
    /// point-index order whatever order they arrived in, `quarantined`
    /// journal records as counted by the caller.
    #[must_use]
    pub fn into_parts(mut self, quarantined: usize) -> (Vec<Option<P>>, Degraded) {
        self.failures.sort_by_key(|(index, _)| *index);
        let degraded = Degraded {
            total_points: self.points.len(),
            completed: self.points.iter().flatten().count(),
            retried: self.retried,
            quarantined,
            failed: self.failures.into_iter().map(|(_, p)| p).collect(),
        };
        (self.points, degraded)
    }
}

impl GridFold {
    /// Folds everything into `grid`'s report (no journal, no trace — the
    /// served paths' ending).
    #[must_use]
    pub fn finish(self, grid: &GridStudy, params: &StudyParams) -> Report {
        let (points, degraded) = self.into_parts(0);
        grid.assemble(params, points, degraded, None)
    }
}

/// What each unit of one grid computes under one parameter set, as
/// strings: two units with equal keys compute byte-equal results, in
/// whichever study, at whichever grid index and under whichever
/// `threads` list they appear. See [`GridStudy::unit_keys`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitKeys {
    refs: Vec<String>,
    points: Vec<String>,
}

impl UnitKeys {
    /// The identity of `unit` (a reference by profile index, a point by
    /// grid index).
    ///
    /// # Panics
    ///
    /// Panics when the index is outside the grid.
    #[must_use]
    pub fn get(&self, unit: Unit) -> &str {
        match unit {
            Unit::Ref(pi) => &self.refs[pi],
            Unit::Point(index) => &self.points[index],
        }
    }
}

/// A grid study decomposed into its independent per-point work units.
#[derive(Debug, Clone)]
pub struct GridStudy {
    study: &'static str,
    profiles: Vec<WorkloadProfile>,
    counts: Vec<usize>,
}

/// The three case-study benchmarks (Figures 1 and 5), scaled.
fn case_study_profiles(params: &StudyParams) -> Vec<WorkloadProfile> {
    [
        workloads::find("blackscholes", Suite::ParsecMedium).expect("catalog entry"),
        workloads::find("facesim", Suite::ParsecMedium).expect("catalog entry"),
        workloads::find("cholesky", Suite::Splash2).expect("catalog entry"),
    ]
    .iter()
    .map(|p| scaled_profile(p, params.scale))
    .collect()
}

/// The full 28-benchmark paper suite (Figures 4 and 6), scaled.
fn suite_profiles(params: &StudyParams) -> Vec<WorkloadProfile> {
    workloads::paper_suite()
        .iter()
        .map(|p| scaled_profile(p, params.scale))
        .collect()
}

/// Decomposes a registry study into its per-point grid. `None` for
/// studies that are not (benchmark × thread-count) grids — exactly the
/// studies whose [`crate::study::Study::supports_journal`] is `false`.
#[must_use]
pub fn decompose(study: &str, params: &StudyParams) -> Option<GridStudy> {
    let (study, profiles, counts) = match study {
        // Figure 1 sweeps only the multi-threaded counts; the 1-thread
        // point is 1.0 by definition and synthesized at fold time.
        "fig1" => (
            "fig1",
            case_study_profiles(params),
            params
                .counts_or(&crate::fig1::THREAD_COUNTS)
                .into_iter()
                .filter(|&n| n > 1)
                .collect(),
        ),
        "fig4" => (
            "fig4",
            suite_profiles(params),
            params.counts_or(&crate::fig45::THREAD_COUNTS),
        ),
        "fig5" => (
            "fig5",
            case_study_profiles(params),
            params.counts_or(&crate::fig45::THREAD_COUNTS),
        ),
        "fig6" => (
            "fig6",
            suite_profiles(params),
            vec![params.single_count(16)],
        ),
        _ => return None,
    };
    Some(GridStudy {
        study,
        profiles,
        counts,
    })
}

/// [`decompose`] for a study known to be a grid study.
pub(crate) fn grid_study(study: &str, params: &StudyParams) -> GridStudy {
    decompose(study, params).unwrap_or_else(|| panic!("{study} is a grid study"))
}

impl GridStudy {
    /// The registry key this grid belongs to.
    #[must_use]
    pub fn study(&self) -> &'static str {
        self.study
    }

    /// The scaled workload profiles, in sweep order.
    #[must_use]
    pub fn profiles(&self) -> &[WorkloadProfile] {
        &self.profiles
    }

    /// The swept thread counts, in sweep order.
    #[must_use]
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Total number of grid points.
    #[must_use]
    pub fn n_points(&self) -> usize {
        self.profiles.len() * self.counts.len()
    }

    /// The `(profile_index, thread_count)` of a point, row-major in the
    /// sweep's deterministic order.
    ///
    /// # Panics
    ///
    /// Panics when `index >= n_points()`.
    #[must_use]
    pub fn point(&self, index: usize) -> (usize, usize) {
        assert!(index < self.n_points(), "point index out of range");
        (
            index / self.counts.len(),
            self.counts[index % self.counts.len()],
        )
    }

    /// The point's human-readable label, exactly as the fault-tolerant
    /// sweep would report it in a `Degraded` block.
    #[must_use]
    pub fn label(&self, index: usize) -> String {
        let (pi, n) = self.point(index);
        point_label(&display_name(&self.profiles[pi]), n)
    }

    /// The grid's unit graph — one reference per profile gating that
    /// profile's points — with no point added yet.
    #[must_use]
    pub fn graph(&self) -> UnitGraph {
        UnitGraph::grid(self.profiles.len(), self.counts.len())
    }

    /// Validates every profile up front, the way the sweep does:
    /// configuration mistakes are not point faults.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] for the first invalid profile.
    pub fn validate(&self) -> Result<(), SimError> {
        for p in &self.profiles {
            p.validate().map_err(SimError::Config)?;
        }
        Ok(())
    }

    /// Validates a point-index subset (a sharded submit's `units`
    /// field) and normalizes it: sorted ascending, duplicates removed.
    /// The subset must be non-empty and every index must be in range.
    ///
    /// # Errors
    ///
    /// A human-readable reason suitable for a `bad-units` protocol
    /// rejection.
    pub fn validate_units(&self, units: &[usize]) -> Result<Vec<usize>, String> {
        if units.is_empty() {
            return Err("units must name at least one grid point".to_string());
        }
        let n = self.n_points();
        if let Some(bad) = units.iter().find(|&&u| u >= n) {
            return Err(format!(
                "unit index {bad} is out of range (this grid has {n} points)"
            ));
        }
        let mut subset = units.to_vec();
        subset.sort_unstable();
        subset.dedup();
        Ok(subset)
    }

    /// The identity of every unit of this grid under `params`, built from
    /// exactly what [`GridStudy::compute_reference`] and
    /// [`GridStudy::compute_point`] read: the unit kind, the profile
    /// (suite label and display name — a catalog entry — plus the exact
    /// bits of the scale it was scaled by), the LLC override behind
    /// [`StudyParams::mem`] and, for a point, its thread count. The study
    /// name, the grid index and the `threads` list are how a unit is
    /// *asked for*, not what it computes, so they stay out: `fig6`'s
    /// points are `fig4`'s 16-thread column. Parallelism, journal, trace
    /// and budget never reach a unit body; the fault policy can only turn
    /// a result into a failure, never into a different result, and
    /// failures are nobody's to reuse.
    ///
    /// One table per parameter set (a shared stem per profile, a suffix
    /// per unit), so a consumer looking every unit up pays the
    /// `display_name` formatting once per profile.
    #[must_use]
    pub fn unit_keys(&self, params: &StudyParams) -> UnitKeys {
        let llc = params.llc_mib.map_or("-".to_string(), |m| m.to_string());
        let tail = format!(";scale={:016x};llc={llc}", params.scale.to_bits());
        let mut refs = Vec::with_capacity(self.profiles.len());
        let mut points = Vec::with_capacity(self.n_points());
        for p in &self.profiles {
            let stem = [p.suite.label(), "/", &display_name(p), &tail].concat();
            points.extend(self.counts.iter().map(|n| format!("point:{stem};x{n}")));
            refs.push(["ref:", &stem].concat());
        }
        UnitKeys { refs, points }
    }

    /// Computes one profile's single-thread reference `(Ts, instructions)`
    /// — the unit body the local sweep runs (fault policy's cooperative
    /// deadline included).
    ///
    /// # Errors
    ///
    /// The engine error rendered as a string (the caller's fault domain
    /// treats it like a point failure).
    pub fn compute_reference(&self, params: &StudyParams, pi: usize) -> Result<(u64, u64), String> {
        reference_unit(&self.profiles[pi], options(params, 1), params.faults, None)
    }

    /// Computes one grid point given its profile's reference — the unit
    /// body the local sweep runs.
    ///
    /// # Errors
    ///
    /// The engine error rendered as a string.
    pub fn compute_point(
        &self,
        params: &StudyParams,
        index: usize,
        st: (u64, u64),
    ) -> Result<PointSummary, String> {
        let (pi, n) = self.point(index);
        point_unit(
            &self.profiles[pi],
            options(params, n),
            params.faults,
            st,
            None,
        )
    }

    /// Sweeps the grid locally under `params` (parallelism, fault policy,
    /// journal, budget, trace): the one production caller of
    /// [`run_grid_ft`].
    ///
    /// # Errors
    ///
    /// See [`run_grid_ft`].
    pub fn sweep(&self, params: &StudyParams) -> Result<GridReport, SimError> {
        let sweep = SweepOptions {
            mode: params.parallelism,
            faults: params.faults,
            journal: params.journal.as_ref(),
            study: self.study,
            fingerprint: &crate::journal::fingerprint(self.study, params),
            max_points: params.max_points,
            trace: params.trace.as_ref(),
        };
        run_grid_ft(
            &self.profiles,
            &self.counts,
            &|_, n| options(params, n),
            &sweep,
        )
    }

    /// Sweeps locally and folds the outcome into the study's report: the
    /// body of every grid [`crate::study::Study::run`].
    ///
    /// # Errors
    ///
    /// See [`run_grid_ft`].
    pub fn run(&self, params: &StudyParams) -> Result<Report, SimError> {
        let swept = self.sweep(params)?;
        Ok(self.assemble(params, swept.points, swept.degraded, swept.provenance))
    }

    /// The rows of a local sweep that must complete cleanly — the input
    /// of the typed figure functions (`fig1::run`, `fig45::run`, …).
    ///
    /// # Panics
    ///
    /// Panics if the sweep fails or any point degrades.
    pub(crate) fn clean_rows(&self, params: &StudyParams) -> Vec<Vec<Option<PointSummary>>> {
        let swept = self
            .sweep(params)
            .unwrap_or_else(|e| panic!("{} sweep: {e}", self.study));
        assert!(
            !swept.degraded.is_degraded(),
            "{} sweep degraded: {:?}",
            self.study,
            swept.degraded
        );
        self.rows(swept.points)
    }

    /// Splits per-index slots into one row per profile.
    fn rows(&self, points: Vec<Option<PointSummary>>) -> Vec<Vec<Option<PointSummary>>> {
        assert_eq!(points.len(), self.n_points(), "one slot per grid point");
        let mut it = points.into_iter();
        self.profiles
            .iter()
            .map(|_| it.by_ref().take(self.counts.len()).collect())
            .collect()
    }

    /// Folds completed points (indexed by point index; `None` marks a
    /// failed point) into the study's final [`Report`], byte-identical
    /// to a local [`crate::study::Study::run`] with the same parameters
    /// and outcomes. `degraded.failed`, `retried` and `quarantined` are
    /// the caller's; the grid totals are filled in here. The `Degraded`
    /// block is pushed only when something actually degraded (so clean,
    /// resumed and remotely-assembled reports stay byte-identical), then
    /// the capture provenance when a trace was written, then the echoed
    /// parameters.
    ///
    /// # Panics
    ///
    /// Panics when `points.len() != n_points()`.
    #[must_use]
    pub fn assemble(
        &self,
        params: &StudyParams,
        points: Vec<Option<PointSummary>>,
        mut degraded: Degraded,
        provenance: Option<Provenance>,
    ) -> Report {
        degraded.total_points = self.n_points();
        degraded.completed = points.iter().flatten().count();
        let rows = self.rows(points);
        let mut report = match self.study {
            "fig1" => crate::fig1::fold(params, &self.profiles, rows).to_report(),
            "fig4" => crate::fig45::fold_fig4(params, rows).to_report(),
            "fig5" => crate::fig45::fold_fig5(rows).to_report(),
            "fig6" => crate::fig6::fold(params, rows).to_report(),
            _ => unreachable!("decompose() only builds grid studies"),
        };
        if degraded.is_degraded() {
            report.push(Block::Degraded(degraded));
        }
        if let Some(p) = provenance {
            report.push(Block::Provenance(p));
        }
        params.record(&mut report);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::{find_study, registry};

    #[test]
    fn decomposable_exactly_when_journal_capable() {
        for s in registry() {
            assert_eq!(
                decompose(s.name(), &StudyParams::default()).is_some(),
                s.supports_journal(),
                "{}",
                s.name()
            );
        }
        assert!(decompose("bogus", &StudyParams::default()).is_none());
    }

    #[test]
    fn point_indexing_is_row_major() {
        let params = StudyParams {
            threads: Some(vec![2, 4]),
            ..StudyParams::default()
        };
        let grid = decompose("fig1", &params).unwrap();
        assert_eq!(grid.profiles().len(), 3);
        assert_eq!(grid.counts(), &[2, 4]);
        assert_eq!(grid.n_points(), 6);
        assert_eq!(grid.point(0), (0, 2));
        assert_eq!(grid.point(1), (0, 4));
        assert_eq!(grid.point(5), (2, 4));
        assert_eq!(
            grid.label(5),
            format!("{} x4", display_name(&grid.profiles()[2]))
        );
    }

    #[test]
    fn fig1_grid_filters_the_single_thread_point() {
        let params = StudyParams {
            threads: Some(vec![1, 2, 4]),
            ..StudyParams::default()
        };
        let grid = decompose("fig1", &params).unwrap();
        assert_eq!(grid.counts(), &[2, 4], "1-thread point is synthesized");
    }

    #[test]
    fn fold_orders_failures_by_index_whatever_the_completion_order() {
        use crate::runner::{run_grid_ft, FaultPolicy, SweepOptions};
        // The local sweep over 2 profiles x [2, 4]: profile 0's reference
        // overruns a deadline (its points 0 and 1 cascade) and profile
        // 1's 4-thread point (index 3) fails on its own.
        let profiles: Vec<WorkloadProfile> = [
            workloads::find("blackscholes", Suite::ParsecSmall).unwrap(),
            workloads::find("cholesky", Suite::Splash2).unwrap(),
        ]
        .iter()
        .map(|p| scaled_profile(p, 0.02))
        .collect();
        let first = display_name(&profiles[0]);
        let mk = |p: &WorkloadProfile, n: usize| {
            let doomed = match n {
                1 => display_name(p) == first,
                4 => display_name(p) != first,
                _ => false,
            };
            RunOptions {
                deadline_cycles: doomed.then_some(10),
                ..RunOptions::symmetric(n)
            }
        };
        let sweep = SweepOptions::plain(
            crate::par::Parallelism::Serial,
            FaultPolicy::default(),
            "test",
        );
        let local = run_grid_ft(&profiles, &[2, 4], &mk, &sweep).unwrap();
        let labels: Vec<&str> = local
            .degraded
            .failed
            .iter()
            .map(|f| f.label.as_str())
            .collect();
        let second = display_name(&profiles[1]);
        assert_eq!(
            labels,
            [
                point_label(&first, 2),
                point_label(&first, 4),
                point_label(&second, 4)
            ]
        );
        let cascade = "single-thread reference failed: ";
        assert!(local.degraded.failed[0].reason.starts_with(cascade));
        assert!(!local.degraded.failed[2].reason.starts_with(cascade));

        // The same outcomes in the order a served stream delivers them:
        // the point failure first, the cascade last and backwards.
        let mut fold = GridFold::new(4);
        let fail = |fold: &mut GridFold, index: usize, slot: usize| {
            let f = local.degraded.failed[slot].clone();
            fold.failed(index, f.label, f.reason, f.attempts);
        };
        fail(&mut fold, 3, 2);
        fold.point(2, local.points[2].clone().expect("completed"), 1);
        fail(&mut fold, 1, 1);
        fail(&mut fold, 0, 0);
        let (points, degraded) = fold.into_parts(0);
        assert_eq!(degraded, local.degraded);
        assert_eq!(points, local.points);
    }

    #[test]
    fn assembled_report_matches_local_run() {
        // The decisive invariant: compute every point through the
        // decomposition API and fold — the result must be byte-identical
        // to the study's own run in all three formats.
        let params = StudyParams {
            scale: 0.02,
            threads: Some(vec![2, 4]),
            ..StudyParams::default()
        };
        for name in ["fig1", "fig4", "fig5", "fig6"] {
            let params = if name == "fig4" || name == "fig6" {
                // Keep the 28-benchmark grids cheap.
                StudyParams {
                    scale: 0.01,
                    threads: Some(vec![2]),
                    ..StudyParams::default()
                }
            } else {
                params.clone()
            };
            let grid = decompose(name, &params).unwrap();
            grid.validate().unwrap();
            let mut refs = Vec::new();
            for pi in 0..grid.profiles().len() {
                refs.push(grid.compute_reference(&params, pi).unwrap());
            }
            let points: Vec<Option<PointSummary>> = (0..grid.n_points())
                .map(|i| {
                    let (pi, _) = grid.point(i);
                    Some(grid.compute_point(&params, i, refs[pi]).unwrap())
                })
                .collect();
            let assembled = grid.assemble(&params, points, Degraded::default(), None);
            let local = find_study(name).unwrap().run(&params).unwrap();
            assert_eq!(assembled.to_text(), local.to_text(), "{name} text");
            assert_eq!(assembled.to_json(), local.to_json(), "{name} json");
            assert_eq!(assembled.to_csv(), local.to_csv(), "{name} csv");
        }
    }
}
