//! The grid studies as work units, their local sweep, and the fold the
//! local sweep, the study service's worker pool and the federation
//! share.
//!
//! The four grid studies (`fig1`, `fig4`, `fig5`, `fig6`) all reduce to
//! the same sweep shape: a (benchmark × thread-count) grid of
//! independent points, each computed as one [`crate::runner`] recipe
//! run, folded into a figure-specific [`Report`]. [`decompose`] exposes
//! that shape: the profile list and count list, the two unit bodies
//! ([`GridStudy::compute_reference`], [`GridStudy::compute_point`] — the
//! bodies the local sweep runs, minus its trace replay), the local sweep
//! itself ([`GridStudy::run`]), the grid's [`UnitGraph`]
//! ([`GridStudy::graph`]), each unit's identity ([`GridStudy::unit_keys`])
//! and the fold: every path resolves its units
//! into a [`GridFold`], which decides failure order, the `retried` count
//! and the `Degraded` totals once, and [`GridStudy::assemble`] turns the
//! slots into a report **byte-identical** across local, resumed,
//! replayed, served and federated runs.
//!
//! The local sweep drives the grid's [`UnitGraph`] through
//! [`crate::par::run_units`] (per-unit panic isolation and retries,
//! points released as their reference lands) and adds what only a local
//! run has: crash-safe journaling through [`crate::journal`] with a
//! checkpoint–resume that reproduces the uninterrupted report bit for
//! bit, the `max_points` budget, and the binary trace format of
//! [`workloads::trace`]. Armed with a capture [`workloads::trace::TraceSpec`],
//! it records every run's op streams to a trace file before sweeping
//! (the generators are deterministic, so the capture matches the sweep
//! exactly); armed with a replay spec, every simulation draws its ops
//! from the trace instead, reproducing the captured report bit for bit.
//! Any trace damage fails the sweep with a typed [`SimError::Trace`] — a
//! damaged trace has no safe recomputation, so it is never
//! degraded-and-continued.
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

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use cmpsim::OpStream;
use speedup_stacks::error::TraceError;
use speedup_stacks::report::{Block, Degraded, DegradedPoint, Provenance, Report};
use speedup_stacks::SimError;
use workloads::trace::{TraceReader, TraceWriter};
use workloads::{display_name, streams_for, Suite, WorkloadProfile};

use crate::graph::{Unit, UnitGraph};
use crate::journal::{self, JournalWriter};
use crate::par::run_units;
use crate::runner::{
    point_label, record_kind, ref_from_record, ref_record, run_profile_streams, scaled_profile,
    single_thread_reference_streams, PointSummary, RunOptions,
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

/// The trace a replaying sweep draws its op streams from, plus the slot
/// where damage discovered inside a worker is parked: [`OpStream`] has
/// no error channel, so a replay stream that hits damage parks a typed
/// error in its run's fault slot; the unit moves it here and the sweep
/// fails once its units have run.
#[derive(Debug)]
struct Replay {
    reader: TraceReader,
    fault: Mutex<Option<TraceError>>,
}

impl Replay {
    fn park(&self, e: TraceError) -> String {
        let msg = e.to_string();
        lock(&self.fault).get_or_insert(e);
        msg
    }

    /// Runs `f` over the captured streams of the (`name`, `threads`) run.
    fn run<R>(
        &self,
        name: &str,
        threads: usize,
        f: impl FnOnce(Vec<Box<dyn OpStream>>) -> Result<R, cmpsim::SimError>,
    ) -> Result<R, String> {
        let run = self
            .reader
            .run_streams(name, threads)
            .map_err(|e| self.park(e))?;
        let result = f(run.streams);
        // Check the fault slot before the engine result: a truncated
        // stream can surface as an engine error (or a deadlock) whose
        // root cause is the trace.
        if let Some(e) = run.fault.take() {
            return Err(self.park(e));
        }
        result.map_err(|e| e.to_string())
    }
}

/// A local sweep's outcome: one slot per point (`None` marks a failed
/// one), the degradation accounting, and the capture provenance when a
/// trace was written.
type Swept = (Vec<Option<PointSummary>>, Degraded, Option<Provenance>);

/// Locks `m` whatever a panicking unit left behind: a poisoned journal
/// or fault slot must not turn into a secondary panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
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
/// studies that are not (benchmark × thread-count) grids: the one
/// answer to "is this a grid study", so it also decides which studies
/// honor [`StudyParams::journal`], [`StudyParams::max_points`] and
/// [`StudyParams::trace`].
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
        self.run_reference(params, pi, None)
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
        self.run_point(params, index, st, None)
    }

    /// The one reference body: generated streams, or the captured ones
    /// when `replay` is armed, under the fault policy's deadline.
    fn run_reference(
        &self,
        params: &StudyParams,
        pi: usize,
        replay: Option<&Replay>,
    ) -> Result<(u64, u64), String> {
        let p = &self.profiles[pi];
        let opts = options(params, 1);
        let run = |streams: Vec<Box<dyn OpStream>>| {
            single_thread_reference_streams(&opts, streams, params.faults.deadline_cycles)
        };
        match replay {
            Some(r) => r.run(&display_name(p), 1, run),
            None => run(streams_for(p, 1)).map_err(|e| e.to_string()),
        }
    }

    /// The one point body (see [`GridStudy::run_reference`]).
    fn run_point(
        &self,
        params: &StudyParams,
        index: usize,
        st: (u64, u64),
        replay: Option<&Replay>,
    ) -> Result<PointSummary, String> {
        let (pi, n) = self.point(index);
        let p = &self.profiles[pi];
        let opts = options(params, n);
        let run = |streams: Vec<Box<dyn OpStream>>| {
            run_profile_streams(p, &opts, st, streams, params.faults.deadline_cycles)
        };
        match replay {
            Some(r) => r.run(&display_name(p), n, run),
            None => run(streams_for(p, n)).map_err(|e| e.to_string()),
        }
        .map(PointSummary::from)
    }

    /// The local sweep behind [`GridStudy::run`] and
    /// [`GridStudy::clean_rows`].
    fn sweep(&self, params: &StudyParams) -> Result<Swept, SimError> {
        self.validate()?;
        let study = self.study;
        let fingerprint = journal::fingerprint(study, params);
        let names: Vec<String> = self.profiles.iter().map(display_name).collect();

        // Trace capture happens up front: every (profile, thread-count)
        // run the sweep will make is drained from the (deterministic)
        // generators into the trace file, then the sweep itself proceeds
        // on generated streams as usual. Replay opens and identity-checks
        // the trace; the units below then draw their ops from it.
        let mut provenance = None;
        let replay = match &params.trace {
            Some(spec) if spec.replay => Some(Replay {
                reader: TraceReader::open(&spec.path, Some((study, &fingerprint)))
                    .map_err(SimError::Trace)?,
                fault: Mutex::new(None),
            }),
            Some(spec) => {
                let mut w = TraceWriter::create(&spec.path, study, &fingerprint)
                    .map_err(SimError::Trace)?;
                for (p, name) in self.profiles.iter().zip(&names) {
                    // The single-thread reference run, then each grid
                    // point's thread count, deduplicated (a repeated
                    // count, or a 1-thread point, is captured once).
                    let mut written = Vec::new();
                    for n in std::iter::once(1).chain(self.counts.iter().copied()) {
                        if !written.contains(&n) {
                            written.push(n);
                            w.add_run(name, streams_for(p, n))
                                .map_err(SimError::Trace)?;
                        }
                    }
                }
                let stats = w.finish().map_err(SimError::Trace)?;
                provenance = Some(Provenance {
                    path: spec.path.clone(),
                    runs: stats.runs,
                    bytes: stats.bytes,
                });
                None
            }
            None => None,
        };

        // Replay the journal (resume) or start a fresh one.
        let mut done_refs: HashMap<String, (u64, u64)> = HashMap::new();
        let mut done_points: HashMap<(String, usize), PointSummary> = HashMap::new();
        let mut quarantined = 0usize;
        let writer: Option<Mutex<JournalWriter>> = match &params.journal {
            Some(spec) if spec.resume => {
                let scan =
                    journal::scan(&spec.path, study, &fingerprint).map_err(SimError::Journal)?;
                quarantined = scan.quarantined;
                for rec in &scan.records {
                    match record_kind(rec).as_deref() {
                        Some("ref") => match ref_from_record(rec) {
                            Some((name, st)) => {
                                done_refs.insert(name, st);
                            }
                            None => quarantined += 1,
                        },
                        Some("point") => match PointSummary::from_record(rec) {
                            Some(p) => {
                                done_points.insert((p.name.clone(), p.threads), p);
                            }
                            None => quarantined += 1,
                        },
                        _ => quarantined += 1,
                    }
                }
                Some(Mutex::new(scan.writer))
            }
            Some(spec) => Some(Mutex::new(
                JournalWriter::create(&spec.path, study, &fingerprint)
                    .map_err(SimError::Journal)?,
            )),
            None => None,
        };

        // A journal append failure inside a worker must not be
        // swallowed: park the first one and fail the sweep once the
        // units have run.
        let journal_fault = Mutex::new(None);
        let record = |data: &str| {
            if let Some(Err(e)) = writer.as_ref().map(|w| lock(w).append(data)) {
                lock(&journal_fault).get_or_insert(e);
            }
        };
        // Journaled units are known up front and everything else is the
        // graph's to hand out: references in profile order, then points
        // in index order.
        let mut fold = GridFold::new(self.n_points());
        let mut graph = self.graph();
        for (pi, name) in names.iter().enumerate() {
            if let Some(&st) = done_refs.get(name) {
                graph.ref_known(pi, st);
            }
        }
        for i in 0..self.n_points() {
            let (pi, n) = self.point(i);
            match done_points.remove(&(names[pi].clone(), n)) {
                Some(summary) => fold.point(i, summary, 1),
                None => graph.add_point(i),
            }
        }
        if let Some(budget) = params.max_points {
            graph.set_budget(budget);
        }

        let completed = run_units(
            &mut graph,
            params.parallelism,
            params.faults.retries,
            |pi| {
                let st = self.run_reference(params, pi, replay.as_ref())?;
                record(&ref_record(&names[pi], st));
                Ok(st)
            },
            |i, st| {
                let summary = self.run_point(params, i, st[0], replay.as_ref())?;
                record(&summary.to_record());
                Ok(summary)
            },
            |i, outcome, attempts| match outcome {
                Ok(summary) => fold.point(i, summary, attempts),
                Err(reason) => fold.failed(i, self.label(i), reason, attempts),
            },
        );

        // Trace damage first (it can be the root cause of anything
        // else), then a parked journal failure, then the budget.
        if let Some(e) = replay.as_ref().and_then(|r| lock(&r.fault).take()) {
            return Err(SimError::Trace(e));
        }
        if let Some(e) = lock(&journal_fault).take() {
            return Err(SimError::Journal(e));
        }
        if !graph.is_complete() {
            return Err(SimError::Interrupted { completed });
        }
        let (points, degraded) = fold.into_parts(quarantined);
        Ok((points, degraded, provenance))
    }

    /// Sweeps the grid locally under `params` and folds the outcome into
    /// the study's report: the body of every grid
    /// [`crate::study::Study::run`]. Every unit runs in its own fault
    /// domain (panics and engine errors confined to their unit, failing
    /// units retried up to the policy's budget), completed units stream
    /// into the journal when armed, and a resume replays intact journal
    /// records instead of recomputing them — reproducing the
    /// uninterrupted sweep's report bit for bit. Per-point failures are
    /// not errors: they land in the report's `Degraded` block.
    ///
    /// # Errors
    ///
    /// - [`SimError::Config`] when a workload profile is invalid (checked
    ///   up front — configuration mistakes are not point faults),
    /// - [`SimError::Journal`] when the journal cannot be created, read,
    ///   or fails identity validation on resume,
    /// - [`SimError::Interrupted`] when the [`StudyParams::max_points`]
    ///   budget ran out before the grid was complete (completed work is
    ///   journaled; resume finishes it),
    /// - [`SimError::Trace`] when the trace file cannot be written
    ///   (capture) or is missing, damaged, or was captured for a
    ///   different study or parameter set (replay). Trace damage is
    ///   fatal, never degraded: silently replaying a different op stream
    ///   would fabricate results.
    pub fn run(&self, params: &StudyParams) -> Result<Report, SimError> {
        let (points, degraded, provenance) = self.sweep(params)?;
        Ok(self.assemble(params, points, degraded, provenance))
    }

    /// The rows of a local sweep that must complete cleanly — the input
    /// of the typed figure functions (`fig1::run`, `fig45::run`, …).
    ///
    /// # Panics
    ///
    /// Panics if the sweep fails or any point degrades.
    pub(crate) fn clean_rows(&self, params: &StudyParams) -> Vec<Vec<Option<PointSummary>>> {
        let (points, degraded, _) = self
            .sweep(params)
            .unwrap_or_else(|e| panic!("{} sweep: {e}", self.study));
        assert!(
            !degraded.is_degraded(),
            "{} sweep degraded: {degraded:?}",
            self.study
        );
        self.rows(points)
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
    use crate::study::find_study;

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
        use crate::par::Parallelism;
        use crate::runner::FaultPolicy;
        // Two profiles x [2, 4] through the grid's own unit bodies:
        // profile 0's reference overruns a deadline (its points 0 and 1
        // cascade) and profile 1's 4-thread point (index 3) overruns one
        // on its own.
        let grid = GridStudy {
            study: "fig5",
            profiles: [
                workloads::find("blackscholes", Suite::ParsecSmall).unwrap(),
                workloads::find("cholesky", Suite::Splash2).unwrap(),
            ]
            .iter()
            .map(|p| scaled_profile(p, 0.02))
            .collect(),
            counts: vec![2, 4],
        };
        let params = StudyParams::default();
        let doomed = StudyParams {
            faults: FaultPolicy {
                deadline_cycles: Some(10),
                retries: 0,
            },
            ..StudyParams::default()
        };
        let mut graph = grid.graph();
        (0..grid.n_points()).for_each(|i| graph.add_point(i));
        let mut fold = GridFold::new(grid.n_points());
        run_units(
            &mut graph,
            Parallelism::Serial,
            0,
            |pi| grid.compute_reference(if pi == 0 { &doomed } else { &params }, pi),
            |i, st| grid.compute_point(if i == 3 { &doomed } else { &params }, i, st[0]),
            |i, outcome, attempts| match outcome {
                Ok(summary) => fold.point(i, summary, attempts),
                Err(reason) => fold.failed(i, grid.label(i), reason, attempts),
            },
        );
        let (local_points, local) = fold.into_parts(0);
        let first = display_name(&grid.profiles[0]);
        let labels: Vec<&str> = local.failed.iter().map(|f| f.label.as_str()).collect();
        let second = display_name(&grid.profiles[1]);
        assert_eq!(
            labels,
            [
                point_label(&first, 2),
                point_label(&first, 4),
                point_label(&second, 4)
            ]
        );
        let cascade = "single-thread reference failed: ";
        assert!(local.failed[0].reason.starts_with(cascade));
        assert!(!local.failed[2].reason.starts_with(cascade));
        assert!(local.failed.iter().all(|f| f.attempts == 1));

        // The same outcomes in the order a served stream delivers them:
        // the point failure first, the cascade last and backwards.
        let mut fold = GridFold::new(4);
        let fail = |fold: &mut GridFold, index: usize, slot: usize| {
            let f = local.failed[slot].clone();
            fold.failed(index, f.label, f.reason, f.attempts);
        };
        fail(&mut fold, 3, 2);
        fold.point(2, local_points[2].clone().expect("completed"), 1);
        fail(&mut fold, 1, 1);
        fail(&mut fold, 0, 0);
        let (points, degraded) = fold.into_parts(0);
        assert_eq!(degraded, local);
        assert_eq!(points, local_points);
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
