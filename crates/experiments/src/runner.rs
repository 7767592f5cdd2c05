//! Running one workload on one machine and producing its speedup stack.
//!
//! Every experiment in the paper reduces to this recipe: run the workload
//! multi-threaded on the configured CMP (that run drives the accounting
//! and yields the *estimated* speedup), run it single-threaded on one core
//! of the same machine (Eq. 1's `Ts`), and attach the resulting *actual*
//! speedup to the stack for validation.
//!
//! [`run_grid_ft`] sweeps that recipe over a (benchmark × thread-count)
//! grid: the grid's [`UnitGraph`] driven by [`crate::par::run_units`]
//! (per-unit panic isolation and retries, points released as their
//! reference lands), cooperative per-unit deadlines, crash-safe
//! journaling through [`crate::journal`] and checkpoint–resume that
//! reproduces the uninterrupted report bit for bit. Its two unit bodies
//! (`reference_unit`, `point_unit`) are the ones
//! [`crate::decompose::GridStudy`] hands to the study service, and its
//! outcomes fold through [`crate::decompose::GridFold`] like every served
//! path's.
//!
//! The sweep also speaks the binary trace format of [`workloads::trace`]:
//! armed with a capture [`TraceSpec`], it records every run's op streams
//! to a trace file before sweeping (the generators are deterministic, so
//! the capture matches the sweep exactly); armed with a replay spec,
//! every simulation draws its ops from the trace instead of the
//! generators, reproducing the captured report bit for bit. Any trace
//! damage aborts the sweep with a typed
//! [`speedup_stacks::SimError::Trace`] — a damaged trace has no safe
//! recomputation, so it is never degraded-and-continued.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, PoisonError};

use cmpsim::{MachineConfig, SimError, SimResult, Simulation};
use memsim::MemConfig;
use speedup_stacks::error::{SimError as CoreError, TraceError};
use speedup_stacks::report::json::{self, Reader};
use speedup_stacks::report::{Degraded, Provenance};
use speedup_stacks::{
    accounting, AccountingConfig, Breakdown, Component, SpeedupStack, ThreadBreakdown,
};
use workloads::trace::{TraceReader, TraceSpec, TraceWriter};
use workloads::{display_name, streams_for, WorkloadProfile};

use crate::decompose::GridFold;
use crate::graph::UnitGraph;
use crate::journal::{self, JournalSpec, JournalWriter};
use crate::par::{run_units, Parallelism};

/// Machine/accounting options for a run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Memory hierarchy configuration.
    pub mem: MemConfig,
    /// Number of hardware cores for the multi-threaded run.
    pub cores: usize,
    /// Number of software threads (usually equal to `cores`; Figure 7
    /// decouples them).
    pub threads: usize,
    /// Spin detector for the accounting.
    pub detector: cmpsim::SpinDetectorKind,
    /// Accounting post-processing options.
    pub accounting: AccountingConfig,
    /// Cooperative per-run deadline in simulated cycles: the engine
    /// aborts the run with a typed error once simulated time passes this
    /// budget. Deterministic (simulated time, not wall-clock). `None`
    /// disarms it.
    pub deadline_cycles: Option<u64>,
}

impl RunOptions {
    /// `n` threads on `n` cores with default memory and accounting.
    #[must_use]
    pub fn symmetric(n: usize) -> Self {
        RunOptions {
            mem: MemConfig::default(),
            cores: n,
            threads: n,
            detector: cmpsim::SpinDetectorKind::default(),
            accounting: AccountingConfig::default(),
            deadline_cycles: None,
        }
    }

    /// The machine configuration these options describe, for a run on
    /// `cores` cores.
    #[must_use]
    pub fn machine(&self, cores: usize) -> MachineConfig {
        MachineConfig {
            n_cores: cores,
            mem: self.mem,
            spin_detector: self.detector,
            ..MachineConfig::default()
        }
    }
}

/// Full outcome of one benchmark run (multi-threaded + single-threaded
/// reference).
#[derive(Debug)]
pub struct RunOutcome {
    /// Display name (with input-size suffix).
    pub name: String,
    /// Suite label.
    pub suite: String,
    /// Software thread count of the multi-threaded run.
    pub threads: usize,
    /// The speedup stack, with the actual speedup attached.
    pub stack: SpeedupStack,
    /// Actual speedup `S = Ts / Tp` (Eq. 1).
    pub actual: f64,
    /// Estimated speedup `Ŝ` (Eq. 4).
    pub estimated: f64,
    /// Single-threaded execution cycles `Ts`.
    pub st_cycles: u64,
    /// Multi-threaded execution cycles `Tp`.
    pub mt_cycles: u64,
    /// The paper's §6 software overhead measure: relative dynamic
    /// instruction increase, spin instructions excluded.
    pub instruction_overhead: f64,
    /// Raw multi-threaded simulation result (counters + ground truth).
    pub mt: SimResult,
}

impl RunOutcome {
    /// Signed validation error `(Ŝ − S)/N` (Eq. 6).
    #[must_use]
    pub fn error(&self) -> f64 {
        speedup_stacks::estimate::speedup_error(self.estimated, self.actual, self.threads)
    }
}

/// Runs one simulation with the options' machine, honoring the
/// cooperative per-run deadline when armed: the one place a unit's
/// machine is validated and its deadline armed.
pub(crate) fn simulate_opts(
    opts: &RunOptions,
    cores: usize,
    streams: Vec<Box<dyn cmpsim::OpStream>>,
) -> Result<SimResult, SimError> {
    let cfg = opts.machine(cores);
    cfg.validate().map_err(SimError::InvalidConfig)?;
    let sim = Simulation::new(cfg, streams);
    match opts.deadline_cycles {
        Some(d) => sim.with_deadline(Arc::new(AtomicU64::new(d))).run(),
        None => sim.run(),
    }
}

/// Runs `profile` single-threaded and returns `(cycles, instructions)`.
///
/// # Errors
///
/// Propagates [`SimError`] from the engine.
pub fn single_thread_reference(
    profile: &WorkloadProfile,
    opts: &RunOptions,
) -> Result<(u64, u64), SimError> {
    single_thread_reference_streams(opts, streams_for(profile, 1))
}

/// [`single_thread_reference`] with caller-supplied op streams (trace
/// replay feeds captured streams through here).
///
/// # Errors
///
/// Propagates [`SimError`] from the engine.
pub fn single_thread_reference_streams(
    opts: &RunOptions,
    streams: Vec<Box<dyn cmpsim::OpStream>>,
) -> Result<(u64, u64), SimError> {
    let st = simulate_opts(opts, 1, streams)?;
    Ok((st.tp_cycles, st.total_instructions()))
}

/// Runs `profile` with `opts` and builds the validated speedup stack.
///
/// `st_reference` (from [`single_thread_reference`]) can be supplied to
/// amortize the single-threaded run across a thread-count sweep.
///
/// # Errors
///
/// Propagates [`SimError`] from either run.
pub fn run_profile(
    profile: &WorkloadProfile,
    opts: &RunOptions,
    st_reference: Option<(u64, u64)>,
) -> Result<RunOutcome, SimError> {
    let st = match st_reference {
        Some(r) => r,
        None => single_thread_reference(profile, opts)?,
    };
    run_profile_streams(profile, opts, st, streams_for(profile, opts.threads))
}

/// [`run_profile`] with caller-supplied op streams for the
/// multi-threaded run (trace replay feeds captured streams through
/// here). The single-thread reference is always caller-supplied: a
/// replay must not fall back to the generators.
///
/// # Errors
///
/// Propagates [`SimError`] from the engine.
pub fn run_profile_streams(
    profile: &WorkloadProfile,
    opts: &RunOptions,
    st_reference: (u64, u64),
    streams: Vec<Box<dyn cmpsim::OpStream>>,
) -> Result<RunOutcome, SimError> {
    let (st_cycles, st_instructions) = st_reference;
    let mt = simulate_opts(opts, opts.cores, streams)?;
    let actual = st_cycles as f64 / mt.tp_cycles as f64;
    let stack = mt
        .stack(&opts.accounting)
        .expect("engine produces valid counters")
        .with_actual_speedup(actual);
    let estimated = stack.estimated_speedup();
    Ok(RunOutcome {
        name: display_name(profile),
        suite: profile.suite.label().to_string(),
        threads: opts.threads,
        actual,
        estimated,
        st_cycles,
        mt_cycles: mt.tp_cycles,
        instruction_overhead: accounting::instruction_overhead(&mt.counters, st_instructions),
        mt,
        stack,
    })
}

/// The journaled essence of one completed grid point: everything the
/// figure assemblies consume from a [`RunOutcome`], minus the raw
/// simulation result (ground-truth counters are an in-memory debugging
/// aid, not figure input). Round-trips through the journal exactly:
/// floats are written with shortest round-trip formatting and the stack
/// is rebuilt from its per-thread breakdowns by the same deterministic
/// aggregation that built it the first time.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSummary {
    /// Display name (with input-size suffix).
    pub name: String,
    /// Suite label.
    pub suite: String,
    /// Software thread count of the multi-threaded run.
    pub threads: usize,
    /// Actual speedup `S = Ts / Tp` (Eq. 1).
    pub actual: f64,
    /// Estimated speedup `Ŝ` (Eq. 4).
    pub estimated: f64,
    /// Single-threaded execution cycles `Ts`.
    pub st_cycles: u64,
    /// Multi-threaded execution cycles `Tp`.
    pub mt_cycles: u64,
    /// The paper's §6 software overhead measure.
    pub instruction_overhead: f64,
    /// The speedup stack, with the actual speedup attached.
    pub stack: SpeedupStack,
}

impl From<RunOutcome> for PointSummary {
    fn from(out: RunOutcome) -> Self {
        PointSummary {
            name: out.name,
            suite: out.suite,
            threads: out.threads,
            actual: out.actual,
            estimated: out.estimated,
            st_cycles: out.st_cycles,
            mt_cycles: out.mt_cycles,
            instruction_overhead: out.instruction_overhead,
            stack: out.stack,
        }
    }
}

impl PointSummary {
    /// Signed validation error `(Ŝ − S)/N` (Eq. 6).
    #[must_use]
    pub fn error(&self) -> f64 {
        speedup_stacks::estimate::speedup_error(self.estimated, self.actual, self.threads)
    }

    /// Serializes as a journal `point` record (one JSON object).
    #[must_use]
    pub fn to_record(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(512);
        let _ = write!(
            out,
            "{{\"kind\": \"point\", \"name\": \"{}\", \"suite\": \"{}\", \"threads\": {}, \
             \"actual\": {}, \"estimated\": {}, \"st_cycles\": {}, \"mt_cycles\": {}, \
             \"instruction_overhead\": {}, \"stack\": {{\"tp_cycles\": {}, \"per_thread\": [",
            json::escape(&self.name),
            json::escape(&self.suite),
            self.threads,
            json::number(self.actual),
            json::number(self.estimated),
            self.st_cycles,
            self.mt_cycles,
            json::number(self.instruction_overhead),
            self.stack.tp_cycles(),
        );
        for (i, t) in self.stack.per_thread().iter().enumerate() {
            let comma = if i + 1 < self.stack.per_thread().len() {
                ", "
            } else {
                ""
            };
            out.push_str("{\"o\": [");
            for (ci, c) in Component::ALL.iter().enumerate() {
                let vcomma = if ci + 1 < Component::ALL.len() {
                    ", "
                } else {
                    ""
                };
                let _ = write!(out, "{}{vcomma}", json::number(t.overheads.get(*c)));
            }
            let _ = write!(
                out,
                "], \"p\": {}, \"e\": {}}}{comma}",
                json::number(t.positive_cycles),
                json::number(t.estimated_single_thread_cycles),
            );
        }
        out.push_str("]}}");
        out
    }

    /// Decodes a journal `point` record ([`PointSummary::to_record`]'s
    /// text) without building a JSON tree. `None` on any syntax or shape
    /// mismatch (the caller quarantines the record).
    #[must_use]
    pub fn from_record(record: &str) -> Option<PointSummary> {
        let mut r = Reader::new(record);
        let summary = Self::read_record(&mut r)?;
        r.finish().ok()?;
        Some(summary)
    }

    /// Reads one `point` record value at the reader's position (a
    /// streamed frame's `data`). The one record decoder: fields in any
    /// order, unknown keys skipped, the first of a repeated key wins,
    /// `null` reads back as the `NaN` it was emitted from — except inside
    /// `o`, whose six overheads must be numbers.
    #[must_use]
    pub fn read_record(r: &mut Reader<'_>) -> Option<PointSummary> {
        let (mut name, mut suite, mut threads) = (None, None, None);
        let (mut actual, mut estimated, mut overhead) = (None, None, None);
        let (mut st_cycles, mut mt_cycles, mut stack) = (None, None, None);
        r.begin_object().ok()?;
        while let Some(key) = r.next_key().ok()? {
            match &*key {
                "name" if name.is_none() => name = Some(r.string().ok()?.into_owned()),
                "suite" if suite.is_none() => suite = Some(r.string().ok()?.into_owned()),
                "threads" if threads.is_none() => threads = Some(read_u64(r)?),
                "actual" if actual.is_none() => actual = Some(read_f64(r)?),
                "estimated" if estimated.is_none() => estimated = Some(read_f64(r)?),
                "st_cycles" if st_cycles.is_none() => st_cycles = Some(read_u64(r)?),
                "mt_cycles" if mt_cycles.is_none() => mt_cycles = Some(read_u64(r)?),
                "instruction_overhead" if overhead.is_none() => overhead = Some(read_f64(r)?),
                "stack" if stack.is_none() => stack = Some(read_stack(r)?),
                _ => skip(r)?,
            }
        }
        let (tp, per_thread) = stack?;
        let actual = actual?;
        Some(PointSummary {
            name: name?,
            suite: suite?,
            threads: threads? as usize,
            actual,
            estimated: estimated?,
            st_cycles: st_cycles?,
            mt_cycles: mt_cycles?,
            instruction_overhead: overhead?,
            stack: SpeedupStack::from_breakdowns(per_thread, tp).with_actual_speedup(actual),
        })
    }
}

/// Skips one value the record decoder does not read.
fn skip(r: &mut Reader<'_>) -> Option<()> {
    r.value().ok().map(drop)
}

/// A number field, mapping `null` back to the `NaN` it was emitted from.
fn read_f64(r: &mut Reader<'_>) -> Option<f64> {
    Some(r.number_or_null().ok()?.unwrap_or(f64::NAN))
}

/// A non-negative integer field (counter magnitudes in this codebase stay
/// far below 2^53, so the `f64` round-trip is exact).
fn read_u64(r: &mut Reader<'_>) -> Option<u64> {
    let x = r.number_or_null().ok()??;
    (x >= 0.0 && x.fract() == 0.0).then_some(x as u64)
}

/// A record's `stack`: `tp_cycles` and the non-empty `per_thread` list.
fn read_stack(r: &mut Reader<'_>) -> Option<(u64, Vec<ThreadBreakdown>)> {
    let (mut tp, mut per_thread) = (None, None);
    r.begin_object().ok()?;
    while let Some(key) = r.next_key().ok()? {
        match &*key {
            "tp_cycles" if tp.is_none() => tp = Some(read_u64(r)?),
            "per_thread" if per_thread.is_none() => {
                let mut threads = Vec::new();
                r.begin_array().ok()?;
                while r.next_item().ok()? {
                    threads.push(read_thread(r)?);
                }
                per_thread = Some(threads);
            }
            _ => skip(r)?,
        }
    }
    let per_thread = per_thread.filter(|t| !t.is_empty())?;
    Some((tp?, per_thread))
}

/// One `per_thread` entry: `{"o": [six overheads], "p": .., "e": ..}`.
fn read_thread(r: &mut Reader<'_>) -> Option<ThreadBreakdown> {
    let (mut o, mut p, mut e) = (None, None, None);
    r.begin_object().ok()?;
    while let Some(key) = r.next_key().ok()? {
        match &*key {
            "o" if o.is_none() => o = Some(read_overheads(r)?),
            "p" if p.is_none() => p = Some(read_f64(r)?),
            "e" if e.is_none() => e = Some(read_f64(r)?),
            _ => skip(r)?,
        }
    }
    Some(ThreadBreakdown {
        overheads: o?,
        positive_cycles: p?,
        estimated_single_thread_cycles: e?,
    })
}

/// The six overheads of `o`, in [`Component::ALL`] order.
fn read_overheads(r: &mut Reader<'_>) -> Option<Breakdown> {
    let mut overheads = Breakdown::zero();
    let mut n = 0;
    r.begin_array().ok()?;
    while r.next_item().ok()? {
        let c = Component::ALL.get(n)?;
        overheads.set(*c, r.number_or_null().ok()??);
        n += 1;
    }
    (n == Component::ALL.len()).then_some(overheads)
}

/// Serializes a single-thread reference as a journal `ref` record.
fn ref_record(name: &str, (cycles, instructions): (u64, u64)) -> String {
    format!(
        "{{\"kind\": \"ref\", \"profile\": \"{}\", \"st_cycles\": {cycles}, \
         \"st_instructions\": {instructions}}}",
        json::escape(name)
    )
}

/// Decodes a journal `ref` record back into `(name, (Ts, instructions))`.
fn ref_from_record(record: &str) -> Option<(String, (u64, u64))> {
    let (mut profile, mut cycles, mut instructions) = (None, None, None);
    let mut r = Reader::new(record);
    r.begin_object().ok()?;
    while let Some(key) = r.next_key().ok()? {
        match &*key {
            "profile" if profile.is_none() => profile = Some(r.string().ok()?.into_owned()),
            "st_cycles" if cycles.is_none() => cycles = Some(read_u64(&mut r)?),
            "st_instructions" if instructions.is_none() => {
                instructions = Some(read_u64(&mut r)?);
            }
            _ => skip(&mut r)?,
        }
    }
    r.finish().ok()?;
    Some((profile?, (cycles?, instructions?)))
}

/// A journal record's `kind`, read without decoding the rest (the
/// writers put it first).
fn record_kind(record: &str) -> Option<Cow<'_, str>> {
    let mut r = Reader::new(record);
    r.begin_object().ok()?;
    while let Some(key) = r.next_key().ok()? {
        if key == "kind" {
            return r.string().ok();
        }
        skip(&mut r)?;
    }
    None
}

/// Fault-handling policy for a fault-tolerant sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPolicy {
    /// Cooperative per-point deadline in simulated cycles (`None` = no
    /// deadline). Deterministic: the abort point depends only on
    /// simulated time.
    pub deadline_cycles: Option<u64>,
    /// Extra attempts per failing point (0 = fail on the first error).
    /// Retries re-run the identical pure closure, so deterministic
    /// failures fail identically and results stay mode-independent.
    pub retries: u32,
}

/// Everything [`run_grid_ft`] needs beyond the grid itself.
#[derive(Debug)]
pub struct SweepOptions<'a> {
    /// Sweep parallelism.
    pub mode: Parallelism,
    /// Per-point fault policy.
    pub faults: FaultPolicy,
    /// Journal destination (fresh or resume). `None` = no journaling.
    pub journal: Option<&'a JournalSpec>,
    /// Study registry key (the journal header's identity).
    pub study: &'a str,
    /// Parameter fingerprint (see [`crate::journal::fingerprint`]).
    pub fingerprint: &'a str,
    /// Budget of compute units (references + points) for this
    /// invocation. Exceeding it checkpoints what completed and returns
    /// [`speedup_stacks::SimError::Interrupted`] — the mechanism the CI
    /// resume smoke test uses to emulate a mid-sweep kill.
    pub max_points: Option<usize>,
    /// Trace capture or replay (`repro --trace-out` / `--trace-in`).
    /// `None` = generated streams, no trace.
    pub trace: Option<&'a TraceSpec>,
}

impl<'a> SweepOptions<'a> {
    /// A plain in-memory sweep: given parallelism and fault policy, no
    /// journal, no budget, no trace.
    #[must_use]
    pub fn plain(mode: Parallelism, faults: FaultPolicy, study: &'a str) -> SweepOptions<'a> {
        SweepOptions {
            mode,
            faults,
            journal: None,
            study,
            fingerprint: "",
            max_points: None,
            trace: None,
        }
    }
}

/// The outcome of a fault-tolerant grid sweep.
#[derive(Debug)]
pub struct GridReport {
    /// One slot per grid point, row-major in deterministic
    /// `(profile, count)` order. `None` marks a failed point; its reason
    /// is in [`GridReport::degraded`].
    pub points: Vec<Option<PointSummary>>,
    /// Degradation accounting for the report's `Degraded` block (checked
    /// with `is_degraded()` — a clean run pushes no block, which keeps
    /// resumed reports byte-identical to uninterrupted ones).
    pub degraded: Degraded,
    /// Capture provenance when the sweep traced to a file (`None` on
    /// plain and replayed sweeps — replays attach nothing extra, so a
    /// replayed report stays byte-identical to the generated one).
    pub provenance: Option<Provenance>,
}

/// A point's label in `Degraded` blocks and failure frames.
#[must_use]
pub fn point_label(profile_name: &str, threads: usize) -> String {
    format!("{profile_name} x{threads}")
}

/// The trace a replaying sweep draws its op streams from, plus the slot
/// where damage discovered inside a worker is parked:
/// [`cmpsim::OpStream`] has no error channel, so a replay stream that
/// hits damage parks a typed error in its run's fault slot; the unit
/// moves it here and the sweep fails once its units have run.
#[derive(Debug)]
pub(crate) struct Replay {
    reader: TraceReader,
    fault: Mutex<Option<TraceError>>,
}

impl Replay {
    fn park(&self, e: TraceError) -> String {
        let msg = e.to_string();
        self.fault
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get_or_insert(e);
        msg
    }

    /// Runs `f` over the captured streams of the (`name`, `threads`) run.
    fn run<R>(
        &self,
        name: &str,
        threads: usize,
        f: impl FnOnce(Vec<Box<dyn cmpsim::OpStream>>) -> Result<R, SimError>,
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

/// One single-thread reference unit, `(Ts, instructions)`. This and
/// [`point_unit`] are the only places a unit's options meet the fault
/// policy's cooperative deadline and the only bodies a grid unit runs
/// through — in the local sweep (generated or replayed streams) and, via
/// [`crate::decompose::GridStudy`], on the study service's workers.
///
/// # Errors
///
/// The engine or trace error rendered as a string (the caller's fault
/// domain treats it as a unit failure).
pub(crate) fn reference_unit(
    profile: &WorkloadProfile,
    mut opts: RunOptions,
    faults: FaultPolicy,
    replay: Option<&Replay>,
) -> Result<(u64, u64), String> {
    opts.deadline_cycles = opts.deadline_cycles.or(faults.deadline_cycles);
    match replay {
        Some(r) => r.run(&display_name(profile), 1, |streams| {
            single_thread_reference_streams(&opts, streams)
        }),
        None => single_thread_reference(profile, &opts).map_err(|e| e.to_string()),
    }
}

/// One grid-point unit given its profile's reference `st` (see
/// [`reference_unit`]).
///
/// # Errors
///
/// The engine or trace error rendered as a string.
pub(crate) fn point_unit(
    profile: &WorkloadProfile,
    mut opts: RunOptions,
    faults: FaultPolicy,
    st: (u64, u64),
    replay: Option<&Replay>,
) -> Result<PointSummary, String> {
    opts.deadline_cycles = opts.deadline_cycles.or(faults.deadline_cycles);
    match replay {
        Some(r) => r.run(&display_name(profile), opts.threads, |streams| {
            run_profile_streams(profile, &opts, st, streams)
        }),
        None => run_profile(profile, &opts, Some(st)).map_err(|e| e.to_string()),
    }
    .map(PointSummary::from)
}

/// Runs a (benchmark × thread-count) grid with per-unit fault domains:
/// panics and engine errors are confined to their unit, failing units
/// are retried up to the policy's budget, completed units stream into
/// the journal (when armed), and a resume replays intact journal records
/// instead of recomputing them — reproducing the uninterrupted sweep's
/// report bit for bit.
///
/// # Errors
///
/// - [`speedup_stacks::SimError::Config`] when a workload profile is
///   invalid (checked up front — configuration mistakes are not point
///   faults),
/// - [`speedup_stacks::SimError::Journal`] when the journal cannot be
///   created, read, or fails identity validation on resume,
/// - [`speedup_stacks::SimError::Interrupted`] when the
///   [`SweepOptions::max_points`] budget ran out before the grid was
///   complete (completed work is journaled; resume finishes it),
/// - [`speedup_stacks::SimError::Trace`] when the trace file cannot be
///   written (capture) or is missing, damaged, or was captured for a
///   different study or parameter set (replay). Trace damage is fatal,
///   never degraded: silently replaying a different op stream would
///   fabricate results.
///
/// Per-point failures are **not** errors: they surface as `None` slots
/// plus [`GridReport::degraded`] entries.
pub fn run_grid_ft(
    profiles: &[WorkloadProfile],
    counts: &[usize],
    mk_opts: &(impl Fn(&WorkloadProfile, usize) -> RunOptions + Sync),
    sweep: &SweepOptions<'_>,
) -> Result<GridReport, CoreError> {
    // Configuration errors are not point faults: reject degenerate
    // workloads before spending any simulation time.
    for p in profiles {
        p.validate().map_err(CoreError::Config)?;
    }
    let names: Vec<String> = profiles.iter().map(display_name).collect();

    // Trace capture happens up front: every (profile, thread-count) run
    // the sweep will make is drained from the (deterministic) generators
    // into the trace file, then the sweep itself proceeds on generated
    // streams as usual. Replay opens and identity-checks the trace; the
    // units below then draw their ops from it.
    let mut provenance: Option<Provenance> = None;
    let replay: Option<Replay> = match sweep.trace {
        Some(spec) if spec.replay => Some(Replay {
            reader: TraceReader::open(&spec.path, Some((sweep.study, sweep.fingerprint)))
                .map_err(CoreError::Trace)?,
            fault: Mutex::new(None),
        }),
        Some(spec) => {
            let mut w = TraceWriter::create(&spec.path, sweep.study, sweep.fingerprint)
                .map_err(CoreError::Trace)?;
            for (p, name) in profiles.iter().zip(&names) {
                // The single-thread reference run, then each grid
                // point's thread count (deduplicated — e.g. a count
                // whose options pin threads to an already-captured
                // value).
                let mut written: Vec<usize> = vec![1];
                w.add_run(name, streams_for(p, 1))
                    .map_err(CoreError::Trace)?;
                for &n in counts {
                    let threads = mk_opts(p, n).threads;
                    if !written.contains(&threads) {
                        written.push(threads);
                        w.add_run(name, streams_for(p, threads))
                            .map_err(CoreError::Trace)?;
                    }
                }
            }
            let stats = w.finish().map_err(CoreError::Trace)?;
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
    let writer: Option<Mutex<JournalWriter>> = match sweep.journal {
        Some(spec) if spec.resume => {
            let scan = journal::scan(&spec.path, sweep.study, sweep.fingerprint)
                .map_err(CoreError::Journal)?;
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
            JournalWriter::create(&spec.path, sweep.study, sweep.fingerprint)
                .map_err(CoreError::Journal)?,
        )),
        None => None,
    };

    // A journal append failure inside a worker must not be swallowed:
    // park the first one and fail the sweep once the units have run.
    let journal_fault: Mutex<Option<speedup_stacks::error::JournalError>> = Mutex::new(None);
    let record = |data: &str| {
        if let Some(w) = &writer {
            if let Err(e) = w
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .append(data)
            {
                journal_fault
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .get_or_insert(e);
            }
        }
    };
    // Points are indexed row-major; journaled units are known up front
    // and everything else is the graph's to hand out: references in
    // profile order, then points in index order.
    let n_points = profiles.len() * counts.len();
    let point_of = |i: usize| (i / counts.len(), counts[i % counts.len()]);
    let mut fold = GridFold::new(n_points);
    let mut graph = UnitGraph::grid(profiles.len(), counts.len());
    for (pi, name) in names.iter().enumerate() {
        if let Some(&st) = done_refs.get(name) {
            graph.ref_known(pi, st);
        }
    }
    for i in 0..n_points {
        let (pi, n) = point_of(i);
        match done_points.remove(&(names[pi].clone(), n)) {
            Some(summary) => fold.point(i, summary, 1),
            None => graph.add_point(i),
        }
    }
    if let Some(budget) = sweep.max_points {
        graph.set_budget(budget);
    }

    let faults = sweep.faults;
    let completed = run_units(
        &mut graph,
        sweep.mode,
        faults.retries,
        |pi| {
            let p = &profiles[pi];
            let st = reference_unit(p, mk_opts(p, 1), faults, replay.as_ref())?;
            record(&ref_record(&names[pi], st));
            Ok(st)
        },
        |i, st| {
            let (pi, n) = point_of(i);
            let p = &profiles[pi];
            let summary = point_unit(p, mk_opts(p, n), faults, st[0], replay.as_ref())?;
            record(&summary.to_record());
            Ok(summary)
        },
        |i, outcome, attempts| match outcome {
            Ok(summary) => fold.point(i, summary, attempts),
            Err(reason) => {
                let (pi, n) = point_of(i);
                fold.failed(i, point_label(&names[pi], n), reason, attempts);
            }
        },
    );

    // Trace damage first (it can be the root cause of anything else),
    // then a parked journal failure, then the budget.
    if let Some(e) = replay.as_ref().and_then(|r| parked(&r.fault)) {
        return Err(CoreError::Trace(e));
    }
    if let Some(e) = parked(&journal_fault) {
        return Err(CoreError::Journal(e));
    }
    if !graph.is_complete() {
        return Err(CoreError::Interrupted { completed });
    }
    let (points, degraded) = fold.into_parts(quarantined);
    Ok(GridReport {
        points,
        degraded,
        provenance,
    })
}

/// Takes the first error a worker parked in `slot`, if any did.
fn parked<E>(slot: &Mutex<Option<E>>) -> Option<E> {
    slot.lock().unwrap_or_else(PoisonError::into_inner).take()
}

/// Returns a copy of `profile` with its total work scaled by `factor`
/// (used by the benches to keep regeneration fast). The result
/// keeps at least one item per thread and phase.
#[must_use]
pub fn scaled_profile(profile: &WorkloadProfile, factor: f64) -> WorkloadProfile {
    let mut p = profile.clone();
    let min_items = u64::from(p.phases.max(1)) * 16;
    p.total_items = ((p.total_items as f64 * factor) as u64).max(min_items);
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{find, Suite};

    #[test]
    fn blackscholes_small_scales_well_on_4() {
        let p = scaled_profile(&find("blackscholes", Suite::ParsecSmall).unwrap(), 0.25);
        let out = run_profile(&p, &RunOptions::symmetric(4), None).unwrap();
        assert!(out.actual > 3.0, "actual speedup {}", out.actual);
        assert!(out.estimated > 3.0, "estimated {}", out.estimated);
        assert!(out.error().abs() < 0.2);
    }

    #[test]
    fn st_reference_reused() {
        let p = scaled_profile(&find("blackscholes", Suite::ParsecSmall).unwrap(), 0.1);
        let opts = RunOptions::symmetric(2);
        let st = single_thread_reference(&p, &opts).unwrap();
        let a = run_profile(&p, &opts, Some(st)).unwrap();
        let b = run_profile(&p, &opts, None).unwrap();
        assert_eq!(a.st_cycles, b.st_cycles);
        assert_eq!(a.mt_cycles, b.mt_cycles);
    }

    #[test]
    fn point_summary_journal_round_trip() {
        let p = scaled_profile(&find("blackscholes", Suite::ParsecSmall).unwrap(), 0.05);
        let out = run_profile(&p, &RunOptions::symmetric(2), None).unwrap();
        let summary = PointSummary::from(out);
        let back = PointSummary::from_record(&summary.to_record()).unwrap();
        // Bit-identical: shortest round-trip float formatting plus
        // deterministic stack re-aggregation.
        assert_eq!(back, summary);
    }

    #[test]
    fn run_grid_ft_deadline_fails_points_not_sweep() {
        let p = scaled_profile(&find("blackscholes", Suite::ParsecSmall).unwrap(), 0.05);
        let profiles = vec![p];
        let mk = |_: &WorkloadProfile, n: usize| RunOptions::symmetric(n);
        let sweep = SweepOptions::plain(
            Parallelism::Serial,
            FaultPolicy {
                // Far below any real run length: every point's engine
                // aborts at this simulated cycle.
                deadline_cycles: Some(10),
                retries: 0,
            },
            "test",
        );
        let ft = run_grid_ft(&profiles, &[2], &mk, &sweep).unwrap();
        assert!(ft.degraded.is_degraded());
        assert_eq!(ft.degraded.completed, 0);
        assert!(ft.points[0].is_none());
        let reason = &ft.degraded.failed[0].reason;
        assert!(reason.contains("deadline"), "unexpected reason: {reason}");
    }

    #[test]
    fn scaled_profile_floors() {
        let p = find("srad", Suite::Rodinia).unwrap();
        let tiny = scaled_profile(&p, 0.000001);
        assert!(tiny.total_items >= u64::from(tiny.phases) * 16);
    }
}
