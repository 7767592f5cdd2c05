//! Running one workload on one machine and producing its speedup stack.
//!
//! Every experiment in the paper reduces to this recipe: run the workload
//! multi-threaded on the configured CMP (that run drives the accounting
//! and yields the *estimated* speedup), run it single-threaded on one core
//! of the same machine (Eq. 1's `Ts`), and attach the resulting *actual*
//! speedup to the stack for validation.
//!
//! Two grid drivers share that recipe: [`run_grid`] (the original
//! fail-fast sweep, kept for the perf harness and determinism tests) and
//! [`run_grid_ft`], the fault-tolerant sweep behind the `repro` CLI —
//! per-point panic isolation and retries via [`crate::par::try_map_mode`],
//! cooperative per-point deadlines, crash-safe journaling through
//! [`crate::journal`] and checkpoint–resume that reproduces the
//! uninterrupted report bit for bit.
//!
//! [`run_grid_ft`] additionally speaks the binary trace format of
//! [`workloads::trace`]: armed with a capture [`TraceSpec`], it records
//! every run's op streams to a trace file before sweeping (the generators
//! are deterministic, so the capture matches the sweep exactly); armed
//! with a replay spec, every simulation draws its ops from the trace
//! instead of the generators, reproducing the captured report bit for
//! bit. Any trace damage aborts the sweep with a typed
//! [`speedup_stacks::SimError::Trace`] — a damaged trace has no safe
//! recomputation, so it is never degraded-and-continued.

use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, PoisonError};

use cmpsim::{MachineConfig, SimError, SimResult, Simulation};
use memsim::MemConfig;
use speedup_stacks::error::{SimError as CoreError, TraceError};
use speedup_stacks::report::json::{self, JsonValue};
use speedup_stacks::report::{Degraded, DegradedPoint, Provenance};
use speedup_stacks::{
    accounting, AccountingConfig, Breakdown, Component, SpeedupStack, ThreadBreakdown,
};
use workloads::trace::{TraceReader, TraceSpec, TraceWriter};
use workloads::{display_name, streams_for, WorkloadProfile};

use crate::journal::{self, JournalSpec, JournalWriter};
use crate::par::{try_map_mode, Parallelism};

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
/// cooperative per-run deadline when armed.
fn simulate_opts(
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

/// Runs a (benchmark × thread-count) figure grid, in parallel over the
/// independent simulation points.
///
/// Single-threaded references are computed once per benchmark (with
/// `mk_opts(profile, 1)`) and shared across that benchmark's points.
/// Results are collected in deterministic `(profile, count)` order, so a
/// serial and a parallel sweep produce identical figures — guarded by the
/// `sweep_determinism` integration test.
///
/// # Panics
///
/// Panics if any simulation fails (catalog workloads are deadlock-free
/// by construction).
pub fn run_grid(
    profiles: &[WorkloadProfile],
    counts: &[usize],
    mk_opts: &(impl Fn(&WorkloadProfile, usize) -> RunOptions + Sync),
    mode: crate::par::Parallelism,
) -> Vec<Vec<RunOutcome>> {
    // Phase 1: single-threaded references, one per benchmark.
    let refs = crate::par::map_mode(mode, profiles.iter().collect(), |p| {
        single_thread_reference(p, &mk_opts(p, 1)).expect("single-thread run")
    });
    // Phase 2: every (benchmark, thread-count) point.
    let points: Vec<(usize, usize)> = (0..profiles.len())
        .flat_map(|pi| counts.iter().map(move |&n| (pi, n)))
        .collect();
    let outcomes = crate::par::map_mode(mode, points, |(pi, n)| {
        run_profile(&profiles[pi], &mk_opts(&profiles[pi], n), Some(refs[pi])).expect("run")
    });
    // Regroup flat results per benchmark, in counts order.
    let mut iter = outcomes.into_iter();
    profiles
        .iter()
        .map(|_| {
            counts
                .iter()
                .map(|_| iter.next().expect("one outcome per point"))
                .collect()
        })
        .collect()
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

/// Reads a JSON number field, mapping `null` back to the `NaN` it was
/// emitted from.
fn num_field(v: &JsonValue, k: &str) -> Option<f64> {
    match v.get(k)? {
        JsonValue::Number(x) => Some(*x),
        JsonValue::Null => Some(f64::NAN),
        _ => None,
    }
}

/// Reads a non-negative integer field (counter magnitudes in this
/// codebase stay far below 2^53, so the `f64` round-trip is exact).
fn u64_field(v: &JsonValue, k: &str) -> Option<u64> {
    let x = v.get(k)?.as_f64()?;
    (x >= 0.0 && x.fract() == 0.0).then_some(x as u64)
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

    /// Rebuilds a summary from a parsed journal `point` record. `None`
    /// on any shape mismatch (the caller quarantines the record).
    #[must_use]
    pub fn from_record(v: &JsonValue) -> Option<PointSummary> {
        let stack_v = v.get("stack")?;
        let tp = u64_field(stack_v, "tp_cycles")?;
        let mut per_thread = Vec::new();
        for t in stack_v.get("per_thread")?.as_array()? {
            let o = t.get("o")?.as_array()?;
            if o.len() != Component::ALL.len() {
                return None;
            }
            let mut overheads = Breakdown::zero();
            for (c, val) in Component::ALL.iter().zip(o) {
                overheads.set(*c, val.as_f64()?);
            }
            per_thread.push(ThreadBreakdown {
                overheads,
                positive_cycles: num_field(t, "p")?,
                estimated_single_thread_cycles: num_field(t, "e")?,
            });
        }
        if per_thread.is_empty() {
            return None;
        }
        let actual = num_field(v, "actual")?;
        Some(PointSummary {
            name: v.get("name")?.as_str()?.to_string(),
            suite: v.get("suite")?.as_str()?.to_string(),
            threads: u64_field(v, "threads")? as usize,
            actual,
            estimated: num_field(v, "estimated")?,
            st_cycles: u64_field(v, "st_cycles")?,
            mt_cycles: u64_field(v, "mt_cycles")?,
            instruction_overhead: num_field(v, "instruction_overhead")?,
            stack: SpeedupStack::from_breakdowns(per_thread, tp).with_actual_speedup(actual),
        })
    }
}

/// Serializes a single-thread reference as a journal `ref` record.
fn ref_record(name: &str, (cycles, instructions): (u64, u64)) -> String {
    format!(
        "{{\"kind\": \"ref\", \"profile\": \"{}\", \"st_cycles\": {cycles}, \
         \"st_instructions\": {instructions}}}",
        json::escape(name)
    )
}

/// Parses a journal `ref` record back into `(name, (Ts, instructions))`.
fn ref_from_record(v: &JsonValue) -> Option<(String, (u64, u64))> {
    Some((
        v.get("profile")?.as_str()?.to_string(),
        (u64_field(v, "st_cycles")?, u64_field(v, "st_instructions")?),
    ))
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
    /// Per-profile, per-count point summaries, in deterministic
    /// `(profile, count)` order. `None` marks a failed point; its reason
    /// is in [`GridReport::degraded`].
    pub rows: Vec<Vec<Option<PointSummary>>>,
    /// Degradation accounting for the report's `Degraded` block (checked
    /// with `is_degraded()` — a clean run pushes no block, which keeps
    /// resumed reports byte-identical to uninterrupted ones).
    pub degraded: Degraded,
    /// Grid points replayed from the journal instead of recomputed.
    pub resumed: usize,
    /// Capture provenance when the sweep traced to a file (`None` on
    /// plain and replayed sweeps — replays attach nothing extra, so a
    /// replayed report stays byte-identical to the generated one).
    pub provenance: Option<Provenance>,
}

/// Runs a (benchmark × thread-count) grid with per-point fault domains:
/// panics and engine errors are confined to their point, failing points
/// are retried up to the policy's budget, completed points stream into
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
/// Per-point failures are **not** errors: they surface as `None` rows
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

    // Trace capture happens up front: every (profile, thread-count) run
    // the sweep will make is drained from the (deterministic) generators
    // into the trace file, then the sweep itself proceeds on generated
    // streams as usual. Replay opens and identity-checks the trace; the
    // point closures below then draw their ops from it.
    let mut provenance: Option<Provenance> = None;
    let trace_reader: Option<TraceReader> = match sweep.trace {
        Some(spec) if spec.replay => Some(
            TraceReader::open(&spec.path, Some((sweep.study, sweep.fingerprint)))
                .map_err(CoreError::Trace)?,
        ),
        Some(spec) => {
            let mut w = TraceWriter::create(&spec.path, sweep.study, sweep.fingerprint)
                .map_err(CoreError::Trace)?;
            for p in profiles {
                let name = display_name(p);
                // The single-thread reference run, then each grid
                // point's thread count (deduplicated — e.g. a count
                // whose options pin threads to an already-captured
                // value).
                let mut written: Vec<usize> = vec![1];
                w.add_run(&name, streams_for(p, 1))
                    .map_err(CoreError::Trace)?;
                for &n in counts {
                    let threads = mk_opts(p, n).threads;
                    if !written.contains(&threads) {
                        written.push(threads);
                        w.add_run(&name, streams_for(p, threads))
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
                match rec.get("kind").and_then(JsonValue::as_str) {
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
            Some(Mutex::new(
                JournalWriter::open_append(&spec.path).map_err(CoreError::Journal)?,
            ))
        }
        Some(spec) => Some(Mutex::new(
            JournalWriter::create(&spec.path, sweep.study, sweep.fingerprint)
                .map_err(CoreError::Journal)?,
        )),
        None => None,
    };

    // A journal append failure inside a worker must not be swallowed:
    // park the first one and fail the sweep at the next checkpoint.
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
    let take_journal_fault = || {
        journal_fault
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    };

    // Same parking pattern for trace damage discovered inside a worker:
    // [`cmpsim::OpStream`] has no error channel, so a replay stream that
    // hits damage parks a typed error in its run's fault slot; the
    // closures move it here and the sweep fails at the next checkpoint.
    let trace_fault: Mutex<Option<TraceError>> = Mutex::new(None);
    let park_trace = |e: TraceError| -> String {
        let msg = e.to_string();
        trace_fault
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get_or_insert(e);
        msg
    };
    let take_trace_fault = || {
        trace_fault
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    };

    let grid: Vec<(usize, usize)> = (0..profiles.len())
        .flat_map(|pi| counts.iter().map(move |&n| (pi, n)))
        .collect();
    let resumed = grid
        .iter()
        .filter(|&&(pi, n)| done_points.contains_key(&(display_name(&profiles[pi]), n)))
        .count();
    let pending: Vec<(usize, usize)> = grid
        .iter()
        .copied()
        .filter(|&(pi, n)| !done_points.contains_key(&(display_name(&profiles[pi]), n)))
        .collect();
    let mut need_ref: Vec<usize> = pending.iter().map(|&(pi, _)| pi).collect();
    need_ref.sort_unstable();
    need_ref.dedup();
    need_ref.retain(|&pi| !done_refs.contains_key(&display_name(&profiles[pi])));

    let budget = sweep.max_points.unwrap_or(usize::MAX);
    let run_refs = need_ref.len().min(budget);
    let truncated_refs = need_ref.len() > run_refs;
    let faults = sweep.faults;

    // Phase 1: single-threaded references, one per benchmark with
    // pending points. A failed reference cascades to its points below.
    let ref_outcomes = try_map_mode(
        sweep.mode,
        faults.retries,
        need_ref[..run_refs].to_vec(),
        |&pi| format!("{} (single-thread reference)", display_name(&profiles[pi])),
        |&pi| {
            let p = &profiles[pi];
            let mut opts = mk_opts(p, 1);
            opts.deadline_cycles = opts.deadline_cycles.or(faults.deadline_cycles);
            let st = match &trace_reader {
                Some(r) => {
                    let run = r.run_streams(&display_name(p), 1).map_err(&park_trace)?;
                    let result = single_thread_reference_streams(&opts, run.streams);
                    // Check the fault slot before the engine result: a
                    // truncated stream can surface as an engine error
                    // (or a deadlock) whose root cause is the trace.
                    if let Some(f) = run.fault.take() {
                        return Err(park_trace(f));
                    }
                    result.map_err(|e| e.to_string())?
                }
                None => single_thread_reference(p, &opts).map_err(|e| e.to_string())?,
            };
            record(&ref_record(&display_name(p), st));
            Ok(st)
        },
    );
    let mut degraded = Degraded {
        total_points: grid.len(),
        quarantined,
        ..Degraded::default()
    };
    let mut completed_units = 0usize;
    let mut ref_fail: HashMap<usize, (String, u32)> = HashMap::new();
    for (slot, &pi) in ref_outcomes.into_iter().zip(&need_ref[..run_refs]) {
        if slot.retried_ok() {
            degraded.retried += 1;
        }
        match slot.result {
            Ok(st) => {
                done_refs.insert(display_name(&profiles[pi]), st);
                completed_units += 1;
            }
            Err(e) => {
                ref_fail.insert(pi, (e.payload, e.attempts));
            }
        }
    }
    if let Some(e) = take_trace_fault() {
        return Err(CoreError::Trace(e));
    }
    if let Some(e) = take_journal_fault() {
        return Err(CoreError::Journal(e));
    }
    if truncated_refs {
        return Err(CoreError::Interrupted {
            completed: completed_units,
        });
    }

    // Phase 2: every pending point whose reference exists.
    let runnable: Vec<(usize, usize)> = pending
        .iter()
        .copied()
        .filter(|(pi, _)| !ref_fail.contains_key(pi))
        .collect();
    let remaining = budget - run_refs;
    let run_pts = runnable.len().min(remaining);
    let truncated_pts = runnable.len() > run_pts;
    let pts_to_run = runnable[..run_pts].to_vec();
    let refs = &done_refs;
    let point_outcomes = try_map_mode(
        sweep.mode,
        faults.retries,
        pts_to_run.clone(),
        |&(pi, n)| format!("{} x{}", display_name(&profiles[pi]), n),
        |&(pi, n)| {
            let p = &profiles[pi];
            let mut opts = mk_opts(p, n);
            opts.deadline_cycles = opts.deadline_cycles.or(faults.deadline_cycles);
            let st = refs[&display_name(p)];
            let out = match &trace_reader {
                Some(r) => {
                    let run = r
                        .run_streams(&display_name(p), opts.threads)
                        .map_err(&park_trace)?;
                    let result = run_profile_streams(p, &opts, st, run.streams);
                    if let Some(f) = run.fault.take() {
                        return Err(park_trace(f));
                    }
                    result.map_err(|e| e.to_string())?
                }
                None => run_profile(p, &opts, Some(st)).map_err(|e| e.to_string())?,
            };
            let summary = PointSummary::from(out);
            record(&summary.to_record());
            Ok(summary)
        },
    );
    for (slot, (pi, n)) in point_outcomes.into_iter().zip(pts_to_run) {
        if slot.retried_ok() {
            degraded.retried += 1;
        }
        match slot.result {
            Ok(s) => {
                completed_units += 1;
                done_points.insert((display_name(&profiles[pi]), n), s);
            }
            Err(e) => degraded.failed.push(DegradedPoint {
                label: e.label,
                reason: e.payload,
                attempts: e.attempts,
            }),
        }
    }
    if let Some(e) = take_trace_fault() {
        return Err(CoreError::Trace(e));
    }
    if let Some(e) = take_journal_fault() {
        return Err(CoreError::Journal(e));
    }
    if truncated_pts {
        return Err(CoreError::Interrupted {
            completed: completed_units,
        });
    }

    // Cascade failed references onto their (never attempted) points.
    for &(pi, n) in &pending {
        if let Some((reason, attempts)) = ref_fail.get(&pi) {
            degraded.failed.push(DegradedPoint {
                label: format!("{} x{}", display_name(&profiles[pi]), n),
                reason: format!("single-thread reference failed: {reason}"),
                attempts: *attempts,
            });
        }
    }

    // Assemble rows in deterministic grid order.
    let rows: Vec<Vec<Option<PointSummary>>> = profiles
        .iter()
        .map(|p| {
            let name = display_name(p);
            counts
                .iter()
                .map(|&n| done_points.remove(&(name.clone(), n)))
                .collect()
        })
        .collect();
    degraded.completed = rows.iter().flatten().filter(|s| s.is_some()).count();
    Ok(GridReport {
        rows,
        degraded,
        resumed,
        provenance,
    })
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
        let parsed = json::parse(&summary.to_record()).unwrap();
        let back = PointSummary::from_record(&parsed).unwrap();
        // Bit-identical: shortest round-trip float formatting plus
        // deterministic stack re-aggregation.
        assert_eq!(back, summary);
    }

    #[test]
    fn run_grid_ft_matches_run_grid_clean() {
        let p = scaled_profile(&find("blackscholes", Suite::ParsecSmall).unwrap(), 0.05);
        let profiles = vec![p];
        let counts = [2, 4];
        let mk = |_: &WorkloadProfile, n: usize| RunOptions::symmetric(n);
        let plain = run_grid(&profiles, &counts, &mk, Parallelism::Serial);
        let sweep = SweepOptions::plain(Parallelism::Serial, FaultPolicy::default(), "test");
        let ft = run_grid_ft(&profiles, &counts, &mk, &sweep).unwrap();
        assert!(!ft.degraded.is_degraded());
        assert_eq!(ft.resumed, 0);
        for (row, ft_row) in plain.iter().zip(&ft.rows) {
            for (out, slot) in row.iter().zip(ft_row) {
                let s = slot.as_ref().expect("clean sweep completes every point");
                assert_eq!(s.stack, out.stack);
                assert_eq!(s.st_cycles, out.st_cycles);
                assert_eq!(s.mt_cycles, out.mt_cycles);
            }
        }
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
        assert!(ft.rows[0][0].is_none());
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
