//! Running one workload on one machine and producing its speedup stack.
//!
//! Every experiment in the paper reduces to this recipe: run the workload
//! multi-threaded on the configured CMP (that run drives the accounting
//! and yields the *estimated* speedup), run it single-threaded on one core
//! of the same machine (Eq. 1's `Ts`), and attach the resulting *actual*
//! speedup to the stack for validation.
//!
//! The `_streams` entry points take caller-supplied op streams (trace
//! replay feeds captured ones) and an optional cooperative deadline in
//! simulated cycles; they are what a sweep unit runs —
//! [`crate::decompose::GridStudy`]'s two unit bodies and the many-core
//! [`crate::scaling`] study's. [`PointSummary`] is a point's journaled
//! and streamed essence, with the journal record codec beside it, and
//! [`FaultPolicy`] is the per-unit deadline and retry budget.

use std::borrow::Cow;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use cmpsim::{MachineConfig, SimError, SimResult, Simulation};
use memsim::MemConfig;
use speedup_stacks::report::json::{self, Reader};
use speedup_stacks::{
    accounting, AccountingConfig, Breakdown, Component, SpeedupStack, ThreadBreakdown,
};
use workloads::{display_name, streams_for, WorkloadProfile};

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

/// Runs one simulation with the options' machine, aborting it with a
/// typed error once simulated time passes `deadline` (deterministic:
/// simulated cycles, not wall-clock): the one place a unit's machine is
/// validated and its deadline armed.
pub(crate) fn simulate_opts(
    opts: &RunOptions,
    cores: usize,
    streams: Vec<Box<dyn cmpsim::OpStream>>,
    deadline: Option<u64>,
) -> Result<SimResult, SimError> {
    let cfg = opts.machine(cores);
    cfg.validate().map_err(SimError::InvalidConfig)?;
    let sim = Simulation::new(cfg, streams);
    match deadline {
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
    single_thread_reference_streams(opts, streams_for(profile, 1), None)
}

/// [`single_thread_reference`] with caller-supplied op streams (trace
/// replay feeds captured streams through here) and an optional
/// cooperative `deadline` in simulated cycles.
///
/// # Errors
///
/// Propagates [`SimError`] from the engine, a deadline overrun included.
pub fn single_thread_reference_streams(
    opts: &RunOptions,
    streams: Vec<Box<dyn cmpsim::OpStream>>,
    deadline: Option<u64>,
) -> Result<(u64, u64), SimError> {
    let st = simulate_opts(opts, 1, streams, deadline)?;
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
    run_profile_streams(profile, opts, st, streams_for(profile, opts.threads), None)
}

/// [`run_profile`] with caller-supplied op streams for the
/// multi-threaded run (trace replay feeds captured streams through
/// here) and an optional cooperative `deadline` in simulated cycles.
/// The single-thread reference is always caller-supplied: a replay must
/// not fall back to the generators.
///
/// # Errors
///
/// Propagates [`SimError`] from the engine, a deadline overrun included.
pub fn run_profile_streams(
    profile: &WorkloadProfile,
    opts: &RunOptions,
    st_reference: (u64, u64),
    streams: Vec<Box<dyn cmpsim::OpStream>>,
    deadline: Option<u64>,
) -> Result<RunOutcome, SimError> {
    let (st_cycles, st_instructions) = st_reference;
    let mt = simulate_opts(opts, opts.cores, streams, deadline)?;
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
pub(crate) fn ref_record(name: &str, (cycles, instructions): (u64, u64)) -> String {
    format!(
        "{{\"kind\": \"ref\", \"profile\": \"{}\", \"st_cycles\": {cycles}, \
         \"st_instructions\": {instructions}}}",
        json::escape(name)
    )
}

/// Decodes a journal `ref` record back into `(name, (Ts, instructions))`.
pub(crate) fn ref_from_record(record: &str) -> Option<(String, (u64, u64))> {
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
pub(crate) fn record_kind(record: &str) -> Option<Cow<'_, str>> {
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
    /// Cooperative per-unit deadline in simulated cycles (`None` = no
    /// deadline), the one deadline setting: every unit body hands it to
    /// the engine. Deterministic: the abort point depends only on
    /// simulated time.
    pub deadline_cycles: Option<u64>,
    /// Extra attempts per failing point (0 = fail on the first error).
    /// Retries re-run the identical pure closure, so deterministic
    /// failures fail identically and results stay mode-independent.
    pub retries: u32,
}

/// A point's label in `Degraded` blocks and failure frames.
#[must_use]
pub fn point_label(profile_name: &str, threads: usize) -> String {
    format!("{profile_name} x{threads}")
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
    fn scaled_profile_floors() {
        let p = find("srad", Suite::Rodinia).unwrap();
        let tiny = scaled_profile(&p, 0.000001);
        assert!(tiny.total_items >= u64::from(tiny.phases) * 16);
    }
}
