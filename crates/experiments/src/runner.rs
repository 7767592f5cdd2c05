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
//! [`crate::decompose::GridStudy`]'s two unit bodies, fig7's and fig9's,
//! and the many-core [`crate::scaling`] study's. [`PointSummary`] is a
//! point's journaled, cached and streamed essence, with its record codec
//! beside it, and [`PointScalars`] the same without its stack, read from
//! the same records; [`ref_to_value`]/[`ref_from_value`] are a
//! reference's, and [`FaultPolicy`] is the per-unit deadline and retry
//! budget.

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

/// Runs one simulation on `cfg`, aborting it with a typed error once
/// simulated time passes `deadline` (deterministic: simulated cycles,
/// not wall-clock): the one place a unit's machine is validated and its
/// deadline armed.
pub(crate) fn simulate(
    cfg: MachineConfig,
    streams: Vec<Box<dyn cmpsim::OpStream>>,
    deadline: Option<u64>,
) -> Result<SimResult, SimError> {
    cfg.validate().map_err(SimError::InvalidConfig)?;
    Simulation::new(cfg, streams)
        .with_deadline(deadline.unwrap_or(u64::MAX))
        .run()
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
    let st = simulate(opts.machine(1), streams, deadline)?;
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
    let mt = simulate(opts.machine(opts.cores), streams, deadline)?;
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

    /// Serializes as a `point` record (one JSON object): the value of
    /// the point's journal and spill entries, and a streamed frame's `data`.
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

    /// Decodes a `point` record ([`PointSummary::to_record`]'s
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
    /// streamed frame's `data`). The one record walk, shared with
    /// [`PointScalars::read_record`]: fields in any order, unknown keys
    /// skipped, the first of a repeated key wins, `null` reads back as
    /// the `NaN` it was emitted from — except inside `o`, whose
    /// [`Component::ALL`]`.len()` overheads must be numbers — and the
    /// `per_thread` list must be non-empty.
    #[must_use]
    pub fn read_record(r: &mut Reader<'_>) -> Option<PointSummary> {
        let (s, tp, per_thread) = read_point::<true>(r)?;
        Some(PointSummary {
            stack: SpeedupStack::from_breakdowns(per_thread, tp).with_actual_speedup(s.actual),
            name: s.name,
            suite: s.suite,
            threads: s.threads,
            actual: s.actual,
            estimated: s.estimated,
            st_cycles: s.st_cycles,
            mt_cycles: s.mt_cycles,
            instruction_overhead: s.instruction_overhead,
        })
    }
}

/// A point's scalars: a [`PointSummary`] without its stack. The reports
/// of the studies that read no stack are built from these (see
/// [`crate::decompose::GridStudy::reads_no_stack`]), and a served submit
/// of one of them decodes its streamed records straight into them.
#[derive(Debug, Clone, PartialEq)]
pub struct PointScalars {
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
}

impl From<PointSummary> for PointScalars {
    fn from(p: PointSummary) -> Self {
        PointScalars {
            name: p.name,
            suite: p.suite,
            threads: p.threads,
            actual: p.actual,
            estimated: p.estimated,
            st_cycles: p.st_cycles,
            mt_cycles: p.mt_cycles,
            instruction_overhead: p.instruction_overhead,
        }
    }
}

impl PointScalars {
    /// Reads one `point` record value at the reader's position into its
    /// scalars: [`PointSummary::read_record`]'s walk, which accepts
    /// exactly the same texts and reads the same scalars bit for bit,
    /// but steps over the numbers of `stack` (each held to the number
    /// grammar) instead of converting them, and keeps no per-thread
    /// entry.
    #[must_use]
    pub fn read_record(r: &mut Reader<'_>) -> Option<PointScalars> {
        read_point::<false>(r).map(|(scalars, ..)| scalars)
    }
}

/// The most `per_thread` entries a decoder reserves up front from the
/// record's `threads` count, a number read off the wire; a longer list
/// grows as it is read.
const RESERVED_THREADS: u64 = 1024;

/// The one `point` record walk: the scalars, `tp_cycles` and the
/// `per_thread` entries. With `BUILD` false it holds `stack` to the same
/// grammar and shape but converts none of its numbers and returns the
/// list empty (see [`stack_number`]).
fn read_point<const BUILD: bool>(
    r: &mut Reader<'_>,
) -> Option<(PointScalars, u64, Vec<ThreadBreakdown>)> {
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
            "stack" if stack.is_none() => stack = Some(read_stack::<BUILD>(r, threads)?),
            _ => skip(r)?,
        }
    }
    let (tp, per_thread) = stack?;
    let scalars = PointScalars {
        name: name?,
        suite: suite?,
        threads: threads? as usize,
        actual: actual?,
        estimated: estimated?,
        st_cycles: st_cycles?,
        mt_cycles: mt_cycles?,
        instruction_overhead: overhead?,
    };
    Some((scalars, tp, per_thread))
}

/// Skips one value the record decoder does not read.
fn skip(r: &mut Reader<'_>) -> Option<()> {
    r.skip().ok()
}

/// A number field, mapping `null` back to the `NaN` it was emitted from.
#[inline]
fn read_f64(r: &mut Reader<'_>) -> Option<f64> {
    Some(r.number_or_null().ok()?.unwrap_or(f64::NAN))
}

/// A count field: an integer in `[0, 2^53]` ([`json::exact_u64`]), the
/// range every count the encoder writes stays in.
#[inline]
fn read_u64(r: &mut Reader<'_>) -> Option<u64> {
    json::exact_u64(r.number_or_null().ok()??)
}

/// A number inside `stack` (`Some(None)` for `null`): converted when the
/// walk builds the stack, else stepped over, grammar-checked, and read
/// as 0 — a value nothing reads, as the entry holding it is not kept.
#[inline(always)]
fn stack_number<const BUILD: bool>(r: &mut Reader<'_>) -> Option<Option<f64>> {
    if BUILD {
        r.number_or_null().ok()
    } else {
        Some(r.skip_number_or_null().ok()?.then_some(0.0))
    }
}

/// A record's `stack`: `tp_cycles` and the non-empty `per_thread` list,
/// reserved once for the `threads` count read before it (if any). With
/// `BUILD` false the entries are counted, not kept.
fn read_stack<const BUILD: bool>(
    r: &mut Reader<'_>,
    threads: Option<u64>,
) -> Option<(u64, Vec<ThreadBreakdown>)> {
    let (mut tp, mut per_thread) = (None, None);
    r.begin_object().ok()?;
    while let Some(key) = r.next_key().ok()? {
        match &*key {
            "tp_cycles" if tp.is_none() => tp = Some(read_u64(r)?),
            "per_thread" if per_thread.is_none() => {
                let reserve = match threads {
                    Some(n) if BUILD => n.min(RESERVED_THREADS) as usize,
                    _ => 0,
                };
                let (mut list, mut entries) = (Vec::with_capacity(reserve), 0usize);
                r.begin_array().ok()?;
                while r.next_item().ok()? {
                    let thread = read_thread::<BUILD>(r)?;
                    if BUILD {
                        list.push(thread);
                    }
                    entries += 1;
                }
                per_thread = Some((entries, list));
            }
            _ => skip(r)?,
        }
    }
    let (_, list) = per_thread.filter(|&(entries, _)| entries > 0)?;
    Some((tp?, list))
}

/// One `per_thread` entry: `{"o": [overheads], "p": .., "e": ..}`.
fn read_thread<const BUILD: bool>(r: &mut Reader<'_>) -> Option<ThreadBreakdown> {
    let (mut o, mut p, mut e) = (None, None, None);
    r.begin_object().ok()?;
    while let Some(key) = r.next_key().ok()? {
        match &*key {
            "o" if o.is_none() => o = Some(read_overheads::<BUILD>(r)?),
            "p" if p.is_none() => p = Some(stack_number::<BUILD>(r)?.unwrap_or(f64::NAN)),
            "e" if e.is_none() => e = Some(stack_number::<BUILD>(r)?.unwrap_or(f64::NAN)),
            _ => skip(r)?,
        }
    }
    Some(ThreadBreakdown {
        overheads: o?,
        positive_cycles: p?,
        estimated_single_thread_cycles: e?,
    })
}

/// The overheads of `o`: exactly one number per component, in
/// [`Component::ALL`] order.
fn read_overheads<const BUILD: bool>(r: &mut Reader<'_>) -> Option<Breakdown> {
    let mut overheads = Breakdown::zero();
    let mut n = 0;
    r.begin_array().ok()?;
    while r.next_item().ok()? {
        let c = Component::ALL.get(n)?;
        overheads.set(*c, stack_number::<BUILD>(r)??);
        n += 1;
    }
    (n == Component::ALL.len()).then_some(overheads)
}

/// A single-thread reference `(Ts, instructions)` as the value text a
/// journal or spill entry stores for it: the two counts, one space
/// apart. The one reference codec, beside [`PointSummary`]'s record
/// codec.
#[must_use]
pub fn ref_to_value((cycles, instructions): (u64, u64)) -> String {
    format!("{cycles} {instructions}")
}

/// Decodes [`ref_to_value`]'s text. `None` unless it is exactly two
/// counts (the caller recomputes the reference).
#[must_use]
pub fn ref_from_value(value: &str) -> Option<(u64, u64)> {
    let (cycles, instructions) = value.split_once(' ')?;
    Some((cycles.parse().ok()?, instructions.parse().ok()?))
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

/// Returns a copy of `profile` with its total work scaled by `factor`:
/// how every study applies its `scale` parameter. The result keeps at
/// least 16 items per phase, whatever the thread count, so a point
/// with more than 16 threads per phase (a 1,024-thread point, say) can
/// get less than one item per thread.
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

        // Counts read back only as integers in [0, 2^53]: a streamed
        // frame carries no checksum, and `1e300` must not saturate into
        // `usize::MAX` threads (a (Ŝ − S)/N of about 0).
        let record = summary.to_record();
        let count = |threads: &str| {
            let text = record.replacen("\"threads\": 2,", &format!("\"threads\": {threads},"), 1);
            assert_ne!(text, record);
            PointSummary::from_record(&text).map(|p| p.threads)
        };
        assert_eq!(count("9007199254740992"), Some(1 << 53));
        for bad in [
            "1e300",
            "18446744073709551616",
            "9007199254740994",
            "-1",
            "2.5",
        ] {
            assert_eq!(count(bad), None, "threads {bad}");
        }
    }

    #[test]
    fn scaled_profile_floors() {
        let p = find("srad", Suite::Rodinia).unwrap();
        let tiny = scaled_profile(&p, 0.000001);
        assert!(tiny.total_items >= u64::from(tiny.phases) * 16);
    }
}
