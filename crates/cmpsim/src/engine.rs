//! The event-driven simulation engine.
//!
//! The engine advances a set of software threads over `n_cores` hardware
//! cores in strict global time order, so all shared state — the memory
//! hierarchy, locks, barriers, the run queue — is mutated causally.
//! Everything is deterministic: identical configuration and op streams
//! produce identical cycle counts.
//!
//! ## Hot-path data structures
//!
//! Events flow through one binary heap ordered by `(time, seq)`
//! ([`HeapQueue`]). A thread that runs ahead of every queued event
//! continues inline without touching the queue; otherwise its `Run`
//! handler hands the continuation back to the run loop, which swaps it
//! for the next event in a single heap operation
//! ([`HeapQueue::push_pop`]).
//!
//! Lock and barrier state lives in **dense `Vec`-indexed tables**: sync
//! ids are small integers minted by the workload generator, so resolving
//! a lock is an array index instead of a hash-map probe; the engine holds
//! no hash map. A thread's next op is the one compute fusion fetched
//! ahead, else the next of its stream.
//!
//! ## Synchronization model
//!
//! Waiters on locks and barriers follow a *spin-then-yield* policy: a
//! waiter spins on its core for [`SyncConfig::spin_threshold`] cycles
//! (charged as spinning, detected by the configured spin detector), then
//! the OS schedules it out (charged as yielding until it next runs).
//! Releases hand off FIFO: still-spinning waiters resume after a cache-line
//! handoff; yielded waiters take the slow wake-up path through the
//! scheduler and wait for a free core.
//!
//! [`SyncConfig::spin_threshold`]: crate::config::SyncConfig::spin_threshold

use std::collections::VecDeque;
use std::fmt;

use memsim::{LineAddr, MemoryHierarchy, ServedBy};
use speedup_stacks::{AccountingConfig, SpeedupStack, StackError, ThreadCounters};

use crate::config::MachineConfig;
use crate::event_queue::HeapQueue;
use crate::ops::{Op, OpStream};
use crate::spin::{build_detector, SpinDetector, SpinEpisode};

/// Line-address region reserved for lock variables. Sits above every
/// workload data region but low enough that tags stay within `memsim`'s
/// compact-tag range for all supported cache geometries.
const LOCK_REGION: LineAddr = 1 << 33;
/// Line-address region reserved for barrier variables.
const BARRIER_REGION: LineAddr = (1 << 33) + (1 << 20);
/// Sync ids must stay below the lock/barrier region spacing — this also
/// bounds the dense lock/barrier tables (a rogue id would otherwise ask
/// for a gigantic allocation, and its lock line would alias a barrier
/// line).
const MAX_SYNC_IDS: u64 = 1 << 20;

type ThreadId = usize;

/// Errors terminating a simulation abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The cycle safety valve ([`MachineConfig::max_cycles`]) fired.
    CycleLimitExceeded {
        /// Cycle count at abort.
        at: u64,
    },
    /// No more events but some threads never finished (e.g. a barrier that
    /// can never fill, or a lock released by nobody).
    Deadlock {
        /// Simulation time when the event queue drained.
        time: u64,
        /// Threads that had not finished.
        unfinished: Vec<usize>,
    },
    /// A thread released a lock it does not hold, or similar misuse.
    ProtocolViolation {
        /// Offending thread.
        thread: usize,
        /// Human-readable description.
        what: &'static str,
    },
    /// A cooperative per-run deadline ([`Simulation::with_deadline`])
    /// expired. Unlike [`SimError::CycleLimitExceeded`] this is not a
    /// config limit but a per-unit budget set by the sweep's fault
    /// policy; the fault-tolerant runner treats it as a point failure.
    DeadlineExceeded {
        /// Cycle count at abort.
        at: u64,
    },
    /// The machine configuration failed [`MachineConfig::validate`].
    InvalidConfig(speedup_stacks::error::ConfigError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::CycleLimitExceeded { at } => write!(f, "cycle limit exceeded at cycle {at}"),
            SimError::Deadlock { time, unfinished } => {
                write!(
                    f,
                    "deadlock at cycle {time}: threads {unfinished:?} never finished"
                )
            }
            SimError::ProtocolViolation { thread, what } => {
                write!(f, "thread {thread} violated the sync protocol: {what}")
            }
            SimError::DeadlineExceeded { at } => {
                write!(f, "point deadline exceeded at cycle {at}")
            }
            SimError::InvalidConfig(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for SimError {}

impl From<SimError> for speedup_stacks::error::SimError {
    fn from(e: SimError) -> Self {
        match e {
            SimError::InvalidConfig(c) => speedup_stacks::error::SimError::Config(c),
            other => speedup_stacks::error::SimError::Engine {
                what: other.to_string(),
            },
        }
    }
}

/// Ground-truth statistics per thread (not available to real accounting
/// hardware; used for validation and ablations).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadTruth {
    /// Exact cycles spent spinning (every wait episode's on-core portion).
    pub true_spin_cycles: u64,
    /// Exact inter-thread LLC hits (line inserted by another core).
    pub interthread_hits_truth: u64,
    /// LLC accesses (L1 misses).
    pub llc_accesses: u64,
    /// LLC misses (DRAM accesses).
    pub llc_misses: u64,
    /// L1 misses on lines previously invalidated by coherence.
    pub coherency_misses: u64,
    /// Remote L1 copies invalidated by this thread's stores.
    pub invalidations_sent: u64,
    /// Number of completed wait episodes (lock + barrier).
    pub wait_episodes: u64,
}

/// Cumulative per-thread accounting state captured at one barrier
/// release (the boundary between two barrier-delimited regions, §4.6).
#[derive(Debug, Clone)]
pub struct RegionSnapshot {
    /// Cycle of the barrier release that ends the region.
    pub release_cycle: u64,
    /// Per-thread arrival cycle at the boundary barrier.
    pub arrivals: Vec<u64>,
    /// Cumulative counters at the release.
    pub counters: Vec<ThreadCounters>,
    /// Cumulative detected spin cycles spent in *barrier* waits.
    pub barrier_spin: Vec<f64>,
    /// Cumulative yield cycles spent in *barrier* waits.
    pub barrier_yield: Vec<f64>,
}

/// Result of a completed simulation.
#[derive(Debug)]
pub struct SimResult {
    /// Duration of the run in cycles (`Tp`: finish time of the slowest
    /// thread).
    pub tp_cycles: u64,
    /// Raw accounting counters per thread (what the paper's hardware
    /// would expose).
    pub counters: Vec<ThreadCounters>,
    /// Ground truth per thread.
    pub truth: Vec<ThreadTruth>,
    /// Barrier-release snapshots, when
    /// [`MachineConfig::record_regions`] is enabled (§4.6 region stacks).
    pub regions: Vec<RegionSnapshot>,
    /// Engine events processed during the run (throughput accounting for
    /// the perf-trajectory reports).
    pub events: u64,
}

impl SimResult {
    /// Total dynamic instruction count across threads.
    #[must_use]
    pub fn total_instructions(&self) -> u64 {
        self.counters.iter().map(|c| c.instructions).sum()
    }

    /// Builds the speedup stack for this run.
    ///
    /// # Errors
    ///
    /// Propagates [`StackError`] when the counters are inconsistent
    /// (cannot happen for engine-produced results with `tp_cycles > 0`).
    pub fn stack(&self, cfg: &AccountingConfig) -> Result<SpeedupStack, StackError> {
        SpeedupStack::from_counters(&self.counters, self.tp_cycles, cfg)
    }
}

/// Event payloads are kept at 12 bytes (u32 fields) so queue nodes stay
/// small; core/thread counts are bounded far below 2^32 and wait tokens
/// count wait episodes (bounded by `max_cycles / spin_threshold`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// Execute the next op of `thread`, which is running on `core`.
    Run { core: u32, thread: u32 },
    /// Spin-threshold expiry: if `thread` still waits (token matches),
    /// schedule it out.
    YieldDeadline { thread: u32, token: u32 },
    /// A woken thread becomes runnable.
    Wakeup { thread: u32 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TState {
    /// Running (or actively spinning) on a core.
    Running { core: usize },
    /// In the scheduler's ready queue.
    Ready,
    /// Spinning on a contended lock while occupying a core.
    SpinLock { lock: u32, core: usize },
    /// Spinning on a barrier while occupying a core.
    SpinBarrier { core: usize },
    /// Scheduled out, waiting for a lock.
    YieldLock,
    /// Scheduled out, waiting for a barrier.
    YieldBarrier,
    /// Released/granted while scheduled out; wake-up event in flight.
    WakePending,
    /// Stream exhausted.
    Finished,
}

impl TState {
    fn is_spinning(self) -> bool {
        matches!(self, TState::SpinLock { .. } | TState::SpinBarrier { .. })
    }
}

struct Thread {
    stream: Box<dyn OpStream>,
    state: TState,
    wait_token: u32,
    spin_start: u64,
    yield_start: u64,
    quantum_end: u64,
    last_core: usize,
    pending_acquire: Option<u32>,
    detector: Box<dyn SpinDetector>,
    /// Cycle at which this thread arrived at the most recent barrier.
    barrier_arrival: u64,
    /// Detected spin cycles attributable to barrier waits (cumulative).
    barrier_spin: f64,
    /// Yield cycles attributable to barrier waits (cumulative).
    barrier_yield: f64,
    /// The current scheduled-out episode started at a barrier.
    yield_from_barrier: bool,
    /// An op fetched ahead by the compute-fusion fast path that turned
    /// out not to be fusible; consumed before reading the stream again.
    carried: Option<Op>,
    c: ThreadCounters,
    truth: ThreadTruth,
}

impl fmt::Debug for Thread {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Thread")
            .field("state", &self.state)
            .finish_non_exhaustive()
    }
}

#[derive(Debug, Default)]
struct LockState {
    holder: Option<ThreadId>,
    waiters: VecDeque<ThreadId>,
}

#[derive(Debug, Default)]
struct BarrierState {
    arrived: usize,
    waiters: Vec<ThreadId>,
}

/// A configured simulation, ready to [`run`](Simulation::run).
///
/// # Examples
///
/// ```
/// use cmpsim::{MachineConfig, Op, Simulation, VecStream};
///
/// let cfg = MachineConfig::with_cores(2);
/// let streams: Vec<Box<dyn cmpsim::OpStream>> = vec![
///     Box::new(VecStream::new(vec![Op::Compute(100)])),
///     Box::new(VecStream::new(vec![Op::Compute(50)])),
/// ];
/// let result = Simulation::new(cfg, streams).run()?;
/// assert_eq!(result.tp_cycles, 100);
/// # Ok::<(), cmpsim::SimError>(())
/// ```
pub struct Simulation {
    cfg: MachineConfig,
    mem: MemoryHierarchy,
    threads: Vec<Thread>,
    /// Dense lock table indexed by lock id (ids are small integers minted
    /// by the workload generator); grown on first touch.
    locks: Vec<LockState>,
    /// Dense barrier table indexed by barrier id.
    barriers: Vec<BarrierState>,
    cores: Vec<Option<ThreadId>>,
    ready: VecDeque<ThreadId>,
    queue: HeapQueue<EventKind>,
    seq: u64,
    /// Events processed so far (exposed in [`SimResult::events`]).
    events: u64,
    finished: usize,
    regions: Vec<RegionSnapshot>,
    /// The last cycle the run may reach: `min(max_cycles, deadline)`
    /// (see [`Simulation::with_deadline`]), compared once per event.
    limit: u64,
}

impl fmt::Debug for Simulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("n_cores", &self.cores.len())
            .field("n_threads", &self.threads.len())
            .finish_non_exhaustive()
    }
}

impl Simulation {
    /// Creates a simulation of the given op streams (one per software
    /// thread) on the configured machine.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is empty or the configuration has zero cores.
    #[must_use]
    pub fn new(cfg: MachineConfig, streams: Vec<Box<dyn OpStream>>) -> Self {
        assert!(!streams.is_empty(), "at least one thread required");
        assert!(cfg.n_cores > 0, "at least one core required");
        let mem = MemoryHierarchy::new(&cfg.mem, cfg.n_cores);
        let threads = streams
            .into_iter()
            .map(|stream| Thread {
                stream,
                state: TState::Ready,
                wait_token: 0,
                spin_start: 0,
                yield_start: 0,
                quantum_end: 0,
                last_core: 0,
                pending_acquire: None,
                detector: build_detector(cfg.spin_detector),
                barrier_arrival: 0,
                barrier_spin: 0.0,
                barrier_yield: 0.0,
                yield_from_barrier: false,
                carried: None,
                c: ThreadCounters::default(),
                truth: ThreadTruth::default(),
            })
            .collect();
        Simulation {
            cfg,
            mem,
            threads,
            locks: Vec::new(),
            barriers: Vec::new(),
            cores: vec![None; cfg.n_cores],
            ready: VecDeque::new(),
            queue: HeapQueue::new(),
            seq: 0,
            events: 0,
            finished: 0,
            regions: Vec::new(),
            limit: cfg.max_cycles,
        }
    }

    /// Arms a cooperative cycle deadline: the run aborts with
    /// [`SimError::DeadlineExceeded`] once simulated time passes
    /// `deadline` (`u64::MAX` = none). Deterministic: the abort point
    /// depends only on simulated time, not wall-clock. The cycle safety
    /// valve still wins when both have passed.
    #[must_use]
    pub fn with_deadline(mut self, deadline: u64) -> Self {
        self.limit = self.cfg.max_cycles.min(deadline);
        self
    }

    /// The error of a run that passed its limit at cycle `at`: the cycle
    /// safety valve when `at` is past it, the deadline otherwise.
    #[cold]
    fn overrun(&self, at: u64) -> SimError {
        if at > self.cfg.max_cycles {
            SimError::CycleLimitExceeded { at }
        } else {
            SimError::DeadlineExceeded { at }
        }
    }

    fn push(&mut self, time: u64, kind: EventKind) {
        self.seq += 1;
        self.queue.push(time, self.seq, kind);
    }

    /// Validates a workload-supplied sync id against [`MAX_SYNC_IDS`]
    /// (dense-table bound, and the spacing of the lock/barrier line
    /// regions).
    fn check_sync_id(id: u32, thread: ThreadId) -> Result<(), SimError> {
        if u64::from(id) < MAX_SYNC_IDS {
            Ok(())
        } else {
            Err(SimError::ProtocolViolation {
                thread,
                what: "sync id out of range (must be < 2^20)",
            })
        }
    }

    /// The lock-table entry for `id` (validated), growing the dense table
    /// on first touch.
    #[inline]
    fn lock_mut(&mut self, id: u32) -> &mut LockState {
        let idx = id as usize;
        if idx >= self.locks.len() {
            self.locks.resize_with(idx + 1, LockState::default);
        }
        &mut self.locks[idx]
    }

    /// The barrier-table entry for `id` (validated), growing the dense
    /// table on first touch.
    #[inline]
    fn barrier_mut(&mut self, id: u32) -> &mut BarrierState {
        let idx = id as usize;
        if idx >= self.barriers.len() {
            self.barriers.resize_with(idx + 1, BarrierState::default);
        }
        &mut self.barriers[idx]
    }

    /// Runs the simulation to completion.
    ///
    /// # Errors
    ///
    /// [`SimError::CycleLimitExceeded`] if the safety valve fires,
    /// [`SimError::Deadlock`] if threads can never finish, and
    /// [`SimError::ProtocolViolation`] on sync misuse (releasing a lock
    /// not held, acquiring a lock twice without release).
    pub fn run(mut self) -> Result<SimResult, SimError> {
        // Initial placement: thread i on core i; the rest queue up and are
        // charged scheduled-out time from cycle 0 (this is what makes the
        // 16-threads-on-2-cores experiment of Figure 7 meaningful).
        let n_threads = self.threads.len();
        for t in 0..n_threads {
            if t < self.cores.len() {
                self.cores[t] = Some(t);
                self.threads[t].state = TState::Running { core: t };
                self.threads[t].last_core = t;
                self.threads[t].quantum_end = self.cfg.sched.quantum;
                self.push(
                    0,
                    EventKind::Run {
                        core: t as u32,
                        thread: t as u32,
                    },
                );
            } else {
                self.threads[t].state = TState::Ready;
                self.threads[t].yield_start = 0;
                self.ready.push_back(t);
            }
        }

        let mut next = self.queue.pop();
        while let Some((time, _seq, kind)) = next {
            if time > self.limit {
                return Err(self.overrun(time));
            }
            self.events += 1;
            let resume = match kind {
                EventKind::Run { core, thread } => {
                    self.on_run(core as usize, thread as usize, time)?
                }
                EventKind::YieldDeadline { thread, token } => {
                    self.on_yield_deadline(thread as usize, token, time);
                    None
                }
                EventKind::Wakeup { thread } => {
                    self.on_wakeup(thread as usize, time);
                    None
                }
            };
            if self.finished == n_threads {
                break;
            }
            next = match resume {
                // The handled thread resumes at `t`, behind at least one
                // queued event: schedule it and take the next event in
                // one heap operation.
                Some((t, kind)) => {
                    self.seq += 1;
                    Some(self.queue.push_pop(t, self.seq, kind))
                }
                None => self.queue.pop(),
            };
        }

        let unfinished: Vec<usize> = self
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.state != TState::Finished)
            .map(|(i, _)| i)
            .collect();
        let tp = self
            .threads
            .iter()
            .map(|t| t.c.active_end_cycle)
            .max()
            .unwrap_or(0);
        if !unfinished.is_empty() {
            return Err(SimError::Deadlock {
                time: tp,
                unfinished,
            });
        }

        Ok(SimResult {
            tp_cycles: tp,
            counters: self.threads.iter().map(|t| t.c).collect(),
            truth: self.threads.iter().map(|t| t.truth).collect(),
            regions: std::mem::take(&mut self.regions),
            events: self.events,
        })
    }

    // ---- event handlers -------------------------------------------------

    /// Handles a `Run` event at `now` — and then keeps running the same
    /// thread *inline* for as long as its next resumption time is
    /// strictly earlier than every queued event.
    ///
    /// Inlining `Run` at time `t` is exactly equivalent to pushing the
    /// event and immediately popping it: with `t <` every queued time it
    /// would be the queue minimum regardless of its sequence number, and
    /// no other handler can run in between to change the shared state the
    /// checks below observe (`ready`, lock holders). On a
    /// tie the event is queued so the lower-seq queued event keeps its
    /// turn. This removes the queue round-trip from the common case — a
    /// single-threaded run needs almost no queue traffic at all.
    ///
    /// Returns the thread's continuation `(time, Run)` when it must be
    /// queued; it is the last thing the handler would have pushed, so
    /// the run loop fuses that push with its next pop.
    fn on_run(
        &mut self,
        core: usize,
        thread: ThreadId,
        mut now: u64,
    ) -> Result<Option<(u64, EventKind)>, SimError> {
        loop {
            debug_assert_eq!(self.threads[thread].state, TState::Running { core });

            // Round-robin preemption when others are waiting for a core.
            if now >= self.threads[thread].quantum_end && !self.ready.is_empty() {
                self.threads[thread].state = TState::Ready;
                self.threads[thread].yield_start = now;
                self.threads[thread].yield_from_barrier = false;
                self.ready.push_back(thread);
                self.cores[core] = None;
                self.dispatch(now);
                return Ok(None);
            }

            // A thread woken to retry a lock acquisition does so before
            // consuming further ops.
            let next: Option<u64> = if let Some(id) = self.threads[thread].pending_acquire {
                self.acquire_or_wait(thread, core, id, now)?
            } else {
                let th = &mut self.threads[thread];
                let Some(op) = th.carried.take().or_else(|| th.stream.next_op()) else {
                    self.threads[thread].c.active_end_cycle = now;
                    self.threads[thread].state = TState::Finished;
                    self.finished += 1;
                    self.cores[core] = None;
                    self.dispatch(now);
                    return Ok(None);
                };
                self.execute_op(op, core, thread, now)?
            };

            // `Some(t)`: the thread resumes at `t`; `None`: it waits and
            // its continuation is already scheduled (or state-driven).
            let Some(mut t) = next else {
                return Ok(None);
            };

            // Compute fusion: a `Compute` op touches only thread-local
            // state (its own clock and instruction counter), so the
            // global event order is irrelevant to it. As long as the
            // thread stays strictly inside its quantum (the preemption
            // check at each skipped boundary is then false regardless of
            // the ready queue) and under the cycle valve (checked by
            // whoever handles the boundary), consecutive compute work is
            // absorbed into the current event. Workload items interleave
            // compute with memory accesses, so this removes roughly the
            // compute half of all queue round-trips.
            while t < self.threads[thread].quantum_end && t <= self.cfg.max_cycles {
                let th = &mut self.threads[thread];
                match th.carried.take().or_else(|| th.stream.next_op()) {
                    Some(Op::Compute(n)) => {
                        th.c.instructions += u64::from(n);
                        t += u64::from(n);
                        self.events += 1;
                    }
                    // Not fusible: hold it for the next boundary.
                    other => {
                        th.carried = other;
                        break;
                    }
                }
            }
            // Inline continuation only when strictly ahead of the queue
            // (and the thread is done if the whole machine is idle).
            if self.queue.peek_time().is_none_or(|qmin| t < qmin) {
                // The cycle safety valve and the cooperative deadline
                // apply to inline continuations exactly as they do to
                // popped events.
                if t > self.limit {
                    return Err(self.overrun(t));
                }
                self.events += 1;
                now = t;
            } else {
                return Ok(Some((
                    t,
                    EventKind::Run {
                        core: core as u32,
                        thread: thread as u32,
                    },
                )));
            }
        }
    }

    /// Executes one operation of `thread` at `now`. Returns the cycle at
    /// which the thread resumes, or `None` when it blocks (its wake-up is
    /// scheduled by the sync machinery).
    fn execute_op(
        &mut self,
        op: Op,
        core: usize,
        thread: ThreadId,
        now: u64,
    ) -> Result<Option<u64>, SimError> {
        match op {
            Op::Compute(n) => {
                self.threads[thread].c.instructions += u64::from(n);
                Ok(Some(now + u64::from(n)))
            }
            Op::Load(line) => {
                let stall = self.mem_access(core, thread, line, false, now, true);
                Ok(Some(now + 1 + stall))
            }
            Op::Store(line) => {
                self.mem_access(core, thread, line, true, now, false);
                Ok(Some(now + 1))
            }
            Op::LockAcquire(id) => {
                Self::check_sync_id(id, thread)?;
                // The atomic RMW on the lock word stalls like a load.
                let stall =
                    self.mem_access(core, thread, LOCK_REGION + u64::from(id), true, now, true);
                let t_op = now + 1 + stall;
                self.acquire_or_wait(thread, core, id, t_op)
            }
            Op::LockRelease(id) => {
                Self::check_sync_id(id, thread)?;
                self.mem_access(core, thread, LOCK_REGION + u64::from(id), true, now, false);
                let holder = self.locks.get(id as usize).and_then(|l| l.holder);
                if holder != Some(thread) {
                    return Err(SimError::ProtocolViolation {
                        thread,
                        what: "released a lock it does not hold",
                    });
                }
                self.locks[id as usize].holder = None;
                self.hand_over(id, now);
                Ok(Some(now + 1))
            }
            Op::Barrier(id) => {
                Self::check_sync_id(id, thread)?;
                self.mem_access(
                    core,
                    thread,
                    BARRIER_REGION + u64::from(id),
                    true,
                    now,
                    false,
                );
                self.threads[thread].barrier_arrival = now;
                let n_threads = self.threads.len();
                let barrier = self.barrier_mut(id);
                barrier.arrived += 1;
                if barrier.arrived == n_threads {
                    let waiters = std::mem::take(&mut barrier.waiters);
                    barrier.arrived = 0;
                    for w in waiters {
                        self.resume_waiter(w, id, now);
                    }
                    if self.cfg.record_regions {
                        // Snapshot after the resume loop so the boundary
                        // barrier's spin episodes are already accounted
                        // (and can be reclassified as imbalance).
                        self.regions.push(RegionSnapshot {
                            release_cycle: now,
                            arrivals: self.threads.iter().map(|t| t.barrier_arrival).collect(),
                            counters: self.threads.iter().map(|t| t.c).collect(),
                            barrier_spin: self.threads.iter().map(|t| t.barrier_spin).collect(),
                            barrier_yield: self.threads.iter().map(|t| t.barrier_yield).collect(),
                        });
                    }
                    Ok(Some(now + 1))
                } else {
                    barrier.waiters.push(thread);
                    let th = &mut self.threads[thread];
                    th.state = TState::SpinBarrier { core };
                    th.spin_start = now;
                    th.wait_token += 1;
                    let token = th.wait_token;
                    self.push(
                        now + self.cfg.sync.spin_threshold,
                        EventKind::YieldDeadline {
                            thread: thread as u32,
                            token,
                        },
                    );
                    Ok(None)
                }
            }
        }
    }

    /// Attempts to take `id` for `thread` (running on `core`) at `t_op`;
    /// registers as a waiter otherwise (spin-then-yield). Also used to
    /// *retry* the acquire after a wake-up — the lock may have been barged
    /// by a spinning waiter or a fresh arrival in the meantime, which is
    /// exactly what keeps contended locks from convoying behind the slow
    /// OS wake path.
    ///
    /// Returns `Some(t_op)` when the lock was taken (the thread resumes
    /// then), `None` when it registered as a waiter.
    fn acquire_or_wait(
        &mut self,
        thread: ThreadId,
        core: usize,
        id: u32,
        t_op: u64,
    ) -> Result<Option<u64>, SimError> {
        let lock = self.lock_mut(id);
        if lock.holder.is_none() {
            lock.holder = Some(thread);
            self.threads[thread].pending_acquire = None;
            Ok(Some(t_op))
        } else if lock.holder == Some(thread) {
            Err(SimError::ProtocolViolation {
                thread,
                what: "recursive lock acquisition",
            })
        } else {
            if !lock.waiters.contains(&thread) {
                lock.waiters.push_back(thread);
            }
            let th = &mut self.threads[thread];
            th.pending_acquire = Some(id);
            th.state = TState::SpinLock { lock: id, core };
            th.spin_start = t_op;
            th.wait_token += 1;
            let token = th.wait_token;
            self.push(
                t_op + self.cfg.sync.spin_threshold,
                EventKind::YieldDeadline {
                    thread: thread as u32,
                    token,
                },
            );
            Ok(None)
        }
    }

    /// Passes a just-released lock on: the first still-spinning waiter (in
    /// FIFO order) gets it directly after a cache-line handoff; otherwise
    /// the first yielded waiter is woken to retry, leaving the lock free
    /// in the interim.
    fn hand_over(&mut self, id: u32, now: u64) {
        let Some(lock) = self.locks.get_mut(id as usize) else {
            return;
        };
        if let Some(pos) = {
            let threads = &self.threads;
            lock.waiters
                .iter()
                .position(|&w| threads[w].state.is_spinning())
        } {
            let w = lock.waiters.remove(pos).expect("position is valid");
            lock.holder = Some(w);
            let TState::SpinLock { core, .. } = self.threads[w].state else {
                unreachable!("spinning lock waiter has a core");
            };
            let resume = now + self.cfg.sync.lock_handoff;
            self.account_spin(w, id, resume);
            let th = &mut self.threads[w];
            th.wait_token += 1; // cancel the pending yield deadline
            th.pending_acquire = None;
            th.state = TState::Running { core };
            self.push(
                resume,
                EventKind::Run {
                    core: core as u32,
                    thread: w as u32,
                },
            );
        } else if let Some(pos) = {
            let threads = &self.threads;
            lock.waiters
                .iter()
                .position(|&w| threads[w].state == TState::YieldLock)
        } {
            let w = lock.waiters.remove(pos).expect("position is valid");
            self.threads[w].state = TState::WakePending;
            self.push(
                now + self.cfg.sync.wake_latency,
                EventKind::Wakeup { thread: w as u32 },
            );
        }
    }

    /// Resumes a barrier waiter at broadcast time `now`: still-spinning
    /// waiters restart on their own core after a handoff; yielded waiters
    /// take the wake-up path.
    fn resume_waiter(&mut self, w: ThreadId, sync_id: u32, now: u64) {
        match self.threads[w].state {
            TState::SpinBarrier { core } => {
                let resume = now + self.cfg.sync.lock_handoff;
                self.account_spin(w, sync_id, resume);
                self.threads[w].wait_token += 1; // cancel the yield deadline
                self.threads[w].state = TState::Running { core };
                self.push(
                    resume,
                    EventKind::Run {
                        core: core as u32,
                        thread: w as u32,
                    },
                );
            }
            TState::YieldBarrier => {
                self.threads[w].state = TState::WakePending;
                self.push(
                    now + self.cfg.sync.wake_latency,
                    EventKind::Wakeup { thread: w as u32 },
                );
            }
            other => unreachable!("resume_waiter on thread in state {other:?}"),
        }
    }

    fn on_yield_deadline(&mut self, thread: ThreadId, token: u32, now: u64) {
        let th = &self.threads[thread];
        if th.wait_token != token {
            return; // already granted or resumed
        }
        let (core, next_state, sync_id) = match th.state {
            TState::SpinLock { lock, core } => (core, TState::YieldLock, lock),
            TState::SpinBarrier { core } => (core, TState::YieldBarrier, u32::MAX),
            _ => return,
        };
        self.account_spin(thread, sync_id, now);
        let th = &mut self.threads[thread];
        th.yield_from_barrier = matches!(next_state, TState::YieldBarrier);
        th.state = next_state;
        th.yield_start = now;
        self.cores[core] = None;
        self.dispatch(now);
    }

    fn on_wakeup(&mut self, thread: ThreadId, now: u64) {
        debug_assert_eq!(self.threads[thread].state, TState::WakePending);
        self.threads[thread].state = TState::Ready;
        self.ready.push_back(thread);
        self.dispatch(now);
    }

    // ---- helpers ---------------------------------------------------------

    /// Closes the current spin interval of `thread` ending at `end`:
    /// accumulates ground truth, runs the configured detector for the
    /// accounted spin cycles, and charges spin-loop instructions.
    fn account_spin(&mut self, thread: ThreadId, sync_id: u32, end: u64) {
        let th = &mut self.threads[thread];
        let cycles = end.saturating_sub(th.spin_start);
        if cycles == 0 {
            return;
        }
        th.truth.true_spin_cycles += cycles;
        th.truth.wait_episodes += 1;
        let is_barrier = matches!(th.state, TState::SpinBarrier { .. });
        let (pc, line) = if is_barrier {
            (
                2_000_000 + u64::from(sync_id),
                BARRIER_REGION + u64::from(sync_id),
            )
        } else {
            (
                1_000_000 + u64::from(sync_id),
                LOCK_REGION + u64::from(sync_id),
            )
        };
        let episode = SpinEpisode {
            pc,
            line,
            cycles,
            iter_cycles: self.cfg.sync.spin_iter_cycles,
        };
        let detected = th.detector.observe(&episode) as f64;
        th.c.spin_cycles += detected;
        if is_barrier {
            th.barrier_spin += detected;
        }
        let iters = episode.iterations();
        let instrs = iters * self.cfg.sync.spin_iter_instrs;
        th.c.instructions += instrs;
        th.c.spin_instructions += instrs;
    }

    /// Fills idle cores from the ready queue, preferring each thread's
    /// last core to limit migration. Charges scheduled-out time.
    fn dispatch(&mut self, now: u64) {
        while !self.ready.is_empty() && self.cores.iter().any(Option::is_none) {
            let thread = self.ready.pop_front().expect("non-empty");
            let preferred = self.threads[thread].last_core;
            let core = if self.cores[preferred].is_none() {
                preferred
            } else {
                self.cores
                    .iter()
                    .position(Option::is_none)
                    .expect("an idle core exists")
            };
            let start = now + self.cfg.sched.context_switch;
            let th = &mut self.threads[thread];
            let charged = (start - th.yield_start) as f64;
            th.c.yield_cycles += charged;
            if th.yield_from_barrier {
                th.barrier_yield += charged;
                th.yield_from_barrier = false;
            }
            th.state = TState::Running { core };
            th.last_core = core;
            th.quantum_end = start + self.cfg.sched.quantum;
            self.cores[core] = Some(thread);
            self.push(
                start,
                EventKind::Run {
                    core: core as u32,
                    thread: thread as u32,
                },
            );
        }
    }

    /// Performs a memory access, updates accounting counters, and returns
    /// the exposed stall in cycles (0 for plain stores).
    fn mem_access(
        &mut self,
        core: usize,
        thread: ThreadId,
        line: LineAddr,
        write: bool,
        now: u64,
        stalls: bool,
    ) -> u64 {
        let ev = self.mem.access(core, line, write, now);
        let th = &mut self.threads[thread];
        th.c.instructions += 1;

        let exposed = if stalls {
            ev.latency_beyond_l1
                .saturating_sub(self.cfg.core.overlap_window)
        } else {
            0
        };

        if ev.level != ServedBy::L1 {
            th.c.llc_accesses += 1;
            th.truth.llc_accesses += 1;
            if ev.sampled {
                th.c.sampled_llc_accesses += 1;
            }
            if ev.interthread_hit_sampled {
                th.c.sampled_interthread_hits += 1;
            }
            if ev.interthread_hit_truth {
                th.truth.interthread_hits_truth += 1;
            }
        }
        if ev.level == ServedBy::Dram {
            th.truth.llc_misses += 1;
            if stalls {
                th.c.llc_load_misses += 1;
                th.c.llc_load_miss_stall_cycles += exposed as f64;
                if ev.interthread_miss_sampled {
                    th.c.sampled_interthread_misses += 1;
                    th.c.sampled_interthread_miss_stall_cycles += exposed as f64;
                }
                // Interference is the part of the exposed stall that would
                // vanish without the waits caused by other cores: compare
                // the exposure with and without those waits.
                let waits = ev.bus_wait_other + ev.bank_wait_other + ev.page_conflict_other;
                let base_exposed = (ev.latency_beyond_l1 - waits.min(ev.latency_beyond_l1))
                    .saturating_sub(self.cfg.core.overlap_window);
                th.c.mem_interference_cycles += exposed.saturating_sub(base_exposed) as f64;
            }
        }
        if ev.coherency_miss {
            th.truth.coherency_misses += 1;
            th.c.coherency_miss_cycles += exposed as f64;
        }
        th.truth.invalidations_sent += u64::from(ev.invalidations_sent);
        exposed
    }
}

/// Convenience: build and run a simulation in one call. Validates the
/// configuration first ([`MachineConfig::validate`]).
///
/// # Errors
///
/// [`SimError::InvalidConfig`] on a bad configuration; otherwise see
/// [`Simulation::run`].
pub fn simulate(
    cfg: MachineConfig,
    streams: Vec<Box<dyn OpStream>>,
) -> Result<SimResult, SimError> {
    cfg.validate().map_err(SimError::InvalidConfig)?;
    Simulation::new(cfg, streams).run()
}
