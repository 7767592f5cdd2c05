//! The shared worker pool and fair job scheduler.
//!
//! Every connection's `submit` becomes a **job**: the study's grid
//! decomposed into per-point work units ([`experiments::decompose`]).
//! All jobs share one fixed pool of worker threads; the ready queues are
//! drained **round-robin across jobs**, so a 28-point `fig6` submission
//! cannot starve a 6-point `fig1` that arrived a moment later — each
//! scheduling decision takes one unit from the front job, then rotates
//! that job to the back.
//!
//! Units come in two kinds, with a dependency between them: a profile's
//! single-thread **reference** must complete before that profile's
//! **points** can run (a point's speedup is relative to it). That gate
//! is the sweep's own [`UnitGraph`], one per job: it queues one
//! reference per profile, parks the profile's points, releases them
//! when the reference lands and cascades a failed reference onto them
//! with the sweep's reason — so a remote `Degraded` block matches a
//! local one byte for byte. The scheduler is the graph's persistent
//! multi-job driver: everything below is what more than one job needs.
//!
//! # Coalescing
//!
//! Every unit a job *owns* (its queued references and points, parked or
//! ready) is registered in a global in-flight table keyed by the unit's
//! identity — [`GridStudy::unit_keys`], what the unit computes rather
//! than which study asked or at which grid index — the same key the
//! result cache uses. A later submit whose unit is already in that table
//! does not queue a duplicate: it registers as a **waiter** under its
//! *own* index of that unit and the single computation fans out to the
//! owner and every waiter when it lands — N concurrent cold submits that
//! overlap (the same study, `fig5` beside `fig4`, one study under two
//! `--threads` lists) compute each shared unit exactly once, and every
//! stream carries byte-identical records. Two indices of one submit with
//! the same identity (`--threads 2,2`) coalesce the same way: the first
//! is owned, the second waits on it. Fan-out deliveries are tagged
//! [`PointSource::Coalesced`], distinct from [`PointSource::Cached`]
//! (resolved from the cache at submit time).
//!
//! Cancellation respects waiters: a cancelled job's stream ends
//! immediately with `Done { cancelled: true }`, its queued units that
//! nobody waits on are dropped, but any unit with subscribers keeps
//! computing — the job lingers invisibly (a "zombie") until its last
//! waiter-backed unit resolves, so cancelling one of N coalesced
//! submits never starves the other N-1.
//!
//! # Admission control and drain
//!
//! [`SchedOptions::max_queued_units`] bounds the queued backlog:
//! a submit that would add new units to a non-empty queue past the
//! bound is refused with [`SubmitError::Busy`], carrying a
//! deterministic `retry_after_ms` hint derived from the queue depth.
//! An idle queue always admits (a job larger than the bound must not
//! wedge forever), and warm or fully coalesced submits cost zero new
//! units, so they are admitted even when the queue is full.
//! [`Scheduler::begin_drain`] flips the scheduler into drain mode: all
//! new submits are refused with [`SubmitError::Draining`] while
//! in-flight jobs run to completion ([`Scheduler::wait_idle`] blocks
//! until they have).
//!
//! Results land in the content-addressed [`crate::cache`] as they are
//! computed, under their unit key and as the value text a sweep journal
//! entry holds for the same unit ([`PointSummary::to_record`] for a
//! point, [`ref_to_value`] for a reference; a cached reference reads
//! back through [`ref_from_value`]), and cache hits at submit time are
//! streamed back instantly without touching the pool: a hit's event
//! carries the cache's own `Arc<str>` record, and a computed record is
//! one allocation shared by the cache and every stream it fans out to.
//! Each unit runs in the sweep's own fault domain
//! ([`experiments::par::fault_domain`] with the parameters' retry
//! budget) — a panicking point degrades its job, never the server. The
//! [`crate::chaos`] policy can force that panic at a chosen unit to
//! prove it.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use experiments::decompose::{GridStudy, UnitKeys};
use experiments::graph::{RefValue, Unit, UnitGraph};
use experiments::par::fault_domain;
use experiments::runner::{ref_from_value, ref_to_value, PointSummary};
use experiments::study::StudyParams;

use crate::cache::Cache;
use crate::chaos::ChaosPolicy;
use crate::proto::ServiceStatus;

/// How a streamed point was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointSource {
    /// Computed by one of this job's own scheduled units.
    Computed,
    /// Served from the result cache at submit time.
    Cached,
    /// Computed exactly once by another in-flight job and fanned out.
    Coalesced,
}

impl PointSource {
    /// The wire name used in `point` frames.
    #[must_use]
    pub fn wire_name(self) -> &'static str {
        match self {
            PointSource::Computed => "computed",
            PointSource::Cached => "cached",
            PointSource::Coalesced => "coalesced",
        }
    }

    /// Parses a wire name back (the client side of [`wire_name`]).
    ///
    /// [`wire_name`]: PointSource::wire_name
    #[must_use]
    pub fn from_wire(s: &str) -> Option<PointSource> {
        match s {
            "computed" => Some(PointSource::Computed),
            "cached" => Some(PointSource::Cached),
            "coalesced" => Some(PointSource::Coalesced),
            _ => None,
        }
    }
}

/// One streamed event of a job's lifetime, in completion order.
#[derive(Debug)]
pub enum JobEvent {
    /// A grid point completed; `record` is the exact journal-record
    /// JSON of its [`PointSummary`], shared with the result cache.
    Point {
        /// Row-major grid index.
        index: usize,
        /// How the point was satisfied.
        source: PointSource,
        /// Fault-domain attempts spent (1 = first try).
        attempts: u32,
        /// The point's `PointSummary::to_record()` JSON: the cache's own
        /// allocation for a cached or freshly computed point, so streaming
        /// it copies nothing until the session writes the frame.
        record: Arc<str>,
    },
    /// A grid point failed after exhausting its retry budget.
    Failed {
        /// Row-major grid index.
        index: usize,
        /// The sweep's label for the point (`"{benchmark} x{n}"`).
        label: String,
        /// Why the point failed (reference cascades included).
        reason: String,
        /// Fault-domain attempts spent.
        attempts: u32,
    },
    /// The job finished (all points resolved, or cancelled).
    Done {
        /// Points computed by this job's own units.
        computed: usize,
        /// Points served from the cache at submit time.
        cached: usize,
        /// Points fanned out from another job's in-flight units.
        coalesced: usize,
        /// Points that failed.
        failed: usize,
        /// The job was cancelled before completing.
        cancelled: bool,
    },
}

/// A job's event stream: the one sender of [`JobEvent`]s, shared by the
/// scheduler's jobs and the federation's. It keeps the job's tallies,
/// drops deliveries once the job is cancelled, and sends exactly one
/// [`JobEvent::Done`] — at cancel or at [`JobStream::finish`], whichever
/// comes first.
#[derive(Debug)]
pub(crate) struct JobStream {
    tx: Sender<JobEvent>,
    computed: usize,
    cached: usize,
    coalesced: usize,
    failed: usize,
    cancelled: bool,
    done_sent: bool,
}

impl JobStream {
    /// A fresh stream and the receiver its events arrive on.
    pub(crate) fn new() -> (JobStream, Receiver<JobEvent>) {
        let (tx, rx) = channel();
        let stream = JobStream {
            tx,
            computed: 0,
            cached: 0,
            coalesced: 0,
            failed: 0,
            cancelled: false,
            done_sent: false,
        };
        (stream, rx)
    }

    /// Whether the job was cancelled (its `Done` has gone).
    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancelled
    }

    /// Streams a resolved point and counts it under its source; `false`
    /// (nothing sent) once the job is cancelled.
    pub(crate) fn point(
        &mut self,
        index: usize,
        source: PointSource,
        attempts: u32,
        record: Arc<str>,
    ) -> bool {
        if self.cancelled {
            return false;
        }
        match source {
            PointSource::Computed => self.computed += 1,
            PointSource::Cached => self.cached += 1,
            PointSource::Coalesced => self.coalesced += 1,
        }
        let event = JobEvent::Point {
            index,
            source,
            attempts,
            record,
        };
        self.tx.send(event).ok();
        true
    }

    /// Streams a failed point and counts it; `false` (nothing sent) once
    /// the job is cancelled.
    pub(crate) fn failed(
        &mut self,
        index: usize,
        label: String,
        reason: impl Into<String>,
        attempts: u32,
    ) -> bool {
        if self.cancelled {
            return false;
        }
        self.failed += 1;
        let event = JobEvent::Failed {
            index,
            label,
            reason: reason.into(),
            attempts,
        };
        self.tx.send(event).ok();
        true
    }

    /// Ends the stream with the tallies (no-op if `Done` already went).
    pub(crate) fn finish(&mut self) {
        if !std::mem::replace(&mut self.done_sent, true) {
            let done = JobEvent::Done {
                computed: self.computed,
                cached: self.cached,
                coalesced: self.coalesced,
                failed: self.failed,
                cancelled: self.cancelled,
            };
            self.tx.send(done).ok();
        }
    }

    /// Cancels: `Done { cancelled: true }` goes now and later deliveries
    /// are dropped. `false` — nothing to cancel — when the stream was
    /// already cancelled or has finished.
    pub(crate) fn cancel(&mut self) -> bool {
        if self.cancelled || self.done_sent {
            return false;
        }
        self.cancelled = true;
        self.finish();
        true
    }
}

/// Why a submission was refused admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Admission control refused: the queued backlog is full.
    Busy {
        /// Units queued at the moment of refusal.
        queued: usize,
        /// The configured `max_queued_units` bound.
        limit: usize,
        /// Deterministic backoff hint derived from the queue depth.
        retry_after_ms: u64,
    },
    /// The scheduler is draining and admits no new work.
    Draining,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Busy {
                queued,
                limit,
                retry_after_ms,
            } => write!(
                f,
                "work queue full ({queued} units queued, limit {limit}); retry after {retry_after_ms} ms"
            ),
            SubmitError::Draining => f.write_str("server is draining and not admitting new work"),
        }
    }
}

/// Registry entry for one unit currently queued or executing, keyed by
/// its identity: the owning job plus subscriber jobs awaiting fan-out.
struct Inflight {
    owner: u64,
    /// `(job, index)`: the unit's index in the *waiter's* grid — a point
    /// index for point keys, a profile index for reference keys. It need
    /// not be the owner's index of the same unit.
    waiters: Vec<(u64, usize)>,
}

/// What a job was submitted with, shared with every claim of its units.
struct JobSpec {
    grid: GridStudy,
    params: StudyParams,
    /// Cache and in-flight key of every unit, built once per submit.
    keys: UnitKeys,
}

struct Job {
    spec: Arc<JobSpec>,
    /// The units this job owns: queued, parked behind a reference, or
    /// executing on a worker.
    graph: UnitGraph,
    /// Points not yet resolved (neither streamed nor failed), coalesced
    /// ones included.
    outstanding: usize,
    stream: JobStream,
}

struct SchedState {
    jobs: HashMap<u64, Job>,
    /// Round-robin order. Invariant: a job id appears here exactly once
    /// iff its graph has a unit ready to pop.
    rr: VecDeque<u64>,
    /// Units queued or executing, keyed by cache key (coalescing).
    inflight: HashMap<String, Inflight>,
    next_job: u64,
    shutdown: bool,
    draining: bool,
    jobs_total: u64,
    points_computed: u64,
    points_cached: u64,
    points_coalesced: u64,
    points_failed: u64,
}

struct Shared {
    state: Mutex<SchedState>,
    cond: Condvar,
    cache: Arc<Cache>,
    chaos: ChaosPolicy,
    /// Units claimed since startup; drives `chaos.panic_at_unit`.
    chaos_units: AtomicU64,
}

/// Tuning knobs for [`Scheduler::start`].
#[derive(Debug, Clone, Default)]
pub struct SchedOptions {
    /// Admission-control bound on queued units (0 = unbounded).
    pub max_queued_units: usize,
    /// Deterministic fault injection (default: none).
    pub chaos: ChaosPolicy,
}

/// The shared worker pool: submit jobs, stream their events, observe
/// counters, stop cleanly.
pub struct Scheduler {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    workers: usize,
    max_queued: usize,
}

fn lock(shared: &Shared) -> std::sync::MutexGuard<'_, SchedState> {
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Units queued (ready) or parked behind a reference, across all jobs.
/// Executing units are excluded: the bound is on backlog, not capacity.
fn queued_units(st: &SchedState) -> usize {
    st.jobs.values().map(|j| j.graph.queued()).sum()
}

/// Deterministic backoff hint: ~25 ms per queued unit per worker,
/// clamped to a sane window. A retrying client never waits less.
fn retry_after_hint(queued: usize, workers: usize) -> u64 {
    ((queued as u64).saturating_mul(25) / workers.max(1) as u64).clamp(25, 5_000)
}

impl Scheduler {
    /// Starts a pool of `workers` threads (at least one).
    #[must_use]
    pub fn start(workers: usize, cache: Arc<Cache>, options: SchedOptions) -> Scheduler {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(SchedState {
                jobs: HashMap::new(),
                rr: VecDeque::new(),
                inflight: HashMap::new(),
                next_job: 1,
                shutdown: false,
                draining: false,
                jobs_total: 0,
                points_computed: 0,
                points_cached: 0,
                points_coalesced: 0,
                points_failed: 0,
            }),
            cond: Condvar::new(),
            cache,
            chaos: options.chaos,
            chaos_units: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("studyd-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        Scheduler {
            shared,
            handles: Mutex::new(handles),
            workers,
            max_queued: options.max_queued_units,
        }
    }

    /// Submits a job: streams cache hits immediately, coalesces onto
    /// in-flight units owned by other jobs, and queues only what
    /// remains. Returns the job id and its event stream; the receiver
    /// always ends with exactly one [`JobEvent::Done`].
    ///
    /// # Errors
    ///
    /// [`SubmitError::Busy`] when admission control refuses the new
    /// units, [`SubmitError::Draining`] once a drain has begun.
    pub fn submit(
        &self,
        grid: GridStudy,
        params: StudyParams,
    ) -> Result<(u64, Receiver<JobEvent>), SubmitError> {
        self.submit_units(grid, params, None)
    }

    /// Like [`Scheduler::submit`], but restricted to a subset of the
    /// grid's point indices — the federation coordinator's shard
    /// primitive. `None` schedules the full grid; indices are
    /// deduplicated and scheduled in ascending order, and only the
    /// references those points need are queued. Out-of-range indices
    /// must be rejected by the caller (the session validates them
    /// against `grid.n_points()`).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Busy`] when admission control refuses the new
    /// units, [`SubmitError::Draining`] once a drain has begun.
    pub fn submit_units(
        &self,
        grid: GridStudy,
        params: StudyParams,
        units: Option<Vec<usize>>,
    ) -> Result<(u64, Receiver<JobEvent>), SubmitError> {
        let keys = grid.unit_keys(&params);
        let spec = Arc::new(JobSpec { grid, params, keys });
        let (grid, keys) = (&spec.grid, &spec.keys);
        let (mut stream, rx) = JobStream::new();
        let n = grid.n_points();
        let indices: Vec<usize> = match units {
            Some(mut subset) => {
                subset.sort_unstable();
                subset.dedup();
                subset
            }
            None => (0..n).collect(),
        };

        // Classify every point under the scheduler lock, so the
        // decision (cache hit / coalesce / own) is atomic with waiter
        // registration — two racing overlapping submits cannot both
        // decide to own the same unit. A later index of this submit with
        // an identity it already owns coalesces onto the earlier one.
        let mut st = lock(&self.shared);
        if st.draining {
            return Err(SubmitError::Draining);
        }
        let mut hits: Vec<(usize, Arc<str>)> = Vec::new();
        let mut coalesce: Vec<usize> = Vec::new();
        let mut owned: Vec<usize> = Vec::new();
        let mut owned_keys: HashSet<&str> = HashSet::new();
        for index in indices {
            let key = keys.get(Unit::Point(index));
            if let Some(record) = self.shared.cache.get(key) {
                hits.push((index, record));
            } else if st.inflight.contains_key(key) || !owned_keys.insert(key) {
                coalesce.push(index);
            } else {
                owned.push(index);
            }
        }
        // Each profile with an owned point needs its reference: cached
        // (known), in flight under another job (subscribe to it), or this
        // job's own to queue. `owned` ascends, so profiles arrive grouped;
        // no two profiles of one grid share an identity.
        let mut known_refs: Vec<(usize, RefValue)> = Vec::new();
        let mut subscribed_refs: Vec<usize> = Vec::new();
        let mut own_refs: Vec<usize> = Vec::new();
        let mut last_profile = None;
        for &index in &owned {
            let (pi, _) = grid.point(index);
            if last_profile.replace(pi) == Some(pi) {
                continue;
            }
            let rkey = keys.get(Unit::Ref(pi));
            let cached = self.shared.cache.get(rkey);
            if let Some(stv) = cached.and_then(|v| ref_from_value(&v)) {
                known_refs.push((pi, stv));
            } else if st.inflight.contains_key(rkey) {
                subscribed_refs.push(pi);
            } else {
                own_refs.push(pi);
            }
        }
        let new_units = owned.len() + own_refs.len();

        // Admission control (see the module docs for the idle-queue and
        // zero-new-unit exemptions).
        if self.max_queued > 0 && new_units > 0 {
            let queued = queued_units(&st);
            if queued > 0 && queued + new_units > self.max_queued {
                return Err(SubmitError::Busy {
                    queued,
                    limit: self.max_queued,
                    retry_after_ms: retry_after_hint(queued, self.workers),
                });
            }
        }

        let id = st.next_job;
        st.next_job += 1;
        st.jobs_total += 1;
        st.points_cached += hits.len() as u64;
        for (index, record) in hits {
            stream.point(index, PointSource::Cached, 1, record);
        }
        let outstanding = coalesce.len() + owned.len();
        if outstanding == 0 {
            // Fully warm: the job never touches the pool.
            stream.finish();
            return Ok((id, rx));
        }
        // Own units enter the table first: a coalesced index may wait on
        // one of them.
        let own_refs = own_refs.iter().map(|&pi| Unit::Ref(pi));
        for unit in own_refs.chain(owned.iter().map(|&index| Unit::Point(index))) {
            let waiters = Vec::new();
            let entry = Inflight { owner: id, waiters };
            st.inflight.insert(keys.get(unit).to_string(), entry);
        }
        let mut wait_on = |unit: Unit, waiter: usize| {
            st.inflight
                .get_mut(keys.get(unit))
                .expect("classified as in-flight under this lock")
                .waiters
                .push((id, waiter));
        };
        let mut graph = grid.graph();
        for &index in &coalesce {
            wait_on(Unit::Point(index), index);
        }
        for &pi in &subscribed_refs {
            wait_on(Unit::Ref(pi), pi);
            graph.ref_external(pi);
        }
        for (pi, stv) in known_refs {
            graph.ref_known(pi, stv);
        }
        for index in owned {
            graph.add_point(index);
        }
        let has_ready = graph.has_ready();
        st.jobs.insert(
            id,
            Job {
                spec: Arc::clone(&spec),
                graph,
                outstanding,
                stream,
            },
        );
        if has_ready {
            st.rr.push_back(id);
        }
        drop(st);
        self.shared.cond.notify_all();
        Ok((id, rx))
    }

    /// Cancels a job. The stream ends immediately with
    /// `Done { cancelled: true }`; queued units nobody else waits on
    /// are dropped; units with coalesced subscribers (and units already
    /// executing) still complete — their results land in the cache and
    /// fan out to the waiters, never to the cancelled stream. Returns
    /// `false` if the job is unknown or already finished.
    pub fn cancel(&self, id: u64) -> bool {
        let mut st = lock(&self.shared);
        // The job leaves the table while its units are sorted out, so
        // its graph and the in-flight table can be edited side by side.
        let Some(mut job) = st.jobs.remove(&id) else {
            return false;
        };
        if !job.stream.cancel() {
            st.jobs.insert(id, job);
            return true; // idempotent: already a zombie
        }
        // Queued points (ready or parked) nobody else waits on are
        // dropped; the rest keep computing for their waiters. A reference
        // that has not started and gates no surviving point goes with
        // them: an owned one stays queued only while other jobs subscribe
        // to it, a subscribed one is unsubscribed. (Owned and executing:
        // `apply_ref` finds the trimmed graph.) The job's own duplicate
        // indices waiting on one of its queued points go with that point.
        let mut dropped_points = 0usize;
        let keys = &job.spec.keys;
        job.graph.retain(|unit| {
            let key = keys.get(unit);
            let keep = match (unit, st.inflight.get_mut(key)) {
                (Unit::Ref(_), Some(e)) if e.owner != id => {
                    e.waiters.retain(|&(j, _)| j != id);
                    return false;
                }
                (_, Some(e)) => e.waiters.iter().any(|&(j, _)| j != id),
                (_, None) => false,
            };
            if !keep {
                let own_waits = st.inflight.remove(key).map_or(0, |e| e.waiters.len());
                if let Unit::Point(_) = unit {
                    dropped_points += 1 + own_waits;
                }
            }
            keep
        });
        job.outstanding -= dropped_points;
        st.rr.retain(|&j| j != id);
        if job.graph.has_ready() {
            st.rr.push_back(id);
        }
        st.jobs.insert(id, job);
        finish_if_done(&mut st, id);
        drop(st);
        self.shared.cond.notify_all();
        true
    }

    /// Stops admitting new work. In-flight jobs run to completion;
    /// every subsequent [`Scheduler::submit`] returns
    /// [`SubmitError::Draining`].
    pub fn begin_drain(&self) {
        lock(&self.shared).draining = true;
        self.shared.cond.notify_all();
    }

    /// Blocks until no job remains (drain-mode shutdown barrier).
    pub fn wait_idle(&self) {
        let mut st = lock(&self.shared);
        while !st.jobs.is_empty() {
            st = self
                .shared
                .cond
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Snapshot of the pool's and its cache's counters: the `status`
    /// reply.
    #[must_use]
    pub fn status(&self) -> ServiceStatus {
        let c = self.shared.cache.stats();
        let st = lock(&self.shared);
        ServiceStatus {
            workers: self.workers as u64,
            jobs_active: st.jobs.len() as u64,
            jobs_total: st.jobs_total,
            queued_units: queued_units(&st) as u64,
            max_queued_units: self.max_queued as u64,
            draining: st.draining,
            points_computed: st.points_computed,
            points_cached: st.points_cached,
            points_coalesced: st.points_coalesced,
            points_failed: st.points_failed,
            cache_hits: c.hits,
            cache_misses: c.misses,
            cache_insertions: c.insertions,
            cache_evictions: c.evictions,
            cache_entries: c.entries as u64,
            cache_bytes: c.bytes as u64,
            cache_budget: c.budget as u64,
            cache_loaded: c.loaded,
            cache_quarantined: c.quarantined,
            cache_spilled: c.spilled,
        }
    }

    /// The result cache this pool writes through.
    #[must_use]
    pub fn cache(&self) -> &Cache {
        &self.shared.cache
    }

    /// Stops the pool: workers finish their current unit and exit.
    /// Queued units are abandoned (their jobs' streams simply end
    /// without a `Done`; sessions are torn down with the server).
    pub fn stop(&self) {
        lock(&self.shared).shutdown = true;
        self.shared.cond.notify_all();
        let handles: Vec<_> = self
            .handles
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for h in handles {
            h.join().ok();
        }
    }
}

/// What a worker needs to execute one unit outside the lock.
struct Claim {
    id: u64,
    unit: Unit,
    /// A point's reference values (empty for a reference unit).
    inputs: Vec<RefValue>,
    spec: Arc<JobSpec>,
}

fn worker_loop(shared: &Shared) {
    loop {
        let claim = {
            let mut st = lock(shared);
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(id) = st.rr.pop_front() {
                    let job = st.jobs.get_mut(&id).expect("rr entries are live jobs");
                    let unit = job.graph.pop().expect("rr entries have ready work");
                    let claim = Claim {
                        id,
                        unit,
                        inputs: job.graph.inputs(unit).to_vec(),
                        spec: Arc::clone(&job.spec),
                    };
                    if job.graph.has_ready() {
                        st.rr.push_back(id);
                    }
                    break claim;
                }
                st = shared.cond.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };

        let JobSpec { grid, params, keys } = &*claim.spec;
        let retries = params.faults.retries;
        let unit_no = shared.chaos_units.fetch_add(1, Ordering::Relaxed);
        let chaos_panic = shared.chaos.panic_at_unit == Some(unit_no);
        let chaos = || assert!(!chaos_panic, "chaos: injected panic at unit {unit_no}");
        let (id, key) = (claim.id, keys.get(claim.unit));
        match claim.unit {
            Unit::Ref(pi) => {
                let (outcome, attempts) = fault_domain(retries, || {
                    chaos();
                    grid.compute_reference(params, pi)
                });
                if let Ok(st) = outcome {
                    shared.cache.put(key, &ref_to_value(st));
                }
                apply_ref(&mut lock(shared), id, key, pi, outcome, attempts);
            }
            Unit::Point(index) => {
                let (outcome, attempts) = fault_domain(retries, || {
                    chaos();
                    let st = claim.inputs[0];
                    let point = grid.compute_point(params, index, st);
                    point.map(|s| Arc::<str>::from(s.to_record()))
                });
                if let Ok(record) = &outcome {
                    shared.cache.put_shared(key, Arc::clone(record));
                }
                apply_point(&mut lock(shared), id, key, index, outcome, attempts);
            }
        }
        shared.cond.notify_all();
    }
}

/// Resolves a completed reference (`key`; profile `pi` of its owner
/// `id`) for the owner and every subscribed job. A subscriber may be
/// another study or another `threads` list, so each is released with its
/// **own** profile index of the reference: its graph releases its parked
/// points on success and cascades the sweep's exact failure reason onto
/// them otherwise — and onto their coalesced waiters, found under that
/// job's own keys.
fn apply_ref(
    st: &mut SchedState,
    id: u64,
    key: &str,
    pi: usize,
    outcome: Result<RefValue, String>,
    attempts: u32,
) {
    let ref_waiters = st.inflight.remove(key).map_or_else(Vec::new, |e| e.waiters);
    for (j, pi) in std::iter::once((id, pi)).chain(ref_waiters) {
        let Some(job) = st.jobs.get_mut(&j) else {
            continue;
        };
        let was_ready = job.graph.has_ready();
        let cascades = match &outcome {
            Ok(stv) => job.graph.ref_ok(pi, *stv),
            Err(reason) => job.graph.ref_failed(pi, reason, attempts),
        };
        if !was_ready && job.graph.has_ready() {
            st.rr.push_back(j);
        }
        let spec = Arc::clone(&job.spec);
        for c in cascades {
            let point_waiters = st
                .inflight
                .remove(spec.keys.get(Unit::Point(c.point)))
                .map_or_else(Vec::new, |e| e.waiters);
            deliver_failed(st, j, c.point, &c.reason, c.attempts);
            for (wj, windex) in point_waiters {
                deliver_failed(st, wj, windex, &c.reason, c.attempts);
                finish_if_done(st, wj);
            }
        }
        finish_if_done(st, j);
    }
}

/// Resolves a completed point for its owner and fans it out to every
/// coalesced waiter.
fn apply_point(
    st: &mut SchedState,
    id: u64,
    key: &str,
    index: usize,
    outcome: Result<Arc<str>, String>,
    attempts: u32,
) {
    if let Some(job) = st.jobs.get_mut(&id) {
        job.graph.point_done(index);
    }
    let waiters = st.inflight.remove(key).map_or_else(Vec::new, |e| e.waiters);
    match outcome {
        Ok(record) => {
            // Count the computation even if the owner was cancelled:
            // the work happened and the result is cached.
            st.points_computed += 1;
            deliver_point(st, id, index, PointSource::Computed, attempts, &record);
            for (wj, windex) in waiters {
                deliver_point(st, wj, windex, PointSource::Coalesced, attempts, &record);
                finish_if_done(st, wj);
            }
        }
        Err(reason) => {
            deliver_failed(st, id, index, &reason, attempts);
            for (wj, windex) in waiters {
                deliver_failed(st, wj, windex, &reason, attempts);
                finish_if_done(st, wj);
            }
        }
    }
    finish_if_done(st, id);
}

/// Streams one resolved point to a job (suppressed after cancel).
fn deliver_point(
    st: &mut SchedState,
    id: u64,
    index: usize,
    source: PointSource,
    attempts: u32,
    record: &Arc<str>,
) {
    let Some(job) = st.jobs.get_mut(&id) else {
        return;
    };
    job.outstanding -= 1;
    let record = Arc::clone(record);
    if job.stream.point(index, source, attempts, record) && source == PointSource::Coalesced {
        st.points_coalesced += 1;
    }
}

/// Streams one failed point to a job (suppressed after cancel).
fn deliver_failed(st: &mut SchedState, id: u64, index: usize, reason: &str, attempts: u32) {
    let Some(job) = st.jobs.get_mut(&id) else {
        return;
    };
    job.outstanding -= 1;
    let label = job.spec.grid.label(index);
    if job.stream.failed(index, label, reason, attempts) {
        st.points_failed += 1;
    }
}

fn finish_if_done(st: &mut SchedState, id: u64) {
    // A cancelled job can have no point left and still owe other jobs a
    // queued reference they subscribed to: it lingers until that ran.
    let done = st
        .jobs
        .get(&id)
        .is_some_and(|j| j.outstanding == 0 && j.graph.running() == 0 && !j.graph.has_ready());
    if done {
        let mut job = st.jobs.remove(&id).expect("checked above");
        st.rr.retain(|&j| j != id);
        job.stream.finish();
    }
}

/// Decodes a streamed record into a [`PointSummary`]
/// ([`PointSummary::from_record`]: no JSON tree built).
#[must_use]
pub fn record_to_summary(record: &str) -> Option<PointSummary> {
    PointSummary::from_record(record)
}

/// Everything a fully drained job stream contained, in arrival order.
///
/// This is the one shared stream collector: the session uses it to
/// drain a job whose peer vanished, and the unit/integration suites
/// use it to assert on terminal counters.
#[derive(Debug, Default)]
pub struct DrainedJob {
    /// `(index, source, record)` for each streamed point.
    pub points: Vec<(usize, PointSource, Arc<str>)>,
    /// `(index, reason)` for each failed point.
    pub failures: Vec<(usize, String)>,
    /// Points computed by the job's own units (from `Done`).
    pub computed: usize,
    /// Points served from the cache (from `Done`).
    pub cached: usize,
    /// Points fanned out from coalesced units (from `Done`).
    pub coalesced: usize,
    /// Points failed (from `Done`).
    pub failed: usize,
    /// The job was cancelled (from `Done`).
    pub cancelled: bool,
}

/// Collects a job's event stream up to its terminal [`JobEvent::Done`].
/// Returns `None` if the stream ended without one (scheduler stopped).
#[must_use]
pub fn drain_events(rx: &Receiver<JobEvent>) -> Option<DrainedJob> {
    let mut out = DrainedJob::default();
    loop {
        match rx.recv() {
            Ok(JobEvent::Point {
                index,
                source,
                record,
                ..
            }) => out.points.push((index, source, record)),
            Ok(JobEvent::Failed { index, reason, .. }) => out.failures.push((index, reason)),
            Ok(JobEvent::Done {
                computed,
                cached,
                coalesced,
                failed,
                cancelled,
            }) => {
                out.computed = computed;
                out.cached = cached;
                out.coalesced = coalesced;
                out.failed = failed;
                out.cancelled = cancelled;
                return Some(out);
            }
            Err(_) => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(study: &str, params: &StudyParams) -> GridStudy {
        experiments::decompose::decompose(study, params).expect("grid study")
    }

    fn small_params() -> StudyParams {
        StudyParams {
            scale: 0.01,
            threads: Some(vec![2]),
            ..StudyParams::default()
        }
    }

    fn sorted_records(d: &DrainedJob) -> Vec<(usize, Arc<str>)> {
        let mut v: Vec<_> = d.points.iter().map(|(i, _, r)| (*i, r.clone())).collect();
        v.sort();
        v
    }

    /// Every index of `g` resolved exactly once, and the streamed records
    /// of a clean run assemble into the bytes of a local run.
    fn assert_resolves_like_local(g: &GridStudy, params: &StudyParams, d: &DrainedJob) {
        let mut resolved: Vec<usize> = d.points.iter().map(|(i, _, _)| *i).collect();
        resolved.extend(d.failures.iter().map(|(i, _)| *i));
        resolved.sort_unstable();
        let all: Vec<usize> = (0..g.n_points()).collect();
        assert_eq!(resolved, all, "{}: each index exactly once", g.study());
        assert_eq!(d.computed + d.cached + d.coalesced, g.n_points());
        let mut fold = experiments::decompose::GridFold::new(g.n_points());
        for (index, _, record) in &d.points {
            fold.point(*index, record_to_summary(record).expect("record"), 1);
        }
        let served = fold.finish(g, params);
        let study = experiments::study::find_study(g.study()).expect("registry study");
        let local = study.run(params).expect("local run");
        assert_eq!(served.to_text(), local.to_text(), "{} text", g.study());
        assert_eq!(served.to_json(), local.to_json(), "{} json", g.study());
        assert_eq!(served.to_csv(), local.to_csv(), "{} csv", g.study());
    }

    /// Pins a lone worker on an unrelated job, so whatever is submitted
    /// next is provably still queued when the following call lands.
    fn pin_worker(sched: &Scheduler) -> Receiver<JobEvent> {
        let blocker = StudyParams {
            scale: 0.015,
            ..small_params()
        };
        let (_, rx) = sched
            .submit(grid("fig1", &blocker), blocker)
            .expect("admitted");
        rx
    }

    fn inflight_len(sched: &Scheduler) -> usize {
        lock(&sched.shared).inflight.len()
    }

    /// `fig4 --threads 2` and `fig5 --threads 2,4`, both queued behind a
    /// pinned worker: fig5's x2 points coalesce onto fig4's, its x4 points
    /// are its own and park behind fig4's in-flight references — under
    /// fig5's profile indices 0..3, not fig4's.
    fn fig4_then_fig5(deadline_cycles: Option<u64>) -> (Scheduler, [(GridStudy, StudyParams); 2]) {
        let cache = Arc::new(Cache::new(64 * 1024 * 1024));
        let sched = Scheduler::start(1, cache, SchedOptions::default());
        let mut p4 = small_params();
        p4.faults.deadline_cycles = deadline_cycles;
        p4.faults.retries = 1;
        let p5 = StudyParams {
            threads: Some(vec![2, 4]),
            ..small_params()
        };
        let jobs = [(grid("fig4", &p4), p4), (grid("fig5", &p5), p5)];
        (sched, jobs)
    }

    fn cholesky_row(g: &GridStudy) -> usize {
        let is_cholesky = |p: &workloads::WorkloadProfile| p.name == "cholesky";
        g.profiles().iter().position(is_cholesky).expect("cholesky")
    }

    #[test]
    fn overlapping_studies_share_references_under_each_jobs_own_indices() {
        let (sched, [(g4, p4), (g5, p5)]) = fig4_then_fig5(None);
        assert_ne!(cholesky_row(&g4), cholesky_row(&g5), "indices differ");
        let rx_blocker = pin_worker(&sched);
        let (_, rx4) = sched.submit(g4.clone(), p4.clone()).expect("admitted");
        let (_, rx5) = sched.submit(g5.clone(), p5.clone()).expect("admitted");
        let _ = drain_events(&rx_blocker);
        let d4 = drain_events(&rx4).expect("done");
        let d5 = drain_events(&rx5).expect("done");
        // fig4 owns all of its grid; fig5 computes only its x4 column and
        // takes the x2 column from fig4's units.
        assert_eq!((d4.computed, d4.coalesced, d4.failed), (28, 0, 0));
        assert_eq!((d5.computed, d5.coalesced, d5.failed), (3, 3, 0));
        assert_resolves_like_local(&g4, &p4, &d4);
        assert_resolves_like_local(&g5, &p5, &d5);
        // Each identity computed once, the blocker's three points and
        // three references aside: fig5 added no reference of its own.
        assert_eq!(sched.status().points_computed, 3 + 28 + 3);
        assert_eq!(sched.cache().stats().entries, 6 + 28 + 28 + 3);
        assert_eq!(inflight_len(&sched), 0);
        sched.stop();
    }

    #[test]
    fn failed_shared_reference_cascades_onto_the_subscribers_own_indices() {
        let (sched, [(g4, p4), (g5, p5)]) = fig4_then_fig5(Some(10));
        let rx_blocker = pin_worker(&sched);
        // Only cholesky's row of fig4 runs under the doomed deadline.
        let row4 = cholesky_row(&g4);
        let (_, rx4) = sched
            .submit_units(g4, p4, Some(vec![row4]))
            .expect("admitted");
        let (_, rx5) = sched.submit(g5.clone(), p5).expect("admitted");
        let _ = drain_events(&rx_blocker);
        let d4 = drain_events(&rx4).expect("done");
        assert_eq!((d4.computed, d4.failed), (0, 1));

        // fig5: cholesky x2 fails as a waiter of fig4's point, cholesky x4
        // through fig5's own graph; both carry the owner's reason and
        // attempts (fig5 itself would have spent one). The other two
        // profiles are fig5's own and complete.
        let row5 = cholesky_row(&g5);
        let mut failed = Vec::new();
        let mut completed = Vec::new();
        loop {
            match rx5.recv().expect("stream ends with Done") {
                JobEvent::Failed {
                    index,
                    label,
                    reason,
                    attempts,
                } => {
                    assert_eq!(label, g5.label(index));
                    assert_eq!(reason, d4.failures[0].1, "the owner's reason");
                    assert!(reason.starts_with("single-thread reference failed: "));
                    assert_eq!(attempts, 2, "the owner's attempts");
                    failed.push(index);
                }
                JobEvent::Point { index, .. } => completed.push(index),
                JobEvent::Done {
                    computed, failed, ..
                } => {
                    assert_eq!((computed, failed), (4, 2));
                    break;
                }
            }
        }
        failed.sort_unstable();
        completed.sort_unstable();
        assert_eq!(failed, [2 * row5, 2 * row5 + 1]);
        let rest: Vec<usize> = (0..6).filter(|i| i / 2 != row5).collect();
        assert_eq!(completed, rest);
        assert_eq!(inflight_len(&sched), 0);
        sched.stop();
    }

    fn duplicate_params(scale: f64) -> StudyParams {
        StudyParams {
            scale,
            threads: Some(vec![2, 2]),
            ..StudyParams::default()
        }
    }

    #[test]
    fn duplicate_identities_in_one_submit_resolve_each_index_once() {
        let cache = Arc::new(Cache::new(64 * 1024 * 1024));
        let sched = Scheduler::start(1, cache, SchedOptions::default());
        let params = duplicate_params(0.01);
        let g = grid("fig5", &params);
        assert_eq!(g.n_points(), 6);
        // A subset naming both copies of one identity.
        let (_, rx) = sched
            .submit_units(g.clone(), params.clone(), Some(vec![2, 3]))
            .expect("admitted");
        let d = drain_events(&rx).expect("done");
        assert_eq!((d.computed, d.coalesced, d.failed), (1, 1, 0));
        let got = sorted_records(&d);
        assert_eq!((got[0].0, got[1].0), (2, 3));
        assert_eq!(got[0].1, got[1].1, "one computation, two indices");
        // The full grid: the second copy of each identity waits on the
        // first, or is a cache hit beside it.
        let (_, rx) = sched.submit(g.clone(), params.clone()).expect("admitted");
        let d = drain_events(&rx).expect("done");
        assert_eq!((d.computed, d.cached, d.coalesced), (2, 2, 2));
        assert_resolves_like_local(&g, &params, &d);
        assert_eq!(sched.status().points_computed, 3);
        assert_eq!(inflight_len(&sched), 0);
        sched.stop();
    }

    #[test]
    fn cancelling_a_job_with_duplicate_identities_settles_clean() {
        let cache = Arc::new(Cache::new(64 * 1024 * 1024));
        let sched = Scheduler::start(1, cache, SchedOptions::default());
        let params = duplicate_params(0.02);
        let g = grid("fig5", &params);

        // Cancelled while wholly queued: the job, its parked points, the
        // duplicates waiting on them and its references all go at once.
        let rx_blocker = pin_worker(&sched);
        let (id, rx) = sched.submit(g.clone(), params.clone()).expect("admitted");
        assert!(sched.cancel(id), "a live job cancels");
        {
            let st = lock(&sched.shared);
            assert!(!st.jobs.contains_key(&id), "nothing left to linger for");
            let keys = g.unit_keys(&params);
            let units = (0..3).map(Unit::Ref).chain((0..6).map(Unit::Point));
            for unit in units {
                assert!(!st.inflight.contains_key(keys.get(unit)), "{unit:?}");
            }
        }
        assert!(!sched.cancel(id), "a second cancel finds nothing to do");
        let d = drain_events(&rx).expect("done");
        assert!(d.cancelled && d.points.is_empty());
        let _ = drain_events(&rx_blocker);

        // Cancelled mid-flight, after its first point streamed: whatever
        // the lone worker was running lands, the rest is dropped.
        let (id, rx) = sched.submit(g, params).expect("admitted");
        assert!(matches!(rx.recv(), Ok(JobEvent::Point { .. })));
        sched.cancel(id);
        drain_events(&rx).expect("done");
        sched.wait_idle();
        assert_eq!(sched.status().queued_units, 0);
        assert_eq!(inflight_len(&sched), 0);
        sched.stop();
    }

    #[test]
    fn cold_then_warm_submission() {
        let cache = Arc::new(Cache::new(64 * 1024 * 1024));
        let sched = Scheduler::start(2, Arc::clone(&cache), SchedOptions::default());
        let params = small_params();
        let g = grid("fig1", &params);
        let n = g.n_points();

        let (_, rx) = sched.submit(g.clone(), params.clone()).expect("admitted");
        let cold = drain_events(&rx).expect("done");
        assert_eq!(
            (cold.computed, cold.cached, cold.failed, cold.cancelled),
            (n, 0, 0, false)
        );
        assert_eq!(cold.points.len(), n);

        let (_, rx) = sched.submit(g, params).expect("admitted");
        let warm = drain_events(&rx).expect("done");
        assert_eq!((warm.computed, warm.cached, warm.failed), (0, n, 0));
        // Warm results are byte-identical records, served in index order.
        let cold_sorted = sorted_records(&cold);
        for (i, (index, source, record)) in warm.points.iter().enumerate() {
            assert_eq!(*index, i);
            assert_eq!(*source, PointSource::Cached);
            assert_eq!(record, &cold_sorted[i].1, "point {i} record identical");
        }

        let s = sched.status();
        assert_eq!(s.points_computed, n as u64);
        assert_eq!(s.points_cached, n as u64);
        assert_eq!(s.jobs_total, 2);
        assert_eq!(s.jobs_active, 0);
        sched.stop();
    }

    #[test]
    fn distinct_params_do_not_share_cache_entries() {
        let cache = Arc::new(Cache::new(64 * 1024 * 1024));
        let sched = Scheduler::start(1, Arc::clone(&cache), SchedOptions::default());
        let a = small_params();
        let b = StudyParams {
            scale: 0.02,
            ..small_params()
        };
        let (_, rx) = sched.submit(grid("fig1", &a), a.clone()).expect("admitted");
        drain_events(&rx).expect("done");
        let (_, rx) = sched.submit(grid("fig1", &b), b.clone()).expect("admitted");
        let d = drain_events(&rx).expect("done");
        assert_eq!(d.cached, 0, "different scale bits must miss");
        assert!(d.computed > 0);
        sched.stop();
    }

    #[test]
    fn subset_submit_schedules_only_requested_units() {
        let cache = Arc::new(Cache::new(64 * 1024 * 1024));
        let sched = Scheduler::start(2, Arc::clone(&cache), SchedOptions::default());
        let params = small_params();
        let g = grid("fig1", &params);
        let n = g.n_points();
        assert!(n >= 2);
        // Duplicates are deduplicated; only the subset is scheduled.
        let (_, rx) = sched
            .submit_units(g.clone(), params.clone(), Some(vec![n - 1, 0, n - 1]))
            .expect("admitted");
        let d = drain_events(&rx).expect("done");
        let mut got: Vec<usize> = d.points.iter().map(|(i, _, _)| *i).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, n - 1]);
        assert_eq!((d.computed, d.failed, d.cancelled), (2, 0, false));
        assert_eq!(
            sched.status().points_computed,
            2,
            "unrequested units never computed"
        );
        // The complementary subset completes the grid without
        // recomputing what the first shard already cached.
        let rest: Vec<usize> = (1..n - 1).collect();
        let (_, rx) = sched
            .submit_units(g, params, Some(rest.clone()))
            .expect("admitted");
        let d2 = drain_events(&rx).expect("done");
        assert_eq!(d2.computed + d2.cached, rest.len());
        sched.stop();
    }

    #[test]
    fn cancel_unknown_job_is_false() {
        let sched = Scheduler::start(1, Arc::new(Cache::new(1024)), SchedOptions::default());
        assert!(!sched.cancel(42));
        sched.stop();
    }

    #[test]
    fn streamed_records_parse_back() {
        let cache = Arc::new(Cache::new(64 * 1024 * 1024));
        let sched = Scheduler::start(2, cache, SchedOptions::default());
        let params = small_params();
        let g = grid("fig5", &params);
        let (_, rx) = sched.submit(g, params).expect("admitted");
        let d = drain_events(&rx).expect("done");
        for (_, _, record) in &d.points {
            assert!(record_to_summary(record).is_some(), "record round-trips");
        }
        sched.stop();
    }

    #[test]
    fn identical_concurrent_submits_coalesce_each_unit_once() {
        let cache = Arc::new(Cache::new(64 * 1024 * 1024));
        let sched = Scheduler::start(1, Arc::clone(&cache), SchedOptions::default());
        let params = small_params();
        let g = grid("fig1", &params);
        let n = g.n_points();
        let (_, rx_owner) = sched.submit(g.clone(), params.clone()).expect("admitted");
        let followers: Vec<_> = (0..3)
            .map(|_| sched.submit(g.clone(), params.clone()).expect("admitted").1)
            .collect();
        let owner = drain_events(&rx_owner).expect("done");
        assert_eq!(owner.points.len(), n);
        assert_eq!(owner.failed, 0);
        let owner_records = sorted_records(&owner);
        for rx in &followers {
            let f = drain_events(rx).expect("done");
            assert_eq!(f.computed, 0, "followers never compute");
            assert_eq!(f.cached + f.coalesced, n);
            assert_eq!(f.failed, 0);
            assert_eq!(sorted_records(&f), owner_records, "bit-identical fan-out");
        }
        let s = sched.status();
        assert_eq!(
            s.points_computed, n as u64,
            "each unit computed exactly once"
        );
        sched.stop();
    }

    #[test]
    fn cancelled_owner_keeps_streaming_to_coalesced_subscribers() {
        let cache = Arc::new(Cache::new(64 * 1024 * 1024));
        let sched = Scheduler::start(1, Arc::clone(&cache), SchedOptions::default());
        // Pin the lone worker on an unrelated job first, so the owner
        // below is provably still live when the cancel lands — no race
        // against a fast grid finishing early.
        let rx_blocker = pin_worker(&sched);
        let params = small_params();
        let g = grid("fig1", &params);
        let n = g.n_points();
        let (id_owner, rx_owner) = sched.submit(g.clone(), params.clone()).expect("admitted");
        let (_, rx_sub) = sched.submit(g, params).expect("admitted");
        assert!(sched.cancel(id_owner), "live job cancels");
        let _ = drain_events(&rx_blocker);
        let owner = drain_events(&rx_owner).expect("done");
        assert!(owner.cancelled);
        // The subscriber still receives every point, byte for byte.
        let sub = drain_events(&rx_sub).expect("done");
        assert_eq!(sub.computed, 0);
        assert_eq!(sub.failed, 0);
        assert_eq!(sub.cached + sub.coalesced, n);
        for (_, _, record) in &sub.points {
            assert!(record_to_summary(record).is_some());
        }
        // By the time the subscriber's Done has been observed, the
        // cancelled zombie has been reaped under the same lock.
        assert!(!sched.cancel(id_owner), "zombie reaped after fan-out");
        sched.stop();
    }

    #[test]
    fn cancelled_owner_still_computes_a_reference_another_job_subscribed_to() {
        let cache = Arc::new(Cache::new(64 * 1024 * 1024));
        let sched = Scheduler::start(1, Arc::clone(&cache), SchedOptions::default());
        // Pin the lone worker so both jobs below are still queued when
        // the cancel lands.
        let rx_blocker = pin_worker(&sched);
        let params = StudyParams {
            threads: Some(vec![2, 4]),
            ..small_params()
        };
        let g = grid("fig1", &params);
        // Points 0 and 1 share profile 0. The first job owns point 0 and
        // the profile's reference; the second owns point 1 and only
        // subscribes to that reference.
        let (id_owner, rx_owner) = sched
            .submit_units(g.clone(), params.clone(), Some(vec![0]))
            .expect("admitted");
        let (_, rx_sub) = sched
            .submit_units(g, params, Some(vec![1]))
            .expect("admitted");
        assert!(sched.cancel(id_owner), "live job cancels");
        let _ = drain_events(&rx_blocker);
        assert!(drain_events(&rx_owner).expect("done").cancelled);
        // The cancelled job has no point left, yet lingers until the
        // reference the subscriber parked on has run.
        let sub = drain_events(&rx_sub).expect("done");
        assert_eq!((sub.computed, sub.failed, sub.cancelled), (1, 0, false));
        assert!(!sched.cancel(id_owner), "zombie reaped after the reference");
        sched.stop();
    }

    #[test]
    fn busy_admission_bounds_the_backlog() {
        let cache = Arc::new(Cache::new(64 * 1024 * 1024));
        let sched = Scheduler::start(
            1,
            Arc::clone(&cache),
            SchedOptions {
                max_queued_units: 1,
                ..SchedOptions::default()
            },
        );
        // Heavy enough that its units are still queued while we probe.
        let a = StudyParams {
            scale: 0.03,
            threads: Some(vec![2]),
            ..StudyParams::default()
        };
        let (_, rx_a) = sched
            .submit(grid("fig6", &a), a.clone())
            .expect("idle queue always admits, even past the bound");
        let b = StudyParams {
            scale: 0.02,
            ..small_params()
        };
        match sched.submit(grid("fig1", &b), b.clone()) {
            Err(SubmitError::Busy {
                queued,
                limit,
                retry_after_ms,
            }) => {
                assert!(queued >= 1);
                assert_eq!(limit, 1);
                assert!((25..=5_000).contains(&retry_after_ms));
            }
            other => panic!("expected busy, got {other:?}"),
        }
        // An identical submit coalesces: zero new units, admitted even
        // while the queue is full.
        let (_, rx_dup) = sched
            .submit(grid("fig6", &a), a.clone())
            .expect("coalesced submit costs zero units");
        let first = drain_events(&rx_a).expect("done");
        assert_eq!(first.failed, 0);
        let dup = drain_events(&rx_dup).expect("done");
        assert_eq!(dup.computed, 0);
        // Once the backlog clears, the refused study is admitted.
        let (_, rx_b) = sched
            .submit(grid("fig1", &b), b)
            .expect("idle queue admits");
        assert_eq!(drain_events(&rx_b).expect("done").failed, 0);
        sched.stop();
    }

    #[test]
    fn drain_stops_admission_and_waits_for_idle() {
        let cache = Arc::new(Cache::new(64 * 1024 * 1024));
        let sched = Scheduler::start(2, cache, SchedOptions::default());
        let params = small_params();
        let (_, rx) = sched
            .submit(grid("fig1", &params), params.clone())
            .expect("admitted");
        sched.begin_drain();
        assert!(sched.status().draining);
        match sched.submit(grid("fig1", &params), params.clone()) {
            Err(SubmitError::Draining) => {}
            other => panic!("expected draining, got {other:?}"),
        }
        // In-flight work still runs to completion.
        let d = drain_events(&rx).expect("done");
        assert_eq!(d.failed, 0);
        sched.wait_idle();
        assert_eq!(sched.status().jobs_active, 0);
        sched.stop();
    }

    #[test]
    fn chaos_panic_at_unit_degrades_to_typed_failures() {
        let cache = Arc::new(Cache::new(64 * 1024 * 1024));
        let sched = Scheduler::start(
            1,
            Arc::clone(&cache),
            SchedOptions {
                chaos: ChaosPolicy {
                    panic_at_unit: Some(0),
                },
                ..SchedOptions::default()
            },
        );
        let params = small_params();
        let g = grid("fig1", &params);
        let n = g.n_points();
        let (_, rx) = sched.submit(g, params.clone()).expect("admitted");
        let d = drain_events(&rx).expect("done");
        // Unit 0 is the first reference: its profile's points cascade a
        // typed failure carrying the injected panic's payload.
        assert!(d.failed > 0, "injected panic must surface");
        assert_eq!(d.computed + d.failed, n);
        for (_, reason) in &d.failures {
            assert!(
                reason.contains("chaos: injected panic at unit 0"),
                "typed reason carries the panic payload: {reason}"
            );
        }
        // The scheduler itself survived: a resubmit recomputes the
        // failed (never-cached) points cleanly.
        let (_, rx) = sched
            .submit(grid("fig1", &params), params)
            .expect("admitted");
        let d2 = drain_events(&rx).expect("done");
        assert_eq!(d2.failed, 0, "recovered retry completes");
        assert_eq!(d2.computed + d2.cached, n);
        sched.stop();
    }
}
