//! Federated sweeps: one coordinator fanning grid units out across a
//! fleet of `studyd` backends, with health checks, failover and hedged
//! retries — and a report **byte-identical** to a local run.
//!
//! The [`Federation`] decomposes a study with the same
//! [`experiments::decompose`] grid every backend uses, shards the point
//! indices across the fleet over the v2 protocol's `units` subset
//! extension, and reassembles the streamed records in grid order. Every
//! backend sits behind one crate-private link with four operations —
//! probe, start a shard, next event, cancel — and so does the
//! coordinator's own [`Scheduler`], the **fallback**. One worker per link
//! per job claims shards, streams them and resolves their units
//! first-wins, whichever kind of link it drives. All robustness
//! machinery operates strictly *below* the data plane:
//!
//! - **Health state machine** ([`BackendHealth`]): every backend is
//!   probed by a heartbeat `status` call; consecutive failures walk it
//!   `healthy → suspect → dead`, and a dead backend is re-probed on a
//!   deterministic capped-exponential backoff until it answers again
//!   (`recovered`, after which it serves work like any healthy peer).
//! - **Failover**: when a backend dies mid-stream, its unresolved
//!   units are requeued onto the survivors. Units are deduplicated by
//!   grid index under the job lock (first result wins), and survivors
//!   serve already-computed points from their result caches, so a
//!   failover never recomputes work the fleet already finished.
//! - **Hedged retries**: a unit in flight longer than the hedge
//!   deadline is raced on a second backend; the first result wins and
//!   the loser's now-empty job is cancelled so the backend reclaims the
//!   duplicate work. Hedging is the coordinator's alone: a backend sees
//!   a plain `cancel`, and does not know it is in a fleet.
//! - **Graceful degradation**: the fallback link claims only while no
//!   remote backend is live, so a sweep outlives its whole fleet. It is
//!   a backend like any other — worker pool, result cache, coalescing,
//!   and a cancel that drops its queued units.
//!
//! A shard's stream is read to its `done` frame, and only the indices
//! the shard was sent are trusted: a frame for any other index is a
//! broken stream, failed over like a reset.
//!
//! None of this machinery leaves a trace in the assembled report:
//! failover, hedging and fallback change *where* a point was computed,
//! never *what* was computed, and the chaos suite
//! (`tests/federation.rs`, driving a `studyd --backend …` coordinator
//! over the wire) pins that byte-for-byte.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use experiments::decompose::GridStudy;
use experiments::study::StudyParams;
use speedup_stacks::error::ProtocolError;
use speedup_stacks::report::json;
use speedup_stacks::{ConfigError, SimError};

use crate::client::{Client, StreamEvent};
use crate::scheduler::{JobEvent, JobStream, PointSource, Scheduler, SubmitError};
use crate::session::Dispatch;

/// How long a worker sleeps between polls of the job state when it has
/// nothing to claim. Bounds cancellation/hedge latency without any
/// wall-clock dependence in correctness.
const POLL_MS: u64 = 25;

/// How long a read of a backend's result stream may block before the
/// stream counts as broken and its shard fails over.
const DATA_TIMEOUT: Duration = Duration::from_secs(30);

/// Fleet topology and robustness tuning.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Backend addresses (`host:port`), in dispatch order.
    pub backends: Vec<String>,
    /// Hedge deadline: a unit in flight this long is raced on a second
    /// backend. `None` disables hedging; `Some(0)` hedges immediately.
    pub hedge_after_ms: Option<u64>,
    /// Heartbeat period for the health monitor. It also paces a dead
    /// backend's re-probes: the first comes one heartbeat after it died,
    /// each failed one doubles the wait, up to four heartbeats.
    pub heartbeat_ms: u64,
    /// Consecutive failures that declare a backend dead. Failures below
    /// the threshold mark it suspect (still dispatchable).
    pub dead_after: u32,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            backends: Vec::new(),
            hedge_after_ms: Some(2000),
            heartbeat_ms: 500,
            dead_after: 3,
        }
    }
}

/// Where a backend sits in the health state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Never successfully probed yet (dispatchable, optimistically).
    Unprobed,
    /// Answering probes.
    Healthy,
    /// Failing, but below the dead threshold (still dispatchable).
    Suspect,
    /// Past the consecutive-failure threshold: not dispatched to, and
    /// only re-probed on the backoff schedule.
    Dead,
    /// Was dead, answered a re-probe: serves work again; the sticky
    /// state lets operators see that it went away and came back.
    Recovered,
}

impl HealthState {
    /// The wire/display name (`status` frames, fleet summaries).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Unprobed => "unprobed",
            HealthState::Healthy => "healthy",
            HealthState::Suspect => "suspect",
            HealthState::Dead => "dead",
            HealthState::Recovered => "recovered",
        }
    }
}

/// The per-backend health state machine. Pure — transitions take an
/// explicit `now_ms` (milliseconds on the federation's monotonic
/// clock), so the machine is unit-testable without a network or a
/// clock.
#[derive(Debug)]
pub struct BackendHealth {
    state: HealthState,
    consecutive_failures: u32,
    probe_round: u32,
    next_probe_ms: u64,
    recoveries: u64,
}

impl Default for BackendHealth {
    fn default() -> Self {
        Self::new()
    }
}

impl BackendHealth {
    /// A fresh, unprobed backend.
    #[must_use]
    pub fn new() -> BackendHealth {
        BackendHealth {
            state: HealthState::Unprobed,
            consecutive_failures: 0,
            probe_round: 0,
            next_probe_ms: 0,
            recoveries: 0,
        }
    }

    /// Current state.
    #[must_use]
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Times the backend transitioned dead → recovered.
    #[must_use]
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Whether work may be dispatched to this backend. Dead backends
    /// are skipped; everything else (including never-probed and
    /// suspect) is tried optimistically.
    #[must_use]
    pub fn is_live(&self) -> bool {
        self.state != HealthState::Dead
    }

    /// Whether the monitor should probe now: always, except a dead
    /// backend inside its backoff window.
    #[must_use]
    pub fn should_probe(&self, now_ms: u64) -> bool {
        self.state != HealthState::Dead || now_ms >= self.next_probe_ms
    }

    /// Records a successful probe or dispatch: failures reset, a dead
    /// backend becomes recovered, anything else healthy (recovered is
    /// sticky).
    pub fn on_success(&mut self) {
        self.consecutive_failures = 0;
        self.probe_round = 0;
        self.state = match self.state {
            HealthState::Dead => {
                self.recoveries += 1;
                HealthState::Recovered
            }
            HealthState::Recovered => HealthState::Recovered,
            _ => HealthState::Healthy,
        };
    }

    /// Records a failed probe or dispatch. Below `cfg.dead_after`
    /// consecutive failures the backend is suspect; at the threshold it
    /// is dead and the deterministic re-probe backoff
    /// (`heartbeat << round`, capped at four heartbeats) starts from
    /// `now_ms`.
    pub fn on_failure(&mut self, cfg: &FleetConfig, now_ms: u64) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        if self.consecutive_failures >= cfg.dead_after {
            self.state = HealthState::Dead;
            let backoff = cfg
                .heartbeat_ms
                .saturating_mul(1u64 << self.probe_round.min(2));
            self.probe_round = self.probe_round.saturating_add(1);
            self.next_probe_ms = now_ms.saturating_add(backoff);
        } else {
            self.state = HealthState::Suspect;
        }
    }
}

/// Where a backend's shards run: a `studyd` over the wire, or the
/// coordinator's own scheduler (the fallback).
enum Link {
    Remote(String),
    Local(Arc<Scheduler>),
}

/// A started shard: its job id on the link and where its events arrive.
struct Shard {
    job: u64,
    events: Events,
}

enum Events {
    /// A backend's result stream; `n` range-checks its indices.
    Remote {
        client: Client,
        n: usize,
    },
    Local(Receiver<JobEvent>),
}

/// Why a shard did not start.
enum StartError {
    /// The link is up but turned the work away for now (`busy`).
    Busy,
    /// The link could not be reached: the units never left.
    Unreachable,
    /// The link was reached and then failed: it may have died holding
    /// the work.
    Broken,
}

impl Link {
    /// Whether the link answers a `status` call (the fallback always
    /// does).
    fn probe(&self) -> bool {
        match self {
            Link::Remote(addr) => Client::connect(addr).is_ok_and(|mut c| c.status().is_ok()),
            Link::Local(_) => true,
        }
    }

    /// Starts a job for `units` of `grid`.
    fn start(
        &self,
        grid: &GridStudy,
        params: &StudyParams,
        units: &[usize],
    ) -> Result<Shard, StartError> {
        match self {
            Link::Remote(addr) => {
                let mut client = Client::connect(addr).map_err(|_| StartError::Unreachable)?;
                client.set_data_timeout(Some(DATA_TIMEOUT));
                match client.start_submit(grid.study(), params, Some(units)) {
                    Ok((job, _points)) => Ok(Shard {
                        job,
                        events: Events::Remote {
                            client,
                            n: grid.n_points(),
                        },
                    }),
                    Err(SimError::Protocol(ProtocolError::Busy { .. })) => Err(StartError::Busy),
                    Err(_) => Err(StartError::Broken),
                }
            }
            Link::Local(scheduler) => {
                let subset = Some(units.to_vec());
                let (job, rx) = scheduler
                    .submit_units(grid.clone(), params.clone(), subset)
                    .map_err(|_| StartError::Busy)?;
                Ok(Shard {
                    job,
                    events: Events::Local(rx),
                })
            }
        }
    }

    /// Best-effort cancel of a job on the link (a remote one over a
    /// fresh control connection: the worker that owns the stream is
    /// blocked reading it).
    fn cancel(&self, job: u64) {
        match self {
            Link::Remote(addr) => {
                if let Ok(mut c) = Client::connect(addr) {
                    c.cancel(job).ok();
                }
            }
            Link::Local(scheduler) => {
                scheduler.cancel(job);
            }
        }
    }
}

impl Shard {
    /// The shard's next event, a backend's frame converted to the job
    /// event it stands for; `None` when the stream broke.
    fn next(&mut self) -> Option<JobEvent> {
        let (client, n) = match &mut self.events {
            Events::Remote { client, n } => (client, *n),
            Events::Local(rx) => return rx.recv().ok(),
        };
        let attempts = |a: u64| u32::try_from(a).unwrap_or(u32::MAX);
        Some(match client.next_event(n).ok()? {
            StreamEvent::Point {
                index,
                source,
                attempts: a,
                summary,
            } => JobEvent::Point {
                index,
                source: PointSource::from_wire(&source).unwrap_or(PointSource::Computed),
                attempts: attempts(a),
                record: summary.to_record().into(),
            },
            StreamEvent::Failed {
                index,
                label,
                reason,
                attempts: a,
            } => JobEvent::Failed {
                index,
                label,
                reason,
                attempts: attempts(a),
            },
            StreamEvent::Done {
                computed,
                cached,
                coalesced,
                failed,
                cancelled,
            } => JobEvent::Done {
                computed: computed as usize,
                cached: cached as usize,
                coalesced: coalesced as usize,
                failed: failed as usize,
                cancelled,
            },
        })
    }
}

/// One backend's link, health and per-fleet accounting.
struct Backend {
    link: Link,
    health: Mutex<BackendHealth>,
    /// Units this backend resolved (first-wins).
    served: AtomicU64,
    /// Units requeued off this backend after it failed mid-flight.
    failed_over: AtomicU64,
    /// Hedged units this backend won.
    hedge_wins: AtomicU64,
    /// Health probes attempted against this backend.
    probes: AtomicU64,
}

/// A point-in-time copy of one backend's federation counters.
#[derive(Debug, Clone)]
pub struct BackendSnapshot {
    /// Fleet identity (`b0`, `b1`, … in config order).
    pub id: String,
    /// The backend's address.
    pub addr: String,
    /// Health state at snapshot time.
    pub state: HealthState,
    /// Units this backend resolved.
    pub served: u64,
    /// Units requeued off this backend after a mid-flight failure.
    pub failed_over: u64,
    /// Hedged units this backend won.
    pub hedge_wins: u64,
    /// Health probes attempted.
    pub probes: u64,
    /// Dead → recovered transitions.
    pub recoveries: u64,
}

/// A point-in-time copy of the federation's gauges.
#[derive(Debug, Clone)]
pub struct FederationStatus {
    /// Per-backend counters, in config order.
    pub backends: Vec<BackendSnapshot>,
    /// Jobs currently resolving points.
    pub jobs_active: usize,
    /// Jobs accepted since startup.
    pub jobs_total: u64,
    /// Units the coordinator's local fallback resolved.
    pub local_units: u64,
    /// Whether the federation is draining.
    pub draining: bool,
}

impl FederationStatus {
    /// A one-line-per-backend human summary (what `studyd` prints to
    /// stderr when a coordinator stops).
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for b in &self.backends {
            out.push_str(&format!(
                "fleet: {} {} [{}]: {} served, {} failed over, {} hedge wins\n",
                b.id,
                b.addr,
                b.state.name(),
                b.served,
                b.failed_over,
                b.hedge_wins
            ));
        }
        if self.local_units > 0 {
            out.push_str(&format!(
                "fleet: local fallback served {} unit(s)\n",
                self.local_units
            ));
        }
        out
    }
}

/// Which backends a unit is in flight on.
struct Dispatched {
    /// Indices of the links racing this unit.
    backends: Vec<usize>,
    /// When the first dispatch happened (federation clock, ms) — the
    /// hedge deadline counts from here.
    first_at_ms: u64,
}

/// Mutable state of one federated job, shared by its workers.
struct JobSt {
    /// Units nobody is running.
    queue: VecDeque<usize>,
    /// First-wins resolution map, indexed by grid index.
    resolved: Vec<bool>,
    /// In-flight units.
    dispatched: HashMap<usize, Dispatched>,
    /// Per shard `(link, job on that link)`: its unresolved units. A set
    /// emptied by *another* worker's resolution marks a hedge loser to
    /// cancel.
    shards: HashMap<(usize, u64), HashSet<usize>>,
    /// Units not yet resolved.
    remaining: usize,
    stream: JobStream,
}

/// One federated job: its grid and its shared state.
struct JobCtl {
    id: u64,
    grid: GridStudy,
    params: StudyParams,
    st: Mutex<JobSt>,
    cond: Condvar,
}

/// Federation-level mutable state.
#[derive(Default)]
struct FedState {
    next_job: u64,
    jobs_active: usize,
    jobs_total: u64,
    draining: bool,
    /// Live jobs, for cancellation.
    jobs: HashMap<u64, Arc<JobCtl>>,
}

struct FedInner {
    cfg: FleetConfig,
    /// One link per `cfg.backends` entry, in order, then the fallback.
    links: Vec<Backend>,
    started: Instant,
    st: Mutex<FedState>,
    cond: Condvar,
    shutdown: AtomicBool,
}

/// The coordinator: shards submitted grids across the fleet and
/// reassembles result streams. Implements [`Dispatch`], so a
/// `studyd --backend …` coordinator serves the identical wire protocol
/// a single backend does.
pub struct Federation {
    inner: Arc<FedInner>,
    fallback: Arc<Scheduler>,
    monitor: Mutex<Option<JoinHandle<()>>>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl FedInner {
    /// Milliseconds since the federation started (its monotonic clock).
    fn now_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// The remote backends, in config order (every link but the
    /// fallback).
    fn remotes(&self) -> &[Backend] {
        &self.links[..self.cfg.backends.len()]
    }

    /// Remote backends currently dispatchable (not dead).
    fn live_remotes(&self) -> usize {
        self.remotes()
            .iter()
            .filter(|b| lock(&b.health).is_live())
            .count()
    }
}

impl Federation {
    /// Builds the coordinator over `fallback`, the scheduler that takes
    /// the work while no backend is live, and starts its health monitor.
    /// Backends are probed asynchronously — a fleet whose members are
    /// still booting is fine; they begin as [`HealthState::Unprobed`] and
    /// are dispatched to optimistically.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] when `cfg.backends` is empty.
    pub fn start(cfg: FleetConfig, fallback: Arc<Scheduler>) -> Result<Federation, SimError> {
        if cfg.backends.is_empty() {
            return Err(ConfigError::zero("backends").into());
        }
        let remotes = cfg.backends.iter().map(|addr| Link::Remote(addr.clone()));
        let links = remotes
            .chain([Link::Local(Arc::clone(&fallback))])
            .map(|link| Backend {
                link,
                health: Mutex::new(BackendHealth::new()),
                served: AtomicU64::new(0),
                failed_over: AtomicU64::new(0),
                hedge_wins: AtomicU64::new(0),
                probes: AtomicU64::new(0),
            })
            .collect();
        let inner = Arc::new(FedInner {
            cfg,
            links,
            started: Instant::now(),
            st: Mutex::new(FedState::default()),
            cond: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let monitor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("fed-monitor".to_string())
                .spawn(move || monitor_loop(&inner))
                .map_err(|e| ProtocolError::Io {
                    op: "spawn",
                    message: e.to_string(),
                })?
        };
        Ok(Federation {
            inner,
            fallback,
            monitor: Mutex::new(Some(monitor)),
        })
    }

    /// Point-in-time federation gauges.
    #[must_use]
    pub fn status(&self) -> FederationStatus {
        let inner = &self.inner;
        let st = lock(&inner.st);
        let snapshot = |(i, (b, addr)): (usize, (&Backend, &String))| {
            let health = lock(&b.health);
            BackendSnapshot {
                id: format!("b{i}"),
                addr: addr.clone(),
                state: health.state(),
                served: b.served.load(Ordering::Relaxed),
                failed_over: b.failed_over.load(Ordering::Relaxed),
                hedge_wins: b.hedge_wins.load(Ordering::Relaxed),
                probes: b.probes.load(Ordering::Relaxed),
                recoveries: health.recoveries(),
            }
        };
        let remotes = inner.remotes().iter().zip(&inner.cfg.backends);
        FederationStatus {
            backends: remotes.enumerate().map(snapshot).collect(),
            jobs_active: st.jobs_active,
            jobs_total: st.jobs_total,
            local_units: inner.links[inner.cfg.backends.len()]
                .served
                .load(Ordering::Relaxed),
            draining: st.draining,
        }
    }

    /// Blocks until no job is active (the drain barrier).
    pub fn wait_idle(&self) {
        let mut st = lock(&self.inner.st);
        while st.jobs_active > 0 {
            st = self
                .inner
                .cond
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Stops the monitor and wakes every worker so in-flight jobs wind
    /// down. Shards already started are cancelled best-effort.
    pub fn stop(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        let jobs: Vec<Arc<JobCtl>> = {
            let st = lock(&self.inner.st);
            st.jobs.values().cloned().collect()
        };
        for ctl in jobs {
            self.cancel_ctl(&ctl);
        }
        self.inner.cond.notify_all();
        if let Some(h) = lock(&self.monitor).take() {
            h.join().ok();
        }
    }

    fn cancel_ctl(&self, ctl: &JobCtl) {
        let shards: Vec<(usize, u64)> = {
            let mut st = lock(&ctl.st);
            if !st.stream.cancel() {
                return;
            }
            ctl.cond.notify_all();
            st.shards.keys().copied().collect()
        };
        // Propagate: cancel every started shard so no orphaned unit
        // keeps computing on the fleet.
        for (bi, job) in shards {
            self.inner.links[bi].link.cancel(job);
        }
        finish_job(&self.inner, ctl.id);
    }
}

/// Removes a finished/cancelled job from the live map and wakes drain
/// waiters. Idempotent.
fn finish_job(inner: &FedInner, id: u64) {
    let mut st = lock(&inner.st);
    if st.jobs.remove(&id).is_some() {
        st.jobs_active = st.jobs_active.saturating_sub(1);
        inner.cond.notify_all();
    }
}

impl Dispatch for Federation {
    fn submit_units(
        &self,
        grid: GridStudy,
        params: StudyParams,
        units: Option<Vec<usize>>,
    ) -> Result<(u64, Receiver<JobEvent>), SubmitError> {
        let n = grid.n_points();
        let indices: Vec<usize> = match units {
            Some(subset) => subset,
            None => (0..n).collect(),
        };
        let (id, ctl, rx) = {
            let mut st = lock(&self.inner.st);
            if st.draining {
                return Err(SubmitError::Draining);
            }
            st.next_job += 1;
            st.jobs_total += 1;
            st.jobs_active += 1;
            let id = st.next_job;
            let (stream, rx) = JobStream::new();
            let ctl = Arc::new(JobCtl {
                id,
                grid,
                params,
                st: Mutex::new(JobSt {
                    queue: indices.iter().copied().collect(),
                    resolved: vec![false; n],
                    dispatched: HashMap::new(),
                    shards: HashMap::new(),
                    remaining: indices.len(),
                    stream,
                }),
                cond: Condvar::new(),
            });
            st.jobs.insert(id, Arc::clone(&ctl));
            (id, ctl, rx)
        };
        for bi in 0..self.inner.links.len() {
            let inner = Arc::clone(&self.inner);
            let ctl = Arc::clone(&ctl);
            std::thread::Builder::new()
                .name(format!("fed-worker-{bi}"))
                .spawn(move || backend_worker(&inner, bi, &ctl))
                .ok();
        }
        Ok((id, rx))
    }

    fn cancel_job(&self, job: u64) -> bool {
        let ctl = {
            let st = lock(&self.inner.st);
            st.jobs.get(&job).cloned()
        };
        match ctl {
            Some(ctl) => {
                self.cancel_ctl(&ctl);
                true
            }
            None => false,
        }
    }

    fn begin_drain(&self) {
        lock(&self.inner.st).draining = true;
        self.inner.cond.notify_all();
    }

    /// The fallback scheduler's own `status` frame, plus a `federation`
    /// block: the fleet's job gauges, the units the fallback resolved and
    /// every backend's health and counters.
    fn render_status(&self) -> String {
        let s = self.status();
        let mut fleet = String::new();
        for (i, b) in s.backends.iter().enumerate() {
            if i > 0 {
                fleet.push_str(", ");
            }
            fleet.push_str(&format!(
                "{{\"id\": \"{}\", \"addr\": \"{}\", \"state\": \"{}\", \"served\": {}, \
                 \"failed_over\": {}, \"hedge_wins\": {}, \"probes\": {}, \"recoveries\": {}}}",
                json::escape(&b.id),
                json::escape(&b.addr),
                b.state.name(),
                b.served,
                b.failed_over,
                b.hedge_wins,
                b.probes,
                b.recoveries
            ));
        }
        let federation = format!(
            ", \"federation\": {{\"jobs_active\": {}, \"jobs_total\": {}, \"draining\": {}, \
             \"local_units\": {}, \"backends\": [{fleet}]}}",
            s.jobs_active, s.jobs_total, s.draining, s.local_units
        );
        self.fallback.status().to_frame(&federation)
    }
}

/// The heartbeat loop: probes every link each period, feeding the
/// health state machine. Dead links are only re-probed on their backoff
/// schedule.
fn monitor_loop(inner: &Arc<FedInner>) {
    while !inner.shutdown.load(Ordering::SeqCst) {
        for backend in &inner.links {
            if inner.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let now = inner.now_ms();
            if !lock(&backend.health).should_probe(now) {
                continue;
            }
            backend.probes.fetch_add(1, Ordering::Relaxed);
            let ok = backend.link.probe();
            let mut health = lock(&backend.health);
            if ok {
                health.on_success();
            } else {
                health.on_failure(&inner.cfg, inner.now_ms());
            }
        }
        // Sleep one heartbeat, but wake early on shutdown.
        let st = lock(&inner.st);
        let _guard = inner
            .cond
            .wait_timeout(st, Duration::from_millis(inner.cfg.heartbeat_ms.max(1)))
            .unwrap_or_else(PoisonError::into_inner);
    }
}

/// What a backend worker decided to do after inspecting the job state.
enum Claim {
    /// Fresh units claimed off the queue.
    Units(Vec<usize>),
    /// A hedge: race this already-dispatched unit.
    Hedge(usize),
    /// Nothing claimable right now.
    Wait,
    /// The job is over (resolved, cancelled or shut down).
    Exit,
}

/// One link's worker for one job: claims unit chunks (or hedges
/// stragglers), streams them from its link, and resolves results
/// first-wins into the shared job state. On any link failure its
/// unresolved units are requeued for the survivors.
fn backend_worker(inner: &FedInner, bi: usize, ctl: &JobCtl) {
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let units = match next_claim(inner, bi, ctl) {
            Claim::Exit => return,
            Claim::Wait => {
                let st = lock(&ctl.st);
                let _guard = ctl
                    .cond
                    .wait_timeout(st, Duration::from_millis(POLL_MS))
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            Claim::Units(units) => units,
            Claim::Hedge(unit) => vec![unit],
        };
        run_shard(inner, bi, ctl, &units);
    }
}

/// Claims work for link `bi` under the job lock. A remote backend
/// claims while it is live; the fallback only while no remote backend
/// is.
fn next_claim(inner: &FedInner, bi: usize, ctl: &JobCtl) -> Claim {
    let mut st = lock(&ctl.st);
    if st.stream.is_cancelled() || st.remaining == 0 {
        return Claim::Exit;
    }
    let live = inner.live_remotes();
    let remote = bi < inner.cfg.backends.len();
    if !lock(&inner.links[bi].health).is_live() || (!remote && live > 0) {
        return Claim::Wait;
    }
    let now = inner.now_ms();
    if !st.queue.is_empty() {
        // Chunk so every live backend gets a share, capped so failover
        // and hedging keep fine granularity.
        let take = st.queue.len().div_ceil(live.max(1)).clamp(1, 8);
        let mut units = Vec::with_capacity(take);
        for _ in 0..take {
            let Some(u) = st.queue.pop_front() else { break };
            st.dispatched.insert(
                u,
                Dispatched {
                    backends: vec![bi],
                    first_at_ms: now,
                },
            );
            units.push(u);
        }
        return Claim::Units(units);
    }
    if let Some(deadline) = inner.cfg.hedge_after_ms {
        let candidate = st
            .dispatched
            .iter()
            .filter(|(u, d)| {
                !st.resolved[**u]
                    && d.backends.len() < 2
                    && !d.backends.contains(&bi)
                    && now.saturating_sub(d.first_at_ms) >= deadline
            })
            .map(|(u, _)| *u)
            .min();
        if let Some(unit) = candidate {
            st.dispatched
                .get_mut(&unit)
                .expect("candidate is dispatched")
                .backends
                .push(bi);
            return Claim::Hedge(unit);
        }
    }
    Claim::Wait
}

/// Requeues units that never resolved (their dispatch entry is dropped
/// if this worker was the only runner; a hedge partner keeps its own).
fn requeue(ctl: &JobCtl, bi: usize, units: &[usize], backend: &Backend, count_failover: bool) {
    let mut st = lock(&ctl.st);
    let mut moved = 0u64;
    for &u in units {
        if st.resolved[u] {
            continue;
        }
        let sole_runner = match st.dispatched.get_mut(&u) {
            Some(d) => {
                d.backends.retain(|&b| b != bi);
                d.backends.is_empty()
            }
            None => true,
        };
        if sole_runner {
            st.dispatched.remove(&u);
            st.queue.push_back(u);
            moved += 1;
        }
    }
    if moved > 0 && count_failover {
        backend.failed_over.fetch_add(moved, Ordering::Relaxed);
    }
    ctl.cond.notify_all();
}

/// Runs `units` as one shard on link `bi`, resolving first-wins.
fn run_shard(inner: &FedInner, bi: usize, ctl: &JobCtl, units: &[usize]) {
    let backend = &inner.links[bi];
    let mut shard = match backend.link.start(&ctl.grid, &ctl.params, units) {
        Ok(shard) => shard,
        Err(StartError::Busy) => {
            // A busy backend is healthy; hand the units back and let
            // the fleet absorb them.
            requeue(ctl, bi, units, backend, false);
            std::thread::sleep(Duration::from_millis(POLL_MS));
            return;
        }
        Err(e) => {
            // Only a backend that failed after taking the request may
            // have died holding the work: that is a failover, an
            // unreachable one a clean handback.
            lock(&backend.health).on_failure(&inner.cfg, inner.now_ms());
            requeue(ctl, bi, units, backend, matches!(e, StartError::Broken));
            return;
        }
    };
    lock(&backend.health).on_success();
    let mut pending: HashSet<usize> = units.iter().copied().collect();
    {
        let mut st = lock(&ctl.st);
        // Units resolved while the shard started are no longer ours; if
        // that was all of them, it lost a hedged race before it began,
        // and if the job was cancelled meanwhile nobody wants it: either
        // way the link reclaims the work.
        pending.retain(|u| !st.resolved[*u]);
        if pending.is_empty() || st.stream.is_cancelled() {
            drop(st);
            backend.link.cancel(shard.job);
            return;
        }
        st.shards.insert((bi, shard.job), pending.clone());
    }
    // The stream is read to its `done` event. An event for an index this
    // shard was never sent is a broken stream, like a reset.
    let clean = loop {
        let Some(event) = shard.next() else {
            break false;
        };
        let (JobEvent::Point { index, .. } | JobEvent::Failed { index, .. }) = event else {
            break true;
        };
        if !units.contains(&index) {
            break false;
        }
        pending.remove(&index);
        resolve(inner, bi, ctl, index, event);
    };
    lock(&ctl.st).shards.remove(&(bi, shard.job));
    // A done event with units still pending (a shard cancelled as a
    // hedge loser or with its federated job) hands them back to the
    // fleet; a broken stream fails them over.
    if !clean {
        lock(&backend.health).on_failure(&inner.cfg, inner.now_ms());
    }
    let leftovers: Vec<usize> = pending.into_iter().collect();
    requeue(ctl, bi, &leftovers, backend, !clean);
}

/// First-wins resolution: marks the unit resolved, forwards its event (a
/// point, or a failure with its label and reason), credits link `bi`,
/// and cancels any hedge loser whose shard just went empty.
fn resolve(inner: &FedInner, bi: usize, ctl: &JobCtl, index: usize, event: JobEvent) {
    let backend = &inner.links[bi];
    let losers: Vec<(usize, u64)> = {
        let mut st = lock(&ctl.st);
        if st.stream.is_cancelled() || st.resolved[index] {
            return; // someone else won (or nobody cares anymore)
        }
        st.resolved[index] = true;
        st.remaining -= 1;
        let hedged = st
            .dispatched
            .get(&index)
            .is_some_and(|d| d.backends.len() > 1);
        st.dispatched.remove(&index);
        // Count before forwarding: the last unit's event is followed by
        // the terminal `done`, and a consumer reading it must already
        // see every unit in the gauges.
        backend.served.fetch_add(1, Ordering::Relaxed);
        if hedged {
            backend.hedge_wins.fetch_add(1, Ordering::Relaxed);
        }
        match event {
            JobEvent::Point {
                source,
                attempts,
                record,
                ..
            } => st.stream.point(index, source, attempts, record),
            JobEvent::Failed {
                label,
                reason,
                attempts,
                ..
            } => st.stream.failed(index, label, reason, attempts),
            JobEvent::Done { .. } => unreachable!("a shard's `done` ends its stream"),
        };
        let mut losers = Vec::new();
        for (key, set) in &mut st.shards {
            if set.remove(&index) && set.is_empty() && key.0 != bi {
                losers.push(*key);
            }
        }
        if st.remaining == 0 {
            st.stream.finish();
        }
        ctl.cond.notify_all();
        losers
    };
    for (loser, job) in losers {
        inner.links[loser].link.cancel(job);
    }
    let finished = lock(&ctl.st).remaining == 0;
    if finished {
        finish_job(inner, ctl.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> FleetConfig {
        FleetConfig {
            backends: vec!["127.0.0.1:1".to_string()],
            dead_after: 3,
            heartbeat_ms: 100,
            ..FleetConfig::default()
        }
    }

    fn fallback() -> Arc<Scheduler> {
        let cache = Arc::new(crate::cache::Cache::new(1024));
        let options = crate::scheduler::SchedOptions::default();
        Arc::new(Scheduler::start(1, cache, options))
    }

    #[test]
    fn health_walks_suspect_then_dead_then_recovers() {
        let cfg = cfg();
        let mut h = BackendHealth::new();
        assert_eq!(h.state(), HealthState::Unprobed);
        assert!(h.is_live());
        h.on_success();
        assert_eq!(h.state(), HealthState::Healthy);

        h.on_failure(&cfg, 0);
        assert_eq!(h.state(), HealthState::Suspect);
        assert!(h.is_live(), "suspect backends still get work");
        h.on_failure(&cfg, 10);
        assert_eq!(h.state(), HealthState::Suspect);
        h.on_failure(&cfg, 20);
        assert_eq!(h.state(), HealthState::Dead);
        assert!(!h.is_live());

        // Deterministic backoff: first window 100ms from the failure.
        assert!(!h.should_probe(20));
        assert!(!h.should_probe(119));
        assert!(h.should_probe(120));

        // A failed re-probe doubles the window, capped at 400.
        h.on_failure(&cfg, 120);
        assert!(!h.should_probe(319));
        assert!(h.should_probe(320));
        h.on_failure(&cfg, 320);
        assert!(h.should_probe(320 + 400), "cap reached");

        // Success from dead = recovered, and recovered is sticky.
        h.on_success();
        assert_eq!(h.state(), HealthState::Recovered);
        assert_eq!(h.recoveries(), 1);
        assert!(h.is_live());
        h.on_success();
        assert_eq!(h.state(), HealthState::Recovered);

        // Recovered backends die like any other.
        h.on_failure(&cfg, 1000);
        assert_eq!(h.state(), HealthState::Suspect);
        h.on_failure(&cfg, 1001);
        h.on_failure(&cfg, 1002);
        assert_eq!(h.state(), HealthState::Dead);
        h.on_success();
        assert_eq!(h.recoveries(), 2);
    }

    #[test]
    fn federation_requires_backends() {
        let config = FleetConfig {
            backends: Vec::new(),
            ..FleetConfig::default()
        };
        let err = Federation::start(config, fallback()).err().unwrap();
        assert_eq!(err, SimError::Config(ConfigError::zero("backends")));
        assert_eq!(err.exit_code(), 3);
    }

    #[test]
    fn status_summary_names_every_backend() {
        let config = FleetConfig {
            backends: vec!["127.0.0.1:1".to_string(), "127.0.0.1:2".to_string()],
            heartbeat_ms: 10_000, // keep the monitor quiet for the test
            ..FleetConfig::default()
        };
        let fed = Federation::start(config, fallback()).unwrap();
        let status = fed.status();
        assert_eq!(status.backends.len(), 2);
        assert_eq!(status.backends[0].id, "b0");
        let summary = status.summary();
        assert!(summary.contains("b0 127.0.0.1:1"));
        assert!(summary.contains("b1 127.0.0.1:2"));
        let frame = fed.render_status();
        assert!(!frame.contains("\"backend\": "));
        assert!(frame.contains("\"federation\": "));
        assert!(frame.contains("\"local_units\": 0"));
        fed.stop();
    }
}
