//! Federated sweeps: one coordinator fanning grid units out across a
//! fleet of `studyd` backends, with health checks, failover and hedged
//! retries — and a report **byte-identical** to a local run.
//!
//! The [`Federation`] decomposes a study with the same
//! [`experiments::decompose`] grid every backend uses, shards the point
//! indices across the fleet over the v2 protocol's `units` subset
//! extension, and reassembles the streamed records in grid order. All
//! robustness machinery operates strictly *below* the data plane:
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
//!   the loser's now-empty job is cancelled with the `hedge` reason so
//!   the backend can reclaim the duplicate work.
//! - **Graceful degradation**: when every backend is dead, queued
//!   units fall back to local in-process execution (the identical
//!   compute path the sweep uses), so a sweep outlives its whole
//!   fleet. Disable with [`FleetConfig::local_fallback`] to get a
//!   typed `unavailable` rejection instead.
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
use experiments::graph::RefValue;
use experiments::par::{run_units, Parallelism};
use experiments::runner::PointSummary;
use experiments::study::StudyParams;
use speedup_stacks::error::ProtocolError;
use speedup_stacks::report::json;
use speedup_stacks::{FederationError, SimError};

use crate::client::{Client, StreamEvent};
use crate::proto::PROTO_VERSION;
use crate::scheduler::{JobEvent, JobStream, PointSource, SubmitError};
use crate::session::Dispatch;

/// How long a worker sleeps between polls of the job state when it has
/// nothing to claim. Bounds cancellation/hedge latency without any
/// wall-clock dependence in correctness.
const POLL_MS: u64 = 25;

/// Fleet topology and robustness tuning.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Backend addresses (`host:port`), in dispatch order.
    pub backends: Vec<String>,
    /// Hedge deadline: a unit in flight this long is raced on a second
    /// backend. `None` disables hedging; `Some(0)` hedges immediately.
    pub hedge_after_ms: Option<u64>,
    /// Fall back to local in-process execution when the whole fleet is
    /// dead (`true`, the default), or reject with `unavailable`.
    pub local_fallback: bool,
    /// Control-plane (heartbeat, cancel) reply deadline per call.
    pub control_timeout_ms: u64,
    /// Data-plane (result stream) read deadline per frame.
    pub data_timeout_ms: u64,
    /// Heartbeat period for the health monitor.
    pub heartbeat_ms: u64,
    /// Consecutive failures that declare a backend dead. Failures below
    /// the threshold mark it suspect (still dispatchable).
    pub dead_after: u32,
    /// Base of the dead-backend re-probe backoff (doubles per failed
    /// probe).
    pub probe_backoff_base_ms: u64,
    /// Cap on the re-probe backoff.
    pub probe_backoff_cap_ms: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            backends: Vec::new(),
            hedge_after_ms: Some(2000),
            local_fallback: true,
            control_timeout_ms: 2000,
            data_timeout_ms: 30_000,
            heartbeat_ms: 500,
            dead_after: 3,
            probe_backoff_base_ms: 100,
            probe_backoff_cap_ms: 2000,
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
    /// (`base << round`, capped) starts from `now_ms`.
    pub fn on_failure(&mut self, cfg: &FleetConfig, now_ms: u64) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        if self.consecutive_failures >= cfg.dead_after {
            self.state = HealthState::Dead;
            let backoff = cfg
                .probe_backoff_base_ms
                .saturating_mul(1u64 << self.probe_round.min(16))
                .min(cfg.probe_backoff_cap_ms);
            self.probe_round = self.probe_round.saturating_add(1);
            self.next_probe_ms = now_ms.saturating_add(backoff);
        } else {
            self.state = HealthState::Suspect;
        }
    }
}

/// One backend's identity, health and per-fleet accounting.
#[derive(Debug)]
struct Backend {
    id: String,
    addr: String,
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
    /// Units computed by the coordinator's local fallback.
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
                "fleet: local fallback computed {} unit(s)\n",
                self.local_units
            ));
        }
        out
    }
}

/// Which backends a unit is in flight on (or the local fallback).
#[derive(Debug)]
struct Dispatched {
    /// Backend indices racing this unit; `usize::MAX` is the local
    /// fallback worker.
    backends: Vec<usize>,
    /// When the first dispatch happened (federation clock, ms) — the
    /// hedge deadline counts from here.
    first_at_ms: u64,
}

/// Mutable state of one federated job, shared by its workers.
#[derive(Debug)]
struct JobSt {
    /// Units nobody is running.
    queue: VecDeque<usize>,
    /// First-wins resolution map, indexed by grid index.
    resolved: Vec<bool>,
    /// In-flight units.
    dispatched: HashMap<usize, Dispatched>,
    /// Per remote job `(backend, remote-job-id)`: its unresolved units.
    /// A set emptied by *another* worker's resolution marks a hedge
    /// loser to cancel.
    remote: HashMap<(usize, u64), HashSet<usize>>,
    /// Units not yet resolved.
    remaining: usize,
    stream: JobStream,
}

/// One federated job: its grid and its shared state.
struct JobCtl {
    id: u64,
    grid: Arc<GridStudy>,
    params: StudyParams,
    st: Mutex<JobSt>,
    cond: Condvar,
}

impl std::fmt::Debug for JobCtl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobCtl")
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

/// Federation-level mutable state.
#[derive(Debug, Default)]
struct FedState {
    next_job: u64,
    jobs_active: usize,
    jobs_total: u64,
    local_units: u64,
    draining: bool,
    /// Live jobs, for cancellation.
    jobs: HashMap<u64, Arc<JobCtl>>,
}

#[derive(Debug)]
struct FedInner {
    cfg: FleetConfig,
    backends: Vec<Arc<Backend>>,
    started: Instant,
    st: Mutex<FedState>,
    cond: Condvar,
    shutdown: AtomicBool,
}

/// The coordinator: shards submitted grids across the fleet and
/// reassembles result streams. Implements [`Dispatch`], so a
/// `studyd --backend …` coordinator serves the identical wire protocol
/// a single backend does.
#[derive(Debug)]
pub struct Federation {
    inner: Arc<FedInner>,
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

    fn control_timeout(&self) -> Duration {
        Duration::from_millis(self.cfg.control_timeout_ms.max(1))
    }

    /// Backends currently dispatchable (not dead).
    fn live_backends(&self) -> usize {
        self.backends
            .iter()
            .filter(|b| lock(&b.health).is_live())
            .count()
    }

    /// Opens a connection configured for data-plane streaming.
    fn connect(&self, addr: &str) -> Result<Client, SimError> {
        let mut client = Client::connect(addr)?;
        client.set_control_timeout(Some(self.control_timeout()));
        client.set_data_timeout(Some(Duration::from_millis(self.cfg.data_timeout_ms.max(1))));
        Ok(client)
    }

    /// Best-effort protocol cancel of a remote job over a fresh
    /// control connection (the worker that owns the stream is blocked
    /// reading it).
    fn cancel_remote(&self, backend_idx: usize, rjob: u64, reason: Option<&str>) {
        if backend_idx == usize::MAX {
            return; // the local fallback has no remote job
        }
        let addr = self.backends[backend_idx].addr.clone();
        if let Ok(mut c) = Client::connect(&addr) {
            c.set_control_timeout(Some(self.control_timeout()));
            c.cancel_with_reason(rjob, reason).ok();
        }
    }
}

impl Federation {
    /// Builds the coordinator and starts its health monitor. Backends
    /// are probed asynchronously — a fleet whose members are still
    /// booting is fine; they begin as [`HealthState::Unprobed`] and are
    /// dispatched to optimistically.
    ///
    /// # Errors
    ///
    /// [`SimError::Federation`] when `cfg.backends` is empty.
    pub fn start(cfg: FleetConfig) -> Result<Federation, SimError> {
        if cfg.backends.is_empty() {
            return Err(FederationError::NoBackends.into());
        }
        let backends = cfg
            .backends
            .iter()
            .enumerate()
            .map(|(i, addr)| {
                Arc::new(Backend {
                    id: format!("b{i}"),
                    addr: addr.clone(),
                    health: Mutex::new(BackendHealth::new()),
                    served: AtomicU64::new(0),
                    failed_over: AtomicU64::new(0),
                    hedge_wins: AtomicU64::new(0),
                    probes: AtomicU64::new(0),
                })
            })
            .collect();
        let inner = Arc::new(FedInner {
            cfg,
            backends,
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
            monitor: Mutex::new(Some(monitor)),
        })
    }

    /// Point-in-time federation gauges.
    #[must_use]
    pub fn status(&self) -> FederationStatus {
        let st = lock(&self.inner.st);
        FederationStatus {
            backends: self
                .inner
                .backends
                .iter()
                .map(|b| {
                    let health = lock(&b.health);
                    BackendSnapshot {
                        id: b.id.clone(),
                        addr: b.addr.clone(),
                        state: health.state(),
                        served: b.served.load(Ordering::Relaxed),
                        failed_over: b.failed_over.load(Ordering::Relaxed),
                        hedge_wins: b.hedge_wins.load(Ordering::Relaxed),
                        probes: b.probes.load(Ordering::Relaxed),
                        recoveries: health.recoveries(),
                    }
                })
                .collect(),
            jobs_active: st.jobs_active,
            jobs_total: st.jobs_total,
            local_units: st.local_units,
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
    /// down. Remote jobs already dispatched are cancelled best-effort.
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

    fn cancel_ctl(&self, ctl: &Arc<JobCtl>) {
        let remote: Vec<(usize, u64)> = {
            let mut st = lock(&ctl.st);
            if !st.stream.cancel() {
                return;
            }
            ctl.cond.notify_all();
            st.remote.keys().copied().collect()
        };
        // Propagate: cancel every in-flight per-backend sub-job so no
        // orphaned unit keeps computing on the fleet.
        for (backend_idx, rjob) in remote {
            self.inner.cancel_remote(backend_idx, rjob, None);
        }
        self.finish_job(ctl.id);
    }

    /// Removes a finished/cancelled job from the live map and wakes
    /// drain waiters. Idempotent.
    fn finish_job(&self, id: u64) {
        finish_job(&self.inner, id);
    }
}

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
            if self.inner.live_backends() == 0 && !self.inner.cfg.local_fallback {
                return Err(SubmitError::Unavailable {
                    backends: self.inner.backends.len(),
                });
            }
            st.next_job += 1;
            st.jobs_total += 1;
            st.jobs_active += 1;
            let id = st.next_job;
            let (stream, rx) = JobStream::new();
            let ctl = Arc::new(JobCtl {
                id,
                grid: Arc::new(grid),
                params,
                st: Mutex::new(JobSt {
                    queue: indices.iter().copied().collect(),
                    resolved: vec![false; n],
                    dispatched: HashMap::new(),
                    remote: HashMap::new(),
                    remaining: indices.len(),
                    stream,
                }),
                cond: Condvar::new(),
            });
            st.jobs.insert(id, Arc::clone(&ctl));
            (id, ctl, rx)
        };
        for (bi, backend) in self.inner.backends.iter().enumerate() {
            let inner = Arc::clone(&self.inner);
            let backend = Arc::clone(backend);
            let ctl = Arc::clone(&ctl);
            std::thread::Builder::new()
                .name(format!("fed-worker-{bi}"))
                .spawn(move || backend_worker(&inner, bi, &backend, &ctl))
                .ok();
        }
        {
            let inner = Arc::clone(&self.inner);
            let ctl = Arc::clone(&ctl);
            std::thread::Builder::new()
                .name("fed-local".to_string())
                .spawn(move || local_worker(&inner, &ctl))
                .ok();
        }
        Ok((id, rx))
    }

    fn cancel_job(&self, job: u64, _hedge: bool) -> bool {
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

    fn render_status(&self, backend_id: Option<&str>) -> String {
        let s = self.status();
        let backend = match backend_id {
            Some(id) => format!("\"backend\": \"{}\", ", json::escape(id)),
            None => String::new(),
        };
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
        format!(
            "{{\"ok\": true, \"kind\": \"status\", \"proto\": {PROTO_VERSION}, {backend}\
             \"workers\": 0, \"jobs_active\": {}, \"jobs_total\": {}, \"queued_units\": 0, \
             \"max_queued_units\": 0, \"draining\": {}, \"points_computed\": 0, \
             \"points_cached\": 0, \"points_coalesced\": 0, \"points_failed\": 0, \
             \"hedge_cancels\": 0, \
             \"federation\": {{\"local_units\": {}, \"backends\": [{fleet}]}}}}",
            s.jobs_active, s.jobs_total, s.draining, s.local_units
        )
    }
}

/// The heartbeat loop: probes every backend each period with a
/// short-deadline `status` call, feeding the health state machine.
/// Dead backends are only re-probed on their backoff schedule.
fn monitor_loop(inner: &Arc<FedInner>) {
    while !inner.shutdown.load(Ordering::SeqCst) {
        for backend in &inner.backends {
            if inner.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let now = inner.now_ms();
            if !lock(&backend.health).should_probe(now) {
                continue;
            }
            backend.probes.fetch_add(1, Ordering::Relaxed);
            let ok = probe(inner, &backend.addr);
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

fn probe(inner: &FedInner, addr: &str) -> bool {
    match Client::connect(addr) {
        Ok(mut client) => {
            client.set_control_timeout(Some(inner.control_timeout()));
            client.status().is_ok()
        }
        Err(_) => false,
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

/// One backend's worker for one job: claims unit chunks (or hedges
/// stragglers), streams them from its backend, and resolves results
/// first-wins into the shared job state. On any backend failure its
/// unresolved units are requeued for the survivors.
fn backend_worker(inner: &Arc<FedInner>, bi: usize, backend: &Arc<Backend>, ctl: &Arc<JobCtl>) {
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let claim = next_claim(inner, bi, ctl);
        let units = match claim {
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
        run_remote(inner, bi, backend, ctl, &units);
    }
}

/// Claims work for backend `bi` under the job lock.
fn next_claim(inner: &FedInner, bi: usize, ctl: &JobCtl) -> Claim {
    let mut st = lock(&ctl.st);
    if st.stream.is_cancelled() || st.remaining == 0 {
        return Claim::Exit;
    }
    if !lock(&inner.backends[bi].health).is_live() {
        return Claim::Wait;
    }
    let now = inner.now_ms();
    if !st.queue.is_empty() {
        // Chunk so every live backend gets a share, capped so failover
        // and hedging keep fine granularity.
        let live = inner.live_backends().max(1);
        let take = st.queue.len().div_ceil(live).clamp(1, 8);
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

/// Streams `units` from backend `bi`, resolving first-wins.
fn run_remote(
    inner: &Arc<FedInner>,
    bi: usize,
    backend: &Arc<Backend>,
    ctl: &Arc<JobCtl>,
    units: &[usize],
) {
    let mut client = match inner.connect(&backend.addr) {
        Ok(c) => c,
        Err(_) => {
            lock(&backend.health).on_failure(&inner.cfg, inner.now_ms());
            // Never started: requeue without counting a failover.
            requeue(ctl, bi, units, backend, false);
            return;
        }
    };
    let study = ctl.grid.study();
    let rjob = match client.start_submit(study, &ctl.params, Some(units)) {
        Ok((rjob, _points)) => rjob,
        Err(SimError::Protocol(ProtocolError::Busy { .. })) => {
            // A busy backend is healthy; hand the units back and let
            // the fleet absorb them.
            requeue(ctl, bi, units, backend, false);
            std::thread::sleep(Duration::from_millis(POLL_MS));
            return;
        }
        Err(_) => {
            // The backend was reachable (the handshake succeeded) and
            // then failed mid-submission — it may have died holding the
            // work, so this is a failover, not a clean handback.
            lock(&backend.health).on_failure(&inner.cfg, inner.now_ms());
            requeue(ctl, bi, units, backend, true);
            return;
        }
    };
    lock(&backend.health).on_success();
    let mut pending: HashSet<usize> = units.iter().copied().collect();
    {
        let mut st = lock(&ctl.st);
        // Units resolved while we were connecting are no longer ours;
        // if that was all of them, this shard lost a hedged race before
        // it started: reclaim the backend's duplicate work.
        pending.retain(|u| !st.resolved[*u]);
        if pending.is_empty() {
            drop(st);
            inner.cancel_remote(bi, rjob, Some("hedge"));
            return;
        }
        st.remote.insert((bi, rjob), pending.clone());
    }
    let n = ctl.grid.n_points();
    // The stream is read to its `done` frame. A frame for an index this
    // shard was never sent is a broken stream, like a reset.
    let clean = loop {
        let (index, attempts, outcome) = match client.next_event(n) {
            Ok(StreamEvent::Point {
                index,
                source,
                attempts,
                summary,
            }) => {
                let source = PointSource::from_wire(&source).unwrap_or(PointSource::Computed);
                (index, attempts, Ok((source, summary)))
            }
            Ok(StreamEvent::Failed {
                index,
                label,
                reason,
                attempts,
            }) => (index, attempts, Err((label, reason))),
            Ok(StreamEvent::Done { .. }) => break true,
            Err(_) => break false,
        };
        if !units.contains(&index) {
            break false;
        }
        pending.remove(&index);
        resolve(inner, bi, Some(backend), ctl, index, attempts, outcome);
    };
    lock(&ctl.st).remote.remove(&(bi, rjob));
    // A done frame with units still pending (a remote job cancelled as
    // a hedge loser or with its federated job) hands them back to the
    // fleet; a broken stream fails them over.
    if !clean {
        lock(&backend.health).on_failure(&inner.cfg, inner.now_ms());
    }
    let leftovers: Vec<usize> = pending.into_iter().collect();
    requeue(ctl, bi, &leftovers, backend, !clean);
}

/// First-wins resolution: marks the unit resolved, forwards its outcome
/// (a point and how it was satisfied, or a failure's label and reason)
/// as an event, credits the resolver (`None` = the local fallback), and
/// cancels any hedge loser whose remote job just went empty.
fn resolve(
    inner: &FedInner,
    bi: usize,
    backend: Option<&Backend>,
    ctl: &JobCtl,
    index: usize,
    attempts: u64,
    outcome: Result<(PointSource, PointSummary), (String, String)>,
) {
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
        if let Some(backend) = backend {
            backend.served.fetch_add(1, Ordering::Relaxed);
            if hedged {
                backend.hedge_wins.fetch_add(1, Ordering::Relaxed);
            }
        }
        let attempts = u32::try_from(attempts).unwrap_or(u32::MAX);
        match outcome {
            Ok((source, summary)) => st
                .stream
                .point(index, source, attempts, summary.to_record()),
            Err((label, reason)) => st.stream.failed(index, label, reason, attempts),
        };
        let mut losers = Vec::new();
        for (key, set) in &mut st.remote {
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
    for (loser_bi, rjob) in losers {
        inner.cancel_remote(loser_bi, rjob, Some("hedge"));
    }
    let finished = lock(&ctl.st).remaining == 0;
    if finished {
        finish_job(inner, ctl.id);
    }
}

/// The graceful-degradation worker: when the whole fleet is dead it
/// drains the queue with local in-process execution — each claimed unit
/// through the sweep's own graph driver ([`run_units`]: the sweep's unit
/// bodies in the sweep's fault domain with the parameters' retry budget,
/// a failed reference cascading with the sweep's reason), so reports stay
/// byte-identical even when units fail. References that landed are
/// carried from claim to claim the way a resumed journal supplies them.
/// With [`FleetConfig::local_fallback`] disabled it fails the stranded
/// units instead so the job still terminates.
fn local_worker(inner: &Arc<FedInner>, ctl: &Arc<JobCtl>) {
    let mut known: Vec<Option<RefValue>> = vec![None; ctl.grid.profiles().len()];
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let unit = {
            let mut st = lock(&ctl.st);
            if st.stream.is_cancelled() || st.remaining == 0 {
                return;
            }
            let all_dead = inner.live_backends() == 0;
            if !all_dead || st.queue.is_empty() {
                let _unused = ctl
                    .cond
                    .wait_timeout(st, Duration::from_millis(POLL_MS))
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            let unit = st.queue.pop_front().expect("checked non-empty");
            st.dispatched.insert(
                unit,
                Dispatched {
                    backends: vec![usize::MAX],
                    first_at_ms: inner.now_ms(),
                },
            );
            unit
        };
        if !inner.cfg.local_fallback {
            let reason = "all fleet backends are dead and local fallback is disabled";
            let failure = (ctl.grid.label(unit), reason.to_string());
            resolve(inner, usize::MAX, None, ctl, unit, 1, Err(failure));
            continue;
        }
        let mut graph = ctl.grid.graph();
        for (pi, st) in known.iter().enumerate() {
            if let Some(st) = *st {
                graph.ref_known(pi, st);
            }
        }
        graph.add_point(unit);
        run_units(
            &mut graph,
            Parallelism::Serial,
            ctl.params.faults.retries,
            |pi| ctl.grid.compute_reference(&ctl.params, pi),
            |index, st| ctl.grid.compute_point(&ctl.params, index, st[0]),
            |index, outcome, attempts| {
                let outcome = outcome
                    .map(|summary| (PointSource::Computed, summary))
                    .map_err(|reason| (ctl.grid.label(index), reason));
                // Count before resolving: resolve() may send the terminal
                // `done` frame, and a consumer reading it must already see
                // every local unit in the gauges.
                lock(&inner.st).local_units += 1;
                resolve(
                    inner,
                    usize::MAX,
                    None,
                    ctl,
                    index,
                    attempts.into(),
                    outcome,
                );
            },
        );
        let (pi, _) = ctl.grid.point(unit);
        known[pi] = graph.ref_value(pi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> FleetConfig {
        FleetConfig {
            backends: vec!["127.0.0.1:1".to_string()],
            dead_after: 3,
            probe_backoff_base_ms: 100,
            probe_backoff_cap_ms: 400,
            ..FleetConfig::default()
        }
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
        let err = Federation::start(FleetConfig {
            backends: Vec::new(),
            ..FleetConfig::default()
        })
        .unwrap_err();
        assert!(matches!(
            err,
            SimError::Federation(FederationError::NoBackends)
        ));
    }

    #[test]
    fn status_summary_names_every_backend() {
        let fed = Federation::start(FleetConfig {
            backends: vec!["127.0.0.1:1".to_string(), "127.0.0.1:2".to_string()],
            heartbeat_ms: 10_000, // keep the monitor quiet for the test
            ..FleetConfig::default()
        })
        .unwrap();
        let status = fed.status();
        assert_eq!(status.backends.len(), 2);
        assert_eq!(status.backends[0].id, "b0");
        let summary = status.summary();
        assert!(summary.contains("b0 127.0.0.1:1"));
        assert!(summary.contains("b1 127.0.0.1:2"));
        let frame = fed.render_status(Some("coord"));
        assert!(frame.contains("\"backend\": \"coord\""));
        assert!(frame.contains("\"federation\": "));
        fed.stop();
    }
}
