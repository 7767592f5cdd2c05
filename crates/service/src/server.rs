//! The `studyd` TCP server: bind, accept, one session thread per
//! connection, all sessions sharing one scheduler pool and one result
//! cache.
//!
//! Production hardening lives here: the cache's persistent spill is
//! opened (and recovered, with corrupt-record quarantine, through
//! [`Cache::load_spill`]) before the listener binds, admission control and chaos policy are threaded into
//! the scheduler, and the `shutdown` op carries a [`ShutdownMode`] so a
//! drain — stop admitting, finish in-flight work, flush the spill —
//! can be distinguished from an immediate stop. A coordinator
//! ([`ServeConfig::fleet`]) is built the same way: its scheduler is the
//! federation's fallback backend.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use speedup_stacks::SimError;

use crate::cache::Cache;
use crate::chaos::ChaosPolicy;
use crate::federation::{Federation, FleetConfig};
use crate::proto::io_err;
use crate::scheduler::{SchedOptions, Scheduler};
use crate::session::{self, Dispatch, SessionCtx};

/// How a client asked the server to shut down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownMode {
    /// Stop now; queued work is abandoned.
    Immediate,
    /// Stop admitting new work, finish in-flight jobs, flush the cache
    /// spill, then stop.
    Drain,
}

/// Server configuration with offline-friendly defaults.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` asks the OS for a free port.
    pub addr: String,
    /// Worker-pool size; `0` = one per available CPU.
    pub workers: usize,
    /// Result-cache byte budget.
    pub cache_bytes: usize,
    /// Admission bound on queued work units; `0` = unbounded.
    pub max_queued_units: usize,
    /// Idle-connection reaper timeout; `None` = never reap.
    pub idle_timeout_ms: Option<u64>,
    /// Path of the persistent cache spill; `None` = in-memory only.
    pub cache_spill: Option<PathBuf>,
    /// Deterministic fault injection for the chaos suite.
    pub chaos: ChaosPolicy,
    /// Run as a **federation coordinator** over this fleet: the same
    /// wire protocol, but submits are sharded across `fleet.backends`
    /// (with health checks, failover and hedging). The server built
    /// without it — cache, spill and scheduler, sized by the fields above
    /// — is the fleet's fallback backend, taking the work while no
    /// backend is live. `None` serves as a plain backend.
    pub fleet: Option<FleetConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            cache_bytes: 64 * 1024 * 1024,
            max_queued_units: 0,
            idle_timeout_ms: None,
            cache_spill: None,
            chaos: ChaosPolicy::default(),
            fleet: None,
        }
    }
}

/// A running server: its bound address, its scheduler and cache (and,
/// on a coordinator, the federation in front of them), and the handles
/// needed to stop it cleanly.
pub struct ServerHandle {
    local_addr: SocketAddr,
    stop_flag: Arc<AtomicBool>,
    shutdown_rx: Receiver<ShutdownMode>,
    accept: Mutex<Option<JoinHandle<()>>>,
    scheduler: Arc<Scheduler>,
    cache: Arc<Cache>,
    federation: Option<Arc<Federation>>,
}

/// Binds and starts serving — a backend, or with [`ServeConfig::fleet`]
/// set a coordinator in front of one. Returns as soon as the listener is
/// live; sessions and sweeps run on background threads. With a
/// configured spill path the cache is recovered from disk first —
/// complete, CRC-valid records warm the cache, corrupt records are
/// quarantined (counted, recomputed, never served), and a torn final
/// line from a `kill -9` is dropped silently. A reload that read a dead
/// record compacts the file to the live set ([`Cache::load_spill`]).
///
/// # Errors
///
/// [`SimError::Protocol`] when the bind fails; [`SimError::Journal`]
/// when the spill file exists but has a wrong or non-matching header;
/// [`SimError::Config`] when the fleet lists no backend.
pub fn serve(cfg: &ServeConfig) -> Result<ServerHandle, SimError> {
    let cache = Arc::new(Cache::new(cfg.cache_bytes));
    if let Some(path) = &cfg.cache_spill {
        cache.load_spill(path)?;
    }
    let listener = TcpListener::bind(&cfg.addr).map_err(|e| io_err("bind", &e))?;
    let local_addr = listener.local_addr().map_err(|e| io_err("bind", &e))?;

    let workers = if cfg.workers == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        cfg.workers
    };
    let scheduler = Arc::new(Scheduler::start(
        workers,
        Arc::clone(&cache),
        SchedOptions {
            max_queued_units: cfg.max_queued_units,
            chaos: cfg.chaos.clone(),
        },
    ));
    let fleet = cfg.fleet.clone();
    let federation = match fleet.map(|fleet| Federation::start(fleet, Arc::clone(&scheduler))) {
        None => None,
        Some(Ok(federation)) => Some(Arc::new(federation)),
        Some(Err(e)) => {
            scheduler.stop();
            return Err(e);
        }
    };
    let engine: Arc<dyn Dispatch> = match &federation {
        Some(federation) => Arc::clone(federation) as Arc<dyn Dispatch>,
        None => Arc::clone(&scheduler) as Arc<dyn Dispatch>,
    };

    let stop_flag = Arc::new(AtomicBool::new(false));
    let (shutdown_tx, shutdown_rx) = channel();
    let ctx = Arc::new(SessionCtx {
        engine,
        shutdown_tx,
        idle_timeout: cfg.idle_timeout_ms.map(Duration::from_millis),
    });
    let accept = {
        let stop_flag = Arc::clone(&stop_flag);
        std::thread::Builder::new()
            .name("studyd-accept".to_string())
            .spawn(move || loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stop_flag.load(Ordering::SeqCst) {
                            return;
                        }
                        let ctx = Arc::clone(&ctx);
                        std::thread::Builder::new()
                            .name("studyd-session".to_string())
                            .spawn(move || {
                                session::run(stream, &ctx);
                            })
                            .ok();
                    }
                    Err(_) => {
                        if stop_flag.load(Ordering::SeqCst) {
                            return;
                        }
                    }
                }
            })
            .map_err(|e| io_err("spawn", &e))?
    };

    Ok(ServerHandle {
        local_addr,
        stop_flag,
        shutdown_rx,
        accept: Mutex::new(Some(accept)),
        scheduler,
        cache,
        federation,
    })
}

impl ServerHandle {
    /// The actually-bound address (resolves port `0`).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared scheduler (status, tests) — on a coordinator, the
    /// fleet's fallback backend.
    #[must_use]
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// The shared result cache (stats, tests).
    #[must_use]
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// The federation coordinator in front of the scheduler; `None` on a
    /// plain backend.
    #[must_use]
    pub fn federation(&self) -> Option<&Federation> {
        self.federation.as_deref()
    }

    /// Blocks until some client sends the `shutdown` op; returns the
    /// requested mode (immediate when the channel closed unexpectedly).
    pub fn wait_for_shutdown(&self) -> ShutdownMode {
        self.shutdown_rx.recv().unwrap_or(ShutdownMode::Immediate)
    }

    /// The drain barrier: waits for every in-flight job to finish (the
    /// session already stopped admission before acknowledging the
    /// drain) — on a coordinator the federation's jobs first, then the
    /// fallback's — then **compacts** the cache spill, rewriting it from
    /// the live LRU so dead (superseded or quarantined) records do not
    /// accumulate across restarts. If compaction fails the spill is
    /// synced as-is instead, so a drain never loses data it already had.
    /// Call between [`ServerHandle::wait_for_shutdown`] returning
    /// [`ShutdownMode::Drain`] and [`ServerHandle::stop`].
    pub fn drain(&self) {
        if let Some(federation) = &self.federation {
            federation.begin_drain();
            federation.wait_idle();
        }
        self.scheduler.begin_drain();
        self.scheduler.wait_idle();
        if let Err(e) = self.cache.compact() {
            crate::stderr_line(format_args!(
                "studyd: spill compaction failed during drain ({e}); syncing as-is"
            ));
            if let Err(e) = self.cache.sync() {
                crate::stderr_line(format_args!(
                    "studyd: cache spill sync failed during drain: {e}"
                ));
            }
        }
    }

    /// Stops accepting, then stops the federation (if any) and the
    /// worker pool. Live sessions whose clients are still connected end
    /// when those clients disconnect.
    pub fn stop(&self) {
        self.stop_flag.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        TcpStream::connect(self.local_addr).ok();
        if let Some(h) = self
            .accept
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            h.join().ok();
        }
        if let Some(federation) = &self.federation {
            federation.stop();
        }
        self.scheduler.stop();
    }
}
