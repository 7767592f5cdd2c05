//! `studyd` — the long-lived study server.
//!
//! Usage:
//!
//! ```text
//! studyd [--addr HOST:PORT] [--workers N] [--cache-mib N]
//!        [--max-queued-units N] [--idle-timeout-ms N] [--cache-spill PATH]
//!        [--backend HOST:PORT ...] [--hedge-after-ms N] [--no-hedge]
//!        [--heartbeat-ms N] [--dead-after N]
//! ```
//!
//! The one daemon: a backend, or with `--backend` the one fleet
//! coordinator. Binds (default `127.0.0.1:7821`), prints the bound
//! address, then serves `repro submit` clients until one sends the
//! `shutdown` op (`repro shutdown`).
//! `--workers` sizes the shared simulation pool (default: one per
//! available CPU); `--cache-mib` bounds the key + value bytes of the
//! content-addressed result cache (default 64 MiB; the cache's own
//! bookkeeping adds a constant per live entry, however many hits it
//! serves); `--max-queued-units` bounds the work queue
//! (overload answers a typed `busy` with `retry_after_ms`; default
//! unbounded); `--idle-timeout-ms` reaps connections idle past the
//! deadline; `--cache-spill` persists the result cache to an
//! append-only CRC-framed file, recovered (with corrupt-record
//! quarantine) on restart — even after a `kill -9` — and rewritten
//! from the live cache at startup whenever the reload read a dead
//! (superseded, evicted or quarantined) record, and at every drain.
//! A backend does not know it is in a fleet: it answers a coordinator
//! as it answers any client.
//!
//! With one or more `--backend HOST:PORT` flags the daemon runs as a
//! **federation coordinator** instead: it serves the same wire protocol
//! but shards each submitted grid across the named backends, health
//! checks them, fails work over from dead backends and hedges
//! stragglers (`--hedge-after-ms`, default 2000; `--no-hedge` disables).
//! While the whole fleet is dead it computes the work itself, on the
//! backend it would have been without `--backend`: the server flags
//! above (`--workers`, `--cache-mib`, `--cache-spill`, …) size that
//! fallback. `--heartbeat-ms` (default 500) and `--dead-after` (default
//! 3) tune the health monitor; a dead backend is re-probed after one
//! heartbeat, then two, then every four. When a coordinator stops it
//! prints one `fleet:` line per backend to stderr, naming it `b0`, `b1`,
//! … in `--backend` order: health, units served, failovers and hedge
//! wins.
//!
//! A `shutdown` with `"mode": "drain"` stops admission, finishes
//! in-flight jobs, flushes (and compacts) the spill, and exits 0.
//!
//! Exit codes: 0 clean shutdown, 1 usage error, 5 corrupt spill
//! header, 10 protocol/socket failure (the
//! [`speedup_stacks::SimError`] codes). Every stderr line goes through
//! [`service::stderr_line`], so a closed stderr changes no exit code.

use std::io::Write;
use std::process::ExitCode;

use service::federation::FleetConfig;
use service::server::{serve, ServeConfig, ShutdownMode};
use service::stderr_line;

const USAGE: &str = "usage: studyd [--addr HOST:PORT] [--workers N] [--cache-mib N] \
[--max-queued-units N] [--idle-timeout-ms N] [--cache-spill PATH] \
[--backend HOST:PORT ...] [--hedge-after-ms N] [--no-hedge] [--heartbeat-ms N] [--dead-after N]";

/// The conventional loopback port `repro submit` defaults to.
const DEFAULT_ADDR: &str = "127.0.0.1:7821";

/// Parses every flag in one pass into the server's [`ServeConfig`],
/// whose [`FleetConfig`] is set when at least one `--backend` was given.
fn parse_args(args: &[String]) -> Result<ServeConfig, String> {
    let mut cfg = ServeConfig {
        addr: DEFAULT_ADDR.to_string(),
        ..ServeConfig::default()
    };
    let mut fleet = FleetConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => match it.next() {
                Some(addr) if !addr.starts_with("--") => cfg.addr = addr.clone(),
                _ => return Err("--addr requires HOST:PORT".to_string()),
            },
            "--workers" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => cfg.workers = n,
                _ => return Err("--workers requires a worker count >= 1".to_string()),
            },
            "--cache-mib" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(mib) if mib >= 1 => cfg.cache_bytes = mib * 1024 * 1024,
                _ => return Err("--cache-mib requires a budget in MiB >= 1".to_string()),
            },
            "--max-queued-units" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => cfg.max_queued_units = n,
                _ => return Err("--max-queued-units requires a unit count (0 = unbounded)".into()),
            },
            "--idle-timeout-ms" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(ms) if ms >= 1 => cfg.idle_timeout_ms = Some(ms),
                _ => return Err("--idle-timeout-ms requires a timeout in ms >= 1".to_string()),
            },
            "--cache-spill" => match it.next() {
                Some(path) if !path.starts_with("--") => cfg.cache_spill = Some(path.into()),
                _ => return Err("--cache-spill requires a file path".to_string()),
            },
            "--backend" => match it.next() {
                Some(addr) if !addr.starts_with("--") => fleet.backends.push(addr.clone()),
                _ => return Err("--backend requires HOST:PORT".to_string()),
            },
            "--hedge-after-ms" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(ms) => fleet.hedge_after_ms = Some(ms),
                _ => return Err("--hedge-after-ms requires a deadline in ms".to_string()),
            },
            "--no-hedge" => fleet.hedge_after_ms = None,
            "--heartbeat-ms" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(ms) if ms >= 1 => fleet.heartbeat_ms = ms,
                _ => return Err("--heartbeat-ms requires a period in ms >= 1".to_string()),
            },
            "--dead-after" => match it.next().and_then(|v| v.parse::<u32>().ok()) {
                Some(n) if n >= 1 => fleet.dead_after = n,
                _ => return Err("--dead-after requires a failure count >= 1".to_string()),
            },
            other => return Err(format!("unknown option: {other}")),
        }
    }
    cfg.fleet = (!fleet.backends.is_empty()).then_some(fleet);
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            stderr_line(format_args!("studyd: {message}"));
            stderr_line(USAGE);
            return ExitCode::FAILURE;
        }
    };
    match serve(&cfg) {
        Ok(handle) => {
            // Flush explicitly: supervisors reading a pipe must see the
            // bound address before the first client connects.
            println!("studyd: listening on {}", handle.local_addr());
            std::io::stdout().flush().ok();
            if handle.wait_for_shutdown() == ShutdownMode::Drain {
                handle.drain();
            }
            handle.stop();
            if let Some(federation) = handle.federation() {
                stderr_line(federation.status().summary().trim_end());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            stderr_line(format_args!("studyd: {e}"));
            ExitCode::from(e.exit_code())
        }
    }
}
