//! `studyd`: the long-lived study service.
//!
//! The paper's figure sweeps are embarrassingly parallel grids of
//! deterministic simulation points; this crate turns the `repro` driver
//! into a client/server pair so many consumers can share one simulator
//! pool and one result cache:
//!
//! - [`proto`] — the line-delimited JSON wire protocol (versioned
//!   handshake, typed error frames, bounded line lengths);
//! - [`cache`] — the content-addressed result cache (LRU byte budget;
//!   a key names what a unit computes, so studies share entries) and
//!   its spill file, a record log of [`experiments::journal`] holding
//!   the sweep journal's keyed entries, reloaded with quarantine on
//!   restart so `kill -9` loses nothing but the line being written;
//! - [`scheduler`] — the shared worker pool with fair round-robin
//!   sharding across jobs, per-unit fault domains, in-flight request
//!   coalescing (by the same unit identity, across studies), admission
//!   control and graceful drain;
//! - [`server`] / [`session`] — the TCP listener and per-connection
//!   request loop (idle-connection reaping included);
//! - [`client`] — connect/submit/reassemble, producing reports
//!   **byte-identical** to local runs, with capped exponential backoff
//!   against `busy` replies and split control/data read deadlines so a
//!   wedged backend is detected in bounded time;
//! - [`federation`] — the multi-backend coordinator: health-checked
//!   fan-out of grid units across a fleet, automatic failover and
//!   straggler retries on a second backend, still byte-identical; its
//!   fallback when the whole fleet is dead is the coordinator's own
//!   scheduler, driven through the same link as every remote backend;
//! - [`chaos`] — the one fault injected from inside: a panic at a chosen
//!   work unit.
//!
//! Everything is `std`-only — `TcpListener`, `TcpStream` and threads —
//! matching the repo's no-external-dependencies rule. Protocol and
//! socket failures surface as
//! [`speedup_stacks::SimError::Protocol`] (exit code 10); nothing in
//! this crate unwraps socket I/O.
//!
//! # Examples
//!
//! An in-process server round trip:
//!
//! ```
//! use experiments::study::StudyParams;
//! use service::{client::Client, server};
//!
//! let handle = server::serve(&server::ServeConfig {
//!     workers: 1,
//!     ..server::ServeConfig::default()
//! })
//! .unwrap();
//! let mut client = Client::connect(&handle.local_addr().to_string()).unwrap();
//! assert_eq!(client.list().unwrap().len(), 12);
//! let params = StudyParams {
//!     scale: 0.01,
//!     threads: Some(vec![2]),
//!     ..StudyParams::default()
//! };
//! let outcome = client.submit("fig1", &params).unwrap();
//! assert_eq!(outcome.report.study, "fig1");
//! handle.stop();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod chaos;
pub mod client;
pub mod federation;
pub mod proto;
pub mod scheduler;
pub mod server;
pub mod session;

pub use client::{Client, SubmitOutcome};
pub use federation::{Federation, FederationStatus, FleetConfig, HealthState};
pub use server::{serve, ServeConfig, ServerHandle, ShutdownMode};

/// Writes one diagnostic line to stderr — every stderr line `repro` and
/// `studyd` print goes through here. A stderr that cannot take the line
/// (closed, or a pipe nobody reads) loses it: a diagnostic never turns
/// into a panic, as `eprintln!` would.
pub fn stderr_line(line: impl std::fmt::Display) {
    use std::io::Write;
    let _ = writeln!(std::io::stderr().lock(), "{line}");
}
