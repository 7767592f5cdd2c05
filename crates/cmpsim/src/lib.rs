//! # cmpsim — deterministic chip-multiprocessor simulator
//!
//! An event-driven, cycle-approximate CMP simulator built as the execution
//! substrate for the speedup-stacks reproduction (ISPASS 2012). It plays
//! the role gem5 plays in the paper: it runs multi-threaded workloads on a
//! model of a multi-core machine and drives the per-thread cycle
//! accounting architecture.
//!
//! The machine model comprises:
//!
//! - `n` cores with an out-of-order stall-exposure model
//!   ([`CoreModelConfig`]),
//! - the full [`memsim`] memory hierarchy (private L1s, shared inclusive
//!   LLC with per-core ATDs, MESI-style coherence, banked open-page DRAM
//!   with ORAs),
//! - a spin-then-yield synchronization substrate (locks and barriers) and
//!   an OS scheduler with run queues, context-switch costs and round-robin
//!   preemption, so workloads may have more software threads than cores
//!   (Figure 7),
//! - hardware-plausible spin detectors ([`spin`]) feeding the accounting.
//!
//! Workloads are streams of abstract operations ([`Op`]) — compute, loads,
//! stores, lock acquire/release and barriers — one stream per thread.
//! Executions are **deterministic**: events leave one binary heap in
//! `(time, seq)` order ([`event_queue`]), `seq` being taken when an event
//! is scheduled, so the same configuration and streams produce
//! bit-identical results.
//!
//! ## Example: measuring a speedup stack
//!
//! ```
//! use cmpsim::{simulate, MachineConfig, Op, VecStream};
//! use speedup_stacks::AccountingConfig;
//!
//! let mk = |n: u32| -> Box<dyn cmpsim::OpStream> {
//!     Box::new(VecStream::new(vec![Op::Compute(n * 1000), Op::Barrier(0)]))
//! };
//! let result = simulate(MachineConfig::with_cores(2), vec![mk(1), mk(2)])?;
//! let stack = result.stack(&AccountingConfig::default())?;
//! assert_eq!(stack.num_threads(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod engine;
pub mod event_queue;
pub mod ops;
pub mod regions;
pub mod spin;

pub use config::{CoreModelConfig, MachineConfig, SchedConfig, SpinDetectorKind, SyncConfig};
pub use engine::{simulate, RegionSnapshot, SimError, SimResult, Simulation, ThreadTruth};
pub use ops::{BarrierId, LockId, Op, OpStream, VecStream};
pub use regions::{region_counters, region_stacks, Region};

/// Converts a byte address to a cache-line address (64-byte lines).
///
/// ```
/// assert_eq!(cmpsim::line_of(0), 0);
/// assert_eq!(cmpsim::line_of(64), 1);
/// assert_eq!(cmpsim::line_of(130), 2);
/// ```
#[must_use]
pub fn line_of(byte_addr: u64) -> memsim::LineAddr {
    byte_addr >> 6
}
