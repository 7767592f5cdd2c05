//! # Speedup stacks
//!
//! A library for computing **speedup stacks**, the scaling-bottleneck
//! decomposition for multi-threaded applications introduced by Eyerman,
//! Du Bois and Eeckhout in *"Speedup Stacks: Identifying Scaling
//! Bottlenecks in Multi-Threaded Applications"* (ISPASS 2012).
//!
//! A speedup stack is a stacked bar of height `N` (the number of
//! threads/cores). Its components are the *achieved speedup* plus a set of
//! *scaling delimiters* — the reasons the application does not achieve the
//! ideal `N`-fold speedup:
//!
//! - negative interference in the shared last-level cache (LLC),
//! - negative interference in the memory subsystem (bus, banks, open pages),
//! - spinning on lock and barrier variables,
//! - yielding (threads scheduled out while waiting),
//! - load imbalance,
//! - cache coherency, and
//! - parallelization overhead.
//!
//! Positive interference (inter-thread hits in the shared LLC) *adds* to
//! the achieved speedup and is reported as its own component.
//!
//! The key property is that a speedup stack is computed from a **single
//! multi-threaded run**: a per-thread cycle accounting architecture
//! (modelled in [`counters`] and [`accounting`]) attributes cycles to each
//! delimiter, and the single-threaded execution time — hence the speedup —
//! is *estimated* by subtracting those components from the measured
//! per-thread execution time ([`estimate`]).
//!
//! ## Quick example
//!
//! ```
//! use speedup_stacks::{ThreadCounters, AccountingConfig, SpeedupStack};
//!
//! // Raw counters for a 2-thread run lasting 1000 cycles, as produced by
//! // the cycle accounting hardware (or a simulator such as `cmpsim`).
//! let tp = 1_000u64;
//! let threads = vec![
//!     ThreadCounters { active_end_cycle: 1000, spin_cycles: 50.0,
//!                      ..ThreadCounters::default() },
//!     ThreadCounters { active_end_cycle: 900, yield_cycles: 40.0,
//!                      ..ThreadCounters::default() },
//! ];
//! let stack = SpeedupStack::from_counters(&threads, tp, &AccountingConfig::default())?;
//! assert_eq!(stack.num_threads(), 2);
//! // Components plus base speedup always sum to N.
//! assert!((stack.base_speedup() + stack.total_overhead() - 2.0).abs() < 1e-9);
//! # Ok::<(), speedup_stacks::StackError>(())
//! ```
//!
//! ## Crate map
//!
//! - [`components`] — the component vocabulary ([`Component`], [`Breakdown`]).
//! - [`counters`] — raw per-thread event counts ([`ThreadCounters`]).
//! - [`accounting`] — turning raw counters into per-thread cycle components
//!   (extrapolation for sampled negative interference, interpolation for
//!   positive interference, imbalance fill).
//! - [`crc`] — the CRC-32 shared by the journal and trace formats.
//! - [`stack`] — the [`SpeedupStack`] type and its invariants.
//! - [`estimate`] — the paper's formulas (Eqs. 1–6): estimated
//!   single-threaded time, estimated speedup, validation error.
//! - [`render`] — ASCII rendering of stacks (Figure 2 / Figure 5 style).
//! - [`report`] — structured experiment reports ([`Report`]): typed
//!   tables, scalar metrics with units and stack groups, with text, JSON
//!   and CSV emitters (the uniform output model of the study registry).
//! - [`classify`] — the benchmark classification tree (Figure 6).
//! - [`hwcost`] — the hardware cost model (§4.7: 1.1 KB/core, 18 KB total).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accounting;
pub mod classify;
pub mod components;
pub mod counters;
pub mod crc;
pub mod error;
pub mod estimate;
pub mod hwcost;
pub mod render;
pub mod report;
pub mod stack;

pub use accounting::{AccountingConfig, ThreadBreakdown};
pub use classify::{ClassificationConfig, ClassificationTree, ClassifiedBenchmark, ScalingClass};
pub use components::{Breakdown, Component};
pub use counters::ThreadCounters;
pub use error::{ConfigError, JournalError, SimError, StackError, TraceError};
pub use estimate::{estimated_speedup, speedup_error, ValidationPoint};
pub use hwcost::HardwareCostModel;
pub use report::Report;
pub use stack::SpeedupStack;
