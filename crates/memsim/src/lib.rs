//! # memsim — memory-hierarchy substrate
//!
//! A deterministic, cycle-approximate model of the memory system of a
//! chip-multiprocessor, built as the substrate for the speedup-stacks
//! reproduction (ISPASS 2012). It models exactly the structures the
//! paper's accounting architecture observes:
//!
//! - per-core private L1 data caches with MESI-style invalidation
//!   ([`cache`], [`hierarchy`]),
//! - a shared, inclusive last-level cache ([`llc`]) whose slots carry the
//!   sharer mask of each line,
//! - per-core **auxiliary tag directories** with set sampling, which
//!   classify inter-thread misses (negative interference) and inter-thread
//!   hits (positive interference) ([`atd`]),
//! - a banked DRAM with a shared bus and an open-page policy, attributing
//!   bus/bank/page waits to interfering cores ([`dram`]), including the
//!   per-core **open row arrays** (ORA).
//!
//! The top-level entry point is [`MemoryHierarchy::access`], which performs
//! one load or store on behalf of a core at a given cycle and returns an
//! [`AccessEvent`] describing where it was served, its latency and every
//! interference classification the accounting architecture needs.
//!
//! The crate is intentionally free of any notion of threads or
//! instructions — that lives in `cmpsim`. All state here is advanced in
//! global time order by the caller.
//!
//! ## Hot-path representation
//!
//! Every structure on the access path is *flat*: caches are
//! structure-of-arrays tables with compact 32-bit tags, per-set status
//! bitmasks and per-set LRU orderings — nibble-packed up to 16 ways,
//! byte-ranked up to 64 ways, selected per config ([`cache`]); the
//! sharers of a line are `ceil(n_cores / 64)` mask words stored with its
//! LLC slot and addressed by `(set, way)`, so coherence needs no lookup
//! structure ([`hierarchy`]). An access allocates nothing at any core
//! count.
//!
//! ## Example
//!
//! ```
//! use memsim::{MemConfig, MemoryHierarchy, ServedBy};
//!
//! let mut mem = MemoryHierarchy::new(&MemConfig::default(), 2);
//! // Core 0 loads line 42 at cycle 0: cold miss, served by DRAM.
//! let ev = mem.access(0, 42, false, 0);
//! assert_eq!(ev.level, ServedBy::Dram);
//! // Second access hits in the L1.
//! let ev = mem.access(0, 42, false, ev.latency_beyond_l1);
//! assert_eq!(ev.level, ServedBy::L1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod atd;
pub mod cache;
pub mod dram;
pub mod hierarchy;
pub mod llc;

pub use atd::Atd;
pub use cache::{Cache, CacheConfig, CacheOutcome};
pub use dram::{Dram, DramAccess, DramConfig};
pub use hierarchy::{AccessEvent, MemConfig, MemoryHierarchy, ServedBy};
pub use llc::{LlcOutcome, SharedLlc};

/// A cache-line address: the byte address divided by the line size.
///
/// All of `memsim` operates on line addresses; byte-to-line conversion
/// (typically `addr >> 6` for 64-byte lines) is the caller's concern.
pub type LineAddr = u64;

/// Index of a hardware core.
pub type CoreId = usize;
