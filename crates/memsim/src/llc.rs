//! The shared, inclusive last-level cache.
//!
//! Each LLC line remembers the core that inserted it, giving the
//! *ground-truth* inter-thread hit signal ("data previously brought into
//! the shared LLC by another thread", §4.2) against which the sampled ATD
//! classification can be validated.

use crate::cache::{Cache, CacheConfig};
use crate::{CoreId, LineAddr};

/// Per-line LLC metadata: the inserting core (kept at 16 bits to bound
/// the metadata array; caps the simulator at 65 536 cores, far above any
/// practical sharer-mask width).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct LlcMeta {
    inserter: u16,
}

/// Result of an LLC access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcOutcome {
    /// The access hit in the shared LLC.
    pub hit: bool,
    /// Ground truth: the access hit a line inserted by *another* core.
    pub interthread_hit_truth: bool,
    /// A valid line was evicted to make room: `(line, was_dirty)`. The
    /// caller must back-invalidate L1 copies (inclusion) and write back
    /// dirty data.
    pub evicted: Option<(LineAddr, bool)>,
    /// The way now holding the line. Stable until the line is evicted
    /// (which back-invalidates all L1 copies), so L1s may keep it as a
    /// probe-free writeback handle for [`SharedLlc::writeback_at`].
    pub way: u8,
}

/// The shared LLC.
///
/// # Examples
///
/// ```
/// use memsim::{CacheConfig, SharedLlc};
/// let mut llc = SharedLlc::new(CacheConfig::new(64, 4));
/// assert!(!llc.access(0, 7, false).hit);        // core 0 brings the line in
/// let out = llc.access(1, 7, false);            // core 1 reuses it
/// assert!(out.hit && out.interthread_hit_truth);
/// ```
#[derive(Debug, Clone)]
pub struct SharedLlc {
    cache: Cache<LlcMeta>,
}

impl SharedLlc {
    /// Creates an empty LLC with the given geometry.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        SharedLlc {
            cache: Cache::new(cfg),
        }
    }

    /// The LLC geometry.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.cache.config()
    }

    /// Accesses `line` on behalf of `core`.
    pub fn access(&mut self, core: CoreId, line: LineAddr, write: bool) -> LlcOutcome {
        debug_assert!(core <= usize::from(u16::MAX), "inserter id overflows u16");
        let meta = LlcMeta {
            inserter: core as u16,
        };
        let out = self.cache.access(line, write, meta);
        LlcOutcome {
            hit: out.hit,
            interthread_hit_truth: out.hit_meta.is_some_and(|m| m.inserter as usize != core),
            evicted: out.evicted.map(|(l, d, _)| (l, d)),
            way: out.way,
        }
    }

    /// Marks a resident line dirty (L1 writeback landing in the LLC).
    /// Returns `true` if the line was resident.
    pub fn writeback(&mut self, line: LineAddr) -> bool {
        self.cache.mark_dirty(line)
    }

    /// Probe-free writeback: marks `line` dirty at its known `way` (the
    /// handle from [`LlcOutcome::way`]; valid while any L1 holds the
    /// line, since evicting the LLC line back-invalidates every copy).
    #[inline]
    pub fn writeback_at(&mut self, line: LineAddr, way: u8) {
        self.cache.mark_dirty_at(line, way);
    }

    /// Non-destructive presence check.
    #[must_use]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.cache.contains(line)
    }

    /// Number of resident lines (diagnostics).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.cache.occupancy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_core_reuse_is_not_interthread() {
        let mut llc = SharedLlc::new(CacheConfig::new(16, 2));
        llc.access(0, 5, false);
        let out = llc.access(0, 5, false);
        assert!(out.hit);
        assert!(!out.interthread_hit_truth);
    }

    #[test]
    fn other_core_reuse_is_interthread() {
        let mut llc = SharedLlc::new(CacheConfig::new(16, 2));
        llc.access(3, 5, false);
        let out = llc.access(0, 5, false);
        assert!(out.interthread_hit_truth);
    }

    #[test]
    fn inserter_not_overwritten_by_hit() {
        let mut llc = SharedLlc::new(CacheConfig::new(16, 2));
        llc.access(3, 5, false);
        llc.access(0, 5, false);
        // Core 3 hits its own line again: still not inter-thread.
        let out = llc.access(3, 5, false);
        assert!(!out.interthread_hit_truth);
    }

    #[test]
    fn eviction_reported_for_inclusion() {
        let mut llc = SharedLlc::new(CacheConfig::new(1, 2));
        llc.access(0, 1, true);
        llc.access(0, 2, false);
        let out = llc.access(0, 3, false);
        assert_eq!(out.evicted, Some((1, true)));
    }

    #[test]
    fn writeback_marks_dirty() {
        let mut llc = SharedLlc::new(CacheConfig::new(1, 2));
        llc.access(0, 1, false);
        assert!(llc.writeback(1));
        llc.access(0, 2, false);
        let out = llc.access(0, 3, false);
        assert_eq!(out.evicted, Some((1, true)));
        assert!(!llc.writeback(99));
    }
}
