//! Boundary-configuration coverage for the many-core representations,
//! exercised through the full hierarchy rather than unit tables:
//!
//! - core counts 63/64/65/128 straddle the step from one to two words
//!   of sharer mask per LLC line (one `u64` word covers 64 cores);
//! - associativities 15/16/17/32 straddle the packed→wide switch of the
//!   per-set LRU encoding (nibble-packed up to 16 ways).
//!
//! Every configuration must behave identically across the switch: stores
//! invalidate exactly the remote sharers, inclusion back-invalidation
//! reaches every holder, replacement is true LRU, and replay is
//! deterministic.

use memsim::{CacheConfig, MemConfig, MemoryHierarchy, ServedBy};

/// The boundary core counts around the 64-core one-word mask limit.
const CORE_BOUNDARIES: [usize; 4] = [63, 64, 65, 128];

/// The boundary associativities around the 16-way packed-LRU limit.
const WAY_BOUNDARIES: [usize; 4] = [15, 16, 17, 32];

fn config_with_llc_ways(ways: usize) -> MemConfig {
    MemConfig {
        l1: CacheConfig::new(4, 2),
        // Small but wide: 16 sets of `ways` ways keeps streams short.
        llc: CacheConfig::new(16, ways),
        atd_sample_period: 1,
        ..MemConfig::default()
    }
}

#[test]
fn store_invalidates_all_remote_sharers_at_core_boundaries() {
    for n in CORE_BOUNDARIES {
        let mut m = MemoryHierarchy::new(&MemConfig::default(), n);
        // Every core reads the line, so every L1 holds a copy.
        for c in 0..n {
            m.access(c, 7, false, (c as u64) * 10);
        }
        // A store by the last core invalidates the other n-1 copies.
        let st = m.access(n - 1, 7, true, n as u64 * 10);
        assert_eq!(st.invalidations_sent as usize, n - 1, "{n} cores");
        // Each remote core re-reads: a coherency miss, not an L1 hit.
        for c in [0, n / 2, n - 2] {
            let rd = m.access(c, 7, false, (n + c) as u64 * 10 + 1000);
            assert_ne!(rd.level, ServedBy::L1, "{n} cores, core {c}");
            assert!(rd.coherency_miss, "{n} cores, core {c}");
        }
        // The writer still hits.
        let wr = m.access(n - 1, 7, false, 10 * n as u64 + 5000);
        assert_eq!(wr.level, ServedBy::L1, "{n} cores");
    }
}

#[test]
fn inclusion_back_invalidation_reaches_high_cores() {
    // LLC with one tiny set per boundary count: force an eviction of a
    // line shared by the highest-numbered cores and verify their L1
    // copies die with it (back-invalidation walks both mask words).
    for n in CORE_BOUNDARIES {
        let cfg = MemConfig {
            l1: CacheConfig::new(4, 2),
            llc: CacheConfig::new(1, 2),
            atd_sample_period: 1,
            ..MemConfig::default()
        };
        let mut m = MemoryHierarchy::new(&cfg, n);
        // The two highest cores share line 0 (LLC way 1 of 2).
        m.access(n - 1, 0, false, 0);
        m.access(n - 2, 0, false, 10);
        m.access(0, 1, false, 20);
        // Third distinct line evicts the LRU LLC line (0) and must
        // back-invalidate both high cores' L1s.
        m.access(0, 2, false, 30);
        let a = m.access(n - 1, 0, false, 10_000);
        assert_eq!(a.level, ServedBy::Dram, "{n} cores: inclusion violated");
        assert!(!a.coherency_miss, "{n} cores: back-invalidation marked coh");
    }
}

#[test]
fn llc_replacement_is_true_lru_at_way_boundaries() {
    for ways in WAY_BOUNDARIES {
        let cfg = config_with_llc_ways(ways);
        let mut m = MemoryHierarchy::new(&cfg, 1);
        let set_stride = 16u64; // lines i*16 share LLC set 0
        let mut t = 0u64;
        let mut go = |m: &mut MemoryHierarchy, line: u64| {
            t += 100;
            m.access(0, line, false, t)
        };
        // L1 is 4x2 so at most 2 of these survive in the L1; the LLC set
        // fills with `ways` distinct lines.
        for i in 0..ways as u64 {
            go(&mut m, i * set_stride);
        }
        // Re-touch every line except victim `3`, oldest-first.
        for i in (0..ways as u64).filter(|&i| i != 3) {
            go(&mut m, i * set_stride);
        }
        // Next distinct line evicts line 3*16 from the LLC...
        go(&mut m, ways as u64 * set_stride);
        // ...so it must come back from DRAM, while a surviving line is
        // at worst an LLC hit.
        assert_eq!(
            go(&mut m, 3 * set_stride).level,
            ServedBy::Dram,
            "{ways} ways: LRU victim not evicted"
        );
    }
}

#[test]
fn coherency_miss_classification_at_way_boundaries() {
    for ways in WAY_BOUNDARIES {
        let cfg = config_with_llc_ways(ways);
        let mut m = MemoryHierarchy::new(&cfg, 2);
        m.access(0, 5, false, 0);
        m.access(1, 5, false, 100);
        let st = m.access(0, 5, true, 200);
        assert_eq!(st.invalidations_sent, 1, "{ways} ways");
        let rd = m.access(1, 5, false, 300);
        assert!(rd.coherency_miss, "{ways} ways");
    }
}

#[test]
fn atd_sampling_works_with_wide_llc() {
    // ATDs clone the LLC associativity; 17 and 32 ways must classify
    // inter-thread misses exactly as the narrow geometries do.
    for ways in WAY_BOUNDARIES {
        let cfg = config_with_llc_ways(ways);
        let mut m = MemoryHierarchy::new(&cfg, 2);
        m.access(0, 0, false, 0);
        // Core 1 floods LLC set 0 with `ways` distinct lines, evicting
        // core 0's line.
        for i in 1..=ways as u64 {
            m.access(1, i * 16, false, i * 100);
        }
        let ev = m.access(0, 0, false, 1_000_000);
        assert_eq!(ev.level, ServedBy::Dram, "{ways} ways");
        assert!(
            ev.interthread_miss_sampled,
            "{ways} ways: inter-thread miss not classified"
        );
    }
}

#[test]
fn deterministic_replay_across_boundary_grid() {
    // Every (core boundary × way boundary) pair replays bit-identically.
    for n in CORE_BOUNDARIES {
        for ways in WAY_BOUNDARIES {
            let cfg = config_with_llc_ways(ways);
            let mut m1 = MemoryHierarchy::new(&cfg, n);
            let mut m2 = MemoryHierarchy::new(&cfg, n);
            for i in 0..2_000u64 {
                let core = (i * 7) as usize % n;
                let line = (i * 13) % 256;
                let write = i % 3 == 0;
                assert_eq!(
                    m1.access(core, line, write, i * 10),
                    m2.access(core, line, write, i * 10),
                    "{n} cores, {ways} ways, step {i}"
                );
            }
        }
    }
}

#[test]
fn full_default_hierarchy_at_128_cores() {
    // The paper-default memory system, 128 cores: a mixed read/write
    // stream touching shared and private lines runs without violating
    // any debug invariant (sharer-mask sync asserts run in debug builds).
    let mut m = MemoryHierarchy::new(&MemConfig::default(), 128);
    for i in 0..20_000u64 {
        let core = (i % 128) as usize;
        let shared = i % 5 == 0;
        let line = if shared {
            i % 64
        } else {
            1_000 + core as u64 * 512 + (i / 128) % 512
        };
        m.access(core, line, i % 7 == 0, i * 3);
    }
    assert_eq!(m.num_cores(), 128);
}
