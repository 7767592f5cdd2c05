//! `MemoryHierarchy::access` against a reference hierarchy that keeps
//! sharers the obvious way.
//!
//! The hierarchy stores the sharer set of a line as mask words in the
//! line's LLC slot and invalidates remote copies *after* the local L1 and
//! LLC steps. The reference below is assembled from the same public
//! `Cache` / `Atd` / `SharedLlc` / `Dram` parts but tracks sharers in a
//! `HashMap<LineAddr, BTreeSet<CoreId>>` and runs the steps in the
//! original order — invalidate → L1 → ATD → LLC → DRAM. Every
//! `AccessEvent` must be equal over long random streams with tiny caches
//! and a hot shared region, at core counts on both sides of the one-word
//! mask limit. That pins the mask bookkeeping (set on fill, cleared on L1
//! eviction, invalidation and LLC eviction, handed over with the slot)
//! and the claim that the reordering is unobservable.

use std::collections::{BTreeSet, HashMap};

use memsim::{
    AccessEvent, Atd, Cache, CacheConfig, CoreId, Dram, LineAddr, MemConfig, MemoryHierarchy,
    ServedBy, SharedLlc,
};

/// The hierarchy with a sparse sharer directory, in the original order.
struct Reference {
    cfg: MemConfig,
    l1s: Vec<Cache<u8>>,
    llc: SharedLlc,
    atds: Vec<Atd>,
    dir: HashMap<LineAddr, BTreeSet<CoreId>>,
    dram: Dram,
}

impl Reference {
    fn new(cfg: &MemConfig, n_cores: usize) -> Self {
        Reference {
            cfg: *cfg,
            l1s: (0..n_cores).map(|_| Cache::new(cfg.l1)).collect(),
            llc: SharedLlc::new(cfg.llc),
            atds: (0..n_cores)
                .map(|_| Atd::new(cfg.llc, cfg.atd_sample_period))
                .collect(),
            dir: HashMap::new(),
            dram: Dram::new(cfg.dram, n_cores),
        }
    }

    fn drop_sharer(&mut self, core: CoreId, line: LineAddr) {
        if let Some(set) = self.dir.get_mut(&line) {
            set.remove(&core);
            if set.is_empty() {
                self.dir.remove(&line);
            }
        }
    }

    fn access(&mut self, core: CoreId, line: LineAddr, write: bool, now: u64) -> AccessEvent {
        // 1. A store invalidates all remote L1 copies.
        let mut invalidations_sent = 0;
        if write {
            let targets: Vec<CoreId> = self
                .dir
                .get(&line)
                .map(|s| s.iter().copied().filter(|&c| c != core).collect())
                .unwrap_or_default();
            for target in targets {
                if let Some((dirty, llc_way)) = self.l1s[target].invalidate_coherence(line) {
                    invalidations_sent += 1;
                    if dirty {
                        self.llc.writeback_at(line, llc_way);
                    }
                }
                self.drop_sharer(target, line);
            }
        }

        // 2. Private L1.
        let l1_out = self.l1s[core].access(line, write, 0);
        if l1_out.hit {
            return AccessEvent {
                level: ServedBy::L1,
                latency_beyond_l1: 0,
                bus_wait_other: 0,
                bank_wait_other: 0,
                page_conflict_other: 0,
                sampled: false,
                interthread_miss_sampled: false,
                interthread_hit_sampled: false,
                interthread_hit_truth: false,
                coherency_miss: false,
                invalidations_sent,
            };
        }
        if let Some((evicted, dirty, llc_way)) = l1_out.evicted {
            self.drop_sharer(core, evicted);
            if dirty {
                self.llc.writeback_at(evicted, llc_way);
            }
        }
        self.dir.entry(line).or_default().insert(core);

        // 3. ATD, 4. shared LLC.
        let atd_out = self.atds[core].access(line, write);
        let llc_out = self.llc.access(core, line, write);
        self.l1s[core].set_meta_at(line, l1_out.way, llc_out.way);
        if let Some((evicted, dirty)) = llc_out.evicted {
            for c in self.dir.remove(&evicted).unwrap_or_default() {
                self.l1s[c].remove(evicted);
            }
            if dirty {
                let _ = self
                    .dram
                    .access(core, evicted, now + self.cfg.llc_hit_latency);
            }
        }

        let sampled = atd_out.is_some();
        let atd_hit = atd_out.is_some_and(|a| a.hit);
        if llc_out.hit {
            return AccessEvent {
                level: ServedBy::Llc,
                latency_beyond_l1: self.cfg.llc_hit_latency,
                bus_wait_other: 0,
                bank_wait_other: 0,
                page_conflict_other: 0,
                sampled,
                interthread_miss_sampled: false,
                interthread_hit_sampled: sampled && !atd_hit,
                interthread_hit_truth: llc_out.interthread_hit_truth,
                coherency_miss: l1_out.coherency_miss,
                invalidations_sent,
            };
        }

        // 5. DRAM.
        let dram_out = self.dram.access(core, line, now + self.cfg.llc_hit_latency);
        AccessEvent {
            level: ServedBy::Dram,
            latency_beyond_l1: self.cfg.llc_hit_latency + dram_out.latency,
            bus_wait_other: dram_out.bus_wait_other,
            bank_wait_other: dram_out.bank_wait_other,
            page_conflict_other: dram_out.page_conflict_other,
            sampled,
            interthread_miss_sampled: sampled && atd_hit,
            interthread_hit_sampled: false,
            interthread_hit_truth: false,
            coherency_miss: l1_out.coherency_miss,
            invalidations_sent,
        }
    }

    /// The directory names exactly the L1s that hold `line`.
    fn assert_directory_in_sync(&self, line: LineAddr) {
        let holders: BTreeSet<CoreId> = (0..self.l1s.len())
            .filter(|&c| self.l1s[c].contains(line))
            .collect();
        let tracked = self.dir.get(&line).cloned().unwrap_or_default();
        assert_eq!(tracked, holders, "reference directory, line {line}");
    }
}

/// Deterministic xorshift64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// What a run saw, so a test can check the stream reached the paths it
/// is meant to pin.
#[derive(Debug, Default)]
struct Tally {
    l1_hits: u64,
    llc_hits: u64,
    dram: u64,
    invalidations: u64,
    coherency_misses: u64,
    max_invalidations_by_one_store: u32,
}

/// Drives `ops` random accesses through both hierarchies and asserts
/// every event equal. Addresses: 60 % from a hot region every core
/// shares, 25 % from a wider shared region, 15 % from a per-core region;
/// 30 % stores.
fn assert_equivalent(cfg: &MemConfig, n_cores: usize, ops: u64, seed: u64) -> Tally {
    const HOT_LINES: u64 = 24;
    const WIDE_LINES: u64 = 640;
    let mut rng = Rng(seed | 1);
    let mut masks = MemoryHierarchy::new(cfg, n_cores);
    let mut reference = Reference::new(cfg, n_cores);
    let mut tally = Tally::default();
    let mut now = 0u64;
    for step in 0..ops {
        let core = rng.below(n_cores as u64) as usize;
        let line = match rng.below(100) {
            0..=59 => rng.below(HOT_LINES),
            60..=84 => rng.below(WIDE_LINES),
            _ => 10_000 + core as u64 * 64 + rng.below(48),
        };
        let write = rng.below(10) < 3;
        now += rng.below(40);
        let got = masks.access(core, line, write, now);
        let want = reference.access(core, line, write, now);
        assert_eq!(
            got, want,
            "{n_cores} cores, step {step}: core {core} line {line} write {write}"
        );
        match got.level {
            ServedBy::L1 => tally.l1_hits += 1,
            ServedBy::Llc => tally.llc_hits += 1,
            ServedBy::Dram => tally.dram += 1,
        }
        tally.invalidations += u64::from(got.invalidations_sent);
        tally.coherency_misses += u64::from(got.coherency_miss);
        tally.max_invalidations_by_one_store = tally
            .max_invalidations_by_one_store
            .max(got.invalidations_sent);
        if step % 512 == 0 {
            reference.assert_directory_in_sync(line);
        }
    }
    tally
}

/// 4×2 L1s under a 16×4 LLC: with more than a handful of cores the L1s
/// together dwarf the LLC, so inclusion victims with live sharers are the
/// norm and masks change hands with their slots constantly.
fn tiny() -> MemConfig {
    MemConfig {
        l1: CacheConfig::new(4, 2),
        llc: CacheConfig::new(16, 4),
        atd_sample_period: 1,
        ..MemConfig::default()
    }
}

/// The associativities with a compile-time tag-scan width (8-way L1,
/// 16-way LLC), still small enough to thrash.
fn tiny_fixed_width() -> MemConfig {
    MemConfig {
        l1: CacheConfig::new(2, 8),
        llc: CacheConfig::new(8, 16),
        atd_sample_period: 2,
        ..MemConfig::default()
    }
}

/// A 32-way LLC: the third fixed scan width and the byte-ranked LRU.
fn tiny_wide() -> MemConfig {
    MemConfig {
        l1: CacheConfig::new(4, 2),
        llc: CacheConfig::new(4, 32),
        atd_sample_period: 1,
        ..MemConfig::default()
    }
}

fn assert_all_paths_taken(t: &Tally, n_cores: usize) {
    assert!(t.l1_hits > 0 && t.llc_hits > 0 && t.dram > 0, "{t:?}");
    assert!(t.invalidations > 0 && t.coherency_misses > 0, "{t:?}");
    if n_cores > 2 {
        assert!(t.max_invalidations_by_one_store > 1, "{t:?}");
    }
}

#[test]
fn two_cores() {
    let t = assert_equivalent(&tiny(), 2, 200_000, 0x2c0de);
    assert_all_paths_taken(&t, 2);
}

#[test]
fn sixteen_cores() {
    let t = assert_equivalent(&tiny_fixed_width(), 16, 200_000, 0x16c0de);
    assert_all_paths_taken(&t, 16);
}

#[test]
fn sixty_four_cores_fill_one_mask_word() {
    let t = assert_equivalent(&tiny(), 64, 200_000, 0x64c0de);
    assert_all_paths_taken(&t, 64);
}

#[test]
fn sixty_five_cores_spill_into_a_second_word() {
    let t = assert_equivalent(&tiny_wide(), 65, 200_000, 0x65c0de);
    assert_all_paths_taken(&t, 65);
}

#[test]
fn one_hundred_twenty_eight_cores() {
    let t = assert_equivalent(&tiny(), 128, 200_000, 0x128c0de);
    assert_all_paths_taken(&t, 128);
}

#[test]
fn single_core_bypass_matches_the_directory_too() {
    let t = assert_equivalent(&tiny(), 1, 50_000, 0x1c0de);
    assert_eq!(t.invalidations, 0);
    assert!(t.l1_hits > 0 && t.llc_hits > 0 && t.dram > 0, "{t:?}");
}

// What the unit tests of the former sharer directory asserted, restated
// on the hierarchy's observable behaviour.

/// A store never counts (or invalidates) the writer's own copy, and a
/// line read twice by one core is still one sharer.
#[test]
fn writer_is_excluded_and_sharing_is_idempotent() {
    let mut m = MemoryHierarchy::new(&MemConfig::default(), 4);
    m.access(2, 9, false, 0);
    m.access(2, 9, false, 10);
    assert_eq!(m.access(2, 9, true, 20).invalidations_sent, 0);
    assert_eq!(m.access(2, 9, false, 30).level, ServedBy::L1);
    // One remote copy, however often its owner read it.
    m.access(0, 9, false, 40);
    m.access(0, 9, false, 50);
    assert_eq!(m.access(3, 9, true, 60).invalidations_sent, 2);
    // All gone: a second store finds nobody.
    assert_eq!(m.access(3, 9, true, 70).invalidations_sent, 0);
}

/// Sharers on both sides of the word boundary (cores 0, 63, 64, 127) are
/// each found exactly once, by a store that hits in the L1 and by one
/// that misses it.
#[test]
fn sharers_across_mask_words_are_each_invalidated_once() {
    let corners = [0usize, 63, 64, 127];
    for (writer, writer_holds_line) in [(64usize, true), (5, false)] {
        let mut m = MemoryHierarchy::new(&MemConfig::default(), 128);
        for (i, &c) in corners.iter().enumerate() {
            m.access(c, 42, false, i as u64 * 10);
        }
        let expect = corners.iter().filter(|&&c| c != writer).count() as u32;
        let st = m.access(writer, 42, true, 100);
        assert_eq!(st.level == ServedBy::L1, writer_holds_line);
        assert_eq!(st.invalidations_sent, expect, "writer {writer}");
        for &c in corners.iter().filter(|&&c| c != writer) {
            let rd = m.access(c, 42, false, 200 + c as u64);
            assert!(rd.coherency_miss, "writer {writer}, core {c}");
        }
        // The re-reads made them sharers again; the writer's copy stays.
        assert_eq!(m.access(writer, 42, false, 1_000).level, ServedBy::L1);
        assert_eq!(m.access(writer, 42, true, 1_010).invalidations_sent, expect);
    }
}

/// An L1 eviction withdraws the core from the line's sharers: a later
/// store by another core has nothing to invalidate there.
#[test]
fn l1_eviction_withdraws_the_sharer() {
    let cfg = MemConfig {
        l1: CacheConfig::new(4, 2),
        ..MemConfig::default()
    };
    let mut m = MemoryHierarchy::new(&cfg, 70);
    m.access(69, 0, false, 0);
    m.access(1, 0, false, 10);
    // Lines 4 and 8 share L1 set 0 with line 0 and push it out of core
    // 69's two ways.
    m.access(69, 4, false, 20);
    m.access(69, 8, false, 30);
    assert_eq!(m.access(1, 0, true, 40).invalidations_sent, 0);
    let back = m.access(69, 0, false, 50);
    assert_eq!(back.level, ServedBy::Llc);
    assert!(!back.coherency_miss, "evicted, not invalidated");
}

/// Evicting a line from the LLC drops all its sharers at once: the line
/// that takes over the slot starts with an empty set.
#[test]
fn llc_eviction_clears_every_sharer_of_the_slot() {
    let cfg = MemConfig {
        l1: CacheConfig::new(4, 2),
        llc: CacheConfig::new(1, 2),
        atd_sample_period: 1,
        ..MemConfig::default()
    };
    let n = 80;
    let mut m = MemoryHierarchy::new(&cfg, n);
    for c in 0..n {
        m.access(c, 0, false, c as u64);
    }
    m.access(0, 1, false, 1_000);
    // Line 2 takes line 0's slot (the LRU of the two ways).
    m.access(0, 2, false, 1_010);
    assert_eq!(
        m.access(1, 2, true, 1_020).invalidations_sent,
        1,
        "only core 0 holds the new line; line 0's 80 sharers left with it"
    );
    for c in [0, 63, 64, n - 1] {
        let rd = m.access(c, 0, false, 2_000 + c as u64);
        assert_ne!(rd.level, ServedBy::L1, "core {c}: inclusion violated");
        assert!(!rd.coherency_miss, "core {c}");
    }
}
