//! The full memory hierarchy: private L1s → shared inclusive LLC → DRAM,
//! with coherence, ATD classification and interference attribution.
//!
//! Coherence (§3.2, §4.5) is MESI-style invalidation: a store invalidates
//! every remote L1 copy, and a re-reference of an invalidated line is a
//! *coherency miss*. The set of L1s holding a line is a bitmask stored
//! with the line's LLC slot — the LLC is inclusive and every L1 line
//! remembers its LLC way, so the mask is reached by `(set, way)` with no
//! lookup structure of its own.

use crate::atd::Atd;
use crate::cache::{Cache, CacheConfig};
use crate::dram::{Dram, DramConfig};
use crate::llc::SharedLlc;
use crate::{CoreId, LineAddr};

/// Configuration of the whole memory hierarchy.
///
/// Defaults follow the paper's setup (§5): 64 KB 8-way private L1 data
/// caches, a 2 MB 16-way shared L2 as the LLC, 8 memory banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    /// Private L1 data cache geometry.
    pub l1: CacheConfig,
    /// Shared LLC geometry.
    pub llc: CacheConfig,
    /// ATD set-sampling period (monitor every n-th LLC set).
    pub atd_sample_period: usize,
    /// L1 hit latency in cycles (typically fully hidden).
    pub l1_hit_latency: u64,
    /// LLC hit latency in cycles, beyond the L1.
    pub llc_hit_latency: u64,
    /// DRAM parameters.
    pub dram: DramConfig,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            l1: CacheConfig::from_kib(64, 64, 8),
            llc: CacheConfig::from_kib(2048, 64, 16),
            atd_sample_period: 8,
            l1_hit_latency: 1,
            llc_hit_latency: 20,
            dram: DramConfig::default(),
        }
    }
}

impl MemConfig {
    /// The largest LLC, in MiB, a size taken from a user or the wire may
    /// ask for (`repro --llc-mib`, a submit's `llc_mib`). A run allocates
    /// its LLC and every core's ATD in full up front, and a failed
    /// allocation aborts the whole process — no unwinding, so no fault
    /// domain can catch it — so sizes are bounded where they are parsed.
    /// 16× the largest LLC any study sweeps (16 MiB, Figure 9); a
    /// 128-core `scaling` run at this size peaks near 450 MiB resident.
    pub const MAX_LLC_MIB: usize = 256;

    /// Returns a copy with the LLC resized to `mib` MiB (same line size
    /// and associativity), as used by the Figure 9 LLC sweep.
    #[must_use]
    pub fn with_llc_mib(mut self, mib: usize) -> Self {
        self.llc = CacheConfig::from_kib(mib * 1024, 64, self.llc.ways());
        self
    }
}

/// Which level served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServedBy {
    /// Private L1 hit.
    L1,
    /// Shared LLC hit.
    Llc,
    /// Served by DRAM (LLC miss).
    Dram,
}

/// Everything the accounting architecture needs to know about one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessEvent {
    /// Level that served the access.
    pub level: ServedBy,
    /// Latency beyond the L1 hit latency (0 for an L1 hit). This is the
    /// raw latency; stall exposure is the core model's concern.
    pub latency_beyond_l1: u64,
    /// DRAM bus wait caused by other cores.
    pub bus_wait_other: u64,
    /// DRAM bank wait caused by other cores.
    pub bank_wait_other: u64,
    /// Extra DRAM latency from an open-page conflict caused by another
    /// core (ORA-attributed).
    pub page_conflict_other: u64,
    /// The access mapped to an ATD-sampled LLC set.
    pub sampled: bool,
    /// Sampled classification: LLC miss that hit the private ATD
    /// (negative interference, §4.1).
    pub interthread_miss_sampled: bool,
    /// Sampled classification: LLC hit that missed the private ATD
    /// (positive interference, §4.2).
    pub interthread_hit_sampled: bool,
    /// Ground truth: LLC hit on a line inserted by another core.
    pub interthread_hit_truth: bool,
    /// The L1 miss re-fetched a line previously invalidated by coherence.
    pub coherency_miss: bool,
    /// Number of remote L1 copies this store invalidated.
    pub invalidations_sent: u32,
}

impl AccessEvent {
    fn l1_hit() -> Self {
        AccessEvent {
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
            invalidations_sent: 0,
        }
    }
}

/// The complete shared memory system of an `n`-core CMP.
///
/// All mutation happens through [`MemoryHierarchy::access`], which the
/// caller must invoke in global time order.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    cfg: MemConfig,
    /// Private L1s. Each line's metadata is the LLC way holding the line
    /// (stable under inclusion until back-invalidation), so dirty
    /// writebacks and sharer-mask updates address the LLC slot without a
    /// probe.
    l1s: Vec<Cache<u8>>,
    llc: SharedLlc,
    atds: Vec<Atd>,
    /// Which L1s hold each LLC line: `mask_words` words per LLC slot,
    /// addressed by `(set, way)`; bit `c % 64` of word `c / 64` is core
    /// `c`. The LLC is inclusive, so every L1 line has an LLC slot and
    /// the mask lives and dies with it. Empty on a single-core machine.
    sharers: Vec<u64>,
    /// `ceil(n_cores / 64)`.
    mask_words: usize,
    dram: Dram,
}

impl MemoryHierarchy {
    /// Creates the hierarchy for `n_cores` cores. Any non-zero core count
    /// is supported: each LLC line carries `ceil(n_cores / 64)` words of
    /// sharer mask.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` is zero, or the ATD sampling period is invalid
    /// for the LLC geometry.
    #[must_use]
    pub fn new(cfg: &MemConfig, n_cores: usize) -> Self {
        assert!(n_cores > 0, "at least one core required");
        let mask_words = n_cores.div_ceil(64);
        // A single core has no remote sharers to track.
        let tracked_slots = if n_cores == 1 { 0 } else { cfg.llc.lines() };
        MemoryHierarchy {
            cfg: *cfg,
            l1s: (0..n_cores).map(|_| Cache::new(cfg.l1)).collect(),
            llc: SharedLlc::new(cfg.llc),
            atds: (0..n_cores)
                .map(|_| Atd::new(cfg.llc, cfg.atd_sample_period))
                .collect(),
            sharers: vec![0; tracked_slots * mask_words],
            mask_words,
            dram: Dram::new(cfg.dram, n_cores),
        }
    }

    /// The hierarchy configuration.
    #[must_use]
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Number of cores sharing the hierarchy.
    #[must_use]
    pub fn num_cores(&self) -> usize {
        self.l1s.len()
    }

    /// Index of the first sharer-mask word of the LLC slot holding `line`
    /// in `llc_way`.
    #[inline]
    fn mask_base(&self, line: LineAddr, llc_way: u8) -> usize {
        (self.cfg.llc.set_of(line) * self.cfg.llc.ways() + usize::from(llc_way)) * self.mask_words
    }

    /// A store by `core`: invalidates every other L1 copy of `line`,
    /// leaving only `core`'s own bit in the mask at `base`. Returns the
    /// number of copies invalidated.
    fn invalidate_others(&mut self, core: CoreId, line: LineAddr, base: usize) -> u32 {
        let mut sent = 0;
        for w in 0..self.mask_words {
            let own = if w == core / 64 {
                1u64 << (core % 64)
            } else {
                0
            };
            let others = self.sharers[base + w] & !own;
            self.sharers[base + w] &= own;
            for target in cores_in(w, others) {
                if let Some((dirty, way)) = self.l1s[target].invalidate_coherence(line) {
                    sent += 1;
                    if dirty {
                        self.llc.writeback_at(line, way);
                    }
                }
            }
        }
        sent
    }

    /// Inclusion: removes `victim` from every L1 named by the mask at
    /// `base` (the slot the LLC just evicted it from) and zeroes the
    /// mask.
    fn back_invalidate(&mut self, victim: LineAddr, base: usize) {
        #[cfg(debug_assertions)]
        for (c, l1) in self.l1s.iter().enumerate() {
            debug_assert_eq!(
                self.sharers[base + c / 64] >> (c % 64) & 1 == 1,
                l1.contains(victim),
                "sharer mask out of sync: core {c}, line {victim}"
            );
        }
        for w in 0..self.mask_words {
            for c in cores_in(w, std::mem::take(&mut self.sharers[base + w])) {
                self.l1s[c].remove(victim);
            }
        }
    }

    /// Performs one load (`write == false`) or store (`write == true`) by
    /// `core` to `line` at cycle `now`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(&mut self, core: CoreId, line: LineAddr, write: bool, now: u64) -> AccessEvent {
        assert!(core < self.l1s.len(), "core {core} out of range");
        // A single-core hierarchy has no remote sharers: skip the mask
        // bookkeeping wholesale (the single-threaded reference runs of
        // every figure take this path).
        let single_core = self.l1s.len() == 1;
        let own_word = core / 64;
        let own_bit = 1u64 << (core % 64);

        // 1. Private L1. A store that hits still has to invalidate the
        // remote copies; the line's L1 metadata names its LLC slot.
        let l1_out = self.l1s[core].access(line, write, 0);
        if l1_out.hit {
            let mut ev = AccessEvent::l1_hit();
            if write && !single_core {
                let llc_way = l1_out.hit_meta.expect("an L1 hit carries the LLC way");
                let slot = self.mask_base(line, llc_way);
                ev.invalidations_sent = self.invalidate_others(core, line, slot);
            }
            return ev;
        }
        if let Some((evicted, dirty, llc_way)) = l1_out.evicted {
            if !single_core {
                let base = self.mask_base(evicted, llc_way);
                self.sharers[base + own_word] &= !own_bit;
            }
            if dirty {
                self.llc.writeback_at(evicted, llc_way);
            }
        }

        // 2. ATD probe (every LLC access, sampled sets only).
        let atd_out = self.atds[core].access(line, write);

        // 3. Shared LLC.
        let llc_out = self.llc.access(core, line, write);
        // Remember the line's LLC way in the just-filled L1 way (a direct
        // store — both ways are known from the two access outcomes).
        self.l1s[core].set_meta_at(line, l1_out.way, llc_out.way);
        let slot = self.mask_base(line, llc_out.way);

        // 4. Coherence. Remote invalidation runs after the local L1/LLC
        // steps: it touches other cores' L1s and the dirty bit of `line`
        // only (which this store sets anyway), while the steps above
        // touched this core's L1, a different victim line and the LRU —
        // so the order is unobservable. An LLC miss means no L1 held the
        // line (inclusion), so eviction and invalidation exclude each
        // other.
        let mut invalidations_sent = 0;
        if let Some((evicted, dirty)) = llc_out.evicted {
            if single_core {
                self.l1s[0].remove(evicted);
            } else {
                // The new line took the victim's slot, mask included.
                self.back_invalidate(evicted, slot);
            }
            if dirty {
                // Writeback occupies a bank and the bus; nobody stalls on it.
                let _ = self
                    .dram
                    .access(core, evicted, now + self.cfg.llc_hit_latency);
            }
        } else if write && llc_out.hit && !single_core {
            invalidations_sent = self.invalidate_others(core, line, slot);
        }
        if !single_core {
            debug_assert!(
                llc_out.hit
                    || self.sharers[slot..slot + self.mask_words]
                        .iter()
                        .all(|&w| w == 0),
                "fresh LLC slot with a stale sharer mask"
            );
            self.sharers[slot + own_word] |= own_bit;
        }

        let (interthread_miss_sampled, interthread_hit_sampled) = match atd_out {
            Some(a) => (!llc_out.hit && a.hit, llc_out.hit && !a.hit),
            None => (false, false),
        };

        if llc_out.hit {
            return AccessEvent {
                level: ServedBy::Llc,
                latency_beyond_l1: self.cfg.llc_hit_latency,
                bus_wait_other: 0,
                bank_wait_other: 0,
                page_conflict_other: 0,
                sampled: atd_out.is_some(),
                interthread_miss_sampled: false,
                interthread_hit_sampled,
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
            sampled: atd_out.is_some(),
            interthread_miss_sampled,
            interthread_hit_sampled: false,
            interthread_hit_truth: false,
            coherency_miss: l1_out.coherency_miss,
            invalidations_sent,
        }
    }
}

/// The cores named by the set bits of mask word `w`, ascending.
fn cores_in(w: usize, mut bits: u64) -> impl Iterator<Item = CoreId> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let core = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            core
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> MemConfig {
        MemConfig {
            l1: CacheConfig::new(4, 2),
            llc: CacheConfig::new(16, 2),
            atd_sample_period: 1,
            ..MemConfig::default()
        }
    }

    #[test]
    fn l1_hit_after_fill() {
        let mut m = MemoryHierarchy::new(&tiny_config(), 2);
        let a = m.access(0, 100, false, 0);
        assert_eq!(a.level, ServedBy::Dram);
        let b = m.access(0, 100, false, 500);
        assert_eq!(b.level, ServedBy::L1);
        assert_eq!(b.latency_beyond_l1, 0);
    }

    #[test]
    fn llc_hit_after_l1_eviction() {
        let mut m = MemoryHierarchy::new(&tiny_config(), 1);
        // L1 has 4 sets × 2 ways; lines 0, 4, 8 share L1 set 0.
        m.access(0, 0, false, 0);
        m.access(0, 4, false, 100);
        m.access(0, 8, false, 200); // evicts 0 from L1; still in LLC
        let back = m.access(0, 0, false, 300);
        assert_eq!(back.level, ServedBy::Llc);
    }

    #[test]
    fn interthread_hit_detected_by_atd_and_truth() {
        let mut m = MemoryHierarchy::new(&tiny_config(), 2);
        m.access(0, 7, false, 0); // core 0 brings line into LLC
        let ev = m.access(1, 7, false, 500); // core 1: LLC hit, private ATD miss
        assert_eq!(ev.level, ServedBy::Llc);
        assert!(ev.sampled);
        assert!(ev.interthread_hit_sampled);
        assert!(ev.interthread_hit_truth);
    }

    #[test]
    fn interthread_miss_detected_by_atd() {
        // LLC set 0 (16 sets, 2 ways): lines 0, 16, 32 collide.
        let mut m = MemoryHierarchy::new(&tiny_config(), 2);
        m.access(0, 0, false, 0);
        // Other core floods the set.
        m.access(1, 16, false, 100);
        m.access(1, 32, false, 200); // evicts line 0 from shared LLC
                                     // Core 0 misses in LLC but would have hit privately → inter-thread miss.
        let ev = m.access(0, 0, false, 10_000);
        assert_eq!(ev.level, ServedBy::Dram);
        assert!(ev.interthread_miss_sampled);
    }

    #[test]
    fn own_capacity_miss_not_interthread() {
        let mut m = MemoryHierarchy::new(&tiny_config(), 1);
        m.access(0, 0, false, 0);
        m.access(0, 16, false, 100);
        m.access(0, 32, false, 200); // self-evicts line 0
        let ev = m.access(0, 0, false, 10_000);
        assert_eq!(ev.level, ServedBy::Dram);
        assert!(
            !ev.interthread_miss_sampled,
            "self-inflicted miss misclassified"
        );
    }

    #[test]
    fn store_invalidates_remote_copy_and_counts() {
        let mut m = MemoryHierarchy::new(&tiny_config(), 2);
        m.access(0, 5, false, 0);
        m.access(1, 5, false, 100);
        let st = m.access(0, 5, true, 200);
        assert_eq!(st.invalidations_sent, 1);
        // Core 1 re-reads: L1 miss flagged as coherency miss.
        let rd = m.access(1, 5, false, 300);
        assert_ne!(rd.level, ServedBy::L1);
        assert!(rd.coherency_miss);
    }

    #[test]
    fn store_to_private_line_sends_no_invalidations() {
        let mut m = MemoryHierarchy::new(&tiny_config(), 2);
        m.access(0, 5, false, 0);
        let st = m.access(0, 5, true, 100);
        assert_eq!(st.invalidations_sent, 0);
    }

    #[test]
    fn llc_eviction_back_invalidates_l1() {
        let mut m = MemoryHierarchy::new(&tiny_config(), 1);
        // Fill LLC set 0 beyond capacity: lines 0, 16, 32.
        m.access(0, 0, false, 0);
        m.access(0, 16, false, 100);
        m.access(0, 32, false, 200); // LLC evicts line 0 → back-invalidate L1
        let ev = m.access(0, 0, false, 300);
        assert_eq!(
            ev.level,
            ServedBy::Dram,
            "inclusion violated: L1 still had line 0"
        );
        // Back-invalidation is not a coherency miss.
        assert!(!ev.coherency_miss);
    }

    #[test]
    fn dram_interference_between_cores() {
        let cfg = tiny_config();
        let mut m = MemoryHierarchy::new(&cfg, 2);
        // Two cores miss everything to the same bank at the same time.
        let a = m.access(0, 0, false, 0);
        let b = m.access(1, 1, false, 0); // same row/bank, issued same cycle
        assert_eq!(a.level, ServedBy::Dram);
        assert_eq!(b.level, ServedBy::Dram);
        assert!(b.bank_wait_other > 0 || b.bus_wait_other > 0);
    }

    #[test]
    fn llc_resize_helper() {
        let cfg = MemConfig::default().with_llc_mib(8);
        assert_eq!(cfg.llc.lines() * 64, 8 * 1024 * 1024);
        assert_eq!(cfg.llc.ways(), 16);
    }

    #[test]
    fn deterministic_replay() {
        let cfg = tiny_config();
        let mut m1 = MemoryHierarchy::new(&cfg, 4);
        let mut m2 = MemoryHierarchy::new(&cfg, 4);
        for i in 0..500u64 {
            let core = (i % 4) as usize;
            let line = (i * 13) % 64;
            let write = i % 3 == 0;
            assert_eq!(
                m1.access(core, line, write, i * 10),
                m2.access(core, line, write, i * 10)
            );
        }
    }
}
