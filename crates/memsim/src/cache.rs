//! Generic set-associative cache with true-LRU replacement.
//!
//! Used for the private L1s, the shared LLC and the ATDs. The cache is
//! generic over per-line metadata `M` (the LLC stores the inserting core,
//! the L1s and ATDs store nothing).
//!
//! Invalidations keep the tag in place with the valid bit cleared, so a
//! later refill of the same line can be recognized as a *coherency miss*
//! (paper §4.5: "in case of an invalidation, usually only the status bits
//! are adapted, while the tag remains in the tag array").
//!
//! ## Representation
//!
//! The cache is flat structure-of-arrays state:
//!
//! - `tags` — compact 32-bit tags (`line >> log2(sets)`), contiguous per
//!   set, probed with a branchless equality scan that reduces to a
//!   bitmask (an 8-way probe touches 32 bytes, a 16-way probe one cache
//!   line);
//! - `valid`/`dirty`/`coh` — per-set way bitmasks, so status checks and
//!   victim selection are O(1) bit arithmetic over the probe mask;
//! - `lru` — one of **two per-set recency encodings, selected per
//!   config**: associativities up to 16 use the *packed*
//!   ordering (one `u64` per set holding way indices as nibbles,
//!   most-recent in the low nibble; a touch is a SWAR rank lookup plus
//!   shifts), wider sets use the *wide* ordering (one byte per way per
//!   set, most-recent first; a touch is a scan plus `copy_within`). The
//!   two encodings implement identical true-LRU semantics — pinned
//!   bit-for-bit by `tests/flat_equivalence.rs`, which drives a
//!   forced-wide cache against the packed one on ≤16-way geometries.
//!   Both stay because the packed one is measurably faster where it
//!   applies: forcing the wide encoding at every associativity (a
//!   one-line prototype, `Lru::new` → `new_wide`, not shipped) took the
//!   repo benchmark's `fig4_grid/wall_s` from 0.893 to 1.041 s (×1.17;
//!   5 of 5 interleaved 12 s pairs worse, seed 0, packed 0.866–0.945 s
//!   against wide 0.991–1.097 s; `peak_rss_mib` 4.24 → 4.27); the sizing
//!   run before it read 0.856 → 1.030 s (×1.20, 5 of 5).
//!
//! No per-way timestamps, no clock, no allocation anywhere on the access
//! path. Associativity is bounded at 64 ways (the per-set status
//! bitmasks are single `u64` words), asserted in [`CacheConfig::new`];
//! randomized op streams are checked against a reference implementation
//! of the original timestamp-LRU semantics in
//! `tests/flat_equivalence.rs`.

use crate::LineAddr;

/// Geometry of a set-associative cache.
///
/// # Examples
///
/// ```
/// use memsim::CacheConfig;
/// let c = CacheConfig::new(2048, 16);
/// assert_eq!(c.lines(), 32768); // 2 MB at 64-byte lines
/// // Wider associativities (up to 64 ways) are supported too:
/// let wide = CacheConfig::new(1024, 32);
/// assert_eq!(wide.lines(), 32768);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    sets: usize,
    ways: usize,
}

impl CacheConfig {
    /// Creates a geometry with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero or not a power of two, or if `ways` is
    /// zero or greater than 64 (per-way status lives in one `u64` bitmask
    /// per set).
    #[must_use]
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "sets must be a power of two"
        );
        assert!(ways > 0, "ways must be non-zero");
        assert!(ways <= 64, "at most 64 ways supported (per-set bitmasks)");
        CacheConfig { sets, ways }
    }

    /// Geometry from a capacity in kibibytes, a line size in bytes and an
    /// associativity.
    ///
    /// # Panics
    ///
    /// Panics if the derived set count is zero or not a power of two.
    ///
    /// ```
    /// use memsim::CacheConfig;
    /// let llc = CacheConfig::from_kib(2048, 64, 16); // 2 MB, 16-way
    /// assert_eq!(llc.sets(), 2048);
    /// ```
    #[must_use]
    pub fn from_kib(kib: usize, line_bytes: usize, ways: usize) -> Self {
        let lines = kib * 1024 / line_bytes;
        Self::new(lines / ways, ways)
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Number of ways per set.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total line capacity.
    #[must_use]
    pub fn lines(&self) -> usize {
        self.sets * self.ways
    }

    /// Set index for a line address.
    #[must_use]
    pub fn set_of(&self, line: LineAddr) -> usize {
        (line as usize) & (self.sets - 1)
    }
}

// Per-way status lives in per-set bitmasks (one bit per way), so the
// probe and victim selection are pure bit arithmetic over a branchless
// tag scan.

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheOutcome<M> {
    /// The access hit a valid line.
    pub hit: bool,
    /// On a miss, the refilled line's tag matched an invalid entry that was
    /// invalidated by coherence — a *coherency miss*.
    pub coherency_miss: bool,
    /// On a miss that evicted a valid line: `(line, was_dirty, metadata)`.
    pub evicted: Option<(LineAddr, bool, M)>,
    /// Metadata of the line *before* this access (for hits: the line's
    /// stored metadata, e.g. the LLC inserter).
    pub hit_meta: Option<M>,
    /// The way the line lives in after this access (hit way or fill way).
    /// A line keeps its way until eviction, so callers may cache it as a
    /// probe-free handle (see [`Cache::set_meta_at`] /
    /// [`crate::SharedLlc::writeback_at`]).
    pub way: u8,
}

/// Packed recency ordering of one set: way indices as nibbles, rank 0
/// (most recent) in the low nibble.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LruOrder(u64);

impl LruOrder {
    /// Identity permutation: way 0 most recent, way `w-1` least recent.
    fn identity(ways: usize) -> Self {
        let mut order = 0u64;
        for w in (0..ways).rev() {
            order = (order << 4) | w as u64;
        }
        LruOrder(order)
    }

    /// Recency rank of `way` (0 = most recent). Branch-free SWAR: XOR
    /// with the way replicated into every nibble zeroes exactly the
    /// nibble holding `way` (the order is a permutation); the classic
    /// zero-nibble detector then locates it in O(1).
    #[inline]
    fn rank_of(self, way: usize, ways: usize) -> usize {
        let x = (self.0 ^ (way as u64).wrapping_mul(0x1111_1111_1111_1111)) & mask_nibbles(ways);
        let zero_nibbles =
            x.wrapping_sub(0x1111_1111_1111_1111) & !x & 0x8888_8888_8888_8888 & mask_nibbles(ways);
        debug_assert!(
            zero_nibbles != 0,
            "way {way} missing from LRU order {:x}",
            self.0
        );
        (zero_nibbles.trailing_zeros() / 4) as usize
    }

    /// Promotes `way` to rank 0.
    #[inline]
    fn touch(self, way: usize, ways: usize) -> Self {
        // Fast path: already most recent (the common case for hits with
        // temporal locality).
        if (self.0 & 0xF) as usize == way {
            return self;
        }
        // Promoting the least recent way (every refill of a full set) is
        // a rotate: the shift drops its nibble off the top.
        if self.lru(ways) == way {
            return LruOrder(((self.0 << 4) | way as u64) & mask_nibbles(ways));
        }
        let r = self.rank_of(way, ways);
        let below = self.0 & ((1u64 << (4 * r)) - 1);
        // Two-step shift: `4 * (r + 1)` is 64 when promoting rank 15.
        let above = (self.0 >> (4 * r) >> 4) << (4 * r);
        let without = below | above;
        LruOrder(((without << 4) | way as u64) & mask_nibbles(ways))
    }

    /// The least-recently-used way (rank `ways - 1`).
    #[inline]
    fn lru(self, ways: usize) -> usize {
        ((self.0 >> (4 * (ways - 1))) & 0xF) as usize
    }
}

#[inline]
fn mask_nibbles(ways: usize) -> u64 {
    if ways == 16 {
        u64::MAX
    } else {
        (1u64 << (4 * ways)) - 1
    }
}

/// Per-set true-LRU recency state, in one of two encodings selected by
/// the configured associativity:
///
/// - [`Packed`](Lru::Packed) (ways ≤ 16): one `u64` per set holding the
///   recency permutation as nibbles — the PR 1 hot-path encoding;
/// - [`Wide`](Lru::Wide) (ways 17..=64): one byte per way per set,
///   most-recent first, updated with a scan + `copy_within`.
///
/// Both encode the same permutation semantics; `tests/flat_equivalence.rs`
/// pins them to bit-identical outcomes on shared geometries.
#[derive(Debug, Clone)]
enum Lru {
    /// Nibble-packed per-set orderings (associativity ≤ 16).
    Packed(Vec<LruOrder>),
    /// Byte-per-way per-set orderings (associativity 17..=64): the slice
    /// `[set * ways .. (set + 1) * ways]` lists way indices most-recent
    /// first.
    Wide(Vec<u8>),
}

impl Lru {
    /// Maximum associativity of the packed (nibble) encoding.
    const PACKED_MAX_WAYS: usize = 16;

    /// Identity-initialized state for `cfg`, choosing the encoding by
    /// associativity.
    fn new(cfg: CacheConfig) -> Self {
        if cfg.ways() <= Self::PACKED_MAX_WAYS {
            Lru::Packed(vec![LruOrder::identity(cfg.ways()); cfg.sets()])
        } else {
            Self::new_wide(cfg)
        }
    }

    /// Identity-initialized *wide* state regardless of associativity
    /// (used by [`Cache::with_wide_lru`] for the equivalence suite).
    fn new_wide(cfg: CacheConfig) -> Self {
        let mut order = vec![0u8; cfg.lines()];
        for set in 0..cfg.sets() {
            for w in 0..cfg.ways() {
                order[set * cfg.ways() + w] = w as u8;
            }
        }
        Lru::Wide(order)
    }

    /// Promotes `way` to most-recent in `set`.
    #[inline]
    fn touch(&mut self, set: usize, way: usize, ways: usize) {
        match self {
            Lru::Packed(orders) => orders[set] = orders[set].touch(way, ways),
            Lru::Wide(orders) => {
                let slice = &mut orders[set * ways..(set + 1) * ways];
                if slice[0] as usize == way {
                    return;
                }
                let r = slice
                    .iter()
                    .position(|&w| w as usize == way)
                    .expect("way present in LRU order");
                slice.copy_within(0..r, 1);
                slice[0] = way as u8;
            }
        }
    }

    /// The least-recently-used way of `set`.
    #[inline]
    fn lru(&self, set: usize, ways: usize) -> usize {
        match self {
            Lru::Packed(orders) => orders[set].lru(ways),
            Lru::Wide(orders) => orders[set * ways + ways - 1] as usize,
        }
    }
}

/// A set-associative, write-back, allocate-on-miss cache with true LRU.
///
/// Tags are stored *compactly*: the per-way tag is `line >> log2(sets)`
/// narrowed to 32 bits, so an 8-way probe touches 32 bytes and a 16-way
/// probe one cache line. This bounds supported line addresses to
/// `line >> log2(sets) <= u32::MAX` (e.g. 2^39 for a 128-set L1),
/// asserted on every access — far above every address the simulator
/// mints (workload regions live below 2^32, lock/barrier regions at
/// 2^33).
#[derive(Debug, Clone)]
pub struct Cache<M> {
    cfg: CacheConfig,
    /// log2(sets): the tag is `line >> set_shift`.
    set_shift: u32,
    tags: Vec<u32>,
    /// Per-set way bitmask: way holds a valid line.
    valid: Vec<u64>,
    /// Per-set way bitmask: line is dirty.
    dirty: Vec<u64>,
    /// Per-set way bitmask: tag retained after a coherence invalidation.
    coh: Vec<u64>,
    meta: Vec<M>,
    lru: Lru,
}

impl<M: Copy + Default> Cache<M> {
    /// Creates an empty cache with the given geometry.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        Self::with_lru(cfg, Lru::new(cfg))
    }

    /// Testing constructor: forces the *wide* (byte-per-way) LRU encoding
    /// regardless of associativity. The packed/wide equivalence suite
    /// drives this against [`Cache::new`] on ≤16-way geometries to pin
    /// the two encodings to bit-identical behaviour.
    #[must_use]
    pub fn with_wide_lru(cfg: CacheConfig) -> Self {
        Self::with_lru(cfg, Lru::new_wide(cfg))
    }

    fn with_lru(cfg: CacheConfig, lru: Lru) -> Self {
        Cache {
            cfg,
            set_shift: cfg.sets().trailing_zeros(),
            tags: vec![0; cfg.lines()],
            valid: vec![0; cfg.sets()],
            dirty: vec![0; cfg.sets()],
            coh: vec![0; cfg.sets()],
            meta: vec![M::default(); cfg.lines()],
            lru,
        }
    }

    /// The cache geometry.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    #[inline]
    fn base(&self, line: LineAddr) -> (usize, usize) {
        let set = self.cfg.set_of(line);
        (set, set * self.cfg.ways)
    }

    /// The compact tag for `line`.
    ///
    /// # Panics
    ///
    /// Panics if the address exceeds the compact-tag range for this
    /// geometry (`line >> log2(sets)` must fit 32 bits).
    #[inline]
    fn tag_of(&self, line: LineAddr) -> u32 {
        let tag = line >> self.set_shift;
        assert!(
            tag <= u64::from(u32::MAX),
            "line {line:#x} beyond compact-tag range"
        );
        tag as u32
    }

    /// Reconstructs the full line address of `set`'s way holding `tag`.
    #[inline]
    fn line_of(&self, set: usize, tag: u32) -> LineAddr {
        (u64::from(tag) << self.set_shift) | set as u64
    }

    /// Bitmask of ways whose tag equals `tag` (valid or not). The scan is
    /// branchless over the contiguous per-set tag slice; the common
    /// associativities get a loop of compile-time width, which the
    /// compiler unrolls and vectorizes outright. Combined with the
    /// per-set status masks every lookup below is O(1) bit arithmetic on
    /// top of this.
    #[inline]
    fn tag_matches(&self, base: usize, tag: u32) -> u64 {
        let tags = &self.tags[base..base + self.cfg.ways];
        match self.cfg.ways {
            8 => scan_fixed::<8>(tags, tag),
            16 => scan_fixed::<16>(tags, tag),
            32 => scan_fixed::<32>(tags, tag),
            _ => scan(tags, tag),
        }
    }

    /// Index of the valid way holding `line`, if any.
    #[inline]
    fn find_valid(&self, set: usize, base: usize, line: LineAddr) -> Option<usize> {
        let hit = self.tag_matches(base, self.tag_of(line)) & self.valid[set];
        (hit != 0).then(|| hit.trailing_zeros() as usize)
    }

    /// Accesses `line`; on a miss the line is allocated with metadata
    /// `fill_meta`, evicting the LRU way if necessary. `write` marks the
    /// line dirty.
    pub fn access(&mut self, line: LineAddr, write: bool, fill_meta: M) -> CacheOutcome<M> {
        let ways = self.cfg.ways;
        let (set, base) = self.base(line);
        let tag = self.tag_of(line);

        let eq = self.tag_matches(base, tag);

        // Hit?
        let hit = eq & self.valid[set];
        if hit != 0 {
            let w = hit.trailing_zeros() as usize;
            self.lru.touch(set, w, ways);
            self.dirty[set] |= u64::from(write) << w;
            return CacheOutcome {
                hit: true,
                coherency_miss: false,
                evicted: None,
                hit_meta: Some(self.meta[base + w]),
                way: w as u8,
            };
        }

        // Miss: prefer the coherence-invalidated way with a matching tag
        // (a coherency miss), else the first invalid way, else true LRU.
        let invalid = !self.valid[set] & ways_mask(ways);
        let coh_match = eq & invalid & self.coh[set];
        let (w, coherency_miss) = if coh_match != 0 {
            (coh_match.trailing_zeros() as usize, true)
        } else if invalid != 0 {
            (invalid.trailing_zeros() as usize, false)
        } else {
            (self.lru.lru(set, ways), false)
        };
        let bit = 1u64 << w;
        let i = base + w;
        let evicted = (self.valid[set] & bit != 0).then(|| {
            (
                self.line_of(set, self.tags[i]),
                self.dirty[set] & bit != 0,
                self.meta[i],
            )
        });
        self.tags[i] = tag;
        self.valid[set] |= bit;
        self.coh[set] &= !bit;
        self.dirty[set] = (self.dirty[set] & !bit) | (u64::from(write) << w);
        self.meta[i] = fill_meta;
        self.lru.touch(set, w, ways);
        CacheOutcome {
            hit: false,
            coherency_miss,
            evicted,
            hit_meta: None,
            way: w as u8,
        }
    }

    /// Overwrites the metadata of `line`'s way `way` without a probe
    /// (`way` from the access that filled the line; lines keep their way
    /// until eviction).
    #[inline]
    pub fn set_meta_at(&mut self, line: LineAddr, way: u8, meta: M) {
        let (set, base) = self.base(line);
        debug_assert_eq!(self.tags[base + way as usize], self.tag_of(line));
        debug_assert!(self.valid[set] & (1 << way) != 0);
        self.meta[base + way as usize] = meta;
    }

    /// Non-destructive lookup: is the line present and valid?
    #[must_use]
    pub fn contains(&self, line: LineAddr) -> bool {
        let (set, base) = self.base(line);
        self.tag_matches(base, self.tag_of(line)) & self.valid[set] != 0
    }

    /// Invalidates `line` due to a coherence action. The tag is retained so
    /// a later refill can be classified as a coherency miss. Returns
    /// `Some((was_dirty, metadata))` if the line was present and valid.
    pub fn invalidate_coherence(&mut self, line: LineAddr) -> Option<(bool, M)> {
        let (set, base) = self.base(line);
        let w = self.find_valid(set, base, line)?;
        let bit = 1u64 << w;
        let dirty = self.dirty[set] & bit != 0;
        self.valid[set] &= !bit;
        self.coh[set] |= bit;
        self.dirty[set] &= !bit;
        Some((dirty, self.meta[base + w]))
    }

    /// Silently removes `line` (back-invalidation on LLC eviction; no
    /// coherency-miss marking). Returns `Some(was_dirty)` if present.
    pub fn remove(&mut self, line: LineAddr) -> Option<bool> {
        let (set, base) = self.base(line);
        let w = self.find_valid(set, base, line)?;
        let bit = 1u64 << w;
        let dirty = self.dirty[set] & bit != 0;
        self.valid[set] &= !bit;
        self.coh[set] &= !bit;
        self.dirty[set] &= !bit;
        Some(dirty)
    }

    /// Marks `line` dirty at its known `way` without a probe (see
    /// [`CacheOutcome::way`]).
    #[inline]
    pub fn mark_dirty_at(&mut self, line: LineAddr, way: u8) {
        let set = self.cfg.set_of(line);
        debug_assert_eq!(
            self.tags[set * self.cfg.ways + way as usize],
            self.tag_of(line)
        );
        debug_assert!(self.valid[set] & (1 << way) != 0);
        self.dirty[set] |= 1 << way;
    }

    /// Marks an already-present line dirty (used when an L1 writeback
    /// lands in the LLC). Returns `true` if the line was present.
    pub fn mark_dirty(&mut self, line: LineAddr) -> bool {
        let (set, base) = self.base(line);
        match self.find_valid(set, base, line) {
            Some(w) => {
                self.dirty[set] |= 1 << w;
                true
            }
            None => false,
        }
    }

    /// Number of valid lines currently resident (O(sets); for tests and
    /// diagnostics).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.valid.iter().map(|v| v.count_ones() as usize).sum()
    }
}

/// Bitmask of the positions in `tags` equal to `tag`.
#[inline]
fn scan(tags: &[u32], tag: u32) -> u64 {
    let mut eq = 0u64;
    for (w, &t) in tags.iter().enumerate() {
        eq |= u64::from(t == tag) << w;
    }
    eq
}

/// [`scan`] over exactly `N` tags.
#[inline]
fn scan_fixed<const N: usize>(tags: &[u32], tag: u32) -> u64 {
    let tags: &[u32; N] = tags.try_into().expect("one set of N ways");
    scan(tags, tag)
}

/// Bitmask selecting the low `ways` bits.
#[inline]
fn ways_mask(ways: usize) -> u64 {
    if ways == 64 {
        u64::MAX
    } else {
        (1u64 << ways) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache<()> {
        Cache::new(CacheConfig::new(4, 2))
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_sets() {
        let _ = CacheConfig::new(3, 2);
    }

    #[test]
    #[should_panic(expected = "at most 64 ways")]
    fn rejects_too_many_ways() {
        let _ = CacheConfig::new(4, 65);
    }

    #[test]
    fn seventeen_ways_selects_wide_lru() {
        let c: Cache<()> = Cache::new(CacheConfig::new(4, 17));
        assert!(matches!(c.lru, Lru::Wide(_)));
        let c16: Cache<()> = Cache::new(CacheConfig::new(4, 16));
        assert!(matches!(c16.lru, Lru::Packed(_)));
    }

    #[test]
    fn from_kib_geometry() {
        let cfg = CacheConfig::from_kib(64, 64, 8); // 64 KB L1
        assert_eq!(cfg.lines(), 1024);
        assert_eq!(cfg.sets(), 128);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        let first = c.access(100, false, ());
        assert!(!first.hit);
        assert!(first.evicted.is_none());
        let second = c.access(100, false, ());
        assert!(second.hit);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Set 0 holds lines 0, 4, 8, ... (4 sets). Fill both ways.
        c.access(0, false, ());
        c.access(4, false, ());
        // Touch 0 so 4 is LRU.
        c.access(0, false, ());
        let out = c.access(8, false, ());
        assert_eq!(out.evicted, Some((4, false, ())));
        assert!(c.contains(0));
        assert!(!c.contains(4));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = small();
        c.access(0, true, ());
        c.access(4, false, ());
        let out = c.access(8, false, ());
        assert_eq!(out.evicted, Some((0, true, ())));
    }

    #[test]
    fn write_marks_dirty_on_hit() {
        let mut c = small();
        c.access(0, false, ());
        c.access(0, true, ());
        c.access(4, false, ());
        let out = c.access(8, false, ());
        // line 0 was LRU? 0 accessed twice then 4: LRU is 0? no: order 0,0,4 → 0 older.
        assert_eq!(out.evicted, Some((0, true, ())));
    }

    #[test]
    fn coherence_invalidation_and_coherency_miss() {
        let mut c = small();
        c.access(0, false, ());
        assert_eq!(c.invalidate_coherence(0), Some((false, ())));
        assert!(!c.contains(0));
        let refill = c.access(0, false, ());
        assert!(!refill.hit);
        assert!(refill.coherency_miss);
        // A second invalidate on absent line returns None.
        assert_eq!(c.invalidate_coherence(99), None);
    }

    #[test]
    fn remove_does_not_mark_coherency() {
        let mut c = small();
        c.access(0, true, ());
        assert_eq!(c.remove(0), Some(true));
        let refill = c.access(0, false, ());
        assert!(!refill.coherency_miss);
    }

    #[test]
    fn mark_dirty() {
        let mut c = small();
        c.access(0, false, ());
        assert!(c.mark_dirty(0));
        assert!(!c.mark_dirty(4));
        c.access(4, false, ());
        let out = c.access(8, false, ());
        assert_eq!(out.evicted, Some((0, true, ())));
    }

    #[test]
    fn metadata_stored_and_returned() {
        let mut c: Cache<u16> = Cache::new(CacheConfig::new(4, 2));
        c.access(0, false, 7);
        let out = c.access(0, false, 9);
        assert_eq!(out.hit_meta, Some(7)); // fill meta ignored on hit
    }

    #[test]
    fn occupancy_bounded_by_capacity() {
        let mut c = small();
        for line in 0..100u64 {
            c.access(line, false, ());
        }
        assert!(c.occupancy() <= c.config().lines());
        assert_eq!(c.occupancy(), 8);
    }

    #[test]
    fn packed_lru_permutation_ops() {
        let o = LruOrder::identity(4);
        assert_eq!(o.0, 0x3210);
        assert_eq!(o.lru(4), 3);
        let o = o.touch(2, 4); // 2,0,1,3
        assert_eq!(o.0, 0x3102);
        assert_eq!(o.rank_of(2, 4), 0);
        assert_eq!(o.rank_of(0, 4), 1);
        let o = o.touch(3, 4); // 3,2,0,1
        assert_eq!(o.0, 0x1023);
        assert_eq!(o.lru(4), 1);
        // Touching the MRU way is a no-op.
        assert_eq!(o.touch(3, 4), o);
    }

    #[test]
    fn packed_lru_sixteen_ways() {
        let mut o = LruOrder::identity(16);
        assert_eq!(o.lru(16), 15);
        for w in (0..16).rev() {
            o = o.touch(w, 16);
        }
        // Touched in order 15..0: way 15 is now least recent... after
        // touching 15 first then 14..0, the LRU is 15.
        assert_eq!(o.lru(16), 15);
        assert_eq!(o.rank_of(0, 16), 0);
        // All ways still present exactly once.
        let mut seen = [false; 16];
        for r in 0..16 {
            seen[((o.0 >> (4 * r)) & 0xF) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn wide_lru_permutation_ops() {
        let mut l = Lru::new_wide(CacheConfig::new(1, 4));
        assert_eq!(l.lru(0, 4), 3);
        l.touch(0, 2, 4); // 2,0,1,3
        assert_eq!(l.lru(0, 4), 3);
        l.touch(0, 3, 4); // 3,2,0,1
        assert_eq!(l.lru(0, 4), 1);
        // Touching the MRU way is a no-op.
        l.touch(0, 3, 4);
        assert_eq!(l.lru(0, 4), 1);
    }

    #[test]
    fn thirty_two_way_set_evicts_true_lru() {
        // One set, 32 ways: fill, then re-touch everything except way 7's
        // line; the next fill must evict exactly that line.
        let mut c: Cache<()> = Cache::new(CacheConfig::new(1, 32));
        for line in 0..32u64 {
            c.access(line, false, ());
        }
        for line in (0..32u64).filter(|&l| l != 7) {
            c.access(line, false, ());
        }
        let out = c.access(100, false, ());
        assert_eq!(out.evicted, Some((7, false, ())));
        assert_eq!(c.occupancy(), 32);
    }

    #[test]
    fn sixty_four_way_fill_and_coherency() {
        let mut c: Cache<()> = Cache::new(CacheConfig::new(1, 64));
        for line in 0..64u64 {
            c.access(line, false, ());
        }
        assert_eq!(c.occupancy(), 64);
        assert_eq!(c.invalidate_coherence(63), Some((false, ())));
        let refill = c.access(63, false, ());
        assert!(refill.coherency_miss);
        // The 65th distinct line evicts the true LRU (line 0).
        let out = c.access(200, false, ());
        assert_eq!(out.evicted, Some((0, false, ())));
    }
}
