//! Content-addressed result cache with an LRU byte budget.
//!
//! Keys are opaque strings to this module. The scheduler addresses a
//! unit by **what it computes** —
//! [`experiments::decompose::GridStudy::unit_keys`]: unit kind,
//! benchmark, thread count, exact scale bits, LLC capacity, spelled out
//! in full — not by which study asked for it or at which grid index, so
//! `fig6`, `fig5` and `fig1` are served from `fig4`'s entries. A hash of
//! those parameters is deliberately **not** the key: a collision would
//! silently serve another unit's result, and a cache must never
//! fabricate data. Values are the exact text a sweep journal entry holds
//! for the unit ([`experiments::PointSummary::to_record`] for a point,
//! [`experiments::runner::ref_to_value`] for a reference), so a cache
//! hit reproduces a computed unit bit for bit.
//!
//! Eviction is least-recently-used. The entries sit in a slab, doubly
//! linked from least to most recently used, beside a key → slot map: a
//! hit relinks one slot to the most-recent end and allocates nothing;
//! an insertion evicts from the least-recent end while the budget is
//! exceeded. The bookkeeping is exactly the live entries, so memory is
//! their keys and values plus a constant per entry, however many hits a
//! long-lived server answers. The byte budget counts key + value bytes.
//! A value larger than the whole budget is refused up front — counted
//! as one insertion and one eviction, it evicts nothing else and is not
//! spilled. All counters (hits, misses, insertions, evictions) are
//! reported through the `status` request.
//!
//! Values are shared, never copied out: each is stored as an `Arc<str>`,
//! and a hit ([`Cache::get`]) hands out that allocation with a reference
//! count bump under the lock, so a warm job streams the cached record
//! itself. The budget counts a live value once, however many holders
//! share it. A value evicted while a job still streams it lives on,
//! outside the budget, until that job's frame carrying it is written.
//!
//! # The spill
//!
//! [`Cache::load_spill`] makes the cache persistent. The spill file is a
//! record log of [`experiments::journal`] — the sweep journal's framing,
//! entries, recovery rules and append handle — under its own header,
//! `{"spill": "studyd-cache", "version": 1}`. Each entry is one
//! completed unit, `{"key": <unit key>, "value": <value text>}`, the
//! very bytes a sweep journal writes for that unit. The header carries
//! no study or fingerprint: the keys spell out in full what their unit
//! computes, so one spill serves every study and parameterization, and
//! the version stays 1 when the key text changes — an entry under an
//! older build's keys is inert, never looked up, and aged out like any
//! cold entry.
//!
//! Loading recovers every intact entry through the normal LRU insertion
//! (an over-budget spill is clamped on the way in), quarantines corrupt
//! records (counted in [`CacheStats::quarantined`], recomputed, never
//! served), drops a `kill -9`'s torn final line, and silently recreates
//! a file whose header line never completed (a kill during creation).
//! A complete but wrong header is a typed fatal error. After that,
//! every insertion is appended write-through, so a `kill -9` + restart
//! serves warm resubmits without recompute. A spill write failure
//! disables persistence for the rest of the process (reported once on
//! stderr) rather than failing the job: the cache's correctness never
//! depends on the disk.
//!
//! The file is append-only between compactions: a replaced key simply
//! appears twice and the later entry wins on reload. [`Cache::compact`]
//! rewrites it atomically to the live entries, least recently used
//! first, so a reload reconstructs the same recency ranking. `studyd`
//! compacts on drain shutdown, and on load exactly when the reload read
//! a record the cache does not hold live (superseded, evicted or
//! quarantined).

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

use experiments::journal::{check_magic, open_append, JournalScan, JournalWriter};
use speedup_stacks::error::JournalError;

/// The spill format magic recorded in every spill header.
const SPILL_MAGIC: &str = "studyd-cache";
/// The spill format version this build reads and writes.
const SPILL_VERSION: u64 = 1;

/// A point-in-time snapshot of the cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Values stored (including replacements).
    pub insertions: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Live entries.
    pub entries: usize,
    /// Live bytes (keys + values).
    pub bytes: usize,
    /// The byte budget.
    pub budget: usize,
    /// Entries restored from the persistent spill on startup.
    pub loaded: u64,
    /// Corrupt spill records quarantined on startup (recomputed, never
    /// served).
    pub quarantined: u64,
    /// Entries appended to the persistent spill since startup.
    pub spilled: u64,
}

/// No slot: past either end of the recency list.
const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Slot {
    key: Arc<str>,
    value: Arc<str>,
    /// The next less recently used slot, or [`NIL`].
    older: usize,
    /// The next more recently used slot, or [`NIL`].
    newer: usize,
}

/// The live entries: a slab linked in recency order plus a key → slot
/// map. Removing a slot moves the last one into its place, so the slab
/// never holds a dead slot.
#[derive(Debug)]
struct Lru {
    slots: Vec<Slot>,
    index: HashMap<Arc<str>, usize>,
    oldest: usize,
    newest: usize,
    /// Key + value bytes of the live entries.
    bytes: usize,
}

impl Lru {
    fn unlink(&mut self, i: usize) {
        let (older, newer) = (self.slots[i].older, self.slots[i].newer);
        match older {
            NIL => self.oldest = newer,
            o => self.slots[o].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.slots[n].older = older,
        }
    }

    fn link_newest(&mut self, i: usize) {
        self.slots[i].older = self.newest;
        self.slots[i].newer = NIL;
        match self.newest {
            NIL => self.oldest = i,
            n => self.slots[n].newer = i,
        }
        self.newest = i;
    }

    /// The value under `key`, made the most recently used.
    fn get(&mut self, key: &str) -> Option<&Arc<str>> {
        let i = *self.index.get(key)?;
        self.unlink(i);
        self.link_newest(i);
        Some(&self.slots[i].value)
    }

    fn push_newest(&mut self, key: &str, value: Arc<str>) {
        let i = self.slots.len();
        let key: Arc<str> = Arc::from(key);
        self.bytes += entry_bytes(&key, &value);
        self.index.insert(Arc::clone(&key), i);
        self.slots.push(Slot {
            key,
            value,
            older: NIL,
            newer: NIL,
        });
        self.link_newest(i);
    }

    fn remove(&mut self, i: usize) {
        self.unlink(i);
        let slot = self.slots.swap_remove(i);
        self.index.remove(&slot.key);
        self.bytes -= entry_bytes(&slot.key, &slot.value);
        if i < self.slots.len() {
            // The former last slot now sits at `i`: repoint its
            // neighbours and its key.
            let (older, newer) = (self.slots[i].older, self.slots[i].newer);
            match older {
                NIL => self.oldest = i,
                o => self.slots[o].newer = i,
            }
            match newer {
                NIL => self.newest = i,
                n => self.slots[n].older = i,
            }
            *self
                .index
                .get_mut(&self.slots[i].key)
                .expect("every slot is indexed") = i;
        }
    }

    /// The live entries, least recently used first.
    fn oldest_first(&self) -> Vec<(String, String)> {
        let mut out = Vec::with_capacity(self.slots.len());
        let mut i = self.oldest;
        while i != NIL {
            let slot = &self.slots[i];
            out.push((slot.key.to_string(), slot.value.to_string()));
            i = slot.newer;
        }
        out
    }
}

#[derive(Debug)]
struct Inner {
    lru: Lru,
    budget: usize,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    spill: Option<JournalWriter>,
    loaded: u64,
    quarantined: u64,
    spilled: u64,
}

/// A thread-safe LRU string cache with a byte budget.
#[derive(Debug)]
pub struct Cache {
    inner: Mutex<Inner>,
}

fn entry_bytes(key: &str, value: &str) -> usize {
    key.len() + value.len()
}

impl Cache {
    /// An empty cache bounded to `budget` bytes of keys + values.
    #[must_use]
    pub fn new(budget: usize) -> Cache {
        Cache {
            inner: Mutex::new(Inner {
                lru: Lru {
                    slots: Vec::new(),
                    index: HashMap::new(),
                    oldest: NIL,
                    newest: NIL,
                    bytes: 0,
                },
                budget,
                hits: 0,
                misses: 0,
                insertions: 0,
                evictions: 0,
                spill: None,
                loaded: 0,
                quarantined: 0,
                spilled: 0,
            }),
        }
    }

    /// Makes the cache persistent: opens the spill file at `path`
    /// (creating it, or recreating one whose header line never
    /// completed), loads every intact entry through the normal LRU
    /// insertion — without re-appending it and without counting it as a
    /// fresh insertion — and appends every later [`Cache::put`]
    /// write-through. A load that read a record the cache does not hold
    /// live (superseded, evicted or quarantined) compacts the file.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on filesystem failure;
    /// [`JournalError::BadHeader`] / [`JournalError::VersionMismatch`]
    /// when an existing file's header is complete but wrong.
    pub fn load_spill(&self, path: &Path) -> Result<(), JournalError> {
        let opened = path.exists().then(|| {
            open_append(path, |header| {
                check_magic(header, "spill", SPILL_MAGIC, SPILL_VERSION)
            })
        });
        let scan = match opened {
            // No file, or killed inside the very first write: no identity
            // was ever durable, so there is nothing to protect.
            None | Some(Err(JournalError::MissingHeader)) => JournalScan {
                writer: JournalWriter::create(
                    path,
                    &format!("{{\"spill\": \"{SPILL_MAGIC}\", \"version\": {SPILL_VERSION}}}"),
                )?,
                entries: Vec::new(),
                quarantined: 0,
            },
            Some(scan) => scan?,
        };
        let read = (scan.entries.len() + scan.quarantined) as u64;
        self.preload(scan.entries, scan.quarantined);
        let dead = {
            let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            inner.spill = Some(scan.writer);
            read > inner.lru.slots.len() as u64
        };
        if dead {
            if let Err(e) = self.compact() {
                crate::stderr_line(format_args!("studyd: startup spill compaction failed: {e}"));
            }
        }
        Ok(())
    }

    /// Feeds recovered entries into the cache through the normal LRU
    /// insertion, without appending them to the spill and without
    /// counting them as fresh insertions; `quarantined` is the reload's
    /// corrupt-record count.
    fn preload(&self, entries: Vec<(String, String)>, quarantined: usize) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.quarantined += quarantined as u64;
        for (key, value) in entries {
            insert_locked(&mut inner, &key, value.into());
            inner.loaded += 1;
        }
    }

    /// Flushes and syncs the spill to durable storage (the drain-mode
    /// shutdown barrier). A no-op without an attached spill.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the sync fails.
    pub fn sync(&self) -> Result<(), JournalError> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        match inner.spill.as_mut() {
            Some(spill) => spill.sync(),
            None => Ok(()),
        }
    }

    /// Looks a value up, refreshing its recency. Counts a hit or miss.
    /// A hit shares the stored value: nothing is copied.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<Arc<str>> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let value = inner.lru.get(key).map(Arc::clone);
        match value {
            Some(_) => inner.hits += 1,
            None => inner.misses += 1,
        }
        value
    }

    /// Stores a value (replacing any previous one under the key), then
    /// evicts least-recently-used entries until the budget holds. A
    /// value larger than the whole budget is refused: the key is left
    /// uncached, nothing else is evicted, and nothing is spilled. With a
    /// spill attached, a stored entry is appended write-through. The
    /// value is copied into a shared allocation; a caller that streams
    /// the value too stores it with [`Cache::put_shared`] instead.
    pub fn put(&self, key: &str, value: &str) {
        self.put_shared(key, Arc::from(value));
    }

    /// [`Cache::put`] of a value the caller keeps a handle on: the cache
    /// stores this very allocation, so a record a worker caches and
    /// streams exists once.
    pub fn put_shared(&self, key: &str, value: Arc<str>) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.insertions += 1;
        if !insert_locked(&mut inner, key, Arc::clone(&value)) {
            return;
        }
        if let Some(spill) = inner.spill.as_mut() {
            match spill.append(key, &value) {
                Ok(()) => inner.spilled += 1,
                Err(e) => {
                    crate::stderr_line(format_args!(
                        "studyd: cache spill write failed, persistence disabled for this run: {e}"
                    ));
                    inner.spill = None;
                }
            }
        }
    }

    /// Snapshot of the live entries, least recently used first. Loading
    /// this snapshot back reconstructs the same entries *and* the same
    /// recency order, which is what makes a compacted spill reload to
    /// the identical cache state.
    #[must_use]
    pub fn live_entries(&self) -> Vec<(String, String)> {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.lru.oldest_first()
    }

    /// Rewrites the attached spill file from the live LRU state (see
    /// [`JournalWriter::compact`]), dropping replaced and evicted records
    /// so the append-only file stops growing without bound. Returns
    /// `Ok(false)` when no spill is attached.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the rewrite fails; the original spill
    /// file is left untouched and appends continue against it.
    pub fn compact(&self) -> Result<bool, JournalError> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let inner = &mut *inner;
        let Some(spill) = inner.spill.as_mut() else {
            return Ok(false);
        };
        spill.compact(&inner.lru.oldest_first())?;
        Ok(true)
    }

    /// Snapshot of the counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            insertions: inner.insertions,
            evictions: inner.evictions,
            entries: inner.lru.slots.len(),
            bytes: inner.lru.bytes,
            budget: inner.budget,
            loaded: inner.loaded,
            quarantined: inner.quarantined,
            spilled: inner.spilled,
        }
    }
}

/// The LRU insertion shared by fresh [`Cache::put`]s and
/// [`Cache::load_spill`]: drops any value already under `key`, then stores
/// the new one as the most recently used, evicting from the least-recent
/// end until it fits. Returns `false`, storing nothing, for a value
/// larger than the whole budget (counted as evicted).
fn insert_locked(inner: &mut Inner, key: &str, value: Arc<str>) -> bool {
    let lru = &mut inner.lru;
    if let Some(&i) = lru.index.get(key) {
        lru.remove(i);
    }
    let bytes = entry_bytes(key, &value);
    if bytes > inner.budget {
        inner.evictions += 1;
        return false;
    }
    while lru.bytes + bytes > inner.budget {
        lru.remove(lru.oldest);
        inner.evictions += 1;
    }
    lru.push_newest(key, value);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::rng::SmallRng;

    #[test]
    fn hit_miss_and_replacement() {
        let c = Cache::new(1024);
        assert_eq!(c.get("a"), None);
        c.put("a", "1");
        assert_eq!(c.get("a").as_deref(), Some("1"));
        c.put("a", "22");
        assert_eq!(c.get("a").as_deref(), Some("22"));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (2, 1, 2));
        assert_eq!(s.entries, 1);
        assert_eq!(s.bytes, "a".len() + "22".len());
    }

    #[test]
    fn evicts_least_recently_used_first() {
        // Each entry is 10 bytes (5-byte key + 5-byte value); budget
        // holds three.
        let c = Cache::new(30);
        c.put("key-a", "val-a");
        c.put("key-b", "val-b");
        c.put("key-c", "val-c");
        // Touch a so b is the least recently used.
        assert!(c.get("key-a").is_some());
        c.put("key-d", "val-d");
        assert!(c.get("key-b").is_none(), "LRU entry evicted");
        assert!(c.get("key-a").is_some());
        assert!(c.get("key-c").is_some());
        assert!(c.get("key-d").is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    fn temp_spill(tag: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "studyd-cache-spill-{}-{tag}.ndjson",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        path
    }

    fn keys(c: &Cache) -> Vec<String> {
        c.live_entries().into_iter().map(|(k, _)| k).collect()
    }

    #[test]
    fn oversized_value_does_not_wedge_the_cache() {
        let path = temp_spill("oversized");
        let c = Cache::new(10);
        c.load_spill(&path).unwrap();
        for key in ["a", "b", "c"] {
            c.put(key, "1");
        }
        c.put("k", &"x".repeat(100));
        let s = c.stats();
        assert_eq!(
            (s.entries, s.insertions, s.evictions, s.spilled),
            (3, 4, 1, 3),
            "over-budget entry refused: counted, but nothing else evicted and nothing spilled"
        );
        for key in ["a", "b", "c"] {
            assert_eq!(c.get(key).as_deref(), Some("1"), "{key} still served");
        }
        assert!(c.get("k").is_none());
        c.put("d", "1");
        assert!(c.get("d").is_some(), "cache still works");
        c.sync().unwrap();
        let reloaded = Cache::new(10);
        reloaded.load_spill(&path).unwrap();
        assert_eq!(
            keys(&reloaded),
            ["a", "b", "c", "d"],
            "a reload repeats no flush"
        );
        assert_eq!(reloaded.stats().loaded, 4);
        std::fs::remove_file(&path).ok();
    }

    /// The model loop's oracle: the live entries in a `Vec`, least
    /// recently used first, and the counters the cache must report.
    struct Model {
        entries: Vec<(String, String)>,
        stats: CacheStats,
    }

    impl Model {
        fn get(&mut self, key: &str) -> Option<String> {
            let Some(i) = self.entries.iter().position(|(k, _)| k == key) else {
                self.stats.misses += 1;
                return None;
            };
            let entry = self.entries.remove(i);
            let value = entry.1.clone();
            self.entries.push(entry);
            self.stats.hits += 1;
            Some(value)
        }

        fn insert(&mut self, key: &str, value: &str) {
            self.entries.retain(|(k, _)| k != key);
            if entry_bytes(key, value) > self.stats.budget {
                self.stats.evictions += 1;
                return;
            }
            self.entries.push((key.to_string(), value.to_string()));
            while self.bytes() > self.stats.budget {
                self.entries.remove(0);
                self.stats.evictions += 1;
            }
        }

        fn bytes(&self) -> usize {
            self.entries.iter().map(|(k, v)| entry_bytes(k, v)).sum()
        }

        fn stats(&self) -> CacheStats {
            CacheStats {
                entries: self.entries.len(),
                bytes: self.bytes(),
                ..self.stats
            }
        }
    }

    /// The slab, the links walked either way and the map each hold
    /// exactly `entries` slots.
    fn assert_bookkeeping_is(c: &Cache, entries: usize) {
        let inner = c.inner.lock().unwrap();
        let lru = &inner.lru;
        assert_eq!(
            (lru.slots.len(), lru.index.len()),
            (entries, entries),
            "slab, map"
        );
        let walk = |mut i: usize, forward: bool| {
            let mut linked = 0;
            while i != NIL {
                linked += 1;
                assert!(linked <= entries, "links longer than the slab");
                i = if forward {
                    lru.slots[i].newer
                } else {
                    lru.slots[i].older
                };
            }
            linked
        };
        assert_eq!(
            (walk(lru.oldest, true), walk(lru.newest, false)),
            (entries, entries),
            "links"
        );
    }

    /// Prints the case on the way out of a failed assertion.
    struct CaseOnPanic(u64);

    impl Drop for CaseOnPanic {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("cache model: failing case: run_case({})", self.0);
            }
        }
    }

    fn run_case(seed: u64) {
        let _guard = CaseOnPanic(seed);
        let mut rng = SmallRng::seed_from_u64(seed);
        let budget = rng.gen_range(8..160usize);
        let n_keys = rng.gen_range(2..40usize);
        let c = Cache::new(budget);
        let mut model = Model {
            entries: Vec::new(),
            stats: CacheStats {
                budget,
                ..CacheStats::default()
            },
        };
        let key = |rng: &mut SmallRng| format!("key-{}", rng.gen_range(0..n_keys));
        // Mostly a few entries' worth of the budget; now and then more
        // than all of it.
        let value = |rng: &mut SmallRng| {
            let len = if rng.gen_bool(0.05) {
                rng.gen_range(budget..2 * budget)
            } else {
                rng.gen_range(0..budget / 3)
            };
            format!("{}:{}", rng.gen_range(0..1000u32), "x".repeat(len))
        };
        for step in 0..rng.gen_range(1..120usize) {
            match rng.gen_range(0..20u32) {
                0..=6 => {
                    let k = key(&mut rng);
                    let (got, want) = (c.get(&k), model.get(&k));
                    assert_eq!(got.as_deref(), want.as_deref(), "get {k}, step {step}");
                }
                7..=11 => {
                    let (k, v) = (key(&mut rng), value(&mut rng));
                    c.put(&k, &v);
                    model.insert(&k, &v);
                    model.stats.insertions += 1;
                }
                12..=15 if !model.entries.is_empty() => {
                    let at = rng.gen_range(0..model.entries.len());
                    let (k, v) = (model.entries[at].0.clone(), value(&mut rng));
                    c.put(&k, &v);
                    model.insert(&k, &v);
                    model.stats.insertions += 1;
                }
                _ => {
                    let batch: Vec<(String, String)> = (0..rng.gen_range(0..5usize))
                        .map(|_| (key(&mut rng), value(&mut rng)))
                        .collect();
                    let quarantined = rng.gen_range(0..3usize);
                    c.preload(batch.clone(), quarantined);
                    for (k, v) in &batch {
                        model.insert(k, v);
                        model.stats.loaded += 1;
                    }
                    model.stats.quarantined += quarantined as u64;
                }
            }
            assert_eq!(c.stats(), model.stats(), "stats, step {step}");
            assert_eq!(
                c.live_entries(),
                model.entries,
                "recency order, step {step}"
            );
            assert_bookkeeping_is(&c, model.entries.len());
        }
    }

    #[test]
    fn lru_matches_a_recency_ordered_vec_under_seeded_operations() {
        for seed in 0..2_000 {
            run_case(seed);
        }
    }

    #[test]
    fn spill_write_through_and_reload_round_trip() {
        let path = temp_spill("roundtrip");
        let c = Cache::new(1024);
        c.load_spill(&path).unwrap();
        c.put("key-0", "{\"a\": 1}");
        c.put("key-r", "10 20");
        c.sync().unwrap();
        assert_eq!(c.stats().spilled, 2);

        // A fresh cache (a restarted daemon) recovers both entries.
        let warm = Cache::new(1024);
        warm.load_spill(&path).unwrap();
        let s = warm.stats();
        assert_eq!((s.loaded, s.quarantined, s.insertions), (2, 0, 0));
        assert_eq!(warm.get("key-0").as_deref(), Some("{\"a\": 1}"));
        assert_eq!(warm.get("key-r").as_deref(), Some("10 20"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_load_that_read_a_dead_record_compacts_the_spill() {
        let path = temp_spill("dead");
        let c = Cache::new(1024);
        c.load_spill(&path).unwrap();
        c.put("k", "old");
        c.put("j", "1");
        c.put("k", "new");
        drop(c);
        let lines = || std::fs::read_to_string(&path).unwrap().lines().count();
        assert_eq!(lines(), 4, "header + 3 appended entries");
        let warm = Cache::new(1024);
        warm.load_spill(&path).unwrap();
        assert_eq!(
            warm.get("k").as_deref(),
            Some("new"),
            "the later entry wins"
        );
        assert_eq!(lines(), 3, "the superseded entry is compacted away");
        drop(warm);
        // Nothing is dead now: the next load leaves the file alone.
        let len = std::fs::metadata(&path).unwrap().len();
        Cache::new(1024).load_spill(&path).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn kill_during_creation_recreates_silently() {
        let path = temp_spill("header-kill");
        for torn in ["", "{\"crc\":\"0000"] {
            std::fs::write(&path, torn).unwrap();
            let c = Cache::new(1024);
            c.load_spill(&path).unwrap();
            assert_eq!(c.stats().entries, 0);
            c.put("k", "v");
            drop(c);
            let warm = Cache::new(1024);
            warm.load_spill(&path).unwrap();
            assert_eq!(warm.get("k").as_deref(), Some("v"), "a fresh spill");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_header_is_fatal() {
        use experiments::journal::wrap_line;
        let path = temp_spill("header-bad");
        let load = |header: &str| {
            std::fs::write(&path, wrap_line(header)).unwrap();
            Cache::new(1024).load_spill(&path)
        };
        assert!(matches!(
            load("{\"spill\": \"other\", \"version\": 1}"),
            Err(JournalError::BadHeader { .. })
        ));
        assert_eq!(
            load("{\"spill\": \"studyd-cache\", \"version\": 99}"),
            Err(JournalError::VersionMismatch {
                found: 99,
                supported: SPILL_VERSION
            })
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compacted_spill_reloads_to_identical_cache_state() {
        let path = temp_spill("compact");
        let c = Cache::new(1024);
        c.load_spill(&path).unwrap();
        c.put("key-0", "first");
        c.put("key-1", "b");
        c.put("key-0", "replaced");
        c.put("key-r", "10 20");
        // Shuffle recency so the compacted order is not insertion order.
        assert!(c.get("key-1").is_some());
        let live = c.live_entries();
        assert_eq!(live.len(), 3);
        assert_eq!(live.last().unwrap().0, "key-1", "most recent last");

        assert!(c.compact().unwrap(), "spill attached");
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            content.lines().count(),
            1 + live.len(),
            "header + live entries only: replaced record dropped"
        );
        // Appends after compaction keep persisting.
        c.put("key-9", "late");

        // A restarted daemon reloads the identical live state, in the
        // identical recency order.
        let warm = Cache::new(1024);
        warm.load_spill(&path).unwrap();
        let mut expect = live;
        expect.push(("key-9".to_string(), "late".to_string()));
        assert_eq!(warm.live_entries(), expect);
        assert_eq!(warm.get("key-0").as_deref(), Some("replaced"));

        let bare = Cache::new(64);
        assert!(!bare.compact().unwrap(), "no spill → Ok(false)");
        std::fs::remove_file(&path).ok();
    }
}
