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
//! fabricate data. Values are the exact journal-record strings the sweep
//! would write ([`experiments::PointSummary::to_record`]), so a cache
//! hit reproduces a computed point bit for bit.
//!
//! Eviction is least-recently-used with lazy recency cleanup: every
//! access pushes a `(key, tick)` stamp onto a queue; eviction pops
//! stamps until it finds one that is still the keyed entry's latest.
//! All counters (hits, misses, insertions, evictions) are reported
//! through the `status` request.
//!
//! With a [`crate::persist::SpillWriter`] attached, every insertion is
//! also appended write-through to the spill file, and entries recovered
//! on startup are fed back in through [`Cache::preload`] — so a
//! `kill -9` + restart serves warm resubmits without recompute. A
//! spill write failure disables persistence for the rest of the
//! process (reported once on stderr) rather than failing the job: the
//! cache's correctness never depends on the disk.

use std::collections::{HashMap, VecDeque};
use std::sync::{Mutex, PoisonError};

use speedup_stacks::error::JournalError;

use crate::persist::SpillWriter;

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

#[derive(Debug)]
struct Entry {
    value: String,
    tick: u64,
}

#[derive(Debug)]
struct Inner {
    map: HashMap<String, Entry>,
    recency: VecDeque<(String, u64)>,
    tick: u64,
    bytes: usize,
    budget: usize,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    spill: Option<SpillWriter>,
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
                map: HashMap::new(),
                recency: VecDeque::new(),
                tick: 0,
                bytes: 0,
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

    /// Attaches the persistent spill: every subsequent [`Cache::put`]
    /// is appended write-through.
    pub fn set_spill(&self, writer: SpillWriter) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.spill = Some(writer);
    }

    /// Feeds entries recovered from the spill back into the cache —
    /// through the normal LRU insertion (so an over-budget spill is
    /// clamped), but without re-appending them to the file and without
    /// counting them as fresh insertions. `quarantined` records the
    /// reload's corrupt-line count for the stats.
    pub fn preload(&self, entries: Vec<(String, String)>, quarantined: usize) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.quarantined += quarantined as u64;
        for (key, value) in entries {
            insert_locked(&mut inner, &key, &value);
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
    #[must_use]
    pub fn get(&self, key: &str) -> Option<String> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(entry) => {
                entry.tick = tick;
                let value = entry.value.clone();
                inner.recency.push_back((key.to_string(), tick));
                inner.hits += 1;
                Some(value)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Stores a value (replacing any previous one under the key), then
    /// evicts least-recently-used entries until the budget holds. A
    /// value larger than the whole budget simply doesn't stay cached.
    /// With a spill attached, the entry is also appended write-through.
    pub fn put(&self, key: &str, value: &str) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        insert_locked(&mut inner, key, value);
        inner.insertions += 1;
        if let Some(spill) = inner.spill.as_mut() {
            match spill.append(key, value) {
                Ok(()) => inner.spilled += 1,
                Err(e) => {
                    eprintln!(
                        "studyd: cache spill write failed, persistence disabled for this run: {e}"
                    );
                    inner.spill = None;
                }
            }
        }
    }

    /// Snapshot of the live entries in least-recently-used-first order
    /// (ascending access tick). Feeding this snapshot back through
    /// [`Cache::preload`] reconstructs the same entries *and* the same
    /// relative recency ranking, which is what makes a compacted spill
    /// reload to the identical cache state.
    #[must_use]
    pub fn live_entries(&self) -> Vec<(String, String)> {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let mut items: Vec<(&String, &Entry)> = inner.map.iter().collect();
        items.sort_by_key(|(_, e)| e.tick);
        items
            .into_iter()
            .map(|(k, e)| (k.clone(), e.value.clone()))
            .collect()
    }

    /// Rewrites the attached spill file from the live LRU state (see
    /// [`SpillWriter::compact`]), dropping replaced and evicted records
    /// so the append-only file stops growing without bound. Returns
    /// `Ok(false)` when no spill is attached.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the rewrite fails; the original spill
    /// file is left untouched and appends continue against it.
    pub fn compact_spill(&self) -> Result<bool, JournalError> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let inner = &mut *inner;
        let Some(spill) = inner.spill.as_mut() else {
            return Ok(false);
        };
        let mut items: Vec<(&String, &Entry)> = inner.map.iter().collect();
        items.sort_by_key(|(_, e)| e.tick);
        let entries: Vec<(String, String)> = items
            .into_iter()
            .map(|(k, e)| (k.clone(), e.value.clone()))
            .collect();
        spill.compact(&entries)?;
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
            entries: inner.map.len(),
            bytes: inner.bytes,
            budget: inner.budget,
            loaded: inner.loaded,
            quarantined: inner.quarantined,
            spilled: inner.spilled,
        }
    }
}

/// The raw LRU insertion (entry + recency + eviction + hygiene), shared
/// by fresh [`Cache::put`]s and spill [`Cache::preload`]s.
fn insert_locked(inner: &mut Inner, key: &str, value: &str) {
    inner.tick += 1;
    let tick = inner.tick;
    let new_bytes = entry_bytes(key, value);
    if let Some(old) = inner.map.insert(
        key.to_string(),
        Entry {
            value: value.to_string(),
            tick,
        },
    ) {
        inner.bytes -= entry_bytes(key, &old.value);
    }
    inner.bytes += new_bytes;
    inner.recency.push_back((key.to_string(), tick));

    while inner.bytes > inner.budget {
        let Some((old_key, old_tick)) = inner.recency.pop_front() else {
            break;
        };
        let evict = inner.map.get(&old_key).is_some_and(|e| e.tick == old_tick);
        if evict {
            let old = inner.map.remove(&old_key).expect("checked above");
            inner.bytes -= entry_bytes(&old_key, &old.value);
            inner.evictions += 1;
        }
    }
    // Lazy-cleanup hygiene: drop stale recency stamps once they
    // outnumber live entries badly, so long-running servers don't
    // accumulate an unbounded stamp queue.
    if inner.recency.len() > inner.map.len() * 2 + 64 {
        let map = std::mem::take(&mut inner.map);
        inner
            .recency
            .retain(|(k, t)| map.get(k).is_some_and(|e| e.tick == *t));
        inner.map = map;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn oversized_value_does_not_wedge_the_cache() {
        let c = Cache::new(10);
        c.put("k", &"x".repeat(100));
        assert_eq!(c.stats().entries, 0, "over-budget entry evicted");
        c.put("a", "1");
        assert!(c.get("a").is_some(), "cache still works");
    }

    #[test]
    fn spill_write_through_and_preload_round_trip() {
        let path = std::env::temp_dir().join(format!(
            "studyd-cache-spill-{}-roundtrip.ndjson",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        let opened = crate::persist::open(&path).unwrap();
        let c = Cache::new(1024);
        c.set_spill(opened.writer);
        c.put("key-0", "{\"a\": 1}");
        c.put("key-r", "10 20");
        c.sync().unwrap();
        assert_eq!(c.stats().spilled, 2);

        // A fresh cache (a restarted daemon) recovers both entries.
        let reopened = crate::persist::open(&path).unwrap();
        let warm = Cache::new(1024);
        warm.preload(reopened.entries, reopened.quarantined);
        let s = warm.stats();
        assert_eq!((s.loaded, s.quarantined, s.insertions), (2, 0, 0));
        assert_eq!(warm.get("key-0").as_deref(), Some("{\"a\": 1}"));
        assert_eq!(warm.get("key-r").as_deref(), Some("10 20"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compacted_spill_reloads_to_identical_cache_state() {
        let path = std::env::temp_dir().join(format!(
            "studyd-cache-spill-{}-compact.ndjson",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        let opened = crate::persist::open(&path).unwrap();
        let c = Cache::new(1024);
        c.set_spill(opened.writer);
        c.put("key-0", "first");
        c.put("key-1", "b");
        c.put("key-0", "replaced");
        c.put("key-r", "10 20");
        // Shuffle recency so the compacted order is not insertion order.
        assert!(c.get("key-1").is_some());
        let live = c.live_entries();
        assert_eq!(live.len(), 3);
        assert_eq!(live.last().unwrap().0, "key-1", "most recent last");

        assert!(c.compact_spill().unwrap(), "spill attached");
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
        let reopened = crate::persist::open(&path).unwrap();
        let warm = Cache::new(1024);
        warm.preload(reopened.entries, reopened.quarantined);
        let mut expect = live;
        expect.push(("key-9".to_string(), "late".to_string()));
        assert_eq!(warm.live_entries(), expect);
        assert_eq!(warm.get("key-0").as_deref(), Some("replaced"));

        let bare = Cache::new(64);
        assert!(!bare.compact_spill().unwrap(), "no spill → Ok(false)");
        std::fs::remove_file(&path).ok();
    }
}
