//! The persistent result-cache spill: an append-only, CRC32-framed
//! NDJSON file that survives `kill -9`.
//!
//! # Format
//!
//! The file is a record log of [`experiments::journal`] — the same
//! framing, recovery rules and append handle the sweep journal uses:
//!
//! ```text
//! {"crc":"xxxxxxxx","data":<record>}\n
//! ```
//!
//! The first record is the header, `{"spill": "studyd-cache",
//! "version": 1}`; every following record is one completed cache entry,
//! `{"key": "<cache key>", "value": "<journal-record JSON, escaped>"}`.
//! Keys are opaque to the format and spell out in full what their unit
//! computes (see [`crate::cache`]), so the header needs no study or
//! fingerprint of its own — one spill file serves every study and
//! parameterization — and `version` stays 1 when the key text changes:
//! an entry written under an older build's keys is inert, never looked
//! up again, never served, and aged out by the LRU and the next
//! compaction like any other cold entry. Each record is flushed as it is
//! appended, so a killed daemon loses at most the line it was writing.
//!
//! # Crash and corruption semantics
//!
//! Recovery is [`experiments::journal::open_append`]'s; this module adds
//! only the spill's header identity, its entry encoding and compaction.
//!
//! - An **unterminated final line** is the expected kill artifact:
//!   truncated on open, its unit recomputed on the next submit.
//! - A **complete but corrupt** record (layout, checksum, or an entry
//!   that does not decode to two strings) is quarantined: counted in
//!   [`SpillOpen::quarantined`] and in the cache's stats, recomputed,
//!   never served.
//! - A file that is empty or dies **inside the header line** is the
//!   artifact of a kill during creation: silently recreated.
//! - A **complete but corrupt or version-mismatched header** is a typed
//!   fatal error — identity failures are never papered over.
//!
//! The file is append-only between compactions: a replaced key simply
//! appears twice and the later record wins on reload. Reload feeds
//! entries through the cache's normal LRU insertion, so a spill larger
//! than the byte budget is clamped on the way in.
//!
//! # Compaction
//!
//! Replaced keys and evicted entries would otherwise grow the file
//! without bound, so [`SpillWriter::compact`] rewrites it from the live
//! LRU state: the survivors are written to a `.compact-tmp` sibling
//! (header first, entries in least-recently-used-first order so a
//! reload reconstructs the same recency ranking), synced, then
//! atomically renamed over the original. A crash at any point leaves
//! either the old file or the complete new one — never a torn mix.
//! `studyd` compacts on drain shutdown, and at startup right after a
//! reload that read a record the cache does not hold live (superseded,
//! evicted or quarantined).

use std::path::{Path, PathBuf};

use experiments::journal::{header_version, open_append, JournalWriter};
use speedup_stacks::error::JournalError;
use speedup_stacks::report::json::{self, JsonValue, Reader};

/// The spill format magic recorded in every header.
pub const SPILL_MAGIC: &str = "studyd-cache";
/// The spill format version this build reads and writes.
pub const SPILL_VERSION: u64 = 1;

/// The append side of a spill file. Obtained from [`open`]; handed to
/// [`crate::cache::Cache::set_spill`], which appends every completed
/// entry write-through.
#[derive(Debug)]
pub struct SpillWriter {
    log: JournalWriter,
    path: PathBuf,
}

/// Everything [`open`] recovered from a spill file.
#[derive(Debug)]
pub struct SpillOpen {
    /// The append handle, positioned after the last intact record.
    pub writer: SpillWriter,
    /// Recovered `(key, value)` entries in file order (a key appearing
    /// twice is resolved by the caller's insertion order: later wins).
    pub entries: Vec<(String, String)>,
    /// Complete-but-corrupt records skipped during reload.
    pub quarantined: usize,
}

fn io_err(op: &'static str, e: &std::io::Error) -> JournalError {
    JournalError::Io {
        op,
        message: e.to_string(),
    }
}

fn entry_record(key: &str, value: &str) -> String {
    format!(
        "{{\"key\": \"{}\", \"value\": \"{}\"}}",
        json::escape(key),
        json::escape(value)
    )
}

/// Decodes an entry record back into `(key, value)`: both strings, any
/// other field skipped, the first of a repeated field wins. `None` on
/// any syntax or shape mismatch (the caller quarantines the record).
fn entry_from_record(record: &str) -> Option<(String, String)> {
    let (mut key, mut value) = (None, None);
    let mut r = Reader::new(record);
    r.begin_object().ok()?;
    while let Some(field) = r.next_key().ok()? {
        match &*field {
            "key" if key.is_none() => key = Some(r.string().ok()?.into_owned()),
            "value" if value.is_none() => value = Some(r.string().ok()?.into_owned()),
            _ => drop(r.value().ok()?),
        }
    }
    r.finish().ok()?;
    key.zip(value)
}

/// Creates (truncating) a spill file with a fresh header.
fn create(path: &Path) -> Result<JournalWriter, JournalError> {
    JournalWriter::create_with_header(
        path,
        &format!("{{\"spill\": \"{SPILL_MAGIC}\", \"version\": {SPILL_VERSION}}}"),
    )
}

/// The spill's header identity check.
fn check_header(header: &JsonValue) -> Result<(), JournalError> {
    if header.get("spill").and_then(JsonValue::as_str) != Some(SPILL_MAGIC) {
        return Err(JournalError::BadHeader {
            why: format!("not a {SPILL_MAGIC} spill"),
        });
    }
    let version = header_version(header);
    if version != SPILL_VERSION {
        return Err(JournalError::VersionMismatch {
            found: version,
            supported: SPILL_VERSION,
        });
    }
    Ok(())
}

/// Opens a spill file, creating it if needed, and recovers every intact
/// entry written before the last shutdown or kill.
///
/// # Errors
///
/// [`JournalError::Io`] on filesystem failure; [`JournalError::BadHeader`]
/// / [`JournalError::VersionMismatch`] when an existing file's header is
/// complete but wrong — a kill *during* header creation recreates
/// silently instead.
pub fn open(path: &Path) -> Result<SpillOpen, JournalError> {
    let mut entries: Vec<(String, String)> = Vec::new();
    let mut quarantined = 0usize;
    let existing = match path.exists().then(|| open_append(path, check_header)) {
        // No file, or killed inside the very first write: no identity
        // was ever durable, so there is nothing to protect — start over.
        None | Some(Err(JournalError::MissingHeader)) => None,
        Some(other) => Some(other?),
    };
    let log = match existing {
        Some(scan) => {
            quarantined = scan.quarantined;
            for record in &scan.records {
                match entry_from_record(record) {
                    Some(entry) => entries.push(entry),
                    None => quarantined += 1,
                }
            }
            scan.writer
        }
        None => create(path)?,
    };
    Ok(SpillOpen {
        writer: SpillWriter {
            log,
            path: path.to_path_buf(),
        },
        entries,
        quarantined,
    })
}

impl SpillWriter {
    /// The file this writer appends to.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one completed cache entry and flushes it.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on write/flush failure.
    pub fn append(&mut self, key: &str, value: &str) -> Result<(), JournalError> {
        self.log.append(&entry_record(key, value))
    }

    /// Forces everything appended so far to durable storage (the
    /// drain-mode shutdown barrier).
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on sync failure.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        self.log.sync()
    }

    /// Rewrites the spill to exactly `entries` (header + one record
    /// each, in the given order), replacing the file atomically. The
    /// survivors are written to a `.compact-tmp` sibling, synced, then
    /// renamed over the original; on any error the original file — and
    /// this writer — are left untouched and still usable.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on write, sync, or rename failure.
    pub fn compact(&mut self, entries: &[(String, String)]) -> Result<(), JournalError> {
        let mut tmp_name = self.path.clone().into_os_string();
        tmp_name.push(".compact-tmp");
        let tmp = PathBuf::from(tmp_name);
        let result = (|| {
            let mut log = create(&tmp)?;
            for (key, value) in entries {
                log.append(&entry_record(key, value))?;
            }
            log.sync()?;
            std::fs::rename(&tmp, &self.path).map_err(|e| io_err("compact-rename", &e))?;
            Ok(log)
        })();
        match result {
            Ok(log) => {
                // The renamed handle *is* the live file now; appends
                // continue at its end.
                self.log = log;
                Ok(())
            }
            Err(e) => {
                std::fs::remove_file(&tmp).ok();
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use experiments::journal::wrap_line;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "studyd-spill-{}-{}-{tag}.ndjson",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn spill_round_trips_entries() {
        let path = temp_path("roundtrip");
        let mut opened = open(&path).unwrap();
        assert!(opened.entries.is_empty());
        opened.writer.append("key-0", "{\"a\": 1}").unwrap();
        opened
            .writer
            .append("key-r", "1234 5678 with \"quotes\"")
            .unwrap();
        opened.writer.sync().unwrap();
        drop(opened);
        let reopened = open(&path).unwrap();
        assert_eq!(reopened.quarantined, 0);
        assert_eq!(
            reopened.entries,
            vec![
                ("key-0".to_string(), "{\"a\": 1}".to_string()),
                ("key-r".to_string(), "1234 5678 with \"quotes\"".to_string()),
            ]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn kill_tail_dropped_and_corruption_quarantined() {
        let path = temp_path("chaos");
        let mut opened = open(&path).unwrap();
        opened.writer.append("k0", "v0").unwrap();
        opened.writer.append("k1", "v1").unwrap();
        opened.writer.append("k2", "v2").unwrap();
        drop(opened);
        // Bit rot inside k1's data, so its framing CRC no longer
        // matches; then a kill mid-write: half a line, no newline.
        let mut content = std::fs::read_to_string(&path)
            .unwrap()
            .replace("\"v1\"", "\"w1\"");
        content.push_str("{\"crc\":\"00000000\",\"data\":{\"key\": \"k3");
        std::fs::write(&path, &content).unwrap();
        let mut reopened = open(&path).unwrap();
        assert_eq!(reopened.quarantined, 1, "flipped record quarantined");
        assert_eq!(
            reopened.entries,
            vec![
                ("k0".to_string(), "v0".to_string()),
                ("k2".to_string(), "v2".to_string()),
            ],
            "kill tail dropped silently, corrupt record never served"
        );
        // The kill-tail was chopped on open, so post-recovery appends
        // start a fresh line and survive the next reload.
        reopened.writer.append("k4", "v4").unwrap();
        drop(reopened);
        let third = open(&path).unwrap();
        assert_eq!(third.quarantined, 1);
        assert_eq!(third.entries.last().unwrap().0, "k4");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn kill_during_creation_recreates_silently() {
        let path = temp_path("header-kill");
        std::fs::write(&path, "").unwrap();
        assert!(open(&path).unwrap().entries.is_empty());
        std::fs::write(&path, "{\"crc\":\"0000").unwrap();
        assert!(open(&path).unwrap().entries.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_header_is_fatal() {
        let path = temp_path("header-bad");
        std::fs::write(&path, wrap_line("{\"spill\": \"other\", \"version\": 1}")).unwrap();
        assert!(matches!(open(&path), Err(JournalError::BadHeader { .. })));
        std::fs::write(
            &path,
            wrap_line(&format!(
                "{{\"spill\": \"{SPILL_MAGIC}\", \"version\": 99}}"
            )),
        )
        .unwrap();
        assert!(matches!(
            open(&path),
            Err(JournalError::VersionMismatch {
                found: 99,
                supported: SPILL_VERSION
            })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_drops_dead_records_and_survives_reload() {
        let path = temp_path("compact");
        let mut opened = open(&path).unwrap();
        opened.writer.append("k", "old").unwrap();
        opened.writer.append("k", "mid").unwrap();
        opened.writer.append("gone", "x").unwrap();
        opened.writer.append("k", "new").unwrap();
        let lines_before = std::fs::read_to_string(&path).unwrap().lines().count();
        assert_eq!(lines_before, 5, "header + 4 appended records");
        opened
            .writer
            .compact(&[("k".to_string(), "new".to_string())])
            .unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content.lines().count(), 2, "header + 1 live record");
        // Post-compaction appends land in the rewritten file.
        opened.writer.append("k2", "v2").unwrap();
        drop(opened);
        let reopened = open(&path).unwrap();
        assert_eq!(reopened.quarantined, 0);
        assert_eq!(
            reopened.entries,
            vec![
                ("k".to_string(), "new".to_string()),
                ("k2".to_string(), "v2".to_string()),
            ]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn later_records_win_on_reload() {
        let path = temp_path("replace");
        let mut opened = open(&path).unwrap();
        opened.writer.append("k", "old").unwrap();
        opened.writer.append("k", "new").unwrap();
        drop(opened);
        let entries = open(&path).unwrap().entries;
        assert_eq!(entries.last().unwrap().1, "new", "file order preserved");
        std::fs::remove_file(&path).ok();
    }
}
