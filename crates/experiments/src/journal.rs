//! Crash-safe record logs: line-delimited, checksummed JSON records
//! behind a header, each record one computed unit. The sweep journal
//! (`repro --journal/--resume`) and the study service's cache spill are
//! the two such logs.
//!
//! # Format
//!
//! Every line has the fixed layout
//!
//! ```text
//! {"crc":"xxxxxxxx","data":<record>}\n
//! ```
//!
//! where `xxxxxxxx` is the lowercase-hex CRC-32 (IEEE polynomial,
//! reflected) of the exact `<record>` byte string. The first line's
//! record is the log's **header**; a sweep journal's is
//!
//! ```text
//! {"journal": "repro-sweep", "version": 2, "study": "fig6", "fingerprint": "xxxxxxxx"}
//! ```
//!
//! `fingerprint` hashes the result-affecting study parameters
//! ([`fingerprint`]), so a journal can never silently replay points from
//! a different parameterization. Every following record is one computed
//! unit, the **entry**
//!
//! ```text
//! {"key": "<unit identity>", "value": "<result text, escaped>"}
//! ```
//!
//! keyed by [`crate::decompose::GridStudy::unit_keys`] and valued by
//! [`crate::runner::ref_to_value`] (a reference) or
//! [`crate::runner::PointSummary::to_record`] (a point): a journal entry
//! and a spill entry for the same unit are the same bytes. A resume
//! looks each unit up by its key, exactly as a served cache hit does.
//! Version 1 journals (name-keyed `ref`/`point` records) are refused
//! with [`JournalError::VersionMismatch`], never silently recomputed.
//!
//! # Crash and corruption semantics
//!
//! - A final line **without a trailing newline** is the expected artifact
//!   of a killed writer: it is dropped silently and its unit recomputed.
//! - A **complete** line that is not UTF-8, fails the layout or the
//!   checksum, or is not an entry is *quarantined*: counted (the sweep
//!   reports it in the report's `Degraded` block) and its unit
//!   recomputed. So is an entry whose value does not decode.
//! - A log whose **header** is missing, corrupt, from another format
//!   version or (a journal) another study/parameterization is rejected
//!   with a typed [`JournalError`] — identity failures are never papered
//!   over.
//!
//! A key appearing twice is resolved by file order: the later entry
//! wins. [`JournalWriter::compact`] rewrites a log to exactly a given
//! entry list, atomically.

use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use speedup_stacks::error::JournalError;
use speedup_stacks::report::json::{self, JsonValue, Reader};

use crate::study::StudyParams;

/// The journal format version this build reads and writes.
pub const FORMAT_VERSION: u64 = 2;
/// The format magic recorded in every header.
pub const MAGIC: &str = "repro-sweep";

/// CRC-32 (IEEE 802.3 polynomial, reflected — the `cksum`/zlib variant).
/// The implementation lives in [`speedup_stacks::crc`] so the journal and
/// the binary trace format share one checksum; this re-export keeps the
/// journal's original path working.
///
/// ```
/// // The canonical check vector.
/// assert_eq!(experiments::journal::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub use speedup_stacks::crc::crc32;

use speedup_stacks::crc::crc32_hex as crc_hex;

/// Wraps one record into its checksummed journal line (with trailing
/// newline).
#[must_use]
pub fn wrap_line(data: &str) -> String {
    let mut line = String::with_capacity(data.len() + 32);
    let _ = write!(
        line,
        "{{\"crc\":\"{}\",\"data\":{data}}}",
        crc_hex(data.as_bytes())
    );
    line.push('\n');
    line
}

/// The exact byte layout of a wrapped line before the data part.
const PREFIX_LEN: usize = "{\"crc\":\"xxxxxxxx\",\"data\":".len();

/// Unwraps one journal line (without its trailing newline): verifies the
/// fixed layout and the checksum, returning the exact data substring.
///
/// # Errors
///
/// A human-readable reason when the layout or checksum does not hold
/// (the caller quarantines such lines).
pub fn unwrap_line(line: &str) -> Result<&str, String> {
    if line.len() < PREFIX_LEN + 1 || !line.ends_with('}') {
        return Err("truncated or malformed line".to_string());
    }
    if !line.starts_with("{\"crc\":\"") || &line[16..PREFIX_LEN] != "\",\"data\":" {
        return Err("unrecognized line layout".to_string());
    }
    let crc = &line[8..16];
    let data = &line[PREFIX_LEN..line.len() - 1];
    let expect = crc_hex(data.as_bytes());
    if crc != expect {
        return Err(format!(
            "checksum mismatch (line says {crc}, data hashes to {expect})"
        ));
    }
    Ok(data)
}

/// Fingerprint of the result-affecting study parameters, as recorded in
/// the journal header. Parallelism, fault policy and journaling options
/// are deliberately excluded: sweep results are bit-identical across
/// execution modes, so a journal written serially resumes under
/// `--parallelism 8` (and vice versa). Floats hash by their exact bit
/// pattern.
#[must_use]
pub fn fingerprint(study: &str, params: &StudyParams) -> String {
    crc_hex(canonical(study, params).as_bytes())
}

/// The canonical parameter string [`fingerprint`] hashes: the identity
/// of one *study under one parameter set*, which is what a journal or a
/// trace header must match to be resumed or replayed. It is not the
/// identity of a work unit — units of different studies and `threads`
/// lists coincide; the study service keys its cache by
/// [`crate::decompose::GridStudy::unit_keys`] instead.
#[must_use]
pub fn canonical(study: &str, params: &StudyParams) -> String {
    let threads = params.threads.as_ref().map_or("-".to_string(), |t| {
        t.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(",")
    });
    let llc = params.llc_mib.map_or("-".to_string(), |m| m.to_string());
    format!(
        "study={study};scale={:016x};threads={threads};llc={llc}",
        params.scale.to_bits()
    )
}

/// Where a sweep journals to, and whether it starts by replaying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalSpec {
    /// Journal file path.
    pub path: String,
    /// Replay completed points from the file before computing the rest
    /// (`repro --resume`); `false` truncates and starts fresh
    /// (`repro --journal`).
    pub resume: bool,
}

/// The header record of a sweep journal for `study` under the parameter
/// `fingerprint`.
#[must_use]
pub(crate) fn header(study: &str, fingerprint: &str) -> String {
    format!(
        "{{\"journal\": \"{MAGIC}\", \"version\": {FORMAT_VERSION}, \"study\": \"{}\", \
         \"fingerprint\": \"{fingerprint}\"}}",
        json::escape(study)
    )
}

/// Encodes one computed unit as an entry record.
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

/// The append handle of a record log. Each entry is flushed as soon as
/// it is written, so a killed process loses at most the line it was in
/// the middle of (which [`open_append`] then drops as a truncation
/// artifact).
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    path: PathBuf,
    header: String,
}

fn io_err(op: &'static str, e: &std::io::Error) -> JournalError {
    JournalError::Io {
        op,
        message: e.to_string(),
    }
}

impl JournalWriter {
    /// Creates (truncating) a record log whose first line is `header`
    /// (one JSON object, later handed to [`open_append`]'s header check).
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on create/write failure.
    pub fn create(path: impl AsRef<Path>, header: &str) -> Result<Self, JournalError> {
        let path = path.as_ref();
        let file = File::create(path).map_err(|e| io_err("create", &e))?;
        let mut w = JournalWriter {
            file,
            path: path.to_path_buf(),
            header: header.to_string(),
        };
        w.write_line(header)?;
        Ok(w)
    }

    fn write_line(&mut self, data: &str) -> Result<(), JournalError> {
        self.file
            .write_all(wrap_line(data).as_bytes())
            .map_err(|e| io_err("append", &e))?;
        self.file.flush().map_err(|e| io_err("flush", &e))
    }

    /// Appends one computed unit as a checksummed entry line and flushes
    /// it.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on write/flush failure.
    pub fn append(&mut self, key: &str, value: &str) -> Result<(), JournalError> {
        self.write_line(&entry_record(key, value))
    }

    /// Forces everything appended so far to durable storage.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on sync failure.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        self.file.flush().map_err(|e| io_err("flush", &e))?;
        self.file.sync_all().map_err(|e| io_err("sync", &e))
    }

    /// Rewrites the log to its header plus exactly `entries`, in the
    /// given order, replacing the file atomically: the survivors are
    /// written to a `.compact-tmp` sibling, synced, then renamed over the
    /// original, so a crash at any point leaves either the old file or
    /// the complete new one. Appends then continue at the new file's end.
    /// On any error the original file — and this writer — are left
    /// untouched and still usable.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on write, sync, or rename failure.
    pub fn compact(&mut self, entries: &[(String, String)]) -> Result<(), JournalError> {
        let mut tmp_name = self.path.clone().into_os_string();
        tmp_name.push(".compact-tmp");
        let tmp = PathBuf::from(tmp_name);
        let result = (|| {
            let mut log = JournalWriter::create(&tmp, &self.header)?;
            for (key, value) in entries {
                log.append(key, value)?;
            }
            log.sync()?;
            std::fs::rename(&tmp, &self.path).map_err(|e| io_err("compact-rename", &e))?;
            Ok(log.file)
        })();
        match result {
            Ok(file) => {
                self.file = file;
                Ok(())
            }
            Err(e) => {
                std::fs::remove_file(&tmp).ok();
                Err(e)
            }
        }
    }
}

/// An existing record log opened for appending: its append handle, its
/// intact entries (header excluded, in file order) and the count of
/// quarantined lines.
#[derive(Debug)]
pub struct JournalScan {
    /// The append handle, positioned after the last complete line.
    pub writer: JournalWriter,
    /// Checksum-verified `(key, value)` entries after the header, in file
    /// order (a key appearing twice: the later entry wins).
    pub entries: Vec<(String, String)>,
    /// Complete lines that were not UTF-8, failed the layout or checksum,
    /// or were not an entry, skipped (their units must be recomputed).
    pub quarantined: usize,
}

/// Opens an existing record log for appending: verifies the header
/// line's framing and hands its parsed record to `check_header`, decodes
/// every intact entry, counts complete lines that are not UTF-8, fail
/// the layout or checksum, or are not an entry as quarantined, and
/// truncates an unterminated final line — the expected artifact of a
/// killed writer — so the next append starts a fresh line instead of
/// completing garbage.
///
/// # Errors
///
/// [`JournalError::Io`] when the file cannot be read, opened or
/// truncated; [`JournalError::MissingHeader`] when no header line was
/// ever completed (empty file, or the writer died inside the header
/// write); [`JournalError::BadHeader`] when the header line fails its
/// checksum or parse; whatever `check_header` returns. Corrupt
/// non-header lines are *not* errors.
pub fn open_append(
    path: impl AsRef<Path>,
    check_header: impl FnOnce(&JsonValue) -> Result<(), JournalError>,
) -> Result<JournalScan, JournalError> {
    let path = path.as_ref();
    // Bytes, not text: damage that is not UTF-8 is one bad line, never
    // an unreadable file.
    let content = std::fs::read(path).map_err(|e| io_err("read", &e))?;
    let mut lines = content.split_inclusive(|&b| b == b'\n');
    // A line counts only with its newline: only the very last chunk can
    // lack one, the kill-tail.
    let mut framed = || lines.next()?.strip_suffix(b"\n");
    let unwrap = |line: &[u8]| {
        let line = std::str::from_utf8(line).map_err(|_| "line is not UTF-8".to_string())?;
        unwrap_line(line).map(str::to_string)
    };
    let header_line = framed().ok_or(JournalError::MissingHeader)?;
    let header_data = unwrap(header_line).map_err(|why| JournalError::BadHeader { why })?;
    let header =
        json::parse(&header_data).map_err(|e| JournalError::BadHeader { why: e.to_string() })?;
    check_header(&header)?;

    let mut entries = Vec::new();
    let mut quarantined = 0usize;
    while let Some(line) = framed() {
        match unwrap(line).ok().and_then(|r| entry_from_record(&r)) {
            Some(entry) => entries.push(entry),
            None => quarantined += 1,
        }
    }
    let file = OpenOptions::new()
        .append(true)
        .open(path)
        .map_err(|e| io_err("open", &e))?;
    if content.last() != Some(&b'\n') {
        let keep = content.iter().rposition(|&b| b == b'\n');
        let keep = keep.expect("header line is terminated") + 1;
        file.set_len(keep as u64)
            .map_err(|e| io_err("truncate", &e))?;
    }
    Ok(JournalScan {
        writer: JournalWriter {
            file,
            path: path.to_path_buf(),
            header: header_data,
        },
        entries,
        quarantined,
    })
}

/// The identity check every record log's header starts with: its
/// `field` names `magic`, and its `version` is `version`.
///
/// # Errors
///
/// [`JournalError::BadHeader`] for another magic,
/// [`JournalError::VersionMismatch`] for another version.
pub fn check_magic(
    header: &JsonValue,
    field: &str,
    magic: &str,
    version: u64,
) -> Result<(), JournalError> {
    if header.get(field).and_then(JsonValue::as_str) != Some(magic) {
        return Err(JournalError::BadHeader {
            why: format!("not a {magic} {field}"),
        });
    }
    let found = header
        .get("version")
        .and_then(JsonValue::as_f64)
        .map_or(0, |v| v as u64);
    if found != version {
        return Err(JournalError::VersionMismatch {
            found,
            supported: version,
        });
    }
    Ok(())
}

/// Opens a sweep journal for resuming: [`open_append`] with the header
/// validated against the requesting study's identity.
///
/// # Errors
///
/// [`JournalError`] when the file is unreadable or its header is
/// missing, corrupt, from an unsupported format version, or from a
/// different study or parameter fingerprint. Corrupt non-header lines
/// are *not* errors — they are quarantined (see [`JournalScan`]).
pub fn scan(
    path: impl AsRef<Path>,
    study: &str,
    expected_fingerprint: &str,
) -> Result<JournalScan, JournalError> {
    open_append(path, |header| {
        check_magic(header, "journal", MAGIC, FORMAT_VERSION)?;
        let field = |k: &str| header.get(k).and_then(JsonValue::as_str).unwrap_or("");
        if field("study") != study {
            return Err(JournalError::StudyMismatch {
                journal: field("study").to_string(),
                requested: study.to_string(),
            });
        }
        if field("fingerprint") != expected_fingerprint {
            return Err(JournalError::ParamsMismatch {
                journal: field("fingerprint").to_string(),
                requested: expected_fingerprint.to_string(),
            });
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "repro-journal-{}-{}-{tag}.ndjson",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn entry(key: &str, value: &str) -> (String, String) {
        (key.to_string(), value.to_string())
    }

    /// A log under a header no identity check looks at.
    fn open(path: &Path) -> JournalScan {
        open_append(path, |_| Ok(())).unwrap()
    }

    #[test]
    fn crc32_check_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn wrap_unwrap_round_trip() {
        let data = "{\"kind\": \"point\", \"threads\": 16}";
        let line = wrap_line(data);
        assert!(line.ends_with('\n'));
        assert_eq!(unwrap_line(line.trim_end_matches('\n')).unwrap(), data);
    }

    #[test]
    fn unwrap_rejects_corruption() {
        let line = wrap_line("{\"a\": 1}");
        let line = line.trim_end_matches('\n');
        // Bit-flip inside the data part.
        let flipped = line.replace("\"a\": 1", "\"a\": 2");
        assert!(unwrap_line(&flipped).unwrap_err().contains("checksum"));
        // Truncation mid-line.
        assert!(unwrap_line(&line[..line.len() - 3]).is_err());
        assert!(unwrap_line("garbage").is_err());
    }

    #[test]
    fn write_scan_round_trip() {
        let path = temp_path("roundtrip");
        let mut w = JournalWriter::create(&path, &header("fig6", "deadbeef")).unwrap();
        w.append("unit-r", "100 200").unwrap();
        w.append("unit-p", "{\"kind\": \"point\", \"q\": \"a\\\"b\"}")
            .unwrap();
        drop(w);
        let scan = scan(&path, "fig6", "deadbeef").unwrap();
        assert_eq!(scan.quarantined, 0);
        assert_eq!(
            scan.entries,
            [
                entry("unit-r", "100 200"),
                entry("unit-p", "{\"kind\": \"point\", \"q\": \"a\\\"b\"}")
            ]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_tail_dropped_silently() {
        let path = temp_path("trunc");
        let mut w = JournalWriter::create(&path, &header("fig6", "deadbeef")).unwrap();
        w.append("unit-r", "1 2").unwrap();
        drop(w);
        // Simulate a kill mid-write: append half a line, no newline.
        let mut content = std::fs::read_to_string(&path).unwrap();
        content.push_str("{\"crc\":\"00000000\",\"data\":{\"key\": \"poi");
        std::fs::write(&path, &content).unwrap();
        let mut resumed = scan(&path, "fig6", "deadbeef").unwrap();
        assert_eq!(resumed.entries.len(), 1, "intact entry kept");
        assert_eq!(resumed.quarantined, 0, "a killed tail is not corruption");
        // The tail was chopped on open, so the next append starts a fresh
        // line instead of completing the garbage into a corrupt record.
        resumed.writer.append("unit-y", "3 4").unwrap();
        drop(resumed);
        let again = scan(&path, "fig6", "deadbeef").unwrap();
        assert_eq!(again.entries.len(), 2);
        assert_eq!(again.quarantined, 0, "a resumed journal stays clean");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn damaged_and_foreign_records_quarantined() {
        let path = temp_path("flip");
        let mut w = JournalWriter::create(&path, &header("fig6", "deadbeef")).unwrap();
        w.append("unit-aaa", "1 2").unwrap();
        w.append("unit-bbb", "3 4").unwrap();
        w.write_line("{\"kind\": \"ref\", \"profile\": \"ccc\"}")
            .unwrap();
        drop(w);
        let content = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, content.replace("bbb", "bxb")).unwrap();
        let scan = scan(&path, "fig6", "deadbeef").unwrap();
        assert_eq!(scan.entries, [entry("unit-aaa", "1 2")]);
        assert_eq!(scan.quarantined, 2, "a checksum failure and a non-entry");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn identity_mismatches_are_fatal() {
        let path = temp_path("identity");
        drop(JournalWriter::create(&path, &header("fig6", "deadbeef")).unwrap());
        assert!(matches!(
            scan(&path, "fig1", "deadbeef"),
            Err(JournalError::StudyMismatch { .. })
        ));
        assert!(matches!(
            scan(&path, "fig6", "00000000"),
            Err(JournalError::ParamsMismatch { .. })
        ));
        // Corrupt the header itself.
        let content = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, content.replace(MAGIC, "other-thing")).unwrap();
        assert!(matches!(
            scan(&path, "fig6", "deadbeef"),
            Err(JournalError::BadHeader { .. })
        ));
        std::fs::write(&path, "").unwrap();
        assert!(matches!(
            scan(&path, "fig6", "deadbeef"),
            Err(JournalError::MissingHeader)
        ));
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            scan(&path, "fig6", "deadbeef"),
            Err(JournalError::Io { op: "read", .. })
        ));
    }

    #[test]
    fn version_mismatch_detected() {
        let path = temp_path("version");
        // Version 1 (name-keyed records) and a future version alike.
        for found in [1, 99] {
            let header = format!(
                "{{\"journal\": \"{MAGIC}\", \"version\": {found}, \"study\": \"fig6\", \
                 \"fingerprint\": \"deadbeef\"}}"
            );
            std::fs::write(&path, wrap_line(&header)).unwrap();
            let err = scan(&path, "fig6", "deadbeef").unwrap_err();
            assert_eq!(
                err,
                JournalError::VersionMismatch {
                    found,
                    supported: FORMAT_VERSION
                }
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_rewrites_to_the_given_entries_and_keeps_appending() {
        let path = temp_path("compact");
        let mut w = JournalWriter::create(&path, "{\"log\": \"test\"}").unwrap();
        for value in ["old", "mid", "new"] {
            w.append("k", value).unwrap();
        }
        w.append("gone", "x").unwrap();
        w.compact(&[entry("k", "new")]).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content.lines().count(), 2, "header + 1 live entry");
        assert!(content.starts_with(&wrap_line("{\"log\": \"test\"}")));
        w.append("k2", "v2").unwrap();
        drop(w);
        let reopened = open(&path);
        assert_eq!(reopened.quarantined, 0);
        assert_eq!(reopened.entries, [entry("k", "new"), entry("k2", "v2")]);
        // A reopened writer compacts under the header it read.
        let mut w = reopened.writer;
        w.compact(&[]).unwrap();
        drop(w);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            wrap_line("{\"log\": \"test\"}")
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_sensitive_to_results_affecting_params_only() {
        let base = StudyParams::default();
        let fp = fingerprint("fig6", &base);
        assert_eq!(fp.len(), 8);
        assert_eq!(fp, fingerprint("fig6", &base), "deterministic");
        assert_ne!(fp, fingerprint("fig1", &base));
        assert_ne!(fp, fingerprint("fig6", &StudyParams::with_scale(0.5)));
        let mut threads = base.clone();
        threads.threads = Some(vec![2, 4]);
        assert_ne!(fp, fingerprint("fig6", &threads));
        let mut par = base.clone();
        par.parallelism = crate::par::Parallelism::Workers(7);
        assert_eq!(fp, fingerprint("fig6", &par), "parallelism excluded");
    }
}
