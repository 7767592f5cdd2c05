//! Crash-safe sweep journaling: line-delimited, checksummed JSON records
//! with a format-version header, written as grid points complete and
//! replayed on `repro --resume`.
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
//! reflected) of the exact `<record>` byte string and `<record>` is one
//! JSON object (emitted by [`speedup_stacks::report::json`] — the
//! journal introduces no new serialization machinery). The first line's
//! record is the **header**:
//!
//! ```text
//! {"journal":"repro-sweep","version":1,"study":"fig6","fingerprint":"xxxxxxxx"}
//! ```
//!
//! `fingerprint` hashes the result-affecting study parameters
//! ([`fingerprint`]), so a journal can never silently replay points from
//! a different parameterization. Subsequent records are sweep-defined
//! (the fault-tolerant runner writes `ref` and `point` records).
//!
//! # Crash and corruption semantics
//!
//! - A final line **without a trailing newline** is the expected artifact
//!   of a killed writer: it is dropped silently and its point recomputed.
//! - A **complete** line that is not UTF-8 or fails the layout, checksum
//!   or its record's decode is *quarantined*: counted, reported in the
//!   report's `Degraded` block, and its point recomputed.
//!   [`open_append`] checks the framing and hands back the verified
//!   record text; the sweep decodes it straight from that text
//!   ([`crate::runner::PointSummary::from_record`]), no JSON tree built.
//! - A journal whose **header** is missing, corrupt, from another format
//!   version or another study/parameterization is rejected with a typed
//!   [`JournalError`] — identity failures are never papered over.
//!
//! # One record log
//!
//! The framing, the recovery rules above and the append handle are not
//! specific to sweeps: [`open_append`] opens any such file given a
//! caller-supplied header check, and [`JournalWriter`] appends to it. The
//! sweep journal ([`scan`]) and the study service's cache spill are its
//! two users.

use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::Path;

use speedup_stacks::error::JournalError;
use speedup_stacks::report::json::{self, JsonValue};

use crate::study::StudyParams;

/// The journal format version this build reads and writes.
pub const FORMAT_VERSION: u64 = 1;
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

/// The append handle of a record log. Each record is flushed as soon as
/// it is written, so a killed process loses at most the line it was in
/// the middle of (which [`open_append`] then drops as a truncation
/// artifact).
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
}

fn io_err(op: &'static str, e: &std::io::Error) -> JournalError {
    JournalError::Io {
        op,
        message: e.to_string(),
    }
}

impl JournalWriter {
    /// Creates (truncating) a sweep journal and writes its header line.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on create/write failure.
    pub fn create(
        path: impl AsRef<Path>,
        study: &str,
        fingerprint: &str,
    ) -> Result<Self, JournalError> {
        Self::create_with_header(
            path,
            &format!(
                "{{\"journal\": \"{MAGIC}\", \"version\": {FORMAT_VERSION}, \"study\": \"{}\", \
                 \"fingerprint\": \"{fingerprint}\"}}",
                json::escape(study)
            ),
        )
    }

    /// Creates (truncating) a record log whose first line is `header`
    /// (one JSON object, later handed to [`open_append`]'s header check).
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on create/write failure.
    pub fn create_with_header(path: impl AsRef<Path>, header: &str) -> Result<Self, JournalError> {
        let file = File::create(path).map_err(|e| io_err("create", &e))?;
        let mut w = JournalWriter { file };
        w.append(header)?;
        Ok(w)
    }

    /// Appends one record (a JSON object string) as a checksummed line
    /// and flushes it.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on write/flush failure.
    pub fn append(&mut self, data: &str) -> Result<(), JournalError> {
        self.file
            .write_all(wrap_line(data).as_bytes())
            .map_err(|e| io_err("append", &e))?;
        self.file.flush().map_err(|e| io_err("flush", &e))
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
}

/// An existing record log opened for appending: its append handle, the
/// text of its intact records (header excluded, in file order) and the
/// count of quarantined lines.
#[derive(Debug)]
pub struct JournalScan {
    /// The append handle, positioned after the last complete line.
    pub writer: JournalWriter,
    /// Checksum-verified record text after the header, each decoded by
    /// its user (a record that then fails to decode is the user's to
    /// quarantine).
    pub records: Vec<String>,
    /// Complete lines that were not UTF-8 or failed the layout or
    /// checksum, skipped (their points must be recomputed).
    pub quarantined: usize,
}

/// Opens an existing record log for appending: verifies the header
/// line's framing and hands its parsed record to `check_header`, collects
/// the text of every intact record, counts complete lines that are not
/// UTF-8 or fail the layout or checksum as quarantined, and
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

    let mut records = Vec::new();
    let mut quarantined = 0usize;
    while let Some(line) = framed() {
        match unwrap(line) {
            Ok(record) => records.push(record),
            Err(_) => quarantined += 1,
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
        writer: JournalWriter { file },
        records,
        quarantined,
    })
}

/// The `version` field of a record-log header (0 when absent).
#[must_use]
pub fn header_version(header: &JsonValue) -> u64 {
    header
        .get("version")
        .and_then(JsonValue::as_f64)
        .map_or(0, |v| v as u64)
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
        if header.get("journal").and_then(JsonValue::as_str) != Some(MAGIC) {
            return Err(JournalError::BadHeader {
                why: format!("not a {MAGIC} journal"),
            });
        }
        let version = header_version(header);
        if version != FORMAT_VERSION {
            return Err(JournalError::VersionMismatch {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
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
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "repro-journal-{}-{}-{tag}.ndjson",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
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
        let mut w = JournalWriter::create(&path, "fig6", "deadbeef").unwrap();
        w.append("{\"kind\": \"ref\", \"profile\": \"x\", \"st_cycles\": 100}")
            .unwrap();
        w.append("{\"kind\": \"point\", \"profile\": \"x\", \"threads\": 4}")
            .unwrap();
        drop(w);
        let scan = scan(&path, "fig6", "deadbeef").unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.quarantined, 0);
        assert_eq!(
            scan.records[1],
            "{\"kind\": \"point\", \"profile\": \"x\", \"threads\": 4}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_tail_dropped_silently() {
        let path = temp_path("trunc");
        let mut w = JournalWriter::create(&path, "fig6", "deadbeef").unwrap();
        w.append("{\"kind\": \"ref\", \"profile\": \"x\"}").unwrap();
        drop(w);
        // Simulate a kill mid-write: append half a line, no newline.
        let mut content = std::fs::read_to_string(&path).unwrap();
        content.push_str("{\"crc\":\"00000000\",\"data\":{\"kind\": \"poi");
        std::fs::write(&path, &content).unwrap();
        let mut resumed = scan(&path, "fig6", "deadbeef").unwrap();
        assert_eq!(resumed.records.len(), 1, "intact record kept");
        assert_eq!(resumed.quarantined, 0, "a killed tail is not corruption");
        // The tail was chopped on open, so the next append starts a fresh
        // line instead of completing the garbage into a corrupt record.
        resumed
            .writer
            .append("{\"kind\": \"ref\", \"profile\": \"y\"}")
            .unwrap();
        drop(resumed);
        let again = scan(&path, "fig6", "deadbeef").unwrap();
        assert_eq!(again.records.len(), 2);
        assert_eq!(again.quarantined, 0, "a resumed journal stays clean");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flipped_record_quarantined() {
        let path = temp_path("flip");
        let mut w = JournalWriter::create(&path, "fig6", "deadbeef").unwrap();
        w.append("{\"kind\": \"ref\", \"profile\": \"aaa\"}")
            .unwrap();
        w.append("{\"kind\": \"ref\", \"profile\": \"bbb\"}")
            .unwrap();
        drop(w);
        let content = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, content.replace("bbb", "bxb")).unwrap();
        let scan = scan(&path, "fig6", "deadbeef").unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.quarantined, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn identity_mismatches_are_fatal() {
        let path = temp_path("identity");
        drop(JournalWriter::create(&path, "fig6", "deadbeef").unwrap());
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
        let header = format!(
            "{{\"journal\": \"{MAGIC}\", \"version\": 99, \"study\": \"fig6\", \
             \"fingerprint\": \"deadbeef\"}}"
        );
        std::fs::write(&path, wrap_line(&header)).unwrap();
        assert!(matches!(
            scan(&path, "fig6", "deadbeef"),
            Err(JournalError::VersionMismatch {
                found: 99,
                supported: FORMAT_VERSION
            })
        ));
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
