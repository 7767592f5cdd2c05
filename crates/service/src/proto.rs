//! The `studyd` wire protocol: line-delimited JSON over TCP.
//!
//! Every frame — request or reply — is one JSON object on one line,
//! emitted and parsed by the in-repo [`speedup_stacks::report::json`]
//! machinery (no external serialization). The exchange is
//! handshake-first: the client's opening frame must be
//! `{"op": "hello", "proto": 2}`, which the server answers with a
//! `hello` reply naming its protocol version; any mismatch is a typed
//! rejection, never a silent downgrade.
//!
//! Requests after the handshake: `list`, `status`,
//! `submit` (a registry study name plus a [`StudyParams`] override
//! subset), `cancel` and `shutdown` (`{"mode": "drain"}` finishes
//! in-flight jobs and flushes the cache spill before exit; the default
//! is immediate). A `submit` streams back an `accepted` frame, then one
//! `point` or `failed` frame per grid point *as points complete*
//! (NDJSON — consumers reassemble in any order via the `index` field;
//! each `point` carries a `source` of `computed`, `cached` or
//! `coalesced`), and finally a `done` frame. Replies carry
//! `"ok": true`; errors are `{"ok": false, "error": CODE,
//! "message": ...}` and map onto [`ProtocolError`] (and from there onto
//! [`speedup_stacks::SimError::Protocol`], exit code 10). Two error
//! codes carry extra typed payload: `version-mismatch` (`found`,
//! `supported`) and `busy` (`retry_after_ms`, the admission
//! controller's deterministic backoff hint).
//!
//! # Protocol history
//!
//! - **v1** (PR 8): handshake, `list`/`status`/`submit`/`cancel`/
//!   `shutdown`, `cached` boolean on point frames.
//! - **v2** (this version): point frames replace the `cached` boolean
//!   with the three-way `source`; `done` and `status` gain coalescing
//!   counters; `busy` rejections with `retry_after_ms`; `shutdown`
//!   accepts `{"mode": "drain"}`; `cancel` replies carry a `state` of
//!   `cancelled` or `already-done`.
//! - **v2 federation extensions** (additive, still proto 2 — every
//!   field is optional and ignored by older peers): `submit` accepts a
//!   `units` array of grid indices to run only that shard (the
//!   `accepted` frame's `points` then counts the deduplicated subset);
//!   a coordinator's `status` reply is its fallback scheduler's (the
//!   `cache` block included) plus a `federation` block with the fleet's
//!   job gauges, the units the fallback resolved (`local_units`) and
//!   per-backend health and counters ([`crate::federation`]). Older
//!   builds also sent a `reason` on `cancel`, a count of such cancels
//!   in `status` and a `backend` name in `hello` and `status`; this
//!   build accepts and ignores all three, as it ignores any unknown
//!   field, and sends none of them. A backend does not know it is in a
//!   fleet.
//!
//! A `status` reply carries `proto`, `workers`, `jobs_active`,
//! `jobs_total`, `queued_units`, `max_queued_units`, `draining`,
//! `points_computed`, `points_cached`, `points_coalesced`,
//! `points_failed` and a `cache` block (`hits`, `misses`, `insertions`,
//! `evictions`, `entries`, `bytes`, `budget`, `loaded`, `quarantined`,
//! `spilled`): the fields of [`ServiceStatus`].
//!
//! Result frames are batched into as few writes as the job's queue
//! allows — the session flushes only when no next event is ready (see
//! [`crate::session`]) — through a 64 KiB writer, and the client reads
//! them through a reader of the same size (`STREAM_BUFFER_BYTES`). Every
//! line passes through [`read_line_with`], which finds its newline a
//! word at a time and hands a line that sits whole in the reader's
//! buffer to its caller where it lies: the client decodes a point
//! frame's `data` straight from the socket buffer, with no copy of the
//! line. The wire format is unchanged, byte for byte.
//!
//! Line lengths are capped — [`REQUEST_LINE_CAP`] for client→server
//! frames, [`REPLY_LINE_CAP`] for server→client frames (point frames
//! scale with the thread count) — and a frame exceeding the cap is an
//! [`ProtocolError::Oversized`] rejection, a defense against accidental
//! binary input and memory exhaustion.

use std::io::{BufRead, ErrorKind, Write};

use experiments::study::StudyParams;
use speedup_stacks::error::ProtocolError;
use speedup_stacks::report::json::{self, JsonValue};

/// The protocol version this build speaks (`hello` handshake).
pub const PROTO_VERSION: u64 = 2;

/// Line cap for client→server request frames.
pub const REQUEST_LINE_CAP: usize = 64 * 1024;

/// Line cap for server→client reply frames (point frames carry a full
/// per-thread breakdown, so this is generous).
pub const REPLY_LINE_CAP: usize = 4 * 1024 * 1024;

/// The bytes both stream ends buffer per connection: the client's reader
/// and the session's writer. A warm fig4 stream (~105 KB) then moves in
/// about two reads and two writes, and a ~1 KB frame rarely straddles
/// the reader's buffer edge, so it is decoded where it lies.
pub(crate) const STREAM_BUFFER_BYTES: usize = 64 * 1024;

/// Wraps an I/O failure into the protocol error taxonomy. Timeouts
/// (a socket read/write deadline expiring — the idle-connection
/// reaper's signal) get their own typed variant.
#[must_use]
pub fn io_err(op: &'static str, e: &std::io::Error) -> ProtocolError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ProtocolError::Timeout,
        _ => ProtocolError::Io {
            op,
            message: e.to_string(),
        },
    }
}

/// The offset of the first `\n` in `bytes`, found a word at a time, two
/// words per step: a byte of `w ^ NEWLINES` is zero exactly where `w`
/// holds a newline, and the zero-byte test flags the lowest such byte
/// exactly (its borrow can only mark bytes above a true zero).
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const LOW: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGH: u64 = u64::from_ne_bytes([0x80; 8]);
    const NEWLINES: u64 = u64::from_ne_bytes([b'\n'; 8]);
    let newlines = |word: &[u8]| {
        let w = u64::from_le_bytes(word.try_into().expect("8-byte word")) ^ NEWLINES;
        w.wrapping_sub(LOW) & !w & HIGH
    };
    let mut pairs = bytes.chunks_exact(16);
    let mut at = 0;
    for pair in &mut pairs {
        let (low, high) = (newlines(&pair[..8]), newlines(&pair[8..]));
        if low | high != 0 {
            let bit = if low != 0 {
                low.trailing_zeros()
            } else {
                64 + high.trailing_zeros()
            };
            return Some(at + bit as usize / 8);
        }
        at += 16;
    }
    let tail = pairs.remainder();
    (0..tail.len()).find(|&i| tail[i] == b'\n').map(|i| at + i)
}

/// Reads one `\n`-terminated line, enforcing the byte cap *while
/// reading* (an oversized frame never accumulates past the cap), and
/// hands it to `read` as a `&str`. A line that already sits whole in the
/// reader's buffer — almost every frame, behind the client's 64 KiB
/// reader — is passed where it lies and then consumed; only a line that
/// straddles the buffer's edge is copied together first. `Ok(None)` is
/// clean end-of-stream at a line boundary; a final unterminated line is
/// returned as a line. A read interrupted by a signal
/// (`ErrorKind::Interrupted`) is retried, as [`BufRead::read_until`]
/// does.
///
/// On an oversized line, up to two caps' worth of the offending line,
/// counted from its start, is consumed (discarded, never stored) before
/// the error returns — through its newline if that lies within the
/// two caps, whatever the reader's buffer size: a server that then
/// replies and closes does so without unread bytes in its receive
/// buffer, so the typed rejection reaches the peer instead of being
/// clobbered by a TCP reset. A line that is not UTF-8 is consumed whole
/// before its error returns.
///
/// # Errors
///
/// [`ProtocolError::Io`] on read failure, [`ProtocolError::Oversized`]
/// past the cap, [`ProtocolError::Malformed`] for non-UTF-8 bytes.
pub fn read_line_with<R: BufRead, T>(
    reader: &mut R,
    cap: usize,
    read: impl FnOnce(&str) -> T,
) -> Result<Option<T>, ProtocolError> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_err("read", &e)),
        };
        if chunk.is_empty() {
            if buf.is_empty() {
                return Ok(None);
            }
            break;
        }
        let pos = find_newline(chunk);
        let take = pos.unwrap_or(chunk.len());
        if buf.len() + take > cap {
            discard_rest_of_line(reader, 2 * cap - buf.len());
            return Err(ProtocolError::Oversized { limit: cap });
        }
        match pos {
            Some(p) if buf.is_empty() => {
                let line = utf8(&chunk[..p]).map(read);
                reader.consume(p + 1);
                return line.map(Some);
            }
            Some(p) => {
                buf.extend_from_slice(&chunk[..p]);
                reader.consume(p + 1);
                break;
            }
            None => {
                buf.extend_from_slice(chunk);
                reader.consume(take);
            }
        }
    }
    utf8(&buf).map(read).map(Some)
}

/// [`read_line_with`] into an owned `String`: one allocation, of the
/// line's exact length.
///
/// # Errors
///
/// As [`read_line_with`].
pub fn read_line_bounded<R: BufRead>(
    reader: &mut R,
    cap: usize,
) -> Result<Option<String>, ProtocolError> {
    read_line_with(reader, cap, str::to_owned)
}

fn utf8(line: &[u8]) -> Result<&str, ProtocolError> {
    std::str::from_utf8(line).map_err(|_| ProtocolError::Malformed {
        why: "frame is not UTF-8".to_string(),
    })
}

/// Consumes (without storing) the remainder of an oversized line: up to
/// `budget` more bytes, stopping early after a newline among them or at
/// end-of-stream. The budget keeps an endless newline-free stream from
/// pinning the reader; past it, the line is simply abandoned unconsumed.
fn discard_rest_of_line<R: BufRead>(reader: &mut R, mut budget: usize) {
    while budget > 0 {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        let window = &chunk[..chunk.len().min(budget)];
        if window.is_empty() {
            return;
        }
        match find_newline(window) {
            Some(p) => return reader.consume(p + 1),
            None => {
                let n = window.len();
                reader.consume(n);
                budget -= n;
            }
        }
    }
}

/// Writes one frame as a line and flushes it (a reply must not sit in a
/// buffer while the peer waits for it).
///
/// # Errors
///
/// [`ProtocolError::Io`] on write/flush failure.
pub fn write_line<W: Write>(writer: &mut W, frame: &str) -> Result<(), ProtocolError> {
    buffer_line(writer, frame)?;
    writer.flush().map_err(|e| io_err("write", &e))
}

/// Writes one frame as a line *without* flushing: the session holds a
/// warm job's `accepted` back this way, so it leaves in the same write
/// as the job's first result frame (see [`crate::session`]).
///
/// # Errors
///
/// [`ProtocolError::Io`] on write failure.
pub fn buffer_line<W: Write>(writer: &mut W, frame: &str) -> Result<(), ProtocolError> {
    writer
        .write_all(frame.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .map_err(|e| io_err("write", &e))
}

/// Builds a typed error frame.
#[must_use]
pub fn error_frame(code: &str, message: &str) -> String {
    format!(
        "{{\"ok\": false, \"error\": \"{}\", \"message\": \"{}\"}}",
        json::escape(code),
        json::escape(message)
    )
}

/// Reads a `u64` field: an integer in `[0, 2^53]` ([`json::exact_u64`]),
/// the range every count on the wire stays in.
#[must_use]
pub fn u64_field(v: &JsonValue, key: &str) -> Option<u64> {
    json::exact_u64(v.get(key)?.as_f64()?)
}

/// Turns a reply frame into `Ok(frame)` or the typed [`ProtocolError`]
/// its `"ok": false` body describes: `version-mismatch` frames become
/// [`ProtocolError::VersionMismatch`], `busy` frames become
/// [`ProtocolError::Busy`] (carrying the server's backoff hint),
/// everything else [`ProtocolError::Rejected`].
///
/// # Errors
///
/// See above; a frame without a boolean `ok` field is
/// [`ProtocolError::Malformed`].
pub fn check_reply(frame: JsonValue) -> Result<JsonValue, ProtocolError> {
    match frame.get("ok") {
        Some(JsonValue::Bool(true)) => Ok(frame),
        Some(JsonValue::Bool(false)) => {
            let code = frame
                .get("error")
                .and_then(JsonValue::as_str)
                .unwrap_or("unknown")
                .to_string();
            let message = frame
                .get("message")
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_string();
            if code == "version-mismatch" {
                if let (Some(found), Some(supported)) =
                    (u64_field(&frame, "found"), u64_field(&frame, "supported"))
                {
                    return Err(ProtocolError::VersionMismatch { found, supported });
                }
            }
            if code == "busy" {
                if let Some(retry_after_ms) = u64_field(&frame, "retry_after_ms") {
                    return Err(ProtocolError::Busy { retry_after_ms });
                }
            }
            Err(ProtocolError::Rejected { code, message })
        }
        _ => Err(ProtocolError::Malformed {
            why: "reply lacks a boolean 'ok' field".to_string(),
        }),
    }
}

/// The `status` reply: scheduler gauges plus cache counters. One record
/// for both ends — [`crate::scheduler::Scheduler::status`] fills it,
/// [`ServiceStatus::to_frame`] renders it (a coordinator appends its
/// `federation` block) and [`ServiceStatus::from_frame`] reads it back
/// for [`crate::client::Client::status`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStatus {
    /// Worker-pool size.
    pub workers: u64,
    /// Jobs currently resolving points.
    pub jobs_active: u64,
    /// Jobs accepted since startup.
    pub jobs_total: u64,
    /// Work units queued (ready or parked) but not executing.
    pub queued_units: u64,
    /// Admission bound on queued units (`0` = unbounded).
    pub max_queued_units: u64,
    /// Whether the server is draining (rejecting new work).
    pub draining: bool,
    /// Points computed by the pool.
    pub points_computed: u64,
    /// Points served from the result cache.
    pub points_cached: u64,
    /// Points delivered by coalescing onto another job's computation.
    pub points_coalesced: u64,
    /// Points that failed.
    pub points_failed: u64,
    /// Cache lookups served.
    pub cache_hits: u64,
    /// Cache lookups missed.
    pub cache_misses: u64,
    /// Values stored in the cache (replacements included).
    pub cache_insertions: u64,
    /// Cache entries evicted for space.
    pub cache_evictions: u64,
    /// Live cache entries.
    pub cache_entries: u64,
    /// Live cache bytes.
    pub cache_bytes: u64,
    /// The cache's byte budget.
    pub cache_budget: u64,
    /// Cache entries restored from the persistent spill on startup.
    pub cache_loaded: u64,
    /// Corrupt spill records quarantined on startup.
    pub cache_quarantined: u64,
    /// Entries appended to the persistent spill since startup.
    pub cache_spilled: u64,
}

impl ServiceStatus {
    /// Renders the `status` reply frame; `extra` (empty, or `, "key":
    /// value` fields) is appended inside the frame.
    #[must_use]
    pub fn to_frame(&self, extra: &str) -> String {
        format!(
            "{{\"ok\": true, \"kind\": \"status\", \"proto\": {PROTO_VERSION}, \
             \"workers\": {}, \"jobs_active\": {}, \"jobs_total\": {}, \"queued_units\": {}, \
             \"max_queued_units\": {}, \"draining\": {}, \
             \"points_computed\": {}, \"points_cached\": {}, \"points_coalesced\": {}, \
             \"points_failed\": {}, \
             \"cache\": {{\"hits\": {}, \"misses\": {}, \"insertions\": {}, \"evictions\": {}, \
             \"entries\": {}, \"bytes\": {}, \"budget\": {}, \"loaded\": {}, \"quarantined\": {}, \
             \"spilled\": {}}}{extra}}}",
            self.workers,
            self.jobs_active,
            self.jobs_total,
            self.queued_units,
            self.max_queued_units,
            self.draining,
            self.points_computed,
            self.points_cached,
            self.points_coalesced,
            self.points_failed,
            self.cache_hits,
            self.cache_misses,
            self.cache_insertions,
            self.cache_evictions,
            self.cache_entries,
            self.cache_bytes,
            self.cache_budget,
            self.cache_loaded,
            self.cache_quarantined,
            self.cache_spilled
        )
    }

    /// Reads a `status` reply frame; a missing or non-count field reads
    /// as zero.
    #[must_use]
    pub fn from_frame(frame: &JsonValue) -> ServiceStatus {
        let cache = frame.get("cache").unwrap_or(&JsonValue::Null);
        let f = |v: &JsonValue, k: &str| u64_field(v, k).unwrap_or(0);
        ServiceStatus {
            workers: f(frame, "workers"),
            jobs_active: f(frame, "jobs_active"),
            jobs_total: f(frame, "jobs_total"),
            queued_units: f(frame, "queued_units"),
            max_queued_units: f(frame, "max_queued_units"),
            draining: matches!(frame.get("draining"), Some(JsonValue::Bool(true))),
            points_computed: f(frame, "points_computed"),
            points_cached: f(frame, "points_cached"),
            points_coalesced: f(frame, "points_coalesced"),
            points_failed: f(frame, "points_failed"),
            cache_hits: f(cache, "hits"),
            cache_misses: f(cache, "misses"),
            cache_insertions: f(cache, "insertions"),
            cache_evictions: f(cache, "evictions"),
            cache_entries: f(cache, "entries"),
            cache_bytes: f(cache, "bytes"),
            cache_budget: f(cache, "budget"),
            cache_loaded: f(cache, "loaded"),
            cache_quarantined: f(cache, "quarantined"),
            cache_spilled: f(cache, "spilled"),
        }
    }
}

/// Encodes the wire-carried [`StudyParams`] subset — exactly the
/// result-affecting parameters the journal fingerprint hashes (`scale`,
/// `threads`, `llc_mib`). Execution-mode parameters (parallelism, fault
/// policy, journaling, tracing) are deliberately not wire-carried: the
/// server owns its own execution strategy.
#[must_use]
pub fn params_to_wire(params: &StudyParams) -> String {
    let mut out = format!("{{\"scale\": {}", json::number(params.scale));
    if let Some(t) = &params.threads {
        out.push_str(", \"threads\": [");
        for (i, n) in t.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&n.to_string());
        }
        out.push(']');
    }
    if let Some(mib) = params.llc_mib {
        out.push_str(&format!(", \"llc_mib\": {mib}"));
    }
    out.push('}');
    out
}

/// A wire count or index: a [`json::exact_u64`] that fits a `usize`.
#[must_use]
pub fn count(v: &JsonValue) -> Option<usize> {
    usize::try_from(json::exact_u64(v.as_f64()?)?).ok()
}

/// Decodes a submit request's `params` object back into [`StudyParams`]
/// (missing fields keep their defaults; `None` means no object at all).
/// Only shapes are checked: the values are the study gate's to judge
/// ([`experiments::study::Study::check`], which the session calls next).
///
/// # Errors
///
/// A human-readable reason for the `bad-params` rejection.
pub fn params_from_wire(v: Option<&JsonValue>) -> Result<StudyParams, String> {
    let mut params = StudyParams::default();
    let Some(v) = v else {
        return Ok(params);
    };
    if !matches!(v, JsonValue::Object(_)) {
        return Err("params must be an object".to_string());
    }
    if let Some(s) = v.get("scale") {
        params.scale = s.as_f64().ok_or("scale must be a number")?;
    }
    if let Some(t) = v.get("threads") {
        let counts: Option<Vec<usize>> = t.as_array().and_then(|a| a.iter().map(count).collect());
        params.threads = Some(counts.ok_or("threads must be an array of integer counts")?);
    }
    if let Some(m) = v.get("llc_mib") {
        params.llc_mib = Some(count(m).ok_or("llc_mib must be an integer capacity in MiB")?);
    }
    Ok(params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn counts_read_back_only_as_exact_integers() {
        let frame = |x: &str| json::parse(&format!("{{\"n\": {x}}}")).unwrap();
        assert_eq!(u64_field(&frame("0"), "n"), Some(0));
        assert_eq!(u64_field(&frame("9007199254740992"), "n"), Some(1 << 53));
        for bad in [
            "1e300",
            "18446744073709551616",
            "9007199254740994",
            "-1",
            "0.5",
        ] {
            assert_eq!(u64_field(&frame(bad), "n"), None, "{bad}");
        }
    }

    #[test]
    fn bounded_read_splits_lines_and_handles_eof() {
        let mut r = BufReader::new(&b"one\ntwo\nthree"[..]);
        assert_eq!(read_line_bounded(&mut r, 64).unwrap().unwrap(), "one");
        assert_eq!(read_line_bounded(&mut r, 64).unwrap().unwrap(), "two");
        assert_eq!(read_line_bounded(&mut r, 64).unwrap().unwrap(), "three");
        assert!(read_line_bounded(&mut r, 64).unwrap().is_none());
    }

    #[test]
    fn bounded_read_rejects_oversized_without_accumulating() {
        let big = vec![b'x'; 1000];
        let mut r = BufReader::new(&big[..]);
        assert!(matches!(
            read_line_bounded(&mut r, 100),
            Err(ProtocolError::Oversized { limit: 100 })
        ));
    }

    /// A `BufRead` over `data`, `chunk` bytes per fill, whose fills
    /// numbered in `interrupted` (0-based) fail with `Interrupted` — what
    /// a socket read under `SO_RCVTIMEO` returns when its process is
    /// stopped and continued.
    struct Interrupting<'a> {
        data: &'a [u8],
        chunk: usize,
        fills: usize,
        interrupted: &'a [usize],
    }

    impl std::io::Read for Interrupting<'_> {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            unreachable!("read through BufRead only")
        }
    }

    impl BufRead for Interrupting<'_> {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            self.fills += 1;
            if self.interrupted.contains(&(self.fills - 1)) {
                return Err(ErrorKind::Interrupted.into());
            }
            Ok(&self.data[..self.data.len().min(self.chunk)])
        }

        fn consume(&mut self, n: usize) {
            self.data = &self.data[n..];
        }
    }

    #[test]
    fn bounded_read_retries_interrupted_fills() {
        let mut r = Interrupting {
            data: b"{\"ok\": true}\nnext\n",
            chunk: 4,
            fills: 0,
            interrupted: &[0, 2, 3],
        };
        assert_eq!(
            read_line_bounded(&mut r, 64).unwrap().as_deref(),
            Some("{\"ok\": true}")
        );
        assert_eq!(
            read_line_with(&mut r, 64, str::len).unwrap(),
            Some("next".len())
        );
        assert_eq!(read_line_bounded(&mut r, 64).unwrap(), None);
        // An oversized line is still discarded through its newline when
        // the discard's own fills are interrupted.
        let mut r = Interrupting {
            data: b"0123456789abc\nrest\n",
            chunk: 3,
            fills: 0,
            interrupted: &[4, 5, 7],
        };
        assert!(matches!(
            read_line_bounded(&mut r, 8),
            Err(ProtocolError::Oversized { limit: 8 })
        ));
        assert_eq!(
            read_line_bounded(&mut r, 8).unwrap().as_deref(),
            Some("rest")
        );
    }

    /// The word-at-a-time search equals a byte-at-a-time scan for every
    /// length up to five words and every placement of zero, one and two
    /// newlines, among neighbour bytes chosen to trip a zero-byte test:
    /// 0x00 and 0xFF (borrow into and out of a byte), 0x09 and 0x0B
    /// (`\n` ± 1) and 0x8A (`\n` with the high bit set).
    #[test]
    fn newline_search_matches_a_byte_scan() {
        const NEIGHBOURS: [u8; 5] = [0x00, 0x09, 0x0B, 0x8A, 0xFF];
        let naive = |b: &[u8]| b.iter().position(|&c| c == b'\n');
        for len in 0..=40usize {
            for fill in 0..=NEIGHBOURS.len() {
                let base: Vec<u8> = (0..len)
                    .map(|i| {
                        NEIGHBOURS[if fill == NEIGHBOURS.len() {
                            i % fill
                        } else {
                            fill
                        }]
                    })
                    .collect();
                assert_eq!(find_newline(&base), None, "len {len}, fill {fill}");
                for first in 0..len {
                    for second in first..len {
                        let mut bytes = base.clone();
                        bytes[first] = b'\n';
                        bytes[second] = b'\n';
                        assert_eq!(
                            find_newline(&bytes),
                            naive(&bytes),
                            "len {len}, fill {fill}, newlines at {first} and {second}"
                        );
                        assert_eq!(find_newline(&bytes), Some(first));
                    }
                }
            }
        }
    }

    #[test]
    fn bounded_read_rejects_non_utf8() {
        let mut r = BufReader::new(&[0xff, 0xfe, b'\n'][..]);
        assert!(matches!(
            read_line_bounded(&mut r, 64),
            Err(ProtocolError::Malformed { .. })
        ));
    }

    #[test]
    fn params_wire_round_trip_preserves_fingerprint() {
        // The cache key and journal identity hash the exact scale bits;
        // the wire must round-trip them bit for bit.
        for scale in [1.0, 0.05, 0.1 + 0.2, 1.0 / 3.0] {
            let params = StudyParams {
                scale,
                threads: Some(vec![2, 4, 16]),
                llc_mib: Some(8),
                ..StudyParams::default()
            };
            let wire = params_to_wire(&params);
            let parsed = json::parse(&wire).unwrap();
            let back = params_from_wire(Some(&parsed)).unwrap();
            assert_eq!(back.scale.to_bits(), params.scale.to_bits());
            assert_eq!(back.threads, params.threads);
            assert_eq!(back.llc_mib, params.llc_mib);
            assert_eq!(
                experiments::journal::fingerprint("fig6", &back),
                experiments::journal::fingerprint("fig6", &params)
            );
        }
    }

    /// The codec refuses a bad shape; a bad value passes it and the gate
    /// refuses it, so a submit of either is `bad-params`. The gate's
    /// bounds at the wire are pinned by `tests/wire_parity.rs`.
    #[test]
    fn params_from_wire_rejects_bad_shapes() {
        let decode = |text: &str| params_from_wire(Some(&json::parse(text).unwrap()));
        for bad in [
            "{\"scale\": \"x\"}",
            "{\"scale\": null}",
            "{\"threads\": [1.5]}",
            "{\"threads\": [-1]}",
            "{\"threads\": 4}",
            "{\"llc_mib\": 2.5}",
            "[1]",
        ] {
            assert!(decode(bad).is_err(), "{bad} accepted");
        }
        for bad in [
            "{\"scale\": 0}",
            "{\"threads\": []}",
            "{\"threads\": [0]}",
            "{\"llc_mib\": 0}",
            "{\"llc_mib\": 3}",
        ] {
            let params = decode(bad).unwrap_or_else(|e| panic!("{bad}: {e}"));
            assert!(params.validate().is_err(), "{bad} passed the gate");
        }
        assert_eq!(params_from_wire(None).unwrap(), StudyParams::default());
    }

    /// The `status` frame is pinned byte for byte, with a distinct value
    /// in every field, and reads back whole (`insertions` and `budget`
    /// included) — also from an older server's frame (a fixture), whose
    /// `backend` name and extra cancel count are ignored.
    #[test]
    fn status_record_renders_pinned_bytes_and_reads_back() {
        let status = ServiceStatus {
            workers: 1,
            jobs_active: 2,
            jobs_total: 3,
            queued_units: 4,
            max_queued_units: 5,
            draining: true,
            points_computed: 6,
            points_cached: 7,
            points_coalesced: 8,
            points_failed: 9,
            cache_hits: 11,
            cache_misses: 12,
            cache_insertions: 13,
            cache_evictions: 14,
            cache_entries: 15,
            cache_bytes: 16,
            cache_budget: 17,
            cache_loaded: 18,
            cache_quarantined: 19,
            cache_spilled: 20,
        };
        let head = "{\"ok\": true, \"kind\": \"status\", \"proto\": 2, ";
        let counts = "\"workers\": 1, \"jobs_active\": 2, \"jobs_total\": 3, \"queued_units\": 4, \
             \"max_queued_units\": 5, \"draining\": true, \"points_computed\": 6, \
             \"points_cached\": 7, \"points_coalesced\": 8, \"points_failed\": 9, ";
        let cache = "\"cache\": {\"hits\": 11, \"misses\": 12, \
             \"insertions\": 13, \"evictions\": 14, \"entries\": 15, \"bytes\": 16, \
             \"budget\": 17, \"loaded\": 18, \"quarantined\": 19, \"spilled\": 20}";
        assert_eq!(status.to_frame(""), format!("{head}{counts}{cache}}}"));
        let fleet = ", \"federation\": {\"jobs_active\": 0, \"backends\": []}";
        let frame = status.to_frame(fleet);
        assert_eq!(frame, format!("{head}{counts}{cache}{fleet}}}"));
        let parsed = json::parse(&frame).unwrap();
        assert_eq!(ServiceStatus::from_frame(&parsed), status);
        let older = include_str!("../tests/goldens/older_status.json");
        let parsed = json::parse(older.trim_end()).unwrap();
        assert_eq!(ServiceStatus::from_frame(&parsed), status);
        let idle = json::parse(&ServiceStatus::default().to_frame("")).unwrap();
        assert_eq!(ServiceStatus::from_frame(&idle), ServiceStatus::default());
    }

    #[test]
    fn check_reply_maps_error_codes() {
        let ok = json::parse("{\"ok\": true, \"kind\": \"hello\"}").unwrap();
        assert!(check_reply(ok).is_ok());
        let rejected =
            json::parse("{\"ok\": false, \"error\": \"unknown-study\", \"message\": \"m\"}")
                .unwrap();
        assert!(matches!(
            check_reply(rejected),
            Err(ProtocolError::Rejected { code, .. }) if code == "unknown-study"
        ));
        let mismatch = json::parse(
            "{\"ok\": false, \"error\": \"version-mismatch\", \"message\": \"m\", \
             \"found\": 9, \"supported\": 1}",
        )
        .unwrap();
        assert!(matches!(
            check_reply(mismatch),
            Err(ProtocolError::VersionMismatch {
                found: 9,
                supported: 1
            })
        ));
        let busy = json::parse(
            "{\"ok\": false, \"error\": \"busy\", \"message\": \"m\", \"retry_after_ms\": 125}",
        )
        .unwrap();
        assert!(matches!(
            check_reply(busy),
            Err(ProtocolError::Busy {
                retry_after_ms: 125
            })
        ));
        let junk = json::parse("{\"kind\": \"x\"}").unwrap();
        assert!(matches!(
            check_reply(junk),
            Err(ProtocolError::Malformed { .. })
        ));
    }
}
