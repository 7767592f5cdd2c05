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
//!   `cancel` accepts a `reason` string (`"hedge"` marks a lost hedged
//!   race, counted in the `hedge_cancels` status field); `hello` and
//!   `status` replies echo a `backend` identity when the server was
//!   started with one; a coordinator's `status` reply is its fallback
//!   scheduler's (the `cache` block included) plus a `federation` block
//!   with the fleet's job gauges, the units the fallback resolved
//!   (`local_units`) and per-backend health, units served, failovers
//!   and hedge wins.
//!
//! Result frames are batched into as few writes as the job's queue
//! allows — the session flushes only when no next event is ready (see
//! [`crate::session`]) — and the client decodes a point frame's `data`
//! straight from the text; the wire format is unchanged, byte for byte.
//!
//! Line lengths are capped — [`REQUEST_LINE_CAP`] for client→server
//! frames, [`REPLY_LINE_CAP`] for server→client frames (point frames
//! scale with the thread count) — and a frame exceeding the cap is an
//! [`ProtocolError::Oversized`] rejection, a defense against accidental
//! binary input and memory exhaustion.

use std::io::{BufRead, Write};

use experiments::study::StudyParams;
use experiments::MemConfig;
use speedup_stacks::error::ProtocolError;
use speedup_stacks::report::json::{self, JsonValue};

/// The protocol version this build speaks (`hello` handshake).
pub const PROTO_VERSION: u64 = 2;

/// Line cap for client→server request frames.
pub const REQUEST_LINE_CAP: usize = 64 * 1024;

/// Line cap for server→client reply frames (point frames carry a full
/// per-thread breakdown, so this is generous).
pub const REPLY_LINE_CAP: usize = 4 * 1024 * 1024;

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

/// Reads one `\n`-terminated line, enforcing the byte cap *while
/// reading* (an oversized frame never accumulates past the cap).
/// `Ok(None)` is clean end-of-stream at a line boundary; a final
/// unterminated line is returned as a line.
///
/// On an oversized line, up to two caps' worth of the offending line,
/// counted from its start, is consumed (discarded, never stored) before
/// the error returns — through its newline if that lies within the
/// two caps, whatever the reader's buffer size: a server that then
/// replies and closes does so without unread bytes in its receive
/// buffer, so the typed rejection reaches the peer instead of being
/// clobbered by a TCP reset.
///
/// # Errors
///
/// [`ProtocolError::Io`] on read failure, [`ProtocolError::Oversized`]
/// past the cap, [`ProtocolError::Malformed`] for non-UTF-8 bytes.
pub fn read_line_bounded<R: BufRead>(
    reader: &mut R,
    cap: usize,
) -> Result<Option<String>, ProtocolError> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = reader.fill_buf().map_err(|e| io_err("read", &e))?;
        if chunk.is_empty() {
            if buf.is_empty() {
                return Ok(None);
            }
            break;
        }
        let pos = chunk.iter().position(|&b| b == b'\n');
        let take = pos.unwrap_or(chunk.len());
        if buf.len() + take > cap {
            discard_rest_of_line(reader, 2 * cap - buf.len());
            return Err(ProtocolError::Oversized { limit: cap });
        }
        buf.extend_from_slice(&chunk[..take]);
        match pos {
            Some(p) => {
                reader.consume(p + 1);
                break;
            }
            None => reader.consume(take),
        }
    }
    match String::from_utf8(buf) {
        Ok(s) => Ok(Some(s)),
        Err(_) => Err(ProtocolError::Malformed {
            why: "frame is not UTF-8".to_string(),
        }),
    }
}

/// Consumes (without storing) the remainder of an oversized line: up to
/// `budget` more bytes, stopping early after a newline among them or at
/// end-of-stream. The budget keeps an endless newline-free stream from
/// pinning the reader; past it, the line is simply abandoned unconsumed.
fn discard_rest_of_line<R: BufRead>(reader: &mut R, mut budget: usize) {
    while budget > 0 {
        let Ok(chunk) = reader.fill_buf() else { return };
        let window = &chunk[..chunk.len().min(budget)];
        if window.is_empty() {
            return;
        }
        match window.iter().position(|&b| b == b'\n') {
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

/// Writes one frame as a line *without* flushing: the session queues a
/// burst of result frames this way and flushes once, when no further
/// event is ready (see [`crate::session`]).
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

/// Reads a `u64` field (counters stay far below 2^53, so the `f64`
/// round-trip is exact).
#[must_use]
pub fn u64_field(v: &JsonValue, key: &str) -> Option<u64> {
    let x = v.get(key)?.as_f64()?;
    (x >= 0.0 && x.fract() == 0.0).then_some(x as u64)
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

/// Decodes a submit request's `params` object back into [`StudyParams`]
/// (missing fields keep their defaults; `None` means no object at all).
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
        match s.as_f64() {
            Some(x) if x.is_finite() && x > 0.0 => params.scale = x,
            _ => return Err("scale must be a positive finite number".to_string()),
        }
    }
    if let Some(t) = v.get("threads") {
        let Some(arr) = t.as_array() else {
            return Err("threads must be an array of counts >= 1".to_string());
        };
        let mut counts = Vec::with_capacity(arr.len());
        for x in arr {
            match x.as_f64() {
                Some(n) if n.fract() == 0.0 && (1.0..=65_536.0).contains(&n) => {
                    counts.push(n as usize);
                }
                _ => return Err("threads must be an array of counts >= 1".to_string()),
            }
        }
        if counts.is_empty() {
            return Err("threads must not be empty".to_string());
        }
        params.threads = Some(counts);
    }
    if let Some(m) = v.get("llc_mib") {
        let max = MemConfig::MAX_LLC_MIB;
        match m.as_f64() {
            Some(x) if x.fract() == 0.0 && (1.0..=max as f64).contains(&x) => {
                params.llc_mib = Some(x as usize);
            }
            _ => {
                return Err(format!(
                    "llc_mib must be an integer capacity in MiB, 1 to {max}"
                ))
            }
        }
    }
    Ok(params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

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

    #[test]
    fn params_from_wire_rejects_bad_shapes() {
        for bad in [
            "{\"scale\": 0}",
            "{\"scale\": \"x\"}",
            "{\"threads\": []}",
            "{\"threads\": [0]}",
            "{\"threads\": [1.5]}",
            "{\"threads\": 4}",
            "{\"llc_mib\": 0}",
            "[1]",
        ] {
            let v = json::parse(bad).unwrap();
            assert!(params_from_wire(Some(&v)).is_err(), "{bad} accepted");
        }
        assert_eq!(params_from_wire(None).unwrap(), StudyParams::default());
        let llc = |mib: usize| {
            let v = json::parse(&format!("{{\"llc_mib\": {mib}}}")).unwrap();
            params_from_wire(Some(&v)).map(|p| p.llc_mib)
        };
        assert_eq!(
            llc(MemConfig::MAX_LLC_MIB),
            Ok(Some(MemConfig::MAX_LLC_MIB))
        );
        assert!(llc(MemConfig::MAX_LLC_MIB + 1).is_err());
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
