//! The `studyd` client: connect, handshake, submit, reassemble.
//!
//! [`Client::submit`] is the heart of the remote path: it decomposes
//! the study locally (the same [`experiments::decompose`] grid the
//! server uses), streams the NDJSON point frames into the same
//! [`GridFold`] the local sweep resolves its units into — so the report it
//! returns is **byte-identical** to a local `Study::run` with the same
//! parameters, whichever order the points arrived in and however many
//! were served from the server's cache (or coalesced onto another
//! job's computation).
//!
//! When the server answers `busy` (its admission bound is full),
//! [`Client::submit_with_retry`] backs off with capped exponential
//! delays, never shorter than the server's `retry_after_ms` hint.

use std::borrow::Cow;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use experiments::decompose::{decompose, GridFold, GridStudy};
use experiments::runner::{PointScalars, PointSummary};
use experiments::study::StudyParams;
use speedup_stacks::error::ProtocolError;
use speedup_stacks::report::json::{self, JsonValue, Reader};
use speedup_stacks::report::Report;
use speedup_stacks::SimError;

pub use crate::proto::ServiceStatus;
use crate::proto::{
    check_reply, io_err, params_to_wire, read_line_with, u64_field, PROTO_VERSION, REPLY_LINE_CAP,
    STREAM_BUFFER_BYTES,
};
use crate::server::ShutdownMode;

/// Submit attempts `repro submit` makes against a `busy` server, the
/// first included (`--no-retry` makes one).
pub const SUBMIT_ATTEMPTS: u32 = 8;

/// The delay before retry number `attempt` (1-based): 25 ms doubled per
/// attempt, capped at 2 s, and never below the server's
/// `retry_after_ms` hint.
fn retry_delay_ms(attempt: u32, retry_after_ms: u64) -> u64 {
    let shift = attempt.saturating_sub(1).min(7);
    (25u64 << shift).min(2_000).max(retry_after_ms)
}

/// The deadline on control-plane replies (`status`, `list`, `cancel`,
/// `shutdown`, the handshake): long enough for a healthy server under
/// load, short enough that a wedged backend is detected in bounded
/// time by the federation health monitor.
pub const DEFAULT_CONTROL_TIMEOUT: Duration = Duration::from_secs(2);

/// A connected, handshaken protocol client.
///
/// Replies are read under two independent deadlines: **control-plane**
/// calls (`status`, `list`, `cancel`, `shutdown`, the handshake) answer
/// from memory and must come back within [`DEFAULT_CONTROL_TIMEOUT`],
/// while **data-plane** reads (the submit result stream) may
/// legitimately block for as long as a point takes to compute and
/// default to no deadline. Before this split a wedged backend could
/// stall a heartbeat `status` probe indefinitely because it shared
/// whatever read deadline the submit path had configured.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    data_timeout: Option<Duration>,
    /// The read deadline last applied to the socket.
    read_timeout: Option<Duration>,
}

/// One study entry from the server's `list` reply.
#[derive(Debug, Clone)]
pub struct RemoteStudy {
    /// Registry name.
    pub name: String,
    /// One-line description.
    pub description: String,
    /// Whether the server can shard it (a grid study).
    pub grid: bool,
}

/// One frame from an in-flight submit stream (the
/// [`Client::start_submit`] / [`Client::next_event`] low-level pair the
/// federation coordinator drives; [`Client::submit`] folds the same
/// stream into an assembled report). `P` is what a point's record is
/// decoded into: the full [`PointSummary`] everywhere but inside
/// [`Client::submit`] for a study whose report reads no stack.
#[derive(Debug)]
pub enum StreamEvent<P = PointSummary> {
    /// A resolved point.
    Point {
        /// Grid point index (global — subset submits keep grid indices).
        index: usize,
        /// How the backend resolved it: `computed`, `cached` or
        /// `coalesced` (empty if the frame omitted it).
        source: String,
        /// Execution attempts (>1 means the point was retried).
        attempts: u64,
        /// The parsed point record; [`PointSummary::to_record`]
        /// round-trips it byte-identically for forwarding.
        summary: P,
    },
    /// A point that exhausted its retry budget.
    Failed {
        /// Grid point index.
        index: usize,
        /// Human-readable point label (may be empty).
        label: String,
        /// Why the point failed.
        reason: String,
        /// Execution attempts consumed.
        attempts: u64,
    },
    /// End of stream: the job's final tallies.
    Done {
        /// Points computed by the backend's pool for this job.
        computed: u64,
        /// Points served from the backend's result cache.
        cached: u64,
        /// Points coalesced onto another job's computation.
        coalesced: u64,
        /// Points that failed.
        failed: u64,
        /// Whether the job was cancelled before completing.
        cancelled: bool,
    },
}

/// What a remote submission produced.
#[derive(Debug)]
pub struct SubmitOutcome {
    /// The server's job id.
    pub job: u64,
    /// The reassembled report, byte-identical to a local run.
    pub report: Report,
    /// Points the server computed for this job.
    pub computed: usize,
    /// Points the server served from its cache.
    pub cached: usize,
    /// Points coalesced onto another in-flight job's computation.
    pub coalesced: usize,
    /// Points that failed (the report carries a `Degraded` block).
    pub failed: usize,
}

impl Client {
    /// Connects and completes the version handshake.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`]: connect/write/read failures (a refused
    /// connection names the address and suggests starting a daemon),
    /// version mismatch, or a malformed greeting.
    pub fn connect(addr: &str) -> Result<Client, SimError> {
        let writer = TcpStream::connect(addr).map_err(|e| {
            if e.kind() == std::io::ErrorKind::ConnectionRefused {
                ProtocolError::Io {
                    op: "connect",
                    message: format!(
                        "connection refused at {addr} — no studyd is listening there \
                         (start one with `studyd --addr {addr}`)"
                    ),
                }
            } else {
                io_err("connect", &e)
            }
        })?;
        writer.set_nodelay(true).ok();
        let read_half = writer.try_clone().map_err(|e| io_err("connect", &e))?;
        let mut client = Client {
            reader: BufReader::with_capacity(STREAM_BUFFER_BYTES, read_half),
            writer,
            data_timeout: None,
            read_timeout: None,
        };
        client.send(&format!(
            "{{\"op\": \"hello\", \"proto\": {PROTO_VERSION}}}"
        ))?;
        let reply = client.recv_control("handshake")?;
        if reply.get("kind").and_then(JsonValue::as_str) != Some("hello") {
            return Err(ProtocolError::Malformed {
                why: "server greeting is not a hello frame".to_string(),
            }
            .into());
        }
        Ok(client)
    }

    /// Sets a deadline on data-plane reads (submit result frames),
    /// default `None`: a healthy backend may take arbitrarily long to
    /// compute a point, but a federation that can fail work over
    /// elsewhere bounds the wait. Must be non-zero.
    pub fn set_data_timeout(&mut self, timeout: Option<Duration>) {
        self.data_timeout = timeout;
    }

    /// Sends one request frame as one write. The writer is the bare
    /// socket (`TCP_NODELAY`), where a frame and its newline written
    /// apart would leave as two segments and wake the session twice.
    fn send(&mut self, frame: &str) -> Result<(), ProtocolError> {
        let mut line = String::with_capacity(frame.len() + 1);
        line.push_str(frame);
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| io_err("write", &e))
    }

    /// Reads one reply frame under the control-plane deadline,
    /// unwrapping `ok:false` into its typed error.
    fn recv_control(&mut self, during: &str) -> Result<JsonValue, ProtocolError> {
        check_reply(self.recv_with(during, Some(DEFAULT_CONTROL_TIMEOUT), parse_reply)??)
    }

    /// [`Client::recv_control`] under the data-plane deadline.
    fn recv_data(&mut self, during: &str) -> Result<JsonValue, ProtocolError> {
        check_reply(self.recv_with(during, self.data_timeout, parse_reply)??)
    }

    /// Reads one reply line under `timeout` and hands it to `read` where
    /// it lies in the reader's buffer ([`read_line_with`]). The socket's
    /// read deadline is re-armed only when it changes — a submit stream
    /// reads every frame under one deadline, so that is a syscall per
    /// switch between control and data plane, not one per frame.
    /// `during` names the phase for close diagnostics.
    fn recv_with<T>(
        &mut self,
        during: &str,
        timeout: Option<Duration>,
        read: impl FnOnce(&str) -> T,
    ) -> Result<T, ProtocolError> {
        if timeout != self.read_timeout {
            self.writer
                .set_read_timeout(timeout)
                .map_err(|e| io_err("set-read-timeout", &e))?;
            self.read_timeout = timeout;
        }
        read_line_with(&mut self.reader, REPLY_LINE_CAP, read)?.ok_or_else(|| {
            ProtocolError::Closed {
                during: during.to_string(),
            }
        })
    }

    /// Fetches the server's study registry.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] on any wire failure.
    pub fn list(&mut self) -> Result<Vec<RemoteStudy>, SimError> {
        self.send("{\"op\": \"list\"}")?;
        let reply = self.recv_control("list")?;
        let studies = reply
            .get("studies")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| ProtocolError::Malformed {
                why: "list reply lacks a 'studies' array".to_string(),
            })?;
        let mut out = Vec::with_capacity(studies.len());
        for s in studies {
            out.push(RemoteStudy {
                name: field_str(s, "name")?,
                description: field_str(s, "description")?,
                grid: matches!(s.get("grid"), Some(JsonValue::Bool(true))),
            });
        }
        Ok(out)
    }

    /// Fetches scheduler and cache counters.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] on any wire failure.
    pub fn status(&mut self) -> Result<ServiceStatus, SimError> {
        self.send("{\"op\": \"status\"}")?;
        Ok(ServiceStatus::from_frame(&self.recv_control("status")?))
    }

    /// Cancels a job; `Ok(false)` when the server no longer knows it.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] on any wire failure.
    pub fn cancel(&mut self, job: u64) -> Result<bool, SimError> {
        self.send(&format!("{{\"op\": \"cancel\", \"job\": {job}}}"))?;
        let reply = self.recv_control("cancel")?;
        Ok(matches!(reply.get("found"), Some(JsonValue::Bool(true))))
    }

    /// Asks the server to shut down, acknowledged before it does:
    /// [`ShutdownMode::Immediate`] stops now; [`ShutdownMode::Drain`]
    /// stops admitting work, finishes in-flight jobs and flushes the
    /// cache spill first, acknowledged as soon as admission has stopped.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] on any wire failure.
    pub fn shutdown(&mut self, mode: ShutdownMode) -> Result<(), SimError> {
        self.send(match mode {
            ShutdownMode::Immediate => "{\"op\": \"shutdown\"}",
            ShutdownMode::Drain => "{\"op\": \"shutdown\", \"mode\": \"drain\"}",
        })?;
        self.recv_control("shutdown")?;
        Ok(())
    }

    /// [`Client::submit`] with backoff: on a typed `busy` rejection,
    /// sleeps 25 ms doubled per retry, capped at 2 s and never less than
    /// the server's `retry_after_ms` hint, and resubmits on the same
    /// connection, up to `attempts` total tries ([`SUBMIT_ATTEMPTS`];
    /// `1` never retries). Every other outcome — success or any non-busy
    /// error — is returned immediately.
    ///
    /// # Errors
    ///
    /// Whatever the final attempt returned; a still-busy server after
    /// the last attempt surfaces the `busy` error itself.
    pub fn submit_with_retry(
        &mut self,
        study: &str,
        params: &StudyParams,
        attempts: u32,
    ) -> Result<SubmitOutcome, SimError> {
        let mut attempt = 1u32;
        loop {
            match self.submit(study, params) {
                Err(SimError::Protocol(ProtocolError::Busy { retry_after_ms }))
                    if attempt < attempts =>
                {
                    let delay = retry_delay_ms(attempt, retry_after_ms);
                    std::thread::sleep(Duration::from_millis(delay));
                    attempt += 1;
                }
                outcome => return outcome,
            }
        }
    }

    /// Submits a study and reassembles the streamed points into the
    /// final [`Report`]. For a study whose report reads no stack
    /// ([`GridStudy::reads_no_stack`]: fig1, fig4) each record is decoded
    /// into its [`PointScalars`] — its stack held to the record grammar
    /// and shape as strictly as a full decode, but not converted — so a
    /// record either way is accepted or refused alike, and the report's
    /// bytes are the same.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] for wire failures and typed server
    /// rejections (unknown study, bad params, a full queue (`busy`),
    /// a draining server, version drift).
    pub fn submit(&mut self, study: &str, params: &StudyParams) -> Result<SubmitOutcome, SimError> {
        let Some(grid) = decompose(study, params) else {
            return Err(ProtocolError::Rejected {
                code: "not-grid".to_string(),
                message: format!("study '{study}' is not a sharded grid study"),
            }
            .into());
        };
        let n = grid.n_points();
        let (job, points) = self.start_submit(study, params, None)?;
        if points != n as u64 {
            return Err(ProtocolError::Malformed {
                why: format!(
                    "server decomposed '{study}' into {points} points, this client expects {n} \
                     (build drift between client and server?)"
                ),
            }
            .into());
        }
        self.reassemble(job, &grid, params)
    }

    /// Low-level submit: sends the frame (optionally restricted to a
    /// `units` subset of grid point indices — the federation's shard
    /// primitive) and returns `(job, accepted_points)` without
    /// consuming the result stream; drive it with
    /// [`Client::next_event`]. [`Client::submit`] wraps this pair into
    /// a fully assembled report.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] for wire failures and typed server
    /// rejections (unknown study, bad params or units, a full queue
    /// (`busy`), a draining server).
    pub fn start_submit(
        &mut self,
        study: &str,
        params: &StudyParams,
        units: Option<&[usize]>,
    ) -> Result<(u64, u64), SimError> {
        let units_json = match units {
            Some(subset) => {
                let mut list = String::from(", \"units\": [");
                for (i, u) in subset.iter().enumerate() {
                    if i > 0 {
                        list.push_str(", ");
                    }
                    list.push_str(&u.to_string());
                }
                list.push(']');
                list
            }
            None => String::new(),
        };
        self.send(&format!(
            "{{\"op\": \"submit\", \"study\": \"{}\", \"params\": {}{units_json}}}",
            json::escape(study),
            params_to_wire(params)
        ))?;
        let accepted = self.recv_data("submit")?;
        if accepted.get("kind").and_then(JsonValue::as_str) != Some("accepted") {
            return Err(ProtocolError::Malformed {
                why: "submit reply is not an accepted frame".to_string(),
            }
            .into());
        }
        Ok((
            u64_field(&accepted, "job").unwrap_or(0),
            u64_field(&accepted, "points").unwrap_or(0),
        ))
    }

    /// Reads the next frame of an in-flight submit stream started with
    /// [`Client::start_submit`]. `n` is the full grid size, used to
    /// range-check point indices. Reads block under the data-plane
    /// deadline ([`Client::set_data_timeout`]).
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] on wire failures, a timed-out read, or a
    /// malformed frame.
    pub fn next_event(&mut self, n: usize) -> Result<StreamEvent, SimError> {
        self.next_event_as(n, PointSummary::read_record)
    }

    /// [`Client::next_event`] with each point record read by `read_point`.
    fn next_event_as<P>(
        &mut self,
        n: usize,
        read_point: ReadPoint<P>,
    ) -> Result<StreamEvent<P>, SimError> {
        Ok(self.recv_with("result stream", self.data_timeout, |line| {
            stream_event(line, n, read_point)
        })??)
    }

    fn reassemble(
        &mut self,
        job: u64,
        grid: &GridStudy,
        params: &StudyParams,
    ) -> Result<SubmitOutcome, SimError> {
        if grid.reads_no_stack() {
            self.fold_stream(job, grid, PointScalars::read_record, |fold| {
                fold.finish(grid, params)
            })
        } else {
            self.fold_stream(job, grid, PointSummary::read_record, |fold| {
                fold.finish(grid, params)
            })
        }
    }

    /// Folds a job's stream, each point record read by `read_point`, and
    /// ends the fold with `finish` once the job is `done`.
    fn fold_stream<P>(
        &mut self,
        job: u64,
        grid: &GridStudy,
        read_point: ReadPoint<P>,
        finish: impl FnOnce(GridFold<P>) -> Report,
    ) -> Result<SubmitOutcome, SimError> {
        let n = grid.n_points();
        // Attempt counts arrive off the wire: saturate, never truncate.
        let attempts32 = |attempts: u64| u32::try_from(attempts).unwrap_or(u32::MAX);
        let mut fold = GridFold::new(n);
        loop {
            match self.next_event_as(n, read_point)? {
                StreamEvent::Point {
                    index,
                    attempts,
                    summary,
                    ..
                } => fold.point(index, summary, attempts32(attempts)),
                StreamEvent::Failed {
                    index,
                    label,
                    reason,
                    attempts,
                } => {
                    let label = if label.is_empty() {
                        grid.label(index)
                    } else {
                        label
                    };
                    fold.failed(index, label, reason, attempts32(attempts));
                }
                StreamEvent::Done {
                    computed,
                    cached,
                    coalesced,
                    failed,
                    cancelled,
                } => {
                    if cancelled {
                        return Err(ProtocolError::Rejected {
                            code: "cancelled".to_string(),
                            message: format!("job {job} was cancelled before completing"),
                        }
                        .into());
                    }
                    return Ok(SubmitOutcome {
                        job,
                        report: finish(fold),
                        computed: computed as usize,
                        cached: cached as usize,
                        coalesced: coalesced as usize,
                        failed: failed as usize,
                    });
                }
            }
        }
    }
}

fn parse_reply(line: &str) -> Result<JsonValue, ProtocolError> {
    json::parse(line).map_err(|e| ProtocolError::Malformed {
        why: format!("invalid JSON reply: {e}"),
    })
}

/// How a point frame's `data` record is read: [`PointSummary::read_record`]
/// or [`PointScalars::read_record`].
type ReadPoint<P> = fn(&mut Reader<'_>) -> Option<P>;

/// Reads one result-stream frame, its point record by `read_point`. A
/// frame of `"ok": true` is read in the one walk of [`Frame::read`]; any
/// other line — an error reply, or one that is not a JSON object — is
/// read as a tree, and [`check_reply`] types its error.
fn stream_event<P>(
    line: &str,
    n: usize,
    read_point: ReadPoint<P>,
) -> Result<StreamEvent<P>, ProtocolError> {
    let (frame, data) = match Frame::read(line, read_point) {
        Some((frame, data)) if frame.ok == Some(JsonValue::Bool(true)) => (frame, data),
        // `check_reply` rejects every such line; the tree gives it the
        // fields its typed error is built from.
        _ => {
            check_reply(parse_reply(line)?)?;
            return Err(unexpected_frame());
        }
    };
    let count = |field: &Option<JsonValue>| json::exact_u64(field.as_ref()?.as_f64()?);
    let text = |field: Text| field.flatten().map(Cow::into_owned);
    let index = || {
        count(&frame.index)
            .and_then(|i| usize::try_from(i).ok())
            .filter(|&i| i < n)
            .ok_or_else(|| ProtocolError::Malformed {
                why: "frame carries an out-of-range point index".to_string(),
            })
    };
    match frame.kind.as_ref().and_then(Option::as_deref) {
        Some("point") => {
            let index = index()?;
            let summary = data.flatten().ok_or_else(|| ProtocolError::Malformed {
                why: format!("point {index} carries an unparsable record"),
            })?;
            Ok(StreamEvent::Point {
                index,
                source: text(frame.source).unwrap_or_default(),
                attempts: count(&frame.attempts).unwrap_or(1),
                summary,
            })
        }
        Some("failed") => Ok(StreamEvent::Failed {
            index: index()?,
            label: text(frame.label).unwrap_or_default(),
            reason: text(frame.reason).unwrap_or_else(|| "unknown".to_string()),
            attempts: count(&frame.attempts).unwrap_or(1),
        }),
        Some("done") => Ok(StreamEvent::Done {
            computed: count(&frame.computed).unwrap_or(0),
            cached: count(&frame.cached).unwrap_or(0),
            coalesced: count(&frame.coalesced).unwrap_or(0),
            failed: count(&frame.failed).unwrap_or(0),
            cancelled: frame.cancelled == Some(JsonValue::Bool(true)),
        }),
        _ => Err(unexpected_frame()),
    }
}

fn unexpected_frame() -> ProtocolError {
    ProtocolError::Malformed {
        why: "unexpected frame in result stream".to_string(),
    }
}

/// A string field of a result-stream frame, borrowed from the line:
/// `Some(None)` when its first occurrence is not a string.
type Text<'a> = Option<Option<Cow<'a, str>>>;

/// The fields a result-stream frame of any kind (`point`, `failed`,
/// `done`) is read by: each the first occurrence of its key, as it
/// stands (a field of another type reads as absent when used), the
/// string fields borrowed from the line. Every other key is skipped, not
/// built, but the `data` point record, which [`Frame::read`] decodes
/// straight from the text beside the frame.
#[derive(Default)]
struct Frame<'a> {
    ok: Option<JsonValue>,
    kind: Text<'a>,
    index: Option<JsonValue>,
    source: Text<'a>,
    label: Text<'a>,
    reason: Text<'a>,
    attempts: Option<JsonValue>,
    computed: Option<JsonValue>,
    cached: Option<JsonValue>,
    coalesced: Option<JsonValue>,
    failed: Option<JsonValue>,
    cancelled: Option<JsonValue>,
}

impl<'a> Frame<'a> {
    /// Walks `line` once, reading the first `data` by `read_point`
    /// (`Some(None)`: valid JSON but no point record); `None` when the
    /// line is not a JSON object.
    fn read<P>(line: &'a str, read_point: ReadPoint<P>) -> Option<(Frame<'a>, Option<Option<P>>)> {
        let value = |r: &mut Reader<'a>| r.value().ok();
        let mut r = Reader::new(line);
        let mut f = Frame::default();
        let mut data = None;
        r.begin_object().ok()?;
        while let Some(key) = r.next_key().ok()? {
            let r = &mut r;
            match &*key {
                "ok" => first(r, &mut f.ok, value),
                "kind" => first(r, &mut f.kind, text),
                "index" => first(r, &mut f.index, value),
                "source" => first(r, &mut f.source, text),
                "label" => first(r, &mut f.label, text),
                "reason" => first(r, &mut f.reason, text),
                "attempts" => first(r, &mut f.attempts, value),
                "computed" => first(r, &mut f.computed, value),
                "cached" => first(r, &mut f.cached, value),
                "coalesced" => first(r, &mut f.coalesced, value),
                "failed" => first(r, &mut f.failed, value),
                "cancelled" => first(r, &mut f.cancelled, value),
                "data" => first(r, &mut data, |r| {
                    let start = r.clone();
                    let record = read_point(r);
                    if record.is_none() {
                        // Not a record: step over it as the JSON it is.
                        *r = start;
                        r.skip().ok()?;
                    }
                    Some(record)
                }),
                _ => r.skip().ok(),
            }?;
        }
        r.finish().ok()?;
        Some((f, data))
    }
}

/// Reads a key's value into `slot` on its first occurrence and steps
/// over every later one; `None` when the JSON is malformed.
fn first<'a, T>(
    r: &mut Reader<'a>,
    slot: &mut Option<T>,
    read: impl FnOnce(&mut Reader<'a>) -> Option<T>,
) -> Option<()> {
    if slot.is_some() {
        return r.skip().ok();
    }
    *slot = Some(read(r)?);
    Some(())
}

/// Reads a string value, borrowed from the line: `Some(None)` for a
/// value of another type (stepped over), `None` for malformed JSON.
fn text<'a>(r: &mut Reader<'a>) -> Text<'a> {
    let start = r.clone();
    if let Ok(s) = r.string() {
        return Some(Some(s));
    }
    *r = start;
    r.skip().ok()?;
    Some(None)
}

fn field_str(v: &JsonValue, key: &str) -> Result<String, ProtocolError> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| ProtocolError::Malformed {
            why: format!("frame lacks a string '{key}' field"),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, Write};
    use std::net::TcpListener;
    use std::sync::Arc;
    use std::time::Instant;

    use experiments::study::find_study;

    use crate::cache::Cache;
    use crate::scheduler::JobEvent;
    use crate::scheduler::{drain_events, SchedOptions, Scheduler};
    use crate::session::write_event;

    /// A result-stream frame of any kind is read in one walk: the first
    /// of a repeated key wins, a field of another type reads as absent,
    /// a `data` that is no point record fails only a `point` frame, and
    /// an error reply comes back typed.
    #[test]
    fn stream_frames_read_in_one_walk() {
        let params = StudyParams::with_scale(0.01);
        let grid = decompose("fig4", &params).expect("fig4 is a grid");
        let st = grid.compute_reference(&params, 0).expect("reference");
        let record = grid
            .compute_point(&params, 0, st)
            .expect("point")
            .to_record();
        let read = |fields: &str| {
            let line = format!("{{{}}}", fields.replace("REC", &record));
            stream_event(&line, 4, PointSummary::read_record)
        };
        match read(
            "\"ok\": true, \"kind\": \"point\", \"job\": 3, \"x\": [1, {\"y\": null}], \
             \"index\": 2, \"index\": 9, \"source\": \"cached\", \"attempts\": 2, \"data\": REC",
        ) {
            Ok(StreamEvent::Point {
                index: 2,
                source,
                attempts: 2,
                summary,
            }) => assert_eq!(
                (source.as_str(), summary.to_record()),
                ("cached", record.clone())
            ),
            other => panic!("{other:?}"),
        }
        match read("\"ok\": true, \"kind\": \"point\", \"index\": 1, \"source\": 5, \"attempts\": 2.5, \"data\": REC") {
            Ok(StreamEvent::Point {
                index: 1,
                source,
                attempts: 1,
                ..
            }) => assert_eq!(source, ""),
            other => panic!("{other:?}"),
        }
        match read("\"ok\": true, \"kind\": \"failed\", \"index\": 3, \"reason\": null, \"data\": {\"kind\": 1}") {
            Ok(StreamEvent::Failed {
                index: 3,
                label,
                reason,
                attempts: 1,
            }) => assert_eq!((label.as_str(), reason.as_str()), ("", "unknown")),
            other => panic!("{other:?}"),
        }
        let done = read("\"ok\": true, \"kind\": \"done\", \"computed\": 5, \"cached\": 1e300, \"cancelled\": true, \"cancelled\": false");
        assert!(
            matches!(
                done,
                Ok(StreamEvent::Done {
                    computed: 5,
                    cached: 0,
                    coalesced: 0,
                    failed: 0,
                    cancelled: true
                })
            ),
            "{done:?}"
        );
        for (fields, why) in [
            (
                "\"ok\": true, \"kind\": \"point\", \"index\": 4, \"data\": REC",
                "out-of-range",
            ),
            (
                "\"ok\": true, \"kind\": \"point\", \"index\": 1e300, \"data\": REC",
                "out-of-range",
            ),
            (
                "\"ok\": true, \"kind\": \"point\", \"index\": 1, \"data\": {\"kind\": 1}",
                "unparsable record",
            ),
            (
                "\"ok\": true, \"kind\": \"point\", \"index\": 1",
                "unparsable record",
            ),
            ("\"ok\": true, \"kind\": 7", "unexpected frame"),
            (
                "\"kind\": \"point\", \"index\": 1, \"data\": REC",
                "boolean 'ok'",
            ),
            ("\"ok\": true, \"kind\": \"done\",", "invalid JSON"),
        ] {
            match read(fields) {
                Err(ProtocolError::Malformed { why: w }) => {
                    assert!(w.contains(why), "{fields}: {w}")
                }
                other => panic!("{fields}: {other:?}"),
            }
        }
        let busy =
            read("\"ok\": false, \"error\": \"busy\", \"retry_after_ms\": 40, \"data\": REC");
        assert!(
            matches!(busy, Err(ProtocolError::Busy { retry_after_ms: 40 })),
            "{busy:?}"
        );
    }

    /// Warm streams of `studies` from one in-process scheduler whose
    /// cache a cold fig4 filled (every fig1 and fig5 unit is one of
    /// fig4's), each framed as a session frames it: `accepted` first,
    /// `done` last.
    fn warm_streams(params: &StudyParams, studies: &[&str]) -> Vec<String> {
        let grid = |study| decompose(study, params).expect("a grid study");
        let sched = Scheduler::start(
            2,
            Arc::new(Cache::new(64 * 1024 * 1024)),
            SchedOptions::default(),
        );
        let (_, cold) = sched
            .submit(grid("fig4"), params.clone())
            .expect("admitted");
        drain_events(&cold).expect("cold job ends");
        let streams = studies
            .iter()
            .map(|&study| {
                let n = grid(study).n_points();
                let (job, warm) = sched.submit(grid(study), params.clone()).expect("admitted");
                let mut stream = format!(
                    "{{\"ok\": true, \"kind\": \"accepted\", \"job\": {job}, \"study\": \"{study}\", \
                     \"points\": {n}, \"fingerprint\": \"\"}}\n"
                )
                .into_bytes();
                for event in warm.iter() {
                    write_event(&mut stream, job, &event).expect("a Vec takes every byte");
                    if matches!(event, JobEvent::Done { .. }) {
                        break;
                    }
                }
                String::from_utf8(stream).expect("frames are UTF-8")
            })
            .collect();
        sched.stop();
        streams
    }

    /// A fake server on loopback: it answers the handshake, reads one
    /// submit and replays `stream` in writes of 1 B, 7 B, 4 KiB and
    /// 70 KiB in turn, so frames arrive torn at every size and straddle
    /// the client's buffer edge. Its thread returns what it reads after
    /// the stream: 0 once the client hangs up.
    fn fake_server(stream: String) -> (String, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream_out, _) = listener.accept().unwrap();
            stream_out.set_nodelay(true).unwrap();
            let mut reader = BufReader::new(stream_out.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap(); // hello
            let mut w = &stream_out;
            w.write_all(b"{\"ok\": true, \"kind\": \"hello\", \"proto\": 2}\n")
                .unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap(); // submit
            let mut rest = stream.as_bytes();
            for size in [1, 7, 4096, 70 * 1024].into_iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (piece, tail) = rest.split_at(size.min(rest.len()));
                // A client that refused a frame may hang up mid-stream.
                if w.write_all(piece).is_err() {
                    break;
                }
                rest = tail;
            }
            line.clear();
            reader.read_line(&mut line).unwrap_or(0) // EOF once the client drops
        });
        (addr, server)
    }

    /// A warm fig4 stream is longer than the client's read buffer.
    /// Replayed by the fake server, torn at every size, the client
    /// reassembles exactly the bytes of a local run.
    #[test]
    fn a_warm_stream_reassembles_across_buffer_edges() {
        let params = StudyParams::with_scale(0.01);
        let n = decompose("fig4", &params)
            .expect("fig4 is a grid")
            .n_points();
        let stream = warm_streams(&params, &["fig4"]).remove(0);
        assert!(stream.len() > STREAM_BUFFER_BYTES, "{} bytes", stream.len());
        let (addr, server) = fake_server(stream);
        let mut client = Client::connect(&addr).unwrap();
        let outcome = client.submit("fig4", &params).unwrap();
        drop(client);
        assert_eq!(server.join().unwrap(), 0);
        assert_eq!((outcome.computed, outcome.cached), (0, n), "served warm");
        let local = find_study("fig4").unwrap().run(&params).unwrap();
        assert_eq!(outcome.report.to_json(), local.to_json());
    }

    /// A submit of fig4, whose report reads no stack, reads its records
    /// without converting their stacks; one of fig5, whose report reads
    /// stacks, converts them. Point 1's record damaged inside `o` — one
    /// overhead short, or a `null` among them — fails both submits with
    /// the same error.
    #[test]
    fn a_damaged_stack_fails_a_stack_free_submit_as_it_fails_a_full_one() {
        let params = StudyParams::with_scale(0.01);
        let grid = |study| decompose(study, &params).expect("a grid study");
        assert!(grid("fig4").reads_no_stack() && !grid("fig5").reads_no_stack());
        let studies = ["fig4", "fig5"];
        let streams = warm_streams(&params, &studies);
        // The first overhead of point 1's first `o`: dropped, or `null`.
        let damages: [fn(&mut String, usize, usize); 2] = [
            |line, at, end| line.replace_range(at..end + 2, ""),
            |line, at, end| line.replace_range(at..end, "null"),
        ];
        for damage in damages {
            for (study, stream) in studies.iter().zip(&streams) {
                let damaged: Vec<String> = stream
                    .lines()
                    .map(|line| {
                        let mut line = line.to_string();
                        if line.contains("\"index\": 1, ") {
                            let at = line.find("\"o\": [").expect("a point record") + 6;
                            let end = at + line[at..].find(", ").expect("seven overheads");
                            damage(&mut line, at, end);
                        }
                        line + "\n"
                    })
                    .collect();
                let (addr, server) = fake_server(damaged.concat());
                let mut client = Client::connect(&addr).unwrap();
                let err = client.submit(study, &params).unwrap_err();
                drop(client);
                assert_eq!(server.join().unwrap(), 0);
                assert!(
                    matches!(
                        &err,
                        SimError::Protocol(ProtocolError::Malformed { why })
                            if why == "point 1 carries an unparsable record"
                    ),
                    "{study}: {err}"
                );
            }
        }
    }

    /// Retry `k` waits 25 ms · 2^(k−1), capped at 2 s, never below the
    /// server's hint.
    #[test]
    fn retry_delays_double_to_a_cap_and_honor_the_hint() {
        let delays: Vec<u64> = (1..=9).map(|k| retry_delay_ms(k, 0)).collect();
        assert_eq!(delays, [25, 50, 100, 200, 400, 800, 1600, 2000, 2000]);
        assert_eq!(retry_delay_ms(u32::MAX, 0), 2000);
        assert_eq!(retry_delay_ms(1, 300), 300);
        assert_eq!(retry_delay_ms(9, 5_000), 5_000);
    }

    /// A wedged backend — one that accepts the connection and completes
    /// the handshake but never answers another frame — must fail a
    /// control-plane call within the control timeout, not hang forever.
    /// (Before the control/data deadline split, `status` inherited the
    /// submit path's unbounded read and a heartbeat could wedge with
    /// its backend.) The socket deadline is re-armed only when it
    /// changes, so three calls alternate planes and deadlines — 2 s,
    /// 50 ms, 2 s — and each must wait its own deadline: a stale longer
    /// one (the control plane's 2 s) would overrun the data plane's
    /// bound, a stale shorter one would return the next status early.
    #[test]
    fn control_calls_time_out_against_a_wedged_server() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap(); // hello
            let mut w = &stream;
            w.write_all(b"{\"ok\": true, \"kind\": \"hello\", \"proto\": 2}\n")
                .unwrap();
            // Read requests but never reply — wedged. Returns at EOF
            // when the client gives up and drops the connection.
            loop {
                line.clear();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    return;
                }
            }
        });
        let mut client = Client::connect(&addr).unwrap();
        let ms = Duration::from_millis;
        fn times_out(waits: Duration, below: Duration, call: impl FnOnce() -> SimError) {
            let start = Instant::now();
            let err = call();
            assert!(
                matches!(
                    err,
                    SimError::Protocol(ProtocolError::Timeout | ProtocolError::Io { .. })
                ),
                "expected a timeout, got: {err}"
            );
            let waited = start.elapsed();
            assert!(
                (waits..below).contains(&waited),
                "waited {waited:?} on a {waits:?} deadline"
            );
        }
        let control = DEFAULT_CONTROL_TIMEOUT;
        client.set_data_timeout(Some(ms(50)));
        times_out(control, control * 2, || client.status().unwrap_err());
        times_out(ms(50), ms(1000), || {
            client
                .start_submit("fig6", &StudyParams::default(), None)
                .unwrap_err()
        });
        times_out(control, control * 2, || client.status().unwrap_err());
        drop(client);
        server.join().unwrap();
    }
}
