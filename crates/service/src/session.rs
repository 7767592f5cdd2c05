//! One client connection: handshake, request loop, result streaming.
//!
//! Error severity is graded. Frames that prove the peer does not speak
//! the protocol — malformed JSON, an oversized line, a broken handshake
//! — get one typed error frame and the connection closes. Frames that
//! are well-formed but name something invalid — an unknown op, an
//! unknown study, bad parameters, a full queue (`busy`), a draining
//! server — get a typed error reply and the connection **stays open**,
//! so an interactive client can correct itself (or back off and retry)
//! without reconnecting. No socket failure is ever unwrapped: a peer
//! that vanishes mid-stream cancels its job and ends the session
//! quietly, and a peer that sits silent past the configured idle
//! timeout is reaped with a typed `idle-timeout` frame.
//!
//! A submit's result frames are written one burst at a time: each frame
//! goes into the session's buffered writer, which is flushed only when
//! the job has no next event ready (or the frame is `done`). A point
//! that lands alone leaves the moment it lands; points already queued
//! behind it — a warm job's cached points all are — share its write.
//! The job's first frame is the exception: it is flushed at once, so
//! the first point reaches the client without waiting for a buffer to
//! fill. A job whose first event is already queued when it is admitted
//! (a warm one) sends `accepted` in that same write; a job with nothing
//! ready flushes `accepted` before it waits. The writer holds 64 KiB, so
//! a 112-point warm fig4 stream (~105 KB) leaves in three writes instead
//! of 114 flushes. The bytes on the wire are the same either way.
//!
//! A frame is written straight into that writer (`write_event`): a
//! point frame is its envelope, then the record the job event shares
//! with the result cache, then `}\n`, so a warm point costs one copy,
//! into the socket buffer.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

use experiments::decompose::{decompose, GridStudy};
use experiments::study::{find_study, registry, StudyParams};
use speedup_stacks::error::ProtocolError;
use speedup_stacks::report::json::{self, JsonValue};

use crate::proto::{
    buffer_line, count, error_frame, params_from_wire, read_line_bounded, u64_field, write_line,
    PROTO_VERSION, REQUEST_LINE_CAP, STREAM_BUFFER_BYTES,
};
use crate::scheduler::{drain_events, JobEvent, Scheduler, SubmitError};
use crate::server::ShutdownMode;

/// The execution engine behind a session: a backend daemon's local
/// [`Scheduler`], or the federation coordinator fanning work out across
/// a fleet ([`crate::federation::Federation`]). The wire protocol is
/// identical either way, so a client cannot tell (and need not care)
/// whether it is talking to one machine or a fleet.
pub trait Dispatch: Send + Sync {
    /// Admits a job for `grid`, optionally restricted to a sorted,
    /// deduplicated, range-checked subset of point indices (the
    /// session validates via [`GridStudy::validate_units`] first).
    ///
    /// # Errors
    ///
    /// [`SubmitError`] when admission is refused.
    fn submit_units(
        &self,
        grid: GridStudy,
        params: StudyParams,
        units: Option<Vec<usize>>,
    ) -> Result<(u64, Receiver<JobEvent>), SubmitError>;

    /// Cancels a job. `false` when the job is unknown or already
    /// finished.
    fn cancel_job(&self, job: u64) -> bool;

    /// Stops admitting new work (the drain-mode shutdown's first step).
    fn begin_drain(&self);

    /// Renders the engine's `status` reply frame.
    fn render_status(&self) -> String;
}

impl Dispatch for Scheduler {
    fn submit_units(
        &self,
        grid: GridStudy,
        params: StudyParams,
        units: Option<Vec<usize>>,
    ) -> Result<(u64, Receiver<JobEvent>), SubmitError> {
        Scheduler::submit_units(self, grid, params, units)
    }

    fn cancel_job(&self, job: u64) -> bool {
        self.cancel(job)
    }

    fn begin_drain(&self) {
        Scheduler::begin_drain(self);
    }

    fn render_status(&self) -> String {
        self.status().to_frame("")
    }
}

/// Everything a session needs beyond its socket: the engine it
/// dispatches into, the shutdown channel and the idle-reaper deadline.
/// One shared instance per server.
pub struct SessionCtx {
    /// The engine requests dispatch into.
    pub engine: Arc<dyn Dispatch>,
    /// Channel to the main thread's shutdown loop.
    pub shutdown_tx: Sender<ShutdownMode>,
    /// Idle-connection reaper deadline; `None` = never reap.
    pub idle_timeout: Option<Duration>,
}

impl std::fmt::Debug for SessionCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionCtx")
            .field("idle_timeout", &self.idle_timeout)
            .finish_non_exhaustive()
    }
}

/// Outcome of handling one request: keep serving or end the session.
enum Flow {
    Continue,
    Close,
}

/// Serves one accepted connection to completion. Never panics on
/// socket I/O; all failures end the session. A non-zero idle timeout
/// arms the idle-connection reaper: a peer that sends nothing for that
/// long is sent a typed `idle-timeout` error frame and disconnected,
/// so slow or dead clients cannot pin session threads forever.
pub fn run(stream: TcpStream, ctx: &SessionCtx) {
    stream.set_nodelay(true).ok();
    if let Some(timeout) = ctx.idle_timeout {
        stream.set_read_timeout(Some(timeout)).ok();
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::with_capacity(STREAM_BUFFER_BYTES, stream);

    if handshake(&mut reader, &mut writer).is_none() {
        return;
    }

    while let Some(line) = read_request(&mut reader, &mut writer) {
        let frame = match json::parse(&line) {
            Ok(v) => v,
            Err(e) => {
                send_error(&mut writer, "malformed", &format!("invalid JSON: {e}"));
                return;
            }
        };
        match handle_request(&frame, &mut writer, ctx) {
            Flow::Continue => {}
            Flow::Close => return,
        }
    }
}

/// The handshake: the first frame must be a version-matching `hello`.
/// `None` ends the session (the error frame, if any, was already sent).
fn handshake(reader: &mut BufReader<TcpStream>, writer: &mut BufWriter<TcpStream>) -> Option<()> {
    let line = read_request(reader, writer)?;
    let Ok(frame) = json::parse(&line) else {
        send_error(writer, "malformed", "handshake frame is not valid JSON");
        return None;
    };
    if frame.get("op").and_then(JsonValue::as_str) != Some("hello") {
        send_error(
            writer,
            "handshake-required",
            &format!("the first frame must be {{\"op\": \"hello\", \"proto\": {PROTO_VERSION}}}"),
        );
        return None;
    }
    let Some(found) = u64_field(&frame, "proto") else {
        send_error(writer, "malformed", "hello frame lacks an integer 'proto'");
        return None;
    };
    if found != PROTO_VERSION {
        // A version-mismatch frame carries both versions so the client
        // can render a precise diagnostic.
        let msg = format!(
            "{{\"ok\": false, \"error\": \"version-mismatch\", \"message\": \
             \"protocol version {found} unsupported (this server speaks version \
             {PROTO_VERSION})\", \"found\": {found}, \"supported\": {PROTO_VERSION}}}"
        );
        write_line(writer, &msg).ok();
        return None;
    }
    write_line(
        writer,
        &format!(
            "{{\"ok\": true, \"kind\": \"hello\", \"proto\": {PROTO_VERSION}, \
             \"server\": \"studyd\"}}"
        ),
    )
    .ok()?;
    Some(())
}

/// Reads one request line. `None` ends the session: a clean disconnect,
/// a socket failure, or a line that cannot be a frame — oversized,
/// not UTF-8, or never sent within the idle timeout — whose typed error
/// frame has been sent.
fn read_request(
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
) -> Option<String> {
    let (code, message) = match read_line_bounded(reader, REQUEST_LINE_CAP) {
        Ok(line) => return line,
        Err(ProtocolError::Oversized { limit }) => (
            "oversized",
            format!("request frame exceeds the {limit}-byte line cap"),
        ),
        Err(ProtocolError::Malformed { why }) => ("malformed", why),
        Err(ProtocolError::Timeout) => (
            "idle-timeout",
            "connection idle past the server's idle timeout".to_string(),
        ),
        Err(_) => return None,
    };
    send_error(writer, code, &message);
    None
}

fn send_error(writer: &mut BufWriter<TcpStream>, code: &str, message: &str) {
    write_line(writer, &error_frame(code, message)).ok();
}

fn handle_request(frame: &JsonValue, writer: &mut BufWriter<TcpStream>, ctx: &SessionCtx) -> Flow {
    let Some(op) = frame.get("op").and_then(JsonValue::as_str) else {
        send_error(writer, "bad-request", "frame lacks a string 'op' field");
        return Flow::Continue;
    };
    match op {
        "list" => {
            if write_line(writer, &list_frame()).is_err() {
                return Flow::Close;
            }
            Flow::Continue
        }
        "status" => {
            let frame = ctx.engine.render_status();
            if write_line(writer, &frame).is_err() {
                return Flow::Close;
            }
            Flow::Continue
        }
        "cancel" => {
            let Some(job) = u64_field(frame, "job") else {
                send_error(writer, "bad-request", "cancel needs an integer 'job' field");
                return Flow::Continue;
            };
            let found = ctx.engine.cancel_job(job);
            // A cancel racing job completion is answered deterministically:
            // a live (or zombie) job reports `cancelled`, a job whose final
            // point already streamed reports `already-done`.
            let state = if found { "cancelled" } else { "already-done" };
            let reply = format!(
                "{{\"ok\": true, \"kind\": \"cancelled\", \"job\": {job}, \"found\": {found}, \
                 \"state\": \"{state}\"}}"
            );
            if write_line(writer, &reply).is_err() {
                return Flow::Close;
            }
            Flow::Continue
        }
        "shutdown" => {
            let mode = match frame.get("mode").and_then(JsonValue::as_str) {
                None | Some("now") => ShutdownMode::Immediate,
                Some("drain") => ShutdownMode::Drain,
                Some(other) => {
                    send_error(
                        writer,
                        "bad-request",
                        &format!("unknown shutdown mode '{other}' (expected 'now' or 'drain')"),
                    );
                    return Flow::Continue;
                }
            };
            // Stop admission *before* acknowledging, so a client that sees
            // the ok can rely on no further work being admitted.
            if mode == ShutdownMode::Drain {
                ctx.engine.begin_drain();
            }
            let word = match mode {
                ShutdownMode::Immediate => "now",
                ShutdownMode::Drain => "drain",
            };
            write_line(
                writer,
                &format!("{{\"ok\": true, \"kind\": \"shutdown\", \"mode\": \"{word}\"}}"),
            )
            .ok();
            ctx.shutdown_tx.send(mode).ok();
            Flow::Close
        }
        "submit" => handle_submit(frame, writer, ctx),
        other => {
            send_error(writer, "bad-request", &format!("unknown op '{other}'"));
            Flow::Continue
        }
    }
}

fn handle_submit(frame: &JsonValue, writer: &mut BufWriter<TcpStream>, ctx: &SessionCtx) -> Flow {
    let Some(study) = frame.get("study").and_then(JsonValue::as_str) else {
        send_error(writer, "bad-request", "submit needs a string 'study' field");
        return Flow::Continue;
    };
    let Some(entry) = find_study(study) else {
        send_error(
            writer,
            "unknown-study",
            &format!("no study named '{study}'"),
        );
        return Flow::Continue;
    };
    let params = match params_from_wire(frame.get("params")) {
        Ok(p) => p,
        Err(why) => {
            send_error(writer, "bad-params", &why);
            return Flow::Continue;
        }
    };
    if let Err(e) = entry.check(&params) {
        send_error(writer, "bad-params", &e.to_string());
        return Flow::Continue;
    }
    let Some(grid) = decompose(study, &params) else {
        send_error(
            writer,
            "not-grid",
            &format!("study '{study}' is not a sharded grid study"),
        );
        return Flow::Continue;
    };

    // An optional subset of point indices — the federation's shard
    // primitive. Absent = the full grid.
    let units = match frame.get("units") {
        None => None,
        Some(list) => {
            let subset: Option<Vec<usize>> =
                list.as_array().and_then(|a| a.iter().map(count).collect());
            let checked = subset
                .ok_or_else(|| "units must be an array of point indices".to_string())
                .and_then(|subset| grid.validate_units(&subset));
            match checked {
                Ok(normalized) => Some(normalized),
                Err(why) => {
                    send_error(writer, "bad-units", &why);
                    return Flow::Continue;
                }
            }
        }
    };

    let fingerprint = experiments::journal::fingerprint(study, &params);
    let points = units.as_ref().map_or(grid.n_points(), Vec::len);
    let (job, rx) = match ctx.engine.submit_units(grid, params, units) {
        Ok(accepted) => accepted,
        Err(SubmitError::Busy {
            queued,
            limit,
            retry_after_ms,
        }) => {
            let busy = format!(
                "{{\"ok\": false, \"error\": \"busy\", \"message\": \"work queue full \
                 ({queued} units queued, limit {limit})\", \"retry_after_ms\": {retry_after_ms}}}"
            );
            if write_line(writer, &busy).is_err() {
                return Flow::Close;
            }
            return Flow::Continue;
        }
        Err(SubmitError::Draining) => {
            send_error(
                writer,
                "draining",
                "server is draining and not admitting new work",
            );
            return Flow::Continue;
        }
    };
    let accepted = format!(
        "{{\"ok\": true, \"kind\": \"accepted\", \"job\": {job}, \"study\": \"{}\", \
         \"points\": {points}, \"fingerprint\": \"{}\"}}",
        json::escape(study),
        json::escape(&fingerprint)
    );
    // A warm job's first event is queued before `submit_units` returns:
    // `accepted` then waits in the buffer and leaves with that event's
    // frame. A job with nothing queued yet sends it at once.
    let mut ahead: Option<JobEvent> = rx.try_recv().ok();
    let sent = if ahead.is_some() {
        buffer_line(writer, &accepted)
    } else {
        write_line(writer, &accepted)
    };
    if sent.is_err() {
        ctx.engine.cancel_job(job);
        let _ = drain_events(&rx);
        return Flow::Close;
    }

    // Stream results as they complete, one write per burst: each frame
    // goes into the buffer, which is flushed only when no next event is
    // ready yet (or the frame is `done`) — a point that lands alone
    // leaves at once, a run of cached points leaves in a few full
    // buffers. The job's first frame leaves at once whatever follows it,
    // so a consumer acting on it (a coordinator relaying a backend's
    // stream) does not wait for a buffer to fill. A write failure means
    // the peer is gone: cancel the job so queued points stop consuming
    // the pool.
    let mut first = true;
    loop {
        let event = match ahead.take() {
            Some(e) => e,
            None => match rx.recv() {
                Ok(e) => e,
                Err(_) => return Flow::Close, // scheduler shut down mid-job
            },
        };
        let done = matches!(event, JobEvent::Done { .. });
        if !done {
            ahead = rx.try_recv().ok();
        }
        let mut written = write_event(writer, job, &event);
        if written.is_ok() && (ahead.is_none() || first) {
            written = writer.flush();
        }
        first = false;
        if written.is_err() {
            ctx.engine.cancel_job(job);
            // The look-ahead may already hold `done`: never wait for a
            // second one.
            if !done && !matches!(ahead, Some(JobEvent::Done { .. })) {
                let _ = drain_events(&rx);
            }
            return Flow::Close;
        }
        if done {
            return Flow::Continue;
        }
    }
}

/// Writes one job event's wire frame, newline included, into `out` —
/// the session's buffered writer. A point frame is its envelope, the
/// shared record itself and `}\n`, with its numbers written digit by
/// digit: no frame is first built as a `String`. Failed and done frames
/// (one per failure, one per job) go through `write!`.
pub(crate) fn write_event<W: Write>(out: &mut W, job: u64, event: &JobEvent) -> io::Result<()> {
    match event {
        JobEvent::Point {
            index,
            source,
            attempts,
            record,
        } => {
            out.write_all(b"{\"ok\": true, \"kind\": \"point\", \"job\": ")?;
            write_u64(out, job)?;
            out.write_all(b", \"index\": ")?;
            write_u64(out, *index as u64)?;
            out.write_all(b", \"source\": \"")?;
            out.write_all(source.wire_name().as_bytes())?;
            out.write_all(b"\", \"attempts\": ")?;
            write_u64(out, u64::from(*attempts))?;
            out.write_all(b", \"data\": ")?;
            out.write_all(record.as_bytes())?;
            out.write_all(b"}\n")
        }
        JobEvent::Failed {
            index,
            label,
            reason,
            attempts,
        } => writeln!(
            out,
            "{{\"ok\": true, \"kind\": \"failed\", \"job\": {job}, \"index\": {index}, \
             \"label\": \"{}\", \"reason\": \"{}\", \"attempts\": {attempts}}}",
            json::escape(label),
            json::escape(reason)
        ),
        JobEvent::Done {
            computed,
            cached,
            coalesced,
            failed,
            cancelled,
        } => writeln!(
            out,
            "{{\"ok\": true, \"kind\": \"done\", \"job\": {job}, \"computed\": {computed}, \
             \"cached\": {cached}, \"coalesced\": {coalesced}, \"failed\": {failed}, \
             \"cancelled\": {cancelled}}}"
        ),
    }
}

/// Writes `n` in decimal.
fn write_u64<W: Write>(out: &mut W, mut n: u64) -> io::Result<()> {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.write_all(&digits[at..])
}

fn list_frame() -> String {
    let mut out = String::from("{\"ok\": true, \"kind\": \"list\", \"studies\": [");
    for (i, s) in registry().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"description\": \"{}\", \"grid\": {}}}",
            json::escape(s.name()),
            json::escape(s.description()),
            decompose(s.name(), &StudyParams::default()).is_some()
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::net::TcpListener;
    use std::sync::mpsc::channel;
    use std::sync::Mutex;

    use experiments::decompose::decompose;
    use experiments::study::StudyParams;

    use crate::client::{Client, StreamEvent};
    use crate::scheduler::PointSource;

    use super::*;

    /// An engine whose job streams `record` as every point but the last
    /// and then holds its stream open, like a last unit that never ends.
    struct Stalled {
        record: Arc<str>,
        held: Mutex<Vec<Sender<JobEvent>>>,
    }

    impl Dispatch for Stalled {
        fn submit_units(
            &self,
            grid: GridStudy,
            _params: StudyParams,
            _units: Option<Vec<usize>>,
        ) -> Result<(u64, Receiver<JobEvent>), SubmitError> {
            let (sender, rx) = channel();
            for index in 0..grid.n_points() - 1 {
                let record = Arc::clone(&self.record);
                let source = PointSource::Computed;
                let point = JobEvent::Point {
                    index,
                    source,
                    attempts: 1,
                    record,
                };
                sender.send(point).expect("receiver alive");
            }
            self.held.lock().expect("unpoisoned").push(sender);
            Ok((1, rx))
        }

        fn cancel_job(&self, _job: u64) -> bool {
            false
        }

        fn begin_drain(&self) {}

        fn render_status(&self) -> String {
            String::new()
        }
    }

    /// Every frame kind's exact bytes, newline included: a point frame
    /// embeds its record verbatim (numbers at both ends of `u64`), and a
    /// failed frame escapes its label and reason.
    #[test]
    fn frames_are_written_byte_for_byte() {
        let record: Arc<str> = Arc::from("{\"kind\": \"point\", \"threads\": 16}");
        let frame = |job: u64, event: JobEvent| {
            let mut out = Vec::new();
            write_event(&mut out, job, &event).expect("a Vec takes every byte");
            String::from_utf8(out).expect("UTF-8")
        };
        assert_eq!(
            frame(
                7,
                JobEvent::Point {
                    index: 12,
                    source: PointSource::Cached,
                    attempts: 1,
                    record: Arc::clone(&record),
                }
            ),
            "{\"ok\": true, \"kind\": \"point\", \"job\": 7, \"index\": 12, \"source\": \
             \"cached\", \"attempts\": 1, \"data\": {\"kind\": \"point\", \"threads\": 16}}\n"
        );
        assert_eq!(
            frame(
                u64::MAX,
                JobEvent::Point {
                    index: 0,
                    source: PointSource::Coalesced,
                    attempts: u32::MAX,
                    record,
                }
            ),
            "{\"ok\": true, \"kind\": \"point\", \"job\": 18446744073709551615, \"index\": 0, \
             \"source\": \"coalesced\", \"attempts\": 4294967295, \"data\": {\"kind\": \
             \"point\", \"threads\": 16}}\n"
        );
        assert_eq!(
            frame(
                3,
                JobEvent::Failed {
                    index: 40,
                    label: "fer\"ret\\ x4".to_string(),
                    reason: "deadline\n\texceeded\u{1}".to_string(),
                    attempts: 2,
                }
            ),
            "{\"ok\": true, \"kind\": \"failed\", \"job\": 3, \"index\": 40, \"label\": \
             \"fer\\\"ret\\\\ x4\", \"reason\": \"deadline\\n\\texceeded\\u0001\", \
             \"attempts\": 2}\n"
        );
        assert_eq!(
            frame(
                3,
                JobEvent::Done {
                    computed: 1,
                    cached: 110,
                    coalesced: 0,
                    failed: 1,
                    cancelled: false,
                }
            ),
            "{\"ok\": true, \"kind\": \"done\", \"job\": 3, \"computed\": 1, \"cached\": 110, \
             \"coalesced\": 0, \"failed\": 1, \"cancelled\": false}\n"
        );
    }

    /// Batching never holds a point back: when a job's last unit stalls
    /// forever, the client still reads every other point — the last
    /// frame queued is flushed although no `done` follows it.
    #[test]
    fn a_stalled_last_unit_holds_back_no_other_point() {
        let params = StudyParams::with_scale(0.01);
        let grid = decompose("fig5", &params).expect("grid study");
        let n = grid.n_points();
        let (pi, _) = grid.point(0);
        let reference = grid.compute_reference(&params, pi).expect("reference");
        let record = grid.compute_point(&params, 0, reference).expect("point");
        let engine = Arc::new(Stalled {
            record: record.to_record().into(),
            held: Mutex::new(Vec::new()),
        });
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("addr").to_string();
        let (shutdown_tx, _shutdown_rx) = channel();
        let ctx = SessionCtx {
            engine: Arc::clone(&engine) as Arc<dyn Dispatch>,
            shutdown_tx,
            idle_timeout: None,
        };
        let session = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            run(stream, &ctx);
        });

        let mut client = Client::connect(&addr).expect("connect");
        client.set_data_timeout(Some(Duration::from_secs(60)));
        let (_, points) = client.start_submit("fig5", &params, None).expect("submit");
        assert_eq!(points, n as u64);
        let mut seen = BTreeSet::new();
        for _ in 0..n - 1 {
            match client.next_event(n).expect("a point frame") {
                StreamEvent::Point { index, .. } => assert!(seen.insert(index)),
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!(
            seen,
            (0..n - 1).collect(),
            "only the stalled point is missing"
        );
        // And that one really is still stalled.
        client.set_data_timeout(Some(Duration::from_millis(100)));
        assert!(client.next_event(n).is_err(), "the stalled unit resolved");
        // Closing the stream ends the session.
        engine.held.lock().expect("unpoisoned").clear();
        session.join().expect("session ends");
    }
}
