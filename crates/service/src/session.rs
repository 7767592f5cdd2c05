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
//! behind it — a warm job's cached points all are — share its write, so
//! a 112-point warm stream is a handful of 8 KiB writes instead of 114
//! flushes. The bytes on the wire are the same either way.

use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

use experiments::decompose::{decompose, GridStudy};
use experiments::study::{find_study, registry, StudyParams};
use speedup_stacks::error::ProtocolError;
use speedup_stacks::report::json::{self, JsonValue};

use crate::cache::CacheStats;
use crate::proto::{
    buffer_line, error_frame, params_from_wire, read_line_bounded, u64_field, write_line,
    PROTO_VERSION, REQUEST_LINE_CAP,
};
use crate::scheduler::{drain_events, JobEvent, Scheduler, SchedulerStatus, SubmitError};
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

    /// Cancels a job; `hedge` marks a federation hedge-loser reclaim
    /// (accounted separately from user cancellation). `false` when the
    /// job is unknown or already finished.
    fn cancel_job(&self, job: u64, hedge: bool) -> bool;

    /// Stops admitting new work (the drain-mode shutdown's first step).
    fn begin_drain(&self);

    /// Renders the engine's `status` reply frame; `backend_id` is this
    /// daemon's fleet identity, echoed when set.
    fn render_status(&self, backend_id: Option<&str>) -> String;
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

    fn cancel_job(&self, job: u64, hedge: bool) -> bool {
        self.cancel_with_reason(job, hedge)
    }

    fn begin_drain(&self) {
        Scheduler::begin_drain(self);
    }

    fn render_status(&self, backend_id: Option<&str>) -> String {
        status_frame(&self.status(), &self.cache().stats(), backend_id, "")
    }
}

/// Everything a session needs beyond its socket: the engine it
/// dispatches into, the daemon's fleet identity, the shutdown channel
/// and the idle-reaper deadline. One shared instance per server.
pub struct SessionCtx {
    /// The engine requests dispatch into.
    pub engine: Arc<dyn Dispatch>,
    /// This daemon's `--backend-id`, echoed in hello and status frames
    /// so fleet operators can tell which backend answered.
    pub backend_id: Option<String>,
    /// Channel to the main thread's shutdown loop.
    pub shutdown_tx: Sender<ShutdownMode>,
    /// Idle-connection reaper deadline; `None` = never reap.
    pub idle_timeout: Option<Duration>,
}

impl std::fmt::Debug for SessionCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionCtx")
            .field("backend_id", &self.backend_id)
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
    let mut writer = BufWriter::new(stream);

    if handshake(&mut reader, &mut writer, ctx.backend_id.as_deref()).is_none() {
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
fn handshake(
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
    backend_id: Option<&str>,
) -> Option<()> {
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
    let backend = match backend_id {
        Some(id) => format!(", \"backend\": \"{}\"", json::escape(id)),
        None => String::new(),
    };
    write_line(
        writer,
        &format!(
            "{{\"ok\": true, \"kind\": \"hello\", \"proto\": {PROTO_VERSION}, \
             \"server\": \"studyd\"{backend}}}"
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
            let frame = ctx.engine.render_status(ctx.backend_id.as_deref());
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
            // An optional reason: the federation sends "hedge" when the
            // job lost a hedged race, so reclaimed duplicate work is
            // accounted apart from user cancellation.
            let hedge = frame.get("reason").and_then(JsonValue::as_str) == Some("hedge");
            let found = ctx.engine.cancel_job(job, hedge);
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
    if find_study(study).is_none() {
        send_error(
            writer,
            "unknown-study",
            &format!("no study named '{study}'"),
        );
        return Flow::Continue;
    }
    let params = match params_from_wire(frame.get("params")) {
        Ok(p) => p,
        Err(why) => {
            send_error(writer, "bad-params", &why);
            return Flow::Continue;
        }
    };
    let Some(grid) = decompose(study, &params) else {
        send_error(
            writer,
            "not-grid",
            &format!("study '{study}' is not a sharded grid study"),
        );
        return Flow::Continue;
    };
    if let Err(e) = grid.validate() {
        send_error(writer, "bad-params", &e.to_string());
        return Flow::Continue;
    }

    // An optional subset of point indices — the federation's shard
    // primitive. Absent = the full grid.
    let units = match frame.get("units") {
        None => None,
        Some(JsonValue::Array(list)) => {
            let mut subset = Vec::with_capacity(list.len());
            for v in list {
                match v.as_f64() {
                    Some(x) if x >= 0.0 && x.fract() == 0.0 => subset.push(x as usize),
                    _ => {
                        send_error(
                            writer,
                            "bad-units",
                            "units must be an array of non-negative point indices",
                        );
                        return Flow::Continue;
                    }
                }
            }
            match grid.validate_units(&subset) {
                Ok(normalized) => Some(normalized),
                Err(why) => {
                    send_error(writer, "bad-units", &why);
                    return Flow::Continue;
                }
            }
        }
        Some(_) => {
            send_error(
                writer,
                "bad-units",
                "units must be an array of point indices",
            );
            return Flow::Continue;
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
    if write_line(writer, &accepted).is_err() {
        ctx.engine.cancel_job(job, false);
        let _ = drain_events(&rx);
        return Flow::Close;
    }

    // Stream results as they complete, one write per burst: each frame
    // goes into the buffer, which is flushed only when no next event is
    // ready yet (or the frame is `done`) — a point that lands alone
    // leaves at once, a run of cached points leaves in a few full
    // buffers. A write failure means the peer is gone: cancel the job so
    // queued points stop consuming the pool.
    let mut ahead: Option<JobEvent> = None;
    loop {
        let event = match ahead.take() {
            Some(e) => e,
            None => match rx.recv() {
                Ok(e) => e,
                Err(_) => return Flow::Close, // scheduler shut down mid-job
            },
        };
        let (line, done) = event_frame(job, &event);
        if !done {
            ahead = rx.try_recv().ok();
        }
        let written = if ahead.is_some() {
            buffer_line(writer, &line)
        } else {
            write_line(writer, &line)
        };
        if written.is_err() {
            ctx.engine.cancel_job(job, false);
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

/// Renders one job event as its wire frame; `true` marks the terminal
/// `done` frame.
fn event_frame(job: u64, event: &JobEvent) -> (String, bool) {
    match event {
        JobEvent::Point {
            index,
            source,
            attempts,
            record,
        } => (
            format!(
                "{{\"ok\": true, \"kind\": \"point\", \"job\": {job}, \"index\": {index}, \
                 \"source\": \"{}\", \"attempts\": {attempts}, \"data\": {record}}}",
                source.wire_name()
            ),
            false,
        ),
        JobEvent::Failed {
            index,
            label,
            reason,
            attempts,
        } => (
            format!(
                "{{\"ok\": true, \"kind\": \"failed\", \"job\": {job}, \"index\": {index}, \
                 \"label\": \"{}\", \"reason\": \"{}\", \"attempts\": {attempts}}}",
                json::escape(label),
                json::escape(reason)
            ),
            false,
        ),
        JobEvent::Done {
            computed,
            cached,
            coalesced,
            failed,
            cancelled,
        } => (
            format!(
                "{{\"ok\": true, \"kind\": \"done\", \"job\": {job}, \"computed\": {computed}, \
                 \"cached\": {cached}, \"coalesced\": {coalesced}, \"failed\": {failed}, \
                 \"cancelled\": {cancelled}}}"
            ),
            true,
        ),
    }
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

/// A scheduler's `status` reply frame; `extra` (empty, or `, "key":
/// value` fields) is appended inside the frame.
pub(crate) fn status_frame(
    s: &SchedulerStatus,
    c: &CacheStats,
    backend_id: Option<&str>,
    extra: &str,
) -> String {
    let backend = match backend_id {
        Some(id) => format!("\"backend\": \"{}\", ", json::escape(id)),
        None => String::new(),
    };
    format!(
        "{{\"ok\": true, \"kind\": \"status\", \"proto\": {PROTO_VERSION}, {backend}\
         \"workers\": {}, \"jobs_active\": {}, \"jobs_total\": {}, \"queued_units\": {}, \
         \"max_queued_units\": {}, \"draining\": {}, \
         \"points_computed\": {}, \"points_cached\": {}, \"points_coalesced\": {}, \
         \"points_failed\": {}, \"hedge_cancels\": {}, \
         \"cache\": {{\"hits\": {}, \"misses\": {}, \"insertions\": {}, \"evictions\": {}, \
         \"entries\": {}, \"bytes\": {}, \"budget\": {}, \"loaded\": {}, \"quarantined\": {}, \
         \"spilled\": {}}}{extra}}}",
        s.workers,
        s.jobs_active,
        s.jobs_total,
        s.queued_units,
        s.max_queued_units,
        s.draining,
        s.points_computed,
        s.points_cached,
        s.points_coalesced,
        s.points_failed,
        s.hedge_cancels,
        c.hits,
        c.misses,
        c.insertions,
        c.evictions,
        c.entries,
        c.bytes,
        c.budget,
        c.loaded,
        c.quarantined,
        c.spilled
    )
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
        record: String,
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
                let record = self.record.clone();
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

        fn cancel_job(&self, _job: u64, _hedge: bool) -> bool {
            false
        }

        fn begin_drain(&self) {}

        fn render_status(&self, _backend_id: Option<&str>) -> String {
            String::new()
        }
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
            record: record.to_record(),
            held: Mutex::new(Vec::new()),
        });
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("addr").to_string();
        let (shutdown_tx, _shutdown_rx) = channel();
        let ctx = SessionCtx {
            engine: Arc::clone(&engine) as Arc<dyn Dispatch>,
            backend_id: None,
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
