//! Integration tests for the `studyd` service: concurrent-client
//! stress with bit-identical reassembly and cache-hit accounting, plus
//! adversarial protocol abuse — every malformed, oversized or
//! version-drifted frame must produce a typed rejection, never a panic
//! and never a wedged server.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use experiments::study::{find_study, StudyParams};
use service::client::Client;
use service::server::{serve, ServeConfig};
use speedup_stacks::report::json;

fn test_server(workers: usize) -> service::ServerHandle {
    serve(&ServeConfig {
        workers,
        ..ServeConfig::default()
    })
    .expect("bind loopback")
}

fn fig6_params() -> StudyParams {
    StudyParams {
        scale: 0.02,
        threads: Some(vec![4]),
        ..StudyParams::default()
    }
}

fn fig4_params() -> StudyParams {
    StudyParams {
        scale: 0.02,
        threads: Some(vec![2, 4]),
        ..StudyParams::default()
    }
}

/// A raw line-protocol peer for speaking deliberately broken frames.
struct Raw {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Raw {
    fn connect(addr: &str) -> Raw {
        let writer = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(writer.try_clone().expect("clone"));
        Raw { reader, writer }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send");
        self.writer.flush().expect("flush");
    }

    /// Sends the handshake and returns the server's hello reply.
    fn hello(&mut self) -> String {
        self.send(&format!(
            "{{\"op\": \"hello\", \"proto\": {}}}",
            service::proto::PROTO_VERSION
        ));
        let reply = self.recv().expect("hello reply");
        assert!(reply.contains("\"kind\": \"hello\""), "{reply}");
        reply
    }

    /// Reads one line; `None` when the server closed the connection.
    fn recv(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(line.trim_end().to_string()),
            Err(_) => None,
        }
    }

    fn expect_error(&mut self, code: &str) {
        let reply = self
            .recv()
            .unwrap_or_else(|| panic!("expected '{code}' error frame"));
        let v = json::parse(&reply).expect("error frame is valid JSON");
        assert!(
            matches!(v.get("ok"), Some(json::JsonValue::Bool(false))),
            "{reply}"
        );
        assert_eq!(
            v.get("error").and_then(json::JsonValue::as_str),
            Some(code),
            "{reply}"
        );
    }
}

#[test]
fn concurrent_clients_get_bit_identical_reports_from_the_cache() {
    let server = test_server(2);
    let addr = server.local_addr().to_string();

    // Local reference reports, computed once and shared by every client.
    let local_fig6 = find_study("fig6").unwrap().run(&fig6_params()).unwrap();
    let local_fig4 = find_study("fig4").unwrap().run(&fig4_params()).unwrap();

    // Warm phase: one client computes both grids remotely, proving
    // bit-identity on the cold path.
    let mut warm = Client::connect(&addr).expect("connect");
    let cold6 = warm.submit("fig6", &fig6_params()).expect("cold fig6");
    assert_eq!(cold6.report.to_text(), local_fig6.to_text(), "fig6 text");
    assert_eq!(cold6.report.to_json(), local_fig6.to_json(), "fig6 json");
    assert_eq!(cold6.report.to_csv(), local_fig6.to_csv(), "fig6 csv");
    assert_eq!(cold6.cached, 0, "fresh server has nothing cached");
    // fig4's x4 column is fig6's grid, unit for unit: exactly that
    // overlap is served from fig6's entries, exactly the rest computed.
    let cold4 = warm.submit("fig4", &fig4_params()).expect("cold fig4");
    assert_eq!(cold4.report.to_text(), local_fig4.to_text(), "fig4 text");
    assert_eq!(cold4.report.to_json(), local_fig4.to_json(), "fig4 json");
    assert_eq!(cold4.report.to_csv(), local_fig4.to_csv(), "fig4 csv");
    assert_eq!((cold6.computed, cold6.coalesced), (28, 0));
    assert_eq!((cold4.computed, cold4.cached, cold4.coalesced), (28, 28, 0));

    let warm_status = warm.status().expect("status");
    let computed_after_warm = warm_status.points_computed;
    let hits_after_warm = warm_status.cache_hits;
    assert_eq!(
        computed_after_warm,
        (cold6.computed + cold4.computed) as u64
    );

    // Concurrent wave: 8 clients with overlapping fig4/fig6 grids. The
    // warm cache makes the wave deterministic: every point must be a
    // hit, nothing may be recomputed.
    let texts: (String, String) = (local_fig6.to_text(), local_fig4.to_text());
    let jsons: (String, String) = (local_fig6.to_json(), local_fig4.to_json());
    let csvs: (String, String) = (local_fig6.to_csv(), local_fig4.to_csv());
    std::thread::scope(|scope| {
        for i in 0..8 {
            let addr = &addr;
            let (texts, jsons, csvs) = (&texts, &jsons, &csvs);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let (study, params, text, json_out, csv) = if i % 2 == 0 {
                    ("fig6", fig6_params(), &texts.0, &jsons.0, &csvs.0)
                } else {
                    ("fig4", fig4_params(), &texts.1, &jsons.1, &csvs.1)
                };
                let outcome = client.submit(study, &params).expect("warm submit");
                assert_eq!(&outcome.report.to_text(), text, "client {i} text");
                assert_eq!(&outcome.report.to_json(), json_out, "client {i} json");
                assert_eq!(&outcome.report.to_csv(), csv, "client {i} csv");
                assert_eq!(outcome.computed, 0, "client {i} recomputed points");
                assert_eq!(
                    outcome.cached,
                    if i % 2 == 0 { 28 } else { 56 },
                    "client {i} cache count"
                );
            });
        }
    });

    // The counters prove it: the wave added cache hits and computed
    // nothing new.
    let after = warm.status().expect("status");
    assert_eq!(
        after.points_computed, computed_after_warm,
        "concurrent wave must not recompute warm points"
    );
    let expected_hits: u64 = 4 * 28 + 4 * 56; // 4 fig6 clients + 4 fig4 clients
    assert_eq!(
        after.cache_hits,
        hits_after_warm + expected_hits,
        "every lookup of the wave is a point hit"
    );
    assert_eq!(after.points_failed, 0);
    server.stop();
}

#[test]
fn garbage_line_is_rejected_and_closed() {
    let server = test_server(1);
    let addr = server.local_addr().to_string();

    // Garbage instead of the handshake.
    let mut raw = Raw::connect(&addr);
    raw.send("this is not json");
    raw.expect_error("malformed");
    assert!(raw.recv().is_none(), "connection closes after garbage");

    // Garbage after a valid handshake.
    let mut raw = Raw::connect(&addr);
    raw.hello();
    raw.send("{\"op\": \"submit\", broken");
    raw.expect_error("malformed");
    assert!(raw.recv().is_none());
    server.stop();
}

#[test]
fn oversized_frame_is_rejected_without_accumulating() {
    let server = test_server(1);
    let mut raw = Raw::connect(&server.local_addr().to_string());
    raw.hello();
    let huge = format!("{{\"op\": \"{}\"}}", "x".repeat(80 * 1024));
    raw.send(&huge);
    raw.expect_error("oversized");
    assert!(raw.recv().is_none());
    server.stop();
}

#[test]
fn version_mismatch_hello_is_a_typed_rejection() {
    let server = test_server(1);
    let mut raw = Raw::connect(&server.local_addr().to_string());
    raw.send("{\"op\": \"hello\", \"proto\": 99}");
    let reply = raw.recv().expect("mismatch frame");
    let v = json::parse(&reply).expect("valid JSON");
    assert_eq!(
        v.get("error").and_then(json::JsonValue::as_str),
        Some("version-mismatch"),
        "{reply}"
    );
    assert_eq!(v.get("found").and_then(json::JsonValue::as_f64), Some(99.0));
    let supported = v
        .get("supported")
        .and_then(json::JsonValue::as_f64)
        .expect("supported field");
    assert_eq!(supported as u64, service::proto::PROTO_VERSION);
    assert!(raw.recv().is_none(), "mismatched client is disconnected");
    server.stop();
}

#[test]
fn requests_before_hello_are_rejected() {
    let server = test_server(1);
    let mut raw = Raw::connect(&server.local_addr().to_string());
    raw.send("{\"op\": \"submit\", \"study\": \"fig6\"}");
    raw.expect_error("handshake-required");
    assert!(raw.recv().is_none());
    server.stop();
}

#[test]
fn invalid_requests_keep_the_connection_open() {
    let server = test_server(1);
    let mut raw = Raw::connect(&server.local_addr().to_string());
    raw.hello();

    raw.send("{\"op\": \"frobnicate\"}");
    raw.expect_error("bad-request");
    raw.send("{\"op\": \"submit\", \"study\": \"nope\"}");
    raw.expect_error("unknown-study");
    raw.send("{\"op\": \"submit\", \"study\": \"hwcost\"}");
    raw.expect_error("not-grid");
    raw.send("{\"op\": \"submit\", \"study\": \"fig6\", \"params\": {\"scale\": -1}}");
    raw.expect_error("bad-params");
    raw.send("{\"op\": \"submit\", \"study\": \"fig6\", \"params\": {\"llc_mib\": 3}}");
    raw.expect_error("bad-params");
    for units in ["[-1]", "[1.5]", "3", "[]", "[28]"] {
        raw.send(&format!(
            "{{\"op\": \"submit\", \"study\": \"fig6\", \"params\": {{\"scale\": 0.01}}, \
             \"units\": {units}}}"
        ));
        raw.expect_error("bad-units");
    }
    raw.send("{\"op\": \"cancel\"}");
    raw.expect_error("bad-request");

    // The same connection still serves real requests after eleven
    // rejections.
    raw.send("{\"op\": \"list\"}");
    let reply = raw.recv().expect("list reply");
    assert!(reply.contains("\"kind\": \"list\""), "{reply}");
    assert!(reply.contains("\"fig6\""), "{reply}");
    server.stop();
}

#[test]
fn mid_stream_disconnect_leaves_the_server_serving() {
    let server = test_server(1);
    let addr = server.local_addr().to_string();

    // Start a submission, read only the accepted frame, vanish.
    {
        let mut raw = Raw::connect(&addr);
        raw.hello();
        raw.send(
            "{\"op\": \"submit\", \"study\": \"fig4\", \
             \"params\": {\"scale\": 0.01, \"threads\": [2]}}",
        );
        let accepted = raw.recv().expect("accepted frame");
        assert!(accepted.contains("\"kind\": \"accepted\""), "{accepted}");
        // Dropping `raw` closes the socket mid-stream; the session must
        // cancel the job rather than panic on the broken pipe.
    }

    // The same mid-way through a warm 112-point stream, whose cached
    // frames leave in bursts: the job must not outlive its peer.
    let mut client = Client::connect(&addr).expect("connect after disconnect");
    let warm = StudyParams::with_scale(0.01);
    let cold = client.submit("fig4", &warm).expect("fill the cache");
    assert_eq!(
        (cold.computed + cold.cached + cold.coalesced, cold.failed),
        (112, 0)
    );
    {
        let mut raw = Raw::connect(&addr);
        raw.hello();
        raw.send("{\"op\": \"submit\", \"study\": \"fig4\", \"params\": {\"scale\": 0.01}}");
        for _ in 0..1 + 40 {
            let frame = raw.recv().expect("accepted, then point frames");
            assert!(!frame.contains("\"kind\": \"done\""), "{frame}");
        }
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while client.status().expect("status").jobs_active != 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "the dropped warm job is still active"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    // The server keeps serving new clients afterwards.
    let params = StudyParams {
        scale: 0.01,
        threads: Some(vec![2]),
        ..StudyParams::default()
    };
    let outcome = client
        .submit("fig1", &params)
        .expect("post-disconnect submit");
    let local = find_study("fig1").unwrap().run(&params).unwrap();
    assert_eq!(outcome.report.to_text(), local.to_text());
    assert!(client.cancel(9999).is_ok_and(|found| !found));
    server.stop();
}

/// A daemon with a 200 ms idle reaper reaps a peer that goes silent
/// after its hello and `status` frames with exactly one typed
/// `idle-timeout` frame and then EOF, and keeps serving fresh clients
/// byte-identically to a local run.
#[test]
fn idle_peer_is_reaped() {
    let server = serve(&ServeConfig {
        workers: 1,
        idle_timeout_ms: Some(200),
        ..ServeConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr().to_string();

    let mut raw = Raw::connect(&addr);
    let hello = raw.hello();
    assert_eq!(
        hello,
        "{\"ok\": true, \"kind\": \"hello\", \"proto\": 2, \"server\": \"studyd\"}"
    );
    raw.send("{\"op\": \"status\"}");
    let status = raw.recv().expect("status reply");
    assert!(status.contains("\"kind\": \"status\""), "{status}");
    assert!(!status.contains("\"backend\""), "{status}");
    // Silence: the reaper sends one typed frame, then closes.
    raw.expect_error("idle-timeout");
    assert!(raw.recv().is_none(), "EOF after the idle-timeout frame");

    let params = StudyParams::with_scale(0.01);
    let mut client = Client::connect(&addr).expect("connect after the reap");
    let served = client.submit("fig1", &params).expect("submit");
    let local = find_study("fig1").unwrap().run(&params).unwrap();
    assert_eq!(served.report.to_json(), local.to_json(), "bit-identical");
    server.stop();
}

/// An older coordinator cancels a lost hedged race with `"reason":
/// "hedge"`. The reason is ignored like any unknown field: the reply
/// reads as a plain cancel's, for a live job and for an unknown one.
#[test]
fn a_cancel_with_a_reason_is_answered_like_a_plain_cancel() {
    let server = test_server(1);
    let addr = server.local_addr().to_string();
    // Two live jobs: one worker has far more than two frames' time of
    // work queued for them.
    let submit = "{\"op\": \"submit\", \"study\": \"fig4\", \"params\": {\"scale\": 0.2}}";
    let jobs: Vec<(Raw, u64)> = (0..2)
        .map(|_| {
            let mut raw = Raw::connect(&addr);
            raw.hello();
            raw.send(submit);
            let accepted = json::parse(&raw.recv().expect("accepted frame")).unwrap();
            let job = service::proto::u64_field(&accepted, "job").expect("job id");
            (raw, job)
        })
        .collect();
    let (hedged, plain) = (jobs[0].1, jobs[1].1);

    let mut control = Raw::connect(&addr);
    control.hello();
    let mut cancel = |job: u64, reason: &str| {
        control.send(&format!("{{\"op\": \"cancel\", \"job\": {job}{reason}}}"));
        control.recv().expect("cancel reply")
    };
    let reply = |job: u64, found: bool, state: &str| {
        format!(
            "{{\"ok\": true, \"kind\": \"cancelled\", \"job\": {job}, \"found\": {found}, \
             \"state\": \"{state}\"}}"
        )
    };
    let hedge = ", \"reason\": \"hedge\"";
    assert_eq!(cancel(hedged, hedge), reply(hedged, true, "cancelled"));
    assert_eq!(cancel(plain, ""), reply(plain, true, "cancelled"));
    assert_eq!(cancel(9999, hedge), reply(9999, false, "already-done"));
    assert_eq!(cancel(9999, ""), reply(9999, false, "already-done"));
    drop(jobs);
    server.stop();
}

#[test]
fn status_and_list_round_trip_through_the_typed_client() {
    let server = test_server(1);
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");
    let studies = client.list().expect("list");
    assert_eq!(studies.len(), 12);
    let grids: Vec<&str> = studies
        .iter()
        .filter(|s| s.grid)
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(
        grids,
        ["fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig8"]
    );
    let status = client.status().expect("status");
    assert_eq!(status.workers, 1);
    assert_eq!(status.jobs_total, 0);
    server.stop();
}
