//! The deterministic chaos suite: every injected failure — worker
//! panic, cache-spill corruption, a torn spill tail from a `kill -9`,
//! a full admission queue, a mid-stream disconnect, a drain shutdown —
//! must degrade to a typed error or a recovered retry, never a panic,
//! a wedged server, or a wrong byte in a report.
//!
//! Fault injection is programmatic ([`service::chaos::ChaosPolicy`] on
//! [`ServeConfig`]) so every scenario is reproducible without timing
//! games; the spill-file crash scenarios write the torn bytes
//! themselves.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::fs::MetadataExt;
use std::path::PathBuf;

use experiments::study::{find_study, StudyParams};
use service::chaos::ChaosPolicy;
use service::client::Client;
use service::server::{serve, ServeConfig};
use speedup_stacks::error::{ProtocolError, SimError};
use speedup_stacks::report::json;

fn fig6_params() -> StudyParams {
    StudyParams {
        scale: 0.02,
        threads: Some(vec![4]),
        ..StudyParams::default()
    }
}

fn fig1_params() -> StudyParams {
    StudyParams {
        scale: 0.01,
        threads: Some(vec![2]),
        ..StudyParams::default()
    }
}

fn temp_spill(tag: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("studyd-chaos-{}-{tag}.ndjson", std::process::id()));
    std::fs::remove_file(&path).ok();
    path
}

/// Blocks until `ready` observes the server state a scenario needs
/// before proceeding — the suite's synchronization primitive, so no
/// test depends on a sleep being "long enough".
fn wait_until(server: &service::ServerHandle, ready: impl Fn(&service::ServerHandle) -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !ready(server) {
        assert!(
            std::time::Instant::now() < deadline,
            "server never reached the expected state"
        );
        std::thread::yield_now();
    }
}

/// Eight identical concurrent cold submits: every unit is computed
/// exactly once (one owner, seven coalesced subscribers), and all
/// eight reports are byte-identical to the local run.
#[test]
fn concurrent_cold_submits_coalesce_each_unit_once() {
    let server = serve(&ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr().to_string();
    let params = fig6_params();
    let local = find_study("fig6").unwrap().run(&params).unwrap();
    let n = experiments::decompose::decompose("fig6", &params)
        .unwrap()
        .n_points();

    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let addr = &addr;
                let params = &params;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    client.submit("fig6", params).expect("cold submit")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let total_computed: usize = outcomes.iter().map(|o| o.computed).sum();
    assert_eq!(total_computed, n, "each unit computed exactly once");
    for (i, o) in outcomes.iter().enumerate() {
        assert_eq!(o.computed + o.cached + o.coalesced, n, "client {i} points");
        assert_eq!(o.failed, 0, "client {i} failures");
        assert_eq!(o.report.to_text(), local.to_text(), "client {i} text");
        assert_eq!(o.report.to_json(), local.to_json(), "client {i} json");
    }
    let status = server.scheduler().status();
    assert_eq!(status.points_computed, n as u64, "pool-wide compute count");
    assert_eq!(
        status.points_cached + status.points_coalesced,
        (7 * n) as u64,
        "the other seven clients were fed without recompute"
    );
    server.stop();
}

/// The `kill -9` scenario: a server with a spill dies without any
/// shutdown (simulated by a torn, unterminated final line plus one
/// corrupted complete record), and a restarted server serves the
/// resubmit warm — corrupt records quarantined and recomputed, never
/// served, and the report byte-identical to the local run.
#[test]
fn kill_and_restart_serves_warm_resubmits_from_the_spill() {
    let spill = temp_spill("restart");
    let params = fig6_params();
    let local = find_study("fig6").unwrap().run(&params).unwrap();
    let n = experiments::decompose::decompose("fig6", &params)
        .unwrap()
        .n_points();

    // Life one: compute cold, write-through to the spill. No drain, no
    // sync — the per-record flush alone must make this durable.
    {
        let server = serve(&ServeConfig {
            workers: 2,
            cache_spill: Some(spill.clone()),
            ..ServeConfig::default()
        })
        .expect("bind");
        let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");
        let cold = client.submit("fig6", &params).expect("cold submit");
        assert_eq!(cold.computed, n);
        assert!(server.cache().stats().spilled >= n as u64);
        server.stop();
    }

    // The crash: tear the tail mid-line (a record was being written
    // when the process died) and flip one byte inside a complete
    // point record (disk corruption).
    let mut content = std::fs::read_to_string(&spill).expect("spill exists");
    let target = content
        .lines()
        .position(|l| l.contains("point:"))
        .expect("spill holds point records");
    let mut lines: Vec<String> = content.lines().map(str::to_string).collect();
    let flipped = lines[target].replace("point:", "pXint:");
    assert_ne!(flipped, lines[target]);
    lines[target] = flipped;
    content = lines.join("\n");
    content.push('\n');
    content.push_str("{\"crc\":\"0000"); // torn final line, no newline
    std::fs::write(&spill, &content).expect("rewrite spill");

    // Life two: recover. One record quarantined, the torn tail dropped
    // silently, everything else served warm.
    let server = serve(&ServeConfig {
        workers: 2,
        cache_spill: Some(spill.clone()),
        ..ServeConfig::default()
    })
    .expect("rebind");
    let stats = server.cache().stats();
    assert_eq!(stats.quarantined, 1, "exactly the flipped record");
    assert!(stats.loaded >= 1);
    let mut client = Client::connect(&server.local_addr().to_string()).expect("reconnect");
    let warm = client.submit("fig6", &params).expect("warm submit");
    assert_eq!(
        warm.computed, 1,
        "only the quarantined record is recomputed — corrupt data is never served"
    );
    assert_eq!(warm.cached, n - 1);
    assert_eq!(warm.report.to_text(), local.to_text(), "bit-identical");
    server.stop();
    std::fs::remove_file(&spill).ok();
}

/// A spill written by a build whose keys carried the study name and grid
/// index opens cleanly (the format never looked inside a key) and its
/// entries are inert: loaded, never hit, never served.
#[test]
fn spill_entries_under_an_older_builds_keys_are_inert() {
    let spill = temp_spill("old-keys");
    let params = fig1_params();
    let local = find_study("fig1").unwrap().run(&params).unwrap();
    let canonical = experiments::journal::canonical("fig1", &params);
    {
        let old = service::cache::Cache::new(1 << 20);
        old.load_spill(&spill).expect("create");
        for i in 0..3 {
            // Poison: a served one would break the report or its parse.
            old.put(&format!("ref:{canonical}:{i}"), "1 1");
            old.put(&format!("point:{canonical}:{i}"), "{}");
        }
        old.sync().unwrap();
    }
    let server = serve(&ServeConfig {
        workers: 1,
        cache_spill: Some(spill.clone()),
        ..ServeConfig::default()
    })
    .expect("bind");
    assert_eq!(server.cache().stats().loaded, 6);
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");
    let served = client.submit("fig1", &params).expect("submit");
    assert_eq!((served.computed, served.cached, served.failed), (3, 0, 0));
    assert_eq!(server.cache().stats().hits, 0);
    assert_eq!(served.report.to_json(), local.to_json(), "bit-identical");
    server.stop();
    std::fs::remove_file(&spill).ok();
}

/// Startup compaction: a start on a spill holding a superseded key and a
/// corrupt record rewrites it to the header plus the live set, least
/// recently used first, with the corrupt record quarantined; the next
/// start reloads that same state without rewriting the file (nothing is
/// dead), and a warm submit computes nothing.
#[test]
fn startup_compaction_rewrites_the_spill_to_the_live_set() {
    let spill = temp_spill("compact-start");
    let params = fig1_params();
    let start = || {
        serve(&ServeConfig {
            workers: 1,
            cache_spill: Some(spill.clone()),
            ..ServeConfig::default()
        })
        .expect("bind")
    };
    let server = start();
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");
    client.submit("fig1", &params).expect("cold submit");
    server.stop();

    // The first entry is written again (superseding its first record),
    // then a copy of it with one byte flipped, which fails its CRC.
    let written = std::fs::read_to_string(&spill).expect("spill exists");
    let lines: Vec<&str> = written.lines().collect();
    let (header, first, rest) = (lines[0], lines[1], &lines[2..]);
    let corrupt = first.replacen("\"key\"", "\"kex\"", 1);
    assert_ne!(corrupt, first);
    std::fs::write(&spill, format!("{written}{first}\n{corrupt}\n")).expect("extend spill");

    let server = start();
    let status = Client::connect(&server.local_addr().to_string())
        .and_then(|mut c| c.status())
        .expect("status");
    assert_eq!(status.cache_quarantined, 1, "the flipped copy");
    assert_eq!(status.cache_entries, lines.len() as u64 - 1);
    let mut live = vec![header];
    live.extend(rest);
    live.push(first);
    let compacted = std::fs::read_to_string(&spill).expect("spill exists");
    assert_eq!(
        compacted,
        live.join("\n") + "\n",
        "header + live set, LRU first"
    );
    server.stop();

    // Reloaded, the state holds no dead record: the file is left alone
    // (same inode, same bytes) and serves warm.
    let inode = std::fs::metadata(&spill).unwrap().ino();
    let server = start();
    assert_eq!(
        std::fs::metadata(&spill).unwrap().ino(),
        inode,
        "no rewrite"
    );
    assert_eq!(std::fs::read_to_string(&spill).unwrap(), compacted);
    let reloaded = server.scheduler().status();
    assert_eq!(
        (reloaded.cache_quarantined, reloaded.cache_entries),
        (0, status.cache_entries)
    );
    assert_eq!(reloaded.cache_bytes, status.cache_bytes);
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");
    let warm = client.submit("fig1", &params).expect("warm submit");
    assert_eq!((warm.computed, warm.failed), (0, 0));
    let local = find_study("fig1").unwrap().run(&params).unwrap();
    assert_eq!(warm.report.to_json(), local.to_json(), "bit-identical");
    server.stop();
    std::fs::remove_file(&spill).ok();
}

/// A full queue answers a typed `busy` with a retry hint; a client with
/// no retry policy surfaces it, and the backoff client eventually
/// completes with a correct report.
#[test]
fn full_queue_is_typed_busy_and_backoff_client_completes() {
    let server = serve(&ServeConfig {
        workers: 1,
        max_queued_units: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().to_string();

    // Occupy the pool: a heavy job whose units stay queued while the
    // storm hits (an idle queue always admits, even past the bound).
    let heavy = StudyParams {
        scale: 0.03,
        threads: Some(vec![4]),
        ..StudyParams::default()
    };
    let heavy_worker = {
        let addr = addr.clone();
        let heavy = heavy.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connect");
            client.submit("fig6", &heavy).expect("heavy submit")
        })
    };
    wait_until(&server, |s| s.scheduler().status().queued_units >= 1);

    // Storm phase: a no-retry client must see the typed rejection.
    let light = fig1_params();
    let mut storm = Client::connect(&addr).expect("connect");
    let refused = storm.submit("fig1", &light);
    match refused {
        Err(SimError::Protocol(ProtocolError::Busy { retry_after_ms })) => {
            assert!((25..=5000).contains(&retry_after_ms), "{retry_after_ms}");
        }
        other => panic!("expected a typed busy rejection, got {other:?}"),
    }

    // The backoff client retries deterministically and completes once
    // the heavy job drains.
    let outcome = storm
        .submit_with_retry("fig1", &light, 20)
        .expect("backoff client completes");
    let local = find_study("fig1").unwrap().run(&light).unwrap();
    assert_eq!(outcome.report.to_text(), local.to_text());
    let heavy_outcome = heavy_worker.join().unwrap();
    assert_eq!(heavy_outcome.failed, 0);
    server.stop();
}

/// An injected worker panic at a chosen unit degrades that point to a
/// typed failure frame (the report carries a degraded block naming the
/// chaos panic), and an identical resubmit recovers cleanly.
#[test]
fn injected_worker_panic_degrades_then_recovers() {
    let server = serve(&ServeConfig {
        workers: 1,
        chaos: ChaosPolicy {
            panic_at_unit: Some(0),
        },
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let params = fig1_params();
    let local = find_study("fig1").unwrap().run(&params).unwrap();

    let mut client = Client::connect(&addr).expect("connect");
    let hurt = client
        .submit("fig1", &params)
        .expect("submit survives panic");
    assert!(hurt.failed >= 1, "the chaos unit failed");
    let text = hurt.report.to_text();
    assert!(
        text.contains("chaos: injected panic"),
        "degraded block names the injected fault: {text}"
    );

    // The chaos counter is global, so the resubmit's units are past the
    // trigger: every previously-failed point recomputes cleanly.
    let healed = client.submit("fig1", &params).expect("resubmit");
    assert_eq!(healed.failed, 0);
    assert_eq!(healed.report.to_text(), local.to_text(), "fully recovered");
    server.stop();
}

/// A raw peer for protocol-level scenarios (mid-stream disconnects,
/// cancel races) the typed client deliberately cannot express.
struct Raw {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Raw {
    fn connect(addr: &str) -> Raw {
        let writer = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(writer.try_clone().expect("clone"));
        let mut raw = Raw { reader, writer };
        raw.send(&format!(
            "{{\"op\": \"hello\", \"proto\": {}}}",
            service::proto::PROTO_VERSION
        ));
        let reply = raw.recv().expect("hello reply");
        assert!(reply.contains("\"kind\": \"hello\""), "{reply}");
        raw
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send");
        self.writer.flush().expect("flush");
    }

    fn recv(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(line.trim_end().to_string()),
            Err(_) => None,
        }
    }
}

/// An owner that vanishes mid-stream does not starve a coalesced
/// subscriber: the subscriber still receives every point, byte for
/// byte.
#[test]
fn mid_stream_disconnect_keeps_feeding_coalesced_subscribers() {
    let server = serve(&ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().to_string();

    // Pin the lone worker on a blocker job so the owner below is still
    // live when it disconnects.
    let blocker = StudyParams {
        scale: 0.015,
        ..fig1_params()
    };
    let blocker_worker = {
        let addr = addr.clone();
        let blocker = blocker.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connect");
            client.submit("fig1", &blocker).expect("blocker")
        })
    };

    let params = fig1_params();
    let local = find_study("fig1").unwrap().run(&params).unwrap();
    // The owner submits raw, reads only the accepted frame, vanishes.
    {
        let mut owner = Raw::connect(&addr);
        owner.send(
            "{\"op\": \"submit\", \"study\": \"fig1\", \
             \"params\": {\"scale\": 0.01, \"threads\": [2]}}",
        );
        let accepted = owner.recv().expect("accepted");
        assert!(accepted.contains("\"kind\": \"accepted\""), "{accepted}");
    }
    // The subscriber coalesces onto (or reads the cache behind) the
    // owner's units and must still assemble the full report.
    let mut subscriber = Client::connect(&addr).expect("connect");
    let outcome = subscriber.submit("fig1", &params).expect("subscriber");
    assert_eq!(outcome.failed, 0);
    assert_eq!(outcome.report.to_text(), local.to_text(), "bit-identical");
    blocker_worker.join().unwrap();
    server.stop();
}

/// The cancel/completion race is answered deterministically: cancelling
/// after the final point streamed yields a typed `already-done`, never
/// an error and never a stuck reply.
#[test]
fn cancel_after_completion_is_typed_already_done() {
    let server = serve(&ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let mut raw = Raw::connect(&server.local_addr().to_string());
    raw.send(
        "{\"op\": \"submit\", \"study\": \"fig1\", \
         \"params\": {\"scale\": 0.01, \"threads\": [2]}}",
    );
    let accepted = json::parse(&raw.recv().expect("accepted")).expect("json");
    let job = accepted
        .get("job")
        .and_then(json::JsonValue::as_f64)
        .expect("job id") as u64;
    // Drain the stream to (and including) the terminal done frame.
    loop {
        let frame = raw.recv().expect("stream frame");
        if frame.contains("\"kind\": \"done\"") {
            break;
        }
    }
    raw.send(&format!("{{\"op\": \"cancel\", \"job\": {job}}}"));
    let reply = json::parse(&raw.recv().expect("cancel reply")).expect("json");
    assert!(matches!(reply.get("ok"), Some(json::JsonValue::Bool(true))));
    assert_eq!(
        reply.get("state").and_then(json::JsonValue::as_str),
        Some("already-done")
    );
    assert!(matches!(
        reply.get("found"),
        Some(json::JsonValue::Bool(false))
    ));
    server.stop();
}

/// Drain shutdown: admission stops at the acknowledgement, in-flight
/// jobs finish with full correct reports, and the spill is flushed.
#[test]
fn drain_shutdown_finishes_in_flight_jobs() {
    let spill = temp_spill("drain");
    let server = serve(&ServeConfig {
        workers: 1,
        cache_spill: Some(spill.clone()),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().to_string();

    let heavy = StudyParams {
        scale: 0.03,
        threads: Some(vec![4]),
        ..StudyParams::default()
    };
    let in_flight = {
        let addr = addr.clone();
        let heavy = heavy.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connect");
            client.submit("fig6", &heavy).expect("in-flight job")
        })
    };
    wait_until(&server, |s| s.scheduler().status().jobs_active >= 1);

    let mut admin = Client::connect(&addr).expect("connect");
    admin
        .shutdown(service::ShutdownMode::Drain)
        .expect("drain acknowledged");
    assert_eq!(server.wait_for_shutdown(), service::ShutdownMode::Drain);

    // Admission has stopped: a new submit is a typed rejection.
    let mut late = Client::connect(&addr).expect("connect");
    match late.submit("fig1", &fig1_params()) {
        Err(SimError::Protocol(ProtocolError::Rejected { code, .. })) => {
            assert_eq!(code, "draining");
        }
        other => panic!("expected a draining rejection, got {other:?}"),
    }

    // The barrier: every in-flight job runs to completion first.
    server.drain();
    let outcome = in_flight.join().unwrap();
    assert_eq!(outcome.failed, 0);
    let local = find_study("fig6").unwrap().run(&heavy).unwrap();
    assert_eq!(outcome.report.to_text(), local.to_text(), "bit-identical");
    server.stop();
    std::fs::remove_file(&spill).ok();
}
