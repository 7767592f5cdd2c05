//! The federation chaos suite: a fleet of `studyd` backends behind a
//! `studyd --backend …` coordinator (`serve` with a `fleet`, driven over
//! the wire by a [`Client`]) must survive a backend dying mid-sweep, the
//! whole fleet being unreachable, a wedged straggler, a dead backend
//! coming back and a backend streaming an index it was never sent — and
//! in every surviving scenario the reassembled report is
//! **byte-identical** to a local `Study::run`. Failover never recomputes
//! what a live backend already cached, hedged losers are cancelled, a
//! shard that finishes its own points is never cancelled, cancelling a
//! federated job cancels its per-backend sub-jobs so no orphaned units
//! keep computing, and the coordinator's fallback is a backend like any
//! other.
//!
//! Every backend runs in process. Faults are injected from outside, by
//! a loopback relay in front of a backend that cuts its stream after a
//! set number of point frames (a `kill -9`) or withholds its result
//! frames (a wedged straggler), or by a fake backend; synchronization
//! is always a polled predicate with a 30s deadline, never a bare
//! sleep.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use experiments::decompose::{decompose, GridFold};
use experiments::study::{find_study, StudyParams};
use experiments::FaultPolicy;
use service::client::{Client, StreamEvent, SubmitOutcome};
use service::federation::{Federation, FleetConfig, HealthState};
use service::proto::PROTO_VERSION;
use service::scheduler::{record_to_summary, JobEvent};
use service::server::{serve, ServeConfig, ServerHandle};
use service::session::Dispatch;
use speedup_stacks::report::json::{self, JsonValue};
use speedup_stacks::report::Report;

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

/// A fast-probing fleet over the given backends: one failure marks a
/// backend dead, re-probes follow within 25–100ms, hedging off (tests
/// that exercise hedging opt in explicitly).
fn fleet(backends: &[&str]) -> FleetConfig {
    FleetConfig {
        backends: backends.iter().map(|s| s.to_string()).collect(),
        hedge_after_ms: None,
        heartbeat_ms: 25,
        dead_after: 1,
    }
}

/// A `studyd --backend …` coordinator on a free loopback port.
fn coordinator(fleet: FleetConfig) -> ServerHandle {
    serve(&ServeConfig {
        fleet: Some(fleet),
        ..ServeConfig::default()
    })
    .expect("bind coordinator")
}

fn fed(coord: &ServerHandle) -> &Federation {
    coord.federation().expect("a coordinator")
}

/// A backend `studyd` on a free loopback port.
fn backend(workers: usize) -> ServerHandle {
    serve(&ServeConfig {
        workers,
        ..ServeConfig::default()
    })
    .expect("bind backend")
}

fn connect(server: &ServerHandle) -> Client {
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");
    // A wedged coordinator fails the test instead of hanging it.
    client.set_data_timeout(Some(Duration::from_secs(60)));
    client
}

/// Submits `study` through the coordinator's wire protocol.
fn submit(coord: &ServerHandle, study: &str, params: &StudyParams) -> SubmitOutcome {
    connect(coord)
        .submit(study, params)
        .expect("submit through the coordinator")
}

fn assert_bytes(outcome: &SubmitOutcome, local: &Report, what: &str) {
    assert_eq!(
        outcome.report.to_text(),
        local.to_text(),
        "{what}: text bytes"
    );
    assert_eq!(
        outcome.report.to_json(),
        local.to_json(),
        "{what}: json bytes"
    );
}

/// Blocks until `ready` holds — the suite's synchronization primitive,
/// so no scenario depends on a sleep being "long enough".
fn wait_for(what: &str, mut ready: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A loopback address with nothing listening on it (bound, then
/// dropped — `SO_REUSEADDR` lets a later server take it over).
fn reserved_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("reserve");
    let addr = listener.local_addr().expect("addr").to_string();
    drop(listener);
    addr
}

/// What a relay does to the backend's replies it carries.
#[derive(Clone, Copy)]
enum Fault {
    /// Pass everything through.
    None,
    /// Cut the stream after this many point frames, then refuse every
    /// new connection: a backend killed mid-sweep.
    CutAfter(usize),
    /// Swallow every result-stream frame (`point`, `failed`, `done`): a
    /// shard is accepted and never heard from again, a wedged straggler.
    Withhold,
}

/// A loopback relay in front of a backend, with the `cancel` requests
/// sent through it counted.
struct Relay {
    addr: String,
    cancels: Arc<AtomicUsize>,
}

/// Relays each connection to `target`, requests line by line and
/// replies line by line, applying `fault` to the replies.
fn relay(target: String, fault: Fault) -> Relay {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind relay");
    let addr = listener.local_addr().expect("addr").to_string();
    let cancels = Arc::new(AtomicUsize::new(0));
    let all = Arc::clone(&cancels);
    let points = Arc::new(AtomicUsize::new(0));
    let cut = Arc::new(AtomicBool::new(false));
    std::thread::spawn(move || {
        for down in listener.incoming().flatten() {
            if cut.load(Ordering::SeqCst) {
                break; // the listener closes: connections are refused
            }
            let Ok(up) = TcpStream::connect(&target) else {
                continue;
            };
            // A line is written in pieces: without `nodelay` each piece
            // after the first waits out a delayed ACK.
            up.set_nodelay(true).ok();
            down.set_nodelay(true).ok();
            let (up_read, down_read) = (up.try_clone().unwrap(), down.try_clone().unwrap());
            let (points, cut) = (Arc::clone(&points), Arc::clone(&cut));
            std::thread::spawn(move || {
                for line in BufReader::new(up_read).lines() {
                    let Ok(line) = line else { break };
                    let kind = |k: &str| line.contains(&format!("\"kind\": \"{k}\""));
                    let point = kind("point");
                    let result = point || kind("failed") || kind("done");
                    if result && matches!(fault, Fault::Withhold) {
                        continue;
                    }
                    if writeln!(&down, "{line}").is_err() {
                        break;
                    }
                    let seen = points.fetch_add(usize::from(point), Ordering::SeqCst) + 1;
                    if matches!(fault, Fault::CutAfter(k) if point && seen >= k) {
                        cut.store(true, Ordering::SeqCst);
                        break;
                    }
                }
                down.shutdown(Shutdown::Both).ok();
            });
            let all = Arc::clone(&all);
            std::thread::spawn(move || {
                for line in BufReader::new(down_read).lines() {
                    let Ok(line) = line else { break };
                    if line.contains("\"op\": \"cancel\"") {
                        all.fetch_add(1, Ordering::SeqCst);
                    }
                    if writeln!(&up, "{line}").is_err() {
                        break;
                    }
                }
                up.shutdown(Shutdown::Both).ok();
            });
        }
    });
    Relay { addr, cancels }
}

/// The raw `status` frame of the server at `addr`.
fn raw_status(addr: &str) -> JsonValue {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    for request in [
        format!("{{\"op\": \"hello\", \"proto\": {PROTO_VERSION}}}"),
        "{\"op\": \"status\"}".to_string(),
    ] {
        writeln!(&stream, "{request}").expect("send");
        line.clear();
        reader.read_line(&mut line).expect("reply");
    }
    json::parse(&line).expect("a JSON status frame")
}

fn field(v: &JsonValue, path: &[&str]) -> f64 {
    let mut v = v;
    for key in path {
        v = v
            .get(key)
            .unwrap_or_else(|| panic!("status frame lacks {path:?}"));
    }
    v.as_f64()
        .unwrap_or_else(|| panic!("{path:?} is not a number"))
}

/// A backend dying mid-sweep (its stream cut after two point frames,
/// every later connection refused, as abruptly as `kill -9`) loses
/// nothing: its in-flight units fail over to the survivor and the report
/// is byte-identical.
#[test]
fn killing_one_backend_mid_sweep_keeps_the_report_byte_identical() {
    let a = backend(2);
    let b = backend(1);
    let dying = relay(b.local_addr().to_string(), Fault::CutAfter(2));
    let params = fig6_params();
    let local = find_study("fig6").unwrap().run(&params).unwrap();
    let n = decompose("fig6", &params).unwrap().n_points();

    let a_addr = a.local_addr().to_string();
    let coord = coordinator(fleet(&[&a_addr, &dying.addr]));
    let outcome = submit(&coord, "fig6", &params);
    assert_eq!(outcome.failed, 0, "failover, not degradation");
    assert_eq!(outcome.computed, n, "both backends were cold");
    assert_bytes(&outcome, &local, "fig6");
    let fed = fed(&coord);
    let dead = &fed.status().backends[1];
    assert!(
        dead.failed_over >= 1,
        "the dying backend's units were requeued: {dead:?}"
    );
    wait_for("the killed backend to be marked dead", || {
        fed.status().backends[1].state == HealthState::Dead
    });
    coord.stop();
    a.stop();
    b.stop();
}

/// With the whole fleet unreachable the coordinator computes the work
/// on its own scheduler — byte-identical, every unit attributed to the
/// fallback in the federation gauges and computed by the coordinator's
/// pool, whose `status` frame carries its `cache` block beside the
/// `federation` block.
#[test]
fn all_backends_dead_falls_back_to_the_coordinators_scheduler() {
    // Privileged ports no test binds: unlike a reserved-then-released
    // ephemeral port, no listener of a parallel test can take them over.
    let ghosts = ["127.0.0.1:1", "127.0.0.1:2"];
    let params = fig1_params();
    let n = decompose("fig1", &params).unwrap().n_points();

    let local = find_study("fig1").unwrap().run(&params).unwrap();
    let coord = coordinator(fleet(&ghosts));
    let outcome = submit(&coord, "fig1", &params);
    assert_eq!(outcome.failed, 0);
    assert_eq!(outcome.computed, n);
    assert_bytes(&outcome, &local, "fig1");
    assert_eq!(fed(&coord).status().local_units, n as u64, "every unit");
    assert_eq!(coord.scheduler().status().points_computed, n as u64);

    let status = raw_status(&coord.local_addr().to_string());
    assert_eq!(field(&status, &["points_computed"]), n as f64);
    assert!(field(&status, &["cache", "entries"]) >= n as f64, "cached");
    assert_eq!(field(&status, &["federation", "local_units"]), n as f64);
    assert_eq!(field(&status, &["federation", "jobs_total"]), 1.0);
    let backends = status.get("federation").and_then(|f| f.get("backends"));
    assert!(
        matches!(backends, Some(JsonValue::Array(b)) if b.len() == 2),
        "{backends:?}"
    );
    coord.stop();
}

/// A doomed input on a cold coordinator whose fleet is dead: every
/// reference overruns its deadline on both attempts and every point
/// cascades — retried, counted and worded exactly like the local sweep's
/// `Degraded` block. The wire carries no fault policy, so the input
/// reaches the fallback in process; the coordinator is cold because a
/// unit's identity excludes the fault policy, so a warm fallback would
/// serve the clean results like any backend.
#[test]
fn a_doomed_sweep_degrades_on_the_fallback_like_a_local_run() {
    let ghosts = ["127.0.0.1:1", "127.0.0.1:2"];
    let doomed = StudyParams {
        faults: FaultPolicy {
            deadline_cycles: Some(10),
            retries: 1,
        },
        ..fig1_params()
    };
    let grid = decompose("fig1", &doomed).unwrap();
    let n = grid.n_points();
    let local = find_study("fig1").unwrap().run(&doomed).unwrap();
    let coord = coordinator(fleet(&ghosts));
    let (_, rx) = fed(&coord)
        .submit_units(grid.clone(), doomed.clone(), None)
        .expect("admitted");
    let mut fold = GridFold::new(n);
    let failed = loop {
        match rx.recv().expect("the stream ends with done") {
            JobEvent::Point {
                index,
                attempts,
                record,
                ..
            } => fold.point(
                index,
                record_to_summary(&record).expect("a valid record"),
                attempts,
            ),
            JobEvent::Failed {
                index,
                label,
                reason,
                attempts,
            } => fold.failed(index, label, reason, attempts),
            JobEvent::Done { failed, .. } => break failed,
        }
    };
    assert_eq!(failed, n, "every point cascaded from its reference");
    let report = fold.finish(&grid, &doomed);
    assert_eq!(report.to_text(), local.to_text(), "doomed: text bytes");
    assert_eq!(report.to_json(), local.to_json(), "doomed: json bytes");
    assert_eq!(fed(&coord).status().local_units, n as u64);
    assert_eq!(coord.scheduler().status().points_failed, n as u64);
    coord.stop();
}

/// Cancelling a federated job that runs on the fallback cancels the
/// fallback's shard: the coordinator's scheduler settles with no queued
/// unit and no job, short of even the one shard it was running.
#[test]
fn cancelling_a_fallback_job_drops_its_queued_units() {
    let ghosts = ["127.0.0.1:1", "127.0.0.1:2"];
    let params = StudyParams {
        scale: 0.2,
        ..fig6_params()
    };
    let n = decompose("fig6", &params).unwrap().n_points();
    let coord = serve(&ServeConfig {
        workers: 1,
        fleet: Some(fleet(&ghosts)),
        ..ServeConfig::default()
    })
    .expect("bind coordinator");
    let mut client = connect(&coord);
    let mut control = connect(&coord);
    let (job, _) = client
        .start_submit("fig6", &params, None)
        .expect("admitted");
    match client.next_event(n).expect("stream open") {
        StreamEvent::Point { .. } => {}
        other => panic!("expected a point first, got {other:?}"),
    }
    assert!(control.cancel(job).expect("cancel"), "live job cancelled");
    let cancelled = loop {
        if let StreamEvent::Done { cancelled, .. } = client.next_event(n).expect("stream open") {
            break cancelled;
        }
    };
    assert!(cancelled, "the stream's terminal frame says cancelled");
    wait_for("the fallback to settle with no queued work", || {
        let st = coord.scheduler().status();
        st.jobs_active == 0 && st.queued_units == 0
    });
    // One worker runs a shard's (at most 8) references before its
    // points: the first point landed with the rest of them still queued.
    let computed = coord.scheduler().status().points_computed;
    assert!(
        computed < 8,
        "the shard's queued points were dropped: {computed} of {n} computed"
    );
    coord.stop();
}

/// Hedged dispatch races a stalled backend: the healthy backend wins
/// every hedged unit, the report stays byte-identical, and the loser's
/// duplicate sub-job is cancelled — hedged work is reclaimed, never left
/// running.
#[test]
fn hedging_beats_a_stalled_backend_and_cancels_the_loser() {
    let a = backend(2);
    let b = backend(1);
    let stalled = relay(b.local_addr().to_string(), Fault::Withhold);
    let params = fig6_params();
    let local = find_study("fig6").unwrap().run(&params).unwrap();

    let a_addr = a.local_addr().to_string();
    let coord = coordinator(FleetConfig {
        hedge_after_ms: Some(0),
        ..fleet(&[&a_addr, &stalled.addr])
    });
    let outcome = submit(&coord, "fig6", &params);
    assert_eq!(outcome.failed, 0);
    assert_bytes(&outcome, &local, "fig6");

    let status = fed(&coord).status();
    assert!(
        status.backends[0].hedge_wins >= 1,
        "the healthy backend rescued the stalled one's units: {status:?}"
    );
    wait_for("the stalled backend's sub-job to be cancelled", || {
        stalled.cancels.load(Ordering::SeqCst) >= 1
    });
    coord.stop();
    a.stop();
    b.stop();
}

/// A dead backend that comes back is re-probed, transitions to
/// recovered, and serves units of the next job — rejoining the fleet
/// without a restart of the coordinator.
#[test]
fn recovered_backend_rejoins_and_serves_the_next_job() {
    let a = backend(1);
    let a_addr = a.local_addr().to_string();
    let b_addr = reserved_addr();

    let coord = coordinator(fleet(&[&a_addr, &b_addr]));
    let fed = fed(&coord);

    // Job 1: backend b is down; everything lands on a, byte-identically.
    let params = fig1_params();
    let local = find_study("fig1").unwrap().run(&params).unwrap();
    assert_bytes(&submit(&coord, "fig1", &params), &local, "job 1");
    wait_for("the unreachable backend to be marked dead", || {
        fed.status().backends[1].state == HealthState::Dead
    });

    // Backend b comes up on its advertised address; the monitor's
    // capped-backoff re-probe flips it dead -> recovered.
    let b = serve(&ServeConfig {
        addr: b_addr.clone(),
        workers: 4,
        ..ServeConfig::default()
    })
    .expect("bind b on the advertised address");
    wait_for("the backend to recover", || {
        let snap = &fed.status().backends[1];
        snap.recoveries >= 1 && snap.state == HealthState::Recovered
    });

    // Job 2: the rejoined backend takes real work.
    let params = fig6_params();
    let local = find_study("fig6").unwrap().run(&params).unwrap();
    assert_bytes(&submit(&coord, "fig6", &params), &local, "job 2");
    assert!(
        fed.status().backends[1].served >= 1,
        "the recovered backend served units: {:?}",
        fed.status().backends
    );
    coord.stop();
    a.stop();
    b.stop();
}

/// Failed-over units are never recomputed when a survivor already has
/// them cached: after a warmed backend absorbs a dying backend's
/// units, its compute counter has not moved — every requeued unit was
/// a cache hit.
#[test]
fn failover_serves_cached_units_without_recompute() {
    let a = backend(2);
    let a_addr = a.local_addr().to_string();
    let params = fig6_params();
    let local = find_study("fig6").unwrap().run(&params).unwrap();
    let n = decompose("fig6", &params).unwrap().n_points();

    // Warm a's cache with a direct submit.
    let warm = Client::connect(&a_addr)
        .and_then(|mut c| c.submit("fig6", &params))
        .expect("warm submit");
    assert_eq!(warm.computed, n);
    let computed_after_warm = a.scheduler().status().points_computed;

    // b is cold and dies after two points — everything else it claimed
    // fails over to a, which must serve it from cache. b is listed first
    // so its worker starts first: the warm a drains a queue in a few
    // milliseconds, and b must claim a shard before that.
    let b = backend(1);
    let dying = relay(b.local_addr().to_string(), Fault::CutAfter(2));
    let coord = coordinator(fleet(&[&dying.addr, &a_addr]));
    let outcome = submit(&coord, "fig6", &params);
    assert_eq!(outcome.failed, 0);
    assert_bytes(&outcome, &local, "fig6");
    assert!(
        outcome.computed <= 2,
        "only the dying cold backend computes"
    );
    assert_eq!(outcome.computed + outcome.cached, n);
    assert_eq!(
        a.scheduler().status().points_computed,
        computed_after_warm,
        "failed-over units were cache hits, not recomputes"
    );
    let backends = fed(&coord).status().backends;
    assert!(backends[0].failed_over >= 1, "{backends:?}");
    coord.stop();
    a.stop();
    b.stop();
}

/// Cancelling a federated job cancels its per-backend sub-jobs: both
/// backends settle to zero active jobs and zero queued units, and the
/// fleet-wide compute count stays far short of the grid — no orphaned
/// units keep computing after the cancel.
#[test]
fn cancel_propagates_to_backend_sub_jobs() {
    let a = backend(1);
    let b = backend(1);
    let a_addr = a.local_addr().to_string();
    let b_addr = b.local_addr().to_string();
    // Ten times the suite's usual scale: each unit must outlast the
    // cancel's trip through the coordinator to both backends.
    let params = StudyParams {
        scale: 0.2,
        ..fig6_params()
    };
    let n = decompose("fig6", &params).unwrap().n_points();

    let coord = coordinator(fleet(&[&a_addr, &b_addr]));
    let mut client = connect(&coord);
    let mut control = connect(&coord);
    let (job, _) = client
        .start_submit("fig6", &params, None)
        .expect("admitted");

    // Cancel as soon as the first point lands, while both backends
    // still hold queued sub-job units.
    match client.next_event(n).expect("stream open") {
        StreamEvent::Point { .. } => {}
        other => panic!("expected a point first, got {other:?}"),
    }
    assert!(control.cancel(job).expect("cancel"), "live job cancelled");
    let cancelled = loop {
        if let StreamEvent::Done { cancelled, .. } = client.next_event(n).expect("stream open") {
            break cancelled;
        }
    };
    assert!(cancelled, "the stream's terminal frame says cancelled");

    wait_for("both backends to settle with no orphaned work", || {
        [&a, &b].iter().all(|s| {
            let st = s.scheduler().status();
            st.jobs_active == 0 && st.queued_units == 0
        })
    });
    let total = a.scheduler().status().points_computed + b.scheduler().status().points_computed;
    assert!(
        (total as usize) < n,
        "cancel stopped the sweep early: {total} of {n} computed"
    );
    coord.stop();
    a.stop();
    b.stop();
}

/// A shard that receives its own points reads on to its `done` frame:
/// with hedging off, a clean run sends no backend a single `cancel`.
#[test]
fn a_clean_fleet_run_cancels_nothing() {
    let a = backend(1);
    let b = backend(1);
    let ra = relay(a.local_addr().to_string(), Fault::None);
    let rb = relay(b.local_addr().to_string(), Fault::None);
    let params = fig6_params();
    let local = find_study("fig6").unwrap().run(&params).unwrap();

    let coord = coordinator(fleet(&[&ra.addr, &rb.addr]));
    let outcome = submit(&coord, "fig6", &params);
    assert_bytes(&outcome, &local, "fig6");
    coord.stop();
    assert_eq!(
        (
            ra.cancels.load(Ordering::SeqCst),
            rb.cancels.load(Ordering::SeqCst)
        ),
        (0, 0),
        "cancel requests sent to the two backends"
    );
    a.stop();
    b.stop();
}

/// A fake backend: it answers the handshake and `status` probes until
/// its first submit, answers that submit with one point frame — `record`
/// under index `foreign` — and hangs up; after that it accepts
/// connections and drops them, so every later probe fails.
fn fake_backend(record: String, foreign: usize) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake");
    let addr = listener.local_addr().expect("addr").to_string();
    std::thread::spawn(move || {
        let mut submitted = false;
        for stream in listener.incoming().flatten() {
            if submitted {
                continue;
            }
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut w = &stream;
            let mut request = |line: &mut String| {
                line.clear();
                reader.read_line(line).unwrap_or(0) > 0
            };
            let mut line = String::new();
            if !request(&mut line) {
                continue;
            }
            w.write_all(b"{\"ok\": true, \"kind\": \"hello\", \"proto\": 2}\n")
                .ok();
            if !request(&mut line) {
                continue;
            }
            let reply = if line.contains("\"op\": \"submit\"") {
                submitted = true;
                format!(
                    "{{\"ok\": true, \"kind\": \"accepted\", \"job\": 1, \"study\": \"fig6\", \
                     \"points\": 8, \"fingerprint\": \"0\"}}\n\
                     {{\"ok\": true, \"kind\": \"point\", \"job\": 1, \"index\": {foreign}, \
                     \"source\": \"computed\", \"attempts\": 1, \"data\": {record}}}\n"
                )
            } else {
                "{\"ok\": true, \"kind\": \"status\", \"proto\": 2}\n".to_string()
            };
            w.write_all(reply.as_bytes()).ok();
        }
    });
    addr
}

/// A frame for an index the shard was never sent is a broken stream:
/// the backend is failed and its shard requeued, so a well-formed but
/// foreign point — point 0's record under the grid's last index — never
/// lands in the report.
#[test]
fn a_point_outside_its_shard_fails_the_backend_over() {
    let params = fig6_params();
    let local = find_study("fig6").unwrap().run(&params).unwrap();
    let grid = decompose("fig6", &params).unwrap();
    let n = grid.n_points();
    let (pi, _) = grid.point(0);
    let reference = grid.compute_reference(&params, pi).expect("reference");
    let record = grid
        .compute_point(&params, 0, reference)
        .unwrap()
        .to_record();
    // One backend takes the first chunk of at most 8 units, so the last
    // index is never in its shard.
    assert!(n > 8);
    let fake = fake_backend(record, n - 1);

    let coord = coordinator(fleet(&[&fake]));
    let outcome = submit(&coord, "fig6", &params);
    assert_eq!(outcome.failed, 0);
    assert_bytes(&outcome, &local, "fig6");
    let status = fed(&coord).status();
    assert_eq!(status.backends[0].served, 0, "{status:?}");
    assert_eq!(status.backends[0].failed_over, 8, "{status:?}");
    assert_eq!(status.local_units, n as u64, "{status:?}");
    coord.stop();
}
