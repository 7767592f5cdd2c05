//! The federation chaos suite: a fleet of `studyd` backends behind the
//! coordinator must survive a backend dying mid-sweep (`kill -9`-grade
//! `exit-unit` chaos), the whole fleet being unreachable, a wedged
//! straggler, and a dead backend coming back — and in every surviving
//! scenario the reassembled report is **byte-identical** to a local
//! `Study::run`. Failover never recomputes what a live backend already
//! cached, hedged losers are cancelled (visible in the loser's
//! `hedge_cancels` gauge), and cancelling a federated job cancels its
//! per-backend sub-jobs so no orphaned units keep computing.
//!
//! Fault positions are deterministic (`STUDYD_CHAOS` unit counters,
//! programmatic [`service::chaos::ChaosPolicy`]); synchronization is
//! always a polled predicate with a 30s deadline, never a bare sleep.

use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use experiments::decompose::decompose;
use experiments::study::{find_study, StudyParams};
use experiments::FaultPolicy;
use service::chaos::ChaosPolicy;
use service::client::Client;
use service::federation::{assemble_events, Federation, FleetConfig, HealthState};
use service::scheduler::{JobEvent, SubmitError};
use service::server::{serve, ServeConfig};
use service::session::Dispatch;

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
/// backend dead, probes retry within ~100ms, hedging off (tests that
/// exercise hedging opt in explicitly).
fn fleet(backends: &[&str]) -> FleetConfig {
    FleetConfig {
        backends: backends.iter().map(|s| s.to_string()).collect(),
        hedge_after_ms: None,
        heartbeat_ms: 25,
        dead_after: 1,
        probe_backoff_base_ms: 25,
        probe_backoff_cap_ms: 100,
        ..FleetConfig::default()
    }
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

/// A real `studyd` child process (the only way to observe a true
/// process death mid-stream), killed on drop.
struct Backend {
    proc: Child,
    addr: String,
}

impl Backend {
    fn spawn(workers: usize, chaos: Option<&str>) -> Backend {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_studyd"));
        cmd.args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if let Some(spec) = chaos {
            cmd.env("STUDYD_CHAOS", spec);
        }
        let mut proc = cmd.spawn().expect("spawn studyd");
        let mut banner = String::new();
        BufReader::new(proc.stdout.take().expect("stdout piped"))
            .read_line(&mut banner)
            .expect("read banner");
        let addr = banner
            .trim()
            .strip_prefix("studyd: listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
            .to_string();
        Backend { proc, addr }
    }
}

impl Drop for Backend {
    fn drop(&mut self) {
        self.proc.kill().ok();
        self.proc.wait().ok();
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

/// A backend dying mid-sweep (its process exits at a deterministic
/// unit, as abruptly as `kill -9`) loses nothing: its in-flight units
/// fail over to the survivor and the report is byte-identical.
#[test]
fn killing_one_backend_mid_sweep_keeps_the_report_byte_identical() {
    let a = Backend::spawn(2, None);
    let b = Backend::spawn(1, Some("exit-unit=2"));
    let params = fig6_params();
    let local = find_study("fig6").unwrap().run(&params).unwrap();
    let grid = decompose("fig6", &params).unwrap();
    let n = grid.n_points();

    let fed = Federation::start(fleet(&[&a.addr, &b.addr])).expect("start fleet");
    let (_, rx) = fed
        .submit_units(grid.clone(), params.clone(), None)
        .expect("admitted");
    let outcome = assemble_events(&grid, &params, &rx).expect("reassemble");

    assert_eq!(outcome.failed, 0, "failover, not degradation");
    assert_eq!(outcome.computed, n, "both backends were cold");
    assert_eq!(outcome.report.to_text(), local.to_text(), "text bytes");
    assert_eq!(outcome.report.to_json(), local.to_json(), "json bytes");
    let status = fed.status();
    let dead = &status.backends[1];
    assert!(
        dead.failed_over >= 1,
        "the dying backend's units were requeued: {dead:?}"
    );
    wait_for("the killed backend to be marked dead", || {
        fed.status().backends[1].state == HealthState::Dead
    });
    fed.stop();
}

/// With the whole fleet unreachable the coordinator degrades to local
/// in-process execution — byte-identical, every unit attributed to the
/// local fallback, whether the units succeed or every reference fails
/// after a retry — and with fallback disabled admission refuses with a
/// typed `unavailable` once the fleet is known dead.
#[test]
fn all_backends_dead_falls_back_to_local_or_refuses() {
    let ghosts = [reserved_addr(), reserved_addr()];
    let params = fig1_params();
    let grid = decompose("fig1", &params).unwrap();
    let n = grid.n_points();

    // Second input: every reference overruns its deadline on both
    // attempts, so every point cascades — the fallback must retry,
    // count and word that exactly like the local sweep.
    let doomed = StudyParams {
        faults: FaultPolicy {
            deadline_cycles: Some(10),
            retries: 1,
        },
        ..params.clone()
    };
    for (params, failed) in [(&params, 0), (&doomed, n)] {
        let local = find_study("fig1").unwrap().run(params).unwrap();
        let fed = Federation::start(fleet(&[&ghosts[0], &ghosts[1]])).expect("start fleet");
        let (_, rx) = fed
            .submit_units(grid.clone(), params.clone(), None)
            .expect("admitted");
        let outcome = assemble_events(&grid, params, &rx).expect("reassemble");
        assert_eq!(outcome.failed, failed);
        assert_eq!(outcome.report.to_text(), local.to_text(), "text bytes");
        assert_eq!(outcome.report.to_json(), local.to_json(), "json bytes");
        let status = fed.status();
        assert_eq!(status.local_units, n as u64, "every unit ran locally");
        fed.stop();
    }

    let refusing = Federation::start(FleetConfig {
        local_fallback: false,
        ..fleet(&[&ghosts[0], &ghosts[1]])
    })
    .expect("start fleet");
    wait_for("both ghosts to be probed dead", || {
        refusing
            .status()
            .backends
            .iter()
            .all(|b| b.state == HealthState::Dead)
    });
    match refusing.submit_units(grid, params, None) {
        Err(SubmitError::Unavailable { backends }) => assert_eq!(backends, 2),
        other => panic!("expected unavailable, got {other:?}"),
    }
    refusing.stop();
}

/// Hedged dispatch races a stalled backend: the healthy backend wins
/// every hedged unit, the report stays byte-identical, and the loser's
/// duplicate sub-job is cancelled (its `hedge_cancels` gauge moves) —
/// hedged work is reclaimed, never left running.
#[test]
fn hedging_beats_a_stalled_backend_and_cancels_the_loser() {
    let a = serve(&ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("bind a");
    let b = serve(&ServeConfig {
        workers: 1,
        chaos: ChaosPolicy {
            stall_at_unit: Some(0),
            ..ChaosPolicy::default()
        },
        ..ServeConfig::default()
    })
    .expect("bind b");
    let a_addr = a.local_addr().to_string();
    let b_addr = b.local_addr().to_string();
    let params = fig6_params();
    let local = find_study("fig6").unwrap().run(&params).unwrap();
    let grid = decompose("fig6", &params).unwrap();

    let fed = Federation::start(FleetConfig {
        hedge_after_ms: Some(0),
        ..fleet(&[&a_addr, &b_addr])
    })
    .expect("start fleet");
    let (_, rx) = fed
        .submit_units(grid.clone(), params.clone(), None)
        .expect("admitted");
    let outcome = assemble_events(&grid, &params, &rx).expect("reassemble");
    assert_eq!(outcome.failed, 0);
    assert_eq!(outcome.report.to_text(), local.to_text(), "text bytes");
    assert_eq!(outcome.report.to_json(), local.to_json(), "json bytes");

    let status = fed.status();
    assert!(
        status.backends[0].hedge_wins >= 1,
        "the healthy backend rescued the stalled one's units: {status:?}"
    );
    wait_for(
        "the stalled backend's sub-job to be hedge-cancelled",
        || b.scheduler().status().hedge_cancels >= 1,
    );
    fed.stop();
    a.stop();
    b.stop(); // also unwedges the chaos-stalled worker
}

/// A dead backend that comes back is re-probed, transitions to
/// recovered, and serves units of the next job — rejoining the fleet
/// without a restart of the coordinator.
#[test]
fn recovered_backend_rejoins_and_serves_the_next_job() {
    let a = serve(&ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind a");
    let a_addr = a.local_addr().to_string();
    let b_addr = reserved_addr();

    let fed = Federation::start(fleet(&[&a_addr, &b_addr])).expect("start fleet");

    // Job 1: backend b is down; everything lands on a, byte-identically.
    let params = fig1_params();
    let local = find_study("fig1").unwrap().run(&params).unwrap();
    let grid = decompose("fig1", &params).unwrap();
    let (_, rx) = fed
        .submit_units(grid.clone(), params.clone(), None)
        .expect("admitted");
    let outcome = assemble_events(&grid, &params, &rx).expect("reassemble");
    assert_eq!(outcome.report.to_text(), local.to_text(), "job 1 bytes");
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
    let grid = decompose("fig6", &params).unwrap();
    let (_, rx) = fed
        .submit_units(grid.clone(), params.clone(), None)
        .expect("admitted");
    let outcome = assemble_events(&grid, &params, &rx).expect("reassemble");
    assert_eq!(outcome.report.to_text(), local.to_text(), "job 2 bytes");
    assert!(
        fed.status().backends[1].served >= 1,
        "the recovered backend served units: {:?}",
        fed.status().backends
    );
    fed.stop();
    a.stop();
    b.stop();
}

/// Failed-over units are never recomputed when a survivor already has
/// them cached: after a warmed backend absorbs a dying backend's
/// units, its compute counter has not moved — every requeued unit was
/// a cache hit.
#[test]
fn failover_serves_cached_units_without_recompute() {
    let a = serve(&ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("bind a");
    let a_addr = a.local_addr().to_string();
    let params = fig6_params();
    let local = find_study("fig6").unwrap().run(&params).unwrap();
    let grid = decompose("fig6", &params).unwrap();
    let n = grid.n_points();

    // Warm a's cache with a direct submit.
    let warm = Client::connect(&a_addr)
        .and_then(|mut c| c.submit("fig6", &params))
        .expect("warm submit");
    assert_eq!(warm.computed, n);
    let computed_after_warm = a.scheduler().status().points_computed;

    // b is cold and dies after two units — everything it claimed fails
    // over to a, which must serve it from cache.
    let b = Backend::spawn(1, Some("exit-unit=2"));
    let fed = Federation::start(fleet(&[&a_addr, &b.addr])).expect("start fleet");
    let (_, rx) = fed
        .submit_units(grid.clone(), params.clone(), None)
        .expect("admitted");
    let outcome = assemble_events(&grid, &params, &rx).expect("reassemble");
    assert_eq!(outcome.failed, 0);
    assert_eq!(outcome.report.to_text(), local.to_text(), "text bytes");
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
    assert!(
        fed.status().backends[1].failed_over >= 1,
        "{:?}",
        fed.status().backends
    );
    fed.stop();
    a.stop();
}

/// Cancelling a federated job cancels its per-backend sub-jobs: both
/// backends settle to zero active jobs and zero queued units, and the
/// fleet-wide compute count stays far short of the grid — no orphaned
/// units keep computing after the cancel.
#[test]
fn cancel_propagates_to_backend_sub_jobs() {
    let a = serve(&ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind a");
    let b = serve(&ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind b");
    let a_addr = a.local_addr().to_string();
    let b_addr = b.local_addr().to_string();
    let params = fig6_params();
    let grid = decompose("fig6", &params).unwrap();
    let n = grid.n_points();

    let fed = Federation::start(fleet(&[&a_addr, &b_addr])).expect("start fleet");
    let (job, rx) = fed.submit_units(grid, params, None).expect("admitted");

    // Cancel as soon as the first point lands, while both backends
    // still hold queued sub-job units.
    match rx.recv().expect("stream open") {
        JobEvent::Point { .. } => {}
        JobEvent::Failed { .. } => panic!("no failures expected"),
        JobEvent::Done { .. } => panic!("done before any point"),
    }
    assert!(fed.cancel_job(job, false), "live job cancelled");
    let cancelled = loop {
        match rx.recv().expect("stream open") {
            JobEvent::Done { cancelled, .. } => break cancelled,
            _ => continue,
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
    fed.stop();
    a.stop();
    b.stop();
}
