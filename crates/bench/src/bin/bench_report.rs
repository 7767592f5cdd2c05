//! `bench_report` — emits the `BENCH_PR*.json` perf-trajectory file.
//!
//! Four measured workloads:
//!
//! - the paper's full validation grid (the Figure 4 sweep): all 28
//!   benchmarks × {2, 4, 8, 16} threads plus one single-threaded
//!   reference per benchmark — 140 independent simulations;
//! - the Figure 6 classification sweep (16 threads only);
//! - the **many-core scaling study** (`experiments::scaling`): speedup
//!   stacks across a 1→128-core sweep of weak-scaling workloads and a
//!   multi-program rate mix on a 4 MiB 32-way LLC — the sweep that
//!   exercises multi-word (>64-core) sharer masks and the wide (>16-way)
//!   LRU encoding end to end;
//! - the **studyd service** (`service_fig6`): the Figure 6 grid submitted
//!   to an in-process `studyd` over loopback — cold submission, cache-
//!   served submission, first-frame latency and a 10-request cached burst;
//! - the **federation** (`fed_fig6`): the same grid sharded across a
//!   fleet by the coordinator — cold 1-backend vs 2-backend runs, and
//!   kill-one-mid-sweep failover against a chaos-killed child backend.
//!
//! The figure grids and the scaling study are each measured with the
//! `parallel` and the `serial` sweep driver (one engine; results are
//! bit-identical across drivers).
//!
//! `--baseline-repro PATH` points at a `repro` binary built from another
//! commit; its `fig4`/`fig6` sweeps are then timed **interleaved** with
//! this binary's sweeps, so host-speed drift hits both sides equally.
//!
//! ```text
//! bench_report [--out PATH] [--scale F] [--samples N] [--baseline-repro PATH]
//! ```

use std::time::Instant;

use bench_support::report::{Entry, PerfReport};
use experiments::{run_grid, scaled_profile, Parallelism, RunOptions};

/// The two figure sweeps: the Figure 4 validation grid and the Figure 6
/// classification sweep (16 threads only).
const SWEEPS: [(&str, &str, &[usize]); 2] = [
    ("fig4_grid", "fig4", &[2, 4, 8, 16]),
    ("fig6_grid", "fig6", &[16]),
];

/// The sweep drivers every simulator workload is timed under.
const DRIVERS: [(&str, Parallelism); 2] = [
    ("parallel", Parallelism::Auto),
    ("serial", Parallelism::Serial),
];

fn sweep(scale: f64, counts: &[usize], mode: Parallelism) -> (f64, u64, u64) {
    let profiles: Vec<workloads::WorkloadProfile> = workloads::paper_suite()
        .iter()
        .map(|p| scaled_profile(p, scale))
        .collect();
    let t0 = Instant::now();
    let grid = run_grid(&profiles, counts, &|_, n| RunOptions::symmetric(n), mode);
    let wall = t0.elapsed().as_secs_f64();
    let events: u64 = grid.iter().flatten().map(|o| o.mt.events).sum();
    let points = (profiles.len() * (counts.len() + 1)) as u64;
    (wall, events, points)
}

/// One timed run of the 1→128-core scaling study.
fn scaling_sweep(scale: f64, mode: Parallelism) -> (f64, u64, u64) {
    let t0 = Instant::now();
    let study = experiments::scaling::run_with(scale, &experiments::scaling::CORE_COUNTS, mode);
    let wall = t0.elapsed().as_secs_f64();
    (wall, study.total_events(), study.total_points())
}

fn time_external(repro: &str, fig: &str, scale: f64) -> f64 {
    let t0 = Instant::now();
    let status = std::process::Command::new(repro)
        .args([fig, "--scale", &format!("{scale}")])
        .stdout(std::process::Stdio::null())
        .status()
        .expect("run baseline repro");
    assert!(status.success(), "baseline {fig} failed");
    t0.elapsed().as_secs_f64()
}

/// Round trip the warm path raw so the first-frame latency — submit
/// line written to first `point` frame read — is measured without the
/// client's reassembly work.
fn first_frame_latency(addr: &str, scale: f64) -> f64 {
    use std::io::{BufRead, BufReader, Write};
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut send = |line: &str| {
        writer.write_all(line.as_bytes()).expect("send");
        writer.write_all(b"\n").expect("send");
        writer.flush().expect("flush");
    };
    let mut recv = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("recv");
        line
    };
    send(&format!(
        "{{\"op\": \"hello\", \"proto\": {}}}",
        service::proto::PROTO_VERSION
    ));
    recv();
    let t0 = Instant::now();
    send(&format!(
        "{{\"op\": \"submit\", \"study\": \"fig6\", \"params\": {{\"scale\": {scale}}}}}"
    ));
    recv(); // accepted
    recv(); // first point frame
    let latency = t0.elapsed().as_secs_f64();
    loop {
        if recv().contains("\"kind\": \"done\"") {
            break;
        }
    }
    latency
}

/// The `studyd` service over loopback: cold submission, cache-served
/// submission, first-frame latency and cached request throughput.
fn service_bench(scale: f64, samples: usize, report: &mut PerfReport) {
    use experiments::study::StudyParams;
    use service::client::Client;
    use service::server::{serve, ServeConfig};

    let params = StudyParams::with_scale(scale);
    let mut best_cold = f64::MAX;
    let mut best_cached = f64::MAX;
    let mut best_first = f64::MAX;
    let mut points = 0u64;
    for _ in 0..samples.max(1) {
        // A fresh server per sample keeps the cold path genuinely cold.
        let server = serve(&ServeConfig::default()).expect("bind loopback");
        let addr = server.local_addr().to_string();
        let mut client = Client::connect(&addr).expect("connect");
        let t0 = Instant::now();
        let outcome = client.submit("fig6", &params).expect("cold submit");
        best_cold = best_cold.min(t0.elapsed().as_secs_f64());
        points = (outcome.computed + outcome.cached) as u64;
        let t0 = Instant::now();
        client.submit("fig6", &params).expect("cached submit");
        best_cached = best_cached.min(t0.elapsed().as_secs_f64());
        best_first = best_first.min(first_frame_latency(&addr, scale));
        server.stop();
    }

    // Cached throughput: one warm server, ten back-to-back submissions.
    const BURST: u64 = 10;
    let server = serve(&ServeConfig::default()).expect("bind loopback");
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");
    client.submit("fig6", &params).expect("warm submit");
    let t0 = Instant::now();
    for _ in 0..BURST {
        client.submit("fig6", &params).expect("burst submit");
    }
    let burst_wall = t0.elapsed().as_secs_f64();
    server.stop();

    for (config, wall, pts) in [
        ("cold-submit", best_cold, points),
        ("cached-submit", best_cached, points),
        ("cached-first-frame", best_first, 1),
        ("cached-submit-x10", burst_wall, BURST * points),
    ] {
        eprintln!("service_fig6/{config}: {wall:.4} s");
        report.push(Entry {
            name: "service_fig6".into(),
            config: config.into(),
            wall_s: wall,
            events: 0,
            points: pts,
        });
    }
}

/// PR 9 hardening paths: duplicate cold submits collapsing onto one
/// computation, a restarted daemon serving warm from the cache spill,
/// and the busy-rejection fast path under admission control.
fn hardening_bench(scale: f64, samples: usize, report: &mut PerfReport) {
    use experiments::study::StudyParams;
    use service::client::Client;
    use service::server::{serve, ServeConfig};

    let params = StudyParams::with_scale(scale);
    let spill =
        std::env::temp_dir().join(format!("studyd-bench-spill-{}.ndjson", std::process::id()));
    let mut best_coalesced = f64::MAX;
    let mut best_restart = f64::MAX;
    let mut best_busy = f64::MAX;
    let mut points = 0u64;
    for _ in 0..samples.max(1) {
        // Eight identical concurrent cold submits: one owner computes
        // each unit, seven subscribers ride the coalesced fan-out.
        let server = serve(&ServeConfig::default()).expect("bind loopback");
        let addr = server.local_addr().to_string();
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let addr = &addr;
                let params = &params;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    client.submit("fig6", params).expect("coalesced submit");
                });
            }
        });
        best_coalesced = best_coalesced.min(t0.elapsed().as_secs_f64());
        server.stop();

        // Restart-warm: a fresh daemon recovers the spill and serves
        // the resubmit without recomputing (compare with cold-submit).
        std::fs::remove_file(&spill).ok();
        let server = serve(&ServeConfig {
            cache_spill: Some(spill.clone()),
            ..ServeConfig::default()
        })
        .expect("bind loopback");
        let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");
        let outcome = client.submit("fig6", &params).expect("cold submit");
        points = (outcome.computed + outcome.cached) as u64;
        server.stop();
        let server = serve(&ServeConfig {
            cache_spill: Some(spill.clone()),
            ..ServeConfig::default()
        })
        .expect("rebind");
        let mut client = Client::connect(&server.local_addr().to_string()).expect("reconnect");
        let t0 = Instant::now();
        client.submit("fig6", &params).expect("restart-warm submit");
        best_restart = best_restart.min(t0.elapsed().as_secs_f64());
        server.stop();

        // Busy-rejection fast path: with the queue full, the typed
        // `busy` answer must come back without touching the pool.
        let server = serve(&ServeConfig {
            workers: 1,
            max_queued_units: 1,
            ..ServeConfig::default()
        })
        .expect("bind loopback");
        let addr = server.local_addr().to_string();
        let heavy = {
            let addr = addr.clone();
            let params = params.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                client.submit("fig6", &params).expect("heavy submit");
            })
        };
        while server.scheduler().status().queued_units < 1 {
            std::thread::yield_now();
        }
        let light = StudyParams {
            scale: scale.min(0.01),
            threads: Some(vec![2]),
            ..StudyParams::default()
        };
        let mut probe = Client::connect(&addr).expect("connect");
        let t0 = Instant::now();
        probe
            .submit("fig1", &light)
            .expect_err("queue is full: typed busy");
        best_busy = best_busy.min(t0.elapsed().as_secs_f64());
        heavy.join().unwrap();
        server.stop();
    }
    std::fs::remove_file(&spill).ok();

    for (config, wall, pts) in [
        ("coalesced-cold-x8", best_coalesced, points),
        ("restart-warm-submit", best_restart, points),
        ("busy-reject", best_busy, 1),
    ] {
        eprintln!("service_fig6/{config}: {wall:.4} s");
        report.push(Entry {
            name: "service_fig6".into(),
            config: config.into(),
            wall_s: wall,
            events: 0,
            points: pts,
        });
    }
}

/// PR 10 federation: the fig6 grid sharded across a fleet by the
/// in-process coordinator — one backend vs two, and kill-one-mid-sweep
/// failover against a real child backend dying via `exit-unit` chaos.
fn federation_bench(scale: f64, samples: usize, report: &mut PerfReport) {
    use experiments::decompose::decompose;
    use experiments::study::StudyParams;
    use service::federation::{assemble_events, Federation, FleetConfig};
    use service::server::{serve, ServeConfig};
    use service::session::Dispatch;

    let params = StudyParams::with_scale(scale);
    let grid = decompose("fig6", &params).expect("fig6 decomposes");
    let n = grid.n_points() as u64;

    let run_fleet = |backends: Vec<String>| -> f64 {
        let fed = Federation::start(FleetConfig {
            backends,
            hedge_after_ms: None,
            heartbeat_ms: 100,
            dead_after: 1,
            ..FleetConfig::default()
        })
        .expect("start fleet");
        let t0 = Instant::now();
        let (_, rx) = fed
            .submit_units(grid.clone(), params.clone(), None)
            .expect("admitted");
        assemble_events(&grid, &params, &rx).expect("reassemble");
        let wall = t0.elapsed().as_secs_f64();
        fed.stop();
        wall
    };

    let mut best_one = f64::MAX;
    let mut best_two = f64::MAX;
    for _ in 0..samples.max(1) {
        // Fresh backends per sample keep the fleet genuinely cold.
        let a = serve(&ServeConfig::default()).expect("bind loopback");
        best_one = best_one.min(run_fleet(vec![a.local_addr().to_string()]));
        a.stop();
        let a = serve(&ServeConfig::default()).expect("bind loopback");
        let b = serve(&ServeConfig::default()).expect("bind loopback");
        best_two = best_two.min(run_fleet(vec![
            a.local_addr().to_string(),
            b.local_addr().to_string(),
        ]));
        a.stop();
        b.stop();
    }

    // Kill-one needs a real process death; the studyd binary sits next
    // to bench_report in a workspace build. Skip loudly if absent.
    let studyd = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("studyd")))
        .filter(|p| p.exists());
    let mut best_kill = f64::MAX;
    if let Some(studyd) = &studyd {
        use std::io::{BufRead, BufReader};
        for _ in 0..samples.max(1) {
            let a = serve(&ServeConfig::default()).expect("bind loopback");
            let mut child = std::process::Command::new(studyd)
                .args(["--addr", "127.0.0.1:0", "--workers", "1"])
                .env("STUDYD_CHAOS", "exit-unit=2")
                .stdout(std::process::Stdio::piped())
                .stderr(std::process::Stdio::null())
                .spawn()
                .expect("spawn studyd");
            let mut banner = String::new();
            BufReader::new(child.stdout.take().expect("stdout piped"))
                .read_line(&mut banner)
                .expect("read banner");
            let b_addr = banner
                .trim()
                .strip_prefix("studyd: listening on ")
                .expect("studyd banner")
                .to_string();
            best_kill = best_kill.min(run_fleet(vec![a.local_addr().to_string(), b_addr]));
            a.stop();
            child.kill().ok();
            child.wait().ok();
        }
    } else {
        eprintln!("fed_fig6/kill-one-mid-sweep: skipped (no studyd binary next to bench_report)");
    }

    for (config, wall) in [
        ("cold-1-backend", best_one),
        ("cold-2-backends", best_two),
        ("kill-one-mid-sweep", best_kill),
    ] {
        if wall == f64::MAX {
            continue;
        }
        eprintln!("fed_fig6/{config}: {wall:.4} s");
        report.push(Entry {
            name: "fed_fig6".into(),
            config: config.into(),
            wall_s: wall,
            events: 0,
            points: n,
        });
    }
}

fn main() {
    let mut out = String::from("BENCH_PR12.json");
    let mut scale = 1.0f64;
    let mut samples = 3usize;
    let mut baseline_repro: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = args.next().expect("--out PATH"),
            "--scale" => scale = args.next().and_then(|v| v.parse().ok()).expect("--scale F"),
            "--samples" => {
                samples = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--samples N")
            }
            "--baseline-repro" => {
                baseline_repro = Some(args.next().expect("--baseline-repro PATH"))
            }
            other => panic!("unknown argument: {other}"),
        }
    }

    let mut report = PerfReport::default();
    report.meta("report", "speedup-stacks simulator perf trajectory, PR 12");
    report.meta(
        "workload",
        format!(
            "fig4_grid: 28 benchmarks x {{2,4,8,16}} threads + 1 ST reference each; \
             fig6_grid: 28 benchmarks x 16 threads + 1 ST reference each; \
             scaling_1_to_128: 3 weak-scaling workloads + 1 rate mix x \
             {{1,2,4,8,16,32,64,128}} cores on a 4 MiB 32-way LLC; \
             service_fig6: the fig6 grid submitted to an in-process studyd \
             over loopback (cold vs cache-served, first-frame latency, 10x \
             cached burst, 8x coalesced cold submits, restart-warm from the \
             cache spill, busy-rejection fast path); \
             fed_fig6: the fig6 grid sharded by the federation coordinator \
             (cold 1-backend vs 2-backend fleets, and kill-one-mid-sweep \
             failover against a chaos-killed child backend); scale {scale}"
        ),
    );
    report.meta(
        "method",
        format!(
            "best of {samples} samples per config, baseline interleaved with new-engine runs; \
             events = engine events of the multi-threaded runs"
        ),
    );
    report.meta(
        "host_cpus",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    report.meta(
        "note",
        "both drivers produce bit-identical figures; the baseline repro is timed on fig4 and \
         fig6 only",
    );

    for (entry_name, fig, counts) in SWEEPS {
        let mut best = [f64::MAX; DRIVERS.len()];
        let mut best_baseline = f64::MAX;
        let mut events = 0u64;
        let mut points = 0u64;
        for _ in 0..samples.max(1) {
            // Interleave the baseline with every driver so host-speed
            // drift cancels.
            if let Some(repro) = &baseline_repro {
                best_baseline = best_baseline.min(time_external(repro, fig, scale));
            }
            for (i, (_, mode)) in DRIVERS.iter().enumerate() {
                let (wall, ev, pts) = sweep(scale, counts, *mode);
                best[i] = best[i].min(wall);
                events = ev;
                points = pts;
            }
        }
        for (i, (name, _)) in DRIVERS.iter().enumerate() {
            eprintln!("{entry_name}/{name}: {:.3} s, {events} events", best[i]);
            report.push(Entry {
                name: entry_name.into(),
                config: (*name).into(),
                wall_s: best[i],
                events,
                points,
            });
        }
        if baseline_repro.is_some() {
            eprintln!("{entry_name}/baseline-repro: {best_baseline:.3} s");
            report.push(Entry {
                name: entry_name.into(),
                config: "baseline-repro".into(),
                wall_s: best_baseline,
                // An external process reports no event count: wall time
                // over the same figure points is the comparison.
                events: 0,
                points,
            });
        }
    }

    // The many-core scaling study: 1→128 cores.
    let mut best = [f64::MAX; DRIVERS.len()];
    let mut events = 0u64;
    let mut points = 0u64;
    for _ in 0..samples.max(1) {
        for (i, (_, mode)) in DRIVERS.iter().enumerate() {
            let (wall, ev, pts) = scaling_sweep(scale, *mode);
            best[i] = best[i].min(wall);
            events = ev;
            points = pts;
        }
    }
    for (i, (name, _)) in DRIVERS.iter().enumerate() {
        eprintln!("scaling_1_to_128/{name}: {:.3} s, {events} events", best[i]);
        report.push(Entry {
            name: "scaling_1_to_128".into(),
            config: (*name).into(),
            wall_s: best[i],
            events,
            points,
        });
    }

    // The studyd service: cold vs cache-served submissions, first-frame
    // latency and cached request throughput over loopback.
    service_bench(scale, samples, &mut report);

    // The hardening paths: coalescing, spill-warm restart, busy reject.
    hardening_bench(scale, samples, &mut report);

    // The federation: fleet sharding and kill-one failover.
    federation_bench(scale, samples, &mut report);

    std::fs::write(&out, report.to_json()).expect("write report");
    eprintln!("wrote {out}");
}
