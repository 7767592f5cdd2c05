//! The traced child: the workload body once more with spans around
//! every call into a layer, then one pass per layer over the same runs
//! in isolation, then the component kernels.
//!
//! Every number here is read from outside the crates: spans around
//! public calls, or counters the crates already publish
//! (`SimResult`, `AccessEvent`, `Client::status`). Times are host time;
//! counts are simulated quantities and repeat exactly.

use std::hint::black_box;
use std::path::Path;
use std::time::SystemTime;

use cmpsim::{MachineConfig, Op, OpStream, Simulation, VecStream};
use experiments::decompose::decompose;
use experiments::scaling::manycore_mem;
use experiments::{find_study, registry, PointSummary, StudyParams};
use memsim::{Atd, Cache, Dram, DramConfig, MemConfig, MemoryHierarchy, ServedBy};
use service::client::StreamEvent;
use service::scheduler::{drain_events, record_to_summary};
use service::{serve, Client};
use speedup_stacks::report::json::parse;
use speedup_stacks::report::Degraded;
use speedup_stacks::{AccountingConfig, Report, SpeedupStack};
use workloads::TraceReader;

use crate::body::{
    capture_fig6, replay_params, run_study, serve_config, summary_errors_pct, warm_server, Checks,
};
use crate::hostspeed::flanked;
use crate::seed::SplitMix64;
use crate::spans::Tracer;
use crate::stats::median;
use crate::workload::{
    runs, service_workers, trace_runs, validation_errors_pct, Digest, Inputs, RunSpec, Source,
    Workload,
};

/// Instructions an op carries, as the engine charges them when nothing
/// spins: `n` per `Compute(n)`, one for every other op (a memory access,
/// a transaction mark, or the access to a lock or barrier word).
pub fn op_instructions(op: Op) -> u64 {
    match op {
        Op::Compute(n) => u64::from(n),
        _ => 1,
    }
}

/// Drains a stream, summing `f` over its ops.
pub fn drain(stream: &mut dyn OpStream, mut f: impl FnMut(Op) -> u64) -> u64 {
    let mut sum = 0;
    while let Some(op) = stream.next_op() {
        sum += f(op);
    }
    sum
}

/// Instructions carried by the op streams behind one repetition's
/// delivered reports: the numerator of `sim_mips`. It depends on the
/// inputs alone, so no simulator change can move it.
pub fn census(inputs: &Inputs) -> u64 {
    let per_report_set: u64 = runs(inputs)
        .iter()
        .flat_map(|run| run.streams(None))
        .map(|mut s| drain(s.as_mut(), op_instructions))
        .sum();
    match inputs.workload {
        // Nothing is simulated in the body: the figure is the rate at
        // which finished simulation results are delivered.
        Workload::ServedWarm => per_report_set * inputs.warm_submits().1 as u64,
        _ => per_report_set,
    }
}

/// What the traced child hands back.
#[derive(Debug)]
pub struct TracedOut {
    pub body_start: SystemTime,
    /// Wall of the traced body and the host-speed yardstick around it,
    /// for `experiments.trace_overhead_pct`.
    pub body_wall_s: f64,
    pub host_ns_per_round: f64,
    pub digest: Digest,
    pub errors_pct: Vec<f64>,
    /// Per-layer values by metric name (only the ones this child can
    /// know; the parent adds those that need other children).
    pub values: Vec<(&'static str, f64)>,
    pub failures: Vec<String>,
}

struct Ctx<'a> {
    inputs: &'a Inputs,
    params: StudyParams,
    tmp: &'a Path,
    tr: Tracer,
    values: Vec<(&'static str, f64)>,
    checks: Checks,
}

impl Ctx<'_> {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            crate::metrics::PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a declared per-layer metric"
        );
        self.values.push((name, value));
    }

    fn check_stack(&mut self, label: &str, stack: &SpeedupStack) {
        let n = stack.num_threads() as f64;
        let parts_ok = stack
            .overheads()
            .iter()
            .map(|(_, v)| v)
            .chain([stack.positive_interference(), stack.base_speedup()])
            .all(|v| v.is_finite() && v >= 0.0);
        let sum = stack.base_speedup() + stack.total_overhead();
        self.checks.require(
            parts_ok && (sum - n).abs() < 1e-6 && stack.is_valid(),
            || format!("{label}: stack sums to {sum}, not {n}, or has a bad component"),
        );
    }
}

/// What a traced body delivered.
struct Delivered {
    body_start: SystemTime,
    wall_s: f64,
    host_ns_per_round: f64,
    /// `(study, JSON report)` in delivery order.
    reports: Vec<(&'static str, String)>,
    digest: Digest,
    errors_pct: Vec<f64>,
    /// A live warm server, where the workload has one.
    served: Option<Served>,
}

struct Served {
    server: service::ServerHandle,
    client: Client,
    summaries: Vec<PointSummary>,
    spill: std::path::PathBuf,
}

pub fn run(inputs: &Inputs, tmp: &Path, trace_file: &Path) -> TracedOut {
    let mut cx = Ctx {
        inputs,
        params: inputs.params(),
        tmp,
        tr: Tracer::new(),
        values: Vec::new(),
        checks: Checks::default(),
    };
    let delivered = match traced_body(&mut cx) {
        Ok(d) => d,
        Err(e) => {
            cx.checks.0.push(e);
            return TracedOut {
                body_start: SystemTime::now(),
                body_wall_s: 0.0,
                host_ns_per_round: f64::NAN,
                digest: Digest::new(),
                errors_pct: Vec::new(),
                values: cx.values,
                failures: cx.checks.0,
            };
        }
    };
    let Delivered {
        body_start,
        wall_s,
        host_ns_per_round,
        reports,
        digest,
        mut errors_pct,
        served,
    } = delivered;

    cx.set("experiments.study_s", wall_s);
    emit_and_parse(&mut cx, &reports);
    if let Some(served) = served {
        if let Err(e) = service_layer(&mut cx, served) {
            cx.checks.0.push(e);
        }
    }
    match units_pass(&mut cx, &reports) {
        Ok(Some(twin_errors)) if inputs.workload == Workload::TraceReplay => {
            errors_pct = twin_errors;
        }
        Ok(_) => {}
        Err(e) => cx.checks.0.push(e),
    }
    if inputs.workload.simulates() {
        if let Err(e) = run_passes(&mut cx) {
            cx.checks.0.push(e);
        }
        component_kernels(&mut cx);
    }

    if let Err(e) = std::fs::write(trace_file, cx.tr.to_json(inputs.workload.name())) {
        cx.checks
            .0
            .push(format!("{}: trace not written: {e}", trace_file.display()));
    }
    TracedOut {
        body_start,
        body_wall_s: wall_s,
        host_ns_per_round,
        digest,
        errors_pct,
        values: cx.values,
        failures: cx.checks.0,
    }
}

// --- the body, traced ---------------------------------------------------

fn traced_body(cx: &mut Ctx) -> Result<Delivered, String> {
    match cx.inputs.workload {
        Workload::Fig4Grid => local_body(cx, &["fig4"], false, None),
        Workload::ManycoreSweep => local_body(cx, &["scaling"], false, None),
        Workload::FigureSuiteSmall => {
            let all: Vec<&'static str> = registry().iter().map(|s| s.name()).collect();
            local_body(cx, &all, true, None)
        }
        Workload::TraceReplay => {
            let path = cx.tmp.join("fig6.sstrace").to_string_lossy().into_owned();
            let params = cx.params.clone();
            cx.tr
                .span("workloads.trace_capture", |_| capture_fig6(&params, &path))?;
            let capture_s = cx.tr.total_s("workloads.trace_capture");
            cx.set("workloads.trace_capture_s", capture_s);
            local_body(cx, &["fig6"], false, Some(replay_params(&params, &path)))
        }
        Workload::ServedPaper | Workload::ServedWarm => served_body(cx),
    }
}

/// The local workloads' body: each study run (and emitted) under spans.
/// `all_formats` emits text, JSON and CSV inside the body, as
/// `figure_suite_small` does; otherwise JSON only.
fn local_body(
    cx: &mut Ctx,
    studies: &[&'static str],
    all_formats: bool,
    params_override: Option<StudyParams>,
) -> Result<Delivered, String> {
    let params = params_override.unwrap_or_else(|| cx.params.clone());
    let mut body_start = SystemTime::now();
    let mut digest = Digest::new();
    let tr = &mut cx.tr;
    let (reports, yardstick) = flanked(|| {
        body_start = SystemTime::now();
        tr.span("experiments.study", |tr| {
            let mut reports = Vec::new();
            for &name in studies {
                let study =
                    find_study(name).ok_or_else(|| format!("{name}: not in the registry"))?;
                let span = if decompose(name, &params).is_some() {
                    "experiments.run_grid"
                } else {
                    "experiments.run_other"
                };
                let report = tr
                    .span(span, |_| study.run(&params))
                    .map_err(|e| format!("{name}: {e}"))?;
                if all_formats {
                    digest.update(tr.span("core.emit_text", |_| report.to_text()).as_bytes());
                }
                let json = tr.span("core.emit_json", |_| report.to_json());
                digest.update(json.as_bytes());
                if all_formats {
                    digest.update(tr.span("core.emit_csv", |_| report.to_csv()).as_bytes());
                }
                reports.push((name, json, report));
            }
            Ok::<_, String>(reports)
        })
    });
    let reports = reports?;
    let wall_s = cx.tr.total_s("experiments.study");
    if !all_formats {
        // The body emits JSON only; the other emitters are still timed,
        // outside it.
        for (_, _, report) in &reports {
            cx.tr
                .span("core.emit_text", |_| black_box(report.to_text()));
            cx.tr.span("core.emit_csv", |_| black_box(report.to_csv()));
        }
    }
    let mut errors_pct = Vec::new();
    for (name, json, _) in &reports {
        // Same rule as the untraced repetition: fig4's points where the
        // suite has several populations.
        if studies.len() == 1 || *name == "fig4" {
            if let Ok(doc) = parse(json) {
                errors_pct.extend(validation_errors_pct(&doc));
            }
        }
    }
    Ok(Delivered {
        body_start,
        wall_s,
        host_ns_per_round: yardstick.ns_per_round,
        reports: reports.into_iter().map(|(n, j, _)| (n, j)).collect(),
        digest,
        errors_pct,
        served: None,
    })
}

/// One submit through the low-level client pair, a span per phase.
/// Returns the assembled report and the streamed summaries.
fn traced_submit(
    tr: &mut Tracer,
    client: &mut Client,
    study: &'static str,
    params: &StudyParams,
    frames: &mut u64,
    recomputed: &mut u64,
) -> Result<(Report, Vec<PointSummary>), String> {
    let grid = decompose(study, params).ok_or_else(|| format!("{study}: not a grid study"))?;
    let n = grid.n_points();
    let fail = |e: speedup_stacks::SimError| format!("submit {study}: {e}");
    tr.span("service.submit", |tr| {
        tr.span("service.accept", |_| {
            client.start_submit(study, params, None)
        })
        .map_err(fail)?;
        let mut slots: Vec<Option<PointSummary>> = vec![None; n];
        let mut take = |event: StreamEvent, slots: &mut Vec<Option<PointSummary>>| match event {
            StreamEvent::Point { index, summary, .. } => {
                slots[index] = Some(summary);
                Ok(false)
            }
            StreamEvent::Failed { index, reason, .. } => {
                Err(format!("{study}: point {index} failed: {reason}"))
            }
            StreamEvent::Done {
                computed, failed, ..
            } => {
                *recomputed += computed + failed;
                Ok(true)
            }
        };
        let first = tr
            .span("service.first_frame", |_| client.next_event(n))
            .map_err(fail)?;
        *frames += 1;
        let mut done = take(first, &mut slots)?;
        tr.span("service.stream", |_| {
            while !done {
                done = take(client.next_event(n).map_err(fail)?, &mut slots)?;
                *frames += 1;
            }
            Ok::<_, String>(())
        })?;
        let summaries: Vec<PointSummary> = slots.iter().flatten().cloned().collect();
        if summaries.len() != n {
            return Err(format!(
                "{study}: {} of {n} points streamed",
                summaries.len()
            ));
        }
        let report = tr.span("service.reassemble", |_| {
            grid.assemble(params, slots, Degraded::default(), None)
        });
        Ok((report, summaries))
    })
}

/// The served workloads' body over the low-level client, so that
/// handshake, accept, first frame and stream each get a span.
fn served_body(cx: &mut Ctx) -> Result<Delivered, String> {
    let inputs = cx.inputs;
    let params = cx.params.clone();
    let warm = inputs.workload == Workload::ServedWarm;
    let spill = cx.tmp.join("traced.spill");
    let server = if warm {
        let (server, reload_s) = warm_server(inputs, &spill)?;
        cx.set("service.spill_reload_s", reload_s);
        server
    } else {
        serve(&serve_config(service_workers(), &spill)).map_err(|e| format!("serve: {e}"))?
    };
    let addr = server.local_addr().to_string();

    // Warm-up submits on a connection of their own, so the body below
    // pays its own handshake exactly as the untraced body does on
    // `served_paper`, and never does on `served_warm`.
    let mut client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
    let (discarded, timed_submits) = if warm { inputs.warm_submits() } else { (0, 1) };
    for _ in 0..discarded {
        client
            .submit("fig4", &params)
            .map_err(|e| format!("warm-up submit: {e}"))?;
    }

    let mut body_start = SystemTime::now();
    let mut frames = 0u64;
    let mut recomputed = 0u64;
    let mut digest = Digest::new();
    let mut reports = Vec::new();
    let mut summaries = Vec::new();
    let tr = &mut cx.tr;
    let (outcome, yardstick) = flanked(|| {
        body_start = SystemTime::now();
        tr.span("experiments.study", |tr| {
            if !warm {
                client = tr
                    .span("service.handshake", |_| Client::connect(&addr))
                    .map_err(|e| format!("connect: {e}"))?;
            }
            for round in 0..timed_submits {
                for &study in inputs.served_studies() {
                    let (report, streamed) = traced_submit(
                        tr,
                        &mut client,
                        study,
                        &params,
                        &mut frames,
                        &mut recomputed,
                    )?;
                    // Same sampling as the untraced body on `served_warm`.
                    if !warm || round % 100 == 0 || round + 1 == timed_submits {
                        let json = tr.span("core.emit_json", |_| report.to_json());
                        if !warm || round == 0 {
                            digest.update(json.as_bytes());
                            reports.push((study, json));
                        } else if json != reports[0].1 {
                            return Err(format!("warm submit {round} changed the report"));
                        }
                    }
                    if summaries.is_empty() {
                        summaries = streamed;
                    }
                }
            }
            Ok::<_, String>(())
        })
    });
    outcome?;
    let wall_s = cx.tr.total_s("experiments.study");

    if warm {
        cx.checks.require(recomputed == 0, || {
            format!("warm submits computed or failed {recomputed} points")
        });
        // Its own handshake, outside the body.
        let probe = cx.tr.span("service.handshake", |_| Client::connect(&addr));
        drop(probe);
    }
    let per_submit = |cx: &Ctx, name: &str| median(&cx.tr.durations_s(name)) * 1e3;
    let (handshake, accept, first, stream) = (
        per_submit(cx, "service.handshake"),
        per_submit(cx, "service.accept"),
        per_submit(cx, "service.first_frame"),
        per_submit(cx, "service.stream"),
    );
    cx.set("service.handshake_ms", handshake);
    cx.set("service.accept_ms", accept);
    cx.set("service.first_frame_ms", first);
    cx.set("service.stream_ms", stream);
    cx.set("service.frames", frames as f64);
    let record_bytes: usize = summaries.iter().map(|s| s.to_record().len()).sum();
    cx.set(
        "service.record_bytes",
        (record_bytes * if warm { timed_submits } else { 1 }) as f64,
    );

    let mut errors_pct = Vec::new();
    for (study, json) in &reports {
        match parse(json) {
            Ok(doc) => errors_pct.extend(validation_errors_pct(&doc)),
            Err(e) => cx
                .checks
                .0
                .push(format!("{study}: served JSON does not parse: {e}")),
        }
        let local = run_study(study, &params)?.to_json();
        cx.checks.require(local == *json, || {
            format!("{study}: served report differs from the local run")
        });
    }
    Ok(Delivered {
        body_start,
        wall_s,
        host_ns_per_round: yardstick.ns_per_round,
        reports,
        digest,
        errors_pct,
        served: Some(Served {
            server,
            client,
            summaries,
            spill,
        }),
    })
}

// --- core: emitters and parser ------------------------------------------

fn emit_and_parse(cx: &mut Ctx, reports: &[(&'static str, String)]) {
    for (study, json) in reports {
        let parsed = cx.tr.span("core.json_parse", |_| parse(json).is_ok());
        cx.checks
            .require(parsed, || format!("{study}: emitted JSON does not parse"));
    }
    for (metric, span) in [
        ("core.emit_text_s", "core.emit_text"),
        ("core.emit_json_s", "core.emit_json"),
        ("core.emit_csv_s", "core.emit_csv"),
        ("core.json_parse_s", "core.json_parse"),
    ] {
        let total = cx.tr.total_s(span);
        cx.set(metric, total);
    }
    let bytes: usize = reports.iter().map(|r| r.1.len()).sum();
    cx.set("core.report_json_bytes", bytes as f64);
}

// --- service: the data plane in pieces ----------------------------------

fn service_layer(cx: &mut Ctx, served: Served) -> Result<(), String> {
    let Served {
        server,
        mut client,
        summaries,
        spill,
    } = served;
    let params = cx.params.clone();
    let study = cx.inputs.served_studies()[0];
    let kernel_rounds = if cx.inputs.smoke { 20 } else { 200 };

    let status = client.status().map_err(|e| format!("status: {e}"))?;
    cx.set("service.points_computed", status.points_computed as f64);
    cx.set("service.points_cached", status.points_cached as f64);
    cx.set("service.cache_hits", status.cache_hits as f64);
    cx.set("service.cache_misses", status.cache_misses as f64);

    // The cache now holds every unit, so both of these are warm: the
    // same request over the socket and straight into the scheduler.
    let mut wire_ms = Vec::with_capacity(kernel_rounds);
    let mut sched_ms = Vec::with_capacity(kernel_rounds);
    for _ in 0..kernel_rounds {
        let (outcome, secs) = cx
            .tr
            .timed("service.warm_submit", || client.submit(study, &params));
        outcome.map_err(|e| format!("warm submit: {e}"))?;
        wire_ms.push(secs * 1e3);
        let grid = decompose(study, &params).ok_or_else(|| format!("{study}: not a grid"))?;
        let (drained, secs) = cx.tr.timed("service.sched_submit", || {
            let (_, rx) = server
                .scheduler()
                .submit(grid, params.clone())
                .map_err(|e| format!("scheduler submit: {e}"))?;
            drain_events(&rx).ok_or_else(|| "scheduler stream ended early".to_string())
        });
        let drained = drained?;
        if drained.computed != 0 || drained.failed != 0 {
            return Err("a warm scheduler submit recomputed points".to_string());
        }
        sched_ms.push(secs * 1e3);
    }
    cx.set("service.sched_submit_ms", median(&sched_ms));
    cx.set(
        "service.wire_overhead_ms",
        median(&wire_ms) - median(&sched_ms),
    );

    drop(client);
    server.stop();
    drop(server);
    let spill_bytes = std::fs::metadata(&spill).map_or(0, |m| m.len());
    cx.set("service.spill_bytes", spill_bytes as f64);
    if cx.inputs.workload == Workload::ServedPaper {
        // `served_warm` measured its reload in set-up; here the spill
        // the cold batch just wrote is loaded once.
        let config = serve_config(service_workers(), &spill);
        let (reloaded, secs) = cx.tr.timed("service.spill_reload", || serve(&config));
        reloaded.map_err(|e| format!("serve (reload): {e}"))?.stop();
        cx.set("service.spill_reload_s", secs);
    }

    // Record codec and cache, on this workload's own records.
    let records: Vec<String> = summaries.iter().map(PointSummary::to_record).collect();
    let reps = kernel_rounds.div_ceil(10);
    let (_, secs) = cx.tr.timed("service.record_encode", || {
        for _ in 0..reps {
            for s in &summaries {
                black_box(s.to_record());
            }
        }
    });
    cx.set(
        "service.record_encode_us",
        secs * 1e6 / (reps * summaries.len()) as f64,
    );
    let (decoded, secs) = cx.tr.timed("service.record_decode", || {
        let mut decoded = 0usize;
        for _ in 0..reps {
            decoded += records.iter().filter_map(|r| record_to_summary(r)).count();
        }
        decoded
    });
    cx.checks.require(decoded == reps * records.len(), || {
        "a streamed record did not decode".to_string()
    });
    cx.set(
        "service.record_decode_us",
        secs * 1e6 / decoded.max(1) as f64,
    );

    let entries = kernel_rounds * 50;
    let mut rng = SplitMix64::new(cx.inputs.seed);
    let keys: Vec<String> = (0..entries)
        .map(|i| format!("point:bench-{:016x}:{i}", rng.next_u64()))
        .collect();
    let cache = service::cache::Cache::new(64 * 1024 * 1024);
    let (_, secs) = cx.tr.timed("service.cache_put", || {
        for (key, value) in keys.iter().zip(records.iter().cycle()) {
            cache.put(key, value);
        }
    });
    cx.set("service.cache_put_ns", secs * 1e9 / entries as f64);
    let (hits, secs) = cx.tr.timed("service.cache_get", || {
        keys.iter().filter(|k| cache.get(k).is_some()).count()
    });
    cx.checks.require(hits == entries, || {
        format!("cache kernel: {hits} of {entries} hits")
    });
    cx.set("service.cache_get_ns", secs * 1e9 / entries as f64);

    // Units a batch recomputes although an earlier unit of the same
    // batch had the same (benchmark, threads, scale, LLC) identity —
    // cache keys carry the study name, so the service cannot see it.
    let mut seen = std::collections::BTreeSet::new();
    let units = runs(cx.inputs);
    let repeats = units
        .iter()
        .filter(|r| match &r.source {
            Source::Profile(p) => !seen.insert((p.name, p.suite.label(), r.threads)),
            _ => false,
        })
        .count();
    cx.set(
        "service.repeat_unit_share",
        repeats as f64 / units.len() as f64,
    );
    Ok(())
}

// --- experiments: the grid studies unit by unit --------------------------

/// Drives every grid study of the workload through the decomposition
/// API, a span per unit, and checks the assembled bytes against what
/// the body delivered. Returns the units' validation errors.
fn units_pass(
    cx: &mut Ctx,
    reports: &[(&'static str, String)],
) -> Result<Option<Vec<f64>>, String> {
    let params = cx.params.clone();
    let mut all_points: Vec<PointSummary> = Vec::new();
    let mut n_units = 0usize;
    for (study, delivered_json) in reports {
        let Some(grid) = decompose(study, &params) else {
            continue;
        };
        let mut refs: Vec<(u64, u64)> = Vec::new();
        let mut points = Vec::with_capacity(grid.n_points());
        for i in 0..grid.n_points() {
            let (pi, _) = grid.point(i);
            while refs.len() <= pi {
                let next = refs.len();
                refs.push(cx.tr.span("experiments.unit_ref", |_| {
                    grid.compute_reference(&params, next)
                })?);
            }
            points.push(cx.tr.span("experiments.unit_point", |_| {
                grid.compute_point(&params, i, refs[pi])
            })?);
        }
        n_units += refs.len() + points.len();
        let slots = points.iter().cloned().map(Some).collect();
        let report = cx.tr.span("experiments.assemble", |_| {
            grid.assemble(&params, slots, Degraded::default(), None)
        });
        cx.checks.require(report.to_json() == *delivered_json, || {
            format!("{study}: units assembled by hand differ from the delivered report")
        });
        for p in &points {
            cx.check_stack(&format!("{study} {} x{}", p.name, p.threads), &p.stack);
        }
        all_points.extend(points);
    }
    if n_units == 0 {
        return Ok(None);
    }
    let unit_ms: Vec<f64> = ["experiments.unit_ref", "experiments.unit_point"]
        .iter()
        .flat_map(|name| cx.tr.durations_s(name))
        .map(|s| s * 1e3)
        .collect();
    let (ref_s, point_s, assemble_s) = (
        cx.tr.total_s("experiments.unit_ref"),
        cx.tr.total_s("experiments.unit_point"),
        cx.tr.total_s("experiments.assemble"),
    );
    cx.set("experiments.units", n_units as f64);
    cx.set("experiments.unit_ref_s", ref_s);
    cx.set("experiments.unit_point_s", point_s);
    cx.set("experiments.unit_p50_ms", median(&unit_ms));
    cx.set(
        "experiments.unit_max_ms",
        unit_ms.iter().copied().fold(0.0, f64::max),
    );
    cx.set("experiments.assemble_s", assemble_s);
    // What `Study::run` spends around its units: only meaningful where
    // the body ran the same units serially, locally, from generators.
    if matches!(
        cx.inputs.workload,
        Workload::Fig4Grid | Workload::FigureSuiteSmall
    ) {
        let driver = cx.tr.total_s("experiments.run_grid") - ref_s - point_s - assemble_s;
        cx.set("experiments.driver_overhead_s", driver);
    }
    Ok(Some(summary_errors_pct(&all_points)))
}

// --- workloads, memsim, cmpsim: one pass each over the same runs ----------

#[derive(Default)]
struct RunCounts {
    ops: u64,
    mem_ops: u64,
    accesses: u64,
    served_l1: u64,
    served_llc: u64,
    served_dram: u64,
    invalidations: u64,
    coherency_misses: u64,
    events: u64,
    instructions: u64,
    sim_cycles: u64,
    llc_accesses: u64,
    llc_misses: u64,
    wait_episodes: u64,
}

/// Replays a run's loads and stores through a fresh hierarchy: threads
/// round-robin in 64-op slices, ten cycles apart. The engine interleaves
/// by simulated time instead, so this order is a deterministic proxy —
/// the same accesses, not the same sequence.
fn replay_memory(mem: &mut MemoryHierarchy, per_thread: &[Vec<(u64, bool)>], c: &mut RunCounts) {
    const SLICE: usize = 64;
    let mut cursors = vec![0usize; per_thread.len()];
    let mut now = 0u64;
    let mut live = true;
    while live {
        live = false;
        for (core, ops) in per_thread.iter().enumerate() {
            let from = cursors[core];
            let to = (from + SLICE).min(ops.len());
            for &(line, write) in &ops[from..to] {
                now += 10;
                let ev = mem.access(core, line, write, now);
                match ev.level {
                    ServedBy::L1 => c.served_l1 += 1,
                    ServedBy::Llc => c.served_llc += 1,
                    ServedBy::Dram => c.served_dram += 1,
                }
                c.invalidations += u64::from(ev.invalidations_sent);
                c.coherency_misses += u64::from(ev.coherency_miss);
            }
            c.accesses += (to - from) as u64;
            cursors[core] = to;
            live |= to < ops.len();
        }
    }
}

fn run_passes(cx: &mut Ctx) -> Result<(), String> {
    let replayed = cx.inputs.workload == Workload::TraceReplay;
    let reader = if replayed {
        let path = cx.tmp.join("fig6.sstrace");
        let opened = cx
            .tr
            .span("workloads.trace_open", |_| TraceReader::open(&path, None))
            .map_err(|e| format!("trace open: {e}"))?;
        let open_s = cx.tr.total_s("workloads.trace_open");
        cx.set("workloads.trace_open_s", open_s);
        let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        cx.set("workloads.trace_bytes", bytes as f64);
        Some(opened)
    } else {
        None
    };
    let specs: Vec<RunSpec> = match &reader {
        Some(r) => trace_runs(r),
        None => runs(cx.inputs),
    };
    let source_span = if replayed {
        "workloads.trace_decode"
    } else {
        "workloads.gen"
    };

    let mut c = RunCounts::default();
    for run in &specs {
        // workloads: the op source alone, no simulation.
        let mut streams = run.streams(reader.as_ref());
        let (ops, mem_ops) = cx.tr.span(source_span, |_| {
            let mut mem_ops = 0u64;
            let ops: u64 = streams
                .iter_mut()
                .map(|s| {
                    drain(s.as_mut(), |op| {
                        mem_ops += u64::from(matches!(op, Op::Load(_) | Op::Store(_)));
                        1
                    })
                })
                .sum();
            (ops, mem_ops)
        });
        c.ops += ops;
        c.mem_ops += mem_ops;

        // The same ops again, kept this time (not timed: the vectors
        // only exist so the next two passes exclude the op source).
        let per_thread: Vec<Vec<Op>> = run
            .streams(reader.as_ref())
            .into_iter()
            .map(|mut s| std::iter::from_fn(|| s.next_op()).collect())
            .collect();
        let accesses: Vec<Vec<(u64, bool)>> = per_thread
            .iter()
            .map(|ops| {
                ops.iter()
                    .filter_map(|op| match *op {
                        Op::Load(line) => Some((line, false)),
                        Op::Store(line) => Some((line, true)),
                        _ => None,
                    })
                    .collect()
            })
            .collect();

        // memsim: the access path alone.
        let mut mem = cx.tr.span("memsim.new", |_| {
            MemoryHierarchy::new(&run.mem, run.threads)
        });
        cx.tr.span("memsim.access", |_| {
            replay_memory(&mut mem, &accesses, &mut c)
        });
        drop(mem);

        // cmpsim: the engine over pre-materialised ops.
        let machine = MachineConfig {
            mem: run.mem,
            ..MachineConfig::with_cores(run.threads)
        };
        let streams: Vec<Box<dyn OpStream>> = per_thread
            .into_iter()
            .map(|ops| Box::new(VecStream::new(ops)) as Box<dyn OpStream>)
            .collect();
        let sim = cx
            .tr
            .span("cmpsim.new", |_| Simulation::new(machine, streams));
        let result = cx
            .tr
            .span("cmpsim.run", |_| sim.run())
            .map_err(|e| format!("{} x{}: {e}", run.name, run.threads))?;
        c.events += result.events;
        c.instructions += result.total_instructions();
        c.sim_cycles += result.tp_cycles;
        for t in &result.truth {
            c.llc_accesses += t.llc_accesses;
            c.llc_misses += t.llc_misses;
            c.wait_episodes += t.wait_episodes;
        }

        // core: counters -> stack.
        let stack = cx
            .tr
            .span("core.stack", |_| result.stack(&AccountingConfig::default()))
            .map_err(|e| format!("{} x{}: {e}", run.name, run.threads))?;
        cx.check_stack(&format!("{} x{}", run.name, run.threads), &stack);
    }

    let source_s = cx.tr.total_s(source_span);
    if replayed {
        cx.set("workloads.trace_decode_s", source_s);
        cx.set("workloads.trace_ops", c.ops as f64);
    } else {
        cx.set("workloads.gen_s", source_s);
        cx.set("workloads.gen_ops", c.ops as f64);
        cx.set("workloads.gen_mem_ops", c.mem_ops as f64);
        cx.set("workloads.gen_mops_per_s", c.ops as f64 / source_s / 1e6);
    }
    let access_s = cx.tr.total_s("memsim.access");
    let simulate_s = cx.tr.total_s("cmpsim.run");
    let new_ms = median(&cx.tr.durations_s("cmpsim.new")) * 1e3;
    let stack_s = cx.tr.total_s("core.stack");
    cx.set("memsim.access_s", access_s);
    cx.set("memsim.accesses", c.accesses as f64);
    cx.set(
        "memsim.access_ns",
        access_s * 1e9 / c.accesses.max(1) as f64,
    );
    cx.set("memsim.served_l1", c.served_l1 as f64);
    cx.set("memsim.served_llc", c.served_llc as f64);
    cx.set("memsim.served_dram", c.served_dram as f64);
    cx.set("memsim.invalidations", c.invalidations as f64);
    cx.set("memsim.coherency_misses", c.coherency_misses as f64);
    cx.set("cmpsim.new_ms", new_ms);
    cx.set("cmpsim.simulate_s", simulate_s);
    // Derived: the engine's share once the access path's proxy time is
    // taken out. The two passes order accesses differently, so this is
    // an estimate, and is marked as one wherever it is printed.
    cx.set("cmpsim.self_s", simulate_s - access_s);
    cx.set("cmpsim.events", c.events as f64);
    cx.set("cmpsim.events_per_s", c.events as f64 / simulate_s / 1e6);
    cx.set("cmpsim.instructions", c.instructions as f64);
    cx.set("cmpsim.sim_cycles", c.sim_cycles as f64);
    cx.set("cmpsim.llc_accesses", c.llc_accesses as f64);
    cx.set("cmpsim.llc_misses", c.llc_misses as f64);
    cx.set("cmpsim.wait_episodes", c.wait_episodes as f64);
    cx.set("core.stack_s", stack_s);
    Ok(())
}

// --- memsim: construction cost and component rates ------------------------

fn workload_mem(workload: Workload) -> MemConfig {
    match workload {
        Workload::ManycoreSweep => manycore_mem(),
        _ => MemConfig::default(),
    }
}

/// A 64-bit LCG over a SplitMix-expanded seed: the synthetic address
/// stream of the component kernels.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 11
    }
}

fn component_kernels(cx: &mut Ctx) {
    let mem = workload_mem(cx.inputs.workload);
    for (metric, cores, reps) in [
        ("memsim.new_ms_1c", 1, 9),
        ("memsim.new_ms_16c", 16, 9),
        ("memsim.new_ms_128c", 128, 5),
    ] {
        let ms: Vec<f64> = (0..reps)
            .map(|_| {
                cx.tr
                    .timed("memsim.new_kernel", || MemoryHierarchy::new(&mem, cores))
                    .1
                    * 1e3
            })
            .collect();
        cx.set(metric, median(&ms));
    }

    // The three `micro` bench kernels, at the workload's LLC geometry
    // (16 ways on the default machine, 32 on the many-core one).
    let n: u64 = if cx.inputs.smoke { 50_000 } else { 500_000 };
    let mut seeds = SplitMix64::new(cx.inputs.seed);
    let rate = |secs: f64| n as f64 / secs / 1e6;

    let mut cache: Cache<()> = Cache::new(mem.llc);
    let mut lcg = Lcg(seeds.next_u64());
    let working_set = 4 * mem.llc.lines() as u64;
    let (_, secs) = cx.tr.timed("memsim.cache_kernel", || {
        for _ in 0..n {
            let i = lcg.next();
            black_box(cache.access(i % working_set, i.is_multiple_of(3), ()));
        }
    });
    cx.set("memsim.cache_maccess_per_s", rate(secs));

    let mut atd = Atd::new(mem.llc, mem.atd_sample_period);
    let mut lcg = Lcg(seeds.next_u64());
    let (_, secs) = cx.tr.timed("memsim.atd_kernel", || {
        for _ in 0..n {
            black_box(atd.access(lcg.next() % working_set, false));
        }
    });
    cx.set("memsim.atd_maccess_per_s", rate(secs));

    let mut dram = Dram::new(DramConfig::default(), 16);
    let mut lcg = Lcg(seeds.next_u64());
    let (_, secs) = cx.tr.timed("memsim.dram_kernel", || {
        let mut now = 0u64;
        for _ in 0..n {
            now += 50;
            let i = lcg.next();
            black_box(dram.access((i % 16) as usize, i % (1 << 24), now));
        }
    });
    cx.set("memsim.dram_maccess_per_s", rate(secs));
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{find, streams_for, Suite};

    #[test]
    fn op_instructions_match_the_engine_when_nothing_spins() {
        // One thread: no contended lock, no barrier wait, no spin
        // instructions — the engine's count is the streams' count.
        for (name, suite) in [("cholesky", Suite::Splash2), ("lud", Suite::Rodinia)] {
            let p = experiments::scaled_profile(&find(name, suite).unwrap(), 0.02);
            let census: u64 = streams_for(&p, 1)
                .iter_mut()
                .map(|s| drain(s.as_mut(), op_instructions))
                .sum();
            let result = Simulation::new(MachineConfig::with_cores(1), streams_for(&p, 1))
                .run()
                .expect("run");
            assert_eq!(census, result.total_instructions(), "{name}");
        }
    }

    #[test]
    fn memory_replay_visits_every_access_once_in_slices() {
        let per_thread = vec![
            (0..150).map(|i| (i, false)).collect::<Vec<_>>(),
            (1_000..1_010).map(|i| (i, true)).collect(),
            Vec::new(),
        ];
        let mut mem = MemoryHierarchy::new(&MemConfig::default(), 3);
        let mut c = RunCounts::default();
        replay_memory(&mut mem, &per_thread, &mut c);
        assert_eq!(c.accesses, 160);
        assert_eq!(c.served_l1 + c.served_llc + c.served_dram, 160);
        // Distinct cold lines: every one of them comes from DRAM.
        assert_eq!(c.served_dram, 160);
    }

    #[test]
    fn census_scales_with_the_inputs() {
        let small = Inputs::new(Workload::TraceReplay, 0, true);
        let n = census(&small);
        assert!(n > 0);
        assert_eq!(n, census(&small), "same seed, same census");
        let warm = Inputs::new(Workload::ServedWarm, 0, true);
        assert_eq!(census(&warm) % warm.warm_submits().1 as u64, 0);
    }
}
