//! One untraced repetition of a workload: set-up, the timed body, and
//! the correctness checks on what the body emitted.
//!
//! Tracing is off here; the end-to-end metrics come from these runs.
//! Only the body sits between the two clock reads. Everything the
//! checks need (parsing, golden comparison) happens after the second
//! one; the local twins of served reports are computed once per run, by
//! the census child.

use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime};

use experiments::decompose::decompose;
use experiments::{
    find_study, registry, JournalSpec, Parallelism, PointSummary, StudyParams, TraceSpec,
};
use service::{serve, Client, ServeConfig};
use speedup_stacks::report::json::parse;
use speedup_stacks::report::Degraded;

use crate::hostspeed;
use crate::workload::{service_workers, validation_errors_pct, Digest, Inputs, Workload};

/// A body variant measured for a derived per-layer ratio. `Plain` is
/// the workload as declared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Plain,
    /// `Parallelism::Workers(2)` instead of serial.
    Par2,
    /// Journaled body, then a resume over the complete journal.
    Journal,
    /// One `studyd` worker instead of `min(2, nproc)`.
    Workers1,
}

impl Variant {
    pub fn from_name(name: &str) -> Option<Variant> {
        Some(match name {
            "plain" => Variant::Plain,
            "par2" => Variant::Par2,
            "journal" => Variant::Journal,
            "workers1" => Variant::Workers1,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Variant::Plain => "plain",
            Variant::Par2 => "par2",
            Variant::Journal => "journal",
            Variant::Workers1 => "workers1",
        }
    }
}

/// What one repetition measured and found.
#[derive(Debug)]
pub struct RepOut {
    pub timed: Timed,
    /// Wall of the resume body (journal variant only).
    pub resume_wall_s: Option<f64>,
    /// Latency of each study request of the body.
    pub requests_ms: Vec<f64>,
    pub digest: Digest,
    /// Eq. 6 errors, in percent, of every validation point delivered.
    pub errors_pct: Vec<f64>,
    /// Operations attempted and failed (an operation is the repetition,
    /// or one submit on `served_warm`).
    pub attempted: usize,
    pub failed: usize,
    /// One line per failed check.
    pub failures: Vec<String>,
}

/// The clock reads around one timed body.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Wall-clock instant the body started (for `setup_s`, which is
    /// measured from the moment the parent spawned this process).
    pub body_start: SystemTime,
    pub wall_s: f64,
    /// What the host-speed yardstick cost per round around the body,
    /// and the seconds it took before the body (not set-up time).
    pub host_ns_per_round: f64,
    pub yardstick_s: f64,
}

impl RepOut {
    /// A repetition that is one operation and has failed no check yet.
    fn one(timed: Timed, requests_ms: Vec<f64>, digest: Digest, errors_pct: Vec<f64>) -> Self {
        RepOut {
            timed,
            resume_wall_s: None,
            requests_ms,
            digest,
            errors_pct,
            attempted: 1,
            failed: 0,
            failures: Vec::new(),
        }
    }
}

/// Runs `body` between the two clock reads, with the host-speed
/// yardstick sampled right before the first and right after the second.
fn timed<T>(body: impl FnOnce() -> T) -> (T, Timed) {
    let ((out, body_start, wall_s), yardstick) = hostspeed::flanked(|| {
        let body_start = SystemTime::now();
        let t0 = Instant::now();
        let out = body();
        (out, body_start, t0.elapsed().as_secs_f64())
    });
    let timed = Timed {
        body_start,
        wall_s,
        host_ns_per_round: yardstick.ns_per_round,
        yardstick_s: yardstick.before_s,
    };
    (out, timed)
}

/// Collects failed checks; a child with any has failed an operation.
#[derive(Default)]
pub struct Checks(pub Vec<String>);

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }

    /// Parses an emitted JSON report and collects its validation errors.
    fn parse_report(&mut self, study: &str, json: &str, errors: &mut Vec<f64>) {
        match parse(json) {
            Ok(doc) => errors.extend(validation_errors_pct(&doc)),
            Err(e) => self
                .0
                .push(format!("{study}: emitted JSON does not parse: {e}")),
        }
    }
}

fn golden_path(study: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../crates/experiments/tests/goldens")
        .join(format!("{study}.txt"))
}

pub fn run_study(study: &str, params: &StudyParams) -> Result<speedup_stacks::Report, String> {
    find_study(study)
        .ok_or_else(|| format!("{study}: not in the registry"))?
        .run(params)
        .map_err(|e| format!("{study}: {e}"))
}

/// Digest of the served studies' reports as local `Study::run` calls
/// emit them: what every served repetition's digest must equal.
pub fn local_digest(inputs: &Inputs) -> Result<Digest, String> {
    let mut digest = Digest::new();
    for study in inputs.served_studies() {
        digest.update(run_study(study, &inputs.params())?.to_json().as_bytes());
    }
    Ok(digest)
}

/// The generated twin of a grid study through the decomposition API:
/// the report bytes `Study::run` would emit, plus the point summaries
/// (which `Study::run` does not hand out).
pub fn grid_twin(study: &str, params: &StudyParams) -> Result<(String, Vec<PointSummary>), String> {
    let grid = decompose(study, params).ok_or_else(|| format!("{study}: not a grid study"))?;
    let mut refs: Vec<(u64, u64)> = Vec::new();
    let mut points = Vec::with_capacity(grid.n_points());
    for i in 0..grid.n_points() {
        let (pi, _) = grid.point(i);
        while refs.len() <= pi {
            refs.push(grid.compute_reference(params, refs.len())?);
        }
        points.push(grid.compute_point(params, i, refs[pi])?);
    }
    let report = grid.assemble(
        params,
        points.iter().cloned().map(Some).collect(),
        Degraded::default(),
        None,
    );
    Ok((report.to_json(), points))
}

/// Eq. 6 errors in percent of a set of point summaries.
pub fn summary_errors_pct(points: &[PointSummary]) -> Vec<f64> {
    points.iter().map(|p| p.error().abs() * 100.0).collect()
}

pub fn run(inputs: &Inputs, variant: Variant, tmp: &Path) -> RepOut {
    let mut checks = Checks::default();
    let outcome = match inputs.workload {
        Workload::Fig4Grid => single_study("fig4", inputs, variant, tmp, &mut checks),
        Workload::ManycoreSweep => single_study("scaling", inputs, variant, tmp, &mut checks),
        Workload::FigureSuiteSmall => figure_suite(inputs, &mut checks),
        Workload::TraceReplay => trace_replay(inputs, tmp, &mut checks),
        Workload::ServedPaper => served_paper(inputs, variant, tmp, &mut checks),
        Workload::ServedWarm => served_warm(inputs, tmp, &mut checks),
    };
    let mut out = outcome.unwrap_or_else(|e| {
        checks.0.push(e);
        let never_ran = Timed {
            body_start: SystemTime::now(),
            wall_s: 0.0,
            host_ns_per_round: f64::NAN,
            yardstick_s: 0.0,
        };
        RepOut {
            failed: 1,
            ..RepOut::one(never_ran, Vec::new(), Digest::new(), Vec::new())
        }
    });
    checks.require(!out.errors_pct.is_empty(), || {
        "no validation point found in the emitted reports".to_string()
    });
    if !checks.0.is_empty() {
        // A failed check fails the repetition; on `served_warm` it
        // fails at least one submit.
        out.failed = out.failed.max(1);
    }
    out.failures = checks.0;
    out
}

/// `fig4_grid` and `manycore_sweep`: one study, run and emitted as JSON.
fn single_study(
    study: &str,
    inputs: &Inputs,
    variant: Variant,
    tmp: &Path,
    checks: &mut Checks,
) -> Result<RepOut, String> {
    let journal = tmp.join("journal.ndjson").to_string_lossy().into_owned();
    let params = match variant {
        Variant::Par2 => StudyParams {
            parallelism: Parallelism::Workers(2),
            ..inputs.params()
        },
        Variant::Journal => StudyParams {
            journal: Some(JournalSpec {
                path: journal.clone(),
                resume: false,
            }),
            ..inputs.params()
        },
        _ => inputs.params(),
    };
    let body = |params: &StudyParams| run_study(study, params).map(|r| r.to_json());
    let (json, t) = timed(|| body(&params));
    let json = json?;

    let mut resume_wall_s = None;
    if variant == Variant::Journal {
        let resumed = StudyParams {
            journal: Some(JournalSpec {
                path: journal,
                resume: true,
            }),
            ..inputs.params()
        };
        let (again, tr) = timed(|| body(&resumed));
        checks.require(again? == json, || {
            format!("{study}: resumed report differs from the journaled one")
        });
        resume_wall_s = Some(tr.wall_s);
    }

    let mut errors_pct = Vec::new();
    checks.parse_report(study, &json, &mut errors_pct);
    Ok(RepOut {
        resume_wall_s,
        ..RepOut::one(
            t,
            vec![t.wall_s * 1e3],
            Digest::of(json.as_bytes()),
            errors_pct,
        )
    })
}

/// `figure_suite_small`: every registered study, in all three formats.
fn figure_suite(inputs: &Inputs, checks: &mut Checks) -> Result<RepOut, String> {
    let params = inputs.params();
    let (emitted, t) = timed(|| {
        let mut emitted = Vec::with_capacity(registry().len());
        for study in registry() {
            let t0 = Instant::now();
            let report = study
                .run(&params)
                .map_err(|e| format!("{}: {e}", study.name()))?;
            let formats = [report.to_text(), report.to_json(), report.to_csv()];
            emitted.push((study.name(), formats, t0.elapsed().as_secs_f64() * 1e3));
        }
        Ok::<_, String>(emitted)
    });
    let emitted = emitted?;

    let mut digest = Digest::new();
    let mut errors_pct = Vec::new();
    for (study, [text, json, csv], _) in &emitted {
        for bytes in [text, json, csv] {
            digest.update(bytes.as_bytes());
        }
        // Accuracy is fig4's at this scale; the many-core table would
        // mix a second error population into the same number.
        let mut found = Vec::new();
        checks.parse_report(study, json, &mut found);
        if *study == "fig4" {
            errors_pct = found;
        }
        if inputs.paper_exact() {
            // `repro` prints the text with `println!`: one more newline.
            let golden = std::fs::read_to_string(golden_path(study))
                .map_err(|e| format!("{study}: golden unreadable: {e}"))?;
            checks.require(format!("{text}\n") == golden, || {
                format!("{study}: text output differs from its golden")
            });
        }
    }
    let requests_ms = emitted.iter().map(|e| e.2).collect();
    Ok(RepOut::one(t, requests_ms, digest, errors_pct))
}

/// Captures the fig6 trace the replay body (and the traced child's
/// decode passes) read. Returns the capture's wall seconds.
pub fn capture_fig6(params: &StudyParams, path: &str) -> Result<f64, String> {
    let capture = StudyParams {
        trace: Some(TraceSpec {
            path: path.to_string(),
            replay: false,
        }),
        ..params.clone()
    };
    let t0 = Instant::now();
    run_study("fig6", &capture)?;
    Ok(t0.elapsed().as_secs_f64())
}

pub fn replay_params(params: &StudyParams, path: &str) -> StudyParams {
    StudyParams {
        trace: Some(TraceSpec {
            path: path.to_string(),
            replay: true,
        }),
        ..params.clone()
    }
}

/// `trace_replay`: fig6 with every op drawn from a trace captured in
/// set-up, checked against its generated twin.
fn trace_replay(inputs: &Inputs, tmp: &Path, checks: &mut Checks) -> Result<RepOut, String> {
    let params = inputs.params();
    let path = tmp.join("fig6.sstrace").to_string_lossy().into_owned();
    capture_fig6(&params, &path)?;
    let (twin_json, twin_points) = grid_twin("fig6", &params)?;
    let replay = replay_params(&params, &path);

    let (out, t) = timed(|| {
        let report = run_study("fig6", &replay)?;
        Ok::<_, String>((report.to_json(), report))
    });
    let (json, report) = out?;

    checks.require(json == twin_json, || {
        "replayed fig6 bytes differ from generated fig6 bytes".to_string()
    });
    let mut ignored = Vec::new();
    checks.parse_report("fig6", &json, &mut ignored);
    if inputs.paper_exact() {
        let text = report.to_text();
        let last = text.trim_end().lines().last().unwrap_or("");
        checks.require(last.starts_with("good scalers: 5 of 28"), || {
            format!("fig6 no longer ends with `good scalers: 5 of 28`: {last}")
        });
    }
    // fig6's report carries no estimate; the errors are those of the
    // generated twin the replay was just shown byte-identical to.
    let errors_pct = summary_errors_pct(&twin_points);
    Ok(RepOut::one(
        t,
        vec![t.wall_s * 1e3],
        Digest::of(json.as_bytes()),
        errors_pct,
    ))
}

pub fn serve_config(workers: usize, spill: &Path) -> ServeConfig {
    ServeConfig {
        workers,
        cache_spill: Some(spill.to_path_buf()),
        ..ServeConfig::default()
    }
}

/// `served_paper`: the paper's four grid figures, cold, through one
/// in-process `studyd`.
fn served_paper(
    inputs: &Inputs,
    variant: Variant,
    tmp: &Path,
    checks: &mut Checks,
) -> Result<RepOut, String> {
    let params = inputs.params();
    let workers = if variant == Variant::Workers1 {
        1
    } else {
        service_workers()
    };
    let server = serve(&serve_config(workers, &tmp.join("cold.spill")))
        .map_err(|e| format!("serve: {e}"))?;
    let addr = server.local_addr().to_string();

    let (served, t) = timed(|| {
        let mut client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
        let mut served = Vec::new();
        for study in inputs.served_studies() {
            let t0 = Instant::now();
            let outcome = client
                .submit(study, &params)
                .map_err(|e| format!("submit {study}: {e}"))?;
            let json = outcome.report.to_json();
            served.push((
                *study,
                json,
                outcome.failed,
                t0.elapsed().as_secs_f64() * 1e3,
            ));
        }
        Ok::<_, String>(served)
    });
    server.stop();
    let served = served?;

    let mut digest = Digest::new();
    let mut errors_pct = Vec::new();
    for (study, json, failed_points, _) in &served {
        digest.update(json.as_bytes());
        checks.require(*failed_points == 0, || {
            format!("{study}: {failed_points} served points failed")
        });
        checks.parse_report(study, json, &mut errors_pct);
    }
    let requests_ms = served.iter().map(|s| s.3).collect();
    Ok(RepOut::one(t, requests_ms, digest, errors_pct))
}

/// Fills a spill with the workload's grid through a first server, then
/// starts the server every warm submit talks to from that spill alone.
/// Returns the second server and the seconds its start (the reload)
/// took.
pub fn warm_server(inputs: &Inputs, spill: &Path) -> Result<(service::ServerHandle, f64), String> {
    let params = inputs.params();
    let config = serve_config(service_workers(), spill);
    {
        let filler = serve(&config).map_err(|e| format!("serve (fill): {e}"))?;
        let mut client = Client::connect(&filler.local_addr().to_string())
            .map_err(|e| format!("connect (fill): {e}"))?;
        for study in inputs.served_studies() {
            client
                .submit(study, &params)
                .map_err(|e| format!("cold fill {study}: {e}"))?;
        }
        drop(client);
        filler.stop();
    }
    let t0 = Instant::now();
    let server = serve(&config).map_err(|e| format!("serve (reload): {e}"))?;
    Ok((server, t0.elapsed().as_secs_f64()))
}

/// `served_warm`: warm resubmits of a grid the server holds entirely in
/// its reloaded cache.
fn served_warm(inputs: &Inputs, tmp: &Path, checks: &mut Checks) -> Result<RepOut, String> {
    let params = inputs.params();
    let (discarded, timed_submits) = inputs.warm_submits();
    let (server, _) = warm_server(inputs, &tmp.join("warm.spill"))?;
    let mut client =
        Client::connect(&server.local_addr().to_string()).map_err(|e| format!("connect: {e}"))?;
    let submit = |client: &mut Client| {
        client
            .submit("fig4", &params)
            .map_err(|e| format!("warm submit: {e}"))
    };
    for _ in 0..discarded {
        submit(&mut client)?;
    }

    let (out, t) = timed(|| {
        let mut latencies_ms = Vec::with_capacity(timed_submits);
        let mut recomputed = 0usize;
        let mut sampled = Vec::new();
        for i in 0..timed_submits {
            let t0 = Instant::now();
            let outcome = submit(&mut client)?;
            latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            if outcome.computed != 0 || outcome.failed != 0 {
                recomputed += 1;
            }
            // Emitting every report would time the harness, not the
            // service: every hundredth and the last are byte-checked.
            if i % 100 == 0 || i + 1 == timed_submits {
                sampled.push(outcome.report.to_json());
            }
        }
        Ok::<_, String>((latencies_ms, recomputed, sampled))
    });
    drop(client);
    server.stop();
    let (latencies_ms, recomputed, sampled) = out?;

    checks.require(recomputed == 0, || {
        format!("{recomputed} warm submits computed or failed points")
    });
    let served = sampled.last().map_or("", String::as_str);
    let strays = sampled.iter().filter(|json| *json != served).count();
    checks.require(strays == 0, || {
        format!("{strays} sampled warm reports differ from the last one")
    });
    let mut errors_pct = Vec::new();
    checks.parse_report("fig4", served, &mut errors_pct);
    Ok(RepOut {
        attempted: timed_submits,
        failed: recomputed,
        ..RepOut::one(t, latencies_ms, Digest::of(served.as_bytes()), errors_pct)
    })
}
