//! The parent side: spawns one child per repetition, interleaves the
//! workloads, and turns what the children print into metrics.

use std::process::{Command, Stdio};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use speedup_stacks::report::json::{parse, JsonValue};

use crate::body::Variant;
use crate::child::{ChildArgs, Job};
use crate::hostspeed::to_reference;
use crate::metrics::{is_host_time, Better, Metric, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, quartiles};
use crate::workload::{Inputs, Workload};

/// One untraced repetition, as the parent sees it.
#[derive(Debug, Clone)]
pub struct RepSample {
    pub wall_s: f64,
    /// Cost of the host-speed yardstick around the body.
    pub host_ns_per_round: f64,
    pub resume_wall_s: f64,
    pub setup_s: f64,
    pub peak_rss_mib: f64,
    pub cpu_s: f64,
    /// Parent-side spawn → exit.
    pub proc_wall_s: f64,
    pub digest: String,
    pub est_err_avg_pct: f64,
    pub est_err_max_pct: f64,
    pub requests_ms: Vec<f64>,
}

impl RepSample {
    /// The factor that scales this repetition's host times to the
    /// reference host speed.
    pub fn to_reference(&self) -> f64 {
        to_reference(self.host_ns_per_round)
    }
}

#[derive(Debug, Clone)]
pub struct TracedSample {
    pub wall_s: f64,
    pub host_ns_per_round: f64,
    pub digest: String,
    pub est_err_avg_pct: f64,
    pub values: Vec<(String, f64)>,
}

/// Everything measured for one workload.
#[derive(Debug)]
pub struct Collected {
    pub inputs: Inputs,
    pub instructions: Option<u64>,
    /// Digest of the served studies' reports as local runs emit them
    /// (from the census child; `None` until it ran).
    pub local_digest: Option<String>,
    pub reps: Vec<RepSample>,
    pub variants: Vec<(Variant, RepSample)>,
    /// Traced children: `run` makes several and reports each layer
    /// time's median, since one child sees one state of the host.
    pub traced: Vec<TracedSample>,
    /// Operations attempted and failed over every child of the workload.
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
}

/// Body variants that feed a derived per-layer ratio of the workload.
pub fn variants_of(workload: Workload) -> &'static [Variant] {
    match workload {
        Workload::Fig4Grid => &[Variant::Par2, Variant::Journal],
        Workload::ManycoreSweep => &[Variant::Par2],
        Workload::ServedPaper => &[Variant::Workers1],
        _ => &[],
    }
}

fn number(doc: &JsonValue, key: &str) -> f64 {
    doc.get(key).and_then(JsonValue::as_f64).unwrap_or(f64::NAN)
}

fn text(doc: &JsonValue, key: &str) -> String {
    doc.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_default()
        .to_string()
}

impl Collected {
    pub fn new(inputs: Inputs) -> Self {
        Collected {
            inputs,
            instructions: None,
            local_digest: None,
            reps: Vec::new(),
            variants: Vec::new(),
            traced: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Spawns the child for `job`, waits for it, and files its output.
    pub fn run_job(&mut self, job: Job) {
        let args = ChildArgs {
            inputs: self.inputs,
            job,
            spawned_unix_ns: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos()),
        };
        let label = format!("{} {}", self.inputs.workload.name(), job.name());
        let t0 = Instant::now();
        let output = std::env::current_exe().and_then(|exe| {
            Command::new(exe)
                .args(args.to_argv())
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
        });
        let proc_wall_s = t0.elapsed().as_secs_f64();
        let doc = match output {
            Err(e) => Err(format!("{label}: child not started: {e}")),
            Ok(out) if !out.status.success() => {
                Err(format!("{label}: child ended with {}", out.status))
            }
            Ok(out) => String::from_utf8_lossy(&out.stdout)
                .lines()
                .rev()
                .find(|l| !l.trim().is_empty())
                .ok_or_else(|| format!("{label}: child printed nothing"))
                .and_then(|line| parse(line).map_err(|e| format!("{label}: {e}"))),
        };
        let doc = match doc {
            Ok(doc) => doc,
            Err(e) => {
                if job != Job::Census {
                    self.attempted += 1;
                    self.failed += 1;
                }
                return self.fail(e);
            }
        };

        if job == Job::Census {
            self.instructions = Some(number(&doc, "instructions") as u64);
            self.local_digest = Some(text(&doc, "local_digest"));
        } else {
            self.attempted += number(&doc, "attempted") as usize;
            self.failed += number(&doc, "failed") as usize;
        }
        for f in doc
            .get("failures")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
        {
            self.fail(format!("{label}: {}", f.as_str().unwrap_or("?")));
        }
        match job {
            Job::Census => {}
            Job::Traced => {
                let values = match doc.get("values") {
                    Some(JsonValue::Object(fields)) => fields
                        .iter()
                        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                        .collect(),
                    _ => Vec::new(),
                };
                self.traced.push(TracedSample {
                    wall_s: number(&doc, "wall_s"),
                    host_ns_per_round: number(&doc, "host_ns_per_round"),
                    digest: text(&doc, "digest"),
                    est_err_avg_pct: number(&doc, "est_err_avg_pct"),
                    values,
                });
            }
            Job::Rep(variant) => {
                let sample = RepSample {
                    wall_s: number(&doc, "wall_s"),
                    host_ns_per_round: number(&doc, "host_ns_per_round"),
                    resume_wall_s: number(&doc, "resume_wall_s"),
                    setup_s: number(&doc, "setup_s"),
                    peak_rss_mib: number(&doc, "vm_hwm_kib") / 1024.0,
                    cpu_s: number(&doc, "cpu_s"),
                    proc_wall_s,
                    digest: text(&doc, "digest"),
                    est_err_avg_pct: number(&doc, "est_err_avg_pct"),
                    est_err_max_pct: number(&doc, "est_err_max_pct"),
                    requests_ms: doc
                        .get("requests_ms")
                        .and_then(JsonValue::as_array)
                        .unwrap_or(&[])
                        .iter()
                        .filter_map(JsonValue::as_f64)
                        .collect(),
                };
                if variant == Variant::Plain {
                    self.reps.push(sample);
                } else {
                    self.variants.push((variant, sample));
                }
            }
        }
    }

    /// The checks that need more than one child: every repetition (and
    /// the traced child) emitted the same bytes, and every variant found
    /// the same science.
    pub fn cross_check(&mut self) {
        let Some(first) = self.reps.first().cloned() else {
            return self.fail(format!(
                "{}: no repetition completed",
                self.inputs.workload.name()
            ));
        };
        let name = self.inputs.workload.name();
        let strays = self
            .reps
            .iter()
            .filter(|r| r.digest != first.digest)
            .count();
        if strays > 0 {
            self.fail(format!(
                "{name}: {strays} repetitions emitted different bytes"
            ));
        }
        // Served reports must be the bytes a local `Study::run` emits.
        let served = !self.inputs.served_studies().is_empty();
        if served
            && self
                .local_digest
                .as_ref()
                .is_some_and(|d| *d != first.digest)
        {
            self.fail(format!("{name}: served reports differ from the local runs"));
        }
        let odd_bytes = self.traced.iter().filter(|t| t.digest != first.digest);
        let odd_errors = self
            .traced
            .iter()
            .filter(|t| t.est_err_avg_pct.to_bits() != first.est_err_avg_pct.to_bits());
        let (odd_bytes, odd_errors) = (odd_bytes.count(), odd_errors.count());
        if odd_bytes > 0 {
            self.fail(format!(
                "{name}: {odd_bytes} traced children emitted different bytes"
            ));
        }
        if odd_errors > 0 {
            self.fail(format!(
                "{name}: {odd_errors} traced children found a different error"
            ));
        }
        // Counts are simulated quantities: every traced child must have
        // counted the same.
        for m in PER_LAYER
            .iter()
            .filter(|m| matches!(m.unit, "count" | "bytes" | "share"))
        {
            let seen: Vec<u64> = self
                .traced
                .iter()
                .filter_map(|t| t.values.iter().find(|(k, _)| k == m.name))
                .map(|(_, v)| v.to_bits())
                .collect();
            if seen.windows(2).any(|w| w[0] != w[1]) {
                self.fail(format!(
                    "{name}: {} did not repeat across traced children",
                    m.name
                ));
            }
        }
        // A variant's JSON echoes its own parallelism, so its bytes may
        // differ; its validation errors may not, to the last bit.
        let drifted = self
            .variants
            .iter()
            .filter(|(_, r)| {
                r.est_err_avg_pct.to_bits() != first.est_err_avg_pct.to_bits()
                    || r.est_err_max_pct.to_bits() != first.est_err_max_pct.to_bits()
            })
            .count();
        if drifted > 0 {
            self.fail(format!(
                "{name}: {drifted} variant runs found different errors"
            ));
        }
        // Every end-to-end sample must be a positive number (`sim_mips`
        // only where the census ran: a traced-only run skips it).
        for (metric, _) in END_TO_END {
            if metric.name == "sim_mips" && self.instructions.is_none() {
                continue;
            }
            let bad = self
                .samples(metric.name)
                .iter()
                .filter(|v| !v.is_finite() || **v <= 0.0)
                .count();
            if bad > 0 {
                self.fail(format!(
                    "{name}: {bad} samples of {} are not positive",
                    metric.name
                ));
            }
        }
        if !self.failures.is_empty() {
            self.failed = self.failed.max(1);
        }
    }

    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.failed as f64 / self.attempted as f64
    }

    /// One value per repetition of an end-to-end metric. Host times are
    /// scaled to the reference host speed by the repetition's own
    /// yardstick reading (see `hostspeed`).
    pub fn samples(&self, metric: &str) -> Vec<f64> {
        let instructions = self.instructions.unwrap_or(0) as f64;
        self.reps
            .iter()
            .map(|r| {
                let k = r.to_reference();
                match metric {
                    "wall_s" => r.wall_s * k,
                    "sim_mips" => instructions / (r.wall_s * k) / 1e6,
                    "peak_rss_mib" => r.peak_rss_mib,
                    "setup_s" => r.setup_s * k,
                    "est_err_avg_pct" => r.est_err_avg_pct,
                    "est_err_max_pct" => r.est_err_max_pct,
                    "submit_p50_ms" => median(&r.requests_ms) * k,
                    "submits_per_s" => {
                        r.requests_ms.len() as f64 / (r.requests_ms.iter().sum::<f64>() * k / 1e3)
                    }
                    other => panic!("{other} is not an end-to-end metric"),
                }
            })
            .collect()
    }

    /// The run's value of an end-to-end metric. Simulated and counted
    /// quantities: the median over repetitions. Host times: the *better*
    /// quartile (the first for a time, the third for a rate). A
    /// neighbour on a shared host can only slow a body down, so the
    /// undisturbed repetitions sit at that end, and across ten runs the
    /// quartile spread about a fifth less than the median did.
    pub fn value(&self, metric: &Metric) -> f64 {
        let samples = self.samples(metric.name);
        if !is_host_time(metric.name) {
            return median(&samples);
        }
        let (q1, q3) = quartiles(&samples);
        match metric.better {
            Better::Lower => q1,
            Better::Higher => q3,
        }
    }

    /// Request latencies of every repetition, pooled.
    pub fn pooled_requests_ms(&self) -> Vec<f64> {
        self.reps
            .iter()
            .flat_map(|r| r.requests_ms.iter().copied())
            .collect()
    }

    /// Body walls of a variant's runs, at the reference host speed.
    fn variant_walls(&self, variant: Variant) -> Vec<f64> {
        self.variants
            .iter()
            .filter(|(v, _)| *v == variant)
            .map(|(_, r)| r.wall_s * r.to_reference())
            .collect()
    }

    /// Every per-layer metric, in declaration order: the traced child's
    /// values plus those that compare children. A layer the workload
    /// does not exercise reads 0.
    pub fn per_layer(&self) -> Vec<(Metric, f64)> {
        // Children are compared at the reference host speed: a variant
        // and the plain repetitions around it rarely see the same host.
        let plain = median(&self.samples("wall_s"));
        let ratio_to_plain = |variant: Variant, invert: bool| {
            let walls = self.variant_walls(variant);
            if walls.is_empty() || !plain.is_finite() {
                return None;
            }
            let v = median(&walls);
            Some(if invert { v / plain } else { plain / v })
        };
        let derived = |name: &str| -> Option<f64> {
            match name {
                "experiments.trace_overhead_pct" => {
                    let walls: Vec<f64> = self
                        .traced
                        .iter()
                        .map(|t| t.wall_s * to_reference(t.host_ns_per_round))
                        .collect();
                    (!walls.is_empty() && plain.is_finite())
                        .then(|| (median(&walls) - plain) / plain * 100.0)
                }
                "experiments.par_speedup_2w" => ratio_to_plain(Variant::Par2, false),
                "service.workers_speedup_2w" => ratio_to_plain(Variant::Workers1, true),
                "experiments.journal_write_s" => {
                    let walls = self.variant_walls(Variant::Journal);
                    (!walls.is_empty()).then(|| median(&walls) - plain)
                }
                "experiments.journal_resume_s" => {
                    let resumes: Vec<f64> = self
                        .variants
                        .iter()
                        .filter(|(v, _)| *v == Variant::Journal)
                        .map(|(_, r)| r.resume_wall_s * r.to_reference())
                        .collect();
                    (!resumes.is_empty()).then(|| median(&resumes))
                }
                "service.submit_p99_ms" => {
                    // Only where the pool leaves ten samples beyond it.
                    let pooled = self.pooled_requests_ms();
                    (pooled.len() >= 1_000).then(|| percentile(&pooled, 0.99))
                }
                "host.cpu_s" => Some(median(
                    &self.reps.iter().map(|r| r.cpu_s).collect::<Vec<_>>(),
                )),
                "host.proc_wall_s" => Some(median(
                    &self.reps.iter().map(|r| r.proc_wall_s).collect::<Vec<_>>(),
                )),
                "host.yardstick_ns" => Some(median(
                    &self
                        .reps
                        .iter()
                        .map(|r| r.host_ns_per_round)
                        .collect::<Vec<_>>(),
                )),
                _ => None,
            }
        };
        PER_LAYER
            .iter()
            .map(|m| {
                let traced: Vec<f64> = self
                    .traced
                    .iter()
                    .filter_map(|t| t.values.iter().find(|(k, _)| k == m.name))
                    .map(|(_, v)| *v)
                    .collect();
                let value = derived(m.name)
                    .or((!traced.is_empty()).then(|| median(&traced)))
                    .unwrap_or(0.0);
                (*m, if value.is_finite() { value } else { 0.0 })
            })
            .collect()
    }
}

/// Places `extra` jobs evenly among the `plain` ones, so a variant is
/// compared against repetitions measured around it, not minutes before.
pub fn interleave(plain: usize, extra: &[Job]) -> Vec<Job> {
    let mut jobs = Vec::with_capacity(plain + extra.len());
    let mut placed = 0;
    for i in 0..plain {
        jobs.push(Job::Rep(Variant::Plain));
        let due = (i + 1) * extra.len() / plain.max(1);
        jobs.extend_from_slice(&extra[placed..due]);
        placed = due;
    }
    jobs.extend_from_slice(&extra[placed..]);
    jobs
}

/// Runs the per-workload job lists round-robin: job `r` of every
/// workload, then job `r + 1`, so the host's minute-scale drift lands on
/// all of them alike.
pub fn run_round_robin(
    collected: &mut [Collected],
    plans: &[Vec<Job>],
    mut progress: impl FnMut(&str),
) {
    let rounds = plans.iter().map(Vec::len).max().unwrap_or(0);
    for round in 0..rounds {
        for (c, plan) in collected.iter_mut().zip(plans) {
            if let Some(&job) = plan.get(round) {
                progress(&format!("{} {:?}", c.inputs.workload.name(), job));
                c.run_job(job);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(wall_s: f64, requests_ms: Vec<f64>) -> RepSample {
        RepSample {
            wall_s,
            host_ns_per_round: crate::hostspeed::REFERENCE_NS_PER_ROUND,
            resume_wall_s: f64::NAN,
            setup_s: 0.002,
            peak_rss_mib: 40.0,
            cpu_s: wall_s,
            proc_wall_s: wall_s + 0.01,
            digest: "d".to_string(),
            est_err_avg_pct: 2.5,
            est_err_max_pct: 9.0,
            requests_ms,
        }
    }

    #[test]
    fn interleave_spreads_extras_and_keeps_counts() {
        use Job::*;
        let extras = [Rep(Variant::Par2), Rep(Variant::Journal), Traced];
        let jobs = interleave(6, &extras);
        assert_eq!(jobs.len(), 9);
        assert_eq!(
            jobs.iter().filter(|j| **j == Rep(Variant::Plain)).count(),
            6
        );
        assert_eq!(jobs[2], Rep(Variant::Par2));
        assert_eq!(jobs[5], Rep(Variant::Journal));
        assert_eq!(jobs[8], Traced);
        assert_eq!(interleave(0, &extras), extras.to_vec());
        assert_eq!(interleave(2, &[]), vec![Rep(Variant::Plain); 2]);
    }

    #[test]
    fn end_to_end_samples_per_repetition() {
        let mut c = Collected::new(Inputs::new(Workload::ServedWarm, 0, true));
        c.instructions = Some(4_000_000);
        c.reps = vec![rep(2.0, vec![1.0, 2.0, 3.0]), rep(4.0, vec![2.0, 2.0])];
        assert_eq!(c.samples("wall_s"), vec![2.0, 4.0]);
        assert_eq!(c.samples("sim_mips"), vec![2.0, 1.0]);
        assert_eq!(c.samples("submit_p50_ms"), vec![2.0, 2.0]);
        assert_eq!(c.samples("submits_per_s"), vec![500.0, 500.0]);
        // Times report their first quartile, rates their third, the
        // rest their median (quartiles of two values overhang them).
        let metric = |name: &str| END_TO_END.iter().find(|m| m.0.name == name).unwrap().0;
        assert_eq!(c.value(&metric("wall_s")), 1.5);
        assert_eq!(c.value(&metric("sim_mips")), 2.25);
        assert_eq!(c.value(&metric("peak_rss_mib")), 40.0);
        assert_eq!(c.pooled_requests_ms().len(), 5);
    }

    #[test]
    fn derived_layer_metrics_compare_children() {
        let mut c = Collected::new(Inputs::new(Workload::Fig4Grid, 0, true));
        c.reps = vec![rep(2.0, vec![2000.0]), rep(2.0, vec![2000.0])];
        c.variants = vec![
            (Variant::Par2, rep(1.25, vec![])),
            (
                Variant::Journal,
                RepSample {
                    resume_wall_s: 0.1,
                    ..rep(2.5, vec![])
                },
            ),
        ];
        let traced = |wall_s: f64, access_s: f64| TracedSample {
            wall_s,
            host_ns_per_round: crate::hostspeed::REFERENCE_NS_PER_ROUND,
            digest: "d".to_string(),
            est_err_avg_pct: 2.5,
            values: vec![
                ("memsim.access_s".to_string(), access_s),
                ("memsim.accesses".to_string(), 7.0),
            ],
        };
        c.traced = vec![traced(2.3, 0.9), traced(2.1, 1.0), traced(2.0, 1.4)];
        let layer = |name: &str| {
            c.per_layer()
                .into_iter()
                .find(|(m, _)| m.name == name)
                .map(|(_, v)| v)
                .expect("declared")
        };
        assert_eq!(c.per_layer().len(), PER_LAYER.len());
        assert_eq!(layer("memsim.access_s"), 1.0, "median over traced children");
        assert_eq!(layer("memsim.accesses"), 7.0);
        assert_eq!(layer("experiments.par_speedup_2w"), 1.6);
        assert_eq!(layer("experiments.journal_write_s"), 0.5);
        assert_eq!(layer("experiments.journal_resume_s"), 0.1);
        assert!((layer("experiments.trace_overhead_pct") - 5.0).abs() < 1e-9);
        assert_eq!(layer("service.workers_speedup_2w"), 0.0, "not exercised");
        assert_eq!(layer("service.submit_p99_ms"), 0.0, "too few samples");
        assert_eq!(layer("host.cpu_s"), 2.0);
    }

    #[test]
    fn served_reports_must_match_the_local_digest() {
        let mut c = Collected::new(Inputs::new(Workload::ServedWarm, 0, true));
        c.instructions = Some(1_000_000);
        c.attempted = 1;
        c.reps = vec![rep(2.0, vec![1.5])];
        c.local_digest = Some("d".to_string());
        c.cross_check();
        assert!(c.failures.is_empty(), "{:?}", c.failures);
        c.local_digest = Some("other".to_string());
        c.cross_check();
        assert_eq!(c.failures.len(), 1, "{:?}", c.failures);
        assert!(c.failures[0].contains("differ from the local runs"));
    }

    #[test]
    fn cross_check_catches_a_stray_digest_and_a_drifted_variant() {
        let mut c = Collected::new(Inputs::new(Workload::Fig4Grid, 0, true));
        c.instructions = Some(1_000_000);
        c.attempted = 3;
        c.reps = vec![rep(2.0, vec![2000.0]), rep(2.0, vec![2000.0])];
        c.cross_check();
        assert!(c.failures.is_empty(), "{:?}", c.failures);
        assert_eq!(c.failed_share(), 0.0);

        c.reps[1].digest = "e".to_string();
        // Not a served workload: a local digest is beside the point.
        c.local_digest = Some("x".to_string());
        for accesses in [7.0, 8.0] {
            c.traced.push(TracedSample {
                wall_s: 2.0,
                host_ns_per_round: crate::hostspeed::REFERENCE_NS_PER_ROUND,
                digest: "d".to_string(),
                est_err_avg_pct: 2.5,
                values: vec![("memsim.accesses".to_string(), accesses)],
            });
        }
        c.variants.push((
            Variant::Par2,
            RepSample {
                est_err_max_pct: 9.5,
                ..rep(1.0, vec![])
            },
        ));
        c.cross_check();
        assert_eq!(c.failures.len(), 3, "{:?}", c.failures);
        assert!(c
            .failures
            .iter()
            .any(|f| f.contains("memsim.accesses did not repeat")));
        assert!(c.failed_share() > 0.0);
    }
}
