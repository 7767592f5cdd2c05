//! The many-core scaling study: speedup stacks from 1 to 128 cores.
//!
//! The paper evaluates speedup stacks at up to 16 cores; this study
//! drives the same accounting architecture across a 1→128-core sweep to
//! show where each workload's scaling delimiters take over at core
//! counts the paper never reached. Three ingredients make the sweep
//! meaningful beyond 16 threads:
//!
//! - **weak-scaling workloads** ([`workloads::weak_scaling_suite`]):
//!   per-thread work is held at the paper's 16-thread share, so 128
//!   threads have real work instead of a starved strong-scaled input;
//! - a **multi-program rate mix** ([`workloads::rate_mix_streams`]):
//!   independent single-threaded programs contending only through the
//!   shared LLC and DRAM — the pure-interference end of the spectrum;
//! - a **many-core memory system**: a 4 MiB, 32-way LLC, exercising the
//!   wide (byte-ranked) LRU encoding, with two words of sharer mask
//!   per LLC line above 64 cores.
//!
//! Weak-scaling points report the *scaled speedup* `n · Ts / Tp` (the MT
//! run does `n` times the ST reference work); the rate mix reports the
//! rate speedup `Σᵢ Ts(i) / Tp`. Each point also carries the full
//! speedup stack rendered by [`speedup_stacks::render::render_sweep`].

use std::fmt;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use cmpsim::{MachineConfig, SimResult, Simulation};
use memsim::{CacheConfig, MemConfig};
use speedup_stacks::render::RenderOptions;
use speedup_stacks::report::{Block, Column, Degraded, DegradedPoint, Report, Table, Unit, Value};
use speedup_stacks::{AccountingConfig, SimError, SpeedupStack};
use workloads::{
    default_rate_mix, display_name, find, rate_mix_streams, streams_for, RateMixStream, Suite,
    WorkloadProfile,
};

use crate::runner::FaultPolicy;
use crate::study::{Study, StudyParams};

/// The swept core counts: powers of two from 1 to 128 (the paper stops
/// at 16; everything above exercises the many-core representations).
pub const CORE_COUNTS: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// The study's memory system: the paper's defaults with the LLC grown to
/// 4 MiB × 32 ways — a plausible many-core LLC that selects the wide
/// LRU encoding (`ways > 16`).
#[must_use]
pub fn manycore_mem() -> MemConfig {
    MemConfig {
        llc: CacheConfig::from_kib(4096, 64, 32),
        ..MemConfig::default()
    }
}

/// One swept point of one workload.
#[derive(Debug)]
pub struct ScalingPoint {
    /// Hardware cores (== software threads at this point).
    pub cores: usize,
    /// The speedup stack of the multi-threaded run, with the scaled
    /// speedup attached as the actual.
    pub stack: SpeedupStack,
    /// Estimated speedup `Ŝ` from the stack (Eq. 4).
    pub estimated: f64,
    /// Scaled speedup: `n · Ts / Tp` for weak-scaling workloads (the MT
    /// run does `n×` the reference work), `Σᵢ Ts(i) / Tp` for the rate
    /// mix.
    pub scaled_speedup: f64,
    /// Multi-threaded run duration in cycles.
    pub mt_cycles: u64,
    /// Engine events of the multi-threaded run.
    pub events: u64,
}

/// One workload's 1→128-core series.
#[derive(Debug)]
pub struct ScalingSeries {
    /// Workload display name (`*_weak` variants and `rate_mix`).
    pub name: String,
    /// One point per swept core count, in [`CORE_COUNTS`] order.
    pub points: Vec<ScalingPoint>,
}

/// The whole study.
#[derive(Debug)]
pub struct ScalingStudy {
    /// One series per workload.
    pub series: Vec<ScalingSeries>,
    /// Swept core counts.
    pub counts: Vec<usize>,
    /// The memory hierarchy the sweep ran on (reported in the figure
    /// header).
    pub mem: MemConfig,
}

impl ScalingStudy {
    /// Total engine events across every multi-threaded point (the
    /// perf-trajectory denominator for `BENCH_PR*.json`).
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.series
            .iter()
            .flat_map(|s| s.points.iter())
            .map(|p| p.events)
            .sum()
    }

    /// Number of swept simulation points.
    #[must_use]
    pub fn total_points(&self) -> u64 {
        self.series.iter().map(|s| s.points.len() as u64).sum()
    }

    /// Converts the study into its structured [`Report`]: one sweep
    /// block per workload plus a machine-readable point table.
    #[must_use]
    pub fn to_report(&self) -> Report {
        let title = format!(
            "Many-core scaling study: speedup stacks at {:?} cores",
            self.counts
        );
        let mut report = Report::new("scaling", &title);
        report.push(Block::line(&title));
        report.push(Block::line(format!(
            "({} MiB {}-way LLC; weak-scaling workloads report scaled speedup n*Ts/Tp,\n\
             the rate mix reports sum(Ts_i)/Tp)",
            self.mem.llc.lines() * 64 / (1024 * 1024),
            self.mem.llc.ways(),
        )));
        let mut table = Table::new(
            "points",
            vec![
                Column::new("series"),
                Column::new("cores").unit(Unit::Count),
                Column::new("scaled_speedup").unit(Unit::Speedup),
                Column::new("estimated_speedup").unit(Unit::Speedup),
                Column::new("mt_cycles").unit(Unit::Cycles),
                Column::new("events").unit(Unit::Count),
            ],
        );
        for series in &self.series {
            for p in &series.points {
                table.row(vec![
                    Value::str(&series.name),
                    p.cores.into(),
                    p.scaled_speedup.into(),
                    p.estimated.into(),
                    p.mt_cycles.into(),
                    p.events.into(),
                ]);
            }
        }
        report.push(Block::hidden(Block::Table(table)));
        for series in &self.series {
            let bars: Vec<(String, SpeedupStack)> = series
                .points
                .iter()
                .map(|p| (format!("N={:>3}", p.cores), p.stack.clone()))
                .collect();
            report.push(Block::Blank);
            report.push(Block::Sweep {
                title: series.name.clone(),
                series: bars,
                options: RenderOptions::default(),
            });
        }
        report
    }
}

impl fmt::Display for ScalingStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_report().to_text())
    }
}

/// The study's weak-scaling workloads: one good scaler (blackscholes),
/// one synchronization-bound workload (cholesky: short hot critical
/// sections) and one imbalance-bound workload (lud: strong rotating
/// skew), each as its weak variant.
#[must_use]
pub fn study_profiles(scale: f64) -> Vec<WorkloadProfile> {
    [
        find("blackscholes", Suite::ParsecMedium).expect("catalog"),
        find("cholesky", Suite::Splash2).expect("catalog"),
        find("lud", Suite::Rodinia).expect("catalog"),
    ]
    .iter()
    .map(|p| crate::runner::scaled_profile(&p.weak_variant(), scale))
    .collect()
}

fn machine(cores: usize, mem: MemConfig) -> MachineConfig {
    MachineConfig {
        n_cores: cores,
        mem,
        ..MachineConfig::default()
    }
}

fn stack_of(mt: &SimResult, actual: f64) -> SpeedupStack {
    mt.stack(&AccountingConfig::default())
        .expect("engine produces valid counters")
        .with_actual_speedup(actual)
}

/// One fault-domained simulation: validates the machine and honors the
/// policy's cooperative deadline; any engine error becomes a rendered
/// reason for the point's `Degraded` entry.
fn sim(
    cfg: MachineConfig,
    streams: Vec<Box<dyn cmpsim::OpStream>>,
    deadline: Option<u64>,
) -> Result<SimResult, String> {
    cfg.validate()
        .map_err(|e| cmpsim::SimError::InvalidConfig(e).to_string())?;
    let sim = Simulation::new(cfg, streams);
    match deadline {
        Some(d) => sim.with_deadline(Arc::new(AtomicU64::new(d))),
        None => sim,
    }
    .run()
    .map_err(|e| e.to_string())
}

/// Tallies a fault-isolated sweep's outcomes into a series, pushing
/// failed points onto `degraded`.
fn collect_points(
    name: &str,
    outcomes: Vec<crate::par::PointOutcome<ScalingPoint>>,
    degraded: &mut Degraded,
) -> ScalingSeries {
    let mut points = Vec::with_capacity(outcomes.len());
    for o in outcomes {
        if o.retried_ok() {
            degraded.retried += 1;
        }
        match o.result {
            Ok(p) => points.push(p),
            Err(e) => degraded.failed.push(DegradedPoint {
                label: e.label,
                reason: e.payload,
                attempts: e.attempts,
            }),
        }
    }
    ScalingSeries {
        name: name.to_string(),
        points,
    }
}

/// Runs one weak-scaling workload across `counts`, reusing the one
/// single-threaded reference (weak scaling: every thread's work equals
/// the ST run's). Each point runs in its own fault domain; a failed
/// reference cascades onto the whole series.
fn weak_series(
    profile: &WorkloadProfile,
    counts: &[usize],
    mode: crate::par::Parallelism,
    mem: MemConfig,
    faults: FaultPolicy,
    degraded: &mut Degraded,
) -> ScalingSeries {
    let name = display_name(profile);
    let st_outcome = crate::par::try_map_mode(
        crate::par::Parallelism::Serial,
        faults.retries,
        vec![()],
        |_| format!("{name} (single-thread reference)"),
        |_| {
            sim(
                machine(1, mem),
                streams_for(profile, 1),
                faults.deadline_cycles,
            )
        },
    )
    .pop()
    .expect("one reference outcome");
    if st_outcome.retried_ok() {
        degraded.retried += 1;
    }
    let st = match st_outcome.result {
        Ok(st) => st,
        Err(e) => {
            for &n in counts {
                degraded.failed.push(DegradedPoint {
                    label: format!("{name} x{n}"),
                    reason: format!("single-thread reference failed: {}", e.payload),
                    attempts: e.attempts,
                });
            }
            return ScalingSeries {
                name,
                points: Vec::new(),
            };
        }
    };
    let outcomes = crate::par::try_map_mode(
        mode,
        faults.retries,
        counts.to_vec(),
        |&n| format!("{name} x{n}"),
        |&n| {
            let mt = sim(
                machine(n, mem),
                streams_for(profile, n),
                faults.deadline_cycles,
            )?;
            let scaled = n as f64 * st.tp_cycles as f64 / mt.tp_cycles as f64;
            let stack = stack_of(&mt, scaled);
            Ok(ScalingPoint {
                cores: n,
                estimated: stack.estimated_speedup(),
                scaled_speedup: scaled,
                mt_cycles: mt.tp_cycles,
                events: mt.events,
                stack,
            })
        },
    );
    collect_points(&name, outcomes, degraded)
}

/// Runs the rate mix across `counts`. Per-program single-threaded
/// references are computed once from the first `programs.len()` members
/// and reused cyclically across wider mixes. Fault-isolated like
/// [`weak_series`].
fn mix_series(
    programs: &[WorkloadProfile],
    counts: &[usize],
    mode: crate::par::Parallelism,
    mem: MemConfig,
    faults: FaultPolicy,
    degraded: &mut Degraded,
) -> ScalingSeries {
    let ref_outcomes = crate::par::try_map_mode(
        mode,
        faults.retries,
        programs.iter().enumerate().collect(),
        |(i, p)| format!("{} (rate-mix reference {i})", display_name(p)),
        |&(i, p)| {
            let solo: Vec<Box<dyn cmpsim::OpStream>> = vec![Box::new(RateMixStream::new(p, i))];
            sim(machine(1, mem), solo, faults.deadline_cycles).map(|r| r.tp_cycles)
        },
    );
    let mut refs = Vec::with_capacity(programs.len());
    for o in ref_outcomes {
        if o.retried_ok() {
            degraded.retried += 1;
        }
        match o.result {
            Ok(c) => refs.push(c),
            Err(e) => {
                for &n in counts {
                    degraded.failed.push(DegradedPoint {
                        label: format!("rate_mix x{n}"),
                        reason: format!("single-thread reference failed: {}", e.payload),
                        attempts: e.attempts,
                    });
                }
                return ScalingSeries {
                    name: "rate_mix".to_string(),
                    points: Vec::new(),
                };
            }
        }
    }
    let outcomes = crate::par::try_map_mode(
        mode,
        faults.retries,
        counts.to_vec(),
        |&n| format!("rate_mix x{n}"),
        |&n| {
            let mt = sim(
                machine(n, mem),
                rate_mix_streams(programs, n),
                faults.deadline_cycles,
            )?;
            let ts_sum: u64 = (0..n).map(|i| refs[i % refs.len()]).sum();
            let rate = ts_sum as f64 / mt.tp_cycles as f64;
            let stack = stack_of(&mt, rate);
            Ok(ScalingPoint {
                cores: n,
                estimated: stack.estimated_speedup(),
                scaled_speedup: rate,
                mt_cycles: mt.tp_cycles,
                events: mt.events,
                stack,
            })
        },
    );
    collect_points("rate_mix", outcomes, degraded)
}

/// Runs the full study over [`CORE_COUNTS`] with workloads scaled by
/// `scale` (1.0 = the catalog sizes; use e.g. 0.25 for a quick pass).
///
/// # Panics
///
/// Panics if any swept point fails.
#[must_use]
pub fn run(scale: f64) -> ScalingStudy {
    run_with(scale, &CORE_COUNTS, crate::par::Parallelism::Auto)
}

/// Runs the study over explicit `counts` with the given sweep
/// parallelism (points are independent; collection order is
/// deterministic).
///
/// # Panics
///
/// Panics if any swept point fails.
#[must_use]
pub fn run_with(scale: f64, counts: &[usize], mode: crate::par::Parallelism) -> ScalingStudy {
    let (study, degraded) = run_mem(scale, counts, mode, manycore_mem(), FaultPolicy::default());
    assert!(
        !degraded.is_degraded(),
        "scaling sweep degraded: {degraded:?}"
    );
    study
}

/// Runs the study honoring the full [`StudyParams`]: `threads` overrides
/// the swept core counts and `llc_mib` resizes the (32-way) many-core
/// LLC.
///
/// # Panics
///
/// Panics if any swept point fails; use [`run_study_ft`] to degrade
/// gracefully instead.
#[must_use]
pub fn run_study(params: &StudyParams) -> ScalingStudy {
    let (study, degraded) = run_study_ft(params).expect("scaling sweep");
    assert!(
        !degraded.is_degraded(),
        "scaling sweep degraded: {degraded:?}"
    );
    study
}

/// Fault-tolerant [`run_study`]: each swept point runs in its own fault
/// domain (honoring `params.faults`), and failures surface in the
/// returned [`Degraded`] block instead of panicking.
///
/// # Errors
///
/// Returns [`SimError::Config`] if a study workload fails validation.
pub fn run_study_ft(params: &StudyParams) -> Result<(ScalingStudy, Degraded), SimError> {
    let counts = params.counts_or(&CORE_COUNTS);
    let mem = match params.llc_mib {
        Some(mib) => MemConfig {
            llc: CacheConfig::from_kib(mib * 1024, 64, 32),
            ..MemConfig::default()
        },
        None => manycore_mem(),
    };
    for p in study_profiles(params.scale) {
        p.validate().map_err(SimError::Config)?;
    }
    Ok(run_mem(
        params.scale,
        &counts,
        params.parallelism,
        mem,
        params.faults,
    ))
}

fn run_mem(
    scale: f64,
    counts: &[usize],
    mode: crate::par::Parallelism,
    mem: MemConfig,
    faults: FaultPolicy,
) -> (ScalingStudy, Degraded) {
    let mut degraded = Degraded {
        // 3 weak workloads + the rate mix, one point per count each.
        total_points: 4 * counts.len(),
        ..Degraded::default()
    };
    let mut series: Vec<ScalingSeries> = study_profiles(scale)
        .iter()
        .map(|p| weak_series(p, counts, mode, mem, faults, &mut degraded))
        .collect();
    let mix: Vec<WorkloadProfile> = default_rate_mix()
        .iter()
        .map(|p| crate::runner::scaled_profile(p, scale))
        .collect();
    series.push(mix_series(&mix, counts, mode, mem, faults, &mut degraded));
    degraded.completed = series.iter().map(|s| s.points.len()).sum();
    (
        ScalingStudy {
            series,
            counts: counts.to_vec(),
            mem,
        },
        degraded,
    )
}

/// The many-core scaling study as a registry [`Study`] (honors `scale`,
/// `threads` — the swept core counts — `parallelism` and `llc_mib`).
#[derive(Debug, Clone, Copy)]
pub struct ManycoreScalingStudy;

impl Study for ManycoreScalingStudy {
    fn name(&self) -> &'static str {
        "scaling"
    }

    fn description(&self) -> &'static str {
        "Beyond the paper: speedup stacks from 1 to 128 cores (weak scaling + rate mix)"
    }

    fn run(&self, params: &StudyParams) -> Result<Report, SimError> {
        let (study, degraded) = run_study_ft(params)?;
        let mut report = study.to_report();
        if degraded.is_degraded() {
            report.push(Block::Degraded(degraded));
        }
        params.record(&mut report);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::Parallelism;

    #[test]
    fn quick_study_has_expected_shape() {
        let study = run_with(0.02, &[1, 2, 4], Parallelism::Serial);
        assert_eq!(study.counts, vec![1, 2, 4]);
        assert_eq!(study.series.len(), 4); // 3 weak workloads + rate mix
        for s in &study.series {
            assert_eq!(s.points.len(), 3, "{}", s.name);
            for p in &s.points {
                assert!(p.mt_cycles > 0);
                assert!(p.scaled_speedup > 0.0);
                assert_eq!(p.stack.num_threads(), p.cores);
            }
        }
        assert!(study.total_events() > 0);
        assert_eq!(study.total_points(), 12);
        let text = study.to_string();
        assert!(text.contains("rate_mix"));
        assert!(text.contains("_weak"));
    }

    #[test]
    fn weak_scaling_names_marked() {
        let profiles = study_profiles(1.0);
        assert!(profiles.iter().all(|p| p.weak_scaling));
    }

    #[test]
    fn manycore_llc_selects_wide_lru_geometry() {
        let mem = manycore_mem();
        assert_eq!(mem.llc.ways(), 32);
        assert_eq!(mem.llc.lines() * 64, 4 * 1024 * 1024);
    }

    #[test]
    fn serial_equals_parallel_points() {
        let a = run_with(0.02, &[1, 2], Parallelism::Serial);
        let b = run_with(0.02, &[1, 2], Parallelism::Workers(3));
        for (sa, sb) in a.series.iter().zip(&b.series) {
            assert_eq!(sa.name, sb.name);
            for (pa, pb) in sa.points.iter().zip(&sb.points) {
                assert_eq!(pa.mt_cycles, pb.mt_cycles);
                assert_eq!(pa.events, pb.events);
            }
        }
    }
}
