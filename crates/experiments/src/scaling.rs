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

use crate::decompose::reference_failed;
use crate::runner::{point_label, FaultPolicy};
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

/// One series over `counts`. `reference` is the series' single-thread
/// reference unit (its fault-domain outcome and attempts): when it
/// failed, every point cascades with the sweep's reason; otherwise each
/// count's `point(n, &reference)` — the multi-threaded run and the
/// speedup to attach to its stack — runs in its own fault domain.
fn series<R: Sync>(
    name: String,
    counts: &[usize],
    mode: crate::par::Parallelism,
    faults: FaultPolicy,
    degraded: &mut Degraded,
    reference: (Result<R, String>, u32),
    point: impl Fn(usize, &R) -> Result<(SimResult, f64), String> + Sync,
) -> ScalingSeries {
    let mut points = Vec::with_capacity(counts.len());
    match reference {
        (Err(reason), attempts) => {
            degraded
                .failed
                .extend(counts.iter().map(|&n| DegradedPoint {
                    label: point_label(&name, n),
                    reason: reference_failed(&reason),
                    attempts,
                }));
        }
        (Ok(st), _) => {
            let outcomes = crate::par::try_map_mode(
                mode,
                faults.retries,
                counts.to_vec(),
                |&n| point_label(&name, n),
                |&n| {
                    let (mt, speedup) = point(n, &st)?;
                    let stack = mt
                        .stack(&AccountingConfig::default())
                        .expect("engine produces valid counters")
                        .with_actual_speedup(speedup);
                    Ok(ScalingPoint {
                        cores: n,
                        estimated: stack.estimated_speedup(),
                        scaled_speedup: speedup,
                        mt_cycles: mt.tp_cycles,
                        events: mt.events,
                        stack,
                    })
                },
            );
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
        }
    }
    ScalingSeries { name, points }
}

/// Runs one weak-scaling workload across `counts`, reusing the one
/// single-threaded reference (weak scaling: every thread's work equals
/// the ST run's).
fn weak_series(
    profile: &WorkloadProfile,
    counts: &[usize],
    mode: crate::par::Parallelism,
    mem: MemConfig,
    faults: FaultPolicy,
    degraded: &mut Degraded,
) -> ScalingSeries {
    let deadline = faults.deadline_cycles;
    let reference = crate::par::fault_domain(faults.retries, || {
        sim(machine(1, mem), streams_for(profile, 1), deadline)
    });
    let point = |n: usize, st: &SimResult| {
        let mt = sim(machine(n, mem), streams_for(profile, n), deadline)?;
        let scaled = n as f64 * st.tp_cycles as f64 / mt.tp_cycles as f64;
        Ok((mt, scaled))
    };
    series(
        display_name(profile),
        counts,
        mode,
        faults,
        degraded,
        reference,
        point,
    )
}

/// Runs the rate mix across `counts`. Per-program single-threaded
/// references are computed once from the first `programs.len()` members
/// and reused cyclically across wider mixes; the first one to fail fails
/// the series.
fn mix_series(
    programs: &[WorkloadProfile],
    counts: &[usize],
    mode: crate::par::Parallelism,
    mem: MemConfig,
    faults: FaultPolicy,
    degraded: &mut Degraded,
) -> ScalingSeries {
    let deadline = faults.deadline_cycles;
    let mut refs = Vec::with_capacity(programs.len());
    let mut first_failure = None;
    for o in crate::par::try_map_mode(
        mode,
        faults.retries,
        programs.iter().enumerate().collect(),
        |(i, p)| format!("{} (rate-mix reference {i})", display_name(p)),
        |&(i, p)| {
            let solo: Vec<Box<dyn cmpsim::OpStream>> = vec![Box::new(RateMixStream::new(p, i))];
            sim(machine(1, mem), solo, deadline).map(|r| r.tp_cycles)
        },
    ) {
        match o.result {
            Ok(cycles) => refs.push(cycles),
            Err(e) => {
                first_failure.get_or_insert((Err(e.payload), e.attempts));
            }
        }
    }
    let reference = first_failure.unwrap_or((Ok(refs), 1));
    let point = |n: usize, refs: &Vec<u64>| {
        let mt = sim(machine(n, mem), rate_mix_streams(programs, n), deadline)?;
        let ts_sum: u64 = (0..n).map(|i| refs[i % refs.len()]).sum();
        let rate = ts_sum as f64 / mt.tp_cycles as f64;
        Ok((mt, rate))
    };
    series(
        "rate_mix".to_string(),
        counts,
        mode,
        faults,
        degraded,
        reference,
        point,
    )
}

/// Runs the study: `threads` overrides the swept core counts
/// ([`CORE_COUNTS`] by default), `llc_mib` resizes the (32-way)
/// many-core LLC, `scale` scales the workloads (1.0 = the catalog sizes;
/// use e.g. 0.25 for a quick pass).
///
/// # Panics
///
/// Panics if a study workload is invalid or any swept point fails;
/// [`ManycoreScalingStudy`] degrades gracefully instead.
#[must_use]
pub fn run(params: &StudyParams) -> ScalingStudy {
    let (study, degraded) = sweep(params).expect("scaling sweep");
    assert!(
        !degraded.is_degraded(),
        "scaling sweep degraded: {degraded:?}"
    );
    study
}

/// The fault-tolerant sweep behind [`run`] and [`ManycoreScalingStudy`]:
/// each swept point runs in its own fault domain (honoring
/// `params.faults`), and failures land in the returned [`Degraded`].
fn sweep(params: &StudyParams) -> Result<(ScalingStudy, Degraded), SimError> {
    let counts = params.counts_or(&CORE_COUNTS);
    let mem = match params.llc_mib {
        Some(mib) => MemConfig {
            llc: CacheConfig::from_kib(mib * 1024, 64, 32),
            ..MemConfig::default()
        },
        None => manycore_mem(),
    };
    let (mode, faults) = (params.parallelism, params.faults);
    let profiles = study_profiles(params.scale);
    for p in &profiles {
        p.validate().map_err(SimError::Config)?;
    }
    let mut degraded = Degraded {
        // 3 weak workloads + the rate mix, one point per count each.
        total_points: 4 * counts.len(),
        ..Degraded::default()
    };
    let mut series: Vec<ScalingSeries> = profiles
        .iter()
        .map(|p| weak_series(p, &counts, mode, mem, faults, &mut degraded))
        .collect();
    let mix: Vec<WorkloadProfile> = default_rate_mix()
        .iter()
        .map(|p| crate::runner::scaled_profile(p, params.scale))
        .collect();
    series.push(mix_series(&mix, &counts, mode, mem, faults, &mut degraded));
    degraded.completed = series.iter().map(|s| s.points.len()).sum();
    Ok((
        ScalingStudy {
            series,
            counts,
            mem,
        },
        degraded,
    ))
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
        let (study, degraded) = sweep(params)?;
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

    fn quick(counts: &[usize], parallelism: Parallelism) -> ScalingStudy {
        run(&StudyParams {
            threads: Some(counts.to_vec()),
            parallelism,
            ..StudyParams::with_scale(0.02)
        })
    }

    #[test]
    fn quick_study_has_expected_shape() {
        let study = quick(&[1, 2, 4], Parallelism::Serial);
        assert_eq!(study.counts, vec![1, 2, 4]);
        assert_eq!(study.series.len(), 4); // 3 weak workloads + rate mix
        for s in &study.series {
            assert_eq!(s.points.len(), 3, "{}", s.name);
            for p in &s.points {
                assert!(p.mt_cycles > 0);
                assert!(p.events > 0);
                assert!(p.scaled_speedup > 0.0);
                assert_eq!(p.stack.num_threads(), p.cores);
            }
        }
        let text = study.to_report().to_text();
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
        let a = quick(&[1, 2], Parallelism::Serial);
        let b = quick(&[1, 2], Parallelism::Workers(3));
        for (sa, sb) in a.series.iter().zip(&b.series) {
            assert_eq!(sa.name, sb.name);
            for (pa, pb) in sa.points.iter().zip(&sb.points) {
                assert_eq!(pa.mt_cycles, pb.mt_cycles);
                assert_eq!(pa.events, pb.events);
            }
        }
    }
}
