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

use memsim::{CacheConfig, MemConfig};
use speedup_stacks::render::RenderOptions;
use speedup_stacks::report::{Block, Column, Degraded, Report, Table, Unit, Value};
use speedup_stacks::{SimError, SpeedupStack};
use workloads::{
    default_rate_mix, display_name, find, rate_mix_streams, streams_for, RateMixStream, Suite,
    WorkloadProfile,
};

use crate::decompose::GridFold;
use crate::graph::UnitGraph;
use crate::par::run_units;
use crate::runner::{
    point_label, scaled_profile, simulate_opts, single_thread_reference_streams, RunOptions,
};
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
    .map(|p| scaled_profile(&p.weak_variant(), scale))
    .collect()
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

/// The fault-tolerant sweep behind [`run`] and [`ManycoreScalingStudy`],
/// as one [`UnitGraph`]: a single-thread reference per weak workload
/// (weak scaling: every thread's work equals that run's) and one per
/// rate-mix program (its solo run; wider mixes reuse them cyclically),
/// gating one point per series and swept count — a weak series' points
/// behind its own reference, the rate mix's behind every program's, the
/// first failed one failing the series. Every unit runs in its own fault
/// domain (honoring `params.faults`) and the outcomes fold through
/// [`GridFold`], so failures land in the returned [`Degraded`] exactly
/// as a grid study's do.
fn sweep(params: &StudyParams) -> Result<(ScalingStudy, Degraded), SimError> {
    let counts = params.counts_or(&CORE_COUNTS);
    let mem = match params.llc_mib {
        Some(mib) => MemConfig {
            llc: CacheConfig::from_kib(mib * 1024, 64, 32),
            ..MemConfig::default()
        },
        None => manycore_mem(),
    };
    let profiles = study_profiles(params.scale);
    for p in &profiles {
        p.validate().map_err(SimError::Config)?;
    }
    let mix: Vec<WorkloadProfile> = default_rate_mix()
        .iter()
        .map(|p| scaled_profile(p, params.scale))
        .collect();
    let mut names: Vec<String> = profiles.iter().map(display_name).collect();
    names.push("rate_mix".to_string());

    // Series `s`'s points are the indices `s * counts.len()..`; the rate
    // mix is the last series and its programs the last references.
    let weak = profiles.len();
    let n_points = names.len() * counts.len();
    let point_of = |i: usize| (i / counts.len(), counts[i % counts.len()]);
    let mut graph = UnitGraph::new(weak + mix.len(), n_points, |i| match point_of(i).0 {
        s if s < weak => s..s + 1,
        _ => weak..weak + mix.len(),
    });
    (0..n_points).for_each(|i| graph.add_point(i));
    let deadline = params.faults.deadline_cycles;
    let opts = |cores: usize| RunOptions {
        mem,
        ..RunOptions::symmetric(cores)
    };
    let mut fold = GridFold::new(n_points);
    run_units(
        &mut graph,
        params.parallelism,
        params.faults.retries,
        |r| {
            let streams: Vec<Box<dyn cmpsim::OpStream>> = match r.checked_sub(weak) {
                None => streams_for(&profiles[r], 1),
                Some(m) => vec![Box::new(RateMixStream::new(&mix[m], m))],
            };
            single_thread_reference_streams(&opts(1), streams, deadline).map_err(|e| e.to_string())
        },
        |i, refs| {
            let (s, n) = point_of(i);
            // The single-thread cycles the run's work amounts to: `n`
            // copies of the weak reference, or the mix members' own.
            let (streams, ts) = if s < weak {
                (streams_for(&profiles[s], n), n as f64 * refs[0].0 as f64)
            } else {
                let ts_sum: u64 = (0..n).map(|k| refs[k % refs.len()].0).sum();
                (rate_mix_streams(&mix, n), ts_sum as f64)
            };
            let opts = opts(n);
            let mt = simulate_opts(&opts, n, streams, deadline).map_err(|e| e.to_string())?;
            let speedup = ts / mt.tp_cycles as f64;
            let stack = mt
                .stack(&opts.accounting)
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
        |i, outcome, attempts| match outcome {
            Ok(point) => fold.point(i, point, attempts),
            Err(reason) => {
                let (s, n) = point_of(i);
                fold.failed(i, point_label(&names[s], n), reason, attempts);
            }
        },
    );
    let (slots, degraded) = fold.into_parts(0);
    let mut slots = slots.into_iter();
    let series = names
        .into_iter()
        .map(|name| ScalingSeries {
            name,
            points: slots.by_ref().take(counts.len()).flatten().collect(),
        })
        .collect();
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

    fn quick(counts: &[usize]) -> ScalingStudy {
        run(&StudyParams {
            threads: Some(counts.to_vec()),
            parallelism: Parallelism::Serial,
            ..StudyParams::with_scale(0.02)
        })
    }

    #[test]
    fn quick_study_has_expected_shape() {
        let study = quick(&[1, 2, 4]);
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
}
