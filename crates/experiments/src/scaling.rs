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
//!
//! `report` runs the sweep and builds the study straight from its
//! outcomes.

use memsim::{CacheConfig, MemConfig};
use speedup_stacks::report::{Block, Column, Report, Table, Unit, Value};
use speedup_stacks::{SimError, SpeedupStack};
use workloads::{
    default_rate_mix, display_name, find, rate_mix_streams, streams_for, RateMixStream, Suite,
    WorkloadProfile,
};

use crate::decompose::{finish, run_graph};
use crate::runner::{
    point_label, scaled_profile, simulate, single_thread_reference_streams, RunOptions,
};
use crate::study::StudyParams;

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

/// One swept point of one workload: `run_graph`'s per-unit outcome.
#[derive(Debug)]
struct ScalingPoint {
    /// Hardware cores (== software threads at this point).
    cores: usize,
    /// The speedup stack of the multi-threaded run, with the scaled
    /// speedup attached as the actual: `n · Ts / Tp` for weak-scaling
    /// workloads (the MT run does `n×` the reference work), `Σᵢ Ts(i) /
    /// Tp` for the rate mix.
    stack: SpeedupStack,
    /// Multi-threaded run duration in cycles.
    mt_cycles: u64,
    /// Engine events of the multi-threaded run.
    events: u64,
}

/// The study's weak-scaling workloads: one good scaler (blackscholes),
/// one synchronization-bound workload (cholesky: short hot critical
/// sections) and one imbalance-bound workload (lud: strong rotating
/// skew), each as its weak variant.
fn study_profiles(scale: f64) -> Vec<WorkloadProfile> {
    [
        find("blackscholes", Suite::ParsecMedium).expect("catalog"),
        find("cholesky", Suite::Splash2).expect("catalog"),
        find("lud", Suite::Rodinia).expect("catalog"),
    ]
    .iter()
    .map(|p| scaled_profile(&p.weak_variant(), scale))
    .collect()
}

/// The study as the registry runs it: `threads` overrides the swept
/// core counts ([`CORE_COUNTS`] by default), `llc_mib` resizes the
/// (32-way) many-core LLC, `scale` scales the workloads (1.0 = the
/// catalog sizes; use e.g. 0.25 for a quick pass).
///
/// The sweep is one [`crate::graph::UnitGraph`]: a single-thread
/// reference per weak workload (weak scaling: every thread's work equals
/// that run's) and one per rate-mix program (its solo run; wider mixes
/// reuse them cyclically), gating one point per series and swept count —
/// a weak series' points behind its own reference, the rate mix's behind
/// every program's, the first failed one failing the series. Every unit
/// runs in its own fault domain (honoring `params.faults`) and the
/// outcomes fold through [`crate::decompose::GridFold`], so failed
/// points land in the report's `Degraded` block exactly as a grid
/// study's do.
pub(crate) fn report(params: &StudyParams) -> Result<Report, SimError> {
    let counts = params.counts_or(&CORE_COUNTS);
    let mem = match params.llc_mib {
        Some(mib) => MemConfig {
            llc: CacheConfig::from_kib(mib * 1024, 64, 32),
            ..MemConfig::default()
        },
        None => manycore_mem(),
    };
    let profiles = study_profiles(params.scale);
    let mix: Vec<WorkloadProfile> = default_rate_mix()
        .iter()
        .map(|p| scaled_profile(p, params.scale))
        .collect();
    let mut names: Vec<String> = profiles.iter().map(display_name).collect();
    names.push("rate_mix".to_string());

    // Series `s`'s points are the indices `s * counts.len()..`; the rate
    // mix is the last series and its programs the last references.
    let weak = profiles.len();
    let point_of = |i: usize| (i / counts.len(), counts[i % counts.len()]);
    let deadline = params.faults.deadline_cycles;
    let opts = |cores: usize| RunOptions {
        mem,
        ..RunOptions::symmetric(cores)
    };
    let (slots, degraded) = run_graph(
        params,
        (weak + mix.len(), names.len() * counts.len()),
        |i| match point_of(i).0 {
            s if s < weak => s..s + 1,
            _ => weak..weak + mix.len(),
        },
        |r| {
            let streams: Vec<Box<dyn cmpsim::OpStream>> = match r.checked_sub(weak) {
                None => streams_for(&profiles[r], 1),
                Some(m) => vec![Box::new(RateMixStream::new(&mix[m], m))],
            };
            single_thread_reference_streams(&opts(1), streams, deadline)
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
            let mt = simulate(opts.machine(n), streams, deadline)?;
            let stack = mt
                .stack(&opts.accounting)
                .expect("engine produces valid counters")
                .with_actual_speedup(ts / mt.tp_cycles as f64);
            Ok(ScalingPoint {
                cores: n,
                stack,
                mt_cycles: mt.tp_cycles,
                events: mt.events,
            })
        },
        |i| {
            let (s, n) = point_of(i);
            point_label(&names[s], n)
        },
    );
    // One series per workload, its points in `counts` order.
    let series = || names.iter().zip(slots.chunks(counts.len()));
    let title = format!("Many-core scaling study: speedup stacks at {counts:?} cores");
    let mut report = Report::new("scaling", &title);
    report.push(Block::line(&title));
    report.push(Block::line(format!(
        "({} MiB {}-way LLC; weak-scaling workloads report scaled speedup n*Ts/Tp,\n\
         the rate mix reports sum(Ts_i)/Tp)",
        mem.llc.lines() * 64 / (1024 * 1024),
        mem.llc.ways(),
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
    for (name, points) in series() {
        for p in points.iter().flatten() {
            table.row(vec![
                Value::str(name),
                p.cores.into(),
                p.stack.actual_speedup().map_or(Value::Missing, Value::F64),
                p.stack.estimated_speedup().into(),
                p.mt_cycles.into(),
                p.events.into(),
            ]);
        }
    }
    report.push(Block::hidden(Block::Table(table)));
    for (name, points) in series() {
        let bars: Vec<(String, SpeedupStack)> = points
            .iter()
            .flatten()
            .map(|p| (format!("N={:>3}", p.cores), p.stack.clone()))
            .collect();
        report.push(Block::Blank);
        report.push(Block::Sweep {
            title: name.clone(),
            series: bars,
        });
    }
    Ok(finish(report, degraded, None, params))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::Parallelism;

    fn quick(counts: &[usize]) -> Report {
        report(&StudyParams {
            threads: Some(counts.to_vec()),
            parallelism: Parallelism::Serial,
            ..StudyParams::with_scale(0.02)
        })
        .expect("valid study")
    }

    #[test]
    fn quick_study_has_expected_shape() {
        let report = quick(&[1, 2, 4]);
        let mut points = None;
        let mut sweeps = Vec::new();
        for block in &report.blocks {
            match block {
                Block::Hidden(b) => match &**b {
                    Block::Table(t) if t.name == "points" => points = Some(t),
                    _ => {}
                },
                Block::Sweep { title, series } => sweeps.push((title, series)),
                Block::Degraded(d) => panic!("degraded: {d:?}"),
                _ => {}
            }
        }
        // 3 weak workloads + rate mix, one bar per swept count each.
        assert_eq!(sweeps.len(), 4);
        for (title, series) in &sweeps {
            let cores: Vec<usize> = series.iter().map(|(_, s)| s.num_threads()).collect();
            assert_eq!(cores, [1, 2, 4], "{title}");
        }
        let rows = &points.expect("point table").rows;
        assert_eq!(rows.len(), 4 * 3);
        for (row, cores) in rows.iter().zip([1u64, 2, 4].iter().cycle()) {
            assert_eq!(row[1], Value::U64(*cores));
            assert!(row[2].as_f64().unwrap() > 0.0, "scaled speedup");
            assert!(row[4].as_f64().unwrap() > 0.0, "mt cycles");
            assert!(row[5].as_f64().unwrap() > 0.0, "events");
        }
        let text = report.to_text();
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
