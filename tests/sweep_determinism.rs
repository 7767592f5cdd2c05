//! Determinism regression: a figure sweep run serially and via the
//! parallel driver must produce identical `SpeedupStack` components for
//! every (benchmark, thread-count) point.
//!
//! Each `Engine` run is deterministic and self-contained, and the driver
//! collects results in input order, so the only way this test can fail is
//! a shared-state leak between points or a collection-order bug. The
//! parallel side forces multiple workers even on single-CPU hosts so
//! genuine cross-thread execution is exercised.

use experiments::study::StudyParams;
use experiments::{
    fig1, fig45, map_mode, run_profile, scaled_profile, single_thread_reference, Parallelism,
    RunOptions, RunOutcome,
};
use speedup_stacks::Component;
use workloads::{find, Suite, WorkloadProfile};

fn grid_profiles() -> Vec<WorkloadProfile> {
    [
        ("cholesky", Suite::Splash2),
        ("blackscholes", Suite::ParsecSmall),
        ("ferret", Suite::ParsecSmall),
    ]
    .iter()
    .map(|(n, s)| scaled_profile(&find(n, *s).expect("catalog entry"), 0.2))
    .collect()
}

/// Every (profile, count) point of the grid through `run_profile`, raw
/// simulation results included, fanned out under `mode`.
fn raw_grid(profiles: &[WorkloadProfile], counts: &[usize], mode: Parallelism) -> Vec<RunOutcome> {
    let refs = map_mode(mode, profiles.iter().collect(), |p| {
        single_thread_reference(p, &RunOptions::symmetric(1)).expect("single-thread run")
    });
    let points: Vec<(usize, usize)> = (0..profiles.len())
        .flat_map(|pi| counts.iter().map(move |&n| (pi, n)))
        .collect();
    map_mode(mode, points, |(pi, n)| {
        run_profile(&profiles[pi], &RunOptions::symmetric(n), Some(refs[pi])).expect("run")
    })
}

#[test]
fn serial_and_parallel_grids_are_identical() {
    let profiles = grid_profiles();
    let counts = [2usize, 4, 8];
    let serial = raw_grid(&profiles, &counts, Parallelism::Serial);
    let parallel = raw_grid(&profiles, &counts, Parallelism::Workers(4));
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.name, p.name);
        assert_eq!(s.threads, p.threads);
        assert_eq!(s.st_cycles, p.st_cycles, "{} {}t", s.name, s.threads);
        assert_eq!(s.mt_cycles, p.mt_cycles, "{} {}t", s.name, s.threads);
        // Byte-identical stacks: every component, both speedups.
        assert_eq!(s.stack, p.stack, "{} {}t", s.name, s.threads);
        assert_eq!(s.mt.counters, p.mt.counters);
        assert_eq!(s.mt.truth, p.mt.truth);
        assert_eq!(s.mt.events, p.mt.events);
        for c in Component::ALL {
            assert_eq!(
                s.stack.component(c).to_bits(),
                p.stack.component(c).to_bits()
            );
        }
    }
}

#[test]
fn figure_entrypoints_match_across_modes() {
    let params = |parallelism| StudyParams {
        parallelism,
        ..StudyParams::with_scale(0.1)
    };
    let serial = fig1::run(&params(Parallelism::Serial));
    let parallel = fig1::run(&params(Parallelism::Workers(3)));
    for (a, b) in serial.curves.iter().zip(&parallel.curves) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.points, b.points);
    }

    let serial = fig45::run(&params(Parallelism::Serial));
    let parallel = fig45::run(&params(Parallelism::Workers(4)));
    assert_eq!(serial.points.len(), parallel.points.len());
    for (a, b) in serial.points.iter().zip(&parallel.points) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.threads, b.threads);
        assert_eq!(a.actual.to_bits(), b.actual.to_bits());
        assert_eq!(a.estimated.to_bits(), b.estimated.to_bits());
    }
}
