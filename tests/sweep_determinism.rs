//! Determinism regression: a figure sweep run serially and across
//! threads must produce identical `SpeedupStack` components — and
//! identical raw counters, ground truth and event counts — for every
//! (benchmark, thread-count) point.
//!
//! Each `Engine` run is deterministic and self-contained, so the only way
//! this test can fail is a shared-state leak between points run on
//! different threads or a collection-order bug. The parallel side forces
//! several threads even on single-CPU hosts so genuine cross-thread
//! execution is exercised.

use experiments::study::StudyParams;
use experiments::{
    fig1, fig45, run_profile, scaled_profile, single_thread_reference, Parallelism, RunOptions,
    RunOutcome,
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

/// `f` over every item on `threads` scoped threads (thread `t` takes the
/// items `t, t + threads, …`), results in input order.
fn fan_out<T: Sync, R: Send>(threads: usize, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let mut slots: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let f = &f;
                scope.spawn(move || {
                    let mine = items.iter().enumerate().skip(t).step_by(threads);
                    mine.map(|(i, item)| (i, f(item))).collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker"))
            .collect()
    });
    slots.sort_by_key(|(i, _)| *i);
    slots.into_iter().map(|(_, r)| r).collect()
}

/// Every (profile, count) point of the grid through `run_profile`, raw
/// simulation results included, fanned out over `threads` threads.
fn raw_grid(profiles: &[WorkloadProfile], counts: &[usize], threads: usize) -> Vec<RunOutcome> {
    let refs = fan_out(threads, profiles, |p| {
        single_thread_reference(p, &RunOptions::symmetric(1)).expect("single-thread run")
    });
    let points: Vec<(usize, usize)> = (0..profiles.len())
        .flat_map(|pi| counts.iter().map(move |&n| (pi, n)))
        .collect();
    fan_out(threads, &points, |&(pi, n)| {
        run_profile(&profiles[pi], &RunOptions::symmetric(n), Some(refs[pi])).expect("run")
    })
}

#[test]
fn serial_and_parallel_grids_are_identical() {
    let profiles = grid_profiles();
    let counts = [2usize, 4, 8];
    let serial = raw_grid(&profiles, &counts, 1);
    let parallel = raw_grid(&profiles, &counts, 4);
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
