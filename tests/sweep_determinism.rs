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

use experiments::study::{find_study, StudyParams};
use experiments::{
    run_profile, scaled_profile, single_thread_reference, Parallelism, RunOptions, RunOutcome,
};
use speedup_stacks::report::{Block, Value};
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

/// The rows of a clean registry run's table `table`, every `F64` cell
/// as its bits (so equal rows are bit-identical).
fn table_bits(study: &str, table: &str, params: &StudyParams) -> Vec<Vec<Value>> {
    let report = find_study(study).unwrap().run(params).expect("clean run");
    assert!(
        !report
            .blocks
            .iter()
            .any(|b| matches!(b, Block::Degraded(_))),
        "{study} degraded"
    );
    let rows = report
        .blocks
        .iter()
        .find_map(|b| match b {
            Block::Table(t) if t.name == table => Some(t.rows.clone()),
            _ => None,
        })
        .unwrap_or_else(|| panic!("{study}: table {table} missing"));
    rows.into_iter()
        .map(|row| {
            row.into_iter()
                .map(|v| match v {
                    Value::F64(x) => Value::U64(x.to_bits()),
                    v => v,
                })
                .collect()
        })
        .collect()
}

#[test]
fn figure_entrypoints_match_across_modes() {
    let params = |parallelism| StudyParams {
        parallelism,
        ..StudyParams::with_scale(0.1)
    };
    let serial = table_bits("fig1", "speedup_curves", &params(Parallelism::Serial));
    let parallel = table_bits("fig1", "speedup_curves", &params(Parallelism::Workers(3)));
    assert_eq!(serial.len(), 3);
    assert_eq!(serial, parallel);

    let serial = table_bits("fig4", "validation_points", &params(Parallelism::Serial));
    let parallel = table_bits(
        "fig4",
        "validation_points",
        &params(Parallelism::Workers(4)),
    );
    assert_eq!(serial.len(), 28 * 4);
    assert_eq!(serial, parallel);
}
