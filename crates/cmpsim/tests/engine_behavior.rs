//! Behavioural tests of the simulation engine: timing, synchronization,
//! scheduling, accounting and determinism.

use cmpsim::{simulate, MachineConfig, Op, OpStream, SimError, SpinDetectorKind, VecStream};
use speedup_stacks::{AccountingConfig, Component};

fn boxed(ops: Vec<Op>) -> Box<dyn OpStream> {
    Box::new(VecStream::new(ops))
}

fn small_machine(cores: usize) -> MachineConfig {
    MachineConfig::with_cores(cores)
}

#[test]
fn single_thread_compute_timing() {
    let r = simulate(small_machine(1), vec![boxed(vec![Op::Compute(123)])]).unwrap();
    assert_eq!(r.tp_cycles, 123);
    assert_eq!(r.counters[0].instructions, 123);
}

#[test]
fn two_independent_threads_run_in_parallel() {
    let r = simulate(
        small_machine(2),
        vec![
            boxed(vec![Op::Compute(1000)]),
            boxed(vec![Op::Compute(1000)]),
        ],
    )
    .unwrap();
    assert_eq!(r.tp_cycles, 1000, "threads must overlap fully");
}

#[test]
fn imbalance_recorded_via_active_end() {
    let r = simulate(
        small_machine(2),
        vec![
            boxed(vec![Op::Compute(1000)]),
            boxed(vec![Op::Compute(400)]),
        ],
    )
    .unwrap();
    assert_eq!(r.counters[0].active_end_cycle, 1000);
    assert_eq!(r.counters[1].active_end_cycle, 400);
    let stack = r.stack(&AccountingConfig::default()).unwrap();
    assert!((stack.component(Component::Imbalance) - 0.6).abs() < 1e-9);
}

#[test]
fn loads_stall_and_are_counted() {
    let r = simulate(
        small_machine(1),
        vec![boxed(vec![Op::Load(100), Op::Load(100), Op::Compute(10)])],
    )
    .unwrap();
    // First load: DRAM; second: L1 hit.
    assert_eq!(r.truth[0].llc_accesses, 1);
    assert_eq!(r.truth[0].llc_misses, 1);
    assert_eq!(r.counters[0].llc_load_misses, 1);
    assert!(r.counters[0].llc_load_miss_stall_cycles > 0.0);
    assert!(r.tp_cycles > 50, "DRAM latency must be visible");
    // An in-order core (no overlap window) exposes the whole latency of
    // both loads: at most one default window more per load.
    let mut in_order = small_machine(1);
    let window = std::mem::take(&mut in_order.core.overlap_window);
    let exposed = simulate(
        in_order,
        vec![boxed(vec![Op::Load(100), Op::Load(100), Op::Compute(10)])],
    )
    .unwrap();
    assert!(exposed.tp_cycles > r.tp_cycles);
    assert!(exposed.tp_cycles <= r.tp_cycles + 2 * window);
}

#[test]
fn stores_do_not_stall() {
    let loads = simulate(small_machine(1), vec![boxed(vec![Op::Load(100)])]).unwrap();
    let stores = simulate(small_machine(1), vec![boxed(vec![Op::Store(100)])]).unwrap();
    assert!(stores.tp_cycles < loads.tp_cycles);
}

#[test]
fn lock_provides_mutual_exclusion_and_serializes() {
    // Two threads each hold the lock for 10_000 cycles of compute.
    let work = |_: usize| {
        boxed(vec![
            Op::LockAcquire(0),
            Op::Compute(10_000),
            Op::LockRelease(0),
        ])
    };
    let r = simulate(small_machine(2), vec![work(0), work(1)]).unwrap();
    // Critical sections serialize: total ≥ 20_000.
    assert!(r.tp_cycles >= 20_000, "tp={}", r.tp_cycles);
}

#[test]
fn short_contention_is_spinning_not_yielding() {
    // Holder keeps the lock for less than the spin threshold.
    let cfg = small_machine(2);
    let hold = (cfg.sync.spin_threshold / 2) as u32;
    let work = |_: usize| {
        boxed(vec![
            Op::LockAcquire(0),
            Op::Compute(hold),
            Op::LockRelease(0),
        ])
    };
    let r = simulate(cfg, vec![work(0), work(1)]).unwrap();
    let spin: u64 = r.truth.iter().map(|t| t.true_spin_cycles).sum();
    let yield_c: f64 = r.counters.iter().map(|c| c.yield_cycles).sum();
    assert!(spin > 0, "waiter must have spun");
    assert_eq!(yield_c, 0.0, "no yields expected below the spin threshold");
}

#[test]
fn long_contention_yields() {
    let cfg = small_machine(2);
    let hold = (cfg.sync.spin_threshold * 20) as u32;
    let work = |_: usize| {
        boxed(vec![
            Op::LockAcquire(0),
            Op::Compute(hold),
            Op::LockRelease(0),
        ])
    };
    let r = simulate(cfg, vec![work(0), work(1)]).unwrap();
    let yield_c: f64 = r.counters.iter().map(|c| c.yield_cycles).sum();
    let spin: u64 = r.truth.iter().map(|t| t.true_spin_cycles).sum();
    assert!(yield_c > 0.0, "long wait must be scheduled out");
    // The waiter spun exactly until the threshold before yielding.
    assert!(spin as u64 >= cfg.sync.spin_threshold);
}

#[test]
fn barrier_synchronizes_all_threads() {
    // Thread 0 computes 10_000 before the barrier; thread 1 is fast.
    let r = simulate(
        small_machine(2),
        vec![
            boxed(vec![Op::Compute(10_000), Op::Barrier(0), Op::Compute(100)]),
            boxed(vec![Op::Compute(10), Op::Barrier(0), Op::Compute(100)]),
        ],
    )
    .unwrap();
    // Thread 1 cannot finish before thread 0 reaches the barrier.
    assert!(r.counters[1].active_end_cycle >= 10_000);
    let waited: u64 = r.truth[1].true_spin_cycles + r.counters[1].yield_cycles as u64;
    assert!(waited > 5_000, "thread 1 must have waited at the barrier");
}

#[test]
fn barrier_reusable_across_phases() {
    let mk = |c: u32| {
        boxed(vec![
            Op::Compute(c),
            Op::Barrier(0),
            Op::Compute(c),
            Op::Barrier(0),
            Op::Compute(10),
        ])
    };
    let r = simulate(small_machine(2), vec![mk(100), mk(200)]).unwrap();
    assert!(r.tp_cycles >= 410);
}

#[test]
fn single_thread_barrier_passes_through() {
    let r = simulate(
        small_machine(1),
        vec![boxed(vec![Op::Barrier(0), Op::Compute(5)])],
    )
    .unwrap();
    assert!(r.tp_cycles < 100);
}

#[test]
fn more_threads_than_cores_all_finish_and_yield() {
    let streams: Vec<_> = (0..4).map(|_| boxed(vec![Op::Compute(50_000)])).collect();
    let r = simulate(small_machine(1), streams).unwrap();
    // Serialized on one core: at least 200k cycles.
    assert!(r.tp_cycles >= 200_000);
    let total_yield: f64 = r.counters.iter().map(|c| c.yield_cycles).sum();
    assert!(total_yield > 100_000.0, "queued threads are scheduled out");
}

#[test]
fn round_robin_preemption_shares_the_core() {
    let cfg = small_machine(1);
    // Preemption happens at op boundaries, so long work is chunked.
    let long = boxed(vec![Op::Compute(10_000); 100]);
    let short = boxed(vec![Op::Compute(10), Op::Compute(10)]);
    let r = simulate(cfg, vec![long, short]).unwrap();
    // The short thread must not wait for the long one to finish entirely:
    // it runs within roughly one quantum + context switches.
    assert!(
        r.counters[1].active_end_cycle < 300_000,
        "short thread starved: finished at {}",
        r.counters[1].active_end_cycle
    );
}

#[test]
fn deadlock_detected_for_unreleasable_lock() {
    // Thread 0 acquires and never releases; thread 1 blocks forever.
    let r = simulate(
        small_machine(2),
        vec![
            boxed(vec![Op::LockAcquire(0), Op::Compute(10)]),
            boxed(vec![Op::LockAcquire(0), Op::Compute(10)]),
        ],
    );
    match r {
        Err(SimError::Deadlock { unfinished, .. }) => assert_eq!(unfinished, vec![1]),
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn releasing_unheld_lock_is_a_protocol_violation() {
    let r = simulate(small_machine(1), vec![boxed(vec![Op::LockRelease(0)])]);
    assert!(matches!(
        r,
        Err(SimError::ProtocolViolation { thread: 0, .. })
    ));
}

#[test]
fn recursive_acquire_is_a_protocol_violation() {
    let r = simulate(
        small_machine(1),
        vec![boxed(vec![Op::LockAcquire(0), Op::LockAcquire(0)])],
    );
    assert!(matches!(
        r,
        Err(SimError::ProtocolViolation { thread: 0, .. })
    ));
}

#[test]
fn determinism_same_config_same_result() {
    let mk_streams = || -> Vec<Box<dyn OpStream>> {
        (0..4)
            .map(|t| {
                let ops: Vec<Op> = (0..200)
                    .flat_map(|i| {
                        vec![
                            Op::Compute(5 + (i % 7)),
                            Op::Load((t * 1000 + i * 13) as u64),
                            Op::Store((i * 29) as u64),
                            Op::Barrier(0),
                        ]
                    })
                    .collect();
                boxed(ops)
            })
            .collect()
    };
    let a = simulate(small_machine(4), mk_streams()).unwrap();
    let b = simulate(small_machine(4), mk_streams()).unwrap();
    assert_eq!(a.tp_cycles, b.tp_cycles);
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.truth, b.truth);
}

#[test]
fn tian_detector_misses_very_short_spins_oracle_does_not() {
    // A contended lock with hold times so short the spin episodes stay
    // below Tian's mark threshold.
    let mk = || {
        let ops: Vec<Op> = (0..50)
            .flat_map(|_| {
                vec![
                    Op::LockAcquire(0),
                    Op::Compute(40),
                    Op::LockRelease(0),
                    Op::Compute(5),
                ]
            })
            .collect();
        boxed(ops)
    };
    let mut cfg = small_machine(2);
    cfg.spin_detector = SpinDetectorKind::Tian { mark_threshold: 16 };
    let tian = simulate(cfg, vec![mk(), mk()]).unwrap();
    let mut cfg = small_machine(2);
    cfg.spin_detector = SpinDetectorKind::Oracle;
    let oracle = simulate(cfg, vec![mk(), mk()]).unwrap();

    let tian_detected: f64 = tian.counters.iter().map(|c| c.spin_cycles).sum();
    let oracle_detected: f64 = oracle.counters.iter().map(|c| c.spin_cycles).sum();
    let truth: u64 = oracle.truth.iter().map(|t| t.true_spin_cycles).sum();
    assert!(truth > 0);
    assert!((oracle_detected - truth as f64).abs() < 1e-9);
    assert!(
        tian_detected < oracle_detected,
        "Tian must under-detect short episodes (tian={tian_detected}, oracle={oracle_detected})"
    );
}

#[test]
fn coherence_traffic_counted() {
    // Both threads ping-pong stores to the same line.
    let mk = || {
        let ops: Vec<Op> = (0..100)
            .flat_map(|_| vec![Op::Store(5), Op::Compute(50)])
            .collect();
        boxed(ops)
    };
    let r = simulate(small_machine(2), vec![mk(), mk()]).unwrap();
    let invals: u64 = r.truth.iter().map(|t| t.invalidations_sent).sum();
    let coh: u64 = r.truth.iter().map(|t| t.coherency_misses).sum();
    assert!(invals > 0, "stores to a shared line must invalidate");
    assert!(
        coh > 0,
        "re-references after invalidation are coherency misses"
    );
}

#[test]
fn interthread_hits_truth_on_shared_reads() {
    // Thread 0 loads a region; thread 1 then reads the same region after a
    // barrier, hitting lines inserted by thread 0.
    let t0: Vec<Op> = (0..64)
        .map(|i| Op::Load(i as u64))
        .chain(std::iter::once(Op::Barrier(0)))
        .collect();
    let t1: Vec<Op> = std::iter::once(Op::Barrier(0))
        .chain((0..64).map(|i| Op::Load(i as u64)))
        .collect();
    let r = simulate(small_machine(2), vec![boxed(t0), boxed(t1)]).unwrap();
    assert!(
        r.truth[1].interthread_hits_truth > 32,
        "thread 1 must reuse thread 0's lines (got {})",
        r.truth[1].interthread_hits_truth
    );
}

#[test]
fn speedup_stack_integrates() {
    let mk = |c: u32| boxed(vec![Op::Compute(c), Op::Barrier(0)]);
    let r = simulate(
        small_machine(4),
        vec![mk(4000), mk(4000), mk(4000), mk(8000)],
    )
    .unwrap();
    let stack = r.stack(&AccountingConfig::default()).unwrap();
    assert_eq!(stack.num_threads(), 4);
    assert!(stack.is_valid());
    // Three threads wait ~4000 cycles on the barrier: spinning + yielding
    // + imbalance must be visible.
    assert!(
        stack.total_overhead() > 0.5,
        "overhead = {}",
        stack.total_overhead()
    );
}

#[test]
fn cycle_limit_enforced() {
    let mut cfg = small_machine(1);
    cfg.max_cycles = 100;
    let r = simulate(cfg, vec![boxed(vec![Op::Compute(1000), Op::Compute(1000)])]);
    assert!(matches!(r, Err(SimError::CycleLimitExceeded { .. })));
}

#[test]
fn out_of_range_sync_ids_are_protocol_violations() {
    // A rogue id must fail cleanly instead of growing the dense sync
    // tables towards u32::MAX entries (and aliasing lock lines into the
    // barrier region).
    for bad in [
        Op::LockAcquire(1 << 20),
        Op::LockRelease(u32::MAX),
        Op::Barrier(1 << 20),
    ] {
        let r = simulate(small_machine(1), vec![boxed(vec![bad])]);
        assert!(
            matches!(r, Err(SimError::ProtocolViolation { thread: 0, .. })),
            "op {bad:?} gave {r:?}"
        );
    }
    // The largest valid id still works.
    let ok = simulate(
        small_machine(1),
        vec![boxed(vec![
            Op::LockAcquire((1 << 20) - 1),
            Op::LockRelease((1 << 20) - 1),
        ])],
    );
    assert!(ok.is_ok());
}
