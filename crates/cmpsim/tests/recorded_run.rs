//! One oversubscribed run — 5 threads on 3 cores with contended locks,
//! hot shared lines and barrier rounds — pinned against the numbers the
//! engine produced at commit 513bf3a. Any change to the `(time, seq)`
//! event order, to the inline-continuation rule, to compute fusion or to
//! the memory hierarchy's outcomes moves at least one of them.

use cmpsim::{simulate, MachineConfig, Op, OpStream, ThreadTruth, VecStream};

/// Deterministic SplitMix64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// One thread's ops for one barrier round: a random mix of compute,
/// shared and private memory traffic, a contended critical section and
/// updates of two hot lines, closed by the shared barrier. Identical barrier counts
/// across threads keep the workload deadlock-free by construction.
fn round_ops(rng: &mut Rng, thread: usize, ops: &mut Vec<Op>) {
    let blocks = 1 + rng.below(6);
    for _ in 0..blocks {
        match rng.below(10) {
            0..=2 => ops.push(Op::Compute(1 + rng.below(700) as u32)),
            3 | 4 => ops.push(Op::Load(rng.below(2_048))),
            5 => ops.push(Op::Store(rng.below(512))),
            6 => ops.push(Op::Load(
                100_000 + thread as u64 * 10_000 + rng.below(4_096),
            )),
            7 | 8 => {
                let lock = rng.below(3) as u32;
                ops.push(Op::LockAcquire(lock));
                ops.push(Op::Compute(1 + rng.below(2_500) as u32));
                if rng.below(2) == 0 {
                    ops.push(Op::Store(900 + u64::from(lock)));
                }
                ops.push(Op::LockRelease(lock));
            }
            _ => {
                // A few back-to-back updates of two hot lines, so that
                // concurrent writers invalidate each other's copies.
                for _ in 0..1 + rng.below(3) {
                    ops.push(Op::Load(7_000 + rng.below(2)));
                    ops.push(Op::Compute(1 + rng.below(400) as u32));
                    ops.push(Op::Store(7_000 + rng.below(2)));
                }
            }
        }
    }
    // A long block now and then, so quantum-scale gaps interleave with
    // single-cycle ones in the queue.
    if rng.below(8) == 0 {
        ops.push(Op::Compute(30_000));
    }
    ops.push(Op::Barrier(0));
}

fn streams(seed: u64, n_threads: usize, rounds: u64) -> Vec<Box<dyn OpStream>> {
    let mut rng = Rng(seed);
    (0..n_threads)
        .map(|t| {
            let mut ops = Vec::new();
            for _ in 0..rounds {
                round_ops(&mut rng, t, &mut ops);
            }
            Box::new(VecStream::new(ops)) as Box<dyn OpStream>
        })
        .collect()
}

/// FNV-1a over the `Debug` rendering: covers every counter field,
/// floating-point ones included, without listing all fourteen per thread.
fn digest(value: &impl std::fmt::Debug) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

#[test]
fn oversubscribed_run_matches_the_recorded_result() {
    let mut cfg = MachineConfig::with_cores(3);
    cfg.record_regions = true;
    let r = simulate(cfg, streams(0x51AB, 5, 60)).unwrap();

    assert_eq!(r.tp_cycles, 1_218_030, "tp_cycles");
    assert_eq!(r.events, 2_994, "events");

    // (active_end_cycle, instructions, spin_cycles, yield_cycles,
    //  llc_accesses) per thread.
    let counters: Vec<(u64, u64, f64, f64, u64)> = r
        .counters
        .iter()
        .map(|c| {
            (
                c.active_end_cycle,
                c.instructions,
                c.spin_cycles,
                c.yield_cycles,
                c.llc_accesses,
            )
        })
        .collect();
    assert_eq!(
        counters,
        [
            (1_213_080, 240_062, 79_192.0, 927_518.0, 200),
            (1_218_030, 416_573, 67_492.0, 761_942.0, 220),
            (1_213_031, 231_883, 72_505.0, 938_582.0, 193),
            (1_218_030, 215_153, 75_943.0, 957_667.0, 198),
            (1_218_030, 334_645, 69_424.0, 842_345.0, 216),
        ],
        "counters"
    );
    assert_eq!(
        digest(&r.counters),
        0x270b_faec_3743_cb04,
        "digest of every counter field"
    );

    // (true_spin_cycles, interthread_hits_truth, llc_accesses, llc_misses,
    //  coherency_misses, invalidations_sent, wait_episodes) per thread.
    let truth = [
        (79_192, 78, 200, 75, 114, 118, 56),
        (67_492, 112, 220, 83, 125, 135, 50),
        (72_505, 60, 193, 82, 103, 107, 52),
        (76_051, 77, 198, 88, 97, 111, 54),
        (69_424, 98, 216, 84, 115, 124, 49),
    ]
    .map(
        |(spin, hits, accesses, misses, coh, inv, waits)| ThreadTruth {
            true_spin_cycles: spin,
            interthread_hits_truth: hits,
            llc_accesses: accesses,
            llc_misses: misses,
            coherency_misses: coh,
            invalidations_sent: inv,
            wait_episodes: waits,
        },
    );
    assert_eq!(r.truth, truth, "truth");

    assert_eq!(r.regions.len(), 60);
    let releases: Vec<u64> = r.regions.iter().map(|s| s.release_cycle).collect();
    assert_eq!(
        digest(&releases),
        0x98d8_3c6e_0e73_6184,
        "barrier release cycles"
    );
    assert_eq!(
        digest(&r.regions.last().unwrap().counters),
        0xb507_913d_e217_c166,
        "cumulative counters at the last barrier"
    );
}
