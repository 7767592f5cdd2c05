//! Seeded parameter sets over every registry study, shared by the
//! library's parameter fuzzer (`experiments/tests/param_fuzz.rs`) and the
//! wire's parity test (`service/tests/wire_parity.rs`), so both judge the
//! same cases.
//!
//! Each field mixes the values a front door can hand the gate: a few
//! in-range ones, the boundaries of every rule (`0`, 128/129, 512/513,
//! 1024/1025 threads; 255/256/257 MiB) and out-of-range ones (non-finite
//! and non-positive scales, counts to 1025, capacities to 4097 MiB).

use std::path::Path;

use experiments::study::{registry, Study, StudyParams};
use experiments::{JournalSpec, Parallelism, TraceSpec};
use workloads::rng::SmallRng;

/// Scales a case draws from: runnable tiny ones first, then what the
/// gate must refuse, then a finite one too large to run.
const SCALES: [f64; 11] = [
    1e-4,
    1e-3,
    2e-3,
    1e-6,
    0.0,
    -0.0,
    -1.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1e9,
];

/// Thread counts at the gate's boundaries.
const EDGE_THREADS: [usize; 8] = [0, 1, 128, 129, 512, 513, 1024, 1025];

/// LLC capacities at the gate's boundaries.
const EDGE_LLC_MIB: [usize; 6] = [0, 3, 255, 256, 257, 4097];

/// `true` with probability `1 / n`.
fn one_in(rng: &mut SmallRng, n: u64) -> bool {
    rng.gen_range(0..n) == 0
}

fn pick<T: Copy>(rng: &mut SmallRng, from: &[T]) -> T {
    from[rng.gen_range(0..from.len())]
}

fn thread_count(rng: &mut SmallRng) -> usize {
    match rng.gen_range(0u32..4) {
        0 => pick(rng, &EDGE_THREADS),
        1 => rng.gen_range(1..1026),
        _ => rng.gen_range(1..17),
    }
}

/// The study and parameters of case `seed`. `dir` holds the journal and
/// trace files a case names (none of them need exist).
pub fn case(seed: u64, dir: &Path) -> (&'static Study, StudyParams) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let study = &registry()[rng.gen_range(0..registry().len())];
    // Mostly runnable scales, so that accepted cases are common.
    let scale = if one_in(&mut rng, 3) {
        pick(&mut rng, &SCALES)
    } else {
        pick(&mut rng, &SCALES[..3])
    };
    let threads = match rng.gen_range(0u32..8) {
        0 | 1 => None,
        2 => Some(Vec::new()),
        _ => {
            let n = rng.gen_range(1usize..4);
            let mut counts: Vec<usize> = (0..n).map(|_| thread_count(&mut rng)).collect();
            if one_in(&mut rng, 4) {
                counts.push(counts[0]);
            }
            Some(counts)
        }
    };
    let llc_mib = match rng.gen_range(0u32..6) {
        0 | 1 => None,
        2 => Some(pick(&mut rng, &EDGE_LLC_MIB)),
        3 => Some(rng.gen_range(0..4098)),
        _ => Some(rng.gen_range(0..33)),
    };
    let parallelism = match rng.gen_range(0u32..8) {
        0 => Parallelism::Workers(0),
        1 => Parallelism::Workers(rng.gen_range(1..4)),
        2 => Parallelism::Auto,
        _ => Parallelism::Serial,
    };
    let mut params = StudyParams {
        scale,
        threads,
        parallelism,
        llc_mib,
        ..StudyParams::default()
    };
    if one_in(&mut rng, 4) {
        params.faults.deadline_cycles = Some(pick(&mut rng, &[0, 1, 1_000, 1_000_000]));
    }
    params.faults.retries = rng.gen_range(0..3);
    let path = |ext: &str| dir.join(format!("case{seed}.{ext}")).display().to_string();
    if one_in(&mut rng, 8) {
        params.journal = Some(JournalSpec {
            path: path("journal"),
            resume: rng.gen_bool(0.5),
        });
    }
    if one_in(&mut rng, 8) {
        params.max_points = Some(rng.gen_range(0..6));
    }
    if one_in(&mut rng, 10) {
        params.trace = Some(TraceSpec {
            path: path("sstrace"),
            replay: rng.gen_bool(0.5),
        });
    }
    (study, params)
}
