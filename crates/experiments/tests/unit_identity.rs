//! Soundness of [`GridStudy::unit_keys`], the identity the study
//! service caches and coalesces by.
//!
//! Over the seven grid studies × four `threads` lists × two scales × two
//! LLC sizes (112 grids):
//!
//! - **equal key ⇒ equal bytes.** Every study that owns a key computes
//!   it once through its own grid ([`GridStudy::compute_reference`] /
//!   [`GridStudy::compute_point`]); all owners of one key must produce
//!   the same reference pair, or the same `to_record()` string.
//! - **a different computation ⇒ a different key.** A key maps to exactly
//!   one (kind, suite, benchmark, thread count, scale bits, LLC), read
//!   off the grid independently of how the key is spelled — and the
//!   other way round, which is what lets `fig6` reuse `fig4`'s column.
//! - **how a unit is run never enters it.** Parallelism, fault policy,
//!   journal, trace and budget, drawn from a seeded RNG per grid, leave
//!   the whole table equal.

use std::collections::HashMap;

use experiments::decompose::{decompose, GridStudy};
use experiments::graph::Unit;
use experiments::runner::FaultPolicy;
use experiments::study::StudyParams;
use experiments::{JournalSpec, Parallelism, TraceSpec};
use workloads::rng::SmallRng;

const STUDIES: [&str; 7] = ["fig4", "fig6", "fig5", "fig1", "fig2", "fig3", "fig8"];

/// What a unit computes, read off the grid without going through the
/// key: kind, suite, benchmark (+ weak flag), threads (0 = reference),
/// scale bits, LLC override.
type Computation = (bool, &'static str, String, bool, usize, u64, Option<usize>);

fn computation(grid: &GridStudy, params: &StudyParams, unit: Unit) -> Computation {
    let (is_point, pi, threads) = match unit {
        Unit::Ref(pi) => (false, pi, 0),
        Unit::Point(index) => {
            let (pi, n) = grid.point(index);
            (true, pi, n)
        }
    };
    let p = &grid.profiles()[pi];
    (
        is_point,
        p.suite.label(),
        p.name.to_string(),
        p.weak_scaling,
        threads,
        params.scale.to_bits(),
        params.llc_mib,
    )
}

fn grids() -> Vec<StudyParams> {
    let mut out = Vec::new();
    for threads in [None, Some(vec![2]), Some(vec![2, 4]), Some(vec![16])] {
        for scale in [0.01, 0.02] {
            for llc_mib in [None, Some(4)] {
                out.push(StudyParams {
                    scale,
                    threads: threads.clone(),
                    llc_mib,
                    ..StudyParams::default()
                });
            }
        }
    }
    out
}

/// The same parameters with everything that only decides *how* a unit
/// is run redrawn.
fn rerun_differently(params: &StudyParams, rng: &mut SmallRng) -> StudyParams {
    StudyParams {
        parallelism: match rng.gen_range(0..3u32) {
            0 => Parallelism::Serial,
            1 => Parallelism::Auto,
            _ => Parallelism::Workers(rng.gen_range(1..9usize)),
        },
        faults: FaultPolicy {
            deadline_cycles: rng.gen_bool(0.5).then(|| rng.gen_range(1..1_000_000u64)),
            retries: rng.gen_range(0..4u32),
        },
        journal: rng.gen_bool(0.5).then(|| JournalSpec {
            path: format!("j{}.ndjson", rng.next_u64()),
            resume: rng.gen_bool(0.5),
        }),
        max_points: rng.gen_bool(0.5).then(|| rng.gen_range(1..50usize)),
        trace: rng.gen_bool(0.5).then(|| TraceSpec {
            path: format!("t{}.sstrace", rng.next_u64()),
            replay: rng.gen_bool(0.5),
        }),
        ..params.clone()
    }
}

#[test]
fn equal_keys_mean_equal_bytes_and_nothing_else_shares_a_key() {
    let mut rng = SmallRng::seed_from_u64(0x005e_ed1d);
    // key -> what it computes, and back.
    let mut meaning: HashMap<String, Computation> = HashMap::new();
    let mut spelling: HashMap<Computation, String> = HashMap::new();
    // (owner study, key) -> the bytes that study computed for it.
    let mut computed: HashMap<(&str, String), String> = HashMap::new();

    for params in grids() {
        for study in STUDIES {
            let grid = decompose(study, &params).expect("grid study");
            let keys = grid.unit_keys(&params);
            assert_eq!(
                grid.unit_keys(&rerun_differently(&params, &mut rng)),
                keys,
                "{study}: how a unit is run is not what it computes"
            );

            let mut refs = Vec::new();
            for pi in 0..grid.profiles().len() {
                let unit = Unit::Ref(pi);
                let st = grid.compute_reference(&params, pi).expect("reference");
                refs.push(st);
                let first = computed
                    .entry((study, keys.get(unit).to_string()))
                    .or_insert_with(|| format!("{st:?}"));
                assert_eq!(*first, format!("{st:?}"), "{study} {}", keys.get(unit));
            }
            for index in 0..grid.n_points() {
                let unit = Unit::Point(index);
                let owner = (study, keys.get(unit).to_string());
                computed.entry(owner).or_insert_with(|| {
                    let (pi, _) = grid.point(index);
                    let point = grid.compute_point(&params, index, refs[pi]);
                    point.expect("point").to_record()
                });
            }

            let refs = (0..grid.profiles().len()).map(Unit::Ref);
            for unit in refs.chain((0..grid.n_points()).map(Unit::Point)) {
                let (key, what) = (keys.get(unit), computation(&grid, &params, unit));
                let meant = meaning
                    .entry(key.to_string())
                    .or_insert_with(|| what.clone());
                assert_eq!(*meant, what, "one key, two computations: {key}");
                let spelled = spelling.entry(what).or_insert_with(|| key.to_string());
                assert_eq!(spelled, key, "one computation, two keys");
            }
        }
    }

    // Every owner of a key computed the same bytes for it.
    let mut by_key: HashMap<&str, (&str, &str)> = HashMap::new();
    let mut shared = 0usize;
    for ((study, key), bytes) in &computed {
        match by_key.get(key.as_str()) {
            None => {
                by_key.insert(key, (study, bytes));
            }
            Some((other, expected)) => {
                assert_eq!(bytes, expected, "{key}: {study} vs {other}");
                shared += 1;
            }
        }
    }
    // The other studies own nothing fig4 does not: 28 + 28·4 units per
    // (scale, LLC), every other (study, key) pair is a shared one.
    assert_eq!(by_key.len(), 4 * (28 + 28 * 4));
    assert_eq!(shared, computed.len() - by_key.len());
    assert!(shared > by_key.len(), "the studies overlap heavily");
}

#[test]
fn a_reference_and_a_one_thread_point_never_collide() {
    let params = StudyParams {
        scale: 0.01,
        threads: Some(vec![1]),
        ..StudyParams::default()
    };
    let grid = decompose("fig5", &params).unwrap();
    let keys = grid.unit_keys(&params);
    for pi in 0..3 {
        assert_eq!(grid.point(pi), (pi, 1));
        assert_ne!(keys.get(Unit::Ref(pi)), keys.get(Unit::Point(pi)));
    }
}
