//! Round-trip property tests for the binary trace codec: deterministic
//! randomized op streams (seeded in-repo [`workloads::rng::SmallRng`])
//! must survive encode → write → read → decode exactly, and the varint
//! primitives must round-trip their boundary values.

use std::path::PathBuf;

use cmpsim::{Op, OpStream, VecStream};
use workloads::rng::SmallRng;
use workloads::trace::{
    decode_svarint, decode_uvarint, encode_svarint, encode_uvarint, verify, TraceReader,
    TraceWriter,
};

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("trace-rt-{}-{tag}.sstrace", std::process::id()))
}

fn drain(stream: &mut dyn OpStream) -> Vec<Op> {
    let mut out = Vec::new();
    while let Some(op) = stream.next_op() {
        out.push(op);
    }
    out
}

/// One random op, drawn across every tag and the full address space —
/// including boundary addresses (0, max) and backwards jumps, which
/// stress the wrapping delta encoder.
fn random_op(rng: &mut SmallRng) -> Op {
    match rng.gen_range(0u32..8) {
        0 => Op::Compute(rng.gen_range(1u32..10_000)),
        1 => Op::Load(rng.next_u64()),
        2 => Op::Store(rng.next_u64()),
        3 => Op::Load(
            *[0u64, 1, u64::MAX, u64::MAX - 1]
                .get(rng.gen_range(0usize..4))
                .unwrap(),
        ),
        4 => Op::Store(rng.gen_range(0u64..64)),
        5 => Op::LockAcquire(rng.gen_range(0u32..8)),
        6 => Op::LockRelease(rng.gen_range(0u32..8)),
        _ => Op::Barrier(rng.gen_range(0u32..4)),
    }
}

#[test]
fn randomized_streams_round_trip_bit_exactly() {
    let path = tmp("prop");
    for seed in 0..20u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n_threads = rng.gen_range(1usize..5);
        let n_runs = rng.gen_range(1usize..4);
        let mut expected: Vec<(String, Vec<Vec<Op>>)> = Vec::new();
        let mut w = TraceWriter::create(&path, "prop", &format!("seed-{seed}")).unwrap();
        for run_idx in 0..n_runs {
            let name = format!("run{run_idx}");
            let threads: Vec<Vec<Op>> = (0..n_threads)
                .map(|_| {
                    let len = rng.gen_range(0usize..3000);
                    (0..len).map(|_| random_op(&mut rng)).collect()
                })
                .collect();
            w.add_run(
                &name,
                threads
                    .iter()
                    .map(|ops| Box::new(VecStream::new(ops.clone())) as Box<dyn OpStream>)
                    .collect(),
            )
            .unwrap();
            expected.push((name, threads));
        }
        let stats = w.finish().unwrap();
        assert_eq!(stats.runs, n_runs, "seed {seed}");
        let total: u64 = expected
            .iter()
            .flat_map(|(_, t)| t.iter())
            .map(|ops| ops.len() as u64)
            .sum();
        assert_eq!(stats.ops, total, "seed {seed}");

        let r = TraceReader::open(&path, Some(("prop", &format!("seed-{seed}")))).unwrap();
        for (name, threads) in &expected {
            let mut run = r.run_streams(name, n_threads).unwrap();
            for (t, ops) in threads.iter().enumerate() {
                assert_eq!(
                    &drain(run.streams[t].as_mut()),
                    ops,
                    "seed {seed} {name} thread {t}"
                );
            }
            assert!(run.fault.take().is_none(), "seed {seed} {name}");
        }
        // Full verification agrees with the writer's statistics.
        assert_eq!(verify(&path).unwrap(), stats, "seed {seed}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn uvarint_round_trips_boundaries_and_random_values() {
    let mut cases = vec![
        0u64,
        1,
        127,
        128,
        16_383,
        16_384,
        u64::from(u32::MAX),
        u64::MAX - 1,
        u64::MAX,
    ];
    let mut rng = SmallRng::seed_from_u64(7);
    cases.extend((0..500).map(|_| rng.next_u64()));
    // Shifted values exercise every encoded length (1–10 bytes).
    cases.extend((0..64).map(|s| 1u64 << s));
    for v in cases {
        let mut buf = Vec::new();
        encode_uvarint(v, &mut buf);
        assert!(buf.len() <= 10);
        let mut pos = 0;
        assert_eq!(decode_uvarint(&buf, &mut pos).unwrap(), v);
        assert_eq!(pos, buf.len(), "trailing bytes for {v}");
    }
}

#[test]
fn svarint_round_trips_boundaries_and_random_deltas() {
    let mut cases = vec![0i64, 1, -1, 63, 64, -64, -65, i64::MAX, i64::MIN];
    let mut rng = SmallRng::seed_from_u64(11);
    // Random deltas, including the backwards (negative) jumps produced
    // when a thread returns to a lower line address.
    #[allow(clippy::cast_possible_wrap)]
    cases.extend((0..500).map(|_| rng.next_u64() as i64));
    for v in cases {
        let mut buf = Vec::new();
        encode_svarint(v, &mut buf);
        let mut pos = 0;
        assert_eq!(decode_svarint(&buf, &mut pos).unwrap(), v);
        assert_eq!(pos, buf.len(), "trailing bytes for {v}");
    }
}

#[test]
fn generated_profile_streams_round_trip() {
    // Not hand-built vectors but the real generators: capture a catalog
    // profile's streams, replay, and compare against a fresh generation
    // (the generators are deterministic).
    let profile = workloads::find("blackscholes", workloads::Suite::ParsecSmall).unwrap();
    let n = 2usize;
    let path = tmp("gen");
    let mut w = TraceWriter::create(&path, "prop", "gen").unwrap();
    w.add_run("bs", workloads::streams_for(&profile, n))
        .unwrap();
    w.finish().unwrap();
    let r = TraceReader::open(&path, None).unwrap();
    let mut run = r.run_streams("bs", n).unwrap();
    let fresh = workloads::streams_for(&profile, n);
    for (t, mut f) in fresh.into_iter().enumerate() {
        assert_eq!(
            drain(run.streams[t].as_mut()),
            drain(f.as_mut()),
            "thread {t}"
        );
    }
    assert!(run.fault.take().is_none());
    let _ = std::fs::remove_file(&path);
}
