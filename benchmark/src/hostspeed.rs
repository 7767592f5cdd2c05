//! A yardstick for the host's speed at the moment a body runs.
//!
//! The shared host this benchmark is sized for switches between a fast
//! and a slow state (the kernel below reads 7.3 ms or 9.3 ms per three
//! million rounds) every few seconds to tens of seconds, and a run of
//! ten to twenty seconds cannot average that out. The kernel is
//! sampled right before and right after every timed body; the parent
//! reports host times scaled to [`REFERENCE_NS_PER_ROUND`], and the raw
//! seconds stay visible as `host.proc_wall_s` and `host.cpu_s`.
//!
//! The kernel is the harness's own and touches no crate under test, so
//! no change to the program can move it.

use std::hint::black_box;
use std::time::Instant;

/// Rounds per sample (about 5 ms) and samples per side of a body.
const ROUNDS: u64 = 2_000_000;
const SAMPLES_PER_SIDE: usize = 5;

/// The kernel's cost on the sizing host in its fast state. Host times
/// are reported as if the host ran at this speed throughout.
pub const REFERENCE_NS_PER_ROUND: f64 = 2.43;

/// A dependent chain of shifts, xors and one multiply per round: it
/// runs at the core's clock and nothing else.
fn kernel(rounds: u64) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..rounds {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
    }
    x
}

/// Nanoseconds per round of each of [`SAMPLES_PER_SIDE`] samples.
fn sample() -> [f64; SAMPLES_PER_SIDE] {
    std::array::from_fn(|_| {
        let t0 = Instant::now();
        black_box(kernel(black_box(ROUNDS)));
        t0.elapsed().as_secs_f64() * 1e9 / ROUNDS as f64
    })
}

/// A yardstick reading around one body.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    /// Median nanoseconds per round over the samples of both sides.
    pub ns_per_round: f64,
    /// Seconds the samples before the body took (they are not part of
    /// anyone's set-up time).
    pub before_s: f64,
}

/// Runs `body` with the yardstick sampled right before and right after.
pub fn flanked<T>(body: impl FnOnce() -> T) -> (T, Reading) {
    let t0 = Instant::now();
    let before = sample();
    let before_s = t0.elapsed().as_secs_f64();
    let out = body();
    let after = sample();
    let both: Vec<f64> = before.into_iter().chain(after).collect();
    let reading = Reading {
        ns_per_round: crate::stats::median(&both),
        before_s,
    };
    (out, reading)
}

/// The factor that scales a host time measured while the kernel cost
/// `ns_per_round` to the reference host speed.
pub fn to_reference(ns_per_round: f64) -> f64 {
    if ns_per_round.is_finite() && ns_per_round > 0.0 {
        REFERENCE_NS_PER_ROUND / ns_per_round
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_cost_grows_with_rounds() {
        // `black_box` is a hint: make sure the loop was not folded away.
        let time = |rounds| {
            let t0 = Instant::now();
            black_box(kernel(black_box(rounds)));
            t0.elapsed().as_secs_f64()
        };
        let (short, long) = (time(200_000), time(4_000_000));
        assert!(long > 5.0 * short, "{short} s vs {long} s");
        assert_ne!(kernel(10), kernel(11));
    }

    #[test]
    fn reference_scaling() {
        assert_eq!(to_reference(REFERENCE_NS_PER_ROUND), 1.0);
        assert!(to_reference(2.0 * REFERENCE_NS_PER_ROUND) == 0.5);
        assert_eq!(to_reference(0.0), 1.0);
        assert_eq!(to_reference(f64::NAN), 1.0);
    }

    #[test]
    fn a_flanked_body_gets_a_positive_reading() {
        let (out, reading) = flanked(|| 7);
        assert_eq!(out, 7);
        assert!(reading.ns_per_round > 0.0 && reading.before_s > 0.0);
    }
}
