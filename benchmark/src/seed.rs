//! `--seed` → workload inputs.
//!
//! The seed is the only workload argument. Seed 0 is the paper's exact
//! configuration. Any other seed grows every workload's `scale` by a
//! factor `1 + j/256`, `j ∈ {0..8}`, and seeds the synthetic address
//! streams of the component-rate kernels.
//!
//! It was first sized as `1 + j/64`, `j ∈ {−4..4}`. Host time is
//! proportional to scale, so that ±6 % input swing alone would eat a
//! 10 % regression bound; 3 % still changes every op count and every
//! report byte. And the factor only grows because the scaled item
//! counts are truncated: just below a round scale every profile loses
//! an item per thread, and fig6's mean validation error steps from
//! 2.25 % to 2.05 % exactly at scale 1. Straddling that step would make
//! an exact quantity look 9 % noisy across seeds.

/// SplitMix64: the repo's seeding primitive (`workloads::rng` expands
/// its xoshiro state with the same function).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The scale multiplier a seed selects: exactly 1.0 for seed 0.
pub fn scale_factor(seed: u64) -> f64 {
    if seed == 0 {
        return 1.0;
    }
    let j = SplitMix64::new(seed).next_u64() % 9;
    1.0 + j as f64 / 256.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_paper_configuration() {
        assert_eq!(scale_factor(0), 1.0);
    }

    #[test]
    fn other_seeds_grow_by_at_most_eight_steps_and_repeat() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 1..200u64 {
            let f = scale_factor(seed);
            assert_eq!(f, scale_factor(seed), "same seed, same inputs");
            let j = (f - 1.0) * 256.0;
            assert_eq!(j, j.round());
            assert!((0.0..=8.0).contains(&j), "seed {seed} -> {f}");
            seen.insert(j as i64);
        }
        assert_eq!(seen.len(), 9, "every step is reachable");
    }

    #[test]
    fn splitmix_matches_reference_vector() {
        // First outputs for seed 1234567 from the public-domain reference.
        let mut r = SplitMix64::new(1_234_567);
        assert_eq!(r.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(r.next_u64(), 3_203_168_211_198_807_973);
    }
}
