//! A small, fast, deterministic PRNG for workload generation.
//!
//! The build is fully self-contained (no registry access), so instead of
//! the `rand` crate the generator uses this xoshiro256**-based RNG,
//! seeded via SplitMix64. The API mirrors the subset of `rand` the
//! generator needs (`seed_from_u64`, `gen_range`, `gen_bool`), and the
//! stream is stable across platforms and Rust versions — the engine's
//! reproducibility guarantee extends down to the address streams.

use std::ops::Range;

/// Deterministic xoshiro256** generator.
///
/// # Examples
///
/// ```
/// use workloads::rng::SmallRng;
/// let mut a = SmallRng::seed_from_u64(7);
/// let mut b = SmallRng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// assert!(a.gen_range(0u64..10) < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// Creates a generator whose state is expanded from `seed` with
    /// SplitMix64 (so nearby seeds produce uncorrelated streams).
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        SmallRng { s }
    }

    /// The next raw 64-bit output.
    #[must_use]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform sample from `range` (which must be non-empty).
    ///
    /// # Panics
    ///
    /// Panics if `range` is empty.
    #[must_use]
    pub fn gen_range<T: UniformInt>(&mut self, range: Range<T>) -> T {
        T::sample(self, range)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[must_use]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        // 53 high bits give a uniform f64 in [0, 1).
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }
}

/// Integer types [`SmallRng::gen_range`] can sample uniformly.
pub trait UniformInt: Copy {
    /// Draws a uniform sample from `range`.
    fn sample(rng: &mut SmallRng, range: Range<Self>) -> Self;
}

/// Unbiased bounded sample via Lemire-style rejection on the widening
/// multiply.
fn bounded_u64(rng: &mut SmallRng, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    loop {
        let x = rng.next_u64();
        let m = u128::from(x) * u128::from(bound);
        let low = m as u64;
        // The rejection threshold `2^64 mod bound` is below `bound`, so
        // `low >= bound` accepts without paying for the division.
        if low >= bound || low >= bound.wrapping_neg() % bound {
            return (m >> 64) as u64;
        }
    }
}

impl UniformInt for u64 {
    fn sample(rng: &mut SmallRng, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        range.start + bounded_u64(rng, range.end - range.start)
    }
}

impl UniformInt for u32 {
    fn sample(rng: &mut SmallRng, range: Range<u32>) -> u32 {
        assert!(range.start < range.end, "empty range");
        range.start + bounded_u64(rng, u64::from(range.end - range.start)) as u32
    }
}

impl UniformInt for usize {
    fn sample(rng: &mut SmallRng, range: Range<usize>) -> usize {
        assert!(range.start < range.end, "empty range");
        range.start + bounded_u64(rng, (range.end - range.start) as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut r = SmallRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let v = r.gen_range(10u64..17);
            assert!((10..17).contains(&v));
            let w = r.gen_range(0u32..3);
            assert!(w < 3);
        }
    }

    #[test]
    fn gen_range_covers_all_values() {
        let mut r = SmallRng::seed_from_u64(5);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[r.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    /// The short-circuit in `bounded_u64` must not change a single draw:
    /// compare against the plain Lemire formula.
    #[test]
    fn bounded_draws_equal_the_plain_lemire_formula() {
        fn plain(rng: &mut SmallRng, bound: u64) -> u64 {
            loop {
                let m = u128::from(rng.next_u64()) * u128::from(bound);
                if (m as u64) >= bound.wrapping_neg() % bound {
                    return (m >> 64) as u64;
                }
            }
        }
        for bound in [1, 3, (1u64 << 32) + 1, u64::MAX] {
            let mut a = SmallRng::seed_from_u64(bound);
            let mut b = a.clone();
            for i in 0..10_000 {
                assert_eq!(
                    bounded_u64(&mut a, bound),
                    plain(&mut b, bound),
                    "bound {bound}, draw {i}"
                );
            }
            assert_eq!(a, b, "bound {bound}: same number of raw draws consumed");
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = SmallRng::seed_from_u64(3);
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
        // Out-of-range probabilities are clamped, not UB.
        assert!(!r.gen_bool(-1.0));
        assert!(r.gen_bool(2.0));
    }

    #[test]
    fn gen_bool_roughly_calibrated() {
        let mut r = SmallRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "got {hits}");
    }
}
