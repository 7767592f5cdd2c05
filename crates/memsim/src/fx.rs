//! A fast, non-cryptographic hasher for the simulator's hot-path maps.
//!
//! `std`'s default SipHash is DoS-resistant but costs tens of cycles per
//! lookup — far too slow for structures probed on every memory access.
//! This is the classic multiply-rotate "Fx" construction (as used by the
//! Rust compiler): one rotate + xor + multiply per 8-byte word. All keys
//! hashed here are simulator-internal (line addresses, sync ids), so
//! hash-flooding is not a concern.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher; one multiply per written word.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i * 7, i as u32);
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i * 7)), Some(&(i as u32)));
        }
        assert_eq!(m.get(&3), None);
    }

    #[test]
    fn hash_is_deterministic_and_spreads() {
        let h = |x: u64| {
            let mut f = FxHasher::default();
            f.write_u64(x);
            f.finish()
        };
        assert_eq!(h(42), h(42));
        // Sequential keys must not collide in the high bits.
        let mut tops: Vec<u64> = (0..64).map(|i| h(i) >> 58).collect();
        tops.sort_unstable();
        tops.dedup();
        assert!(
            tops.len() > 16,
            "only {} distinct top-6-bit buckets",
            tops.len()
        );
    }

    #[test]
    fn byte_writes_cover_remainder_path() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 0]);
        // Not asserting equality/difference semantics — only stability.
        assert_eq!(a.finish(), {
            let mut c = FxHasher::default();
            c.write(&[1, 2, 3]);
            c.finish()
        });
        let _ = b.finish();
    }
}
