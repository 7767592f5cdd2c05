//! CRC-32 checksumming shared by the journal, spill and trace formats.
//!
//! Every persistence layer of the reproduction pipeline — the sweep
//! journal (`experiments::journal`, PR 4), the `studyd` spill that
//! stands on it, and the binary workload trace (`workloads::trace`) —
//! frames its records with the same checksum so corruption is detected
//! identically everywhere. Journal and spill records are a few hundred
//! bytes, but a trace is checksummed end to end on every capture and
//! every replay (26 MB for a full-scale fig6), so the implementation is
//! table-driven: slicing-by-8 over 8 KiB of tables the compiler
//! evaluates at build time (no runtime initialisation, no dependency).
//! The bit-at-a-time definition lives on in this module's tests as the
//! reference the tables are checked against.

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0][b]` is the CRC register after shifting byte `b` through
/// eight bitwise rounds; `TABLES[k][b]` is the same byte followed by `k`
/// zero bytes, which is what lets eight input bytes fold in one step.
static TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut round = 0;
        while round < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            round += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3 polynomial, reflected — the `cksum`/zlib variant).
///
/// ```
/// // The canonical check vector.
/// assert_eq!(speedup_stacks::crc::crc32(b"123456789"), 0xCBF4_3926);
/// assert_eq!(speedup_stacks::crc::crc32(b""), 0);
/// ```
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][(lo >> 8 & 0xff) as usize]
            ^ TABLES[5][(lo >> 16 & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][(hi >> 8 & 0xff) as usize]
            ^ TABLES[1][(hi >> 16 & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

/// The checksum as the lowercase-hex string the journal format records.
///
/// ```
/// assert_eq!(speedup_stacks::crc::crc32_hex(b"123456789"), "cbf43926");
/// ```
#[must_use]
pub fn crc32_hex(bytes: &[u8]) -> String {
    format!("{:08x}", crc32(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition: one shift/xor round per input bit.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn check_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn table_driven_matches_bitwise_at_every_length_and_offset() {
        // Seeded bytes from a 64-bit LCG's top byte (`workloads::rng` sits
        // above this crate).
        let mut state = 0x5EED_C0DE_u64;
        let data: Vec<u8> = (0..4099 + 7)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect();
        // Every tail length 0..=7 with and without full 8-byte steps,
        // each from three start offsets so the heads are unaligned too.
        let lengths = (0..64).chain([255, 256, 257, 4096, 4099]);
        for len in lengths {
            for offset in [0, 3, 7] {
                let slice = &data[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bitwise(slice),
                    "len {len} offset {offset}"
                );
            }
        }
    }

    #[test]
    fn sensitive_to_single_bit() {
        let a = crc32(b"speedup stacks");
        let b = crc32(b"speedup stackt");
        assert_ne!(a, b);
    }

    #[test]
    fn hex_is_fixed_width_lowercase() {
        assert_eq!(crc32_hex(b"123456789"), "cbf43926");
        for b in 0u8..=255 {
            assert_eq!(crc32_hex(&[b]).len(), 8, "hex must stay zero-padded");
        }
    }
}
