//! A multiplicative hasher for maps keyed by page, word or address, and
//! the workspace's one FNV-1a implementation ([`fnv1a`]).
//!
//! The simulator's hot maps are keyed by small integers (page numbers,
//! payload addresses) that no adversary chooses, so SipHash's flood
//! resistance buys nothing and costs most of each lookup. [`MulHasher`]
//! does one full 64×64→128-bit multiplication by the Fibonacci constant
//! the hashed TLB uses (2^64/φ) and folds the two halves together with an
//! XOR. The fold brings the well-mixed high product bits down into the low
//! bits the table indexes buckets with, so keys that share their low bits
//! (16-byte aligned payload addresses, 4KB-multiple sizes) spread as well
//! as consecutive page numbers do.
//!
//! No report may depend on the iteration order of a [`FastMap`]; every map
//! built on it is only probed, never walked.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier of the Fibonacci hash (2^64 / φ, odd).
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Folded-multiply hasher for integer keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct MulHasher(u64);

impl Hasher for MulHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let p = u128::from(self.0 ^ n) * u128::from(K);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }
}

/// A `HashMap` hashed with [`MulHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<MulHasher>>;

/// The FNV-1a 64-bit offset basis: the hash of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a 64-bit hash state `h` (start from
/// [`FNV_OFFSET`]). Each step is a bijection of the state, so any single
/// changed byte changes the result.
///
/// The one implementation behind trace checksums and program
/// fingerprints, campaign frame/ledger checksums and spec hashes, and the
/// generator's program and report digests, so no writer and reader can
/// disagree.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    /// Distinct buckets out of 64 that 64 keys `0, stride, 2*stride, …`
    /// land in.
    fn buckets_hit(stride: u64) -> usize {
        let b = BuildHasherDefault::<MulHasher>::default();
        let mut low: Vec<u64> = (0u64..64).map(|k| b.hash_one(k * stride) & 63).collect();
        low.sort_unstable();
        low.dedup();
        low.len()
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        // Folding in pieces equals folding the concatenation.
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn strided_keys_spread_over_low_bits() {
        for stride in [1, 8, 16, 4096] {
            let hit = buckets_hit(stride);
            // A random function fills about 40 of 64; the low half of the
            // product alone would put stride-16 keys into 4.
            assert!(hit >= 32, "stride {stride}: {hit}/64 buckets");
        }
    }
}
