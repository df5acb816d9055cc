//! A multiplicative hasher for maps keyed by page, word or address.
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
    fn strided_keys_spread_over_low_bits() {
        for stride in [1, 8, 16, 4096] {
            let hit = buckets_hit(stride);
            // A random function fills about 40 of 64; the low half of the
            // product alone would put stride-16 keys into 4.
            assert!(hit >= 32, "stride {stride}: {hit}/64 buckets");
        }
    }
}
