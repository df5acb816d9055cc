//! Sets of 8-byte words, kept as one 512-bit bitmap per 4KB page.
//!
//! A [`WordSet`] is how the simulator remembers "which words": the
//! footprint classes of [`GuestMem`](crate::GuestMem) (Fig. 10) and the
//! location-based checker's allocation status (§2.1) both store word
//! indices (`addr >> 3`) in it. A page's 512 words share one bitmap, found
//! with one [`FastMap`] probe, and the set keeps its size as a running
//! counter, so `len` is O(1) and inserting a word already present costs a
//! probe and an AND.
//!
//! Any `u64` index works: the footprint also counts distinct *pages* with a
//! second `WordSet` over page numbers.

use crate::hash::FastMap;

/// One block: the bitmap of the 512 words of a 4KB page.
type Block = [u64; 8];

/// Splits an index into (block number, lane within the block, bit mask).
#[inline]
fn locate(index: u64) -> (u64, usize, u64) {
    (index >> 9, ((index >> 6) & 7) as usize, 1 << (index & 63))
}

/// Calls `f(block, lane, mask)` for every lane of the index range
/// `[first, end)`, with `mask` covering the range's bits in that lane.
#[inline]
fn for_each_lane(first: u64, end: u64, mut f: impl FnMut(u64, usize, u64)) {
    let mut i = first;
    while i < end {
        let lane_end = (i | 63).saturating_add(1).min(end);
        let n = lane_end - i;
        let mask = if n == 64 {
            !0
        } else {
            ((1u64 << n) - 1) << (i & 63)
        };
        f(i >> 9, ((i >> 6) & 7) as usize, mask);
        i = lane_end;
    }
}

/// A set of word (or page) indices stored as per-page 512-bit bitmaps.
#[derive(Debug, Clone, Default)]
pub struct WordSet {
    blocks: FastMap<u64, Block>,
    len: u64,
}

impl WordSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `index`; returns whether it was absent.
    #[inline]
    pub fn insert(&mut self, index: u64) -> bool {
        let (block, lane, bit) = locate(index);
        let lanes = self.blocks.entry(block).or_default();
        let fresh = lanes[lane] & bit == 0;
        lanes[lane] |= bit;
        self.len += u64::from(fresh);
        fresh
    }

    /// Adds every index in `[first, end)`.
    pub fn insert_range(&mut self, first: u64, end: u64) {
        for_each_lane(first, end, |block, lane, mask| {
            let lanes = self.blocks.entry(block).or_default();
            self.len += u64::from((mask & !lanes[lane]).count_ones());
            lanes[lane] |= mask;
        });
    }

    /// Removes every index in `[first, end)`; returns whether all of them
    /// were present.
    pub fn remove_range(&mut self, first: u64, end: u64) -> bool {
        let mut all = true;
        for_each_lane(first, end, |block, lane, mask| {
            match self.blocks.get_mut(&block) {
                Some(lanes) => {
                    let present = lanes[lane] & mask;
                    all &= present == mask;
                    lanes[lane] &= !mask;
                    self.len -= u64::from(present.count_ones());
                }
                None => all = false,
            }
        });
        all
    }

    /// Whether every index in `[first, end)` is in the set.
    pub fn contains_range(&self, first: u64, end: u64) -> bool {
        let mut all = true;
        for_each_lane(first, end, |block, lane, mask| {
            all &= self
                .blocks
                .get(&block)
                .is_some_and(|l| l[lane] & mask == mask);
        });
        all
    }

    /// Number of indices in the set.
    #[inline]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn insert_counts_distinct_indices() {
        let mut s = WordSet::new();
        assert!(s.insert(7));
        assert!(!s.insert(7));
        assert!(s.insert(512 + 7), "same lane bit, next block");
        assert!(s.insert(u64::MAX));
        assert_eq!(s.len(), 3);
        assert!(s.contains_range(7, 8) && s.contains_range(519, 520));
        assert!(!s.contains_range(8, 9));
    }

    #[test]
    fn ranges_match_a_per_index_model() {
        let mut s = WordSet::new();
        let mut model = BTreeSet::new();
        let ops = [
            (true, 60u64, 70u64),
            (true, 500, 1100),
            (false, 64, 600),
            (true, 1023, 1025),
            (false, 1000, 1024),
        ];
        for (add, first, end) in ops {
            if add {
                s.insert_range(first, end);
                model.extend(first..end);
            } else {
                let all = (first..end).all(|i| model.contains(&i));
                assert_eq!(s.remove_range(first, end), all, "[{first},{end})");
                for i in first..end {
                    model.remove(&i);
                }
            }
            assert_eq!(s.len(), model.len() as u64);
            for i in 0..1200 {
                assert_eq!(s.contains_range(i, i + 1), model.contains(&i), "index {i}");
            }
        }
        assert!(s.contains_range(1024, 1025));
        assert!(!s.contains_range(1023, 1025));
        assert!(s.contains_range(5, 5), "the empty range is contained");
    }
}
