//! Property tests pinning the hashed [`Tlb`] to a few-line executable
//! spec: an MRU-ordered deque of page numbers, scanned linearly, with
//! exact LRU eviction. Same hits, same misses, same counters, on any
//! access stream.

use std::collections::VecDeque;

use proptest::prelude::*;
use watchdog_mem::Tlb;

/// The spec: `pages` front = most recently used.
struct SpecTlb {
    pages: VecDeque<u64>,
    capacity: usize,
    accesses: u64,
    misses: u64,
}

impl SpecTlb {
    fn new(capacity: usize) -> Self {
        SpecTlb {
            pages: VecDeque::new(),
            capacity,
            accesses: 0,
            misses: 0,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let vpn = addr >> 12;
        self.accesses += 1;
        let hit = match self.pages.iter().position(|&v| v == vpn) {
            Some(i) => {
                self.pages.remove(i);
                true
            }
            None => {
                self.misses += 1;
                if self.pages.len() == self.capacity {
                    self.pages.pop_back();
                }
                false
            }
        };
        self.pages.push_front(vpn);
        hit
    }

    fn repeat_hit(&mut self) {
        self.accesses += 1;
    }

    fn stats(&self) -> (u64, u64) {
        (self.accesses, self.misses)
    }
}

proptest! {
    /// Random streams over a page space larger than the capacity, so
    /// every path (fill, hit-refresh, evict-recycle, backward-shift
    /// deletion) runs: every access result and the final counters agree.
    #[test]
    fn hashed_tlb_matches_scan_reference(
        capacity in 1usize..40,
        pages in 1u64..64,
        stream in proptest::collection::vec((any::<u64>(), any::<bool>()), 1..400),
    ) {
        let mut hash = Tlb::new(capacity);
        let mut spec = SpecTlb::new(capacity);
        let mut last_hit = false;
        for (i, &(x, repeat)) in stream.iter().enumerate() {
            // `repeat_hit` is only legal right after a translation of the
            // same page — model that by only issuing it after a hit.
            if repeat && last_hit {
                hash.repeat_hit();
                spec.repeat_hit();
            }
            let addr = ((x % pages) << 12) | ((x >> 32) & 0xfff);
            let h = hash.access(addr);
            let s = spec.access(addr);
            prop_assert_eq!(h, s, "access {} (addr {:#x}) diverged", i, addr);
            last_hit = h;
        }
        prop_assert_eq!(hash.stats(), spec.stats());
    }

    /// Adversarial same-home churn: VPNs crafted to collide in the probe
    /// table (multiples of the table size in hash space are unreachable
    /// directly, so use dense small VPNs plus far-apart outliers) keep the
    /// hashed TLB and the spec in lockstep.
    #[test]
    fn collision_heavy_streams_stay_in_lockstep(
        stream in proptest::collection::vec(0u64..8, 1..300),
        outlier in any::<u64>(),
    ) {
        let mut hash = Tlb::new(4);
        let mut spec = SpecTlb::new(4);
        for (i, &v) in stream.iter().enumerate() {
            // Interleave a far-away page so eviction keeps cycling.
            let vpn = if v == 7 { outlier | 8 } else { v };
            let addr = vpn << 12;
            prop_assert_eq!(hash.access(addr), spec.access(addr), "access {}", i);
        }
        prop_assert_eq!(hash.stats(), spec.stats());
    }
}
