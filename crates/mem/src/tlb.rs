//! Translation lookaside buffers.
//!
//! The shadow space "allows shadow accesses to be handled as normal memory
//! accesses using the usual address translation ... mechanisms" (§3.3), and
//! the lock-location cache "has its own (small) TLB" (§4.2). We model TLBs
//! as fully-associative LRU arrays of 4KB page translations; a miss charges
//! a fixed page-walk penalty in the hierarchy.
//!
//! [`Tlb`] is an open-addressing hash table over the entry arena plus an
//! intrusive doubly-linked recency list, so lookup, LRU refresh and
//! eviction are all O(1) — where a linear scan would pay O(capacity) per
//! access on the data-TLB hot path. The property suite (`tlb_props.rs`)
//! holds it, access for access, to a few-line spec: an MRU-ordered deque
//! of page numbers with exact LRU eviction.

const NIL: u32 = u32::MAX;

/// A fully-associative TLB over 4KB pages with LRU replacement, in O(1)
/// per access.
///
/// Entries live in a fixed arena (`vpn`/`prev`/`next` arrays, at most
/// `capacity` of them); `head`/`tail` thread an intrusive most- to
/// least-recently-used list through the arena; `table` is an
/// open-addressing (linear-probe) index from VPN hash to arena slot, sized
/// at twice the capacity rounded up to a power of two so the load factor
/// stays ≤ ½. Deletion uses backward shifting, so the table never needs
/// tombstones and probes stay short. All storage is allocated in
/// [`Tlb::new`]; `access` never allocates.
#[derive(Debug)]
pub struct Tlb {
    vpn: Vec<u64>,
    prev: Vec<u32>,
    next: Vec<u32>,
    head: u32,
    tail: u32,
    table: Vec<u32>,
    mask: usize,
    shift: u32,
    capacity: usize,
    accesses: u64,
    misses: u64,
}

impl Tlb {
    /// Builds a TLB holding `capacity` translations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB capacity must be positive");
        let slots = (2 * capacity).next_power_of_two();
        Tlb {
            vpn: Vec::with_capacity(capacity),
            prev: Vec::with_capacity(capacity),
            next: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            table: vec![NIL; slots],
            mask: slots - 1,
            shift: 64 - slots.trailing_zeros(),
            capacity,
            accesses: 0,
            misses: 0,
        }
    }

    /// Fibonacci-hash home slot of a VPN.
    fn home(&self, vpn: u64) -> usize {
        (vpn.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Unlinks arena entry `e` from the recency list.
    fn unlink(&mut self, e: u32) {
        let (p, n) = (self.prev[e as usize], self.next[e as usize]);
        if p == NIL {
            self.head = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NIL {
            self.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
    }

    /// Links arena entry `e` at the most-recently-used end.
    fn link_front(&mut self, e: u32) {
        self.prev[e as usize] = NIL;
        self.next[e as usize] = self.head;
        if self.head != NIL {
            self.prev[self.head as usize] = e;
        }
        self.head = e;
        if self.tail == NIL {
            self.tail = e;
        }
    }

    /// Removes `vpn` from the hash table by backward shifting: following
    /// entries whose probe path crosses the hole move into it, so no
    /// tombstone is left behind.
    fn table_delete(&mut self, vpn: u64) {
        let mut hole = self.home(vpn);
        while self.table[hole] == NIL || self.vpn[self.table[hole] as usize] != vpn {
            hole = (hole + 1) & self.mask;
        }
        let mut i = hole;
        loop {
            i = (i + 1) & self.mask;
            let e = self.table[i];
            if e == NIL {
                break;
            }
            let home = self.home(self.vpn[e as usize]);
            // Move `e` into the hole iff the hole lies on its probe path:
            // the (cyclic) distance from its home to `i` must reach past
            // the hole.
            if (i.wrapping_sub(home) & self.mask) >= (i.wrapping_sub(hole) & self.mask) {
                self.table[hole] = e;
                hole = i;
            }
        }
        self.table[hole] = NIL;
    }

    /// Inserts arena entry `e` (whose VPN is already stored) into the
    /// first free probe slot.
    fn table_insert(&mut self, e: u32) {
        let mut i = self.home(self.vpn[e as usize]);
        while self.table[i] != NIL {
            i = (i + 1) & self.mask;
        }
        self.table[i] = e;
    }

    /// Looks up the page containing `addr`; fills on miss. Returns `true`
    /// on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let vpn = addr >> 12;
        self.accesses += 1;
        // Probe the table.
        let mut i = self.home(vpn);
        loop {
            let e = self.table[i];
            if e == NIL {
                break;
            }
            if self.vpn[e as usize] == vpn {
                // Hit: move to the MRU end.
                if self.head != e {
                    self.unlink(e);
                    self.link_front(e);
                }
                return true;
            }
            i = (i + 1) & self.mask;
        }
        self.misses += 1;
        let e = if self.vpn.len() == self.capacity {
            // Recycle the LRU entry. Delete its old VPN from the table
            // *before* probing for the new one — the backward shift can
            // move the free slot.
            let victim = self.tail;
            self.table_delete(self.vpn[victim as usize]);
            self.unlink(victim);
            self.vpn[victim as usize] = vpn;
            victim
        } else {
            let e = self.vpn.len() as u32;
            self.vpn.push(vpn);
            self.prev.push(NIL);
            self.next.push(NIL);
            e
        };
        self.link_front(e);
        self.table_insert(e);
        false
    }

    /// Accounts a hit to the page translated **immediately before**,
    /// without touching replacement state.
    ///
    /// Same contract as [`crate::Cache::repeat_hit`]: the caller guarantees
    /// the page of the previous [`Tlb::access`] is being translated again,
    /// so the entry is resident and already most recent — re-stamping it
    /// would change no relative LRU order.
    pub fn repeat_hit(&mut self) {
        self.accesses += 1;
    }

    /// `(accesses, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.accesses, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut t = Tlb::new(4);
        assert!(!t.access(0x1000));
        assert!(t.access(0x1fff), "same page");
        assert!(!t.access(0x2000), "next page misses");
        assert_eq!(t.stats(), (3, 2));
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(2);
        t.access(0x1000);
        t.access(0x2000);
        t.access(0x1000); // refresh
        t.access(0x3000); // evicts 0x2000
        assert!(t.access(0x1000));
        assert!(!t.access(0x2000));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = Tlb::new(0);
    }

    #[test]
    fn hash_matches_scan_under_pressure() {
        // Deterministic churn over a VPN space larger than the capacity,
        // so every structural path (fill, hit-refresh, evict-recycle,
        // backward-shift deletion) runs many times, checked against a
        // linear scan of an MRU-first deque.
        let mut hash = Tlb::new(8);
        let mut spec = std::collections::VecDeque::new();
        let (mut accesses, mut misses) = (0u64, 0u64);
        let mut x = 0x0123_4567_89AB_CDEFu64;
        for k in 0..20_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = ((x >> 20) % 24) << 12 | (x & 0xfff);
            let vpn = addr >> 12;
            let hit = match spec.iter().position(|&v| v == vpn) {
                Some(i) => {
                    spec.remove(i);
                    true
                }
                None => {
                    if spec.len() == 8 {
                        spec.pop_back();
                    }
                    misses += 1;
                    false
                }
            };
            spec.push_front(vpn);
            accesses += 1;
            assert_eq!(hash.access(addr), hit, "access {k}");
            if x & 0xf == 0 {
                hash.repeat_hit();
                accesses += 1;
            }
        }
        assert_eq!(hash.stats(), (accesses, misses));
    }
}
