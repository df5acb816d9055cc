//! The disjoint shadow metadata space.
//!
//! "Conceptually, every word in memory has identifier metadata in the shadow
//! memory" (§3.3). A [`MetaRecord`] is the per-word record: the lock-and-key
//! identifier (§4.1) plus, under the bounds extension, base and bound (§8).
//! Records are stored *in guest memory* at [`watchdog_isa::layout::shadow_addr`],
//! so shadow accesses exercise the same paging, caching and footprint
//! machinery as program accesses — which is what makes the cache-pressure
//! and memory-overhead measurements (Figs. 9–10) meaningful.

use crate::vm::GuestMem;
use watchdog_isa::layout::{
    shadow_addr, GLOBAL_KEY, GLOBAL_LOCK_ADDR, INVALID_KEY, INVALID_LOCK_ADDR, META_BYTES_BOUNDS,
    META_BYTES_ID,
};

/// Per-pointer metadata: lock-and-key identifier plus optional bounds.
///
/// The *invalid* record has `key == INVALID_KEY` and a lock pointing at the
/// poisoned [`INVALID_LOCK_ADDR`], so a validity check on it always fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MetaRecord {
    /// The 64-bit unique key.
    pub key: u64,
    /// Address of the lock location.
    pub lock: u64,
    /// Inclusive lower bound (bounds extension).
    pub base: u64,
    /// Exclusive upper bound (bounds extension).
    pub bound: u64,
}

impl MetaRecord {
    /// The invalid record: checks against it always fail.
    pub const INVALID: MetaRecord = MetaRecord {
        key: INVALID_KEY,
        lock: INVALID_LOCK_ADDR,
        base: 0,
        bound: 0,
    };

    /// The global-segment record: checks against it always pass, and its
    /// bounds cover the entire global segment (§7).
    pub fn global() -> MetaRecord {
        use watchdog_isa::layout::{GLOBAL_BASE, GLOBAL_SIZE};
        MetaRecord {
            key: GLOBAL_KEY,
            lock: GLOBAL_LOCK_ADDR,
            base: GLOBAL_BASE,
            bound: GLOBAL_BASE + GLOBAL_SIZE,
        }
    }

    /// An identifier-only record (unbounded).
    pub fn ident(key: u64, lock: u64) -> MetaRecord {
        MetaRecord {
            key,
            lock,
            base: 0,
            bound: u64::MAX,
        }
    }

    /// A full record.
    pub fn with_bounds(key: u64, lock: u64, base: u64, bound: u64) -> MetaRecord {
        MetaRecord {
            key,
            lock,
            base,
            bound,
        }
    }

    /// Whether the record is the statically-invalid one (no identifier was
    /// ever associated — distinct from *deallocated*, which only a lock
    /// probe can reveal).
    pub fn is_invalid(&self) -> bool {
        self.key == INVALID_KEY
    }

    /// Whether an access of `len` bytes at `addr` lies within bounds.
    pub fn in_bounds(&self, addr: u64, len: u64) -> bool {
        addr >= self.base && addr.checked_add(len).is_some_and(|end| end <= self.bound)
    }
}

impl Default for MetaRecord {
    fn default() -> Self {
        MetaRecord::INVALID
    }
}

/// Accessor for metadata records stored in the shadow region of a
/// [`GuestMem`].
///
/// The record width depends on the mode: 16 bytes for identifier-only
/// Watchdog, 32 bytes with the bounds extension — matching the paper's
/// "total of 256 bits of metadata per pointer" (§8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShadowSpace {
    meta_bytes: u64,
}

impl ShadowSpace {
    /// Identifier-only shadow space (128-bit records).
    pub fn ident_only() -> Self {
        ShadowSpace {
            meta_bytes: META_BYTES_ID,
        }
    }

    /// Bounds-extended shadow space (256-bit records).
    pub fn with_bounds() -> Self {
        ShadowSpace {
            meta_bytes: META_BYTES_BOUNDS,
        }
    }

    /// Record width in bytes.
    pub fn meta_bytes(self) -> u64 {
        self.meta_bytes
    }

    /// Whether bounds are stored.
    pub fn has_bounds(self) -> bool {
        self.meta_bytes == META_BYTES_BOUNDS
    }

    /// Shadow address of the record for the word containing `addr`.
    pub fn record_addr(self, addr: u64) -> u64 {
        shadow_addr(addr, self.meta_bytes)
    }

    /// Loads the record for the word containing `addr`.
    pub fn load(self, mem: &mut GuestMem, addr: u64) -> MetaRecord {
        let s = self.record_addr(addr);
        let key = mem.read_u64(s);
        if key == INVALID_KEY {
            // Never-written shadow memory reads as zero = invalid.
            return MetaRecord::INVALID;
        }
        let lock = mem.read_u64(s.wrapping_add(8));
        if self.has_bounds() {
            let base = mem.read_u64(s.wrapping_add(16));
            let bound = mem.read_u64(s.wrapping_add(24));
            MetaRecord {
                key,
                lock,
                base,
                bound,
            }
        } else {
            MetaRecord::ident(key, lock)
        }
    }

    /// Stores the record for the word containing `addr`.
    pub fn store(self, mem: &mut GuestMem, addr: u64, rec: MetaRecord) {
        let s = self.record_addr(addr);
        mem.write_u64(s, rec.key);
        mem.write_u64(s.wrapping_add(8), rec.lock);
        if self.has_bounds() {
            mem.write_u64(s.wrapping_add(16), rec.base);
            mem.write_u64(s.wrapping_add(24), rec.bound);
        }
    }

    /// Invalidates the record for the word containing `addr` — used when a
    /// non-pointer value overwrites a word that may have held a pointer.
    ///
    /// Skips the write when the record is already invalid, so untouched
    /// shadow pages are not materialized (this mirrors real hardware, which
    /// would not write metadata for non-pointer stores at all).
    pub fn invalidate(self, mem: &mut GuestMem, addr: u64) {
        let s = self.record_addr(addr);
        // Cheap probe: only clear if a key is present.
        if mem.read_u64(s) != INVALID_KEY {
            mem.write_u64(s, INVALID_KEY);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use watchdog_isa::layout::HEAP_BASE;

    #[test]
    fn invalid_and_global_records() {
        assert!(MetaRecord::INVALID.is_invalid());
        let g = MetaRecord::global();
        assert!(!g.is_invalid());
        assert_eq!(g.key, GLOBAL_KEY);
        assert!(g.in_bounds(watchdog_isa::layout::GLOBAL_BASE, 8));
    }

    #[test]
    fn ident_record_round_trip() {
        let mut m = GuestMem::new();
        let s = ShadowSpace::ident_only();
        let rec = MetaRecord::ident(42, 0x5000_0010);
        s.store(&mut m, HEAP_BASE + 24, rec);
        let got = s.load(&mut m, HEAP_BASE + 24);
        assert_eq!(got.key, 42);
        assert_eq!(got.lock, 0x5000_0010);
        assert_eq!(got.bound, u64::MAX, "ident-only loads are unbounded");
    }

    #[test]
    fn bounds_record_round_trip() {
        let mut m = GuestMem::new();
        let s = ShadowSpace::with_bounds();
        let rec = MetaRecord::with_bounds(7, 0x5000_0000, HEAP_BASE, HEAP_BASE + 64);
        s.store(&mut m, HEAP_BASE, rec);
        assert_eq!(s.load(&mut m, HEAP_BASE), rec);
    }

    #[test]
    fn adjacent_words_have_disjoint_records() {
        let mut m = GuestMem::new();
        for s in [ShadowSpace::ident_only(), ShadowSpace::with_bounds()] {
            s.store(&mut m, HEAP_BASE, MetaRecord::ident(1, 10));
            s.store(&mut m, HEAP_BASE + 8, MetaRecord::ident(2, 20));
            assert_eq!(s.load(&mut m, HEAP_BASE).key, 1);
            assert_eq!(s.load(&mut m, HEAP_BASE + 8).key, 2);
        }
    }

    #[test]
    fn sub_word_addresses_share_a_record() {
        let mut m = GuestMem::new();
        let s = ShadowSpace::ident_only();
        s.store(&mut m, HEAP_BASE + 16, MetaRecord::ident(9, 90));
        assert_eq!(
            s.load(&mut m, HEAP_BASE + 20).key,
            9,
            "same word → same record"
        );
    }

    #[test]
    fn unwritten_shadow_is_invalid() {
        let mut m = GuestMem::new();
        let s = ShadowSpace::ident_only();
        assert!(s.load(&mut m, HEAP_BASE + 4096).is_invalid());
    }

    #[test]
    fn invalidate_clears_only_when_present() {
        let mut m = GuestMem::new();
        let s = ShadowSpace::ident_only();
        s.invalidate(&mut m, HEAP_BASE); // no-op on clean shadow
        s.store(&mut m, HEAP_BASE, MetaRecord::ident(5, 50));
        s.invalidate(&mut m, HEAP_BASE);
        assert!(s.load(&mut m, HEAP_BASE).is_invalid());
    }

    #[test]
    fn bounds_check_arithmetic() {
        let r = MetaRecord::with_bounds(1, 2, 100, 132);
        assert!(r.in_bounds(100, 8));
        assert!(r.in_bounds(124, 8));
        assert!(!r.in_bounds(125, 8), "straddles the bound");
        assert!(!r.in_bounds(96, 8), "below base");
        assert!(!r.in_bounds(u64::MAX, 8), "overflow is out of bounds");
    }
}
