//! Location-based checking (the comparison point of §2.1 / Table 1).
//!
//! Location-based tools (Valgrind Memcheck, MemTracker, LBA, …) shadow each
//! *location* with an allocated/unallocated bit. They catch frees of
//! unallocated memory and touches of unallocated memory — but "whenever a
//! location is re-allocated this approach erroneously allows the
//! dereference of a dangling pointer" (§2.1). We implement this checker to
//! demonstrate that failure empirically (the `table1` reproduction binary
//! and the integration tests).

use watchdog_mem::WordSet;

/// Shadow allocation-status map at 8-byte-word granularity.
#[derive(Debug, Default)]
pub struct LocationChecker {
    allocated: WordSet, // word indices
}

/// The word-index range `[first, end)` a location-based tool marks for
/// `[addr, addr + size)`.
fn word_span(addr: u64, size: u64) -> (u64, u64) {
    (addr >> 3, addr.saturating_add(size).saturating_add(7) >> 3)
}

impl LocationChecker {
    /// An empty status map (globals/stack are registered by the machine).
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks `[addr, addr+size)` allocated.
    pub fn on_alloc(&mut self, addr: u64, size: u64) {
        let (first, end) = word_span(addr, size);
        self.allocated.insert_range(first, end);
    }

    /// Marks `[addr, addr+size)` unallocated. Returns `false` if the range
    /// was not fully allocated (a double/invalid free as far as a
    /// location-based tool can tell).
    pub fn on_free(&mut self, addr: u64, size: u64) -> bool {
        let (first, end) = word_span(addr, size);
        self.allocated.remove_range(first, end)
    }

    /// Whether an access of `len` bytes at `addr` touches only allocated
    /// memory.
    pub fn check(&self, addr: u64, len: u64) -> bool {
        let (first, end) = word_span(addr, len.max(1));
        self.allocated.contains_range(first, end)
    }

    /// Number of words currently marked allocated.
    pub fn allocated_words(&self) -> usize {
        self.allocated.len() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catches_a_simple_use_after_free() {
        let mut c = LocationChecker::new();
        c.on_alloc(0x1000, 64);
        assert!(c.check(0x1000, 8));
        assert!(c.check(0x1038, 8));
        assert!(c.on_free(0x1000, 64));
        assert!(!c.check(0x1000, 8), "freed memory is flagged");
    }

    #[test]
    fn blind_after_reallocation() {
        // The fundamental weakness the paper targets: free + realloc makes
        // the *location* valid again, so the stale pointer sails through.
        let mut c = LocationChecker::new();
        c.on_alloc(0x1000, 64);
        c.on_free(0x1000, 64);
        c.on_alloc(0x1000, 64); // unrelated object reuses the address
        assert!(
            c.check(0x1000, 8),
            "location-based checking cannot see the dangling pointer"
        );
    }

    #[test]
    fn catches_double_free() {
        let mut c = LocationChecker::new();
        c.on_alloc(0x2000, 16);
        assert!(c.on_free(0x2000, 16));
        assert!(!c.on_free(0x2000, 16));
    }

    #[test]
    fn partial_overlap_fails_check() {
        let mut c = LocationChecker::new();
        c.on_alloc(0x1000, 16);
        assert!(!c.check(0x0FF8, 16), "straddles unallocated memory");
        assert!(!c.check(0x1008, 16), "tail out of range");
    }

    #[test]
    fn word_accounting() {
        let mut c = LocationChecker::new();
        c.on_alloc(0x1000, 64);
        assert_eq!(c.allocated_words(), 8);
        c.on_free(0x1000, 64);
        assert_eq!(c.allocated_words(), 0);
    }
}
