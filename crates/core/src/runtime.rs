//! The heap runtime: a DL-malloc-style segregated free-list allocator over
//! guest memory.
//!
//! The paper modified "the standard DL-malloc memory allocator to use the
//! new instruction\[s\] to inform the hardware of memory allocations and
//! deallocations" (§9.1). We build the same shape of allocator: power-of-two
//! size classes with LIFO free lists, an 8-byte chunk header holding the
//! size, and a bump cursor for fresh memory. LIFO reuse is essential to the
//! evaluation: it makes *freed addresses come back quickly*, which is the
//! exact scenario where location-based checkers go blind and identifier
//! checking must not (§2.1 vs §2.2, Table 1).
//!
//! The allocator's *data structures* (bin heads, chunk headers, free links)
//! live at real guest addresses so the runtime µops injected by the cracker
//! touch plausible memory.

use watchdog_isa::layout::{HEAP_BASE, HEAP_SIZE};
use watchdog_mem::FastMap;

/// Size classes in bytes (payload). Requests above the last class are
/// rounded up to 4KB multiples and handled as "large".
const CLASSES: [u64; 10] = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192];

/// First address handed to user chunks; the first heap page is reserved for
/// the allocator's bin-head words.
const CHUNK_BASE: u64 = HEAP_BASE + 4096;

/// Result of a successful `malloc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MallocInfo {
    /// Payload address handed to the program (16-byte aligned).
    pub addr: u64,
    /// Rounded payload size actually reserved.
    pub size: u64,
    /// Address of the chunk header word (at `addr - 8`).
    pub header_addr: u64,
    /// Guest address of the size-class bin head touched by the runtime.
    pub bin_head_addr: u64,
    /// Whether this allocation reuses a previously-freed chunk.
    pub reused: bool,
}

/// Result of a successful `free`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FreeInfo {
    /// Payload address freed.
    pub addr: u64,
    /// Rounded payload size returned.
    pub size: u64,
    /// Address of the chunk header word.
    pub header_addr: u64,
    /// Guest address of the size-class bin head touched by the runtime.
    pub bin_head_addr: u64,
}

/// Allocator statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Successful allocations.
    pub mallocs: u64,
    /// Successful frees.
    pub frees: u64,
    /// Allocations that reused a freed chunk (address reuse — the
    /// use-after-free danger zone).
    pub reused: u64,
    /// Bytes currently live (rounded sizes).
    pub live_bytes: u64,
    /// Peak live bytes.
    pub peak_live_bytes: u64,
}

/// The segregated free-list heap allocator.
#[derive(Debug)]
pub struct HeapAllocator {
    bins: Vec<Vec<u64>>,
    // Both maps are probed by address or size, never iterated, so no
    // report depends on their order.
    large_bins: FastMap<u64, Vec<u64>>,
    cursor: u64,
    live: FastMap<u64, u64>, // payload addr -> rounded size
    stats: HeapStats,
}

impl Default for HeapAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl HeapAllocator {
    /// An empty heap.
    pub fn new() -> Self {
        HeapAllocator {
            bins: vec![Vec::new(); CLASSES.len()],
            large_bins: FastMap::default(),
            cursor: CHUNK_BASE,
            live: FastMap::default(),
            stats: HeapStats::default(),
        }
    }

    fn class_of(size: u64) -> Option<usize> {
        CLASSES.iter().position(|c| size <= *c)
    }

    fn rounded(size: u64) -> u64 {
        match Self::class_of(size) {
            Some(c) => CLASSES[c],
            None => (size + 4095) & !4095,
        }
    }

    /// Guest address of the bin-head word for a rounded size.
    pub fn bin_head_addr(rounded: u64) -> u64 {
        match CLASSES.iter().position(|c| *c == rounded) {
            Some(c) => HEAP_BASE + 8 * c as u64,
            // Large sizes share one bin-head word.
            None => HEAP_BASE + 8 * CLASSES.len() as u64,
        }
    }

    /// Allocates `size` bytes (at least 1). Returns `None` when the heap
    /// region is exhausted.
    pub fn malloc(&mut self, size: u64) -> Option<MallocInfo> {
        let size = size.max(1);
        let rounded = Self::rounded(size);
        let bin_head_addr = Self::bin_head_addr(rounded);
        let (addr, reused) = match Self::class_of(size) {
            Some(c) => match self.bins[c].pop() {
                Some(a) => (a, true),
                None => (self.carve(rounded)?, false),
            },
            None => match self.large_bins.get_mut(&rounded).and_then(Vec::pop) {
                Some(a) => (a, true),
                None => (self.carve(rounded)?, false),
            },
        };
        self.live.insert(addr, rounded);
        self.stats.mallocs += 1;
        if reused {
            self.stats.reused += 1;
        }
        self.stats.live_bytes += rounded;
        self.stats.peak_live_bytes = self.stats.peak_live_bytes.max(self.stats.live_bytes);
        Some(MallocInfo {
            addr,
            size: rounded,
            header_addr: addr - 8,
            bin_head_addr,
            reused,
        })
    }

    fn carve(&mut self, rounded: u64) -> Option<u64> {
        // 8-byte header + payload, kept 16-aligned.
        let total = (rounded + 8 + 15) & !15;
        if self.cursor + total > HEAP_BASE + HEAP_SIZE {
            return None;
        }
        let addr = self.cursor + 8;
        self.cursor += total;
        Some(addr)
    }

    /// Frees a payload address previously returned by
    /// [`HeapAllocator::malloc`]. Returns `None` if `addr` is not a live
    /// allocation (double or invalid free — the *caller* decides whether
    /// that is a detected violation or silent corruption, depending on the
    /// checking mode).
    pub fn free(&mut self, addr: u64) -> Option<FreeInfo> {
        let rounded = self.live.remove(&addr)?;
        match Self::class_of(rounded) {
            Some(c) if CLASSES[c] == rounded => self.bins[c].push(addr),
            _ => self.large_bins.entry(rounded).or_default().push(addr),
        }
        self.stats.frees += 1;
        self.stats.live_bytes -= rounded;
        Some(FreeInfo {
            addr,
            size: rounded,
            header_addr: addr - 8,
            bin_head_addr: Self::bin_head_addr(rounded),
        })
    }

    /// Rounded size of a live allocation, if `addr` is one.
    pub fn live_size(&self, addr: u64) -> Option<u64> {
        self.live.get(&addr).copied()
    }

    /// Number of live allocations.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_disjoint_and_aligned() {
        let mut h = HeapAllocator::new();
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for size in [1u64, 16, 17, 100, 4096, 5000, 100_000] {
            let m = h.malloc(size).unwrap();
            assert_eq!(m.addr % 8, 0);
            assert!(m.size >= size);
            assert_eq!(m.header_addr, m.addr - 8);
            for (a, e) in &spans {
                assert!(
                    m.addr + m.size <= *a || m.addr >= *e,
                    "overlap with [{a:#x},{e:#x})"
                );
            }
            spans.push((m.addr, m.addr + m.size));
        }
    }

    #[test]
    fn free_then_malloc_reuses_the_address_lifo() {
        let mut h = HeapAllocator::new();
        let a = h.malloc(64).unwrap();
        let b = h.malloc(64).unwrap();
        h.free(a.addr).unwrap();
        h.free(b.addr).unwrap();
        let c = h.malloc(64).unwrap();
        assert_eq!(c.addr, b.addr, "LIFO reuse");
        assert!(c.reused);
        let d = h.malloc(64).unwrap();
        assert_eq!(d.addr, a.addr);
    }

    #[test]
    fn different_classes_never_share_chunks() {
        let mut h = HeapAllocator::new();
        let a = h.malloc(16).unwrap();
        h.free(a.addr).unwrap();
        let b = h.malloc(4096).unwrap();
        assert_ne!(a.addr, b.addr, "a 16B chunk cannot satisfy a 4KB request");
    }

    #[test]
    fn double_free_is_reported_to_the_caller() {
        let mut h = HeapAllocator::new();
        let a = h.malloc(32).unwrap();
        assert!(h.free(a.addr).is_some());
        assert!(h.free(a.addr).is_none(), "second free of same address");
        assert!(
            h.free(0xDEAD_BEEF).is_none(),
            "free of never-allocated address"
        );
    }

    #[test]
    fn stats_track_live_bytes_and_reuse() {
        let mut h = HeapAllocator::new();
        let a = h.malloc(100).unwrap(); // rounds to 128
        assert_eq!(h.stats().live_bytes, 128);
        h.free(a.addr).unwrap();
        assert_eq!(h.stats().live_bytes, 0);
        assert_eq!(h.stats().peak_live_bytes, 128);
        let _ = h.malloc(100).unwrap();
        assert_eq!(h.stats().reused, 1);
        assert_eq!(h.live_count(), 1);
    }

    #[test]
    fn large_allocations_round_to_pages() {
        let mut h = HeapAllocator::new();
        let m = h.malloc(10_000).unwrap();
        assert_eq!(m.size, 12_288);
        h.free(m.addr).unwrap();
        let n = h.malloc(9_000).unwrap();
        assert_eq!(n.addr, m.addr, "large chunks reuse by rounded size");
    }

    #[test]
    fn heap_exhaustion_returns_none() {
        let mut h = HeapAllocator::new();
        // The heap region is 0x3000_0000 (768MB); ask for more than fits.
        assert!(h.malloc(HEAP_SIZE).is_none());
    }

    #[test]
    fn bin_heads_live_in_the_reserved_page() {
        for size in CLASSES {
            let a = HeapAllocator::bin_head_addr(size);
            assert!((HEAP_BASE..CHUNK_BASE).contains(&a));
        }
        assert!(HeapAllocator::bin_head_addr(12_288) < CHUNK_BASE);
    }

    #[test]
    fn live_size_queries() {
        let mut h = HeapAllocator::new();
        let m = h.malloc(48).unwrap();
        assert_eq!(h.live_size(m.addr), Some(64));
        assert_eq!(
            h.live_size(m.addr + 8),
            None,
            "interior pointers are not allocation bases"
        );
    }
}
