//! Sparse paged guest memory with footprint accounting.
//!
//! The guest address space is materialized on demand in 4KB pages, exactly
//! like the operating system would allocate shadow pages on demand for
//! Watchdog (§3.3). Footprint accounting distinguishes *program* memory
//! from *metadata* memory (shadow records and lock locations) at both word
//! and page granularity, which is precisely what Fig. 10 reports.
//!
//! Every check, lock probe and shadow access of the simulated machine goes
//! through [`GuestMem`], so an access is kept to one page lookup (a
//! [`FastMap`] probe) and a `from_le_bytes`/`to_le_bytes` copy; only an
//! access that straddles two pages goes byte by byte. Footprint tracking
//! adds one [`WordSet`] probe for the access class's words, and a second
//! one for its pages only when the start word is new to the class.
//!
//! The counting rules (Fig. 10's raw data):
//!
//! * the *start* address of an access picks its class: shadow space,
//!   lock locations, or program data (globals, heap, stack); code below
//!   [`GLOBAL_BASE`](layout::GLOBAL_BASE) is not counted at all;
//! * every word the access covers counts in that class, even when the
//!   access runs into the next page or region;
//! * only the start page counts as a page;
//! * reads count as well as writes;
//! * accesses made with tracking off ([`GuestMem::set_tracking`]) do not
//!   count.
//!
//! Addresses wrap modulo 2^64: an access at the top of the address space
//! continues at address 0.

use crate::hash::FastMap;
use crate::words::WordSet;
use watchdog_isa::layout;

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = PAGE_SIZE as u64 - 1;

/// Memory footprint summary, in distinct 8-byte words and distinct 4KB
/// pages, split by space.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Distinct program-data words touched (code excluded).
    pub data_words: u64,
    /// Distinct shadow-metadata words touched.
    pub shadow_words: u64,
    /// Distinct lock-location words touched.
    pub lock_words: u64,
    /// Distinct program-data pages touched.
    pub data_pages: u64,
    /// Distinct shadow-metadata pages touched.
    pub shadow_pages: u64,
    /// Distinct lock-location pages touched.
    pub lock_pages: u64,
}

impl Footprint {
    /// Metadata overhead at word granularity, as a fraction of program
    /// words (Fig. 10, left bars).
    pub fn word_overhead(&self) -> f64 {
        if self.data_words == 0 {
            0.0
        } else {
            (self.shadow_words + self.lock_words) as f64 / self.data_words as f64
        }
    }

    /// Metadata overhead at page granularity (Fig. 10, right bars) —
    /// reflects on-demand page allocation of the shadow space.
    pub fn page_overhead(&self) -> f64 {
        if self.data_pages == 0 {
            0.0
        } else {
            (self.shadow_pages + self.lock_pages) as f64 / self.data_pages as f64
        }
    }
}

/// Distinct words and start pages touched by one footprint class.
#[derive(Debug, Default)]
struct ClassFootprint {
    words: WordSet,
    pages: WordSet,
}

/// Footprint class indices into [`GuestMem::classes`].
const DATA: usize = 0;
const SHADOW: usize = 1;
const LOCK: usize = 2;

/// The footprint class of an access starting at `addr`, if it counts.
#[inline]
fn class_of(addr: u64) -> Option<usize> {
    if layout::is_shadow(addr) {
        Some(SHADOW)
    } else if layout::is_lock_region(addr) {
        Some(LOCK)
    } else if addr >= layout::GLOBAL_BASE {
        // Program data: globals, heap, stack. Code is not counted.
        Some(DATA)
    } else {
        None
    }
}

/// Byte-addressable sparse guest memory.
///
/// All loads/stores are little-endian and may be unaligned; an access that
/// straddles a page boundary is assembled byte by byte across the two
/// pages. Uninitialized memory reads as zero, as from freshly mapped pages,
/// and reading it materializes nothing.
#[derive(Debug, Default)]
pub struct GuestMem {
    pages: FastMap<u64, Box<[u8; PAGE_SIZE]>>,
    /// Footprint per class: `[DATA, SHADOW, LOCK]`.
    classes: [ClassFootprint; 3],
    track: bool,
}

impl GuestMem {
    /// Empty memory with footprint tracking enabled.
    pub fn new() -> Self {
        GuestMem {
            track: true,
            ..Default::default()
        }
    }

    /// Enables or disables footprint tracking. Accesses made while it is
    /// off are left out of [`GuestMem::footprint`]; the machine turns it
    /// off for program load and for functional-only shadow upkeep that the
    /// hardware would not perform.
    pub fn set_tracking(&mut self, on: bool) {
        self.track = on;
    }

    fn page_mut(&mut self, page: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(page)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Counts an access of `len >= 1` bytes at `addr` (module docs).
    #[inline]
    fn touch(&mut self, addr: u64, len: u64) {
        if !self.track {
            return;
        }
        let Some(class) = class_of(addr) else {
            return;
        };
        let c = &mut self.classes[class];
        // An access of at most 8 bytes covers one word or two adjacent
        // ones (the second possibly in the next page, or at address 0).
        let first = addr >> 3;
        let last = addr.wrapping_add(len - 1) >> 3;
        // A start word already in the class, other than a page's word 0,
        // was put there by an access starting in this same page (itself or
        // its left neighbour), which counted the page: skip that probe.
        if c.words.insert(first) || first.is_multiple_of(512) {
            c.pages.insert(addr >> PAGE_SHIFT);
        }
        if last != first {
            c.words.insert(last);
        }
    }

    /// The page number and in-page offset of `addr`, when an access of
    /// `len` bytes there stays inside that page.
    #[inline]
    fn within_page(addr: u64, len: usize) -> Option<(u64, usize)> {
        let off = (addr & PAGE_MASK) as usize;
        (off + len <= PAGE_SIZE).then_some((addr >> PAGE_SHIFT, off))
    }

    /// Reads `len <= 8` bytes at `addr` as a little-endian integer.
    ///
    /// # Panics
    ///
    /// Panics if `len` is 0 or greater than 8.
    pub fn read(&mut self, addr: u64, len: u64) -> u64 {
        assert!((1..=8).contains(&len), "read length out of range");
        self.touch(addr, len);
        let n = len as usize;
        let mut bytes = [0u8; 8];
        if let Some((page, off)) = Self::within_page(addr, n) {
            if let Some(p) = self.pages.get(&page) {
                bytes[..n].copy_from_slice(&p[off..off + n]);
            }
        } else {
            for (i, b) in bytes[..n].iter_mut().enumerate() {
                let a = addr.wrapping_add(i as u64);
                if let Some(p) = self.pages.get(&(a >> PAGE_SHIFT)) {
                    *b = p[(a & PAGE_MASK) as usize];
                }
            }
        }
        u64::from_le_bytes(bytes)
    }

    /// Writes the low `len <= 8` bytes of `value` at `addr`, little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `len` is 0 or greater than 8.
    pub fn write(&mut self, addr: u64, len: u64, value: u64) {
        assert!((1..=8).contains(&len), "write length out of range");
        self.touch(addr, len);
        let n = len as usize;
        let bytes = value.to_le_bytes();
        if let Some((page, off)) = Self::within_page(addr, n) {
            self.page_mut(page)[off..off + n].copy_from_slice(&bytes[..n]);
        } else {
            for (i, &b) in bytes[..n].iter().enumerate() {
                let a = addr.wrapping_add(i as u64);
                self.page_mut(a >> PAGE_SHIFT)[(a & PAGE_MASK) as usize] = b;
            }
        }
    }

    /// Reads a 64-bit word.
    pub fn read_u64(&mut self, addr: u64) -> u64 {
        self.read(addr, 8)
    }

    /// Writes a 64-bit word.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write(addr, 8, value);
    }

    /// Reads an IEEE-754 double.
    pub fn read_f64(&mut self, addr: u64) -> f64 {
        f64::from_bits(self.read(addr, 8))
    }

    /// Writes an IEEE-754 double.
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.write(addr, 8, value.to_bits());
    }

    /// Reads an IEEE-754 single.
    pub fn read_f32(&mut self, addr: u64) -> f32 {
        f32::from_bits(self.read(addr, 4) as u32)
    }

    /// Writes an IEEE-754 single.
    pub fn write_f32(&mut self, addr: u64, value: f32) {
        self.write(addr, 4, value.to_bits() as u64);
    }

    /// Current footprint summary (O(1): the sets keep running counts).
    pub fn footprint(&self) -> Footprint {
        let [data, shadow, lock] = &self.classes;
        Footprint {
            data_words: data.words.len(),
            shadow_words: shadow.words.len(),
            lock_words: lock.words.len(),
            data_pages: data.pages.len(),
            shadow_pages: shadow.pages.len(),
            lock_pages: lock.pages.len(),
        }
    }

    /// Number of 4KB pages materialized (for capacity diagnostics).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use watchdog_isa::layout::{
        shadow_addr, GLOBAL_LOCK_ADDR, HEAP_BASE, HEAP_LOCK_BASE, META_BYTES_ID,
    };

    #[test]
    fn zero_initialized_and_little_endian() {
        let mut m = GuestMem::new();
        assert_eq!(m.read_u64(HEAP_BASE), 0);
        m.write_u64(HEAP_BASE, 0x1122_3344_5566_7788);
        assert_eq!(m.read(HEAP_BASE, 1), 0x88);
        assert_eq!(m.read(HEAP_BASE + 7, 1), 0x11);
        assert_eq!(m.read(HEAP_BASE, 4), 0x5566_7788);
    }

    #[test]
    fn unaligned_and_cross_page_access() {
        let mut m = GuestMem::new();
        let addr = HEAP_BASE + 4096 - 4; // straddles a page boundary
        m.write_u64(addr, 0xAABB_CCDD_EEFF_0011);
        assert_eq!(m.read_u64(addr), 0xAABB_CCDD_EEFF_0011);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn floats_round_trip() {
        let mut m = GuestMem::new();
        m.write_f64(HEAP_BASE, 3.25);
        assert_eq!(m.read_f64(HEAP_BASE), 3.25);
        m.write_f32(HEAP_BASE + 8, -1.5);
        assert_eq!(m.read_f32(HEAP_BASE + 8), -1.5);
    }

    #[test]
    fn footprint_classifies_spaces() {
        let mut m = GuestMem::new();
        m.write_u64(HEAP_BASE, 1); // data
        m.write_u64(shadow_addr(HEAP_BASE, META_BYTES_ID), 2); // shadow
        m.write_u64(HEAP_LOCK_BASE, 3); // lock
        let f = m.footprint();
        assert_eq!(f.data_words, 1);
        assert_eq!(f.shadow_words, 1);
        assert_eq!(f.lock_words, 1);
        assert_eq!(f.data_pages, 1);
        assert_eq!(f.shadow_pages, 1);
        assert_eq!(f.lock_pages, 1);
        assert_eq!(f.word_overhead(), 2.0);
        assert_eq!(f.page_overhead(), 2.0);
    }

    #[test]
    fn word_accounting_is_distinct() {
        let mut m = GuestMem::new();
        for _ in 0..10 {
            m.write_u64(HEAP_BASE + 16, 7);
        }
        assert_eq!(m.footprint().data_words, 1, "repeated access counts once");
        // A 4-byte access inside the same word does not add a word.
        m.write(HEAP_BASE + 20, 4, 1);
        assert_eq!(m.footprint().data_words, 1);
        // But one spanning two words counts both.
        m.write_u64(HEAP_BASE + 28, 1);
        assert_eq!(m.footprint().data_words, 3);
    }

    #[test]
    fn tracking_can_be_disabled() {
        let mut m = GuestMem::new();
        m.set_tracking(false);
        m.write_u64(HEAP_BASE, 1);
        assert_eq!(m.footprint().data_words, 0);
    }

    #[test]
    fn reads_count_toward_footprint() {
        let mut m = GuestMem::new();
        let _ = m.read_u64(HEAP_BASE + 64);
        assert_eq!(m.footprint().data_words, 1);
    }

    #[test]
    fn straddling_access_counts_both_words_in_the_start_class() {
        let mut m = GuestMem::new();
        // Heap data running into the global lock location's word: both
        // words count as data, and only the start page counts.
        m.write_u64(GLOBAL_LOCK_ADDR - 4, 1);
        let f = m.footprint();
        assert_eq!((f.data_words, f.lock_words), (2, 0));
        assert_eq!((f.data_pages, f.lock_pages), (1, 0));
        // The same word touched from the lock side counts as a lock word.
        let _ = m.read_u64(GLOBAL_LOCK_ADDR);
        assert_eq!(m.footprint().lock_words, 1);
        // Across a page boundary: two words, one page.
        let mut m = GuestMem::new();
        let _ = m.read_u64(HEAP_BASE + 4096 - 2);
        let f = m.footprint();
        assert_eq!((f.data_words, f.data_pages), (2, 1));
        assert_eq!(m.resident_pages(), 0, "reads materialize nothing");
        // An access starting at the next page's word 0, already counted
        // through the straddle, still counts its page.
        let _ = m.read_u64(HEAP_BASE + 4096);
        let f = m.footprint();
        assert_eq!((f.data_words, f.data_pages), (2, 2));
    }

    #[test]
    fn accesses_wrap_at_the_top_of_the_address_space() {
        let mut m = GuestMem::new();
        m.write_u64(u64::MAX - 7, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(u64::MAX - 7), 0x1122_3344_5566_7788);
        // Four bytes at the top, four at address 0.
        m.write_u64(u64::MAX - 3, 0xAABB_CCDD_EEFF_0011);
        assert_eq!(m.read_u64(u64::MAX - 3), 0xAABB_CCDD_EEFF_0011);
        assert_eq!(m.read(0, 4), 0xAABB_CCDD);
        // Both accesses start in the shadow space: the top word and word 0
        // count there, and only the top page counts.
        let f = m.footprint();
        assert_eq!((f.shadow_words, f.shadow_pages), (2, 1));
        assert_eq!((f.data_words, f.lock_words), (0, 0));
    }

    #[test]
    #[should_panic(expected = "read length out of range")]
    fn oversized_read_panics() {
        let mut m = GuestMem::new();
        let _ = m.read(HEAP_BASE, 9);
    }

    #[test]
    fn empty_footprint_overheads_are_zero() {
        let f = Footprint::default();
        assert_eq!(f.word_overhead(), 0.0);
        assert_eq!(f.page_overhead(), 0.0);
    }
}
