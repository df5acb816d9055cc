//! Guest virtual-address-space layout, including the disjoint shadow space.
//!
//! The paper places the shadow space "in a dedicated region of the virtual
//! address space that mirrors the normal data space", reached by "simple bit
//! selection and concatenation" (§3.3). We reproduce that: the data space
//! occupies the low 31 bits, the shadow space sits at
//! [`SHADOW_BASE`], and [`shadow_addr`] maps a word address to its metadata
//! record with a shift and an add.
//!
//! Layout (all addresses are 48-bit canonical):
//!
//! ```text
//! 0x0000_0040_0000  CODE_BASE          program text
//! 0x0000_1000_0000  GLOBAL_BASE        data segment (never deallocated)
//! 0x0000_2000_0000  HEAP_BASE          dlmalloc-style heap
//! 0x0000_5000_0000  HEAP_LOCK_BASE     heap lock locations (LIFO free list)
//! 0x0000_5800_0000  STACK_LOCK_BASE    in-memory stack of frame lock locations
//! 0x0000_6000_0000  STACK_LIMIT        stack guard
//! 0x0000_7000_0000  STACK_TOP          initial %rsp, grows down
//! 0x4000_0000_0000  SHADOW_BASE        per-word pointer metadata
//! ```

/// Base address of program text.
pub const CODE_BASE: u64 = 0x0040_0000;

/// Base of the global data segment. Globals are never deallocated; all
/// pointers into this segment share the single global identifier (§7).
pub const GLOBAL_BASE: u64 = 0x1000_0000;
/// Size of the global data segment.
pub const GLOBAL_SIZE: u64 = 0x1000_0000;

/// Base of the heap managed by the runtime allocator.
pub const HEAP_BASE: u64 = 0x2000_0000;
/// Size of the heap region.
pub const HEAP_SIZE: u64 = 0x3000_0000;

/// Base of the heap lock-location region. The runtime allocates one 8-byte
/// lock location per live heap object from a LIFO free list (§4.1).
pub const HEAP_LOCK_BASE: u64 = 0x5000_0000;
/// Size of the heap lock-location region.
pub const HEAP_LOCK_SIZE: u64 = 0x0800_0000;

/// Base of the in-memory stack of lock locations used for stack-frame
/// identifiers; `stack_lock` points into this region (Fig. 3c/3d).
pub const STACK_LOCK_BASE: u64 = 0x5800_0000;
/// Size of the stack lock-location region.
pub const STACK_LOCK_SIZE: u64 = 0x0400_0000;

/// Lowest legal stack address (stack guard).
pub const STACK_LIMIT: u64 = 0x6000_0000;
/// Initial stack pointer; the stack grows down from here.
pub const STACK_TOP: u64 = 0x7000_0000;

/// Base of the disjoint shadow metadata space.
pub const SHADOW_BASE: u64 = 0x4000_0000_0000;

/// Lock location permanently associated with the single *global* identifier;
/// its contents always equal [`GLOBAL_KEY`], so validity checks on pointers
/// to globals always pass (§7).
pub const GLOBAL_LOCK_ADDR: u64 = 0x4FFF_FFF0;
/// Key of the single global identifier.
pub const GLOBAL_KEY: u64 = 1;

/// Lock location used by the *invalid* metadata value. Its contents are
/// initialized to a poison value that never equals any key, so dereferencing
/// a register with invalid metadata always raises an exception.
pub const INVALID_LOCK_ADDR: u64 = 0x4FFF_FFF8;
/// Poison stored at [`INVALID_LOCK_ADDR`] and written into lock locations on
/// deallocation. Never allocated as a key.
pub const INVALID_SENTINEL: u64 = 0xDEAD_DEAD_DEAD_DEAD;
/// The key value of invalid metadata. Never allocated to an object.
pub const INVALID_KEY: u64 = 0;

/// First key handed out for heap allocations. Key 0 is invalid and key 1 is
/// the global identifier.
pub const FIRST_HEAP_KEY: u64 = 2;

/// Bytes of metadata per 8-byte data word when tracking identifiers only
/// (64-bit key + 64-bit lock, §4.1).
pub const META_BYTES_ID: u64 = 16;
/// Bytes of metadata per 8-byte data word with the bounds extension
/// (key + lock + base + bound, §8).
pub const META_BYTES_BOUNDS: u64 = 32;

/// Maps a (word-aligned) data address to the address of its metadata record
/// in the shadow space.
///
/// With 16-byte records this is `SHADOW_BASE + (addr >> 3) * 16`, i.e. a
/// shift and a concatenation, exactly the cheap translation the paper relies
/// on. The mapping is injective on word addresses for any fixed record size.
/// It wraps modulo 2^64 for wild addresses far above the data space, like
/// the guest memory it indexes.
///
/// ```
/// use watchdog_isa::layout::{shadow_addr, META_BYTES_ID, SHADOW_BASE};
/// assert_eq!(shadow_addr(0, META_BYTES_ID), SHADOW_BASE);
/// assert_eq!(shadow_addr(8, META_BYTES_ID), SHADOW_BASE + 16);
/// ```
#[inline]
pub const fn shadow_addr(addr: u64, meta_bytes: u64) -> u64 {
    SHADOW_BASE.wrapping_add((addr >> 3).wrapping_mul(meta_bytes))
}

/// Whether `addr` lies in the shadow metadata region.
#[inline]
pub const fn is_shadow(addr: u64) -> bool {
    addr >= SHADOW_BASE
}

/// Whether `addr` lies in either lock-location region (heap or stack) or is
/// one of the reserved global/invalid lock locations.
#[inline]
pub const fn is_lock_region(addr: u64) -> bool {
    (addr >= HEAP_LOCK_BASE && addr < STACK_LOCK_BASE + STACK_LOCK_SIZE)
        || addr == GLOBAL_LOCK_ADDR
        || addr == INVALID_LOCK_ADDR
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_do_not_overlap() {
        // (base, end) pairs in ascending order.
        let regions = [
            (CODE_BASE, CODE_BASE + 0x40_0000),
            (GLOBAL_BASE, GLOBAL_BASE + GLOBAL_SIZE),
            (HEAP_BASE, HEAP_BASE + HEAP_SIZE),
            (HEAP_LOCK_BASE, HEAP_LOCK_BASE + HEAP_LOCK_SIZE),
            (STACK_LOCK_BASE, STACK_LOCK_BASE + STACK_LOCK_SIZE),
            (STACK_LIMIT, STACK_TOP),
        ];
        for w in regions.windows(2) {
            assert!(
                w[0].1 <= w[1].0,
                "regions overlap: {:x?} vs {:x?}",
                w[0],
                w[1]
            );
        }
        // Shadow sits above everything (checked at compile time).
        const { assert!(SHADOW_BASE > STACK_TOP) };
    }

    #[test]
    fn shadow_mapping_is_injective_on_words() {
        for meta in [META_BYTES_ID, META_BYTES_BOUNDS] {
            let a = shadow_addr(0x2000_0000, meta);
            let b = shadow_addr(0x2000_0008, meta);
            assert_eq!(b - a, meta);
            assert!(is_shadow(a));
        }
    }

    #[test]
    fn shadow_of_stack_top_fits_in_48_bits() {
        let top = shadow_addr(STACK_TOP, META_BYTES_BOUNDS);
        assert!(top < 1 << 48, "shadow address {top:#x} exceeds 48-bit VA");
    }

    #[test]
    fn lock_region_classification() {
        assert!(is_lock_region(HEAP_LOCK_BASE));
        assert!(is_lock_region(STACK_LOCK_BASE + 8));
        assert!(is_lock_region(GLOBAL_LOCK_ADDR));
        assert!(is_lock_region(INVALID_LOCK_ADDR));
        assert!(!is_lock_region(HEAP_BASE));
        assert!(!is_lock_region(SHADOW_BASE));
    }

    #[test]
    fn sentinel_never_collides_with_keys() {
        assert_ne!(INVALID_SENTINEL, GLOBAL_KEY);
        assert_ne!(INVALID_SENTINEL, INVALID_KEY);
        const { assert!(FIRST_HEAP_KEY > GLOBAL_KEY) };
    }
}
