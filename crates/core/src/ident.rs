//! Lock-and-key identifier management (§4.1).
//!
//! "On each heap memory allocation, the software runtime allocates both a
//! unique 64-bit key and a new lock location from a list of free locations,
//! and the runtime writes the key value into the lock location." Lock
//! locations are recycled on a **LIFO** free list — which is what gives the
//! lock-location region its locality and lets a tiny 4KB cache cover it
//! (§4.2) — while *keys are never reused*, which is what makes detection
//! comprehensive under arbitrary reallocation.

use watchdog_isa::layout::{FIRST_HEAP_KEY, HEAP_LOCK_BASE, HEAP_LOCK_SIZE};

/// Base of the stack-frame key space. Stack keys are drawn from a disjoint
/// range so heap and stack identifiers can never collide.
pub const STACK_KEY_BASE: u64 = 1 << 48;

/// Allocates unique keys and recycles lock locations for the heap.
#[derive(Debug)]
pub struct LockManager {
    next_key: u64,
    free_locks: Vec<u64>,
    cursor: u64,
}

impl Default for LockManager {
    fn default() -> Self {
        Self::new()
    }
}

impl LockManager {
    /// A fresh manager: no locks allocated, keys start at
    /// [`FIRST_HEAP_KEY`].
    pub fn new() -> Self {
        LockManager {
            next_key: FIRST_HEAP_KEY,
            free_locks: Vec::new(),
            // Slot 0 of the region is the conceptual free-list head the
            // runtime µops read/write; lock locations start one word in.
            cursor: HEAP_LOCK_BASE + 8,
        }
    }

    /// Address of the free-list head word (the runtime's `LockLoad` during
    /// `malloc` reads it).
    pub fn head_slot(&self) -> u64 {
        HEAP_LOCK_BASE
    }

    /// Allocates a unique key. Keys are monotonically increasing and never
    /// reused.
    pub fn alloc_key(&mut self) -> u64 {
        let k = self.next_key;
        self.next_key += 1;
        k
    }

    /// Pops a lock location from the LIFO free list, or carves a fresh one.
    ///
    /// Returns `None` if the lock region is exhausted (practically
    /// unreachable: it supports 16M simultaneously-live allocations).
    pub fn alloc_lock(&mut self) -> Option<u64> {
        if let Some(l) = self.free_locks.pop() {
            return Some(l);
        }
        if self.cursor + 8 > HEAP_LOCK_BASE + HEAP_LOCK_SIZE {
            return None;
        }
        let l = self.cursor;
        self.cursor += 8;
        Some(l)
    }

    /// Returns a lock location to the LIFO free list.
    pub fn free_lock(&mut self, lock: u64) {
        debug_assert!(
            lock >= HEAP_LOCK_BASE + 8 && lock < self.cursor,
            "foreign lock location"
        );
        self.free_locks.push(lock);
    }

    /// Total keys handed out so far.
    pub fn keys_allocated(&self) -> u64 {
        self.next_key - FIRST_HEAP_KEY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn keys_are_unique_and_monotonic() {
        let mut m = LockManager::new();
        let mut seen = HashSet::new();
        let mut last = 0;
        for _ in 0..1000 {
            let k = m.alloc_key();
            assert!(k >= FIRST_HEAP_KEY);
            assert!(k > last);
            assert!(seen.insert(k));
            last = k;
        }
        assert_eq!(m.keys_allocated(), 1000);
    }

    #[test]
    fn lock_reuse_is_lifo() {
        let mut m = LockManager::new();
        let a = m.alloc_lock().unwrap();
        let b = m.alloc_lock().unwrap();
        assert_ne!(a, b);
        m.free_lock(a);
        m.free_lock(b);
        // LIFO: most recently freed comes back first.
        assert_eq!(m.alloc_lock().unwrap(), b);
        assert_eq!(m.alloc_lock().unwrap(), a);
    }

    #[test]
    fn reused_lock_never_pairs_with_reused_key() {
        // The comprehensiveness argument: even when a lock location is
        // recycled, the key stored there is fresh, so a stale (key, lock)
        // pair can never validate again.
        let mut m = LockManager::new();
        let k1 = m.alloc_key();
        let l1 = m.alloc_lock().unwrap();
        m.free_lock(l1);
        let k2 = m.alloc_key();
        let l2 = m.alloc_lock().unwrap();
        assert_eq!(l1, l2, "lock location recycled");
        assert_ne!(k1, k2, "key never recycled");
    }

    #[test]
    fn stack_key_space_is_disjoint() {
        let mut m = LockManager::new();
        for _ in 0..10_000 {
            assert!(m.alloc_key() < STACK_KEY_BASE);
        }
    }

    #[test]
    fn head_slot_is_stable() {
        let m = LockManager::new();
        assert_eq!(m.head_slot(), HEAP_LOCK_BASE);
    }
}
