//! Calendar-queue scheduling structures for the timing core.
//!
//! The timestamp-based model of [`crate::core`] tracks window occupancy
//! (ROB/IQ/LQ/SQ) as multisets of *release times* and functional units as
//! small pools of *next-free times*. PR 5 kept the windows in
//! `BinaryHeap<Reverse<u64>>`s, paying a comparison-sorted log factor per
//! µop on the hottest loop in the workspace. This module replaces them
//! with structures whose operations are O(1) in the steady state and whose
//! behaviour is **provably identical** — each production structure has a
//! heap/scan reference twin behind the [`SchedModel`] trait, and the
//! equivalence is asserted structure-by-structure (property tests) and
//! end-to-end (the `wheel_equivalence` workspace suite). The loop that
//! drives these structures is [`crate::core`]'s single per-µop dispatch
//! loop; every µop it dispatches touches these window and pool
//! operations.
//!
//! Three observations make the replacements exact:
//!
//! * **ROB/LQ/SQ release times are monotone.** All three windows release
//!   at *commit*, and [`commit_time`](crate::core) is non-decreasing
//!   (`t = complete.max(last_commit)`), so every push is `>=` the previous
//!   one. On a monotone stream, pop-min *is* pop-front, and a
//!   fixed-capacity ring buffer ([`ReleaseRing`]) is exactly equivalent to
//!   a heap — no comparisons at all.
//! * **IQ release times are bounded-skew but unordered.** Entries leave
//!   the issue queue at *issue*, which hops backwards whenever a younger
//!   µop issues before an older one's latency expires. A circular calendar
//!   wheel ([`CalendarWheel`]) keyed on release cycle handles this: slot
//!   `t mod 4096` counts the entries releasing at `t`, a two-level bitmap
//!   finds the earliest occupied slot in a handful of word operations, and
//!   the rare entry scheduled beyond the horizon (a DRAM-missing
//!   dependence chain) waits in a preallocated overflow list whose length
//!   the IQ capacity bounds.
//! * **Unit choice among equal minima is invisible.** [`FuPools::reserve`]
//!   must replace a *true minimum* of the pool's next-free multiset
//!   (replacing any merely-idle unit diverges: with units free at `{0, 5}`,
//!   reserving at `earliest = 6` must consume the `0` — a later
//!   `reserve(3)` distinguishes `{5, ...}` from `{0, ...}`). But *which*
//!   of several **equal** minima is replaced cannot be observed — the
//!   resulting multiset is the same — so [`CursorPools`] may rotate its
//!   scan origin for deterministic, balanced port assignment while
//!   remaining report-identical to [`ScanPools`]' lowest-index scan.
//!
//! All structures allocate at construction only: the wheel's slot counts,
//! bitmap and overflow list, the rings' buffers and the pools' arrays are
//! sized once from [`CoreConfig`](crate::CoreConfig) window depths, so the
//! timed hot loop runs allocation-free (asserted by the workspace's
//! `alloc_discipline` test).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

use crate::core::NUM_FUS;

/// A window-occupancy multiset of release times.
///
/// Contract (upheld by the consume loop, `debug_assert`ed by the
/// implementations): the `bound` arguments of [`WindowQueue::drain_le`]
/// are non-decreasing, every [`WindowQueue::push`] is `>=` the largest
/// bound drained so far, and the caller keeps `len() <= capacity` by
/// popping before pushing when full.
pub trait WindowQueue: fmt::Debug {
    /// An empty queue that will never hold more than `cap` entries.
    fn with_capacity(cap: usize) -> Self;

    /// Number of entries currently queued.
    fn len(&self) -> usize;

    /// Whether no entries are queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adds a release time.
    fn push(&mut self, t: u64);

    /// Removes and returns the earliest release time.
    fn pop_min(&mut self) -> Option<u64>;

    /// Removes every entry with release time `<= bound`.
    fn drain_le(&mut self, bound: u64);

    /// High-water mark of entries that ever waited beyond the
    /// structure's fast horizon (the calendar wheel's overflow list);
    /// `0` for structures without a slow path. A telemetry observable:
    /// a non-zero peak means some issue skew exceeded the
    /// [`WHEEL_SLOTS`]-cycle horizon.
    fn overflow_peak(&self) -> usize {
        0
    }
}

/// Fixed-capacity ring buffer over a **monotone** release-time stream
/// (ROB/LQ/SQ, whose entries release at the non-decreasing commit time).
///
/// Monotone pushes mean the front is always the minimum, so `pop_min` and
/// `drain_le` touch only the head — no comparisons against anything but
/// the drain bound, no heap sift.
#[derive(Debug)]
pub struct ReleaseRing {
    buf: Box<[u64]>,
    head: usize,
    len: usize,
    last_push: u64,
}

impl WindowQueue for ReleaseRing {
    fn with_capacity(cap: usize) -> Self {
        assert!(cap > 0, "window capacity must be positive");
        ReleaseRing {
            buf: vec![0; cap].into_boxed_slice(),
            head: 0,
            len: 0,
            last_push: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn push(&mut self, t: u64) {
        debug_assert!(self.len < self.buf.len(), "ring window overfilled");
        debug_assert!(t >= self.last_push, "ring pushes must be monotone");
        self.last_push = t;
        let mut i = self.head + self.len;
        if i >= self.buf.len() {
            i -= self.buf.len();
        }
        self.buf[i] = t;
        self.len += 1;
    }

    fn pop_min(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let t = self.buf[self.head];
        self.head += 1;
        if self.head == self.buf.len() {
            self.head = 0;
        }
        self.len -= 1;
        Some(t)
    }

    fn drain_le(&mut self, bound: u64) {
        while self.len > 0 && self.buf[self.head] <= bound {
            self.head += 1;
            if self.head == self.buf.len() {
                self.head = 0;
            }
            self.len -= 1;
        }
    }
}

/// Slots in the wheel horizon. 4096 one-cycle slots cover every issue
/// skew short of a multi-DRAM-miss dependence chain; anything beyond
/// waits in the (IQ-capacity-bounded) overflow list.
pub const WHEEL_SLOTS: usize = 4096;
const WHEEL_MASK: u64 = WHEEL_SLOTS as u64 - 1;
const WHEEL_WORDS: usize = WHEEL_SLOTS / 64;

/// Circular calendar wheel over release cycles (the issue queue).
///
/// `counts[t mod 4096]` holds how many entries release at cycle `t` for
/// `t` in the horizon `[base, base + 4096)`; a per-64-slot occupancy word
/// plus one summary word finds the earliest occupied slot in O(1) word
/// operations. `base` is the largest `drain_le` bound seen, so every live
/// entry and every future push is `>= base` (the [`WindowQueue`]
/// contract) and slot indices never collide across laps. Entries pushed
/// beyond the horizon sit in `overflow` (preallocated to the window
/// capacity; scanned only while non-empty, which requires a >4096-cycle
/// issue skew) and migrate into the wheel as `base` advances past
/// `their time - 4096`.
///
/// All arithmetic is wrap-safe: only differences `t - base` are formed,
/// never `base + 4096`, so release times near `u64::MAX` are handled
/// exactly (property-tested).
#[derive(Debug)]
pub struct CalendarWheel {
    counts: Box<[u32]>,
    words: Box<[u64]>,
    summary: u64,
    base: u64,
    in_horizon: usize,
    overflow: Vec<u64>,
    overflow_peak: usize,
}

impl CalendarWheel {
    fn slot_of(t: u64) -> usize {
        (t & WHEEL_MASK) as usize
    }

    /// The release time stored in occupied slot `s` (unique within the
    /// horizon: `t = base + ((s - base) mod 4096)`).
    fn time_of(&self, s: usize) -> u64 {
        let offset = (s as u64).wrapping_sub(self.base) & WHEEL_MASK;
        self.base.wrapping_add(offset)
    }

    fn set_bit(&mut self, s: usize) {
        let w = s / 64;
        self.words[w] |= 1u64 << (s % 64);
        self.summary |= 1u64 << w;
    }

    fn clear_bit(&mut self, s: usize) {
        let w = s / 64;
        self.words[w] &= !(1u64 << (s % 64));
        if self.words[w] == 0 {
            self.summary &= !(1u64 << w);
        }
    }

    fn insert_horizon(&mut self, t: u64) {
        let s = Self::slot_of(t);
        if self.counts[s] == 0 {
            self.set_bit(s);
        }
        self.counts[s] += 1;
        self.in_horizon += 1;
    }

    /// First occupied slot in circular order from the base slot — i.e. the
    /// slot of the earliest in-horizon release time.
    fn first_slot(&self) -> Option<usize> {
        if self.summary == 0 {
            return None;
        }
        let s0 = Self::slot_of(self.base);
        let (w0, b0) = (s0 / 64, (s0 % 64) as u32);
        let m = self.words[w0] & (u64::MAX << b0);
        if m != 0 {
            return Some(w0 * 64 + m.trailing_zeros() as usize);
        }
        let after = if w0 + 1 == WHEEL_WORDS {
            0
        } else {
            self.summary & (u64::MAX << (w0 + 1))
        };
        if after != 0 {
            let w = after.trailing_zeros() as usize;
            return Some(w * 64 + self.words[w].trailing_zeros() as usize);
        }
        let before = self.summary & !(u64::MAX << w0);
        if before != 0 {
            let w = before.trailing_zeros() as usize;
            return Some(w * 64 + self.words[w].trailing_zeros() as usize);
        }
        // Wrapped all the way around: only bits below `b0` of word `w0`.
        let m = self.words[w0] & !(u64::MAX << b0);
        debug_assert!(m != 0, "summary occupied but no slot found");
        Some(w0 * 64 + m.trailing_zeros() as usize)
    }
}

impl WindowQueue for CalendarWheel {
    fn with_capacity(cap: usize) -> Self {
        assert!(cap > 0, "window capacity must be positive");
        CalendarWheel {
            counts: vec![0; WHEEL_SLOTS].into_boxed_slice(),
            words: vec![0; WHEEL_WORDS].into_boxed_slice(),
            summary: 0,
            base: 0,
            in_horizon: 0,
            overflow: Vec::with_capacity(cap),
            overflow_peak: 0,
        }
    }

    fn len(&self) -> usize {
        self.in_horizon + self.overflow.len()
    }

    fn push(&mut self, t: u64) {
        debug_assert!(t >= self.base, "push below the drained horizon");
        if t.wrapping_sub(self.base) < WHEEL_SLOTS as u64 {
            self.insert_horizon(t);
        } else {
            self.overflow.push(t);
            self.overflow_peak = self.overflow_peak.max(self.overflow.len());
        }
    }

    fn pop_min(&mut self) -> Option<u64> {
        // In-horizon entries are all `< base + 4096 <=` any overflow entry,
        // so the horizon minimum is the global minimum whenever it exists.
        if let Some(s) = self.first_slot() {
            let t = self.time_of(s);
            self.counts[s] -= 1;
            if self.counts[s] == 0 {
                self.clear_bit(s);
            }
            self.in_horizon -= 1;
            return Some(t);
        }
        if self.overflow.is_empty() {
            return None;
        }
        let mut best = 0;
        for i in 1..self.overflow.len() {
            if self.overflow[i] < self.overflow[best] {
                best = i;
            }
        }
        Some(self.overflow.swap_remove(best))
    }

    fn drain_le(&mut self, bound: u64) {
        // A long frontend stall can advance the bound past the horizon, so
        // overflow entries are drainable too (rarely: the list is almost
        // always empty).
        if !self.overflow.is_empty() {
            let mut i = 0;
            while i < self.overflow.len() {
                if self.overflow[i] <= bound {
                    self.overflow.swap_remove(i);
                } else {
                    i += 1;
                }
            }
        }
        if bound < self.base {
            // Nothing in the horizon is below `base`.
            return;
        }
        if bound - self.base >= WHEEL_SLOTS as u64 {
            // The whole horizon drains: clear occupied slots via the bitmap.
            while self.summary != 0 {
                let w = self.summary.trailing_zeros() as usize;
                while self.words[w] != 0 {
                    let b = self.words[w].trailing_zeros() as usize;
                    let s = w * 64 + b;
                    self.in_horizon -= self.counts[s] as usize;
                    self.counts[s] = 0;
                    self.words[w] &= !(1u64 << b);
                }
                self.summary &= !(1u64 << w);
            }
            debug_assert_eq!(self.in_horizon, 0);
        } else {
            while let Some(s) = self.first_slot() {
                let t = self.time_of(s);
                if t > bound {
                    break;
                }
                self.in_horizon -= self.counts[s] as usize;
                self.counts[s] = 0;
                self.clear_bit(s);
            }
        }
        self.base = bound;
        // Overflow entries now within `[base, base + 4096)` join the wheel.
        if !self.overflow.is_empty() {
            let mut i = 0;
            while i < self.overflow.len() {
                let t = self.overflow[i];
                if t.wrapping_sub(self.base) < WHEEL_SLOTS as u64 {
                    self.overflow.swap_remove(i);
                    self.insert_horizon(t);
                } else {
                    i += 1;
                }
            }
        }
    }

    fn overflow_peak(&self) -> usize {
        self.overflow_peak
    }
}

/// Reference twin of [`ReleaseRing`]: the `VecDeque` the PR 5 core used
/// for the ROB (pop-front ≡ pop-min on the monotone commit stream).
#[derive(Debug)]
pub struct FifoQueue(VecDeque<u64>);

impl WindowQueue for FifoQueue {
    fn with_capacity(cap: usize) -> Self {
        FifoQueue(VecDeque::with_capacity(cap + 1))
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn push(&mut self, t: u64) {
        self.0.push_back(t);
    }

    fn pop_min(&mut self) -> Option<u64> {
        self.0.pop_front()
    }

    fn drain_le(&mut self, bound: u64) {
        while let Some(&t) = self.0.front() {
            if t <= bound {
                self.0.pop_front();
            } else {
                break;
            }
        }
    }
}

/// Reference twin of [`CalendarWheel`]: the `BinaryHeap<Reverse<u64>>`
/// the PR 5 core used for the IQ/LQ/SQ.
#[derive(Debug)]
pub struct HeapQueue(BinaryHeap<Reverse<u64>>);

impl WindowQueue for HeapQueue {
    fn with_capacity(cap: usize) -> Self {
        HeapQueue(BinaryHeap::with_capacity(cap + 1))
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn push(&mut self, t: u64) {
        self.0.push(Reverse(t));
    }

    fn pop_min(&mut self) -> Option<u64> {
        self.0.pop().map(|Reverse(t)| t)
    }

    fn drain_le(&mut self, bound: u64) {
        while let Some(&Reverse(t)) = self.0.peek() {
            if t <= bound {
                self.0.pop();
            } else {
                break;
            }
        }
    }
}

/// Per-functional-unit-class pools of next-free times.
pub trait FuPools: fmt::Debug {
    /// Builds pools with `sizes[class]` units per class, all free at 0.
    fn new(sizes: [usize; NUM_FUS]) -> Self;

    /// Reserves a unit of `class` whose next-free time is a **minimum** of
    /// the class pool, starting no earlier than `earliest`, occupying it
    /// for `busy` cycles. Returns the start time
    /// (`earliest.max(min_free)`).
    fn reserve(&mut self, class: usize, earliest: u64, busy: u64) -> u64;

    /// How many reservations each unit of `class` has served (index =
    /// unit/port number).
    fn reserve_counts(&self, class: usize) -> &[u64];
}

/// Units per pool after padding. Every pool stores exactly this many
/// next-free slots, the unused tail pinned at `u64::MAX`, so the minimum
/// scan is a fixed-length, branch-free reduction the compiler lowers to
/// conditional moves — no data-dependent branches for the host to
/// mispredict on the two scans every µop performs.
pub const POOL_PAD: usize = 8;

/// Circular fixed-length minimum scan from `origin`: index and value of
/// the first minimum in circular visiting order. Padding slots hold
/// `u64::MAX` and real times stay below it (a release time would have to
/// saturate a `u64` to tie), so pads never win the strict-`<` race and the
/// visit order restricted to real units is exactly the circular order on
/// `0..n` — the scan is equivalent to rotating over the real units alone.
#[inline]
fn scan_from(pool: &[u64; POOL_PAD], origin: usize) -> (usize, u64) {
    let mut best = origin;
    let mut best_t = pool[origin];
    for k in 1..POOL_PAD {
        let i = (origin + k) & (POOL_PAD - 1);
        let t = pool[i];
        let better = t < best_t;
        best = if better { i } else { best };
        best_t = if better { t } else { best_t };
    }
    (best, best_t)
}

/// Rotating-cursor pools: each reservation scans the class pool for a true
/// minimum **starting at a cursor** that advances past the chosen unit, so
/// ties rotate deterministically across ports instead of hammering unit 0.
///
/// Report-identical to [`ScanPools`]: both replace a minimum of the same
/// multiset with the same `start + busy`, and the choice among *equal*
/// minima cannot affect any later reservation (the multisets stay equal).
/// Only the per-unit utilization counters differ — which is the point:
/// under the cursor, symmetric µop streams load the ports symmetrically
/// (pinned by a regression test in `crate::core`).
#[derive(Debug)]
pub struct CursorPools {
    free: [[u64; POOL_PAD]; NUM_FUS],
    counts: [[u64; POOL_PAD]; NUM_FUS],
    n: [usize; NUM_FUS],
    cursor: [usize; NUM_FUS],
}

fn padded_pools(sizes: [usize; NUM_FUS]) -> [[u64; POOL_PAD]; NUM_FUS] {
    sizes.map(|n| {
        assert!(n <= POOL_PAD, "FU classes support at most {POOL_PAD} units");
        let mut pool = [u64::MAX; POOL_PAD];
        pool[..n].fill(0);
        pool
    })
}

impl FuPools for CursorPools {
    fn new(sizes: [usize; NUM_FUS]) -> Self {
        CursorPools {
            free: padded_pools(sizes),
            counts: [[0; POOL_PAD]; NUM_FUS],
            n: sizes,
            cursor: [0; NUM_FUS],
        }
    }

    fn reserve(&mut self, class: usize, earliest: u64, busy: u64) -> u64 {
        debug_assert!(self.n[class] > 0, "every FU class has at least one unit");
        let (best, best_t) = scan_from(&self.free[class], self.cursor[class]);
        let start = earliest.max(best_t);
        self.free[class][best] = start + busy;
        debug_assert!(start.checked_add(busy).is_some(), "next-free saturated");
        self.counts[class][best] += 1;
        let n = self.n[class];
        self.cursor[class] = if best + 1 >= n { 0 } else { best + 1 };
        start
    }

    fn reserve_counts(&self, class: usize) -> &[u64] {
        &self.counts[class][..self.n[class]]
    }
}

/// Reference twin of [`CursorPools`]: the PR 5 `min_by_key` scan, which
/// always picks the lowest-index unit among equal minima (a scan from a
/// cursor pinned at 0).
#[derive(Debug)]
pub struct ScanPools {
    free: [[u64; POOL_PAD]; NUM_FUS],
    counts: [[u64; POOL_PAD]; NUM_FUS],
    n: [usize; NUM_FUS],
}

impl FuPools for ScanPools {
    fn new(sizes: [usize; NUM_FUS]) -> Self {
        ScanPools {
            free: padded_pools(sizes),
            counts: [[0; POOL_PAD]; NUM_FUS],
            n: sizes,
        }
    }

    fn reserve(&mut self, class: usize, earliest: u64, busy: u64) -> u64 {
        debug_assert!(self.n[class] > 0, "every FU class has at least one unit");
        let (idx, free_at) = scan_from(&self.free[class], 0);
        let start = earliest.max(free_at);
        self.free[class][idx] = start + busy;
        debug_assert!(start.checked_add(busy).is_some(), "next-free saturated");
        self.counts[class][idx] += 1;
        start
    }

    fn reserve_counts(&self, class: usize) -> &[u64] {
        &self.counts[class][..self.n[class]]
    }
}

/// Selects the scheduling structures of a
/// [`ScheduledCore`](crate::core::ScheduledCore): the production
/// [`WheelSched`] or the test-only reference [`HeapSched`]. Both models
/// run the *same* consume loop; only the occupancy/pool containers differ.
pub trait SchedModel {
    /// ROB occupancy (monotone commit-time releases).
    type Rob: WindowQueue;
    /// IQ occupancy (unordered issue-time releases).
    type Iq: WindowQueue;
    /// LQ/SQ occupancy (monotone commit-time releases).
    type Memq: WindowQueue;
    /// Functional-unit/port pools.
    type Pools: FuPools;
}

/// The production model: rings, the calendar wheel and rotating-cursor
/// pools. Allocation-free and comparison-free in the steady state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WheelSched;

impl SchedModel for WheelSched {
    type Rob = ReleaseRing;
    type Iq = CalendarWheel;
    type Memq = ReleaseRing;
    type Pools = CursorPools;
}

/// The PR 5 reference model: deque + binary heaps + lowest-index scans.
/// Kept as the bit-for-bit oracle the production model is tested against
/// (same methodology as the repeat-probe memos).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapSched;

impl SchedModel for HeapSched {
    type Rob = FifoQueue;
    type Iq = HeapQueue;
    type Memq = HeapQueue;
    type Pools = ScanPools;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all<Q: WindowQueue>(q: &mut Q) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some(t) = q.pop_min() {
            out.push(t);
        }
        out
    }

    #[test]
    fn wheel_orders_unordered_pushes() {
        let mut w = CalendarWheel::with_capacity(8);
        for t in [17u64, 3, 3, 4096, 90, 0] {
            w.push(t);
        }
        assert_eq!(w.len(), 6);
        assert_eq!(drain_all(&mut w), [0, 3, 3, 17, 90, 4096]);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn wheel_overflow_entries_wait_and_migrate() {
        let mut w = CalendarWheel::with_capacity(8);
        w.push(10); // horizon
        w.push(20_000); // overflow (>= 4096 past base 0)
        w.push(5000); // overflow
        assert_eq!(w.len(), 3);
        assert_eq!(w.pop_min(), Some(10));
        // Horizon empty: minimum comes from overflow without rebasing.
        assert_eq!(w.pop_min(), Some(5000));
        w.push(5000);
        // Draining advances the base, migrating 5000 into the horizon.
        w.drain_le(4000);
        assert_eq!(w.len(), 2);
        assert_eq!(w.pop_min(), Some(5000));
        assert_eq!(w.pop_min(), Some(20_000));
        assert_eq!(w.pop_min(), None);
    }

    #[test]
    fn overflow_peak_tracks_the_slow_path_high_water() {
        let mut w = CalendarWheel::with_capacity(8);
        assert_eq!(w.overflow_peak(), 0);
        w.push(10);
        assert_eq!(w.overflow_peak(), 0, "horizon pushes never touch overflow");
        w.push(10_000);
        w.push(20_000);
        assert_eq!(w.overflow_peak(), 2);
        // Draining migrates entries out, but the peak is a high-water mark.
        w.drain_le(9_000);
        assert_eq!(w.overflow_peak(), 2);
        let f = FifoQueue::with_capacity(8);
        assert_eq!(f.overflow_peak(), 0, "rings have no slow path");
    }

    #[test]
    fn wheel_drain_le_crosses_the_wrap_boundary() {
        let mut w = CalendarWheel::with_capacity(64);
        w.drain_le(4090); // base just below the 4096 boundary
        for t in 4090..4110u64 {
            w.push(t); // slots wrap from 4090..4095 to 0..13
        }
        w.drain_le(4100);
        assert_eq!(w.len(), 9);
        assert_eq!(drain_all(&mut w), (4101..4110).collect::<Vec<_>>());
    }

    #[test]
    fn wheel_handles_times_near_u64_max() {
        let mut w = CalendarWheel::with_capacity(8);
        let top = u64::MAX - 10;
        w.drain_le(top);
        w.push(top);
        w.push(u64::MAX);
        w.push(top + 5);
        assert_eq!(drain_all(&mut w), [top, top + 5, u64::MAX]);
        // A drain at u64::MAX empties everything and accepts new pushes.
        w.push(u64::MAX);
        w.drain_le(u64::MAX);
        assert_eq!(w.len(), 0);
        w.push(u64::MAX);
        assert_eq!(w.pop_min(), Some(u64::MAX));
    }

    #[test]
    fn wheel_drain_far_past_horizon_clears_everything() {
        let mut w = CalendarWheel::with_capacity(16);
        for t in [1u64, 100, 4095, 9999] {
            w.push(t); // 9999 overflows
        }
        w.drain_le(1_000_000);
        assert_eq!(w.len(), 0);
        assert_eq!(w.pop_min(), None);
    }

    #[test]
    fn ring_is_fifo_over_monotone_stream() {
        let mut r = ReleaseRing::with_capacity(3);
        r.push(5);
        r.push(5);
        r.push(9);
        assert_eq!(r.pop_min(), Some(5));
        r.push(12); // wraps the buffer
        r.drain_le(9);
        assert_eq!(r.len(), 1);
        assert_eq!(r.pop_min(), Some(12));
        assert_eq!(r.pop_min(), None);
    }

    #[test]
    fn cursor_pools_match_scan_pools_on_start_times() {
        let sizes = {
            let mut s = [0usize; NUM_FUS];
            s[0] = 3;
            s[1] = 1;
            s
        };
        let mut cursor = CursorPools::new(sizes);
        let mut scan = ScanPools::new(sizes);
        let mut x = 0x9E3779B97F4A7C15u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let class = (x % 2) as usize;
            let earliest = (x >> 8) % 64;
            let busy = 1 + (x >> 32) % 4;
            assert_eq!(
                cursor.reserve(class, earliest, busy),
                scan.reserve(class, earliest, busy)
            );
        }
        // The multisets of next-free times agree even though unit order may
        // differ.
        for class in 0..2 {
            let mut a = cursor.free[class];
            let mut b = scan.free[class];
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn cursor_rotates_ties_across_units() {
        let sizes = {
            let mut s = [0usize; NUM_FUS];
            s[0] = 4;
            s
        };
        let mut p = CursorPools::new(sizes);
        // Four equal-minimum reservations: one per unit, not four on unit 0.
        for _ in 0..4 {
            assert_eq!(p.reserve(0, 0, 1), 0);
        }
        assert_eq!(p.reserve_counts(0), &[1, 1, 1, 1]);
        let mut scan = ScanPools::new(sizes);
        for _ in 0..4 {
            assert_eq!(scan.reserve(0, 0, 1), 0);
        }
        // The reference piles equal minima onto the lowest index first —
        // observable only through the utilization counters, never the
        // returned start times.
        assert_eq!(scan.reserve_counts(0), &[1, 1, 1, 1]);
    }

    #[test]
    fn heap_and_fifo_references_agree_on_monotone_streams() {
        let mut h = HeapQueue::with_capacity(8);
        let mut f = FifoQueue::with_capacity(8);
        for t in [1u64, 4, 4, 9] {
            h.push(t);
            f.push(t);
        }
        h.drain_le(4);
        f.drain_le(4);
        assert_eq!(h.len(), f.len());
        assert_eq!(h.pop_min(), f.pop_min());
    }
}
