//! Property tests pinning the calendar-queue structures to few-line
//! executable specs on adversarial operation streams: wheel wrap-around
//! at the horizon boundary, overflow beyond it, drain jumps past
//! everything, and release times near `u64::MAX`.
//!
//! * Windows ([`ReleaseRing`], [`CalendarWheel`]): a sorted `Vec<u64>`
//!   multiset, where pop-min takes the front and drain-le cuts a prefix.
//! * Pools ([`FuPools`]): per-class `Vec<u64>` next-free times, where
//!   each reservation replaces the first minimum.

use proptest::prelude::*;
use watchdog_pipeline::wheel::{CalendarWheel, FuPools, ReleaseRing, POOL_PAD, WHEEL_SLOTS};
use watchdog_pipeline::NUM_FUS;

/// The window operations the lockstep driver exercises, implemented by
/// both window structures and the spec.
trait Window {
    fn with_capacity(cap: usize) -> Self;
    fn len(&self) -> usize;
    fn push(&mut self, t: u64);
    fn pop_min(&mut self) -> Option<u64>;
    fn drain_le(&mut self, bound: u64);
}

macro_rules! window_impl {
    ($ty:ty) => {
        impl Window for $ty {
            fn with_capacity(cap: usize) -> Self {
                <$ty>::with_capacity(cap)
            }
            fn len(&self) -> usize {
                <$ty>::len(self)
            }
            fn push(&mut self, t: u64) {
                <$ty>::push(self, t)
            }
            fn pop_min(&mut self) -> Option<u64> {
                <$ty>::pop_min(self)
            }
            fn drain_le(&mut self, bound: u64) {
                <$ty>::drain_le(self, bound)
            }
        }
    };
}

window_impl!(ReleaseRing);
window_impl!(CalendarWheel);

/// The windows spec: a sorted multiset of release times.
struct SpecWindow(Vec<u64>);

impl Window for SpecWindow {
    fn with_capacity(_: usize) -> Self {
        SpecWindow(Vec::new())
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn push(&mut self, t: u64) {
        let i = self.0.partition_point(|&x| x <= t);
        self.0.insert(i, t);
    }
    fn pop_min(&mut self) -> Option<u64> {
        (!self.0.is_empty()).then(|| self.0.remove(0))
    }
    fn drain_le(&mut self, bound: u64) {
        let n = self.0.partition_point(|&x| x <= bound);
        self.0.drain(..n);
    }
}

/// Drives one operation stream through a window structure and the spec
/// under the window contract (pushes `>=` the largest drain bound,
/// occupancy capped by popping first), comparing every observable.
///
/// `sel % 3` picks the operation; `a` parameterizes it. `skews` maps the
/// push parameter to an offset above the current bound — the caller
/// chooses skews that stress wrap-around (±1 around [`WHEEL_SLOTS`]) or
/// overflow (far beyond it).
fn lockstep<Q: Window>(
    start: u64,
    cap: usize,
    ops: &[(u8, u64)],
    skews: &[u64],
    monotone: bool,
) -> Result<(), TestCaseError> {
    let mut q = Q::with_capacity(cap);
    let mut r = SpecWindow::with_capacity(cap);
    let mut bound = start;
    let mut last_push = start;
    q.drain_le(bound);
    r.drain_le(bound);
    for (i, &(sel, a)) in ops.iter().enumerate() {
        match sel % 3 {
            0 => {
                if q.len() >= cap {
                    prop_assert_eq!(q.pop_min(), r.pop_min(), "forced pop at op {}", i);
                }
                let mut t = bound.saturating_add(skews[(a % skews.len() as u64) as usize]);
                if monotone {
                    // The ROB/LQ/SQ regime: commit times never decrease.
                    t = t.max(last_push);
                }
                last_push = t;
                q.push(t);
                r.push(t);
            }
            1 => {
                prop_assert_eq!(q.pop_min(), r.pop_min(), "pop at op {}", i);
            }
            _ => {
                bound = bound.saturating_add(a % (2 * WHEEL_SLOTS as u64));
                q.drain_le(bound);
                r.drain_le(bound);
            }
        }
        prop_assert_eq!(q.len(), r.len(), "len after op {}", i);
    }
    while q.len() > 0 {
        prop_assert_eq!(q.pop_min(), r.pop_min(), "final drain");
    }
    prop_assert_eq!(r.pop_min(), None);
    Ok(())
}

/// The pools spec: reserves on the first minimum of `pool` (`min_by_key`
/// keeps the first of equal keys), no earlier than `earliest`, for `busy`
/// cycles; returns the start time.
fn spec_reserve(pool: &mut [u64], earliest: u64, busy: u64) -> u64 {
    let (i, &free) = pool.iter().enumerate().min_by_key(|&(_, t)| *t).unwrap();
    let start = earliest.max(free);
    pool[i] = start + busy;
    start
}

proptest! {
    /// The calendar wheel matches the spec on unordered streams whose
    /// skews straddle the horizon boundary (in-slot, last-slot,
    /// first-wrapped-slot, deep overflow at `3w` and `10w` — the only
    /// coverage of the overflow path, which the suite never reaches).
    #[test]
    fn wheel_matches_spec_across_wrap_and_overflow(
        start in prop_oneof![Just(0u64), 0u64..10_000, Just(u64::MAX - 9000)],
        cap in 1usize..54,
        ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..300),
    ) {
        let w = WHEEL_SLOTS as u64;
        let skews = [0, 1, 2, 63, 64, w - 1, w, w + 1, 3 * w, 10 * w];
        lockstep::<CalendarWheel>(start, cap, &ops, &skews, false)?;
    }

    /// The release ring matches the spec on monotone streams — the only
    /// streams the ROB/LQ/SQ produce.
    #[test]
    fn ring_matches_spec_on_monotone_streams(
        start in prop_oneof![Just(0u64), Just(u64::MAX - 5000)],
        cap in 1usize..64,
        ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..300),
    ) {
        let skews = [0, 1, 2, 3, 17];
        lockstep::<ReleaseRing>(start, cap, &ops, &skews, true)?;
    }

    /// The pools return the spec's start times for any reservation
    /// stream and leave every unit's next-free time equal to the spec's:
    /// both replace the first minimum in index order.
    #[test]
    fn cursor_pools_match_scan_pools(
        sizes in proptest::collection::vec(1usize..7, NUM_FUS..NUM_FUS + 1),
        ops in proptest::collection::vec(
            (0usize..NUM_FUS, 0u64..2000, 1u64..30), 1..400),
    ) {
        let mut spec: Vec<Vec<u64>> = sizes.iter().map(|&n| vec![0; n]).collect();
        let sizes: [usize; NUM_FUS] = sizes.try_into().unwrap();
        let mut pools = FuPools::new(sizes);
        for (i, &(class, earliest, busy)) in ops.iter().enumerate() {
            prop_assert_eq!(
                pools.reserve(class, earliest, busy),
                spec_reserve(&mut spec[class], earliest, busy),
                "reservation {} diverged", i
            );
            let (units, pads) = pools.next_free(class).split_at(sizes[class]);
            prop_assert_eq!(units, &spec[class][..], "reservation {} took another unit", i);
            prop_assert_eq!(pads, &[u64::MAX; POOL_PAD][sizes[class]..]);
        }
    }
}
