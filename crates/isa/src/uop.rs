//! The µop vocabulary.
//!
//! Watchdog "uses micro-ops to access metadata and perform checks" (§1). The
//! cracker expands every macro-instruction into µops from this vocabulary;
//! the timing model schedules them onto functional units and cache ports.
//!
//! The Watchdog-injected kinds are:
//!
//! * [`UopKind::Check`] — lock-location load + key comparison, a single µop
//!   (§4.1, Fig. 4b). Routed to the dedicated lock-location cache when
//!   present (§4.2).
//! * [`UopKind::CheckCombined`] — identifier *and* bounds check fused into
//!   one µop (§8, alternative 2).
//! * [`UopKind::BoundsCheck`] — the separate bounds-check µop (§8,
//!   alternative 1); pure comparison, no memory access.
//! * [`UopKind::ShadowLoad`] / [`UopKind::ShadowStore`] — metadata accesses
//!   to the disjoint shadow space (Fig. 2a/2b).
//! * [`UopKind::LockLoad`] / [`UopKind::LockStore`] — lock-location
//!   reads/writes performed during identifier allocation/deallocation
//!   (Fig. 3).
//! * [`UopKind::SelectMeta`] — metadata select for two-source pointer
//!   arithmetic (§6.2).

use crate::reg::LReg;
use std::fmt;

/// Maximum µops a single macro-instruction cracks into (the Watchdog
/// `malloc` runtime expansion is the largest).
pub const MAX_UOPS: usize = 24;

/// Functional classification of a µop.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum UopKind {
    /// Single-cycle integer ALU operation.
    IntAlu,
    /// Pipelined integer multiply.
    IntMul,
    /// Unpipelined integer divide.
    IntDiv,
    /// Pipelined FP add/sub/convert.
    FpAlu,
    /// Pipelined FP multiply.
    FpMul,
    /// Unpipelined FP divide.
    FpDiv,
    /// Branch/jump resolution.
    Branch,
    /// Data load (program data space).
    Load,
    /// Data store.
    Store,
    /// Metadata load from the shadow space.
    ShadowLoad,
    /// Metadata store to the shadow space.
    ShadowStore,
    /// Lock-location load (identifier management).
    LockLoad,
    /// Lock-location store (identifier management).
    LockStore,
    /// Use-after-free check: load lock location, compare with key.
    Check,
    /// Bounds-only check: two inequality comparisons, no memory access.
    BoundsCheck,
    /// Fused identifier + bounds check (one lock-location access).
    CheckCombined,
    /// Metadata select between two source sidecars.
    SelectMeta,
    /// No-op placeholder.
    Nop,
}

impl UopKind {
    /// Number of µop kinds (one per enum variant).
    pub const COUNT: usize = 18;

    /// Every µop kind, in discriminant order. Indexing this array with
    /// `kind as usize` yields `kind` back — the property that makes dense
    /// per-kind tables (the telemetry dispatch counters) safe to index
    /// without a `match`.
    pub const ALL: [UopKind; UopKind::COUNT] = [
        UopKind::IntAlu,
        UopKind::IntMul,
        UopKind::IntDiv,
        UopKind::FpAlu,
        UopKind::FpMul,
        UopKind::FpDiv,
        UopKind::Branch,
        UopKind::Load,
        UopKind::Store,
        UopKind::ShadowLoad,
        UopKind::ShadowStore,
        UopKind::LockLoad,
        UopKind::LockStore,
        UopKind::Check,
        UopKind::BoundsCheck,
        UopKind::CheckCombined,
        UopKind::SelectMeta,
        UopKind::Nop,
    ];

    /// Whether the µop accesses memory (and therefore needs an address and a
    /// cache port).
    pub const fn is_mem(self) -> bool {
        matches!(
            self,
            UopKind::Load
                | UopKind::Store
                | UopKind::ShadowLoad
                | UopKind::ShadowStore
                | UopKind::LockLoad
                | UopKind::LockStore
                | UopKind::Check
                | UopKind::CheckCombined
        )
    }

    /// Whether the µop writes memory.
    pub const fn is_mem_write(self) -> bool {
        matches!(
            self,
            UopKind::Store | UopKind::ShadowStore | UopKind::LockStore
        )
    }

    /// Whether the µop accesses a lock location (eligible for the
    /// lock-location cache).
    pub const fn is_lock_access(self) -> bool {
        matches!(
            self,
            UopKind::Check | UopKind::CheckCombined | UopKind::LockLoad | UopKind::LockStore
        )
    }

    /// Whether the µop accesses the shadow metadata space.
    pub const fn is_shadow_access(self) -> bool {
        matches!(self, UopKind::ShadowLoad | UopKind::ShadowStore)
    }
}

/// Accounting category for µop-overhead attribution (Fig. 8).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum UopTag {
    /// µop the unmodified baseline would also execute.
    Base,
    /// Injected validity check.
    Check,
    /// Injected metadata load for a pointer load.
    PtrLoad,
    /// Injected metadata store for a pointer store.
    PtrStore,
    /// Injected metadata propagation (`select`).
    Propagate,
    /// Identifier allocation/deallocation work (heap runtime additions and
    /// the call/return µops of Fig. 3).
    AllocDealloc,
}

impl UopTag {
    /// Whether this µop is Watchdog overhead (i.e. not executed by the
    /// baseline).
    pub const fn is_overhead(self) -> bool {
        !matches!(self, UopTag::Base)
    }
}

/// A single µop: kind, register operands and accounting tag.
///
/// Operands are *logical* registers; renaming happens in the pipeline model.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Uop {
    /// Functional kind.
    pub kind: UopKind,
    /// Destination register, if any.
    pub dst: Option<LReg>,
    /// First source register, if any.
    pub src1: Option<LReg>,
    /// Second source register, if any.
    pub src2: Option<LReg>,
    /// Accounting tag.
    pub tag: UopTag,
}

impl Uop {
    /// Builds a µop.
    pub const fn new(
        kind: UopKind,
        dst: Option<LReg>,
        src1: Option<LReg>,
        src2: Option<LReg>,
        tag: UopTag,
    ) -> Self {
        Uop {
            kind,
            dst,
            src1,
            src2,
            tag,
        }
    }

    /// Convenience constructor for a base-tagged µop.
    pub const fn base(
        kind: UopKind,
        dst: Option<LReg>,
        src1: Option<LReg>,
        src2: Option<LReg>,
    ) -> Self {
        Self::new(kind, dst, src1, src2, UopTag::Base)
    }
}

impl fmt::Display for Uop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.kind)?;
        if let Some(d) = self.dst {
            write!(f, " {d} <-")?;
        }
        if let Some(s) = self.src1 {
            write!(f, " {s}")?;
        }
        if let Some(s) = self.src2 {
            write!(f, ", {s}")?;
        }
        Ok(())
    }
}

/// A µop with its dynamically-resolved execution facts: effective address
/// for memory µops, outcome for branches.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct UopExec {
    /// The static µop.
    pub uop: Uop,
    /// Resolved memory address (data, shadow or lock space) for memory µops.
    pub addr: Option<u64>,
    /// Branch outcome (meaningful only for `Branch` µops).
    pub taken: bool,
    /// Branch target byte-address (meaningful only for taken branches).
    pub target: u64,
}

impl UopExec {
    /// Wraps a µop with no dynamic facts attached yet.
    pub const fn plain(uop: Uop) -> Self {
        UopExec {
            uop,
            addr: None,
            taken: false,
            target: 0,
        }
    }
}

impl Default for UopExec {
    fn default() -> Self {
        UopExec::plain(Uop::base(UopKind::Nop, None, None, None))
    }
}

/// Fixed-capacity vector of [`UopExec`] (avoids per-instruction heap
/// allocation on the simulator fast path).
#[derive(Copy, Clone)]
pub struct UopVec {
    items: [UopExec; MAX_UOPS],
    len: u8,
}

impl fmt::Debug for UopVec {
    /// Formats only the populated prefix: entries past `len` are
    /// unreachable scratch (see [`UopVec::clone_from_compact`]) and must
    /// not leak into comparisons or logs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl UopVec {
    /// Empty vector.
    pub fn new() -> Self {
        UopVec {
            items: [UopExec::default(); MAX_UOPS],
            len: 0,
        }
    }

    /// Appends a µop.
    ///
    /// # Panics
    ///
    /// Panics if the vector already holds [`MAX_UOPS`] entries (a cracker
    /// bug, not a user error).
    pub fn push(&mut self, u: UopExec) {
        assert!((self.len as usize) < MAX_UOPS, "µop expansion overflow");
        self.items[self.len as usize] = u;
        self.len += 1;
    }

    /// Appends a static µop with no dynamic facts.
    pub fn push_uop(&mut self, u: Uop) {
        self.push(UopExec::plain(u));
    }

    /// Number of µops.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Immutable view of the µops.
    pub fn as_slice(&self) -> &[UopExec] {
        &self.items[..self.len as usize]
    }

    /// Mutable view of the µops.
    pub fn as_mut_slice(&mut self) -> &mut [UopExec] {
        &mut self.items[..self.len as usize]
    }

    /// Length-aware overwrite: copies only `src`'s populated prefix into
    /// `self` and adopts its length. Entries past the new length are stale
    /// but unreachable (every accessor is bounded by `len`), so the
    /// ~1KB fixed-capacity tail is neither initialized nor copied — this is
    /// the cheap per-step copy the simulator's µop-emitting path uses to
    /// materialize a cached crack expansion.
    pub fn clone_from_compact(&mut self, src: &UopVec) {
        let n = src.len as usize;
        self.items[..n].copy_from_slice(&src.items[..n]);
        self.len = src.len;
    }

    /// In-place filter preserving order (used to drop a folded `select`
    /// µop without building a second vector).
    pub fn retain(&mut self, mut f: impl FnMut(&UopExec) -> bool) {
        let mut keep = 0usize;
        for i in 0..self.len as usize {
            if f(&self.items[i]) {
                self.items[keep] = self.items[i];
                keep += 1;
            }
        }
        self.len = keep as u8;
    }

    /// Inserts a µop at the front, shifting the populated prefix right.
    ///
    /// # Panics
    ///
    /// Panics if the vector already holds [`MAX_UOPS`] entries.
    pub fn insert_front(&mut self, u: UopExec) {
        let n = self.len as usize;
        assert!(n < MAX_UOPS, "µop expansion overflow");
        self.items.copy_within(0..n, 1);
        self.items[0] = u;
        self.len += 1;
    }

    /// Iterates over the µops.
    pub fn iter(&self) -> impl Iterator<Item = &UopExec> {
        self.as_slice().iter()
    }
}

impl Default for UopVec {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> IntoIterator for &'a UopVec {
    type Item = &'a UopExec;
    type IntoIter = std::slice::Iter<'a, UopExec>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{Gpr, LReg};

    #[test]
    fn kind_classification() {
        assert!(UopKind::Check.is_mem());
        assert!(UopKind::Check.is_lock_access());
        assert!(!UopKind::Check.is_mem_write());
        assert!(!UopKind::BoundsCheck.is_mem());
        assert!(UopKind::ShadowStore.is_mem_write());
        assert!(UopKind::ShadowStore.is_shadow_access());
        assert!(UopKind::LockStore.is_lock_access());
        assert!(!UopKind::IntAlu.is_mem());
        assert!(UopKind::CheckCombined.is_lock_access());
    }

    #[test]
    fn all_is_in_discriminant_order_and_exhaustive() {
        for (i, k) in UopKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i, "{k:?} out of discriminant order");
        }
        // Exhaustiveness guard: fails to compile when a variant is added
        // without extending `ALL` (the match below must stay total).
        const fn covered(k: UopKind) -> bool {
            match k {
                UopKind::IntAlu
                | UopKind::IntMul
                | UopKind::IntDiv
                | UopKind::FpAlu
                | UopKind::FpMul
                | UopKind::FpDiv
                | UopKind::Branch
                | UopKind::Load
                | UopKind::Store
                | UopKind::ShadowLoad
                | UopKind::ShadowStore
                | UopKind::LockLoad
                | UopKind::LockStore
                | UopKind::Check
                | UopKind::BoundsCheck
                | UopKind::CheckCombined
                | UopKind::SelectMeta
                | UopKind::Nop => true,
            }
        }
        assert!(UopKind::ALL.iter().all(|&k| covered(k)));
    }

    #[test]
    fn tag_overhead() {
        assert!(!UopTag::Base.is_overhead());
        for t in [
            UopTag::Check,
            UopTag::PtrLoad,
            UopTag::PtrStore,
            UopTag::Propagate,
            UopTag::AllocDealloc,
        ] {
            assert!(t.is_overhead());
        }
    }

    #[test]
    fn uopvec_push_and_iterate() {
        let mut v = UopVec::new();
        assert!(v.is_empty());
        for i in 0..5u8 {
            v.push_uop(Uop::base(
                UopKind::IntAlu,
                Some(LReg::G(Gpr::new(i))),
                None,
                None,
            ));
        }
        assert_eq!(v.len(), 5);
        let dsts: Vec<_> = v.iter().map(|u| u.uop.dst.unwrap()).collect();
        assert_eq!(dsts[3], LReg::G(Gpr::new(3)));
    }

    #[test]
    #[should_panic(expected = "µop expansion overflow")]
    fn uopvec_overflow_panics() {
        let mut v = UopVec::new();
        for _ in 0..=MAX_UOPS {
            v.push_uop(Uop::base(UopKind::Nop, None, None, None));
        }
    }

    #[test]
    fn clone_from_compact_matches_a_full_copy() {
        let mut v = UopVec::new();
        for i in 0..7u8 {
            v.push_uop(Uop::base(
                UopKind::IntAlu,
                Some(LReg::G(Gpr::new(i))),
                None,
                None,
            ));
        }
        // A stale, longer destination: the compact copy must shrink it.
        let mut dst = UopVec::new();
        for _ in 0..MAX_UOPS {
            dst.push_uop(Uop::base(UopKind::Nop, None, None, None));
        }
        dst.clone_from_compact(&v);
        assert_eq!(dst.len(), v.len());
        assert_eq!(dst.as_slice(), v.as_slice());
    }

    #[test]
    fn retain_filters_in_place() {
        let mut v = UopVec::new();
        v.push_uop(Uop::base(UopKind::IntAlu, None, None, None));
        v.push_uop(Uop::new(
            UopKind::SelectMeta,
            None,
            None,
            None,
            UopTag::Propagate,
        ));
        v.push_uop(Uop::base(UopKind::Load, None, None, None));
        v.retain(|u| u.uop.kind != UopKind::SelectMeta);
        let kinds: Vec<_> = v.iter().map(|u| u.uop.kind).collect();
        assert_eq!(kinds, vec![UopKind::IntAlu, UopKind::Load]);
    }

    #[test]
    fn insert_front_shifts_the_prefix() {
        let mut v = UopVec::new();
        v.push_uop(Uop::base(UopKind::Load, None, None, None));
        v.push_uop(Uop::base(UopKind::Store, None, None, None));
        v.insert_front(UopExec::plain(Uop::new(
            UopKind::Check,
            None,
            None,
            None,
            UopTag::Check,
        )));
        let kinds: Vec<_> = v.iter().map(|u| u.uop.kind).collect();
        assert_eq!(kinds, vec![UopKind::Check, UopKind::Load, UopKind::Store]);
    }

    #[test]
    fn display_formats() {
        let u = Uop::base(
            UopKind::IntAlu,
            Some(LReg::G(Gpr::new(1))),
            Some(LReg::G(Gpr::new(2))),
            Some(LReg::G(Gpr::new(3))),
        );
        assert_eq!(u.to_string(), "IntAlu r1 <- r2, r3");
    }
}
