//! The batched µop-event buffer feeding [`TimingCore`](crate::TimingCore).
//!
//! [`UopBatch`] is a structure-of-arrays staging buffer for a window of
//! committed instructions: per-instruction arrays (pc, length, rename-stage
//! metadata effect, control class, branch outcome, µop range) plus
//! per-µop parallel arrays (opcode class, operands, accounting tag,
//! memory-access class and resolved address). Both µop producers fill it
//! through one shared routine, [`UopBatch::push_expansion`] — the live
//! machine's batched step appends each committed expansion directly, and
//! the trace replayer appends decoded events, neither materializing an
//! intermediate [`CrackedInst`] — and
//! [`TimingCore::consume_batch`](crate::TimingCore::consume_batch) drains
//! it.
//!
//! The SoA split follows what the drain pass actually touches: the
//! scheduler streams the packed 8-byte static [`Uop`] descriptors (whose
//! five fields it consumes together) and reads the `mem`/`addr` arrays
//! only for memory µops — it never drags a 40-byte
//! [`UopExec`](watchdog_isa::uop::UopExec) with its resolved address and
//! branch facts through the cache. The batch carries *no* timing state;
//! feeding one instruction per batch is exactly equivalent to feeding
//! sixty-four (asserted by the batch properties).

use watchdog_isa::crack::{CommitFacts, Cracked, CrackedInst, CtrlKind, MetaEffect, KIND_DESCS};
use watchdog_isa::uop::{Uop, UopKind, UopTag};
use watchdog_mem::AccessClass;

/// Memory behaviour of a µop, precomputed at batch-fill time so the
/// consume loop never re-derives class or direction from [`UopKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOp {
    /// Not a memory µop.
    None,
    /// Memory read of the given class.
    Read(AccessClass),
    /// Memory write of the given class.
    Write(AccessClass),
}

impl MemOp {
    /// Classifies a µop kind (mirrors the routing
    /// [`TimingCore::consume_batch`](crate::TimingCore::consume_batch)
    /// applies).
    ///
    /// Derived from the cracker's dense
    /// [`KIND_DESCS`] descriptor table
    /// rather than a second hand-written `match`, so the batch and the
    /// cracker classify by construction from one source; the batch tests
    /// pin the result against the `UopKind::is_*` reference classifiers
    /// for every kind.
    pub const fn of(kind: UopKind) -> MemOp {
        let d = KIND_DESCS[kind as usize];
        if !d.mem {
            return MemOp::None;
        }
        let class = if d.lock_access {
            AccessClass::Lock
        } else if d.shadow_access {
            AccessClass::Shadow
        } else {
            AccessClass::Data
        };
        if d.mem_write {
            MemOp::Write(class)
        } else {
            MemOp::Read(class)
        }
    }
}

/// Batch-feed statistics of a [`TimingCore`](crate::TimingCore):
/// how the committed µop stream arrived, not what it cost — these counters
/// are deliberately **not** part of
/// [`TimingReport`](crate::TimingReport), which must stay field-identical
/// however the stream is batched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeedStats {
    /// Non-empty batches consumed.
    pub batches: u64,
    /// Instructions delivered across all batches.
    pub insts: u64,
    /// µops delivered across all batches.
    pub uops: u64,
}

impl FeedStats {
    /// Mean instructions per batch.
    pub fn mean_occupancy(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.insts as f64 / self.batches as f64
        }
    }

    /// Batches per 1000 delivered instructions.
    pub fn batches_per_kinst(&self) -> f64 {
        if self.insts == 0 {
            0.0
        } else {
            self.batches as f64 * 1000.0 / self.insts as f64
        }
    }

    /// Exports the feed counters and the derived occupancy ratios under
    /// the stable `feed.*` namespace — the single source both
    /// `watchdog-cli run --telemetry` and the `--json` export render from.
    pub fn export_into(&self, reg: &mut watchdog_telemetry::MetricsRegistry) {
        use watchdog_telemetry::Unit;
        reg.counter_at("feed.batches", Unit::Count, self.batches);
        reg.counter_at("feed.insts", Unit::Count, self.insts);
        reg.counter_at("feed.uops", Unit::Count, self.uops);
        reg.gauge_at("feed.occupancy.mean", Unit::Count, self.mean_occupancy());
        reg.gauge_at(
            "feed.batches_per_kinst",
            Unit::PerKilo,
            self.batches_per_kinst(),
        );
    }
}

/// One committed instruction's per-instruction facts in the batch: the
/// packed counterpart of a [`CrackedInst`] header, one `Vec` push per
/// commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstEvent {
    /// Byte address of the macro-instruction.
    pub pc: u64,
    /// Branch target byte address (meaningful for taken control insts).
    pub target: u64,
    /// Start of the instruction's µop range (its end is the next event's
    /// start, or the batch's total µop count for the last event).
    pub uop_start: u32,
    /// Encoded length in bytes.
    pub len: u8,
    /// Branch direction (meaningful for control insts).
    pub taken: bool,
    /// Control-flow class.
    pub ctrl: CtrlKind,
    /// Rename-stage metadata effect.
    pub meta: MetaEffect,
}

/// A structure-of-arrays window of committed instructions and their µops.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UopBatch {
    /// Per-instruction event records.
    inst: Vec<InstEvent>,
    // Per-µop parallel arrays: the packed static descriptor (opcode class,
    // operands, accounting tag — consumed together by the scheduler), the
    // precomputed memory behaviour and the resolved address (consumed
    // together by the memory pre-pass).
    uop: Vec<Uop>,
    mem: Vec<MemOp>,
    addr: Vec<u64>,
}

impl UopBatch {
    /// Default fill target of the producers: enough to amortize the batch
    /// machinery, small enough that the staging arrays stay cache-resident.
    pub const TARGET_INSTS: usize = 64;

    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty batch preallocated for `insts` instructions of worst-case
    /// µop expansion ([`MAX_UOPS`](watchdog_isa::uop::MAX_UOPS) plus the
    /// location-check insertion), so steady-state fills never grow the
    /// arrays — part of the timed loop's zero-allocation discipline.
    pub fn with_capacity(insts: usize) -> Self {
        let uops = insts * (watchdog_isa::uop::MAX_UOPS + 1);
        UopBatch {
            inst: Vec::with_capacity(insts),
            uop: Vec::with_capacity(uops),
            mem: Vec::with_capacity(uops),
            addr: Vec::with_capacity(uops),
        }
    }

    /// Drops all staged instructions (capacity is retained).
    pub fn clear(&mut self) {
        self.inst.clear();
        self.uop.clear();
        self.mem.clear();
        self.addr.clear();
    }

    /// Number of staged instructions.
    pub fn len(&self) -> usize {
        self.inst.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.inst.is_empty()
    }

    /// Number of staged µops.
    pub fn uops(&self) -> usize {
        self.uop.len()
    }

    /// Opens a new instruction. µops follow via [`UopBatch::push_uop`];
    /// control instructions must set their outcome with
    /// [`UopBatch::set_branch`].
    pub fn begin_inst(&mut self, pc: u64, len: u8, meta: MetaEffect, ctrl: CtrlKind) {
        self.inst.push(InstEvent {
            pc,
            target: 0,
            uop_start: self.uop.len() as u32,
            len,
            taken: false,
            ctrl,
            meta,
        });
    }

    /// Appends one µop to the instruction opened last.
    ///
    /// # Panics
    ///
    /// Panics when a memory µop arrives without a resolved address — an
    /// internal bug in the producer.
    pub fn push_uop(&mut self, uop: Uop, addr: Option<u64>) {
        let mem = MemOp::of(uop.kind);
        let addr = if mem == MemOp::None {
            addr.unwrap_or(0)
        } else {
            addr.expect("memory µop without address")
        };
        self.uop.push(uop);
        self.mem.push(mem);
        self.addr.push(addr);
    }

    /// Records the branch outcome of the instruction opened last.
    pub fn set_branch(&mut self, taken: bool, target: u64) {
        let last = self.inst.last_mut().expect("begin_inst opens first");
        last.taken = taken;
        last.target = target;
    }

    /// Copies one assembled [`CrackedInst`] into the batch — the fill path
    /// for callers holding a pre-assembled committed stream (benchmarks,
    /// tests).
    pub fn push_cracked(&mut self, inst: &CrackedInst) {
        self.begin_inst(inst.pc, inst.len, inst.meta, inst.ctrl);
        for u in inst.uops.iter() {
            self.push_uop(u.uop, u.addr);
        }
        if inst.ctrl != CtrlKind::None {
            let last = inst.uops.as_slice().last().expect("control inst has µops");
            self.set_branch(last.taken, last.target);
        }
    }

    /// Appends one committed instruction from its cached static expansion
    /// and dynamic [`CommitFacts`] — the batch-fill twin of
    /// [`assemble_cracked`](watchdog_isa::crack::assemble_cracked()),
    /// applying the same transformations (select-fold µop drop, §2.1
    /// location-check front insertion, in-order memory-address fill,
    /// branch facts on the trailing µop) straight to the SoA arrays, with
    /// no intermediate [`CrackedInst`]. **Both** producers go through
    /// here — the live machine's µop-emitting step and the trace
    /// replayer — so their batch contents are equal by construction.
    ///
    /// # Panics
    ///
    /// Panics if the facts disagree with the expansion's shape (memory
    /// address count, missing branch outcome), exactly as
    /// `assemble_cracked` does.
    pub fn push_expansion(&mut self, stat: &Cracked, facts: &CommitFacts<'_>) {
        let fold = facts.select_fold.is_some();
        let meta = facts.select_fold.unwrap_or(stat.meta);
        self.begin_inst(facts.pc, facts.len, meta, stat.ctrl);
        let mut addrs = facts.mem_addrs.iter();
        if facts.location_check {
            // Location-based checking: one allocation-status check µop per
            // memory access (§2.1 hardware, e.g. MemTracker).
            self.push_uop(
                Uop::new(UopKind::Check, None, None, None, UopTag::Check),
                Some(*addrs.next().expect("fewer addresses than memory µops")),
            );
        }
        for u in stat.uops.iter() {
            if fold && u.uop.kind == UopKind::SelectMeta {
                // Folded into the rename-stage effect; no µop issues.
                continue;
            }
            let addr = if u.uop.kind.is_mem() {
                Some(*addrs.next().expect("fewer addresses than memory µops"))
            } else {
                None
            };
            self.push_uop(u.uop, addr);
        }
        assert!(addrs.next().is_none(), "more addresses than memory µops");
        if stat.ctrl != CtrlKind::None {
            let (taken, target) = facts.branch.expect("control instruction resolved");
            self.set_branch(taken, target);
        }
    }

    /// µop index range of instruction `i`.
    pub fn uop_range(&self, i: usize) -> std::ops::Range<usize> {
        let start = self.inst[i].uop_start as usize;
        let end = match self.inst.get(i + 1) {
            Some(next) => next.uop_start as usize,
            None => self.uop.len(),
        };
        start..end
    }

    /// Per-instruction event records.
    pub fn insts(&self) -> &[InstEvent] {
        &self.inst
    }

    /// Per-µop packed static descriptors (opcode class, operands, tag).
    pub fn uop_descs(&self) -> &[Uop] {
        &self.uop
    }

    /// Per-µop memory behaviour.
    pub fn mems(&self) -> &[MemOp] {
        &self.mem
    }

    /// Per-µop resolved addresses (meaningful where
    /// [`UopBatch::mems`] is not [`MemOp::None`]; these are the timing
    /// model's LL$ probe keys for lock-class entries).
    pub fn addrs(&self) -> &[u64] {
        &self.addr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use watchdog_isa::crack::{crack, CrackConfig};
    use watchdog_isa::insn::{Inst, MemAddr, PtrHint, Width};
    use watchdog_isa::reg::LReg;
    use watchdog_isa::Gpr;

    fn cracked_load() -> CrackedInst {
        let inst = Inst::Load {
            dst: Gpr::new(0),
            addr: MemAddr::base(Gpr::new(1)),
            width: Width::B8,
            hint: PtrHint::Auto,
        };
        let c = crack(&inst, true, &CrackConfig::watchdog());
        let mut uops = c.uops;
        watchdog_isa::crack::fill_mem_addrs(&mut uops, &[0x5000_0000, 0x2000_0000, 0x4000_0000]);
        CrackedInst {
            pc: 0x40_0000,
            len: inst.encoded_len(),
            uops,
            meta: c.meta,
            ctrl: c.ctrl,
        }
    }

    #[test]
    fn push_cracked_preserves_stream_shape() {
        let ci = cracked_load();
        let mut b = UopBatch::new();
        b.push_cracked(&ci);
        b.push_cracked(&ci);
        assert_eq!(b.len(), 2);
        assert_eq!(b.uops(), 2 * ci.uops.len());
        assert_eq!(b.uop_range(0), 0..3);
        assert_eq!(b.uop_range(1), 3..6);
        let kinds: Vec<UopKind> = b.uop_descs()[..3].iter().map(|u| u.kind).collect();
        assert_eq!(kinds, [UopKind::Check, UopKind::Load, UopKind::ShadowLoad]);
        assert_eq!(
            b.mems()[..3],
            [
                MemOp::Read(AccessClass::Lock),
                MemOp::Read(AccessClass::Data),
                MemOp::Read(AccessClass::Shadow)
            ]
        );
        assert_eq!(b.addrs()[..3], [0x5000_0000, 0x2000_0000, 0x4000_0000]);
        assert_eq!(b.insts()[0].ctrl, CtrlKind::None);
        assert_eq!(b.insts()[1].uop_start, 3);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.uops(), 0);
    }

    #[test]
    fn mem_op_classification_matches_uop_kind() {
        for kind in [
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
        ] {
            let m = MemOp::of(kind);
            assert_eq!(m != MemOp::None, kind.is_mem(), "{kind:?}");
            assert_eq!(
                matches!(m, MemOp::Write(_)),
                kind.is_mem_write(),
                "{kind:?}"
            );
            if let MemOp::Read(c) | MemOp::Write(c) = m {
                assert_eq!(c == AccessClass::Lock, kind.is_lock_access(), "{kind:?}");
                assert_eq!(
                    c == AccessClass::Shadow,
                    kind.is_shadow_access(),
                    "{kind:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "memory µop without address")]
    fn mem_uop_without_address_panics() {
        let mut b = UopBatch::new();
        b.begin_inst(0, 4, MetaEffect::None, CtrlKind::None);
        b.push_uop(
            Uop::base(UopKind::Load, None, Some(LReg::G(Gpr::new(1))), None),
            None,
        );
    }

    #[test]
    fn feed_stats_ratios() {
        let f = FeedStats {
            batches: 4,
            insts: 256,
            uops: 512,
        };
        assert_eq!(f.mean_occupancy(), 64.0);
        assert_eq!(f.batches_per_kinst(), 4000.0 / 256.0);
        assert_eq!(FeedStats::default().mean_occupancy(), 0.0);
        assert_eq!(FeedStats::default().batches_per_kinst(), 0.0);
    }
}
