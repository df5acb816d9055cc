//! The decoder/cracker: macro-instruction → µop expansion with Watchdog
//! µop injection.
//!
//! This module reproduces Figures 2 and 3 of the paper:
//!
//! * every load/store gets a `check` µop (Fig. 2a/2b);
//! * loads/stores classified as *pointer operations* additionally get a
//!   `shadow_load`/`shadow_store` µop;
//! * pointer arithmetic with two register sources gets a `select` µop, while
//!   single-source copies are handled at rename via [`MetaEffect`] (§6.2 —
//!   copy elimination, no µop emitted);
//! * `call`/`ret` get the four stack-frame identifier µops (Fig. 3c/3d);
//! * `malloc`/`free` expand to the representative runtime sequence,
//!   including the lock-location store and `setident` under Watchdog
//!   (Fig. 3a/3b);
//! * under the bounds extension (§8) the check is either fused
//!   ([`UopKind::CheckCombined`]) or split into `check` + `bounds_check`
//!   ([`BoundsUops`]).

use crate::insn::Inst;
use crate::reg::{Gpr, LReg};
use crate::uop::{Uop, UopExec, UopKind, UopTag, UopVec};

/// How the bounds extension injects its check (§8).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum BoundsUops {
    /// One combined µop performs identifier and bounds checking.
    Fused,
    /// A separate `bounds_check` µop is injected next to the identifier
    /// check.
    Split,
}

/// Static cracking configuration.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CrackConfig {
    /// Whether Watchdog µop injection is active at all.
    pub watchdog: bool,
    /// Bounds-checking extension mode (requires `watchdog`).
    pub bounds: Option<BoundsUops>,
}

impl CrackConfig {
    /// Unmodified baseline: no injected µops.
    pub const fn baseline() -> Self {
        CrackConfig {
            watchdog: false,
            bounds: None,
        }
    }

    /// Use-after-free checking only (the paper's primary configuration).
    pub const fn watchdog() -> Self {
        CrackConfig {
            watchdog: true,
            bounds: None,
        }
    }

    /// Full memory safety: use-after-free + bounds checking.
    pub const fn with_bounds(mode: BoundsUops) -> Self {
        CrackConfig {
            watchdog: true,
            bounds: Some(mode),
        }
    }
}

/// Register-metadata effect handled entirely in the rename stage (§6.2).
///
/// These are the cases where Watchdog does *not* insert a µop: unambiguous
/// metadata copies and metadata invalidations are performed by remapping the
/// metadata entry of the destination register in the map table.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MetaEffect {
    /// Metadata mapping unchanged / produced by an emitted µop.
    None,
    /// Destination's metadata mapping becomes a second reference to the
    /// source's metadata physical register (copy elimination).
    Copy {
        /// Register whose metadata mapping is overwritten.
        dst: Gpr,
        /// Register whose metadata physical register is shared.
        src: Gpr,
    },
    /// Destination's metadata mapping points at the always-invalid physical
    /// register (the instruction can never produce a valid pointer).
    Invalidate(Gpr),
    /// Destination's metadata mapping points at the global-identifier
    /// physical register (PC-relative addressing, §7).
    Global(Gpr),
}

/// Control-flow class of a macro-instruction, used by the branch predictor
/// (direct branches use the PPM tables, calls/returns use the RAS).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CtrlKind {
    /// Not a control-flow instruction.
    None,
    /// Conditional branch.
    CondBranch,
    /// Unconditional direct jump.
    Jump,
    /// Call (pushes the return-address stack).
    Call,
    /// Return (pops the return-address stack).
    Ret,
}

/// Result of cracking one macro-instruction.
#[derive(Clone, Debug)]
pub struct Cracked {
    /// The µop expansion, in program order.
    pub uops: UopVec,
    /// The rename-stage metadata effect.
    pub meta: MetaEffect,
    /// Control-flow class.
    pub ctrl: CtrlKind,
}

/// A cracked instruction with its dynamic execution facts, as handed to the
/// timing model.
#[derive(Clone, Debug)]
pub struct CrackedInst {
    /// Byte address of the macro-instruction.
    pub pc: u64,
    /// Encoded length in bytes.
    pub len: u8,
    /// µops with resolved addresses / branch outcomes.
    pub uops: UopVec,
    /// Rename-stage metadata effect.
    pub meta: MetaEffect,
    /// Control-flow class.
    pub ctrl: CtrlKind,
}

impl CrackedInst {
    /// An empty expansion (no µops, no control flow). The machine keeps one
    /// of these as its per-step scratch and refills it with a length-aware
    /// copy of the cached static expansion, so the ~1KB fixed-capacity µop
    /// array is never bulk-copied per step.
    pub fn empty() -> Self {
        CrackedInst {
            pc: 0,
            len: 0,
            uops: UopVec::new(),
            meta: MetaEffect::None,
            ctrl: CtrlKind::None,
        }
    }
}

/// Number of µops the *baseline* expansion of `inst` contains (used for
/// µop-overhead accounting, Fig. 8).
pub fn baseline_uop_count(inst: &Inst) -> usize {
    crack(inst, false, &CrackConfig::baseline()).uops.len()
}

/// Fills the resolved addresses of the memory µops in `uops`, in program
/// order, from `addrs`.
///
/// # Panics
///
/// Panics if the number of memory µops does not equal `addrs.len()` — that
/// indicates the functional machine and the cracker disagree about an
/// instruction's memory behaviour (an internal bug).
pub fn fill_mem_addrs(uops: &mut UopVec, addrs: &[u64]) {
    let mut it = addrs.iter();
    for u in uops.as_mut_slice() {
        if u.uop.kind.is_mem() {
            let a = it.next().expect("fewer addresses than memory µops");
            u.addr = Some(*a);
        }
    }
    assert!(it.next().is_none(), "more addresses than memory µops");
}

/// Dynamic per-commit facts needed to turn a static [`Cracked`] expansion
/// into the exact [`CrackedInst`] the timing model consumes.
///
/// The functional machine produces one of these per executed instruction;
/// the trace replayer decodes the same facts from a recorded event stream.
/// Both feed [`assemble_cracked`], so a replayed µop stream is equal to the
/// live one *by construction*, not by parallel re-implementation.
#[derive(Debug, Clone, Copy)]
pub struct CommitFacts<'a> {
    /// Byte address of the macro-instruction.
    pub pc: u64,
    /// Encoded length in bytes.
    pub len: u8,
    /// Rename-stage select folding: `Some(effect)` drops the `select` µop
    /// and replaces the expansion's [`MetaEffect`] (§6.2 — both inputs'
    /// metadata mappings were trivially invalid at execution time).
    pub select_fold: Option<MetaEffect>,
    /// Insert the §2.1 location-based allocation-status check µop in front
    /// (location-based checking mode, memory instructions only).
    pub location_check: bool,
    /// Resolved addresses of the memory µops, in µop program order.
    pub mem_addrs: &'a [u64],
    /// Branch outcome `(taken, target byte address)`; required exactly when
    /// the expansion is a control instruction.
    pub branch: Option<(bool, u64)>,
}

/// Assembles the full [`CrackedInst`] for one committed instruction into
/// `cur` (in place — the fixed-capacity µop tail is never bulk-copied) from
/// its cached static expansion and the dynamic [`CommitFacts`].
///
/// # Panics
///
/// Panics if the facts disagree with the expansion's shape: a missing
/// branch outcome on a control instruction, or a memory-address count that
/// does not match the expansion's memory µops (see [`fill_mem_addrs`]).
/// Both indicate an internal bug — or, on the replay path, a corrupt trace
/// (the replayer validates the shape before calling this).
pub fn assemble_cracked(cur: &mut CrackedInst, stat: &Cracked, facts: &CommitFacts<'_>) {
    cur.uops.clone_from_compact(&stat.uops);
    cur.meta = stat.meta;
    cur.ctrl = stat.ctrl;
    cur.pc = facts.pc;
    cur.len = facts.len;
    if let Some(effect) = facts.select_fold {
        // Drop the select µop; the rename stage handles the effect.
        cur.uops.retain(|u| u.uop.kind != UopKind::SelectMeta);
        cur.meta = effect;
    }
    if facts.location_check {
        // Location-based checking: one allocation-status check µop per
        // memory access (§2.1 hardware, e.g. MemTracker).
        cur.uops.insert_front(UopExec::plain(Uop::new(
            UopKind::Check,
            None,
            None,
            None,
            UopTag::Check,
        )));
    }
    fill_mem_addrs(&mut cur.uops, facts.mem_addrs);
    if cur.ctrl != CtrlKind::None {
        let n = cur.uops.len();
        let (taken, target) = facts.branch.expect("control instruction resolved");
        let last = &mut cur.uops.as_mut_slice()[n - 1];
        last.taken = taken;
        last.target = target;
    }
}

/// Static memory-shape descriptor of one [`UopKind`]: the bits the batch
/// fill classifies memory µops by (`MemOp::of` in the pipeline crate).
///
/// The bits are definitionally redundant with the `UopKind::is_*`
/// classifier functions — that is the point: the fill path reads one dense
/// table entry (`KIND_DESCS[kind as usize]`) instead of re-deriving the
/// same facts through a chain of `matches!` tests, and an exhaustive test
/// pins the table to the classifiers for every kind.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct KindDesc {
    /// Accesses memory (needs a resolved address and a cache port).
    pub mem: bool,
    /// Writes memory (store-shaped dispatch; reads are load-shaped).
    pub mem_write: bool,
    /// Accesses a lock location (routes to the lock-location cache).
    pub lock_access: bool,
    /// Accesses the shadow metadata space.
    pub shadow_access: bool,
}

/// Builds the descriptor of one µop kind. `const` so the dense table is
/// computed at compile time.
pub const fn kind_desc(kind: UopKind) -> KindDesc {
    KindDesc {
        mem: kind.is_mem(),
        mem_write: kind.is_mem_write(),
        lock_access: kind.is_lock_access(),
        shadow_access: kind.is_shadow_access(),
    }
}

/// Dense memory-shape descriptor table, indexed by `kind as usize` (the
/// ordering guaranteed by [`UopKind::ALL`]). Generated from
/// [`kind_desc`] at compile time next to the µop assembly code it
/// describes, so the cracker and the batch fill agree by construction.
pub const KIND_DESCS: [KindDesc; UopKind::COUNT] = {
    let mut table = [kind_desc(UopKind::Nop); UopKind::COUNT];
    let mut i = 0;
    while i < UopKind::COUNT {
        table[i] = kind_desc(UopKind::ALL[i]);
        i += 1;
    }
    table
};

/// Cracks one macro-instruction.
///
/// `ptr_op` says whether the active pointer-identification policy classified
/// this (load/store) instruction as a pointer operation; it is ignored for
/// non-memory instructions.
pub fn crack(inst: &Inst, ptr_op: bool, cfg: &CrackConfig) -> Cracked {
    let mut u = UopVec::new();
    let mut meta = MetaEffect::None;
    let mut ctrl = CtrlKind::None;
    let wd = cfg.watchdog;

    // Emits the check µop(s) guarding a memory access on `base`.
    let push_check = |u: &mut UopVec, base: Gpr| match cfg.bounds {
        None => {
            u.push_uop(Uop::new(
                UopKind::Check,
                None,
                Some(LReg::M(base)),
                None,
                UopTag::Check,
            ));
        }
        Some(BoundsUops::Fused) => {
            u.push_uop(Uop::new(
                UopKind::CheckCombined,
                None,
                Some(LReg::M(base)),
                Some(LReg::G(base)),
                UopTag::Check,
            ));
        }
        Some(BoundsUops::Split) => {
            u.push_uop(Uop::new(
                UopKind::Check,
                None,
                Some(LReg::M(base)),
                None,
                UopTag::Check,
            ));
            u.push_uop(Uop::new(
                UopKind::BoundsCheck,
                None,
                Some(LReg::M(base)),
                Some(LReg::G(base)),
                UopTag::Check,
            ));
        }
    };

    match *inst {
        Inst::Nop | Inst::Halt => {
            u.push_uop(Uop::base(UopKind::Nop, None, None, None));
        }
        Inst::MovImm { dst, .. } => {
            u.push_uop(Uop::base(UopKind::IntAlu, Some(LReg::G(dst)), None, None));
            meta = MetaEffect::Invalidate(dst);
        }
        Inst::Mov { dst, src } => {
            u.push_uop(Uop::base(
                UopKind::IntAlu,
                Some(LReg::G(dst)),
                Some(LReg::G(src)),
                None,
            ));
            meta = MetaEffect::Copy { dst, src };
        }
        Inst::Alu { op, dst, a, b } => {
            let kind = if op == crate::insn::AluOp::Mul {
                UopKind::IntMul
            } else if op.is_long_latency() {
                UopKind::IntDiv
            } else {
                UopKind::IntAlu
            };
            u.push_uop(Uop::base(
                kind,
                Some(LReg::G(dst)),
                Some(LReg::G(a)),
                Some(LReg::G(b)),
            ));
            if op.is_long_latency() {
                // Divide/multiply results are never valid pointers (§6.2).
                meta = MetaEffect::Invalidate(dst);
            } else if wd {
                // Either source may be the pointer: inject a select µop.
                u.push_uop(Uop::new(
                    UopKind::SelectMeta,
                    Some(LReg::M(dst)),
                    Some(LReg::M(a)),
                    Some(LReg::M(b)),
                    UopTag::Propagate,
                ));
            }
        }
        Inst::AluImm { op, dst, a, .. } => {
            let kind = if op == crate::insn::AluOp::Mul {
                UopKind::IntMul
            } else if op.is_long_latency() {
                UopKind::IntDiv
            } else {
                UopKind::IntAlu
            };
            u.push_uop(Uop::base(kind, Some(LReg::G(dst)), Some(LReg::G(a)), None));
            meta = if op.is_long_latency() {
                MetaEffect::Invalidate(dst)
            } else {
                // "Add immediate" unambiguously copies the metadata
                // (Fig. 2c) — eliminated at rename.
                MetaEffect::Copy { dst, src: a }
            };
        }
        Inst::Lea { dst, addr } => {
            u.push_uop(Uop::base(
                UopKind::IntAlu,
                Some(LReg::G(dst)),
                Some(LReg::G(addr.base)),
                None,
            ));
            meta = MetaEffect::Copy {
                dst,
                src: addr.base,
            };
        }
        Inst::LeaGlobal { dst, .. } => {
            u.push_uop(Uop::base(UopKind::IntAlu, Some(LReg::G(dst)), None, None));
            meta = MetaEffect::Global(dst);
        }
        Inst::Load { dst, addr, .. } => {
            if wd {
                push_check(&mut u, addr.base);
            }
            u.push_uop(Uop::base(
                UopKind::Load,
                Some(LReg::G(dst)),
                Some(LReg::G(addr.base)),
                None,
            ));
            if wd && ptr_op {
                u.push_uop(Uop::new(
                    UopKind::ShadowLoad,
                    Some(LReg::M(dst)),
                    Some(LReg::G(addr.base)),
                    None,
                    UopTag::PtrLoad,
                ));
            } else if wd {
                meta = MetaEffect::Invalidate(dst);
            }
        }
        Inst::Store { src, addr, .. } => {
            if wd {
                push_check(&mut u, addr.base);
            }
            u.push_uop(Uop::base(
                UopKind::Store,
                None,
                Some(LReg::G(src)),
                Some(LReg::G(addr.base)),
            ));
            if wd && ptr_op {
                u.push_uop(Uop::new(
                    UopKind::ShadowStore,
                    None,
                    Some(LReg::M(src)),
                    Some(LReg::G(addr.base)),
                    UopTag::PtrStore,
                ));
            }
        }
        Inst::LoadFp { dst, addr, .. } => {
            if wd {
                push_check(&mut u, addr.base);
            }
            u.push_uop(Uop::base(
                UopKind::Load,
                Some(LReg::F(dst)),
                Some(LReg::G(addr.base)),
                None,
            ));
        }
        Inst::StoreFp { src, addr, .. } => {
            if wd {
                push_check(&mut u, addr.base);
            }
            u.push_uop(Uop::base(
                UopKind::Store,
                None,
                Some(LReg::F(src)),
                Some(LReg::G(addr.base)),
            ));
        }
        Inst::FpAlu { op, dst, a, b } => {
            let kind = match op {
                crate::insn::FpOp::Mul => UopKind::FpMul,
                crate::insn::FpOp::Div => UopKind::FpDiv,
                _ => UopKind::FpAlu,
            };
            u.push_uop(Uop::base(
                kind,
                Some(LReg::F(dst)),
                Some(LReg::F(a)),
                Some(LReg::F(b)),
            ));
        }
        Inst::FpMovImm { dst, .. } => {
            u.push_uop(Uop::base(UopKind::FpAlu, Some(LReg::F(dst)), None, None));
        }
        Inst::FpMov { dst, src } => {
            u.push_uop(Uop::base(
                UopKind::FpAlu,
                Some(LReg::F(dst)),
                Some(LReg::F(src)),
                None,
            ));
        }
        Inst::IntToFp { dst, src } => {
            u.push_uop(Uop::base(
                UopKind::FpAlu,
                Some(LReg::F(dst)),
                Some(LReg::G(src)),
                None,
            ));
        }
        Inst::FpToInt { dst, src } => {
            u.push_uop(Uop::base(
                UopKind::FpAlu,
                Some(LReg::G(dst)),
                Some(LReg::F(src)),
                None,
            ));
            meta = MetaEffect::Invalidate(dst);
        }
        Inst::Branch { a, b, .. } => {
            u.push_uop(Uop::base(
                UopKind::Branch,
                None,
                Some(LReg::G(a)),
                Some(LReg::G(b)),
            ));
            ctrl = CtrlKind::CondBranch;
        }
        Inst::Jump { .. } => {
            u.push_uop(Uop::base(UopKind::Branch, None, None, None));
            ctrl = CtrlKind::Jump;
        }
        Inst::Call { .. } => {
            ctrl = CtrlKind::Call;
            let rsp = Gpr::RSP;
            // rsp -= 8 ; mem[rsp] = return address
            u.push_uop(Uop::base(
                UopKind::IntAlu,
                Some(LReg::G(rsp)),
                Some(LReg::G(rsp)),
                None,
            ));
            u.push_uop(Uop::base(UopKind::Store, None, None, Some(LReg::G(rsp))));
            if wd {
                // Fig. 3c: stack_key += 1 ; stack_lock += 8 ;
                // mem[stack_lock] = stack_key ; rsp.id = (key, lock).
                u.push_uop(Uop::new(
                    UopKind::IntAlu,
                    Some(LReg::StackKey),
                    Some(LReg::StackKey),
                    None,
                    UopTag::AllocDealloc,
                ));
                u.push_uop(Uop::new(
                    UopKind::IntAlu,
                    Some(LReg::StackLock),
                    Some(LReg::StackLock),
                    None,
                    UopTag::AllocDealloc,
                ));
                u.push_uop(Uop::new(
                    UopKind::LockStore,
                    None,
                    Some(LReg::StackKey),
                    Some(LReg::StackLock),
                    UopTag::AllocDealloc,
                ));
                u.push_uop(Uop::new(
                    UopKind::IntAlu,
                    Some(LReg::M(rsp)),
                    Some(LReg::StackKey),
                    Some(LReg::StackLock),
                    UopTag::AllocDealloc,
                ));
            }
            u.push_uop(Uop::base(UopKind::Branch, None, None, None));
        }
        Inst::Ret => {
            ctrl = CtrlKind::Ret;
            let rsp = Gpr::RSP;
            // t0 = mem[rsp] ; rsp += 8
            u.push_uop(Uop::base(
                UopKind::Load,
                Some(LReg::T(0)),
                Some(LReg::G(rsp)),
                None,
            ));
            u.push_uop(Uop::base(
                UopKind::IntAlu,
                Some(LReg::G(rsp)),
                Some(LReg::G(rsp)),
                None,
            ));
            if wd {
                // Fig. 3d: mem[stack_lock] = INVALID ; stack_lock -= 8 ;
                // current_key = mem[stack_lock] ; rsp.id = (key, lock).
                u.push_uop(Uop::new(
                    UopKind::LockStore,
                    None,
                    None,
                    Some(LReg::StackLock),
                    UopTag::AllocDealloc,
                ));
                u.push_uop(Uop::new(
                    UopKind::IntAlu,
                    Some(LReg::StackLock),
                    Some(LReg::StackLock),
                    None,
                    UopTag::AllocDealloc,
                ));
                u.push_uop(Uop::new(
                    UopKind::LockLoad,
                    Some(LReg::StackKey),
                    Some(LReg::StackLock),
                    None,
                    UopTag::AllocDealloc,
                ));
                u.push_uop(Uop::new(
                    UopKind::IntAlu,
                    Some(LReg::M(rsp)),
                    Some(LReg::StackKey),
                    Some(LReg::StackLock),
                    UopTag::AllocDealloc,
                ));
            }
            u.push_uop(Uop::base(UopKind::Branch, None, Some(LReg::T(0)), None));
        }
        Inst::SetIdent { ptr, key, lock } => {
            // In baseline mode the instruction still decodes (one plain
            // ALU µop) but performs no metadata work.
            let tag = if wd {
                UopTag::AllocDealloc
            } else {
                UopTag::Base
            };
            u.push_uop(Uop::new(
                UopKind::IntAlu,
                Some(LReg::M(ptr)),
                Some(LReg::G(key)),
                Some(LReg::G(lock)),
                tag,
            ));
        }
        Inst::GetIdent { ptr, key, lock } => {
            let tag = if wd {
                UopTag::AllocDealloc
            } else {
                UopTag::Base
            };
            u.push_uop(Uop::new(
                UopKind::IntAlu,
                Some(LReg::G(key)),
                Some(LReg::M(ptr)),
                None,
                tag,
            ));
            u.push_uop(Uop::new(
                UopKind::IntAlu,
                Some(LReg::G(lock)),
                Some(LReg::M(ptr)),
                None,
                tag,
            ));
        }
        Inst::SetBounds { ptr, base, bound } => {
            let tag = if wd {
                UopTag::AllocDealloc
            } else {
                UopTag::Base
            };
            u.push_uop(Uop::new(
                UopKind::IntAlu,
                Some(LReg::M(ptr)),
                Some(LReg::G(base)),
                Some(LReg::G(bound)),
                tag,
            ));
        }
        Inst::Malloc { dst, size } => {
            crack_malloc(&mut u, dst, size, cfg);
        }
        Inst::Free { ptr } => {
            crack_free(&mut u, ptr, cfg);
        }
        Inst::NewIdent { key, lock } => {
            // Custom-allocator runtime call (§7): key generation, lock pop,
            // lock write — the identifier half of Fig. 3a.
            u.push_uop(Uop::base(UopKind::IntAlu, Some(LReg::G(key)), None, None));
            u.push_uop(Uop::base(UopKind::IntAlu, Some(LReg::G(lock)), None, None));
            if wd {
                u.push_uop(Uop::new(
                    UopKind::LockLoad,
                    Some(LReg::T(0)),
                    None,
                    None,
                    UopTag::AllocDealloc,
                ));
                u.push_uop(Uop::new(
                    UopKind::LockStore,
                    None,
                    Some(LReg::G(key)),
                    Some(LReg::G(lock)),
                    UopTag::AllocDealloc,
                ));
            }
        }
        Inst::KillIdent { key, lock } => {
            u.push_uop(Uop::base(
                UopKind::IntAlu,
                Some(LReg::T(0)),
                Some(LReg::G(key)),
                None,
            ));
            if wd {
                // Validate, invalidate, recycle — the deallocation half of
                // Fig. 3b for a custom allocator.
                u.push_uop(Uop::new(
                    UopKind::LockLoad,
                    Some(LReg::T(1)),
                    Some(LReg::G(lock)),
                    None,
                    UopTag::AllocDealloc,
                ));
                u.push_uop(Uop::new(
                    UopKind::LockStore,
                    None,
                    None,
                    Some(LReg::G(lock)),
                    UopTag::AllocDealloc,
                ));
                u.push_uop(Uop::new(
                    UopKind::LockStore,
                    None,
                    Some(LReg::G(lock)),
                    None,
                    UopTag::AllocDealloc,
                ));
            }
        }
    }

    if !wd {
        meta = MetaEffect::None;
    }
    Cracked {
        uops: u,
        meta,
        ctrl,
    }
}

/// Representative µop expansion of the allocator fast path (segregated
/// free-list pop + header write), plus the Watchdog identifier work of
/// Fig. 3a: key generation, lock-location pop, lock write and `setident`.
fn crack_malloc(u: &mut UopVec, dst: Gpr, size: Gpr, cfg: &CrackConfig) {
    let (t0, t1, t2, t3) = (LReg::T(0), LReg::T(1), LReg::T(2), LReg::T(3));
    // size class computation
    u.push_uop(Uop::base(
        UopKind::IntAlu,
        Some(t0),
        Some(LReg::G(size)),
        None,
    ));
    u.push_uop(Uop::base(UopKind::IntAlu, Some(t0), Some(t0), None));
    // bin head load
    u.push_uop(Uop::base(UopKind::Load, Some(t1), Some(t0), None));
    u.push_uop(Uop::base(UopKind::IntAlu, Some(t1), Some(t1), None));
    // chunk->next load, bin head update
    u.push_uop(Uop::base(UopKind::Load, Some(t2), Some(t1), None));
    u.push_uop(Uop::base(UopKind::Store, None, Some(t2), Some(t0)));
    // header write + result
    u.push_uop(Uop::base(
        UopKind::Store,
        None,
        Some(LReg::G(size)),
        Some(t1),
    ));
    u.push_uop(Uop::base(
        UopKind::IntAlu,
        Some(LReg::G(dst)),
        Some(t1),
        None,
    ));
    u.push_uop(Uop::base(UopKind::IntAlu, Some(t2), Some(t2), None));
    u.push_uop(Uop::base(UopKind::IntAlu, Some(t3), Some(t3), None));
    if cfg.watchdog {
        // key = unique_identifier++ ; lock = pop free lock location ;
        // *lock = key ; setident(p, (key, lock)).
        u.push_uop(Uop::new(
            UopKind::IntAlu,
            Some(t3),
            Some(t3),
            None,
            UopTag::AllocDealloc,
        ));
        u.push_uop(Uop::new(
            UopKind::LockLoad,
            Some(t2),
            None,
            None,
            UopTag::AllocDealloc,
        ));
        u.push_uop(Uop::new(
            UopKind::LockStore,
            None,
            Some(t3),
            Some(t2),
            UopTag::AllocDealloc,
        ));
        u.push_uop(Uop::new(
            UopKind::IntAlu,
            Some(LReg::M(dst)),
            Some(t3),
            Some(t2),
            UopTag::AllocDealloc,
        ));
        if cfg.bounds.is_some() {
            // setbounds(p, p, p + size)
            u.push_uop(Uop::new(
                UopKind::IntAlu,
                Some(LReg::M(dst)),
                Some(LReg::G(dst)),
                Some(LReg::G(size)),
                UopTag::AllocDealloc,
            ));
        }
    }
}

/// Representative µop expansion of `free` (header read + free-list push),
/// plus the Watchdog work of Fig. 3b: `getident`, validity check (catching
/// double frees), lock invalidation and lock-location recycling.
fn crack_free(u: &mut UopVec, ptr: Gpr, cfg: &CrackConfig) {
    let (t0, t1, t2) = (LReg::T(0), LReg::T(1), LReg::T(2));
    u.push_uop(Uop::base(
        UopKind::IntAlu,
        Some(t0),
        Some(LReg::G(ptr)),
        None,
    ));
    u.push_uop(Uop::base(UopKind::Load, Some(t1), Some(t0), None));
    u.push_uop(Uop::base(UopKind::IntAlu, Some(t1), Some(t1), None));
    u.push_uop(Uop::base(UopKind::Load, Some(t2), Some(t1), None));
    u.push_uop(Uop::base(
        UopKind::Store,
        None,
        Some(t2),
        Some(LReg::G(ptr)),
    ));
    u.push_uop(Uop::base(
        UopKind::Store,
        None,
        Some(LReg::G(ptr)),
        Some(t1),
    ));
    if cfg.watchdog {
        // id = getident(p) ; check id valid ; *(id.lock) = INVALID ;
        // push lock location on the free list.
        u.push_uop(Uop::new(
            UopKind::IntAlu,
            Some(t2),
            Some(LReg::M(ptr)),
            None,
            UopTag::AllocDealloc,
        ));
        u.push_uop(Uop::new(
            UopKind::Check,
            None,
            Some(LReg::M(ptr)),
            None,
            UopTag::AllocDealloc,
        ));
        u.push_uop(Uop::new(
            UopKind::LockStore,
            None,
            None,
            Some(t2),
            UopTag::AllocDealloc,
        ));
        u.push_uop(Uop::new(
            UopKind::LockStore,
            None,
            Some(t2),
            None,
            UopTag::AllocDealloc,
        ));
    }
}

/// Convenience: number of memory µops (those needing a resolved address) in
/// a cracked expansion.
pub fn mem_uop_count(uops: &UopVec) -> usize {
    uops.iter().filter(|u| u.uop.kind.is_mem()).count()
}

/// Convenience: collect the kinds of an expansion (test helper).
pub fn kinds(uops: &UopVec) -> Vec<UopKind> {
    uops.iter().map(|u| u.uop.kind).collect()
}

#[allow(unused)]
fn _assert_exec_is_small(u: UopExec) -> UopExec {
    u
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{AluOp, Cond, FpOp, FpWidth, MemAddr, PtrHint, Width};

    fn g(n: u8) -> Gpr {
        Gpr::new(n)
    }

    fn load8(hint: PtrHint) -> Inst {
        Inst::Load {
            dst: g(0),
            addr: MemAddr::base(g(1)),
            width: Width::B8,
            hint,
        }
    }

    #[test]
    fn kind_desc_table_agrees_with_the_classifiers_for_every_kind() {
        // Exhaustive over the whole vocabulary, not sampled: the dense
        // table must agree with the `is_*` reference classifiers and with
        // its own generator for every kind, and `kind as usize` must
        // index the kind's own entry.
        for (i, &k) in UopKind::ALL.iter().enumerate() {
            let d = KIND_DESCS[k as usize];
            assert_eq!(k as usize, i);
            assert_eq!(d, kind_desc(k), "{k:?}: table diverges from generator");
            assert_eq!(d.mem, k.is_mem(), "{k:?}: mem bit");
            assert_eq!(d.mem_write, k.is_mem_write(), "{k:?}: mem_write bit");
            assert_eq!(d.lock_access, k.is_lock_access(), "{k:?}: lock bit");
            assert_eq!(d.shadow_access, k.is_shadow_access(), "{k:?}: shadow bit");
        }
    }

    #[test]
    fn fig2a_pointer_load() {
        let c = crack(&load8(PtrHint::Auto), true, &CrackConfig::watchdog());
        assert_eq!(
            kinds(&c.uops),
            vec![UopKind::Check, UopKind::Load, UopKind::ShadowLoad]
        );
        assert_eq!(c.meta, MetaEffect::None);
        // The check consumes the *metadata* of the base register.
        assert_eq!(c.uops.as_slice()[0].uop.src1, Some(LReg::M(g(1))));
        // The shadow load writes the destination's metadata sidecar.
        assert_eq!(c.uops.as_slice()[2].uop.dst, Some(LReg::M(g(0))));
    }

    #[test]
    fn non_pointer_load_invalidates_metadata() {
        let c = crack(&load8(PtrHint::Auto), false, &CrackConfig::watchdog());
        assert_eq!(kinds(&c.uops), vec![UopKind::Check, UopKind::Load]);
        assert_eq!(c.meta, MetaEffect::Invalidate(g(0)));
    }

    #[test]
    fn baseline_load_has_no_injection() {
        let c = crack(&load8(PtrHint::Auto), true, &CrackConfig::baseline());
        assert_eq!(kinds(&c.uops), vec![UopKind::Load]);
        assert_eq!(c.meta, MetaEffect::None);
    }

    #[test]
    fn fig2b_pointer_store() {
        let st = Inst::Store {
            src: g(2),
            addr: MemAddr::base(g(1)),
            width: Width::B8,
            hint: PtrHint::Auto,
        };
        let c = crack(&st, true, &CrackConfig::watchdog());
        assert_eq!(
            kinds(&c.uops),
            vec![UopKind::Check, UopKind::Store, UopKind::ShadowStore]
        );
        // The shadow store reads the *source's* metadata.
        assert_eq!(c.uops.as_slice()[2].uop.src1, Some(LReg::M(g(2))));
    }

    #[test]
    fn fig2c_add_immediate_copies_metadata_without_uop() {
        let c = crack(
            &Inst::AluImm {
                op: AluOp::Add,
                dst: g(3),
                a: g(1),
                imm: 8,
            },
            false,
            &CrackConfig::watchdog(),
        );
        assert_eq!(kinds(&c.uops), vec![UopKind::IntAlu]);
        assert_eq!(
            c.meta,
            MetaEffect::Copy {
                dst: g(3),
                src: g(1)
            }
        );
    }

    #[test]
    fn fig2d_two_source_add_selects_metadata() {
        let c = crack(
            &Inst::Alu {
                op: AluOp::Add,
                dst: g(3),
                a: g(1),
                b: g(2),
            },
            false,
            &CrackConfig::watchdog(),
        );
        assert_eq!(kinds(&c.uops), vec![UopKind::IntAlu, UopKind::SelectMeta]);
        let sel = c.uops.as_slice()[1].uop;
        assert_eq!(sel.dst, Some(LReg::M(g(3))));
        assert_eq!(sel.src1, Some(LReg::M(g(1))));
        assert_eq!(sel.src2, Some(LReg::M(g(2))));
        assert_eq!(sel.tag, UopTag::Propagate);
    }

    #[test]
    fn divide_never_produces_a_pointer() {
        let c = crack(
            &Inst::Alu {
                op: AluOp::Div,
                dst: g(3),
                a: g(1),
                b: g(2),
            },
            false,
            &CrackConfig::watchdog(),
        );
        assert_eq!(kinds(&c.uops), vec![UopKind::IntDiv]);
        assert_eq!(c.meta, MetaEffect::Invalidate(g(3)));
    }

    #[test]
    fn fig3c_call_injects_four_ident_uops() {
        let mut b = crate::program::ProgramBuilder::new("x");
        let l = b.label();
        b.bind(l);
        b.nop();
        let call = Inst::Call { target: l };
        let base = crack(&call, false, &CrackConfig::baseline());
        let wd = crack(&call, false, &CrackConfig::watchdog());
        assert_eq!(
            wd.uops.len() - base.uops.len(),
            4,
            "Fig. 3c: 4 injected µops"
        );
        assert_eq!(wd.ctrl, CtrlKind::Call);
        let ks = kinds(&wd.uops);
        assert!(ks.contains(&UopKind::LockStore));
        assert_eq!(*ks.last().unwrap(), UopKind::Branch);
        let injected: Vec<_> = wd
            .uops
            .iter()
            .filter(|u| u.uop.tag == UopTag::AllocDealloc)
            .collect();
        assert_eq!(injected.len(), 4);
    }

    #[test]
    fn fig3d_ret_injects_four_ident_uops() {
        let base = crack(&Inst::Ret, false, &CrackConfig::baseline());
        let wd = crack(&Inst::Ret, false, &CrackConfig::watchdog());
        assert_eq!(
            wd.uops.len() - base.uops.len(),
            4,
            "Fig. 3d: 4 injected µops"
        );
        assert_eq!(wd.ctrl, CtrlKind::Ret);
        let ks = kinds(&wd.uops);
        assert!(
            ks.contains(&UopKind::LockLoad),
            "reads the previous frame's key"
        );
        assert!(
            ks.contains(&UopKind::LockStore),
            "invalidates the popped frame"
        );
    }

    #[test]
    fn bounds_fused_replaces_check() {
        let c = crack(
            &load8(PtrHint::Auto),
            true,
            &CrackConfig::with_bounds(BoundsUops::Fused),
        );
        assert_eq!(
            kinds(&c.uops),
            vec![UopKind::CheckCombined, UopKind::Load, UopKind::ShadowLoad]
        );
    }

    #[test]
    fn bounds_split_adds_a_uop() {
        let c = crack(
            &load8(PtrHint::Auto),
            true,
            &CrackConfig::with_bounds(BoundsUops::Split),
        );
        assert_eq!(
            kinds(&c.uops),
            vec![
                UopKind::Check,
                UopKind::BoundsCheck,
                UopKind::Load,
                UopKind::ShadowLoad
            ]
        );
        // The bounds check performs no memory access.
        assert!(!UopKind::BoundsCheck.is_mem());
    }

    #[test]
    fn malloc_watchdog_adds_ident_work() {
        let m = Inst::Malloc {
            dst: g(0),
            size: g(1),
        };
        let base = crack(&m, false, &CrackConfig::baseline());
        let wd = crack(&m, false, &CrackConfig::watchdog());
        let bounds = crack(&m, false, &CrackConfig::with_bounds(BoundsUops::Split));
        assert_eq!(wd.uops.len() - base.uops.len(), 4);
        assert_eq!(
            bounds.uops.len() - wd.uops.len(),
            1,
            "setbounds is one more µop"
        );
        assert!(
            kinds(&wd.uops).contains(&UopKind::LockStore),
            "key written to lock location"
        );
        assert!(
            kinds(&wd.uops).contains(&UopKind::LockLoad),
            "lock popped from free list"
        );
    }

    #[test]
    fn free_watchdog_checks_and_invalidates() {
        let f = Inst::Free { ptr: g(0) };
        let base = crack(&f, false, &CrackConfig::baseline());
        let wd = crack(&f, false, &CrackConfig::watchdog());
        assert_eq!(wd.uops.len() - base.uops.len(), 4);
        let ks = kinds(&wd.uops);
        assert!(
            ks.contains(&UopKind::Check),
            "free validates the identifier (double-free)"
        );
        assert_eq!(ks.iter().filter(|k| **k == UopKind::LockStore).count(), 2);
    }

    #[test]
    fn fp_ops_have_no_metadata_effect() {
        let c = crack(
            &Inst::FpAlu {
                op: FpOp::Mul,
                dst: crate::reg::Fpr::new(0),
                a: crate::reg::Fpr::new(1),
                b: crate::reg::Fpr::new(2),
            },
            false,
            &CrackConfig::watchdog(),
        );
        assert_eq!(kinds(&c.uops), vec![UopKind::FpMul]);
        assert_eq!(c.meta, MetaEffect::None);
    }

    #[test]
    fn fp_load_checks_but_never_propagates() {
        let ld = Inst::LoadFp {
            dst: crate::reg::Fpr::new(0),
            addr: MemAddr::base(g(1)),
            width: FpWidth::F8,
        };
        let c = crack(&ld, true, &CrackConfig::watchdog());
        assert_eq!(kinds(&c.uops), vec![UopKind::Check, UopKind::Load]);
    }

    #[test]
    fn branch_ctrl_kinds() {
        let mut b = crate::program::ProgramBuilder::new("x");
        let l = b.label();
        b.bind(l);
        b.nop();
        let br = Inst::Branch {
            cond: Cond::Eq,
            a: g(0),
            b: g(1),
            target: l,
        };
        assert_eq!(
            crack(&br, false, &CrackConfig::watchdog()).ctrl,
            CtrlKind::CondBranch
        );
        assert_eq!(
            crack(&Inst::Jump { target: l }, false, &CrackConfig::watchdog()).ctrl,
            CtrlKind::Jump
        );
    }

    #[test]
    fn fill_mem_addrs_assigns_in_order() {
        let mut c = crack(&load8(PtrHint::Auto), true, &CrackConfig::watchdog());
        assert_eq!(mem_uop_count(&c.uops), 3);
        fill_mem_addrs(&mut c.uops, &[0x100, 0x200, 0x300]);
        let addrs: Vec<_> = c.uops.iter().map(|u| u.addr).collect();
        assert_eq!(addrs, vec![Some(0x100), Some(0x200), Some(0x300)]);
    }

    #[test]
    #[should_panic(expected = "fewer addresses")]
    fn fill_mem_addrs_underflow_panics() {
        let mut c = crack(&load8(PtrHint::Auto), true, &CrackConfig::watchdog());
        fill_mem_addrs(&mut c.uops, &[0x100]);
    }

    #[test]
    fn setident_writes_sidecar() {
        let c = crack(
            &Inst::SetIdent {
                ptr: g(0),
                key: g(1),
                lock: g(2),
            },
            false,
            &CrackConfig::watchdog(),
        );
        assert_eq!(c.uops.as_slice()[0].uop.dst, Some(LReg::M(g(0))));
        assert_eq!(c.uops.as_slice()[0].uop.tag, UopTag::AllocDealloc);
    }

    #[test]
    fn newident_killident_custom_allocator_uops() {
        let ni = Inst::NewIdent {
            key: g(1),
            lock: g(2),
        };
        let base = crack(&ni, false, &CrackConfig::baseline());
        let wd = crack(&ni, false, &CrackConfig::watchdog());
        assert_eq!(wd.uops.len() - base.uops.len(), 2, "lock pop + key write");
        assert!(kinds(&wd.uops).contains(&UopKind::LockStore));
        let ki = Inst::KillIdent {
            key: g(1),
            lock: g(2),
        };
        let base = crack(&ki, false, &CrackConfig::baseline());
        let wd = crack(&ki, false, &CrackConfig::watchdog());
        assert_eq!(
            wd.uops.len() - base.uops.len(),
            3,
            "validate + invalidate + recycle"
        );
        assert_eq!(
            kinds(&wd.uops)
                .iter()
                .filter(|k| **k == UopKind::LockStore)
                .count(),
            2
        );
    }

    #[test]
    fn uop_overhead_matches_paper_structure() {
        // A pointer load under Watchdog: 3 µops vs 1 baseline → the overhead
        // is one check and one pointer-load metadata access.
        let c = crack(&load8(PtrHint::Auto), true, &CrackConfig::watchdog());
        let overhead: Vec<_> = c
            .uops
            .iter()
            .filter(|u| u.uop.tag.is_overhead())
            .map(|u| u.uop.tag)
            .collect();
        assert_eq!(overhead, vec![UopTag::Check, UopTag::PtrLoad]);
        assert_eq!(baseline_uop_count(&load8(PtrHint::Auto)), 1);
    }
}
