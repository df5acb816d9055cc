//! The functional machine: executes macro-instructions with full Watchdog
//! metadata semantics and emits the cracked µop stream for the timing
//! model.
//!
//! Execution follows §3's operation overview exactly:
//!
//! * every load/store is guarded by a **check**: the pointer register's
//!   identifier must still be valid (`*(id.lock) == id.key`, Fig. 4b), and
//!   under the bounds extension the access must fall in `[base, bound)`;
//! * register metadata propagates through pointer arithmetic (copy on
//!   single-source ops, select on two-source ops, invalidate on operations
//!   that can never produce a pointer — Fig. 2);
//! * in-memory pointer metadata lives in the disjoint shadow space and
//!   moves with pointer loads/stores (Fig. 2a/2b);
//! * `call`/`ret` allocate/deallocate stack-frame identifiers through the
//!   `stack_key`/`stack_lock` control registers (Fig. 3c/3d);
//! * `malloc`/`free` drive the heap runtime, which allocates never-reused
//!   keys, recycles lock locations LIFO and validates identifiers on free
//!   (catching double frees, Fig. 3a/3b).
//!
//! The machine also implements the **location-based** checking mode of
//! §2.1 (shadow allocation status) for the Table 1 comparison, and the
//! unchecked **baseline**.

use watchdog_isa::crack::{
    assemble_cracked, crack, CommitFacts, CrackConfig, CrackedInst, MetaEffect,
};
use watchdog_isa::crack_cache::{CrackCache, CrackCacheStats};
use watchdog_isa::insn::Inst;
use watchdog_isa::layout::{
    GLOBAL_KEY, GLOBAL_LOCK_ADDR, HEAP_BASE, HEAP_LOCK_BASE, HEAP_LOCK_SIZE, HEAP_SIZE,
    INVALID_LOCK_ADDR, INVALID_SENTINEL, SHADOW_BASE, STACK_LIMIT, STACK_LOCK_BASE, STACK_TOP,
};
use watchdog_isa::program::Program;
use watchdog_isa::reg::Gpr;
use watchdog_mem::{Footprint, GuestMem, MetaRecord, ShadowSpace};
use watchdog_pipeline::UopBatch;

use crate::baseline::LocationChecker;
use crate::error::{SimError, Violation, ViolationKind};
use crate::ident::{LockManager, STACK_KEY_BASE};
use crate::pointer_id::{PointerPolicy, Profile};
use crate::runtime::{HeapAllocator, HeapStats};

/// Which checking scheme the machine enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckMode {
    /// No checking at all (the unmodified baseline).
    None,
    /// Location-based checking (§2.1): shadow allocation status per word.
    Location,
    /// Identifier-based Watchdog checking (§2.2/§3).
    Watchdog,
}

/// Machine configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Checking scheme.
    pub check: CheckMode,
    /// Bounds extension (§8); requires [`CheckMode::Watchdog`].
    pub bounds: Option<watchdog_isa::crack::BoundsUops>,
    /// Pointer-identification policy (§5).
    pub policy: PointerPolicy,
    /// Collect a [`Profile`] of static instructions that move valid
    /// metadata (the §5.2 profiling pass).
    pub profiling: bool,
    /// Emit cracked µops on every step (disable for fast functional-only
    /// runs).
    pub emit_uops: bool,
    /// Memoize crack expansions per PC (see
    /// [`watchdog_isa::crack_cache::CrackCache`]). Only takes effect when
    /// `emit_uops` is set — a machine that never cracks allocates no
    /// cache. Disable only to measure the uncached decoder or to debug
    /// the cracker itself.
    pub crack_cache: bool,
}

impl MachineConfig {
    /// Watchdog with conservative identification, emitting µops.
    pub fn watchdog() -> Self {
        MachineConfig {
            check: CheckMode::Watchdog,
            bounds: None,
            policy: PointerPolicy::Conservative,
            profiling: false,
            emit_uops: true,
            crack_cache: true,
        }
    }

    /// Unchecked baseline.
    pub fn baseline() -> Self {
        MachineConfig {
            check: CheckMode::None,
            bounds: None,
            policy: PointerPolicy::Conservative,
            profiling: false,
            emit_uops: true,
            crack_cache: true,
        }
    }
}

/// Dynamic facts of one committed instruction, handed to a [`CommitHook`].
///
/// Together with the static program this is *everything* the timing model's
/// input depends on: the µop expansion itself is a pure function of
/// `(instruction, ptr_op, crack config)`, and the remaining dynamic inputs
/// are exactly the fields below. `watchdog-trace` serializes these records
/// to drive trace-based timing replay without re-executing architectural
/// semantics.
#[derive(Debug, Clone, Copy)]
pub struct CommitRecord<'a> {
    /// Instruction index (not byte address) that committed.
    pub pc_index: usize,
    /// Whether the active pointer-identification policy classified the
    /// instruction as a pointer operation.
    pub ptr_op: bool,
    /// Rename-stage select folding: `None` = not a foldable instruction,
    /// `Some(false)` = the select µop is kept, `Some(true)` = it folds into
    /// a rename-stage invalidate (§6.2).
    pub folded: Option<bool>,
    /// Resolved memory-µop addresses, in µop program order.
    pub mem_addrs: &'a [u64],
    /// Branch outcome `(taken, target byte address)` for control
    /// instructions.
    pub branch: Option<(bool, u64)>,
}

/// Observer of the machine's commit stream (see [`Machine::step_hooked`]).
///
/// Called once per committed instruction, after architectural state has
/// been updated and *regardless of `emit_uops`* — so a fast functional-only
/// run can still capture everything a later µop-emitting replay needs.
/// `halt` and detected violations terminate the run without a commit
/// record, mirroring the µop stream (the timing model never consumes
/// them either).
pub trait CommitHook {
    /// Receives one committed instruction's dynamic facts.
    fn on_commit(&mut self, rec: &CommitRecord<'_>);
}

/// Outcome of one [`Machine::step`].
///
/// `Executed` borrows the machine's in-place µop expansion rather than
/// moving a ~1KB [`CrackedInst`] out per step: the machine refills one
/// scratch expansion with a length-aware copy
/// ([`UopVec::clone_from_compact`](watchdog_isa::uop::UopVec::clone_from_compact))
/// and hands out a reference, so the timed path never bulk-copies the
/// fixed-capacity µop array.
#[derive(Debug)]
pub enum Step<'m> {
    /// The instruction executed; its µop expansion is attached when
    /// `emit_uops` is set.
    Executed(Option<&'m CrackedInst>),
    /// The machine executed `halt`.
    Halted,
    /// A memory-safety violation was detected (the Watchdog exception of
    /// §3.2). The machine stops.
    Violation(Violation),
}

/// Architectural + metadata execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Macro-instructions executed.
    pub insts: u64,
    /// Program memory accesses (macro loads/stores, all widths, int + FP).
    pub mem_accesses: u64,
    /// Accesses classified as pointer operations by the active policy
    /// (Fig. 5's numerator).
    pub ptr_classified: u64,
    /// Calls executed.
    pub calls: u64,
    /// Returns executed.
    pub rets: u64,
}

/// The functional machine. Construct with [`Machine::new`], drive with
/// [`Machine::step`].
#[derive(Debug)]
pub struct Machine<'p> {
    prog: &'p Program,
    cfg: MachineConfig,
    crack_cfg: CrackConfig,
    crack_cache: Option<CrackCache>,
    shadow: ShadowSpace,
    mem: GuestMem,
    regs: [u64; Gpr::COUNT],
    fregs: [f64; 8],
    meta: [MetaRecord; Gpr::COUNT],
    pc: usize,
    halted: bool,
    stack_key: u64,
    stack_lock: u64,
    locks: LockManager,
    heap: HeapAllocator,
    loc: LocationChecker,
    profile: Profile,
    stats: MachineStats,
    /// Per-step scratch expansion, refilled in place (see [`Step`]).
    cur: CrackedInst,
    /// Per-step scratch list of resolved memory-µop addresses, cleared
    /// and refilled by every step so the step itself never allocates.
    mem_addrs: Vec<u64>,
}

impl<'p> Machine<'p> {
    /// Builds a machine and loads `prog`: globals are initialized, the
    /// global/invalid lock locations are seeded, and `main`'s stack frame
    /// receives its identifier.
    pub fn new(prog: &'p Program, cfg: MachineConfig) -> Self {
        let wd = cfg.check == CheckMode::Watchdog;
        let crack_cfg = match (wd, cfg.bounds) {
            (true, Some(b)) => CrackConfig::with_bounds(b),
            (true, None) => CrackConfig::watchdog(),
            (false, _) => CrackConfig::baseline(),
        };
        let shadow = if cfg.bounds.is_some() {
            ShadowSpace::with_bounds()
        } else {
            ShadowSpace::ident_only()
        };
        let mut mem = GuestMem::new();
        // Reserved lock locations (§7): the global identifier's lock always
        // holds the global key; the invalid lock holds poison.
        mem.set_tracking(false);
        mem.write_u64(GLOBAL_LOCK_ADDR, GLOBAL_KEY);
        mem.write_u64(INVALID_LOCK_ADDR, INVALID_SENTINEL);
        // Program load: globals and their pointer slots. Pointer slots get
        // the global identifier in shadow metadata (§7: the global segment's
        // shadow space is initialized with the global identifier).
        for &(addr, val) in prog.global_words() {
            mem.write_u64(addr, val);
        }
        for &(slot, target) in prog.global_ptrs() {
            mem.write_u64(slot, target);
            if wd {
                shadow.store(&mut mem, slot, MetaRecord::global());
            }
        }
        // main()'s stack-frame identifier.
        let stack_key = STACK_KEY_BASE;
        let stack_lock = STACK_LOCK_BASE + 8;
        mem.write_u64(stack_lock, stack_key);
        mem.set_tracking(true);

        let mut meta = [MetaRecord::INVALID; Gpr::COUNT];
        let mut regs = [0u64; Gpr::COUNT];
        regs[Gpr::RSP.index()] = STACK_TOP;
        meta[Gpr::RSP.index()] =
            MetaRecord::with_bounds(stack_key, stack_lock, STACK_LIMIT, STACK_TOP);

        // Only a µop-emitting machine ever cracks; a functional-only run
        // would pay the per-PC entry table for nothing.
        let crack_cache =
            (cfg.crack_cache && cfg.emit_uops).then(|| CrackCache::new(crack_cfg, prog.len()));

        Machine {
            prog,
            cfg,
            crack_cfg,
            crack_cache,
            shadow,
            mem,
            regs,
            fregs: [0.0; 8],
            meta,
            pc: 0,
            halted: false,
            stack_key,
            stack_lock,
            locks: LockManager::new(),
            heap: HeapAllocator::new(),
            loc: LocationChecker::new(),
            profile: Profile::new(),
            stats: MachineStats::default(),
            cur: CrackedInst::empty(),
            mem_addrs: Vec::with_capacity(16),
        }
    }

    // ------------------------------------------------------------------
    // Accessors.
    // ------------------------------------------------------------------

    /// Current value of a general-purpose register.
    pub fn reg(&self, r: Gpr) -> u64 {
        self.regs[r.index()]
    }

    /// Current value of an FP register.
    pub fn freg(&self, r: watchdog_isa::reg::Fpr) -> f64 {
        self.fregs[r.index()]
    }

    /// Metadata sidecar of a general-purpose register.
    pub fn meta_of(&self, r: Gpr) -> MetaRecord {
        self.meta[r.index()]
    }

    /// Reads guest memory (for assertions in tests/examples).
    pub fn read_mem(&mut self, addr: u64, len: u64) -> u64 {
        self.mem.read(addr, len)
    }

    /// Memory footprint so far (Fig. 10's raw data).
    pub fn footprint(&self) -> Footprint {
        self.mem.footprint()
    }

    /// Execution statistics.
    pub fn stats(&self) -> MachineStats {
        self.stats
    }

    /// Heap runtime statistics.
    pub fn heap_stats(&self) -> HeapStats {
        self.heap.stats()
    }

    /// The profile collected so far (meaningful when `profiling` is set).
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Enables or disables µop emission mid-run (used by the sampling
    /// driver to fast-forward between measurement windows, §9.1).
    ///
    /// A machine constructed functional-only (`emit_uops: false`)
    /// allocates no crack cache up front; switching emission on here
    /// creates it on demand so `crack_cache: true` is honoured no matter
    /// when cracking starts.
    pub fn set_emit_uops(&mut self, on: bool) {
        self.cfg.emit_uops = on;
        if on && self.cfg.crack_cache && self.crack_cache.is_none() {
            self.crack_cache = Some(CrackCache::new(self.crack_cfg, self.prog.len()));
        }
    }

    /// Hit/miss statistics of the per-PC crack cache (`None` when the
    /// cache is disabled in the [`MachineConfig`]).
    pub fn crack_cache_stats(&self) -> Option<CrackCacheStats> {
        self.crack_cache.as_ref().map(|c| c.stats())
    }

    /// Invalidation hook: drops the cached crack expansion for one
    /// instruction index. The guest ISA has no self-modifying code today,
    /// but anything that patches program text (or flips a static
    /// instruction's classification) must call this before re-executing
    /// the patched PC.
    pub fn invalidate_cracked(&mut self, pc: usize) {
        if let Some(c) = self.crack_cache.as_mut() {
            c.invalidate(pc);
        }
    }

    /// Invalidation hook: drops every cached crack expansion (e.g. after
    /// swapping the pointer-identification policy mid-run).
    pub fn invalidate_all_cracked(&mut self) {
        if let Some(c) = self.crack_cache.as_mut() {
            c.invalidate_all();
        }
    }

    /// Whether the machine has halted.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Current program counter (instruction index).
    pub fn pc(&self) -> usize {
        self.pc
    }

    // ------------------------------------------------------------------
    // Checking.
    // ------------------------------------------------------------------

    /// The identifier + bounds check guarding an access of `len` bytes at
    /// `addr` through `base` (§3.2, Fig. 4b).
    fn check_access(&mut self, base: Gpr, addr: u64, len: u64) -> Result<(), Violation> {
        match self.cfg.check {
            CheckMode::None => Ok(()),
            CheckMode::Location => {
                // Location-based tools track the heap only.
                let in_heap = (HEAP_BASE..HEAP_BASE + HEAP_SIZE).contains(&addr);
                if in_heap && !self.loc.check(addr, len) {
                    Err(self.violation(ViolationKind::UseAfterFree, addr))
                } else {
                    Ok(())
                }
            }
            CheckMode::Watchdog => {
                let m = self.meta[base.index()];
                if m.is_invalid() {
                    return Err(self.violation(ViolationKind::WildPointer, addr));
                }
                let lock_val = self.mem.read_u64(m.lock);
                if lock_val != m.key {
                    let kind = if (STACK_LOCK_BASE..STACK_LOCK_BASE + 0x0400_0000).contains(&m.lock)
                    {
                        ViolationKind::UseAfterReturn
                    } else {
                        ViolationKind::UseAfterFree
                    };
                    return Err(self.violation(kind, addr));
                }
                if self.cfg.bounds.is_some() && !m.in_bounds(addr, len) {
                    return Err(self.violation(ViolationKind::OutOfBounds, addr));
                }
                Ok(())
            }
        }
    }

    fn violation(&self, kind: ViolationKind, addr: u64) -> Violation {
        Violation {
            kind,
            pc_index: self.pc,
            addr,
        }
    }

    fn wd(&self) -> bool {
        self.cfg.check == CheckMode::Watchdog
    }

    /// Loads the shadow record for `addr`.
    ///
    /// §7's global-pointer initialization is applied at program load: every
    /// *declared* global pointer slot receives the global identifier in its
    /// shadow metadata, and pointers stored to globals at runtime carry
    /// their metadata through the ordinary shadow-store path. Global words
    /// that never held a pointer read back invalid metadata — they are
    /// integers, and treating them as pointers would (wrongly) mark their
    /// loads in the §5.2 profiling pass.
    fn shadow_load(&mut self, addr: u64) -> MetaRecord {
        self.shadow.load(&mut self.mem, addr)
    }

    /// Invalidates shadow metadata for every word overlapped by a
    /// non-pointer store.
    ///
    /// This keeps the *functional* shadow coherent when integers overwrite
    /// words that held pointers. Real Watchdog hardware performs no shadow
    /// access here (unmarked stores simply leave stale metadata, §5.2), so
    /// the probe is excluded from footprint accounting and from the µop
    /// stream.
    fn shadow_invalidate_span(&mut self, addr: u64, len: u64) {
        self.mem.set_tracking(false);
        // One word or two adjacent ones (wrapping at the top of memory).
        let (first, last) = (addr >> 3, addr.wrapping_add(len.max(1) - 1) >> 3);
        self.shadow.invalidate(&mut self.mem, first << 3);
        if last != first {
            self.shadow.invalidate(&mut self.mem, last << 3);
        }
        self.mem.set_tracking(true);
    }

    /// Metadata select for two-source arithmetic (Fig. 2d): take whichever
    /// input's metadata is valid, preferring the first.
    fn select_meta(&self, a: Gpr, b: Gpr) -> MetaRecord {
        let ma = self.meta[a.index()];
        if !ma.is_invalid() {
            ma
        } else {
            self.meta[b.index()]
        }
    }

    // ------------------------------------------------------------------
    // Execution.
    // ------------------------------------------------------------------

    /// Executes one macro-instruction.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] for simulator-level failures (heap/stack
    /// exhaustion, runaway PC). *Detected memory-safety violations* are not
    /// errors: they arrive as [`Step::Violation`].
    pub fn step(&mut self) -> Result<Step<'_>, SimError> {
        self.step_inner(None, None)
    }

    /// [`Machine::step`] with a [`CommitHook`] observing the committed
    /// instruction's dynamic facts (trace recording).
    ///
    /// # Errors
    ///
    /// Exactly as [`Machine::step`].
    pub fn step_hooked(&mut self, hook: &mut dyn CommitHook) -> Result<Step<'_>, SimError> {
        self.step_inner(Some(hook), None)
    }

    /// [`Machine::step`] that appends the committed µop expansion (when
    /// `emit_uops` is on) straight into `batch` via
    /// [`UopBatch::push_expansion`] — no scratch [`CrackedInst`] assembly,
    /// no second copy. The returned [`Step::Executed`] carries `None`; the
    /// expansion lives in the batch.
    ///
    /// # Errors
    ///
    /// Exactly as [`Machine::step`].
    pub fn step_batched(&mut self, batch: &mut UopBatch) -> Result<Step<'_>, SimError> {
        self.step_inner(None, Some(batch))
    }

    fn step_inner(
        &mut self,
        hook: Option<&mut dyn CommitHook>,
        batch: Option<&mut UopBatch>,
    ) -> Result<Step<'_>, SimError> {
        if self.halted {
            return Ok(Step::Halted);
        }
        if self.pc >= self.prog.len() {
            return Err(SimError::PcOutOfRange { pc: self.pc });
        }
        let pc = self.pc;
        let inst = *self.prog.inst(pc);
        let ptr_op = self.cfg.policy.classify(pc, &inst);
        self.stats.insts += 1;

        // Dynamic facts collected during execution, used to finalize the
        // µop expansion afterwards.
        self.mem_addrs.clear();
        let mut branch: Option<(bool, u64)> = None; // (taken, target byte addr)

        // Some(None) = keep the select µop; Some(Some(e)) = fold it into a
        // rename-stage effect; None = not a foldable instruction.
        let mut select_fold: Option<Option<MetaEffect>> = None;
        let mut next_pc = pc + 1;

        macro_rules! fail {
            ($v:expr) => {{
                self.halted = true;
                return Ok(Step::Violation($v));
            }};
        }

        match inst {
            Inst::Nop => {}
            Inst::Halt => {
                self.halted = true;
                return Ok(Step::Halted);
            }
            Inst::MovImm { dst, imm } => {
                self.regs[dst.index()] = imm as u64;
                self.meta[dst.index()] = MetaRecord::INVALID;
            }
            Inst::Mov { dst, src } => {
                self.regs[dst.index()] = self.regs[src.index()];
                self.meta[dst.index()] = self.meta[src.index()];
            }
            Inst::Alu { op, dst, a, b } => {
                // Rename-stage select folding: when *both* inputs' metadata
                // mappings are the invalid physical register — trivially
                // detectable in the §6.2 dual map table — the output is
                // invalid too and no select µop is needed (pure integer
                // arithmetic). When either input may be a pointer the
                // select µop is inserted, exactly as the paper specifies
                // ("either of the registers might be a pointer").
                if !op.is_long_latency() {
                    let (va, vb) = (
                        !self.meta[a.index()].is_invalid(),
                        !self.meta[b.index()].is_invalid(),
                    );
                    select_fold = Some(if !va && !vb {
                        Some(MetaEffect::Invalidate(dst))
                    } else {
                        None // genuine select µop required
                    });
                }
                self.regs[dst.index()] = op.eval(self.regs[a.index()], self.regs[b.index()]);
                self.meta[dst.index()] = if op.is_long_latency() {
                    MetaRecord::INVALID
                } else {
                    self.select_meta(a, b)
                };
            }
            Inst::AluImm { op, dst, a, imm } => {
                self.regs[dst.index()] = op.eval(self.regs[a.index()], imm as u64);
                self.meta[dst.index()] = if op.is_long_latency() {
                    MetaRecord::INVALID
                } else {
                    self.meta[a.index()]
                };
            }
            Inst::Lea { dst, addr } => {
                self.regs[dst.index()] = addr.resolve(self.regs[addr.base.index()]);
                self.meta[dst.index()] = self.meta[addr.base.index()];
            }
            Inst::LeaGlobal { dst, addr } => {
                self.regs[dst.index()] = addr;
                self.meta[dst.index()] = MetaRecord::global();
            }
            Inst::Load {
                dst, addr, width, ..
            } => {
                let a = addr.resolve(self.regs[addr.base.index()]);
                self.stats.mem_accesses += 1;
                if ptr_op {
                    self.stats.ptr_classified += 1;
                }
                if let Err(v) = self.check_access(addr.base, a, width.bytes()) {
                    fail!(v);
                }
                self.push_check_addrs(addr.base, a);
                self.regs[dst.index()] = self.mem.read(a, width.bytes());
                self.mem_addrs.push(a);
                if self.wd() {
                    if ptr_op {
                        let rec = self.shadow_load(a);
                        self.mem_addrs.push(self.shadow.record_addr(a));
                        if self.cfg.profiling && !rec.is_invalid() {
                            self.profile.mark(pc);
                        }
                        self.meta[dst.index()] = rec;
                    } else {
                        self.meta[dst.index()] = MetaRecord::INVALID;
                    }
                }
            }
            Inst::Store {
                src, addr, width, ..
            } => {
                let a = addr.resolve(self.regs[addr.base.index()]);
                self.stats.mem_accesses += 1;
                if ptr_op {
                    self.stats.ptr_classified += 1;
                }
                if let Err(v) = self.check_access(addr.base, a, width.bytes()) {
                    fail!(v);
                }
                self.push_check_addrs(addr.base, a);
                self.mem.write(a, width.bytes(), self.regs[src.index()]);
                self.mem_addrs.push(a);
                if self.wd() {
                    if ptr_op {
                        let rec = self.meta[src.index()];
                        self.shadow.store(&mut self.mem, a, rec);
                        self.mem_addrs.push(self.shadow.record_addr(a));
                        if self.cfg.profiling && !rec.is_invalid() {
                            self.profile.mark(pc);
                        }
                    } else {
                        self.shadow_invalidate_span(a, width.bytes());
                    }
                }
            }
            Inst::LoadFp { dst, addr, width } => {
                let a = addr.resolve(self.regs[addr.base.index()]);
                self.stats.mem_accesses += 1;
                if let Err(v) = self.check_access(addr.base, a, width.bytes()) {
                    fail!(v);
                }
                self.push_check_addrs(addr.base, a);
                self.fregs[dst.index()] = match width {
                    watchdog_isa::insn::FpWidth::F4 => f64::from(self.mem.read_f32(a)),
                    watchdog_isa::insn::FpWidth::F8 => self.mem.read_f64(a),
                };
                self.mem_addrs.push(a);
            }
            Inst::StoreFp { src, addr, width } => {
                let a = addr.resolve(self.regs[addr.base.index()]);
                self.stats.mem_accesses += 1;
                if let Err(v) = self.check_access(addr.base, a, width.bytes()) {
                    fail!(v);
                }
                self.push_check_addrs(addr.base, a);
                match width {
                    watchdog_isa::insn::FpWidth::F4 => {
                        self.mem.write_f32(a, self.fregs[src.index()] as f32)
                    }
                    watchdog_isa::insn::FpWidth::F8 => {
                        self.mem.write_f64(a, self.fregs[src.index()])
                    }
                }
                self.mem_addrs.push(a);
                if self.wd() {
                    self.shadow_invalidate_span(a, width.bytes());
                }
            }
            Inst::FpAlu { op, dst, a, b } => {
                self.fregs[dst.index()] = op.eval(self.fregs[a.index()], self.fregs[b.index()]);
            }
            Inst::FpMovImm { dst, imm } => self.fregs[dst.index()] = imm,
            Inst::FpMov { dst, src } => self.fregs[dst.index()] = self.fregs[src.index()],
            Inst::IntToFp { dst, src } => {
                self.fregs[dst.index()] = self.regs[src.index()] as i64 as f64
            }
            Inst::FpToInt { dst, src } => {
                self.regs[dst.index()] = self.fregs[src.index()] as i64 as u64;
                self.meta[dst.index()] = MetaRecord::INVALID;
            }
            Inst::Branch { cond, a, b, target } => {
                let taken = cond.eval(self.regs[a.index()], self.regs[b.index()]);
                let tgt = self.prog.target(target);
                if taken {
                    next_pc = tgt;
                }
                branch = Some((taken, self.prog.addr_of(tgt)));
            }
            Inst::Jump { target } => {
                let tgt = self.prog.target(target);
                next_pc = tgt;
                branch = Some((true, self.prog.addr_of(tgt)));
            }
            Inst::Call { target } => {
                self.stats.calls += 1;
                let entry_rsp = self.regs[Gpr::RSP.index()];
                let new_rsp = entry_rsp.wrapping_sub(8);
                if new_rsp < STACK_LIMIT {
                    return Err(SimError::StackOverflow);
                }
                self.regs[Gpr::RSP.index()] = new_rsp;
                self.mem.write_u64(new_rsp, (pc + 1) as u64);
                self.mem_addrs.push(new_rsp);
                if self.wd() {
                    // Fig. 3c.
                    self.stack_key += 1;
                    self.stack_lock += 8;
                    self.mem.write_u64(self.stack_lock, self.stack_key);
                    self.mem_addrs.push(self.stack_lock);
                    self.meta[Gpr::RSP.index()] = MetaRecord::with_bounds(
                        self.stack_key,
                        self.stack_lock,
                        STACK_LIMIT,
                        entry_rsp,
                    );
                }
                let tgt = self.prog.target(target);
                next_pc = tgt;
                branch = Some((true, self.prog.addr_of(tgt)));
            }
            Inst::Ret => {
                self.stats.rets += 1;
                let rsp = self.regs[Gpr::RSP.index()];
                let ra = self.mem.read_u64(rsp) as usize;
                self.mem_addrs.push(rsp);
                self.regs[Gpr::RSP.index()] = rsp.wrapping_add(8);
                if self.wd() {
                    // Fig. 3d.
                    self.mem.write_u64(self.stack_lock, INVALID_SENTINEL);
                    self.mem_addrs.push(self.stack_lock);
                    self.stack_lock -= 8;
                    let current_key = self.mem.read_u64(self.stack_lock);
                    self.mem_addrs.push(self.stack_lock);
                    self.meta[Gpr::RSP.index()] = MetaRecord::with_bounds(
                        current_key,
                        self.stack_lock,
                        STACK_LIMIT,
                        STACK_TOP,
                    );
                }
                if ra >= self.prog.len() {
                    return Err(SimError::PcOutOfRange { pc: ra });
                }
                next_pc = ra;
                branch = Some((true, self.prog.addr_of(ra)));
            }
            Inst::SetIdent { ptr, key, lock } => {
                let m = &mut self.meta[ptr.index()];
                m.key = self.regs[key.index()];
                m.lock = self.regs[lock.index()];
                if m.bound == 0 {
                    m.bound = u64::MAX;
                }
            }
            Inst::GetIdent { ptr, key, lock } => {
                let m = self.meta[ptr.index()];
                self.regs[key.index()] = m.key;
                self.regs[lock.index()] = m.lock;
                self.meta[key.index()] = MetaRecord::INVALID;
                self.meta[lock.index()] = MetaRecord::INVALID;
            }
            Inst::SetBounds { ptr, base, bound } => {
                let m = &mut self.meta[ptr.index()];
                m.base = self.regs[base.index()];
                m.bound = self.regs[bound.index()];
            }
            Inst::Malloc { dst, size } => {
                let requested = self.regs[size.index()].max(1);
                let Some(m) = self.heap.malloc(requested) else {
                    return Err(SimError::HeapExhausted { requested });
                };
                // Runtime touches: bin-head read+write, header write.
                let _ = self.mem.read_u64(m.bin_head_addr);
                self.mem_addrs.push(m.bin_head_addr);
                let _ = self.mem.read_u64(m.addr); // free-list next link
                self.mem_addrs.push(m.addr);
                self.mem.write_u64(m.bin_head_addr, 0);
                self.mem_addrs.push(m.bin_head_addr);
                self.mem.write_u64(m.header_addr, m.size);
                self.mem_addrs.push(m.header_addr);
                self.regs[dst.index()] = m.addr;
                match self.cfg.check {
                    CheckMode::Watchdog => {
                        let key = self.locks.alloc_key();
                        let Some(lock) = self.locks.alloc_lock() else {
                            return Err(SimError::HeapExhausted { requested: 8 });
                        };
                        let _ = self.mem.read_u64(self.locks.head_slot());
                        self.mem_addrs.push(self.locks.head_slot());
                        self.mem.write_u64(lock, key);
                        self.mem_addrs.push(lock);
                        self.meta[dst.index()] =
                            MetaRecord::with_bounds(key, lock, m.addr, m.addr + m.size);
                    }
                    CheckMode::Location => self.loc.on_alloc(m.addr, m.size),
                    CheckMode::None => {}
                }
            }
            Inst::Free { ptr } => {
                let p = self.regs[ptr.index()];
                match self.cfg.check {
                    CheckMode::Watchdog => {
                        // Fig. 3b + the runtime's free-time identifier check.
                        let m = self.meta[ptr.index()];
                        if m.is_invalid() {
                            fail!(self.violation(ViolationKind::InvalidFree, p));
                        }
                        let lock_val = self.mem.read_u64(m.lock);
                        if lock_val != m.key {
                            fail!(self.violation(ViolationKind::DoubleFree, p));
                        }
                        let Some(f) = self.heap.free(p) else {
                            fail!(self.violation(ViolationKind::InvalidFree, p));
                        };
                        let _ = self.mem.read_u64(f.header_addr);
                        self.mem_addrs.push(f.header_addr);
                        let _ = self.mem.read_u64(f.bin_head_addr);
                        self.mem_addrs.push(f.bin_head_addr);
                        self.mem.write_u64(f.addr, 0); // free-list link
                        self.mem_addrs.push(f.addr);
                        self.mem.write_u64(f.bin_head_addr, f.addr);
                        self.mem_addrs.push(f.bin_head_addr);
                        // Invalidate the identifier and recycle the lock.
                        self.mem_addrs.push(m.lock); // runtime check µop
                        self.mem.write_u64(m.lock, INVALID_SENTINEL);
                        self.mem_addrs.push(m.lock);
                        self.mem.write_u64(self.locks.head_slot(), m.lock);
                        self.mem_addrs.push(self.locks.head_slot());
                        self.locks.free_lock(m.lock);
                    }
                    CheckMode::Location => {
                        let Some(size) = self.heap.live_size(p) else {
                            fail!(self.violation(ViolationKind::InvalidFree, p));
                        };
                        let f = self.heap.free(p).expect("live allocation frees");
                        self.loc.on_free(p, size);
                        for a in [f.header_addr, f.bin_head_addr, f.addr, f.bin_head_addr] {
                            let _ = self.mem.read_u64(a);
                            self.mem_addrs.push(a);
                        }
                    }
                    CheckMode::None => {
                        // Unchecked frees of garbage are silently ignored
                        // (the bug proceeds to corrupt memory, as in
                        // reality).
                        if let Some(f) = self.heap.free(p) {
                            for a in [f.header_addr, f.bin_head_addr, f.addr, f.bin_head_addr] {
                                let _ = self.mem.read_u64(a);
                                self.mem_addrs.push(a);
                            }
                        } else {
                            self.mem_addrs.extend([HEAP_BASE; 4]);
                        }
                    }
                }
            }
            Inst::NewIdent { key, lock } => {
                // §7 custom-allocator support: fresh key + lock location.
                if self.cfg.check == CheckMode::Watchdog {
                    let k = self.locks.alloc_key();
                    let Some(l) = self.locks.alloc_lock() else {
                        return Err(SimError::HeapExhausted { requested: 8 });
                    };
                    let _ = self.mem.read_u64(self.locks.head_slot());
                    self.mem_addrs.push(self.locks.head_slot());
                    self.mem.write_u64(l, k);
                    self.mem_addrs.push(l);
                    self.regs[key.index()] = k;
                    self.regs[lock.index()] = l;
                } else {
                    self.regs[key.index()] = 0;
                    self.regs[lock.index()] = 0;
                }
                self.meta[key.index()] = MetaRecord::INVALID;
                self.meta[lock.index()] = MetaRecord::INVALID;
            }
            Inst::KillIdent { key, lock } => {
                if self.cfg.check == CheckMode::Watchdog {
                    let k = self.regs[key.index()];
                    let l = self.regs[lock.index()];
                    let in_region =
                        (HEAP_LOCK_BASE + 8..HEAP_LOCK_BASE + HEAP_LOCK_SIZE).contains(&l);
                    if !in_region {
                        fail!(self.violation(ViolationKind::InvalidFree, l));
                    }
                    let cur = self.mem.read_u64(l);
                    self.mem_addrs.push(l);
                    if cur != k {
                        // Already invalidated (double kill) or a foreign
                        // identifier.
                        fail!(self.violation(ViolationKind::DoubleFree, l));
                    }
                    self.mem.write_u64(l, INVALID_SENTINEL);
                    self.mem_addrs.push(l);
                    self.mem.write_u64(self.locks.head_slot(), l);
                    self.mem_addrs.push(self.locks.head_slot());
                    self.locks.free_lock(l);
                }
            }
        }

        self.pc = next_pc;

        if let Some(hook) = hook {
            hook.on_commit(&CommitRecord {
                pc_index: pc,
                ptr_op,
                folded: select_fold.map(|f| f.is_some()),
                mem_addrs: &self.mem_addrs,
                branch,
            });
        }

        if !self.cfg.emit_uops {
            return Ok(Step::Executed(None));
        }

        // Assemble the µop expansion with its dynamic facts. The static
        // expansion is a pure function of (inst, ptr_op, crack config), so
        // it is served from the per-PC cache when enabled. A batched
        // caller gets it appended straight to its `UopBatch`
        // (`push_expansion` — the same routine the trace replayer fills
        // with, so the two feeds match by construction); a per-step caller
        // gets the machine's scratch expansion, refreshed with a
        // length-aware copy — the fixed-capacity tail of the µop vector is
        // never touched. Both assembly routines mirror `assemble_cracked`.
        let facts = CommitFacts {
            pc: self.prog.addr_of(pc),
            len: inst.encoded_len(),
            select_fold: select_fold.flatten(),
            location_check: self.cfg.check == CheckMode::Location && inst.is_mem(),
            mem_addrs: &self.mem_addrs,
            branch,
        };
        if let Some(batch) = batch {
            match self.crack_cache.as_mut() {
                Some(cache) => batch.push_expansion(cache.get_or_crack(pc, &inst, ptr_op), &facts),
                None => batch.push_expansion(&crack(&inst, ptr_op, &self.crack_cfg), &facts),
            }
            return Ok(Step::Executed(None));
        }
        let cur = &mut self.cur;
        match self.crack_cache.as_mut() {
            Some(cache) => assemble_cracked(cur, cache.get_or_crack(pc, &inst, ptr_op), &facts),
            None => assemble_cracked(cur, &crack(&inst, ptr_op, &self.crack_cfg), &facts),
        }
        Ok(Step::Executed(Some(&self.cur)))
    }

    /// Emits the check-µop lock addresses for an access through `base`
    /// (`addr` unused for identifier-only checks; bounds checks are pure
    /// ALU).
    fn push_check_addrs(&mut self, base: Gpr, addr: u64) {
        match self.cfg.check {
            CheckMode::Watchdog => {
                let lock = self.meta[base.index()].lock;
                self.mem_addrs.push(lock);
            }
            CheckMode::Location => {
                // One allocation-status access per memory access (§2.1
                // hardware, e.g. MemTracker): status lives in its own
                // shadow region, one byte per word.
                self.mem_addrs.push(SHADOW_BASE + (addr >> 3));
            }
            CheckMode::None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use watchdog_isa::{AluOp, Cond, ProgramBuilder};

    fn g(n: u8) -> Gpr {
        Gpr::new(n)
    }

    fn run(prog: &Program, cfg: MachineConfig) -> (Machine<'_>, Option<Violation>) {
        let mut m = Machine::new(prog, cfg);
        loop {
            match m.step().expect("no sim error") {
                Step::Executed(_) => {}
                Step::Halted => return (m, None),
                Step::Violation(v) => return (m, Some(v)),
            }
        }
    }

    fn uaf_program() -> Program {
        let mut b = ProgramBuilder::new("uaf");
        let (p, sz, v) = (g(0), g(1), g(2));
        b.li(sz, 64);
        b.malloc(p, sz);
        b.li(v, 7);
        b.st8(v, p, 0);
        b.free(p);
        b.ld8(v, p, 0); // UAF
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn watchdog_detects_heap_uaf() {
        let p = uaf_program();
        let (_, v) = run(&p, MachineConfig::watchdog());
        let v = v.expect("violation detected");
        assert_eq!(v.kind, ViolationKind::UseAfterFree);
        assert_eq!(v.pc_index, 5);
    }

    #[test]
    fn baseline_misses_heap_uaf() {
        let p = uaf_program();
        let (m, v) = run(&p, MachineConfig::baseline());
        assert!(v.is_none());
        assert!(m.halted());
    }

    #[test]
    fn watchdog_detects_uaf_after_reallocation_but_location_does_not() {
        // Fig. 1 left: q dangles; the memory is recycled by a new malloc.
        let mut b = ProgramBuilder::new("uaf-realloc");
        let (p, q, r, sz, v) = (g(0), g(1), g(2), g(3), g(4));
        b.li(sz, 64);
        b.malloc(p, sz);
        b.mov(q, p); // q aliases p
        b.free(p);
        b.malloc(r, sz); // reuses the same address (LIFO)
        b.ld8(v, q, 0); // dangling dereference through q
        b.halt();
        let prog = b.build().unwrap();

        let (m, v1) = run(&prog, MachineConfig::watchdog());
        assert_eq!(
            v1.expect("watchdog catches it").kind,
            ViolationKind::UseAfterFree
        );
        drop(m);

        let cfg = MachineConfig {
            check: CheckMode::Location,
            ..MachineConfig::baseline()
        };
        let (m2, v2) = run(&prog, cfg);
        assert!(
            v2.is_none(),
            "location-based checking is blind after reallocation"
        );
        assert_eq!(m2.reg(q), m2.reg(r), "the address really was reused");
    }

    #[test]
    fn location_detects_simple_uaf() {
        let p = uaf_program();
        let cfg = MachineConfig {
            check: CheckMode::Location,
            ..MachineConfig::baseline()
        };
        let (_, v) = run(&p, cfg);
        assert_eq!(
            v.expect("simple UAF is visible to location checking").kind,
            ViolationKind::UseAfterFree
        );
    }

    #[test]
    fn watchdog_detects_double_free() {
        let mut b = ProgramBuilder::new("df");
        let (p, sz) = (g(0), g(1));
        b.li(sz, 32);
        b.malloc(p, sz);
        b.free(p);
        b.free(p);
        b.halt();
        let prog = b.build().unwrap();
        let (_, v) = run(&prog, MachineConfig::watchdog());
        assert_eq!(v.unwrap().kind, ViolationKind::DoubleFree);
    }

    #[test]
    fn watchdog_detects_stack_use_after_return() {
        // Fig. 1 right: foo() publishes &local to a global; main
        // dereferences it after foo returns.
        let mut b = ProgramBuilder::new("stack-uaf");
        let (p, v, t) = (g(0), g(1), g(2));
        let rsp = Gpr::RSP;
        let slot = b.global_u64(0);
        let foo = b.label();
        let after = b.label();
        // main:
        b.call(foo);
        b.lea_global(t, slot);
        b.ld8(p, t, 0); // p = &local (dangling now)
        b.ld8(v, p, 0); // use-after-return
        b.halt();
        // foo:
        b.bind(foo);
        b.alui(AluOp::Sub, rsp, rsp, 16); // local frame
        b.li(v, 99);
        b.st8(v, rsp, 0); // local = 99
        b.lea_global(t, slot);
        b.mov(p, rsp);
        b.st8(p, t, 0); // global = &local  (pointer store)
        b.alui(AluOp::Add, rsp, rsp, 16);
        b.ret();
        b.bind(after);
        b.nop();
        let prog = b.build().unwrap();
        let (_, viol) = run(&prog, MachineConfig::watchdog());
        assert_eq!(
            viol.expect("dangling stack pointer detected").kind,
            ViolationKind::UseAfterReturn
        );
    }

    #[test]
    fn benign_program_runs_clean_under_watchdog() {
        // Allocate, fill, sum, free — across two frames, with pointer
        // arithmetic. Must produce identical results in all modes.
        let build = || {
            let mut b = ProgramBuilder::new("benign");
            let (p, sz, i, n, acc, t) = (g(0), g(1), g(2), g(3), g(4), g(5));
            b.li(sz, 256);
            b.malloc(p, sz);
            b.li(i, 0);
            b.li(n, 32);
            let loop1 = b.here();
            b.alu(AluOp::Shl, t, i, g(6)); // t = i << 0 (g6 = 0)
            b.alui(AluOp::Mul, t, i, 8);
            b.add(t, p, t);
            b.st8(i, t, 0);
            b.addi(i, i, 1);
            b.branch(Cond::Lt, i, n, loop1);
            b.li(i, 0);
            b.li(acc, 0);
            let loop2 = b.here();
            b.alui(AluOp::Mul, t, i, 8);
            b.add(t, p, t);
            b.ld8(t, t, 0);
            b.add(acc, acc, t);
            b.addi(i, i, 1);
            b.branch(Cond::Lt, i, n, loop2);
            b.free(p);
            b.halt();
            b.build().unwrap()
        };
        let expected = (0..32u64).sum::<u64>();
        for cfg in [
            MachineConfig::baseline(),
            MachineConfig::watchdog(),
            MachineConfig {
                check: CheckMode::Location,
                ..MachineConfig::baseline()
            },
            MachineConfig {
                bounds: Some(watchdog_isa::crack::BoundsUops::Fused),
                ..MachineConfig::watchdog()
            },
        ] {
            let prog = build();
            let (m, v) = run(&prog, cfg.clone());
            assert!(v.is_none(), "false positive under {cfg:?}: {v:?}");
            assert_eq!(m.reg(g(4)), expected, "wrong result under {cfg:?}");
        }
    }

    #[test]
    fn bounds_mode_detects_overflow() {
        let mut b = ProgramBuilder::new("overflow");
        let (p, sz, v) = (g(0), g(1), g(2));
        b.li(sz, 64);
        b.malloc(p, sz);
        b.ld8(v, p, 64); // one word past the end
        b.halt();
        let prog = b.build().unwrap();
        let cfg = MachineConfig {
            bounds: Some(watchdog_isa::crack::BoundsUops::Fused),
            ..MachineConfig::watchdog()
        };
        let (_, v) = run(&prog, cfg);
        assert_eq!(v.unwrap().kind, ViolationKind::OutOfBounds);
        // Without bounds the same access is (temporally) fine.
        let prog2 = {
            let mut b = ProgramBuilder::new("overflow2");
            b.li(sz, 64);
            b.malloc(p, sz);
            b.ld8(g(2), p, 64);
            b.halt();
            b.build().unwrap()
        };
        let (_, v2) = run(&prog2, MachineConfig::watchdog());
        assert!(v2.is_none(), "UAF-only Watchdog does not check bounds");
    }

    #[test]
    fn wild_pointer_dereference_is_detected() {
        let mut b = ProgramBuilder::new("wild");
        b.li(g(0), 0x2000_0040); // fabricated pointer, no identifier
        b.ld8(g(1), g(0), 0);
        b.halt();
        let prog = b.build().unwrap();
        let (_, v) = run(&prog, MachineConfig::watchdog());
        assert_eq!(v.unwrap().kind, ViolationKind::WildPointer);
    }

    #[test]
    fn globals_are_always_dereferenceable() {
        let mut b = ProgramBuilder::new("globals");
        let w = b.global_u64(123);
        let slot = b.global_ptr(w);
        let (p, t, v) = (g(0), g(1), g(2));
        b.lea_global(t, slot);
        b.ld8(p, t, 0); // load the global pointer (metadata = global id)
        b.ld8(v, p, 0); // dereference it
        b.halt();
        let prog = b.build().unwrap();
        let (m, viol) = run(&prog, MachineConfig::watchdog());
        assert!(viol.is_none());
        assert_eq!(m.reg(v), 123);
    }

    #[test]
    fn metadata_flows_through_pointer_arithmetic() {
        let mut b = ProgramBuilder::new("arith");
        let (p, q, sz, v, off) = (g(0), g(1), g(2), g(3), g(4));
        b.li(sz, 128);
        b.malloc(p, sz);
        b.li(off, 40);
        b.add(q, p, off); // two-source add: select propagates p's metadata
        b.li(v, 5);
        b.st8(v, q, 0);
        b.addi(q, q, 8); // add-immediate: copy
        b.st8(v, q, 0);
        b.lea(q, q, 8); // lea: copy
        b.st8(v, q, 0);
        b.free(p);
        b.st8(v, q, 0); // all aliases die together
        b.halt();
        let prog = b.build().unwrap();
        let (_, viol) = run(&prog, MachineConfig::watchdog());
        let viol = viol.expect("dangling store through derived pointer detected");
        assert_eq!(viol.kind, ViolationKind::UseAfterFree);
    }

    #[test]
    fn profiling_marks_exactly_the_pointer_moving_instructions() {
        let mut b = ProgramBuilder::new("profile");
        let (p, q, sz, v) = (g(0), g(1), g(2), g(3));
        b.li(sz, 64);
        b.malloc(p, sz);
        let st_ptr = 2; // index of the next instruction
        b.st8(p, p, 0); // stores a pointer
        let ld_ptr = 3;
        b.ld8(q, p, 0); // loads a pointer
        let st_int = 4;
        b.li(v, 9);
        b.st8(v, p, 8); // stores an integer
        b.ld8(v, p, 8); // loads an integer
        b.halt();
        let prog = b.build().unwrap();
        let cfg = MachineConfig {
            profiling: true,
            ..MachineConfig::watchdog()
        };
        let (m, viol) = run(&prog, cfg);
        assert!(viol.is_none());
        let prof = m.profile();
        assert!(prof.is_marked(st_ptr), "pointer store marked");
        assert!(prof.is_marked(ld_ptr), "pointer load marked");
        assert!(!prof.is_marked(st_int + 1), "integer store not marked");
        assert_eq!(prof.len(), 2);
    }

    #[test]
    fn uop_stream_has_addresses_for_all_mem_uops() {
        let prog = uaf_program();
        let mut m = Machine::new(&prog, MachineConfig::watchdog());
        let mut steps = 0;
        loop {
            match m.step().unwrap() {
                Step::Executed(Some(ci)) => {
                    for u in ci.uops.iter() {
                        if u.uop.kind.is_mem() {
                            assert!(u.addr.is_some(), "mem µop without address: {:?}", u.uop);
                        }
                    }
                    steps += 1;
                }
                Step::Executed(None) => unreachable!(),
                Step::Halted | Step::Violation(_) => break,
            }
        }
        assert!(steps >= 5);
    }

    #[test]
    fn instrumented_custom_allocator_gets_exact_checking() {
        // §7: a pool allocator carving sub-objects out of a region.
        let build = |instrumented: bool| {
            let mut b = ProgramBuilder::new("pool");
            let (region, obj, sz, v, key, lock) = (g(0), g(1), g(2), g(3), g(4), g(5));
            b.li(sz, 256);
            b.malloc(region, sz);
            b.lea(obj, region, 64);
            if instrumented {
                b.new_ident(key, lock);
                b.set_ident(obj, key, lock);
            }
            b.st8(v, obj, 0);
            if instrumented {
                b.kill_ident(key, lock);
            }
            b.ld8(v, obj, 0); // use after pool-free
            b.free(region);
            b.halt();
            b.build().unwrap()
        };
        let plain = build(false);
        let (_, v) = run(&plain, MachineConfig::watchdog());
        assert!(
            v.is_none(),
            "uninstrumented pools inherit the region's identifier"
        );
        let inst = build(true);
        let (_, v) = run(&inst, MachineConfig::watchdog());
        assert_eq!(
            v.unwrap().kind,
            ViolationKind::UseAfterFree,
            "instrumented pools check exactly"
        );
    }

    #[test]
    fn double_killident_is_detected() {
        let mut b = ProgramBuilder::new("double-kill");
        let (key, lock) = (g(0), g(1));
        b.new_ident(key, lock);
        b.kill_ident(key, lock);
        b.kill_ident(key, lock);
        b.halt();
        let p = b.build().unwrap();
        let (_, v) = run(&p, MachineConfig::watchdog());
        assert_eq!(v.unwrap().kind, ViolationKind::DoubleFree);
    }

    #[test]
    fn killident_of_garbage_is_invalid_free() {
        let mut b = ProgramBuilder::new("bad-kill");
        let (key, lock) = (g(0), g(1));
        b.li(key, 123);
        b.li(lock, 0x1000); // not a lock location
        b.kill_ident(key, lock);
        b.halt();
        let p = b.build().unwrap();
        let (_, v) = run(&p, MachineConfig::watchdog());
        assert_eq!(v.unwrap().kind, ViolationKind::InvalidFree);
    }

    #[test]
    fn newident_is_inert_in_baseline_mode() {
        let mut b = ProgramBuilder::new("inert");
        let (key, lock) = (g(0), g(1));
        b.new_ident(key, lock);
        b.kill_ident(key, lock);
        b.halt();
        let p = b.build().unwrap();
        let (m, v) = run(&p, MachineConfig::baseline());
        assert!(v.is_none());
        assert_eq!(m.reg(g(0)), 0, "baseline returns null identifiers");
    }

    #[test]
    fn getident_returns_the_runtime_visible_identifier() {
        let mut b = ProgramBuilder::new("getident");
        let (p, sz, key, lock) = (g(0), g(1), g(2), g(3));
        b.li(sz, 64);
        b.malloc(p, sz);
        b.push(watchdog_isa::Inst::GetIdent { ptr: p, key, lock });
        b.halt();
        let prog = b.build().unwrap();
        let mut m = Machine::new(&prog, MachineConfig::watchdog());
        while let Step::Executed(_) = m.step().unwrap() {}
        let meta = m.meta_of(g(0));
        assert_eq!(m.reg(key), meta.key, "getident exposes the key");
        assert_eq!(m.reg(lock), meta.lock, "getident exposes the lock");
        // The lock location currently holds the key (allocation is live).
        assert_eq!(m.read_mem(meta.lock, 8), meta.key);
    }

    #[test]
    fn location_mode_detects_invalid_free() {
        let mut b = ProgramBuilder::new("badfree");
        b.li(g(0), 0x2000_1000);
        b.free(g(0));
        b.halt();
        let prog = b.build().unwrap();
        let cfg = MachineConfig {
            check: CheckMode::Location,
            ..MachineConfig::baseline()
        };
        let (_, v) = run(&prog, cfg);
        assert_eq!(v.unwrap().kind, ViolationKind::InvalidFree);
    }

    #[test]
    fn non_pointer_store_invalidates_stale_metadata() {
        // A pointer is stored to memory, then an integer overwrites it; a
        // reload must NOT resurrect the old (valid) metadata.
        let mut b = ProgramBuilder::new("clobber");
        let (p, q, sz, v, slot) = (g(0), g(1), g(2), g(3), g(4));
        b.li(sz, 64);
        b.malloc(p, sz);
        b.malloc(slot, sz);
        b.st8(p, slot, 0); // pointer store → metadata written
        b.li(v, 1234);
        b.st4(v, slot, 0); // partial integer overwrite → metadata cleared
        b.ld8(q, slot, 0); // reload: mangled value, invalid metadata
        b.ld8(v, q, 0); // dereference must fail as a wild pointer
        b.halt();
        let prog = b.build().unwrap();
        let (_, viol) = run(&prog, MachineConfig::watchdog());
        assert_eq!(viol.unwrap().kind, ViolationKind::WildPointer);
    }

    #[test]
    fn fp_values_round_trip_through_memory() {
        use watchdog_isa::{FpWidth, Fpr};
        let mut b = ProgramBuilder::new("fp");
        let (p, sz) = (g(0), g(1));
        b.li(sz, 64);
        b.malloc(p, sz);
        b.fli(Fpr::new(0), 2.5);
        b.stf(Fpr::new(0), p, 0, FpWidth::F8);
        b.ldf(Fpr::new(1), p, 0, FpWidth::F8);
        b.stf(Fpr::new(1), p, 8, FpWidth::F4);
        b.ldf(Fpr::new(2), p, 8, FpWidth::F4);
        b.falu(
            watchdog_isa::FpOp::Add,
            Fpr::new(3),
            Fpr::new(1),
            Fpr::new(2),
        );
        b.f2i(g(2), Fpr::new(3));
        b.free(p);
        b.halt();
        let prog = b.build().unwrap();
        let (m, viol) = run(&prog, MachineConfig::watchdog());
        assert!(viol.is_none());
        assert_eq!(m.reg(g(2)), 5);
        assert_eq!(m.freg(Fpr::new(1)), 2.5);
    }

    #[test]
    fn crack_cache_is_transparent_to_the_uop_stream() {
        // A loopy pointer-heavy program: every revisited PC must produce
        // exactly the µop stream an uncached machine produces, and the
        // revisits must register as cache hits.
        let build = || {
            let mut b = ProgramBuilder::new("cache-loop");
            let (p, sz, i, n, t) = (g(0), g(1), g(2), g(3), g(4));
            b.li(sz, 128);
            b.malloc(p, sz);
            b.li(i, 0);
            b.li(n, 16);
            let l = b.here();
            b.alui(AluOp::Mul, t, i, 8);
            b.add(t, p, t);
            b.st8(t, t, 0); // stores a pointer: shadow-store µop
            b.ld8(t, t, 0); // loads it back: shadow-load µop
            b.addi(i, i, 1);
            b.branch(Cond::Lt, i, n, l);
            b.free(p);
            b.halt();
            b.build().unwrap()
        };
        let stream = |cached: bool| {
            let prog = build();
            let cfg = MachineConfig {
                crack_cache: cached,
                ..MachineConfig::watchdog()
            };
            let mut m = Machine::new(&prog, cfg);
            let mut out = Vec::new();
            loop {
                match m.step().expect("no sim error") {
                    Step::Executed(Some(ci)) => out.push(format!("{ci:?}")),
                    Step::Executed(None) => unreachable!("emit_uops is on"),
                    Step::Halted | Step::Violation(_) => break,
                }
            }
            (out, m.crack_cache_stats())
        };
        let (cached, stats) = stream(true);
        let (uncached, no_stats) = stream(false);
        assert_eq!(cached, uncached, "cache must not change the µop stream");
        assert!(no_stats.is_none());
        let stats = stats.expect("cache enabled");
        assert!(stats.hits > 0, "loop revisits must hit: {stats:?}");
        assert!(stats.misses > 0, "first visits must miss: {stats:?}");
        assert!(stats.hit_rate() > 0.5, "loopy code is hit-dominated");
    }

    #[test]
    fn emit_uops_toggle_creates_the_cache_on_demand() {
        let prog = uaf_program();
        let mut cfg = MachineConfig::watchdog();
        cfg.emit_uops = false;
        let mut m = Machine::new(&prog, cfg);
        assert!(m.crack_cache_stats().is_none(), "functional-only: no cache");
        assert!(matches!(m.step().unwrap(), Step::Executed(None)));
        m.set_emit_uops(true);
        assert!(matches!(m.step().unwrap(), Step::Executed(Some(_))));
        let stats = m.crack_cache_stats().expect("cache created on demand");
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn crack_cache_invalidation_hooks_recrack() {
        let prog = uaf_program();
        let mut m = Machine::new(&prog, MachineConfig::watchdog());
        assert!(matches!(m.step().unwrap(), Step::Executed(Some(_))));
        let before = m.crack_cache_stats().unwrap();
        assert_eq!(before.misses, 1);
        m.invalidate_cracked(0);
        m.invalidate_all_cracked(); // already empty: no double count
        assert_eq!(m.crack_cache_stats().unwrap().invalidations, 1);
    }

    #[test]
    fn nested_calls_restore_frame_identifiers() {
        let mut b = ProgramBuilder::new("nest");
        let rsp = Gpr::RSP;
        let (v,) = (g(1),);
        let f1 = b.label();
        let f2 = b.label();
        b.call(f1);
        b.alui(AluOp::Sub, rsp, rsp, 16);
        b.st8(v, rsp, 0); // main's frame is valid again after the calls
        b.alui(AluOp::Add, rsp, rsp, 16);
        b.halt();
        b.bind(f1);
        b.alui(AluOp::Sub, rsp, rsp, 32);
        b.st8(v, rsp, 8);
        b.call(f2);
        b.ld8(v, rsp, 8); // f1's frame still valid after f2 returns
        b.alui(AluOp::Add, rsp, rsp, 32);
        b.ret();
        b.bind(f2);
        b.alui(AluOp::Sub, rsp, rsp, 16);
        b.st8(v, rsp, 0);
        b.alui(AluOp::Add, rsp, rsp, 16);
        b.ret();
        let prog = b.build().unwrap();
        let (m, viol) = run(&prog, MachineConfig::watchdog());
        assert!(viol.is_none(), "nested frames must validate: {viol:?}");
        assert_eq!(m.stats().calls, 2);
        assert_eq!(m.stats().rets, 2);
    }
}
