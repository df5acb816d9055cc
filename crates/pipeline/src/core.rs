//! The timestamp-based out-of-order timing model.
//!
//! The model processes the committed µop stream in program order and
//! computes, for every µop, its **dispatch**, **issue**, **completion** and
//! **commit** timestamps under the machine constraints of Table 2:
//!
//! * frontend: 16 fetch bytes/cycle, 6 µops renamed+dispatched per cycle,
//!   I-cache misses and branch-misprediction redirects stall it;
//! * windows: dispatch stalls when the 168-entry ROB, 54-entry IQ or the
//!   64/36-entry load/store queues are full;
//! * scheduling: a µop issues when its sources are ready and a functional
//!   unit / cache port of the right class is free (checks use the dedicated
//!   lock-location-cache port when present — the Fig. 9 effect);
//! * memory: load-type µops complete after address generation plus the
//!   latency reported by the cache hierarchy;
//! * commit: in order, 6 µops per cycle.
//!
//! Because injected check/metadata µops have no consumers on the program's
//! critical path, they naturally overlap with real work — which is exactly
//! why the paper's 44% µop overhead turns into only ~15% slowdown (§9.3).

use watchdog_isa::crack::{CtrlKind, MetaEffect};
use watchdog_isa::reg::{LReg, NUM_LREGS};
use watchdog_isa::uop::{UopKind, UopTag};
use watchdog_mem::{AccessClass, Hierarchy, HierarchyConfig, HierarchyStats};

use watchdog_telemetry::{MetricsRegistry, Unit};

use crate::batch::{FeedStats, MemOp, UopBatch};

use crate::bpred::{BpredStats, Predictor};
use crate::config::CoreConfig;
use crate::rename::{Rename, RenameStats};
use crate::tele::{CoreTelemetry, NUM_STALL_CAUSES, STALL_CAUSE_NAMES};
use crate::wheel::{CalendarWheel, FuPools, ReleaseRing};

/// Number of µop accounting tags.
pub const NUM_TAGS: usize = 6;

/// Registry-name suffix per µop accounting tag, in `uops_by_tag` order —
/// the single source behind both the run-level `timing.uops.*` export and
/// the CPI stack's `cpi.commit.*` metrics.
pub const TAG_NAMES: [&str; NUM_TAGS] = [
    "base",
    "check",
    "ptr_load",
    "ptr_store",
    "propagate",
    "alloc_dealloc",
];

const fn tag_index(tag: UopTag) -> usize {
    match tag {
        UopTag::Base => 0,
        UopTag::Check => 1,
        UopTag::PtrLoad => 2,
        UopTag::PtrStore => 3,
        UopTag::Propagate => 4,
        UopTag::AllocDealloc => 5,
    }
}

// Stall-cause indices into `CoreTelemetry::stall_slots`, matching
// `STALL_CAUSE_NAMES` order.
const ST_FETCH: usize = 0;
const ST_ICACHE: usize = 1;
const ST_REDIRECT: usize = 2;
const ST_ROB: usize = 3;
const ST_IQ: usize = 4;
const ST_LQ: usize = 5;
const ST_SQ: usize = 6;
const ST_FU: usize = 7;
const ST_DEP: usize = 8;
const ST_TLB: usize = 9;
const ST_LL: usize = 10;
const ST_L1D: usize = 11;

/// Functional-unit / cache-port classes the scheduler reserves from.
/// The discriminant indexes the [`FuPools`] pool arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fu {
    /// Integer ALUs (also absorb select/bounds-check/nop µops).
    IntAlu,
    /// Integer multiply/divide units.
    MulDiv,
    /// Floating-point ALUs.
    FpAlu,
    /// Floating-point multipliers.
    FpMul,
    /// Floating-point dividers.
    FpDiv,
    /// Branch-resolution units.
    Branch,
    /// L1-D load ports.
    LoadPort,
    /// L1-D store ports.
    StorePort,
    /// Dedicated lock-location-cache ports (the Fig. 9 effect).
    LlPort,
    /// Global issue bandwidth (Table 2: "Issue: 6-wide") — every µop
    /// consumes one issue slot in addition to its functional unit.
    IssueSlot,
}

/// Number of [`Fu`] classes (size of the pool arrays).
pub const NUM_FUS: usize = 10;

/// Frontend stall cycles by cause (diagnostic).
#[derive(Debug, Clone, Copy, Default)]
pub struct StallCycles {
    /// Cycles the frontend waited on a full reorder buffer.
    pub rob: u64,
    /// Cycles waited on a full issue queue.
    pub iq: u64,
    /// Cycles waited on a full load queue.
    pub lq: u64,
    /// Cycles waited on a full store queue.
    pub sq: u64,
    /// Cycles lost to I-cache misses.
    pub icache: u64,
    /// Cycles lost to branch-misprediction redirects.
    pub redirect: u64,
}

/// Final timing statistics for one run.
#[derive(Debug, Clone)]
pub struct TimingReport {
    /// Total execution cycles (commit time of the last µop).
    pub cycles: u64,
    /// Macro-instructions whose µops reached the core. A run ends at a
    /// `halt` or at the instruction that raised a violation. The
    /// functional machine's `MachineStats::insts` counts that last
    /// instruction, but it cracks to no µops and never reaches the core,
    /// so a run report's `machine.insts` is this count plus one.
    pub insts: u64,
    /// Total µops executed.
    pub uops: u64,
    /// µops by accounting tag: `[base, check, ptr_load, ptr_store,
    /// propagate, alloc_dealloc]` (Fig. 8's breakdown).
    pub uops_by_tag: [u64; NUM_TAGS],
    /// Branch-predictor statistics.
    pub bpred: BpredStats,
    /// Rename statistics (copy elimination, refcount high-water).
    pub rename: RenameStats,
    /// Memory-hierarchy statistics.
    pub hierarchy: HierarchyStats,
    /// Frontend stall cycles by cause.
    pub stalls: StallCycles,
}

impl TimingReport {
    /// µops per cycle.
    pub fn uops_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.uops as f64 / self.cycles as f64
        }
    }

    /// Macro-instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insts as f64 / self.cycles as f64
        }
    }

    /// Watchdog µop overhead relative to the baseline µops in this run
    /// (Fig. 8): `(total - base) / base`.
    pub fn uop_overhead(&self) -> f64 {
        let base = self.uops_by_tag[0];
        if base == 0 {
            0.0
        } else {
            (self.uops - base) as f64 / base as f64
        }
    }
}

/// The timing core. Feed it the committed instruction stream via
/// [`TimingCore::consume_batch`], then call [`TimingCore::finish`].
///
/// Window occupancy lives in release rings (ROB/LQ/SQ) and a calendar
/// wheel (IQ), functional units in lowest-index-first pools (see
/// [`crate::wheel`]); all are sized once in [`TimingCore::new`], so the
/// consume loop is allocation-free in the steady state.
#[derive(Debug)]
pub struct TimingCore {
    cfg: CoreConfig,
    hier: Hierarchy,
    bpred: Predictor,
    rename: Rename,
    // Frontend state.
    fe_cycle: u64,
    fe_slots: u64,
    fe_bytes: u64,
    next_fetch_earliest: u64,
    last_fetch_block: u64,
    // Window occupancy (timestamps at which entries are released).
    rob: ReleaseRing,
    iq: CalendarWheel,
    lq: ReleaseRing,
    sq: ReleaseRing,
    // Dependence tracking: completion time per logical register.
    reg_ready: [u64; NUM_LREGS],
    // Per-FU-class next-free times (one entry per unit/port).
    pools: FuPools,
    // In-order commit state.
    last_commit: u64,
    commit_cycle: u64,
    commit_count: u64,
    // Counters. `feed` holds the one instruction and µop count the
    // report, the rename statistics and every export read.
    feed: FeedStats,
    uops_by_tag: [u64; NUM_TAGS],
    stalls: StallCycles,
    // The self-profiler: observation only, no timestamp depends on it.
    tele: CoreTelemetry,
}

impl TimingCore {
    /// Builds a core with the given pipeline and hierarchy configurations.
    /// Every scheduling structure is sized here, once, from the configured
    /// window depths — the consume loop never allocates.
    pub fn new(cfg: CoreConfig, hier_cfg: HierarchyConfig) -> Self {
        let pools = FuPools::new([
            cfg.int_alus,
            cfg.muldiv_units,
            cfg.fp_alus,
            cfg.fp_muls,
            cfg.fp_divs,
            cfg.branch_units,
            cfg.load_ports,
            cfg.store_ports,
            cfg.ll_ports,
            cfg.issue_width as usize,
        ]);
        TimingCore {
            hier: Hierarchy::new(hier_cfg),
            bpred: Predictor::new(cfg.ras_entries),
            rename: Rename::new(),
            fe_cycle: 0,
            fe_slots: 0,
            fe_bytes: 0,
            next_fetch_earliest: 0,
            last_fetch_block: u64::MAX,
            rob: ReleaseRing::with_capacity(cfg.rob_entries),
            iq: CalendarWheel::with_capacity(cfg.iq_entries),
            lq: ReleaseRing::with_capacity(cfg.lq_entries),
            sq: ReleaseRing::with_capacity(cfg.sq_entries),
            reg_ready: [0; NUM_LREGS],
            pools,
            last_commit: 0,
            commit_cycle: 0,
            commit_count: 0,
            feed: FeedStats::default(),
            uops_by_tag: [0; NUM_TAGS],
            stalls: StallCycles::default(),
            tele: CoreTelemetry::default(),
            cfg,
        }
    }

    /// Exports everything the core can observe about itself — the
    /// self-profiler, the batch-feed counters and the hierarchy's
    /// lock-probe memo hits — into `reg` under the
    /// `profile.*` / `cpi.*` / `feed.*` namespaces, then
    /// `mem.ll.memo_hits` last.
    pub fn export_telemetry_into(&self, reg: &mut MetricsRegistry) {
        reg.counter_at("profile.insts", Unit::Count, self.feed.insts);
        reg.counter_at("profile.uops", Unit::Count, self.feed.uops);
        self.tele.export_into(reg);
        // CPI stack under `cpi.*`: every commit slot of every cycle
        // attributed to exactly one cause. Each committed µop takes one
        // slot under its tag, so the commit slots are the report's
        // per-tag µop totals. The drain tail — slots after the last
        // commit up to the report's cycle count, plus the unfilled
        // remainder of the last commit cycle — is computed here from the
        // same state `finish` reads, so committed + stall + drain slots
        // sum to exactly `cycles × commit_width` (the zero-slack
        // invariant).
        let width = self.cfg.commit_width;
        let cycles = self.cycles();
        reg.counter_at("cpi.cycles", Unit::Cycles, cycles);
        reg.counter_at("cpi.commit_width", Unit::Count, width);
        reg.counter_at("cpi.slots", Unit::Count, cycles * width);
        for (name, &slots) in TAG_NAMES.iter().zip(&self.uops_by_tag) {
            reg.counter_at(&format!("cpi.commit.{name}"), Unit::Count, slots);
        }
        for (name, &slots) in STALL_CAUSE_NAMES.iter().zip(&self.tele.stall_slots) {
            reg.counter_at(&format!("cpi.stall.{name}"), Unit::Count, slots);
        }
        let drain = (width - self.commit_count) + (cycles - 1 - self.last_commit) * width;
        reg.counter_at("cpi.stall.drain", Unit::Count, drain);
        self.feed.export_into(reg);
        reg.counter_at("mem.ll.memo_hits", Unit::Count, self.hier.ll_memo_hits());
    }

    /// Immutable view of the memory hierarchy (for diagnostics).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hier
    }

    /// How the committed µop stream arrived. Its `insts` and `uops` are
    /// the counters [`TimingCore::finish`] reports; only the batch count
    /// stays outside [`TimingReport`].
    pub fn feed_stats(&self) -> FeedStats {
        self.feed
    }

    /// Cycles so far: the commit time of the last µop, or the frontend's
    /// cycle when it ran past it.
    fn cycles(&self) -> u64 {
        self.last_commit.max(self.fe_cycle) + 1
    }

    fn fe_next_cycle(&mut self) {
        self.fe_cycle += 1;
        self.fe_slots = 0;
        self.fe_bytes = 0;
    }

    fn fe_stall_to(&mut self, t: u64) {
        if t > self.fe_cycle {
            self.fe_cycle = t;
            self.fe_slots = 0;
            self.fe_bytes = 0;
        }
    }

    /// Reserves an earliest-free unit of class `fu`, not before
    /// `earliest`; occupies it for `busy` cycles. Returns the start time.
    fn reserve(&mut self, fu: Fu, earliest: u64, busy: u64) -> u64 {
        self.pools.reserve(fu as usize, earliest, busy)
    }

    /// Reserves a global issue slot, then the requested functional unit —
    /// enforcing both the 6-wide issue limit and per-unit availability.
    fn reserve_issue(&mut self, fu: Fu, earliest: u64, busy: u64) -> u64 {
        let slot = self.reserve(Fu::IssueSlot, earliest, 1);
        self.reserve(fu, slot, busy)
    }

    /// Assigns a µop's commit timestamp (in order, `commit_width` per
    /// cycle).
    fn commit_time(&mut self, complete: u64) -> u64 {
        let mut t = complete.max(self.last_commit);
        if t == self.commit_cycle {
            if self.commit_count >= self.cfg.commit_width {
                t += 1;
                self.commit_cycle = t;
                self.commit_count = 1;
            } else {
                self.commit_count += 1;
            }
        } else {
            self.commit_cycle = t;
            self.commit_count = 1;
        }
        self.last_commit = t;
        t
    }

    /// Consumes a batch of committed instructions, in program order.
    ///
    /// One fused pass over the SoA arrays: per instruction it touches the
    /// packed [`InstEvent`](crate::batch::InstEvent) record once, streams
    /// the 8-byte static µop descriptors through the scheduler, and reads
    /// the `mem`/`addr` arrays only where a µop actually accesses memory.
    /// Memory accesses drive [`Hierarchy::access`] inline, in program
    /// order: the I-fetch probe stream interleaves with µop accesses under
    /// branch-predictor control (a correctly-predicted taken branch resets
    /// the fetch block), and L2/L3 back every access class, so *any*
    /// batching of the hierarchy call stream would have to materialize the
    /// same interleaved sequence first — measured to cost more than it
    /// saves. The repeated-lock-probe fast path lives inside the hierarchy
    /// instead (see the lock-probe memo).
    ///
    /// The batch carries no timing state: each stateful component
    /// (hierarchy, predictor, rename) sees the same call sequence however
    /// the stream is cut into batches, so the resulting [`TimingReport`]
    /// is identical for any batching of the same stream.
    pub fn consume_batch(&mut self, batch: &UopBatch) {
        let n = batch.len();
        if n == 0 {
            return;
        }
        let insts = batch.insts();
        let uops = batch.uop_descs();
        let mems = batch.mems();
        let addrs = batch.addrs();

        // Every count of the batch, in one cache-hot pass over the µop
        // descriptors: instructions, µops, µops by tag (the report's
        // Fig. 8 totals and the CPI stack's commit slots) and by kind.
        self.feed.batches += 1;
        self.feed.insts += n as u64;
        self.feed.uops += uops.len() as u64;
        for u in uops {
            self.uops_by_tag[tag_index(u.tag)] += 1;
            self.tele.dispatch_by_kind[u.kind as usize] += 1;
        }
        // Window occupancy at the batch boundary.
        self.tele.rob_occupancy.observe(self.rob.len() as u64);
        self.tele.iq_occupancy.observe(self.iq.len() as u64);
        self.tele.lq_occupancy.observe(self.lq.len() as u64);
        self.tele.sq_occupancy.observe(self.sq.len() as u64);

        // CPI-stack stall accumulators, flushed into the profiler once per
        // batch (a plain local, so the hot loop never re-borrows
        // `self.tele`).
        let mut cpi_stall = [0u64; NUM_STALL_CAUSES];

        let lock_via_ll = self.hier.lock_cache_enabled();
        // An I-fetch hit costs the L1 latency, which the frontend hides;
        // only the cycles beyond it stall fetch.
        let l1 = self.hier.config().l1_lat;
        // One I-cache access per new L1I line (a power of two).
        let fetch_shift = self.hier.config().l1i.block.trailing_zeros();
        for (i, ev) in insts.iter().enumerate() {
            // Frontend cause of record for this instruction's commit gaps:
            // plain fetch bandwidth unless a redirect or I-cache miss
            // starved the frontend here.
            let mut fe_cause = ST_FETCH;

            // Honour a pending redirect (mispredicted branch before us).
            if self.next_fetch_earliest > self.fe_cycle {
                self.stalls.redirect += self.next_fetch_earliest - self.fe_cycle;
                self.fe_stall_to(self.next_fetch_earliest);
                fe_cause = ST_REDIRECT;
            }

            // Instruction fetch: one I-cache access per new L1I line.
            let block = ev.pc >> fetch_shift;
            if block != self.last_fetch_block {
                self.last_fetch_block = block;
                let lat = self.hier.access(AccessClass::Ifetch, ev.pc, false);
                if lat > l1 {
                    // An I-cache miss starves the frontend for the extra
                    // cycles.
                    self.stalls.icache += lat - l1;
                    let stall_to = self.fe_cycle + (lat - l1);
                    self.fe_stall_to(stall_to);
                    fe_cause = ST_ICACHE;
                }
            }

            // Fetch bandwidth: 16 bytes per cycle.
            let len = u64::from(ev.len);
            if self.fe_bytes + len > self.cfg.fetch_bytes_per_cycle {
                self.fe_next_cycle();
            }
            self.fe_bytes += len;

            // Rename bookkeeping (map-table structure + copy elimination)
            // and its timing effect: a metadata copy makes the destination
            // ready exactly when the source is — with no µop executed.
            let r = batch.uop_range(i);
            for u in &uops[r.clone()] {
                self.rename.rename_dst(u.dst);
            }
            self.rename.apply_meta(&ev.meta);
            match ev.meta {
                MetaEffect::None => {}
                MetaEffect::Copy { dst, src } => {
                    self.reg_ready[LReg::M(dst).index()] = self.reg_ready[LReg::M(src).index()];
                }
                MetaEffect::Invalidate(r) | MetaEffect::Global(r) => {
                    self.reg_ready[LReg::M(r).index()] = 0;
                }
            }

            let mut branch_complete = 0u64;

            for ((u, &mem), &addr) in uops[r.clone()].iter().zip(&mems[r.clone()]).zip(&addrs[r]) {
                // Frontend slot (rename/dispatch width).
                if self.fe_slots >= self.cfg.rename_width {
                    self.fe_next_cycle();
                }
                self.fe_slots += 1;
                let mut disp = self.fe_cycle;

                // Which window (if any) last raised this µop's dispatch
                // time — the CPI stack's window-full attribution.
                let mut win = 0usize;

                // ROB occupancy: entries leave at commit (monotone), so
                // a full window just waits for the head.
                if self.rob.len() >= self.cfg.rob_entries {
                    let head = self.rob.pop_min().expect("rob non-empty");
                    if head > disp {
                        self.stalls.rob += head - disp;
                        self.fe_stall_to(head);
                        disp = head;
                        win = ST_ROB;
                    }
                }
                // IQ occupancy: entries leave at issue. Draining is
                // deferred to capacity events: released entries linger in
                // the wheel, but occupancy is only *observable* through
                // this full-window check, and the drain bounds (disp) stay
                // monotone — so stalls, pops and reports are identical to
                // draining every µop, at a fraction of the calls.
                if self.iq.len() >= self.cfg.iq_entries {
                    self.iq.drain_le(disp);
                    if self.iq.len() >= self.cfg.iq_entries {
                        if let Some(t) = self.iq.pop_min() {
                            if t > disp {
                                self.stalls.iq += t - disp;
                                self.fe_stall_to(t);
                                disp = t;
                                win = ST_IQ;
                            }
                        }
                    }
                }
                // LQ/SQ occupancy: entries leave at commit.
                let kind = u.kind;
                let (is_load_like, is_store_like) = match mem {
                    MemOp::None => (false, false),
                    MemOp::Read(_) => (true, false),
                    MemOp::Write(_) => (false, true),
                };
                if is_load_like {
                    if self.lq.len() >= self.cfg.lq_entries {
                        self.lq.drain_le(disp);
                        if self.lq.len() >= self.cfg.lq_entries {
                            if let Some(t) = self.lq.pop_min() {
                                if t > disp {
                                    self.stalls.lq += t - disp;
                                    self.fe_stall_to(t);
                                    disp = t;
                                    win = ST_LQ;
                                }
                            }
                        }
                    }
                } else if is_store_like && self.sq.len() >= self.cfg.sq_entries {
                    self.sq.drain_le(disp);
                    if self.sq.len() >= self.cfg.sq_entries {
                        if let Some(t) = self.sq.pop_min() {
                            if t > disp {
                                self.stalls.sq += t - disp;
                                self.fe_stall_to(t);
                                disp = t;
                                win = ST_SQ;
                            }
                        }
                    }
                }

                // Source readiness.
                let mut ready = 0u64;
                if let Some(src) = u.src1 {
                    ready = ready.max(self.reg_ready[src.index()]);
                }
                if let Some(src) = u.src2 {
                    ready = ready.max(self.reg_ready[src.index()]);
                }
                let earliest = (disp + self.cfg.dispatch_latency).max(ready);

                // Schedule on a functional unit / cache port.
                let (issue, complete) = match kind {
                    UopKind::IntAlu | UopKind::SelectMeta | UopKind::BoundsCheck | UopKind::Nop => {
                        let st = self.reserve_issue(Fu::IntAlu, earliest, 1);
                        (st, st + self.cfg.lat_int_alu)
                    }
                    UopKind::IntMul => {
                        let st = self.reserve_issue(Fu::MulDiv, earliest, 1);
                        (st, st + self.cfg.lat_int_mul)
                    }
                    UopKind::IntDiv => {
                        let st = self.reserve_issue(Fu::MulDiv, earliest, self.cfg.lat_int_div);
                        (st, st + self.cfg.lat_int_div)
                    }
                    UopKind::FpAlu => {
                        let st = self.reserve_issue(Fu::FpAlu, earliest, 1);
                        (st, st + self.cfg.lat_fp_alu)
                    }
                    UopKind::FpMul => {
                        let st = self.reserve_issue(Fu::FpMul, earliest, 1);
                        (st, st + self.cfg.lat_fp_mul)
                    }
                    UopKind::FpDiv => {
                        let st = self.reserve_issue(Fu::FpDiv, earliest, self.cfg.lat_fp_div);
                        (st, st + self.cfg.lat_fp_div)
                    }
                    UopKind::Branch => {
                        let st = self.reserve_issue(Fu::Branch, earliest, 1);
                        (st, st + 1)
                    }
                    UopKind::Load | UopKind::ShadowLoad => {
                        let st = self.reserve_issue(Fu::LoadPort, earliest, 1);
                        let MemOp::Read(class) = mem else {
                            unreachable!("load µops are classified as reads")
                        };
                        let lat = self.hier.access(class, addr, false);
                        (st, st + self.cfg.lat_agu + lat)
                    }
                    UopKind::Store | UopKind::ShadowStore => {
                        let st = self.reserve_issue(Fu::StorePort, earliest, 1);
                        let MemOp::Write(class) = mem else {
                            unreachable!("store µops are classified as writes")
                        };
                        self.hier.access(class, addr, true);
                        // Stores complete once address+data are staged;
                        // the write drains from the SQ after commit.
                        (st, st + 1)
                    }
                    UopKind::Check | UopKind::CheckCombined | UopKind::LockLoad => {
                        let port = if lock_via_ll {
                            Fu::LlPort
                        } else {
                            Fu::LoadPort
                        };
                        let st = self.reserve_issue(port, earliest, 1);
                        let lat = self.hier.access(AccessClass::Lock, addr, false);
                        (st, st + self.cfg.lat_agu + lat)
                    }
                    UopKind::LockStore => {
                        let port = if lock_via_ll {
                            Fu::LlPort
                        } else {
                            Fu::StorePort
                        };
                        let st = self.reserve_issue(port, earliest, 1);
                        self.hier.access(AccessClass::Lock, addr, true);
                        (st, st + 1)
                    }
                };

                if let Some(d) = u.dst {
                    self.reg_ready[d.index()] = complete;
                }
                if kind == UopKind::Branch {
                    branch_complete = complete;
                }

                // CPI-stack accounting, read off the commit-slot state
                // *before* `commit_time` advances it: slots between the
                // previous commit and this µop's commit are a gap, charged
                // to one cause (first match wins — memory miss outstanding,
                // FU contention, dependency wait, window full, frontend).
                // The committed µop itself takes one slot under its tag,
                // counted with the batch. Everything here is observation;
                // no timestamp depends on it.
                let width = self.cfg.commit_width;
                let t = complete.max(self.last_commit);
                let gap = if t > self.commit_cycle {
                    (width - self.commit_count) + (t - self.commit_cycle - 1) * width
                } else {
                    0
                };
                if gap > 0 {
                    // A load-class µop whose access just walked the
                    // hierarchy: the outcome flags say which structure
                    // missed (stores complete at issue+1, so a store's
                    // miss never explains its commit gap).
                    let outcome = matches!(
                        kind,
                        UopKind::Load
                            | UopKind::ShadowLoad
                            | UopKind::Check
                            | UopKind::CheckCombined
                            | UopKind::LockLoad
                    )
                    .then(|| self.hier.last_outcome());
                    let cause = match outcome {
                        Some(o) if o.tlb_miss => ST_TLB,
                        Some(o) if o.l1_miss && o.lock_path => ST_LL,
                        Some(o) if o.l1_miss => ST_L1D,
                        _ if issue > earliest => ST_FU,
                        _ if ready > disp + self.cfg.dispatch_latency => ST_DEP,
                        _ if win != 0 => win,
                        _ => fe_cause,
                    };
                    cpi_stall[cause] += gap;
                }

                // Commit: slot assignment + window pushes.
                let commit = self.commit_time(complete);
                self.rob.push(commit);
                self.iq.push(issue);
                if is_load_like {
                    self.lq.push(commit);
                } else if is_store_like {
                    self.sq.push(commit);
                }
            }

            // Branch prediction: a mispredict redirects the frontend after
            // the branch resolves; a correctly-predicted taken branch still
            // ends the current fetch group.
            if ev.ctrl != CtrlKind::None {
                let fallthrough = ev.pc + u64::from(ev.len);
                let correct = self
                    .bpred
                    .observe(ev.pc, ev.ctrl, ev.taken, ev.target, fallthrough);
                if !correct {
                    self.next_fetch_earliest = branch_complete + self.cfg.redirect_penalty;
                } else if ev.taken {
                    self.fe_next_cycle();
                    self.last_fetch_block = u64::MAX;
                }
            }
        }

        for (acc, add) in self.tele.stall_slots.iter_mut().zip(cpi_stall) {
            *acc += add;
        }
    }

    /// Finalizes the run and returns the report.
    pub fn finish(self) -> TimingReport {
        TimingReport {
            cycles: self.cycles(),
            insts: self.feed.insts,
            uops: self.feed.uops,
            uops_by_tag: self.uops_by_tag,
            bpred: self.bpred.stats(),
            // Every µop is renamed, so the rename count is the µop count.
            rename: RenameStats {
                renamed_uops: self.feed.uops,
                ..self.rename.stats()
            },
            hierarchy: self.hier.stats(),
            stalls: self.stalls,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use watchdog_isa::crack::{crack, CrackConfig, Cracked, CrackedInst};
    use watchdog_isa::insn::{AluOp, Inst, MemAddr, PtrHint, Width};
    use watchdog_isa::reg::Gpr;

    fn g(n: u8) -> Gpr {
        Gpr::new(n)
    }

    fn cracked(
        inst: &Inst,
        ptr_op: bool,
        cfg: &CrackConfig,
        pc: u64,
        addrs: &[u64],
    ) -> CrackedInst {
        let Cracked {
            mut uops,
            meta,
            ctrl,
        } = crack(inst, ptr_op, cfg);
        watchdog_isa::crack::fill_mem_addrs(&mut uops, addrs);
        CrackedInst {
            pc,
            len: inst.encoded_len(),
            uops,
            meta,
            ctrl,
        }
    }

    /// Feeds one instruction as a one-element batch.
    fn feed(core: &mut TimingCore, ci: &CrackedInst) {
        let mut batch = UopBatch::new();
        batch.push_cracked(ci);
        core.consume_batch(&batch);
    }

    fn run_alu_stream(dependent: bool, n: u64) -> TimingReport {
        let mut core = TimingCore::new(CoreConfig::sandy_bridge(), HierarchyConfig::default());
        feed_alu_stream(&mut core, dependent, n);
        core.finish()
    }

    /// Feeds `n` one-µop ALU instructions: one serial chain through `r1`
    /// when `dependent`, else eight independent destinations.
    fn feed_alu_stream(core: &mut TimingCore, dependent: bool, n: u64) {
        for i in 0..n {
            let (dst, a) = if dependent {
                (g(1), g(1))
            } else {
                (g((i % 8) as u8), g(8))
            };
            let inst = Inst::AluImm {
                op: AluOp::Add,
                dst,
                a,
                imm: 1,
            };
            let ci = cracked(
                &inst,
                false,
                &CrackConfig::baseline(),
                0x40_0000 + i * 5,
                &[],
            );
            feed(core, &ci);
        }
    }

    #[test]
    fn icache_stalls_do_not_depend_on_the_l1_hit_latency() {
        // The frontend hides an I-fetch hit at any L1 latency; only the
        // cycles a miss adds beyond it stall fetch.
        let icache = |l1_lat| {
            let hier = HierarchyConfig {
                l1_lat,
                ..HierarchyConfig::default()
            };
            let mut core = TimingCore::new(CoreConfig::sandy_bridge(), hier);
            feed_alu_stream(&mut core, false, 3000);
            core.finish().stalls.icache
        };
        let base = icache(3);
        assert!(base > 0, "the stream's first block misses");
        assert_eq!(icache(5), base);
    }

    #[test]
    fn ifetch_probes_once_per_l1i_line() {
        // A straight-line stream probes the I-cache once per new L1I line,
        // so longer lines take fewer probes.
        let ifetches = |block| {
            let mut hier = HierarchyConfig::default();
            hier.l1i.block = block;
            let mut core = TimingCore::new(CoreConfig::sandy_bridge(), hier);
            feed_alu_stream(&mut core, false, 3000);
            core.finish().hierarchy.ifetch_accesses
        };
        let (short, table2, long) = (ifetches(16), ifetches(64), ifetches(256));
        assert!(
            short > table2 && table2 > long,
            "{short} > {table2} > {long} I-fetch accesses"
        );
    }

    #[test]
    fn independent_alus_reach_wide_ipc() {
        let r = run_alu_stream(false, 3000);
        assert!(
            r.ipc() > 2.5,
            "independent ALU stream should be wide (ipc={})",
            r.ipc()
        );
    }

    #[test]
    fn dependent_chain_limits_to_one_per_cycle() {
        let r = run_alu_stream(true, 3000);
        assert!(
            r.ipc() < 1.2,
            "dependent chain must serialize (ipc={})",
            r.ipc()
        );
        assert!(r.ipc() > 0.8, "but still one per cycle (ipc={})", r.ipc());
    }

    #[test]
    fn check_uops_overlap_with_work() {
        // The same loads with and without Watchdog: the injected checks and
        // shadow loads must cost far less than their µop share.
        let mk = |wd: bool| {
            let mut core = TimingCore::new(CoreConfig::sandy_bridge(), HierarchyConfig::default());
            let cfg = if wd {
                CrackConfig::watchdog()
            } else {
                CrackConfig::baseline()
            };
            for i in 0..4000u64 {
                let addr = 0x2000_0000 + (i % 64) * 8;
                let inst = Inst::Load {
                    dst: g(1),
                    addr: MemAddr::base(g(2)),
                    width: Width::B8,
                    hint: PtrHint::Auto,
                };
                let addrs: Vec<u64> = if wd {
                    vec![0x5000_0000, addr, 0x4000_0000_0000 + (addr >> 3) * 16]
                } else {
                    vec![addr]
                };
                let ci = cracked(&inst, wd, &cfg, 0x40_0000 + i * 5, &addrs);
                feed(&mut core, &ci);
                // A consumer of the loaded value.
                let use_inst = Inst::AluImm {
                    op: AluOp::Add,
                    dst: g(3),
                    a: g(1),
                    imm: 1,
                };
                feed(
                    &mut core,
                    &cracked(&use_inst, false, &cfg, 0x40_0010 + i * 5, &[]),
                );
            }
            core.finish()
        };
        let base = mk(false);
        let wd = mk(true);
        let uop_ovh = wd.uops as f64 / base.uops as f64 - 1.0;
        let time_ovh = wd.cycles as f64 / base.cycles as f64 - 1.0;
        assert!(
            uop_ovh > 0.5,
            "watchdog should add >50% µops here ({uop_ovh:.2})"
        );
        assert!(
            time_ovh < uop_ovh * 0.7,
            "checks must be (mostly) off the critical path: time {time_ovh:.2} vs uops {uop_ovh:.2}"
        );
    }

    #[test]
    fn mispredicts_cost_cycles() {
        let mk = |pattern_random: bool| {
            let mut core = TimingCore::new(CoreConfig::sandy_bridge(), HierarchyConfig::default());
            let mut b = watchdog_isa::ProgramBuilder::new("x");
            let l = b.label();
            b.bind(l);
            b.nop();
            let mut x = 0x9E3779B97F4A7C15u64;
            for i in 0..4000u64 {
                let taken = if pattern_random {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (x >> 62) & 1 == 1
                } else {
                    true
                };
                let inst = Inst::Branch {
                    cond: watchdog_isa::Cond::Eq,
                    a: g(0),
                    b: g(0),
                    target: l,
                };
                let mut ci = cracked(
                    &inst,
                    false,
                    &CrackConfig::baseline(),
                    0x40_0000 + (i % 13) * 6,
                    &[],
                );
                let n = ci.uops.len();
                ci.uops.as_mut_slice()[n - 1].taken = taken;
                ci.uops.as_mut_slice()[n - 1].target = 0x40_0000;
                feed(&mut core, &ci);
            }
            core.finish()
        };
        let predictable = mk(false);
        let random = mk(true);
        assert!(
            random.cycles > predictable.cycles * 2,
            "random branches must be much slower ({} vs {})",
            random.cycles,
            predictable.cycles
        );
    }

    #[test]
    fn cache_misses_slow_down_pointer_chase() {
        let mk = |stride: u64| {
            let mut core = TimingCore::new(CoreConfig::sandy_bridge(), HierarchyConfig::default());
            for i in 0..3000u64 {
                // Dependent loads (pointer chase): dst is also the base.
                let inst = Inst::Load {
                    dst: g(1),
                    addr: MemAddr::base(g(1)),
                    width: Width::B8,
                    hint: PtrHint::Auto,
                };
                // Large strides defeat caches and the prefetcher.
                let addr = 0x2000_0000 + (i * stride) % (64 << 20);
                let ci = cracked(&inst, false, &CrackConfig::baseline(), 0x40_0000, &[addr]);
                feed(&mut core, &ci);
            }
            core.finish()
        };
        let near = mk(8);
        let far = mk(4097 * 64);
        assert!(
            far.cycles > near.cycles * 3,
            "cache-hostile chase must be slower ({} vs {})",
            far.cycles,
            near.cycles
        );
    }

    #[test]
    fn report_metrics() {
        let r = run_alu_stream(false, 100);
        assert_eq!(r.insts, 100);
        assert_eq!(r.uops, 100);
        assert!(r.uops_per_cycle() > 0.0);
        assert_eq!(r.uop_overhead(), 0.0, "baseline run has no overhead µops");
    }

    /// A mixed stream (dependent loads, random branches, independent ALU
    /// work) through the core; returns the report's `Debug` rendering.
    fn run_mixed() -> String {
        let mut core = TimingCore::new(CoreConfig::sandy_bridge(), HierarchyConfig::default());
        let cfg = CrackConfig::watchdog();
        let mut b = watchdog_isa::ProgramBuilder::new("x");
        let l = b.label();
        b.bind(l);
        b.nop();
        let mut x = 0x243F6A8885A308D3u64;
        for i in 0..2000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let addr = 0x2000_0000 + (x % (8 << 20)) / 8 * 8;
            let load = Inst::Load {
                dst: g(1),
                addr: MemAddr::base(g(1)),
                width: Width::B8,
                hint: PtrHint::Auto,
            };
            let addrs = [0x5000_0000, addr, 0x4000_0000_0000 + (addr >> 3) * 16];
            feed(
                &mut core,
                &cracked(&load, true, &cfg, 0x40_0000 + (i % 40) * 6, &addrs),
            );
            let alu = Inst::AluImm {
                op: AluOp::Add,
                dst: g((i % 8) as u8),
                a: g(1),
                imm: 1,
            };
            feed(
                &mut core,
                &cracked(&alu, false, &cfg, 0x40_0100 + (i % 40) * 6, &[]),
            );
            let br = Inst::Branch {
                cond: watchdog_isa::Cond::Eq,
                a: g(0),
                b: g(0),
                target: l,
            };
            let mut ci = cracked(&br, false, &cfg, 0x40_0200 + (i % 13) * 6, &[]);
            let n = ci.uops.len();
            ci.uops.as_mut_slice()[n - 1].taken = (x >> 62) & 1 == 1;
            ci.uops.as_mut_slice()[n - 1].target = 0x40_0000;
            feed(&mut core, &ci);
        }
        format!("{:?}", core.finish())
    }

    /// Pins the mixed stream's report: the FNV-1a 64 digest of its
    /// `Debug` rendering, the same digest the workspace golden corpus
    /// keeps per report. A scheduling change that moves any counter of
    /// this stream fails here first.
    #[test]
    fn mixed_stream_report_digest_is_pinned() {
        let report = run_mixed();
        let h = watchdog_mem::hash::fnv1a(watchdog_mem::hash::FNV_OFFSET, report.as_bytes());
        assert_eq!(h, 0xf70a_46dd_2e62_d952, "report changed: {report}");
    }

    /// The CPI stack's committed + stall + drain slots sum to exactly
    /// `cycles × commit_width`, and the exported commit slots are the
    /// report's per-tag µop totals.
    #[test]
    fn cpi_stack_is_zero_slack_on_a_mixed_stream() {
        let mut core = TimingCore::new(CoreConfig::sandy_bridge(), HierarchyConfig::default());
        let cfg = CrackConfig::watchdog();
        let mut x = 0x243F6A8885A308D3u64;
        for i in 0..3000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let addr = 0x2000_0000 + (x % (8 << 20)) / 8 * 8;
            let load = Inst::Load {
                dst: g(1),
                addr: MemAddr::base(g(1)),
                width: Width::B8,
                hint: PtrHint::Auto,
            };
            let addrs = [0x5000_0000, addr, 0x4000_0000_0000 + (addr >> 3) * 16];
            feed(
                &mut core,
                &cracked(&load, true, &cfg, 0x40_0000 + (i % 40) * 6, &addrs),
            );
        }
        let mut reg = MetricsRegistry::new();
        core.export_telemetry_into(&mut reg);
        let get = |name: &str| reg.counter_value(name).unwrap_or_else(|| panic!("{name}"));
        let slots = get("cpi.slots");
        assert_eq!(
            slots,
            get("cpi.cycles") * get("cpi.commit_width"),
            "slots metric is cycles × width"
        );
        let committed: u64 = TAG_NAMES
            .iter()
            .map(|n| get(&format!("cpi.commit.{n}")))
            .sum();
        let stalled: u64 = STALL_CAUSE_NAMES
            .iter()
            .map(|n| get(&format!("cpi.stall.{n}")))
            .sum::<u64>()
            + get("cpi.stall.drain");
        assert_eq!(committed + stalled, slots, "zero-slack accounting");
        // The commit slots are the report's per-tag totals, and some gap
        // slots must have been attributed to memory misses on this
        // cache-hostile chase.
        let miss_slots = get("cpi.stall.tlb_miss") + get("cpi.stall.l1d_miss");
        assert!(miss_slots > 0, "pointer chase must show miss stalls");
        let r = core.finish();
        assert_eq!(committed, r.uops, "every µop commits into one slot");
        for (i, name) in TAG_NAMES.iter().enumerate() {
            assert_eq!(
                get(&format!("cpi.commit.{name}")),
                r.uops_by_tag[i],
                "{name} slots drift from the report's tag totals"
            );
        }
    }

    /// The CPI stack charges each commit gap to one cause, first match
    /// wins: miss > FU > dep > window > frontend. A serial ALU chain
    /// fills the IQ (up to 6 µops rename per cycle, 1 issues), so from
    /// then on every µop's dispatch waits for an IQ entry *and* its
    /// source waits on the chain. The dependency claims every such gap:
    /// the report counts IQ-full cycles, yet `iq_full` takes no slot. The
    /// only other gaps follow the straight-line stream's cold I-cache
    /// misses, which starve the frontend until the IQ has drained.
    #[test]
    fn dependency_waits_outrank_a_full_iq() {
        let mut core = TimingCore::new(CoreConfig::sandy_bridge(), HierarchyConfig::default());
        feed_alu_stream(&mut core, true, 3000);
        let mut reg = MetricsRegistry::new();
        core.export_telemetry_into(&mut reg);
        let get = |name: &str| reg.counter_value(name).unwrap_or_else(|| panic!("{name}"));
        let r = core.finish();
        assert!(
            r.stalls.iq > r.cycles / 2,
            "the IQ is full most of the run ({} of {} cycles)",
            r.stalls.iq,
            r.cycles
        );
        assert_eq!(get("cpi.stall.iq_full"), 0, "a dep wait outranks the IQ");
        let gaps: u64 = STALL_CAUSE_NAMES
            .iter()
            .map(|n| get(&format!("cpi.stall.{n}")))
            .sum();
        let (dep, icache) = (get("cpi.stall.dep"), get("cpi.stall.icache"));
        assert!(dep > 10 * icache, "dep {dep}, icache {icache}");
        assert_eq!(gaps, dep + icache, "no other cause claims a slot");
    }
}
