//! Lifetime-script sampling and program emission.
//!
//! Generation happens in two phases, and the ordering is the whole trick:
//!
//! 1. **Sample a lifetime script** against an exact model of the guest
//!    heap: which allocations exist, which are live, which registers /
//!    global slots / heap words hold which pointer (and at what offset).
//!    Every sampled operation is *legal by construction* — a benign access
//!    only goes through a live pointer at an in-bounds offset, a free only
//!    through an allocation base — so the generator knows the precise
//!    run-time fate of every instruction before it is emitted.
//! 2. **Append a payload**: either a benign epilogue or one constructed
//!    memory-safety violation (use-after-free through four aliasing
//!    routes, reallocation reuse, double free, use-after-return, wild
//!    dereference, invalid free, or an instrumented pool allocator's
//!    sub-object use-after-free). Because the script above is benign by
//!    construction, the payload's faulting instruction is *exactly* the
//!    first (and only) violation in the program — that fact, its expected
//!    [`ViolationKind`] and its instruction index form the [`Oracle`].
//!
//! Every bad program also gets a **benign twin** (the same script with the
//! payload defused, in the style of the Juliet "good" functions) used for
//! false-positive testing.
//!
//! Offsets are 8-byte aligned, accesses are full words, and allocation
//! sizes are exact allocator size classes — so the reallocation payload
//! can *guarantee* LIFO address reuse, the case location-based checking
//! (§2.1, Table 1) is provably blind to.

use crate::rng::Rng;
use std::collections::BTreeMap;
use watchdog_core::error::ViolationKind;
use watchdog_isa::layout::{GLOBAL_BASE, GLOBAL_SIZE};
use watchdog_isa::{AluOp, Cond, Gpr, Label, Program, ProgramBuilder};
use watchdog_mem::hash::{fnv1a, FNV_OFFSET};

/// Number of register pointer slots the script plays with (`r0..r4`;
/// `r0` always holds the protected victim allocation's base).
const SLOTS: usize = 5;
/// Number of global stash slots.
const GSLOTS: usize = 4;

// Register conventions (disjoint from the slot registers).
const ALIAS: Gpr = Gpr::new(5); // payload alias pointer
const SCRATCH: Gpr = Gpr::new(6); // integer scratch
const SIZE: Gpr = Gpr::new(7); // malloc size argument
const CTR: Gpr = Gpr::new(8); // loop counter
const ADDR: Gpr = Gpr::new(9); // address / call-argument register
const CALLEE: Gpr = Gpr::new(10); // callee scratch
const BOUND: Gpr = Gpr::new(11); // loop bound

fn slot(i: usize) -> Gpr {
    Gpr::new(i as u8)
}

/// Generator tunables. The defaults produce programs of a few dozen to a
/// couple hundred dynamic instructions — large enough to entangle
/// lifetimes, small enough to run an up-to-12-way differential matrix per seed.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Minimum script operations (before the payload).
    pub min_ops: usize,
    /// Maximum script operations.
    pub max_ops: usize,
    /// Allocation sizes to sample from. **Must be exact allocator size
    /// classes** (16/32/64/128/256/…): the reallocation oracle relies on a
    /// same-size malloc popping the just-freed chunk from its LIFO bin.
    pub sizes: Vec<u64>,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            min_ops: 6,
            max_ops: 24,
            sizes: vec![16, 32, 64, 128, 256],
        }
    }
}

/// What a register slot / stash slot / heap word holds, as tracked by the
/// sampling model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Val {
    /// A non-pointer (or a value the model refuses to reason about —
    /// never dereferenced, never freed).
    Garbage,
    /// A pointer `off` bytes into allocation `alloc`. Offsets are always
    /// kept in `[0, size-8]`, so a word access through the value is
    /// in-bounds whenever the allocation is live.
    Ptr {
        /// Index into the model's allocation table.
        alloc: usize,
        /// Byte offset from the allocation base (8-aligned).
        off: u64,
    },
}

/// One sampled script operation with fully-resolved operands. Emission is
/// a deterministic replay, so the bad program and its benign twin share
/// the script instruction-for-instruction.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `slot = malloc(size)`.
    Malloc { dst: usize, size: u64 },
    /// `free(slot)` — slot is a live allocation base (never the victim).
    Free { s: usize },
    /// `dst = src` (register pointer copy).
    Copy { dst: usize, src: usize },
    /// `dst = src + delta` (pointer arithmetic, stays in-bounds).
    Lea { dst: usize, src: usize, delta: i32 },
    /// Store an integer through a live slot.
    StoreInt { s: usize, disp: i32, val: i64 },
    /// Load a word through a live slot into the integer scratch.
    LoadInt { s: usize, disp: i32 },
    /// Store slot `src`'s pointer into a live allocation's word.
    PtrStore { dst: usize, disp: i32, src: usize },
    /// Load a (model-tracked) heap word into a slot.
    PtrLoad { dst: usize, src: usize, disp: i32 },
    /// Publish a slot to a global stash slot.
    StashStore { g: usize, src: usize },
    /// Reload a global stash slot into a register slot.
    StashLoad { dst: usize, g: usize },
    /// Pass a live pointer to the access helper function (`call`).
    CallAccess { s: usize },
    /// Call the frame helper (stack allocate, store, load, return).
    CallFrame,
    /// A small counted loop of loads through a live slot.
    LoopLoad { s: usize, disp: i32, iters: i64 },
}

/// The sampling model: exact knowledge of every pointer the program will
/// hold and every allocation's liveness at each script position.
#[derive(Debug)]
struct Model {
    /// `(size, live)` per allocation; index 0 is the protected victim.
    allocs: Vec<(u64, bool)>,
    /// Model of heap words that were stored through: `(alloc, offset) ->
    /// value`. Words never stored through read back as `Garbage`.
    words: BTreeMap<(usize, u64), Val>,
    regs: [Val; SLOTS],
    stash: [Val; GSLOTS],
}

impl Model {
    fn new(victim_size: u64) -> Self {
        let mut regs = [Val::Garbage; SLOTS];
        regs[0] = Val::Ptr { alloc: 0, off: 0 };
        Model {
            allocs: vec![(victim_size, true)],
            words: BTreeMap::new(),
            regs,
            stash: [Val::Garbage; GSLOTS],
        }
    }

    fn size_of(&self, alloc: usize) -> u64 {
        self.allocs[alloc].0
    }

    fn live(&self, alloc: usize) -> bool {
        self.allocs[alloc].1
    }

    /// Slots holding a pointer to a live allocation.
    fn live_slots(&self) -> Vec<usize> {
        (0..SLOTS)
            .filter(|&i| matches!(self.regs[i], Val::Ptr { alloc, .. } if self.live(alloc)))
            .collect()
    }

    /// Slots that may legally be freed: a live allocation base that is not
    /// the victim (the payload needs the victim alive).
    fn free_candidates(&self) -> Vec<usize> {
        (1..SLOTS)
            .filter(|&i| {
                matches!(self.regs[i], Val::Ptr { alloc, off: 0 } if alloc != 0 && self.live(alloc))
            })
            .collect()
    }

    /// Slots holding any pointer, live or dangling (copying and stashing a
    /// dangling pointer is benign; only dereferencing it is not).
    fn ptr_slots(&self) -> Vec<usize> {
        (0..SLOTS)
            .filter(|&i| matches!(self.regs[i], Val::Ptr { .. }))
            .collect()
    }

    /// Applies the model effect of `op` (mirrors the emitted semantics).
    fn apply(&mut self, op: Op) {
        match op {
            Op::Malloc { dst, size } => {
                self.allocs.push((size, true));
                self.regs[dst] = Val::Ptr {
                    alloc: self.allocs.len() - 1,
                    off: 0,
                };
            }
            Op::Free { s } => {
                let Val::Ptr { alloc, .. } = self.regs[s] else {
                    unreachable!("free candidates hold pointers");
                };
                self.allocs[alloc].1 = false;
            }
            Op::Copy { dst, src } => self.regs[dst] = self.regs[src],
            Op::Lea { dst, src, delta } => {
                let Val::Ptr { alloc, off } = self.regs[src] else {
                    unreachable!("lea sources hold pointers");
                };
                self.regs[dst] = Val::Ptr {
                    alloc,
                    off: (off as i64 + delta as i64) as u64,
                };
            }
            Op::StoreInt { s, disp, .. } => {
                let (alloc, abs) = self.resolve(s, disp);
                self.words.insert((alloc, abs), Val::Garbage);
            }
            Op::LoadInt { .. } | Op::CallAccess { .. } | Op::CallFrame | Op::LoopLoad { .. } => {}
            Op::PtrStore { dst, disp, src } => {
                let (alloc, abs) = self.resolve(dst, disp);
                let v = self.regs[src];
                self.words.insert((alloc, abs), v);
            }
            Op::PtrLoad { dst, src, disp } => {
                let (alloc, abs) = self.resolve(src, disp);
                self.regs[dst] = self
                    .words
                    .get(&(alloc, abs))
                    .copied()
                    .unwrap_or(Val::Garbage);
            }
            Op::StashStore { g, src } => self.stash[g] = self.regs[src],
            Op::StashLoad { dst, g } => self.regs[dst] = self.stash[g],
        }
    }

    /// Absolute `(alloc, offset)` a displacement off a slot resolves to.
    fn resolve(&self, s: usize, disp: i32) -> (usize, u64) {
        let Val::Ptr { alloc, off } = self.regs[s] else {
            unreachable!("accesses go through pointer slots");
        };
        (alloc, (off as i64 + disp as i64) as u64)
    }
}

/// Samples an 8-aligned in-bounds word offset of an allocation.
fn aligned_off(rng: &mut Rng, size: u64) -> u64 {
    8 * rng.below(size / 8)
}

/// Displacement from slot `s`'s current offset to a random in-bounds word.
fn in_bounds_disp(rng: &mut Rng, model: &Model, s: usize) -> i32 {
    let Val::Ptr { alloc, off } = model.regs[s] else {
        unreachable!("caller checked the slot holds a pointer");
    };
    (aligned_off(rng, model.size_of(alloc)) as i64 - off as i64) as i32
}

/// Samples one legal operation, or `None` if the picked kind has no legal
/// instantiation in the current model state.
fn try_op(rng: &mut Rng, model: &Model, cfg: &GenConfig) -> Option<Op> {
    let dst = 1 + rng.below(SLOTS as u64 - 1) as usize;
    match rng.below(13) {
        0 | 1 => Some(Op::Malloc {
            dst,
            size: *rng.pick(&cfg.sizes),
        }),
        2 => {
            let c = model.free_candidates();
            (!c.is_empty()).then(|| Op::Free { s: *rng.pick(&c) })
        }
        3 => Some(Op::Copy {
            dst,
            src: rng.below(SLOTS as u64) as usize,
        }),
        4 => {
            let c = model.live_slots();
            (!c.is_empty()).then(|| {
                let src = *rng.pick(&c);
                Op::Lea {
                    dst,
                    src,
                    delta: in_bounds_disp(rng, model, src),
                }
            })
        }
        5 => {
            let c = model.live_slots();
            (!c.is_empty()).then(|| {
                let s = *rng.pick(&c);
                Op::StoreInt {
                    s,
                    disp: in_bounds_disp(rng, model, s),
                    val: rng.below(1u64 << 32) as i64,
                }
            })
        }
        6 => {
            let c = model.live_slots();
            (!c.is_empty()).then(|| {
                let s = *rng.pick(&c);
                Op::LoadInt {
                    s,
                    disp: in_bounds_disp(rng, model, s),
                }
            })
        }
        7 => {
            let (d, s) = (model.live_slots(), model.ptr_slots());
            (!d.is_empty() && !s.is_empty()).then(|| {
                let store_to = *rng.pick(&d);
                Op::PtrStore {
                    dst: store_to,
                    disp: in_bounds_disp(rng, model, store_to),
                    src: *rng.pick(&s),
                }
            })
        }
        8 => {
            let c = model.live_slots();
            (!c.is_empty()).then(|| {
                let src = *rng.pick(&c);
                Op::PtrLoad {
                    dst,
                    src,
                    disp: in_bounds_disp(rng, model, src),
                }
            })
        }
        9 => {
            let c = model.ptr_slots();
            (!c.is_empty()).then(|| Op::StashStore {
                g: rng.below(GSLOTS as u64) as usize,
                src: *rng.pick(&c),
            })
        }
        10 => Some(Op::StashLoad {
            dst,
            g: rng.below(GSLOTS as u64) as usize,
        }),
        11 => {
            let c = model.live_slots();
            if c.is_empty() || rng.chance(1, 3) {
                Some(Op::CallFrame)
            } else {
                Some(Op::CallAccess { s: *rng.pick(&c) })
            }
        }
        _ => {
            let c = model.live_slots();
            (!c.is_empty()).then(|| {
                let s = *rng.pick(&c);
                Op::LoopLoad {
                    s,
                    disp: in_bounds_disp(rng, model, s),
                    iters: 2 + rng.below(3) as i64,
                }
            })
        }
    }
}

fn sample_script(rng: &mut Rng, model: &mut Model, n_ops: usize, cfg: &GenConfig) -> Vec<Op> {
    let mut script = Vec::with_capacity(n_ops);
    while script.len() < n_ops {
        // A picked kind may be infeasible (nothing to free yet, say);
        // resample a bounded number of times, then fall back to a malloc,
        // which is always legal and unblocks everything else.
        let op = (0..8)
            .find_map(|_| try_op(rng, model, cfg))
            .unwrap_or(Op::Malloc {
                dst: 1,
                size: cfg.sizes[0],
            });
        model.apply(op);
        script.push(op);
    }
    script
}

/// The script's terminal act: either a benign epilogue or one constructed
/// violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Payload {
    /// No violation: the victim is freed and the program halts cleanly.
    Benign,
    /// Use-after-free of the victim allocation, through one of the
    /// aliasing routes.
    UseAfterFree(Route),
    /// Use-after-free where the freed chunk is first *reallocated* by a
    /// same-size malloc (guaranteed LIFO address reuse): the Fig. 1-left /
    /// Table 1 case a location-based checker is blind to.
    UseAfterRealloc,
    /// The victim is freed twice.
    DoubleFree,
    /// A frame-local address escapes through a global and is dereferenced
    /// after the frame pops (CWE-562 shape).
    UseAfterReturn,
    /// A §7 custom allocator: the program carves a sub-object out of the
    /// (still-live) victim region and manages its identifier itself with
    /// `newident`/`setident`/`killident` — then dereferences the
    /// sub-object after returning it to the pool. The region stays
    /// allocated, so location-based checking is blind; the killed
    /// identifier catches the use exactly.
    PoolUseAfterFree,
    /// Dereference of a fabricated address that never had an identifier.
    WildPointer,
    /// `free` of a register that never held a valid pointer.
    InvalidFree,
}

/// How the dangling pointer reaches its dereference in a
/// [`Payload::UseAfterFree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Route {
    /// Through the freeing register itself.
    Direct,
    /// Through an interior alias created by pointer arithmetic.
    Alias,
    /// Stashed to a global before the free, reloaded after (shadow-space
    /// round trip).
    Stash,
    /// Passed to a callee that performs the dereference (the faulting
    /// instruction lives in another function).
    Call,
}

/// Ground truth for one generated program: what the differential harness
/// must observe under identifier-based checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Oracle {
    /// The payload the program was built around.
    pub payload: Payload,
    /// Expected violation under Watchdog modes (`None` = must run clean).
    pub expected: Option<ViolationKind>,
    /// Instruction index the violation must be raised at.
    pub expected_pc: Option<usize>,
    /// Whether location-based checking (§2.1) is expected to *miss* the
    /// violation (the reallocation case).
    pub location_blind: bool,
}

/// One generated case: the program, its benign twin and the oracle.
#[derive(Debug, Clone)]
pub struct Generated {
    /// The generating seed (the complete reproduction recipe).
    pub seed: u64,
    /// The program under test (violating unless the payload is benign).
    pub program: Program,
    /// The benign twin: same script, payload defused. Must run clean
    /// under every checking mode.
    pub twin: Program,
    /// Ground truth.
    pub oracle: Oracle,
}

impl Generated {
    /// FNV-1a digest over both programs' disassembly and the oracle —
    /// a compact fingerprint for determinism assertions.
    pub fn digest(&self) -> u64 {
        [
            self.program.disassemble(),
            self.twin.disassemble(),
            format!("{:?}", self.oracle),
        ]
        .iter()
        .fold(FNV_OFFSET, |h, text| fnv1a(h, text.as_bytes()))
    }
}

/// Emission context: pre-emitted helper functions and global slots.
struct Helpers {
    fn_access: Label,
    /// Instruction index of the dereference inside the access helper.
    fn_access_pc: usize,
    fn_frame: Label,
    fn_publish: Label,
    /// Global slot the publish helper writes the escaping address to.
    pub_slot: u64,
    /// Global slot reserved for the payload's stash route.
    payload_stash: u64,
    /// Base of the script's stash array.
    stash_base: u64,
}

fn emit_helpers(b: &mut ProgramBuilder) -> Helpers {
    let pub_slot = b.global_bytes(8, 8);
    let payload_stash = b.global_bytes(8, 8);
    let stash_base = b.global_array_u64(GSLOTS as u64);
    let main = b.label();
    b.jmp(main);
    // fn_access(ADDR): dereference the argument pointer.
    let fn_access = b.here();
    let fn_access_pc = b.next_index();
    b.ld8(CALLEE, ADDR, 0);
    b.ret();
    // fn_frame(): allocate a frame, store/load a local, return.
    let fn_frame = b.here();
    b.alui(AluOp::Sub, Gpr::RSP, Gpr::RSP, 32);
    b.st8(CALLEE, Gpr::RSP, 0);
    b.ld8(CALLEE, Gpr::RSP, 0);
    b.alui(AluOp::Add, Gpr::RSP, Gpr::RSP, 32);
    b.ret();
    // fn_publish(): escape a frame-local address through `pub_slot`.
    let fn_publish = b.here();
    b.alui(AluOp::Sub, Gpr::RSP, Gpr::RSP, 32);
    b.li(CALLEE, 7);
    b.st8(CALLEE, Gpr::RSP, 0);
    b.lea(ADDR, Gpr::RSP, 0);
    b.lea_global(CALLEE, pub_slot);
    b.st8(ADDR, CALLEE, 0);
    b.alui(AluOp::Add, Gpr::RSP, Gpr::RSP, 32);
    b.ret();
    b.bind(main);
    Helpers {
        fn_access,
        fn_access_pc,
        fn_frame,
        fn_publish,
        pub_slot,
        payload_stash,
        stash_base,
    }
}

fn emit_op(b: &mut ProgramBuilder, h: &Helpers, op: Op) {
    match op {
        Op::Malloc { dst, size } => {
            b.li(SIZE, size as i64);
            b.malloc(slot(dst), SIZE);
        }
        Op::Free { s } => {
            b.free(slot(s));
        }
        Op::Copy { dst, src } => {
            b.mov(slot(dst), slot(src));
        }
        Op::Lea { dst, src, delta } => {
            b.lea(slot(dst), slot(src), delta);
        }
        Op::StoreInt { s, disp, val } => {
            b.li(SCRATCH, val);
            b.st8(SCRATCH, slot(s), disp);
        }
        Op::LoadInt { s, disp } => {
            b.ld8(SCRATCH, slot(s), disp);
        }
        Op::PtrStore { dst, disp, src } => {
            b.st8(slot(src), slot(dst), disp);
        }
        Op::PtrLoad { dst, src, disp } => {
            b.ld8(slot(dst), slot(src), disp);
        }
        Op::StashStore { g, src } => {
            b.lea_global(ADDR, h.stash_base + 8 * g as u64);
            b.st8(slot(src), ADDR, 0);
        }
        Op::StashLoad { dst, g } => {
            b.lea_global(ADDR, h.stash_base + 8 * g as u64);
            b.ld8(slot(dst), ADDR, 0);
        }
        Op::CallAccess { s } => {
            b.mov(ADDR, slot(s));
            b.call(h.fn_access);
        }
        Op::CallFrame => {
            b.call(h.fn_frame);
        }
        Op::LoopLoad { s, disp, iters } => {
            b.li(CTR, 0);
            b.li(BOUND, iters);
            let top = b.here();
            b.ld8(SCRATCH, slot(s), disp);
            b.addi(CTR, CTR, 1);
            b.branch(Cond::Lt, CTR, BOUND, top);
        }
    }
}

/// Parameters the payload emitters need; sampled once so the bad program
/// and the twin are built from identical ingredients.
struct PayloadPlan {
    payload: Payload,
    /// Victim allocation size.
    vsize: u64,
    /// In-bounds, 8-aligned dereference offset into the victim.
    off: i32,
    /// Fabricated address for the wild/invalid payloads: inside the global
    /// segment (so a baseline read is harmless and location-based
    /// checking, which tracks the heap only, stays silent).
    wild_addr: i64,
}

/// Emits the payload; returns the faulting instruction's index for bad
/// emissions of violating payloads.
fn emit_payload(
    b: &mut ProgramBuilder,
    h: &Helpers,
    plan: &PayloadPlan,
    bad: bool,
) -> Option<usize> {
    let victim = slot(0);
    match plan.payload {
        Payload::Benign => {
            b.free(victim);
            None
        }
        Payload::UseAfterFree(route) => {
            let pc = match (route, bad) {
                (Route::Direct, true) => {
                    b.free(victim);
                    let pc = b.next_index();
                    b.ld8(SCRATCH, victim, plan.off);
                    pc
                }
                (Route::Direct, false) => {
                    b.ld8(SCRATCH, victim, plan.off);
                    b.free(victim);
                    0
                }
                (Route::Alias, true) => {
                    b.lea(ALIAS, victim, plan.off);
                    b.free(victim);
                    let pc = b.next_index();
                    b.ld8(SCRATCH, ALIAS, 0);
                    pc
                }
                (Route::Alias, false) => {
                    b.lea(ALIAS, victim, plan.off);
                    b.ld8(SCRATCH, ALIAS, 0);
                    b.free(victim);
                    0
                }
                (Route::Stash, true) => {
                    b.lea_global(ADDR, h.payload_stash);
                    b.st8(victim, ADDR, 0);
                    b.free(victim);
                    b.lea_global(ADDR, h.payload_stash);
                    b.ld8(ALIAS, ADDR, 0);
                    let pc = b.next_index();
                    b.ld8(SCRATCH, ALIAS, plan.off);
                    pc
                }
                (Route::Stash, false) => {
                    b.lea_global(ADDR, h.payload_stash);
                    b.st8(victim, ADDR, 0);
                    b.lea_global(ADDR, h.payload_stash);
                    b.ld8(ALIAS, ADDR, 0);
                    b.ld8(SCRATCH, ALIAS, plan.off);
                    b.free(victim);
                    0
                }
                (Route::Call, true) => {
                    b.free(victim);
                    b.mov(ADDR, victim);
                    b.call(h.fn_access);
                    h.fn_access_pc
                }
                (Route::Call, false) => {
                    b.mov(ADDR, victim);
                    b.call(h.fn_access);
                    b.free(victim);
                    0
                }
            };
            bad.then_some(pc)
        }
        Payload::UseAfterRealloc => {
            // The alias dangles; a same-size malloc recycles the chunk
            // (LIFO), so the dangling dereference lands in *live* memory —
            // invisible to location-based checking, caught by the
            // never-reused key.
            b.lea(ALIAS, victim, plan.off);
            b.free(victim);
            b.li(SIZE, plan.vsize as i64);
            b.malloc(slot(4), SIZE);
            if bad {
                let pc = b.next_index();
                b.ld8(SCRATCH, ALIAS, 0);
                Some(pc)
            } else {
                b.ld8(SCRATCH, slot(4), plan.off);
                b.free(slot(4));
                None
            }
        }
        Payload::DoubleFree => {
            b.free(victim);
            if bad {
                let pc = b.next_index();
                b.free(victim);
                Some(pc)
            } else {
                None
            }
        }
        Payload::PoolUseAfterFree => {
            // Pool-allocator instrumentation (§7, promoted from
            // `examples/custom_allocator.rs`): obj_a gets its own
            // identifier; obj_b is an uninstrumented sibling that keeps
            // inheriting the region's identifier and must stay valid
            // throughout.
            let off_b = ((plan.off as u64 + 8) % plan.vsize) as i32;
            b.lea(ALIAS, victim, plan.off); // obj_a = region + off
            b.new_ident(CTR, BOUND); // fresh key + lock location
            b.set_ident(ALIAS, CTR, BOUND);
            b.li(SCRATCH, 11);
            b.st8(SCRATCH, ALIAS, 0); // use obj_a while pool-live
            b.lea(ADDR, victim, off_b); // obj_b, uninstrumented
            b.li(SCRATCH, 22);
            b.st8(SCRATCH, ADDR, 0); // checked against the region's id
            if bad {
                b.kill_ident(CTR, BOUND); // pool-free of obj_a
                let pc = b.next_index();
                b.ld8(SCRATCH, ALIAS, 0); // sub-object use-after-free
                Some(pc)
            } else {
                b.ld8(SCRATCH, ALIAS, 0); // use *before* the pool-free
                b.kill_ident(CTR, BOUND);
                b.ld8(SCRATCH, ADDR, 0); // the sibling outlives the kill
                b.free(victim);
                None
            }
        }
        Payload::UseAfterReturn => {
            b.call(h.fn_publish);
            b.lea_global(CALLEE, h.pub_slot);
            b.ld8(ADDR, CALLEE, 0);
            if bad {
                let pc = b.next_index();
                b.ld8(SCRATCH, ADDR, 0);
                Some(pc)
            } else {
                // The twin reloads the escaped address but never
                // dereferences it (holding a dangling pointer is legal).
                None
            }
        }
        Payload::WildPointer => {
            if bad {
                b.li(ADDR, plan.wild_addr);
                let pc = b.next_index();
                b.ld8(SCRATCH, ADDR, 0);
                Some(pc)
            } else {
                b.ld8(SCRATCH, victim, 0);
                b.free(victim);
                None
            }
        }
        Payload::InvalidFree => {
            if bad {
                b.li(ADDR, plan.wild_addr);
                let pc = b.next_index();
                b.free(ADDR);
                Some(pc)
            } else {
                b.free(victim);
                None
            }
        }
    }
}

fn emit(seed: u64, script: &[Op], plan: &PayloadPlan, bad: bool) -> (Program, Option<usize>) {
    let name = if bad {
        format!("gen-{seed}")
    } else {
        format!("gen-{seed}-twin")
    };
    let mut b = ProgramBuilder::new(name);
    let h = emit_helpers(&mut b);
    // The victim allocation: slot 0, never freed or overwritten by the
    // script, so every payload finds it live with a base pointer.
    b.li(SIZE, plan.vsize as i64);
    b.malloc(slot(0), SIZE);
    for op in script {
        emit_op(&mut b, &h, *op);
    }
    let pc = emit_payload(&mut b, &h, plan, bad);
    b.halt();
    let program = b
        .build()
        .unwrap_or_else(|e| panic!("seed {seed}: generated program failed to build: {e}"));
    (program, pc)
}

fn sample_payload(rng: &mut Rng) -> Payload {
    match rng.below(24) {
        0..=5 => Payload::Benign,
        6..=9 => Payload::UseAfterFree(match rng.below(4) {
            0 => Route::Direct,
            1 => Route::Alias,
            2 => Route::Stash,
            _ => Route::Call,
        }),
        10..=12 => Payload::UseAfterRealloc,
        13..=14 => Payload::DoubleFree,
        15..=16 => Payload::UseAfterReturn,
        17..=18 => Payload::WildPointer,
        19..=20 => Payload::InvalidFree,
        _ => Payload::PoolUseAfterFree,
    }
}

/// Generates the case for `seed`: program, benign twin and oracle. Pure —
/// the same seed and config produce byte-identical output on every
/// platform and every call.
pub fn generate(seed: u64, cfg: &GenConfig) -> Generated {
    let mut rng = Rng::new(seed);
    let payload = sample_payload(&mut rng);
    let vsize = *rng.pick(&cfg.sizes);
    let span = (cfg.max_ops - cfg.min_ops + 1) as u64;
    let n_ops = cfg.min_ops + rng.below(span) as usize;
    let mut model = Model::new(vsize);
    let script = sample_script(&mut rng, &mut model, n_ops, cfg);
    let plan = PayloadPlan {
        payload,
        vsize,
        off: aligned_off(&mut rng, vsize) as i32,
        wild_addr: (GLOBAL_BASE + GLOBAL_SIZE - 0x1000 + 8 * rng.below(64)) as i64,
    };
    let (program, expected_pc) = emit(seed, &script, &plan, true);
    let (twin, _) = emit(seed, &script, &plan, false);
    let expected = match payload {
        Payload::Benign => None,
        Payload::UseAfterFree(_) | Payload::UseAfterRealloc | Payload::PoolUseAfterFree => {
            Some(ViolationKind::UseAfterFree)
        }
        Payload::DoubleFree => Some(ViolationKind::DoubleFree),
        Payload::UseAfterReturn => Some(ViolationKind::UseAfterReturn),
        Payload::WildPointer => Some(ViolationKind::WildPointer),
        Payload::InvalidFree => Some(ViolationKind::InvalidFree),
    };
    Generated {
        seed,
        program,
        twin,
        oracle: Oracle {
            payload,
            expected,
            expected_pc,
            location_blind: matches!(
                payload,
                Payload::UseAfterRealloc | Payload::PoolUseAfterFree
            ),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        for seed in 0..20 {
            let a = generate(seed, &cfg);
            let b = generate(seed, &cfg);
            assert_eq!(a.program.disassemble(), b.program.disassemble());
            assert_eq!(a.twin.disassemble(), b.twin.disassemble());
            assert_eq!(a.oracle, b.oracle);
            assert_eq!(a.digest(), b.digest());
        }
    }

    #[test]
    fn seeds_produce_distinct_programs() {
        let cfg = GenConfig::default();
        let mut digests = std::collections::HashSet::new();
        for seed in 0..50 {
            digests.insert(generate(seed, &cfg).digest());
        }
        assert!(digests.len() >= 49, "seeds must explore distinct programs");
    }

    #[test]
    fn every_payload_kind_is_reachable() {
        let cfg = GenConfig::default();
        let mut kinds = std::collections::HashSet::new();
        for seed in 0..200 {
            kinds.insert(std::mem::discriminant(&generate(seed, &cfg).oracle.payload));
        }
        assert!(kinds.len() >= 8, "all eight payload kinds within 200 seeds");
    }

    #[test]
    fn pool_payloads_use_custom_allocator_instrumentation() {
        // The §7 custom-allocator family: sub-object UAF through
        // newident/setident/killident, with a benign twin, and blind to
        // location-based checking (the region is still allocated).
        let cfg = GenConfig::default();
        let pools: Vec<Generated> = (0..300)
            .map(|s| generate(s, &cfg))
            .filter(|g| g.oracle.payload == Payload::PoolUseAfterFree)
            .collect();
        assert!(!pools.is_empty(), "pool payloads are reachable");
        for g in &pools {
            assert_eq!(g.oracle.expected, Some(ViolationKind::UseAfterFree));
            assert!(g.oracle.location_blind, "pool frees leave the region live");
            let text = g.program.disassemble();
            for op in ["newident", "setident", "killident"] {
                assert!(text.contains(op), "missing {op} in:\n{text}");
            }
        }
    }

    #[test]
    fn oracles_are_consistent_with_payloads() {
        let cfg = GenConfig::default();
        for seed in 0..100 {
            let g = generate(seed, &cfg);
            match g.oracle.payload {
                Payload::Benign => {
                    assert_eq!(g.oracle.expected, None);
                    assert_eq!(g.oracle.expected_pc, None);
                }
                _ => {
                    assert!(g.oracle.expected.is_some());
                    let pc = g.oracle.expected_pc.expect("bad cases know their pc");
                    assert!(pc < g.program.len());
                }
            }
            assert_eq!(
                g.oracle.location_blind,
                matches!(
                    g.oracle.payload,
                    Payload::UseAfterRealloc | Payload::PoolUseAfterFree
                )
            );
        }
    }
}
