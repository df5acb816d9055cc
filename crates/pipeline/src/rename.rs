//! Register renaming with decoupled, reference-counted metadata mappings.
//!
//! §6.2 of the paper: "Watchdog extends the maptable to maintain two
//! mappings for each logical register: the regular mapping and a metadata
//! mapping. Instructions that unambiguously copy the metadata (such as 'add
//! immediate' ...) update the metadata mapping of the destination register
//! ... with the metadata mapping entry of the input register. This
//! implementation eliminates the register copies by physical register
//! sharing ... these physical registers need to be reference counted."
//!
//! This module implements exactly that structure: a physical pool of
//! metadata registers (the data register files are not modelled — they
//! never limit the timing model); a dual map table;
//! copy elimination via mapping aliasing with reference counts; and two
//! permanent metadata registers — the always-**invalid** register and the
//! **global**-identifier register (§7) — that invalidations and PC-relative
//! address formation map to without consuming pool capacity.

use watchdog_isa::crack::{CrackedInst, MetaEffect};
use watchdog_isa::reg::{Gpr, LReg, NUM_META_TEMPS};
use watchdog_isa::uop::Uop;

/// Metadata mappings: one per GPR and per cracker metadata temporary.
const META_MAPPINGS: usize = Gpr::COUNT + NUM_META_TEMPS;

/// Size of the metadata physical register pool, which can never run out.
/// A non-permanent register is live only while a mapping references it,
/// so at most one per mapping (one per GPR and per cracker metadata
/// temporary, 18 in all) is live between µops. An allocation takes its
/// fresh register before releasing the destination's old one, so one more
/// is live for that moment. With the two permanent registers that makes
/// 21. Only the metadata file is modelled: the data mappings never limit
/// the timing model, and neither does this pool, so its size is not a
/// machine parameter.
pub const META_PREGS: usize = 2 + META_MAPPINGS + 1;

/// Renaming statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RenameStats {
    /// µops renamed: every µop the timing core consumed, filled in by
    /// [`TimingCore::finish`](crate::TimingCore::finish) from its one
    /// µop count ([`Rename`] alone leaves it 0).
    pub renamed_uops: u64,
    /// Metadata copies eliminated at rename (no µop executed).
    pub eliminated_copies: u64,
    /// Metadata invalidations handled at rename.
    pub invalidations: u64,
    /// Global-identifier mappings handled at rename.
    pub global_mappings: u64,
    /// Metadata physical registers allocated (µop-produced metadata).
    pub meta_allocs: u64,
    /// High-water mark of live metadata physical registers.
    pub meta_high_water: usize,
}

/// Index of the permanent always-invalid metadata physical register.
pub const META_PREG_INVALID: usize = 0;
/// Index of the permanent global-identifier metadata physical register.
pub const META_PREG_GLOBAL: usize = 1;

/// The dual-mapping rename table.
#[derive(Debug)]
pub struct Rename {
    /// Metadata mapping for each GPR.
    meta_map: [usize; Gpr::COUNT],
    /// Metadata mapping for cracker metadata temporaries.
    meta_tmp_map: [usize; NUM_META_TEMPS],
    /// Reference count per metadata physical register (indices 0 and 1 are
    /// permanent and never freed).
    meta_ref: [u32; META_PREGS],
    meta_free: Vec<usize>,
    live_meta: usize,
    stats: RenameStats,
}

impl Default for Rename {
    fn default() -> Self {
        Self::new()
    }
}

impl Rename {
    /// Builds the rename table; all metadata mappings start invalid.
    pub fn new() -> Self {
        let mut meta_ref = [0u32; META_PREGS];
        // Permanent registers: refcounts account for the initial mappings.
        meta_ref[META_PREG_INVALID] = META_MAPPINGS as u32;
        meta_ref[META_PREG_GLOBAL] = 0;
        let meta_free = (2..META_PREGS).rev().collect();
        Rename {
            meta_map: [META_PREG_INVALID; Gpr::COUNT],
            meta_tmp_map: [META_PREG_INVALID; NUM_META_TEMPS],
            meta_ref,
            meta_free,
            live_meta: 0,
            stats: RenameStats::default(),
        }
    }

    fn release(&mut self, preg: usize) {
        self.meta_ref[preg] -= 1;
        if preg > META_PREG_GLOBAL && self.meta_ref[preg] == 0 {
            self.meta_free.push(preg);
            self.live_meta -= 1;
        }
    }

    fn current(&self, r: LReg) -> usize {
        match r {
            LReg::M(g) => self.meta_map[g.index()],
            LReg::Tm(t) => self.meta_tmp_map[t as usize],
            _ => unreachable!("not a metadata register"),
        }
    }

    fn set_mapping(&mut self, r: LReg, preg: usize) {
        let old = self.current(r);
        self.meta_ref[preg] += 1;
        match r {
            LReg::M(g) => self.meta_map[g.index()] = preg,
            LReg::Tm(t) => self.meta_tmp_map[t as usize] = preg,
            _ => unreachable!("not a metadata register"),
        }
        self.release(old);
    }

    fn alloc_meta(&mut self, r: LReg) {
        let preg = self
            .meta_free
            .pop()
            .expect("metadata physical registers exhausted");
        self.live_meta += 1;
        self.stats.meta_allocs += 1;
        self.stats.meta_high_water = self.stats.meta_high_water.max(self.live_meta);
        self.set_mapping(r, preg);
    }

    /// Applies an instruction's rename-stage metadata effect (the cases
    /// where Watchdog inserts *no* µop).
    pub fn apply_meta(&mut self, effect: &MetaEffect) {
        match *effect {
            MetaEffect::None => {}
            MetaEffect::Copy { dst, src } => {
                let src_preg = self.meta_map[src.index()];
                self.set_mapping(LReg::M(dst), src_preg);
                self.stats.eliminated_copies += 1;
            }
            MetaEffect::Invalidate(r) => {
                self.set_mapping(LReg::M(r), META_PREG_INVALID);
                self.stats.invalidations += 1;
            }
            MetaEffect::Global(r) => {
                self.set_mapping(LReg::M(r), META_PREG_GLOBAL);
                self.stats.global_mappings += 1;
            }
        }
    }

    /// Renames one µop by its destination operand (all renaming needs):
    /// a µop that writes a metadata register allocates a fresh metadata
    /// physical register for it. This is the entry point of the batched
    /// consume loop, which streams destinations out of the
    /// [`UopBatch`](crate::batch::UopBatch) SoA arrays.
    pub fn rename_dst(&mut self, dst: Option<LReg>) {
        if let Some(d) = dst {
            if d.is_metadata() && !matches!(d, LReg::StackKey | LReg::StackLock) {
                self.alloc_meta(d);
            }
        }
    }

    /// Renames one µop — a convenience over [`Rename::rename_dst`] for
    /// callers holding full [`Uop`]s (tests, diagnostics).
    pub fn rename_uop(&mut self, uop: &Uop) {
        self.rename_dst(uop.dst);
    }

    /// Processes a full cracked instruction: µop renaming plus the
    /// rename-stage metadata effect — a convenience composition of
    /// [`Rename::rename_dst`] + [`Rename::apply_meta`], the two primitive
    /// entry points the timing core's consume loop drives directly.
    pub fn process(&mut self, inst: &CrackedInst) {
        for u in inst.uops.iter() {
            self.rename_dst(u.uop.dst);
        }
        self.apply_meta(&inst.meta);
    }

    /// Metadata physical register currently mapped to `r` (test/diagnostic
    /// accessor).
    pub fn meta_mapping(&self, r: LReg) -> usize {
        self.current(r)
    }

    /// Number of live (non-permanent) metadata physical registers.
    pub fn live_meta_regs(&self) -> usize {
        self.live_meta
    }

    /// Counter snapshot.
    pub fn stats(&self) -> RenameStats {
        self.stats
    }

    /// Verifies the reference-counting invariants:
    ///
    /// 1. every mapping's refcount is positive;
    /// 2. the sum of refcounts of non-permanent registers equals the number
    ///    of mappings that point at them;
    /// 3. free list and live set partition the pool.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut expected = [0u32; META_PREGS];
        for g in Gpr::all() {
            expected[self.meta_map[g.index()]] += 1;
        }
        for t in 0..NUM_META_TEMPS {
            expected[self.meta_tmp_map[t]] += 1;
        }
        for (i, (&actual, &exp)) in self.meta_ref.iter().zip(expected.iter()).enumerate() {
            if i > META_PREG_GLOBAL && actual != exp {
                return Err(format!("preg {i}: refcount {actual} but {exp} mappings"));
            }
            if i <= META_PREG_GLOBAL && actual != exp {
                return Err(format!(
                    "permanent preg {i}: refcount {actual} but {exp} mappings"
                ));
            }
        }
        let live_from_ref = self
            .meta_ref
            .iter()
            .enumerate()
            .filter(|(i, &r)| *i > 1 && r > 0)
            .count();
        if live_from_ref != self.live_meta {
            return Err(format!(
                "live count {} but {} pregs referenced",
                self.live_meta, live_from_ref
            ));
        }
        if self.meta_free.len() + self.live_meta + 2 != META_PREGS {
            return Err("free list and live set do not partition the pool".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use watchdog_isa::crack::{crack, CrackConfig};
    use watchdog_isa::insn::{AluOp, Inst, MemAddr, PtrHint, Width};

    fn g(n: u8) -> Gpr {
        Gpr::new(n)
    }

    fn process(r: &mut Rename, inst: &Inst, ptr_op: bool) {
        let c = crack(inst, ptr_op, &CrackConfig::watchdog());
        for u in c.uops.iter() {
            r.rename_uop(&u.uop);
        }
        r.apply_meta(&c.meta);
        r.check_invariants().unwrap();
    }

    #[test]
    fn copy_elimination_shares_physical_registers() {
        let mut r = Rename::new();
        // r1 gets metadata from a pointer load.
        process(
            &mut r,
            &Inst::Load {
                dst: g(1),
                addr: MemAddr::base(g(2)),
                width: Width::B8,
                hint: PtrHint::Auto,
            },
            true,
        );
        let p1 = r.meta_mapping(LReg::M(g(1)));
        assert!(p1 > META_PREG_GLOBAL);
        // add-immediate copies it without a µop and without a new preg.
        let allocs_before = r.stats().meta_allocs;
        process(
            &mut r,
            &Inst::AluImm {
                op: AluOp::Add,
                dst: g(3),
                a: g(1),
                imm: 8,
            },
            false,
        );
        assert_eq!(r.meta_mapping(LReg::M(g(3))), p1, "mapping is shared");
        assert_eq!(
            r.stats().meta_allocs,
            allocs_before,
            "no new physical register"
        );
        assert_eq!(r.stats().eliminated_copies, 1);
        assert_eq!(r.live_meta_regs(), 1, "one shared preg for two mappings");
    }

    #[test]
    fn shared_preg_freed_only_after_all_mappings_die() {
        let mut r = Rename::new();
        process(
            &mut r,
            &Inst::Load {
                dst: g(1),
                addr: MemAddr::base(g(2)),
                width: Width::B8,
                hint: PtrHint::Auto,
            },
            true,
        );
        process(
            &mut r,
            &Inst::AluImm {
                op: AluOp::Add,
                dst: g(3),
                a: g(1),
                imm: 8,
            },
            false,
        );
        // Kill one mapping: preg must stay live (r3 still references it).
        process(&mut r, &Inst::MovImm { dst: g(1), imm: 0 }, false);
        assert_eq!(r.live_meta_regs(), 1);
        // Kill the second: preg is freed.
        process(&mut r, &Inst::MovImm { dst: g(3), imm: 0 }, false);
        assert_eq!(r.live_meta_regs(), 0);
    }

    #[test]
    fn invalidate_and_global_map_to_permanent_registers() {
        let mut r = Rename::new();
        process(&mut r, &Inst::MovImm { dst: g(0), imm: 5 }, false);
        assert_eq!(r.meta_mapping(LReg::M(g(0))), META_PREG_INVALID);
        process(
            &mut r,
            &Inst::LeaGlobal {
                dst: g(0),
                addr: 0x1000_0000,
            },
            false,
        );
        assert_eq!(r.meta_mapping(LReg::M(g(0))), META_PREG_GLOBAL);
        assert_eq!(r.stats().invalidations, 1);
        assert_eq!(r.stats().global_mappings, 1);
        assert_eq!(
            r.live_meta_regs(),
            0,
            "permanent registers consume no pool space"
        );
    }

    #[test]
    fn select_uop_allocates() {
        let mut r = Rename::new();
        let before = r.stats().meta_allocs;
        process(
            &mut r,
            &Inst::Alu {
                op: AluOp::Add,
                dst: g(2),
                a: g(0),
                b: g(1),
            },
            false,
        );
        assert_eq!(
            r.stats().meta_allocs,
            before + 1,
            "select µop produces metadata"
        );
    }

    #[test]
    fn long_chains_never_leak() {
        let mut r = Rename::new();
        for i in 0..10_000u64 {
            let d = g((i % 14) as u8);
            let a = g(((i + 1) % 14) as u8);
            let b = g(((i + 2) % 14) as u8);
            match i % 4 {
                0 => process(
                    &mut r,
                    &Inst::Load {
                        dst: d,
                        addr: MemAddr::base(a),
                        width: Width::B8,
                        hint: PtrHint::Auto,
                    },
                    true,
                ),
                1 => process(
                    &mut r,
                    &Inst::AluImm {
                        op: AluOp::Add,
                        dst: d,
                        a,
                        imm: 8,
                    },
                    false,
                ),
                2 => process(
                    &mut r,
                    &Inst::Alu {
                        op: AluOp::Add,
                        dst: d,
                        a,
                        b,
                    },
                    false,
                ),
                _ => process(&mut r, &Inst::MovImm { dst: d, imm: 0 }, false),
            }
        }
        assert!(
            r.live_meta_regs() <= Gpr::COUNT + NUM_META_TEMPS,
            "bounded by logical registers"
        );
        r.check_invariants().unwrap();
    }
}
