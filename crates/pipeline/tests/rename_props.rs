//! Property tests on the rename stage: reference-counting invariants hold
//! under arbitrary instruction streams (the §6.2 machinery never leaks or
//! double-frees a metadata physical register).

use proptest::prelude::*;
use watchdog_isa::crack::{crack, CrackConfig};
use watchdog_isa::insn::{AluOp, Inst, MemAddr, PtrHint, Width};
use watchdog_isa::reg::Gpr;
use watchdog_pipeline::Rename;

#[derive(Debug, Clone)]
enum Op {
    PtrLoad(u8, u8),
    AddImm(u8, u8),
    Add(u8, u8, u8),
    MovImm(u8),
    Global(u8),
    Mov(u8, u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..15, 0u8..15).prop_map(|(d, b)| Op::PtrLoad(d, b)),
        (0u8..15, 0u8..15).prop_map(|(d, a)| Op::AddImm(d, a)),
        (0u8..15, 0u8..15, 0u8..15).prop_map(|(d, a, b)| Op::Add(d, a, b)),
        (0u8..15).prop_map(Op::MovImm),
        (0u8..15).prop_map(Op::Global),
        (0u8..15, 0u8..15).prop_map(|(d, s)| Op::Mov(d, s)),
    ]
}

proptest! {
    #[test]
    fn refcounts_never_leak_or_double_free(ops in proptest::collection::vec(arb_op(), 1..300)) {
        let mut r = Rename::new();
        let cfg = CrackConfig::watchdog();
        for op in ops {
            let inst = match op {
                Op::PtrLoad(d, b) => Inst::Load {
                    dst: Gpr::new(d), addr: MemAddr::base(Gpr::new(b)), width: Width::B8, hint: PtrHint::Auto,
                },
                Op::AddImm(d, a) => Inst::AluImm { op: AluOp::Add, dst: Gpr::new(d), a: Gpr::new(a), imm: 8 },
                Op::Add(d, a, b) => Inst::Alu { op: AluOp::Add, dst: Gpr::new(d), a: Gpr::new(a), b: Gpr::new(b) },
                Op::MovImm(d) => Inst::MovImm { dst: Gpr::new(d), imm: 1 },
                Op::Global(d) => Inst::LeaGlobal { dst: Gpr::new(d), addr: 0x1000_0000 },
                Op::Mov(d, s) => Inst::Mov { dst: Gpr::new(d), src: Gpr::new(s) },
            };
            let c = crack(&inst, matches!(op, Op::PtrLoad(..)), &cfg);
            for u in c.uops.iter() {
                r.rename_uop(&u.uop);
            }
            r.apply_meta(&c.meta);
            if let Err(e) = r.check_invariants() {
                prop_assert!(false, "invariant violated after {inst:?}: {e}");
            }
        }
        // Live metadata registers are bounded by the logical namespace.
        prop_assert!(r.live_meta_regs() <= 18);
    }
}
