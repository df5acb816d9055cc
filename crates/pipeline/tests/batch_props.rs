//! Batched-feed equivalence at the pipeline level: for any batching of
//! the same committed µop stream — one instruction per batch, tiny
//! batches, the default 64-instruction target, or one giant batch — the
//! [`TimingCore`] must produce a field-identical [`TimingReport`].
//!
//! The streams below exercise every scheduling path the batch pipeline
//! reroutes: dependence chains, lock/shadow/data memory µops (check-heavy
//! pointer loops make the LL$ probe memo fire), call/ret identifier
//! traffic, and random branch outcomes that stress the pre-pass ordering
//! of the branch predictor against the fetch-block state.

use watchdog_isa::crack::{crack, CrackConfig, Cracked, CrackedInst};
use watchdog_isa::insn::{AluOp, Cond, Inst, MemAddr, PtrHint, Width};
use watchdog_isa::Gpr;
use watchdog_mem::HierarchyConfig;
use watchdog_pipeline::{CoreConfig, TimingCore, UopBatch};

fn g(n: u8) -> Gpr {
    Gpr::new(n)
}

fn assemble(inst: &Inst, ptr_op: bool, cfg: &CrackConfig, pc: u64, addrs: &[u64]) -> CrackedInst {
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

/// A mixed stream: pointer loads/stores with checks and shadow traffic,
/// ALU dependence chains, calls/returns, and branches whose outcome
/// follows a deterministic pseudo-random pattern.
fn mixed_stream(n: u64) -> Vec<CrackedInst> {
    let cfg = CrackConfig::watchdog();
    let mut out = Vec::new();
    let mut x = 0x9E3779B97F4A7C15u64;
    let mut b = watchdog_isa::ProgramBuilder::new("x");
    let l = b.label();
    b.bind(l);
    b.nop();
    for i in 0..n {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let pc = 0x40_0000 + (i % 61) * 7;
        match i % 6 {
            0 => {
                // Pointer load: check (lock) + data load + shadow load. A
                // small lock-address working set makes repeat probes common,
                // exactly like a hot pointer in a loop.
                let inst = Inst::Load {
                    dst: g((i % 6) as u8),
                    addr: MemAddr::base(g(7)),
                    width: Width::B8,
                    hint: PtrHint::Auto,
                };
                let lock = 0x5000_0000 + (x % 4) * 8;
                let data = 0x2000_0000 + (x % 50_000);
                let shadow = 0x4000_0000_0000 + (data >> 3) * 16;
                out.push(assemble(&inst, true, &cfg, pc, &[lock, data, shadow]));
            }
            1 => {
                let inst = Inst::Store {
                    src: g((i % 6) as u8),
                    addr: MemAddr::base(g(7)),
                    width: Width::B8,
                    hint: PtrHint::Auto,
                };
                let lock = 0x5000_0000 + (x % 16) * 8;
                let data = 0x2000_0000 + (x % 50_000);
                out.push(assemble(&inst, false, &cfg, pc, &[lock, data]));
            }
            2 | 3 => {
                let inst = Inst::AluImm {
                    op: AluOp::Add,
                    dst: g(1),
                    a: g(1),
                    imm: 1,
                };
                out.push(assemble(&inst, false, &cfg, pc, &[]));
            }
            4 => {
                let inst = Inst::Branch {
                    cond: Cond::Eq,
                    a: g(0),
                    b: g(0),
                    target: l,
                };
                let mut ci = assemble(&inst, false, &cfg, pc, &[]);
                let taken = (x >> 62) & 1 == 1;
                let k = ci.uops.len();
                ci.uops.as_mut_slice()[k - 1].taken = taken;
                ci.uops.as_mut_slice()[k - 1].target = if taken { 0x40_0000 } else { pc + 6 };
                out.push(ci);
            }
            _ => {
                // Call/ret pair: stack identifier µops (LockLoad/LockStore)
                // plus RAS traffic.
                let call = Inst::Call { target: l };
                let mut ci = assemble(
                    &call,
                    false,
                    &cfg,
                    pc,
                    &[0x7fff_f000 - (i % 32) * 8, 0x6000_0000 + (i % 32) * 8],
                );
                let k = ci.uops.len();
                ci.uops.as_mut_slice()[k - 1].taken = true;
                ci.uops.as_mut_slice()[k - 1].target = 0x40_0000;
                out.push(ci);
                let mut ci = assemble(
                    &Inst::Ret,
                    false,
                    &cfg,
                    0x40_0000,
                    &[
                        0x7fff_f000 - (i % 32) * 8,
                        0x6000_0000 + (i % 32) * 8,
                        0x6000_0000 + (i % 32) * 8,
                    ],
                );
                let k = ci.uops.len();
                ci.uops.as_mut_slice()[k - 1].taken = true;
                ci.uops.as_mut_slice()[k - 1].target = pc + 1;
                out.push(ci);
            }
        }
    }
    out
}

fn run_batched(stream: &[CrackedInst], batch_insts: usize) -> String {
    let mut core = TimingCore::new(CoreConfig::sandy_bridge(), HierarchyConfig::default());
    let mut batch = UopBatch::new();
    for ci in stream {
        batch.push_cracked(ci);
        if batch.len() >= batch_insts {
            core.consume_batch(&batch);
            batch.clear();
        }
    }
    core.consume_batch(&batch);
    format!("{:?}", core.finish())
}

#[test]
fn any_batching_is_equivalent_to_per_inst() {
    let stream = mixed_stream(4000);
    let reference = run_batched(&stream, 1);
    for batch_insts in [3, UopBatch::TARGET_INSTS, 1009, stream.len()] {
        assert_eq!(
            reference,
            run_batched(&stream, batch_insts),
            "batch size {batch_insts} diverges from one instruction per batch"
        );
    }
}

#[test]
fn feed_stats_track_batch_occupancy() {
    let stream = mixed_stream(600);
    let mut core = TimingCore::new(CoreConfig::sandy_bridge(), HierarchyConfig::default());
    let mut batch = UopBatch::new();
    for ci in &stream {
        batch.push_cracked(ci);
        if batch.len() >= UopBatch::TARGET_INSTS {
            core.consume_batch(&batch);
            batch.clear();
        }
    }
    core.consume_batch(&batch);
    let f = core.feed_stats();
    assert_eq!(f.insts, stream.len() as u64);
    assert_eq!(
        f.batches,
        stream.len().div_ceil(UopBatch::TARGET_INSTS) as u64
    );
    assert!(f.mean_occupancy() > (UopBatch::TARGET_INSTS / 2) as f64);
    assert!(f.uops > f.insts, "watchdog streams crack to >1 µop/inst");
    // The feed's counts are the report's: one counter per event.
    let r = core.finish();
    assert_eq!((f.insts, f.uops), (r.insts, r.uops));
    assert_eq!(r.rename.renamed_uops, r.uops, "every µop is renamed");

    // One instruction per batch reports occupancy 1.
    batch.clear();
    let mut core = TimingCore::new(CoreConfig::sandy_bridge(), HierarchyConfig::default());
    for ci in &stream {
        batch.push_cracked(ci);
        core.consume_batch(&batch);
        batch.clear();
    }
    let f = core.feed_stats();
    assert_eq!(f.batches, stream.len() as u64);
    assert_eq!(f.mean_occupancy(), 1.0);
}

#[test]
fn lock_probe_memo_fires_on_check_heavy_streams() {
    let stream = mixed_stream(3000);
    let mut core = TimingCore::new(CoreConfig::sandy_bridge(), HierarchyConfig::default());
    let mut batch = UopBatch::new();
    for ci in &stream {
        batch.push_cracked(ci);
    }
    core.consume_batch(&batch);
    assert!(
        core.hierarchy().ll_memo_hits() > 100,
        "hot lock probes must short-circuit ({} memo hits)",
        core.hierarchy().ll_memo_hits()
    );
    // An empty batch is a no-op, not a counted batch.
    let before = core.feed_stats();
    core.consume_batch(&UopBatch::new());
    assert_eq!(core.feed_stats(), before);
}

#[test]
fn control_stream_equivalence_across_batch_boundaries() {
    // Branches at batch edges are the riskiest case for the pre-pass
    // (fetch-block resets and redirects crossing a batch boundary): sweep
    // a range of small batch sizes so every phase alignment occurs.
    let stream = mixed_stream(900);
    let reference = run_batched(&stream, 1);
    for batch_insts in 2..24 {
        assert_eq!(
            reference,
            run_batched(&stream, batch_insts),
            "batch size {batch_insts} diverges"
        );
    }
}
