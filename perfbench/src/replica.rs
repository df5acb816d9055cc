//! A replica of `Simulator::run`'s timed run loop, built from the
//! layers' public calls so each can be timed on its own:
//! `Simulator::profile` → `Machine::new` → `ScheduledCore::new` →
//! `Machine::step_batched` batch fills → `ScheduledCore::consume_batch` →
//! `ScheduledCore::finish`.
//!
//! The replica must reproduce `Simulator::run` exactly; the traced run
//! checks its cycles against the live run on every timed cell.

use std::time::Instant;

use watchdog_core::machine::Step;
use watchdog_core::prelude::*;
use watchdog_core::{Machine, MachineConfig, PointerPolicy};
use watchdog_isa::crack_cache::CrackCacheStats;
use watchdog_isa::Program;
use watchdog_mem::{AccessReq, HierarchyConfig};
use watchdog_pipeline::{CoreConfig, MemOp, TimingCore, TimingReport, UopBatch};

use crate::spans::{Acc, Layer};

/// What one replica run produced.
#[derive(Debug, Clone)]
pub struct Replica {
    /// The timing core's final report.
    pub timing: TimingReport,
    /// Crack-cache hit/miss counters of the machine.
    pub crack: Option<CrackCacheStats>,
}

/// Pointer policy `Simulator::run` would use for `mode`, profiling first
/// when the mode is ISA-assisted.
pub fn policy_for(program: &Program, mode: Mode, acc: &mut Acc) -> Result<PointerPolicy, SimError> {
    match mode.pointer_id() {
        Some(PointerId::IsaAssisted) => {
            let t0 = Instant::now();
            let profile = Simulator::profile(program, SimConfig::timed(mode).max_insts)?;
            acc.close(Layer::Profile, t0, 1);
            Ok(PointerPolicy::Profiled(profile))
        }
        _ => Ok(PointerPolicy::Conservative),
    }
}

/// Machine configuration of a run of `mode` under `policy`.
pub fn machine_config(mode: Mode, policy: PointerPolicy, emit_uops: bool) -> MachineConfig {
    MachineConfig {
        check: mode.check_mode(),
        bounds: mode.bounds_uops(),
        policy,
        profiling: false,
        emit_uops,
        crack_cache: true,
    }
}

/// The Table 2 hierarchy with `mode`'s lock-cache and shadow knobs.
pub fn hierarchy_for(mode: Mode) -> HierarchyConfig {
    let mut hier = HierarchyConfig::default();
    mode.apply_hierarchy(&mut hier);
    hier
}

/// Runs `program` under `mode` through the replica loop, adding its layer
/// spans to `acc`. When `capture` is given, every memory µop of every
/// batch is appended to it as an [`AccessReq`] before the batch drains.
///
/// # Errors
///
/// Simulator-level failures, exactly as `Simulator::run`.
pub fn run(
    program: &Program,
    mode: Mode,
    acc: &mut Acc,
    mut capture: Option<&mut Vec<AccessReq>>,
) -> Result<Replica, SimError> {
    let max_insts = SimConfig::timed(mode).max_insts;
    let policy = policy_for(program, mode, acc)?;

    let t0 = Instant::now();
    let mut machine = Machine::new(program, machine_config(mode, policy, true));
    acc.close(Layer::MachineNew, t0, 1);

    let t0 = Instant::now();
    let mut core = TimingCore::new(CoreConfig::sandy_bridge(), hierarchy_for(mode));
    acc.close(Layer::CoreNew, t0, 1);

    let mut batch = UopBatch::with_capacity(UopBatch::TARGET_INSTS);
    let mut executed = 0u64;
    loop {
        let t0 = Instant::now();
        let ended = loop {
            match machine.step_batched(&mut batch)? {
                Step::Executed(_) => {
                    executed += 1;
                    if executed > max_insts {
                        return Err(SimError::InstLimit { limit: max_insts });
                    }
                    if batch.len() >= UopBatch::TARGET_INSTS {
                        break false;
                    }
                }
                Step::Halted | Step::Violation(_) => break true,
            }
        };
        acc.close(Layer::Fill, t0, batch.len() as u64);
        if let Some(reqs) = capture.as_deref_mut() {
            capture_batch(&batch, reqs);
        }
        let t0 = Instant::now();
        core.consume_batch(&batch);
        acc.close(Layer::Consume, t0, batch.uops() as u64);
        batch.clear();
        if ended {
            break;
        }
    }
    let crack = machine.crack_cache_stats();
    let t0 = Instant::now();
    let timing = core.finish();
    acc.close(Layer::Finish, t0, 1);
    Ok(Replica { timing, crack })
}

/// Appends the memory µops of `batch` to `reqs`, in program order.
fn capture_batch(batch: &UopBatch, reqs: &mut Vec<AccessReq>) {
    for (mem, &addr) in batch.mems().iter().zip(batch.addrs()) {
        match *mem {
            MemOp::None => {}
            MemOp::Read(class) => reqs.push(AccessReq::read(class, addr)),
            MemOp::Write(class) => reqs.push(AccessReq::write(class, addr)),
        }
    }
}
