//! Commit-stream capture: a [`CommitHook`] that delta-encodes every
//! committed instruction's dynamic facts.
//!
//! The recording run is **functional-only** — the machine never cracks a
//! single µop, because the µop expansion is a pure function of the static
//! program and the crack configuration. Only the dynamic facts go into the
//! stream, one event per committed instruction:
//!
//! ```text
//! flags (1 byte): ptr_op | foldable | folded | branch | taken | seq
//! [pc delta]      zigzag varint vs. predicted pc (absent when `seq`)
//! addr deltas     one zigzag varint per memory µop, vs. the previous
//!                 memory address in the stream (the count is *implied* —
//!                 the replayer re-cracks and counts memory µops)
//! [branch target] zigzag varint vs. the previous branch target
//! ```
//!
//! Sequential fetches cost one byte; loopy pointer code averages a few
//! bytes per instruction.

use watchdog_core::machine::{CommitHook, CommitRecord, Step};
use watchdog_core::prelude::*;
use watchdog_isa::Program;

use crate::format::{program_fingerprint, Trace, TraceOutcome};
use crate::wire::put_ivarint;

pub(crate) const F_PTR: u8 = 1 << 0;
pub(crate) const F_FOLDABLE: u8 = 1 << 1;
pub(crate) const F_FOLDED: u8 = 1 << 2;
pub(crate) const F_BRANCH: u8 = 1 << 3;
pub(crate) const F_TAKEN: u8 = 1 << 4;
pub(crate) const F_SEQ: u8 = 1 << 5;

/// Incremental commit-stream encoder. Drive a [`watchdog_core::Machine`]
/// with [`Machine::step_hooked`](watchdog_core::Machine::step_hooked) and
/// hand the finished recorder to [`TraceRecorder::finish`] — or use
/// [`record`], which does all of that.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    events: Vec<u8>,
    count: u64,
    next_pc: usize,
    last_addr: u64,
    last_target: i64,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Events captured so far.
    pub fn event_count(&self) -> u64 {
        self.count
    }

    /// Seals the stream into a [`Trace`], attaching the functional run's
    /// outcome and final statistics (which the replayer reproduces in its
    /// [`RunReport`] verbatim — they are architectural facts no timing
    /// configuration can change).
    pub fn finish(
        self,
        program: &Program,
        mode: Mode,
        outcome: TraceOutcome,
        machine: &watchdog_core::Machine<'_>,
    ) -> Trace {
        Trace {
            mode,
            program: program.name().to_string(),
            fingerprint: program_fingerprint(program),
            events: self.events,
            event_count: self.count,
            outcome,
            machine: machine.stats(),
            heap: machine.heap_stats(),
            footprint: machine.footprint(),
        }
    }
}

impl CommitHook for TraceRecorder {
    fn on_commit(&mut self, rec: &CommitRecord<'_>) {
        let seq = rec.pc_index == self.next_pc;
        let mut flags = 0u8;
        if rec.ptr_op {
            flags |= F_PTR;
        }
        match rec.folded {
            None => {}
            Some(false) => flags |= F_FOLDABLE,
            Some(true) => flags |= F_FOLDABLE | F_FOLDED,
        }
        if let Some((taken, _)) = rec.branch {
            flags |= F_BRANCH;
            if taken {
                flags |= F_TAKEN;
            }
        }
        if seq {
            flags |= F_SEQ;
        }
        self.events.push(flags);
        if !seq {
            put_ivarint(&mut self.events, rec.pc_index as i64 - self.next_pc as i64);
        }
        self.next_pc = rec.pc_index + 1;
        for &a in rec.mem_addrs {
            put_ivarint(&mut self.events, a.wrapping_sub(self.last_addr) as i64);
            self.last_addr = a;
        }
        if let Some((_, target)) = rec.branch {
            put_ivarint(
                &mut self.events,
                (target as i64).wrapping_sub(self.last_target),
            );
            self.last_target = target as i64;
        }
        self.count += 1;
    }
}

/// Records `program` under `mode`: one functional pass (plus the §5.2
/// profiling pass first, when the mode uses ISA-assisted identification —
/// the same pass a live simulation performs), producing a [`Trace`] that
/// replays into the exact [`RunReport`] of a live timed simulation.
///
/// # Errors
///
/// Propagates simulator-level failures ([`SimError`]); a run that exceeds
/// `max_insts` yields [`SimError::InstLimit`], exactly like a live run —
/// there is no trace for a program that cannot be simulated.
pub fn record(program: &Program, mode: Mode, max_insts: u64) -> Result<Trace, SimError> {
    let mcfg = Simulator::new(SimConfig {
        max_insts,
        ..SimConfig::functional(mode)
    })
    .machine_config(program)?;
    let mut machine = watchdog_core::Machine::new(program, mcfg);
    let mut recorder = TraceRecorder::new();
    let mut executed = 0u64;
    let outcome = loop {
        match machine.step_hooked(&mut recorder)? {
            Step::Executed(_) => {
                executed += 1;
                if executed > max_insts {
                    return Err(SimError::InstLimit { limit: max_insts });
                }
            }
            Step::Halted => break TraceOutcome::Halted,
            Step::Violation(v) => break TraceOutcome::Violation(v),
        }
    };
    Ok(recorder.finish(program, mode, outcome, &machine))
}
