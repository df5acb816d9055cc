//! The timing core's self-profiler.
//!
//! [`CoreTelemetry`] is an optional, preallocated instrumentation block
//! a [`TimingCore`](crate::core::TimingCore) carries beside its
//! model state. When absent (the default) the consume loop pays one
//! predictable branch per batch; when present it collects what the
//! dispatch-path investigation needs and the model cannot tell us:
//!
//! * **per-µop-kind dispatch counters** — which µop mix actually hits
//!   the scheduler (a second accounting path, deliberately independent
//!   of [`TimingReport`](crate::TimingReport)'s tag totals so the
//!   cross-check tests can catch drift between them);
//! * **window-occupancy histograms** — ROB/IQ/LQ/SQ depth sampled at
//!   every batch boundary;
//! * **the CPI stack** — every commit slot attributed to one cause.
//!
//! Everything here is a simulated count: the block reads no host clock,
//! so equal µop streams give equal telemetry, whatever feeds them. It is
//! also pure observation: enabling it never changes a timestamp, so every
//! equivalence suite holds with it on.

use crate::core::NUM_TAGS;
use watchdog_isa::uop::UopKind;
use watchdog_telemetry::{Histogram, MetricsRegistry, Unit};

/// Number of [`UopKind`] variants (the dispatch-counter array length),
/// tied to the ISA's own count so the name table, the counters and the
/// dispatch-descriptor tables can never drift apart.
pub const NUM_UOP_KINDS: usize = UopKind::COUNT;

/// Number of distinct stall causes in the CPI-stack accounting (the
/// drain tail is exported separately as `cpi.stall.drain`).
pub const NUM_STALL_CAUSES: usize = 12;

/// Registry-name suffix per stall cause, in [`CoreTelemetry::stall_slots`]
/// index order. The first-match classification priority in the consume
/// loop runs the *other* way — memory misses beat FU contention beat
/// dependency waits beat window-full beat frontend causes — so the cheap
/// structural causes only absorb slots no finer cause claims.
pub const STALL_CAUSE_NAMES: [&str; NUM_STALL_CAUSES] = [
    "fetch", "icache", "redirect", "rob_full", "iq_full", "lq_full", "sq_full", "fu", "dep",
    "tlb_miss", "ll_miss", "l1d_miss",
];

/// Registry-name suffix per [`UopKind`], in discriminant order.
pub const UOP_KIND_NAMES: [&str; NUM_UOP_KINDS] = [
    "int_alu",
    "int_mul",
    "int_div",
    "fp_alu",
    "fp_mul",
    "fp_div",
    "branch",
    "load",
    "store",
    "shadow_load",
    "shadow_store",
    "lock_load",
    "lock_store",
    "check",
    "bounds_check",
    "check_combined",
    "select_meta",
    "nop",
];

/// The preallocated instrumentation block: flat counter arrays and
/// inline histograms, boxed once when attached. Recording into it never
/// allocates — the batch-feed allocation-discipline test runs with one
/// of these attached.
#[derive(Debug, Clone, Default)]
pub struct CoreTelemetry {
    /// Macro-instructions seen by the instrumented consume loop — a
    /// second accounting path for the cross-check suite.
    pub insts: u64,
    /// µops seen by the instrumented consume loop.
    pub uops: u64,
    /// Dispatched µops by [`UopKind`] discriminant.
    pub dispatch_by_kind: [u64; NUM_UOP_KINDS],
    /// ROB depth at batch boundaries.
    pub rob_occupancy: Histogram,
    /// IQ depth at batch boundaries.
    pub iq_occupancy: Histogram,
    /// LQ depth at batch boundaries.
    pub lq_occupancy: Histogram,
    /// SQ depth at batch boundaries.
    pub sq_occupancy: Histogram,
    /// CPI-stack commit slots by µop tag: one slot per committed µop,
    /// indexed like [`TAG_NAMES`](crate::core::TAG_NAMES). Deliberately
    /// accumulated in the consume loop, independently of
    /// [`TimingReport`](crate::TimingReport)'s `uops_by_tag`, so the
    /// zero-slack suite can cross-check the two paths.
    pub commit_slots_by_tag: [u64; NUM_TAGS],
    /// CPI-stack stall slots by cause, indexed like [`STALL_CAUSE_NAMES`].
    /// Together with `commit_slots_by_tag` and the drain tail computed at
    /// export, these sum to exactly `cycles × commit_width`.
    pub stall_slots: [u64; NUM_STALL_CAUSES],
}

impl CoreTelemetry {
    /// Exports every collected quantity under the stable `profile.*`
    /// namespace.
    pub fn export_into(&self, reg: &mut MetricsRegistry) {
        reg.counter_at("profile.insts", Unit::Count, self.insts);
        reg.counter_at("profile.uops", Unit::Count, self.uops);
        for (name, &n) in UOP_KIND_NAMES.iter().zip(&self.dispatch_by_kind) {
            reg.counter_at(&format!("profile.dispatch.{name}"), Unit::Count, n);
        }
        reg.histogram_at("profile.occupancy.rob", Unit::Count, &self.rob_occupancy);
        reg.histogram_at("profile.occupancy.iq", Unit::Count, &self.iq_occupancy);
        reg.histogram_at("profile.occupancy.lq", Unit::Count, &self.lq_occupancy);
        reg.histogram_at("profile.occupancy.sq", Unit::Count, &self.sq_occupancy);
    }
}

/// Compile-time guard: the dispatch-counter array covers every
/// [`UopKind`]; a new variant fails this match and points here.
#[allow(dead_code)]
const fn kind_covered(kind: UopKind) -> usize {
    match kind {
        UopKind::IntAlu => 0,
        UopKind::IntMul => 1,
        UopKind::IntDiv => 2,
        UopKind::FpAlu => 3,
        UopKind::FpMul => 4,
        UopKind::FpDiv => 5,
        UopKind::Branch => 6,
        UopKind::Load => 7,
        UopKind::Store => 8,
        UopKind::ShadowLoad => 9,
        UopKind::ShadowStore => 10,
        UopKind::LockLoad => 11,
        UopKind::LockStore => 12,
        UopKind::Check => 13,
        UopKind::BoundsCheck => 14,
        UopKind::CheckCombined => 15,
        UopKind::SelectMeta => 16,
        UopKind::Nop => 17,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_indices_match_the_name_table() {
        for (i, kind) in [
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
        ]
        .into_iter()
        .enumerate()
        {
            assert_eq!(kind as usize, i, "{kind:?}");
            assert_eq!(kind_covered(kind), i, "{kind:?}");
        }
    }

    #[test]
    fn export_produces_the_stable_namespace() {
        let mut t = CoreTelemetry {
            insts: 10,
            uops: 25,
            ..CoreTelemetry::default()
        };
        t.dispatch_by_kind[UopKind::Check as usize] = 5;
        t.rob_occupancy.observe(100);
        let mut reg = MetricsRegistry::new();
        t.export_into(&mut reg);
        assert_eq!(reg.counter_value("profile.insts"), Some(10));
        assert_eq!(reg.counter_value("profile.dispatch.check"), Some(5));
        assert_eq!(reg.hist_value("profile.occupancy.rob").unwrap().max(), 100);
    }
}
