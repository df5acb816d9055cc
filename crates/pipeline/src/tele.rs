//! The timing core's self-profiler.
//!
//! `CoreTelemetry` is a fixed, preallocated block every
//! [`TimingCore`](crate::core::TimingCore) carries beside its model
//! state. It records what the model's report does not:
//!
//! * **per-µop-kind dispatch counters** — which µop mix actually hits
//!   the scheduler;
//! * **window-occupancy histograms** — ROB/IQ/LQ/SQ depth sampled at
//!   every batch boundary;
//! * **the CPI stack's stall slots** — every commit slot no µop fills,
//!   attributed to one cause. The commit slots are the report's per-tag
//!   µop totals, so the core exports them from those.
//!
//! Instruction and µop totals are the core's one pair of counters
//! ([`FeedStats`](crate::FeedStats)), not repeated here. Everything is a
//! simulated count: the block reads no host clock, so equal µop streams
//! give equal telemetry, whatever feeds them. It is also pure
//! observation: no timestamp depends on it.

use watchdog_isa::uop::UopKind;
use watchdog_telemetry::{Histogram, MetricsRegistry, Unit};

/// Number of [`UopKind`] variants (the dispatch-counter array length),
/// tied to the ISA's own count so the name table and the counters can
/// never drift apart.
pub const NUM_UOP_KINDS: usize = UopKind::COUNT;

/// Number of distinct stall causes in the CPI-stack accounting (the
/// drain tail is exported separately as `cpi.stall.drain`).
pub const NUM_STALL_CAUSES: usize = 12;

/// Registry-name suffix per stall cause, in the order of the profiler's
/// stall-slot counters. The first-match classification priority in the
/// consume loop runs the *other* way — memory misses beat FU contention
/// beat dependency waits beat window-full beat frontend causes — so the
/// cheap structural causes only absorb slots no finer cause claims.
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

/// The preallocated profiler block: flat counter arrays and inline
/// histograms, built with the core. Recording into it never allocates,
/// which the batch-feed allocation-discipline test pins.
#[derive(Debug, Default)]
pub(crate) struct CoreTelemetry {
    /// Dispatched µops by [`UopKind`] discriminant.
    pub(crate) dispatch_by_kind: [u64; NUM_UOP_KINDS],
    /// ROB depth at batch boundaries.
    pub(crate) rob_occupancy: Histogram,
    /// IQ depth at batch boundaries.
    pub(crate) iq_occupancy: Histogram,
    /// LQ depth at batch boundaries.
    pub(crate) lq_occupancy: Histogram,
    /// SQ depth at batch boundaries.
    pub(crate) sq_occupancy: Histogram,
    /// CPI-stack stall slots by cause, indexed like [`STALL_CAUSE_NAMES`].
    /// Together with the committed µops (one slot each) and the drain
    /// tail computed at export, these sum to exactly
    /// `cycles × commit_width`.
    pub(crate) stall_slots: [u64; NUM_STALL_CAUSES],
}

impl CoreTelemetry {
    /// Exports the dispatch counters and occupancy histograms under the
    /// stable `profile.*` namespace.
    pub(crate) fn export_into(&self, reg: &mut MetricsRegistry) {
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
        let mut t = CoreTelemetry::default();
        t.dispatch_by_kind[UopKind::Check as usize] = 5;
        t.rob_occupancy.observe(100);
        let mut reg = MetricsRegistry::new();
        t.export_into(&mut reg);
        assert_eq!(reg.counter_value("profile.dispatch.check"), Some(5));
        assert_eq!(reg.hist_value("profile.occupancy.rob").unwrap().max(), 100);
    }
}
