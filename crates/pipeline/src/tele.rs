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
//! * **wheel-slot lead histogram** — how far ahead of dispatch each
//!   µop's issue slot lands in the calendar wheel;
//! * **phase timers** — host-nanosecond attribution of the consume loop
//!   to *dispatch*, *wheel drain* (window-occupancy checks), *hierarchy
//!   walk* (cache accesses) and *commit*, measured on one batch in
//!   [`TelemetryConfig::profile_every`] so the `Instant` cost never
//!   shows up in throughput (the ≤2%-overhead acceptance bound).
//!
//! Everything here is host-side observation: enabling telemetry never
//! changes a timestamp, so every equivalence suite holds with it on.

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

/// Self-profiler knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Phase-time one batch in every `profile_every` (`0` disables phase
    /// timing entirely; counters and occupancy histograms still run).
    /// The default of 256 keeps the `Instant` calls off ~99.6% of
    /// batches, holding whole-profiler overhead under the 2% budget the
    /// `timing_wheel/*_wheel_telemetry` perf case tracks.
    pub profile_every: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig { profile_every: 256 }
    }
}

/// Host-nanosecond attribution of the consume loop's phases, summed over
/// the sampled batches.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseProfile {
    /// Batches that were phase-timed.
    pub batches_sampled: u64,
    /// Wall-clock nanoseconds those batches took end to end.
    pub total_ns: u64,
    /// Time in the window-occupancy checks (ROB/IQ/LQ/SQ drains).
    pub wheel_drain_ns: u64,
    /// Time inside [`Hierarchy::access`](watchdog_mem::Hierarchy)
    /// (I-fetch, data, shadow and lock classes alike).
    pub hierarchy_ns: u64,
    /// Time assigning commit slots and pushing window entries.
    pub commit_ns: u64,
}

impl PhaseProfile {
    /// Everything not attributed to a finer phase: fetch bandwidth,
    /// rename bookkeeping, source readiness, FU reservation — the
    /// dispatch path the ROADMAP's open item is chasing.
    pub fn dispatch_ns(&self) -> u64 {
        self.total_ns
            .saturating_sub(self.wheel_drain_ns + self.hierarchy_ns + self.commit_ns)
    }
}

/// The preallocated instrumentation block. Constructing it allocates
/// (two boxed histogram-bearing fields inside one `Box`); recording into
/// it never does — the batch-feed allocation-discipline test runs with
/// one of these attached.
#[derive(Debug, Clone)]
pub struct CoreTelemetry {
    cfg: TelemetryConfig,
    batches: u64,
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
    /// `issue - dispatch` distance per µop (sampled batches only): how
    /// far ahead of its dispatch cycle each µop lands in the wheel.
    pub wheel_lead: Histogram,
    /// Phase-time attribution over the sampled batches.
    pub phases: PhaseProfile,
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
    /// Fresh, empty instrumentation block.
    pub fn new(cfg: TelemetryConfig) -> Self {
        CoreTelemetry {
            cfg,
            batches: 0,
            insts: 0,
            uops: 0,
            dispatch_by_kind: [0; NUM_UOP_KINDS],
            rob_occupancy: Histogram::new(),
            iq_occupancy: Histogram::new(),
            lq_occupancy: Histogram::new(),
            sq_occupancy: Histogram::new(),
            wheel_lead: Histogram::new(),
            phases: PhaseProfile::default(),
            commit_slots_by_tag: [0; NUM_TAGS],
            stall_slots: [0; NUM_STALL_CAUSES],
        }
    }

    /// Marks the start of a batch; returns whether this batch is
    /// phase-timed.
    #[inline]
    pub(crate) fn begin_batch(&mut self) -> bool {
        self.batches += 1;
        self.cfg.profile_every != 0 && self.batches.is_multiple_of(self.cfg.profile_every)
    }

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
        reg.histogram_at("profile.wheel.lead", Unit::Cycles, &self.wheel_lead);
        let p = &self.phases;
        reg.counter_at(
            "profile.phase.batches_sampled",
            Unit::Count,
            p.batches_sampled,
        );
        reg.counter_at("profile.phase.total.ns", Unit::Nanos, p.total_ns);
        reg.counter_at("profile.phase.dispatch.ns", Unit::Nanos, p.dispatch_ns());
        reg.counter_at(
            "profile.phase.wheel_drain.ns",
            Unit::Nanos,
            p.wheel_drain_ns,
        );
        reg.counter_at("profile.phase.hierarchy.ns", Unit::Nanos, p.hierarchy_ns);
        reg.counter_at("profile.phase.commit.ns", Unit::Nanos, p.commit_ns);
    }
}

/// Runs `f`, charging its wall-clock time to `acc` when `sampled` —
/// the phase-timing wrapper the consume loop places around its
/// hierarchy calls.
#[inline]
pub(crate) fn timed<T>(sampled: bool, acc: &mut u64, f: impl FnOnce() -> T) -> T {
    if sampled {
        let t0 = std::time::Instant::now();
        let r = f();
        *acc += t0.elapsed().as_nanos() as u64;
        r
    } else {
        f()
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
    fn phase_sampling_cadence() {
        let mut t = CoreTelemetry::new(TelemetryConfig { profile_every: 4 });
        let sampled: Vec<bool> = (0..8).map(|_| t.begin_batch()).collect();
        assert_eq!(
            sampled,
            [false, false, false, true, false, false, false, true]
        );
        let mut off = CoreTelemetry::new(TelemetryConfig { profile_every: 0 });
        assert!(
            (0..8).all(|_| !off.begin_batch()),
            "0 disables phase timing"
        );
    }

    #[test]
    fn dispatch_ns_is_the_unattributed_remainder() {
        let p = PhaseProfile {
            batches_sampled: 1,
            total_ns: 100,
            wheel_drain_ns: 20,
            hierarchy_ns: 30,
            commit_ns: 10,
        };
        assert_eq!(p.dispatch_ns(), 40);
        // Timer skew can push the parts past the whole; never underflow.
        let skewed = PhaseProfile {
            total_ns: 10,
            wheel_drain_ns: 20,
            ..p
        };
        assert_eq!(skewed.dispatch_ns(), 0);
    }

    #[test]
    fn export_produces_the_stable_namespace() {
        let mut t = CoreTelemetry::new(TelemetryConfig::default());
        t.insts = 10;
        t.uops = 25;
        t.dispatch_by_kind[UopKind::Check as usize] = 5;
        t.rob_occupancy.observe(100);
        let mut reg = MetricsRegistry::new();
        t.export_into(&mut reg);
        assert_eq!(reg.counter_value("profile.insts"), Some(10));
        assert_eq!(reg.counter_value("profile.dispatch.check"), Some(5));
        assert_eq!(reg.hist_value("profile.occupancy.rob").unwrap().max(), 100);
        assert_eq!(reg.counter_value("profile.phase.dispatch.ns"), Some(0));
    }
}
