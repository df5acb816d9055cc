//! Trace-driven timing replay: re-crack statically, decode the dynamic
//! facts, feed the timing core — no architectural re-execution.
//!
//! The replayer reproduces a live timed simulation *exactly*: the µop
//! batches are filled by the same
//! [`UopBatch::push_expansion`] the machine's batched step uses, static
//! expansions come from the same per-PC [`CrackCache`], and the functional half of the [`RunReport`] (stats,
//! heap, footprint, violation) is carried in the trace trailer. What *can*
//! vary per replay is everything the timing model owns: core parameters,
//! the cache hierarchy (LL$ size/associativity, ideal shadow) and the
//! crack cache toggle — which is what makes one-pass configuration sweeps
//! possible.

use watchdog_core::machine::CheckMode;
use watchdog_core::prelude::*;
use watchdog_isa::crack::{crack, CommitFacts, CtrlKind, MetaEffect};
use watchdog_isa::crack_cache::CrackCache;
use watchdog_isa::insn::Inst;
use watchdog_isa::Program;
use watchdog_mem::HierarchyConfig;
use watchdog_pipeline::{CoreConfig, FeedStats, TelemetryConfig, TimingCore, UopBatch};
use watchdog_telemetry::MetricsRegistry;

use crate::format::{program_fingerprint, Trace, TraceError};
use crate::record::{F_BRANCH, F_FOLDABLE, F_FOLDED, F_PTR, F_SEQ, F_TAKEN};
use crate::wire::get_ivarint;

/// Timing-side configuration of one replay. The checking mode is *not*
/// here — it is baked into the trace (it shapes the recorded stream); the
/// replayer only varies what a microarchitectural ablation varies.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Core parameters (Table 2 by default).
    pub core: CoreConfig,
    /// Memory-hierarchy parameters. The trace mode's lock-cache /
    /// ideal-shadow knobs are applied on top, exactly as in a live run.
    pub hierarchy: HierarchyConfig,
    /// Serve static crack expansions from the per-PC cache.
    pub crack_cache: bool,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            core: CoreConfig::sandy_bridge(),
            hierarchy: HierarchyConfig::default(),
            crack_cache: true,
        }
    }
}

impl ReplayConfig {
    /// The timing-side slice of a full [`SimConfig`] (`mode`, `timing` and
    /// `max_insts` do not apply to replay).
    ///
    /// # Panics
    ///
    /// Panics when `cfg.sampling` is set: replay measures every recorded
    /// instruction, so it cannot reproduce a sampled run's report — fail
    /// fast instead of returning a guaranteed "divergence".
    pub fn from_sim(cfg: &SimConfig) -> Self {
        assert!(
            cfg.sampling.is_none(),
            "trace replay does not support sampled measurement windows"
        );
        ReplayConfig {
            core: cfg.core,
            hierarchy: cfg.hierarchy,
            crack_cache: cfg.crack_cache,
        }
    }
}

/// Replay-side feed diagnostics returned by [`replay_with_stats`]:
/// how the µop stream reached the timing core. Deliberately outside the
/// [`RunReport`], which must stay field-identical to the live run's.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayStats {
    /// Batch-feed counters of the timing core.
    pub feed: FeedStats,
    /// Lock-probe memo short circuits taken by the hierarchy.
    pub ll_memo_hits: u64,
}

/// End-to-end equivalence check, shared by the CI `trace selftest`, the
/// workspace equivalence tests and diagnostics so the "oracle-exact"
/// property is asserted by exactly one recipe: run the live timed
/// simulation of `sim`, [`record`](crate::record()) the same program,
/// round-trip the trace through its serialized form, [`replay()`] it under
/// the timing slice of `sim`, and compare the two [`RunReport`]s
/// field-for-field (via their `Debug` rendering, which prints every nested
/// statistic).
///
/// # Errors
///
/// A human-readable description — prefixed with the program name and mode
/// label — of the first failure: a simulation/recording/replay error, or
/// the pair of diverging reports.
pub fn verify_replay(program: &Program, sim: &SimConfig) -> Result<(), String> {
    let mode = sim.mode;
    let label = |what: &str| format!("{}/{}: {what}", program.name(), mode.label());
    let live = Simulator::new(sim.clone())
        .run(program)
        .map_err(|e| label(&format!("live run failed: {e}")))?;
    let trace = crate::record(program, mode, sim.max_insts)
        .map_err(|e| label(&format!("record failed: {e}")))?;
    let trace = Trace::from_bytes(&trace.to_bytes())
        .map_err(|e| label(&format!("serialization round-trip failed: {e}")))?;
    let cfg = ReplayConfig::from_sim(sim);
    let rep = replay(program, &trace, &cfg).map_err(|e| label(&format!("replay failed: {e}")))?;
    let (a, b) = (format!("{live:?}"), format!("{rep:?}"));
    if a != b {
        return Err(label(&format!(
            "replay diverges from live\nlive:   {a}\nreplay: {b}"
        )));
    }
    Ok(())
}

/// Replays `trace` through the timing model under `cfg`, producing the
/// [`RunReport`] the equivalent live timed simulation would produce —
/// field-for-field, including crack-cache statistics.
///
/// # Errors
///
/// [`TraceError::Config`] when `cfg.core` is invalid (see
/// [`CoreConfig::validate`]); [`TraceError::ProgramMismatch`] when
/// `program` is not the program the trace was recorded from (name or
/// fingerprint differ); other [`TraceError`]s when the event stream is
/// corrupt or truncated.
pub fn replay(
    program: &Program,
    trace: &Trace,
    cfg: &ReplayConfig,
) -> Result<RunReport, TraceError> {
    replay_with_stats(program, trace, cfg).map(|(report, _)| report)
}

/// [`replay()`] plus the feed diagnostics (batch occupancy, lock-probe
/// memo hits) that never appear in the report itself.
///
/// # Errors
///
/// Exactly as [`replay()`].
pub fn replay_with_stats(
    program: &Program,
    trace: &Trace,
    cfg: &ReplayConfig,
) -> Result<(RunReport, ReplayStats), TraceError> {
    replay_impl(program, trace, cfg, None).map(|(report, stats, _)| (report, stats))
}

/// [`replay()`] with the timing core's self-profiler attached: the core
/// collects per-kind dispatch counters, occupancy/wheel histograms and
/// sampled phase timers under `tele`, exported as a `profile.*`/`feed.*`
/// registry beside the report. The report itself is byte-identical to an
/// uninstrumented [`replay()`] — telemetry is observation, never timing.
///
/// # Errors
///
/// Exactly as [`replay()`].
pub fn replay_instrumented(
    program: &Program,
    trace: &Trace,
    cfg: &ReplayConfig,
    tele: TelemetryConfig,
) -> Result<(RunReport, MetricsRegistry), TraceError> {
    replay_impl(program, trace, cfg, Some(tele)).map(|(report, _, reg)| (report, reg))
}

/// The replay loop. `tele`, when supplied, attaches the core's
/// self-profiler and exports its registry as the third element (empty
/// otherwise).
fn replay_impl(
    program: &Program,
    trace: &Trace,
    cfg: &ReplayConfig,
    tele: Option<TelemetryConfig>,
) -> Result<(RunReport, ReplayStats, MetricsRegistry), TraceError> {
    cfg.core.validate()?;
    if trace.program != program.name() || trace.fingerprint != program_fingerprint(program) {
        return Err(TraceError::ProgramMismatch {
            trace: trace.program.clone(),
            program: program.name().to_string(),
        });
    }
    let mode = trace.mode;
    let crack_cfg = mode.crack_config();
    let location = mode.check_mode() == CheckMode::Location;
    let mut hier = cfg.hierarchy;
    mode.apply_hierarchy(&mut hier);

    let mut cache = cfg
        .crack_cache
        .then(|| CrackCache::new(crack_cfg, program.len()));
    let mut core = TimingCore::new(cfg.core, hier);
    if let Some(tcfg) = tele {
        core.enable_telemetry(tcfg);
    }
    let mut ubatch = UopBatch::with_capacity(UopBatch::TARGET_INSTS);
    let mut addrs: Vec<u64> = Vec::with_capacity(watchdog_isa::uop::MAX_UOPS + 1);

    let events = &trace.events[..];
    let mut pos = 0usize;
    let mut next_pc = 0usize;
    let mut last_addr = 0u64;
    let mut last_target = 0i64;
    for _ in 0..trace.event_count {
        let Some(&flags) = events.get(pos) else {
            return Err(TraceError::Truncated);
        };
        pos += 1;
        if flags & 0xc0 != 0 {
            return Err(TraceError::Corrupt("unknown event flag bits"));
        }
        let pc = if flags & F_SEQ != 0 {
            next_pc as i64
        } else {
            next_pc as i64 + get_ivarint(events, &mut pos)?
        };
        if pc < 0 || pc as usize >= program.len() {
            return Err(TraceError::Corrupt("event pc out of program range"));
        }
        let pc = pc as usize;
        next_pc = pc + 1;
        let inst = *program.inst(pc);
        let ptr_op = flags & F_PTR != 0;

        // Uncached replays re-crack per event, mirroring the uncached
        // machine (so `crack_cache: false` ablations replay with
        // identical — absent — cache statistics).
        let uncached;
        let stat = match cache.as_mut() {
            Some(c) => c.get_or_crack(pc, &inst, ptr_op),
            None => {
                uncached = crack(&inst, ptr_op, &crack_cfg);
                &uncached
            }
        };
        let location_check = location && inst.is_mem();
        let n_addrs = watchdog_isa::crack::mem_uop_count(&stat.uops) + usize::from(location_check);
        addrs.clear();
        for _ in 0..n_addrs {
            last_addr = last_addr.wrapping_add(get_ivarint(events, &mut pos)? as u64);
            addrs.push(last_addr);
        }
        let has_branch = flags & F_BRANCH != 0;
        if has_branch != (stat.ctrl != CtrlKind::None) {
            return Err(TraceError::Corrupt("branch flag disagrees with decode"));
        }
        let branch = if has_branch {
            last_target = last_target.wrapping_add(get_ivarint(events, &mut pos)?);
            Some((flags & F_TAKEN != 0, last_target as u64))
        } else {
            None
        };
        let select_fold = if flags & F_FOLDED != 0 {
            if flags & F_FOLDABLE == 0 {
                return Err(TraceError::Corrupt("folded event without foldable flag"));
            }
            match inst {
                Inst::Alu { dst, .. } => Some(MetaEffect::Invalidate(dst)),
                _ => return Err(TraceError::Corrupt("fold on a non-ALU instruction")),
            }
        } else {
            None
        };
        let facts = CommitFacts {
            pc: program.addr_of(pc),
            len: inst.encoded_len(),
            select_fold,
            location_check,
            mem_addrs: &addrs,
            branch,
        };
        // Fill the SoA batch straight from the decoded event — the same
        // `push_expansion` the live machine's batched step uses, with no
        // scratch `CrackedInst` and no architectural interleaving.
        ubatch.push_expansion(stat, &facts);
        if ubatch.len() >= UopBatch::TARGET_INSTS {
            core.consume_batch(&ubatch);
            ubatch.clear();
        }
    }
    if pos != events.len() {
        return Err(TraceError::Corrupt("trailing bytes in event stream"));
    }
    core.consume_batch(&ubatch);

    let stats = ReplayStats {
        feed: core.feed_stats(),
        ll_memo_hits: core.hierarchy().ll_memo_hits(),
    };
    let mut reg = MetricsRegistry::new();
    if tele.is_some() {
        core.export_telemetry_into(&mut reg);
    }
    let report = RunReport {
        program: trace.program.clone(),
        mode: mode.label(),
        machine: trace.machine,
        heap: trace.heap,
        footprint: trace.footprint,
        violation: trace.outcome.violation(),
        timing: Some(core.finish()),
        crack_cache: cache.map(|c| c.stats()),
    };
    Ok((report, stats, reg))
}
