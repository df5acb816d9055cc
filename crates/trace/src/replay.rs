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
//!
//! None of those knobs changes the µop stream itself, so [`replay_many`]
//! decodes each event and fills each [`UopBatch`] once, then drains the
//! batch into one [`TimingCore`] per *timing class*: configurations that
//! agree in everything but the LL$ geometry, and whose LL$s hit and miss
//! identically on the trace's lock accesses, replay to the same report,
//! so they share one core. Memory therefore grows with the number of
//! classes, not of configurations. [`replay()`] and its variants are
//! one-configuration calls of that same loop, and one decode loop serves
//! both the timing pass and the pass that finds the classes.

use watchdog_core::machine::CheckMode;
use watchdog_core::prelude::*;
use watchdog_isa::crack::{crack, CommitFacts, CtrlKind, MetaEffect};
use watchdog_isa::crack_cache::{CrackCache, CrackCacheStats};
use watchdog_isa::insn::Inst;
use watchdog_isa::Program;
use watchdog_mem::{AccessClass, CacheConfig, GeometryClasses, HierarchyConfig};
use watchdog_pipeline::{CoreConfig, MemOp, TimingCore, TimingReport, UopBatch};
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
    /// Checks the core and hierarchy parameters (see
    /// [`CoreConfig::validate`] and [`HierarchyConfig::validate`]).
    ///
    /// # Errors
    ///
    /// [`TraceError::Config`] naming the first invalid field.
    pub fn validate(&self) -> Result<(), TraceError> {
        self.core.validate()?;
        Ok(self.hierarchy.validate()?)
    }

    /// The timing-side slice of a full [`SimConfig`] (`mode`, `timing` and
    /// `max_insts` do not apply to replay).
    pub fn from_sim(cfg: &SimConfig) -> Self {
        ReplayConfig {
            core: cfg.core,
            hierarchy: cfg.hierarchy,
            crack_cache: cfg.crack_cache,
        }
    }
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
/// [`TraceError::Config`] when `cfg.core` or `cfg.hierarchy` is invalid
/// (see [`ReplayConfig::validate`]);
/// [`TraceError::ProgramMismatch`] when
/// `program` is not the program the trace was recorded from (name or
/// fingerprint differ); other [`TraceError`]s when the event stream is
/// corrupt or truncated.
pub fn replay(
    program: &Program,
    trace: &Trace,
    cfg: &ReplayConfig,
) -> Result<RunReport, TraceError> {
    let cfgs = std::slice::from_ref(cfg);
    let replayed = replay_impl(program, trace, cfgs)?;
    Ok(replayed.reports(trace, cfgs).pop().expect("one report"))
}

/// [`replay()`] that also returns the timing core's self-profile: the
/// per-kind dispatch counters, occupancy histograms and CPI stack every
/// core records, exported with the feed counters and the lock-probe memo
/// hits as a `profile.*`/`cpi.*`/`feed.*`/`mem.ll.memo_hits` registry
/// beside the report. The registry equals the `core_metrics` of a live
/// instrumented run of the same cell. The report itself is
/// byte-identical to [`replay()`].
///
/// # Errors
///
/// Exactly as [`replay()`].
pub fn replay_instrumented(
    program: &Program,
    trace: &Trace,
    cfg: &ReplayConfig,
) -> Result<(RunReport, MetricsRegistry), TraceError> {
    let cfgs = std::slice::from_ref(cfg);
    let replayed = replay_impl(program, trace, cfgs)?;
    let mut registry = MetricsRegistry::new();
    replayed.cores[0].export_telemetry_into(&mut registry);
    let report = replayed.reports(trace, cfgs).pop().expect("one report");
    Ok((report, registry))
}

/// Replays `trace` under every configuration of `cfgs` in one pass: each
/// event is decoded and each [`UopBatch`] filled once, then drained into
/// one [`TimingCore`] per *timing class*, a set of configurations whose
/// replays are provably identical. Report `i` is field-identical to
/// `replay(program, trace, &cfgs[i])`; an empty `cfgs` returns no reports
/// and decodes nothing.
///
/// Two configurations share a timing class when their core and hierarchy
/// (with the trace mode's knobs applied) agree in every field but the
/// LL$ geometry, and their LL$s hit and miss identically on every access
/// of the trace that reaches the LL$, in order. The crack-cache toggle
/// never changes timing; crack-cache statistics are still reported per
/// configuration. Finding the classes takes a first pass over the trace
/// only when two configurations agree in everything but distinct LL$
/// geometries; otherwise that pass is skipped, so a one-configuration
/// call pays nothing for it.
///
/// One hierarchy per class is live for the whole pass, so memory grows
/// with the number of timing classes, not with `cfgs.len()`.
///
/// # Errors
///
/// As [`replay()`]. Every configuration is validated before any event is
/// decoded, so one invalid configuration fails the whole call with the
/// [`TraceError::Config`] naming its field.
pub fn replay_many(
    program: &Program,
    trace: &Trace,
    cfgs: &[ReplayConfig],
) -> Result<Vec<RunReport>, TraceError> {
    Ok(replay_impl(program, trace, cfgs)?.reports(trace, cfgs))
}

/// The results of one [`replay_impl`] call.
#[derive(Default)]
struct Replayed {
    /// Each configuration's timing class: an index into `cores`.
    class_of: Vec<usize>,
    /// One fed, unfinished timing core per class.
    cores: Vec<TimingCore>,
    /// The shared crack cache's statistics, if any configuration enabled it.
    crack_cache: Option<CrackCacheStats>,
}

impl Replayed {
    /// Finishes every core and returns the report of each configuration
    /// of `cfgs`, the configurations this replay ran.
    fn reports(self, trace: &Trace, cfgs: &[ReplayConfig]) -> Vec<RunReport> {
        let timings: Vec<TimingReport> = self.cores.into_iter().map(TimingCore::finish).collect();
        cfgs.iter()
            .zip(&self.class_of)
            .map(|(cfg, &class)| RunReport {
                program: trace.program.clone(),
                mode: trace.mode.label(),
                machine: trace.machine,
                heap: trace.heap,
                footprint: trace.footprint,
                violation: trace.outcome.violation(),
                timing: Some(timings[class].clone()),
                crack_cache: self.crack_cache.filter(|_| cfg.crack_cache),
            })
            .collect()
    }
}

/// The replay loop, over every configuration of `cfgs` at once: one
/// [`TimingCore`] per timing class (see [`timing_classes`]), built from
/// the class's first configuration.
fn replay_impl(
    program: &Program,
    trace: &Trace,
    cfgs: &[ReplayConfig],
) -> Result<Replayed, TraceError> {
    for cfg in cfgs {
        cfg.validate()?;
    }
    if trace.program != program.name() || trace.fingerprint != program_fingerprint(program) {
        return Err(TraceError::ProgramMismatch {
            trace: trace.program.clone(),
            program: program.name().to_string(),
        });
    }
    if cfgs.is_empty() {
        return Ok(Replayed::default());
    }
    let mode = trace.mode;
    let hiers: Vec<HierarchyConfig> = cfgs
        .iter()
        .map(|cfg| {
            let mut hier = cfg.hierarchy;
            mode.apply_hierarchy(&mut hier);
            hier
        })
        .collect();
    let class_of = timing_classes(program, trace, cfgs, &hiers)?;
    let mut cores: Vec<TimingCore> = Vec::new();
    for (i, &class) in class_of.iter().enumerate() {
        if class == cores.len() {
            cores.push(TimingCore::new(cfgs[i].core, hiers[i]));
        }
    }

    // One crack cache serves every point that asked for it: the cache is
    // exact, so cached and uncached expansions fill identical batches,
    // and its statistics are the same whichever point reads them.
    let mut cache = cfgs
        .iter()
        .any(|cfg| cfg.crack_cache)
        .then(|| CrackCache::new(mode.crack_config(), program.len()));
    decode_batches(program, trace, cache.as_mut(), |batch| {
        for core in &mut cores {
            core.consume_batch(batch);
        }
    })?;

    Ok(Replayed {
        class_of,
        cores,
        crack_cache: cache.map(|c| c.stats()),
    })
}

/// Splits `cfgs` into timing classes and returns each configuration's
/// class, numbered in order of first appearance. `hiers` are their
/// hierarchies with the trace mode's knobs applied.
///
/// Two configurations share a class when both hold:
/// * their core and hierarchy agree in every field except the LL$
///   geometry (`crack_cache` never changes timing);
/// * their LL$ geometries hit and miss identically on every access of the
///   trace that reaches the LL$ ([`AccessClass::reaches_ll`]), in order.
///   This holds trivially for equal geometries, and for hierarchies that
///   send nothing to the LL$.
///
/// The rule is exact. Only those accesses reach the LL$, the LL TLB in
/// front of it does not depend on its geometry, and the lock-probe memo
/// never changes an outcome. So an identical hit/miss sequence means
/// identical latencies, an identical L2/L3 access sequence and identical
/// `ll` statistics: the whole report.
///
/// Where configurations agree in everything but distinct LL$ geometries,
/// a first pass runs the one decode loop with a throwaway crack cache (the
/// reported crack statistics do not change) and feeds the LL$ accesses to
/// a [`GeometryClasses`] over those geometries. Otherwise no pass runs.
fn timing_classes(
    program: &Program,
    trace: &Trace,
    cfgs: &[ReplayConfig],
    hiers: &[HierarchyConfig],
) -> Result<Vec<usize>, TraceError> {
    let n = cfgs.len();
    // Each configuration's group: the first configuration it agrees with
    // in everything but the LL$ geometry.
    let group: Vec<usize> = (0..n)
        .map(|i| {
            (0..=i)
                .find(|&j| {
                    cfgs[j].core == cfgs[i].core
                        && HierarchyConfig {
                            ll: hiers[j].ll,
                            ..hiers[i]
                        } == hiers[j]
                })
                .expect("a configuration agrees with itself")
        })
        .collect();
    // Per group (indexed by its first configuration) that sends accesses
    // to the LL$: its members' distinct geometries.
    let mut geometries: Vec<Vec<CacheConfig>> = vec![Vec::new(); n];
    for (hier, &g) in hiers.iter().zip(&group) {
        let uses_ll = AccessClass::ALL.iter().any(|c| c.reaches_ll(hier));
        if uses_ll && !geometries[g].contains(&hier.ll) {
            geometries[g].push(hier.ll);
        }
    }
    let mut refining: Vec<(usize, GeometryClasses)> = geometries
        .iter()
        .enumerate()
        .filter(|(_, geoms)| geoms.len() > 1)
        .map(|(g, geoms)| (g, GeometryClasses::new(geoms)))
        .collect();
    if !refining.is_empty() {
        let mut throwaway = CrackCache::new(trace.mode.crack_config(), program.len());
        decode_batches(program, trace, Some(&mut throwaway), |batch| {
            for (&mem, &addr) in batch.mems().iter().zip(batch.addrs()) {
                let (MemOp::Read(class) | MemOp::Write(class)) = mem else {
                    continue;
                };
                for (g, classes) in &mut refining {
                    if class.reaches_ll(&hiers[*g]) {
                        classes.access(addr);
                    }
                }
            }
        })?;
    }
    // Within a group, a geometry's class; groups with one geometry (or
    // none reached) are one class.
    let mut within: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (g, classes) in &refining {
        within[*g] = classes.classes();
    }
    let mut keys: Vec<(usize, usize)> = Vec::new();
    Ok((0..n)
        .map(|i| {
            let g = group[i];
            let sub = geometries[g]
                .iter()
                .position(|&ll| ll == hiers[i].ll)
                .and_then(|pos| within[g].get(pos).copied())
                .unwrap_or(0);
            keys.iter().position(|&k| k == (g, sub)).unwrap_or_else(|| {
                keys.push((g, sub));
                keys.len() - 1
            })
        })
        .collect())
}

/// The one decode loop: decodes every event of `trace`, re-cracking
/// statically through `cache` when given, fills [`UopBatch`]es with the
/// same [`UopBatch::push_expansion`] the live machine's batched step uses,
/// and hands each full batch, then the final partial one, to `drain`.
fn decode_batches(
    program: &Program,
    trace: &Trace,
    mut cache: Option<&mut CrackCache>,
    mut drain: impl FnMut(&UopBatch),
) -> Result<(), TraceError> {
    let crack_cfg = trace.mode.crack_config();
    let location = trace.mode.check_mode() == CheckMode::Location;
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
        let stat = match cache.as_deref_mut() {
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
            drain(&ubatch);
            ubatch.clear();
        }
    }
    if pos != events.len() {
        return Err(TraceError::Corrupt("trailing bytes in event stream"));
    }
    drain(&ubatch);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use watchdog_isa::{Cond, Gpr, ProgramBuilder};

    /// Allocates `n` objects into a list, walks it, then frees it: `n`
    /// live lock locations, more than a 1 KB LL$ holds.
    fn objects(n: i64) -> Program {
        let g = Gpr::new;
        let mut b = ProgramBuilder::new("objects");
        let (head, cur, nxt, sz, i, lim) = (g(0), g(1), g(2), g(3), g(4), g(5));
        b.li(sz, 16);
        b.li(head, 0);
        b.li(i, 0);
        b.li(lim, n);
        let build = b.here();
        b.malloc(nxt, sz);
        b.st8(head, nxt, 0);
        b.mov(head, nxt);
        b.addi(i, i, 1);
        b.branch(Cond::Lt, i, lim, build);
        b.mov(cur, head);
        let walk = b.here();
        b.ld8(cur, cur, 0);
        b.branch(Cond::Ne, cur, g(14), walk);
        b.mov(cur, head);
        let free = b.here();
        b.ld8(nxt, cur, 0);
        b.free(cur);
        b.mov(cur, nxt);
        b.branch(Cond::Ne, cur, g(14), free);
        b.halt();
        b.build().unwrap()
    }

    /// The timing classes of four LL$ geometries over `trace`.
    fn classes(program: &Program, trace: &Trace) -> Result<Vec<usize>, TraceError> {
        let cfgs: Vec<ReplayConfig> = [(1, 2), (1, 16), (4, 8), (16, 16)]
            .into_iter()
            .map(|(kb, ways)| {
                let mut cfg = ReplayConfig::default();
                cfg.hierarchy.ll = CacheConfig::new(kb * 1024, ways, 64);
                cfg
            })
            .collect();
        let hiers: Vec<HierarchyConfig> = cfgs
            .iter()
            .map(|cfg| {
                let mut hier = cfg.hierarchy;
                trace.mode.apply_hierarchy(&mut hier);
                hier
            })
            .collect();
        timing_classes(program, trace, &cfgs, &hiers)
    }

    #[test]
    fn modes_that_skip_the_ll_put_every_geometry_in_one_class() {
        let p = objects(600);
        let no_ll = Mode::Watchdog {
            ptr: PointerId::IsaAssisted,
            lock_cache: false,
            ideal_shadow: false,
        };
        for mode in [Mode::Baseline, no_ll] {
            let trace = crate::record(&p, mode, 10_000_000).unwrap();
            assert_eq!(classes(&p, &trace), Ok(vec![0; 4]), "{}", mode.label());
        }
        // The same program and geometries split once the LL$ is in use.
        let trace = crate::record(&p, Mode::watchdog(), 10_000_000).unwrap();
        let split = classes(&p, &trace).unwrap();
        assert!(split.iter().any(|&c| c > 0), "{split:?}");
    }

    #[test]
    fn the_class_pass_runs_only_when_geometries_could_share() {
        // A truncated event stream fails any decode, so it shows whether
        // the pass ran.
        let p = objects(50);
        for (mode, decodes) in [
            (Mode::watchdog(), true),
            (
                Mode::Watchdog {
                    ptr: PointerId::IsaAssisted,
                    lock_cache: false,
                    ideal_shadow: false,
                },
                false,
            ),
        ] {
            let mut trace = crate::record(&p, mode, 10_000_000).unwrap();
            trace.events.truncate(trace.events.len() / 2);
            let got = classes(&p, &trace);
            assert_eq!(got.is_err(), decodes, "{}: {got:?}", mode.label());
            let one = timing_classes(
                &p,
                &trace,
                &[ReplayConfig::default()],
                &[HierarchyConfig::default()],
            );
            assert_eq!(one, Ok(vec![0]), "one configuration never decodes");
        }
    }
}
