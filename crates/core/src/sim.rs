//! The simulator facade: couples the functional machine to the timing
//! model and produces [`RunReport`]s.
//!
//! A [`Mode`] selects one of the paper's evaluated configurations:
//!
//! | Mode | Paper reference |
//! |---|---|
//! | `Baseline` | uninstrumented baseline of §9.3 |
//! | `LocationBased` | §2.1 comparison checker (Table 1) |
//! | `Watchdog { ptr, lock_cache, ideal_shadow }` | §3–§6, Figs. 7–9 |
//! | `WatchdogBounds { ptr, uops }` | §8, Fig. 11 |
//!
//! For ISA-assisted pointer identification the simulator first runs the
//! §5.2 profiling pass (a functional-only run that records which static
//! instructions ever move valid metadata), then the measured run.

use std::time::Instant;

use watchdog_isa::crack::BoundsUops::{self, Fused, Split};
use watchdog_isa::program::Program;
use watchdog_mem::HierarchyConfig;
use watchdog_pipeline::{CoreConfig, TimingCore, UopBatch};

use crate::error::SimError;
use crate::machine::{CheckMode, Machine, MachineConfig, Step};
use crate::pointer_id::{PointerId, PointerPolicy, Profile};
use crate::report::RunReport;
use crate::telemetry::RunTelemetry;

/// A simulated configuration of the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Unmodified processor, no checking.
    Baseline,
    /// Location-based checker (allocation-status shadow, §2.1).
    LocationBased,
    /// Watchdog use-after-free checking.
    Watchdog {
        /// Pointer-identification policy (§5).
        ptr: PointerId,
        /// Use the dedicated lock-location cache (§4.2). Disabling it
        /// reproduces the "without lock location cache" bars of Fig. 9.
        lock_cache: bool,
        /// Idealize shadow accesses (§9.3 cache-pressure ablation).
        ideal_shadow: bool,
    },
    /// Watchdog + bounds checking = full memory safety (§8, Fig. 11).
    WatchdogBounds {
        /// Pointer-identification policy.
        ptr: PointerId,
        /// One fused check µop or two split µops.
        uops: BoundsUops,
    },
}

impl Mode {
    /// The paper's headline configuration: ISA-assisted identification with
    /// the lock-location cache.
    pub const fn watchdog() -> Mode {
        Mode::Watchdog {
            ptr: PointerId::IsaAssisted,
            lock_cache: true,
            ideal_shadow: false,
        }
    }

    /// Watchdog with conservative pointer identification (no binary
    /// changes, §5.1).
    pub const fn watchdog_conservative() -> Mode {
        Mode::Watchdog {
            ptr: PointerId::Conservative,
            lock_cache: true,
            ideal_shadow: false,
        }
    }

    /// ISA-assisted Watchdog without the lock-location cache (the
    /// "without lock location cache" bars of Fig. 9).
    pub const fn no_lock_cache() -> Mode {
        Mode::Watchdog {
            ptr: PointerId::IsaAssisted,
            lock_cache: false,
            ideal_shadow: false,
        }
    }

    /// ISA-assisted Watchdog with idealized shadow accesses (§9.3).
    pub const fn ideal_shadow() -> Mode {
        Mode::Watchdog {
            ptr: PointerId::IsaAssisted,
            lock_cache: true,
            ideal_shadow: true,
        }
    }

    /// ISA-assisted full memory safety with `uops` bounds checks (§8).
    pub const fn bounds(uops: BoundsUops) -> Mode {
        Mode::WatchdogBounds {
            ptr: PointerId::IsaAssisted,
            uops,
        }
    }

    /// Short human-readable label.
    pub fn label(&self) -> String {
        match self {
            Mode::Baseline => "baseline".into(),
            Mode::LocationBased => "location-based".into(),
            Mode::Watchdog {
                ptr,
                lock_cache,
                ideal_shadow,
            } => {
                let mut s = format!(
                    "watchdog/{}",
                    match ptr {
                        PointerId::Conservative => "conservative",
                        PointerId::IsaAssisted => "isa-assisted",
                    }
                );
                if !lock_cache {
                    s.push_str("/no-ll$");
                }
                if *ideal_shadow {
                    s.push_str("/ideal-shadow");
                }
                s
            }
            Mode::WatchdogBounds { ptr, uops } => format!(
                "watchdog+bounds/{}/{}",
                match ptr {
                    PointerId::Conservative => "conservative",
                    PointerId::IsaAssisted => "isa-assisted",
                },
                match uops {
                    BoundsUops::Fused => "1uop",
                    BoundsUops::Split => "2uop",
                }
            ),
        }
    }

    /// The machine-level checking scheme this mode enforces.
    pub fn check_mode(&self) -> CheckMode {
        match self {
            Mode::Baseline => CheckMode::None,
            Mode::LocationBased => CheckMode::Location,
            Mode::Watchdog { .. } | Mode::WatchdogBounds { .. } => CheckMode::Watchdog,
        }
    }

    /// The bounds-extension µop flavour, if this mode checks bounds (§8).
    pub fn bounds_uops(&self) -> Option<BoundsUops> {
        match self {
            Mode::WatchdogBounds { uops, .. } => Some(*uops),
            _ => None,
        }
    }

    /// The pointer-identification policy, for modes that classify at all.
    pub fn pointer_id(&self) -> Option<PointerId> {
        match self {
            Mode::Watchdog { ptr, .. } | Mode::WatchdogBounds { ptr, .. } => Some(*ptr),
            _ => None,
        }
    }

    /// The cracker configuration this mode decodes under — the same mapping
    /// [`Machine::new`] applies, exposed so trace replay cracks identically.
    pub fn crack_config(&self) -> watchdog_isa::crack::CrackConfig {
        use watchdog_isa::crack::CrackConfig;
        match (self.check_mode() == CheckMode::Watchdog, self.bounds_uops()) {
            (true, Some(b)) => CrackConfig::with_bounds(b),
            (true, None) => CrackConfig::watchdog(),
            (false, _) => CrackConfig::baseline(),
        }
    }

    /// Applies this mode's memory-hierarchy knobs (lock-location cache,
    /// idealized shadow) on top of a base configuration — exactly what
    /// [`Simulator::run`] does before building the timing core.
    pub fn apply_hierarchy(&self, hier: &mut HierarchyConfig) {
        if let Mode::Watchdog {
            lock_cache,
            ideal_shadow,
            ..
        } = *self
        {
            hier.lock_cache = lock_cache;
            hier.ideal_shadow = ideal_shadow;
        }
    }
}

/// Every command-line spelling of a [`Mode`], one row per mode: the
/// canonical name first, then its aliases (what `Mode::from_str` reads).
pub const MODE_NAMES: &[(&[&str], Mode)] = &[
    (&["baseline", "base"], Mode::Baseline),
    (&["location", "location-based"], Mode::LocationBased),
    (&["cons", "conservative"], Mode::watchdog_conservative()),
    (&["isa", "watchdog", "isa-assisted"], Mode::watchdog()),
    (&["no-ll", "no-lock-cache"], Mode::no_lock_cache()),
    (&["ideal-shadow"], Mode::ideal_shadow()),
    (&["bounds1", "bounds-fused"], Mode::bounds(Fused)),
    (&["bounds2", "bounds-split"], Mode::bounds(Split)),
];

impl std::str::FromStr for Mode {
    type Err = String;

    /// Parses any spelling in [`MODE_NAMES`]. The error lists the
    /// canonical names.
    fn from_str(s: &str) -> Result<Mode, String> {
        MODE_NAMES
            .iter()
            .find(|(names, _)| names.contains(&s))
            .map(|&(_, mode)| mode)
            .ok_or_else(|| {
                let names: Vec<&str> = MODE_NAMES.iter().map(|(names, _)| names[0]).collect();
                format!("valid values are {}", names.join(", "))
            })
    }
}

/// Simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// System mode.
    pub mode: Mode,
    /// Run the out-of-order timing model (slower; required for cycle
    /// numbers).
    pub timing: bool,
    /// Hard instruction limit (guards against runaway programs).
    pub max_insts: u64,
    /// Core parameters (Table 2 by default).
    pub core: CoreConfig,
    /// Memory-hierarchy parameters (Table 2 by default; the mode's
    /// lock-cache / ideal-shadow knobs are applied on top).
    pub hierarchy: HierarchyConfig,
    /// Memoize crack expansions per PC in the functional machine (see
    /// [`watchdog_isa::crack_cache::CrackCache`]). On by default; only
    /// µop-emitting (timed) runs crack at all, so functional-only runs
    /// allocate no cache either way. Disable only to benchmark the
    /// uncached decoder.
    pub crack_cache: bool,
}

impl SimConfig {
    /// Timed simulation of `mode` with Table 2 parameters.
    pub fn timed(mode: Mode) -> Self {
        SimConfig {
            mode,
            timing: true,
            max_insts: 200_000_000,
            core: CoreConfig::sandy_bridge(),
            hierarchy: HierarchyConfig::default(),
            crack_cache: true,
        }
    }

    /// Functional-only simulation (fast; no cycle numbers).
    pub fn functional(mode: Mode) -> Self {
        SimConfig {
            timing: false,
            ..Self::timed(mode)
        }
    }
}

/// The simulator.
#[derive(Debug, Clone)]
pub struct Simulator {
    cfg: SimConfig,
}

impl Simulator {
    /// Builds a simulator for one configuration.
    pub fn new(cfg: SimConfig) -> Self {
        Simulator { cfg }
    }

    /// The active configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Runs the §5.2 profiling pass: a functional Watchdog run with
    /// conservative identification that records the static instructions
    /// ever loading/storing valid pointer metadata.
    ///
    /// # Errors
    ///
    /// Propagates simulator-level failures; a violation during profiling
    /// also ends the pass (the profile covers the executed prefix).
    pub fn profile(program: &Program, max_insts: u64) -> Result<Profile, SimError> {
        let cfg = MachineConfig {
            check: CheckMode::Watchdog,
            bounds: None,
            policy: PointerPolicy::Conservative,
            profiling: true,
            emit_uops: false,
            crack_cache: true,
        };
        let mut m = Machine::new(program, cfg);
        let mut executed = 0u64;
        while let Step::Executed(_) = m.step()? {
            executed += 1;
            if executed > max_insts {
                return Err(SimError::InstLimit { limit: max_insts });
            }
        }
        Ok(m.profile().clone())
    }

    /// The machine configuration a run of `program` uses: the mode's
    /// checking scheme and bounds flavour, µops only when timed, and for
    /// ISA-assisted modes the policy from the §5.2 profiling pass.
    ///
    /// # Errors
    ///
    /// Propagates a failure of the profiling pass.
    pub fn machine_config(&self, program: &Program) -> Result<MachineConfig, SimError> {
        let policy = match self.cfg.mode.pointer_id() {
            Some(PointerId::IsaAssisted) => {
                PointerPolicy::Profiled(Self::profile(program, self.cfg.max_insts)?)
            }
            _ => PointerPolicy::Conservative,
        };
        Ok(MachineConfig {
            check: self.cfg.mode.check_mode(),
            bounds: self.cfg.mode.bounds_uops(),
            policy,
            profiling: false,
            emit_uops: self.cfg.timing,
            crack_cache: self.cfg.crack_cache,
        })
    }

    /// Simulates `program` under the configured mode.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] when the core or hierarchy
    /// configuration is invalid (see [`CoreConfig::validate`] and
    /// [`HierarchyConfig::validate`]), and [`SimError`] for other
    /// simulator-level failures. Detected memory-safety violations are
    /// *not* errors — they are reported in [`RunReport::violation`].
    pub fn run(&self, program: &Program) -> Result<RunReport, SimError> {
        self.run_impl(program, None)
    }

    /// [`Simulator::run`] with the self-profiler attached: the timing
    /// core collects its [`CoreTelemetry`](watchdog_pipeline::CoreTelemetry)
    /// (per-kind dispatch counters, occupancy histograms, the CPI stack)
    /// and the driver loop times the whole run, the batch fills and the
    /// batch consumes, all returned beside — never inside — the report.
    /// The report is byte-identical to an uninstrumented
    /// [`Simulator::run`] of the same configuration.
    ///
    /// # Errors
    ///
    /// Exactly as [`Simulator::run`].
    pub fn run_instrumented(
        &self,
        program: &Program,
    ) -> Result<(RunReport, RunTelemetry), SimError> {
        let mut tele = RunTelemetry::default();
        let report = self.run_impl(program, Some(&mut tele))?;
        Ok((report, tele))
    }

    /// The run loop; `tele`, when supplied, collects host-side
    /// observations without touching any report field.
    fn run_impl(
        &self,
        program: &Program,
        tele: Option<&mut RunTelemetry>,
    ) -> Result<RunReport, SimError> {
        self.cfg.core.validate()?;
        self.cfg.hierarchy.validate()?;
        let mcfg = self.machine_config(program)?;
        let mut hier = self.cfg.hierarchy;
        self.cfg.mode.apply_hierarchy(&mut hier);
        let mut machine = Machine::new(program, mcfg);
        let mut core = self
            .cfg
            .timing
            .then(|| TimingCore::new(self.cfg.core, hier));
        let tele_on = tele.is_some();
        let t_run = tele_on.then(Instant::now);
        if let (true, Some(core)) = (tele_on, core.as_mut()) {
            core.enable_telemetry();
        }
        // Host timers, read twice per batch flush: the lap up to the
        // flush is fill time, the flush itself consume time.
        let (mut fill_ns, mut consume_ns) = (0u64, 0u64);
        let mut lap = t_run;
        let mut violation = None;
        let mut executed = 0u64;
        // The batched µop-event feed: the machine appends committed
        // expansions straight into an SoA window (`Machine::step_batched`,
        // no scratch `CrackedInst`) and `consume_batch` drains it. A
        // functional run emits no µops, so its window stays empty.
        // Draining an empty or partial window is always safe (batching is
        // timing-transparent).
        let mut batch = UopBatch::with_capacity(UopBatch::TARGET_INSTS);
        let mut flush = |core: &mut TimingCore, batch: &mut UopBatch| {
            if let Some(t0) = lap {
                let t1 = Instant::now();
                core.consume_batch(batch);
                let t2 = Instant::now();
                fill_ns += (t1 - t0).as_nanos() as u64;
                consume_ns += (t2 - t1).as_nanos() as u64;
                lap = Some(t2);
            } else {
                core.consume_batch(batch);
            }
            batch.clear();
        };
        loop {
            match machine.step_batched(&mut batch)? {
                Step::Executed(_) => {
                    if let Some(core) = core.as_mut() {
                        if batch.len() >= UopBatch::TARGET_INSTS {
                            flush(core, &mut batch);
                        }
                    }
                    executed += 1;
                    if executed > self.cfg.max_insts {
                        return Err(SimError::InstLimit {
                            limit: self.cfg.max_insts,
                        });
                    }
                }
                Step::Halted => break,
                Step::Violation(v) => {
                    violation = Some(v);
                    break;
                }
            }
        }
        if let Some(core) = core.as_mut() {
            flush(core, &mut batch);
        }
        // Capture host-side observations before `finish` consumes the core.
        if let Some(t) = tele {
            if let Some(core) = core.as_ref() {
                core.export_telemetry_into(&mut t.core_metrics);
            }
            t.host_ns = t_run.expect("run timer started").elapsed().as_nanos() as u64;
            t.fill_ns = fill_ns;
            t.consume_ns = consume_ns;
        }
        let timing = core.map(TimingCore::finish);
        Ok(RunReport {
            program: program.name().to_string(),
            mode: self.cfg.mode.label(),
            machine: machine.stats(),
            heap: machine.heap_stats(),
            footprint: machine.footprint(),
            violation,
            timing,
            crack_cache: machine.crack_cache_stats(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ViolationKind;
    use watchdog_isa::{AluOp, Cond, Gpr, ProgramBuilder};

    #[test]
    fn every_mode_spelling_parses_to_its_row() {
        for (names, mode) in MODE_NAMES {
            for name in *names {
                assert_eq!(name.parse::<Mode>(), Ok(*mode), "{name}");
            }
        }
        let modes: Vec<Mode> = MODE_NAMES.iter().map(|(_, m)| *m).collect();
        for (i, m) in modes.iter().enumerate() {
            assert!(!modes[..i].contains(m), "{} listed twice", m.label());
        }
        let e = "nope".parse::<Mode>().unwrap_err();
        assert_eq!(
            e,
            "valid values are baseline, location, cons, isa, no-ll, ideal-shadow, bounds1, bounds2"
        );
    }

    fn g(n: u8) -> Gpr {
        Gpr::new(n)
    }

    /// A small pointer-heavy benign kernel: build a linked list on the
    /// heap, walk it, free it.
    fn list_program(nodes: i64) -> Program {
        let mut b = ProgramBuilder::new("list");
        let (head, cur, nxt, sz, i, n, acc) = (g(0), g(1), g(2), g(3), g(4), g(5), g(6));
        b.li(sz, 16);
        b.li(head, 0);
        b.li(i, 0);
        b.li(n, nodes);
        let build = b.here();
        b.malloc(nxt, sz);
        b.st8(head, nxt, 0); // node.next = head
        b.st8(i, nxt, 8); // node.val = i
        b.mov(head, nxt);
        b.addi(i, i, 1);
        b.branch(Cond::Lt, i, n, build);
        // Walk and sum.
        b.li(acc, 0);
        b.mov(cur, head);
        let walk = b.here();
        b.ld8(nxt, cur, 8);
        b.add(acc, acc, nxt);
        b.ld8(cur, cur, 0);
        b.branch(Cond::Ne, cur, g(15 - 1), walk); // g14 is 0

        // Free.
        b.mov(cur, head);
        let fr = b.here();
        b.ld8(nxt, cur, 0);
        b.free(cur);
        b.mov(cur, nxt);
        b.branch(Cond::Ne, cur, g(14), fr);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn timed_run_produces_cycles_and_uop_breakdown() {
        let p = list_program(200);
        let base = Simulator::new(SimConfig::timed(Mode::Baseline))
            .run(&p)
            .unwrap();
        let wd = Simulator::new(SimConfig::timed(Mode::watchdog_conservative()))
            .run(&p)
            .unwrap();
        assert!(base.violation.is_none() && wd.violation.is_none());
        assert!(base.cycles() > 0);
        assert!(wd.uops() > base.uops(), "watchdog injects µops");
        assert!(wd.uop_overhead() > 0.0);
        let (checks, ptr_ld, ptr_st, other) = wd.uop_overhead_breakdown();
        assert!(checks > 0.0, "checks dominate");
        assert!(ptr_ld > 0.0 && ptr_st > 0.0);
        assert!(other > 0.0, "alloc/dealloc and propagation µops");
        let slow = wd.slowdown_vs(&base);
        assert!(slow >= 0.0, "watchdog cannot be faster ({slow})");
        assert!(
            slow < wd.uop_overhead(),
            "checks execute off the critical path"
        );
    }

    #[test]
    fn isa_assisted_classifies_fewer_accesses_than_conservative() {
        let p = list_program(200);
        let cons = Simulator::new(SimConfig::timed(Mode::watchdog_conservative()))
            .run(&p)
            .unwrap();
        let isa = Simulator::new(SimConfig::timed(Mode::watchdog()))
            .run(&p)
            .unwrap();
        assert!(isa.ptr_fraction() <= cons.ptr_fraction());
        assert!(
            isa.violation.is_none(),
            "no false positives under the profile"
        );
        assert!(isa.uops() <= cons.uops());
    }

    #[test]
    fn functional_run_skips_timing() {
        let p = list_program(50);
        let r = Simulator::new(SimConfig::functional(Mode::watchdog()))
            .run(&p)
            .unwrap();
        assert!(r.timing.is_none());
        assert_eq!(r.cycles(), 0);
        assert!(r.machine.insts > 0);
    }

    #[test]
    fn wild_accesses_at_the_top_of_memory_halt_cleanly() {
        // Unchecked modes let a fabricated pointer reach the last word of
        // the address space; an 8-byte access at `…FFFC` wraps to address
        // 0. Both must run to `halt` in debug builds too.
        let mut b = ProgramBuilder::new("top-of-memory");
        b.li(g(0), -8); // 0xFFFF_FFFF_FFFF_FFF8
        b.ld8(g(1), g(0), 0);
        b.li(g(2), -4); // 0xFFFF_FFFF_FFFF_FFFC
        b.li(g(1), 0x1122_3344_5566_7788);
        b.st8(g(1), g(2), 0);
        b.ld8(g(3), g(2), 0);
        b.halt();
        let p = b.build().unwrap();
        for mode in [Mode::Baseline, Mode::LocationBased] {
            for cfg in [SimConfig::timed(mode), SimConfig::functional(mode)] {
                let r = Simulator::new(cfg).run(&p).unwrap();
                assert!(r.violation.is_none(), "{mode:?}: {:?}", r.violation);
                assert_eq!(r.machine.insts, 7, "{mode:?} ran to halt");
                // All three accesses start in the shadow range: the top
                // word and (through the wrap) word 0 count there, and only
                // the top page counts.
                let f = r.footprint;
                assert_eq!((f.shadow_words, f.shadow_pages), (2, 1), "{mode:?}");
                assert_eq!((f.data_words, f.lock_words), (0, 0), "{mode:?}");
            }
        }
        // Without bounds, Watchdog lets a live pointer's arithmetic reach
        // the same word; its shadow record address wraps as well.
        let mut b = ProgramBuilder::new("top-of-memory-wd");
        b.li(g(1), 64);
        b.malloc(g(0), g(1));
        b.alu(AluOp::Sub, g(2), g(0), g(0)); // 0, with the allocation's identifier
        b.addi(g(2), g(2), -8);
        b.st8(g(0), g(2), 0); // pointer store: shadow store
        b.ld8(g(3), g(2), 0); // pointer load: shadow load
        b.halt();
        let p = b.build().unwrap();
        let r = Simulator::new(SimConfig::timed(Mode::watchdog_conservative()))
            .run(&p)
            .unwrap();
        assert!(r.violation.is_none(), "{:?}", r.violation);
        assert_eq!(r.machine.insts, 7);
    }

    #[test]
    fn inst_limit_guards_infinite_loops() {
        let mut b = ProgramBuilder::new("loop");
        let l = b.here();
        b.jmp(l);
        let p = b.build().unwrap();
        let mut cfg = SimConfig::functional(Mode::Baseline);
        cfg.max_insts = 1000;
        let e = Simulator::new(cfg).run(&p).unwrap_err();
        assert_eq!(e, SimError::InstLimit { limit: 1000 });
    }

    #[test]
    fn no_lock_cache_mode_routes_checks_to_l1d() {
        let p = list_program(100);
        let with = Simulator::new(SimConfig::timed(Mode::watchdog_conservative()))
            .run(&p)
            .unwrap();
        let without = Simulator::new(SimConfig::timed(Mode::Watchdog {
            ptr: PointerId::Conservative,
            lock_cache: false,
            ideal_shadow: false,
        }))
        .run(&p)
        .unwrap();
        let h_with = &with.timing.as_ref().unwrap().hierarchy;
        let h_without = &without.timing.as_ref().unwrap().hierarchy;
        assert!(h_with.ll.accesses > 0);
        assert_eq!(h_without.ll.accesses, 0);
        assert!(
            without.cycles() >= with.cycles(),
            "losing the LL$ cannot help"
        );
    }

    #[test]
    fn violations_surface_in_reports_with_timing() {
        let mut b = ProgramBuilder::new("uaf");
        let (p, sz) = (g(0), g(1));
        b.li(sz, 64);
        b.malloc(p, sz);
        b.free(p);
        b.ld8(g(2), p, 0);
        b.halt();
        let prog = b.build().unwrap();
        let r = Simulator::new(SimConfig::timed(Mode::watchdog_conservative()))
            .run(&prog)
            .unwrap();
        assert_eq!(r.violation.unwrap().kind, ViolationKind::UseAfterFree);
        assert!(r.cycles() > 0, "cycles up to the exception are reported");
    }

    #[test]
    fn crack_cache_does_not_change_timed_results() {
        let p = list_program(200);
        let cached = Simulator::new(SimConfig::timed(Mode::watchdog_conservative()))
            .run(&p)
            .unwrap();
        let mut cfg = SimConfig::timed(Mode::watchdog_conservative());
        cfg.crack_cache = false;
        let uncached = Simulator::new(cfg).run(&p).unwrap();
        assert_eq!(cached.cycles(), uncached.cycles());
        assert_eq!(cached.uops(), uncached.uops());
        assert_eq!(
            cached.timing.as_ref().unwrap().uops_by_tag,
            uncached.timing.as_ref().unwrap().uops_by_tag
        );
    }

    #[test]
    fn batched_feed_matches_per_inst_feed() {
        // The live loop's batched feed is timing-transparent: stepping the
        // machine one instruction at a time and draining each expansion as
        // a one-instruction batch yields a field-identical timing report.
        let p = list_program(300);
        for mode in [
            Mode::Baseline,
            Mode::LocationBased,
            Mode::watchdog_conservative(),
            Mode::watchdog(),
        ] {
            let cfg = SimConfig::timed(mode);
            let batched = Simulator::new(cfg.clone()).run(&p).unwrap();
            let policy = match mode.pointer_id() {
                Some(PointerId::IsaAssisted) => {
                    PointerPolicy::Profiled(Simulator::profile(&p, cfg.max_insts).unwrap())
                }
                _ => PointerPolicy::Conservative,
            };
            let mut machine = Machine::new(
                &p,
                MachineConfig {
                    check: mode.check_mode(),
                    bounds: mode.bounds_uops(),
                    policy,
                    profiling: false,
                    emit_uops: true,
                    crack_cache: true,
                },
            );
            let mut hier = cfg.hierarchy;
            mode.apply_hierarchy(&mut hier);
            let mut core = TimingCore::new(cfg.core, hier);
            let mut batch = UopBatch::new();
            while let Step::Executed(ci) = machine.step().unwrap() {
                batch.push_cracked(ci.expect("µop-emitting machine"));
                core.consume_batch(&batch);
                batch.clear();
            }
            assert_eq!(
                format!("{:?}", batched.timing),
                format!("{:?}", Some(core.finish())),
                "batched and per-instruction feeds diverge under {}",
                mode.label()
            );
        }
    }

    #[test]
    fn mode_labels_are_distinct() {
        let modes = [
            Mode::Baseline,
            Mode::LocationBased,
            Mode::watchdog(),
            Mode::watchdog_conservative(),
            Mode::Watchdog {
                ptr: PointerId::IsaAssisted,
                lock_cache: false,
                ideal_shadow: false,
            },
            Mode::Watchdog {
                ptr: PointerId::IsaAssisted,
                lock_cache: true,
                ideal_shadow: true,
            },
            Mode::WatchdogBounds {
                ptr: PointerId::IsaAssisted,
                uops: BoundsUops::Fused,
            },
            Mode::WatchdogBounds {
                ptr: PointerId::IsaAssisted,
                uops: BoundsUops::Split,
            },
        ];
        let mut seen = std::collections::HashSet::new();
        for m in modes {
            assert!(seen.insert(m.label()), "duplicate label {}", m.label());
        }
    }
}
