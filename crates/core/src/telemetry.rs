//! Run-level telemetry: the one source of truth turning a finished run
//! into a [`MetricsRegistry`].
//!
//! Two inputs feed [`export_metrics`]:
//!
//! * the [`RunReport`] — everything the simulation *decided* (counters
//!   that are identical across equivalent feeds and replays);
//! * an optional [`RunTelemetry`] — what the instrumented driver
//!   collected on the side: the timing core's self-profile (simulated
//!   counts, identical run to run) and the host timers (`host.*`, which
//!   differ run to run). Neither lives in the report.
//!
//! Every consumer — `watchdog-cli run --telemetry`, `run --json`, the
//! telemetry cross-check suite — renders from the registry this module
//! builds, so a metric added here shows up everywhere at once and cannot
//! drift between the human and the machine-readable output.

use watchdog_telemetry::{JsonValue, MetricsRegistry, Unit};

use crate::report::RunReport;

/// Schema tag carried by every `watchdog-cli run --json` document.
pub const RUN_SCHEMA: &str = "watchdog-run-v2";

pub use watchdog_pipeline::TAG_NAMES;

/// What one instrumented run
/// ([`Simulator::run_instrumented`](crate::sim::Simulator::run_instrumented))
/// collected beside its report.
///
/// Deliberately *not* part of [`RunReport`]: the equivalence suites
/// compare reports byte for byte, and the host timers differ run to run.
#[derive(Debug, Clone, Default)]
pub struct RunTelemetry {
    /// Core-side metrics (`profile.*`, `cpi.*`, `feed.*`,
    /// `mem.ll.memo_hits`) exported from
    /// the timing core just before `finish()` consumed it.
    pub core_metrics: MetricsRegistry,
    /// Host nanoseconds the whole run took.
    pub host_ns: u64,
    /// Host nanoseconds spent filling µop batches: the functional step,
    /// cracking and the batch writes, read at every batch flush. A
    /// functional run flushes no batch, so this and `consume_ns` stay 0.
    pub fill_ns: u64,
    /// Host nanoseconds the timing core spent consuming batches, read at
    /// every batch flush.
    pub consume_ns: u64,
}

impl RunTelemetry {
    /// Simulated cycles per host nanosecond, exported as
    /// `host.cycles_per_ns` (0.0 when untimed or unmeasured).
    pub fn cycles_per_host_ns(&self, report: &RunReport) -> f64 {
        if self.host_ns == 0 {
            0.0
        } else {
            report.cycles() as f64 / self.host_ns as f64
        }
    }
}

/// Builds the full metrics registry for one run: architectural counters
/// (`run.*`), heap and footprint statistics, timing-model results
/// (`timing.*`, `bpred.*`, `rename.*`, `stall.*`, `mem.*`, `crack.*`)
/// and — when an instrumented run supplied one — the [`RunTelemetry`]
/// (`profile.*`, `cpi.*`, `feed.*`, `host.*`). Only `host.*` metrics
/// depend on the host; every other metric is a deterministic function of
/// the program and configuration.
///
/// Registration order is fixed by this function, which makes the JSON
/// export key order stable across runs and revisions.
pub fn export_metrics(report: &RunReport, tele: Option<&RunTelemetry>) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();

    // Architectural (functional-machine) counters.
    let m = &report.machine;
    reg.counter_at("run.insts", Unit::Count, m.insts);
    reg.counter_at("run.mem_accesses", Unit::Count, m.mem_accesses);
    reg.counter_at("run.ptr_classified", Unit::Count, m.ptr_classified);
    reg.counter_at("run.calls", Unit::Count, m.calls);
    reg.counter_at("run.rets", Unit::Count, m.rets);
    reg.gauge_at("run.ptr_fraction", Unit::Ratio, report.ptr_fraction());
    reg.counter_at(
        "run.violations",
        Unit::Count,
        u64::from(report.violation.is_some()),
    );

    // Heap runtime.
    let h = &report.heap;
    reg.counter_at("heap.mallocs", Unit::Count, h.mallocs);
    reg.counter_at("heap.frees", Unit::Count, h.frees);
    reg.counter_at("heap.reused", Unit::Count, h.reused);
    reg.counter_at("heap.live_bytes", Unit::Bytes, h.live_bytes);
    reg.counter_at("heap.peak_live_bytes", Unit::Bytes, h.peak_live_bytes);

    // Memory footprint (Fig. 10's raw data).
    let f = &report.footprint;
    reg.counter_at("footprint.data_words", Unit::Count, f.data_words);
    reg.counter_at("footprint.shadow_words", Unit::Count, f.shadow_words);
    reg.counter_at("footprint.lock_words", Unit::Count, f.lock_words);
    reg.counter_at("footprint.data_pages", Unit::Count, f.data_pages);
    reg.counter_at("footprint.shadow_pages", Unit::Count, f.shadow_pages);
    reg.counter_at("footprint.lock_pages", Unit::Count, f.lock_pages);
    reg.gauge_at("footprint.word_overhead", Unit::Ratio, f.word_overhead());
    reg.gauge_at("footprint.page_overhead", Unit::Ratio, f.page_overhead());

    // Timing-model results.
    if let Some(t) = &report.timing {
        reg.counter_at("timing.cycles", Unit::Cycles, t.cycles);
        reg.counter_at("timing.insts", Unit::Count, t.insts);
        reg.counter_at("timing.uops", Unit::Count, t.uops);
        for (name, &n) in TAG_NAMES.iter().zip(&t.uops_by_tag) {
            reg.counter_at(&format!("timing.uops.{name}"), Unit::Count, n);
        }
        reg.gauge_at("timing.ipc", Unit::Ratio, t.ipc());
        reg.gauge_at("timing.upc", Unit::Ratio, t.uops_per_cycle());
        reg.gauge_at("timing.uop_overhead", Unit::Ratio, t.uop_overhead());

        let b = &t.bpred;
        reg.counter_at("bpred.cond_branches", Unit::Count, b.cond_branches);
        reg.counter_at("bpred.cond_mispredicts", Unit::Count, b.cond_mispredicts);
        reg.counter_at("bpred.returns", Unit::Count, b.returns);
        reg.counter_at("bpred.ret_mispredicts", Unit::Count, b.ret_mispredicts);
        reg.gauge_at("bpred.mpki", Unit::PerKilo, b.mpki());

        let r = &t.rename;
        reg.counter_at("rename.renamed_uops", Unit::Count, r.renamed_uops);
        reg.counter_at("rename.eliminated_copies", Unit::Count, r.eliminated_copies);
        reg.counter_at("rename.invalidations", Unit::Count, r.invalidations);
        reg.counter_at("rename.global_mappings", Unit::Count, r.global_mappings);
        reg.counter_at("rename.meta_allocs", Unit::Count, r.meta_allocs);
        reg.counter_at(
            "rename.meta_high_water",
            Unit::Count,
            r.meta_high_water as u64,
        );

        let s = &t.stalls;
        reg.counter_at("stall.rob", Unit::Cycles, s.rob);
        reg.counter_at("stall.iq", Unit::Cycles, s.iq);
        reg.counter_at("stall.lq", Unit::Cycles, s.lq);
        reg.counter_at("stall.sq", Unit::Cycles, s.sq);
        reg.counter_at("stall.icache", Unit::Cycles, s.icache);
        reg.counter_at("stall.redirect", Unit::Cycles, s.redirect);

        t.hierarchy.export_into(&mut reg);
        reg.gauge_at("mem.ll.mpk", Unit::PerKilo, t.hierarchy.ll_mpk(t.insts));
    }

    // Crack-cache counters (absent when the run never cracked).
    if let Some(c) = &report.crack_cache {
        reg.counter_at("crack.hits", Unit::Count, c.hits);
        reg.counter_at("crack.misses", Unit::Count, c.misses);
        reg.counter_at("crack.invalidations", Unit::Count, c.invalidations);
        reg.gauge_at("crack.hit_rate", Unit::Ratio, c.hit_rate());
    }

    // Host-side observations from an instrumented run.
    if let Some(tele) = tele {
        reg.absorb(&tele.core_metrics);
        reg.counter_at("host.run.ns", Unit::Nanos, tele.host_ns);
        reg.counter_at("host.fill.ns", Unit::Nanos, tele.fill_ns);
        reg.counter_at("host.consume.ns", Unit::Nanos, tele.consume_ns);
        reg.gauge_at(
            "host.cycles_per_ns",
            Unit::PerNano,
            tele.cycles_per_host_ns(report),
        );
    }

    reg
}

/// Renders one run as the stable machine-readable document behind
/// `watchdog-cli run --json`: a [`RUN_SCHEMA`] tag, the run identity
/// (benchmark, mode, scale, violation), then the metric registry from
/// [`export_metrics`] split in two. `sim` holds every deterministic
/// metric, so two runs of the same cell have equal `sim` objects; `host`
/// holds the `host.*` timings. `units` labels the metrics of both. Key
/// order inside each object is registration order, so diffs between
/// revisions stay readable.
pub fn run_json(
    benchmark: &str,
    scale: &str,
    report: &RunReport,
    tele: Option<&RunTelemetry>,
) -> String {
    let violation = match &report.violation {
        Some(v) => JsonValue::str(v.to_string()),
        None => JsonValue::Null,
    };
    let reg = export_metrics(report, tele);
    let JsonValue::Obj(metrics) = reg.to_json() else {
        unreachable!("a registry renders as one object")
    };
    let (host, sim) = metrics
        .into_iter()
        .partition(|(name, _)| name.starts_with("host."));
    JsonValue::Obj(vec![
        ("schema".into(), JsonValue::str(RUN_SCHEMA)),
        ("benchmark".into(), JsonValue::str(benchmark)),
        ("mode".into(), JsonValue::str(report.mode.clone())),
        ("scale".into(), JsonValue::str(scale)),
        ("violation".into(), violation),
        ("sim".into(), JsonValue::Obj(sim)),
        ("host".into(), JsonValue::Obj(host)),
        ("units".into(), reg.units_json()),
    ])
    .render_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Mode, SimConfig, Simulator};
    use watchdog_isa::{Cond, Gpr, ProgramBuilder};

    fn tiny_program() -> watchdog_isa::program::Program {
        let mut b = ProgramBuilder::new("tiny");
        let (p, sz, i, n) = (Gpr::new(0), Gpr::new(1), Gpr::new(2), Gpr::new(3));
        b.li(sz, 32);
        b.li(i, 0);
        b.li(n, 20);
        let l = b.here();
        b.malloc(p, sz);
        b.st8(i, p, 0);
        b.free(p);
        b.addi(i, i, 1);
        b.branch(Cond::Lt, i, n, l);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn report_only_export_covers_the_architectural_namespaces() {
        let r = Simulator::new(SimConfig::timed(Mode::watchdog_conservative()))
            .run(&tiny_program())
            .unwrap();
        let reg = export_metrics(&r, None);
        assert_eq!(reg.counter_value("run.insts"), Some(r.machine.insts));
        assert_eq!(reg.counter_value("timing.cycles"), Some(r.cycles()));
        assert_eq!(reg.counter_value("heap.mallocs"), Some(r.heap.mallocs));
        let t = r.timing.as_ref().unwrap();
        assert_eq!(
            reg.counter_value("mem.ll.misses"),
            Some(t.hierarchy.ll.misses)
        );
        assert_eq!(
            reg.counter_value("timing.uops.check"),
            Some(t.uops_by_tag[1])
        );
        // No host-side metrics without a RunTelemetry.
        assert_eq!(reg.counter_value("host.run.ns"), None);
        assert_eq!(reg.counter_value("profile.insts"), None);
    }

    #[test]
    fn functional_runs_export_without_timing_namespaces() {
        let r = Simulator::new(SimConfig::functional(Mode::Baseline))
            .run(&tiny_program())
            .unwrap();
        let reg = export_metrics(&r, None);
        assert!(reg.counter_value("run.insts").is_some());
        assert_eq!(reg.counter_value("timing.cycles"), None);
        assert_eq!(reg.counter_value("crack.hits"), None);
    }

    /// An instrumented export adds the core's profile, the feed counters
    /// and the run's host-timed sections: the whole run, fill and consume.
    #[test]
    fn instrumented_export_adds_profile_feed_and_sections() {
        let sim = Simulator::new(SimConfig::timed(Mode::watchdog_conservative()));
        let p = tiny_program();
        let (r, tele) = sim.run_instrumented(&p).unwrap();
        let reg = export_metrics(&r, Some(&tele));
        let t = r.timing.as_ref().unwrap();
        // The self-profiler's independent accounting agrees with the
        // report.
        assert_eq!(reg.counter_value("profile.insts"), Some(t.insts));
        assert_eq!(reg.counter_value("profile.uops"), Some(t.uops));
        assert!(reg.counter_value("feed.batches").unwrap() > 0);
        // One fill and one consume lap per batch flush, both inside the
        // whole-run timer.
        let fill = reg.counter_value("host.fill.ns").unwrap();
        let consume = reg.counter_value("host.consume.ns").unwrap();
        assert!(fill > 0 && consume > 0, "fill {fill}, consume {consume}");
        assert!(fill + consume <= reg.counter_value("host.run.ns").unwrap());
        assert!(tele.cycles_per_host_ns(&r) > 0.0);
        // Simulated cycles per host nanosecond, exported under the
        // matching per-nanosecond unit.
        let rate = reg
            .iter()
            .find(|m| m.name == "host.cycles_per_ns")
            .expect("host.cycles_per_ns exported");
        assert_eq!(rate.unit, Unit::PerNano);
        assert_eq!(rate.gauge, Some(tele.cycles_per_host_ns(&r)));
        // And the instrumented report itself matches an uninstrumented
        // run byte for byte — telemetry is observation, not behaviour.
        let plain = sim.run(&p).unwrap();
        assert_eq!(format!("{plain:?}"), format!("{r:?}"));
    }

    #[test]
    fn json_export_parses_back() {
        let r = Simulator::new(SimConfig::timed(Mode::watchdog()))
            .run(&tiny_program())
            .unwrap();
        let json = export_metrics(&r, None).to_json().render_pretty();
        let parsed = watchdog_telemetry::JsonValue::parse(&json).unwrap();
        assert_eq!(
            parsed.get("timing.cycles").and_then(|v| v.as_u64()),
            Some(r.cycles())
        );
    }

    #[test]
    fn run_json_document_has_the_stable_shape() {
        let sim = Simulator::new(SimConfig::timed(Mode::watchdog_conservative()));
        let (r, tele) = sim.run_instrumented(&tiny_program()).unwrap();
        let doc = run_json("tiny", "test", &r, Some(&tele));
        let parsed = JsonValue::parse(&doc).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(JsonValue::as_str),
            Some(RUN_SCHEMA)
        );
        assert_eq!(
            parsed.get("benchmark").and_then(JsonValue::as_str),
            Some("tiny")
        );
        assert_eq!(
            parsed.get("scale").and_then(JsonValue::as_str),
            Some("test")
        );
        // The dangling store in the loop body trips the checker.
        assert!(parsed.get("violation").is_some());
        let sim = parsed.get("sim").expect("sim object");
        assert_eq!(
            sim.get("run.insts").and_then(JsonValue::as_u64),
            Some(r.machine.insts)
        );
        assert!(sim.get("profile.insts").is_some());
        assert!(
            sim.get("host.run.ns").is_none(),
            "host timings stay out of sim"
        );
        let host = parsed.get("host").expect("host object");
        for key in ["host.run.ns", "host.fill.ns", "host.consume.ns"] {
            assert!(host.get(key).is_some(), "{key} missing from host");
        }
        let JsonValue::Obj(host) = host else {
            panic!("host is an object")
        };
        assert!(
            host.iter().all(|(k, _)| k.starts_with("host.")),
            "host holds only host.* timings"
        );
        let units = parsed.get("units").expect("units object");
        assert_eq!(
            units.get("host.fill.ns").and_then(JsonValue::as_str),
            Some("ns")
        );
        assert!(units.get("run.insts").is_some());
    }
}
