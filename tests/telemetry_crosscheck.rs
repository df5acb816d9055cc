//! Telemetry cross-check: on every suite cell (each of the twenty
//! benchmarks under each evaluated mode), the metrics registry built by
//! `export_metrics` must agree exactly with the `RunReport` it was built
//! from, and the self-profiler's exports (`profile.*`, `feed.*`) must
//! agree with the timing model's totals. A drift — a registry export
//! lagging a report field or reading the wrong counter — fails here with
//! the cell named.

use watchdog::core::{export_metrics, RunTelemetry};
use watchdog::prelude::*;
use watchdog::telemetry::MetricsRegistry;

/// Counter lookup that panics with the cell label on a missing metric.
fn c(reg: &MetricsRegistry, cell: &str, name: &str) -> u64 {
    reg.counter_value(name)
        .unwrap_or_else(|| panic!("{cell}: metric {name} missing from the registry"))
}

/// Every registry counter that mirrors a `RunReport` field, checked for
/// exact agreement on one finished cell.
fn crosscheck_cell(cell: &str, report: &RunReport, tele: &RunTelemetry) {
    let reg = export_metrics(report, Some(tele));

    // Architectural counters mirror the functional machine verbatim.
    assert_eq!(c(&reg, cell, "run.insts"), report.machine.insts, "{cell}");
    assert_eq!(
        c(&reg, cell, "run.mem_accesses"),
        report.machine.mem_accesses,
        "{cell}"
    );
    assert_eq!(c(&reg, cell, "heap.mallocs"), report.heap.mallocs, "{cell}");
    assert_eq!(c(&reg, cell, "heap.frees"), report.heap.frees, "{cell}");
    assert_eq!(
        c(&reg, cell, "footprint.shadow_words"),
        report.footprint.shadow_words,
        "{cell}"
    );

    // Timing-model counters mirror the timed report.
    let t = report.timing.as_ref().expect("suite cells are timed");
    assert_eq!(c(&reg, cell, "timing.cycles"), t.cycles, "{cell}");
    assert_eq!(c(&reg, cell, "timing.insts"), t.insts, "{cell}");
    // The final `halt` (or faulting instruction) executes but cracks to
    // no µops, so it never reaches the timing core.
    assert_eq!(
        c(&reg, cell, "run.insts"),
        t.insts + 1,
        "{cell}: run.insts counts the final instruction, timing.insts does not"
    );
    assert_eq!(c(&reg, cell, "timing.uops"), t.uops, "{cell}");
    let tag_sum: u64 = watchdog::core::telemetry::TAG_NAMES
        .iter()
        .map(|name| c(&reg, cell, &format!("timing.uops.{name}")))
        .sum();
    assert_eq!(tag_sum, t.uops, "{cell}: per-tag µop counters must sum");
    assert_eq!(c(&reg, cell, "stall.rob"), t.stalls.rob, "{cell}");
    assert_eq!(c(&reg, cell, "stall.iq"), t.stalls.iq, "{cell}");
    assert_eq!(
        c(&reg, cell, "mem.ll.accesses"),
        t.hierarchy.ll.accesses,
        "{cell}"
    );
    assert_eq!(
        c(&reg, cell, "mem.ll.misses"),
        t.hierarchy.ll.misses,
        "{cell}"
    );
    assert_eq!(
        c(&reg, cell, "mem.access.shadow"),
        t.hierarchy.shadow_accesses,
        "{cell}"
    );
    assert_eq!(
        c(&reg, cell, "rename.eliminated_copies"),
        t.rename.eliminated_copies,
        "{cell}"
    );

    // The profile's totals are the timing model's, and the per-kind
    // dispatch counters must sum to the µop total.
    assert_eq!(
        c(&reg, cell, "profile.insts"),
        t.insts,
        "{cell}: profiler inst count drifted from the timing model"
    );
    assert_eq!(
        c(&reg, cell, "profile.uops"),
        t.uops,
        "{cell}: profiler µop count drifted from the timing model"
    );
    let dispatch_sum: u64 = watchdog::pipeline::UOP_KIND_NAMES
        .iter()
        .map(|name| c(&reg, cell, &format!("profile.dispatch.{name}")))
        .sum();
    assert_eq!(
        dispatch_sum, t.uops,
        "{cell}: per-kind dispatch counters must sum to the µop total"
    );

    // The batched feed saw exactly what the model retired.
    assert_eq!(c(&reg, cell, "feed.insts"), t.insts, "{cell}");
    assert_eq!(c(&reg, cell, "feed.uops"), t.uops, "{cell}");
    assert!(c(&reg, cell, "feed.batches") > 0, "{cell}");

    // Host timers exist and are self-consistent: the fill and consume
    // laps are disjoint and both fall inside the whole-run timer.
    let run_ns = c(&reg, cell, "host.run.ns");
    let fill_ns = c(&reg, cell, "host.fill.ns");
    let consume_ns = c(&reg, cell, "host.consume.ns");
    assert_eq!(run_ns, tele.host_ns, "{cell}");
    assert!(fill_ns > 0, "{cell}: no fill time");
    assert!(consume_ns > 0, "{cell}: no consume time");
    assert!(
        fill_ns + consume_ns <= run_ns,
        "{cell}: fill {fill_ns} + consume {consume_ns} ns exceed the run's {run_ns} ns"
    );
    // The lock-probe memo count is the core's own export.
    assert_eq!(
        Some(c(&reg, cell, "mem.ll.memo_hits")),
        tele.core_metrics.counter_value("mem.ll.memo_hits"),
        "{cell}"
    );
}

/// The full suite grid: twenty benchmarks × the three evaluated modes,
/// each run instrumented once and cross-checked field by field.
#[test]
fn registry_counters_agree_with_the_report_on_every_suite_cell() {
    for spec in all_benchmarks() {
        let p = spec.build(Scale::Test);
        for mode in [
            Mode::Baseline,
            Mode::watchdog_conservative(),
            Mode::watchdog(),
        ] {
            let cell = format!("{}/{}", spec.name, mode.label());
            let (report, tele) = Simulator::new(SimConfig::timed(mode))
                .run_instrumented(&p)
                .unwrap_or_else(|e| panic!("{cell}: {e}"));
            crosscheck_cell(&cell, &report, &tele);
        }
    }
}
