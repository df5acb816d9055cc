//! Diagnostic: per-benchmark stall breakdown, cache behaviour,
//! crack-cache effectiveness, trace-subsystem figures (trace size,
//! events/inst, replay-vs-live speedup) and batched-feed statistics
//! (batch occupancy, batches/1k insts, lock-probe memo hits) under
//! selected modes.
//!
//! Every live-run figure is read back out of the [`MetricsRegistry`]
//! built by `export_metrics` — the same registry `watchdog-cli run
//! --json` serializes — so the human diagnostics and the machine
//! export cannot drift apart.
use std::time::Instant;
use watchdog_bench::args::{or_exit, parse};
use watchdog_core::{export_metrics, prelude::*};
use watchdog_telemetry::MetricsRegistry;
use watchdog_trace::{record, replay, replay_with_stats, ReplayConfig};
use watchdog_workloads::{benchmark, Scale};

/// Counter lookup that treats an absent metric as zero (e.g. `crack.*`
/// under the baseline mode).
fn c(reg: &MetricsRegistry, name: &str) -> u64 {
    reg.counter_value(name).unwrap_or(0)
}

/// Gauge lookup, zero when absent.
fn g(reg: &MetricsRegistry, name: &str) -> f64 {
    reg.gauge_value(name).unwrap_or(0.0)
}

/// Unit label a metric was exported under (empty when absent).
fn unit(reg: &MetricsRegistry, name: &str) -> &'static str {
    reg.iter()
        .find(|m| m.name == name)
        .map_or("", |m| m.unit.label())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = or_exit(parse("diag", 1, &[], &args));
    let name = args.positional(0).unwrap_or("milc");
    let spec = or_exit(benchmark(name).ok_or(format!(
        "unknown benchmark {name:?}; see `watchdog-cli list`"
    )));
    let p = spec.build(Scale::Test);
    let mut live: Vec<(Mode, RunReport, f64)> = Vec::new();
    for mode in [
        Mode::Baseline,
        Mode::watchdog_conservative(),
        Mode::watchdog(),
    ] {
        let (r, tele) = Simulator::new(SimConfig::timed(mode))
            .run_instrumented(&p)
            .unwrap();
        let secs = tele.host_ns as f64 / 1e9;
        let reg = export_metrics(&r, Some(&tele));
        let cc = if reg.counter_value("crack.hits").is_some() {
            format!(
                "h={} m={} ({:.1}%)",
                c(&reg, "crack.hits"),
                c(&reg, "crack.misses"),
                g(&reg, "crack.hit_rate") * 100.0
            )
        } else {
            "off".into()
        };
        // Simulator throughput: how fast the timed model itself runs on
        // this host (guest instructions retired per host second) and how
        // many guest cycles each host nanosecond buys.
        let insts_per_sec = c(&reg, "timing.insts") as f64 / secs.max(1e-9);
        let run_share =
            |name: &str| c(&reg, name) as f64 * 100.0 / c(&reg, "host.run.ns").max(1) as f64;
        println!(
            "{:<28} cycles={:<8} uops={:<8} ipc={:.2} stalls rob={} iq={} lq={} sq={} ic={} br={} | l1d m={} ({:.2}%) ll acc={} m={} ({:.2}%, {:.2}/1k insts) shadow={} memo={} | crack$ {} | feed occ={:.1} | host {:.2} Minsts/s cycles_per_ns={:.3} [{}] fill={:.0}% consume={:.0}%",
            mode.label(),
            c(&reg, "timing.cycles"),
            c(&reg, "timing.uops"),
            g(&reg, "timing.ipc"),
            c(&reg, "stall.rob"), c(&reg, "stall.iq"), c(&reg, "stall.lq"),
            c(&reg, "stall.sq"), c(&reg, "stall.icache"), c(&reg, "stall.redirect"),
            c(&reg, "mem.l1d.misses"), g(&reg, "mem.l1d.miss_rate") * 100.0,
            c(&reg, "mem.ll.accesses"), c(&reg, "mem.ll.misses"),
            g(&reg, "mem.ll.miss_rate") * 100.0,
            g(&reg, "mem.ll.mpk"),
            c(&reg, "mem.access.shadow"),
            c(&reg, "mem.ll.memo_hits"),
            cc,
            g(&reg, "feed.occupancy.mean"),
            insts_per_sec / 1e6,
            g(&reg, "host.cycles_per_ns"),
            unit(&reg, "host.cycles_per_ns"),
            run_share("host.fill.ns"),
            run_share("host.consume.ns"),
        );
        live.push((mode, r, secs));
    }

    // Trace subsystem: capture once per mode, replay, and show what the
    // trace-driven sweep path costs next to the live timed simulation.
    println!("-- trace: record once, replay per ablation point --");
    let mut traces = Vec::new();
    for (mode, live_report, live_secs) in &live {
        let t0 = Instant::now();
        let trace = record(&p, *mode, SimConfig::timed(*mode).max_insts).unwrap();
        let record_secs = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let replayed = replay(&p, &trace, &ReplayConfig::default()).unwrap();
        let replay_secs = t0.elapsed().as_secs_f64();
        let exact = format!("{live_report:?}") == format!("{replayed:?}");
        let info = trace.info();
        println!(
            "{:<28} trace={}B ({:.2} B/event, {:.3} events/inst) record={:.3}s replay={:.3}s live={:.3}s speedup={:.1}x oracle-exact={}",
            mode.label(),
            info.total_bytes,
            info.bytes_per_event(),
            info.events as f64 / info.insts.max(1) as f64,
            record_secs,
            replay_secs,
            live_secs,
            live_secs / replay_secs.max(1e-9),
            if exact { "yes" } else { "NO (BUG)" },
        );
        traces.push((*mode, trace));
    }

    // Batched µop-event pipeline: how the committed stream reaches the
    // timing core on the replay path (the live loop batches the same way).
    println!("-- batched µop-event feed --");
    for (mode, trace) in &traces {
        let (_, stats) = replay_with_stats(&p, trace, &ReplayConfig::default()).unwrap();
        println!(
            "{:<28} occupancy={:.1} insts/batch batches/1k-insts={:.2} ll-memo-hits={}",
            mode.label(),
            stats.feed.mean_occupancy(),
            stats.feed.batches_per_kinst(),
            stats.ll_memo_hits,
        );
    }
}
