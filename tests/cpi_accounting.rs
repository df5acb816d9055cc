//! The zero-slack CPI-accounting property (PR 9's tentpole invariant):
//! every issue/commit slot of every cycle is attributed to exactly one
//! cause, so the `cpi.*` registry namespace sums *exactly* — no slack,
//! no double counting — to `cycles × commit_width` on every suite cell,
//! under all four paper modes, for live and replayed feeds alike; and
//! the committed program/metadata slots agree with the report's
//! independent per-tag µop totals (the Fig. 8 breakdown cross-check).

use watchdog::bench::parallel_map;
use watchdog::pipeline::{STALL_CAUSE_NAMES, TAG_NAMES};
use watchdog::prelude::*;
use watchdog::telemetry::{MetricView, MetricsRegistry};
use watchdog::trace::{record, replay_instrumented, ReplayConfig};

/// The four modes of the paper's headline figures.
fn modes() -> [Mode; 4] {
    [
        Mode::Baseline,
        Mode::LocationBased,
        Mode::watchdog_conservative(),
        Mode::watchdog(),
    ]
}

/// Asserts the zero-slack identity on one exported registry and returns
/// `(cycles, per-tag committed slots)` for caller cross-checks.
fn check_zero_slack(reg: &MetricsRegistry, label: &str) -> (u64, [u64; 6]) {
    let get = |n: &str| {
        reg.counter_value(n)
            .unwrap_or_else(|| panic!("[{label}] missing counter {n}"))
    };
    let cycles = get("cpi.cycles");
    let slots = get("cpi.slots");
    assert_eq!(
        slots,
        cycles * get("cpi.commit_width"),
        "[{label}] slots is not cycles × width"
    );
    let mut by_tag = [0u64; 6];
    for (slot, name) in by_tag.iter_mut().zip(TAG_NAMES) {
        *slot = get(&format!("cpi.commit.{name}"));
    }
    let committed: u64 = by_tag.iter().sum();
    let stalled: u64 = STALL_CAUSE_NAMES
        .iter()
        .map(|n| get(&format!("cpi.stall.{n}")))
        .sum::<u64>()
        + get("cpi.stall.drain");
    assert_eq!(
        committed + stalled,
        slots,
        "[{label}] accounting has slack: {committed} committed + {stalled} stalled != {slots}"
    );
    (cycles, by_tag)
}

/// Live feed: every registered benchmark × all four modes at test scale.
/// Beyond zero slack, the commit slots must agree with the report's
/// per-tag µop totals and the accounted cycle count with the report's —
/// two independent accounting paths meeting at the same numbers.
#[test]
fn cpi_stacks_are_zero_slack_on_every_suite_cell() {
    let cells: Vec<(String, Mode)> = all_benchmarks()
        .iter()
        .flat_map(|b| modes().map(|m| (b.name.to_string(), m)))
        .collect();
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let failures: Vec<String> = parallel_map(cells.len(), jobs, |i| {
        let (name, mode) = &cells[i];
        let label = format!("{name} under {}", mode.label());
        let program = benchmark(name).unwrap().build(Scale::Test);
        let (report, tele) = Simulator::new(SimConfig::timed(*mode))
            .run_instrumented(&program)
            .map_err(|e| format!("[{label}] failed: {e}"))?;
        let reg = watchdog::core::export_metrics(&report, Some(&tele));
        let (cycles, by_tag) = check_zero_slack(&reg, &label);
        let t = report.timing.as_ref().unwrap();
        if cycles != t.cycles {
            return Err(format!(
                "[{label}] accounted {cycles} cycles, report has {}",
                t.cycles
            ));
        }
        if by_tag != t.uops_by_tag {
            return Err(format!(
                "[{label}] commit slots {by_tag:?} != report µop totals {:?}",
                t.uops_by_tag
            ));
        }
        Ok(())
    })
    .into_iter()
    .filter_map(Result::err)
    .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Asserts that two registries export the same metrics: the same names
/// in the same order, with equal units and values.
fn assert_same_metrics(got: &MetricsRegistry, want: &MetricsRegistry, label: &str) {
    let names = |r: &MetricsRegistry| r.iter().map(|m| m.name.to_string()).collect::<Vec<_>>();
    assert_eq!(names(got), names(want), "[{label}] metric set differs");
    let value = |m: &MetricView| {
        let hist = m.hist.map(|h| h.to_json());
        (m.unit, m.counter, m.gauge.map(f64::to_bits), hist)
    };
    for (g, w) in got.iter().zip(want.iter()) {
        assert_eq!(value(&g), value(&w), "[{label}] {} differs", g.name);
    }
}

/// Replayed feed: the trace replayer drives the same timing core from a
/// recorded event stream. It must hold the zero-slack identity and
/// reproduce every metric the live run's core exports (`cpi.*`,
/// `profile.*`, `feed.*`, `mem.ll.memo_hits`) exactly. A second live run
/// must reproduce the first one's too: the core's telemetry is a
/// deterministic function of the µop stream, not of the host or of how
/// the µops arrive.
#[test]
fn replayed_feeds_reproduce_the_live_cpi_stack() {
    for bench in ["mcf", "perl"] {
        for mode in [Mode::watchdog_conservative(), Mode::watchdog()] {
            let label = format!("{bench} under {}", mode.label());
            let program = benchmark(bench).unwrap().build(Scale::Test);
            let sim_cfg = SimConfig::timed(mode);
            let live_run = || {
                let sim = Simulator::new(sim_cfg.clone());
                sim.run_instrumented(&program).unwrap().1.core_metrics
            };
            let live = live_run();
            check_zero_slack(&live, &format!("{label}, live"));
            assert_same_metrics(&live_run(), &live, &format!("{label}, live rerun"));

            let trace = record(&program, mode, sim_cfg.max_insts).unwrap();
            let feed = format!("{label}, replay");
            let cfg = ReplayConfig::from_sim(&sim_cfg);
            let (_, reg) = replay_instrumented(&program, &trace, &cfg).unwrap();
            check_zero_slack(&reg, &feed);
            assert_same_metrics(&reg, &live, &feed);
            // Both pointer-heavy benchmarks probe lock locations, so the
            // hierarchy's lock-probe memo short-circuits some probes.
            let memo = |r: &MetricsRegistry| r.counter_value("mem.ll.memo_hits");
            assert!(
                memo(&reg).is_some_and(|n| n > 0),
                "[{feed}] no lock-probe memo hits exported"
            );
            assert_eq!(memo(&reg), memo(&live), "[{feed}] memo hits differ");
        }
    }
}
