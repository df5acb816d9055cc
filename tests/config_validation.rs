//! Invalid `CoreConfig` and `HierarchyConfig` values are
//! rejected with a typed error naming the field, on the live, the
//! trace-replay and the multi-point replay path — never a panic and never
//! a report for a silently different machine.

use watchdog::mem::CacheConfig;
use watchdog::pipeline::{wheel::POOL_PAD, CoreConfig};
use watchdog::prelude::*;
use watchdog::trace::{record, replay, replay_many, ReplayConfig, TraceError};

/// A short counted loop: enough to build and drive a timing core.
fn small_program() -> Program {
    let mut b = ProgramBuilder::new("loop");
    let (i, n) = (Gpr::new(0), Gpr::new(1));
    b.li(i, 0);
    b.li(n, 100);
    let top = b.here();
    b.addi(i, i, 1);
    b.branch(Cond::Lt, i, n, top);
    b.halt();
    b.build().unwrap()
}

/// An edit that makes one field invalid.
type Edit = fn(&mut SimConfig);

/// A cache geometry as a struct literal, skipping `CacheConfig::new`.
const fn geometry(size: u64, ways: u64, block: u64) -> CacheConfig {
    CacheConfig { size, ways, block }
}

/// One bad value per row: the field and the edit that breaks it.
const BAD: [(&str, Edit); 23] = [
    ("rob_entries", |c| c.core.rob_entries = 0),
    ("iq_entries", |c| c.core.iq_entries = 0),
    ("lq_entries", |c| c.core.lq_entries = 0),
    ("sq_entries", |c| c.core.sq_entries = 0),
    ("int_alus", |c| c.core.int_alus = 0),
    ("int_alus", |c| c.core.int_alus = POOL_PAD + 1),
    ("load_ports", |c| c.core.load_ports = 0),
    ("meta_phys_regs", |c| c.core.meta_phys_regs = 0),
    ("commit_width", |c| c.core.commit_width = 0),
    ("issue_width", |c| c.core.issue_width = 0),
    ("rename_width", |c| c.core.rename_width = 0),
    ("fetch_bytes_per_cycle", |c| {
        c.core.fetch_bytes_per_cycle = 0
    }),
    ("ras_entries", |c| c.core.ras_entries = 0),
    // 48 KB, 8-way: 96 sets.
    ("l1d.size", |c| c.hierarchy.l1d = geometry(48 << 10, 8, 64)),
    ("l1d.ways", |c| c.hierarchy.l1d = geometry(32 << 10, 32, 64)),
    ("l1d.block", |c| c.hierarchy.l1d = geometry(24 << 10, 8, 48)),
    ("l1d.ways", |c| c.hierarchy.l1d = geometry(24 << 10, 3, 64)),
    // Smaller than one set of 8 × 64 B.
    ("ll.size", |c| c.hierarchy.ll = geometry(256, 8, 64)),
    ("l2.block", |c| c.hierarchy.l2 = geometry(256 << 10, 8, 0)),
    ("dtlb_entries", |c| c.hierarchy.dtlb_entries = 0),
    ("lltlb_entries", |c| c.hierarchy.lltlb_entries = 0),
    ("l1_prefetch.streams", |c| c.hierarchy.l1_prefetch = (0, 2)),
    ("l2_prefetch.streams", |c| c.hierarchy.l2_prefetch = (0, 16)),
];

fn bad_configs() -> impl Iterator<Item = (&'static str, SimConfig)> {
    BAD.into_iter().map(|(field, edit)| {
        let mut cfg = SimConfig::timed(Mode::watchdog_conservative());
        edit(&mut cfg);
        (field, cfg)
    })
}

#[test]
fn live_runs_reject_each_invalid_field() {
    let program = small_program();
    for (field, cfg) in bad_configs() {
        match Simulator::new(cfg).run(&program) {
            Err(SimError::Config(e)) => assert_eq!(e.field, field),
            other => panic!("{field}: expected a config error, got {other:?}"),
        }
    }
}

#[test]
fn replays_reject_each_invalid_field() {
    let program = small_program();
    let mode = Mode::watchdog_conservative();
    let trace = record(&program, mode, 1_000_000).unwrap();
    // A program the trace was not recorded from: any work on the trace
    // would fail with `ProgramMismatch`, so a `Config` error proves the
    // configurations were checked first.
    let mut b = ProgramBuilder::new("stranger");
    b.halt();
    let stranger = b.build().unwrap();
    let good = ReplayConfig::default();
    for (field, sim) in bad_configs() {
        let cfg = ReplayConfig::from_sim(&sim);
        match replay(&program, &trace, &cfg) {
            Err(TraceError::Config(e)) => assert_eq!(e.field, field),
            other => panic!("{field}: expected a config error, got {other:?}"),
        }
        // One bad point among good ones fails the whole multi-point
        // replay, before the trace is touched.
        let cfgs = [good.clone(), cfg, good.clone()];
        for p in [&program, &stranger] {
            match replay_many(p, &trace, &cfgs) {
                Err(TraceError::Config(e)) => assert_eq!(e.field, field),
                other => panic!("{field}: expected a config error, got {other:?}"),
            }
        }
    }
    assert!(matches!(
        replay_many(&stranger, &trace, &[good]),
        Err(TraceError::ProgramMismatch { .. })
    ));
}

#[test]
fn boundary_values_still_run() {
    let program = small_program();
    let core = CoreConfig {
        int_alus: POOL_PAD,
        rob_entries: 1,
        commit_width: 1,
        ..CoreConfig::sandy_bridge()
    };
    let cfg = SimConfig {
        core,
        ..SimConfig::timed(Mode::watchdog_conservative())
    };
    let report = Simulator::new(cfg).run(&program).unwrap();
    assert!(report.cycles() > 0);
}
