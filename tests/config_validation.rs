//! Invalid `CoreConfig` values are rejected with a typed error naming the
//! field, on both the live and the trace-replay path — never a panic and
//! never a report for a silently different machine.

use watchdog::pipeline::{wheel::POOL_PAD, CoreConfig};
use watchdog::prelude::*;
use watchdog::trace::{record, replay, ReplayConfig, TraceError};

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
type Edit = fn(&mut CoreConfig);

/// One bad value per row: the field and the edit that breaks it.
const BAD: [(&str, Edit); 13] = [
    ("rob_entries", |c| c.rob_entries = 0),
    ("iq_entries", |c| c.iq_entries = 0),
    ("lq_entries", |c| c.lq_entries = 0),
    ("sq_entries", |c| c.sq_entries = 0),
    ("int_alus", |c| c.int_alus = 0),
    ("int_alus", |c| c.int_alus = POOL_PAD + 1),
    ("load_ports", |c| c.load_ports = 0),
    ("meta_phys_regs", |c| c.meta_phys_regs = 0),
    ("commit_width", |c| c.commit_width = 0),
    ("issue_width", |c| c.issue_width = 0),
    ("rename_width", |c| c.rename_width = 0),
    ("fetch_bytes_per_cycle", |c| c.fetch_bytes_per_cycle = 0),
    ("ras_entries", |c| c.ras_entries = 0),
];

fn bad_configs() -> impl Iterator<Item = (&'static str, CoreConfig)> {
    BAD.into_iter().map(|(field, edit)| {
        let mut core = CoreConfig::sandy_bridge();
        edit(&mut core);
        (field, core)
    })
}

#[test]
fn live_runs_reject_each_invalid_field() {
    let program = small_program();
    for (field, core) in bad_configs() {
        let cfg = SimConfig {
            core,
            ..SimConfig::timed(Mode::watchdog_conservative())
        };
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
    for (field, core) in bad_configs() {
        let cfg = ReplayConfig {
            core,
            ..ReplayConfig::default()
        };
        match replay(&program, &trace, &cfg) {
            Err(TraceError::Config(e)) => assert_eq!(e.field, field),
            other => panic!("{field}: expected a config error, got {other:?}"),
        }
    }
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
