//! Invalid `CoreConfig` and `HierarchyConfig` values are
//! rejected with a typed error naming the field, on the live, the
//! trace-replay and the multi-point replay path — never a panic and never
//! a report for a silently different machine. A property test drives
//! random configurations and campaign seeds through every path.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use watchdog::campaign::cell::KIND_PANIC;
use watchdog::campaign::{execute_cell, CellOutcome, CellSpec};
use watchdog::core::MODE_NAMES;
use watchdog::gen::{generate, GenConfig};
use watchdog::mem::{CacheConfig, HierarchyConfig, MAX_ENTRIES, MAX_LATENCY};
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
const BAD: [(&str, Edit); 24] = [
    ("rob_entries", |c| c.core.rob_entries = 0),
    ("iq_entries", |c| c.core.iq_entries = 0),
    ("lq_entries", |c| c.core.lq_entries = 0),
    ("sq_entries", |c| c.core.sq_entries = 0),
    ("int_alus", |c| c.core.int_alus = 0),
    ("int_alus", |c| c.core.int_alus = POOL_PAD + 1),
    ("load_ports", |c| c.core.load_ports = 0),
    ("commit_width", |c| c.core.commit_width = 0),
    ("issue_width", |c| c.core.issue_width = 0),
    ("rename_width", |c| c.core.rename_width = 0),
    ("fetch_bytes_per_cycle", |c| {
        c.core.fetch_bytes_per_cycle = 0
    }),
    ("ras_entries", |c| c.core.ras_entries = 0),
    // Unbounded, this one overflowed a timestamp sum.
    ("lat_int_alu", |c| c.core.lat_int_alu = u64::MAX / 2),
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
    ("mem_lat", |c| c.hierarchy.mem_lat = MAX_LATENCY + 1),
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

    // Every latency at its bound, in both configs, runs to completion.
    let max = MAX_LATENCY;
    let core = CoreConfig {
        dispatch_latency: max,
        redirect_penalty: max,
        lat_int_alu: max,
        lat_int_mul: max,
        lat_int_div: max,
        lat_fp_alu: max,
        lat_fp_mul: max,
        lat_fp_div: max,
        lat_agu: max,
        ..CoreConfig::sandy_bridge()
    };
    let hierarchy = HierarchyConfig {
        l1_lat: max,
        l2_lat: max,
        l3_lat: max,
        mem_lat: max,
        tlb_miss_penalty: max,
        ..HierarchyConfig::default()
    };
    let cfg = SimConfig {
        core,
        hierarchy,
        ..SimConfig::timed(Mode::watchdog_conservative())
    };
    let report = Simulator::new(cfg).run(&program).unwrap();
    assert!(report.cycles() > max, "{}", report.cycles());
}

/// Sets one `SimConfig` field from a raw draw (`as` truncates to the
/// field's type).
type Set = fn(&mut SimConfig, u64);

/// Every core and hierarchy field, by name.
const FIELDS: [(&str, Set); 55] = [
    ("fetch_bytes_per_cycle", |c, v| {
        c.core.fetch_bytes_per_cycle = v
    }),
    ("rename_width", |c, v| c.core.rename_width = v),
    ("dispatch_latency", |c, v| c.core.dispatch_latency = v),
    ("rob_entries", |c, v| c.core.rob_entries = v as usize),
    ("iq_entries", |c, v| c.core.iq_entries = v as usize),
    ("lq_entries", |c, v| c.core.lq_entries = v as usize),
    ("sq_entries", |c, v| c.core.sq_entries = v as usize),
    ("issue_width", |c, v| c.core.issue_width = v),
    ("commit_width", |c, v| c.core.commit_width = v),
    ("int_alus", |c, v| c.core.int_alus = v as usize),
    ("branch_units", |c, v| c.core.branch_units = v as usize),
    ("load_ports", |c, v| c.core.load_ports = v as usize),
    ("store_ports", |c, v| c.core.store_ports = v as usize),
    ("muldiv_units", |c, v| c.core.muldiv_units = v as usize),
    ("fp_alus", |c, v| c.core.fp_alus = v as usize),
    ("fp_muls", |c, v| c.core.fp_muls = v as usize),
    ("fp_divs", |c, v| c.core.fp_divs = v as usize),
    ("ll_ports", |c, v| c.core.ll_ports = v as usize),
    ("redirect_penalty", |c, v| c.core.redirect_penalty = v),
    ("lat_int_alu", |c, v| c.core.lat_int_alu = v),
    ("lat_int_mul", |c, v| c.core.lat_int_mul = v),
    ("lat_int_div", |c, v| c.core.lat_int_div = v),
    ("lat_fp_alu", |c, v| c.core.lat_fp_alu = v),
    ("lat_fp_mul", |c, v| c.core.lat_fp_mul = v),
    ("lat_fp_div", |c, v| c.core.lat_fp_div = v),
    ("lat_agu", |c, v| c.core.lat_agu = v),
    ("ras_entries", |c, v| c.core.ras_entries = v as usize),
    ("l1i.size", |c, v| c.hierarchy.l1i.size = v),
    ("l1i.ways", |c, v| c.hierarchy.l1i.ways = v),
    ("l1i.block", |c, v| c.hierarchy.l1i.block = v),
    ("l1d.size", |c, v| c.hierarchy.l1d.size = v),
    ("l1d.ways", |c, v| c.hierarchy.l1d.ways = v),
    ("l1d.block", |c, v| c.hierarchy.l1d.block = v),
    ("ll.size", |c, v| c.hierarchy.ll.size = v),
    ("ll.ways", |c, v| c.hierarchy.ll.ways = v),
    ("ll.block", |c, v| c.hierarchy.ll.block = v),
    ("l2.size", |c, v| c.hierarchy.l2.size = v),
    ("l2.ways", |c, v| c.hierarchy.l2.ways = v),
    ("l2.block", |c, v| c.hierarchy.l2.block = v),
    ("l3.size", |c, v| c.hierarchy.l3.size = v),
    ("l3.ways", |c, v| c.hierarchy.l3.ways = v),
    ("l3.block", |c, v| c.hierarchy.l3.block = v),
    ("l1_lat", |c, v| c.hierarchy.l1_lat = v),
    ("l2_lat", |c, v| c.hierarchy.l2_lat = v),
    ("l3_lat", |c, v| c.hierarchy.l3_lat = v),
    ("mem_lat", |c, v| c.hierarchy.mem_lat = v),
    ("dtlb_entries", |c, v| c.hierarchy.dtlb_entries = v as usize),
    ("lltlb_entries", |c, v| {
        c.hierarchy.lltlb_entries = v as usize
    }),
    ("tlb_miss_penalty", |c, v| c.hierarchy.tlb_miss_penalty = v),
    ("l1_prefetch.streams", |c, v| {
        c.hierarchy.l1_prefetch.0 = v as usize
    }),
    ("l1_prefetch.degree", |c, v| c.hierarchy.l1_prefetch.1 = v),
    ("l2_prefetch.streams", |c, v| {
        c.hierarchy.l2_prefetch.0 = v as usize
    }),
    ("l2_prefetch.degree", |c, v| c.hierarchy.l2_prefetch.1 = v),
    ("lock_cache", |c, v| c.hierarchy.lock_cache = v & 1 == 1),
    ("ideal_shadow", |c, v| c.hierarchy.ideal_shadow = v & 1 == 1),
];

/// A field value: small and Table 2-sized values, powers of two (cache
/// geometry), each bound and one past it, and anything at all.
fn value() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..8,
        0u64..300,
        (0u32..64).prop_map(|b| 1u64 << b),
        (0usize..8).prop_map(|i| {
            [
                MAX_LATENCY,
                MAX_LATENCY + 1,
                MAX_ENTRIES,
                MAX_ENTRIES + 1,
                POOL_PAD as u64 + 1,
                u64::MAX / 2,
                u64::MAX - 1,
                u64::MAX,
            ][i]
        }),
        any::<u64>(),
    ]
}

/// A campaign seed, the extremes included.
fn campaign_seed() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..1000, Just(u64::MAX), u64::MAX - 64.., any::<u64>()]
}

/// Runs `f`, turning a panic into a failed case that shows `what`.
fn no_panic<T>(what: &str, f: impl FnOnce() -> T) -> Result<T, TestCaseError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|_| TestCaseError::fail(format!("panicked: {what}")))
}

proptest! {
    // A few seconds in a debug build. The default 32 cases can miss a
    // rare overflow: without the latency bound, the first one shows at
    // case 74.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// A random `SimConfig` (mode, timing, instruction limit and a random
    /// subset of core and hierarchy fields, in and out of range), run
    /// plain or with the CPI-stack profiler, the `ReplayConfig` built
    /// from it, and a random campaign cell: each either gets a typed
    /// error or runs to completion, and a config error comes exactly when
    /// validation rejects the config.
    #[test]
    fn random_configs_are_rejected_or_run_to_completion(
        seed in campaign_seed(),
        mode in 0..MODE_NAMES.len(),
        timing in any::<bool>(),
        crack_cache in any::<bool>(),
        instrumented in any::<bool>(),
        max_insts in prop_oneof![0u64..64, Just(u64::MAX), any::<u64>()],
        edits in proptest::collection::vec((0..FIELDS.len(), value()), 0..8),
    ) {
        let cell = no_panic(&format!("cell of seed {seed}"), || {
            execute_cell(&CellSpec::Seed(seed))
        })?;
        prop_assert!(
            !matches!(cell, CellOutcome::Fail { kind: KIND_PANIC, .. }),
            "seed {seed}: {cell:?}"
        );

        let mode = MODE_NAMES[mode].1;
        let mut cfg = SimConfig {
            timing,
            max_insts,
            crack_cache,
            ..SimConfig::timed(mode)
        };
        let names: Vec<_> = edits.iter().map(|&(f, v)| (FIELDS[f].0, v)).collect();
        for &(f, v) in &edits {
            (FIELDS[f].1)(&mut cfg, v);
        }
        let invalid = cfg.core.validate().is_err() || cfg.hierarchy.validate().is_err();
        let what = format!("{} with {names:?}", mode.label());
        let program = generate(seed, &GenConfig::default()).program;

        let sim = Simulator::new(cfg.clone());
        let run = no_panic(&what, || {
            if instrumented {
                sim.run_instrumented(&program).map(|(report, _)| report)
            } else {
                sim.run(&program)
            }
        })?;
        prop_assert_eq!(matches!(run, Err(SimError::Config(_))), invalid, "{}: {:?}", what, run);

        let Ok(trace) = record(&program, mode, max_insts) else {
            return Ok(());
        };
        let cfgs = [ReplayConfig::default(), ReplayConfig::from_sim(&cfg)];
        let replayed = no_panic(&what, || replay_many(&program, &trace, &cfgs))?;
        prop_assert_eq!(
            matches!(replayed, Err(TraceError::Config(_))),
            invalid,
            "{}: {:?}",
            what,
            replayed.map(|r| r.len())
        );
    }
}
