//! The trace subsystem's acceptance anchor at workspace scale: for every
//! suite cell and a band of fuzz seeds, trace-driven timed replay must
//! reproduce the live timed simulation's `RunReport` **exactly** — and the
//! trace-driven ablation sweep must produce byte-identical tables to the
//! full re-simulation path.
//!
//! Reports are compared through their `Debug` rendering, which prints
//! every field of every nested statistic (cycles, per-tag µop counts,
//! hierarchy/bpred/rename/stall counters, crack-cache counters, heap,
//! footprint, violation) — the strongest practical byte-identity check.

use watchdog::bench::{
    parallel_map, run_sweep_resim_with_jobs, run_sweep_traced_with_jobs, SweepPoint,
};
use watchdog::gen::{generate, GenConfig};
use watchdog::mem::CacheConfig;
use watchdog::pipeline::CoreConfig;
use watchdog::prelude::*;
use watchdog::trace::{record, replay, replay_many, verify_replay, ReplayConfig};

fn jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Live timed simulation vs. record→serialize→deserialize→replay — the
/// one shared recipe (`verify_replay`, also behind the CI
/// `trace selftest` smoke). Returns the divergence description, or `None`
/// when the reports are identical.
fn check_cell(program: &Program, mode: Mode) -> Option<String> {
    verify_replay(program, &SimConfig::timed(mode)).err()
}

/// Every (benchmark × mode) cell of the suite grid replays exactly.
#[test]
fn every_suite_cell_replays_exactly() {
    let modes = [
        Mode::Baseline,
        Mode::watchdog_conservative(),
        Mode::watchdog(),
    ];
    let specs = all_benchmarks();
    let programs: Vec<Program> = specs.iter().map(|s| s.build(Scale::Test)).collect();
    let grid: Vec<(usize, usize)> = (0..specs.len())
        .flat_map(|s| (0..modes.len()).map(move |m| (s, m)))
        .collect();
    let failures: Vec<String> = parallel_map(grid.len(), jobs(), |k| {
        let (si, mi) = grid[k];
        check_cell(&programs[si], modes[mi])
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(
        failures.is_empty(),
        "{} suite cell(s) diverged:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// 100 fuzz seeds — violating payloads included — replay exactly under
/// the conservative mode, and a prefix under ISA-assisted identification
/// (whose recording repeats the §5.2 profiling pass, like a live run).
#[test]
fn a_hundred_fuzz_seeds_replay_exactly() {
    let cfg = GenConfig::default();
    let failures: Vec<String> = parallel_map(100, jobs(), |seed| {
        let g = generate(seed as u64, &cfg);
        let mut out = Vec::new();
        out.extend(check_cell(&g.program, Mode::watchdog_conservative()));
        out.extend(check_cell(&g.twin, Mode::watchdog_conservative()));
        if seed < 25 {
            out.extend(check_cell(&g.program, Mode::watchdog()));
        }
        out
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(
        failures.is_empty(),
        "{} fuzz cell(s) diverged:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// `run_sweep_traced` (one functional pass + N replays per benchmark)
/// produces a byte-identical ablation table to the full-resimulation
/// path, under a profiled mode and across worker counts.
#[test]
fn traced_sweep_tables_are_byte_identical_to_resim() {
    let points = [SweepPoint::ll_size_kb(1), SweepPoint::ll_size_kb(16)];
    let mode = Mode::watchdog();
    let traced = run_sweep_traced_with_jobs(mode, Scale::Test, &points, jobs(), Some(4));
    let resim = run_sweep_resim_with_jobs(mode, Scale::Test, &points, 1, Some(4));
    assert_eq!(format!("{traced:?}"), format!("{resim:?}"));
}

/// `replay_many` over a mixed configuration slice — LL$ geometries, the
/// crack cache on and off, a narrower core, an idealized shadow — gives
/// four suite benchmarks (three pointer-heavy, one integer kernel), under
/// each checked mode (location-based, conservative and
/// ISA-assisted Watchdog), exactly the reports of one `replay` per
/// configuration.
#[test]
fn replay_many_matches_per_config_replay_on_the_suite() {
    let ll = |kb: u64, ways: u64| {
        let mut cfg = ReplayConfig::default();
        cfg.hierarchy.ll = CacheConfig::new(kb * 1024, ways, 64);
        cfg
    };
    let mut uncached = ll(1, 2);
    uncached.crack_cache = false;
    let mut narrow = ll(4, 8);
    narrow.core = CoreConfig {
        rob_entries: 64,
        iq_entries: 24,
        issue_width: 3,
        ..CoreConfig::sandy_bridge()
    };
    let mut ideal = ReplayConfig::default();
    ideal.hierarchy.ideal_shadow = true;
    let cfgs = [ll(1, 2), ll(2, 16), uncached, narrow, ideal, ll(16, 4)];

    let modes = [
        Mode::LocationBased,
        Mode::watchdog_conservative(),
        Mode::watchdog(),
    ];
    let programs: Vec<Program> = ["perl", "mcf", "twolf", "hmmer"]
        .iter()
        .map(|name| benchmark(name).expect("suite benchmark").build(Scale::Test))
        .collect();
    let grid: Vec<(usize, usize)> = (0..programs.len())
        .flat_map(|s| (0..modes.len()).map(move |m| (s, m)))
        .collect();
    let failures: Vec<String> = parallel_map(grid.len(), jobs(), |k| {
        let (si, mi) = grid[k];
        let (p, mode) = (&programs[si], modes[mi]);
        let trace = record(p, mode, SimConfig::timed(mode).max_insts).expect("record");
        let many = replay_many(p, &trace, &cfgs).expect("replay_many");
        cfgs.iter()
            .zip(&many)
            .enumerate()
            .filter_map(|(i, (cfg, got))| {
                let want = replay(p, &trace, cfg).expect("replay");
                (format!("{got:?}") != format!("{want:?}"))
                    .then(|| format!("{}/{} point {i}", p.name(), mode.label()))
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(
        failures.is_empty(),
        "{} replay_many point(s) diverged:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
