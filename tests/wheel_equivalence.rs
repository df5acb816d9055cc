//! The calendar-queue timing core's acceptance anchor at workspace scale:
//! the wheel-scheduled production core (`ScheduledCore<WheelSched>` —
//! rings, calendar wheel, rotating-cursor FU pools) must produce
//! **field-identical** `RunReport`s — cycles, per-tag µop counts,
//! hierarchy/bpred/rename/stall counters, crack-cache counters, heap,
//! footprint, violation — to the PR 5 heap-scheduled reference
//! (`ScheduledCore<HeapSched>`), on every suite cell × mode, across a
//! band of fuzz-generated programs (violating payloads included), on the
//! live, trace-replayed and sampled paths.
//!
//! Reports are compared through their `Debug` rendering, which prints
//! every field of every nested statistic — the strongest practical
//! byte-identity check (the same discipline as `golden_corpus.rs`).

use watchdog::bench::parallel_map;
use watchdog::gen::{generate, GenConfig};
use watchdog::prelude::*;
use watchdog::trace::{record, replay, replay_reference, ReplayConfig};

fn jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Live timed simulation, wheel-scheduled vs heap-scheduled. Returns the
/// divergence description, or `None` when the reports are identical.
fn check_live(program: &Program, mode: Mode) -> Option<String> {
    let cfg = SimConfig::timed(mode);
    let sim = Simulator::new(cfg);
    let (a, b) = match (sim.run(program), sim.run_reference(program)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            return Some(format!(
                "{}/{}: run failed: {e}",
                program.name(),
                mode.label()
            ))
        }
    };
    let (a, b) = (format!("{a:?}"), format!("{b:?}"));
    (a != b).then(|| {
        format!(
            "{}/{}: wheel core diverges from heap reference\nwheel: {a}\nheap:  {b}",
            program.name(),
            mode.label()
        )
    })
}

/// Trace replay, wheel-scheduled vs heap-scheduled.
fn check_replay(program: &Program, mode: Mode) -> Option<String> {
    let sim = SimConfig::timed(mode);
    let trace = match record(program, mode, sim.max_insts) {
        Ok(t) => t,
        Err(e) => {
            return Some(format!(
                "{}/{}: record failed: {e}",
                program.name(),
                mode.label()
            ))
        }
    };
    let cfg = ReplayConfig::from_sim(&sim);
    let (a, b) = match (
        replay(program, &trace, &cfg),
        replay_reference(program, &trace, &cfg),
    ) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            return Some(format!(
                "{}/{}: replay failed: {e}",
                program.name(),
                mode.label()
            ))
        }
    };
    let (a, b) = (format!("{a:?}"), format!("{b:?}"));
    (a != b).then(|| {
        format!(
            "{}/{}: wheel replay diverges from heap replay\nwheel: {a}\nheap:  {b}",
            program.name(),
            mode.label()
        )
    })
}

/// Every (benchmark × mode) cell of the suite grid is scheduling-model
/// invariant, on the live path and on the replay path.
#[test]
fn every_suite_cell_is_schedule_invariant() {
    let modes = [
        Mode::Baseline,
        Mode::LocationBased,
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
        let mut out = Vec::new();
        out.extend(check_live(&programs[si], modes[mi]));
        // Replay-side invariance on the checked modes (the trace format
        // round-trips the same cells in trace_equivalence.rs; here the
        // axis under test is the scheduling model).
        if modes[mi] != Mode::LocationBased {
            out.extend(check_replay(&programs[si], modes[mi]));
        }
        out
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

/// 100 fuzz seeds — violating payloads included, so runs that end at a
/// detected violation are covered — are scheduling-model invariant under
/// the conservative mode, with an ISA-assisted prefix.
#[test]
fn a_hundred_fuzz_seeds_are_schedule_invariant() {
    let cfg = GenConfig::default();
    let failures: Vec<String> = parallel_map(100, jobs(), |seed| {
        let g = generate(seed as u64, &cfg);
        let mut out = Vec::new();
        out.extend(check_live(&g.program, Mode::watchdog_conservative()));
        out.extend(check_live(&g.twin, Mode::watchdog_conservative()));
        if seed < 25 {
            out.extend(check_live(&g.program, Mode::watchdog()));
            out.extend(check_replay(&g.program, Mode::watchdog_conservative()));
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

/// The sampled regime (§9.1) is scheduling-model invariant too: the
/// wheel's drain points line up with measurement-window snapshots.
#[test]
fn sampled_runs_are_schedule_invariant() {
    let program = benchmark("mcf").expect("registered").build(Scale::Test);
    let sim = Simulator::new(SimConfig::sampled(
        Mode::watchdog_conservative(),
        Sampling::dense(),
    ));
    let wheel = sim.run(&program).unwrap();
    let heap = sim.run_reference(&program).unwrap();
    assert_eq!(format!("{wheel:?}"), format!("{heap:?}"));
}
