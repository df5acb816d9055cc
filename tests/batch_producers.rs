//! The two batch producers fill identical batches: over the committed
//! stream of every suite cell × mode and a band of fuzz-generated
//! programs (violating payloads included),
//! [`UopBatch::push_expansion`] — the fill path of the live machine's
//! `step_batched` and of the trace replayer — must stage exactly what
//! [`UopBatch::push_cracked`] stages from the
//! [`assemble_cracked`](watchdog::isa::crack::assemble_cracked) expansion
//! `Machine::step` hands out for the same `(stat, facts)`.
//!
//! Two identical machines run in lockstep, one per producer; their
//! batches are compared at every flush point of the live loop.

use watchdog::bench::parallel_map;
use watchdog::core::machine::{Machine, Step};
use watchdog::gen::{generate, GenConfig};
use watchdog::pipeline::UopBatch;
use watchdog::prelude::*;

fn jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Steps one machine through `step_batched` and a twin through `step` +
/// `push_cracked`, comparing the two batches every
/// [`UopBatch::TARGET_INSTS`] instructions and at the end of the run.
/// Returns the first divergence, or `None`.
fn check(program: &Program, mode: Mode) -> Option<String> {
    let label = format!("{}/{}", program.name(), mode.label());
    let sim = SimConfig::timed(mode);
    let max_insts = sim.max_insts;
    let cfg = Simulator::new(sim)
        .machine_config(program)
        .expect("profiles");
    let mut live = Machine::new(program, cfg.clone());
    let mut twin = Machine::new(program, cfg);
    let mut expanded = UopBatch::with_capacity(UopBatch::TARGET_INSTS);
    let mut cracked = UopBatch::with_capacity(UopBatch::TARGET_INSTS);
    for inst in 0..=max_insts {
        let live_done = !matches!(live.step_batched(&mut expanded), Ok(Step::Executed(_)));
        let twin_done = match twin.step() {
            Ok(Step::Executed(ci)) => {
                cracked.push_cracked(ci.expect("µop-emitting machine"));
                false
            }
            _ => true,
        };
        if live_done != twin_done {
            return Some(format!("{label}: producers stop apart at inst {inst}"));
        }
        if live_done || expanded.len() >= UopBatch::TARGET_INSTS {
            if expanded != cracked {
                return Some(format!(
                    "{label}: batches diverge before inst {inst}\n\
                     push_expansion: {expanded:?}\npush_cracked:   {cracked:?}"
                ));
            }
            if live_done {
                return None;
            }
            expanded.clear();
            cracked.clear();
        }
    }
    Some(format!("{label}: no end within {max_insts} instructions"))
}

fn assert_none(failures: Vec<String>) {
    assert!(
        failures.is_empty(),
        "{} cell(s) diverged:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Every (benchmark × mode) cell of the suite grid.
#[test]
fn every_suite_cell_fills_identical_batches() {
    let modes = [
        Mode::Baseline,
        Mode::LocationBased,
        Mode::watchdog_conservative(),
        Mode::watchdog(),
    ];
    let programs: Vec<Program> = all_benchmarks()
        .iter()
        .map(|s| s.build(Scale::Test))
        .collect();
    let cells = programs.len() * modes.len();
    let failures = parallel_map(cells, jobs(), |k| {
        check(&programs[k / modes.len()], modes[k % modes.len()])
    });
    assert_none(failures.into_iter().flatten().collect());
}

/// 100 fuzz seeds, program and benign twin under cons, plus the program
/// under isa on the first 25 seeds.
#[test]
fn a_hundred_fuzz_seeds_fill_identical_batches() {
    let cfg = GenConfig::default();
    let failures = parallel_map(100, jobs(), |seed| {
        let g = generate(seed as u64, &cfg);
        let mut out = Vec::new();
        out.extend(check(&g.program, Mode::watchdog_conservative()));
        out.extend(check(&g.twin, Mode::watchdog_conservative()));
        if seed < 25 {
            out.extend(check(&g.program, Mode::watchdog()));
        }
        out
    });
    assert_none(failures.into_iter().flatten().collect());
}
