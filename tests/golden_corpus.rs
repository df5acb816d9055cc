//! The committed golden corpus: one FNV-1a digest of the `Debug`
//! rendering of every report the timing model produces over a fixed
//! grid, checked against `tests/golden/reports.txt`.
//!
//! The `Debug` rendering prints every field of every nested statistic —
//! cycles, per-tag µop counts, hierarchy/bpred/rename/stall counters,
//! crack-cache counters, heap, footprint, violation — so a digest match
//! is byte identity of the report. The grid:
//!
//! * every suite benchmark × {baseline, location, cons, isa} at
//!   `Scale::Test`: the live `RunReport`, plus a separate digest of the
//!   `cpi.*` counters an instrumented run exports;
//! * trace replay of the same cells in the three non-location modes;
//! * the `Sampling::dense` mcf cell under cons;
//! * 100 fuzz seeds: program and benign twin under cons, plus the
//!   program under isa and its cons replay on seeds below 25.
//!
//! A refactor that must not change what is simulated leaves this file
//! passing. An intentional model change re-blesses it: on a mismatch the
//! test names every changed key and writes the fresh corpus to
//! `$CARGO_TARGET_TMPDIR/golden-reports.txt`; copy that file over
//! `tests/golden/reports.txt`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use watchdog::bench::parallel_map;
use watchdog::gen::{generate, GenConfig};
use watchdog::prelude::*;
use watchdog::trace::{record, replay, ReplayConfig};

const CORPUS: &str = include_str!("golden/reports.txt");

/// Suite modes, with the short names the corpus keys use.
fn modes() -> [(&'static str, Mode); 4] {
    [
        ("baseline", Mode::Baseline),
        ("location", Mode::LocationBased),
        ("cons", Mode::watchdog_conservative()),
        ("isa", Mode::watchdog()),
    ]
}

/// Fuzz seeds in the corpus, and the prefix that also runs isa + replay.
const SEEDS: u64 = 100;
const SEED_PREFIX: u64 = 25;

/// FNV-1a, 64 bit.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn debug_digest(v: &impl std::fmt::Debug) -> u64 {
    fnv(format!("{v:?}").as_bytes())
}

/// Digest of a run's outcome: the report on success, the error otherwise
/// (so a cell that starts or stops failing is a change too).
fn outcome_digest<E: std::fmt::Debug>(r: &Result<RunReport, E>) -> u64 {
    match r {
        Ok(report) => debug_digest(report),
        Err(e) => debug_digest(e),
    }
}

fn live(program: &Program, mode: Mode) -> u64 {
    outcome_digest(&Simulator::new(SimConfig::timed(mode)).run(program))
}

/// Digest of every `cpi.*` counter of an instrumented run, in export
/// order.
fn cpi(program: &Program, mode: Mode) -> u64 {
    match Simulator::new(SimConfig::timed(mode)).run_instrumented(program) {
        Ok((_, tele)) => {
            let mut text = String::new();
            for m in tele.core_metrics.iter() {
                if m.name.starts_with("cpi.") {
                    let _ = writeln!(text, "{}={:?}", m.name, m.counter);
                }
            }
            fnv(text.as_bytes())
        }
        Err(e) => debug_digest(&e),
    }
}

fn replayed(program: &Program, mode: Mode) -> u64 {
    let sim = SimConfig::timed(mode);
    match record(program, mode, sim.max_insts) {
        Ok(trace) => outcome_digest(&replay(program, &trace, &ReplayConfig::from_sim(&sim))),
        Err(e) => debug_digest(&e),
    }
}

/// One corpus entry to compute: its key and the work that digests it.
type Cell = (String, Box<dyn Fn() -> u64 + Sync>);

fn grid() -> Vec<Cell> {
    let mut cells: Vec<Cell> = Vec::new();
    for spec in all_benchmarks() {
        let program = std::sync::Arc::new(spec.build(Scale::Test));
        let name = program.name().to_string();
        for (mode_name, mode) in modes() {
            let key = format!("suite/{name}/{mode_name}");
            let p = program.clone();
            cells.push((format!("{key}/live"), Box::new(move || live(&p, mode))));
            let p = program.clone();
            cells.push((format!("{key}/cpi"), Box::new(move || cpi(&p, mode))));
            if mode_name != "location" {
                let p = program.clone();
                cells.push((
                    format!("{key}/replay"),
                    Box::new(move || replayed(&p, mode)),
                ));
            }
        }
    }
    cells.push((
        "sampled/mcf/cons/dense".into(),
        Box::new(|| {
            let program = benchmark("mcf").expect("registered").build(Scale::Test);
            let cfg = SimConfig::sampled(Mode::watchdog_conservative(), Sampling::dense());
            outcome_digest(&Simulator::new(cfg).run(&program))
        }),
    ));
    for seed in 0..SEEDS {
        let key = format!("fuzz/{seed:03}");
        let g = move || generate(seed, &GenConfig::default());
        let cons = Mode::watchdog_conservative();
        cells.push((
            format!("{key}/program/cons"),
            Box::new(move || live(&g().program, cons)),
        ));
        cells.push((
            format!("{key}/twin/cons"),
            Box::new(move || live(&g().twin, cons)),
        ));
        if seed < SEED_PREFIX {
            cells.push((
                format!("{key}/program/isa"),
                Box::new(move || live(&g().program, Mode::watchdog())),
            ));
            cells.push((
                format!("{key}/program/cons/replay"),
                Box::new(move || replayed(&g().program, cons)),
            ));
        }
    }
    cells
}

fn parse(text: &str) -> BTreeMap<String, u64> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let (k, v) = l.rsplit_once('\t').expect("`key<TAB>digest` line");
            let d = u64::from_str_radix(v, 16).expect("hex digest");
            (k.to_string(), d)
        })
        .collect()
}

fn render(entries: &[(String, u64)]) -> String {
    let mut out = String::from(
        "# Golden corpus: FNV-1a 64 of the Debug rendering of every report in\n\
         # the tests/golden_corpus.rs grid, one `key<TAB>fnv64` line per cell.\n",
    );
    for (k, d) in entries {
        let _ = writeln!(out, "{k}\t{d:016x}");
    }
    out
}

#[test]
fn reports_match_the_committed_corpus() {
    let cells = grid();
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let digests = parallel_map(cells.len(), jobs, |i| (cells[i].1)());
    let fresh: Vec<(String, u64)> = cells.iter().map(|c| c.0.clone()).zip(digests).collect();

    let committed = parse(CORPUS);
    let mut changes = Vec::new();
    for (k, d) in &fresh {
        match committed.get(k) {
            Some(c) if c == d => {}
            Some(c) => changes.push(format!("changed  {k}: {c:016x} -> {d:016x}")),
            None => changes.push(format!("added    {k}: {d:016x}")),
        }
    }
    let keys: std::collections::HashSet<&str> = fresh.iter().map(|(k, _)| k.as_str()).collect();
    for k in committed.keys().filter(|k| !keys.contains(k.as_str())) {
        changes.push(format!("removed  {k}"));
    }
    if !changes.is_empty() {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden-reports.txt");
        std::fs::write(&path, render(&fresh)).expect("write the fresh corpus");
        panic!(
            "{} of {} corpus cells differ from tests/golden/reports.txt:\n{}\n\
             fresh corpus written to {}; copy it over tests/golden/reports.txt \
             if the model change is intentional",
            changes.len(),
            fresh.len(),
            changes.join("\n"),
            path.display()
        );
    }
}
