//! The two workloads' pipelines, at small scale (the default of `--bin
//! all` and `ablation_ll_size`).
//!
//! * **paper-regen** — the `--bin all` pipeline: Table 1, Juliet, Figs. 5,
//!   7, 8, 9, the ideal-shadow ablation, Figs. 10 and 11; live functional
//!   and timed cells in all eight modes. Inputs are fixed.
//! * **ll-sweep** — the trace-driven LL$ size × associativity sweep of
//!   `ablation_ll_size`: 40 `record` calls, 420 `replay` calls across 20 LL$
//!   geometries. Inputs are fixed.
//!
//! An untraced pass calls the functions the regenerators call —
//! `watchdog_bench::{run_suite_with_jobs, run_juliet_with_jobs,
//! run_sweep_traced_with_jobs}` — so a change to that harness moves the
//! end-to-end figures. A traced pass walks the same grids on the same
//! `watchdog_bench::parallel_map` pool but makes each layer call itself,
//! so every call is a span; its timed cells go through the replica loop.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use watchdog_bench::{
    parallel_map, run_juliet_with_jobs, run_suite_with_jobs, run_sweep_traced_with_jobs,
    JulietOutcome, SweepPoint,
};
use watchdog_core::prelude::*;
use watchdog_isa::{Gpr, Program, ProgramBuilder};
use watchdog_trace::{record, replay, ReplayConfig};
use watchdog_workloads::{all_benchmarks, benign_suite, juliet_suite, Cwe, Scale};

use crate::golden::{debug_digest, Golden};
use crate::replica;
use crate::spans::{ns_since, Acc, CellSpan, Layer};

/// Input scale of both workloads: the regenerators' default.
pub const SCALE: Scale = Scale::Small;

/// The four mode groups the per-mode figures are reported for.
pub const MODE_GROUPS: [&str; 4] = ["baseline", "cons", "isa", "bounds"];

/// Full memory safety with one fused bounds-check µop (Fig. 11).
pub fn bounds1() -> Mode {
    Mode::WatchdogBounds {
        ptr: PointerId::IsaAssisted,
        uops: BoundsUops::Fused,
    }
}

/// Full memory safety with two split bounds-check µops (Fig. 11).
pub fn bounds2() -> Mode {
    Mode::WatchdogBounds {
        ptr: PointerId::IsaAssisted,
        uops: BoundsUops::Split,
    }
}

/// The mode group of `mode`, if it belongs to one. `bounds` covers both
/// bounds flavours.
pub fn mode_group(mode: Mode) -> Option<usize> {
    match mode {
        Mode::Baseline => Some(0),
        m if m == Mode::watchdog_conservative() => Some(1),
        m if m == Mode::watchdog() => Some(2),
        Mode::WatchdogBounds { .. } => Some(3),
        _ => None,
    }
}

/// Deterministic work of a pass, and the time it took.
#[derive(Debug, Clone, Default)]
pub struct PassStats {
    /// Whole-pass wall time, ns.
    pub wall_ns: u64,
    /// Simulation calls attempted.
    pub cells: u64,
    /// Distinct simulations among them.
    pub distinct: u64,
    /// Outputs that failed or whose digest did not match.
    pub failed: u64,
    /// Guest instructions of the throughput-bearing calls.
    pub sim_insts: u64,
    /// Wall time of the stages holding those calls, ns.
    pub sim_ns: u64,
    /// µops simulated by the timed calls.
    pub uops: u64,
}

impl PassStats {
    /// Guest instructions per host second of simulation, in millions.
    pub fn minsts_per_s(&self) -> f64 {
        rate(self.sim_insts, self.sim_ns)
    }

    /// Cells per wall second.
    pub fn cells_per_s(&self) -> f64 {
        self.cells as f64 / (self.wall_ns as f64 / 1e9)
    }
}

/// Millions of units per second from a count and nanoseconds.
pub fn rate(units: u64, ns: u64) -> f64 {
    if ns == 0 {
        0.0
    } else {
        units as f64 * 1e3 / ns as f64
    }
}

/// What an untraced pass produced: its statistics, the digest of every
/// output and the cycles of every distinct timed cell.
pub struct Pass {
    /// Work, timing and golden check.
    pub stats: PassStats,
    /// `(golden key, digest)` of every output that succeeded.
    pub digests: Vec<(String, u64)>,
    /// Cycles of each timed output, by golden key.
    pub cycles: HashMap<String, u64>,
}

impl Pass {
    fn new() -> Pass {
        Pass {
            stats: PassStats::default(),
            digests: Vec::new(),
            cycles: HashMap::new(),
        }
    }

    /// Counts `sims` simulations under `key` and checks its digest.
    fn output(&mut self, golden: &Golden, key: String, digest: Option<u64>, sims: u64) {
        self.stats.cells += sims;
        self.stats.failed += u64::from(!digest.is_some_and(|d| golden.matches(&key, d)));
        if let Some(d) = digest {
            self.digests.push((key, d));
        }
    }

    /// Sorts and dedups the digests, and counts the distinct outputs.
    fn finish(mut self, origin: Instant, distinct: u64) -> Pass {
        self.stats.wall_ns = ns_since(origin);
        self.stats.distinct = distinct;
        self.digests.sort();
        self.digests.dedup();
        self
    }
}

/// Runs `f`, turning a panic into `None`: the `watchdog_bench` runners
/// panic on a failed cell, which counts as a failure here.
fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

// ---------------------------------------------------------------------
// paper-regen
// ---------------------------------------------------------------------

/// A suite-grid figure of `--bin all`: the modes it runs on all twenty
/// benchmarks, timed or functional only.
pub struct Figure {
    /// Table or figure name.
    pub name: &'static str,
    /// Modes, in the order the figure passes them.
    pub modes: Vec<Mode>,
    /// Timed (`run_suite`) or functional (`run_suite_functional`).
    pub timed: bool,
}

/// The suite-grid figures, in `--bin all` order (after Table 1 and Juliet).
pub fn figures() -> Vec<Figure> {
    let cons = Mode::watchdog_conservative();
    let isa = Mode::watchdog();
    let no_ll = Mode::Watchdog {
        ptr: PointerId::IsaAssisted,
        lock_cache: false,
        ideal_shadow: false,
    };
    let ideal = Mode::Watchdog {
        ptr: PointerId::IsaAssisted,
        lock_cache: true,
        ideal_shadow: true,
    };
    let fig = |name, modes, timed| Figure { name, modes, timed };
    vec![
        fig("fig05", vec![cons, isa], false),
        fig("fig07", vec![Mode::Baseline, cons, isa], true),
        fig("fig08", vec![isa], true),
        fig("fig09", vec![Mode::Baseline, isa, no_ll], true),
        fig(
            "ablation_ideal_shadow",
            vec![Mode::Baseline, isa, ideal],
            true,
        ),
        fig("fig10", vec![isa], false),
        fig(
            "fig11",
            vec![Mode::Baseline, isa, bounds1(), bounds2()],
            true,
        ),
    ]
}

/// The modes Table 1 runs each of its programs under.
fn table1_modes() -> [Mode; 3] {
    [
        Mode::Baseline,
        Mode::LocationBased,
        Mode::watchdog_conservative(),
    ]
}

/// The three adversarial programs of the Table 1 demonstration.
pub fn table1_programs() -> [Program; 3] {
    let g = Gpr::new;
    let build = |name: &str, body: &dyn Fn(&mut ProgramBuilder)| {
        let mut b = ProgramBuilder::new(name);
        b.li(g(1), 64);
        b.malloc(g(0), g(1));
        body(&mut b);
        b.halt();
        b.build().expect("Table 1 program builds")
    };
    [
        build("simple-uaf", &|b| {
            b.free(g(0));
            b.ld8(g(2), g(0), 0);
        }),
        build("uaf-after-realloc", &|b| {
            b.mov(g(2), g(0));
            b.free(g(0));
            b.malloc(g(3), g(1));
            b.ld8(g(4), g(2), 0);
        }),
        build("double-free", &|b| {
            b.free(g(0));
            b.free(g(0));
        }),
    ]
}

/// The twenty benchmark kernels at [`SCALE`].
pub fn build_benchmarks() -> Vec<Program> {
    all_benchmarks().iter().map(|s| s.build(SCALE)).collect()
}

/// Builds every input program a paper-regen pass builds (its set-up):
/// the Table 1 programs, the Juliet cases and their benign twins, and the
/// twenty kernels once per suite figure, as `run_suite_with_jobs` does.
pub fn build_paper_inputs() -> usize {
    let mut n = table1_programs().len() + juliet_suite().len() + benign_suite().len();
    for _ in figures() {
        n += build_benchmarks().len();
    }
    n
}

/// Builds every input program an ll-sweep pass builds (its set-up): the
/// twenty kernels once per sweep, as `run_sweep_traced_with_jobs` does.
pub fn build_sweep_inputs() -> usize {
    sweeps().iter().map(|_| build_benchmarks().len()).sum()
}

/// Golden key of a suite-grid cell.
pub fn suite_key(bench: &str, label: &str, timed: bool) -> String {
    let kind = if timed { "timed" } else { "functional" };
    format!("{bench}|{label}|{kind}")
}

/// Golden key of a Table 1 cell.
pub fn table1_key(program: &str, mode: Mode) -> String {
    format!("table1|{program}|{}", mode.label())
}

/// Golden key of a Juliet case.
pub fn juliet_key(case: &str) -> String {
    format!("juliet|{case}")
}

/// Simulations behind one Juliet outcome: the bad case, its benign twin,
/// and the location-based contrast on CWE-416 cases.
fn juliet_sims(o: &JulietOutcome) -> u64 {
    2 + u64::from(o.location.is_some())
}

/// Runs the paper-regen pipeline once, untraced, through the
/// `watchdog_bench` runners, checking every output against `golden`.
pub fn paper_pass(jobs: usize, golden: &Golden) -> Pass {
    let origin = Instant::now();
    let mut pass = Pass::new();
    let mut distinct = HashSet::new();

    // Table 1 runs its nine cells serially, as `figs::table1` does.
    for p in &table1_programs() {
        for mode in table1_modes() {
            let key = table1_key(p.name(), mode);
            let r = Simulator::new(SimConfig::functional(mode)).run(p).ok();
            pass.output(golden, key.clone(), r.as_ref().map(debug_digest), 1);
            distinct.insert(key);
        }
    }

    let cons = Mode::watchdog_conservative();
    match guarded(|| run_juliet_with_jobs(cons, jobs, None)) {
        Some(outcomes) => {
            for o in &outcomes {
                let key = juliet_key(&o.name);
                pass.output(golden, key.clone(), Some(debug_digest(o)), juliet_sims(o));
                distinct.insert(key.clone() + "|bad");
                distinct.insert(key.clone() + "|benign");
                if o.location.is_some() {
                    distinct.insert(key + "|location");
                }
            }
        }
        None => pass.output(golden, juliet_key("*"), None, 1),
    }

    for fig in figures() {
        let t0 = Instant::now();
        let results = guarded(|| run_suite_with_jobs(&fig.modes, SCALE, fig.timed, jobs));
        let ns = ns_since(t0);
        let Some(results) = results else {
            let key = format!("{}|*", fig.name);
            pass.output(golden, key, None, 20 * fig.modes.len() as u64);
            continue;
        };
        if fig.timed {
            pass.stats.sim_ns += ns;
        }
        for (bench, by_mode) in &results {
            for (label, r) in by_mode {
                let key = suite_key(bench, label, fig.timed);
                if fig.timed {
                    pass.stats.sim_insts += r.machine.insts;
                    pass.stats.uops += r.uops();
                    pass.cycles.insert(key.clone(), r.cycles());
                }
                pass.output(golden, key.clone(), Some(debug_digest(r)), 1);
                distinct.insert(key);
            }
        }
    }
    pass.finish(origin, distinct.len() as u64)
}

/// A finished traced pass: its cell spans and what the cells returned.
pub struct TracedPass {
    /// One span per cell, in the order the pool ran the stages.
    pub spans: Vec<CellSpan>,
    /// Spans outside any cell (building the programs).
    pub extra: Acc,
    /// Whole-pass wall time, ns.
    pub wall_ns: u64,
    /// `(golden key, digest)` of every output checked against the golden
    /// file, `None` for a failed call.
    pub outputs: Vec<(String, Option<u64>)>,
    /// `(golden key, cycles)` of every replica cell, `None` for a failed
    /// one.
    pub replica: Vec<(String, Option<u64>)>,
    /// Per mode group: guest instructions and cell ns of the timed cells.
    pub by_mode: [(u64, u64); 4],
}

impl TracedPass {
    fn new() -> TracedPass {
        TracedPass {
            spans: Vec::new(),
            extra: Acc::default(),
            wall_ns: 0,
            outputs: Vec::new(),
            replica: Vec::new(),
            by_mode: [(0, 0); 4],
        }
    }

    /// Runs `f` on the pool over `0..n`, each call one cell span measured
    /// from `origin`; keeps the spans and returns the results.
    fn stage<R: Send>(
        &mut self,
        n: usize,
        jobs: usize,
        origin: Instant,
        f: impl Fn(usize, &mut Acc) -> R + Sync,
    ) -> Vec<R> {
        let done = parallel_map(n, jobs, |i| {
            let start_ns = ns_since(origin);
            let mut children = Acc::default();
            let out = f(i, &mut children);
            let span = CellSpan {
                start_ns,
                end_ns: ns_since(origin),
                children,
            };
            (out, span)
        });
        done.into_iter()
            .map(|(out, span)| {
                self.spans.push(span);
                out
            })
            .collect()
    }

    /// Builds inputs as a span outside any cell.
    fn build<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.extra.close(Layer::Build, t0, 1);
        out
    }
}

/// A functional `Simulator::run` as a span of `acc`.
fn functional(program: &Program, mode: Mode, acc: &mut Acc) -> Option<RunReport> {
    let t0 = Instant::now();
    let r = Simulator::new(SimConfig::functional(mode))
        .run(program)
        .ok();
    acc.close(
        Layer::Functional,
        t0,
        r.as_ref().map_or(0, |r| r.machine.insts),
    );
    r
}

/// Runs the paper-regen grids once with every layer call a span: Table 1
/// serially, Juliet per case and each figure per (benchmark × mode) cell on
/// `parallel_map`, timed cells through the replica loop.
pub fn paper_traced(jobs: usize) -> TracedPass {
    let origin = Instant::now();
    let mut tp = TracedPass::new();

    let t1 = tp.build(table1_programs);
    let cells: Vec<(usize, Mode)> = (0..t1.len())
        .flat_map(|p| table1_modes().map(|m| (p, m)))
        .collect();
    let out = tp.stage(cells.len(), 1, origin, |i, acc| {
        let (p, mode) = cells[i];
        functional(&t1[p], mode, acc).as_ref().map(debug_digest)
    });
    for (&(p, mode), d) in cells.iter().zip(out) {
        tp.outputs.push((table1_key(t1[p].name(), mode), d));
    }

    let (bad, good) = tp.build(|| (juliet_suite(), benign_suite()));
    let cons = Mode::watchdog_conservative();
    let out = tp.stage(bad.len(), jobs, origin, |i, acc| {
        let (b, g) = (&bad[i], &good[i]);
        let kind = |r: Option<RunReport>| r.map(|r| r.violation_kind());
        let o = JulietOutcome {
            name: b.name.clone(),
            cwe: b.cwe,
            expected: b.expected,
            detected: kind(functional(&b.program, cons, acc))?,
            benign: kind(functional(&g.program, cons, acc))?,
            location: match b.cwe {
                Cwe::Cwe416 => Some(kind(functional(&b.program, Mode::LocationBased, acc))?),
                _ => None,
            },
        };
        Some(debug_digest(&o))
    });
    for (b, d) in bad.iter().zip(out) {
        tp.outputs.push((juliet_key(&b.name), d));
    }

    for fig in figures() {
        let specs = all_benchmarks();
        let programs = tp.build(|| specs.iter().map(|s| s.build(SCALE)).collect::<Vec<_>>());
        let grid: Vec<(usize, Mode)> = (0..programs.len())
            .flat_map(|s| fig.modes.iter().map(move |&m| (s, m)))
            .collect();
        let out = tp.stage(grid.len(), jobs, origin, |i, acc| {
            let (s, mode) = grid[i];
            if fig.timed {
                replica::run(&programs[s], mode, acc, None)
                    .ok()
                    .map(|r| (r.timing.cycles, r.timing.insts))
            } else {
                functional(&programs[s], mode, acc).map(|r| (debug_digest(&r), 0))
            }
        });
        let first = tp.spans.len() - grid.len();
        for (k, (&(s, mode), r)) in grid.iter().zip(out).enumerate() {
            let key = suite_key(specs[s].name, &mode.label(), fig.timed);
            if !fig.timed {
                tp.outputs.push((key, r.map(|(d, _)| d)));
                continue;
            }
            if let (Some((_, insts)), Some(g)) = (r, mode_group(mode)) {
                let span = &tp.spans[first + k];
                tp.by_mode[g].0 += insts;
                tp.by_mode[g].1 += span.end_ns - span.start_ns;
            }
            tp.replica.push((key, r.map(|(cycles, _)| cycles)));
        }
    }
    tp.wall_ns = ns_since(origin);
    tp
}

// ---------------------------------------------------------------------
// ll-sweep
// ---------------------------------------------------------------------

/// The LL$ geometries of the sweep, in `ablation_ll_size` order: 2, 4, 8
/// and 16 ways, each at 1, 2, 4, 8 and 16 KB.
pub fn ll_points() -> Vec<SweepPoint> {
    [2u64, 4, 8, 16]
        .iter()
        .flat_map(|&ways| {
            [1u64, 2, 4, 8, 16]
                .iter()
                .map(move |&kb| SweepPoint::ll_geometry(kb, ways))
        })
        .collect()
}

/// The two sweeps of `ablation_ll_size`: the baseline at Table 2, then
/// ISA-assisted Watchdog at every LL$ geometry.
pub fn sweeps() -> [(Mode, Vec<SweepPoint>); 2] {
    [
        (Mode::Baseline, vec![SweepPoint::table2("table2")]),
        (Mode::watchdog(), ll_points()),
    ]
}

/// Golden key of a replay.
pub fn sweep_key(bench: &str, mode: Mode, point: &str) -> String {
    format!("{bench}|{}|{point}", mode.label())
}

/// Runs the ll-sweep pipeline once, untraced, through
/// `run_sweep_traced_with_jobs`, checking every replay report against
/// `golden`. A pass's simulation calls are its `record` and `replay`
/// calls; its throughput is replayed instructions per second of sweep.
pub fn sweep_pass(jobs: usize, golden: &Golden) -> Pass {
    let origin = Instant::now();
    let mut pass = Pass::new();
    let benches = all_benchmarks().len() as u64;
    for (mode, points) in sweeps() {
        let t0 = Instant::now();
        let results = guarded(|| run_sweep_traced_with_jobs(mode, SCALE, &points, jobs, None));
        pass.stats.sim_ns += ns_since(t0);
        // One `record` per benchmark, checked through its replays.
        pass.stats.cells += benches;
        let Some(results) = results else {
            let key = format!("{}|*", mode.label());
            pass.output(golden, key, None, benches * points.len() as u64);
            continue;
        };
        for (bench, reports) in &results {
            for (point, r) in points.iter().zip(reports) {
                pass.stats.sim_insts += r.machine.insts;
                pass.stats.uops += r.uops();
                let key = sweep_key(bench, mode, &point.label);
                pass.output(golden, key, Some(debug_digest(r)), 1);
            }
        }
    }
    let cells = pass.stats.cells;
    pass.finish(origin, cells)
}

/// Runs the ll-sweep grids once with every `record` and `replay` a span,
/// on `parallel_map`.
pub fn sweep_traced(jobs: usize) -> TracedPass {
    let origin = Instant::now();
    let mut tp = TracedPass::new();
    for (mode, points) in sweeps() {
        let specs = all_benchmarks();
        let programs = tp.build(|| specs.iter().map(|s| s.build(SCALE)).collect::<Vec<_>>());
        let max_insts = SimConfig::timed(mode).max_insts;
        let traces = tp.stage(programs.len(), jobs, origin, |i, acc| {
            let t0 = Instant::now();
            let t = record(&programs[i], mode, max_insts).ok();
            acc.close(
                Layer::Record,
                t0,
                t.as_ref().map_or(0, |t| t.machine_stats().insts),
            );
            t
        });
        let grid: Vec<(usize, usize)> = (0..programs.len())
            .flat_map(|s| (0..points.len()).map(move |p| (s, p)))
            .collect();
        let out = tp.stage(grid.len(), jobs, origin, |k, acc| {
            let (s, p) = grid[k];
            let trace = traces[s].as_ref()?;
            let mut cfg = ReplayConfig::from_sim(&SimConfig::timed(mode));
            cfg.hierarchy = points[p].hierarchy;
            cfg.crack_cache = points[p].crack_cache;
            let t0 = Instant::now();
            let r = replay(&programs[s], trace, &cfg).ok();
            acc.close(Layer::Replay, t0, r.as_ref().map_or(0, |r| r.machine.insts));
            r.as_ref().map(debug_digest)
        });
        for (&(s, p), d) in grid.iter().zip(out) {
            let key = sweep_key(specs[s].name, mode, &points[p].label);
            tp.outputs.push((key, d));
        }
    }
    tp.wall_ns = ns_since(origin);
    tp
}
