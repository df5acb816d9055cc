//! Shared harness for the per-table / per-figure reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure from the
//! paper's evaluation (§9). This library provides the common machinery:
//! running the twenty-benchmark suite under a set of [`Mode`]s — fanned
//! out across a scoped thread pool, since the (benchmark × mode) grid is
//! embarrassingly parallel — formatting aligned tables, and computing the
//! paper's geometric-mean aggregates.
//!
//! Scale selection: pass `--scale test|small|ref` (default `small`).
//! Parallelism: pass `--jobs N` or set `WATCHDOG_JOBS=N` (default: all
//! available cores). A binary resolves both once in `main` through
//! [`args`], the strict flag scanner every front end shares, and hands
//! them down; no library function reads process arguments or environment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use watchdog_core::prelude::*;
use watchdog_workloads::juliet::SUITE_SIZE;
use watchdog_workloads::{all_benchmarks, benign_suite_prefix, juliet_suite_prefix, Cwe, Scale};

/// Results of running the full suite under several modes:
/// `results[benchmark][mode_label] -> RunReport`.
pub type SuiteResults = BTreeMap<String, BTreeMap<String, RunReport>>;

/// Runs one (benchmark, mode) cell of the suite grid. Failure messages
/// carry no bench/mode label here — [`run_grid`] is the single labelling
/// point for every cell failure.
fn run_cell(program: &watchdog_isa::Program, mode: Mode, timing: bool) -> RunReport {
    let cfg = if timing {
        SimConfig::timed(mode)
    } else {
        SimConfig::functional(mode)
    };
    Simulator::new(cfg)
        .run(program)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Runs all twenty benchmarks under each mode — timed, or functionally
/// only when `timing` is false (fast; no cycle numbers, but full
/// footprint and classification statistics) — across `jobs` worker
/// threads.
///
/// Each benchmark program is built once and shared read-only across the
/// modes (and worker threads) that simulate it. The (benchmark × mode)
/// grid is distributed over `jobs` scoped worker threads pulling from a
/// shared queue. Every cell is an independent deterministic simulation,
/// and the merged results land in the same [`BTreeMap`] ordering
/// regardless of completion order, so the output is identical to a serial
/// run (`jobs == 1` takes a strictly serial path).
///
/// # Panics
///
/// Panics if any cell fails — a simulator error or an unexpected
/// violation — with the benchmark/mode label of every failed cell in the
/// message, whichever thread it ran on.
pub fn run_suite_with_jobs(
    modes: &[Mode],
    scale: Scale,
    timing: bool,
    jobs: usize,
) -> SuiteResults {
    let (specs, programs) = suite_programs(scale, None);
    let labels: Vec<String> = modes.iter().map(Mode::label).collect();
    let cells = run_grid(&specs, &labels, None, jobs, |si, cols| {
        vec![run_cell(&programs[si], modes[cols.start], timing)]
    });
    let mut out = SuiteResults::new();
    for (k, report) in cells.into_iter().enumerate() {
        out.entry(specs[k / modes.len()].name.to_string())
            .or_default()
            .insert(labels[k % modes.len()].clone(), report);
    }
    out
}

/// Formats a caught panic payload (labels are added by the caller). Also
/// the campaign worker's formatter for a panicking cell.
pub fn payload_msg(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("non-string panic payload")
}

/// Runs `run(i)` for every `i` in `0..n` across `jobs` scoped worker
/// threads pulling from a shared atomic cursor (strictly serial when
/// `jobs <= 1`), returning the results **in index order** regardless of
/// scheduling.
///
/// This is the one worker pool every sharded workload in this crate rides
/// on: the (benchmark × mode) suite grid, the 291-case Juliet suite and
/// the LL$ sweeps. A panicking closure propagates out of the enclosing
/// [`std::thread::scope`]; callers that want labelled failures catch
/// panics inside `run` (see [`run_suite_with_jobs`]).
pub fn parallel_map<T, F>(n: usize, jobs: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = jobs.max(1).min(n.max(1));
    if jobs <= 1 {
        return (0..n).map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = run(i);
                done.lock().unwrap()[i] = Some(r);
            });
        }
    });
    done.into_inner()
        .unwrap()
        .into_iter()
        .map(|t| t.expect("every index completes"))
        .collect()
}

/// Executes the (benchmark × column) grid over [`parallel_map`] and
/// returns the reports in grid order (benchmark-major). A column is a
/// mode of the suite or a (mode, point) pair of a sweep; `columns` holds
/// their labels.
///
/// A unit of work is one cell, `run(si, ci..ci + 1)`, or — when `row`
/// labels one — a benchmark's whole row, `run(si, 0..columns.len())`
/// (a traced sweep records once and replays every point in one pass).
/// `run` returns one report per column of its range.
///
/// Unit panics — and unexpected violations — are caught and re-raised on
/// the caller's thread with a `[bench under label]` prefix: the unit's
/// label for a panic, the report's own column for a violation. A failure
/// deep inside a simulation is attributable no matter which thread ran
/// it. The first failure raises an abort flag: a unit claimed after that
/// is dropped without running, while units already running finish and
/// may add their own labelled failures. Which further failures appear
/// therefore depends on scheduling.
fn run_grid<F>(
    specs: &[watchdog_workloads::BenchSpec],
    columns: &[String],
    row: Option<&str>,
    jobs: usize,
    run: F,
) -> Vec<RunReport>
where
    F: Fn(usize, Range<usize>) -> Vec<RunReport> + Sync,
{
    let width = if row.is_some() {
        columns.len().max(1)
    } else {
        1
    };
    let per_bench = columns.len() / width;
    let abort = AtomicBool::new(false);
    let units = parallel_map(specs.len() * per_bench, jobs, |k| {
        if abort.load(Ordering::Relaxed) {
            return None;
        }
        let (si, first) = (k / per_bench, k % per_bench * width);
        let cols = first..first + width;
        let label = |column: &str, msg: &str| format!("[{} under {column}] {msg}", specs[si].name);
        let unit = panic::catch_unwind(AssertUnwindSafe(|| run(si, cols.clone())))
            .map_err(|payload| {
                let unit_label = row.unwrap_or(&columns[first]);
                label(unit_label, payload_msg(payload.as_ref()))
            })
            .and_then(|reports| {
                let violation = cols
                    .zip(&reports)
                    .find_map(|(ci, r)| Some((ci, r.violation.as_ref()?)));
                match violation {
                    Some((ci, v)) => {
                        Err(label(&columns[ci], &format!("unexpected violation {v:?}")))
                    }
                    None => Ok(reports),
                }
            });
        if unit.is_err() {
            abort.store(true, Ordering::Relaxed);
        }
        Some(unit)
    });

    let mut failures: Vec<String> = Vec::new();
    let mut done = Vec::with_capacity(specs.len() * columns.len());
    for unit in units.into_iter().flatten() {
        match unit {
            Ok(reports) => done.extend(reports),
            Err(f) => failures.push(f),
        }
    }
    if !failures.is_empty() {
        failures.sort(); // deterministic message regardless of scheduling
        panic!(
            "{} suite cell(s) failed:\n{}",
            failures.len(),
            failures.join("\n")
        );
    }
    done
}

/// One ablation point of a configuration sweep: a label plus the
/// timing-side knobs that vary between points (the memory hierarchy and
/// the crack-cache toggle; core parameters stay at Table 2).
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Human-readable point label (table column).
    pub label: String,
    /// Memory-hierarchy parameters for this point.
    pub hierarchy: watchdog_mem::HierarchyConfig,
    /// Whether the per-PC crack cache serves static expansions.
    pub crack_cache: bool,
}

impl SweepPoint {
    /// The Table 2 default configuration.
    pub fn table2(label: impl Into<String>) -> Self {
        SweepPoint {
            label: label.into(),
            hierarchy: watchdog_mem::HierarchyConfig::default(),
            crack_cache: true,
        }
    }

    /// Table 2 with the lock-location cache resized to `kb` kilobytes
    /// (the §4.2 / §9.3 LL$ sensitivity sweep).
    pub fn ll_size_kb(kb: u64) -> Self {
        Self::ll_geometry(kb, 8)
    }

    /// Table 2 with the lock-location cache set to `kb` kilobytes and
    /// `ways`-way associativity (the widened §4.2 size × associativity
    /// sweep; Table 2's LL$ is 4KB 8-way).
    pub fn ll_geometry(kb: u64, ways: u64) -> Self {
        let mut p = Self::table2(format!("{kb}KB/{ways}-way LL$"));
        p.hierarchy.ll = watchdog_mem::CacheConfig::new(kb * 1024, ways, 64);
        p
    }
}

/// Results of a configuration sweep: `results[benchmark][point index]`,
/// with points in the order they were passed.
pub type SweepResults = BTreeMap<String, Vec<RunReport>>;

/// Trace-driven configuration sweep: records each benchmark **once**
/// (a functional pass via [`watchdog_trace::record()`]), then replays every
/// [`SweepPoint`] from that trace in one [`watchdog_trace::replay_many`]
/// pass — each event decoded and each µop batch filled once, then drained
/// into one timing core per timing class (points whose LL$s hit and miss
/// identically share one). That turns O(points × full simulations) into
/// O(1 functional pass + 2 decodes + classes timing cores) per benchmark.
/// One [`parallel_map`] unit is one benchmark: record, then replay every
/// point.
///
/// One hierarchy per timing class is live for the whole pass, so a worker
/// holds at most `points.len()` hierarchies at once.
///
/// The output is byte-identical to [`run_sweep_resim_with_jobs`] — replay
/// is oracle-exact — which the workspace equivalence tests assert.
///
/// `limit` restricts the sweep to the first `limit` benchmarks (fast
/// tests); `None` runs all twenty.
///
/// # Panics
///
/// Before recording anything, with the `mode @ point` label if a point's
/// configuration is invalid. Otherwise with a benchmark/mode label if
/// recording or replay fails, or a benchmark/mode/point label if any
/// report carries an unexpected violation.
pub fn run_sweep_traced_with_jobs(
    mode: Mode,
    scale: Scale,
    points: &[SweepPoint],
    jobs: usize,
    limit: Option<usize>,
) -> SweepResults {
    let labels = sweep_labels(mode, points);
    // Start from the timing slice of the live configuration the resim
    // path uses, so the two sweeps can never drift apart on the core
    // parameters; the point only overrides what an ablation varies.
    let cfgs: Vec<_> = points
        .iter()
        .zip(&labels)
        .map(|(point, label)| {
            let mut cfg = watchdog_trace::ReplayConfig::from_sim(&SimConfig::timed(mode));
            cfg.hierarchy = point.hierarchy;
            cfg.crack_cache = point.crack_cache;
            if let Err(e) = cfg.validate() {
                panic!("[{label}] {e}");
            }
            cfg
        })
        .collect();
    let (specs, programs) = suite_programs(scale, limit);
    let max_insts = SimConfig::timed(mode).max_insts;
    sweep_grid(&specs, &labels, Some(&mode.label()), jobs, |si, _| {
        let trace = watchdog_trace::record(&programs[si], mode, max_insts)
            .unwrap_or_else(|e| panic!("trace recording failed: {e}"));
        watchdog_trace::replay_many(&programs[si], &trace, &cfgs)
            .unwrap_or_else(|e| panic!("trace replay failed: {e}"))
    })
}

/// The reference path [`run_sweep_traced_with_jobs`] is checked against: a
/// full functional+timed re-simulation per (benchmark × point) cell.
///
/// # Panics
///
/// With a benchmark/mode/point label if a simulation fails or raises an
/// unexpected violation.
pub fn run_sweep_resim_with_jobs(
    mode: Mode,
    scale: Scale,
    points: &[SweepPoint],
    jobs: usize,
    limit: Option<usize>,
) -> SweepResults {
    let (specs, programs) = suite_programs(scale, limit);
    let labels = sweep_labels(mode, points);
    sweep_grid(&specs, &labels, None, jobs, |si, pi| {
        let point = &points[pi.start];
        let mut cfg = SimConfig::timed(mode);
        cfg.hierarchy = point.hierarchy;
        cfg.crack_cache = point.crack_cache;
        vec![Simulator::new(cfg)
            .run(&programs[si])
            .unwrap_or_else(|e| panic!("simulation failed: {e}"))]
    })
}

/// The `mode @ point` column labels of a sweep.
fn sweep_labels(mode: Mode, points: &[SweepPoint]) -> Vec<String> {
    points
        .iter()
        .map(|p| format!("{} @ {}", mode.label(), p.label))
        .collect()
}

/// The first `limit` suite benchmarks (all twenty for `None`), each
/// program built once at `scale`.
fn suite_programs(
    scale: Scale,
    limit: Option<usize>,
) -> (
    Vec<watchdog_workloads::BenchSpec>,
    Vec<watchdog_isa::Program>,
) {
    let mut specs = all_benchmarks();
    specs.truncate(limit.unwrap_or(usize::MAX));
    let programs = specs.iter().map(|s| s.build(scale)).collect();
    (specs, programs)
}

/// Runs a sweep's (benchmark × point) grid on [`run_grid`] (`row`
/// and `run` as there; `labels` from [`sweep_labels`]) and merges the
/// reports, in point order, into [`SweepResults`].
fn sweep_grid<F>(
    specs: &[watchdog_workloads::BenchSpec],
    labels: &[String],
    row: Option<&str>,
    jobs: usize,
    run: F,
) -> SweepResults
where
    F: Fn(usize, Range<usize>) -> Vec<RunReport> + Sync,
{
    let mut out = SweepResults::new();
    for (k, report) in run_grid(specs, labels, row, jobs, run)
        .into_iter()
        .enumerate()
    {
        out.entry(specs[k / labels.len()].name.to_string())
            .or_default()
            .push(report);
    }
    out
}

/// Per-case result of the sharded Juliet evaluation (§9.2): the bad case
/// and its benign twin under the checked mode, plus the location-based
/// contrast run for CWE-416 cases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JulietOutcome {
    /// Case name (the bad case; the twin shares it modulo the suffix).
    pub name: String,
    /// CWE class.
    pub cwe: Cwe,
    /// Expected violation kind of the bad case.
    pub expected: Option<ViolationKind>,
    /// What the checked mode detected on the bad case.
    pub detected: Option<ViolationKind>,
    /// What the checked mode detected on the benign twin (must be `None`).
    pub benign: Option<ViolationKind>,
    /// Location-based checker's verdict on the bad case (`None` for
    /// CWE-562 cases, which are heap-free and not run).
    pub location: Option<Option<ViolationKind>>,
}

/// Aggregated counts over a slice of [`JulietOutcome`]s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JulietSummary {
    /// Cases evaluated.
    pub cases: usize,
    /// Bad cases detected with the expected kind.
    pub detected: usize,
    /// Bad cases detected with a different kind.
    pub wrong_kind: usize,
    /// Bad cases missed entirely.
    pub missed: usize,
    /// Benign twins that (wrongly) raised a violation.
    pub false_positives: usize,
    /// CWE-416 cases the location-based checker detected.
    pub loc_detected: usize,
    /// CWE-416 cases the location-based checker was run on.
    pub loc_cases: usize,
}

/// Runs the Juliet-style suite sharded across [`parallel_map`] workers:
/// each case index is one unit of work (bad case + benign twin under
/// `mode`, plus the §2.1 location-based contrast on CWE-416 cases).
/// Results come back in suite order, so the output is byte-identical to a
/// serial run for any `jobs` (asserted in `tests/determinism.rs`).
///
/// `limit` restricts evaluation to the first `limit` cases (used by fast
/// determinism tests); `None` runs all 291.
///
/// # Panics
///
/// Panics with the case name if a simulation fails outright.
pub fn run_juliet_with_jobs(mode: Mode, jobs: usize, limit: Option<usize>) -> Vec<JulietOutcome> {
    // Construction honours the limit too: a prefix run never pays for
    // building the remaining programs.
    let n = limit.unwrap_or(SUITE_SIZE).min(SUITE_SIZE);
    let bad = juliet_suite_prefix(n);
    let good = benign_suite_prefix(n);
    let sim = Simulator::new(SimConfig::functional(mode));
    let loc = Simulator::new(SimConfig::functional(Mode::LocationBased));
    parallel_map(n, jobs, |i| {
        let (b, g) = (&bad[i], &good[i]);
        let run = |sim: &Simulator, p: &watchdog_isa::Program| {
            sim.run(p)
                .unwrap_or_else(|e| panic!("{}: {e}", p.name()))
                .violation_kind()
        };
        JulietOutcome {
            name: b.name.clone(),
            cwe: b.cwe,
            expected: b.expected,
            detected: run(&sim, &b.program),
            benign: run(&sim, &g.program),
            location: (b.cwe == Cwe::Cwe416).then(|| run(&loc, &b.program)),
        }
    })
}

/// Aggregates [`JulietOutcome`]s into the counts the §9.2 report prints.
pub fn summarize_juliet(outcomes: &[JulietOutcome]) -> JulietSummary {
    let mut s = JulietSummary {
        cases: outcomes.len(),
        ..JulietSummary::default()
    };
    for o in outcomes {
        match o.detected {
            Some(k) if Some(k) == o.expected => s.detected += 1,
            Some(_) => s.wrong_kind += 1,
            None => s.missed += 1,
        }
        if o.benign.is_some() {
            s.false_positives += 1;
        }
        if let Some(l) = o.location {
            s.loc_cases += 1;
            if l.is_some() {
                s.loc_detected += 1;
            }
        }
    }
    s
}

/// Benchmark names in the paper's figure order (the suite map is sorted
/// alphabetically; figures should not be).
pub fn figure_order() -> Vec<String> {
    all_benchmarks()
        .iter()
        .map(|b| b.name.to_string())
        .collect()
}

/// Prints an aligned table: `name` column plus one column per header.
pub fn print_table(title: &str, headers: &[&str], rows: &[(String, Vec<String>)]) {
    println!("\n== {title} ==");
    let name_w = rows
        .iter()
        .map(|(n, _)| n.len())
        .chain(std::iter::once("bench".len()))
        .max()
        .unwrap_or(8);
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for (_, vals) in rows {
        for (i, v) in vals.iter().enumerate() {
            widths[i] = widths[i].max(v.len());
        }
    }
    print!("{:name_w$}", "bench");
    for (h, w) in headers.iter().zip(&widths) {
        print!("  {h:>w$}");
    }
    println!();
    for (name, vals) in rows {
        print!("{name:name_w$}");
        for (v, w) in vals.iter().zip(&widths) {
            print!("  {v:>w$}");
        }
        println!();
    }
}

/// Formats a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Geometric mean of overhead fractions (re-exported convenience).
pub fn geomean(xs: &[f64]) -> f64 {
    watchdog_core::report::geomean_overhead(xs)
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    watchdog_core::report::mean(xs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_order_is_the_paper_order() {
        let order = figure_order();
        assert_eq!(order.len(), 20);
        assert_eq!(order[0], "lbm");
        assert_eq!(order[19], "perl");
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(0.153), "15.3%");
        assert_eq!(pct(0.0), "0.0%");
    }

    #[test]
    fn suite_functional_smoke() {
        let r = run_suite_with_jobs(&[Mode::Baseline], Scale::Test, false, 2);
        assert_eq!(r.len(), 20);
        for (name, modes) in &r {
            assert!(modes.contains_key("baseline"), "{name} missing baseline");
        }
    }

    fn argv(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    /// A suite binary's command line, as `args::suite_flags` scans it.
    fn suite(xs: &[&str]) -> Result<args::Args, String> {
        args::parse("fig05", 0, &[args::SCALE, args::JOBS], &argv(xs))
    }

    fn scale(xs: &[&str]) -> Result<Scale, String> {
        Ok(suite(xs)?.get("--scale")?.unwrap_or(Scale::Small))
    }

    fn jobs(xs: &[&str], env: Option<&str>) -> Result<usize, String> {
        suite(xs)?.jobs(env.map(std::ffi::OsStr::new))
    }

    #[test]
    fn parse_scale_accepts_valid_values() {
        assert_eq!(scale(&[]), Ok(Scale::Small));
        assert_eq!(scale(&["--scale", "test"]), Ok(Scale::Test));
        assert_eq!(scale(&["--scale", "small"]), Ok(Scale::Small));
        assert_eq!(scale(&["--scale", "ref"]), Ok(Scale::Reference));
        assert_eq!(scale(&["--scale", "reference"]), Ok(Scale::Reference));
    }

    #[test]
    fn parse_scale_rejects_unknown_values_with_the_valid_list() {
        let e = scale(&["--scale", "huge"]).unwrap_err();
        assert!(e.contains("huge") && e.contains("test, small, ref"), "{e}");
        assert!(e.contains("--scale"), "{e}");
        let e = scale(&["--scale"]).unwrap_err();
        assert!(e.contains("requires a value"), "{e}");
        let e = "huge".parse::<Scale>().unwrap_err();
        assert_eq!(e, "valid values are test, small, ref (or reference)");
    }

    #[test]
    fn parse_scale_ignores_flags_after_double_dash() {
        // `--scale` after `--` belongs to someone else (e.g. a test
        // harness): the default applies and no error is raised.
        assert_eq!(scale(&["--", "--scale", "bogus"]), Ok(Scale::Small));
        assert_eq!(
            scale(&["--scale", "test", "--", "--scale", "bogus"]),
            Ok(Scale::Test)
        );
    }

    #[test]
    fn parse_jobs_precedence_and_errors() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(jobs(&[], None), Ok(cores));
        assert_eq!(jobs(&["--jobs", "4"], None), Ok(4));
        // The flag beats the environment.
        assert_eq!(jobs(&["--jobs", "2"], Some("8")), Ok(2));
        assert_eq!(jobs(&[], Some("8")), Ok(8));
        assert_eq!(jobs(&["--", "--jobs", "9"], None), Ok(cores));
        for bad in [&["--jobs", "0"][..], &["--jobs", "many"], &["--jobs"]] {
            let e = jobs(bad, None).unwrap_err();
            assert!(e.contains("--jobs") && e.contains("positive"), "{e}");
        }
        for env in ["-3", "0", ""] {
            let e = jobs(&[], Some(env)).unwrap_err();
            assert!(e.contains("WATCHDOG_JOBS"), "{e}");
        }
    }

    #[test]
    fn parse_u64_flag_parses_and_rejects() {
        let flags = [args::Flag::value("--seeds", "an unsigned integer")];
        let seeds = |xs: &[&str]| args::parse("fuzz", 0, &flags, &argv(xs))?.get::<u64>("--seeds");
        assert_eq!(seeds(&[]), Ok(None));
        assert_eq!(seeds(&["--seeds", "250"]), Ok(Some(250)));
        let e = seeds(&["--seeds", "many"]).unwrap_err();
        assert!(e.contains("--seeds requires an unsigned integer"), "{e}");
        assert!(e.contains("\"many\""), "{e}");
        assert!(seeds(&["--seeds"]).is_err());
        assert!(seeds(&["--seeds", "-1"]).is_err());
        assert_eq!(seeds(&["--", "--seeds", "9"]), Ok(None));
    }

    #[test]
    fn parallel_map_preserves_index_order() {
        for jobs in [1, 3, 16] {
            let r = parallel_map(40, jobs, |i| i * i);
            assert_eq!(r, (0..40).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(parallel_map(0, 4, |i| i).is_empty());
    }

    #[test]
    fn juliet_shard_detects_everything_on_a_slice() {
        let outcomes = run_juliet_with_jobs(Mode::watchdog_conservative(), 4, Some(42));
        let s = summarize_juliet(&outcomes);
        assert_eq!(s.cases, 42);
        assert_eq!(s.detected, 42, "every bad case detected: {s:?}");
        assert_eq!(s.false_positives, 0, "no benign twin trips: {s:?}");
        assert!(s.loc_cases > 0);
        assert!(
            s.loc_detected < s.loc_cases,
            "location-based checking must miss the reallocation cases: {s:?}"
        );
    }

    #[test]
    fn traced_sweep_is_byte_identical_to_resim() {
        // The trace acceptance anchor at harness level: one functional
        // pass + N replays must produce the exact ablation table a full
        // re-simulation produces, for any worker count.
        let mut uncached = SweepPoint::table2("uncached crack$");
        uncached.crack_cache = false;
        let points = [
            SweepPoint::table2("table2"),
            SweepPoint::ll_size_kb(1),
            uncached,
        ];
        let mode = Mode::watchdog_conservative();
        let traced = run_sweep_traced_with_jobs(mode, Scale::Test, &points, 4, Some(3));
        let resim = run_sweep_resim_with_jobs(mode, Scale::Test, &points, 2, Some(3));
        assert_eq!(
            format!("{traced:?}"),
            format!("{resim:?}"),
            "trace-driven sweep diverges from full re-simulation"
        );
        let serial = run_sweep_traced_with_jobs(mode, Scale::Test, &points, 1, Some(3));
        assert_eq!(
            format!("{traced:?}"),
            format!("{serial:?}"),
            "sweep results depend on worker count"
        );
        assert_eq!(traced.len(), 3);
        for (name, reports) in &traced {
            assert_eq!(reports.len(), points.len(), "{name} missing points");
        }
    }

    #[test]
    fn oversubscribed_jobs_are_clamped_to_the_grid() {
        // More workers than cells must not hang or drop results.
        let r = run_suite_with_jobs(&[Mode::Baseline], Scale::Test, false, 1000);
        assert_eq!(r.len(), 20);
    }

    #[test]
    fn worker_panics_carry_the_bench_and_mode_label() {
        let specs = all_benchmarks();
        let modes = [Mode::Baseline];
        let programs: Vec<_> = specs.iter().map(|s| s.build(Scale::Test)).collect();
        let got = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_grid(&specs, &["baseline".into()], None, 4, |si, mi| {
                if specs[si].name == "mcf" {
                    panic!("synthetic cell failure");
                }
                vec![run_cell(&programs[si], modes[mi.start], false)]
            })
        }))
        .expect_err("the grid must fail");
        let msg = got
            .downcast_ref::<String>()
            .expect("labelled failures are formatted strings");
        assert!(
            msg.contains("[mcf under baseline] synthetic cell failure"),
            "label lost: {msg}"
        );
        // The other 19 cells must not mask or reorder the failure report.
        assert!(msg.contains("1 suite cell(s) failed"), "{msg}");

        // The strictly serial path labels failures identically.
        let got = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_grid(&specs, &["baseline".into()], None, 1, |si, _| {
                panic!("early failure in {}", specs[si].name)
            })
        }))
        .expect_err("the serial grid must fail");
        let msg = got.downcast_ref::<String>().unwrap();
        assert!(
            msg.contains("[lbm under baseline] early failure in lbm"),
            "serial label lost: {msg}"
        );
    }

    #[test]
    fn row_units_label_panics_by_row_and_violations_by_column() {
        // One failing row per grid: the first failure drops every unit
        // not yet started, so a second failing row could go unreported.
        let specs = all_benchmarks();
        let programs: Vec<_> = specs.iter().map(|s| s.build(Scale::Test)).collect();
        let columns: Vec<String> = ["m @ a", "m @ b"].map(String::from).into();
        let grid_failure = |run: &(dyn Fn(usize, Range<usize>) -> Vec<RunReport> + Sync)| {
            let got = std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_grid(&specs, &columns, Some("m"), 2, |si, cols| {
                    assert_eq!(cols, 0..2, "a row unit covers every column");
                    run(si, cols)
                })
            }))
            .expect_err("the grid must fail");
            got.downcast_ref::<String>().unwrap().clone()
        };

        let msg = grid_failure(&|si, _| match specs[si].name {
            "mcf" => panic!("synthetic row failure"),
            _ => Vec::new(),
        });
        assert!(msg.contains("1 suite cell(s) failed"), "{msg}");
        assert!(msg.contains("[mcf under m] synthetic row failure"), "{msg}");

        let msg = grid_failure(&|si, cols| match specs[si].name {
            "lbm" => {
                let mut reports: Vec<RunReport> = cols
                    .map(|_| run_cell(&programs[si], Mode::Baseline, false))
                    .collect();
                reports[1].violation = Some(Violation {
                    kind: ViolationKind::UseAfterFree,
                    pc_index: 0,
                    addr: 0,
                });
                reports
            }
            _ => Vec::new(),
        });
        assert!(msg.contains("1 suite cell(s) failed"), "{msg}");
        assert!(
            msg.contains("[lbm under m @ b] unexpected violation"),
            "{msg}"
        );
    }

    #[test]
    #[should_panic(
        expected = "[watchdog/conservative @ 256B LL$] invalid configuration: config field `ll.size`"
    )]
    fn traced_sweep_rejects_a_bad_point_before_recording() {
        let mut bad = SweepPoint::table2("256B LL$");
        bad.hierarchy.ll = watchdog_mem::CacheConfig {
            size: 256,
            ways: 8,
            block: 64,
        };
        let points = [SweepPoint::ll_size_kb(1), bad];
        // No benchmark at all: only the up-front check can fail.
        run_sweep_traced_with_jobs(
            Mode::watchdog_conservative(),
            Scale::Test,
            &points,
            2,
            Some(0),
        );
    }
}
pub mod args;
pub mod figs;
pub mod perf;
pub mod perfdiff;
