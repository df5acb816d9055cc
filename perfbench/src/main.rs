//! `perfbench` — the Watchdog simulator's end-to-end and per-layer
//! benchmark.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1
//! perfbench summarize DIR
//! perfbench compare PARENT_DIR CHANGE_DIR
//! perfbench bless
//! ```
//!
//! `--trace 0` repeats the workload's pipeline for `S` seconds with no
//! tracing and reports the end-to-end metrics (medians over passes).
//! `--trace 1` runs one untraced and one traced pass, then the layer
//! probes, and reports the per-layer metrics. Either way the outputs are
//! checked against the committed digests in `golden/`, a result file
//! with the host fingerprint is written under the build directory, and
//! the last line of standard output is the JSON result. `perfbench
//! worker` is the campaign worker the traced run's campaign probe
//! re-executes.

mod campaign;
mod golden;
mod host;
mod probes;
mod replica;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use watchdog_telemetry::JsonValue;

use crate::campaign::CampaignFiles;
use crate::golden::Golden;
use crate::probes::{Metrics, ProbeInputs};
use crate::spans::{ns_since, Layer};
use crate::workloads::{Pass, PassStats, TracedPass, MODE_GROUPS};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (rates).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The workloads, by name.
pub const WORKLOADS: [&str; 2] = ["paper-regen", "ll-sweep"];

/// End-to-end metrics: `(name, unit, better, bound)`, reported on every
/// workload by `--trace 0`. The bound is the share of the parent's median
/// by which the metric may get worse before a change counts as a
/// regression.
pub const END_TO_END: [(&str, &str, Better, f64); 4] = [
    ("wall_s", "s", Better::Lower, 0.24),
    ("setup_s", "s", Better::Lower, 0.25),
    ("cells_per_s", "1/s", Better::Higher, 0.24),
    ("minsts_per_s", "Minst/s", Better::Higher, 0.24),
];

/// Per-layer metrics: `(name, unit, better)`, reported on every workload
/// by `--trace 1`.
pub const PER_LAYER: [(&str, &str, Better); 45] = [
    ("workloads.build_ms", "ms", Better::Lower),
    ("gen.generate_us", "us", Better::Lower),
    ("gen.check_us", "us", Better::Lower),
    ("gen.seeds", "count", Better::Lower),
    ("core.functional_ns_per_inst.baseline", "ns", Better::Lower),
    ("core.functional_ns_per_inst.cons", "ns", Better::Lower),
    ("core.functional_ns_per_inst.isa", "ns", Better::Lower),
    ("core.functional_ns_per_inst.bounds", "ns", Better::Lower),
    ("core.profile_ns_per_inst", "ns", Better::Lower),
    ("core.profile_share", "ratio", Better::Lower),
    ("core.fill_ns_per_inst.baseline", "ns", Better::Lower),
    ("core.fill_ns_per_inst.cons", "ns", Better::Lower),
    ("core.fill_ns_per_inst.isa", "ns", Better::Lower),
    ("core.fill_ns_per_inst.bounds", "ns", Better::Lower),
    ("core.insts", "count", Better::Lower),
    ("isa.crack_fill_ns_per_inst", "ns", Better::Lower),
    ("isa.crack_hit_rate", "ratio", Better::Higher),
    ("pipeline.core_new_us", "us", Better::Lower),
    ("pipeline.consume_ns_per_uop.baseline", "ns", Better::Lower),
    ("pipeline.consume_ns_per_uop.cons", "ns", Better::Lower),
    ("pipeline.consume_ns_per_uop.isa", "ns", Better::Lower),
    ("pipeline.consume_ns_per_uop.bounds", "ns", Better::Lower),
    ("pipeline.uops_per_inst", "ratio", Better::Lower),
    ("pipeline.uops", "count", Better::Lower),
    ("mem.guestmem_ns_per_access", "ns", Better::Lower),
    ("mem.guestmem_accesses", "count", Better::Lower),
    ("mem.shadow_ns_per_op", "ns", Better::Lower),
    ("mem.shadow_ops", "count", Better::Lower),
    ("mem.hierarchy_ns_per_access", "ns", Better::Lower),
    ("mem.hierarchy_accesses", "count", Better::Lower),
    ("mem.ll_miss_rate", "ratio", Better::Lower),
    ("trace.record_ns_per_inst", "ns", Better::Lower),
    ("trace.replay_ns_per_inst", "ns", Better::Lower),
    ("trace.bytes_per_inst", "B", Better::Lower),
    ("trace.bytes", "B", Better::Lower),
    ("campaign.spawn_ms", "ms", Better::Lower),
    ("campaign.overhead_us_per_cell", "us", Better::Lower),
    ("campaign.worker_busy_frac", "ratio", Better::Higher),
    ("campaign.cells", "count", Better::Lower),
    ("bench.parallel_efficiency", "ratio", Better::Higher),
    ("bench.cells", "count", Better::Lower),
    ("bench.distinct_cells", "count", Better::Lower),
    ("bench.sim_insts", "count", Better::Lower),
    ("bench.trace_overhead_s", "s", Better::Lower),
    ("bench.replica_cells", "count", Better::Lower),
];

/// Seconds of repeated set-ups before the measured passes, and again
/// after them (`setup_s` is the median of all of them). One set-up takes
/// about a millisecond, so a short window would catch one moment of the
/// host's load.
const SETUP_SECONDS: f64 = 2.0;
/// The layer probes run on every this-many-th kernel, to keep a traced
/// run short.
const PROBE_STRIDE: usize = 4;
/// Seeds of the generator probe.
const PROBE_SEEDS: u64 = 64;
/// Cells of the campaign probe.
const PROBE_CAMPAIGN_CELLS: u64 = 128;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("worker") => watchdog_campaign::worker_entry(),
        Some("bless") => golden::bless_main(),
        Some("summarize") => stats::summarize_main(&args[1..]),
        Some("compare") => stats::compare_main(&args[1..]),
        _ => match Opts::parse(&args) {
            Ok(opts) => run_main(&opts),
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!(
                    "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1",
                    WORKLOADS.join("|")
                );
                2
            }
        },
    };
    std::process::exit(code);
}

/// Benchmark-run options.
#[derive(Debug, Clone)]
struct Opts {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} requires a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        *WORKLOADS
                            .iter()
                            .find(|w| *w == value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    );
                }
                "--seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| "--seed takes an unsigned integer")?,
                    )
                }
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|_| "--seconds takes a number")?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    });
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(Opts {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(0),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// Where result files and temporary files go: under the build directory.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    target.join("perfbench-results")
}

/// What a run measured.
struct RunOut {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    /// Extra result-file fields.
    detail: Vec<(String, JsonValue)>,
}

fn run_main(opts: &Opts) -> i32 {
    let dir = out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: cannot create {}: {e}", dir.display());
        return 1;
    }
    let out = if opts.trace {
        let exe = match std::env::current_exe() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: cannot locate this executable: {e}");
                return 1;
            }
        };
        let tag = format!("{}-{}", opts.workload, std::process::id());
        let files = CampaignFiles {
            exe,
            ledger: dir.join(format!("{tag}.wdlg")),
            events: dir.join(format!("{tag}.events.jsonl")),
        };
        traced(opts, &files)
    } else {
        measured(opts)
    };

    let units: Vec<(&str, &str)> = if opts.trace {
        PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect()
    } else {
        END_TO_END.iter().map(|(n, u, _, _)| (*n, *u)).collect()
    };
    let metrics = JsonValue::Obj(
        units
            .iter()
            .map(|(name, unit)| {
                let value = out
                    .metrics
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(f64::NAN, |(_, v)| *v);
                (
                    (*name).to_string(),
                    JsonValue::Obj(vec![
                        ("value".into(), JsonValue::Num(value)),
                        ("unit".into(), JsonValue::str(*unit)),
                    ]),
                )
            })
            .collect(),
    );
    let correct = out.failed == 0 && out.attempted > 0;
    let result = JsonValue::Obj(vec![
        ("correct".into(), JsonValue::Bool(correct)),
        ("attempted".into(), JsonValue::Int(out.attempted)),
        ("failed".into(), JsonValue::Int(out.failed)),
        ("metrics".into(), metrics.clone()),
    ]);

    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64);
    let mut file = vec![
        ("schema".into(), JsonValue::str(stats::SCHEMA)),
        ("workload".into(), JsonValue::str(opts.workload)),
        ("seed".into(), JsonValue::Int(opts.seed)),
        ("seconds".into(), JsonValue::Num(opts.seconds)),
        ("trace".into(), JsonValue::Bool(opts.trace)),
        ("unix_ms".into(), JsonValue::Int(unix_ms)),
        ("host".into(), host::fingerprint()),
        ("correct".into(), JsonValue::Bool(correct)),
        ("attempted".into(), JsonValue::Int(out.attempted)),
        ("failed".into(), JsonValue::Int(out.failed)),
        ("metrics".into(), metrics),
    ];
    file.extend(out.detail);
    let path = dir.join(format!(
        "{}-seed{}-trace{}-{unix_ms}.json",
        opts.workload,
        opts.seed,
        u8::from(opts.trace)
    ));
    if let Err(e) = std::fs::write(&path, JsonValue::Obj(file).render_pretty()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    println!("result file: {}", path.display());
    println!("{}", result.render());
    0
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The workload's set-up (building its input programs), untraced pass
/// and traced pass.
struct Pipeline {
    golden: Golden,
    setup: fn() -> usize,
    pass: fn(usize, &Golden) -> Pass,
    traced: fn(usize) -> TracedPass,
}

fn pipeline(workload: &str) -> Pipeline {
    if workload == "paper-regen" {
        Pipeline {
            golden: Golden::paper(),
            setup: workloads::build_paper_inputs,
            pass: workloads::paper_pass,
            traced: workloads::paper_traced,
        }
    } else {
        Pipeline {
            golden: Golden::sweep(),
            setup: workloads::build_sweep_inputs,
            pass: workloads::sweep_pass,
            traced: workloads::sweep_traced,
        }
    }
}

// ---------------------------------------------------------------------
// --trace 0: end-to-end metrics
// ---------------------------------------------------------------------

/// Repeats `setup` for `seconds`, appending each set-up's seconds.
fn sample_setup(setup: fn() -> usize, seconds: f64, out: &mut Vec<f64>) {
    let t = Instant::now();
    while t.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        std::hint::black_box(setup());
        out.push(secs(ns_since(t0)));
    }
}

/// The `--trace 0` run: set up repeatedly, repeat the untraced pipeline
/// until `--seconds` have passed, set up repeatedly again; every metric is
/// a median.
fn measured(opts: &Opts) -> RunOut {
    let jobs = host::jobs();
    let p = pipeline(opts.workload);
    let mut setups = Vec::new();
    sample_setup(p.setup, SETUP_SECONDS, &mut setups);
    let start = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut passes: Vec<PassStats> = Vec::new();
    let mut peaks = Vec::new();
    while passes.is_empty() || start.elapsed() < budget {
        host::reset_peak_rss();
        passes.push((p.pass)(jobs, &p.golden).stats);
        peaks.push(host::peak_rss_mb().unwrap_or(f64::NAN));
    }
    sample_setup(p.setup, SETUP_SECONDS, &mut setups);
    let med =
        |f: &dyn Fn(&PassStats) -> f64| stats::median(&passes.iter().map(f).collect::<Vec<_>>());
    let metrics: Metrics = vec![
        ("wall_s".into(), med(&|p| secs(p.wall_ns))),
        ("setup_s".into(), stats::median(&setups)),
        ("cells_per_s".into(), med(&PassStats::cells_per_s)),
        ("minsts_per_s".into(), med(&PassStats::minsts_per_s)),
    ];
    let peak_rss_mb = stats::median(&peaks);
    let last = passes.last().expect("at least one pass").clone();
    println!(
        "{:<12} passes={} wall_s={:.4} setup_s={:.6} cells_per_s={:.2} minsts_per_s={:.3} peak_rss_mb={peak_rss_mb:.1}",
        opts.workload,
        passes.len(),
        metrics[0].1,
        metrics[1].1,
        metrics[2].1,
        metrics[3].1,
    );
    println!(
        "{:<12} work per pass: cells={} distinct={} sim_insts={} uops={}",
        "", last.cells, last.distinct, last.sim_insts, last.uops
    );
    let pass_json = passes
        .iter()
        .zip(&peaks)
        .map(|(p, &peak)| {
            JsonValue::Obj(vec![
                ("wall_s".into(), JsonValue::Num(secs(p.wall_ns))),
                ("cells_per_s".into(), JsonValue::Num(p.cells_per_s())),
                ("minsts_per_s".into(), JsonValue::Num(p.minsts_per_s())),
                ("peak_rss_mb".into(), JsonValue::Num(peak)),
                ("failed".into(), JsonValue::Int(p.failed)),
            ])
        })
        .collect();
    let (q1, q2, q3) = stats::quartiles(&setups);
    RunOut {
        attempted: passes.iter().map(|p| p.cells).sum(),
        failed: passes.iter().map(|p| p.failed).sum(),
        metrics,
        detail: vec![
            ("counters".into(), counters_json(&last)),
            ("passes".into(), JsonValue::Arr(pass_json)),
            ("peak_rss_mb".into(), JsonValue::Num(peak_rss_mb)),
            (
                "setup_s_quartiles".into(),
                JsonValue::Arr([q1, q2, q3].map(JsonValue::Num).to_vec()),
            ),
            ("setups".into(), JsonValue::Int(setups.len() as u64)),
        ],
    }
}

/// The deterministic work counters of one pass.
fn counters_json(p: &PassStats) -> JsonValue {
    JsonValue::Obj(vec![
        ("cells".into(), JsonValue::Int(p.cells)),
        ("distinct_cells".into(), JsonValue::Int(p.distinct)),
        ("sim_insts".into(), JsonValue::Int(p.sim_insts)),
        ("uops".into(), JsonValue::Int(p.uops)),
    ])
}

// ---------------------------------------------------------------------
// --trace 1: per-layer metrics
// ---------------------------------------------------------------------

/// The `--trace 1` run: an untraced reference pass, a traced pass, the
/// layer probes and the campaign probe.
fn traced(opts: &Opts, files: &CampaignFiles) -> RunOut {
    let jobs = host::jobs();
    let p = pipeline(opts.workload);
    let reference = (p.pass)(jobs, &p.golden);
    let tp = (p.traced)(jobs);
    let outputs_failed = tp
        .outputs
        .iter()
        .filter(|(k, d)| !d.is_some_and(|d| p.golden.matches(k, d)))
        .count() as u64;
    let replica_failed = tp
        .replica
        .iter()
        .filter(|(k, c)| c.is_none() || reference.cycles.get(k) != c.as_ref())
        .count() as u64;

    let programs: Vec<_> = workloads::build_benchmarks()
        .into_iter()
        .step_by(PROBE_STRIDE)
        .collect();
    let geometries: Vec<_> = if opts.workload == "ll-sweep" {
        workloads::ll_points().iter().map(|p| p.hierarchy).collect()
    } else {
        Vec::new()
    };
    let probe = probes::run(&ProbeInputs {
        programs: &programs,
        extra_hierarchies: &geometries,
        gen_seeds: opts.seed..opts.seed + PROBE_SEEDS,
    });
    let campaign = campaign::probe(files, opts.seed, PROBE_CAMPAIGN_CELLS, jobs);

    let r = &reference.stats;
    let mut m = probe.metrics;
    m.push((
        "workloads.build_ms".into(),
        tp.extra.ns_of(Layer::Build) as f64 / 1e6,
    ));
    m.extend(campaign.metrics.iter().cloned());
    let cell_ns: u64 = tp.spans.iter().map(|s| s.end_ns - s.start_ns).sum();
    let overhead_s = secs(tp.wall_ns) - secs(r.wall_ns);
    m.extend([
        (
            "bench.parallel_efficiency".into(),
            cell_ns as f64 / (tp.wall_ns as f64 * jobs as f64).max(1.0),
        ),
        ("bench.cells".into(), r.cells as f64),
        ("bench.distinct_cells".into(), r.distinct as f64),
        ("bench.sim_insts".into(), r.sim_insts as f64),
        ("bench.trace_overhead_s".into(), overhead_s),
        (
            "bench.replica_cells".into(),
            (tp.replica.len() as u64 + probe.replica_cells) as f64,
        ),
    ]);

    let rows = spans::self_time_rows(&tp.spans, &tp.extra, tp.wall_ns, jobs);
    println!(
        "{} traced pass: wall {:.3} s (untraced {:.3} s, tracing overhead {overhead_s:+.3} s), {jobs} thread(s)",
        opts.workload,
        secs(tp.wall_ns),
        secs(r.wall_ns),
    );
    println!("  {:<28} {:>10}", "layer (self time)", "share");
    for (name, share) in &rows {
        println!("  {name:<28} {:>9.1}%", share * 100.0);
    }
    let by_mode: Vec<(String, JsonValue)> = if tp.replica.is_empty() {
        Vec::new()
    } else {
        MODE_GROUPS
            .iter()
            .zip(tp.by_mode)
            .map(|(g, (insts, ns))| {
                let v = workloads::rate(insts, ns);
                println!("  minsts_per_s.{g:<26} {v:.4} (traced timed cells, per thread)");
                (format!("minsts_per_s.{g}"), JsonValue::Num(v))
            })
            .collect()
    };
    for (name, _, _) in PER_LAYER {
        if let Some((_, v)) = m.iter().find(|(n, _)| n == name) {
            println!("  {name:<40} {v:.4}");
        }
    }

    let attempted = r.cells
        + tp.outputs.len() as u64
        + tp.replica.len() as u64
        + probe.attempted
        + campaign.cells;
    let failed = r.failed + outputs_failed + replica_failed + probe.failed + campaign.failed;
    let shares = JsonValue::Obj(
        rows.into_iter()
            .map(|(n, s)| (n, JsonValue::Num(s)))
            .collect(),
    );
    RunOut {
        metrics: m,
        attempted,
        failed,
        detail: vec![
            ("counters".into(), counters_json(r)),
            ("self_time_shares".into(), shares),
            ("by_mode".into(), JsonValue::Obj(by_mode)),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Acc;
    use watchdog_core::prelude::*;
    use watchdog_workloads::Scale;

    fn generated(seeds: std::ops::Range<u64>) -> Vec<watchdog_isa::Program> {
        seeds
            .map(|s| watchdog_gen::generate(s, &watchdog_gen::GenConfig::default()).program)
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let json = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String, String)> {
            json.get(key)
                .and_then(JsonValue::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(JsonValue::as_str)
                            .unwrap_or("")
                            .to_string()
                    };
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|(n, u, b, _)| (n.to_string(), u.to_string(), b.as_str().to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layer: Vec<_> = PER_LAYER
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.as_str().to_string()))
            .collect();
        assert_eq!(names("per_layer"), layer);
        let bounds: Vec<f64> = json
            .get("end_to_end")
            .and_then(JsonValue::as_array)
            .expect("metric list")
            .iter()
            .map(|m| m.get("bound").and_then(JsonValue::as_f64).expect("bound"))
            .collect();
        assert_eq!(bounds, END_TO_END.map(|(_, _, _, b)| b).to_vec());
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("workload list")
            .iter()
            .filter_map(|w| w.get("name").and_then(JsonValue::as_str))
            .collect();
        assert!(workloads.len() >= 2, "{workloads:?}");
        assert!(
            workloads.iter().all(|w| WORKLOADS.contains(w)),
            "{workloads:?}"
        );
    }

    #[test]
    fn probes_emit_every_layer_metric_but_the_pass_level_ones() {
        let programs = generated(0..2);
        let out = probes::run(&ProbeInputs {
            programs: &programs,
            extra_hierarchies: &[],
            gen_seeds: 0..2,
        });
        assert_eq!(out.failed, 0);
        let pass_level = ["workloads.", "campaign.", "bench."];
        for (name, _, _) in PER_LAYER {
            let from_probe = !pass_level.iter().any(|p| name.starts_with(p));
            let found = out.metrics.iter().any(|(n, _)| n == name);
            assert_eq!(found, from_probe, "{name}");
        }
    }

    #[test]
    fn work_counters_repeat_exactly() {
        let programs = generated(10..13);
        let counters = || {
            let out = probes::run(&ProbeInputs {
                programs: &programs,
                extra_hierarchies: &[],
                gen_seeds: 10..12,
            });
            let units: Vec<(String, f64)> = out
                .metrics
                .into_iter()
                .filter(|(n, _)| {
                    PER_LAYER
                        .iter()
                        .any(|(m, u, _)| m == n && matches!(*u, "count" | "B"))
                })
                .collect();
            assert!(units.len() >= 7, "{units:?}");
            units
        };
        assert_eq!(counters(), counters());
    }

    #[test]
    fn replica_reproduces_simulator_run() {
        let mut programs = generated(20..24);
        programs.push(
            watchdog_workloads::benchmark("comp")
                .expect("known")
                .build(Scale::Test),
        );
        for p in &programs {
            for mode in [
                Mode::Baseline,
                Mode::watchdog_conservative(),
                Mode::watchdog(),
                workloads::bounds1(),
                workloads::bounds2(),
            ] {
                let live = Simulator::new(SimConfig::timed(mode))
                    .run(p)
                    .expect("live run");
                let rep = replica::run(p, mode, &mut Acc::default(), None).expect("replica run");
                assert_eq!(
                    format!("{:?}", live.timing.expect("timed")),
                    format!("{:?}", rep.timing),
                    "{} under {}",
                    p.name(),
                    mode.label()
                );
                assert_eq!(live.crack_cache, rep.crack);
            }
        }
    }

    #[test]
    fn golden_files_cover_every_workload() {
        let paper = Golden::paper();
        let mut keys = Vec::new();
        for p in &workloads::table1_programs() {
            for mode in [
                Mode::Baseline,
                Mode::LocationBased,
                Mode::watchdog_conservative(),
            ] {
                keys.push(workloads::table1_key(p.name(), mode));
            }
        }
        for case in watchdog_workloads::juliet_suite() {
            keys.push(workloads::juliet_key(&case.name));
        }
        let benches = watchdog_workloads::all_benchmarks();
        for fig in workloads::figures() {
            for b in &benches {
                for mode in &fig.modes {
                    keys.push(workloads::suite_key(b.name, &mode.label(), fig.timed));
                }
            }
        }
        for k in &keys {
            assert!(paper.0.contains_key(k), "{k}");
        }
        keys.sort();
        keys.dedup();
        assert_eq!(paper.0.len(), keys.len());

        let sweep = Golden::sweep();
        for (mode, points) in workloads::sweeps() {
            for b in &benches {
                for p in &points {
                    let k = workloads::sweep_key(b.name, mode, &p.label);
                    assert!(sweep.0.contains_key(&k), "{k}");
                }
            }
        }
        assert_eq!(sweep.0.len(), 20 * 21);
    }
}
