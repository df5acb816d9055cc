//! Machine-readable perf snapshots: the case list behind
//! `watchdog-cli perf`, the in-tree cliff gate.
//!
//! The timing cases drain a pre-assembled committed µop stream through
//! the timing core's one batched feed. Per workload there are three: the
//! calendar-wheel core, the identical runner measured again under an
//! `_aa` name (the A/A pair, whose spread is the snapshot's own noise
//! floor), and the same core with the self-profiler attached (the
//! telemetry overhead gauge). Three more cases time the functional layer
//! the stream comes from: a functional-only machine run (no µops) in the
//! baseline, conservative and ISA-assisted modes, which is where guest
//! memory, shadow accesses and the pointer classification are paid for.
//! [`perf_snapshot`] wraps them in a cheap best-of-N loop and emits
//! [`BenchRecord`]s under the `watchdog-bench-v1` schema, which is what
//! CI archives as `BENCH_<rev>.json`. Speed claims are made with the
//! standalone `perfbench` benchmark, not with these cases.

use std::time::Instant;
use watchdog_core::machine::{Machine, MachineConfig, Step};
use watchdog_core::{Mode, SimConfig, Simulator};
use watchdog_isa::crack::CrackedInst;
use watchdog_isa::program::Program;
use watchdog_mem::HierarchyConfig;
use watchdog_pipeline::{CoreConfig, TimingCore, UopBatch};
use watchdog_telemetry::{BenchRecord, BenchSnapshot};
use watchdog_workloads::{benchmark, Scale};

/// The workloads every perf snapshot measures: `mcf` is the paper's
/// pointer-chaser, `perl` the allocation/call-heavy contrast.
const PERF_WORKLOADS: [&str; 2] = ["mcf", "perl"];

/// Runs the functional machine once and returns the committed cracked
/// stream — the input every timing-core case drains.
fn committed_stream(name: &str, scale: Scale) -> Vec<CrackedInst> {
    let program = benchmark(name).expect("registered benchmark").build(scale);
    let mut machine = Machine::new(&program, MachineConfig::watchdog());
    let mut stream = Vec::new();
    while let Step::Executed(ci) = machine.step().expect("benchmark executes") {
        stream.push(ci.expect("µop-emitting machine").clone());
    }
    stream
}

/// Drains `stream` through a fresh [`TimingCore`] with the batched feed,
/// optionally with the self-profiler attached (the telemetry overhead
/// gauge), returning final cycles.
fn feed_stream(stream: &[CrackedInst], telemetry: bool) -> u64 {
    let mut core = TimingCore::new(CoreConfig::sandy_bridge(), HierarchyConfig::default());
    if telemetry {
        core.enable_telemetry();
    }
    let mut batch = UopBatch::with_capacity(UopBatch::TARGET_INSTS);
    for ci in stream {
        batch.push_cracked(ci);
        if batch.len() >= UopBatch::TARGET_INSTS {
            core.consume_batch(&batch);
            batch.clear();
        }
    }
    core.consume_batch(&batch);
    core.finish().cycles
}

/// The functional-layer modes every perf snapshot measures, by case-name
/// suffix.
const FUNCTIONAL_MODES: [(&str, Mode); 3] = [
    ("baseline", Mode::Baseline),
    ("cons", Mode::watchdog_conservative()),
    ("isa", Mode::watchdog()),
];

/// Steps a fresh functional-only machine through `program` to its end,
/// returning the instructions committed. Panics on a simulator error
/// (the perf workloads are benign).
fn functional_run(program: &Program, cfg: &MachineConfig) -> u64 {
    let mut machine = Machine::new(program, cfg.clone());
    let mut insts = 0;
    while let Step::Executed(_) = machine.step().expect("benchmark executes") {
        insts += 1;
    }
    insts
}

/// Best-of-`samples` wall-clock measurement of one case.
fn measure(name: &str, elems: u64, samples: u64, mut f: impl FnMut() -> u64) -> BenchRecord {
    let mut best = f64::INFINITY;
    for _ in 0..samples.max(1) {
        let t0 = Instant::now();
        std::hint::black_box(f());
        let ns = t0.elapsed().as_nanos() as f64;
        // Per-iteration cost: each sample is one full drain of the stream.
        if ns < best {
            best = ns;
        }
    }
    BenchRecord {
        name: name.into(),
        ns_per_iter: best,
        melem_per_s: BenchRecord::rate(elems, best),
        iterations: samples.max(1),
    }
}

/// Measures every perf case whose `group/case` path contains `filter`
/// (all cases when `filter` is `None`), invoking `progress` per finished
/// record. The `timing_wheel` cases include the A/A repeat and the
/// telemetry-enabled variant, so the noise floor and the profiler's
/// overhead are part of every snapshot; the `functional` cases time the
/// functional machine per mode.
fn run_perf(
    samples: u64,
    filter: Option<&str>,
    mut progress: impl FnMut(&BenchRecord),
) -> Vec<BenchRecord> {
    let mut records: Vec<BenchRecord> = Vec::new();
    let selected = |name: &str| filter.is_none_or(|f| name.contains(f));
    for name in PERF_WORKLOADS {
        let stream = committed_stream(name, Scale::Test);
        let elems = stream.len() as u64;
        // (case path, runner); the throughput denominator is guest
        // instructions.
        type Runner<'a> = Box<dyn FnMut() -> u64 + 'a>;
        let cases: Vec<(String, Runner<'_>)> = vec![
            (
                format!("timing_wheel/{name}_wheel"),
                Box::new(|| feed_stream(&stream, false)),
            ),
            (
                format!("timing_wheel/{name}_wheel_aa"),
                Box::new(|| feed_stream(&stream, false)),
            ),
            (
                format!("timing_wheel/{name}_wheel_telemetry"),
                Box::new(|| feed_stream(&stream, true)),
            ),
        ];
        for (case, mut run) in cases {
            if !selected(&case) {
                continue;
            }
            let rec = measure(&case, elems, samples, &mut run);
            progress(&rec);
            records.push(rec);
        }
        let program = benchmark(name)
            .expect("registered benchmark")
            .build(Scale::Test);
        for (suffix, mode) in FUNCTIONAL_MODES {
            let case = format!("functional/{name}_{suffix}");
            if !selected(&case) {
                continue;
            }
            let cfg = Simulator::new(SimConfig::functional(mode))
                .machine_config(&program)
                .expect("profiling pass runs");
            let insts = functional_run(&program, &cfg);
            let rec = measure(&case, insts, samples, || functional_run(&program, &cfg));
            progress(&rec);
            records.push(rec);
        }
    }
    records
}

/// Measures every perf case whose path contains `filter` (all when
/// `None`), best of `samples` each, and packages the records as a
/// snapshot ready to be written to `BENCH_<rev>.json`. `progress` is
/// called per finished record.
pub fn perf_snapshot(
    rev: &str,
    samples: u64,
    filter: Option<&str>,
    progress: impl FnMut(&BenchRecord),
) -> BenchSnapshot {
    BenchSnapshot {
        rev: rev.into(),
        records: run_perf(samples, filter, progress),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wheel_and_batched_feeds_agree_with_per_inst() {
        let stream = committed_stream("mcf", Scale::Test);
        assert!(!stream.is_empty());
        let wheel = feed_stream(&stream, false);
        let wheel_tele = feed_stream(&stream, true);
        // One instruction per batch.
        let mut core = TimingCore::new(CoreConfig::sandy_bridge(), HierarchyConfig::default());
        let mut batch = UopBatch::new();
        for ci in &stream {
            batch.push_cracked(ci);
            core.consume_batch(&batch);
            batch.clear();
        }
        assert_eq!(
            wheel,
            core.finish().cycles,
            "batched and per-inst feeds agree"
        );
        assert_eq!(wheel, wheel_tele, "telemetry never changes timing");
    }

    #[test]
    fn snapshot_round_trips_through_the_shared_schema() {
        let snap = perf_snapshot("testrev", 1, Some("mcf_wheel"), |_| {});
        let names: Vec<&str> = snap.records.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "timing_wheel/mcf_wheel",
                "timing_wheel/mcf_wheel_aa",
                "timing_wheel/mcf_wheel_telemetry"
            ]
        );
        let parsed = BenchSnapshot::from_json(&snap.to_json()).expect("self-validates");
        assert_eq!(parsed, snap);
        for r in &parsed.records {
            assert!(r.ns_per_iter > 0.0 && r.melem_per_s > 0.0, "{r:?}");
        }
    }

    #[test]
    fn functional_cases_cover_each_mode_and_count_instructions() {
        let snap = perf_snapshot("testrev", 1, Some("functional/perl"), |_| {});
        let names: Vec<&str> = snap.records.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "functional/perl_baseline",
                "functional/perl_cons",
                "functional/perl_isa"
            ]
        );
        // Elements are committed instructions: the functional run commits
        // exactly the µop-emitting stream's instructions.
        let program = benchmark("perl").unwrap().build(Scale::Test);
        let cfg = Simulator::new(SimConfig::functional(Mode::watchdog_conservative()))
            .machine_config(&program)
            .unwrap();
        let stream = committed_stream("perl", Scale::Test);
        assert_eq!(functional_run(&program, &cfg), stream.len() as u64);
    }
}
