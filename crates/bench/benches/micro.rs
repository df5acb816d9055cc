//! Criterion micro-benchmarks for the simulator's hot components.
//!
//! These measure the *simulator itself* (so regressions in its throughput
//! are caught); the paper's tables/figures are regenerated by the binaries
//! in `src/bin/` (one per table/figure) because they need full
//! benchmark-suite runs, not statistical micro-sampling.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use watchdog_core::machine::{Machine, MachineConfig, Step};
use watchdog_core::prelude::*;
use watchdog_isa::crack::{crack, CrackConfig};
use watchdog_isa::insn::{Inst, MemAddr, PtrHint, Width};
use watchdog_isa::Gpr;
use watchdog_mem::{AccessClass, Cache, CacheConfig, Hierarchy, HierarchyConfig};
use watchdog_pipeline::Predictor;
use watchdog_workloads::{benchmark, Scale};

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");
    group.throughput(Throughput::Elements(1));
    group.bench_function("l1_hit", |b| {
        let mut cache = Cache::new(CacheConfig::new(32 * 1024, 8, 64));
        cache.access(0x1000);
        b.iter(|| std::hint::black_box(cache.access(0x1000)));
    });
    group.bench_function("hierarchy_streaming", |b| {
        let mut h = Hierarchy::new(HierarchyConfig::default());
        let mut addr = 0x2000_0000u64;
        b.iter(|| {
            addr = addr.wrapping_add(64) & 0x2fff_ffff;
            std::hint::black_box(h.access(AccessClass::Data, addr, false))
        });
    });
    group.finish();

    // The grouped batch entry point on a pre-materialized request list
    // (16 mixed-class accesses per call; throughput is per access).
    let mut group = c.benchmark_group("cache");
    group.throughput(Throughput::Elements(16));
    group.bench_function("hierarchy_batch16", |b| {
        let mut h = Hierarchy::new(HierarchyConfig::default());
        let mut lats = Vec::new();
        // Real consumers hold a reusable request buffer; refill it in
        // place so the measured cost is access_batch itself.
        let mut reqs = Vec::with_capacity(16);
        let mut x = 0x2000_0000u64;
        b.iter(|| {
            reqs.clear();
            for i in 0..16u64 {
                x = x.wrapping_add(64) & 0x2fff_ffff;
                reqs.push(match i % 4 {
                    0 => watchdog_mem::AccessReq::read(AccessClass::Lock, 0x5000_0000 + i * 8),
                    1 => watchdog_mem::AccessReq::write(AccessClass::Data, x),
                    _ => watchdog_mem::AccessReq::read(AccessClass::Data, x),
                });
            }
            h.access_batch(&reqs, &mut lats);
            std::hint::black_box(lats.len())
        });
    });
    group.finish();
}

fn bench_predictor(c: &mut Criterion) {
    c.bench_function("bpred_observe", |b| {
        let mut p = Predictor::new(16);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            std::hint::black_box(p.observe(
                0x1000 + (i % 64) * 4,
                watchdog_isa::crack::CtrlKind::CondBranch,
                i.is_multiple_of(3),
                0x2000,
                0x1004,
            ))
        });
    });
}

fn bench_crack(c: &mut Criterion) {
    let load = Inst::Load {
        dst: Gpr::new(0),
        addr: MemAddr::base(Gpr::new(1)),
        width: Width::B8,
        hint: PtrHint::Auto,
    };
    let mut group = c.benchmark_group("crack");
    group.throughput(Throughput::Elements(1));
    group.bench_function("pointer_load_watchdog", |b| {
        let cfg = CrackConfig::watchdog();
        b.iter(|| std::hint::black_box(crack(&load, true, &cfg)));
    });
    group.bench_function("pointer_load_baseline", |b| {
        let cfg = CrackConfig::baseline();
        b.iter(|| std::hint::black_box(crack(&load, false, &cfg)));
    });
    group.finish();
}

fn bench_functional_machine(c: &mut Criterion) {
    let program = benchmark("hmmer").expect("registered").build(Scale::Test);
    let mut group = c.benchmark_group("machine");
    group.sample_size(10);
    group.bench_function("hmmer_functional_watchdog", |b| {
        b.iter(|| {
            let mut cfg = MachineConfig::watchdog();
            cfg.emit_uops = false;
            let mut m = Machine::new(&program, cfg);
            while let Step::Executed(_) = m.step().expect("ok") {}
            std::hint::black_box(m.stats().insts)
        });
    });
    group.finish();
}

fn bench_crack_cache(c: &mut Criterion) {
    // The per-PC crack cache matters on the µop-emitting path (the feed of
    // the timing model): measure guest instructions per second with the
    // cache on vs off. Throughput is per guest instruction, so the printed
    // Melem/s is guest Minsts/s.
    let program = benchmark("hmmer").expect("registered").build(Scale::Test);
    let insts = {
        let mut cfg = MachineConfig::watchdog();
        cfg.emit_uops = false;
        let mut m = Machine::new(&program, cfg);
        while let Step::Executed(_) = m.step().expect("ok") {}
        m.stats().insts
    };
    let mut group = c.benchmark_group("crack_cache");
    group
        .sample_size(10)
        .throughput(Throughput::Elements(insts));
    for (label, cached) in [("per_pc_cache", true), ("uncached", false)] {
        group.bench_function(format!("hmmer_emit_uops_{label}"), |b| {
            b.iter(|| {
                let mut cfg = MachineConfig::watchdog();
                cfg.crack_cache = cached;
                let mut m = Machine::new(&program, cfg);
                while let Step::Executed(_) = m.step().expect("ok") {}
                std::hint::black_box(m.stats().insts)
            });
        });
    }
    group.finish();
}

fn bench_step_loop(c: &mut Criterion) {
    // The step loop on the µop-emitting (timed-feed) path. Since the
    // machine refills one scratch expansion with a length-aware copy
    // (`UopVec::clone_from_compact`) instead of cloning the full
    // fixed-capacity `Cracked` per step, this group tracks both the
    // end-to-end effect (guest insts/s) and the copy primitive itself.
    let program = benchmark("hmmer").expect("registered").build(Scale::Test);
    let insts = {
        let mut cfg = MachineConfig::watchdog();
        cfg.emit_uops = false;
        let mut m = Machine::new(&program, cfg);
        while let Step::Executed(_) = m.step().expect("ok") {}
        m.stats().insts
    };
    let mut group = c.benchmark_group("step_loop");
    group
        .sample_size(10)
        .throughput(Throughput::Elements(insts));
    group.bench_function("hmmer_emit_uops", |b| {
        b.iter(|| {
            let mut m = Machine::new(&program, MachineConfig::watchdog());
            while let Step::Executed(_) = m.step().expect("ok") {}
            std::hint::black_box(m.stats().insts)
        });
    });
    group.finish();

    // The raw copy primitive: full fixed-capacity copy (what a plain
    // `clone`/move of the ~1KB `UopVec` costs) vs the length-aware copy.
    let load = Inst::Load {
        dst: Gpr::new(0),
        addr: MemAddr::base(Gpr::new(1)),
        width: Width::B8,
        hint: PtrHint::Auto,
    };
    let cracked = crack(&load, true, &CrackConfig::watchdog());
    let mut group = c.benchmark_group("uop_copy");
    group.throughput(Throughput::Elements(1));
    group.bench_function("full_1kb", |b| {
        let mut scratch = watchdog_isa::uop::UopVec::new();
        b.iter(|| {
            scratch = *std::hint::black_box(&cracked.uops);
            std::hint::black_box(&scratch);
        });
    });
    group.bench_function("length_aware", |b| {
        let mut scratch = watchdog_isa::uop::UopVec::new();
        b.iter(|| {
            scratch.clone_from_compact(std::hint::black_box(&cracked.uops));
            std::hint::black_box(&scratch);
        });
    });
    group.finish();
}

fn bench_timing_wheel(c: &mut Criterion) {
    // The timing core (wheels, release rings, rotating-cursor FU pools,
    // hashed TLB) draining a committed stream. Throughput is per guest
    // instruction. The `_wheel_telemetry` variant runs the identical feed
    // with the self-profiler attached — the gauge that telemetry stays
    // within noise of the uninstrumented loop. Shared with
    // `watchdog-cli perf` via the `perf` module so both measure the same
    // cases.
    use watchdog_bench::perf::{committed_stream, feed_stream};
    use watchdog_pipeline::TelemetryConfig;

    for name in ["mcf", "perl"] {
        let stream = committed_stream(name, Scale::Test);
        let mut group = c.benchmark_group("timing_wheel");
        group
            .sample_size(10)
            .throughput(Throughput::Elements(stream.len() as u64));
        group.bench_function(format!("{name}_wheel"), |b| {
            b.iter(|| std::hint::black_box(feed_stream(&stream, None)));
        });
        group.bench_function(format!("{name}_wheel_telemetry"), |b| {
            b.iter(|| std::hint::black_box(feed_stream(&stream, Some(TelemetryConfig::default()))));
        });
        group.finish();
    }

    // The hashed TLB in isolation, on a page stream wider than the
    // capacity so both hit and miss/evict paths are exercised.
    use watchdog_mem::Tlb;
    const TLB_OPS: usize = 4096;
    let addrs: Vec<u64> = {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        (0..TLB_OPS)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 33) % 96) << 12
            })
            .collect()
    };
    let mut group = c.benchmark_group("timing_wheel");
    group
        .sample_size(10)
        .throughput(Throughput::Elements(TLB_OPS as u64));
    group.bench_function("tlb_hashed", |b| {
        let mut tlb = Tlb::new(64);
        b.iter(|| {
            let mut hits = 0u64;
            for &a in &addrs {
                hits += u64::from(tlb.access(a));
            }
            std::hint::black_box(hits)
        });
    });
    group.finish();
}

fn bench_trace_replay(c: &mut Criterion) {
    // The trace subsystem's reason to exist: replaying a recorded commit
    // stream through the timing model must be substantially faster than a
    // live functional+timed simulation (target ≥2× per ablation point —
    // replay skips architectural execution entirely, and for ISA-assisted
    // modes also the §5.2 profiling pass). Throughput is per guest
    // instruction, so Melem/s compares directly across the three phases.
    // `mcf` and `perl` are the pointer-heavy workloads the batched feed
    // and the lock-probe memo target; `hmmer` is the cache-resident,
    // window-bound contrast.
    for name in ["mcf", "perl", "hmmer"] {
        let program = benchmark(name).expect("registered").build(Scale::Test);
        for mode in [Mode::watchdog_conservative(), Mode::watchdog()] {
            let sim = SimConfig::timed(mode);
            let trace = watchdog_trace::record(&program, mode, sim.max_insts).expect("records");
            let insts = trace.machine_stats().insts;
            let mut group = c.benchmark_group("trace_replay");
            group
                .sample_size(10)
                .throughput(Throughput::Elements(insts));
            let tag = mode.label().replace('/', "_");
            group.bench_function(format!("{name}_{tag}_live_timed"), |b| {
                b.iter(|| {
                    let r = Simulator::new(SimConfig::timed(mode))
                        .run(&program)
                        .expect("runs");
                    std::hint::black_box(r.cycles())
                });
            });
            group.bench_function(format!("{name}_{tag}_record_functional"), |b| {
                b.iter(|| {
                    let t = watchdog_trace::record(&program, mode, sim.max_insts).expect("records");
                    std::hint::black_box(t.event_count())
                });
            });
            group.bench_function(format!("{name}_{tag}_replay_timed"), |b| {
                b.iter(|| {
                    let r = watchdog_trace::replay(
                        &program,
                        &trace,
                        &watchdog_trace::ReplayConfig::default(),
                    )
                    .expect("replays");
                    std::hint::black_box(r.cycles())
                });
            });
            group.finish();
        }
    }
}

fn bench_timed_simulation(c: &mut Criterion) {
    let program = benchmark("gzip").expect("registered").build(Scale::Test);
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    for mode in [Mode::Baseline, Mode::watchdog_conservative()] {
        group.bench_function(
            format!("gzip_timed_{}", mode.label().replace('/', "_")),
            |b| {
                b.iter(|| {
                    let r = Simulator::new(SimConfig::timed(mode))
                        .run(&program)
                        .expect("runs");
                    std::hint::black_box(r.cycles())
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cache,
    bench_predictor,
    bench_crack,
    bench_crack_cache,
    bench_functional_machine,
    bench_step_loop,
    bench_timing_wheel,
    bench_trace_replay,
    bench_timed_simulation
);
criterion_main!(benches);
