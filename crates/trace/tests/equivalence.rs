//! The tentpole's correctness anchor, at unit scale: for hand-built
//! programs covering every mode and outcome, a trace-driven replay must
//! reproduce the live timed simulation's [`RunReport`] exactly — cycles,
//! µop tags, hierarchy/predictor statistics, crack-cache counters,
//! violation, heap and footprint. (Suite- and fuzz-scale equivalence
//! lives in the workspace-level `trace_equivalence` tests.)

use proptest::prelude::*;
use watchdog_core::prelude::*;
use watchdog_isa::{Cond, Gpr, Program, ProgramBuilder};
use watchdog_mem::hash::{fnv1a, FNV_OFFSET};
use watchdog_mem::CacheConfig;
use watchdog_pipeline::CoreConfig;
use watchdog_trace::{record, replay, replay_many, ReplayConfig, Trace, TraceError, TraceOutcome};

fn g(n: u8) -> Gpr {
    Gpr::new(n)
}

/// A pointer-heavy benign kernel: build a linked list, walk it, free it
/// (the same shape the simulator's own tests use).
fn list_program(nodes: i64) -> Program {
    let mut b = ProgramBuilder::new("list");
    let (head, cur, nxt, sz, i, n, acc) = (g(0), g(1), g(2), g(3), g(4), g(5), g(6));
    b.li(sz, 16);
    b.li(head, 0);
    b.li(i, 0);
    b.li(n, nodes);
    let build = b.here();
    b.malloc(nxt, sz);
    b.st8(head, nxt, 0);
    b.st8(i, nxt, 8);
    b.mov(head, nxt);
    b.addi(i, i, 1);
    b.branch(Cond::Lt, i, n, build);
    b.li(acc, 0);
    b.mov(cur, head);
    let walk = b.here();
    b.ld8(nxt, cur, 8);
    b.add(acc, acc, nxt);
    b.ld8(cur, cur, 0);
    b.branch(Cond::Ne, cur, g(14), walk);
    b.mov(cur, head);
    let fr = b.here();
    b.ld8(nxt, cur, 0);
    b.free(cur);
    b.mov(cur, nxt);
    b.branch(Cond::Ne, cur, g(14), fr);
    b.halt();
    b.build().unwrap()
}

fn uaf_program() -> Program {
    let mut b = ProgramBuilder::new("uaf");
    let (p, sz) = (g(0), g(1));
    b.li(sz, 64);
    b.malloc(p, sz);
    b.free(p);
    b.ld8(g(2), p, 0);
    b.halt();
    b.build().unwrap()
}

/// Records under `mode`, replays under the timing slice of `sim`, and
/// asserts the replayed report is identical (via `Debug`, which renders
/// every field of every nested statistic) to the live timed run.
fn assert_replay_exact(program: &Program, mode: Mode, sim: SimConfig) {
    let live = Simulator::new(sim.clone()).run(program).expect("live run");
    let trace = record(program, mode, sim.max_insts).expect("record");
    let rep = replay(program, &trace, &ReplayConfig::from_sim(&sim)).expect("replay");
    assert_eq!(
        format!("{live:?}"),
        format!("{rep:?}"),
        "replayed report diverges from live under {}",
        mode.label()
    );
}

#[test]
fn replay_matches_live_under_every_mode() {
    let p = list_program(60);
    for mode in [
        Mode::Baseline,
        Mode::LocationBased,
        Mode::watchdog_conservative(),
        Mode::watchdog(),
        Mode::Watchdog {
            ptr: PointerId::IsaAssisted,
            lock_cache: false,
            ideal_shadow: false,
        },
        Mode::Watchdog {
            ptr: PointerId::IsaAssisted,
            lock_cache: true,
            ideal_shadow: true,
        },
        Mode::WatchdogBounds {
            ptr: PointerId::Conservative,
            uops: BoundsUops::Fused,
        },
        Mode::WatchdogBounds {
            ptr: PointerId::IsaAssisted,
            uops: BoundsUops::Split,
        },
    ] {
        assert_replay_exact(&p, mode, SimConfig::timed(mode));
    }
}

#[test]
fn replay_matches_live_on_violating_runs() {
    let p = uaf_program();
    for mode in [
        Mode::LocationBased,
        Mode::watchdog_conservative(),
        Mode::watchdog(),
    ] {
        assert_replay_exact(&p, mode, SimConfig::timed(mode));
        let trace = record(&p, mode, 1_000_000).unwrap();
        assert!(matches!(trace.outcome(), TraceOutcome::Violation(_)));
    }
}

#[test]
fn replay_matches_live_with_the_crack_cache_disabled() {
    let p = list_program(40);
    let mode = Mode::watchdog_conservative();
    let mut sim = SimConfig::timed(mode);
    sim.crack_cache = false;
    assert_replay_exact(&p, mode, sim);
}

#[test]
fn one_trace_sweeps_many_hierarchies_exactly() {
    // The whole point: one functional pass, N ablation replays — each
    // identical to a dedicated live simulation of that configuration.
    let p = list_program(80);
    let mode = Mode::watchdog_conservative();
    let trace = record(&p, mode, 10_000_000).unwrap();
    for kb in [1u64, 4, 16] {
        let mut sim = SimConfig::timed(mode);
        sim.hierarchy.ll = CacheConfig::new(kb * 1024, 8, 64);
        let live = Simulator::new(sim.clone()).run(&p).unwrap();
        let rep = replay(&p, &trace, &ReplayConfig::from_sim(&sim)).unwrap();
        assert_eq!(format!("{live:?}"), format!("{rep:?}"), "LL$ {kb}KB");
    }
}

#[test]
fn serialized_traces_replay_identically() {
    let p = list_program(30);
    let mode = Mode::watchdog();
    let trace = record(&p, mode, 10_000_000).unwrap();
    let back = Trace::from_bytes(&trace.to_bytes()).expect("round-trip");
    assert_eq!(trace, back);
    let a = replay(&p, &trace, &ReplayConfig::default()).unwrap();
    let b = replay(&p, &back, &ReplayConfig::default()).unwrap();
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn traces_are_compact() {
    let p = list_program(100);
    let trace = record(&p, Mode::watchdog_conservative(), 10_000_000).unwrap();
    let info = trace.info();
    assert_eq!(info.insts, trace.machine_stats().insts);
    assert!(info.events > 0 && info.events < info.insts + 1);
    // Delta encoding keeps the stream small: well under 16 bytes per
    // committed instruction for pointer-chasing code.
    assert!(
        info.bytes_per_event() < 16.0,
        "bytes/event = {:.1}",
        info.bytes_per_event()
    );
}

#[test]
fn replaying_the_wrong_program_is_rejected() {
    let a = list_program(10);
    let b = list_program(11); // same name, different instructions
    let trace = record(&a, Mode::watchdog_conservative(), 1_000_000).unwrap();
    let err = replay(&b, &trace, &ReplayConfig::default()).unwrap_err();
    assert!(matches!(err, TraceError::ProgramMismatch { .. }), "{err}");
    let err = replay(&uaf_program(), &trace, &ReplayConfig::default()).unwrap_err();
    assert!(matches!(err, TraceError::ProgramMismatch { .. }), "{err}");
}

#[test]
fn corrupt_event_streams_fail_closed() {
    let p = list_program(10);
    let trace = record(&p, Mode::watchdog_conservative(), 1_000_000).unwrap();
    let bytes = trace.to_bytes();
    // Flip every single byte of the serialized trace in turn: decoding or
    // replay may fail, report different numbers, or (rarely) be a benign
    // flip in an unused flag-ish position — but it must never panic.
    let baseline = replay(&p, &trace, &ReplayConfig::default()).unwrap();
    let sweep = [ReplayConfig::default(), ll_config(1, 2), ll_config(16, 16)];
    let mut survived = 0usize;
    let mut resealed_errors = 0usize;
    for i in 0..bytes.len() {
        let mut mutated = bytes.clone();
        mutated[i] ^= 0x41;
        if let Ok(t) = Trace::from_bytes(&mutated) {
            if let Ok(r) = replay(&p, &t, &ReplayConfig::default()) {
                if format!("{r:?}") == format!("{baseline:?}") {
                    survived += 1;
                }
            }
        }
        // The same flip with the checksum re-sealed reaches the decoder.
        // `replay_many` over several LL$ geometries decodes once to find
        // its timing classes before it replays, and must fail exactly as
        // `replay` does.
        let body = mutated.len() - 8;
        let sum = fnv1a(FNV_OFFSET, &mutated[..body]);
        mutated[body..].copy_from_slice(&sum.to_le_bytes());
        if let Ok(t) = Trace::from_bytes(&mutated) {
            let single = replay(&p, &t, &ReplayConfig::default());
            let many = replay_many(&p, &t, &sweep);
            match (&single, &many) {
                (Err(a), Err(b)) => assert_eq!(a, b, "byte {i}"),
                (Ok(r), Ok(rs)) => assert_eq!(format!("{r:?}"), format!("{:?}", rs[0])),
                _ => panic!("byte {i}: replay gave {single:?}, replay_many {many:?}"),
            }
            resealed_errors += usize::from(single.is_err());
        }
    }
    // Enough re-sealed flips reach a replay error to make the comparison
    // above bite.
    assert!(
        resealed_errors * 10 > bytes.len(),
        "only {resealed_errors}/{} re-sealed flips failed to replay",
        bytes.len()
    );
    // A flip that still yields the identical report should be rare.
    assert!(
        survived * 10 < bytes.len(),
        "{survived}/{} byte flips were silent no-ops",
        bytes.len()
    );
}

/// Table 2 with a `kb`-kilobyte, `ways`-way LL$.
fn ll_config(kb: u64, ways: u64) -> ReplayConfig {
    let mut cfg = ReplayConfig::default();
    cfg.hierarchy.ll = CacheConfig::new(kb * 1024, ways, 64);
    cfg
}

/// A mixed slice of replay configurations: several LL$ geometries, the
/// crack cache on and off, a narrower core and an idealized shadow.
fn mixed_configs() -> Vec<ReplayConfig> {
    let ll = ll_config;
    let mut uncached = ll(2, 4);
    uncached.crack_cache = false;
    let narrow = ReplayConfig {
        core: CoreConfig {
            rob_entries: 48,
            iq_entries: 20,
            issue_width: 2,
            commit_width: 2,
            ..CoreConfig::sandy_bridge()
        },
        ..ReplayConfig::default()
    };
    let mut ideal = ll(1, 2);
    ideal.hierarchy.ideal_shadow = true;
    vec![
        ReplayConfig::default(),
        ll(1, 2),
        ll(16, 16),
        uncached,
        narrow,
        ideal,
    ]
}

/// One `replay` per configuration, rendered through `Debug`.
fn single_replays(p: &Program, trace: &Trace, cfgs: &[ReplayConfig]) -> Vec<String> {
    cfgs.iter()
        .map(|cfg| format!("{:?}", replay(p, trace, cfg).expect("replay")))
        .collect()
}

#[test]
fn replay_many_matches_one_replay_per_config() {
    let cfgs = mixed_configs();
    for (p, mode) in [
        (list_program(60), Mode::LocationBased),
        (list_program(60), Mode::watchdog_conservative()),
        (list_program(60), Mode::watchdog()),
        (uaf_program(), Mode::watchdog_conservative()),
    ] {
        let trace = record(&p, mode, 10_000_000).unwrap();
        let many: Vec<String> = replay_many(&p, &trace, &cfgs)
            .expect("replay_many")
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        assert_eq!(many, single_replays(&p, &trace, &cfgs), "{}", mode.label());
    }
}

#[test]
fn replay_many_shares_a_core_only_between_identical_ll_behaviours() {
    // 600 live nodes put 600 lock locations in play: they thrash a 1 KB
    // LL$ on the walk and the frees, but fit in 16 KB. So the small
    // geometries must replay to different reports, the large ones to one
    // shared report — and every report must still be its own replay's.
    let p = list_program(600);
    let trace = record(&p, Mode::watchdog_conservative(), 10_000_000).unwrap();
    let mut cfgs: Vec<ReplayConfig> = [(1, 2), (1, 16), (2, 4), (8, 8), (16, 8), (16, 16)]
        .into_iter()
        .map(|(kb, ways)| ll_config(kb, ways))
        .collect();
    cfgs[4].crack_cache = false;
    let reports = replay_many(&p, &trace, &cfgs).expect("replay_many");
    let many: Vec<String> = reports.iter().map(|r| format!("{r:?}")).collect();
    assert_eq!(many, single_replays(&p, &trace, &cfgs));
    // Timing only: point 4 reports no crack-cache statistics.
    let timings: Vec<String> = reports.iter().map(|r| format!("{:?}", r.timing)).collect();
    let mut distinct = timings.clone();
    distinct.sort();
    distinct.dedup();
    assert!(distinct.len() >= 2, "every geometry behaved alike");
    assert!(
        distinct.len() < timings.len(),
        "no two geometries shared a report"
    );
    assert_ne!(timings[0], timings[5], "1 KB must thrash where 16 KB fits");
    assert_eq!(timings[4], timings[5], "16 KB at 8 and 16 ways both fit");
}

#[test]
fn replay_many_of_no_configs_is_empty() {
    let p = list_program(10);
    let trace = record(&p, Mode::watchdog_conservative(), 1_000_000).unwrap();
    assert!(replay_many(&p, &trace, &[]).unwrap().is_empty());
}

proptest! {
    /// Each point's report depends only on its own configuration: any
    /// order, any duplicates, any subset of the pool give the reports
    /// the single replays give.
    #[test]
    fn replay_many_is_independent_of_point_order_and_duplicates(
        picks in proptest::collection::vec(0usize..6, 0..9)
    ) {
        let p = list_program(40);
        let trace = record(&p, Mode::watchdog_conservative(), 10_000_000).unwrap();
        let pool = mixed_configs();
        let want = single_replays(&p, &trace, &pool);
        let cfgs: Vec<ReplayConfig> = picks.iter().map(|&i| pool[i].clone()).collect();
        let got = replay_many(&p, &trace, &cfgs).expect("replay_many");
        prop_assert_eq!(got.len(), picks.len());
        for (&i, r) in picks.iter().zip(&got) {
            prop_assert_eq!(format!("{r:?}"), want[i].clone(), "point {}", i);
        }
    }
}
