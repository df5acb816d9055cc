//! Layer probes of the traced run. Each drives one layer through its
//! public API on the workload's own programs, single-threaded, and
//! reports time per unit of work beside the work counter:
//!
//! * the functional machine (`Machine::step`, no µops) per mode;
//! * the replica run loop per mode — §5.2 profiling, batch fill
//!   (`Machine::step_batched`), `ScheduledCore::consume_batch` — checked
//!   against `Simulator::run`'s cycles, with its memory µops captured;
//! * the captured streams replayed into a fresh `GuestMem`, through
//!   `ShadowSpace::load`/`store`, and through `Hierarchy::access_batch`;
//! * `watchdog_trace::{record, replay}`;
//! * `watchdog_gen::{generate, check_generated}`;
//! * `ScheduledCore::new` plus drop.

use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

use watchdog_core::machine::Step;
use watchdog_core::prelude::*;
use watchdog_core::Machine;
use watchdog_gen::{check_generated, generate, GenConfig};
use watchdog_isa::layout::SHADOW_BASE;
use watchdog_isa::Program;
use watchdog_mem::{
    AccessClass, AccessReq, GuestMem, Hierarchy, HierarchyConfig, MetaRecord, ShadowSpace,
};
use watchdog_pipeline::{CoreConfig, TimingCore};
use watchdog_trace::{record, replay, ReplayConfig};

use crate::replica;
use crate::spans::{ns_since, Acc, Layer};
use crate::workloads::{bounds1, bounds2, mode_group, MODE_GROUPS};

/// Named metric values, in output order.
pub type Metrics = Vec<(String, f64)>;

/// What the probes run on.
pub struct ProbeInputs<'a> {
    /// The workload's programs.
    pub programs: &'a [Program],
    /// Extra hierarchy configurations the ISA-assisted stream is replayed
    /// through (the LL$ geometries on ll-sweep).
    pub extra_hierarchies: &'a [HierarchyConfig],
    /// Seeds of the generator probe.
    pub gen_seeds: Range<u64>,
}

/// Probe results.
pub struct ProbeOut {
    /// Per-layer metrics and work counters.
    pub metrics: Metrics,
    /// Probe cells attempted.
    pub attempted: u64,
    /// Probe cells that failed, or whose replica cycles differ from
    /// `Simulator::run`'s.
    pub failed: u64,
    /// Replica runs checked against `Simulator::run`.
    pub replica_cells: u64,
}

/// `ns / units`, or 0 without work.
fn per(ns: u64, units: u64) -> f64 {
    if units == 0 {
        0.0
    } else {
        ns as f64 / units as f64
    }
}

/// Time and work of a replay: `(ns, units)`.
#[derive(Default, Clone, Copy)]
struct Tally {
    ns: u64,
    units: u64,
}

impl Tally {
    fn add(&mut self, ns: u64, units: u64) {
        self.ns += ns;
        self.units += units;
    }
}

/// Steps a functional-only machine through `program`; returns
/// `(ns, instructions)`. The profiling pass of ISA-assisted modes runs
/// first and is not timed here.
fn functional(program: &Program, mode: Mode) -> Result<(u64, u64), SimError> {
    let policy = replica::policy_for(program, mode, &mut Acc::default())?;
    let mut m = Machine::new(program, replica::machine_config(mode, policy, false));
    let limit = SimConfig::functional(mode).max_insts;
    let t0 = Instant::now();
    let mut insts = 0u64;
    while let Step::Executed(_) = m.step()? {
        insts += 1;
        if insts > limit {
            return Err(SimError::InstLimit { limit });
        }
    }
    Ok((ns_since(t0), insts))
}

/// Program and lock accesses of a captured stream, replayed as 8-byte
/// reads and writes into a fresh `GuestMem`.
fn guestmem_replay(reqs: &[AccessReq]) -> (u64, u64) {
    let mut mem = GuestMem::new();
    let mut sink = 0u64;
    let mut n = 0u64;
    let t0 = Instant::now();
    for r in reqs.iter().filter(|r| r.class != AccessClass::Shadow) {
        let a = r.addr & !7;
        if r.write {
            mem.write_u64(a, a);
        } else {
            sink ^= mem.read_u64(a);
        }
        n += 1;
    }
    let ns = ns_since(t0);
    black_box(sink);
    (ns, n)
}

/// Shadow accesses of a captured stream, mapped back to the data word
/// they describe and replayed through `ShadowSpace::load`/`store`.
fn shadow_replay(reqs: &[AccessReq], mode: Mode) -> (u64, u64) {
    let space = if mode.bounds_uops().is_some() {
        ShadowSpace::with_bounds()
    } else {
        ShadowSpace::ident_only()
    };
    let words: Vec<(u64, bool)> = reqs
        .iter()
        .filter(|r| r.class == AccessClass::Shadow)
        .filter_map(|r| {
            let off = r.addr.checked_sub(SHADOW_BASE)?;
            Some(((off / space.meta_bytes()) << 3, r.write))
        })
        .collect();
    let mut mem = GuestMem::new();
    let mut sink = 0u64;
    let t0 = Instant::now();
    for &(addr, write) in &words {
        if write {
            space.store(&mut mem, addr, MetaRecord::ident(addr | 2, addr));
        } else {
            sink ^= space.load(&mut mem, addr).key;
        }
    }
    let ns = ns_since(t0);
    black_box(sink);
    (ns, words.len() as u64)
}

/// A captured stream through `Hierarchy::access_batch` under `cfg`;
/// returns `(ns, accesses, LL$ accesses, LL$ misses)`.
fn hierarchy_replay(reqs: &[AccessReq], cfg: HierarchyConfig) -> (u64, u64, u64, u64) {
    let mut h = Hierarchy::new(cfg);
    let mut lats = Vec::with_capacity(4096);
    let t0 = Instant::now();
    for chunk in reqs.chunks(4096) {
        h.access_batch(chunk, &mut lats);
        black_box(&lats);
    }
    let ns = ns_since(t0);
    let st = h.stats();
    (ns, reqs.len() as u64, st.ll.accesses, st.ll.misses)
}

/// Mean microseconds of `ScheduledCore::new` plus drop, Table 2 sizes.
fn core_new_us() -> f64 {
    const REPS: u32 = 200;
    let t0 = Instant::now();
    for _ in 0..REPS {
        black_box(TimingCore::new(
            CoreConfig::sandy_bridge(),
            HierarchyConfig::default(),
        ));
    }
    ns_since(t0) as f64 / 1e3 / f64::from(REPS)
}

/// The generator probe: per seed, `generate` then `check_generated`.
/// Returns the metrics and the number of failing seeds.
fn gen_probe(seeds: Range<u64>) -> (Metrics, u64) {
    let cfg = GenConfig::default();
    let (mut gen_ns, mut check_ns, mut failed) = (0u64, 0u64, 0u64);
    let n = seeds.end - seeds.start;
    for seed in seeds {
        let t0 = Instant::now();
        let g = generate(seed, &cfg);
        gen_ns += ns_since(t0);
        let t0 = Instant::now();
        let ok = check_generated(&g).is_ok();
        check_ns += ns_since(t0);
        failed += u64::from(!ok);
    }
    let metrics = vec![
        ("gen.generate_us".into(), per(gen_ns, n) / 1e3),
        ("gen.check_us".into(), per(check_ns, n) / 1e3),
        ("gen.seeds".into(), n as f64),
    ];
    (metrics, failed)
}

/// Runs every core, pipeline, memory and trace probe on `inp`, then the
/// generator probe on its seeds.
pub fn run(inp: &ProbeInputs<'_>) -> ProbeOut {
    let modes = [
        Mode::Baseline,
        Mode::watchdog_conservative(),
        Mode::watchdog(),
        bounds1(),
        bounds2(),
    ];
    let mut func = [Tally::default(); 4];
    let mut acc = [Acc::default(); 4];
    let (mut crack_hits, mut crack_lookups) = (0u64, 0u64);
    let (mut gm, mut sh, mut hier) = (Tally::default(), Tally::default(), Tally::default());
    let (mut ll_accesses, mut ll_misses) = (0u64, 0u64);
    let (mut attempted, mut failed, mut replica_cells) = (0u64, 0u64, 0u64);
    let mut reqs = Vec::new();

    for p in inp.programs {
        for &mode in &modes {
            let g = mode_group(mode).expect("probe modes belong to a group");
            attempted += 1;
            let live = Simulator::new(SimConfig::timed(mode)).run(p);
            match functional(p, mode) {
                Ok((ns, insts)) => func[g].add(ns, insts),
                Err(_) => failed += 1,
            }
            reqs.clear();
            replica_cells += 1;
            match (replica::run(p, mode, &mut acc[g], Some(&mut reqs)), &live) {
                (Ok(r), Ok(live)) if r.timing.cycles == live.cycles() => {
                    if let Some(c) = r.crack {
                        crack_hits += c.hits;
                        crack_lookups += c.hits + c.misses;
                    }
                }
                (r, live) => {
                    failed += 1;
                    eprintln!(
                        "replica mismatch on {} under {}: replica {:?}, live {:?}",
                        p.name(),
                        mode.label(),
                        r.map(|r| r.timing.cycles),
                        live.as_ref().map(RunReport::cycles)
                    );
                }
            }
            let (ns, n) = guestmem_replay(&reqs);
            gm.add(ns, n);
            let (ns, n) = shadow_replay(&reqs, mode);
            sh.add(ns, n);
            let mut configs = vec![replica::hierarchy_for(mode)];
            if mode == Mode::watchdog() {
                configs.extend_from_slice(inp.extra_hierarchies);
            }
            for cfg in configs {
                let (ns, n, lla, llm) = hierarchy_replay(&reqs, cfg);
                hier.add(ns, n);
                ll_accesses += lla;
                ll_misses += llm;
            }
        }
    }

    // Trace record and replay, in the modes the LL$ sweep uses.
    let (mut rec, mut rep, mut bytes) = (Tally::default(), Tally::default(), 0u64);
    for p in inp.programs {
        for mode in [Mode::Baseline, Mode::watchdog()] {
            attempted += 1;
            let cfg = SimConfig::timed(mode);
            let t0 = Instant::now();
            let Ok(trace) = record(p, mode, cfg.max_insts) else {
                failed += 1;
                continue;
            };
            let insts = trace.machine_stats().insts;
            rec.add(ns_since(t0), insts);
            bytes += trace.to_bytes().len() as u64;
            let t0 = Instant::now();
            match replay(p, &trace, &ReplayConfig::from_sim(&cfg)) {
                Ok(_) => rep.add(ns_since(t0), insts),
                Err(_) => failed += 1,
            }
        }
    }

    let mut m: Metrics = Vec::new();
    let mut all = Acc::default();
    let mut func_all = Tally::default();
    for g in 0..4 {
        let name = MODE_GROUPS[g];
        m.push((
            format!("core.functional_ns_per_inst.{name}"),
            per(func[g].ns, func[g].units),
        ));
        m.push((
            format!("core.fill_ns_per_inst.{name}"),
            per(acc[g].ns_of(Layer::Fill), acc[g].work_of(Layer::Fill)),
        ));
        m.push((
            format!("pipeline.consume_ns_per_uop.{name}"),
            per(acc[g].ns_of(Layer::Consume), acc[g].work_of(Layer::Consume)),
        ));
        all.merge(&acc[g]);
        func_all.add(func[g].ns, func[g].units);
    }
    let insts = all.work_of(Layer::Fill);
    let uops = all.work_of(Layer::Consume);
    // The profiling pass runs the whole program once per ISA-assisted
    // cell: per instruction of those cells.
    let profiled_insts = acc[2].work_of(Layer::Fill) + acc[3].work_of(Layer::Fill);
    m.push((
        "core.profile_ns_per_inst".into(),
        per(all.ns_of(Layer::Profile), profiled_insts),
    ));
    m.push((
        "core.profile_share".into(),
        acc[2].ns_of(Layer::Profile) as f64 / acc[2].total_ns().max(1) as f64,
    ));
    m.push(("core.insts".into(), insts as f64));
    m.push((
        "isa.crack_fill_ns_per_inst".into(),
        per(all.ns_of(Layer::Fill).saturating_sub(func_all.ns), insts),
    ));
    m.push(("isa.crack_hit_rate".into(), per(crack_hits, crack_lookups)));
    m.push(("pipeline.core_new_us".into(), core_new_us()));
    m.push(("pipeline.uops_per_inst".into(), per(uops, insts)));
    m.push(("pipeline.uops".into(), uops as f64));
    m.push(("mem.guestmem_ns_per_access".into(), per(gm.ns, gm.units)));
    m.push(("mem.guestmem_accesses".into(), gm.units as f64));
    m.push(("mem.shadow_ns_per_op".into(), per(sh.ns, sh.units)));
    m.push(("mem.shadow_ops".into(), sh.units as f64));
    m.push((
        "mem.hierarchy_ns_per_access".into(),
        per(hier.ns, hier.units),
    ));
    m.push(("mem.hierarchy_accesses".into(), hier.units as f64));
    m.push(("mem.ll_miss_rate".into(), per(ll_misses, ll_accesses)));
    m.push(("trace.record_ns_per_inst".into(), per(rec.ns, rec.units)));
    m.push(("trace.replay_ns_per_inst".into(), per(rep.ns, rep.units)));
    m.push(("trace.bytes_per_inst".into(), per(bytes, rec.units)));
    m.push(("trace.bytes".into(), bytes as f64));

    let (gen_metrics, gen_failed) = gen_probe(inp.gen_seeds.clone());
    attempted += inp.gen_seeds.end - inp.gen_seeds.start;
    failed += gen_failed;
    m.extend(gen_metrics);
    ProbeOut {
        metrics: m,
        attempted,
        failed,
        replica_cells,
    }
}
