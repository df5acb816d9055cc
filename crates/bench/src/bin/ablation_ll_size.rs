//! Lock-location cache size × associativity sensitivity (§4.2 / §9.3).
//!
//! The paper: "These results are not particularly sensitive to the exact
//! size of the lock location cache; for a 4KB cache, the miss rate is less
//! than 1 miss per 1000 instructions for seventeen of the twenty
//! benchmarks." This sweep varies the LL$ from 1KB to 16KB across 2/4/8/16
//! ways and reports, per point, the geometric-mean overhead, the mean LL$
//! misses per 1000 instructions ([`HierarchyStats::ll_mpk`]) and the
//! <1-miss/1k-instructions benchmark count — the first data toward the
//! §4.2 "4KB captures the working set of lock locations" claim.
//!
//! The sweep is **trace-driven**: each benchmark's functional machine runs
//! once (`watchdog_trace::record`), and one `watchdog_trace::replay_many`
//! pass over that trace decodes each event and fills each µop batch once,
//! then drains it into one timing core per distinct LL$ behaviour:
//! geometries that hit and miss identically on the benchmark's lock
//! accesses share a core, so a benchmark whose lock working set fits in
//! 1KB replays once for all twenty points. Every report is identical to a
//! full re-simulation (the equivalence tests assert byte-for-byte), at a
//! fraction of the cost, which is what makes the extra associativity axis
//! nearly free. Each worker holds one hierarchy per distinct behaviour,
//! at most twenty. The `--scale test` table is pinned by
//! `tests/golden/ablation_ll_size_test.txt`.

use watchdog_bench::{
    args::suite_flags, figure_order, geomean, mean, pct, run_sweep_traced_with_jobs, SweepPoint,
};
use watchdog_core::prelude::*;
use watchdog_mem::HierarchyStats;

const SIZES_KB: [u64; 5] = [1, 2, 4, 8, 16];
const WAYS: [u64; 4] = [2, 4, 8, 16];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let jobs_env = std::env::var_os("WATCHDOG_JOBS");
    let (scale, jobs) = suite_flags("ablation_ll_size", &args, jobs_env.as_deref());
    println!("\n== Ablation: lock-location cache size x associativity sweep (trace-driven) ==");
    println!(
        "{:<16} {:>12} {:>10} {:>22}",
        "LL$ geometry", "geo overhead", "mean mpki", "benchmarks < 1 mpki"
    );

    // Baselines: one functional pass + one replay per benchmark (the
    // baseline's cycles do not depend on the LL$, which it never touches).
    let table2 = [SweepPoint::table2("table2")];
    let base = run_sweep_traced_with_jobs(Mode::Baseline, scale, &table2, jobs, None);
    // Watchdog: one functional pass per benchmark, then one replay pass
    // that drives a timing core per (size, ways) geometry.
    let points: Vec<SweepPoint> = WAYS
        .iter()
        .flat_map(|&ways| {
            SIZES_KB
                .iter()
                .map(move |&kb| SweepPoint::ll_geometry(kb, ways))
        })
        .collect();
    let wd = run_sweep_traced_with_jobs(Mode::watchdog(), scale, &points, jobs, None);

    for (pi, point) in points.iter().enumerate() {
        let mut overheads = Vec::new();
        let mut mpkis = Vec::new();
        let mut low_mpk = 0;
        for name in figure_order() {
            let r = &wd[&name][pi];
            let t = r.timing.as_ref().expect("replays are timed");
            overheads.push(r.cycles() as f64 / base[&name][0].cycles() as f64 - 1.0);
            let mpki = HierarchyStats::ll_mpk(&t.hierarchy, t.insts);
            mpkis.push(mpki);
            if mpki < 1.0 {
                low_mpk += 1;
            }
        }
        println!(
            "{:<16} {:>12} {:>10.3} {:>19}/20",
            point.label,
            pct(geomean(&overheads)),
            mean(&mpkis),
            low_mpk
        );
        if pi % SIZES_KB.len() == SIZES_KB.len() - 1 {
            println!();
        }
    }
    println!("(paper: not particularly sensitive; 4KB gives <1 miss/1k insts on 17/20)");
    println!(
        "({} functional passes + {} batched timing replays instead of {} full simulations)",
        2 * figure_order().len(),
        (points.len() + 1) * figure_order().len(),
        (points.len() + 1) * figure_order().len(),
    );
}
