//! One entry per reproduced table/figure; the binaries in `src/bin/` are
//! thin wrappers.
//!
//! The suite figures (Figs. 5, 7–11 and the §9.3 ideal-shadow ablation)
//! reuse a few configurations, so each is a row of [`FIGURES`] — the
//! suite cells it reads plus a renderer — and [`regenerate`] runs the
//! union of the requested figures' cells once before rendering them all.

use std::collections::BTreeMap;

use crate::{figure_order, geomean, mean, pct, print_table, run_suite_with_jobs, SuiteResults};
use watchdog_core::prelude::*;
use watchdog_core::PointerId;
use watchdog_workloads::Scale;

/// One suite figure: the (benchmark × mode) cells it reads and how it
/// prints them.
pub struct Figure {
    /// The figure's binary name (`fig05`, …, `ablation_ideal_shadow`).
    pub name: &'static str,
    /// Whether the figure reads timed cells (cycles) or functional ones.
    pub timed: bool,
    /// The modes it reads, each over all twenty benchmarks.
    pub modes: &'static [Mode],
    /// Prints the figure from suite results covering at least `modes`.
    pub render: fn(&SuiteResults),
}

const BASE: Mode = Mode::Baseline;
const CONS: Mode = Mode::watchdog_conservative();
const ISA: Mode = Mode::watchdog();
const NO_LL: Mode = Mode::Watchdog {
    ptr: PointerId::IsaAssisted,
    lock_cache: false,
    ideal_shadow: false,
};
const IDEAL_SHADOW: Mode = Mode::Watchdog {
    ptr: PointerId::IsaAssisted,
    lock_cache: true,
    ideal_shadow: true,
};
const BOUNDS_1UOP: Mode = Mode::WatchdogBounds {
    ptr: PointerId::IsaAssisted,
    uops: BoundsUops::Fused,
};
const BOUNDS_2UOP: Mode = Mode::WatchdogBounds {
    ptr: PointerId::IsaAssisted,
    uops: BoundsUops::Split,
};

/// Every suite figure, in paper order (the order [`regenerate`] prints
/// them in).
pub const FIGURES: &[Figure] = &[
    Figure {
        name: "fig05",
        timed: false,
        modes: &[CONS, ISA],
        render: fig05,
    },
    Figure {
        name: "fig07",
        timed: true,
        modes: &[BASE, CONS, ISA],
        render: fig07,
    },
    Figure {
        name: "fig08",
        timed: true,
        modes: &[ISA],
        render: fig08,
    },
    Figure {
        name: "fig09",
        timed: true,
        modes: &[BASE, ISA, NO_LL],
        render: fig09,
    },
    Figure {
        name: "ablation_ideal_shadow",
        timed: true,
        modes: &[BASE, ISA, IDEAL_SHADOW],
        render: ablation_ideal_shadow,
    },
    Figure {
        name: "fig10",
        timed: false,
        modes: &[ISA],
        render: fig10,
    },
    Figure {
        name: "fig11",
        timed: true,
        modes: &[BASE, ISA, BOUNDS_1UOP, BOUNDS_2UOP],
        render: fig11,
    },
];

/// Regenerates the named [`FIGURES`] from one timed and one functional
/// suite run over the union of their modes, then prints them in paper
/// order. Every distinct (benchmark, mode) cell simulates once, however
/// many of the figures read it.
///
/// # Panics
///
/// Panics on a name that is not in [`FIGURES`] (or is repeated), or if
/// any suite cell fails.
pub fn regenerate(names: &[&str], scale: Scale, jobs: usize) {
    let figures: Vec<&Figure> = FIGURES.iter().filter(|f| names.contains(&f.name)).collect();
    assert_eq!(
        figures.len(),
        names.len(),
        "unknown suite figure in {names:?}"
    );
    let run = |timed: bool| {
        let wanted = figures.iter().filter(|f| f.timed == timed);
        let mut modes: Vec<Mode> = Vec::new();
        for &m in wanted.flat_map(|f| f.modes) {
            if !modes.contains(&m) {
                modes.push(m);
            }
        }
        if modes.is_empty() {
            SuiteResults::new()
        } else {
            run_suite_with_jobs(&modes, scale, timed, jobs)
        }
    };
    let (timed, functional) = (run(true), run(false));
    for f in figures {
        (f.render)(if f.timed { &timed } else { &functional });
    }
}

/// Prints a figure's table: one row per benchmark, in paper order, of the
/// fractions `cells` computes from that benchmark's reports (keyed by mode
/// label); a `summary` row aggregating each column; then the paper's
/// numbers.
fn figure_table(
    results: &SuiteResults,
    title: &str,
    headers: &[&str],
    cells: impl Fn(&BTreeMap<String, RunReport>) -> Vec<f64>,
    (summary_label, summary): (&str, fn(&[f64]) -> f64),
    paper: &str,
) {
    let mut columns = vec![Vec::new(); headers.len()];
    let mut rows = Vec::new();
    for name in figure_order() {
        let values = cells(&results[&name]);
        for (column, &v) in columns.iter_mut().zip(&values) {
            column.push(v);
        }
        rows.push((name, values.into_iter().map(pct).collect()));
    }
    let summaries = columns.iter().map(|c| pct(summary(c))).collect();
    rows.push((summary_label.into(), summaries));
    print_table(title, headers, &rows);
    println!("{paper}");
}

/// The shared layout of Figs. 7, 9 and 11 and the §9.3 ablation: each
/// column mode's runtime overhead over the baseline, with a
/// geometric-mean row.
fn slowdown_table(results: &SuiteResults, title: &str, columns: &[(&str, Mode)], paper: &str) {
    let headers: Vec<&str> = columns.iter().map(|&(h, _)| h).collect();
    let slowdowns = |r: &BTreeMap<String, RunReport>| {
        let base = &r[&BASE.label()];
        columns
            .iter()
            .map(|(_, m)| r[&m.label()].slowdown_vs(base))
            .collect()
    };
    figure_table(
        results,
        title,
        &headers,
        slowdowns,
        ("Geo. mean", geomean),
        paper,
    );
}

/// Figure 5: percentage of memory accesses classified as pointer
/// operations, conservative vs ISA-assisted (paper: 31% / 18% average).
fn fig05(results: &SuiteResults) {
    figure_table(
        results,
        "Figure 5: % of memory accesses classified as pointer load/store",
        &["conservative", "ISA-assisted"],
        |r| {
            vec![
                r[&CONS.label()].ptr_fraction(),
                r[&ISA.label()].ptr_fraction(),
            ]
        },
        ("avg", mean),
        "(paper: 31% conservative, 18% ISA-assisted on average)",
    );
}

/// Figure 7: runtime overhead of use-after-free checking, conservative vs
/// ISA-assisted identification (paper: 25% / 15% geometric mean).
fn fig07(results: &SuiteResults) {
    slowdown_table(
        results,
        "Figure 7: runtime overhead, conservative vs ISA-assisted",
        &[("conservative", CONS), ("ISA-assisted", ISA)],
        "(paper: 25% conservative, 15% ISA-assisted geometric mean)",
    );
}

/// Figure 8: µop overhead breakdown under ISA-assisted identification
/// (paper: 44% total — 29% checks, 4% pointer loads, 2% pointer stores,
/// 9% other).
fn fig08(results: &SuiteResults) {
    figure_table(
        results,
        "Figure 8: µop overhead breakdown (ISA-assisted)",
        &["checks", "ptr loads", "ptr stores", "other", "total"],
        |r| {
            let r = &r[&ISA.label()];
            let (c, l, s, o) = r.uop_overhead_breakdown();
            vec![c, l, s, o, r.uop_overhead()]
        },
        ("avg", mean),
        "(paper: 29% checks + 4% loads + 2% stores + 9% other = 44% total average)",
    );
}

/// Figure 9: runtime overhead with and without the 4KB lock-location
/// cache (paper: 15% vs 24% geometric mean; hmmer/h264 hit hardest).
fn fig09(results: &SuiteResults) {
    slowdown_table(
        results,
        "Figure 9: overhead with vs without the lock-location cache",
        &[("with LL$", ISA), ("without LL$", NO_LL)],
        "(paper: 15% vs 24% geometric mean)",
    );
    // The paper also reports LL$ miss rates: "<1 miss per 1000
    // instructions for seventeen of the twenty benchmarks".
    let low_mpk = results
        .values()
        .filter(|r| {
            let t = r[&ISA.label()].timing.as_ref().expect("timed");
            t.hierarchy.ll_mpk(t.insts) < 1.0
        })
        .count();
    println!("LL$ misses < 1 per 1000 instructions on {low_mpk}/20 benchmarks (paper: 17/20)");
}

/// §9.3 ablation: idealized shadow accesses (paper: 15% → 11%).
fn ablation_ideal_shadow(results: &SuiteResults) {
    slowdown_table(
        results,
        "§9.3 ablation: real vs idealized shadow-metadata accesses",
        &[("real shadow", ISA), ("ideal shadow", IDEAL_SHADOW)],
        "(paper: idealizing metadata cache effects lowers 15% to 11%)",
    );
}

/// Figure 10: memory overhead in words and 4KB pages (paper: 32% / 56%
/// average, worst cases approaching 200%).
fn fig10(results: &SuiteResults) {
    figure_table(
        results,
        "Figure 10: memory overhead (shadow + lock locations)",
        &["words", "pages"],
        |r| {
            let r = &r[&ISA.label()];
            vec![r.word_overhead(), r.page_overhead()]
        },
        ("Geo. mean", geomean),
        "(paper: 32% words, 56% pages; several benchmarks near the 200% worst case)",
    );
}

/// Figure 11: full memory safety — Watchdog alone vs bounds checking with
/// one fused or two split check µops (paper: 15% / 18% / 24%).
fn fig11(results: &SuiteResults) {
    slowdown_table(
        results,
        "Figure 11: runtime overhead with bounds checking",
        &[
            ("Watchdog", ISA),
            ("+bounds (1 uop)", BOUNDS_1UOP),
            ("+bounds (2 uop)", BOUNDS_2UOP),
        ],
        "(paper: 15% / 18% / 24% geometric mean)",
    );
}

/// Table 1: the taxonomy of checking approaches, demonstrated empirically:
/// identifier-based checking is comprehensive under reallocation,
/// location-based checking is not.
pub fn table1() {
    println!("\n== Table 1: location-based vs identifier-based checking ==");
    println!(
        "{:<12} {:<11} {:>8} {:>9} {:>6} {:>8}",
        "approach", "instrument.", "runtime", "metadata", "casts", "compre."
    );
    for (a, i, r, m, c, k) in [
        ("Memcheck", "binary", "10x", "disjoint", "Y", "N"),
        ("J&K", "compiler", "10x", "disjoint", "Y", "N"),
        ("LBA/MTrac", "hardware", "1.2x", "disjoint", "Y", "N"),
        ("SafeC", "source", "10x", "inline", "N", "Y"),
        ("MSCC", "source", "2x", "split", "N", "Y"),
        ("Chuang", "hybrid", "1.2x", "inline", "N", "Y"),
        ("CETS", "compiler", "2x", "disjoint", "Y", "Y"),
        ("Watchdog", "hardware", "1.2x", "disjoint", "Y", "Y"),
    ] {
        println!("{a:<12} {i:<11} {r:>8} {m:>9} {c:>6} {k:>8}");
    }

    // Empirical demonstration: three adversarial programs × three systems.
    use watchdog_isa::{Gpr, ProgramBuilder};
    let g = Gpr::new;
    // Each program allocates 64 bytes into r0, then misuses it.
    let program = |name: &str, misuse: &dyn Fn(&mut ProgramBuilder)| {
        let mut b = ProgramBuilder::new(name);
        b.li(g(1), 64);
        b.malloc(g(0), g(1));
        misuse(&mut b);
        b.halt();
        b.build().unwrap()
    };
    let simple_uaf = program("simple-uaf", &|b| {
        b.free(g(0));
        b.ld8(g(2), g(0), 0);
    });
    let realloc_uaf = program("uaf-after-realloc", &|b| {
        b.mov(g(2), g(0));
        b.free(g(0));
        b.malloc(g(3), g(1)); // recycles the address
        b.ld8(g(4), g(2), 0); // dangling pointer, *allocated* location
    });
    let double_free = program("double-free", &|b| {
        b.free(g(0));
        b.free(g(0));
    });
    println!("\nEmpirical comprehensiveness check (detected = Y):");
    println!(
        "{:<20} {:>9} {:>15} {:>9}",
        "program", "baseline", "location-based", "watchdog"
    );
    for p in [&simple_uaf, &realloc_uaf, &double_free] {
        let detected = |mode| {
            let r = Simulator::new(SimConfig::functional(mode)).run(p).unwrap();
            if r.violation.is_some() {
                "Y"
            } else {
                "N"
            }
        };
        let (base, loc, wd) = (
            detected(BASE),
            detected(Mode::LocationBased),
            detected(CONS),
        );
        println!("{:<20} {base:>9} {loc:>15} {wd:>9}", p.name());
    }
    println!("(the reallocation row is the paper's key claim: only identifier-based checking detects it)");
}

/// Table 2: the simulated processor configuration.
pub fn table2() {
    println!("\n== Table 2: simulated processor configuration ==");
    for (k, v) in watchdog_pipeline::CoreConfig::sandy_bridge().describe() {
        println!("{k:<12} {v}");
    }
    let h = watchdog_mem::HierarchyConfig::default();
    let cache = |name: &str, c: &watchdog_mem::CacheConfig, size: String, latency: Option<u64>| {
        let cycles = latency.map_or(String::new(), |l| format!(", {l} cycles"));
        println!(
            "{name:<12} {size}, {}-way, {}B blocks{cycles}",
            c.ways, c.block
        );
    };
    let kb = |c: &watchdog_mem::CacheConfig| format!("{}KB", c.size / 1024);
    let (l2, l3) = (h.l1_lat + h.l2_lat, h.l1_lat + h.l2_lat + h.l3_lat);
    cache("L1 I$", &h.l1i, kb(&h.l1i), Some(h.l1_lat));
    cache("L1 D$", &h.l1d, kb(&h.l1d), Some(h.l1_lat));
    cache("Lock Loc. $", &h.ll, kb(&h.ll), None);
    cache("Private L2$", &h.l2, kb(&h.l2), Some(l2));
    let l3_mb = format!("{}MB", h.l3.size / 1024 / 1024);
    cache("Shared L3$", &h.l3, l3_mb, Some(l3));
    println!("{:<12} {} cycles", "Memory", l3 + h.mem_lat);
}

/// §9.2: the Juliet CWE-416/CWE-562 suite (paper: 291/291 detected, zero
/// false positives).
pub fn juliet(jobs: usize) {
    // The 291 cases are sharded across the same `jobs`-worker pool as the
    // suite runner; results come back in suite order, so the printed
    // report is identical to a serial run.
    let outcomes = crate::run_juliet_with_jobs(CONS, jobs, None);
    let s = crate::summarize_juliet(&outcomes);
    println!("\n== §9.2: Juliet-style CWE-416/CWE-562 suite ==");
    println!(
        "bad cases detected:        {}/{} (expected kind; {} with other kind)",
        s.detected, s.cases, s.wrong_kind
    );
    println!(
        "benign false positives:    {}/{}",
        s.false_positives, s.cases
    );
    println!("(paper: 291/291 detected, no false positives)");
    println!(
        "location-based comparison: {}/{} CWE-416 cases detected (blind to reallocation)",
        s.loc_detected, s.loc_cases
    );
}
