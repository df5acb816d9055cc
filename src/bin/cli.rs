//! `watchdog-cli` — command-line driver for the simulator.
//!
//! ```text
//! watchdog-cli list                         # registered benchmarks
//! watchdog-cli modes                        # available modes
//! watchdog-cli run mcf --mode isa           # simulate one benchmark
//! watchdog-cli run perl --mode cons --scale ref
//! watchdog-cli run mcf --json               # machine-readable metrics (watchdog-run-v2)
//! watchdog-cli run mcf --telemetry          # human report + registry + self-profile
//! watchdog-cli run mcf --cpi                # Fig. 8-style CPI stack across all four modes
//! watchdog-cli perf                         # perf snapshot -> bench-history/BENCH_<rev>.json
//! watchdog-cli perf compare bench-history/BENCH_aaa.json BENCH_bbb.json
//! watchdog-cli events validate run.events.jsonl --ledger fuzz.wdlg
//! watchdog-cli juliet                       # run the §9.2 security suite
//! watchdog-cli fuzz --seeds 1000            # differential fuzzing campaign
//! watchdog-cli fuzz --seed 42               # reproduce one generated case
//! watchdog-cli trace record mcf --mode cons -o mcf.wdtr
//! watchdog-cli trace replay mcf --trace mcf.wdtr --verify
//! watchdog-cli trace info --trace mcf.wdtr
//! watchdog-cli trace selftest --seeds 25    # record→replay equivalence smoke
//! watchdog-cli campaign --seeds 100000      # crash-isolated multi-process fuzz
//! watchdog-cli campaign --resume            # continue an interrupted campaign
//! watchdog-cli worker                       # internal: campaign child process
//! ```

use std::ffi::OsStr;

use watchdog::bench::args::{Args, Flag, JOBS, SCALE};
use watchdog::bench::{fuzz_main, run_juliet_with_jobs, summarize_juliet};
use watchdog::prelude::*;
use watchdog::trace::{record, replay, replay_many, verify_replay, ReplayConfig, Trace};

const MODE: Flag = Flag::value("--mode", "a mode");
const OUT: Flag = Flag::value("-o", "a file path").or("--out");
const TRACE: Flag = Flag::value("--trace", "a file path");

fn usage() -> ! {
    eprintln!(
        "usage:\n  watchdog-cli list\n  watchdog-cli modes\n  watchdog-cli run <bench> \
         [--mode <mode>] [--scale test|small|ref] [--functional] [--json] [--telemetry] [--cpi]\n  \
         watchdog-cli perf [--samples N] [--filter F] [--out-dir DIR] [-o FILE] [--rev R]\n  \
         watchdog-cli perf compare <baseline.json> <candidate.json> [--threshold PCT] [-o FILE]\n  \
         watchdog-cli events validate <events.jsonl> [--ledger FILE]\n  watchdog-cli juliet [--mode <mode>] [--jobs J]\n  \
         watchdog-cli fuzz [--seeds N] [--seed-start K] [--jobs J]\n  watchdog-cli fuzz --seed <K>\n  \
         watchdog-cli trace record <bench> [--mode <mode>] [--scale <scale>] [-o FILE]\n  \
         watchdog-cli trace replay <bench> --trace FILE [--scale <scale>] [--verify]\n  \
         watchdog-cli trace info --trace FILE\n  \
         watchdog-cli trace selftest [--bench <bench>] [--scale <scale>] [--seeds N] [--jobs J]\n  \
         watchdog-cli campaign [flags]         (see `watchdog-cli campaign --help`)\n  \
         watchdog-cli worker                   (internal; spawned by campaign)"
    );
    std::process::exit(2);
}

/// Scans the arguments of the subcommand `cmd` (see
/// [`watchdog::bench::args::parse`]); a flag error prints it with the
/// usage text and exits 2.
fn parse(cmd: &str, positional: usize, flags: &[Flag], args: &[String]) -> Args {
    ok(watchdog::bench::args::parse(cmd, positional, flags, args))
}

/// Unwraps a flag result, or prints the error with the usage text and
/// exits 2.
fn ok<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        usage()
    })
}

fn cmd_list() {
    println!("{:<8} {:<8}", "name", "category");
    for b in all_benchmarks() {
        println!("{:<8} {:?}", b.name, b.category);
    }
}

fn cmd_modes() {
    for (names, mode) in watchdog::core::MODE_NAMES {
        println!("{:<14} -> {}", names[0], mode.label());
    }
}

fn cmd_run(args: &[String]) {
    let a = parse(
        "run",
        1,
        &[
            MODE,
            SCALE,
            Flag::switch("--functional"),
            Flag::switch("--json"),
            Flag::switch("--telemetry"),
            Flag::switch("--cpi"),
        ],
        args,
    );
    let mode = ok(a.get("--mode")).unwrap_or(Mode::watchdog());
    let scale = ok(a.get("--scale")).unwrap_or(Scale::Small);
    let Some(name) = a.positional(0) else { usage() };
    let spec = bench_spec(name);
    let (json, telemetry) = (a.has("--json"), a.has("--telemetry"));

    if a.has("--cpi") {
        cmd_run_cpi(spec.name, scale);
        return;
    }

    let cfg = if a.has("--functional") {
        SimConfig::functional(mode)
    } else {
        SimConfig::timed(mode)
    };
    let program = spec.build(scale);
    let sim = Simulator::new(cfg);
    // An instrumented run (for --json or --telemetry) returns the same
    // RunReport, asserted by the telemetry cross-check suite, plus the
    // out-of-band RunTelemetry.
    let run = match json || telemetry {
        true => sim.run_instrumented(&program).map(|(r, t)| (r, Some(t))),
        false => sim.run(&program).map(|r| (r, None)),
    };
    let (report, tele) = run.unwrap_or_else(|e| {
        eprintln!("simulation failed: {e}");
        std::process::exit(1);
    });
    if json {
        // Machine-readable only: stdout is the document.
        let scale_label = format!("{scale:?}").to_lowercase();
        let doc = watchdog::core::run_json(spec.name, &scale_label, &report, tele.as_ref());
        print!("{doc}");
        return;
    }
    println!(
        "benchmark:       {} ({:?}, {scale:?})",
        spec.name, spec.category
    );
    print_report(&report);
    if let Some(tele) = tele {
        println!("telemetry:");
        let reg = watchdog::core::export_metrics(&report, Some(&tele));
        print!("{}", reg.render_human());
    }
}

/// `run --cpi` — the paper's Fig. 8 breakdown with exact cycle
/// accounting: one instrumented timed run per mode, rendering each
/// commit slot's attributed cause (program µops, metadata µops, stall
/// reasons) as a share of `cycles × commit_width`. The rows sum to 100%
/// by construction — the zero-slack invariant the accounting suite pins.
fn cmd_run_cpi(name: &str, scale: Scale) {
    let program = bench_spec(name).build(scale);
    let mut rows = Vec::new();
    let mut width = 0;
    for mode in [
        Mode::Baseline,
        Mode::LocationBased,
        Mode::watchdog_conservative(),
        Mode::watchdog(),
    ] {
        let (report, tele) = Simulator::new(SimConfig::timed(mode))
            .run_instrumented(&program)
            .unwrap_or_else(|e| {
                eprintln!("simulation failed under {}: {e}", mode.label());
                std::process::exit(1);
            });
        let reg = watchdog::core::export_metrics(&report, Some(&tele));
        let get = |n: &str| reg.counter_value(n).unwrap_or(0);
        let sum = |names: &[&str]| -> u64 { names.iter().map(|n| get(&format!("cpi.{n}"))).sum() };
        width = get("cpi.commit_width");
        let slots = get("cpi.slots").max(1) as f64;
        let share = |n: u64| watchdog::bench::pct(n as f64 / slots);
        rows.push((
            mode.label(),
            vec![
                get("cpi.cycles").to_string(),
                format!("{:.2}", reg.gauge_value("timing.ipc").unwrap_or(0.0)),
                share(get("cpi.commit.base")),
                share(sum(&[
                    "commit.check",
                    "commit.ptr_load",
                    "commit.ptr_store",
                    "commit.propagate",
                    "commit.alloc_dealloc",
                ])),
                share(sum(&["stall.fetch", "stall.icache", "stall.redirect"])),
                share(sum(&[
                    "stall.rob_full",
                    "stall.iq_full",
                    "stall.lq_full",
                    "stall.sq_full",
                ])),
                share(get("cpi.stall.fu")),
                share(get("cpi.stall.dep")),
                share(sum(&["stall.tlb_miss", "stall.ll_miss", "stall.l1d_miss"])),
                share(get("cpi.stall.drain")),
            ],
        ));
    }
    watchdog::bench::print_table(
        &format!("CPI stack: {name} at {scale:?} — share of {width}-wide commit slots"),
        &[
            "cycles", "ipc", "prog", "meta", "front", "window", "fu", "dep", "miss", "drain",
        ],
        &rows,
    );
    println!(
        "\nprog/meta = committed program/metadata µop slots; front = fetch+icache+redirect; \
         window = ROB/IQ/LQ/SQ full; miss = TLB/LL$/L1D miss outstanding; drain = pipeline tail."
    );
}

/// Best-effort short git revision for perf-snapshot file names when
/// `--rev` is absent: `git rev-parse --short HEAD` — suffixed with
/// `-dirty` when the working tree has uncommitted changes, so a snapshot
/// taken mid-edit never silently overwrites the committed revision's
/// `BENCH_<rev>.json` — else `unknown`.
fn git_rev() -> String {
    let git = |argv: &[&str]| {
        std::process::Command::new("git")
            .args(argv)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    let Some(rev) = git(&["rev-parse", "--short", "HEAD"])
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
    else {
        return "unknown".to_string();
    };
    // Porcelain output is empty exactly when the tree is clean; treat a
    // failed status probe as clean (same best-effort stance as above).
    let dirty = git(&["status", "--porcelain"]).is_some_and(|s| !s.trim().is_empty());
    if dirty {
        format!("{rev}-dirty")
    } else {
        rev
    }
}

/// `watchdog-cli perf` — measures the perf case list (timing-core drain
/// and functional machine) and writes a `watchdog-bench-v1` snapshot to
/// `BENCH_<rev>.json`, validated with the same parser CI uses before it
/// is written.
fn cmd_perf(args: &[String]) {
    if args.first().map(String::as_str) == Some("compare") {
        cmd_perf_compare(&args[1..]);
        return;
    }
    let a = parse(
        "perf",
        0,
        &[
            Flag::value("--samples", "a positive integer"),
            Flag::value("--filter", "a case-name substring"),
            Flag::value("--out-dir", "a directory"),
            OUT,
            Flag::value("--rev", "a revision label"),
        ],
        args,
    );
    let samples = ok(a.get::<std::num::NonZeroU64>("--samples")).map_or(3, |n| n.get());
    let filter = a.raw("--filter");
    let rev = a.raw("--rev").map_or_else(git_rev, String::from);
    let out = match a.raw("-o") {
        Some(path) => path.to_string(),
        None => {
            // Snapshots accumulate per revision in the history
            // directory, so `perf compare` always has a baseline.
            let dir = a.raw("--out-dir").unwrap_or("bench-history");
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {dir}: {e}");
                std::process::exit(1);
            }
            format!("{dir}/BENCH_{rev}.json")
        }
    };
    let snap = watchdog::bench::perf::perf_snapshot(&rev, samples, filter, |r| {
        println!(
            "{:<40} {:>14.1} ns/iter  ({:.1} Melem/s)",
            r.name, r.ns_per_iter, r.melem_per_s
        );
    });
    if snap.records.is_empty() {
        eprintln!(
            "no perf case matches filter {:?}",
            filter.unwrap_or_default()
        );
        std::process::exit(2);
    }
    let doc = snap.to_json();
    // Self-validate through the shared schema parser before writing —
    // the exact check CI's telemetry smoke step repeats on the artifact.
    if let Err(e) = watchdog::telemetry::BenchSnapshot::from_json(&doc) {
        eprintln!("internal error: snapshot fails its own schema: {e}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(&out, &doc) {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    }
    println!(
        "wrote {} record(s) at rev {rev} ({} samples each) -> {out}",
        snap.records.len(),
        samples
    );
}

/// `watchdog-cli perf compare` — the perf-regression gate: classifies
/// every case of a candidate snapshot against a baseline snapshot with a
/// noise threshold, prints the verdict table, optionally writes the
/// `watchdog-perfdiff-v1` delta report, and exits 1 when any case
/// regressed or lost coverage (the CI failure signal).
fn cmd_perf_compare(args: &[String]) {
    let a = parse(
        "perf compare",
        2,
        &[
            Flag::value("--threshold", "a non-negative number (percent)"),
            OUT,
        ],
        args,
    );
    let (Some(base_path), Some(cand_path)) = (a.positional(0), a.positional(1)) else {
        usage()
    };
    let threshold = ok(a.get::<f64>("--threshold").and_then(|t| match t {
        Some(t) if t.is_nan() || t < 0.0 => Err(format!(
            "--threshold requires a non-negative number, got {t}"
        )),
        t => Ok(t.unwrap_or(watchdog::bench::perfdiff::DEFAULT_THRESHOLD_PCT)),
    }));
    // A missing or unreadable snapshot is a usage error (exit 2), kept
    // distinct from the regression signal (exit 1) so CI wiring mistakes
    // never masquerade as perf verdicts. For the baseline — the usual
    // victim of a stale path — list what `bench-history/` actually holds.
    let load = |path: &str, role: &str| -> watchdog::telemetry::BenchSnapshot {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            let mut avail: Vec<String> = std::fs::read_dir("bench-history")
                .into_iter()
                .flatten()
                .flatten()
                .map(|entry| entry.file_name().to_string_lossy().into_owned())
                .filter(|name| name.ends_with(".json"))
                .collect();
            avail.sort();
            let hint = if avail.is_empty() {
                "no snapshots in bench-history/ — run `watchdog-cli perf` to create one".to_string()
            } else {
                format!("available in bench-history/: {}", avail.join(", "))
            };
            eprintln!("cannot read {role} snapshot {path}: {e} ({hint})");
            std::process::exit(2);
        });
        watchdog::telemetry::BenchSnapshot::from_json(&text).unwrap_or_else(|e| {
            eprintln!("{path}: invalid {role} bench snapshot: {e}");
            std::process::exit(2);
        })
    };
    let diff = watchdog::bench::perfdiff::PerfDiff::compare(
        &load(base_path, "baseline"),
        &load(cand_path, "candidate"),
        threshold,
    );
    let rows: Vec<(String, Vec<String>)> = diff
        .cases
        .iter()
        .map(|c| {
            (
                c.name.clone(),
                vec![
                    format!("{:.1}", c.base_ns),
                    format!("{:.1}", c.cand_ns),
                    format!("{:+.1}%", c.delta_pct),
                    c.verdict.label().to_string(),
                ],
            )
        })
        .collect();
    watchdog::bench::print_table(
        &format!(
            "perf compare: {} -> {} (noise threshold {threshold:.1}%)",
            diff.baseline_rev, diff.candidate_rev
        ),
        &["base ns/iter", "cand ns/iter", "delta", "verdict"],
        &rows,
    );
    if let Some(out) = a.raw("-o") {
        if let Err(e) = std::fs::write(out, diff.to_json()) {
            eprintln!("cannot write {out}: {e}");
            std::process::exit(1);
        }
        println!("\nwrote delta report -> {out}");
    }
    if diff.has_failures() {
        eprintln!(
            "perf compare: FAIL — {} case(s) regressed or lost coverage",
            diff.failures().count()
        );
        std::process::exit(1);
    }
    println!(
        "perf compare: PASS — {} case(s) within {threshold:.1}% of rev {}",
        diff.cases.len(),
        diff.baseline_rev
    );
}

/// `watchdog-cli events validate` — schema-checks a campaign `--events`
/// JSONL flight record against the `watchdog-campaign-events-v1`
/// vocabulary and, with `--ledger`, cross-checks its durable done/fail
/// outcomes against the campaign ledger.
fn cmd_events_validate(args: &[String]) {
    let a = parse(
        "events validate",
        1,
        &[Flag::value("--ledger", "a file path")],
        args,
    );
    let Some(path) = a.positional(0) else { usage() };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let lines = watchdog::campaign::parse_jsonl(&text).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    });
    let summary = watchdog::campaign::validate_events(&lines).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    });
    println!(
        "{path}: {} event line(s) valid against {}",
        summary.lines,
        watchdog::campaign::EVENTS_SCHEMA
    );
    let counts: Vec<String> = summary
        .counts
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("events:          {}", counts.join(" "));
    println!(
        "cells:           {} declared, {} resumed, {} completed in stream{}",
        summary.cells,
        summary.resumed,
        summary.outcomes.len(),
        if summary.end.is_some() {
            ", clean finish"
        } else {
            ", no campaign_end (crashed or still running)"
        }
    );
    if let Some(ledger_path) = a.raw("--ledger") {
        let bytes = std::fs::read(ledger_path).unwrap_or_else(|e| {
            eprintln!("cannot read {ledger_path}: {e}");
            std::process::exit(2);
        });
        let ledger = watchdog::campaign::ledger::parse_ledger(&bytes).unwrap_or_else(|e| {
            eprintln!("{ledger_path}: {e}");
            std::process::exit(1);
        });
        watchdog::campaign::cross_check(&summary, &ledger).unwrap_or_else(|e| {
            eprintln!("cross-check against {ledger_path} failed: {e}");
            std::process::exit(1);
        });
        println!(
            "ledger:          cross-check OK ({} durable record(s) agree)",
            ledger.records.len()
        );
    }
}

fn cmd_events(args: &[String]) {
    match args.first().map(String::as_str) {
        Some("validate") => cmd_events_validate(&args[1..]),
        _ => usage(),
    }
}

/// Prints the standard per-run report block (shared by `run` and
/// `trace replay`, so the two render identically).
fn print_report(report: &RunReport) {
    println!("mode:            {}", report.mode);
    println!("instructions:    {}", report.machine.insts);
    println!("mem accesses:    {}", report.machine.mem_accesses);
    println!(
        "pointer ops:     {} ({:.1}%)",
        report.machine.ptr_classified,
        report.ptr_fraction() * 100.0
    );
    println!(
        "heap:            {} mallocs, {} frees, {} reused, peak {} bytes",
        report.heap.mallocs, report.heap.frees, report.heap.reused, report.heap.peak_live_bytes
    );
    println!(
        "footprint:       {} data words, {} shadow words, {} lock words ({:.1}% / {:.1}% word/page overhead)",
        report.footprint.data_words,
        report.footprint.shadow_words,
        report.footprint.lock_words,
        report.word_overhead() * 100.0,
        report.page_overhead() * 100.0
    );
    if let Some(t) = &report.timing {
        println!("cycles:          {} (IPC {:.2})", t.cycles, t.ipc());
        println!(
            "uops:            {} ({:+.1}% over baseline µops)",
            t.uops,
            t.uop_overhead() * 100.0
        );
        let [base, check, pl, ps, prop, alloc] = t.uops_by_tag;
        println!("  by tag:        base {base}, checks {check}, ptr-loads {pl}, ptr-stores {ps}, propagate {prop}, alloc {alloc}");
        println!(
            "bpred:           {:.2} cond mispredicts/1k branches; {} returns ({} mispredicted)",
            t.bpred.mpki(),
            t.bpred.returns,
            t.bpred.ret_mispredicts
        );
        println!(
            "caches:          L1D {:.2}% miss, LL$ {:.3} misses/1k insts, L2 {:.2}% miss",
            t.hierarchy.l1d.miss_rate() * 100.0,
            t.hierarchy.ll_mpk(t.insts),
            t.hierarchy.l2.miss_rate() * 100.0
        );
        println!(
            "rename:          {} copies eliminated, {} metadata allocs (high water {})",
            t.rename.eliminated_copies, t.rename.meta_allocs, t.rename.meta_high_water
        );
    }
    match report.violation {
        Some(v) => println!("violation:       {v}"),
        None => println!("violation:       none"),
    }
}

/// The named benchmark, or exit 2 with the standard unknown-name message.
fn bench_spec(name: &str) -> watchdog::workloads::BenchSpec {
    benchmark(name).unwrap_or_else(|| {
        eprintln!("unknown benchmark {name:?}; see `watchdog-cli list`");
        std::process::exit(2);
    })
}

/// The trace file `--trace` names; exits 2 when absent, 1 when
/// unreadable.
fn trace_file_arg(a: &Args) -> Trace {
    let Some(path) = a.raw("--trace") else {
        eprintln!("--trace FILE is required");
        std::process::exit(2);
    };
    let bytes = std::fs::read(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    Trace::from_bytes(&bytes).unwrap_or_else(|e| {
        eprintln!("cannot decode {path}: {e}");
        std::process::exit(1);
    })
}

fn cmd_trace_record(args: &[String]) {
    let a = parse("trace record", 1, &[MODE, SCALE, OUT], args);
    let mode = ok(a.get("--mode")).unwrap_or(Mode::watchdog());
    let scale = ok(a.get("--scale")).unwrap_or(Scale::Small);
    let Some(name) = a.positional(0) else { usage() };
    let out = a
        .raw("-o")
        .map_or_else(|| format!("{name}.wdtr"), String::from);
    let program = bench_spec(name).build(scale);
    let trace = record(&program, mode, SimConfig::timed(mode).max_insts).unwrap_or_else(|e| {
        eprintln!("recording failed: {e}");
        std::process::exit(1);
    });
    let bytes = trace.to_bytes();
    std::fs::write(&out, &bytes).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    let info = trace.info();
    println!(
        "recorded {} under {} at {scale:?}: {} events over {} insts, {} bytes ({:.2} B/event) -> {out}",
        info.program, info.mode, info.events, info.insts, bytes.len(), info.bytes_per_event()
    );
}

fn cmd_trace_replay(args: &[String]) {
    let a = parse(
        "trace replay",
        1,
        &[TRACE, SCALE, Flag::switch("--verify")],
        args,
    );
    let scale = ok(a.get("--scale")).unwrap_or(Scale::Small);
    let Some(name) = a.positional(0) else { usage() };
    let trace = trace_file_arg(&a);
    let program = bench_spec(name).build(scale);
    let report = replay(&program, &trace, &ReplayConfig::default()).unwrap_or_else(|e| {
        eprintln!("replay failed: {e}");
        std::process::exit(1);
    });
    println!(
        "benchmark:       {} (replayed from trace, {scale:?})",
        trace.program()
    );
    print_report(&report);
    if a.has("--verify") {
        let live = Simulator::new(SimConfig::timed(trace.mode()))
            .run(&program)
            .unwrap_or_else(|e| {
                eprintln!("live verification run failed: {e}");
                std::process::exit(1);
            });
        if format!("{live:?}") == format!("{report:?}") {
            println!("verify:          replay is oracle-exact (identical RunReport)");
        } else {
            eprintln!("verify:          MISMATCH between live simulation and replay");
            eprintln!("live:   {live:?}");
            eprintln!("replay: {report:?}");
            std::process::exit(1);
        }
    }
}

fn cmd_trace_info(args: &[String]) {
    let a = parse("trace info", 0, &[TRACE], args);
    let trace = trace_file_arg(&a);
    let info = trace.info();
    println!("format version:  {}", info.version);
    println!("program:         {}", info.program);
    println!("fingerprint:     {:#018x}", trace.fingerprint());
    println!("mode:            {}", info.mode);
    println!("instructions:    {}", info.insts);
    println!(
        "events:          {} ({:.3} per instruction)",
        info.events,
        info.events as f64 / info.insts.max(1) as f64
    );
    println!(
        "size:            {} bytes total, {} event bytes ({:.2} B/event)",
        info.total_bytes,
        info.event_bytes,
        info.bytes_per_event()
    );
    println!("outcome:         {}", info.outcome);
}

/// LL$ geometries (KB, ways) the selftest sweeps with one `replay_many`.
const SELFTEST_LL_SWEEP: [(u64, u64); 4] = [(1, 2), (2, 4), (4, 8), (16, 16)];

/// `replay_many` over [`SELFTEST_LL_SWEEP`] against one `replay` per
/// geometry, all from one recording of `program` under `mode`.
fn verify_ll_sweep(program: &Program, mode: Mode) -> Result<(), String> {
    let label = |what: &str| format!("{}/{} LL$ sweep: {what}", program.name(), mode.label());
    let trace = record(program, mode, SimConfig::timed(mode).max_insts)
        .map_err(|e| label(&format!("record failed: {e}")))?;
    let cfgs: Vec<ReplayConfig> = SELFTEST_LL_SWEEP
        .iter()
        .map(|&(kb, ways)| {
            let mut cfg = ReplayConfig::from_sim(&SimConfig::timed(mode));
            cfg.hierarchy.ll = watchdog::mem::CacheConfig::new(kb * 1024, ways, 64);
            cfg
        })
        .collect();
    let many = replay_many(program, &trace, &cfgs)
        .map_err(|e| label(&format!("replay_many failed: {e}")))?;
    for ((cfg, got), (kb, ways)) in cfgs.iter().zip(&many).zip(SELFTEST_LL_SWEEP) {
        let want =
            replay(program, &trace, cfg).map_err(|e| label(&format!("replay failed: {e}")))?;
        let (a, b) = (format!("{want:?}"), format!("{got:?}"));
        if a != b {
            return Err(label(&format!(
                "{kb}KB/{ways}-way point diverges from its own replay\nreplay:      {a}\nreplay_many: {b}"
            )));
        }
    }
    Ok(())
}

/// Record→replay→equivalence smoke: one benchmark plus a band of
/// fuzz-generated programs, each replayed (through a serialization round
/// trip) and compared field-for-field against the live timed simulation.
/// The benchmark is also swept over [`SELFTEST_LL_SWEEP`] with one
/// `replay_many`, each point compared against its own `replay`. Cases are
/// sharded across `--jobs`/`WATCHDOG_JOBS` workers. Exit code 0 = every
/// comparison identical.
fn cmd_trace_selftest(args: &[String], jobs_env: Option<&OsStr>) {
    let a = parse(
        "trace selftest",
        0,
        &[
            Flag::value("--bench", "a benchmark name"),
            SCALE,
            Flag::value("--seeds", "an unsigned integer"),
            JOBS,
        ],
        args,
    );
    let bench_name = a.raw("--bench").unwrap_or("mcf");
    let scale = ok(a.get("--scale")).unwrap_or(Scale::Test);
    let seeds = ok(a.get("--seeds")).unwrap_or(25u64);
    let jobs = ok(a.jobs(jobs_env));
    // One shared recipe (`verify_replay`): live timed run vs.
    // record→serialize→deserialize→replay, compared field-for-field — the
    // same helper the workspace equivalence tests assert with, so the CI
    // smoke and tier-1 can never check different properties.
    let program = bench_spec(bench_name).build(scale);
    let gen_cfg = watchdog::gen::GenConfig::default();
    let cases: Vec<(Program, Mode)> = [Mode::watchdog_conservative(), Mode::watchdog()]
        .into_iter()
        .map(|m| (program.clone(), m))
        .chain((0..seeds).map(|seed| {
            (
                watchdog::gen::generate(seed, &gen_cfg).program,
                Mode::watchdog_conservative(),
            )
        }))
        .collect();
    // The benchmark's cases (the first two) also run the LL$ sweep check.
    let sweeps = 2;
    let failures: Vec<String> = watchdog::bench::parallel_map(cases.len(), jobs, |i| {
        let (program, mode) = &cases[i];
        let sweep = (i < sweeps).then(|| verify_ll_sweep(program, *mode));
        [
            verify_replay(program, &SimConfig::timed(*mode)),
            sweep.unwrap_or(Ok(())),
        ]
    })
    .into_iter()
    .flatten()
    .filter_map(Result::err)
    .collect();
    let comparisons = cases.len() + sweeps * SELFTEST_LL_SWEEP.len();
    if failures.is_empty() {
        println!(
            "trace selftest: PASS — {comparisons} record→replay comparisons identical \
             ({bench_name} under cons+isa at {scale:?}, also swept over {} LL$ geometries in \
             one replay_many pass; {seeds} fuzz seeds under cons; {jobs} worker thread(s))",
            SELFTEST_LL_SWEEP.len()
        );
    } else {
        for f in &failures {
            eprintln!("{f}");
        }
        println!(
            "trace selftest: FAIL — {} of {comparisons} comparisons diverged",
            failures.len()
        );
        std::process::exit(1);
    }
}

fn cmd_trace(args: &[String], jobs_env: Option<&OsStr>) {
    match args.first().map(String::as_str) {
        Some("record") => cmd_trace_record(&args[1..]),
        Some("replay") => cmd_trace_replay(&args[1..]),
        Some("info") => cmd_trace_info(&args[1..]),
        Some("selftest") => cmd_trace_selftest(&args[1..], jobs_env),
        _ => usage(),
    }
}

fn cmd_juliet(args: &[String], jobs_env: Option<&OsStr>) {
    let a = parse("juliet", 0, &[MODE, JOBS], args);
    let mode = ok(a.get("--mode")).unwrap_or(Mode::watchdog_conservative());
    // Cases are sharded across the worker pool (`--jobs`/`WATCHDOG_JOBS`);
    // results are merged in suite order, identical to a serial run.
    let outcomes = run_juliet_with_jobs(mode, ok(a.jobs(jobs_env)), None);
    let s = summarize_juliet(&outcomes);
    println!("mode:            {}", mode.label());
    println!(
        "bad detected:    {}/{} (missed or wrong kind: {})",
        s.detected,
        s.cases,
        s.missed + s.wrong_kind
    );
    println!("false positives: {}/{}", s.false_positives, s.cases);
}

fn cmd_fuzz(args: &[String], jobs_env: Option<&OsStr>) {
    // The whole fuzz command line (flags, defaults, repro and campaign
    // reports) is shared with the standalone `fuzz` binary, so the two
    // entry points cannot drift.
    let code = fuzz_main(args, jobs_env);
    if code != 0 {
        std::process::exit(code);
    }
}

fn cmd_campaign(args: &[String], jobs_env: Option<&OsStr>) {
    // Workers are this same binary, re-exec'd as `watchdog-cli worker`.
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("cannot locate own executable to spawn workers: {e}");
        std::process::exit(1);
    });
    std::process::exit(watchdog::campaign::campaign_main(args, exe, jobs_env));
}

fn cmd_worker(args: &[String]) {
    let a = parse("worker", 0, &[Flag::switch("--help").or("-h")], args);
    if a.has("--help") {
        print!("{}", watchdog::campaign::cli::WORKER_HELP);
        return;
    }
    std::process::exit(watchdog::campaign::worker_entry());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let jobs_env = std::env::var_os("WATCHDOG_JOBS");
    let jobs_env = jobs_env.as_deref();
    match args.first().map(String::as_str) {
        Some("list") => {
            parse("list", 0, &[], &args[1..]);
            cmd_list();
        }
        Some("modes") => {
            parse("modes", 0, &[], &args[1..]);
            cmd_modes();
        }
        Some("run") => cmd_run(&args[1..]),
        Some("perf") => cmd_perf(&args[1..]),
        Some("events") => cmd_events(&args[1..]),
        Some("juliet") => cmd_juliet(&args[1..], jobs_env),
        Some("fuzz") => cmd_fuzz(&args[1..], jobs_env),
        Some("trace") => cmd_trace(&args[1..], jobs_env),
        Some("campaign") => cmd_campaign(&args[1..], jobs_env),
        Some("worker") => cmd_worker(&args[1..]),
        _ => usage(),
    }
}
