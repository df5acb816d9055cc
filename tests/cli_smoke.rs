//! Smoke tests for the `watchdog-cli` binary: every documented mode string
//! parses, and the `list`/`run`/`juliet` subcommands execute on tiny
//! programs without panicking.

use std::process::{Command, Output};

/// All mode spellings documented by `watchdog-cli modes` and the README.
const MODE_STRINGS: &[&str] = &[
    "base",
    "baseline",
    "location",
    "location-based",
    "cons",
    "conservative",
    "isa",
    "watchdog",
    "isa-assisted",
    "no-ll",
    "no-lock-cache",
    "ideal-shadow",
    "bounds1",
    "bounds-fused",
    "bounds2",
    "bounds-split",
];

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_watchdog-cli"))
        .args(args)
        .output()
        .expect("watchdog-cli spawns")
}

fn stdout_of(args: &[&str]) -> String {
    let out = cli(args);
    assert!(
        out.status.success(),
        "watchdog-cli {args:?} failed (status {:?}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn list_prints_the_twenty_benchmarks() {
    let out = stdout_of(&["list"]);
    // Header plus the paper's twenty SPEC lookalikes.
    assert_eq!(out.lines().count(), 21, "unexpected listing:\n{out}");
    for name in ["lbm", "mcf", "perl", "gzip", "hmmer"] {
        assert!(out.contains(name), "{name} missing from:\n{out}");
    }
}

#[test]
fn modes_subcommand_covers_every_documented_spelling() {
    // `modes` itself round-trips the canonical spellings through
    // parse_mode (it unwraps), so success proves they all parse.
    let out = stdout_of(&["modes"]);
    assert_eq!(out.lines().count(), 8, "unexpected mode table:\n{out}");
}

#[test]
fn every_mode_string_is_accepted_by_run() {
    // An unknown mode exits with a usage error before simulating, so a
    // successful tiny run proves the spelling parsed.
    for mode in MODE_STRINGS {
        let out = stdout_of(&[
            "run",
            "lbm",
            "--mode",
            mode,
            "--functional",
            "--scale",
            "test",
        ]);
        assert!(out.contains("violation:       none"), "mode {mode}:\n{out}");
    }
}

#[test]
fn run_rejects_unknown_mode_and_benchmark() {
    assert!(!cli(&["run", "lbm", "--mode", "nonsense"]).status.success());
    assert!(!cli(&["run", "nonsense"]).status.success());
    assert!(!cli(&["nonsense"]).status.success());
}

#[test]
fn run_rejects_unknown_flags_and_missing_values() {
    // Each of these must stop with the usage text before simulating,
    // never fall back to a default report.
    for args in [
        &["run", "mcf", "--scale", "test", "--sampled"][..],
        &["run", "mcf", "--scale", "test", "--sampeld"],
        &["run", "mcf", "--scale", "test", "--mode"],
        &["run", "mcf", "--scale"],
    ] {
        let out = cli(args);
        assert_eq!(out.status.code(), Some(2), "watchdog-cli {args:?}");
        assert!(
            out.stdout.is_empty(),
            "watchdog-cli {args:?} printed a report"
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "watchdog-cli {args:?} must print usage"
        );
    }
}

#[test]
fn timed_run_reports_cycles() {
    let out = stdout_of(&["run", "comp", "--scale", "test", "--mode", "cons"]);
    assert!(
        out.contains("cycles:"),
        "timed run must report cycles:\n{out}"
    );
    assert!(out.contains("IPC"), "timed run must report IPC:\n{out}");
}

#[test]
fn run_json_emits_the_stable_schema() {
    let out = stdout_of(&["run", "mcf", "--scale", "test", "--mode", "cons", "--json"]);
    let doc = watchdog::telemetry::JsonValue::parse(&out).expect("run --json parses");
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some(watchdog::core::RUN_SCHEMA)
    );
    assert_eq!(doc.get("benchmark").and_then(|v| v.as_str()), Some("mcf"));
    assert_eq!(doc.get("scale").and_then(|v| v.as_str()), Some("test"));
    // Deterministic metrics under `sim`, host timings under `host`, one
    // `units` object labelling both.
    let sim = doc.get("sim").expect("sim object");
    for key in [
        "run.insts",
        "timing.cycles",
        "timing.ipc",
        "mem.ll.accesses",
        "profile.insts",
        "cpi.slots",
        "feed.batches",
    ] {
        assert!(sim.get(key).is_some(), "{key} missing from sim:\n{out}");
    }
    let host = doc.get("host").expect("host object");
    for key in ["host.run.ns", "host.fill.ns", "host.consume.ns"] {
        assert!(host.get(key).is_some(), "{key} missing from host:\n{out}");
        assert!(sim.get(key).is_none(), "{key} leaked into sim:\n{out}");
    }
    // Simulated cycles per host nanosecond, under the matching unit.
    assert!(host
        .get("host.cycles_per_ns")
        .and_then(|v| v.as_f64())
        .is_some_and(|r| r > 0.0));
    let units = doc.get("units").expect("units object");
    assert_eq!(
        units.get("host.cycles_per_ns").and_then(|v| v.as_str()),
        Some("per_ns")
    );
    assert_eq!(
        units.get("timing.cycles").and_then(|v| v.as_str()),
        Some("cycles")
    );
    // A second run of the same cell has an identical `sim` object.
    let again = stdout_of(&["run", "mcf", "--scale", "test", "--mode", "cons", "--json"]);
    let again = watchdog::telemetry::JsonValue::parse(&again).expect("run --json parses");
    assert_eq!(again.get("sim"), Some(sim), "sim differs between two runs");
    // The human-readable telemetry view renders the same registry.
    let out = stdout_of(&[
        "run",
        "mcf",
        "--scale",
        "test",
        "--mode",
        "cons",
        "--telemetry",
    ]);
    assert!(out.contains("telemetry:"), "{out}");
    for row in ["profile.insts", "host.fill.ns", "host.consume.ns"] {
        assert!(out.contains(row), "{row} missing:\n{out}");
    }
}

#[test]
fn perf_writes_a_validating_bench_snapshot() {
    let dir = std::env::temp_dir().join(format!("wdperf-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("bench.json");
    let path_s = path.to_str().expect("utf-8 temp path");

    let out = stdout_of(&[
        "perf",
        "--samples",
        "1",
        "--filter",
        "mcf_wheel",
        "-o",
        path_s,
        "--rev",
        "smoke",
    ]);
    assert!(out.contains("mcf_wheel"), "{out}");

    let text = std::fs::read_to_string(&path).expect("snapshot written");
    let snap = watchdog::telemetry::BenchSnapshot::from_json(&text)
        .expect("snapshot passes the shared validator");
    assert_eq!(snap.rev, "smoke");
    assert!(
        snap.records
            .iter()
            .any(|r| r.name == "timing_wheel/mcf_wheel"),
        "expected case missing: {:?}",
        snap.records.iter().map(|r| &r.name).collect::<Vec<_>>()
    );
    assert!(
        snap.records
            .iter()
            .all(|r| r.ns_per_iter > 0.0 && r.iterations > 0),
        "degenerate measurements: {:?}",
        snap.records
    );

    // An over-narrow filter is an error, not an empty snapshot.
    assert!(!cli(&["perf", "--filter", "no-such-case"]).status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_cpi_renders_all_four_modes_with_full_shares() {
    let out = stdout_of(&["run", "mcf", "--cpi", "--scale", "test"]);
    assert!(out.contains("CPI stack: mcf"), "{out}");
    for row in [
        "baseline",
        "location-based",
        "watchdog/conservative",
        "watchdog/isa-assisted",
    ] {
        assert!(out.contains(row), "mode row {row} missing:\n{out}");
    }
    for col in [
        "cycles", "prog", "meta", "front", "fu", "dep", "miss", "drain",
    ] {
        assert!(out.contains(col), "column {col} missing:\n{out}");
    }
    // Watchdog modes must attribute some committed slots to metadata
    // µops — the Fig. 8 signal the table exists to show.
    let meta_share = |mode: &str| -> f64 {
        let line = out.lines().find(|l| l.starts_with(mode)).unwrap();
        let cells: Vec<&str> = line.split_whitespace().collect();
        cells[4].trim_end_matches('%').parse().unwrap()
    };
    assert_eq!(meta_share("baseline"), 0.0, "{out}");
    assert!(meta_share("watchdog/conservative") > 0.0, "{out}");
}

#[test]
fn perf_compare_gates_on_the_noise_threshold() {
    let dir = std::env::temp_dir().join(format!("wdperfdiff-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snap = |rev: &str, ns: f64| {
        format!(
            r#"{{"schema":"watchdog-bench-v1","rev":"{rev}","records":[{{"name":"timing_wheel/x","ns_per_iter":{ns},"melem_per_s":0.0,"iterations":3}}]}}"#
        )
    };
    let base = dir.join("base.json");
    let fast = dir.join("fast.json");
    let slow = dir.join("slow.json");
    std::fs::write(&base, snap("aaa", 100.0)).unwrap();
    std::fs::write(&fast, snap("bbb", 104.0)).unwrap();
    std::fs::write(&slow, snap("ccc", 150.0)).unwrap();
    let (base, fast, slow) = (
        base.to_str().unwrap(),
        fast.to_str().unwrap(),
        slow.to_str().unwrap(),
    );

    // Within the threshold: pass, exit 0.
    let out = stdout_of(&["perf", "compare", base, fast]);
    assert!(out.contains("PASS"), "{out}");

    // Past the threshold: regress verdict, exit 1, delta report written.
    let delta = dir.join("delta.json");
    let delta_s = delta.to_str().unwrap();
    let out = cli(&["perf", "compare", base, slow, "-o", delta_s]);
    assert_eq!(out.status.code(), Some(1), "regression must exit 1");
    assert!(String::from_utf8_lossy(&out.stdout).contains("regress"));
    let doc = watchdog::telemetry::JsonValue::parse(&std::fs::read_to_string(&delta).unwrap())
        .expect("delta report parses");
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some("watchdog-perfdiff-v1")
    );

    // A generous explicit threshold lets the same pair pass.
    let out = stdout_of(&["perf", "compare", base, slow, "--threshold", "60"]);
    assert!(out.contains("PASS"), "{out}");

    // Unreadable snapshots are usage errors, not verdicts.
    assert_eq!(
        cli(&["perf", "compare", base, "/nonexistent.json"])
            .status
            .code(),
        Some(2)
    );

    // A missing *baseline* additionally points at the snapshot history
    // (the actionable fix when CI's baseline path goes stale).
    let out = cli(&["perf", "compare", "/nonexistent-base.json", base]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("baseline snapshot /nonexistent-base.json") && err.contains("bench-history"),
        "baseline error must name the role and the history directory: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn events_validate_checks_schema_and_ledger_agreement() {
    let dir = std::env::temp_dir().join(format!("wdevents-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ledger = dir.join("micro.wdlg");
    let events = dir.join("micro.events.jsonl");
    let (ledger_s, events_s) = (ledger.to_str().unwrap(), events.to_str().unwrap());

    let out = stdout_of(&[
        "campaign", "--seeds", "5", "--jobs", "2", "--ledger", ledger_s, "--events", events_s,
        "--quiet",
    ]);
    assert!(out.contains("result    : PASS"), "{out}");

    let out = stdout_of(&["events", "validate", events_s, "--ledger", ledger_s]);
    assert!(
        out.contains("valid against watchdog-campaign-events-v1"),
        "{out}"
    );
    assert!(out.contains("clean finish"), "{out}");
    assert!(out.contains("cross-check OK"), "{out}");

    // A stream whose verdicts disagree with the durable ledger must
    // fail the cross-check: flip every done event's verdict to a
    // failure while the ledger still records passes.
    let text = std::fs::read_to_string(&events).unwrap();
    let forged = text.replace("\"ok\":true", "\"ok\":false");
    std::fs::write(&events, forged).unwrap();
    let out = cli(&["events", "validate", events_s, "--ledger", ledger_s]);
    assert_eq!(out.status.code(), Some(1), "forged stream must fail");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("cross-check"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Structurally broken JSONL fails without a ledger at all.
    std::fs::write(&events, "{\"t_ms\":0.0}\n").unwrap();
    assert_eq!(
        cli(&["events", "validate", events_s]).status.code(),
        Some(1)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn juliet_suite_detects_everything_under_watchdog() {
    let out = stdout_of(&["juliet", "--mode", "cons"]);
    assert!(
        out.contains("bad detected:    291/291"),
        "detection regressed:\n{out}"
    );
    assert!(
        out.contains("false positives: 0/291"),
        "false positives appeared:\n{out}"
    );
}

#[test]
fn trace_record_info_replay_round_trip() {
    let dir = std::env::temp_dir().join(format!("wdtrace-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("gzip.wdtr");
    let path = path.to_str().expect("utf-8 temp path");

    let out = stdout_of(&[
        "trace", "record", "gzip", "--mode", "cons", "--scale", "test", "-o", path,
    ]);
    assert!(out.contains("recorded gzip"), "{out}");

    let out = stdout_of(&["trace", "info", "--trace", path]);
    assert!(out.contains("watchdog/conservative"), "{out}");
    assert!(out.contains("outcome:         halted"), "{out}");

    // --verify re-runs the live timed simulation and demands an identical
    // RunReport, so a successful exit is an end-to-end equivalence check.
    let out = stdout_of(&[
        "trace", "replay", "gzip", "--trace", path, "--scale", "test", "--verify",
    ]);
    assert!(out.contains("oracle-exact"), "{out}");
    assert!(out.contains("cycles:"), "replay reports timing:\n{out}");

    // A trace never silently replays against the wrong program or scale.
    assert!(
        !cli(&["trace", "replay", "mcf", "--trace", path, "--scale", "test"])
            .status
            .success()
    );
    assert!(
        !cli(&["trace", "replay", "gzip", "--trace", path, "--scale", "small"])
            .status
            .success()
    );
    assert!(!cli(&["trace", "info", "--trace", "/nonexistent.wdtr"])
        .status
        .success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn campaign_and_worker_help_texts_print() {
    let out = stdout_of(&["campaign", "--help"]);
    for flag in [
        "--seeds",
        "--jobs",
        "--ledger",
        "--resume",
        "--fault",
        "--timeout-secs",
    ] {
        assert!(out.contains(flag), "{flag} missing from help:\n{out}");
    }
    let out = stdout_of(&["worker", "--help"]);
    assert!(out.contains("WATCHDOG_FAULT"), "{out}");
    assert!(out.contains("stdin/stdout"), "{out}");
}

#[test]
fn campaign_flag_errors_list_the_valid_alternatives_and_exit_2() {
    let cases: &[(&[&str], &str)] = &[
        (&["campaign", "--seedz", "5"], "valid flags are"),
        (&["campaign", "--timeout-secs", "0"], "positive integer"),
        (&["campaign", "--seeds", "many"], "unsigned integer"),
        (&["campaign", "--jobs", "0"], "positive"),
        // `fuzz` is the one-seed repro; its usage points many-seed runs
        // at `campaign`.
        (&["fuzz", "--seeds", "1"], "valid flags are --seed"),
        (&["fuzz", "--seeds", "1"], "many seeds: campaign"),
        (&["fuzz"], "run many seeds with `watchdog-cli campaign`"),
        (&["juliet", "--jobs", "0"], "positive"),
        (&["trace", "selftest", "--jobs", "0"], "positive"),
        (
            &["campaign", "--fault", "boom@1"],
            "panic, exit, hang, corrupt, truncate",
        ),
        (&["campaign", "--ledger"], "requires a value"),
    ];
    for (args, needle) in cases {
        let out = cli(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "{args:?}: {needle:?} not in:\n{err}");
    }
}

#[test]
fn micro_campaign_runs_and_resumes() {
    let dir = std::env::temp_dir().join(format!("wdlg-cli-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("micro.wdlg");
    let path = path.to_str().expect("utf-8 temp path");

    let out = stdout_of(&[
        "campaign", "--seeds", "4", "--jobs", "2", "--ledger", path, "--quiet",
    ]);
    assert!(out.contains("result    : PASS"), "{out}");
    assert!(out.contains("ran       : 4"), "{out}");
    let fuzz_lines = |out: &str| -> Vec<String> {
        out.lines()
            .filter(|l| l.contains("oracles   :") || l.contains("sims      :"))
            .map(String::from)
            .collect()
    };
    let fresh = fuzz_lines(&out);
    assert_eq!(fresh.len(), 2, "{out}");
    assert!(fresh[0].contains("violating") && fresh[1].contains("guest insts"));

    // Resuming a completed campaign schedules nothing, still passes and
    // reports the same oracle split, simulations and instructions.
    let out = stdout_of(&[
        "campaign", "--seeds", "4", "--jobs", "2", "--ledger", path, "--quiet", "--resume",
    ]);
    assert!(out.contains("resumed   : 4"), "{out}");
    assert!(out.contains("ran       : 0"), "{out}");
    assert!(out.contains("result    : PASS"), "{out}");
    assert_eq!(fuzz_lines(&out), fresh, "{out}");

    // One seed's repro prints the case and its verdict.
    let out = stdout_of(&["fuzz", "--seed", "3"]);
    assert!(out.contains("seed:       3"), "{out}");
    assert!(out.contains("PASS: "), "{out}");

    // A worker fed a clean EOF on stdin exits 0 (the shutdown path the
    // coordinator uses when it closes the pipe).
    let worker = Command::new(env!("CARGO_BIN_EXE_watchdog-cli"))
        .arg("worker")
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::piped())
        .output()
        .expect("worker spawns");
    assert!(
        worker.status.success(),
        "worker EOF exit: {:?}",
        worker.status
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_selftest_smoke_passes() {
    let out = stdout_of(&[
        "trace", "selftest", "--bench", "gzip", "--scale", "test", "--seeds", "3",
    ]);
    assert!(out.contains("trace selftest: PASS"), "{out}");
}

/// Runs `watchdog-cli args` with `WATCHDOG_JOBS` set to `jobs_env` (or
/// unset) and asserts a flag error: exit 2, `needle` named on stderr, and
/// nothing on stdout.
fn assert_flag_error(args: &[&str], jobs_env: Option<&str>, needle: &str) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_watchdog-cli"));
    cmd.args(args).env_remove("WATCHDOG_JOBS");
    if let Some(v) = jobs_env {
        cmd.env("WATCHDOG_JOBS", v);
    }
    let out = cmd.output().expect("watchdog-cli spawns");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "watchdog-cli {args:?} (WATCHDOG_JOBS={jobs_env:?}) must exit 2:\n{err}"
    );
    assert!(
        err.contains(needle),
        "watchdog-cli {args:?}: {needle:?} not named on stderr:\n{err}"
    );
    assert!(
        out.stdout.is_empty(),
        "watchdog-cli {args:?} printed output:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn every_front_end_rejects_bad_flags_before_it_simulates() {
    // (command words, a flag it reads with a value, a bad value for it
    // or None when its values are free-form paths, whether it reads
    // WATCHDOG_JOBS). Each case must fail fast: a flag error exits before
    // any simulation, file access or campaign starts.
    let commands: &[(&[&str], &str, Option<&str>, bool)] = &[
        (&["run", "mcf"], "--mode", Some("nope"), false),
        (&["trace", "record", "mcf"], "--scale", Some("huge"), false),
        (
            &["trace", "replay", "mcf", "--trace", "x.wdtr"],
            "--scale",
            Some("huge"),
            false,
        ),
        (&["trace", "info"], "--trace", None, false),
        (&["trace", "selftest"], "--seeds", Some("many"), true),
        (&["perf"], "--samples", Some("0"), false),
        (
            &["perf", "compare", "a.json", "b.json"],
            "--threshold",
            Some("-5"),
            false,
        ),
        (&["juliet"], "--mode", Some("nope"), true),
        (&["fuzz"], "--seed", Some("many"), false),
        (&["events", "validate", "x.jsonl"], "--ledger", None, false),
        (&["campaign"], "--retries", Some("many"), true),
    ];
    for &(words, flag, bad, reads_jobs) in commands {
        let with = |extra: &[&'static str]| -> Vec<&'static str> {
            words.iter().chain(extra).copied().collect()
        };
        assert_flag_error(&with(&["--bogus"]), None, "--bogus");
        assert_flag_error(&with(&[flag]), None, flag);
        assert_flag_error(&with(&[flag, "v", flag, "v"]), None, flag);
        if let Some(bad) = bad {
            assert_flag_error(&with(&[flag, bad]), None, flag);
        }
        if reads_jobs {
            assert_flag_error(&with(&[]), Some("0"), "WATCHDOG_JOBS");
            assert_flag_error(&with(&["--jobs", "0"]), None, "--jobs");
        }
    }
    // The misparses the lax parsers let through, word for word.
    assert_flag_error(
        &["campaign", "--seeds", "3", "--seed-strat", "500"],
        None,
        "--seed-strat",
    );
    assert_flag_error(&["trace", "record", "mcf", "--mode"], None, "--mode");
    assert_flag_error(&["campaign", "--seeds", "2"], Some("0"), "WATCHDOG_JOBS");
    assert_flag_error(&["juliet", "--mode", "nope"], None, "\"nope\"");
    // `run --cpi` prints its own four-mode table, so every flag that
    // would shape a single run is a conflict, not silently dropped.
    for (extra, flag) in [
        (&["--json"][..], "--json"),
        (&["--functional"], "--functional"),
        (&["--telemetry"], "--telemetry"),
        (&["--mode", "isa"], "--mode"),
    ] {
        let args: Vec<&str> = ["run", "mcf", "--scale", "test", "--cpi"]
            .into_iter()
            .chain(extra.iter().copied())
            .collect();
        assert_flag_error(&args, None, flag);
    }
}
