//! Every bench binary rejects a bad command line before it simulates:
//! an unknown flag, a flag missing its value, a repeated flag, a value
//! that does not parse and a bad `WATCHDOG_JOBS` each exit 2, name the
//! flag or variable on stderr and print nothing on stdout.

use std::process::Command;

/// Runs `exe args` with `WATCHDOG_JOBS` set to `jobs_env` (or unset) and
/// asserts the flag-error contract, with `needle` on stderr.
fn assert_flag_error(exe: &str, args: &[&str], jobs_env: Option<&str>, needle: &str) {
    let mut cmd = Command::new(exe);
    cmd.args(args).env_remove("WATCHDOG_JOBS");
    if let Some(v) = jobs_env {
        cmd.env("WATCHDOG_JOBS", v);
    }
    let out = cmd.output().expect("bench binary spawns");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{exe} {args:?} (WATCHDOG_JOBS={jobs_env:?}) must exit 2:\n{err}"
    );
    assert!(
        err.contains(needle),
        "{exe} {args:?}: {needle:?} not on stderr:\n{err}"
    );
    assert!(
        out.stdout.is_empty(),
        "{exe} {args:?} printed output:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn every_bench_binary_rejects_bad_flags_before_it_simulates() {
    // (binary, a flag to misuse, a bad value for it or None when the
    // binary takes no value flag, whether it reads WATCHDOG_JOBS).
    let bins: &[(&str, &str, Option<&str>, bool)] = &[
        (env!("CARGO_BIN_EXE_fig05"), "--scale", Some("huge"), true),
        (env!("CARGO_BIN_EXE_all"), "--scale", Some("huge"), true),
        (
            env!("CARGO_BIN_EXE_ablation_ll_size"),
            "--scale",
            Some("huge"),
            true,
        ),
        (env!("CARGO_BIN_EXE_juliet"), "--jobs", Some("many"), true),
        (env!("CARGO_BIN_EXE_fuzz"), "--seeds", Some("many"), true),
        (env!("CARGO_BIN_EXE_table1"), "--scale", None, false),
    ];
    for &(exe, flag, bad, reads_jobs) in bins {
        assert_flag_error(exe, &["--bogus"], None, "--bogus");
        assert_flag_error(exe, &[flag], None, flag);
        assert_flag_error(exe, &[flag, "1", flag, "1"], None, flag);
        if let Some(bad) = bad {
            assert_flag_error(exe, &[flag, bad], None, flag);
        }
        if reads_jobs {
            assert_flag_error(exe, &[], Some("0"), "WATCHDOG_JOBS");
            assert_flag_error(exe, &["--jobs", "0"], None, "--jobs");
        }
    }
    // The misparse the lax parsers let through, word for word: a
    // misspelt flag the campaign silently ignored.
    let fuzz = env!("CARGO_BIN_EXE_fuzz");
    assert_flag_error(
        fuzz,
        &["--seeds", "3", "--seed-strat", "500"],
        None,
        "--seed-strat",
    );
}
