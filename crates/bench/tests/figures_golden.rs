//! The paper-figure regenerators must print exactly the committed golden
//! output: `all --scale test` byte for byte against
//! `tests/golden/all_test.txt`, a single-figure binary (`fig08`) exactly
//! its own section of that golden, and the trace-driven LL$ sweep
//! (`ablation_ll_size --scale test`) byte for byte against
//! `tests/golden/ablation_ll_size_test.txt`.
//!
//! An intentional change to a figure's numbers or layout means
//! regenerating the golden with
//! `cargo run --release -p watchdog-bench --bin all -- --scale test > tests/golden/all_test.txt`
//! (or `--bin ablation_ll_size -- --scale test --jobs 2 >
//! tests/golden/ablation_ll_size_test.txt` for the sweep).

use std::process::Command;

const GOLDEN: &str = include_str!("../../../tests/golden/all_test.txt");
const LL_SWEEP_GOLDEN: &str = include_str!("../../../tests/golden/ablation_ll_size_test.txt");

/// Runs a bench binary at `--scale test --jobs 2` and returns its stdout.
fn run(exe: &str) -> String {
    let out = Command::new(exe)
        .args(["--scale", "test", "--jobs", "2"])
        .output()
        .expect("bench binary spawns");
    assert!(
        out.status.success(),
        "{exe} failed (status {:?}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// A line-level diff of `want` vs `got`: every differing line number with
/// both sides, plus a note when the line counts differ.
fn diff(want: &str, got: &str) -> String {
    let (w, g): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
    let mut out = String::new();
    for i in 0..w.len().max(g.len()) {
        let (a, b) = (w.get(i), g.get(i));
        if a != b {
            out += &format!(
                "line {}:\n  - {}\n  + {}\n",
                i + 1,
                a.unwrap_or(&"<missing>"),
                b.unwrap_or(&"<missing>")
            );
        }
    }
    if w.len() != g.len() {
        out += &format!("golden has {} lines, output has {}\n", w.len(), g.len());
    }
    out
}

/// The golden's section starting at the `== {title}` header line: the
/// blank line before it through the last line before the next section's
/// blank separator.
fn section(title: &str) -> &'static str {
    let start = GOLDEN
        .find(&format!("\n== {title}"))
        .unwrap_or_else(|| panic!("golden has no {title:?} section"));
    let rest = &GOLDEN[start..];
    let len = rest[1..].find("\n\n== ").map_or(rest.len(), |i| i + 2);
    &rest[..len]
}

#[test]
fn all_matches_the_golden_byte_for_byte() {
    let got = run(env!("CARGO_BIN_EXE_all"));
    assert!(
        got == GOLDEN,
        "`all --scale test` differs from tests/golden/all_test.txt:\n{}",
        diff(GOLDEN, &got)
    );
}

#[test]
fn fig08_prints_exactly_its_golden_section() {
    let want = section("Figure 8:");
    let got = run(env!("CARGO_BIN_EXE_fig08"));
    assert!(
        got == want,
        "`fig08 --scale test` differs from its section of the golden:\n{}",
        diff(want, &got)
    );
}

#[test]
fn ablation_ll_size_matches_its_golden_byte_for_byte() {
    let got = run(env!("CARGO_BIN_EXE_ablation_ll_size"));
    assert!(
        got == LL_SWEEP_GOLDEN,
        "`ablation_ll_size --scale test` differs from tests/golden/ablation_ll_size_test.txt:\n{}",
        diff(LL_SWEEP_GOLDEN, &got)
    );
}
