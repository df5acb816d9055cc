//! Committed digests of each workload's deterministic output.
//!
//! A speed-only change must leave every simulated statistic identical,
//! so every run checks its outputs against digests taken when the
//! benchmark was defined: the `RunReport` of every distinct paper-regen
//! suite and Table 1 cell, the `JulietOutcome` of every Juliet case, and the
//! replay report of every ll-sweep point. A mismatch counts as a failed
//! output. `perfbench bless` rewrites the files after an intentional model
//! change.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::workloads;

const PAPER: &str = include_str!("../golden/paper-regen.txt");
const SWEEP: &str = include_str!("../golden/ll-sweep.txt");

/// FNV-1a, 64 bit.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of a value's `Debug` rendering, which prints every nested
/// statistic of a report.
pub fn debug_digest(v: &impl std::fmt::Debug) -> u64 {
    fnv(format!("{v:?}").as_bytes())
}

/// A parsed digest file: key → digest.
pub struct Golden(pub HashMap<String, u64>);

impl Golden {
    fn parse(text: &str) -> Golden {
        Golden(
            text.lines()
                .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
                .filter_map(|l| {
                    let (k, v) = l.rsplit_once('\t')?;
                    Some((k.to_string(), u64::from_str_radix(v, 16).ok()?))
                })
                .collect(),
        )
    }

    /// The paper-regen cell digests.
    pub fn paper() -> Golden {
        Golden::parse(PAPER)
    }

    /// The ll-sweep replay digests.
    pub fn sweep() -> Golden {
        Golden::parse(SWEEP)
    }

    /// Whether `key` has the committed digest `digest`.
    pub fn matches(&self, key: &str, digest: u64) -> bool {
        self.0.get(key) == Some(&digest)
    }
}

fn render(header: &str, entries: &[(String, u64)]) -> String {
    let mut out = format!(
        "# {header}\n# Written by `perfbench bless`; one `key<TAB>fnv64` line per output.\n"
    );
    for (k, d) in entries {
        let _ = writeln!(out, "{k}\t{d:016x}");
    }
    out
}

/// `perfbench bless`: recomputes every digest from the current code and
/// rewrites the files under `golden/`. Returns the exit code.
pub fn bless_main() -> i32 {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden");
    let jobs = crate::host::jobs();
    let none = Golden(HashMap::new());
    let files = [
        (
            "paper-regen.txt",
            "paper-regen: RunReport (suite, Table 1) or JulietOutcome digest of every distinct output",
            workloads::paper_pass(jobs, &none).digests,
        ),
        (
            "ll-sweep.txt",
            "ll-sweep: replay-report digest of every (benchmark, mode, point)",
            workloads::sweep_pass(jobs, &none).digests,
        ),
    ];
    for (name, header, digests) in files {
        if let Err(e) = std::fs::write(dir.join(name), render(header, &digests)) {
            eprintln!("error: cannot write {name}: {e}");
            return 1;
        }
    }
    eprintln!("wrote {}", dir.display());
    0
}
