//! Order statistics, the per-workload summary of a directory of result
//! files, and the compare rule of choosing-metrics §8.
//!
//! `perfbench summarize DIR` prints, per workload and trace setting, one
//! row holding every metric's median, quartiles and sample count.
//!
//! `perfbench compare PARENT CHANGE` pairs the runs of the two
//! directories by seed (interleave them when collecting: parent, change,
//! parent, ...). A metric **improved** when the change wins at least nine
//! tenths of the pairs (ties count for neither side) and the medians
//! differ by more than the parent's interquartile spread; it
//! **regressed** under the mirror condition or when the change's median
//! is worse than the parent's by more than the metric's bound. A metric
//! whose parent spread exceeds its bound is **unresolved** unless every
//! change run beats every parent run.

use std::collections::BTreeMap;
use std::path::Path;

use watchdog_telemetry::JsonValue;

use crate::{Better, END_TO_END, PER_LAYER};

/// Schema tag of a result file.
pub const SCHEMA: &str = "watchdog-perfbench-v1";

/// Median of `xs` (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// First quartile, median and third quartile, by the same rule as
/// Python's `statistics.quantiles(xs, n=4)` (the "exclusive" method).
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| !x.is_nan()).collect();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (v[0], v[0], v[0]),
        _ => {
            let q = |i: usize| {
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(2), q(3))
        }
    }
}

/// One result file, reduced to what the summary and compare steps use.
struct Run {
    workload: String,
    trace: bool,
    seed: u64,
    unix_ms: u64,
    metrics: BTreeMap<String, f64>,
}

fn load_runs(dir: &Path) -> Result<Vec<Run>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut runs = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let Ok(v) = JsonValue::parse(&text) else {
            continue;
        };
        if v.get("schema").and_then(JsonValue::as_str) != Some(SCHEMA) {
            continue;
        }
        let mut metrics = BTreeMap::new();
        if let Some(JsonValue::Obj(pairs)) = v.get("metrics") {
            for (name, m) in pairs {
                if let Some(x) = m.get("value").and_then(JsonValue::as_f64) {
                    metrics.insert(name.clone(), x);
                }
            }
        }
        runs.push(Run {
            workload: v
                .get("workload")
                .and_then(JsonValue::as_str)
                .unwrap_or("?")
                .to_string(),
            trace: matches!(v.get("trace"), Some(JsonValue::Bool(true))),
            seed: v.get("seed").and_then(JsonValue::as_u64).unwrap_or(0),
            unix_ms: v.get("unix_ms").and_then(JsonValue::as_u64).unwrap_or(0),
            metrics,
        });
    }
    runs.sort_by_key(|r| (r.seed, r.unix_ms));
    Ok(runs)
}

/// Metric names in report order for a trace setting.
fn metric_names(trace: bool) -> Vec<(&'static str, Better, f64)> {
    if trace {
        PER_LAYER
            .iter()
            .map(|(n, _, b)| (*n, *b, f64::INFINITY))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(n, _, b, bound)| (*n, *b, *bound))
            .collect()
    }
}

/// `perfbench summarize DIR`.
pub fn summarize_main(args: &[String]) -> i32 {
    let Some(dir) = args.first() else {
        eprintln!("usage: perfbench summarize DIR");
        return 2;
    };
    let runs = match load_runs(Path::new(dir)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let mut groups: BTreeMap<(String, bool), Vec<&Run>> = BTreeMap::new();
    for r in &runs {
        groups
            .entry((r.workload.clone(), r.trace))
            .or_default()
            .push(r);
    }
    for ((workload, trace), rs) in &groups {
        let mut row = format!("{workload} trace={} n={}", u8::from(*trace), rs.len());
        for (name, _, _) in metric_names(*trace) {
            let xs: Vec<f64> = rs
                .iter()
                .filter_map(|r| r.metrics.get(name).copied())
                .collect();
            if xs.is_empty() {
                continue;
            }
            let (q1, q2, q3) = quartiles(&xs);
            row.push_str(&format!(
                " | {name} {q2:.6} [{q1:.6}, {q3:.6}] n={}",
                xs.len()
            ));
        }
        println!("{row}");
    }
    0
}

/// Verdict of one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change is better by the §8 rule.
    Improved,
    /// The change is worse by the §8 rule, or beyond the bound.
    Regressed,
    /// Within the bound.
    Unchanged,
    /// The parent's own spread exceeds the bound.
    Unresolved,
}

/// Applies the compare rule to paired samples (`parent[i]` and
/// `change[i]` ran back to back).
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let sign = match better {
        Better::Lower => -1.0,
        Better::Higher => 1.0,
    };
    let pairs = parent.len().min(change.len());
    let (mut wins, mut losses) = (0usize, 0usize);
    for (p, c) in parent.iter().zip(change) {
        let d = (c - p) * sign;
        if d > 0.0 {
            wins += 1;
        } else if d < 0.0 {
            losses += 1;
        }
    }
    let (p1, pm, p3) = quartiles(parent);
    let cm = median(change);
    let spread = p3 - p1;
    let moved = (cm - pm).abs() > spread;
    let need = (pairs as f64 * 0.9).ceil() as usize;
    if pairs > 0 && wins >= need && moved {
        return Verdict::Improved;
    }
    if pairs > 0 && losses >= need && moved {
        return Verdict::Regressed;
    }
    let worse_by = (pm - cm) * sign / pm.abs().max(f64::MIN_POSITIVE);
    if spread / pm.abs().max(f64::MIN_POSITIVE) > bound {
        let all_better = change
            .iter()
            .all(|c| parent.iter().all(|p| (c - p) * sign > 0.0));
        return if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// `perfbench compare PARENT CHANGE`.
pub fn compare_main(args: &[String]) -> i32 {
    let (Some(a), Some(b)) = (args.first(), args.get(1)) else {
        eprintln!("usage: perfbench compare PARENT_DIR CHANGE_DIR");
        return 2;
    };
    let (parent, change) = match (load_runs(Path::new(a)), load_runs(Path::new(b))) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let mut regressed = false;
    let workloads: std::collections::BTreeSet<(String, bool)> = parent
        .iter()
        .map(|r| (r.workload.clone(), r.trace))
        .collect();
    for (workload, trace) in workloads {
        let pick = |runs: &[Run]| -> Vec<BTreeMap<String, f64>> {
            runs.iter()
                .filter(|r| r.workload == workload && r.trace == trace)
                .map(|r| r.metrics.clone())
                .collect()
        };
        let (p, c) = (pick(&parent), pick(&change));
        let mut row = format!(
            "{workload} trace={} pairs={}",
            u8::from(trace),
            p.len().min(c.len())
        );
        for (name, better, bound) in metric_names(trace) {
            let xs: Vec<f64> = p.iter().filter_map(|m| m.get(name).copied()).collect();
            let ys: Vec<f64> = c.iter().filter_map(|m| m.get(name).copied()).collect();
            if xs.is_empty() || ys.is_empty() {
                continue;
            }
            let v = verdict(&xs, &ys, better, bound);
            regressed |= v == Verdict::Regressed && !trace;
            row.push_str(&format!(
                " | {name} {:.6} -> {:.6} {v:?}",
                median(&xs),
                median(&ys)
            ));
        }
        println!("{row}");
    }
    i32::from(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn verdict_needs_nine_tenths_of_pairs_and_a_move_past_the_spread() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0];
        let faster: Vec<f64> = parent.iter().map(|x| x * 0.9).collect();
        assert_eq!(
            verdict(&parent, &faster, Better::Lower, 0.1),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&parent, &faster, Better::Higher, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&parent, &parent, Better::Lower, 0.1),
            Verdict::Unchanged
        );
        let noisy = [5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0];
        assert_eq!(
            verdict(&noisy, &noisy, Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }
}
