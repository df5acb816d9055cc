//! The differential detection harness.
//!
//! For one seed, [`check_generated`] runs the generated program under the
//! full mode matrix and cross-checks every observation against the
//! [`Oracle`] ground truth:
//!
//! | run | assertion |
//! |---|---|
//! | baseline, functional + timed | no violation; timed agrees with functional |
//! | watchdog/conservative, functional + timed | violation kind **and** instruction index match the oracle; timed agrees |
//! | watchdog/isa-assisted, functional + timed | same oracle match (profiling must not miss or over-mark); timed agrees |
//! | watchdog+bounds (fused), functional | same oracle match (all generated accesses are in-bounds) |
//! | location-based, functional | clean on benign programs; **must miss** the location-blind cases — reallocation reuse and pool-allocator sub-object frees (Table 1 / §7) |
//! | benign twin × {cons, isa, location, bounds} | no violation (false-positive check; skipped for benign payloads, whose twin is instruction-identical to the already-checked program) |
//!
//! "Timed agrees with functional" means identical architectural statistics,
//! heap behaviour, footprint and violation ([`RunReport::agrees_with`]) —
//! the timing model may only add cycle data, never change what happened.
//!
//! A failure carries the seed and a one-line repro command. Many seeds run
//! through `watchdog-cli campaign` (crash-isolated workers, a resumable
//! ledger), whose summary prints every failure's repro line.

use crate::script::{Generated, Oracle, Payload};
use std::fmt;
use watchdog_core::prelude::*;
use watchdog_isa::Program;

/// Everything a passing seed reports (compact and `Eq`-comparable; a
/// campaign cell digests it into its ledger record).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffOutcome {
    /// Dynamic instructions of the conservative functional run.
    pub insts: u64,
    /// Simulations performed for this seed.
    pub runs: usize,
    /// Fingerprint of the generated programs + oracle.
    pub program_digest: u64,
    /// Fingerprint of the per-mode results.
    pub report_digest: u64,
}

/// A seed that failed the differential check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffFailure {
    /// The failing seed.
    pub seed: u64,
    /// What diverged.
    pub detail: String,
}

impl fmt::Display for DiffFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed {}: {}\n  repro: watchdog-cli fuzz --seed {}",
            self.seed, self.detail, self.seed
        )
    }
}

use watchdog_mem::hash::{fnv1a, FNV_OFFSET};

/// Checks a report against the oracle: same violation kind, raised at the
/// exact expected instruction.
fn check_oracle(report: &RunReport, oracle: &Oracle) -> Result<(), String> {
    match (report.violation, oracle.expected) {
        (None, None) => Ok(()),
        (Some(v), Some(kind)) => {
            if v.kind != kind {
                Err(format!(
                    "{}: wrong violation kind: expected {kind}, got {} (at instruction {})",
                    report.mode, v.kind, v.pc_index
                ))
            } else if Some(v.pc_index) != oracle.expected_pc {
                Err(format!(
                    "{}: violation at instruction {} but the oracle places it at {:?}",
                    report.mode, v.pc_index, oracle.expected_pc
                ))
            } else {
                Ok(())
            }
        }
        (None, Some(kind)) => Err(format!(
            "{}: MISSED violation: oracle expects {kind} at instruction {:?}",
            report.mode, oracle.expected_pc
        )),
        (Some(v), None) => Err(format!(
            "{}: FALSE POSITIVE: {v} in a program the oracle says is benign",
            report.mode
        )),
    }
}

/// Simulations [`check_generated`] runs for a case with `oracle` when the
/// case passes: the 8-run main matrix, plus the benign twin under cons,
/// isa, location-based and bounds when the oracle expects a violation.
/// Lets a report count simulations from the oracle alone (the campaign
/// ledger records only each seed's verdict).
pub fn matrix_runs(oracle: &Oracle) -> usize {
    if oracle.expected.is_some() {
        12
    } else {
        8
    }
}

/// Runs the full differential matrix for one generated case.
///
/// # Errors
///
/// Returns a [`DiffFailure`] describing the first divergence: a missed or
/// misplaced violation, a false positive, a timed/functional disagreement,
/// a location-based detection where blindness is expected, or a simulator
/// error.
pub fn check_generated(g: &Generated) -> Result<DiffOutcome, DiffFailure> {
    let seed = g.seed;
    let fail = |detail: String| DiffFailure { seed, detail };
    let mut runs = 0usize;
    let mut digest = FNV_OFFSET;
    let mut run = |mode: Mode, timed: bool, p: &Program| -> Result<RunReport, DiffFailure> {
        let sim_cfg = if timed {
            SimConfig::timed(mode)
        } else {
            SimConfig::functional(mode)
        };
        let r = Simulator::new(sim_cfg).run(p).map_err(|e| DiffFailure {
            seed,
            detail: format!("{} of {} failed to simulate: {e}", mode.label(), p.name()),
        })?;
        runs += 1;
        let line = format!(
            "{}|{}|{:?}|{:?}|{:?}|{}|{}\n",
            r.program,
            r.mode,
            r.machine,
            r.heap,
            r.violation,
            r.cycles(),
            r.uops()
        );
        digest = fnv1a(digest, line.as_bytes());
        Ok(r)
    };

    // Baseline: detects nothing, runs to completion.
    let base_f = run(Mode::Baseline, false, &g.program)?;
    if let Some(v) = base_f.violation {
        return Err(fail(format!("baseline reported a violation: {v}")));
    }
    let base_t = run(Mode::Baseline, true, &g.program)?;
    base_f.agrees_with(&base_t).map_err(&fail)?;

    // Watchdog modes: oracle-exact detection, timed == functional.
    let cons = Mode::watchdog_conservative();
    let isa = Mode::watchdog();
    let cons_f = run(cons, false, &g.program)?;
    check_oracle(&cons_f, &g.oracle).map_err(&fail)?;
    let cons_t = run(cons, true, &g.program)?;
    check_oracle(&cons_t, &g.oracle).map_err(&fail)?;
    cons_f.agrees_with(&cons_t).map_err(&fail)?;
    let isa_f = run(isa, false, &g.program)?;
    check_oracle(&isa_f, &g.oracle).map_err(&fail)?;
    let isa_t = run(isa, true, &g.program)?;
    check_oracle(&isa_t, &g.oracle).map_err(&fail)?;
    isa_f.agrees_with(&isa_t).map_err(&fail)?;

    // Full memory safety is a superset: same detections, still no false
    // positives (every generated access is in-bounds by construction).
    let bounds = Mode::WatchdogBounds {
        ptr: PointerId::Conservative,
        uops: BoundsUops::Fused,
    };
    let bounds_f = run(bounds, false, &g.program)?;
    check_oracle(&bounds_f, &g.oracle).map_err(&fail)?;

    // Location-based checking: never a false positive on benign programs,
    // and provably blind to the reallocation payload (Table 1).
    let loc_f = run(Mode::LocationBased, false, &g.program)?;
    if g.oracle.expected.is_none() {
        if let Some(v) = loc_f.violation {
            return Err(fail(format!("location-based false positive: {v}")));
        }
    } else if g.oracle.location_blind {
        if let Some(v) = loc_f.violation {
            return Err(fail(format!(
                "location-based checking unexpectedly caught a location-blind case ({v}) — \
                 the faulting access was supposed to land in *allocated* memory \
                 (recycled chunk or still-live pool region)"
            )));
        }
    }
    if g.oracle.payload == Payload::UseAfterRealloc && cons_f.heap.reused == 0 {
        return Err(fail(
            "reallocation payload never reused a chunk (LIFO assumption broken)".into(),
        ));
    }

    // The benign twin must be clean under every checking mode. For
    // benign payloads the twin is instruction-identical to the program
    // (the payload arm ignores `bad`), and the program itself was already
    // oracle-checked clean under all four modes above — skip the
    // redundant simulations.
    if g.oracle.expected.is_some() {
        for mode in [cons, isa, Mode::LocationBased, bounds] {
            let r = run(mode, false, &g.twin)?;
            if let Some(v) = r.violation {
                return Err(fail(format!(
                    "benign twin raised a false positive under {}: {v}",
                    mode.label()
                )));
            }
        }
    }

    Ok(DiffOutcome {
        insts: cons_f.machine.insts,
        runs,
        program_digest: g.digest(),
        report_digest: digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::{generate, GenConfig};

    #[test]
    fn a_band_of_seeds_passes_the_full_matrix() {
        let cfg = GenConfig::default();
        let mut sizes = std::collections::BTreeSet::new();
        for seed in 0..32 {
            let g = generate(seed, &cfg);
            let o = check_generated(&g).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(o.runs, matrix_runs(&g.oracle), "seed {seed}");
            sizes.insert(o.runs);
        }
        // Both matrix shapes (violating and benign) occur in the band.
        assert_eq!(sizes.len(), 2, "{sizes:?}");
    }

    #[test]
    fn outcome_is_reproducible() {
        let cfg = GenConfig::default();
        let a = check_generated(&generate(7, &cfg)).unwrap();
        let b = check_generated(&generate(7, &cfg)).unwrap();
        assert_eq!(a, b);
        assert!(a.insts > 0);
    }

    #[test]
    fn failures_render_a_repro_command() {
        let f = DiffFailure {
            seed: 99,
            detail: "synthetic".into(),
        };
        let s = f.to_string();
        assert!(s.contains("watchdog-cli fuzz --seed 99"), "{s}");
    }

    #[test]
    fn tampered_oracle_is_rejected() {
        // Sanity-check the checker itself: shift the expected pc by one
        // and the harness must flag the divergence.
        let cfg = GenConfig::default();
        let mut g = (0..200)
            .map(|s| generate(s, &cfg))
            .find(|g| g.oracle.expected.is_some())
            .expect("a violating seed exists");
        g.oracle.expected_pc = g.oracle.expected_pc.map(|pc| pc + 1);
        let err = check_generated(&g).expect_err("tampered oracle must fail");
        assert!(err.detail.contains("oracle places it"), "{}", err.detail);
    }
}
