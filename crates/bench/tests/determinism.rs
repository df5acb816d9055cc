//! The parallel runners must be pure performance optimisations: fanning
//! the (benchmark × mode) grid or the Juliet suite across worker threads
//! may not change a single byte of the results relative to a serial run.
//! (The multi-process fuzz campaign's equivalent is
//! `tests/campaign_faults.rs` and `tests/campaign_resume.rs`: its ledger
//! equals the serial one byte for byte.)

use watchdog_bench::{run_juliet_with_jobs, run_suite_with_jobs, summarize_juliet};
use watchdog_core::prelude::*;
use watchdog_workloads::Scale;

/// Serial (`jobs = 1`) and parallel (`jobs = 4`) runs of the full suite
/// under two modes at [`Scale::Test`] must render identically — same
/// benchmarks, same mode labels, same statistics, in the same
/// [`std::collections::BTreeMap`] order.
#[test]
fn parallel_suite_is_byte_identical_to_serial() {
    let modes = [Mode::Baseline, Mode::watchdog_conservative()];
    let serial = run_suite_with_jobs(&modes, Scale::Test, false, 1);
    let parallel = run_suite_with_jobs(&modes, Scale::Test, false, 4);

    assert_eq!(serial.len(), 20);
    assert_eq!(parallel.len(), 20);
    for per_mode in serial.values() {
        assert_eq!(per_mode.len(), modes.len());
    }

    // Byte-identical: the full Debug rendering covers every field of every
    // report (stats, heap, footprint, violations) and the map ordering.
    let s = format!("{serial:#?}");
    let p = format!("{parallel:#?}");
    assert_eq!(s, p, "parallel run diverged from the serial run");
}

/// Two parallel runs must also agree with each other (no scheduling
/// sensitivity), including when oversubscribed relative to the machine.
#[test]
fn parallel_suite_is_schedule_insensitive() {
    let modes = [Mode::Baseline];
    let a = run_suite_with_jobs(&modes, Scale::Test, false, 2);
    let b = run_suite_with_jobs(&modes, Scale::Test, false, 16);
    assert_eq!(format!("{a:#?}"), format!("{b:#?}"));
}

/// The sharded Juliet runner (one case per work unit) must render
/// byte-identically to its serial run: same cases, same order, same
/// verdicts, whatever the worker count.
#[test]
fn sharded_juliet_is_byte_identical_to_serial() {
    let mode = Mode::watchdog_conservative();
    let serial = run_juliet_with_jobs(mode, 1, Some(60));
    let parallel = run_juliet_with_jobs(mode, 8, Some(60));
    assert_eq!(serial.len(), 60);
    assert_eq!(
        format!("{serial:#?}"),
        format!("{parallel:#?}"),
        "sharded Juliet run diverged from the serial run"
    );
    let s = summarize_juliet(&serial);
    assert_eq!((s.detected, s.false_positives), (60, 0), "{s:?}");
}
