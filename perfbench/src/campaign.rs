//! The campaign probe of the traced run: a differential-fuzz campaign
//! through `watchdog_campaign::run_campaign` and its worker processes,
//! with its event log, then every cell again in-process to split the
//! campaign's time into cell work and overhead.

use std::path::{Path, PathBuf};
use std::time::Instant;

use watchdog_campaign::ledger::parse_ledger;
use watchdog_campaign::{
    execute_cell, read_canonical, run_campaign, CampaignConfig, CampaignSpec, CellOutcome,
};

use crate::probes::Metrics;
use crate::spans::ns_since;

/// Paths the campaign uses.
pub struct CampaignFiles {
    /// The worker executable (this binary, as `perfbench worker`).
    pub exe: PathBuf,
    /// Ledger path.
    pub ledger: PathBuf,
    /// Event-log path.
    pub events: PathBuf,
}

/// A finished campaign.
struct Campaign {
    spec: CampaignSpec,
    /// Canonical ledger outcomes, in cell order (empty on error).
    outcomes: Vec<CellOutcome>,
    /// Campaign-level error, if the campaign did not finish.
    error: Option<String>,
    /// Whole-campaign wall time, ns.
    wall_ns: u64,
}

/// Runs a campaign of `count` fuzz seeds from `base` with its event log.
fn run(files: &CampaignFiles, base: u64, count: u64, jobs: usize) -> Campaign {
    let spec = CampaignSpec::fuzz(base, count as usize);
    let mut cfg = CampaignConfig::new(&files.exe);
    cfg.jobs = jobs;
    cfg.events = Some(files.events.clone());
    let _ = std::fs::remove_file(&files.ledger);
    let origin = Instant::now();
    let result = run_campaign(&spec, &cfg, &files.ledger, false);
    let wall_ns = ns_since(origin);
    let (outcomes, error) = match result
        .map_err(|e| e.to_string())
        .and_then(|_| read_canonical(&files.ledger).map_err(|e| e.to_string()))
        .and_then(|bytes| parse_ledger(&bytes).map_err(|e| e.to_string()))
    {
        Ok(parsed) => (
            parsed.records.into_iter().map(|r| r.outcome).collect(),
            None,
        ),
        Err(e) => (Vec::new(), Some(e)),
    };
    let _ = std::fs::remove_file(&files.ledger);
    Campaign {
        spec,
        outcomes,
        error,
        wall_ns,
    }
}

/// Mean spawn-to-hello latency of a campaign's workers, ms, from its
/// event log.
fn mean_hello_ms(events: &Path) -> Option<f64> {
    let text = std::fs::read_to_string(events).ok()?;
    let lines = watchdog_campaign::parse_jsonl(&text).ok()?;
    let hellos: Vec<f64> = lines
        .iter()
        .filter(|l| l.get("event").and_then(|e| e.as_str()) == Some("hello"))
        .filter_map(|l| l.get("latency_ms")?.as_f64())
        .collect();
    (!hellos.is_empty()).then(|| hellos.iter().sum::<f64>() / hellos.len() as f64)
}

/// What the campaign probe measured.
pub struct CampaignProbe {
    /// `campaign.*` metrics.
    pub metrics: Metrics,
    /// Cells run (each also re-run in-process).
    pub cells: u64,
    /// Cells that failed, or whose in-process re-run differs.
    pub failed: u64,
}

/// Runs the campaign probe over `count` seeds from `seed` with `jobs`
/// worker processes.
pub fn probe(files: &CampaignFiles, seed: u64, count: u64, jobs: usize) -> CampaignProbe {
    let c = run(files, seed, count, jobs);
    let hello_ms = mean_hello_ms(&files.events).unwrap_or(f64::NAN);
    let _ = std::fs::remove_file(&files.events);
    let mut failed = if c.error.is_some() {
        count
    } else {
        c.outcomes.iter().filter(|o| !o.is_pass()).count() as u64
    };
    let mut exec_ns = 0u64;
    for (cell, outcome) in c.spec.cells.iter().zip(&c.outcomes) {
        let t0 = Instant::now();
        let again = execute_cell(cell);
        exec_ns += ns_since(t0);
        failed += u64::from(&again != outcome);
    }
    let capacity = c.wall_ns as f64 * jobs as f64;
    let metrics = vec![
        ("campaign.spawn_ms".into(), hello_ms),
        (
            "campaign.overhead_us_per_cell".into(),
            (capacity - exec_ns as f64) / count as f64 / 1e3,
        ),
        (
            "campaign.worker_busy_frac".into(),
            exec_ns as f64 / capacity.max(1.0),
        ),
        ("campaign.cells".into(), count as f64),
    ];
    CampaignProbe {
        metrics,
        cells: count,
        failed,
    }
}
