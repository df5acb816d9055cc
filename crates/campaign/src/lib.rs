//! **watchdog-campaign** — crash-isolated multi-process simulation
//! campaigns with a resumable, crash-safe results ledger.
//!
//! The in-process worker pool (`watchdog-bench`) runs the paper's fixed
//! benchmark grid, whose every report the golden corpus pins. Open-ended
//! differential fuzzing is different: one panic or OOM would kill the
//! whole sweep, and an overnight million-seed run must survive an
//! interruption. This crate adds the multi-process rung for it:
//!
//! * A **coordinator** ([`run_campaign`]) spawns N long-lived worker
//!   processes (re-exec'd `watchdog-cli worker` children speaking
//!   length-prefixed, checksummed frames over stdin/stdout — the
//!   [`frame`] module, built on the same varint primitives as the trace
//!   wire format) and feeds them a job queue of [`CellSpec`] cells
//!   (fuzz seeds).
//! * Every completed cell is appended to a **crash-safe ledger**
//!   (the [`ledger`] module): one fsync'd, checksummed record per cell
//!   under a header carrying the campaign's spec hash and a program
//!   fingerprint, so stale or foreign ledgers are refused instead of
//!   silently merged. A torn final record (the process died mid-write)
//!   is detected and dropped, never mis-parsed.
//! * **Crash isolation** is the point: a worker that panics, exits,
//!   hangs past the heartbeat timeout, or emits a corrupt frame is
//!   killed and respawned with bounded exponential backoff, and its
//!   outstanding cell is retried a bounded number of times. Failures are
//!   deduplicated by (violation kind, faulting pc) for the progress
//!   line.
//! * `--resume` replays the ledger and schedules only the missing
//!   cells; the completed ledger is compacted into canonical (cell-id)
//!   order, making it **byte-identical** to the ledger of an
//!   undisturbed serial run ([`serial_ledger_bytes`]).
//! * `--events PATH` streams a JSONL **flight record** (the [`events`]
//!   module): worker spawns and reaps with reasons, Hello latency,
//!   dispatches, per-cell completions with the ledger fsync time,
//!   retries, respawns and periodic throughput — flushed per line, so a
//!   killed campaign still leaves a readable record.
//!
//! Every failure path is exercised deterministically in CI by the
//! [`fault`] module: the `WATCHDOG_FAULT` environment knob (a parsed
//! [`FaultPlan`]) makes workers panic, exit nonzero, hang, or emit
//! truncated/corrupt frames at chosen cells.
//!
//! # Example
//!
//! ```no_run
//! use watchdog_campaign::{run_campaign, CampaignConfig, CampaignSpec};
//!
//! let spec = CampaignSpec::fuzz(0, 1000);
//! let mut cfg = CampaignConfig::new("/usr/local/bin/watchdog-cli");
//! cfg.jobs = 8;
//! let stats = run_campaign(&spec, &cfg, "fuzz.wdlg".as_ref(), true)?;
//! assert_eq!(stats.cells, 1000);
//! # Ok::<(), watchdog_campaign::CampaignError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod cli;
pub mod coordinator;
pub mod events;
pub mod fault;
pub mod frame;
pub mod ledger;
pub mod validate;
pub mod worker;

pub use cell::{execute_cell, CampaignSpec, CellOutcome, CellSpec};
pub use cli::{campaign_main, parse_campaign_args, CampaignCli};
pub use coordinator::{
    run_campaign, run_campaign_serial, serial_ledger_bytes, CampaignConfig, CampaignError,
    CampaignStats,
};
pub use events::{parse_jsonl, EventLog, EVENTS_SCHEMA};
pub use fault::{FaultKind, FaultPlan, FAULT_ENV};
pub use ledger::{read_canonical, CellRecord, LedgerError, LedgerHeader};
pub use validate::{cross_check, validate_events, EventsSummary};
pub use worker::worker_entry;
