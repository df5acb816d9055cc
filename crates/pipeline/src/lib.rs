//! Out-of-order core timing model for the Watchdog reproduction.
//!
//! The simulated core matches Table 2 of the paper (an Intel "Sandy
//! Bridge"-class machine): 6-wide rename/dispatch/issue, 168-entry ROB,
//! 54-entry IQ, 64/36-entry load/store queues, 16 fetch bytes per cycle, a
//! 3-table PPM branch predictor, and the functional-unit and cache-port
//! inventory of the paper.
//!
//! * [`config`] — [`config::CoreConfig`] with the Table 2 parameters.
//! * [`bpred`] — 3-table PPM predictor (256×2, 128×4, 128×4, 8-bit tags,
//!   2-bit counters) plus a return-address stack.
//! * [`rename`] — register renaming with the paper's §6.2 extensions: a
//!   dual map table (data + metadata mappings per logical register),
//!   reference-counted metadata physical registers, and metadata-copy
//!   elimination at rename.
//! * [`core`] — the timestamp-based out-of-order scheduling model: each
//!   µop's dispatch, issue, completion and commit times are computed under
//!   frontend bandwidth, window-occupancy (ROB/IQ/LQ/SQ), functional-unit,
//!   cache-port and dependence constraints. This style of model (cf.
//!   interval simulation) reproduces the IPC, port-contention and
//!   window-pressure effects that Figures 7–11 measure, at a fraction of
//!   the cost of a cycle-by-cycle pipeline.
//! * [`wheel`] — the calendar-queue scheduling structures behind the hot
//!   loop: release-time rings, a circular timing wheel and lowest-index
//!   FU pools of next-free times, one structure per role, each
//!   property-tested against a small executable spec.
//! * [`tele`] — the self-profiler every core carries: per-kind dispatch
//!   counters, window-occupancy histograms and the CPI stack, all
//!   simulated counts that no timestamp depends on, exported beside the
//!   report rather than inside it. The crate reads no host clock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod bpred;
pub mod config;
pub mod core;
pub mod rename;
pub mod tele;
pub mod wheel;

pub use crate::core::{Fu, TimingCore, TimingReport, NUM_FUS, NUM_TAGS, TAG_NAMES};
pub use batch::{FeedStats, MemOp, UopBatch};
pub use bpred::Predictor;
pub use config::CoreConfig;
pub use rename::{Rename, RenameStats};
pub use tele::{NUM_STALL_CAUSES, NUM_UOP_KINDS, STALL_CAUSE_NAMES, UOP_KIND_NAMES};
