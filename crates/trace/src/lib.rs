//! **watchdog-trace** — commit-stream capture and trace-driven timing
//! replay.
//!
//! The paper's evaluation (§9) is a grid of microarchitectural ablations:
//! lock-location cache size and associativity, metadata-µop overhead,
//! idealized shadow accesses. Each point used to cost a full
//! functional+timed re-simulation. This crate decouples the two halves:
//!
//! * [`record()`] runs the **functional machine once** (no µop cracking at
//!   all) and captures the committed instruction stream — per commit, one
//!   delta-encoded event holding the pointer-classification bit, the
//!   rename-stage select-fold state, the resolved memory-µop addresses
//!   and the branch outcome. Identifier allocation/kill traffic (`malloc`,
//!   `free`, `call`/`ret`, `newident`/`killident`) is captured the same
//!   way: as the lock-location addresses those instructions touch.
//! * [`replay()`] drives the out-of-order timing core from the trace under
//!   any [`ReplayConfig`] — re-cracking statically through the per-PC
//!   crack cache and assembling µops with the *same*
//!   [`assemble_cracked`](watchdog_isa::crack::assemble_cracked) the live
//!   machine uses — without re-executing a single architectural
//!   instruction.
//!
//! The correctness anchor is **exact equivalence**: a replayed
//! [`RunReport`](watchdog_core::RunReport) matches the live timed
//! simulation field for field — cycles, µop tag breakdown, hierarchy and
//! predictor statistics, crack-cache counters, violation, heap and
//! footprint. The equivalence suites (this crate's integration tests, the
//! workspace's `trace_equivalence` tests and the CI `trace selftest`
//! smoke) assert it over the benchmark suite and fuzz-generated programs.
//!
//! # One-pass configuration sweeps
//!
//! ```
//! use watchdog_core::prelude::*;
//! use watchdog_isa::{Gpr, ProgramBuilder};
//! use watchdog_mem::CacheConfig;
//! use watchdog_trace::{record, replay, ReplayConfig};
//!
//! let mut b = ProgramBuilder::new("demo");
//! let (p, sz) = (Gpr::new(0), Gpr::new(1));
//! b.li(sz, 64);
//! b.malloc(p, sz);
//! b.st8(sz, p, 0);
//! b.free(p);
//! b.halt();
//! let program = b.build()?;
//!
//! // One functional pass...
//! let trace = record(&program, Mode::watchdog_conservative(), 1_000_000)?;
//! // ...then N cheap timing replays under different LL$ sizes.
//! for kb in [1u64, 4, 16] {
//!     let mut cfg = ReplayConfig::default();
//!     cfg.hierarchy.ll = CacheConfig::new(kb * 1024, 8, 64);
//!     let report = replay(&program, &trace, &cfg)?;
//!     assert!(report.cycles() > 0);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Traces serialize with [`Trace::to_bytes`]/[`Trace::from_bytes`] (a
//! compact, versioned format — see the [`mod@format`] module) for the
//! `watchdog-cli trace record/replay/info` workflow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
pub mod record;
pub mod replay;
pub mod wire;

pub use format::{program_fingerprint, Trace, TraceError, TraceInfo, TraceOutcome};
pub use record::{record, TraceRecorder};
pub use replay::{
    replay, replay_instrumented, replay_with_stats, verify_replay, ReplayConfig, ReplayStats,
};
