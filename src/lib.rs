//! # Watchdog
//!
//! A from-scratch Rust reproduction of **"Watchdog: Hardware for Safe and
//! Secure Manual Memory Management and Full Memory Safety"** (Nagarakatte,
//! Martin & Zdancewic, ISCA 2012).
//!
//! Watchdog is a hardware scheme for *comprehensive* use-after-free
//! detection: every allocation gets a never-reused **lock-and-key
//! identifier**; pointers carry their identifier in register sidecars and
//! a **disjoint shadow space**; an injected **check µop** validates
//! `*(id.lock) == id.key` before every memory access. Extended with
//! per-pointer bounds, the same machinery enforces full memory safety.
//!
//! This workspace implements the whole system: the guest ISA and
//! µop-injecting cracker ([`isa`]), guest memory + shadow space + cache
//! hierarchy ([`mem`]), an out-of-order timing model with
//! metadata-renaming copy elimination ([`pipeline`]), the Watchdog
//! machine, heap runtime and simulator ([`core`]), the twenty
//! SPEC-lookalike workloads plus the Juliet-style security suite
//! ([`workloads`]), a seeded program generator with a differential
//! detection oracle ([`gen`]), commit-stream capture with trace-driven
//! timing replay for one-pass configuration sweeps ([`trace`]), the
//! parallel suite/fuzz/sweep runners (the `bench` re-export), the
//! crash-isolated multi-process campaign service with its resumable,
//! crash-safe results ledger ([`campaign`]), and the structured
//! telemetry layer — metrics registry, histograms and the
//! dependency-free JSON behind `run --json` / `perf` snapshots
//! ([`telemetry`]).
//!
//! # Quickstart
//!
//! ```
//! use watchdog::prelude::*;
//!
//! // Build a tiny guest program with a use-after-free bug.
//! let mut b = ProgramBuilder::new("demo");
//! let (p, sz, v) = (Gpr::new(0), Gpr::new(1), Gpr::new(2));
//! b.li(sz, 64);
//! b.malloc(p, sz);
//! b.li(v, 7);
//! b.st8(v, p, 0);
//! b.free(p);
//! b.ld8(v, p, 0); // dangling!
//! b.halt();
//! let program = b.build()?;
//!
//! // Watchdog detects it; the unchecked baseline does not.
//! let report = Simulator::new(SimConfig::functional(Mode::watchdog())).run(&program)?;
//! assert_eq!(report.violation.unwrap().kind, ViolationKind::UseAfterFree);
//! let report = Simulator::new(SimConfig::functional(Mode::Baseline)).run(&program)?;
//! assert!(report.violation.is_none());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and
//! `crates/bench/src/bin/` for the binaries that regenerate every table
//! and figure of the paper's evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use watchdog_bench as bench;
pub use watchdog_campaign as campaign;
pub use watchdog_core as core;
pub use watchdog_gen as gen;
pub use watchdog_isa as isa;
pub use watchdog_mem as mem;
pub use watchdog_pipeline as pipeline;
pub use watchdog_telemetry as telemetry;
pub use watchdog_trace as trace;
pub use watchdog_workloads as workloads;

/// The most common imports for driving the simulator.
pub mod prelude {
    pub use watchdog_core::prelude::*;
    pub use watchdog_core::PointerId;
    pub use watchdog_isa::{AluOp, Cond, FpOp, FpWidth, Fpr, Gpr, Program, ProgramBuilder, Width};
    pub use watchdog_workloads::{all_benchmarks, benchmark, Scale};
}
