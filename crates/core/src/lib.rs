//! **Watchdog** — hardware for safe and secure manual memory management and
//! full memory safety (reproduction of Nagarakatte, Martin & Zdancewic,
//! ISCA 2012).
//!
//! This crate is the paper's contribution proper, built on top of the
//! [`watchdog_isa`], [`watchdog_mem`] and [`watchdog_pipeline`] substrates:
//!
//! * [`ident`] — never-reused lock-and-key identifiers and the
//!   lock-location manager with its LIFO free list (§4.1).
//! * [`runtime`] — the modified DL-malloc-style heap runtime: segregated
//!   free lists over guest memory, `setident`/`getident` at the
//!   allocator↔hardware boundary, double-free detection (Fig. 3a/3b).
//! * [`pointer_id`] — conservative and ISA-assisted pointer identification
//!   (§5), including the profiling pass the paper uses to emulate compiler
//!   annotations.
//! * [`machine`] — the functional machine: executes macro-instructions with
//!   full metadata semantics, performs the checks, raises memory-safety
//!   violations, and emits the cracked µop stream for the timing model.
//! * [`baseline`] — a location-based checker (shadow allocation status, in
//!   the style of MemTracker/Valgrind) used to demonstrate why
//!   identifier-based checking is strictly stronger (Table 1).
//! * [`sim`] — the [`Simulator`] facade coupling functional execution to
//!   the out-of-order timing model, producing [`report::RunReport`]s.
//!
//! # Quickstart
//!
//! ```
//! use watchdog_core::prelude::*;
//! use watchdog_isa::{ProgramBuilder, Gpr};
//!
//! // A one-line use-after-free: p = malloc(64); free(p); *p.
//! let mut b = ProgramBuilder::new("uaf");
//! let (p, sz) = (Gpr::new(0), Gpr::new(1));
//! b.li(sz, 64);
//! b.malloc(p, sz);
//! b.free(p);
//! b.ld8(Gpr::new(2), p, 0); // dangling dereference
//! b.halt();
//! let program = b.build()?;
//!
//! let report = Simulator::new(SimConfig::functional(Mode::watchdog())).run(&program)?;
//! let v = report.violation.expect("watchdog detects the dangling load");
//! assert_eq!(v.kind, ViolationKind::UseAfterFree);
//!
//! // The unchecked baseline sails right through the same bug.
//! let report = Simulator::new(SimConfig::functional(Mode::Baseline)).run(&program)?;
//! assert!(report.violation.is_none());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod error;
pub mod ident;
pub mod machine;
pub mod pointer_id;
pub mod report;
pub mod runtime;
pub mod sim;
pub mod telemetry;

pub use error::{SimError, Violation, ViolationKind};
pub use ident::LockManager;
pub use machine::{CheckMode, CommitHook, CommitRecord, Machine, MachineConfig};
pub use pointer_id::{PointerId, PointerPolicy, Profile};
pub use report::RunReport;
pub use runtime::HeapAllocator;
pub use sim::{Mode, SimConfig, Simulator};
pub use telemetry::{export_metrics, run_json, RunTelemetry, RUN_SCHEMA};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::error::{SimError, Violation, ViolationKind};
    pub use crate::pointer_id::PointerId;
    pub use crate::report::RunReport;
    pub use crate::sim::{Mode, SimConfig, Simulator};
    pub use watchdog_isa::crack::BoundsUops;
}
