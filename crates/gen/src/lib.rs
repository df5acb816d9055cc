//! **watchdog-gen** — seeded guest-program generator with a differential
//! detection oracle.
//!
//! The paper's detection evaluation (§9.2) rests on 291 hand-built
//! Juliet-style cases: every lifetime bug that suite can catch is one
//! somebody thought to write down. This crate turns detection coverage
//! into an *unbounded, seed-reproducible space*: a seeded RNG samples an
//! adversarial heap-lifetime script — mallocs, frees, pointer copies
//! through registers, globals, heap words and function frames,
//! reallocation that recycles chunks and lock locations, double frees,
//! instrumented pool allocators (`newident`/`setident`/`killident`, §7),
//! benign twins — and because the script is sampled against an exact
//! model *before* any instruction is emitted, the generator knows
//! precisely which access must trap, with which [`ViolationKind`], at
//! which instruction index. That ground truth is the [`Oracle`].
//!
//! The differential harness ([`check_generated`]) then runs each program
//! under every mode — baseline, conservative and ISA-assisted Watchdog (both
//! functional and timed), the bounds extension, and the §2.1
//! location-based checker — and cross-checks: detections equal the oracle
//! (no misses, no false positives, exact faulting instruction),
//! timed and functional runs agree on architectural state, and
//! identifier-based checking catches the reallocation cases
//! location-based checking is blind to (Table 1).
//!
//! Everything is a pure function of the seed, so any failure reduces to a
//! one-line repro: `watchdog-cli fuzz --seed <K>`.
//!
//! # Example
//!
//! ```
//! use watchdog_gen::{check_generated, generate, GenConfig};
//!
//! let cfg = GenConfig::default();
//! let g = generate(3, &cfg);
//! assert!(g.program.len() > 10);
//! // The full differential matrix passes for this seed.
//! let outcome = check_generated(&g).expect("no divergence");
//! assert!(outcome.runs >= 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod rng;
pub mod script;

pub use diff::{check_generated, matrix_runs, DiffFailure, DiffOutcome};
pub use rng::Rng;
pub use script::{generate, GenConfig, Generated, Oracle, Payload, Route};
pub use watchdog_core::error::ViolationKind;
