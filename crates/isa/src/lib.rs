//! Guest instruction-set architecture for the Watchdog reproduction.
//!
//! This crate defines everything the rest of the workspace agrees on at the
//! instruction level:
//!
//! * [`reg`] — architectural registers and the logical-register namespace
//!   (data registers, their metadata *sidecars*, cracking temporaries and the
//!   `stack_key` / `stack_lock` control registers of the paper's §4.1).
//! * [`insn`] — the macro-instruction set: a 64-bit RISC-style ISA with an
//!   x86-64-like register file, plus the Watchdog instructions
//!   (`setident`, `getident`, `setbounds`) and the runtime entry points
//!   (`malloc`, `free`) the modified allocator uses.
//! * [`uop`] — the µop vocabulary the core cracks macro-instructions into,
//!   including the injected `check`, `shadow_load`/`shadow_store`,
//!   lock-location and `select` µops of Figures 2 and 3.
//! * [`crack`] — the decoder/cracker that performs Watchdog µop injection
//!   for every mode (baseline, use-after-free only, bounds fused/split).
//! * [`crack_cache`] — a per-PC memo of crack expansions so the simulator's
//!   step loop does not re-crack the same static instruction every
//!   iteration.
//! * [`program`] — the program container and an assembler-style
//!   [`ProgramBuilder`] used by the workload suite.
//! * [`layout`] — the guest virtual-address-space layout, including the
//!   disjoint shadow space mapping (§3.3).
//!
//! # Example
//!
//! ```
//! use watchdog_isa::{ProgramBuilder, Gpr, crack::{crack, CrackConfig}, uop::UopKind};
//!
//! let mut b = ProgramBuilder::new("demo");
//! let r0 = Gpr::new(0);
//! b.li(r0, 42);
//! b.halt();
//! let program = b.build().expect("valid program");
//! assert_eq!(program.len(), 2);
//!
//! // Cracking a pointer load injects a check and a shadow load (Fig. 2a).
//! let inst = watchdog_isa::Inst::Load {
//!     dst: r0,
//!     addr: watchdog_isa::MemAddr::base(Gpr::new(1)),
//!     width: watchdog_isa::Width::B8,
//!     hint: watchdog_isa::PtrHint::Auto,
//! };
//! let cracked = crack(&inst, true, &CrackConfig::watchdog());
//! let kinds: Vec<UopKind> = cracked.uops.iter().map(|u| u.uop.kind).collect();
//! assert_eq!(kinds, vec![UopKind::Check, UopKind::Load, UopKind::ShadowLoad]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crack;
pub mod crack_cache;
pub mod insn;
pub mod layout;
pub mod program;
pub mod reg;
pub mod uop;

pub use crack_cache::{CrackCache, CrackCacheStats};
pub use insn::{AluOp, Cond, FpOp, FpWidth, Inst, MemAddr, PtrHint, Width};
pub use program::{Label, Program, ProgramBuilder, ProgramError};
pub use reg::{Fpr, Gpr, LReg};
