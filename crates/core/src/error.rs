//! Memory-safety violations and simulator errors.

use std::fmt;

use watchdog_mem::ConfigError;

/// What kind of memory-safety violation a check detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// Dereference of a pointer to deallocated *heap* memory — even if the
    /// memory has since been reallocated (the identifier, not the location,
    /// is checked).
    UseAfterFree,
    /// Dereference of a pointer into a popped stack frame (Fig. 1, right).
    UseAfterReturn,
    /// Dereference through a register that never held a valid pointer
    /// (invalid identifier).
    WildPointer,
    /// `free()` of an already-freed allocation (the runtime's identifier
    /// check at `free`, §4.1).
    DoubleFree,
    /// `free()` of a pointer that does not point at a live allocation.
    InvalidFree,
    /// Access outside the pointer's `[base, bound)` — bounds extension
    /// only (§8).
    OutOfBounds,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::UseAfterFree => "use-after-free",
            ViolationKind::UseAfterReturn => "use-after-return",
            ViolationKind::WildPointer => "wild-pointer dereference",
            ViolationKind::DoubleFree => "double free",
            ViolationKind::InvalidFree => "invalid free",
            ViolationKind::OutOfBounds => "out-of-bounds access",
        };
        f.write_str(s)
    }
}

/// A detected memory-safety violation: the hardware exception of §3.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// Violation class.
    pub kind: ViolationKind,
    /// Index of the faulting macro-instruction.
    pub pc_index: usize,
    /// Faulting data address (0 for `free`-time violations without one).
    pub addr: u64,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at instruction {} (address {:#x})",
            self.kind, self.pc_index, self.addr
        )
    }
}

/// Simulator failure (as opposed to a *detected violation*, which is a
/// successful outcome reported in [`crate::report::RunReport`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The instruction limit was exceeded (runaway program).
    InstLimit {
        /// The configured limit.
        limit: u64,
    },
    /// The guest heap was exhausted.
    HeapExhausted {
        /// The allocation size that failed.
        requested: u64,
    },
    /// The program counter left the program.
    PcOutOfRange {
        /// The invalid instruction index.
        pc: usize,
    },
    /// The guest stack overflowed its region.
    StackOverflow,
    /// The core or hierarchy configuration describes a machine the
    /// simulator cannot build; rejected before the run starts.
    Config(ConfigError),
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InstLimit { limit } => write!(f, "instruction limit of {limit} exceeded"),
            SimError::HeapExhausted { requested } => {
                write!(f, "guest heap exhausted allocating {requested} bytes")
            }
            SimError::PcOutOfRange { pc } => write!(f, "program counter {pc} out of range"),
            SimError::StackOverflow => write!(f, "guest stack overflow"),
            SimError::Config(e) => write!(f, "invalid configuration: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_display() {
        let v = Violation {
            kind: ViolationKind::UseAfterFree,
            pc_index: 12,
            addr: 0x2000_0040,
        };
        let s = v.to_string();
        assert!(s.contains("use-after-free"));
        assert!(s.contains("12"));
        assert!(s.contains("0x20000040"));
    }

    #[test]
    fn all_kinds_display_distinctly() {
        use ViolationKind::*;
        let kinds = [
            UseAfterFree,
            UseAfterReturn,
            WildPointer,
            DoubleFree,
            InvalidFree,
            OutOfBounds,
        ];
        let mut seen = std::collections::HashSet::new();
        for k in kinds {
            assert!(seen.insert(k.to_string()), "duplicate display for {k:?}");
        }
    }

    #[test]
    fn sim_error_display() {
        assert!(SimError::InstLimit { limit: 5 }.to_string().contains('5'));
        assert!(SimError::HeapExhausted { requested: 64 }
            .to_string()
            .contains("64"));
        assert!(SimError::PcOutOfRange { pc: 3 }.to_string().contains('3'));
        assert!(!SimError::StackOverflow.to_string().is_empty());
    }
}
