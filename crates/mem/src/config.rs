//! The typed error every simulator configuration check returns (the
//! memory hierarchy's and the core's), and the bounds both share.

use std::fmt;

/// Largest latency, in cycles, any core or hierarchy latency field may
/// hold (2^20, about a third of a millisecond at 3.2 GHz; Table 2's
/// largest is DRAM's 100).
///
/// The bound is what keeps every timestamp sum in range. One µop's
/// completion exceeds the latest earlier timestamp by at most its
/// dispatch latency, an unpipelined unit's busy time, the address
/// generation latency and one full memory path (L1, a TLB walk, L2, L3
/// and DRAM), and a mispredict adds one redirect penalty: at most ten
/// bounded terms, under 2^24 cycles. A run's cycle count therefore grows
/// by under 2^24 per µop, and reaching `u64::MAX` would take 2^40 µops,
/// hours to days of simulation.
pub const MAX_LATENCY: u64 = 1 << 20;

/// Largest entry count of any sized structure: the core's windows,
/// return-address stack and metadata register file, each TLB, and each
/// prefetcher's streams and degree (Table 2's largest is the 168-entry
/// ROB). Every one is allocated up front, so the bound keeps a
/// configuration from asking for more memory than the host has.
pub const MAX_ENTRIES: u64 = 1 << 16;

/// What a configuration field must satisfy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Constraint {
    /// Within `min..=max`.
    Range {
        /// Smallest accepted value.
        min: u64,
        /// Largest accepted value.
        max: u64,
    },
    /// A power of two.
    PowerOfTwo,
}

/// A configuration field the simulator cannot model, naming the first
/// offending field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigError {
    /// Name of the offending field (`l1d.ways`, `rob_entries`, ...).
    pub field: &'static str,
    /// The value it held.
    pub value: u64,
    /// What it had to satisfy.
    pub constraint: Constraint,
}

impl ConfigError {
    /// `Ok` when `value` is in `min..=max`, else an error naming `field`.
    pub fn check_range(field: &'static str, value: u64, min: u64, max: u64) -> Result<(), Self> {
        if (min..=max).contains(&value) {
            Ok(())
        } else {
            Err(ConfigError {
                field,
                value,
                constraint: Constraint::Range { min, max },
            })
        }
    }

    /// `Ok` when `value` is at most [`MAX_LATENCY`], else an error naming
    /// `field`.
    pub fn check_latency(field: &'static str, value: u64) -> Result<(), Self> {
        Self::check_range(field, value, 0, MAX_LATENCY)
    }

    /// `Ok` when `value` is in `1..=`[`MAX_ENTRIES`], else an error naming
    /// `field`.
    pub fn check_entries(field: &'static str, value: u64) -> Result<(), Self> {
        Self::check_range(field, value, 1, MAX_ENTRIES)
    }

    /// `Ok` when `value` is a power of two, else an error naming `field`.
    pub fn check_pow2(field: &'static str, value: u64) -> Result<(), Self> {
        if value.is_power_of_two() {
            Ok(())
        } else {
            Err(ConfigError {
                field,
                value,
                constraint: Constraint::PowerOfTwo,
            })
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "config field `{}` = {} ", self.field, self.value)?;
        match self.constraint {
            Constraint::Range { min, max } => write!(f, "must be in {min}..={max}"),
            Constraint::PowerOfTwo => write!(f, "must be a power of two"),
        }
    }
}

impl std::error::Error for ConfigError {}
