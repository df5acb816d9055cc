//! The typed error every simulator configuration check returns: the
//! memory hierarchy's and the core's.

use std::fmt;

/// What a configuration field must satisfy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Constraint {
    /// Within `min..=max` (`max` is `u64::MAX` when unbounded).
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

    /// `Ok` when `value` is at least `min`, else an error naming `field`.
    pub fn check_min(field: &'static str, value: u64, min: u64) -> Result<(), Self> {
        Self::check_range(field, value, min, u64::MAX)
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
            Constraint::Range { min, max: u64::MAX } => write!(f, "must be at least {min}"),
            Constraint::Range { min, max } if min == max => write!(f, "must be {min}"),
            Constraint::Range { min, max } => write!(f, "must be in {min}..={max}"),
            Constraint::PowerOfTwo => write!(f, "must be a power of two"),
        }
    }
}

impl std::error::Error for ConfigError {}
