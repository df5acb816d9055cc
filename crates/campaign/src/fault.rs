//! Deterministic fault injection for the worker process.
//!
//! The campaign's whole value is surviving worker failure, so every
//! failure path must be exercisable on demand rather than discovered in
//! production. The `WATCHDOG_FAULT` environment variable (set directly,
//! or via `watchdog-cli campaign --fault`) carries a [`FaultPlan`]: a
//! comma-separated list of `kind@cell` points, each making the worker
//! misbehave when it receives that cell:
//!
//! | kind | worker behaviour |
//! |---|---|
//! | `panic` | panics (abnormal exit, message on stderr) |
//! | `exit` | exits with status 3, no result frame |
//! | `hang` | sleeps forever; reaped by the heartbeat timeout |
//! | `corrupt` | emits a result frame with a corrupted payload |
//! | `truncate` | emits half a frame, then exits |
//!
//! A bare `kind@cell` fires on the **first attempt only** — the retried
//! cell then succeeds, which is how the fault suite proves the final
//! ledger is unaffected. `kind@cell!` fires on **every** attempt, which
//! is how it proves the retry budget is bounded.

use std::fmt;

/// What the worker does at an injected fault point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic (crash with a nonzero status and a stderr message).
    Panic,
    /// `std::process::exit(3)` without a result frame.
    Exit,
    /// Sleep forever (until the coordinator's timeout reaps the worker).
    Hang,
    /// Emit a result frame whose payload fails the checksum.
    Corrupt,
    /// Emit a torn frame (length prefix promising more bytes than sent),
    /// then exit.
    Truncate,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultKind::Panic => "panic",
            FaultKind::Exit => "exit",
            FaultKind::Hang => "hang",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Truncate => "truncate",
        })
    }
}

/// One injected fault point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPoint {
    /// The misbehaviour.
    pub kind: FaultKind,
    /// The cell id it triggers on.
    pub cell: u32,
    /// Fire on every attempt (`kind@cell!`) instead of only the first.
    pub every_attempt: bool,
}

/// A parsed `WATCHDOG_FAULT` specification.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    points: Vec<FaultPoint>,
}

/// Environment variable carrying the fault plan into worker processes.
pub const FAULT_ENV: &str = "WATCHDOG_FAULT";

impl std::str::FromStr for FaultPlan {
    type Err = String;

    /// Parses a specification like `panic@3`, `exit@0,hang@9!`; the
    /// error names the bad clause and lists the valid kinds.
    fn from_str(spec: &str) -> Result<FaultPlan, String> {
        let mut points = Vec::new();
        for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let (kind_s, rest) = clause.split_once('@').ok_or_else(|| {
                format!("bad fault clause {clause:?}: expected kind@cell (e.g. panic@3)")
            })?;
            let kind = match kind_s {
                "panic" => FaultKind::Panic,
                "exit" => FaultKind::Exit,
                "hang" => FaultKind::Hang,
                "corrupt" => FaultKind::Corrupt,
                "truncate" => FaultKind::Truncate,
                other => {
                    return Err(format!(
                        "unknown fault kind {other:?}: valid kinds are panic, exit, hang, \
                         corrupt, truncate (format kind@cell, or kind@cell! to fire on \
                         every attempt)"
                    ))
                }
            };
            let (cell_s, every_attempt) = match rest.strip_suffix('!') {
                Some(c) => (c, true),
                None => (rest, false),
            };
            let cell = cell_s.parse::<u32>().map_err(|_| {
                format!("bad fault clause {clause:?}: cell must be an unsigned integer")
            })?;
            points.push(FaultPoint {
                kind,
                cell,
                every_attempt,
            });
        }
        Ok(FaultPlan { points })
    }
}

impl FaultPlan {
    /// Reads the plan from [`FAULT_ENV`] (absent or empty = no faults).
    ///
    /// # Errors
    ///
    /// As `FaultPlan`'s `FromStr`.
    pub fn from_env() -> Result<FaultPlan, String> {
        match std::env::var(FAULT_ENV) {
            Ok(spec) => spec.parse(),
            Err(_) => Ok(FaultPlan::default()),
        }
    }

    /// The fault to inject for `(cell, attempt)`, if any.
    pub fn fault_for(&self, cell: u32, attempt: u32) -> Option<FaultKind> {
        self.points
            .iter()
            .find(|p| p.cell == cell && (p.every_attempt || attempt == 0))
            .map(|p| p.kind)
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_kind_and_the_every_attempt_marker() {
        let p = "panic@0, exit@5,hang@9!,corrupt@2,truncate@7"
            .parse::<FaultPlan>()
            .unwrap();
        assert_eq!(p.fault_for(0, 0), Some(FaultKind::Panic));
        assert_eq!(p.fault_for(0, 1), None, "single-shot faults fire once");
        assert_eq!(p.fault_for(5, 0), Some(FaultKind::Exit));
        assert_eq!(p.fault_for(9, 0), Some(FaultKind::Hang));
        assert_eq!(p.fault_for(9, 7), Some(FaultKind::Hang), "! fires always");
        assert_eq!(p.fault_for(2, 0), Some(FaultKind::Corrupt));
        assert_eq!(p.fault_for(7, 0), Some(FaultKind::Truncate));
        assert_eq!(p.fault_for(1, 0), None);
    }

    #[test]
    fn empty_specs_are_empty_plans() {
        assert!("".parse::<FaultPlan>().unwrap().is_empty());
        assert!(" , ".parse::<FaultPlan>().unwrap().is_empty());
    }

    #[test]
    fn errors_list_the_valid_kinds() {
        let e = "boom@3".parse::<FaultPlan>().unwrap_err();
        assert!(
            e.contains("panic, exit, hang, corrupt, truncate"),
            "error must list valid kinds: {e}"
        );
        let e = "panic".parse::<FaultPlan>().unwrap_err();
        assert!(e.contains("kind@cell"), "{e}");
        let e = "panic@many".parse::<FaultPlan>().unwrap_err();
        assert!(e.contains("unsigned integer"), "{e}");
    }
}
