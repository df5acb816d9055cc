//! Campaign cells: what one unit of work is, how it executes, and how its
//! spec and outcome serialize.
//!
//! A campaign is a flat list of [`CellSpec`]s, one differential-fuzz seed
//! each. Execution ([`execute_cell`]) is a **pure function of the spec**:
//! the same cell produces the same [`CellOutcome`] bytes whether it runs
//! in a worker process, in the serial reference runner, or in a resumed
//! campaign — which is what makes the final ledger byte-comparable across
//! all three.

use std::panic::{self, AssertUnwindSafe};

use watchdog_gen::{check_generated, generate, GenConfig};
use watchdog_trace::format::{kind_code, program_fingerprint};
use watchdog_trace::wire::{get_uvarint, put_uvarint};

use watchdog_bench::payload_msg;
use watchdog_mem::hash::{fnv1a, FNV_OFFSET};

/// Failure-kind code: the differential harness diverged on a benign
/// program (no oracle violation to attribute it to).
pub const KIND_NONE: u8 = 0xff;
/// Failure-kind code: the cell panicked or the simulator errored.
pub const KIND_PANIC: u8 = 0xfd;
/// Failure-kind code: the coordinator exhausted the retry budget for the
/// cell (the worker crashed or hung on every attempt).
pub const KIND_RETRIES_EXHAUSTED: u8 = 0xfe;

/// One schedulable unit of campaign work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellSpec {
    /// One `watchdog-gen` differential-fuzz seed (the full mode matrix
    /// of `check_generated`, up to 12 simulations).
    Seed(u64),
}

impl CellSpec {
    /// Appends the wire encoding (shared by job frames, ledger hashing
    /// and the spec hash).
    pub fn put(&self, buf: &mut Vec<u8>) {
        let CellSpec::Seed(s) = self;
        buf.push(0);
        put_uvarint(buf, *s);
    }

    /// Reads a spec encoded by [`CellSpec::put`] at `*pos`, advancing it.
    ///
    /// # Errors
    ///
    /// A static message naming the malformed field.
    pub fn get(buf: &[u8], pos: &mut usize) -> Result<CellSpec, &'static str> {
        match take_byte(buf, pos)? {
            0 => Ok(CellSpec::Seed(uv(buf, pos)?)),
            _ => Err("unknown cell tag"),
        }
    }

    /// One-line human label (progress and failure messages).
    pub fn label(&self) -> String {
        let CellSpec::Seed(s) = self;
        format!("seed {s}")
    }
}

/// The deterministic result of executing one cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellOutcome {
    /// The cell completed and agreed with its oracle.
    Pass {
        /// Dynamic guest instructions of the conservative functional run.
        insts: u64,
        /// FNV digest over the cell's full result: the program and the
        /// per-mode reports.
        digest: u64,
    },
    /// The cell diverged, panicked, or exhausted its retry budget.
    Fail {
        /// Violation-kind code (the trace format's [`kind_code`]), or one
        /// of the [`KIND_NONE`]/[`KIND_PANIC`]/[`KIND_RETRIES_EXHAUSTED`]
        /// sentinels. Together with `pc` this is the dedup key.
        kind: u8,
        /// Faulting instruction index (0 when not attributable).
        pc: u64,
        /// Human-readable detail (repro line for fuzz divergences).
        detail: String,
    },
}

impl CellOutcome {
    /// Whether the cell passed.
    pub fn is_pass(&self) -> bool {
        matches!(self, CellOutcome::Pass { .. })
    }

    /// The failure-dedup key `(kind, pc)`, if this is a failure.
    pub fn failure_key(&self) -> Option<(u8, u64)> {
        match self {
            CellOutcome::Pass { .. } => None,
            CellOutcome::Fail { kind, pc, .. } => Some((*kind, *pc)),
        }
    }

    /// Appends the wire encoding (shared by result frames and ledger
    /// records).
    pub fn put(&self, buf: &mut Vec<u8>) {
        match self {
            CellOutcome::Pass { insts, digest } => {
                buf.push(0);
                put_uvarint(buf, *insts);
                put_uvarint(buf, *digest);
            }
            CellOutcome::Fail { kind, pc, detail } => {
                buf.push(1);
                buf.push(*kind);
                put_uvarint(buf, *pc);
                put_uvarint(buf, detail.len() as u64);
                buf.extend_from_slice(detail.as_bytes());
            }
        }
    }

    /// Reads an outcome encoded by [`CellOutcome::put`] at `*pos`.
    ///
    /// # Errors
    ///
    /// A static message naming the malformed field.
    pub fn get(buf: &[u8], pos: &mut usize) -> Result<CellOutcome, &'static str> {
        match take_byte(buf, pos)? {
            0 => Ok(CellOutcome::Pass {
                insts: uv(buf, pos)?,
                digest: uv(buf, pos)?,
            }),
            1 => {
                let kind = take_byte(buf, pos)?;
                let pc = uv(buf, pos)?;
                let len = uv(buf, pos)? as usize;
                let end = pos.checked_add(len).ok_or("detail length overflows")?;
                let bytes = buf.get(*pos..end).ok_or("truncated failure detail")?;
                *pos = end;
                let detail = std::str::from_utf8(bytes)
                    .map_err(|_| "failure detail is not UTF-8")?
                    .to_string();
                Ok(CellOutcome::Fail { kind, pc, detail })
            }
            _ => Err("unknown outcome tag"),
        }
    }
}

fn take_byte(buf: &[u8], pos: &mut usize) -> Result<u8, &'static str> {
    let b = *buf.get(*pos).ok_or("truncated encoding")?;
    *pos += 1;
    Ok(b)
}

fn uv(buf: &[u8], pos: &mut usize) -> Result<u64, &'static str> {
    get_uvarint(buf, pos).map_err(|_| "bad varint")
}

/// Executes one cell to its deterministic outcome. Panics inside the cell
/// (a simulator bug, a generator assertion) are caught and folded into a
/// [`CellOutcome::Fail`], so a poisoned cell produces a record instead of
/// killing its worker.
pub fn execute_cell(spec: &CellSpec) -> CellOutcome {
    match panic::catch_unwind(AssertUnwindSafe(|| execute_inner(spec))) {
        Ok(outcome) => outcome,
        Err(payload) => CellOutcome::Fail {
            kind: KIND_PANIC,
            pc: 0,
            detail: format!(
                "{} panicked: {}",
                spec.label(),
                payload_msg(payload.as_ref())
            ),
        },
    }
}

fn execute_inner(spec: &CellSpec) -> CellOutcome {
    let CellSpec::Seed(seed) = spec;
    let g = generate(*seed, &GenConfig::default());
    match check_generated(&g) {
        Ok(o) => {
            let digest = fnv1a(o.program_digest, &o.report_digest.to_le_bytes());
            let digest = fnv1a(digest, &(o.runs as u64).to_le_bytes());
            CellOutcome::Pass {
                insts: o.insts,
                digest,
            }
        }
        Err(f) => CellOutcome::Fail {
            kind: g.oracle.expected.map_or(KIND_NONE, kind_code),
            pc: g.oracle.expected_pc.unwrap_or(0) as u64,
            detail: f.to_string(),
        },
    }
}

/// A whole campaign: the ordered cell list. Cell ids are indices into
/// this list; the ledger header pins the list via [`CampaignSpec::spec_hash`]
/// and the first cell's program via [`CampaignSpec::probe_fingerprint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// The cells, in schedule order.
    pub cells: Vec<CellSpec>,
}

impl CampaignSpec {
    /// A differential-fuzz campaign over seeds
    /// `seed_start..seed_start + count`.
    pub fn fuzz(seed_start: u64, count: usize) -> CampaignSpec {
        CampaignSpec {
            cells: (0..count as u64)
                .map(|i| CellSpec::Seed(seed_start + i))
                .collect(),
        }
    }

    /// FNV hash of the full encoded cell list — two campaigns share a
    /// ledger only if their cell lists are identical.
    pub fn spec_hash(&self) -> u64 {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, self.cells.len() as u64);
        for c in &self.cells {
            c.put(&mut buf);
        }
        fnv1a(FNV_OFFSET, &buf)
    }

    /// Fingerprint of the first cell's **generated program**. A ledger
    /// written by a different generator hashes differently and is refused
    /// at resume, even when the cell list reads the same.
    pub fn probe_fingerprint(&self) -> u64 {
        match self.cells.first() {
            None => 0,
            Some(CellSpec::Seed(s)) => {
                program_fingerprint(&generate(*s, &GenConfig::default()).program)
            }
        }
    }

    /// One-line description for reports.
    pub fn describe(&self) -> String {
        match self.cells.first() {
            Some(CellSpec::Seed(s)) => {
                format!(
                    "{} fuzz seeds {s}..{}",
                    self.cells.len(),
                    s + self.cells.len() as u64
                )
            }
            None => "0 cells".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_spec(spec: &CellSpec) {
        let mut buf = Vec::new();
        spec.put(&mut buf);
        let mut pos = 0;
        assert_eq!(&CellSpec::get(&buf, &mut pos).unwrap(), spec);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn specs_round_trip() {
        round_trip_spec(&CellSpec::Seed(0));
        round_trip_spec(&CellSpec::Seed(u64::MAX));
        // Tag 1, a retired cell kind, is refused like any unknown tag.
        assert_eq!(CellSpec::get(&[1, 0], &mut 0), Err("unknown cell tag"));
    }

    #[test]
    fn outcomes_round_trip() {
        for o in [
            CellOutcome::Pass {
                insts: 0,
                digest: u64::MAX,
            },
            CellOutcome::Fail {
                kind: KIND_RETRIES_EXHAUSTED,
                pc: 12345,
                detail: "worker crashed on every attempt".into(),
            },
            CellOutcome::Fail {
                kind: 0,
                pc: 0,
                detail: String::new(),
            },
        ] {
            let mut buf = Vec::new();
            o.put(&mut buf);
            let mut pos = 0;
            assert_eq!(CellOutcome::get(&buf, &mut pos).unwrap(), o);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn truncated_encodings_are_rejected() {
        let mut buf = Vec::new();
        CellSpec::Seed(u64::MAX).put(&mut buf);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(
                CellSpec::get(&buf[..cut], &mut pos).is_err(),
                "cut at {cut} must not parse"
            );
        }
    }

    #[test]
    fn execute_is_deterministic_across_calls() {
        let cell = CellSpec::Seed(5);
        assert_eq!(execute_cell(&cell), execute_cell(&cell));
    }

    #[test]
    fn spec_hash_sees_every_cell() {
        let a = CampaignSpec::fuzz(0, 10);
        let b = CampaignSpec::fuzz(0, 11);
        let c = CampaignSpec::fuzz(1, 10);
        assert_ne!(a.spec_hash(), b.spec_hash());
        assert_ne!(a.spec_hash(), c.spec_hash());
        assert_eq!(a.spec_hash(), CampaignSpec::fuzz(0, 10).spec_hash());
    }
}
