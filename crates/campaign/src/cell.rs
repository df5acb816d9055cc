//! Campaign cells: what one unit of work is, how it executes, and how its
//! spec and outcome serialize.
//!
//! A campaign is a flat list of [`CellSpec`]s — either differential fuzz
//! seeds or (benchmark × mode × scale) timing points. Execution
//! ([`execute_cell`]) is a **pure function of the spec**: the same cell
//! produces the same [`CellOutcome`] bytes whether it runs in a worker
//! process, in the serial reference runner, or in a resumed campaign —
//! which is what makes the final ledger byte-comparable across all three.

use std::panic::{self, AssertUnwindSafe};

use watchdog_core::error::ViolationKind;
use watchdog_core::prelude::*;
use watchdog_gen::{check_generated, generate, GenConfig};
use watchdog_trace::format::{get_mode, program_fingerprint, put_mode};
use watchdog_trace::wire::{get_uvarint, put_uvarint};
use watchdog_workloads::{all_benchmarks, benchmark, Scale};

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
    /// of `check_seed`, up to 12 simulations).
    Seed(u64),
    /// One timed (benchmark × mode) point of the suite grid.
    Bench {
        /// Benchmark name (see `watchdog-cli list`).
        bench: String,
        /// Detection mode to simulate under.
        mode: Mode,
        /// Input scale.
        scale: Scale,
    },
}

impl CellSpec {
    /// Appends the wire encoding (shared by job frames, ledger hashing
    /// and the spec hash).
    pub fn put(&self, buf: &mut Vec<u8>) {
        match self {
            CellSpec::Seed(s) => {
                buf.push(0);
                put_uvarint(buf, *s);
            }
            CellSpec::Bench { bench, mode, scale } => {
                buf.push(1);
                put_uvarint(buf, bench.len() as u64);
                buf.extend_from_slice(bench.as_bytes());
                put_mode(buf, *mode);
                buf.push(scale_code(*scale));
            }
        }
    }

    /// Reads a spec encoded by [`CellSpec::put`] at `*pos`, advancing it.
    ///
    /// # Errors
    ///
    /// A static message naming the malformed field.
    pub fn get(buf: &[u8], pos: &mut usize) -> Result<CellSpec, &'static str> {
        match take_byte(buf, pos)? {
            0 => Ok(CellSpec::Seed(uv(buf, pos)?)),
            1 => {
                let len = uv(buf, pos)? as usize;
                let end = pos.checked_add(len).ok_or("cell name length overflows")?;
                let bytes = buf.get(*pos..end).ok_or("truncated cell name")?;
                *pos = end;
                let bench = std::str::from_utf8(bytes)
                    .map_err(|_| "cell name is not UTF-8")?
                    .to_string();
                let mode = get_mode(buf, pos).map_err(|_| "bad mode encoding in cell")?;
                let scale = scale_from_code(take_byte(buf, pos)?)?;
                Ok(CellSpec::Bench { bench, mode, scale })
            }
            _ => Err("unknown cell tag"),
        }
    }

    /// One-line human label (progress and failure messages).
    pub fn label(&self) -> String {
        match self {
            CellSpec::Seed(s) => format!("seed {s}"),
            CellSpec::Bench { bench, mode, scale } => {
                format!("{bench} under {} at {scale:?}", mode.label())
            }
        }
    }
}

/// The deterministic result of executing one cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellOutcome {
    /// The cell completed and agreed with its oracle.
    Pass {
        /// Dynamic guest instructions (fuzz: the conservative functional
        /// run; bench: the timed run).
        insts: u64,
        /// FNV digest over the cell's full result (programs + per-mode
        /// reports for fuzz cells, the `RunReport` for bench cells).
        digest: u64,
    },
    /// The cell diverged, panicked, or exhausted its retry budget.
    Fail {
        /// Violation-kind code ([`kind_code`]), or one of the
        /// [`KIND_NONE`]/[`KIND_PANIC`]/[`KIND_RETRIES_EXHAUSTED`]
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

/// Compact code for a [`ViolationKind`] (the dedup-key half).
pub fn kind_code(k: ViolationKind) -> u8 {
    match k {
        ViolationKind::UseAfterFree => 0,
        ViolationKind::UseAfterReturn => 1,
        ViolationKind::WildPointer => 2,
        ViolationKind::DoubleFree => 3,
        ViolationKind::InvalidFree => 4,
        ViolationKind::OutOfBounds => 5,
    }
}

fn scale_code(s: Scale) -> u8 {
    match s {
        Scale::Test => 0,
        Scale::Small => 1,
        Scale::Reference => 2,
    }
}

fn scale_from_code(b: u8) -> Result<Scale, &'static str> {
    Ok(match b {
        0 => Scale::Test,
        1 => Scale::Small,
        2 => Scale::Reference,
        _ => return Err("unknown scale code"),
    })
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
    match spec {
        CellSpec::Seed(seed) => {
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
        CellSpec::Bench { bench, mode, scale } => {
            let Some(b) = benchmark(bench) else {
                return CellOutcome::Fail {
                    kind: KIND_PANIC,
                    pc: 0,
                    detail: format!("unknown benchmark {bench:?}"),
                };
            };
            let program = b.build(*scale);
            match Simulator::new(SimConfig::timed(*mode)).run(&program) {
                Ok(report) => match report.violation {
                    None => CellOutcome::Pass {
                        insts: report.machine.insts,
                        digest: fnv1a(FNV_OFFSET, format!("{report:?}").as_bytes()),
                    },
                    Some(v) => CellOutcome::Fail {
                        kind: kind_code(v.kind),
                        pc: v.pc_index as u64,
                        detail: format!("{}: unexpected violation {v}", spec.label()),
                    },
                },
                Err(e) => CellOutcome::Fail {
                    kind: KIND_PANIC,
                    pc: 0,
                    detail: format!("{}: simulation failed: {e}", spec.label()),
                },
            }
        }
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

    /// A timed suite campaign: all twenty benchmarks × the three headline
    /// modes (baseline, conservative, ISA-assisted) at `scale`.
    pub fn suite(scale: Scale) -> CampaignSpec {
        let modes = [
            Mode::Baseline,
            Mode::watchdog_conservative(),
            Mode::watchdog(),
        ];
        CampaignSpec {
            cells: all_benchmarks()
                .iter()
                .flat_map(|b| {
                    modes.iter().map(|m| CellSpec::Bench {
                        bench: b.name.to_string(),
                        mode: *m,
                        scale,
                    })
                })
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

    /// Fingerprint of the first cell's **built program** (the generator
    /// output for a fuzz campaign, the benchmark build for a suite
    /// campaign). A ledger written by a different generator or workload
    /// build hashes differently and is refused at resume, even when the
    /// cell list reads the same.
    pub fn probe_fingerprint(&self) -> u64 {
        match self.cells.first() {
            None => 0,
            Some(CellSpec::Seed(s)) => {
                program_fingerprint(&generate(*s, &GenConfig::default()).program)
            }
            Some(CellSpec::Bench { bench, scale, .. }) => {
                benchmark(bench).map_or(0, |b| program_fingerprint(&b.build(*scale)))
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
            Some(CellSpec::Bench { scale, .. }) => {
                format!("{} (benchmark × mode) cells at {scale:?}", self.cells.len())
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
        for mode in [
            Mode::Baseline,
            Mode::watchdog(),
            Mode::watchdog_conservative(),
        ] {
            for scale in [Scale::Test, Scale::Small, Scale::Reference] {
                round_trip_spec(&CellSpec::Bench {
                    bench: "mcf".into(),
                    mode,
                    scale,
                });
            }
        }
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
        CellSpec::Bench {
            bench: "perl".into(),
            mode: Mode::watchdog(),
            scale: Scale::Test,
        }
        .put(&mut buf);
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
        let bench = CellSpec::Bench {
            bench: "comp".into(),
            mode: Mode::watchdog_conservative(),
            scale: Scale::Test,
        };
        let a = execute_cell(&bench);
        assert!(a.is_pass(), "{a:?}");
        assert_eq!(a, execute_cell(&bench));
    }

    #[test]
    fn unknown_benchmark_is_a_failure_record_not_a_panic() {
        let o = execute_cell(&CellSpec::Bench {
            bench: "nonsense".into(),
            mode: Mode::Baseline,
            scale: Scale::Test,
        });
        assert_eq!(o.failure_key(), Some((KIND_PANIC, 0)));
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

    #[test]
    fn suite_spec_covers_the_grid() {
        let s = CampaignSpec::suite(Scale::Test);
        assert_eq!(s.cells.len(), 60);
        assert_ne!(s.probe_fingerprint(), 0);
        assert!(s.describe().contains("60"));
    }
}
