//! The on-disk/in-memory trace container: header, event stream, trailer.
//!
//! Layout (all integers are varints from [`crate::wire`] unless noted):
//!
//! ```text
//! magic "WDTR" (4 raw bytes)
//! version
//! program-name length | program-name bytes (UTF-8)
//! program fingerprint (FNV-1a over instructions + globals)
//! mode tag (1 raw byte) | mode parameters (raw bytes, tag-dependent)
//! event count | event-stream length | event-stream bytes
//! outcome tag (1 raw byte) [| violation kind, pc index, address]
//! machine stats (5) | heap stats (5) | footprint (6)
//! checksum (8 raw bytes, little-endian FNV-1a over every byte before it)
//! ```
//!
//! The event stream itself is opaque at this layer — its grammar needs the
//! program to decode (address counts come from re-cracking), and is owned
//! by the [`mod@crate::record`] / [`mod@crate::replay`] modules.
//! The header and trailer are
//! self-contained, so `trace info` works without the program. The
//! checksum is verified right after the magic and version, before any
//! other field is decoded, so a corrupted body is rejected rather than
//! replayed into a different report.

use std::fmt;

use watchdog_core::error::{Violation, ViolationKind};
use watchdog_core::machine::MachineStats;
use watchdog_core::prelude::*;
use watchdog_core::runtime::HeapStats;
use watchdog_isa::crack::BoundsUops;
use watchdog_isa::Program;
use watchdog_mem::hash::{fnv1a, FNV_OFFSET};
use watchdog_mem::{ConfigError, Footprint};

use crate::wire::{get_uvarint, put_uvarint};

/// File magic: the first four bytes of every serialized trace.
pub const MAGIC: [u8; 4] = *b"WDTR";

/// Current format version. Readers reject other versions outright — the
/// format is compact, so re-recording beats migration shims.
pub const VERSION: u64 = 2;

/// Bytes of the trailing checksum.
const CHECKSUM_BYTES: usize = 8;

/// Errors reading, decoding or replaying a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The byte stream ended before the structure did.
    Truncated,
    /// The magic bytes are not `WDTR`.
    BadMagic,
    /// The trace was written by an unsupported format version.
    BadVersion(u64),
    /// A structurally invalid encoding (the reason names the spot).
    Corrupt(&'static str),
    /// The trailing checksum does not match the bytes before it: the
    /// trace was damaged after it was written.
    ChecksumMismatch {
        /// The checksum stored in the trace.
        stored: u64,
        /// The checksum of the bytes actually read.
        computed: u64,
    },
    /// The trace was recorded from a different program than the one
    /// offered for replay.
    ProgramMismatch {
        /// Program name recorded in the trace.
        trace: String,
        /// Name of the program offered for replay.
        program: String,
    },
    /// The replay's core or hierarchy configuration describes a machine
    /// the timing model cannot build; rejected before replay starts.
    Config(ConfigError),
}

impl From<ConfigError> for TraceError {
    fn from(e: ConfigError) -> Self {
        TraceError::Config(e)
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Truncated => write!(f, "trace truncated"),
            TraceError::BadMagic => write!(f, "not a watchdog trace (bad magic)"),
            TraceError::BadVersion(v) => {
                write!(f, "unsupported trace version {v} (expected {VERSION})")
            }
            TraceError::Corrupt(why) => write!(f, "corrupt trace: {why}"),
            TraceError::ChecksumMismatch { stored, computed } => write!(
                f,
                "corrupt trace: checksum {computed:016x} does not match stored {stored:016x}"
            ),
            TraceError::ProgramMismatch { trace, program } => write!(
                f,
                "trace was recorded from {trace:?}, not from the offered program {program:?} \
                 (or from a different build of it)"
            ),
            TraceError::Config(e) => write!(f, "invalid configuration: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// How the recorded run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOutcome {
    /// The program executed `halt`.
    Halted,
    /// A memory-safety violation stopped the run (§3.2 exception).
    Violation(Violation),
}

impl TraceOutcome {
    /// The violation, if the run ended in one.
    pub fn violation(&self) -> Option<Violation> {
        match *self {
            TraceOutcome::Halted => None,
            TraceOutcome::Violation(v) => Some(v),
        }
    }
}

/// Compact header/trailer summary for `trace info` and diagnostics.
#[derive(Debug, Clone)]
pub struct TraceInfo {
    /// Format version.
    pub version: u64,
    /// Recorded program name.
    pub program: String,
    /// Recorded mode label.
    pub mode: String,
    /// Committed (µop-producing) instructions in the event stream.
    pub events: u64,
    /// Encoded size of the event stream alone.
    pub event_bytes: usize,
    /// Total serialized size (header + events + trailer).
    pub total_bytes: usize,
    /// Dynamic macro-instructions of the recorded run.
    pub insts: u64,
    /// How the run ended, rendered for humans.
    pub outcome: String,
}

impl TraceInfo {
    /// Event-stream bytes per committed instruction.
    pub fn bytes_per_event(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.event_bytes as f64 / self.events as f64
        }
    }
}

/// A recorded commit stream plus everything needed to replay it and to
/// rebuild the functional half of a [`RunReport`] exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    pub(crate) mode: Mode,
    pub(crate) program: String,
    pub(crate) fingerprint: u64,
    pub(crate) events: Vec<u8>,
    pub(crate) event_count: u64,
    pub(crate) outcome: TraceOutcome,
    pub(crate) machine: MachineStats,
    pub(crate) heap: HeapStats,
    pub(crate) footprint: Footprint,
}

impl Trace {
    /// The mode the trace was recorded under.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The recorded program's name.
    pub fn program(&self) -> &str {
        &self.program
    }

    /// The recorded program's fingerprint (see [`program_fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of committed (µop-producing) instructions recorded.
    pub fn event_count(&self) -> u64 {
        self.event_count
    }

    /// How the recorded run ended.
    pub fn outcome(&self) -> TraceOutcome {
        self.outcome
    }

    /// Architectural statistics of the recorded run.
    pub fn machine_stats(&self) -> MachineStats {
        self.machine
    }

    /// Heap-runtime statistics of the recorded run.
    pub fn heap_stats(&self) -> HeapStats {
        self.heap
    }

    /// Memory footprint of the recorded run.
    pub fn footprint(&self) -> Footprint {
        self.footprint
    }

    /// Header/trailer summary (no program needed).
    pub fn info(&self) -> TraceInfo {
        // Serialize the envelope alone (a hundred-odd bytes) to size the
        // whole container without copying the event stream.
        let mut envelope = Vec::with_capacity(160);
        self.put_header(&mut envelope);
        self.put_trailer(&mut envelope);
        TraceInfo {
            version: VERSION,
            program: self.program.clone(),
            mode: self.mode.label(),
            events: self.event_count,
            event_bytes: self.events.len(),
            total_bytes: envelope.len() + self.events.len() + CHECKSUM_BYTES,
            insts: self.machine.insts,
            outcome: match self.outcome {
                TraceOutcome::Halted => "halted".to_string(),
                TraceOutcome::Violation(v) => v.to_string(),
            },
        }
    }

    /// Serializes the trace.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.events.len() + 160);
        self.put_header(&mut buf);
        buf.extend_from_slice(&self.events);
        self.put_trailer(&mut buf);
        seal(&mut buf);
        buf
    }

    /// Everything before the event stream, ending with the event-stream
    /// length varint.
    fn put_header(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&MAGIC);
        put_uvarint(buf, VERSION);
        put_uvarint(buf, self.program.len() as u64);
        buf.extend_from_slice(self.program.as_bytes());
        put_uvarint(buf, self.fingerprint);
        put_mode(buf, self.mode);
        put_uvarint(buf, self.event_count);
        put_uvarint(buf, self.events.len() as u64);
    }

    /// Everything after the event stream: outcome + final statistics.
    fn put_trailer(&self, buf: &mut Vec<u8>) {
        match self.outcome {
            TraceOutcome::Halted => buf.push(0),
            TraceOutcome::Violation(v) => {
                buf.push(1);
                buf.push(kind_code(v.kind));
                put_uvarint(buf, v.pc_index as u64);
                put_uvarint(buf, v.addr);
            }
        }
        let m = self.machine;
        for v in [m.insts, m.mem_accesses, m.ptr_classified, m.calls, m.rets] {
            put_uvarint(buf, v);
        }
        let h = self.heap;
        for v in [
            h.mallocs,
            h.frees,
            h.reused,
            h.live_bytes,
            h.peak_live_bytes,
        ] {
            put_uvarint(buf, v);
        }
        let fp = self.footprint;
        for v in [
            fp.data_words,
            fp.shadow_words,
            fp.lock_words,
            fp.data_pages,
            fp.shadow_pages,
            fp.lock_pages,
        ] {
            put_uvarint(buf, v);
        }
    }

    /// Deserializes a trace.
    ///
    /// # Errors
    ///
    /// Any [`TraceError`] variant except `ProgramMismatch` (that one is
    /// raised at replay time, when a program is in hand).
    pub fn from_bytes(buf: &[u8]) -> Result<Trace, TraceError> {
        let mut pos = 0usize;
        let magic = buf.get(..4).ok_or(TraceError::Truncated)?;
        if magic != MAGIC {
            return Err(TraceError::BadMagic);
        }
        pos += 4;
        let version = get_uvarint(buf, &mut pos)?;
        if version != VERSION {
            return Err(TraceError::BadVersion(version));
        }
        let body_len = buf
            .len()
            .checked_sub(CHECKSUM_BYTES)
            .filter(|&n| n >= pos)
            .ok_or(TraceError::Truncated)?;
        let (buf, sum) = buf.split_at(body_len);
        let stored = u64::from_le_bytes(sum.try_into().expect("checksum width"));
        let computed = fnv1a(FNV_OFFSET, buf);
        if stored != computed {
            return Err(TraceError::ChecksumMismatch { stored, computed });
        }
        let name_len = get_uvarint(buf, &mut pos)?;
        let name_bytes = take_slice(buf, &mut pos, name_len)?.to_vec();
        let program = String::from_utf8(name_bytes)
            .map_err(|_| TraceError::Corrupt("program name is not UTF-8"))?;
        let fingerprint = get_uvarint(buf, &mut pos)?;
        let mode = get_mode(buf, &mut pos)?;
        let event_count = get_uvarint(buf, &mut pos)?;
        let events_len = get_uvarint(buf, &mut pos)?;
        let events = take_slice(buf, &mut pos, events_len)?.to_vec();
        let outcome = match next_byte(buf, &mut pos)? {
            0 => TraceOutcome::Halted,
            1 => {
                let kind = kind_from_code(next_byte(buf, &mut pos)?)?;
                let pc_index = get_uvarint(buf, &mut pos)? as usize;
                let addr = get_uvarint(buf, &mut pos)?;
                TraceOutcome::Violation(Violation {
                    kind,
                    pc_index,
                    addr,
                })
            }
            _ => return Err(TraceError::Corrupt("unknown outcome tag")),
        };
        let u = |pos: &mut usize| get_uvarint(buf, pos);
        let machine = MachineStats {
            insts: u(&mut pos)?,
            mem_accesses: u(&mut pos)?,
            ptr_classified: u(&mut pos)?,
            calls: u(&mut pos)?,
            rets: u(&mut pos)?,
        };
        let heap = HeapStats {
            mallocs: u(&mut pos)?,
            frees: u(&mut pos)?,
            reused: u(&mut pos)?,
            live_bytes: u(&mut pos)?,
            peak_live_bytes: u(&mut pos)?,
        };
        let footprint = Footprint {
            data_words: u(&mut pos)?,
            shadow_words: u(&mut pos)?,
            lock_words: u(&mut pos)?,
            data_pages: u(&mut pos)?,
            shadow_pages: u(&mut pos)?,
            lock_pages: u(&mut pos)?,
        };
        if pos != buf.len() {
            return Err(TraceError::Corrupt("trailing bytes after trailer"));
        }
        Ok(Trace {
            mode,
            program,
            fingerprint,
            events,
            event_count,
            outcome,
            machine,
            heap,
            footprint,
        })
    }
}

fn next_byte(buf: &[u8], pos: &mut usize) -> Result<u8, TraceError> {
    let b = *buf.get(*pos).ok_or(TraceError::Truncated)?;
    *pos += 1;
    Ok(b)
}

/// Takes a `len`-byte slice at `*pos`, advancing it. `len` arrives from
/// an untrusted varint, so the end position is computed with checked
/// arithmetic — a crafted huge length is `Truncated`, never a panic.
fn take_slice<'a>(buf: &'a [u8], pos: &mut usize, len: u64) -> Result<&'a [u8], TraceError> {
    let len = usize::try_from(len).map_err(|_| TraceError::Truncated)?;
    let end = pos.checked_add(len).ok_or(TraceError::Truncated)?;
    let s = buf.get(*pos..end).ok_or(TraceError::Truncated)?;
    *pos = end;
    Ok(s)
}

fn ptr_code(p: PointerId) -> u8 {
    match p {
        PointerId::Conservative => 0,
        PointerId::IsaAssisted => 1,
    }
}

fn ptr_from_code(b: u8) -> Result<PointerId, TraceError> {
    match b {
        0 => Ok(PointerId::Conservative),
        1 => Ok(PointerId::IsaAssisted),
        _ => Err(TraceError::Corrupt("unknown pointer-identification code")),
    }
}

/// Appends the compact byte encoding of a [`Mode`] (tag byte plus
/// tag-dependent parameter bytes). Shared with the campaign layer, which
/// embeds modes in job cells and ledger records under the same encoding
/// discipline as the trace header.
pub fn put_mode(buf: &mut Vec<u8>, mode: Mode) {
    match mode {
        Mode::Baseline => buf.push(0),
        Mode::LocationBased => buf.push(1),
        Mode::Watchdog {
            ptr,
            lock_cache,
            ideal_shadow,
        } => {
            buf.push(2);
            buf.push(ptr_code(ptr));
            buf.push(u8::from(lock_cache) | (u8::from(ideal_shadow) << 1));
        }
        Mode::WatchdogBounds { ptr, uops } => {
            buf.push(3);
            buf.push(ptr_code(ptr));
            buf.push(match uops {
                BoundsUops::Fused => 0,
                BoundsUops::Split => 1,
            });
        }
    }
}

/// Reads a [`Mode`] encoded by [`put_mode`] at `*pos`, advancing it.
///
/// # Errors
///
/// [`TraceError::Truncated`] when the buffer ends mid-encoding;
/// [`TraceError::Corrupt`] on an unknown tag or parameter byte.
pub fn get_mode(buf: &[u8], pos: &mut usize) -> Result<Mode, TraceError> {
    match next_byte(buf, pos)? {
        0 => Ok(Mode::Baseline),
        1 => Ok(Mode::LocationBased),
        2 => {
            let ptr = ptr_from_code(next_byte(buf, pos)?)?;
            let flags = next_byte(buf, pos)?;
            if flags > 3 {
                return Err(TraceError::Corrupt("unknown watchdog mode flags"));
            }
            Ok(Mode::Watchdog {
                ptr,
                lock_cache: flags & 1 != 0,
                ideal_shadow: flags & 2 != 0,
            })
        }
        3 => {
            let ptr = ptr_from_code(next_byte(buf, pos)?)?;
            let uops = match next_byte(buf, pos)? {
                0 => BoundsUops::Fused,
                1 => BoundsUops::Split,
                _ => return Err(TraceError::Corrupt("unknown bounds-µop code")),
            };
            Ok(Mode::WatchdogBounds { ptr, uops })
        }
        _ => Err(TraceError::Corrupt("unknown mode tag")),
    }
}

fn kind_code(k: ViolationKind) -> u8 {
    match k {
        ViolationKind::UseAfterFree => 0,
        ViolationKind::UseAfterReturn => 1,
        ViolationKind::WildPointer => 2,
        ViolationKind::DoubleFree => 3,
        ViolationKind::InvalidFree => 4,
        ViolationKind::OutOfBounds => 5,
    }
}

fn kind_from_code(b: u8) -> Result<ViolationKind, TraceError> {
    Ok(match b {
        0 => ViolationKind::UseAfterFree,
        1 => ViolationKind::UseAfterReturn,
        2 => ViolationKind::WildPointer,
        3 => ViolationKind::DoubleFree,
        4 => ViolationKind::InvalidFree,
        5 => ViolationKind::OutOfBounds,
        _ => return Err(TraceError::Corrupt("unknown violation kind")),
    })
}

/// Appends the checksum of everything in `buf` so far.
fn seal(buf: &mut Vec<u8>) {
    let sum = fnv1a(FNV_OFFSET, buf);
    buf.extend_from_slice(&sum.to_le_bytes());
}

/// FNV-1a fingerprint of a program's instructions and globals.
///
/// Recorded in every trace header and checked at replay time, so a trace
/// can never silently drive the timing model with the wrong program (pc
/// indices and crack expansions would be garbage).
pub fn program_fingerprint(p: &Program) -> u64 {
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| h = fnv1a(h, bytes);
    eat(p.name().as_bytes());
    eat(&(p.len() as u64).to_le_bytes());
    for i in 0..p.len() {
        eat(format!("{:?}", p.inst(i)).as_bytes());
    }
    for &(addr, val) in p.global_words() {
        eat(&addr.to_le_bytes());
        eat(&val.to_le_bytes());
    }
    for &(slot, target) in p.global_ptrs() {
        eat(&slot.to_le_bytes());
        eat(&target.to_le_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arbitrary_trace(seed: u64, events: Vec<u8>, name: String) -> Trace {
        // Derive every header/trailer field from the seed so the property
        // test sweeps modes, outcomes and counter magnitudes together.
        let modes = [
            Mode::Baseline,
            Mode::LocationBased,
            Mode::watchdog(),
            Mode::watchdog_conservative(),
            Mode::Watchdog {
                ptr: PointerId::IsaAssisted,
                lock_cache: false,
                ideal_shadow: true,
            },
            Mode::WatchdogBounds {
                ptr: PointerId::Conservative,
                uops: BoundsUops::Split,
            },
        ];
        let kinds = [
            ViolationKind::UseAfterFree,
            ViolationKind::UseAfterReturn,
            ViolationKind::WildPointer,
            ViolationKind::DoubleFree,
            ViolationKind::InvalidFree,
            ViolationKind::OutOfBounds,
        ];
        let x = |k: u64| {
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(k as u32)
        };
        let outcome = if seed.is_multiple_of(3) {
            TraceOutcome::Halted
        } else {
            TraceOutcome::Violation(Violation {
                kind: kinds[(seed % 6) as usize],
                pc_index: x(1) as usize % 100_000,
                addr: x(2),
            })
        };
        Trace {
            mode: modes[(seed % 6) as usize],
            program: name,
            fingerprint: x(3),
            event_count: x(4) % 1_000_000,
            events,
            outcome,
            machine: watchdog_core::machine::MachineStats {
                insts: x(5),
                mem_accesses: x(6),
                ptr_classified: x(7),
                calls: x(8),
                rets: x(9),
            },
            heap: HeapStats {
                mallocs: x(10),
                frees: x(11),
                reused: x(12),
                live_bytes: x(13),
                peak_live_bytes: x(14),
            },
            footprint: Footprint {
                data_words: x(15),
                shadow_words: x(16),
                lock_words: x(17),
                data_pages: x(18),
                shadow_pages: x(19),
                lock_pages: x(20),
            },
        }
    }

    proptest! {
        /// The satellite property: serialize→deserialize identity over
        /// arbitrary event streams (and arbitrary headers/trailers).
        #[test]
        fn serialization_round_trips(
            seed in any::<u64>(),
            events in proptest::collection::vec(any::<u8>(), 0..512),
            name in proptest::collection::vec(97u8..123, 0..24),
        ) {
            let name = String::from_utf8(name).unwrap();
            let t = arbitrary_trace(seed, events, name);
            let bytes = t.to_bytes();
            let back = Trace::from_bytes(&bytes).unwrap();
            prop_assert_eq!(t, back);
        }

        /// Any truncation of a valid trace is rejected, never misread.
        #[test]
        fn truncations_are_rejected(
            seed in any::<u64>(),
            events in proptest::collection::vec(any::<u8>(), 0..64),
            cut in any::<u64>(),
        ) {
            let t = arbitrary_trace(seed, events, "p".into());
            let bytes = t.to_bytes();
            let cut = (cut as usize) % bytes.len();
            prop_assert!(Trace::from_bytes(&bytes[..cut]).is_err());
        }

        /// Any single-bit flip of a valid trace is rejected, never
        /// decoded into a different trace.
        #[test]
        fn bit_flips_are_rejected(
            seed in any::<u64>(),
            events in proptest::collection::vec(any::<u8>(), 0..256),
            bit in any::<u64>(),
        ) {
            let t = arbitrary_trace(seed, events, "p".into());
            let mut bytes = t.to_bytes();
            let bit = (bit as usize) % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(Trace::from_bytes(&bytes).is_err());
        }
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let t = arbitrary_trace(1, vec![], "x".into());
        let mut bytes = t.to_bytes();
        bytes[0] = b'X';
        assert_eq!(Trace::from_bytes(&bytes), Err(TraceError::BadMagic));
        let mut bytes = t.to_bytes();
        bytes[4] = 99; // single-byte varint version field
        assert_eq!(Trace::from_bytes(&bytes), Err(TraceError::BadVersion(99)));
    }

    #[test]
    fn huge_length_varints_are_rejected_not_panicked() {
        // A crafted name-length of u64::MAX must fail closed (the naive
        // `pos + len` slice would overflow and panic in debug builds).
        let mut bytes = vec![];
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION as u8);
        bytes.extend_from_slice(&[0xff; 9]); // name length varint...
        bytes.push(0x01); // ...= u64::MAX
        seal(&mut bytes);
        assert_eq!(Trace::from_bytes(&bytes), Err(TraceError::Truncated));
        // Same for the event-stream length.
        let t = arbitrary_trace(3, vec![], "x".into());
        let good = t.to_bytes();
        let events_len_at = good.len() - {
            // Rebuild everything after the events-length varint to find
            // its offset: checksum + trailer + events (empty here) + 1
            // varint byte.
            let mut tail = Vec::new();
            t.put_trailer(&mut tail);
            CHECKSUM_BYTES + tail.len() + 1
        };
        let mut bytes = good[..events_len_at].to_vec();
        bytes.extend_from_slice(&[0xff; 9]);
        bytes.push(0x01);
        seal(&mut bytes);
        assert_eq!(Trace::from_bytes(&bytes), Err(TraceError::Truncated));
    }

    #[test]
    fn info_total_bytes_matches_serialization() {
        for seed in 0..16 {
            let t = arbitrary_trace(seed, vec![7; (seed as usize) * 13], "prog".into());
            assert_eq!(t.info().total_bytes, t.to_bytes().len());
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let t = arbitrary_trace(2, vec![1, 2, 3], "x".into());
        let mut bytes = t.to_bytes();
        bytes.push(0);
        assert!(matches!(
            Trace::from_bytes(&bytes),
            Err(TraceError::ChecksumMismatch { .. })
        ));
        // Garbage inside the checksummed body is caught by the decoder.
        bytes.truncate(bytes.len() - 1 - CHECKSUM_BYTES);
        bytes.push(0);
        seal(&mut bytes);
        assert!(matches!(
            Trace::from_bytes(&bytes),
            Err(TraceError::Corrupt(_))
        ));
    }

    #[test]
    fn fingerprints_distinguish_programs() {
        use watchdog_isa::{Gpr, ProgramBuilder};
        let build = |imm: i64| {
            let mut b = ProgramBuilder::new("fp");
            b.li(Gpr::new(0), imm);
            b.halt();
            b.build().unwrap()
        };
        let a = program_fingerprint(&build(1));
        let b = program_fingerprint(&build(1));
        let c = program_fingerprint(&build(2));
        assert_eq!(a, b, "fingerprints are deterministic");
        assert_ne!(a, c, "fingerprints see instruction operands");
    }

    #[test]
    fn errors_display_distinctly() {
        let errors = [
            TraceError::Truncated,
            TraceError::BadMagic,
            TraceError::BadVersion(7),
            TraceError::Corrupt("x"),
            TraceError::ChecksumMismatch {
                stored: 1,
                computed: 2,
            },
            TraceError::ProgramMismatch {
                trace: "a".into(),
                program: "b".into(),
            },
            TraceError::Config(
                watchdog_pipeline::CoreConfig {
                    rob_entries: 0,
                    ..Default::default()
                }
                .validate()
                .unwrap_err(),
            ),
        ];
        let mut seen = std::collections::HashSet::new();
        for e in errors {
            assert!(seen.insert(e.to_string()));
        }
    }
}
