//! Length-prefixed, checksummed frames over worker stdin/stdout.
//!
//! Layout per frame (integers little-endian raw, message payload built
//! from the trace-wire varint primitives):
//!
//! ```text
//! payload length (4 bytes LE) | payload | FNV-1a of payload (8 bytes LE)
//! ```
//!
//! The trailing checksum is what turns "worker emitted garbage" into a
//! detected, recoverable failure: a corrupt frame surfaces as
//! [`FrameError::Corrupt`], the coordinator kills the worker and retries
//! the cell, and the fault-injection suite proves that path.

use std::fmt;
use std::io::{self, Read, Write};

use watchdog_trace::wire::{get_uvarint, put_uvarint};

use crate::cell::{CellOutcome, CellSpec};
use watchdog_mem::hash::{fnv1a, FNV_OFFSET};

/// Protocol version, exchanged in the worker's `Hello`. A coordinator
/// refuses to feed cells to a worker speaking another version (mixed
/// binaries on one box).
pub const PROTO_VERSION: u64 = 1;

/// Upper bound on a frame payload; a length prefix beyond this is
/// corruption, not a real message (keeps a torn 4-byte prefix from
/// triggering a multi-gigabyte allocation).
pub const MAX_FRAME: u32 = 64 << 20;

/// Errors reading a frame.
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended cleanly before a frame started.
    Eof,
    /// The frame is structurally invalid (torn prefix, oversized length,
    /// truncated payload, or checksum mismatch).
    Corrupt(&'static str),
    /// An underlying I/O error.
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Eof => write!(f, "end of stream"),
            FrameError::Corrupt(why) => write!(f, "corrupt frame: {why}"),
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one frame (length, payload, checksum) and flushes.
///
/// # Errors
///
/// Any underlying I/O error (a dead worker's pipe returns `EPIPE`).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.write_all(&fnv1a(FNV_OFFSET, payload).to_le_bytes())?;
    w.flush()
}

/// Reads one frame, verifying the checksum.
///
/// # Errors
///
/// [`FrameError::Eof`] on a clean end of stream before the length
/// prefix; [`FrameError::Corrupt`] on a torn prefix/payload, oversized
/// length or checksum mismatch; [`FrameError::Io`] otherwise.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut len4 = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len4[filled..]) {
            Ok(0) if filled == 0 => return Err(FrameError::Eof),
            Ok(0) => return Err(FrameError::Corrupt("truncated length prefix")),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len4);
    if len > MAX_FRAME {
        return Err(FrameError::Corrupt("frame length exceeds bound"));
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_or(r, &mut payload, "truncated payload")?;
    let mut sum8 = [0u8; 8];
    read_exact_or(r, &mut sum8, "truncated checksum")?;
    if u64::from_le_bytes(sum8) != fnv1a(FNV_OFFSET, &payload) {
        return Err(FrameError::Corrupt("checksum mismatch"));
    }
    Ok(payload)
}

fn read_exact_or(r: &mut impl Read, buf: &mut [u8], why: &'static str) -> Result<(), FrameError> {
    match r.read_exact(buf) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(FrameError::Corrupt(why)),
        Err(e) => Err(FrameError::Io(e)),
    }
}

/// Coordinator → worker messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordMsg {
    /// Exit the worker loop cleanly.
    Shutdown,
    /// Execute one cell. `attempt` counts retries (0 = first try) and is
    /// what lets single-shot injected faults fire exactly once.
    Job {
        /// Cell id (index into the campaign's cell list).
        cell: u32,
        /// Retry attempt, 0-based.
        attempt: u32,
        /// What to execute.
        spec: CellSpec,
    },
}

impl CoordMsg {
    /// Encodes the message payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            CoordMsg::Shutdown => buf.push(0),
            CoordMsg::Job {
                cell,
                attempt,
                spec,
            } => {
                buf.push(1);
                put_uvarint(&mut buf, u64::from(*cell));
                put_uvarint(&mut buf, u64::from(*attempt));
                spec.put(&mut buf);
            }
        }
        buf
    }

    /// Decodes a message payload.
    ///
    /// # Errors
    ///
    /// A static message naming the malformed field.
    pub fn decode(payload: &[u8]) -> Result<CoordMsg, &'static str> {
        let mut pos = 0;
        let msg = match first_byte(payload, &mut pos)? {
            0 => CoordMsg::Shutdown,
            1 => CoordMsg::Job {
                cell: uv32(payload, &mut pos)?,
                attempt: uv32(payload, &mut pos)?,
                spec: CellSpec::get(payload, &mut pos)?,
            },
            _ => return Err("unknown coordinator message tag"),
        };
        finish(payload, pos)?;
        Ok(msg)
    }
}

/// Worker → coordinator messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerMsg {
    /// Sent once at startup; doubles as the liveness handshake.
    Hello {
        /// The worker's [`PROTO_VERSION`].
        proto: u64,
    },
    /// A completed cell.
    Done {
        /// The cell id from the job.
        cell: u32,
        /// Its deterministic outcome.
        outcome: CellOutcome,
    },
}

impl WorkerMsg {
    /// Encodes the message payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            WorkerMsg::Hello { proto } => {
                buf.push(0);
                put_uvarint(&mut buf, *proto);
            }
            WorkerMsg::Done { cell, outcome } => {
                buf.push(1);
                put_uvarint(&mut buf, u64::from(*cell));
                outcome.put(&mut buf);
            }
        }
        buf
    }

    /// Decodes a message payload.
    ///
    /// # Errors
    ///
    /// A static message naming the malformed field.
    pub fn decode(payload: &[u8]) -> Result<WorkerMsg, &'static str> {
        let mut pos = 0;
        let msg = match first_byte(payload, &mut pos)? {
            0 => WorkerMsg::Hello {
                proto: get_uvarint(payload, &mut pos).map_err(|_| "bad proto varint")?,
            },
            1 => WorkerMsg::Done {
                cell: uv32(payload, &mut pos)?,
                outcome: CellOutcome::get(payload, &mut pos)?,
            },
            _ => return Err("unknown worker message tag"),
        };
        finish(payload, pos)?;
        Ok(msg)
    }
}

fn first_byte(payload: &[u8], pos: &mut usize) -> Result<u8, &'static str> {
    let b = *payload.first().ok_or("empty message payload")?;
    *pos = 1;
    Ok(b)
}

fn uv32(payload: &[u8], pos: &mut usize) -> Result<u32, &'static str> {
    let v = get_uvarint(payload, pos).map_err(|_| "bad varint")?;
    u32::try_from(v).map_err(|_| "value exceeds 32 bits")
}

fn finish(payload: &[u8], pos: usize) -> Result<(), &'static str> {
    if pos == payload.len() {
        Ok(())
    } else {
        Err("trailing bytes after message")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn pipe_round_trip(payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, payload).unwrap();
        let mut r = Cursor::new(buf);
        let got = read_frame(&mut r).unwrap();
        assert!(matches!(read_frame(&mut r), Err(FrameError::Eof)));
        got
    }

    #[test]
    fn frames_round_trip() {
        assert_eq!(pipe_round_trip(b""), b"");
        assert_eq!(pipe_round_trip(b"hello"), b"hello");
        let big = vec![0xabu8; 100_000];
        assert_eq!(pipe_round_trip(&big), big);
    }

    #[test]
    fn every_truncation_is_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        for cut in 1..buf.len() {
            let err = read_frame(&mut Cursor::new(&buf[..cut])).unwrap_err();
            assert!(
                matches!(err, FrameError::Corrupt(_)),
                "cut {cut}: got {err:?}"
            );
        }
    }

    #[test]
    fn corrupted_payload_fails_the_checksum() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"watchdog").unwrap();
        for i in 4..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            let err = read_frame(&mut Cursor::new(&bad)).unwrap_err();
            assert!(
                matches!(err, FrameError::Corrupt("checksum mismatch")),
                "flip at {i}: got {err:?}"
            );
        }
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut buf = (MAX_FRAME + 1).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0; 16]);
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf)),
            Err(FrameError::Corrupt("frame length exceeds bound"))
        ));
    }

    #[test]
    fn messages_round_trip() {
        let msgs = [
            CoordMsg::Shutdown,
            CoordMsg::Job {
                cell: 0,
                attempt: 0,
                spec: CellSpec::Seed(42),
            },
            CoordMsg::Job {
                cell: u32::MAX,
                attempt: 3,
                spec: CellSpec::Seed(u64::MAX),
            },
        ];
        for m in msgs {
            assert_eq!(CoordMsg::decode(&m.encode()).unwrap(), m);
        }
        let msgs = [
            WorkerMsg::Hello {
                proto: PROTO_VERSION,
            },
            WorkerMsg::Done {
                cell: 7,
                outcome: CellOutcome::Pass {
                    insts: 123,
                    digest: 456,
                },
            },
            WorkerMsg::Done {
                cell: 8,
                outcome: CellOutcome::Fail {
                    kind: 2,
                    pc: 99,
                    detail: "wild pointer".into(),
                },
            },
        ];
        for m in msgs {
            assert_eq!(WorkerMsg::decode(&m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn trailing_bytes_and_bad_tags_are_rejected() {
        let mut p = CoordMsg::Shutdown.encode();
        p.push(0);
        assert!(CoordMsg::decode(&p).is_err());
        assert!(CoordMsg::decode(&[9]).is_err());
        assert!(WorkerMsg::decode(&[9]).is_err());
        assert!(WorkerMsg::decode(&[]).is_err());
    }
}
