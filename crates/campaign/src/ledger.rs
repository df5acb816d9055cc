//! The append-only, crash-safe results ledger.
//!
//! Layout (varints from the trace wire module unless noted):
//!
//! ```text
//! magic "WDLG" (4 raw bytes)
//! version | spec hash | probe fingerprint | cell count
//! then, per completed cell, in completion order:
//!   marker 0xA5 (1 raw byte)
//!   payload length | payload | FNV-1a checksum of payload
//!   payload = cell id | outcome (see CellOutcome::put)
//! ```
//!
//! Records are appended with one `fdatasync` each, so a kill at any
//! instant leaves at worst one **torn final record** — which the parser
//! detects (marker, length, checksum) and drops rather than mis-parses.
//! The header pins the campaign: a ledger whose spec hash, probe
//! fingerprint or cell count differs from the resuming campaign is
//! refused outright ([`LedgerError::Mismatch`]) instead of silently
//! merged.
//!
//! Parsing is **prefix recovery**, not validation: everything up to the
//! first structurally bad byte is kept, the rest (the torn tail) is
//! reported via [`ParsedLedger::valid_len`] so resume can truncate it.
//! Records from interleaved writers (two coordinators racing one file
//! with `O_APPEND` record granularity) and duplicate cells (a crash
//! between append and schedule bookkeeping) both parse; duplicates
//! resolve **first-write-wins** — the earlier record is the one that was
//! durable first.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use watchdog_trace::wire::{get_uvarint, put_uvarint};

use crate::cell::CellOutcome;
use watchdog_mem::hash::{fnv1a, FNV_OFFSET};

/// File magic: first four bytes of every ledger.
pub const LEDGER_MAGIC: [u8; 4] = *b"WDLG";

/// Current ledger format version; other versions are refused.
pub const LEDGER_VERSION: u64 = 1;

/// Marker byte opening every record (resync guard: a record can never
/// start with trailing garbage from a torn write).
pub const RECORD_MARKER: u8 = 0xa5;

/// The ledger header: everything needed to refuse a stale or foreign
/// ledger before reading a single record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerHeader {
    /// Format version ([`LEDGER_VERSION`]).
    pub version: u64,
    /// [`CampaignSpec::spec_hash`](crate::CampaignSpec::spec_hash) of the
    /// writing campaign.
    pub spec_hash: u64,
    /// [`CampaignSpec::probe_fingerprint`](crate::CampaignSpec::probe_fingerprint)
    /// of the writing campaign.
    pub probe_fingerprint: u64,
    /// Total cells in the campaign (not: records written so far).
    pub cells: u32,
}

impl LedgerHeader {
    /// Serializes the header.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32);
        buf.extend_from_slice(&LEDGER_MAGIC);
        put_uvarint(&mut buf, self.version);
        put_uvarint(&mut buf, self.spec_hash);
        put_uvarint(&mut buf, self.probe_fingerprint);
        put_uvarint(&mut buf, u64::from(self.cells));
        buf
    }
}

/// One completed cell in the ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellRecord {
    /// Cell id (index into the campaign's cell list).
    pub cell: u32,
    /// The cell's deterministic outcome.
    pub outcome: CellOutcome,
}

impl CellRecord {
    /// Serializes the record (marker, length, payload, checksum).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(32);
        put_uvarint(&mut payload, u64::from(self.cell));
        self.outcome.put(&mut payload);
        let mut buf = Vec::with_capacity(payload.len() + 16);
        buf.push(RECORD_MARKER);
        put_uvarint(&mut buf, payload.len() as u64);
        buf.extend_from_slice(&payload);
        put_uvarint(&mut buf, fnv1a(FNV_OFFSET, &payload));
        buf
    }
}

/// Errors reading or resuming a ledger.
#[derive(Debug)]
pub enum LedgerError {
    /// The file exists but is not a ledger (bad magic or a header torn
    /// before the first record could have been written).
    NotALedger,
    /// The ledger was written by an unsupported format version.
    BadVersion(u64),
    /// The ledger belongs to a different campaign — the named header
    /// field disagrees with the resuming campaign.
    Mismatch {
        /// Which header field disagreed.
        field: &'static str,
        /// The value recorded in the ledger.
        ledger: u64,
        /// The resuming campaign's value.
        campaign: u64,
    },
    /// An underlying I/O error.
    Io(io::Error),
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::NotALedger => write!(f, "not a watchdog campaign ledger"),
            LedgerError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported ledger version {v} (expected {LEDGER_VERSION})"
                )
            }
            LedgerError::Mismatch {
                field,
                ledger,
                campaign,
            } => write!(
                f,
                "stale ledger refused: {field} mismatch (ledger {ledger:#x}, campaign \
                 {campaign:#x}) — the ledger was written by a different campaign or build; \
                 delete it or point --ledger elsewhere"
            ),
            LedgerError::Io(e) => write!(f, "ledger i/o error: {e}"),
        }
    }
}

impl std::error::Error for LedgerError {}

impl From<io::Error> for LedgerError {
    fn from(e: io::Error) -> Self {
        LedgerError::Io(e)
    }
}

/// A parsed ledger: the header, every structurally valid record in file
/// order, and where the valid prefix ends.
#[derive(Debug, Clone)]
pub struct ParsedLedger {
    /// The header.
    pub header: LedgerHeader,
    /// Records in file order (duplicates included; see [`dedup`]).
    pub records: Vec<CellRecord>,
    /// Byte length of the valid prefix (header + whole records). Equal
    /// to the input length iff nothing was torn.
    pub valid_len: u64,
    /// Whether bytes after `valid_len` were dropped as a torn tail.
    pub torn: bool,
}

/// Parses ledger bytes, recovering the valid prefix.
///
/// # Errors
///
/// [`LedgerError::NotALedger`] when the magic is wrong or the header is
/// torn; [`LedgerError::BadVersion`] for foreign versions. Torn or
/// corrupt **records** are not errors — parsing stops there and reports
/// the tail via [`ParsedLedger::torn`].
pub fn parse_ledger(bytes: &[u8]) -> Result<ParsedLedger, LedgerError> {
    let mut pos = 0usize;
    if bytes.get(..4) != Some(&LEDGER_MAGIC[..]) {
        return Err(LedgerError::NotALedger);
    }
    pos += 4;
    let version = get_uvarint(bytes, &mut pos).map_err(|_| LedgerError::NotALedger)?;
    if version != LEDGER_VERSION {
        return Err(LedgerError::BadVersion(version));
    }
    let spec_hash = get_uvarint(bytes, &mut pos).map_err(|_| LedgerError::NotALedger)?;
    let probe = get_uvarint(bytes, &mut pos).map_err(|_| LedgerError::NotALedger)?;
    let cells = get_uvarint(bytes, &mut pos).map_err(|_| LedgerError::NotALedger)?;
    let cells = u32::try_from(cells).map_err(|_| LedgerError::NotALedger)?;
    let header = LedgerHeader {
        version,
        spec_hash,
        probe_fingerprint: probe,
        cells,
    };

    let mut records = Vec::new();
    let mut valid_len = pos;
    while pos < bytes.len() {
        let Some(rec) = parse_record(bytes, &mut pos) else {
            break;
        };
        records.push(rec);
        valid_len = pos;
    }
    Ok(ParsedLedger {
        header,
        records,
        valid_len: valid_len as u64,
        torn: valid_len != bytes.len(),
    })
}

/// Parses one record at `*pos`; `None` (without advancing past valid
/// data) when the bytes there are torn or corrupt.
fn parse_record(bytes: &[u8], pos: &mut usize) -> Option<CellRecord> {
    let mut p = *pos;
    if *bytes.get(p)? != RECORD_MARKER {
        return None;
    }
    p += 1;
    let len = get_uvarint(bytes, &mut p).ok()?;
    let len = usize::try_from(len).ok()?;
    let end = p.checked_add(len)?;
    let payload = bytes.get(p..end)?;
    p = end;
    let sum = get_uvarint(bytes, &mut p).ok()?;
    if sum != fnv1a(FNV_OFFSET, payload) {
        return None;
    }
    let mut q = 0usize;
    let cell = get_uvarint(payload, &mut q).ok()?;
    let cell = u32::try_from(cell).ok()?;
    let outcome = CellOutcome::get(payload, &mut q).ok()?;
    if q != payload.len() {
        return None;
    }
    *pos = p;
    Some(CellRecord { cell, outcome })
}

/// Collapses records (file order) into a per-cell map, first-write-wins.
pub fn dedup(records: &[CellRecord]) -> BTreeMap<u32, CellOutcome> {
    let mut map = BTreeMap::new();
    for r in records {
        map.entry(r.cell).or_insert_with(|| r.outcome.clone());
    }
    map
}

/// The canonical serialization: header followed by one record per cell
/// in **cell-id order**. A completed campaign compacts its ledger to this
/// form, which is byte-identical to the ledger of an undisturbed serial
/// run of the same campaign.
pub fn canonical_bytes(header: &LedgerHeader, done: &BTreeMap<u32, CellOutcome>) -> Vec<u8> {
    let mut buf = header.to_bytes();
    for (&cell, outcome) in done {
        buf.extend_from_slice(
            &CellRecord {
                cell,
                outcome: outcome.clone(),
            }
            .to_bytes(),
        );
    }
    buf
}

/// Reads a ledger file and returns its canonical bytes (parse, drop the
/// torn tail, dedup, sort by cell id) — the form the fault and resume
/// suites compare against a serial run.
///
/// # Errors
///
/// As [`parse_ledger`], plus I/O errors reading the file.
pub fn read_canonical(path: &Path) -> Result<Vec<u8>, LedgerError> {
    let parsed = parse_ledger(&std::fs::read(path)?)?;
    Ok(canonical_bytes(&parsed.header, &dedup(&parsed.records)))
}

/// The append side: an open ledger file with one durable record per
/// completed cell.
#[derive(Debug)]
pub struct LedgerWriter {
    file: File,
    path: PathBuf,
    header: LedgerHeader,
}

impl LedgerWriter {
    /// Creates (or truncates) a fresh ledger with `header`.
    ///
    /// # Errors
    ///
    /// I/O errors creating or syncing the file.
    pub fn create(path: &Path, header: LedgerHeader) -> Result<LedgerWriter, LedgerError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(&header.to_bytes())?;
        file.sync_data()?;
        Ok(LedgerWriter {
            file,
            path: path.to_path_buf(),
            header,
        })
    }

    /// Opens an existing ledger for resumption: validates the header
    /// against `expect`, truncates any torn tail, and returns the writer
    /// plus the already-completed cells. A missing or empty file starts
    /// fresh (a campaign killed before its first write left nothing to
    /// resume).
    ///
    /// # Errors
    ///
    /// [`LedgerError::Mismatch`] when any header field disagrees with
    /// `expect`; parse and I/O errors as [`parse_ledger`].
    pub fn resume(
        path: &Path,
        expect: LedgerHeader,
    ) -> Result<(LedgerWriter, BTreeMap<u32, CellOutcome>), LedgerError> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        if bytes.is_empty() {
            return Ok((LedgerWriter::create(path, expect)?, BTreeMap::new()));
        }
        let parsed = parse_ledger(&bytes)?;
        let h = parsed.header;
        let mismatch = [
            ("spec hash", h.spec_hash, expect.spec_hash),
            (
                "program fingerprint",
                h.probe_fingerprint,
                expect.probe_fingerprint,
            ),
            ("cell count", u64::from(h.cells), u64::from(expect.cells)),
        ]
        .into_iter()
        .find(|(_, a, b)| a != b);
        if let Some((field, ledger, campaign)) = mismatch {
            return Err(LedgerError::Mismatch {
                field,
                ledger,
                campaign,
            });
        }
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(parsed.valid_len)?;
        file.seek(SeekFrom::End(0))?;
        file.sync_data()?;
        let done = dedup(&parsed.records);
        Ok((
            LedgerWriter {
                file,
                path: path.to_path_buf(),
                header: h,
            },
            done,
        ))
    }

    /// Appends one record and syncs it to disk before returning — after
    /// this returns, a kill at any instant cannot lose the cell.
    ///
    /// # Errors
    ///
    /// I/O errors writing or syncing.
    pub fn append(&mut self, record: &CellRecord) -> Result<(), LedgerError> {
        self.file.write_all(&record.to_bytes())?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Compacts the completed ledger into canonical cell-id order via an
    /// atomic tmp-file + rename, so the final on-disk bytes equal a
    /// serial run's ledger exactly. Crash-safe: a kill mid-compaction
    /// leaves either the old (complete, unordered) or the new
    /// (canonical) file.
    ///
    /// # Errors
    ///
    /// I/O errors writing, syncing or renaming.
    pub fn finalize_canonical(self, done: &BTreeMap<u32, CellOutcome>) -> Result<(), LedgerError> {
        let bytes = canonical_bytes(&self.header, done);
        let tmp = self.path.with_extension("wdlg.tmp");
        let mut f = File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        drop(f);
        drop(self.file);
        std::fs::rename(&tmp, &self.path)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn header(cells: u32) -> LedgerHeader {
        LedgerHeader {
            version: LEDGER_VERSION,
            spec_hash: 0x1234_5678_9abc_def0,
            probe_fingerprint: 0x0fed_cba9_8765_4321,
            cells,
        }
    }

    fn rec(cell: u32, digest: u64) -> CellRecord {
        CellRecord {
            cell,
            outcome: CellOutcome::Pass {
                insts: u64::from(cell) * 1000 + 7,
                digest,
            },
        }
    }

    fn serialize(h: &LedgerHeader, recs: &[CellRecord]) -> Vec<u8> {
        let mut buf = h.to_bytes();
        for r in recs {
            buf.extend_from_slice(&r.to_bytes());
        }
        buf
    }

    #[test]
    fn round_trips_and_reports_no_tear() {
        let recs: Vec<CellRecord> = (0..10).map(|i| rec(i, u64::from(i) ^ 0xabcd)).collect();
        let bytes = serialize(&header(10), &recs);
        let p = parse_ledger(&bytes).unwrap();
        assert_eq!(p.records, recs);
        assert!(!p.torn);
        assert_eq!(p.valid_len, bytes.len() as u64);
    }

    #[test]
    fn header_tears_are_refused_not_recovered() {
        let bytes = serialize(&header(3), &[rec(0, 1)]);
        let header_len = header(3).to_bytes().len();
        for cut in 0..header_len {
            assert!(
                matches!(parse_ledger(&bytes[..cut]), Err(LedgerError::NotALedger)),
                "header cut at {cut}"
            );
        }
        assert!(matches!(
            parse_ledger(b"WDTR----"),
            Err(LedgerError::NotALedger)
        ));
        let mut v2 = header(3).to_bytes();
        v2[4] = 9; // single-byte version varint
        assert!(matches!(parse_ledger(&v2), Err(LedgerError::BadVersion(9))));
    }

    #[test]
    fn every_tail_truncation_drops_exactly_the_torn_record() {
        let recs: Vec<CellRecord> = (0..6).map(|i| rec(i, 42 + u64::from(i))).collect();
        let h = header(6);
        let header_len = h.to_bytes().len();
        let bytes = serialize(&h, &recs);
        // Record boundaries, for checking the recovered prefix exactly.
        let mut boundaries = vec![header_len];
        for r in &recs {
            boundaries.push(boundaries.last().unwrap() + r.to_bytes().len());
        }
        for cut in header_len..bytes.len() {
            let p = parse_ledger(&bytes[..cut]).unwrap();
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(p.records, recs[..whole], "cut at {cut}");
            assert_eq!(p.valid_len as usize, boundaries[whole], "cut at {cut}");
            assert_eq!(p.torn, cut != boundaries[whole], "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_mid_record_bytes_stop_parsing_at_the_last_good_record() {
        let recs: Vec<CellRecord> = (0..4).map(|i| rec(i, 9 + u64::from(i))).collect();
        let h = header(4);
        let mut bytes = serialize(&h, &recs[..3]);
        // Flip a byte inside the third record's payload.
        let third_start = h.to_bytes().len() + recs[0].to_bytes().len() + recs[1].to_bytes().len();
        bytes[third_start + 3] ^= 0x10;
        bytes.extend_from_slice(&recs[3].to_bytes());
        let p = parse_ledger(&bytes).unwrap();
        // The corrupt record and everything after it are the torn tail:
        // no resync, no mis-parse.
        assert_eq!(p.records, recs[..2]);
        assert!(p.torn);
    }

    #[test]
    fn duplicates_resolve_first_write_wins() {
        let first = rec(3, 111);
        let later = rec(3, 222);
        let bytes = serialize(&header(5), &[rec(0, 5), first.clone(), later, rec(4, 9)]);
        let p = parse_ledger(&bytes).unwrap();
        let done = dedup(&p.records);
        assert_eq!(done.len(), 3);
        assert_eq!(done[&3], first.outcome);
    }

    #[test]
    fn interleaved_writer_records_parse_and_dedup() {
        // Two writers' record streams interleaved at record granularity
        // (O_APPEND): structurally valid, resolved first-write-wins.
        let a: Vec<CellRecord> = (0..4).map(|i| rec(i, 100 + u64::from(i))).collect();
        let b: Vec<CellRecord> = (0..4).map(|i| rec(i, 200 + u64::from(i))).collect();
        let mut bytes = header(4).to_bytes();
        for i in 0..4 {
            bytes.extend_from_slice(&a[i].to_bytes());
            bytes.extend_from_slice(&b[i].to_bytes());
        }
        let p = parse_ledger(&bytes).unwrap();
        assert_eq!(p.records.len(), 8);
        assert!(!p.torn);
        let done = dedup(&p.records);
        assert_eq!(done.len(), 4);
        for i in 0..4u32 {
            assert_eq!(
                done[&i], a[i as usize].outcome,
                "writer A was durable first"
            );
        }
    }

    #[test]
    fn canonical_bytes_sort_by_cell_id() {
        let recs = [rec(2, 22), rec(0, 0), rec(1, 11)];
        let h = header(3);
        let bytes = serialize(&h, &recs);
        let p = parse_ledger(&bytes).unwrap();
        let canon = canonical_bytes(&p.header, &dedup(&p.records));
        let sorted = serialize(&h, &[rec(0, 0), rec(1, 11), rec(2, 22)]);
        assert_eq!(canon, sorted);
    }

    #[test]
    fn writer_create_append_resume_cycle() {
        let dir = std::env::temp_dir().join(format!("wdlg-unit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cycle.wdlg");
        let h = header(4);
        let mut w = LedgerWriter::create(&path, h).unwrap();
        w.append(&rec(1, 10)).unwrap();
        w.append(&rec(0, 5)).unwrap();
        drop(w);
        // Simulate a torn tail: append garbage.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[RECORD_MARKER, 200]).unwrap();
        }
        let (mut w, done) = LedgerWriter::resume(&path, h).unwrap();
        assert_eq!(done.len(), 2, "torn tail dropped, good records kept");
        w.append(&rec(2, 20)).unwrap();
        w.append(&rec(3, 30)).unwrap();
        let mut all = done;
        all.insert(2, rec(2, 20).outcome);
        all.insert(3, rec(3, 30).outcome);
        w.finalize_canonical(&all).unwrap();
        let file_bytes = std::fs::read(&path).unwrap();
        let serial = serialize(&h, &[rec(0, 5), rec(1, 10), rec(2, 20), rec(3, 30)]);
        assert_eq!(file_bytes, serial, "finalized file is canonical");
        // Resume against a different campaign is refused.
        let mut other = h;
        other.probe_fingerprint ^= 1;
        match LedgerWriter::resume(&path, other) {
            Err(LedgerError::Mismatch { field, .. }) => {
                assert_eq!(field, "program fingerprint");
            }
            other => panic!("expected fingerprint mismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn errors_display_distinctly() {
        let errors = [
            LedgerError::NotALedger,
            LedgerError::BadVersion(9),
            LedgerError::Mismatch {
                field: "spec hash",
                ledger: 1,
                campaign: 2,
            },
            LedgerError::Io(io::Error::other("x")),
        ];
        // Test-only, and only membership is asked: no order is observed.
        let mut seen = std::collections::HashSet::new();
        for e in errors {
            assert!(seen.insert(e.to_string()));
        }
    }
}
