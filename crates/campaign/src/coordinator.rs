//! The campaign coordinator: a multi-process job pool with crash
//! isolation, a heartbeat watchdog, bounded retries, and the crash-safe
//! ledger as its single source of truth.
//!
//! Control flow: resolve the ledger (fresh, or resumed with the torn
//! tail truncated and completed cells skipped), spawn N workers, then a
//! single event loop — dispatch jobs to idle workers, collect `Done`
//! frames off a shared channel fed by one reader thread per worker
//! process, reap workers that blow the heartbeat timeout, respawn dead
//! workers with bounded exponential backoff, and retry each failed cell
//! a bounded number of times before recording it as
//! `retries-exhausted`. On completion the ledger is compacted to
//! canonical cell-id order, making the file byte-identical to a serial
//! single-process run's ledger.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::cell::{execute_cell, CampaignSpec, CellOutcome, KIND_RETRIES_EXHAUSTED};
use crate::events::{f_int, f_num, f_str, EventLog, EVENTS_SCHEMA};
use crate::fault::FAULT_ENV;
use crate::frame::{read_frame, write_frame, CoordMsg, FrameError, WorkerMsg, PROTO_VERSION};
use crate::ledger::{
    canonical_bytes, CellRecord, LedgerError, LedgerHeader, LedgerWriter, LEDGER_VERSION,
};
use crate::worker::WORKER_TELEMETRY_ENV;

/// Campaign-level configuration (everything except the cell list).
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Binary to re-exec as `<worker_exe> worker` children.
    pub worker_exe: PathBuf,
    /// Worker process count.
    pub jobs: usize,
    /// Heartbeat timeout: a worker holding one cell longer than this is
    /// presumed hung, killed, and its cell retried.
    pub timeout: Duration,
    /// Retries per cell beyond the first attempt before the cell is
    /// recorded as `retries-exhausted`.
    pub max_retries: u32,
    /// Respawns per worker slot before the slot is abandoned.
    pub max_respawns: u32,
    /// Base of the per-slot respawn backoff (doubles per respawn, capped
    /// at 1 s).
    pub backoff: Duration,
    /// Fault plan forwarded to workers via [`FAULT_ENV`].
    pub fault: Option<String>,
    /// Emit a progress line to stderr every ~2 s.
    pub progress: bool,
    /// JSONL event-stream path (`--events`): the campaign's flight
    /// recorder. `None` disables it at zero cost.
    pub events: Option<PathBuf>,
}

impl CampaignConfig {
    /// Defaults: 2 workers, 30 s timeout, 2 retries, 8 respawns per
    /// slot, 50 ms backoff base, no faults, no progress.
    pub fn new(worker_exe: impl Into<PathBuf>) -> CampaignConfig {
        CampaignConfig {
            worker_exe: worker_exe.into(),
            jobs: 2,
            timeout: Duration::from_secs(30),
            max_retries: 2,
            max_respawns: 8,
            backoff: Duration::from_millis(50),
            fault: None,
            progress: false,
            events: None,
        }
    }
}

/// What a finished campaign did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignStats {
    /// Total cells in the campaign.
    pub cells: u32,
    /// Cells already complete in the resumed ledger.
    pub resumed: u32,
    /// Cells executed this run.
    pub completed: u32,
    /// Cell retries (re-dispatches after a worker failure).
    pub retries: u32,
    /// Worker processes respawned after a crash or reap.
    pub respawns: u32,
    /// Cells whose recorded outcome is a failure.
    pub failures: u32,
    /// Distinct (violation kind, faulting pc) failure signatures.
    pub unique_failures: u32,
    /// Wall-clock duration of this run in milliseconds.
    pub elapsed_ms: u64,
}

/// Errors that abort a campaign.
#[derive(Debug)]
pub enum CampaignError {
    /// A ledger error (stale ledger refused, parse failure, I/O).
    Ledger(LedgerError),
    /// An I/O error outside the ledger (spawning workers, pipes).
    Io(io::Error),
    /// Every worker slot exhausted its respawn budget with cells still
    /// pending.
    WorkersExhausted {
        /// Cells left unexecuted.
        pending: usize,
    },
    /// A worker spoke an incompatible protocol version.
    Protocol(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Ledger(e) => write!(f, "{e}"),
            CampaignError::Io(e) => write!(f, "campaign i/o error: {e}"),
            CampaignError::WorkersExhausted { pending } => write!(
                f,
                "all workers exhausted their respawn budget with {pending} cell(s) pending"
            ),
            CampaignError::Protocol(msg) => write!(f, "worker protocol error: {msg}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<LedgerError> for CampaignError {
    fn from(e: LedgerError) -> Self {
        CampaignError::Ledger(e)
    }
}

impl From<io::Error> for CampaignError {
    fn from(e: io::Error) -> Self {
        CampaignError::Io(e)
    }
}

/// Events a worker's reader thread feeds the coordinator loop, tagged
/// with the slot and a generation counter so frames from an
/// already-killed incarnation are discarded instead of misattributed.
enum SlotEvent {
    Msg(WorkerMsg),
    Bad(String),
    Eof,
}

/// One worker slot: the live child (if any) and its scheduling state.
struct Slot {
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    /// Incremented per spawn; stale reader-thread events are filtered.
    gen: u64,
    /// `Hello` received — eligible for jobs.
    ready: bool,
    /// Outstanding job: (cell, attempt, deadline).
    busy: Option<(u32, u32, Instant)>,
    /// When the current incarnation was spawned (bounds the Hello wait).
    spawned_at: Instant,
    respawns: u32,
    /// Earliest instant the next respawn may happen (backoff).
    next_spawn: Instant,
    dead: bool,
}

/// Runs a campaign. `resume` replays `ledger_path` (refusing a ledger
/// from a different campaign) and schedules only the missing cells;
/// otherwise the ledger is created fresh. Returns the run's stats; the
/// finished ledger on disk is in canonical order.
///
/// # Errors
///
/// See [`CampaignError`]. Failing *cells* are not errors — they are
/// recorded outcomes; inspect [`CampaignStats::failures`].
pub fn run_campaign(
    spec: &CampaignSpec,
    cfg: &CampaignConfig,
    ledger_path: &Path,
    resume: bool,
) -> Result<CampaignStats, CampaignError> {
    let start = Instant::now();
    let cells = u32::try_from(spec.cells.len()).expect("cell count fits u32");
    let header = LedgerHeader {
        version: LEDGER_VERSION,
        spec_hash: spec.spec_hash(),
        probe_fingerprint: spec.probe_fingerprint(),
        cells,
    };

    let (mut writer, mut done) = if resume {
        LedgerWriter::resume(ledger_path, header)?
    } else {
        (LedgerWriter::create(ledger_path, header)?, BTreeMap::new())
    };
    let resumed = u32::try_from(done.len()).unwrap_or(u32::MAX);

    let mut pending: VecDeque<(u32, u32)> = (0..cells)
        .filter(|c| !done.contains_key(c))
        .map(|c| (c, 0))
        .collect();

    let mut stats = CampaignStats {
        cells,
        resumed,
        completed: 0,
        retries: 0,
        respawns: 0,
        failures: 0,
        unique_failures: 0,
        elapsed_ms: 0,
    };

    let mut events = match &cfg.events {
        Some(path) => EventLog::create(path)?,
        None => EventLog::disabled(),
    };
    events.emit(
        "campaign_start",
        vec![
            f_str("schema", EVENTS_SCHEMA),
            f_int("cells", u64::from(cells)),
            f_int("resumed", u64::from(resumed)),
            f_int("jobs", cfg.jobs.max(1) as u64),
        ],
    );

    let jobs = cfg.jobs.max(1);
    let (tx, rx) = mpsc::channel::<(usize, u64, SlotEvent)>();
    let mut slots: Vec<Slot> = (0..jobs)
        .map(|_| Slot {
            child: None,
            stdin: None,
            gen: 0,
            ready: false,
            busy: None,
            spawned_at: start,
            respawns: 0,
            next_spawn: start,
            dead: false,
        })
        .collect();

    let mut last_progress = Instant::now();
    let progress_every = Duration::from_secs(2);

    let result = loop {
        if done.len() as u32 == cells {
            break Ok(());
        }
        let now = Instant::now();

        // Reap: a busy worker past its deadline, or a spawned worker
        // that never said Hello within the timeout, is presumed hung.
        for (i, slot) in slots.iter_mut().enumerate() {
            if slot.child.is_none() || slot.dead {
                continue;
            }
            let overdue = match slot.busy {
                Some((_, _, deadline)) => now >= deadline,
                None => !slot.ready && now >= slot.spawned_at + cfg.timeout,
            };
            if overdue {
                if cfg.progress {
                    eprintln!("campaign: worker {i} timed out; reaping");
                }
                events.emit(
                    "reap",
                    vec![f_int("worker", i as u64), f_str("reason", "timeout")],
                );
                kill_slot(slot);
                requeue(
                    slot,
                    &mut pending,
                    &mut stats,
                    cfg,
                    &mut writer,
                    &mut done,
                    &mut events,
                )?;
            }
        }

        // Respawn dead slots (bounded, backed off) while work remains.
        if !pending.is_empty() || slots.iter().any(|s| s.busy.is_some()) {
            for (i, slot) in slots.iter_mut().enumerate() {
                if slot.child.is_some() || slot.dead || now < slot.next_spawn {
                    continue;
                }
                if slot.respawns >= cfg.max_respawns {
                    slot.dead = true;
                    continue;
                }
                match spawn_worker(cfg, i, slot, &tx) {
                    Ok(()) => {
                        events.emit(
                            "spawn",
                            vec![f_int("worker", i as u64), f_int("gen", slot.gen)],
                        );
                        if slot.gen > 1 {
                            stats.respawns += 1;
                            events.emit(
                                "respawn",
                                vec![
                                    f_int("worker", i as u64),
                                    f_int("respawns", u64::from(slot.respawns)),
                                ],
                            );
                        }
                    }
                    Err(e) => {
                        if cfg.progress {
                            eprintln!("campaign: spawn failed for worker {i}: {e}");
                        }
                        slot.respawns += 1;
                        let exp = slot.respawns.min(5);
                        slot.next_spawn =
                            now + (cfg.backoff * 2u32.pow(exp)).min(Duration::from_secs(1));
                    }
                }
            }
        }

        if slots.iter().all(|s| s.dead) && !pending.is_empty() {
            break Err(CampaignError::WorkersExhausted {
                pending: pending.len(),
            });
        }

        // Dispatch to ready, idle workers.
        for (i, slot) in slots.iter_mut().enumerate() {
            if pending.is_empty() {
                break;
            }
            if !slot.ready || slot.busy.is_some() || slot.child.is_none() {
                continue;
            }
            let (cell, attempt) = pending.pop_front().expect("nonempty");
            let job = CoordMsg::Job {
                cell,
                attempt,
                spec: spec.cells[cell as usize].clone(),
            };
            let ok = slot
                .stdin
                .as_mut()
                .map(|w| write_frame(w, &job.encode()).is_ok())
                .unwrap_or(false);
            if ok {
                slot.busy = Some((cell, attempt, Instant::now() + cfg.timeout));
                events.emit(
                    "dispatch",
                    vec![
                        f_int("worker", i as u64),
                        f_int("cell", u64::from(cell)),
                        f_int("attempt", u64::from(attempt)),
                    ],
                );
            } else {
                // The pipe is dead: requeue the same attempt (the worker
                // never saw it) and let the reaper/respawner handle the
                // corpse.
                pending.push_front((cell, attempt));
                events.emit(
                    "reap",
                    vec![f_int("worker", i as u64), f_str("reason", "pipe-closed")],
                );
                kill_slot(slot);
            }
        }

        // Collect events.
        match rx.recv_timeout(Duration::from_millis(25)) {
            Ok((i, gen, event)) => {
                let slot = &mut slots[i];
                if gen != slot.gen || slot.child.is_none() {
                    // A killed incarnation's reader thread draining.
                } else {
                    match event {
                        SlotEvent::Msg(WorkerMsg::Hello { proto }) => {
                            if proto != PROTO_VERSION {
                                break Err(CampaignError::Protocol(format!(
                                    "worker {i} speaks protocol {proto}, \
                                     coordinator speaks {PROTO_VERSION}"
                                )));
                            }
                            slot.ready = true;
                            events.emit(
                                "hello",
                                vec![
                                    f_int("worker", i as u64),
                                    f_num(
                                        "latency_ms",
                                        slot.spawned_at.elapsed().as_secs_f64() * 1e3,
                                    ),
                                ],
                            );
                        }
                        SlotEvent::Msg(WorkerMsg::Done { cell, outcome }) => {
                            match slot.busy {
                                Some((busy_cell, attempt, _)) if busy_cell == cell => {
                                    slot.busy = None;
                                    let ok = outcome.failure_key().is_none();
                                    let fsync =
                                        record(cell, outcome, &mut writer, &mut done, &mut stats)?;
                                    events.emit(
                                        "done",
                                        vec![
                                            f_int("worker", i as u64),
                                            f_int("cell", u64::from(cell)),
                                            f_int("attempt", u64::from(attempt)),
                                            (
                                                "ok".to_string(),
                                                watchdog_telemetry::JsonValue::Bool(ok),
                                            ),
                                            f_num("fsync_ms", fsync.as_secs_f64() * 1e3),
                                        ],
                                    );
                                }
                                _ => {
                                    // A result for a cell this worker
                                    // doesn't hold: protocol confusion.
                                    // Kill it; its real cell is retried.
                                    if cfg.progress {
                                        eprintln!(
                                            "campaign: worker {i} answered for cell {cell} \
                                             it doesn't hold; reaping"
                                        );
                                    }
                                    events.emit(
                                        "reap",
                                        vec![
                                            f_int("worker", i as u64),
                                            f_str("reason", "misattributed-done"),
                                        ],
                                    );
                                    kill_slot(slot);
                                    requeue(
                                        slot,
                                        &mut pending,
                                        &mut stats,
                                        cfg,
                                        &mut writer,
                                        &mut done,
                                        &mut events,
                                    )?;
                                }
                            }
                        }
                        SlotEvent::Bad(why) => {
                            if cfg.progress {
                                eprintln!("campaign: worker {i}: {why}; reaping");
                            }
                            events.emit(
                                "reap",
                                vec![f_int("worker", i as u64), f_str("reason", "bad-frame")],
                            );
                            kill_slot(slot);
                            requeue(
                                slot,
                                &mut pending,
                                &mut stats,
                                cfg,
                                &mut writer,
                                &mut done,
                                &mut events,
                            )?;
                        }
                        SlotEvent::Eof => {
                            events.emit(
                                "reap",
                                vec![f_int("worker", i as u64), f_str("reason", "eof")],
                            );
                            kill_slot(slot);
                            requeue(
                                slot,
                                &mut pending,
                                &mut stats,
                                cfg,
                                &mut writer,
                                &mut done,
                                &mut events,
                            )?;
                        }
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // All reader threads gone; loop state machine handles
                // respawn or exhaustion on the next pass.
            }
        }

        if (cfg.progress || events.enabled()) && last_progress.elapsed() >= progress_every {
            last_progress = Instant::now();
            let alive = slots.iter().filter(|s| s.child.is_some()).count();
            let rate = f64::from(stats.completed) / start.elapsed().as_secs_f64().max(1e-9);
            events.emit(
                "progress",
                vec![
                    f_int("done", done.len() as u64),
                    f_int("cells", u64::from(cells)),
                    f_num("cells_per_s", rate),
                    f_int("workers_alive", alive as u64),
                    f_int("retries", u64::from(stats.retries)),
                ],
            );
            if cfg.progress {
                progress_line(&stats, done.len() as u32, &slots, start);
            }
        }
    };

    // Shutdown: ask nicely, then close stdin, then wait briefly, then
    // kill.
    for slot in slots.iter_mut() {
        if let Some(w) = slot.stdin.as_mut() {
            let _ = write_frame(w, &CoordMsg::Shutdown.encode());
        }
        slot.stdin = None; // close the pipe
    }
    let deadline = Instant::now() + Duration::from_secs(1);
    for slot in slots.iter_mut() {
        if let Some(child) = slot.child.as_mut() {
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(10))
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
        slot.child = None;
    }

    result?;

    // Completed: compact to canonical order so the file is
    // byte-identical to a serial run's ledger.
    finish_stats(&mut stats, &done);
    writer.finalize_canonical(&done)?;
    stats.elapsed_ms = u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX);
    events.emit(
        "campaign_end",
        vec![
            f_int("completed", u64::from(stats.completed)),
            f_int("retries", u64::from(stats.retries)),
            f_int("respawns", u64::from(stats.respawns)),
            f_int("failures", u64::from(stats.failures)),
            f_int("unique_failures", u64::from(stats.unique_failures)),
            f_int("elapsed_ms", stats.elapsed_ms),
            f_num(
                "cells_per_s",
                f64::from(stats.completed) / (stats.elapsed_ms as f64 / 1e3).max(1e-9),
            ),
        ],
    );
    if cfg.progress {
        eprintln!(
            "campaign: done — {}/{} cells ({} resumed), {} retries, {} respawns, {} failure(s) \
             ({} unique), {} ms",
            done.len(),
            stats.cells,
            stats.resumed,
            stats.retries,
            stats.respawns,
            stats.failures,
            stats.unique_failures,
            stats.elapsed_ms
        );
    }
    Ok(stats)
}

/// Spawns one worker child into `slot` and starts its reader thread.
fn spawn_worker(
    cfg: &CampaignConfig,
    index: usize,
    slot: &mut Slot,
    tx: &mpsc::Sender<(usize, u64, SlotEvent)>,
) -> io::Result<()> {
    let mut cmd = Command::new(&cfg.worker_exe);
    cmd.arg("worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    match &cfg.fault {
        Some(plan) => {
            cmd.env(FAULT_ENV, plan);
        }
        None => {
            cmd.env_remove(FAULT_ENV);
        }
    }
    // When the coordinator records a flight log, workers report their
    // own shutdown summary (cells, execute time) on stderr alongside it.
    if cfg.events.is_some() {
        cmd.env(WORKER_TELEMETRY_ENV, "1");
    } else {
        cmd.env_remove(WORKER_TELEMETRY_ENV);
    }
    let mut child = cmd.spawn()?;
    let stdin = child.stdin.take().expect("piped stdin");
    let mut stdout = child.stdout.take().expect("piped stdout");
    slot.gen += 1;
    slot.respawns += 1;
    let gen = slot.gen;
    let tx = tx.clone();
    std::thread::spawn(move || loop {
        match read_frame(&mut stdout) {
            Ok(payload) => match WorkerMsg::decode(&payload) {
                Ok(msg) => {
                    if tx.send((index, gen, SlotEvent::Msg(msg))).is_err() {
                        return;
                    }
                }
                Err(why) => {
                    let _ = tx.send((index, gen, SlotEvent::Bad(format!("bad message: {why}"))));
                    return;
                }
            },
            Err(FrameError::Eof) => {
                let _ = tx.send((index, gen, SlotEvent::Eof));
                return;
            }
            Err(e) => {
                let _ = tx.send((index, gen, SlotEvent::Bad(e.to_string())));
                return;
            }
        }
    });
    slot.child = Some(child);
    slot.stdin = Some(stdin);
    slot.ready = false;
    slot.busy = None;
    slot.spawned_at = Instant::now();
    Ok(())
}

/// Kills a slot's child (if any) and resets it for respawn with backoff.
fn kill_slot(slot: &mut Slot) {
    if let Some(mut child) = slot.child.take() {
        let _ = child.kill();
        let _ = child.wait();
    }
    slot.stdin = None;
    slot.ready = false;
    slot.gen += 1; // orphan any in-flight reader events
    let exp = slot.respawns.min(5);
    slot.next_spawn =
        Instant::now() + (Duration::from_millis(50) * 2u32.pow(exp)).min(Duration::from_secs(1));
}

/// Returns a reaped slot's outstanding cell to the queue with one more
/// attempt, or records it as retries-exhausted when the budget is spent.
fn requeue(
    slot: &mut Slot,
    pending: &mut VecDeque<(u32, u32)>,
    stats: &mut CampaignStats,
    cfg: &CampaignConfig,
    writer: &mut LedgerWriter,
    done: &mut BTreeMap<u32, CellOutcome>,
    events: &mut EventLog,
) -> Result<(), CampaignError> {
    if let Some((cell, attempt, _)) = slot.busy.take() {
        if attempt < cfg.max_retries {
            stats.retries += 1;
            pending.push_back((cell, attempt + 1));
            events.emit(
                "retry",
                vec![
                    f_int("cell", u64::from(cell)),
                    f_int("attempt", u64::from(attempt + 1)),
                ],
            );
        } else {
            let outcome = CellOutcome::Fail {
                kind: KIND_RETRIES_EXHAUSTED,
                pc: 0,
                detail: format!("retries exhausted after {} attempts", attempt + 1),
            };
            record(cell, outcome, writer, done, stats)?;
            events.emit(
                "retries_exhausted",
                vec![
                    f_int("cell", u64::from(cell)),
                    f_int("attempts", u64::from(attempt + 1)),
                ],
            );
        }
    }
    Ok(())
}

/// Makes one cell's outcome durable and counted. Returns how long the
/// fsync'd ledger append took (the `fsync_ms` field of `done` events).
fn record(
    cell: u32,
    outcome: CellOutcome,
    writer: &mut LedgerWriter,
    done: &mut BTreeMap<u32, CellOutcome>,
    stats: &mut CampaignStats,
) -> Result<Duration, CampaignError> {
    if done.contains_key(&cell) {
        return Ok(Duration::ZERO); // late duplicate from a raced retry
    }
    let t0 = Instant::now();
    writer.append(&CellRecord {
        cell,
        outcome: outcome.clone(),
    })?;
    let fsync = t0.elapsed();
    done.insert(cell, outcome);
    stats.completed += 1;
    Ok(fsync)
}

/// Fills the failure counters from the final outcome map.
fn finish_stats(stats: &mut CampaignStats, done: &BTreeMap<u32, CellOutcome>) {
    // Only the set's `len()` is read, never its iteration order, so the
    // hasher cannot reach the stats, a report or the ledger.
    let mut unique = HashSet::new();
    let mut failures = 0u32;
    for outcome in done.values() {
        if let Some(key) = outcome.failure_key() {
            failures += 1;
            unique.insert(key);
        }
    }
    stats.failures = failures;
    stats.unique_failures = u32::try_from(unique.len()).unwrap_or(u32::MAX);
}

/// Emits the periodic progress line.
fn progress_line(stats: &CampaignStats, done: u32, slots: &[Slot], start: Instant) {
    let alive = slots.iter().filter(|s| s.child.is_some()).count();
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    let rate = f64::from(stats.completed) / secs;
    eprintln!(
        "campaign: {done}/{} cells, {rate:.1} cells/s, {alive}/{} workers alive, {} retries, \
         {} deduped failure(s)",
        stats.cells,
        slots.len(),
        stats.retries,
        stats.unique_failures,
    );
    let _ = io::stderr().flush();
}

/// Executes every cell in order, in-process — the serial reference a
/// campaign's canonical ledger is compared against.
pub fn run_campaign_serial(spec: &CampaignSpec) -> Vec<CellRecord> {
    spec.cells
        .iter()
        .enumerate()
        .map(|(i, cell)| CellRecord {
            cell: u32::try_from(i).expect("cell count fits u32"),
            outcome: execute_cell(cell),
        })
        .collect()
}

/// The exact bytes a completed campaign's ledger must contain: header
/// plus one record per cell in cell-id order, computed serially
/// in-process.
pub fn serial_ledger_bytes(spec: &CampaignSpec) -> Vec<u8> {
    let header = LedgerHeader {
        version: LEDGER_VERSION,
        spec_hash: spec.spec_hash(),
        probe_fingerprint: spec.probe_fingerprint(),
        cells: u32::try_from(spec.cells.len()).expect("cell count fits u32"),
    };
    let records = run_campaign_serial(spec);
    let mut done = BTreeMap::new();
    for r in records {
        done.insert(r.cell, r.outcome);
    }
    canonical_bytes(&header, &done)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_bytes_are_deterministic_and_parse_back() {
        let spec = CampaignSpec::fuzz(0, 6);
        let a = serial_ledger_bytes(&spec);
        let b = serial_ledger_bytes(&spec);
        assert_eq!(a, b);
        let parsed = crate::ledger::parse_ledger(&a).unwrap();
        assert_eq!(parsed.records.len(), 6);
        assert!(!parsed.torn);
        assert_eq!(parsed.header.spec_hash, spec.spec_hash());
    }

    #[test]
    fn config_defaults_are_sane() {
        let cfg = CampaignConfig::new("/bin/true");
        assert_eq!(cfg.jobs, 2);
        assert_eq!(cfg.max_retries, 2);
        assert!(cfg.timeout >= Duration::from_secs(1));
    }
}
