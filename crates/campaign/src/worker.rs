//! The worker side of the campaign protocol.
//!
//! A worker is `watchdog-cli worker`: the same binary as the
//! coordinator, re-exec'd with piped stdin/stdout. It announces itself
//! with a `Hello` frame, then loops — read a job frame, execute the
//! cell, write a `Done` frame — until a `Shutdown` frame or clean EOF.
//! All diagnostics go to stderr (inherited from the coordinator); stdout
//! carries nothing but frames.
//!
//! The worker is where injected faults live ([`crate::fault`]): before
//! executing a job it consults the `WATCHDOG_FAULT` plan and, at a
//! matching (cell, attempt), panics, exits, hangs, or emits a
//! deliberately corrupt or truncated frame — exercising exactly the
//! failure surface the coordinator must survive.

use std::io::{self, Read, Write};
use std::time::Instant;

use crate::cell::execute_cell;
use crate::fault::{FaultKind, FaultPlan};
use crate::frame::{read_frame, write_frame, CoordMsg, FrameError, WorkerMsg, PROTO_VERSION};

/// Set (to any value) to make a worker print a one-line telemetry
/// summary — cells executed, time spent executing — to stderr on clean
/// shutdown. The coordinator sets it for its children whenever a
/// `--events` flight log is being recorded.
pub const WORKER_TELEMETRY_ENV: &str = "WATCHDOG_WORKER_TELEMETRY";

/// What one worker incarnation did, accumulated by [`worker_loop`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WorkerStats {
    /// Cells executed to a `Done` frame (injected faults don't count).
    pub cells: u64,
    /// Host nanoseconds spent inside `execute_cell`.
    pub exec_ns: u64,
}

/// Runs the worker loop over stdin/stdout; returns the process exit
/// code. Wire this directly to `watchdog-cli worker`.
pub fn worker_entry() -> i32 {
    let plan = match FaultPlan::from_env() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("watchdog-cli worker: {e}");
            return 2;
        }
    };
    let stdin = io::stdin();
    let stdout = io::stdout();
    let mut stats = WorkerStats::default();
    let result = worker_loop(&mut stdin.lock(), &mut stdout.lock(), &plan, &mut stats);
    if std::env::var_os(WORKER_TELEMETRY_ENV).is_some() {
        eprintln!(
            "watchdog-cli worker: {} cell(s) executed in {:.1} ms",
            stats.cells,
            stats.exec_ns as f64 / 1e6
        );
    }
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("watchdog-cli worker: {e}");
            1
        }
    }
}

/// The protocol loop, factored over generic streams so the unit tests
/// can drive it with in-memory pipes.
pub(crate) fn worker_loop(
    input: &mut impl Read,
    output: &mut impl Write,
    plan: &FaultPlan,
    stats: &mut WorkerStats,
) -> Result<i32, FrameError> {
    write_frame(
        output,
        &WorkerMsg::Hello {
            proto: PROTO_VERSION,
        }
        .encode(),
    )
    .map_err(FrameError::Io)?;
    loop {
        let payload = match read_frame(input) {
            Ok(p) => p,
            // Coordinator closed our stdin: clean shutdown.
            Err(FrameError::Eof) => return Ok(0),
            Err(e) => return Err(e),
        };
        let msg = CoordMsg::decode(&payload).map_err(FrameError::Corrupt)?;
        let (cell, attempt, spec) = match msg {
            CoordMsg::Shutdown => return Ok(0),
            CoordMsg::Job {
                cell,
                attempt,
                spec,
            } => (cell, attempt, spec),
        };
        if let Some(kind) = plan.fault_for(cell, attempt) {
            inject(kind, cell, output)?;
            continue;
        }
        let t0 = Instant::now();
        let outcome = execute_cell(&spec);
        stats.exec_ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        stats.cells += 1;
        write_frame(output, &WorkerMsg::Done { cell, outcome }.encode()).map_err(FrameError::Io)?;
    }
}

/// Performs one injected fault. `Panic`, `Exit` and `Hang` do not
/// return; `Corrupt` and `Truncate` emit their malformed bytes and
/// return so the loop keeps running (the coordinator decides whether the
/// worker lives).
fn inject(kind: FaultKind, cell: u32, output: &mut impl Write) -> Result<(), FrameError> {
    match kind {
        FaultKind::Panic => panic!("injected fault: panic at cell {cell}"),
        FaultKind::Exit => {
            eprintln!("injected fault: exit(3) at cell {cell}");
            std::process::exit(3);
        }
        FaultKind::Hang => {
            eprintln!("injected fault: hang at cell {cell}");
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
        FaultKind::Corrupt => {
            // A frame whose checksum was computed before flipping a
            // payload byte: structurally complete, verifiably wrong.
            let payload = WorkerMsg::Done {
                cell,
                outcome: crate::cell::CellOutcome::Pass {
                    insts: 0,
                    digest: 0,
                },
            }
            .encode();
            let mut bytes = Vec::new();
            write_frame(&mut bytes, &payload).expect("vec write");
            bytes[4] ^= 0x55; // first payload byte
            output.write_all(&bytes).map_err(FrameError::Io)?;
            output.flush().map_err(FrameError::Io)?;
            Ok(())
        }
        FaultKind::Truncate => {
            // Half a frame: a length prefix promising more than arrives,
            // then a hard exit mid-payload.
            let payload = WorkerMsg::Done {
                cell,
                outcome: crate::cell::CellOutcome::Pass {
                    insts: 0,
                    digest: 0,
                },
            }
            .encode();
            let mut bytes = Vec::new();
            write_frame(&mut bytes, &payload).expect("vec write");
            let half = &bytes[..bytes.len() / 2];
            let _ = output.write_all(half);
            let _ = output.flush();
            eprintln!("injected fault: truncated frame at cell {cell}");
            std::process::exit(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CellOutcome, CellSpec};
    use std::io::Cursor;

    fn drive(msgs: &[CoordMsg], plan: &FaultPlan) -> (i32, Vec<WorkerMsg>, WorkerStats) {
        let mut input = Vec::new();
        for m in msgs {
            write_frame(&mut input, &m.encode()).unwrap();
        }
        let mut output = Vec::new();
        let mut stats = WorkerStats::default();
        let code = worker_loop(&mut Cursor::new(input), &mut output, plan, &mut stats).unwrap();
        let mut replies = Vec::new();
        let mut r = Cursor::new(output);
        loop {
            match read_frame(&mut r) {
                Ok(p) => replies.push(WorkerMsg::decode(&p).unwrap()),
                Err(FrameError::Eof) => break,
                Err(e) => panic!("reply stream: {e}"),
            }
        }
        (code, replies, stats)
    }

    #[test]
    fn hello_then_jobs_then_shutdown() {
        let msgs = [
            CoordMsg::Job {
                cell: 0,
                attempt: 0,
                spec: CellSpec::Seed(11),
            },
            CoordMsg::Job {
                cell: 1,
                attempt: 0,
                spec: CellSpec::Seed(12),
            },
            CoordMsg::Shutdown,
        ];
        let (code, replies, stats) = drive(&msgs, &FaultPlan::default());
        assert_eq!(code, 0);
        assert_eq!(replies.len(), 3);
        assert_eq!(stats.cells, 2, "two cells executed");
        assert!(matches!(
            replies[0],
            WorkerMsg::Hello {
                proto: PROTO_VERSION
            }
        ));
        assert!(matches!(replies[1], WorkerMsg::Done { cell: 0, .. }));
        assert!(matches!(replies[2], WorkerMsg::Done { cell: 1, .. }));
    }

    #[test]
    fn clean_eof_without_shutdown_is_a_clean_exit() {
        let (code, replies, stats) = drive(&[], &FaultPlan::default());
        assert_eq!(code, 0);
        assert_eq!(replies.len(), 1, "just the hello");
        assert_eq!(stats, WorkerStats::default());
    }

    #[test]
    fn corrupt_fault_emits_a_checksum_failing_frame_and_keeps_running() {
        let plan = "corrupt@5".parse::<FaultPlan>().unwrap();
        let mut input = Vec::new();
        write_frame(
            &mut input,
            &CoordMsg::Job {
                cell: 5,
                attempt: 0,
                spec: CellSpec::Seed(1),
            }
            .encode(),
        )
        .unwrap();
        write_frame(
            &mut input,
            &CoordMsg::Job {
                cell: 6,
                attempt: 0,
                spec: CellSpec::Seed(2),
            }
            .encode(),
        )
        .unwrap();
        let mut output = Vec::new();
        let mut stats = WorkerStats::default();
        let code = worker_loop(&mut Cursor::new(input), &mut output, &plan, &mut stats).unwrap();
        assert_eq!(code, 0);
        assert_eq!(stats.cells, 1, "the faulted dispatch doesn't count");
        let mut r = Cursor::new(output);
        // Hello is fine.
        let hello = read_frame(&mut r).unwrap();
        assert!(matches!(
            WorkerMsg::decode(&hello).unwrap(),
            WorkerMsg::Hello { .. }
        ));
        // The injected frame fails its checksum.
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::Corrupt("checksum mismatch"))
        ));
        // (After a corrupt frame a real coordinator kills the worker and
        // discards the stream, so nothing more is read here.)
    }

    #[test]
    fn retried_cell_passes_a_single_shot_fault() {
        let plan = "corrupt@5".parse::<FaultPlan>().unwrap();
        let msgs = [
            CoordMsg::Job {
                cell: 5,
                attempt: 1,
                spec: CellSpec::Seed(1),
            },
            CoordMsg::Shutdown,
        ];
        let (code, replies, _) = drive(&msgs, &plan);
        assert_eq!(code, 0);
        assert!(matches!(
            replies[1],
            WorkerMsg::Done {
                cell: 5,
                outcome: CellOutcome::Pass { .. }
            }
        ));
    }
}
