//! The `watchdog-cli campaign` front end: its flags (scanned by the
//! shared [`watchdog_bench::args`] parser), the help text, and the
//! exit-code policy.

use std::collections::{BTreeMap, BTreeSet};
use std::ffi::OsStr;
use std::num::NonZeroU64;
use std::path::PathBuf;
use std::time::Duration;

use watchdog_bench::args::{parse, Flag, JOBS};
use watchdog_gen::{generate, matrix_runs, GenConfig};

use crate::cell::{CampaignSpec, CellOutcome, CellSpec};
use crate::coordinator::{run_campaign, CampaignConfig};
use crate::fault::FaultPlan;
use crate::ledger::{dedup, parse_ledger};

/// Help text for `watchdog-cli campaign --help`.
pub const CAMPAIGN_HELP: &str = "\
watchdog-cli campaign — crash-isolated multi-process simulation campaign

usage: watchdog-cli campaign [flags]

The one multi-seed differential fuzzer. The coordinator spawns worker
processes (re-exec'd `watchdog-cli worker`), feeds them `watchdog-gen`
seeds, and appends every result to a crash-safe ledger. Workers that
panic, exit, hang or emit corrupt frames are killed and respawned; their
cells are retried a bounded number of times. The completed ledger is
byte-identical to a serial single-process run's.

flags:
  --seeds N          fuzz campaign over N seeds (default 1000)
  --seed-start N     first seed (default 0)
  --jobs N           worker processes (default WATCHDOG_JOBS, then cores)
  --ledger PATH      ledger file (default campaign.wdlg)
  --resume           replay the ledger; run only the missing cells
  --timeout-secs N   per-cell heartbeat timeout (default 30)
  --retries N        retries per cell after a worker failure (default 2)
  --fault SPEC       inject worker faults, e.g. panic@3,hang@9! (testing)
  --events PATH      write a JSONL event stream (spawns, reaps, retries,
                     per-cell fsync times, throughput) to PATH
  --quiet            suppress the periodic progress line

The summary counts violating and benign seeds, simulations and guest
instructions, and prints one `watchdog-cli fuzz --seed K` repro line per
distinct failure.

exit status: 0 all cells passed; 1 failures recorded or campaign error;
2 bad usage.
";

/// Help text for `watchdog-cli worker --help`.
pub const WORKER_HELP: &str = "\
watchdog-cli worker — campaign worker process (internal)

Speaks length-prefixed frames over stdin/stdout; spawned by
`watchdog-cli campaign`. Not intended for interactive use. Honors the
WATCHDOG_FAULT environment variable for fault-injection testing
(kind@cell[!], kinds: panic, exit, hang, corrupt, truncate).
";

/// Parsed `campaign` subcommand flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignCli {
    /// Fuzz-seed count (`--seeds`).
    pub seeds: usize,
    /// First fuzz seed (`--seed-start`).
    pub seed_start: u64,
    /// Worker-process count (`--jobs`, then `WATCHDOG_JOBS`, then cores).
    pub jobs: usize,
    /// Ledger path (`--ledger`).
    pub ledger: PathBuf,
    /// Resume from the ledger (`--resume`).
    pub resume: bool,
    /// Heartbeat timeout in seconds (`--timeout-secs`).
    pub timeout_secs: u64,
    /// Retry budget per cell (`--retries`).
    pub retries: u32,
    /// Fault-injection spec (`--fault`).
    pub fault: Option<String>,
    /// JSONL event-stream path (`--events`).
    pub events: Option<PathBuf>,
    /// Suppress progress output (`--quiet`).
    pub quiet: bool,
}

const FLAGS: &[Flag] = &[
    Flag::value("--seeds", "an unsigned integer"),
    Flag::value("--seed-start", "an unsigned integer"),
    JOBS,
    Flag::value("--ledger", "a file path"),
    Flag::switch("--resume"),
    Flag::value("--timeout-secs", "a positive integer"),
    Flag::value("--retries", "an unsigned integer"),
    Flag::value("--fault", "a fault plan, e.g. panic@3 or exit@0,hang@9!"),
    Flag::value("--events", "a file path"),
    Flag::switch("--quiet"),
];

/// Parses `campaign` flags from `args` (the words after the subcommand);
/// `jobs_env` is the `WATCHDOG_JOBS` value.
///
/// # Errors
///
/// A message naming the bad flag or value and listing the valid
/// alternatives.
pub fn parse_campaign_args(
    args: &[String],
    jobs_env: Option<&OsStr>,
) -> Result<CampaignCli, String> {
    let a = parse("campaign", 0, FLAGS, args)?;
    // Validate the plan now so the error surfaces at the coordinator,
    // not inside every worker.
    a.get::<FaultPlan>("--fault")?;
    let (seeds, seed_start): (usize, u64) = (
        a.get("--seeds")?.unwrap_or(1000),
        a.get("--seed-start")?.unwrap_or(0),
    );
    // The band is `seed_start..seed_start + seeds`; past `u64::MAX` the
    // seeds would wrap around to 0.
    if seed_start.checked_add(seeds as u64).is_none() {
        return Err(format!(
            "--seed-start {seed_start} plus --seeds {seeds} runs past the last seed, {}",
            u64::MAX
        ));
    }
    Ok(CampaignCli {
        seeds,
        seed_start,
        jobs: a.jobs(jobs_env)?,
        ledger: a.get("--ledger")?.unwrap_or_else(|| "campaign.wdlg".into()),
        resume: a.has("--resume"),
        timeout_secs: a
            .get::<NonZeroU64>("--timeout-secs")?
            .map_or(30, NonZeroU64::get),
        retries: a.get("--retries")?.unwrap_or(2),
        fault: a.get("--fault")?,
        events: a.get("--events")?,
        quiet: a.has("--quiet"),
    })
}

/// Entry point for `watchdog-cli campaign`: parses `args` (with
/// `jobs_env` the `WATCHDOG_JOBS` value), runs the campaign with
/// `worker_exe` as the child binary, prints the summary,
/// and returns the process exit code (0 all-pass, 1 failures or error,
/// 2 usage).
pub fn campaign_main(args: &[String], worker_exe: PathBuf, jobs_env: Option<&OsStr>) -> i32 {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{CAMPAIGN_HELP}");
        return 0;
    }
    let cli = match parse_campaign_args(args, jobs_env) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let spec = CampaignSpec::fuzz(cli.seed_start, cli.seeds);

    let mut cfg = CampaignConfig::new(worker_exe);
    cfg.jobs = cli.jobs;
    cfg.timeout = Duration::from_secs(cli.timeout_secs);
    cfg.max_retries = cli.retries;
    cfg.fault = cli.fault.clone();
    cfg.events = cli.events.clone();
    cfg.progress = !cli.quiet;

    println!(
        "campaign: {} across {} worker(s), ledger {}",
        spec.describe(),
        cfg.jobs,
        cli.ledger.display()
    );
    let finished = run_campaign(&spec, &cfg, &cli.ledger, cli.resume).and_then(|stats| {
        let ledger = parse_ledger(&std::fs::read(&cli.ledger)?)?;
        Ok((stats, FuzzTally::new(&spec, &dedup(&ledger.records))))
    });
    let (stats, tally) = match finished {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let secs = (stats.elapsed_ms as f64 / 1000.0).max(1e-9);
    let scope = (!tally.repros.is_empty()).then_some(", passing seeds only");
    println!("  cells     : {}", stats.cells);
    println!("  resumed   : {}", stats.resumed);
    println!("  ran       : {}", stats.completed);
    println!("  retries   : {}", stats.retries);
    println!("  respawns  : {}", stats.respawns);
    println!(
        "  oracles   : {} violating, {} benign — 0 misses, 0 false positives required",
        tally.violating, tally.benign
    );
    println!(
        "  sims      : {} ({} guest insts under cons/functional{})",
        tally.sims,
        tally.insts,
        scope.unwrap_or_default()
    );
    println!(
        "  failures  : {} ({} unique)",
        stats.failures, stats.unique_failures
    );
    for line in &tally.repros {
        println!("    {line}");
    }
    println!(
        "  result    : {} in {:.1}s ({:.1} cells/s)",
        if stats.failures == 0 { "PASS" } else { "FAIL" },
        secs,
        f64::from(stats.completed) / secs
    );
    i32::from(stats.failures != 0)
}

/// The differential-fuzz report of a finished campaign, computed from its
/// canonical ledger and seed list alone, so a resumed campaign reports
/// exactly what an undisturbed one does: the oracle split of every seed,
/// the simulations ([`matrix_runs`]) and guest instructions of the
/// passing ones, and one repro line per failure signature (violation
/// kind, faulting pc), naming its lowest failing seed.
#[derive(Debug, Default)]
struct FuzzTally {
    violating: usize,
    benign: usize,
    sims: usize,
    insts: u64,
    repros: Vec<String>,
}

impl FuzzTally {
    /// Tallies `done` (cell id to outcome) against the seeds of `spec`.
    fn new(spec: &CampaignSpec, done: &BTreeMap<u32, CellOutcome>) -> FuzzTally {
        let mut t = FuzzTally::default();
        let mut seen = BTreeSet::new();
        for (&id, outcome) in done {
            let Some(CellSpec::Seed(seed)) = spec.cells.get(id as usize) else {
                continue;
            };
            let oracle = generate(*seed, &GenConfig::default()).oracle;
            if oracle.expected.is_some() {
                t.violating += 1;
            } else {
                t.benign += 1;
            }
            match outcome {
                CellOutcome::Pass { insts, .. } => {
                    t.sims += matrix_runs(&oracle);
                    t.insts += insts;
                }
                CellOutcome::Fail { kind, pc, detail } if seen.insert((*kind, *pc)) => {
                    let first = detail.lines().next().unwrap_or("");
                    t.repros
                        .push(format!("repro: watchdog-cli fuzz --seed {seed}  # {first}"));
                }
                CellOutcome::Fail { .. } => {}
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<CampaignCli, String> {
        let args: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        parse_campaign_args(&args, None)
    }

    #[test]
    fn defaults_are_the_documented_ones() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.seeds, 1000);
        assert_eq!(cli.seed_start, 0);
        assert_eq!(cli.ledger, PathBuf::from("campaign.wdlg"));
        assert!(!cli.resume);
        assert_eq!(cli.timeout_secs, 30);
        assert_eq!(cli.retries, 2);
        assert!(cli.fault.is_none());
        assert!(cli.events.is_none());
        assert!(!cli.quiet);
        // `--jobs` beats WATCHDOG_JOBS, which beats the core count.
        assert_eq!(
            parse_campaign_args(&[], Some(OsStr::new("5")))
                .unwrap()
                .jobs,
            5
        );
        let args = ["--jobs".to_string(), "3".to_string()];
        assert_eq!(
            parse_campaign_args(&args, Some(OsStr::new("5")))
                .unwrap()
                .jobs,
            3
        );
    }

    #[test]
    fn all_flags_parse() {
        let cli = parse(&[
            "--seeds",
            "25",
            "--seed-start",
            "100",
            "--jobs",
            "3",
            "--ledger",
            "/tmp/x.wdlg",
            "--resume",
            "--timeout-secs",
            "5",
            "--retries",
            "1",
            "--fault",
            "panic@3",
            "--events",
            "/tmp/x.jsonl",
            "--quiet",
        ])
        .unwrap();
        assert_eq!(cli.seeds, 25);
        assert_eq!(cli.seed_start, 100);
        assert_eq!(cli.jobs, 3);
        assert_eq!(cli.ledger, PathBuf::from("/tmp/x.wdlg"));
        assert!(cli.resume);
        assert_eq!(cli.timeout_secs, 5);
        assert_eq!(cli.retries, 1);
        assert_eq!(cli.fault.as_deref(), Some("panic@3"));
        assert_eq!(cli.events, Some(PathBuf::from("/tmp/x.jsonl")));
        assert!(cli.quiet);
    }

    #[test]
    fn unknown_flags_list_the_valid_ones() {
        let e = parse(&["--seedz", "10"]).unwrap_err();
        assert!(e.contains("--seeds,"), "{e}");
        assert!(e.contains("--resume"), "{e}");
        assert!(e.contains("--ledger"), "{e}");
    }

    #[test]
    fn value_errors_follow_the_scale_from_args_style() {
        let e = parse(&["--retries", "many"]).unwrap_err();
        assert!(
            e.contains("--retries") && e.contains("unsigned integer"),
            "{e}"
        );
        let e = parse(&["--retries"]).unwrap_err();
        assert!(e.contains("requires a value"), "{e}");
        let e = parse(&["--seeds", "many"]).unwrap_err();
        assert!(e.contains("unsigned integer"), "{e}");
        let e = parse(&["--jobs", "0"]).unwrap_err();
        assert!(e.contains("positive"), "{e}");
        let e = parse(&["--fault", "boom@1"]).unwrap_err();
        assert!(e.contains("panic, exit, hang, corrupt, truncate"), "{e}");
        let e = parse(&["--ledger"]).unwrap_err();
        assert!(e.contains("file path"), "{e}");
        let e = parse(&["--seeds", "1", "--seeds", "2"]).unwrap_err();
        assert_eq!(e, "--seeds given more than once");
        let e = parse_campaign_args(&[], Some(OsStr::new("0"))).unwrap_err();
        assert!(e.contains("WATCHDOG_JOBS"), "{e}");
        let e = parse(&["--seed-start", "18446744073709551615", "--seeds", "2"]).unwrap_err();
        assert!(e.contains("runs past the last seed"), "{e}");
        let last = ["--seed-start", "18446744073709551614", "--seeds", "1"];
        assert_eq!(parse(&last).unwrap().seed_start, u64::MAX - 1);
    }

    #[test]
    fn the_fuzz_tally_reads_the_oracles_and_the_passing_cells() {
        let spec = CampaignSpec::fuzz(0, 25);
        let mut done: BTreeMap<u32, CellOutcome> = crate::run_campaign_serial(&spec)
            .into_iter()
            .map(|r| (r.cell, r.outcome))
            .collect();
        let t = FuzzTally::new(&spec, &done);
        assert_eq!((t.violating, t.benign), (19, 6), "{t:?}");
        assert_eq!((t.sims, t.insts), (276, 1057), "{t:?}");
        assert!(t.repros.is_empty(), "{t:?}");

        // Failures drop out of the simulation count, keep their oracle,
        // and print one repro line per signature (lowest seed first).
        let fail = |detail: &str| CellOutcome::Fail {
            kind: 7,
            pc: 3,
            detail: detail.into(),
        };
        done.insert(
            4,
            fail("seed 4: synthetic\n  repro: watchdog-cli fuzz --seed 4"),
        );
        done.insert(9, fail("seed 9: synthetic"));
        let f = FuzzTally::new(&spec, &done);
        assert_eq!((f.violating, f.benign), (19, 6));
        assert!(f.sims < t.sims && f.insts < t.insts, "{f:?}");
        assert_eq!(
            f.repros,
            ["repro: watchdog-cli fuzz --seed 4  # seed 4: synthetic"]
        );
    }
}
