//! Host side of a result: the fingerprint every result file carries, and
//! the peak resident set size of this process.

use std::process::Command;

use watchdog_telemetry::JsonValue;

/// Worker threads (and campaign worker processes) a run may use:
/// every available core, but never more than two.
pub fn jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(2)
}

/// CPU model, core count, compiler, build profile and source revision.
pub fn fingerprint() -> JsonValue {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let rustc_v = command_line(Command::new(rustc).arg("-V")).unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    // Never let git walk above the directory the benchmark runs in: a
    // source checkout without `.git` has no revision.
    let git = |args: &[&str]| {
        let cwd = std::env::current_dir().ok()?;
        let mut cmd = Command::new("git");
        cmd.args(args);
        if let Some(parent) = cwd.parent() {
            cmd.env("GIT_CEILING_DIRECTORIES", parent);
        }
        command_line(&mut cmd)
    };
    let rev = git(&["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "none".into());
    let dirty = rev != "none" && git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
    JsonValue::Obj(vec![
        ("cpu".into(), JsonValue::str(cpu)),
        ("nproc".into(), JsonValue::Int(nproc as u64)),
        ("jobs".into(), JsonValue::Int(jobs() as u64)),
        ("rustc".into(), JsonValue::str(rustc_v)),
        ("profile".into(), JsonValue::str(profile)),
        ("git_rev".into(), JsonValue::str(rev)),
        ("git_dirty".into(), JsonValue::Bool(dirty)),
    ])
}

/// Trimmed standard output of a command that succeeded.
fn command_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Peak resident set size (`VmHWM`) of this process in MiB. `VmHWM`
/// belongs to the address space, so it starts afresh at `exec`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Restarts this process's peak resident set size (`VmHWM`) from its
/// current resident set. Returns whether the kernel allowed it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}
