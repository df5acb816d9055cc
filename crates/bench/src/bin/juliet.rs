//! Runs the §9.2 Juliet-style security evaluation.
use watchdog_bench::args::{or_exit, parse, JOBS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let jobs_env = std::env::var_os("WATCHDOG_JOBS");
    let jobs =
        or_exit(parse("juliet", 0, &[JOBS], &args).and_then(|a| a.jobs(jobs_env.as_deref())));
    watchdog_bench::figs::juliet(jobs);
}
