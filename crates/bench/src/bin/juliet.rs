//! Runs the §9.2 Juliet-style security evaluation.
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let jobs = watchdog_bench::jobs_from_args(&args, std::env::var("WATCHDOG_JOBS").ok());
    watchdog_bench::figs::juliet(jobs);
}
