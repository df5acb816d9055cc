//! Regenerates every table and figure in sequence (EXPERIMENTS.md input).
//! The suite figures share one timed and one functional suite run.
use watchdog_bench::figs;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = watchdog_bench::scale_from_args(&args);
    let jobs = watchdog_bench::jobs_from_args(&args, std::env::var("WATCHDOG_JOBS").ok());
    figs::table2();
    figs::table1();
    figs::juliet(jobs);
    let names: Vec<&str> = figs::FIGURES.iter().map(|f| f.name).collect();
    figs::regenerate(&names, scale, jobs);
}
