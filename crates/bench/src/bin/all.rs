//! Regenerates every table and figure in sequence (EXPERIMENTS.md input).
//! The suite figures share one timed and one functional suite run.
use watchdog_bench::figs;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let jobs_env = std::env::var_os("WATCHDOG_JOBS");
    let (scale, jobs) = watchdog_bench::args::suite_flags("all", &args, jobs_env.as_deref());
    figs::table2();
    figs::table1();
    figs::juliet(jobs);
    let names: Vec<&str> = figs::FIGURES.iter().map(|f| f.name).collect();
    figs::regenerate(&names, scale, jobs);
}
