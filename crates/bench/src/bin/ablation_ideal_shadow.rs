//! Regenerates the §9.3 idealized-shadow ablation.
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = watchdog_bench::scale_from_args(&args);
    let jobs = watchdog_bench::jobs_from_args(&args, std::env::var("WATCHDOG_JOBS").ok());
    watchdog_bench::figs::regenerate(&["ablation_ideal_shadow"], scale, jobs);
}
