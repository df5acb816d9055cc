//! Regenerates the §9.3 idealized-shadow ablation.
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let jobs_env = std::env::var_os("WATCHDOG_JOBS");
    let (scale, jobs) =
        watchdog_bench::args::suite_flags("ablation_ideal_shadow", &args, jobs_env.as_deref());
    watchdog_bench::figs::regenerate(&["ablation_ideal_shadow"], scale, jobs);
}
