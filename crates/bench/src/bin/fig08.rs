//! Regenerates Figure 08 of the paper. Usage: `cargo run -p watchdog-bench --bin fig08 [--scale test|small|ref] [--jobs N]`.
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = watchdog_bench::scale_from_args(&args);
    let jobs = watchdog_bench::jobs_from_args(&args, std::env::var("WATCHDOG_JOBS").ok());
    watchdog_bench::figs::regenerate(&["fig08"], scale, jobs);
}
