//! Regenerates Figure 05 of the paper. Usage: `cargo run -p watchdog-bench --bin fig05 [--scale test|small|ref] [--jobs N]`.
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let jobs_env = std::env::var_os("WATCHDOG_JOBS");
    let (scale, jobs) = watchdog_bench::args::suite_flags("fig05", &args, jobs_env.as_deref());
    watchdog_bench::figs::regenerate(&["fig05"], scale, jobs);
}
