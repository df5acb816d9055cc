//! Regenerates Table 1 (with an empirical comprehensiveness demonstration).
use watchdog_bench::args::{or_exit, parse};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    or_exit(parse("table1", 0, &[], &args));
    watchdog_bench::figs::table1();
}
