//! Prints Table 2: the simulated processor configuration.
use watchdog_bench::args::{or_exit, parse};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    or_exit(parse("table2", 0, &[], &args));
    watchdog_bench::figs::table2();
}
