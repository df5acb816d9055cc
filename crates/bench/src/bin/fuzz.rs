//! Differential fuzzing campaign over `watchdog-gen` seeds.
//!
//! ```text
//! fuzz [--seeds N] [--seed-start K] [--jobs J]   # campaign (default 1000 seeds from 0)
//! fuzz --seed K                                  # verbose single-seed repro
//! ```
//!
//! Every seed generates one adversarial heap-lifetime program (plus its
//! benign twin) and runs the differential matrix of
//! `watchdog_gen::check_seed`. Any divergence — a missed violation, a
//! false positive, a wrong faulting instruction, a timed/functional
//! disagreement — is reported with a one-line repro command. Exit status
//! is non-zero iff any seed failed.
//!
//! The entire command line lives in [`watchdog_bench::fuzz_main`], shared
//! with `watchdog-cli fuzz`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = watchdog_bench::fuzz_main(&args, std::env::var("WATCHDOG_JOBS").ok());
    if code != 0 {
        std::process::exit(code);
    }
}
