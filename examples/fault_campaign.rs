//! Runs a fault-injection campaign over the E11 vehicle and prints the
//! robustness comparison: nominal vs. fault-blind vs. degradation-aware.
//!
//! Run with:
//! `cargo run --release --example fault_campaign [--runs N] [--seed S] [--threads T]
//! [--trace FILE] [--metrics]`
//!
//! `--runs` sets the Monte-Carlo draws per design arm (default 32; CI
//! smoke-tests with a reduced N). The campaign fans runs across the
//! deterministic pool (`--threads`, else `M7_THREADS`, else all cores),
//! and the report is byte-identical at any thread count for the same
//! seed. `--trace FILE` writes a chrome://tracing JSON trace to FILE and
//! `--metrics` dumps `key=value` metrics to stderr; both leave stdout
//! untouched.

use magseven::par::ParConfig;
use magseven::suite::experiments::e11_robustness;
use magseven::trace::{flag_value, ObsFlags};

fn main() {
    let mut runs = 32usize;
    let mut seed = 42u64;
    let mut obs = ObsFlags::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--runs" => runs = flag_value(&mut args, "--runs", "a positive integer"),
            "--seed" => seed = flag_value(&mut args, "--seed", "an integer"),
            s if obs.consume(s, &mut args) => {}
            other => {
                eprintln!(
                    "unknown argument {other:?}; usage: fault_campaign [--runs N] [--seed S] \
                     [--threads T] [--trace FILE] [--metrics] [--stats-interval MS] \
                     [--journal DIR]"
                );
                std::process::exit(2);
            }
        }
    }
    if runs == 0 {
        eprintln!("--runs must be at least 1");
        std::process::exit(2);
    }
    obs.activate();
    let _pump = match magseven::serve::TelemetryPump::from_flags(&obs) {
        Ok(pump) => pump,
        Err(err) => {
            eprintln!("telemetry journal: {err}");
            std::process::exit(2);
        }
    };
    let par = obs.threads.map_or_else(ParConfig::default, ParConfig::with_threads);

    let result = e11_robustness::run_with_runs_par(seed, runs, par);
    println!("{}", result.report());
    eprintln!(
        "aware {:.3} vs blind {:.3} mission success over {} shared fault draws",
        result.degradation_aware().success_rate(),
        result.fault_blind().success_rate(),
        runs
    );

    if !obs.finish() {
        std::process::exit(1);
    }
}
