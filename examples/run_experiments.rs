//! Regenerates every paper-anchored experiment (E1-E15) and prints the
//! full reports — the repository's equivalent of rebuilding all of the
//! paper's figures in one command.
//!
//! Run with: `cargo run --release --example run_experiments [flags] [e5]`
//!
//! The fifteen experiments run **concurrently** on the deterministic
//! pool (thread count from `M7_THREADS`, else all cores) with
//! cost-modeled E6 and E13 numbers, so the output is byte-identical at any
//! thread count for the same seed; `--threads 1` runs them one at a
//! time. E9, E12, and E14 memoize their objective evaluations; the
//! evaluations each one saved are printed to stderr. Flags:
//!
//! - `--measured` — time E6's roadmap builds and E13's kernels on the
//!   host wall clock instead of the cost models (numbers vary run to run).
//! - `--threads N` — size the deterministic pool explicitly (overrides
//!   `M7_THREADS`; the reports do not change, only wall-clock time).
//! - `--trace FILE` — enable tracing and write a chrome://tracing JSON
//!   trace to FILE (load it in Perfetto or `chrome://tracing`).
//! - `--metrics` — enable tracing and dump all metrics as `key=value`
//!   lines to stderr after the run.
//! - `--stats-interval MS` / `--journal DIR` — sample live telemetry
//!   and journal it to DIR.
//!
//! Reports always go to stdout and observability output to a file /
//! stderr, so the report stream stays byte-identical with tracing on.
//!
//! A non-flag argument selects experiments by slug prefix; unknown
//! `-`-prefixed flags and a second positional argument are errors, as is
//! a prefix that matches nothing.

use magseven::par::ParConfig;
use magseven::suite::experiments::{run, select, Timing};
use magseven::trace::ObsFlags;

fn usage() -> ! {
    eprintln!(
        "usage: run_experiments [--measured] [--threads N] \
         [--trace FILE] [--metrics] [--stats-interval MS] [--journal DIR] [slug-prefix]"
    );
    std::process::exit(2);
}

fn main() {
    let mut timing = Timing::Modeled;
    let mut filter: Option<String> = None;
    let mut obs = ObsFlags::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--measured" => timing = Timing::Measured,
            s if obs.consume(s, &mut args) => {}
            other if other.starts_with('-') => {
                eprintln!("unknown flag: {other}");
                usage();
            }
            other => {
                if let Some(prev) = &filter {
                    eprintln!("unexpected extra argument {other:?} (filter already {prev:?})");
                    usage();
                }
                filter = Some(other.to_string());
            }
        }
    }
    obs.activate();
    let _pump = match magseven::serve::TelemetryPump::from_flags(&obs) {
        Ok(pump) => pump,
        Err(err) => {
            eprintln!("telemetry journal: {err}");
            std::process::exit(2);
        }
    };
    let seed = 42;
    let par = obs.threads.map_or_else(ParConfig::default, ParConfig::with_threads);

    // An experiment always runs on the seed of its paper-order position,
    // so a filtered run reproduces the corresponding full-run reports.
    let ids = match select(filter.as_deref()) {
        Ok(ids) => ids,
        Err(err) => {
            eprintln!("{err}");
            std::process::exit(2);
        }
    };

    let reports = match run(&ids, seed, timing, par) {
        Ok(reports) => reports,
        Err(err) => {
            eprintln!("{err}");
            std::process::exit(2);
        }
    };

    for (id, report, saved) in reports {
        eprintln!("ran {} — {}", id.slug(), id.description());
        if saved > 0 {
            eprintln!("  {} saved {saved} objective evaluations via the result cache", id.slug());
        }
        println!("{report}");
        println!("{}", "=".repeat(76));
    }

    if !obs.finish() {
        std::process::exit(1);
    }
}
