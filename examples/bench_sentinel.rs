//! Regression sentinel CLI: tolerance-aware diff of two bench/metric
//! JSON documents.
//!
//! Run with: `cargo run --example bench_sentinel -- --check BASELINE CANDIDATE [--ratio R]`
//!
//! - `--check BASELINE CANDIDATE` compares the candidate document
//!   against the baseline under the per-metric-class rules in
//!   `m7_bench::sentinel` (deterministic paths exact, diagnostic paths
//!   within a worsening ratio) and exits **1** on any regression — CI
//!   gates on the exit code.
//! - `--ratio R` overrides the allowed diagnostic worsening ratio
//!   (default 5.0, i.e. up to 6x worse passes).
//! - `--self-test` proves the sentinel can fail: it synthesizes a
//!   baseline, injects a deterministic drift and a latency blowup, and
//!   exits non-zero unless both injected regressions are caught.

use magseven::bench::sentinel::{compare_json, SentinelConfig, DEFAULT_DIAG_RATIO};
use magseven::trace::cli::flag_value;

/// What `--ratio` accepts.
const RATIO: &str = "a finite non-negative number";

fn usage() -> ! {
    eprintln!("usage: bench_sentinel --check BASELINE CANDIDATE [--ratio R] | --self-test");
    std::process::exit(2);
}

fn read(path: &str) -> String {
    match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("cannot read {path}: {err}");
            std::process::exit(2);
        }
    }
}

fn self_test(config: &SentinelConfig) -> ! {
    let baseline = r#"{
        "schema": "m7-bench/self-test/v1",
        "deterministic": {"requests": 64, "cache_hits": 48},
        "diagnostic": {"eval_p99_ns": 1500, "tier_hits": 32}
    }"#;
    // Clean rerun: identical numbers must pass.
    let clean = compare_json(baseline, baseline, config).expect("self-test json");
    if !clean.passed() {
        eprintln!("self-test FAILED: identical documents flagged\n{}", clean.render());
        std::process::exit(1);
    }
    // Injected regressions: a deterministic drift and a latency blowup
    // far past any ratio. Both must be caught.
    let broken = baseline
        .replace("\"cache_hits\": 48", "\"cache_hits\": 47")
        .replace("\"eval_p99_ns\": 1500", "\"eval_p99_ns\": 150000");
    let report = compare_json(baseline, &broken, config).expect("self-test json");
    let caught: Vec<&str> = report.regressions().iter().map(|f| f.path.as_str()).collect();
    if caught.contains(&"deterministic.cache_hits") && caught.contains(&"diagnostic.eval_p99_ns") {
        println!("self-test OK: injected regressions caught ({})", caught.join(", "));
        std::process::exit(0);
    }
    eprintln!("self-test FAILED: injected regressions not caught\n{}", report.render());
    std::process::exit(1);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut check: Option<(String, String)> = None;
    let mut ratio = DEFAULT_DIAG_RATIO;
    let mut run_self_test = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => {
                let (Some(base), Some(cand)) = (args.next(), args.next()) else { usage() };
                check = Some((base, cand));
            }
            "--ratio" => {
                ratio = flag_value(&mut args, "--ratio", RATIO);
                if !(ratio.is_finite() && ratio >= 0.0) {
                    eprintln!("--ratio needs {RATIO}");
                    std::process::exit(2);
                }
            }
            "--self-test" => run_self_test = true,
            _ => usage(),
        }
    }
    let config = SentinelConfig { diag_ratio: ratio };
    if run_self_test {
        self_test(&config);
    }
    let Some((base_path, cand_path)) = check else { usage() };
    let report = match compare_json(&read(&base_path), &read(&cand_path), &config) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("sentinel: {err}");
            std::process::exit(2);
        }
    };
    print!("{}", report.render());
    std::process::exit(i32::from(!report.passed()));
}
