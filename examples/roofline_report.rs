//! Measured-vs-modeled roofline report: runs the m7-bench harness over
//! the four vectorized kernels and writes `BENCH_roofline.json`.
//!
//! Run with: `cargo run --release --example roofline_report [--quick] [--out PATH]`
//!
//! - `--quick` shrinks batch sizes and repetitions to CI smoke scale
//!   (sub-second end to end).
//! - `--out PATH` chooses the JSON output path (default
//!   `BENCH_roofline.json`).
//!
//! The example prints the text comparison (achieved GFLOP/s and GB/s
//! against the cpu-scalar and cpu-simd roofline ceilings), validates the
//! emitted JSON shape with the m7-trace JSON reader, and exits non-zero
//! if any lane kernel disagrees with its scalar reference or the JSON
//! fails validation — so CI can gate on it directly.
//!
//! For the deepest speedups build with the host ISA enabled:
//! `RUSTFLAGS="-C target-cpu=native" cargo run --release --example roofline_report`

use magseven::bench::{run_suite, validate_roofline_json};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_roofline.json".to_string());
    if let Some(unknown) = args.iter().find(|a| *a != "--quick" && *a != "--out" && !out.eq(*a)) {
        eprintln!("unknown argument {unknown:?}");
        eprintln!("usage: roofline_report [--quick] [--out PATH]");
        std::process::exit(2);
    }

    let suite = run_suite(quick);
    print!("{}", suite.text_report());

    if !suite.all_lanes_agree() {
        eprintln!("FAIL: a lane kernel diverged from its scalar reference");
        std::process::exit(1);
    }

    let json = suite.to_json();
    match validate_roofline_json(&json) {
        Ok(kernels) => println!("JSON shape valid ({kernels} kernel entries)"),
        Err(err) => {
            eprintln!("FAIL: emitted JSON failed validation: {err}");
            std::process::exit(1);
        }
    }
    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(err) => {
            eprintln!("failed to write {out}: {err}");
            std::process::exit(1);
        }
    }
}
