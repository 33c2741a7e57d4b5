//! Benchmark support crate: the roofline harness lives in `roofline`;
//! the Criterion kernel micro-benches live in `benches/`.
//!
//! - [`run_suite`] — the measured-vs-modeled harness: the one timer and
//!   set of workloads for the lane-vs-scalar kernel pairs. Experiment
//!   E13's measured table is its quick mode; `examples/roofline_report.rs`
//!   runs it at either size and writes the repo-root
//!   `BENCH_roofline.json`.
//! - [`compare_json`] — the regression sentinel: a per-metric-class
//!   tolerance diff over two bench/metric JSON documents (run via
//!   `examples/bench_sentinel.rs --check A B`; non-zero exit on
//!   regression). Seeds and guards the repo-root
//!   `BENCH_serve_latency.json` written by `examples/serve_bench.rs`.
//! - `benches/kernels.rs` — micro-benches of the autonomy kernels that
//!   nothing else times on their own, including the scalar-vs-batched
//!   collision ablation behind E6. Experiments, closed-loop simulation
//!   and serving are timed by the `perfbench/` workloads instead.
//!
//! Run with `cargo bench --offline -p m7-bench`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod roofline;
mod sentinel;

pub use roofline::{
    run_suite, validate_roofline_json, KernelMeasurement, ModeledCeiling, RooflineSuite,
};
pub use sentinel::{
    compare_json, Finding, SentinelConfig, SentinelReport, Verdict, DEFAULT_DIAG_RATIO,
};

/// Default seed shared by all benchmark workloads so that Criterion
/// compares like against like across runs.
pub const BENCH_SEED: u64 = 42;
