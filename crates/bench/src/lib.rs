//! Benchmark support crate: the roofline harness lives in `roofline`;
//! the kernel micro-benches live in `benches/`.
//!
//! - [`time_best`] — the one kernel timer: a warm-up call, then samples
//!   whose call count doubles until one lasts 2 ms, reporting the best
//!   time per call. The roofline harness and the micro-benches use it.
//! - [`run_suite`] — the measured-vs-modeled harness: the set of
//!   workloads for the lane-vs-scalar kernel pairs. Experiment
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
//!   collision ablation behind E6; `cargo bench --offline -p m7-bench`
//!   prints one line per case. Experiments, closed-loop simulation and
//!   serving are timed by the `perfbench/` workloads instead.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod roofline;
mod sentinel;

pub use roofline::{
    run_suite, time_best, validate_roofline_json, KernelMeasurement, ModeledCeiling, RooflineSuite,
};
pub use sentinel::{
    compare_json, Finding, SentinelConfig, SentinelReport, Verdict, DEFAULT_DIAG_RATIO,
};

/// Default seed shared by all benchmark workloads, so that runs time the
/// same inputs.
pub const BENCH_SEED: u64 = 42;
