//! The `magseven` benchmark suite and experiment harness.
//!
//! Each of the paper's seven challenges (plus the DSE opportunity) maps to
//! a quantitative experiment `E1..E10`; see `DESIGN.md` at the repository
//! root for the full index. Every experiment:
//!
//! - is deterministic in an explicit seed,
//! - returns typed result rows, and
//! - renders a [`Report`] whose tables are the repository's
//!   equivalent of the paper's figures.
//!
//! # Examples
//!
//! ```
//! use m7_suite::experiments::ExperimentId;
//!
//! let report = ExperimentId::E1Growth.run(42);
//! assert!(!report.tables().is_empty());
//! println!("{report}");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod ablations;
mod challenges;
pub mod experiments;
mod report;
mod workloads;

pub use ablations::{
    contention_onoff, dvfs_pareto, thermal_sustained, ContentionAblation, DvfsAblation,
    ThermalAblation,
};
pub use challenges::Challenge;
pub use report::{fmt_f64, Report, Table};
pub use workloads::{m7bench, score, suite_summary, BenchmarkScore, BenchmarkWorkload};
