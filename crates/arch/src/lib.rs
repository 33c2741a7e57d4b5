//! Accelerator platform and cost models for the `magseven` framework.
//!
//! This crate is the analytic-hardware substrate standing in for the
//! fabricated prototypes of the literature the paper surveys. It provides:
//!
//! - [`workload`] — [`workload::KernelProfile`]: the op/byte footprint of
//!   one kernel invocation, with constructors for every `m7-kernels`
//!   workload.
//! - [`Roofline`] — the classic roofline model.
//! - [`platform`] — [`platform::Platform`]: CPU/SIMD/GPU/FPGA/ASIC models
//!   with latency, energy, mass, area, cost, and *specialization* policies
//!   (general-purpose, cross-cutting family accelerator, or single-kernel
//!   "widget").
//! - [`CostEstimate`] — a cost with the limiting roof identified.
//! - [`SharedBus`] — shared-bus bandwidth contention: the "accelerators
//!   are not free" model.
//!
//! # Examples
//!
//! ```
//! use m7_arch::platform::{Platform, PlatformKind};
//! use m7_arch::workload::KernelProfile;
//!
//! let gpu = Platform::preset(PlatformKind::Gpu);
//! let kernel = KernelProfile::collision_batch(50_000, 128);
//! let cost = gpu.estimate(&kernel);
//! println!("{} in {:.3} ms ({})", kernel.name(), cost.latency.as_millis(), cost.bound);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod contention;
mod cost;
pub mod dvfs;
mod generator;
pub mod platform;
mod roofline;
mod spec;
pub mod workload;

pub use contention::{scaling_under_contention, SharedBus};
pub use cost::{Bound, CostEstimate};
pub use generator::{AcceleratorConfig, GenerateError};
pub use roofline::Roofline;
pub use spec::{parse_platform, ParseSpecError, SpecErrorKind};
