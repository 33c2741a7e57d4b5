//! Accelerator platform and cost models for the `magseven` framework.
//!
//! This crate is the analytic-hardware substrate standing in for the
//! fabricated prototypes of the literature the paper surveys. It provides:
//!
//! - [`workload`] — [`workload::KernelProfile`]: the op/byte footprint of
//!   one kernel invocation, with constructors for every `m7-kernels`
//!   workload.
//! - [`roofline`] — the classic roofline model.
//! - [`platform`] — [`platform::Platform`]: CPU/SIMD/GPU/FPGA/ASIC models
//!   with latency, energy, mass, area, cost, and *specialization* policies
//!   (general-purpose, cross-cutting family accelerator, or single-kernel
//!   "widget").
//! - [`cost`] — [`cost::CostEstimate`] with the limiting roof identified.
//! - [`contention`] — shared-bus bandwidth contention: the "accelerators
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

pub mod contention;
pub mod cost;
pub mod dvfs;
pub mod generator;
pub mod platform;
pub mod roofline;
pub mod spec;
pub mod workload;
