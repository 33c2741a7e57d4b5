//! Simultaneous localization and mapping kernels.
//!
//! Two SLAM formulations live here, on purpose:
//!
//! - [`EkfSlam`] — the *modern, sparse* landmark EKF: state grows only with
//!   the landmarks actually observed, and each update touches a bounded
//!   sub-block of the covariance.
//! - [`DenseScanSlam`] — an *obsolete, dense* grid-correlation scan matcher
//!   that brute-forces a pose window against an occupancy grid every
//!   update.
//!
//! The pair is the substrate of experiment E2 (Challenge 1, "Build
//! Bridges"): an architect who talks only to stale benchmarks accelerates
//! [`DenseScanSlam`]'s correlation loop, while the field has moved to sparse
//! filters — the accelerated kernel no longer dominates the deployed
//! pipeline.

mod dense;
mod ekf;
mod graph;
mod icp;
mod particle;

pub use dense::{synthetic_room_scan, DenseScanSlam, DenseSlamConfig, Scan};
pub use ekf::{EkfSlam, EkfSlamConfig, LandmarkObservation};
pub use graph::{PoseConstraint, PoseGraph, PoseGraphError};
pub use icp::{icp_align, IcpConfig, IcpResult};
pub use particle::{ParticleFilter, ParticleFilterConfig};
