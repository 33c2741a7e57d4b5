//! Executable autonomous-system kernels for the `magseven` framework.
//!
//! This crate implements, from scratch, the computational workloads that the
//! paper's seven challenges are about — real algorithms, not stubs:
//!
//! - [`Vec2`], [`Vec3`], [`Pose2`] — 2D/3D vectors, rotation, rigid poses.
//! - [`Matrix`] — a small dense dynamic matrix with solvers (Cholesky, LU),
//!   the substrate for the EKF and LQR.
//! - [`OccupancyGrid`] — occupancy-grid mapping with ray casting.
//! - [`Rrt`], [`RrtStar`], [`Prm`], [`astar`] — sampling-based motion planning (RRT, RRT*, PRM) on top
//!   of both a *scalar* and a *batched structure-of-arrays* collision
//!   checker; the batched path reproduces the vectorization speedups the
//!   paper cites (Challenge 5).
//! - [`EkfSlam`], [`DenseScanSlam`], [`ParticleFilter`], [`PoseGraph`] — landmark EKF-SLAM plus an intentionally "obsolete" dense
//!   grid-correlation variant used by the Build-Bridges experiment
//!   (Challenge 1).
//! - [`FeatureFrontEnd`] — a synthetic visual-feature front end (detection,
//!   descriptor matching), the camera-side workload.
//! - [`Pid`], [`Lqr`] — PID and finite-horizon discrete LQR controllers.
//! - [`SerialChain`] — recursive Newton-Euler inverse dynamics for serial
//!   chains (the manipulator workload).
//! - [`Mlp`] — a multilayer perceptron with full-precision and quantized
//!   inference, plus a small SGD trainer; the substrate of the Metrics-Matter
//!   experiment (Challenge 2).
//!
//! All randomized components take explicit seeds and are fully
//! deterministic.
//!
//! # Examples
//!
//! ```
//! use m7_kernels::{CollisionWorld, Rrt, RrtConfig, Vec2};
//!
//! let mut world = CollisionWorld::new(20.0, 20.0);
//! world.add_circle(Vec2::new(10.0, 10.0), 2.0);
//! let rrt = Rrt::new(RrtConfig::default(), 7);
//! let path = rrt.plan(&world, Vec2::new(1.0, 1.0), Vec2::new(19.0, 19.0));
//! assert!(path.is_some());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod control;
mod dnn;
mod dynamics;
mod geometry;
mod grid;
mod linalg;
mod perception;
mod planning;
mod slam;

pub use control::{Lqr, Pid, ProfileError, TrapezoidalProfile};
pub use dnn::{Dataset, Mlp, MlpScratch, Precision};
pub use dynamics::{Link, SerialChain};
pub use geometry::{normalize_angle, Pose2, Vec2, Vec3};
pub use grid::OccupancyGrid;
pub use linalg::{LinalgError, Matrix};
pub use perception::{Descriptor, FeatureFrontEnd, Image, Keypoint};
pub use planning::{
    astar, AstarConfig, BatchChecker, CollisionWorld, Path, Prm, PrmConfig, Rrt, RrtConfig, RrtStar,
};
pub use slam::{
    icp_align, synthetic_room_scan, DenseScanSlam, DenseSlamConfig, EkfSlam, EkfSlamConfig,
    IcpConfig, IcpResult, LandmarkObservation, ParticleFilter, ParticleFilterConfig,
    PoseConstraint, PoseGraph, PoseGraphError, Scan,
};
