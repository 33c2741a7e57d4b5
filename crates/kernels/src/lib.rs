//! Executable autonomous-system kernels for the `magseven` framework.
//!
//! This crate implements, from scratch, the computational workloads that the
//! paper's seven challenges are about — real algorithms, not stubs:
//!
//! - [`geometry`] — 2D/3D vectors, rotation, rigid poses.
//! - [`linalg`] — a small dense dynamic matrix with solvers (Cholesky, LU),
//!   the substrate for the EKF and LQR.
//! - [`grid`] — occupancy-grid mapping with ray casting.
//! - [`planning`] — sampling-based motion planning (RRT, RRT*, PRM) on top
//!   of both a *scalar* and a *batched structure-of-arrays* collision
//!   checker; the batched path reproduces the vectorization speedups the
//!   paper cites (Challenge 5).
//! - [`slam`] — landmark EKF-SLAM plus an intentionally "obsolete" dense
//!   grid-correlation variant used by the Build-Bridges experiment
//!   (Challenge 1).
//! - [`perception`] — a synthetic visual-feature front end (detection,
//!   descriptor matching), the camera-side workload.
//! - [`control`] — PID and finite-horizon discrete LQR controllers.
//! - [`dynamics`] — recursive Newton-Euler inverse dynamics for serial
//!   chains (the manipulator workload).
//! - [`dnn`] — a multilayer perceptron with full-precision and quantized
//!   inference, plus a small SGD trainer; the substrate of the Metrics-Matter
//!   experiment (Challenge 2).
//!
//! All randomized components take explicit seeds and are fully
//! deterministic.
//!
//! # Examples
//!
//! ```
//! use m7_kernels::geometry::Vec2;
//! use m7_kernels::planning::{CollisionWorld, Rrt, RrtConfig};
//!
//! let mut world = CollisionWorld::new(20.0, 20.0);
//! world.add_circle(Vec2::new(10.0, 10.0), 2.0);
//! let rrt = Rrt::new(RrtConfig::default(), 7);
//! let path = rrt.plan(&world, Vec2::new(1.0, 1.0), Vec2::new(19.0, 19.0));
//! assert!(path.is_some());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod control;
pub mod dnn;
pub mod dynamics;
pub mod geometry;
pub mod grid;
pub mod linalg;
pub mod perception;
pub mod planning;
pub mod slam;
