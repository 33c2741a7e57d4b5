//! Sampling-based motion planning: RRT, RRT*, and PRM over a 2D workspace,
//! with both a conventional *scalar* collision checker and a *batched
//! structure-of-arrays* checker.
//!
//! The two checker implementations are deliberately kept side by side: the
//! batched path applies exactly the transformations (structure-of-arrays
//! layout, squared-distance arithmetic, batch evaluation, branch-free inner
//! loops) that the paper's Challenge 5 credits for up-to-500× software
//! speedups in motion planning. Experiment E6 measures the gap.
//!
//! # Examples
//!
//! ```
//! use m7_kernels::{CollisionWorld, RrtConfig, RrtStar, Vec2};
//!
//! let mut world = CollisionWorld::new(10.0, 10.0);
//! world.add_circle(Vec2::new(5.0, 5.0), 1.5);
//! let planner = RrtStar::new(RrtConfig::default(), 42);
//! let path = planner
//!     .plan(&world, Vec2::new(0.5, 0.5), Vec2::new(9.5, 9.5))
//!     .expect("free space is connected");
//! assert!(path.waypoints().len() >= 2);
//! ```

mod astar;
mod collision;
mod kdtree;
mod path;
mod prm;
mod rrt;
mod rrt_star;

pub use astar::{astar, AstarConfig};
pub use collision::{BatchChecker, CollisionWorld};
pub(crate) use kdtree::KdTree;
pub use path::Path;
pub use prm::{Prm, PrmConfig};
pub use rrt::{Rrt, RrtConfig};
pub use rrt_star::RrtStar;
