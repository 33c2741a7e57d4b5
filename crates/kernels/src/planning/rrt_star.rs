//! The asymptotically optimal RRT* planner.

use super::collision::CollisionWorld;
use super::path::Path;
use super::rrt::{plan_impl, RrtConfig};
use crate::geometry::Vec2;

/// The RRT* planner: RRT plus choose-parent and rewiring steps, converging
/// toward the optimal path as iterations increase.
///
/// # Examples
///
/// ```
/// use m7_kernels::{CollisionWorld, RrtConfig, RrtStar, Vec2};
///
/// let world = CollisionWorld::new(10.0, 10.0);
/// let planner = RrtStar::new(RrtConfig::default(), 5);
/// let path = planner.plan(&world, Vec2::new(1.0, 1.0), Vec2::new(9.0, 9.0)).unwrap();
/// assert!(path.is_valid(&world));
/// ```
#[derive(Debug, Clone)]
pub struct RrtStar {
    config: RrtConfig,
    seed: u64,
}

impl RrtStar {
    /// Creates a planner with the given configuration and RNG seed.
    #[must_use]
    pub fn new(config: RrtConfig, seed: u64) -> Self {
        Self { config, seed }
    }

    /// The planner configuration.
    #[must_use]
    pub fn config(&self) -> &RrtConfig {
        &self.config
    }

    /// Plans a collision-free, cost-refined path from `start` to `goal`.
    ///
    /// Unlike plain RRT, the search continues for all `max_iterations` and
    /// returns the best goal-reaching path found. Returns `None` if the
    /// endpoints are in collision or no path was found.
    #[must_use]
    pub fn plan(&self, world: &CollisionWorld, start: Vec2, goal: Vec2) -> Option<Path> {
        plan_impl(&self.config, self.seed, world, start, goal, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planning::Rrt;

    fn cluttered_world(seed: u64) -> CollisionWorld {
        let mut w = CollisionWorld::new(20.0, 20.0);
        w.scatter_circles(12, 0.5, 1.5, seed);
        w
    }

    #[test]
    fn finds_valid_path() {
        let world = cluttered_world(3);
        let start = Vec2::new(0.5, 0.5);
        let goal = Vec2::new(19.0, 19.0);
        if !world.point_free(start) || !world.point_free(goal) {
            return; // unlucky scatter; covered by other seeds
        }
        let p = RrtStar::new(RrtConfig { max_iterations: 8000, ..RrtConfig::default() }, 1)
            .plan(&world, start, goal)
            .expect("path exists in scattered world");
        assert!(p.is_valid(&world));
    }

    #[test]
    fn star_is_no_worse_than_rrt_on_average() {
        // Averaged over seeds, RRT* paths are shorter than plain RRT paths.
        let world = CollisionWorld::new(15.0, 15.0);
        let cfg = RrtConfig { max_iterations: 4000, ..RrtConfig::default() };
        let start = Vec2::new(1.0, 1.0);
        let goal = Vec2::new(14.0, 14.0);
        let mut rrt_total = 0.0;
        let mut star_total = 0.0;
        let mut count = 0;
        for seed in 0..5 {
            let a = Rrt::new(cfg, seed).plan(&world, start, goal);
            let b = RrtStar::new(cfg, seed).plan(&world, start, goal);
            if let (Some(a), Some(b)) = (a, b) {
                rrt_total += a.length();
                star_total += b.length();
                count += 1;
            }
        }
        assert!(count >= 3, "most seeds should solve the empty world");
        assert!(
            star_total <= rrt_total * 1.02,
            "RRT* average {star_total} should not exceed RRT average {rrt_total}"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let world = cluttered_world(8);
        let plan = || {
            RrtStar::new(RrtConfig::default(), 21).plan(
                &world,
                Vec2::new(0.5, 0.5),
                Vec2::new(19.5, 19.5),
            )
        };
        assert_eq!(plan().map(|p| p.waypoints().to_vec()), plan().map(|p| p.waypoints().to_vec()));
    }
}
