//! The Rapidly-exploring Random Tree (RRT) planner.

use super::collision::CollisionWorld;
use super::kdtree::KdTree;
use super::path::Path;
use crate::geometry::Vec2;
use rand::{Rng, SeedableRng};

/// Tuning parameters shared by [`Rrt`](super::Rrt) and
/// [`RrtStar`](super::RrtStar).
///
/// # Examples
///
/// ```
/// use m7_kernels::RrtConfig;
///
/// let cfg = RrtConfig { max_iterations: 5000, ..RrtConfig::default() };
/// assert_eq!(cfg.max_iterations, 5000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RrtConfig {
    /// Maximum tree-growth iterations before giving up.
    pub max_iterations: usize,
    /// Maximum extension distance per iteration (meters).
    pub step_size: f64,
    /// Probability of sampling the goal instead of a random point.
    pub goal_bias: f64,
    /// Distance at which the goal counts as reached (meters).
    pub goal_tolerance: f64,
    /// RRT* rewiring radius (ignored by plain RRT).
    pub rewire_radius: f64,
}

impl Default for RrtConfig {
    fn default() -> Self {
        Self {
            max_iterations: 20_000,
            step_size: 0.5,
            goal_bias: 0.05,
            goal_tolerance: 0.5,
            rewire_radius: 1.5,
        }
    }
}

pub(super) struct TreeNode {
    pub point: Vec2,
    pub parent: Option<usize>,
    pub cost: f64,
}

/// Extracts the waypoint chain from `nodes` ending at `goal_index`.
pub(super) fn extract_path(nodes: &[TreeNode], goal_index: usize) -> Path {
    let mut chain = Vec::new();
    let mut cursor = Some(goal_index);
    while let Some(i) = cursor {
        chain.push(nodes[i].point);
        cursor = nodes[i].parent;
    }
    chain.reverse();
    Path::new(chain)
}

/// The classic RRT planner: grows a tree from the start by extending toward
/// random samples, returning the first path that reaches the goal.
///
/// Deterministic for a fixed seed.
///
/// # Examples
///
/// ```
/// use m7_kernels::{CollisionWorld, Rrt, RrtConfig, Vec2};
///
/// let world = CollisionWorld::new(10.0, 10.0);
/// let planner = Rrt::new(RrtConfig::default(), 1);
/// let path = planner.plan(&world, Vec2::new(1.0, 1.0), Vec2::new(9.0, 9.0)).unwrap();
/// assert!(path.is_valid(&world));
/// ```
#[derive(Debug, Clone)]
pub struct Rrt {
    config: RrtConfig,
    seed: u64,
}

impl Rrt {
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

    /// Plans a collision-free path from `start` to `goal`.
    ///
    /// Returns `None` if `start` or `goal` is in collision or no path is
    /// found within `max_iterations`.
    #[must_use]
    pub fn plan(&self, world: &CollisionWorld, start: Vec2, goal: Vec2) -> Option<Path> {
        plan_impl(&self.config, self.seed, world, start, goal, false)
    }
}

pub(super) fn plan_impl(
    config: &RrtConfig,
    seed: u64,
    world: &CollisionWorld,
    start: Vec2,
    goal: Vec2,
    star: bool,
) -> Option<Path> {
    if !world.point_free(start) || !world.point_free(goal) {
        return None;
    }
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut nodes = vec![TreeNode { point: start, parent: None, cost: 0.0 }];
    let mut tree = KdTree::new();
    tree.insert(start, 0);
    let mut best_goal: Option<usize> = None;

    for _ in 0..config.max_iterations {
        let sample = if rng.gen_bool(config.goal_bias) {
            goal
        } else {
            Vec2::new(rng.gen_range(0.0..world.width()), rng.gen_range(0.0..world.height()))
        };
        let (nearest, _) = tree.nearest(sample).expect("tree is nonempty");
        let from = nodes[nearest].point;
        let to_sample = sample - from;
        let dist = to_sample.norm();
        if dist < 1e-12 {
            continue;
        }
        let new_point = if dist <= config.step_size {
            sample
        } else {
            from + to_sample * (config.step_size / dist)
        };
        if !world.segment_free(from, new_point) {
            continue;
        }

        let mut parent = nearest;
        let mut cost = nodes[nearest].cost + from.distance(new_point);
        if star {
            // Choose-parent: connect through the lowest-cost neighbor.
            let neighbors = tree.within_radius(new_point, config.rewire_radius);
            for &nb in &neighbors {
                let c = nodes[nb].cost + nodes[nb].point.distance(new_point);
                if c < cost && world.segment_free(nodes[nb].point, new_point) {
                    parent = nb;
                    cost = c;
                }
            }
            let new_index = nodes.len();
            nodes.push(TreeNode { point: new_point, parent: Some(parent), cost });
            tree.insert(new_point, new_index);
            // Rewire: reroute neighbors through the new node when cheaper.
            for &nb in &neighbors {
                let through = cost + new_point.distance(nodes[nb].point);
                if through + 1e-12 < nodes[nb].cost
                    && world.segment_free(new_point, nodes[nb].point)
                {
                    nodes[nb].parent = Some(new_index);
                    nodes[nb].cost = through;
                }
            }
            if new_point.distance(goal) <= config.goal_tolerance {
                match best_goal {
                    Some(g) if nodes[g].cost <= cost => {}
                    _ => best_goal = Some(new_index),
                }
            }
        } else {
            let new_index = nodes.len();
            nodes.push(TreeNode { point: new_point, parent: Some(parent), cost });
            tree.insert(new_point, new_index);
            if new_point.distance(goal) <= config.goal_tolerance {
                return Some(extract_path(&nodes, new_index));
            }
        }
    }
    best_goal.map(|g| extract_path(&nodes, g))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_in_empty_world() {
        let world = CollisionWorld::new(10.0, 10.0);
        let p = Rrt::new(RrtConfig::default(), 3)
            .plan(&world, Vec2::new(0.5, 0.5), Vec2::new(9.5, 9.5))
            .expect("empty world is trivially solvable");
        assert!(p.is_valid(&world));
        assert!(p.goal().distance(Vec2::new(9.5, 9.5)) <= RrtConfig::default().goal_tolerance);
        assert_eq!(p.start(), Vec2::new(0.5, 0.5));
    }

    #[test]
    fn plans_around_obstacle() {
        let mut world = CollisionWorld::new(10.0, 10.0);
        world.add_rect(Vec2::new(4.0, 0.0), Vec2::new(6.0, 8.0));
        let p = Rrt::new(RrtConfig::default(), 9)
            .plan(&world, Vec2::new(1.0, 1.0), Vec2::new(9.0, 1.0))
            .expect("gap above the wall exists");
        assert!(p.is_valid(&world));
        // The path must detour above y = 8.
        assert!(p.waypoints().iter().any(|w| w.y > 7.5));
    }

    #[test]
    fn fails_when_start_blocked() {
        let mut world = CollisionWorld::new(10.0, 10.0);
        world.add_circle(Vec2::new(1.0, 1.0), 1.0);
        assert!(Rrt::new(RrtConfig::default(), 1)
            .plan(&world, Vec2::new(1.0, 1.0), Vec2::new(9.0, 9.0))
            .is_none());
    }

    #[test]
    fn fails_when_goal_unreachable() {
        let mut world = CollisionWorld::new(10.0, 10.0);
        // A wall fully separating left from right.
        world.add_rect(Vec2::new(4.5, 0.0), Vec2::new(5.5, 10.0));
        let cfg = RrtConfig { max_iterations: 2000, ..RrtConfig::default() };
        assert!(Rrt::new(cfg, 4).plan(&world, Vec2::new(1.0, 5.0), Vec2::new(9.0, 5.0)).is_none());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut world = CollisionWorld::new(15.0, 15.0);
        world.scatter_circles(10, 0.5, 1.5, 7);
        let plan = |seed| {
            Rrt::new(RrtConfig::default(), seed).plan(
                &world,
                Vec2::new(0.5, 0.5),
                Vec2::new(14.0, 14.0),
            )
        };
        let a = plan(42);
        let b = plan(42);
        assert_eq!(a.map(|p| p.waypoints().to_vec()), b.map(|p| p.waypoints().to_vec()));
    }
}
