//! Planned paths: waypoint sequences with length, validation, and
//! shortcut smoothing.

use super::collision::CollisionWorld;
use crate::geometry::Vec2;

/// A piecewise-linear path through the workspace.
///
/// # Examples
///
/// ```
/// use m7_kernels::{Path, Vec2};
///
/// let path = Path::new(vec![Vec2::ZERO, Vec2::new(3.0, 4.0), Vec2::new(3.0, 8.0)]);
/// assert_eq!(path.length(), 9.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    waypoints: Vec<Vec2>,
}

impl Path {
    /// Creates a path from waypoints.
    ///
    /// # Panics
    ///
    /// Panics if fewer than one waypoint is given.
    #[must_use]
    pub fn new(waypoints: Vec<Vec2>) -> Self {
        assert!(!waypoints.is_empty(), "a path needs at least one waypoint");
        Self { waypoints }
    }

    /// The waypoint sequence.
    #[must_use]
    pub fn waypoints(&self) -> &[Vec2] {
        &self.waypoints
    }

    /// Total Euclidean length.
    #[must_use]
    pub fn length(&self) -> f64 {
        self.waypoints.windows(2).map(|w| w[0].distance(w[1])).sum()
    }

    /// The first waypoint.
    #[must_use]
    pub fn start(&self) -> Vec2 {
        self.waypoints[0]
    }

    /// The last waypoint.
    #[must_use]
    pub fn goal(&self) -> Vec2 {
        *self.waypoints.last().expect("path is nonempty")
    }

    /// Returns `true` if every segment of the path is collision-free in
    /// `world`.
    #[must_use]
    pub fn is_valid(&self, world: &CollisionWorld) -> bool {
        if self.waypoints.len() == 1 {
            return world.point_free(self.waypoints[0]);
        }
        self.waypoints.windows(2).all(|w| world.segment_free(w[0], w[1]))
    }

    /// The point at arc-length parameter `s ∈ [0, length]` along the path.
    ///
    /// Clamps `s` into range.
    #[must_use]
    pub fn point_at(&self, s: f64) -> Vec2 {
        let mut remaining = s.max(0.0);
        for w in self.waypoints.windows(2) {
            let seg = w[0].distance(w[1]);
            if remaining <= seg {
                if seg == 0.0 {
                    return w[0];
                }
                return w[0].lerp(w[1], remaining / seg);
            }
            remaining -= seg;
        }
        self.goal()
    }

    /// Greedy shortcut smoothing: repeatedly replaces waypoint subchains
    /// with straight segments when collision-free. Deterministic; runs until
    /// no shortcut is found. Returns the smoothed path (never longer than
    /// the original).
    #[must_use]
    pub fn shortcut(&self, world: &CollisionWorld) -> Self {
        let mut pts = self.waypoints.clone();
        let mut improved = true;
        while improved && pts.len() > 2 {
            improved = false;
            let mut i = 0;
            while i + 2 < pts.len() {
                if world.segment_free(pts[i], pts[i + 2]) {
                    pts.remove(i + 1);
                    improved = true;
                } else {
                    i += 1;
                }
            }
        }
        Self { waypoints: pts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_and_endpoints() {
        let p = Path::new(vec![Vec2::ZERO, Vec2::new(0.0, 2.0), Vec2::new(1.5, 4.0)]);
        assert!((p.length() - 4.5).abs() < 1e-12);
        assert_eq!(p.start(), Vec2::ZERO);
        assert_eq!(p.goal(), Vec2::new(1.5, 4.0));
    }

    #[test]
    fn point_at_interpolates() {
        let p = Path::new(vec![Vec2::ZERO, Vec2::new(4.0, 0.0)]);
        assert_eq!(p.point_at(1.0), Vec2::new(1.0, 0.0));
        assert_eq!(p.point_at(-5.0), Vec2::ZERO);
        assert_eq!(p.point_at(99.0), Vec2::new(4.0, 0.0));
    }

    #[test]
    fn shortcut_removes_detour() {
        let world = CollisionWorld::new(10.0, 10.0);
        let p = Path::new(vec![Vec2::new(1.0, 1.0), Vec2::new(5.0, 9.0), Vec2::new(9.0, 1.0)]);
        let s = p.shortcut(&world);
        assert_eq!(s.waypoints().len(), 2);
        assert!(s.length() < p.length());
    }

    #[test]
    fn shortcut_respects_obstacles() {
        let mut world = CollisionWorld::new(10.0, 10.0);
        world.add_circle(Vec2::new(5.0, 1.0), 1.5);
        let p = Path::new(vec![Vec2::new(1.0, 1.0), Vec2::new(5.0, 5.0), Vec2::new(9.0, 1.0)]);
        let s = p.shortcut(&world);
        assert_eq!(s.waypoints().len(), 3, "direct segment is blocked");
        assert!(s.is_valid(&world));
    }

    #[test]
    fn validity_detects_collision() {
        let mut world = CollisionWorld::new(10.0, 10.0);
        world.add_circle(Vec2::new(5.0, 5.0), 1.0);
        let bad = Path::new(vec![Vec2::new(0.0, 5.0), Vec2::new(10.0, 5.0)]);
        assert!(!bad.is_valid(&world));
        let good = Path::new(vec![Vec2::new(0.0, 1.0), Vec2::new(10.0, 1.0)]);
        assert!(good.is_valid(&world));
    }
}
