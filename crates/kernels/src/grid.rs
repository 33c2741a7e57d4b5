//! 2D occupancy-grid mapping with log-odds updates and ray casting.
//!
//! The grid is the mapping substrate for the SLAM kernels and the obstacle
//! representation used by the end-to-end simulator. Updates follow the
//! standard log-odds Bayes filter: each lidar ray decrements the cells it
//! passes through (free) and increments the cell it terminates in
//! (occupied).

use crate::geometry::Vec2;

/// Log-odds increment applied to the endpoint cell of a hit ray.
const LOG_ODDS_OCCUPIED: f64 = 0.85;
/// Log-odds decrement applied to traversed cells.
const LOG_ODDS_FREE: f64 = -0.4;
/// Saturation bound for cell log-odds.
const LOG_ODDS_CLAMP: f64 = 10.0;

/// A 2D occupancy grid over a rectangular region anchored at the origin.
///
/// Cell values are log-odds of occupancy; [`OccupancyGrid::probability`]
/// converts to `[0, 1]`.
///
/// # Examples
///
/// ```
/// use m7_kernels::{OccupancyGrid, Vec2};
///
/// let mut grid = OccupancyGrid::new(10.0, 10.0, 0.5);
/// grid.integrate_ray(Vec2::new(1.0, 1.0), Vec2::new(4.0, 1.0), true);
/// // The hit cell is now more likely occupied than an untouched cell.
/// assert!(grid.probability(Vec2::new(4.0, 1.0)) > 0.5);
/// assert!(grid.probability(Vec2::new(2.0, 1.0)) < 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OccupancyGrid {
    width_cells: usize,
    height_cells: usize,
    resolution: f64,
    log_odds: Vec<f64>,
}

impl OccupancyGrid {
    /// Creates an all-unknown grid covering `width` × `height` meters with
    /// square cells of side `resolution` meters.
    ///
    /// # Panics
    ///
    /// Panics if any argument is non-positive or non-finite.
    #[must_use]
    pub fn new(width: f64, height: f64, resolution: f64) -> Self {
        assert!(width > 0.0 && width.is_finite(), "width must be positive");
        assert!(height > 0.0 && height.is_finite(), "height must be positive");
        assert!(resolution > 0.0 && resolution.is_finite(), "resolution must be positive");
        let width_cells = (width / resolution).ceil() as usize;
        let height_cells = (height / resolution).ceil() as usize;
        Self {
            width_cells,
            height_cells,
            resolution,
            log_odds: vec![0.0; width_cells * height_cells],
        }
    }

    /// Grid width in cells.
    #[inline]
    #[must_use]
    pub(crate) fn width_cells(&self) -> usize {
        self.width_cells
    }

    /// Grid height in cells.
    #[inline]
    #[must_use]
    pub(crate) fn height_cells(&self) -> usize {
        self.height_cells
    }

    /// Cell side length in meters.
    #[inline]
    #[must_use]
    pub fn resolution(&self) -> f64 {
        self.resolution
    }

    /// Converts a world point to cell indices, or `None` if out of bounds.
    #[inline]
    #[must_use]
    pub(crate) fn cell_of(&self, p: Vec2) -> Option<(usize, usize)> {
        if p.x < 0.0 || p.y < 0.0 {
            return None;
        }
        let cx = (p.x / self.resolution) as usize;
        let cy = (p.y / self.resolution) as usize;
        if cx < self.width_cells && cy < self.height_cells {
            Some((cx, cy))
        } else {
            None
        }
    }

    /// The center of cell `(cx, cy)` in world coordinates.
    #[inline]
    #[must_use]
    pub(crate) fn cell_center(&self, cx: usize, cy: usize) -> Vec2 {
        Vec2::new((cx as f64 + 0.5) * self.resolution, (cy as f64 + 0.5) * self.resolution)
    }

    /// The occupancy probability of the cell containing `p`, or `0.5`
    /// (unknown) outside the grid.
    #[must_use]
    pub fn probability(&self, p: Vec2) -> f64 {
        match self.cell_of(p) {
            Some((cx, cy)) => {
                let lo = self.log_odds[cy * self.width_cells + cx];
                1.0 - 1.0 / (1.0 + lo.exp())
            }
            None => 0.5,
        }
    }

    /// Raw log-odds of cell `(cx, cy)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    #[must_use]
    pub(crate) fn log_odds_at(&self, cx: usize, cy: usize) -> f64 {
        assert!(cx < self.width_cells && cy < self.height_cells, "cell out of bounds");
        self.log_odds[cy * self.width_cells + cx]
    }

    /// Integrates one range-sensor ray from `origin` toward `endpoint`.
    ///
    /// Cells traversed by the ray are updated as free; if `hit` is true the
    /// endpoint cell is updated as occupied (a max-range miss passes
    /// `hit = false`). Returns the number of cells updated.
    pub fn integrate_ray(&mut self, origin: Vec2, endpoint: Vec2, hit: bool) -> usize {
        let cells = self.traverse(origin, endpoint);
        let n = cells.len();
        for (i, (cx, cy)) in cells.into_iter().enumerate() {
            let last = i + 1 == n;
            let delta = if last && hit { LOG_ODDS_OCCUPIED } else { LOG_ODDS_FREE };
            let v = &mut self.log_odds[cy * self.width_cells + cx];
            *v = (*v + delta).clamp(-LOG_ODDS_CLAMP, LOG_ODDS_CLAMP);
        }
        n
    }

    /// The cells crossed by the segment `origin → endpoint` (integer
    /// supercover via DDA), clipped to the grid.
    #[must_use]
    pub(crate) fn traverse(&self, origin: Vec2, endpoint: Vec2) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let delta = endpoint - origin;
        let len = delta.norm();
        if len == 0.0 {
            if let Some(c) = self.cell_of(origin) {
                out.push(c);
            }
            return out;
        }
        // Step at half-resolution so no cell on the segment is skipped.
        let steps = (len / (self.resolution * 0.5)).ceil() as usize;
        let mut last = None;
        for i in 0..=steps {
            let t = i as f64 / steps as f64;
            let p = origin.lerp(endpoint, t);
            if let Some(c) = self.cell_of(p) {
                if last != Some(c) {
                    out.push(c);
                    last = Some(c);
                }
            }
        }
        out
    }

    /// Casts a ray against occupied cells (probability > `threshold`),
    /// returning the world point of the first hit, if any, within `max_range`.
    #[must_use]
    pub(crate) fn raycast(
        &self,
        origin: Vec2,
        direction: Vec2,
        max_range: f64,
        threshold: f64,
    ) -> Option<Vec2> {
        let dir = direction.normalized();
        if dir == Vec2::ZERO {
            return None;
        }
        let endpoint = origin + dir * max_range;
        for (cx, cy) in self.traverse(origin, endpoint) {
            let center = self.cell_center(cx, cy);
            if self.probability(center) > threshold {
                return Some(center);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_grid_is_unknown() {
        let g = OccupancyGrid::new(5.0, 5.0, 0.5);
        assert_eq!(g.width_cells(), 10);
        assert_eq!(g.height_cells(), 10);
        assert_eq!(g.probability(Vec2::new(2.0, 2.0)), 0.5);
    }

    #[test]
    fn out_of_bounds_is_unknown() {
        let g = OccupancyGrid::new(5.0, 5.0, 0.5);
        assert_eq!(g.probability(Vec2::new(-1.0, 2.0)), 0.5);
        assert_eq!(g.probability(Vec2::new(2.0, 9.0)), 0.5);
        assert_eq!(g.cell_of(Vec2::new(100.0, 0.0)), None);
    }

    #[test]
    fn ray_marks_free_and_occupied() {
        let mut g = OccupancyGrid::new(10.0, 10.0, 0.25);
        for _ in 0..8 {
            g.integrate_ray(Vec2::new(1.0, 5.0), Vec2::new(8.0, 5.0), true);
        }
        assert!(g.probability(Vec2::new(8.0, 5.0)) > 0.9);
        assert!(g.probability(Vec2::new(4.0, 5.0)) < 0.1);
    }

    #[test]
    fn max_range_miss_marks_only_free() {
        let mut g = OccupancyGrid::new(10.0, 10.0, 0.25);
        g.integrate_ray(Vec2::new(1.0, 5.0), Vec2::new(8.0, 5.0), false);
        assert!(g.probability(Vec2::new(8.0, 5.0)) < 0.5);
    }

    #[test]
    fn raycast_finds_occupied_cell() {
        let mut g = OccupancyGrid::new(10.0, 10.0, 0.25);
        for _ in 0..10 {
            g.integrate_ray(Vec2::new(1.0, 5.0), Vec2::new(7.0, 5.0), true);
        }
        let hit = g.raycast(Vec2::new(1.0, 5.0), Vec2::new(1.0, 0.0), 9.0, 0.7);
        let hit = hit.expect("should hit the occupied cell");
        assert!((hit.x - 7.0).abs() < 0.5);
        let miss = g.raycast(Vec2::new(1.0, 2.0), Vec2::new(1.0, 0.0), 9.0, 0.7);
        assert!(miss.is_none());
    }

    #[test]
    fn traverse_includes_both_ends() {
        let g = OccupancyGrid::new(10.0, 10.0, 1.0);
        let cells = g.traverse(Vec2::new(0.5, 0.5), Vec2::new(3.5, 0.5));
        assert_eq!(cells.first(), Some(&(0, 0)));
        assert_eq!(cells.last(), Some(&(3, 0)));
        assert_eq!(cells.len(), 4);
    }

    #[test]
    fn zero_length_ray() {
        let mut g = OccupancyGrid::new(4.0, 4.0, 1.0);
        let n = g.integrate_ray(Vec2::new(1.5, 1.5), Vec2::new(1.5, 1.5), true);
        assert_eq!(n, 1);
        assert!(g.probability(Vec2::new(1.5, 1.5)) > 0.5);
    }

    #[test]
    fn log_odds_saturate() {
        let mut g = OccupancyGrid::new(2.0, 2.0, 1.0);
        for _ in 0..1000 {
            g.integrate_ray(Vec2::new(0.5, 0.5), Vec2::new(0.5, 0.5), true);
        }
        assert!(g.log_odds_at(0, 0) <= 10.0 + 1e-12);
    }

    proptest! {
        #[test]
        fn prop_probability_in_unit_interval(
            x in 0.0..10.0f64, y in 0.0..10.0f64,
            ex in 0.0..10.0f64, ey in 0.0..10.0f64,
            hit in proptest::bool::ANY,
        ) {
            let mut g = OccupancyGrid::new(10.0, 10.0, 0.5);
            g.integrate_ray(Vec2::new(x, y), Vec2::new(ex, ey), hit);
            for cx in 0..g.width_cells() {
                for cy in 0..g.height_cells() {
                    let p = g.probability(g.cell_center(cx, cy));
                    prop_assert!((0.0..=1.0).contains(&p));
                }
            }
        }

        #[test]
        fn prop_traverse_cells_are_in_bounds(
            x in -5.0..15.0f64, y in -5.0..15.0f64,
            ex in -5.0..15.0f64, ey in -5.0..15.0f64,
        ) {
            let g = OccupancyGrid::new(10.0, 10.0, 0.5);
            for (cx, cy) in g.traverse(Vec2::new(x, y), Vec2::new(ex, ey)) {
                prop_assert!(cx < g.width_cells());
                prop_assert!(cy < g.height_cells());
            }
        }
    }
}
