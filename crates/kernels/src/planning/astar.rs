//! Grid-based A* search over an occupancy grid — the classical baseline
//! planner that sampling-based methods are compared against.

use super::path::Path;
use crate::geometry::Vec2;
use crate::grid::OccupancyGrid;
use std::collections::BinaryHeap;

/// Configuration for [`astar`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AstarConfig {
    /// Occupancy probability above which a cell is an obstacle.
    pub occupied_threshold: f64,
    /// Whether diagonal moves are allowed.
    pub allow_diagonal: bool,
}

impl Default for AstarConfig {
    fn default() -> Self {
        Self { occupied_threshold: 0.65, allow_diagonal: true }
    }
}

#[derive(PartialEq)]
struct OpenEntry {
    f: f64,
    cell: (usize, usize),
}
impl Eq for OpenEntry {}
impl Ord for OpenEntry {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        // Min-heap on f.
        other.f.partial_cmp(&self.f).expect("finite costs")
    }
}
impl PartialOrd for OpenEntry {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Plans a shortest grid path from `start` to `goal` (world coordinates)
/// with A* over `grid`, returning the waypoint path through cell centers.
///
/// Returns `None` if either endpoint is outside the grid / occupied, or no
/// path exists.
///
/// # Examples
///
/// ```
/// use m7_kernels::{astar, AstarConfig, OccupancyGrid, Vec2};
///
/// let grid = OccupancyGrid::new(10.0, 10.0, 0.5);
/// let path = astar(&grid, Vec2::new(0.5, 0.5), Vec2::new(9.0, 9.0), AstarConfig::default());
/// assert!(path.is_some());
/// ```
#[must_use]
pub fn astar(grid: &OccupancyGrid, start: Vec2, goal: Vec2, config: AstarConfig) -> Option<Path> {
    let start_cell = grid.cell_of(start)?;
    let goal_cell = grid.cell_of(goal)?;
    let occupied = |c: (usize, usize)| {
        grid.probability(grid.cell_center(c.0, c.1)) > config.occupied_threshold
    };
    if occupied(start_cell) || occupied(goal_cell) {
        return None;
    }

    let w = grid.width_cells();
    let h = grid.height_cells();
    let index = |c: (usize, usize)| c.1 * w + c.0;
    let heuristic = |c: (usize, usize)| {
        let dx = c.0 as f64 - goal_cell.0 as f64;
        let dy = c.1 as f64 - goal_cell.1 as f64;
        (dx * dx + dy * dy).sqrt()
    };

    let mut g_score = vec![f64::INFINITY; w * h];
    let mut came_from = vec![usize::MAX; w * h];
    let mut open = BinaryHeap::new();
    g_score[index(start_cell)] = 0.0;
    open.push(OpenEntry { f: heuristic(start_cell), cell: start_cell });

    let straight: &[(isize, isize, f64)] = &[(1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0)];
    let diagonal: &[(isize, isize, f64)] = &[
        (1, 1, core::f64::consts::SQRT_2),
        (1, -1, core::f64::consts::SQRT_2),
        (-1, 1, core::f64::consts::SQRT_2),
        (-1, -1, core::f64::consts::SQRT_2),
    ];

    while let Some(OpenEntry { cell, .. }) = open.pop() {
        if cell == goal_cell {
            // Reconstruct: goal cell chain -> world waypoints.
            let mut cells = vec![cell];
            let mut cursor = index(cell);
            while came_from[cursor] != usize::MAX {
                cursor = came_from[cursor];
                cells.push((cursor % w, cursor / w));
            }
            cells.reverse();
            let mut pts: Vec<Vec2> = Vec::with_capacity(cells.len() + 2);
            pts.push(start);
            pts.extend(cells.iter().map(|&(cx, cy)| grid.cell_center(cx, cy)));
            pts.push(goal);
            return Some(Path::new(pts));
        }
        let current_g = g_score[index(cell)];
        let neighbors =
            straight.iter().chain(if config.allow_diagonal { diagonal.iter() } else { [].iter() });
        for &(dx, dy, step) in neighbors {
            let nx = cell.0 as isize + dx;
            let ny = cell.1 as isize + dy;
            if nx < 0 || ny < 0 || nx as usize >= w || ny as usize >= h {
                continue;
            }
            let neighbor = (nx as usize, ny as usize);
            if occupied(neighbor) {
                continue;
            }
            // Forbid cutting corners diagonally between two obstacles.
            if dx != 0 && dy != 0 {
                let side_a = (cell.0, ny as usize);
                let side_b = (nx as usize, cell.1);
                if occupied(side_a) || occupied(side_b) {
                    continue;
                }
            }
            let tentative = current_g + step;
            if tentative < g_score[index(neighbor)] {
                g_score[index(neighbor)] = tentative;
                came_from[index(neighbor)] = index(cell);
                open.push(OpenEntry { f: tentative + heuristic(neighbor), cell: neighbor });
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stamps a solid occupied rectangle into the grid.
    fn block(grid: &mut OccupancyGrid, min: Vec2, max: Vec2) {
        let res = grid.resolution();
        let mut y = min.y + res / 2.0;
        while y < max.y {
            let mut x = min.x + res / 2.0;
            while x < max.x {
                for _ in 0..20 {
                    grid.integrate_ray(Vec2::new(x, y), Vec2::new(x, y), true);
                }
                x += res;
            }
            y += res;
        }
    }

    #[test]
    fn straight_line_in_empty_grid() {
        let grid = OccupancyGrid::new(10.0, 10.0, 0.5);
        let p = astar(&grid, Vec2::new(0.5, 0.5), Vec2::new(9.5, 0.5), AstarConfig::default())
            .expect("empty grid is solvable");
        // Grid path length close to the straight-line distance.
        assert!(p.length() < 10.0, "got {}", p.length());
        assert!(p.length() >= 9.0);
    }

    #[test]
    fn routes_around_wall() {
        let mut grid = OccupancyGrid::new(10.0, 10.0, 0.5);
        block(&mut grid, Vec2::new(4.0, 0.0), Vec2::new(5.0, 8.0));
        let p = astar(&grid, Vec2::new(1.0, 1.0), Vec2::new(9.0, 1.0), AstarConfig::default())
            .expect("gap above the wall");
        assert!(p.waypoints().iter().any(|w| w.y > 7.5), "must detour above");
        // Detour is longer than the straight line.
        assert!(p.length() > 10.0);
    }

    #[test]
    fn no_path_through_full_wall() {
        let mut grid = OccupancyGrid::new(10.0, 10.0, 0.5);
        block(&mut grid, Vec2::new(4.0, 0.0), Vec2::new(5.0, 10.0));
        assert!(astar(&grid, Vec2::new(1.0, 5.0), Vec2::new(9.0, 5.0), AstarConfig::default())
            .is_none());
    }

    #[test]
    fn blocked_endpoints_fail() {
        let mut grid = OccupancyGrid::new(10.0, 10.0, 0.5);
        block(&mut grid, Vec2::new(0.5, 0.5), Vec2::new(2.0, 2.0));
        assert!(astar(&grid, Vec2::new(1.0, 1.0), Vec2::new(9.0, 9.0), AstarConfig::default())
            .is_none());
        // Outside the grid entirely:
        let empty = OccupancyGrid::new(10.0, 10.0, 0.5);
        assert!(astar(&empty, Vec2::new(-1.0, 1.0), Vec2::new(9.0, 9.0), AstarConfig::default())
            .is_none());
    }

    #[test]
    fn four_connected_is_longer_than_eight_connected() {
        let grid = OccupancyGrid::new(10.0, 10.0, 0.5);
        let start = Vec2::new(0.5, 0.5);
        let goal = Vec2::new(9.5, 9.5);
        let diag = astar(&grid, start, goal, AstarConfig::default()).unwrap();
        let manhattan = astar(
            &grid,
            start,
            goal,
            AstarConfig { allow_diagonal: false, ..AstarConfig::default() },
        )
        .unwrap();
        assert!(diag.length() < manhattan.length());
    }

    #[test]
    fn astar_is_optimal_on_open_grid() {
        // On an empty 8-connected grid the path cost equals the Chebyshev-
        // style metric: sqrt2*min(|dx|,|dy|) + (max-min).
        let grid = OccupancyGrid::new(20.0, 20.0, 1.0);
        let start = grid.cell_center(2, 3);
        let goal = grid.cell_center(15, 9);
        let p = astar(&grid, start, goal, AstarConfig::default()).unwrap();
        let (dx, dy) = (13.0f64, 6.0f64);
        let expected = core::f64::consts::SQRT_2 * dy + (dx - dy);
        // The returned path includes the exact endpoints (same as cell
        // centers here), so lengths match the grid-optimal cost.
        assert!((p.length() - expected).abs() < 1e-9, "{} vs {expected}", p.length());
    }
}
