//! The deliberately *obsolete* dense grid-correlation SLAM variant.
//!
//! This scan matcher localizes by brute-force: it scores every pose in a
//! discretized window around the odometry prior by projecting the laser
//! scan into the occupancy grid and summing cell log-odds. Dense
//! correlation scan matching was a reasonable design in the early 2010s;
//! modern sparse filters and graph optimizers have displaced it. Experiment
//! E2 accelerates this kernel "because the benchmark said it was the
//! bottleneck" and shows the resulting end-to-end disappointment.

use crate::geometry::{normalize_angle, Pose2, Vec2};
use crate::grid::OccupancyGrid;

/// Parameters of the correlation search window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DenseSlamConfig {
    /// Half-width of the translational search window (meters).
    pub window_trans: f64,
    /// Half-width of the rotational search window (radians).
    pub window_rot: f64,
    /// Translational search resolution (meters).
    pub step_trans: f64,
    /// Rotational search resolution (radians).
    pub step_rot: f64,
}

impl Default for DenseSlamConfig {
    fn default() -> Self {
        Self { window_trans: 0.5, window_rot: 0.15, step_trans: 0.05, step_rot: 0.015 }
    }
}

/// A laser scan: bearings (relative to heading) and measured ranges.
#[derive(Debug, Clone, PartialEq)]
pub struct Scan {
    /// Beam bearings relative to the robot heading (radians).
    pub bearings: Vec<f64>,
    /// Measured ranges per beam (meters).
    pub ranges: Vec<f64>,
}

/// The dense correlation scan-matching SLAM pipeline.
///
/// # Examples
///
/// ```
/// use m7_kernels::{DenseScanSlam, DenseSlamConfig, Pose2, Vec2};
///
/// let mut slam = DenseScanSlam::new(DenseSlamConfig::default(), 30.0, 30.0, 0.25);
/// // With an empty map the matcher stays at the odometry prior.
/// let pose = slam.pose();
/// assert_eq!(pose, Pose2::identity());
/// ```
#[derive(Debug, Clone)]
pub struct DenseScanSlam {
    config: DenseSlamConfig,
    grid: OccupancyGrid,
    pose: Pose2,
}

impl DenseScanSlam {
    /// Creates a pipeline over a fresh occupancy grid of the given size.
    ///
    /// The robot starts at the center of the grid.
    #[must_use]
    pub fn new(config: DenseSlamConfig, width: f64, height: f64, resolution: f64) -> Self {
        Self {
            config,
            grid: OccupancyGrid::new(width, height, resolution),
            pose: Pose2::identity(),
        }
    }

    /// The matcher configuration.
    #[must_use]
    pub fn config(&self) -> &DenseSlamConfig {
        &self.config
    }

    /// Current pose estimate.
    #[must_use]
    pub fn pose(&self) -> Pose2 {
        self.pose
    }

    /// The map built so far.
    #[must_use]
    pub fn grid(&self) -> &OccupancyGrid {
        &self.grid
    }

    /// Number of pose hypotheses scored per scan with the current config.
    #[must_use]
    pub fn hypotheses_per_scan(&self) -> usize {
        let nt = (2.0 * self.config.window_trans / self.config.step_trans).floor() as usize + 1;
        let nr = (2.0 * self.config.window_rot / self.config.step_rot).floor() as usize + 1;
        nt * nt * nr
    }

    /// Processes one step: applies odometry `(dx, dy, dtheta)` in the body
    /// frame, runs the correlation search around the prior, then integrates
    /// the scan into the map from the matched pose.
    pub fn step(&mut self, odometry: Pose2, scan: &Scan) {
        let prior = self.pose.compose(odometry);
        let matched = self.correlate(prior, scan);
        self.pose = matched;
        self.integrate(scan);
    }

    /// Brute-force correlation search: the kernel E2's "widget" accelerates.
    fn correlate(&self, prior: Pose2, scan: &Scan) -> Pose2 {
        self.match_scan(prior, scan).0
    }

    /// The correlation search, restructured for the hardware: beam
    /// endpoint *offsets* depend only on the rotation hypothesis, so the
    /// `cos`/`sin` per (hypothesis × beam) of the reference implementation
    /// is hoisted into a per-rotation SoA table computed once per scan.
    /// The remaining inner loop is add + grid gather.
    ///
    /// Returns the matched pose and the number of hypothesis × beam
    /// evaluations performed. Bit-identical to
    /// [`DenseScanSlam::match_scan_reference`]: the hoisted offsets are
    /// the same f64 expressions (`heading` is independent of `tx`/`ty`),
    /// scores accumulate in the same beam order, and hypotheses are
    /// visited in the same `ty → tx → tr` order so first-wins
    /// tie-breaking is preserved.
    #[must_use]
    pub fn match_scan(&self, prior: Pose2, scan: &Scan) -> (Pose2, u64) {
        let c = &self.config;
        let beams = scan.bearings.len();
        // Rotation hypotheses, enumerated exactly as the reference loop
        // accumulates them.
        let mut rots = Vec::new();
        let mut tr = -c.window_rot;
        while tr <= c.window_rot + 1e-12 {
            rots.push(tr);
            tr += c.step_rot;
        }
        // Per-rotation endpoint offsets, SoA: off_x/off_y[k * beams + i].
        let mut off_x = vec![0.0f64; rots.len() * beams];
        let mut off_y = vec![0.0f64; rots.len() * beams];
        for (k, &tr) in rots.iter().enumerate() {
            let heading = normalize_angle(prior.heading + tr);
            let (ox, oy) = (&mut off_x[k * beams..], &mut off_y[k * beams..]);
            for (i, (bearing, range)) in scan.bearings.iter().zip(&scan.ranges).enumerate() {
                let angle = heading + bearing;
                ox[i] = range * angle.cos();
                oy[i] = range * angle.sin();
            }
        }
        let mut evals = 0u64;
        let mut best_pose = prior;
        let mut best_score = f64::NEG_INFINITY;
        let mut ty = -c.window_trans;
        while ty <= c.window_trans + 1e-12 {
            let mut tx = -c.window_trans;
            while tx <= c.window_trans + 1e-12 {
                for (k, &tr) in rots.iter().enumerate() {
                    let hypothesis = Pose2::new(
                        prior.position + Vec2::new(tx, ty),
                        normalize_angle(prior.heading + tr),
                    );
                    let (hx, hy) = (hypothesis.position.x, hypothesis.position.y);
                    let ox = &off_x[k * beams..k * beams + beams];
                    let oy = &off_y[k * beams..k * beams + beams];
                    let mut score = 0.0;
                    for i in 0..beams {
                        let endpoint = Vec2::new(hx + ox[i], hy + oy[i]);
                        if let Some((cx, cy)) = self.grid.cell_of(endpoint) {
                            score += self.grid.log_odds_at(cx, cy);
                        } else {
                            score -= 1.0;
                        }
                    }
                    evals += beams as u64;
                    if score > best_score {
                        best_score = score;
                        best_pose = hypothesis;
                    }
                }
                tx += c.step_trans;
            }
            ty += c.step_trans;
        }
        (best_pose, evals)
    }

    /// Scalar-reference correlation search: recomputes `cos`/`sin` for
    /// every hypothesis × beam pair, exactly as the original kernel did.
    /// Kept public as the property-tested reference for
    /// [`DenseScanSlam::match_scan`].
    #[must_use]
    pub fn match_scan_reference(&self, prior: Pose2, scan: &Scan) -> (Pose2, u64) {
        let c = &self.config;
        let mut evals = 0u64;
        let mut best_pose = prior;
        let mut best_score = f64::NEG_INFINITY;
        let mut ty = -c.window_trans;
        while ty <= c.window_trans + 1e-12 {
            let mut tx = -c.window_trans;
            while tx <= c.window_trans + 1e-12 {
                let mut tr = -c.window_rot;
                while tr <= c.window_rot + 1e-12 {
                    let hypothesis = Pose2::new(
                        prior.position + Vec2::new(tx, ty),
                        normalize_angle(prior.heading + tr),
                    );
                    let mut score = 0.0;
                    for (bearing, range) in scan.bearings.iter().zip(&scan.ranges) {
                        let angle = hypothesis.heading + bearing;
                        let endpoint = hypothesis.position
                            + Vec2::new(range * angle.cos(), range * angle.sin());
                        if let Some((cx, cy)) = self.grid.cell_of(endpoint) {
                            score += self.grid.log_odds_at(cx, cy);
                        } else {
                            score -= 1.0;
                        }
                        evals += 1;
                    }
                    if score > best_score {
                        best_score = score;
                        best_pose = hypothesis;
                    }
                    tr += c.step_rot;
                }
                tx += c.step_trans;
            }
            ty += c.step_trans;
        }
        (best_pose, evals)
    }

    fn integrate(&mut self, scan: &Scan) {
        for (bearing, range) in scan.bearings.iter().zip(&scan.ranges) {
            let angle = self.pose.heading + bearing;
            let endpoint = self.pose.position + Vec2::new(range * angle.cos(), range * angle.sin());
            self.grid.integrate_ray(self.pose.position, endpoint, true);
        }
    }
}

/// Synthesizes a scan of `beams` beams of a rectangular room of the given
/// half-extents, as seen from `pose` (room centered at `center`).
///
/// A tiny utility used by tests and the E2 workload generator.
#[must_use]
pub fn synthetic_room_scan(
    pose: Pose2,
    center: Vec2,
    half_w: f64,
    half_h: f64,
    beams: usize,
) -> Scan {
    let mut bearings = Vec::with_capacity(beams);
    let mut ranges = Vec::with_capacity(beams);
    for i in 0..beams {
        let bearing =
            -core::f64::consts::PI + 2.0 * core::f64::consts::PI * i as f64 / beams as f64;
        let angle = pose.heading + bearing;
        let dir = Vec2::new(angle.cos(), angle.sin());
        // Ray-cast against the four walls.
        let rel = pose.position - center;
        let mut t_hit = f64::INFINITY;
        if dir.x.abs() > 1e-12 {
            for wall_x in [-half_w, half_w] {
                let t = (wall_x - rel.x) / dir.x;
                if t > 0.0 {
                    let y = rel.y + t * dir.y;
                    if y.abs() <= half_h {
                        t_hit = t_hit.min(t);
                    }
                }
            }
        }
        if dir.y.abs() > 1e-12 {
            for wall_y in [-half_h, half_h] {
                let t = (wall_y - rel.y) / dir.y;
                if t > 0.0 {
                    let x = rel.x + t * dir.x;
                    if x.abs() <= half_w {
                        t_hit = t_hit.min(t);
                    }
                }
            }
        }
        if t_hit.is_finite() {
            bearings.push(bearing);
            ranges.push(t_hit);
        }
    }
    Scan { bearings, ranges }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hypotheses_count_matches_window() {
        let slam = DenseScanSlam::new(DenseSlamConfig::default(), 20.0, 20.0, 0.25);
        // 21 × 21 translations × 21 rotations with the default config.
        assert_eq!(slam.hypotheses_per_scan(), 21 * 21 * 21);
    }

    #[test]
    fn tracks_motion_in_a_room() {
        let room_center = Vec2::new(15.0, 15.0);
        let mut slam = DenseScanSlam::new(DenseSlamConfig::default(), 30.0, 30.0, 0.25);
        // Teleport the matcher's start to the room center by integrating the
        // first scan from there.
        let mut truth = Pose2::new(room_center, 0.0);
        slam.pose = truth;
        let scan0 = synthetic_room_scan(truth, room_center, 10.0, 8.0, 90);
        slam.integrate(&scan0);

        // Walk forward in small steps.
        let step = Pose2::new(Vec2::new(0.2, 0.0), 0.02);
        for _ in 0..10 {
            truth = truth.compose(step);
            let scan = synthetic_room_scan(truth, room_center, 10.0, 8.0, 90);
            slam.step(step, &scan);
        }
        let err = slam.pose().position.distance(truth.position);
        assert!(err < 0.5, "dense matcher drifted {err} m");
    }

    /// Hoisted-trig matcher is bit-identical to the per-beam-trig
    /// reference: same pose, same eval count, over a populated map and a
    /// sweep of priors (including tie-prone off-grid priors).
    #[test]
    fn hoisted_matcher_is_bit_identical_to_reference() {
        let room_center = Vec2::new(15.0, 15.0);
        let mut slam = DenseScanSlam::new(DenseSlamConfig::default(), 30.0, 30.0, 0.25);
        slam.pose = Pose2::new(room_center, 0.0);
        let scan0 = synthetic_room_scan(slam.pose, room_center, 10.0, 8.0, 90);
        slam.integrate(&scan0);
        slam.integrate(&scan0);
        for (i, beams) in [(0u32, 33usize), (1, 90), (2, 61), (3, 1)] {
            let truth = Pose2::new(
                room_center + Vec2::new(0.13 * f64::from(i), -0.07 * f64::from(i)),
                0.03 * f64::from(i),
            );
            let scan = synthetic_room_scan(truth, room_center, 10.0, 8.0, beams);
            let (fast_pose, fast_evals) = slam.match_scan(truth, &scan);
            let (ref_pose, ref_evals) = slam.match_scan_reference(truth, &scan);
            assert_eq!(fast_pose, ref_pose, "pose divergence at prior {i}");
            assert_eq!(fast_evals, ref_evals, "eval-count divergence at prior {i}");
        }
    }

    #[test]
    fn correlation_work_scales_with_window() {
        let small = DenseScanSlam::new(
            DenseSlamConfig { window_trans: 0.2, ..DenseSlamConfig::default() },
            20.0,
            20.0,
            0.25,
        );
        let large = DenseScanSlam::new(
            DenseSlamConfig { window_trans: 0.8, ..DenseSlamConfig::default() },
            20.0,
            20.0,
            0.25,
        );
        assert!(large.hypotheses_per_scan() > small.hypotheses_per_scan() * 4);
    }

    #[test]
    fn synthetic_scan_ranges_are_positive_and_bounded() {
        let scan =
            synthetic_room_scan(Pose2::new(Vec2::new(0.0, 0.0), 0.3), Vec2::ZERO, 5.0, 4.0, 180);
        assert!(!scan.ranges.is_empty());
        for r in &scan.ranges {
            assert!(*r > 0.0 && *r <= (5.0f64.powi(2) + 4.0f64.powi(2)).sqrt() + 1e-9);
        }
    }
}
