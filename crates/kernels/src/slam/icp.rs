//! 2D iterative closest point (ICP) scan matching: the geometric
//! alternative to grid correlation for aligning consecutive lidar scans.
//!
//! Each iteration pairs every source point with its nearest target point
//! (kd-tree), solves the optimal rigid transform in closed form (Horn's
//! method, 2D), and applies it. Converges in a handful of iterations for
//! the overlaps produced by consecutive robot poses.

use crate::geometry::{normalize_angle, Pose2, Vec2};
use crate::planning::KdTree;

/// Parameters of the ICP solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IcpConfig {
    /// Maximum alignment iterations.
    pub max_iterations: usize,
    /// Convergence threshold on the per-iteration pose change (meters +
    /// radians combined).
    pub tolerance: f64,
    /// Correspondences farther than this are discarded as outliers
    /// (meters).
    pub max_pair_distance: f64,
}

impl Default for IcpConfig {
    fn default() -> Self {
        Self { max_iterations: 30, tolerance: 1e-6, max_pair_distance: 2.0 }
    }
}

/// The result of one ICP alignment.
#[derive(Debug, Clone, PartialEq)]
pub struct IcpResult {
    /// Transform mapping the source cloud onto the target cloud.
    pub transform: Pose2,
    /// Mean squared correspondence distance at convergence.
    pub mean_squared_error: f64,
    /// Iterations actually used.
    pub iterations: usize,
    /// Inlier correspondences in the final iteration.
    pub inliers: usize,
}

/// Aligns `source` onto `target` starting from `initial`.
///
/// Returns `None` if either cloud has fewer than 3 points or all
/// correspondences are rejected as outliers.
///
/// # Examples
///
/// ```
/// use m7_kernels::{icp_align, IcpConfig, Pose2, Vec2};
///
/// let target: Vec<Vec2> = (0..40).map(|i| Vec2::new(i as f64 * 0.2, (i as f64 * 0.3).sin())).collect();
/// let truth = Pose2::new(Vec2::new(0.3, -0.2), 0.1);
/// let source: Vec<Vec2> = target.iter().map(|&p| truth.inverse_transform_point(p)).collect();
/// let result = icp_align(&source, &target, Pose2::identity(), IcpConfig::default()).unwrap();
/// assert!(result.transform.position.distance(truth.position) < 1e-3);
/// ```
#[must_use]
pub fn icp_align(
    source: &[Vec2],
    target: &[Vec2],
    initial: Pose2,
    config: IcpConfig,
) -> Option<IcpResult> {
    if source.len() < 3 || target.len() < 3 {
        return None;
    }
    let mut tree = KdTree::new();
    for (i, p) in target.iter().enumerate() {
        tree.insert(*p, i);
    }

    let mut transform = initial;
    let mut mse = f64::INFINITY;
    let mut inliers = 0usize;
    let mut iterations = 0usize;
    let max_d2 = config.max_pair_distance * config.max_pair_distance;

    for iter in 0..config.max_iterations {
        iterations = iter + 1;
        // Pair up inlier correspondences under the current transform.
        let mut pairs: Vec<(Vec2, Vec2)> = Vec::with_capacity(source.len());
        for &s in source {
            let moved = transform.transform_point(s);
            let (idx, d2) = tree.nearest(moved).expect("target is nonempty");
            if d2 <= max_d2 {
                pairs.push((s, target[idx]));
            }
        }
        if pairs.len() < 3 {
            return None;
        }
        inliers = pairs.len();

        // Closed-form rigid fit (Horn, 2D): rotation from the cross/dot
        // sums about the centroids, translation from the centroid residual.
        let n = pairs.len() as f64;
        let centroid_s = pairs.iter().fold(Vec2::ZERO, |a, (s, _)| a + *s) / n;
        let centroid_t = pairs.iter().fold(Vec2::ZERO, |a, (_, t)| a + *t) / n;
        let (mut sxx, mut syy) = (0.0, 0.0);
        for (s, t) in &pairs {
            let ds = *s - centroid_s;
            let dt = *t - centroid_t;
            sxx += ds.dot(dt);
            syy += ds.cross(dt);
        }
        let heading = syy.atan2(sxx);
        let rotation = Pose2::new(Vec2::ZERO, heading);
        let translation = centroid_t - rotation.transform_point(centroid_s);
        let next = Pose2::new(translation, heading);

        // Convergence measured as change from the previous transform.
        let delta = next.position.distance(transform.position)
            + normalize_angle(next.heading - transform.heading).abs();
        transform = next;

        mse = pairs
            .iter()
            .map(|(s, t)| transform.transform_point(*s).distance_squared(*t))
            .sum::<f64>()
            / n;
        if delta < config.tolerance {
            break;
        }
    }

    Some(IcpResult { transform, mean_squared_error: mse, iterations, inliers })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// A wavy wall of points — enough structure to pin down rotation.
    fn cloud() -> Vec<Vec2> {
        (0..80)
            .map(|i| {
                let t = i as f64 * 0.15;
                Vec2::new(t, (t * 1.3).sin() + 0.3 * (t * 0.7).cos())
            })
            .collect()
    }

    fn transformed(cloud: &[Vec2], pose: Pose2) -> Vec<Vec2> {
        // If `pose` maps source→target, the source is the inverse-mapped
        // target.
        cloud.iter().map(|&p| pose.inverse_transform_point(p)).collect()
    }

    #[test]
    fn recovers_exact_transform() {
        let target = cloud();
        let truth = Pose2::new(Vec2::new(0.4, -0.3), 0.15);
        let source = transformed(&target, truth);
        let r = icp_align(&source, &target, Pose2::identity(), IcpConfig::default()).unwrap();
        assert!(r.transform.position.distance(truth.position) < 1e-6, "{:?}", r.transform);
        assert!((r.transform.heading - truth.heading).abs() < 1e-6);
        assert!(r.mean_squared_error < 1e-10);
        assert_eq!(r.inliers, 80);
    }

    #[test]
    fn tolerates_noise() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        let target = cloud();
        let truth = Pose2::new(Vec2::new(0.2, 0.25), -0.1);
        let source: Vec<Vec2> = transformed(&target, truth)
            .into_iter()
            .map(|p| p + Vec2::new(rng.gen_range(-0.02..0.02), rng.gen_range(-0.02..0.02)))
            .collect();
        let r = icp_align(&source, &target, Pose2::identity(), IcpConfig::default()).unwrap();
        assert!(r.transform.position.distance(truth.position) < 0.05);
        assert!((r.transform.heading - truth.heading).abs() < 0.02);
    }

    #[test]
    fn identity_for_identical_clouds() {
        let target = cloud();
        let r = icp_align(&target, &target, Pose2::identity(), IcpConfig::default()).unwrap();
        assert!(r.transform.position.norm() < 1e-9);
        assert!(r.transform.heading.abs() < 1e-9);
        assert!(r.iterations <= 3, "identical clouds converge immediately");
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let two = vec![Vec2::ZERO, Vec2::new(1.0, 0.0)];
        assert!(icp_align(&two, &cloud(), Pose2::identity(), IcpConfig::default()).is_none());
        assert!(icp_align(&cloud(), &two, Pose2::identity(), IcpConfig::default()).is_none());
    }

    #[test]
    fn all_outliers_fail_cleanly() {
        // Source displaced far beyond the pairing gate with a tiny gate.
        let target = cloud();
        let source: Vec<Vec2> = target.iter().map(|&p| p + Vec2::new(100.0, 0.0)).collect();
        let config = IcpConfig { max_pair_distance: 0.5, ..IcpConfig::default() };
        assert!(icp_align(&source, &target, Pose2::identity(), config).is_none());
    }

    #[test]
    fn good_initial_guess_speeds_convergence() {
        let target = cloud();
        let truth = Pose2::new(Vec2::new(0.5, -0.4), 0.2);
        let source = transformed(&target, truth);
        let cold = icp_align(&source, &target, Pose2::identity(), IcpConfig::default()).unwrap();
        let warm = icp_align(&source, &target, truth, IcpConfig::default()).unwrap();
        assert!(warm.iterations <= cold.iterations);
        assert!(warm.mean_squared_error < 1e-10);
    }
}
