//! Landmark EKF-SLAM with range-bearing observations and known data
//! association.

use crate::geometry::{normalize_angle, Pose2, Vec2};
use crate::linalg::Matrix;
use std::collections::HashMap;

/// Noise and model parameters for [`EkfSlam`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EkfSlamConfig {
    /// Standard deviation of translational motion noise per step (meters).
    pub motion_noise_trans: f64,
    /// Standard deviation of rotational motion noise per step (radians).
    pub motion_noise_rot: f64,
    /// Standard deviation of range measurements (meters).
    pub range_noise: f64,
    /// Standard deviation of bearing measurements (radians).
    pub bearing_noise: f64,
}

impl Default for EkfSlamConfig {
    fn default() -> Self {
        Self {
            motion_noise_trans: 0.05,
            motion_noise_rot: 0.01,
            range_noise: 0.1,
            bearing_noise: 0.02,
        }
    }
}

/// One range-bearing observation of an identified landmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LandmarkObservation {
    /// Stable landmark identifier (known data association).
    pub id: u32,
    /// Measured distance to the landmark (meters).
    pub range: f64,
    /// Measured bearing relative to the robot heading (radians).
    pub bearing: f64,
}

/// The sparse landmark EKF-SLAM filter.
///
/// State is `[x, y, θ, l₁x, l₁y, l₂x, l₂y, …]` with a dense covariance that
/// grows as landmarks are first observed.
///
/// # Examples
///
/// ```
/// use m7_kernels::{EkfSlam, EkfSlamConfig, LandmarkObservation};
///
/// let mut slam = EkfSlam::new(EkfSlamConfig::default());
/// slam.predict(1.0, 0.0, 0.1); // drive forward 0.1 s at 1 m/s
/// slam.update(&[LandmarkObservation { id: 7, range: 5.0, bearing: 0.3 }]);
/// assert!((slam.pose().position.x - 0.1).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct EkfSlam {
    config: EkfSlamConfig,
    /// State mean: pose then landmark positions.
    state: Vec<f64>,
    covariance: Matrix,
    /// Landmark id → index into the landmark list.
    landmark_index: HashMap<u32, usize>,
    /// Cumulative floating-point work estimate (for cost models).
    flops: f64,
}

impl EkfSlam {
    /// Creates a filter at the origin with zero pose uncertainty.
    #[must_use]
    pub fn new(config: EkfSlamConfig) -> Self {
        Self {
            config,
            state: vec![0.0; 3],
            covariance: Matrix::zeros(3, 3),
            landmark_index: HashMap::new(),
            flops: 0.0,
        }
    }

    /// The filter configuration.
    #[must_use]
    pub fn config(&self) -> &EkfSlamConfig {
        &self.config
    }

    /// Current pose estimate.
    #[must_use]
    pub fn pose(&self) -> Pose2 {
        Pose2::new(Vec2::new(self.state[0], self.state[1]), self.state[2])
    }

    /// Cumulative floating-point-operation estimate consumed so far.
    #[must_use]
    pub fn flops(&self) -> f64 {
        self.flops
    }

    /// EKF prediction for a unicycle moving at speed `v` (m/s) and turn rate
    /// `omega` (rad/s) for `dt` seconds.
    pub fn predict(&mut self, v: f64, omega: f64, dt: f64) {
        let theta = self.state[2];
        self.state[0] += v * dt * theta.cos();
        self.state[1] += v * dt * theta.sin();
        self.state[2] = normalize_angle(theta + omega * dt);

        let n = self.state.len();
        // Jacobian of the motion model w.r.t. the pose (identity elsewhere).
        let mut g = Matrix::identity(n);
        g[(0, 2)] = -v * dt * theta.sin();
        g[(1, 2)] = v * dt * theta.cos();
        let mut q = Matrix::zeros(n, n);
        let qt = self.config.motion_noise_trans * self.config.motion_noise_trans * dt;
        let qr = self.config.motion_noise_rot * self.config.motion_noise_rot * dt;
        q[(0, 0)] = qt;
        q[(1, 1)] = qt;
        q[(2, 2)] = qr;

        let gp = g.mul(&self.covariance).expect("shapes match");
        self.covariance =
            gp.mul(&g.transpose()).expect("shapes match").add(&q).expect("shapes match");
        self.flops += 4.0 * (n * n * n) as f64 + (n * n) as f64;
    }

    /// EKF correction with a batch of landmark observations.
    ///
    /// First-time landmarks are initialized from the measurement and appended
    /// to the state; known landmarks produce a standard EKF update.
    pub fn update(&mut self, observations: &[LandmarkObservation]) {
        for obs in observations {
            if self.landmark_index.contains_key(&obs.id) {
                self.correct(obs);
            } else {
                self.initialize_landmark(obs);
            }
        }
    }

    fn initialize_landmark(&mut self, obs: &LandmarkObservation) {
        let pose = self.pose();
        let global_bearing = pose.heading + obs.bearing;
        let lx = pose.position.x + obs.range * global_bearing.cos();
        let ly = pose.position.y + obs.range * global_bearing.sin();
        let k = self.landmark_index.len();
        self.landmark_index.insert(obs.id, k);
        self.state.push(lx);
        self.state.push(ly);

        // Grow covariance, seeding the new block with generous uncertainty.
        let old = self.covariance.clone();
        let n = self.state.len();
        let mut grown = Matrix::zeros(n, n);
        for i in 0..old.rows() {
            for j in 0..old.cols() {
                grown[(i, j)] = old[(i, j)];
            }
        }
        let seed = (self.config.range_noise * 10.0).powi(2) + 1.0;
        grown[(n - 2, n - 2)] = seed;
        grown[(n - 1, n - 1)] = seed;
        self.covariance = grown;
        self.flops += (n * n) as f64;
    }

    fn correct(&mut self, obs: &LandmarkObservation) {
        let k = self.landmark_index[&obs.id];
        let base = 3 + 2 * k;
        let n = self.state.len();
        let (rx, ry, theta) = (self.state[0], self.state[1], self.state[2]);
        let (lx, ly) = (self.state[base], self.state[base + 1]);

        let dx = lx - rx;
        let dy = ly - ry;
        let q = dx * dx + dy * dy;
        if q < 1e-12 {
            return; // Landmark coincides with the robot; no information.
        }
        let sqrt_q = q.sqrt();

        // Predicted measurement.
        let z_hat_range = sqrt_q;
        let z_hat_bearing = normalize_angle(dy.atan2(dx) - theta);

        // Measurement Jacobian H (2 × n), nonzero only in pose and landmark
        // columns.
        let mut h = Matrix::zeros(2, n);
        h[(0, 0)] = -dx / sqrt_q;
        h[(0, 1)] = -dy / sqrt_q;
        h[(0, base)] = dx / sqrt_q;
        h[(0, base + 1)] = dy / sqrt_q;
        h[(1, 0)] = dy / q;
        h[(1, 1)] = -dx / q;
        h[(1, 2)] = -1.0;
        h[(1, base)] = -dy / q;
        h[(1, base + 1)] = dx / q;

        let r = Matrix::from_diagonal(&[
            self.config.range_noise * self.config.range_noise,
            self.config.bearing_noise * self.config.bearing_noise,
        ]);

        // S = H P Hᵀ + R ;  K = P Hᵀ S⁻¹
        let ph_t = self.covariance.mul(&h.transpose()).expect("shapes match");
        let s = h.mul(&ph_t).expect("shapes match").add(&r).expect("shapes match");
        let s_inv = match s.inverse() {
            Ok(inv) => inv,
            Err(_) => return, // Numerically degenerate innovation; skip.
        };
        let gain = ph_t.mul(&s_inv).expect("shapes match");

        let innovation = [obs.range - z_hat_range, normalize_angle(obs.bearing - z_hat_bearing)];
        for i in 0..n {
            self.state[i] += gain[(i, 0)] * innovation[0] + gain[(i, 1)] * innovation[1];
        }
        self.state[2] = normalize_angle(self.state[2]);

        // P ← (I − K H) P
        let kh = gain.mul(&h).expect("shapes match");
        let i_kh = Matrix::identity(n).sub(&kh).expect("shapes match");
        self.covariance = i_kh.mul(&self.covariance).expect("shapes match");
        self.flops += 6.0 * (n * n) as f64 + 2.0 * (n * n) as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    impl EkfSlam {
        /// Number of landmarks in the map.
        fn landmark_count(&self) -> usize {
            self.landmark_index.len()
        }

        /// Estimated position of landmark `id`, if mapped.
        fn landmark(&self, id: u32) -> Option<Vec2> {
            self.landmark_index.get(&id).map(|&k| {
                let base = 3 + 2 * k;
                Vec2::new(self.state[base], self.state[base + 1])
            })
        }

        /// Trace of the pose covariance block — a scalar uncertainty summary.
        fn pose_uncertainty(&self) -> f64 {
            self.covariance[(0, 0)] + self.covariance[(1, 1)] + self.covariance[(2, 2)]
        }
    }

    /// Simulates a robot circling among landmarks and returns the filter and
    /// the true trajectory endpoint.
    fn run_scenario(steps: usize, seed: u64) -> (EkfSlam, Pose2, Vec<Vec2>) {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let landmarks: Vec<Vec2> = (0..8)
            .map(|_| Vec2::new(rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0)))
            .collect();
        let cfg = EkfSlamConfig::default();
        let mut slam = EkfSlam::new(cfg);
        let mut truth = Pose2::identity();
        let dt = 0.1;
        let (v, omega) = (1.0, 0.2);
        for _ in 0..steps {
            // True motion with small noise.
            let nv = v + rng.gen_range(-0.02..0.02);
            let nw = omega + rng.gen_range(-0.005..0.005);
            truth = Pose2::new(
                truth.position
                    + Vec2::new(nv * dt * truth.heading.cos(), nv * dt * truth.heading.sin()),
                truth.heading + nw * dt,
            );
            slam.predict(v, omega, dt);
            // Observe landmarks within sensor range.
            let mut obs = Vec::new();
            for (id, lm) in landmarks.iter().enumerate() {
                let rel = *lm - truth.position;
                let range = rel.norm();
                if range < 8.0 {
                    let bearing = normalize_angle(rel.angle() - truth.heading);
                    obs.push(LandmarkObservation {
                        id: id as u32,
                        range: range + rng.gen_range(-0.05..0.05),
                        bearing: bearing + rng.gen_range(-0.01..0.01),
                    });
                }
            }
            slam.update(&obs);
        }
        (slam, truth, landmarks)
    }

    #[test]
    fn tracks_pose_within_tolerance() {
        let (slam, truth, _) = run_scenario(300, 2);
        let err = slam.pose().position.distance(truth.position);
        assert!(err < 1.0, "pose error {err} too large");
    }

    #[test]
    fn maps_observed_landmarks() {
        let (slam, _, landmarks) = run_scenario(300, 3);
        assert!(slam.landmark_count() >= 4, "should map several landmarks");
        let mut checked = 0;
        for (id, lm) in landmarks.iter().enumerate() {
            if let Some(est) = slam.landmark(id as u32) {
                assert!(est.distance(*lm) < 1.5, "landmark {id} error {}", est.distance(*lm));
                checked += 1;
            }
        }
        assert!(checked >= 4);
    }

    #[test]
    fn observations_reduce_uncertainty() {
        let cfg = EkfSlamConfig::default();
        let mut slam = EkfSlam::new(cfg);
        for _ in 0..50 {
            slam.predict(1.0, 0.0, 0.1);
        }
        let before = slam.pose_uncertainty();
        // A landmark straight ahead, observed repeatedly.
        slam.update(&[LandmarkObservation { id: 0, range: 3.0, bearing: 0.0 }]);
        for _ in 0..10 {
            slam.update(&[LandmarkObservation { id: 0, range: 3.0, bearing: 0.0 }]);
        }
        assert!(slam.pose_uncertainty() < before);
    }

    #[test]
    fn unknown_landmark_is_initialized_from_measurement() {
        let mut slam = EkfSlam::new(EkfSlamConfig::default());
        slam.update(&[LandmarkObservation { id: 42, range: 2.0, bearing: 0.0 }]);
        let lm = slam.landmark(42).unwrap();
        assert!(lm.distance(Vec2::new(2.0, 0.0)) < 1e-9);
    }

    #[test]
    fn flops_accumulate_and_grow_with_map_size() {
        let mut small = EkfSlam::new(EkfSlamConfig::default());
        small.update(&[LandmarkObservation { id: 0, range: 2.0, bearing: 0.0 }]);
        small.predict(1.0, 0.0, 0.1);
        let small_flops = small.flops();

        let mut big = EkfSlam::new(EkfSlamConfig::default());
        for id in 0..20 {
            big.update(&[LandmarkObservation { id, range: 2.0, bearing: 0.1 * f64::from(id) }]);
        }
        let before = big.flops();
        big.predict(1.0, 0.0, 0.1);
        assert!(big.flops() - before > small_flops, "bigger state costs more per predict");
    }
}
