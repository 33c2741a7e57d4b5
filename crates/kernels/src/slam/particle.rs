//! Monte Carlo localization: a particle filter against a known occupancy
//! grid.
//!
//! The third localization formulation in the crate (next to the sparse
//! EKF and the dense correlation matcher). Its per-particle weight update
//! is embarrassingly parallel — the canonical accelerator-friendly
//! autonomy kernel — which is why it appears in the widgetism task suite
//! discussions.

use crate::geometry::{Pose2, Vec2};
use crate::grid::OccupancyGrid;
use crate::slam::Scan;
use rand::{Rng, SeedableRng};

/// Parameters of the particle filter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParticleFilterConfig {
    /// Number of particles.
    pub particles: usize,
    /// Translational motion noise per meter moved (std, meters).
    pub motion_noise_trans: f64,
    /// Rotational motion noise per radian turned (std, radians).
    pub motion_noise_rot: f64,
    /// Measurement model: std of expected-vs-measured range (meters).
    pub range_noise: f64,
    /// Beams subsampled from each scan for weighting.
    pub beams_used: usize,
}

impl Default for ParticleFilterConfig {
    fn default() -> Self {
        Self {
            particles: 500,
            motion_noise_trans: 0.1,
            motion_noise_rot: 0.05,
            range_noise: 0.3,
            beams_used: 20,
        }
    }
}

/// One pose hypothesis with its importance weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Particle {
    /// Hypothesized pose.
    pub pose: Pose2,
    /// Normalized importance weight.
    pub weight: f64,
}

/// Monte Carlo localization against a fixed occupancy-grid map.
///
/// # Examples
///
/// ```
/// use m7_kernels::{OccupancyGrid, ParticleFilter, ParticleFilterConfig, Pose2, Vec2};
///
/// let map = OccupancyGrid::new(20.0, 20.0, 0.25);
/// let start = Pose2::new(Vec2::new(10.0, 10.0), 0.0);
/// let pf = ParticleFilter::new(ParticleFilterConfig::default(), &map, start, 1.0, 7);
/// assert!(pf.estimate().position.distance(start.position) < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct ParticleFilter {
    config: ParticleFilterConfig,
    particles: Vec<Particle>,
    rng: rand_chacha::ChaCha8Rng,
}

impl ParticleFilter {
    /// Creates a filter with particles scattered around `initial` with the
    /// given positional spread (meters), deterministic in `seed`.
    #[must_use]
    pub fn new(
        config: ParticleFilterConfig,
        map: &OccupancyGrid,
        initial: Pose2,
        spread: f64,
        seed: u64,
    ) -> Self {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let w = 1.0 / config.particles as f64;
        let particles = (0..config.particles)
            .map(|_| {
                let dx = rng.gen_range(-spread..=spread);
                let dy = rng.gen_range(-spread..=spread);
                let dth = rng.gen_range(-0.2..=0.2);
                let mut pose =
                    Pose2::new(initial.position + Vec2::new(dx, dy), initial.heading + dth);
                // Keep initial hypotheses inside the map.
                if map.cell_of(pose.position).is_none() {
                    pose = initial;
                }
                Particle { pose, weight: w }
            })
            .collect();
        Self { config, particles, rng }
    }

    /// Weighted mean pose estimate.
    #[must_use]
    pub fn estimate(&self) -> Pose2 {
        let mut x = 0.0;
        let mut y = 0.0;
        let mut sin = 0.0;
        let mut cos = 0.0;
        for p in &self.particles {
            x += p.weight * p.pose.position.x;
            y += p.weight * p.pose.position.y;
            sin += p.weight * p.pose.heading.sin();
            cos += p.weight * p.pose.heading.cos();
        }
        Pose2::new(Vec2::new(x, y), sin.atan2(cos))
    }

    /// Effective sample size — collapses toward 1 as weights concentrate.
    #[must_use]
    pub(crate) fn effective_sample_size(&self) -> f64 {
        let sum_sq: f64 = self.particles.iter().map(|p| p.weight * p.weight).sum();
        if sum_sq <= 0.0 {
            return 0.0;
        }
        1.0 / sum_sq
    }

    /// Motion update: propagates every particle through the odometry
    /// increment (body frame) with sampled noise.
    pub fn predict(&mut self, odometry: Pose2) {
        let trans = odometry.position.norm();
        let rot = odometry.heading.abs();
        let nt = self.config.motion_noise_trans * trans.max(0.01);
        let nr = self.config.motion_noise_rot * rot.max(0.01);
        for i in 0..self.particles.len() {
            let noisy = Pose2::new(
                odometry.position
                    + Vec2::new(self.rng.gen_range(-nt..=nt), self.rng.gen_range(-nt..=nt)),
                odometry.heading + self.rng.gen_range(-nr..=nr),
            );
            self.particles[i].pose = self.particles[i].pose.compose(noisy);
        }
    }

    /// Measurement update: reweights particles by the likelihood of `scan`
    /// given the map, then resamples systematically when the effective
    /// sample size drops below half the particle count.
    pub fn update(&mut self, map: &OccupancyGrid, scan: &Scan) {
        let step = (scan.bearings.len() / self.config.beams_used).max(1);
        let inv_two_var = 1.0 / (2.0 * self.config.range_noise * self.config.range_noise);
        let max_range = scan.ranges.iter().cloned().fold(0.0f64, f64::max) + 1.0;
        let beams_used = self.config.beams_used;

        // One log-likelihood per particle, applied and accumulated into the
        // normalizer in particle order.
        let mut total = 0.0;
        for p in &mut self.particles {
            let mut log_likelihood = 0.0;
            for (bearing, range) in
                scan.bearings.iter().zip(&scan.ranges).step_by(step).take(beams_used)
            {
                let angle = p.pose.heading + bearing;
                let dir = Vec2::new(angle.cos(), angle.sin());
                let expected = map
                    .raycast(p.pose.position, dir, max_range, 0.6)
                    .map_or(max_range, |hit| hit.distance(p.pose.position));
                let err = expected - range;
                log_likelihood -= err * err * inv_two_var;
            }
            p.weight *= log_likelihood.exp().max(1e-300);
            total += p.weight;
        }
        if total <= 0.0 {
            // Degenerate: reset to uniform rather than divide by zero.
            let w = 1.0 / self.particles.len() as f64;
            for p in &mut self.particles {
                p.weight = w;
            }
            return;
        }
        for p in &mut self.particles {
            p.weight /= total;
        }
        if self.effective_sample_size() < self.particles.len() as f64 / 2.0 {
            self.resample();
        }
    }

    /// Systematic (low-variance) resampling.
    fn resample(&mut self) {
        let n = self.particles.len();
        let start: f64 = self.rng.gen_range(0.0..1.0 / n as f64);
        let mut out = Vec::with_capacity(n);
        let mut cumulative = self.particles[0].weight;
        let mut idx = 0;
        for k in 0..n {
            let u = start + k as f64 / n as f64;
            while u > cumulative && idx + 1 < n {
                idx += 1;
                cumulative += self.particles[idx].weight;
            }
            out.push(Particle { pose: self.particles[idx].pose, weight: 1.0 / n as f64 });
        }
        self.particles = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slam::synthetic_room_scan;

    impl ParticleFilter {
        /// The particle set.
        #[must_use]
        fn particles(&self) -> &[Particle] {
            &self.particles
        }
    }

    /// Builds a mapped rectangular room and the matching ground truth.
    fn mapped_room() -> (OccupancyGrid, Vec2, f64, f64) {
        let center = Vec2::new(10.0, 10.0);
        let (half_w, half_h) = (7.0, 5.0);
        let mut map = OccupancyGrid::new(20.0, 20.0, 0.25);
        // Trace the walls into the map from several interior viewpoints.
        for &vp in &[
            center,
            center + Vec2::new(3.0, 2.0),
            center + Vec2::new(-3.0, -2.0),
            center + Vec2::new(4.0, -3.0),
        ] {
            for _ in 0..3 {
                let scan = synthetic_room_scan(Pose2::new(vp, 0.0), center, half_w, half_h, 180);
                for (b, r) in scan.bearings.iter().zip(&scan.ranges) {
                    let end = vp + Vec2::new(r * b.cos(), r * b.sin());
                    map.integrate_ray(vp, end, true);
                }
            }
        }
        (map, center, half_w, half_h)
    }

    #[test]
    fn initialization_spreads_particles() {
        let map = OccupancyGrid::new(20.0, 20.0, 0.5);
        let start = Pose2::new(Vec2::new(10.0, 10.0), 0.0);
        let pf = ParticleFilter::new(ParticleFilterConfig::default(), &map, start, 2.0, 1);
        let distinct =
            pf.particles().windows(2).filter(|w| w[0].pose.position != w[1].pose.position).count();
        assert!(distinct > 400, "particles should be spread, {distinct} distinct");
        let est = pf.estimate();
        assert!(est.position.distance(start.position) < 0.5, "mean near the prior");
    }

    #[test]
    fn tracking_converges_in_a_room() {
        let (map, center, half_w, half_h) = mapped_room();
        let mut truth = Pose2::new(center, 0.3);
        let config = ParticleFilterConfig { particles: 400, ..ParticleFilterConfig::default() };
        let mut pf = ParticleFilter::new(config, &map, truth, 1.5, 3);
        let step = Pose2::new(Vec2::new(0.3, 0.0), 0.05);
        for _ in 0..15 {
            truth = truth.compose(step);
            pf.predict(step);
            let scan = synthetic_room_scan(truth, center, half_w, half_h, 120);
            pf.update(&map, &scan);
        }
        let err = pf.estimate().position.distance(truth.position);
        assert!(err < 1.0, "MCL should track within 1 m, got {err}");
    }

    #[test]
    fn weights_stay_normalized() {
        let (map, center, half_w, half_h) = mapped_room();
        let truth = Pose2::new(center, 0.0);
        let mut pf = ParticleFilter::new(ParticleFilterConfig::default(), &map, truth, 1.0, 5);
        let scan = synthetic_room_scan(truth, center, half_w, half_h, 120);
        pf.update(&map, &scan);
        let total: f64 = pf.particles().iter().map(|p| p.weight).sum();
        assert!((total - 1.0).abs() < 1e-9, "weights must normalize, got {total}");
    }

    #[test]
    fn ess_drops_after_informative_update() {
        let (map, center, half_w, half_h) = mapped_room();
        let truth = Pose2::new(center, 0.0);
        let config = ParticleFilterConfig { particles: 300, ..ParticleFilterConfig::default() };
        let mut pf = ParticleFilter::new(config, &map, truth, 3.0, 9);
        let before = pf.effective_sample_size();
        assert!((before - 300.0).abs() < 1e-6, "uniform weights give full ESS");
        let prior = pf.particles().to_vec();
        let scan = synthetic_room_scan(truth, center, half_w, half_h, 120);
        pf.update(&map, &scan);
        // Resampling may have restored uniformity, but the set must have
        // been reweighted or resampled.
        assert_ne!(pf.particles(), &prior[..]);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (map, center, half_w, half_h) = mapped_room();
        let truth = Pose2::new(center, 0.0);
        let run = || {
            let mut pf = ParticleFilter::new(ParticleFilterConfig::default(), &map, truth, 1.0, 11);
            let scan = synthetic_room_scan(truth, center, half_w, half_h, 90);
            pf.predict(Pose2::new(Vec2::new(0.2, 0.0), 0.0));
            pf.update(&map, &scan);
            pf.estimate()
        };
        assert_eq!(run(), run());
    }
}
