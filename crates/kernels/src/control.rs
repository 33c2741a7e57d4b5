//! Feedback control kernels: PID, finite-horizon discrete LQR, and
//! trapezoidal trajectory generation.

use crate::linalg::{LinalgError, Matrix};

/// A time-optimal trapezoidal velocity profile over a fixed distance,
/// under speed and acceleration limits — the reference-generation kernel
/// that sits in front of every tracking controller.
///
/// Degenerates to a triangular profile when the distance is too short to
/// reach cruise speed.
///
/// # Examples
///
/// ```
/// use m7_kernels::TrapezoidalProfile;
///
/// let profile = TrapezoidalProfile::new(10.0, 2.0, 1.0).unwrap();
/// assert!((profile.duration() - 7.0).abs() < 1e-12); // 2 s up, 3 s cruise, 2 s down
/// assert!((profile.position(profile.duration()) - 10.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrapezoidalProfile {
    distance: f64,
    cruise_speed: f64,
    acceleration: f64,
    ramp_time: f64,
    cruise_time: f64,
}

/// Error constructing a [`TrapezoidalProfile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileError;

impl core::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("profile limits must be positive and finite")
    }
}

impl std::error::Error for ProfileError {}

impl TrapezoidalProfile {
    /// Plans a profile covering `distance` meters with at most `max_speed`
    /// and `max_acceleration`.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError`] if any argument is non-positive or
    /// non-finite.
    pub fn new(distance: f64, max_speed: f64, max_acceleration: f64) -> Result<Self, ProfileError> {
        let valid = distance > 0.0
            && distance.is_finite()
            && max_speed > 0.0
            && max_speed.is_finite()
            && max_acceleration > 0.0
            && max_acceleration.is_finite();
        if !valid {
            return Err(ProfileError);
        }
        // Distance consumed accelerating to cruise and back.
        let ramp_distance = max_speed * max_speed / max_acceleration;
        if ramp_distance <= distance {
            let ramp_time = max_speed / max_acceleration;
            let cruise_time = (distance - ramp_distance) / max_speed;
            Ok(Self {
                distance,
                cruise_speed: max_speed,
                acceleration: max_acceleration,
                ramp_time,
                cruise_time,
            })
        } else {
            // Triangular: peak speed set by the distance.
            let peak = (distance * max_acceleration).sqrt();
            Ok(Self {
                distance,
                cruise_speed: peak,
                acceleration: max_acceleration,
                ramp_time: peak / max_acceleration,
                cruise_time: 0.0,
            })
        }
    }

    /// Total duration of the motion.
    #[must_use]
    pub fn duration(&self) -> f64 {
        2.0 * self.ramp_time + self.cruise_time
    }

    /// Commanded speed at time `t` (clamped to the motion interval).
    #[must_use]
    pub fn speed(&self, t: f64) -> f64 {
        let t = t.clamp(0.0, self.duration());
        if t < self.ramp_time {
            self.acceleration * t
        } else if t < self.ramp_time + self.cruise_time {
            self.cruise_speed
        } else {
            (self.acceleration * (self.duration() - t)).max(0.0)
        }
    }

    /// Commanded position at time `t` (clamped to `[0, distance]`).
    #[must_use]
    pub fn position(&self, t: f64) -> f64 {
        let t = t.clamp(0.0, self.duration());
        let ramp = self.ramp_time;
        let a = self.acceleration;
        if t < ramp {
            0.5 * a * t * t
        } else if t < ramp + self.cruise_time {
            0.5 * a * ramp * ramp + self.cruise_speed * (t - ramp)
        } else {
            let remaining = self.duration() - t;
            self.distance - 0.5 * a * remaining * remaining
        }
    }
}

/// A scalar PID controller with anti-windup clamping.
///
/// # Examples
///
/// ```
/// use m7_kernels::Pid;
///
/// let mut pid = Pid::new(2.0, 0.1, 0.05);
/// let u = pid.update(1.0 /* error */, 0.01 /* dt */);
/// assert!(u > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pid {
    kp: f64,
    ki: f64,
    kd: f64,
    integral: f64,
    prev_error: Option<f64>,
}

impl Pid {
    /// Anti-windup clamp on the integral term.
    const INTEGRAL_LIMIT: f64 = 100.0;

    /// Creates a controller with the given gains and an integral clamp of
    /// ±100.
    #[must_use]
    pub fn new(kp: f64, ki: f64, kd: f64) -> Self {
        Self { kp, ki, kd, integral: 0.0, prev_error: None }
    }

    /// Advances the controller by one step and returns the control output.
    ///
    /// `dt` must be positive; non-positive `dt` returns the proportional
    /// term only.
    pub fn update(&mut self, error: f64, dt: f64) -> f64 {
        if dt <= 0.0 {
            return self.kp * error;
        }
        self.integral =
            (self.integral + error * dt).clamp(-Self::INTEGRAL_LIMIT, Self::INTEGRAL_LIMIT);
        let derivative = match self.prev_error {
            Some(prev) => (error - prev) / dt,
            None => 0.0,
        };
        self.prev_error = Some(error);
        self.kp * error + self.ki * self.integral + self.kd * derivative
    }

    /// Resets integral and derivative memory.
    pub fn reset(&mut self) {
        self.integral = 0.0;
        self.prev_error = None;
    }
}

/// A finite-horizon discrete-time LQR solved by backward Riccati recursion.
///
/// For the system `x' = A x + B u` with stage cost `xᵀQx + uᵀRu`, computes
/// the time-invariant limit gain `K` (by iterating the recursion to
/// convergence) so that `u = −K x`.
///
/// # Examples
///
/// ```
/// use m7_kernels::{Lqr, Matrix};
///
/// // Double integrator, dt = 0.1.
/// let a = Matrix::from_rows(&[&[1.0, 0.1], &[0.0, 1.0]]);
/// let b = Matrix::from_rows(&[&[0.005], &[0.1]]);
/// let q = Matrix::identity(2);
/// let r = Matrix::from_diagonal(&[0.1]);
/// let lqr = Lqr::solve(&a, &b, &q, &r, 500).unwrap();
/// let u = lqr.control(&[1.0, 0.0]); // positive position error
/// assert!(u[0] < 0.0, "control should push the state back");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Lqr {
    gain: Matrix,
}

impl Lqr {
    /// Solves the Riccati recursion for at most `max_iterations` steps,
    /// stopping early on convergence of the cost-to-go matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError`] if the shapes are inconsistent or the
    /// `R + BᵀPB` innovation is singular.
    pub fn solve(
        a: &Matrix,
        b: &Matrix,
        q: &Matrix,
        r: &Matrix,
        max_iterations: usize,
    ) -> Result<Self, LinalgError> {
        let n = a.rows();
        if a.cols() != n {
            return Err(LinalgError::DimensionMismatch { expected: (n, n), found: a.shape() });
        }
        if b.rows() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: (n, b.cols()),
                found: b.shape(),
            });
        }
        let m = b.cols();
        if q.shape() != (n, n) {
            return Err(LinalgError::DimensionMismatch { expected: (n, n), found: q.shape() });
        }
        if r.shape() != (m, m) {
            return Err(LinalgError::DimensionMismatch { expected: (m, m), found: r.shape() });
        }

        let mut p = q.clone();
        let at = a.transpose();
        let bt = b.transpose();
        for _ in 0..max_iterations {
            // K = (R + Bᵀ P B)⁻¹ Bᵀ P A
            let btp = bt.mul(&p)?;
            let s = r.add(&btp.mul(b)?)?;
            let k = s.solve(&btp.mul(a)?)?;
            // P' = Q + Aᵀ P (A − B K)
            let a_bk = a.sub(&b.mul(&k)?)?;
            let p_next = q.add(&at.mul(&p.mul(&a_bk)?)?)?;
            let delta = p_next.sub(&p)?.frobenius_norm();
            p = p_next;
            if delta < 1e-10 {
                break;
            }
        }
        // Final gain from the converged P.
        let btp = bt.mul(&p)?;
        let s = r.add(&btp.mul(b)?)?;
        let gain = s.solve(&btp.mul(a)?)?;
        Ok(Self { gain })
    }

    /// The feedback gain matrix `K`.
    #[must_use]
    pub fn gain(&self) -> &Matrix {
        &self.gain
    }

    /// Computes `u = −K x`.
    ///
    /// # Panics
    ///
    /// Panics if `state.len()` differs from the state dimension.
    #[must_use]
    pub fn control(&self, state: &[f64]) -> Vec<f64> {
        assert_eq!(state.len(), self.gain.cols(), "state dimension mismatch");
        let x = Matrix::column(state);
        let u = self.gain.mul(&x).expect("shapes verified");
        (0..u.rows()).map(|i| -u[(i, 0)]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pid_proportional_only() {
        let mut pid = Pid::new(3.0, 0.0, 0.0);
        assert_eq!(pid.update(2.0, 0.1), 6.0);
    }

    #[test]
    fn pid_integral_accumulates_and_clamps() {
        let mut pid = Pid::new(0.0, 1.0, 0.0);
        let mut last = 0.0;
        for _ in 0..100 {
            last = pid.update(1.0, 10.0);
        }
        assert!((last - 100.0).abs() < 1e-9, "integral should clamp at 100, got {last}");
    }

    #[test]
    fn pid_derivative_damps() {
        let mut pid = Pid::new(0.0, 0.0, 1.0);
        pid.update(1.0, 0.1);
        let u = pid.update(0.5, 0.1);
        assert!(u < 0.0, "falling error gives negative derivative term");
    }

    #[test]
    fn pid_reset_clears_memory() {
        let mut pid = Pid::new(1.0, 1.0, 1.0);
        pid.update(1.0, 0.1);
        pid.reset();
        let u = pid.update(1.0, 0.1);
        // After reset, derivative is zero and integral restarts.
        assert!((u - (1.0 + 0.1)).abs() < 1e-9);
    }

    #[test]
    fn pid_zero_dt_is_safe() {
        let mut pid = Pid::new(2.0, 1.0, 1.0);
        assert_eq!(pid.update(1.5, 0.0), 3.0);
    }

    fn double_integrator() -> (Matrix, Matrix) {
        let dt = 0.1;
        let a = Matrix::from_rows(&[&[1.0, dt], &[0.0, 1.0]]);
        let b = Matrix::from_rows(&[&[0.5 * dt * dt], &[dt]]);
        (a, b)
    }

    #[test]
    fn lqr_stabilizes_double_integrator() {
        let (a, b) = double_integrator();
        let q = Matrix::identity(2);
        let r = Matrix::from_diagonal(&[0.1]);
        let lqr = Lqr::solve(&a, &b, &q, &r, 1000).unwrap();
        // Simulate the closed loop from a disturbed state.
        let mut x = vec![2.0, -1.0];
        for _ in 0..400 {
            let u = lqr.control(&x);
            let xm = Matrix::column(&x);
            let um = Matrix::column(&u);
            let next = a.mul(&xm).unwrap().add(&b.mul(&um).unwrap()).unwrap();
            x = vec![next[(0, 0)], next[(1, 0)]];
        }
        assert!(x[0].abs() < 1e-3 && x[1].abs() < 1e-3, "state did not converge: {x:?}");
    }

    #[test]
    fn lqr_dimension_errors() {
        let a = Matrix::identity(2);
        let b = Matrix::zeros(3, 1);
        let q = Matrix::identity(2);
        let r = Matrix::identity(1);
        assert!(matches!(
            Lqr::solve(&a, &b, &q, &r, 10),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn trapezoid_reaches_cruise() {
        let p = TrapezoidalProfile::new(10.0, 2.0, 1.0).unwrap();
        assert_eq!(p.speed(p.duration() / 2.0), 2.0);
        assert_eq!(p.speed(2.0), 2.0);
        assert_eq!(p.speed(0.0), 0.0);
        assert!((p.speed(p.duration()) - 0.0).abs() < 1e-12);
        // Midpoint of cruise is halfway through the distance.
        assert!((p.position(3.5) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn short_distance_becomes_triangular() {
        let p = TrapezoidalProfile::new(1.0, 10.0, 1.0).unwrap();
        let peak = p.speed(p.duration() / 2.0);
        assert!(peak < 10.0, "cannot reach cruise, peak {peak}");
        assert!((peak - 1.0).abs() < 1e-12);
        assert!((p.position(p.duration()) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn profile_position_is_monotone() {
        let p = TrapezoidalProfile::new(7.3, 1.7, 0.9).unwrap();
        let mut prev = -1e-12;
        let steps = 200;
        for i in 0..=steps {
            let t = p.duration() * i as f64 / steps as f64;
            let x = p.position(t);
            assert!(x >= prev - 1e-9, "position must not decrease");
            prev = x;
        }
        assert!((prev - 7.3).abs() < 1e-9);
    }

    #[test]
    fn profile_rejects_bad_inputs() {
        assert!(TrapezoidalProfile::new(0.0, 1.0, 1.0).is_err());
        assert!(TrapezoidalProfile::new(1.0, -1.0, 1.0).is_err());
        assert!(TrapezoidalProfile::new(1.0, 1.0, f64::NAN).is_err());
    }

    #[test]
    fn higher_control_cost_means_gentler_gain() {
        let (a, b) = double_integrator();
        let q = Matrix::identity(2);
        let cheap = Lqr::solve(&a, &b, &q, &Matrix::from_diagonal(&[0.01]), 2000).unwrap();
        let pricey = Lqr::solve(&a, &b, &q, &Matrix::from_diagonal(&[10.0]), 2000).unwrap();
        assert!(
            cheap.gain().frobenius_norm() > pricey.gain().frobenius_norm(),
            "cheap control should use larger gains"
        );
    }
}
