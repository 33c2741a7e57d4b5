//! Rigid-body dynamics for planar serial chains: recursive Newton-Euler
//! inverse dynamics (RNEA) and forward kinematics.
//!
//! This is the manipulator workload class targeted by robomorphic-computing
//! style accelerators; experiment E4 uses its per-joint recurrence as one of
//! the task kernels.

/// Gravitational acceleration used by the chain model (m/s²).
pub(crate) const GRAVITY: f64 = 9.81;

/// One revolute link of a planar serial chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Link length (meters).
    pub length: f64,
    /// Link mass (kilograms).
    pub mass: f64,
    /// Distance from the joint to the link's center of mass (meters).
    pub com_offset: f64,
    /// Rotational inertia about the center of mass (kg·m²).
    pub inertia: f64,
}

impl Link {
    /// A uniform thin rod of the given length and mass.
    #[must_use]
    pub fn uniform_rod(length: f64, mass: f64) -> Self {
        Self { length, mass, com_offset: length / 2.0, inertia: mass * length * length / 12.0 }
    }
}

/// A planar serial manipulator with revolute joints.
///
/// # Examples
///
/// ```
/// use m7_kernels::{Link, SerialChain};
///
/// let chain = SerialChain::new(vec![Link::uniform_rod(1.0, 2.0); 3]);
/// let q = [0.1, -0.2, 0.3];
/// let tip = chain.forward_kinematics(&q);
/// assert!(tip.0.hypot(tip.1) <= 3.0 + 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SerialChain {
    links: Vec<Link>,
}

impl SerialChain {
    /// Creates a chain from its links (base to tip).
    ///
    /// # Panics
    ///
    /// Panics if `links` is empty.
    #[must_use]
    pub fn new(links: Vec<Link>) -> Self {
        assert!(!links.is_empty(), "a chain needs at least one link");
        Self { links }
    }

    /// Number of joints.
    #[must_use]
    pub fn dof(&self) -> usize {
        self.links.len()
    }

    /// Tip position `(x, y)` for joint angles `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q.len() != self.dof()`.
    #[must_use]
    pub fn forward_kinematics(&self, q: &[f64]) -> (f64, f64) {
        assert_eq!(q.len(), self.dof(), "joint vector length mismatch");
        let mut angle = 0.0;
        let (mut x, mut y) = (0.0, 0.0);
        for (link, qi) in self.links.iter().zip(q) {
            angle += qi;
            x += link.length * angle.cos();
            y += link.length * angle.sin();
        }
        (x, y)
    }

    /// Inverse dynamics via the planar recursive Newton-Euler algorithm:
    /// joint torques required to realize accelerations `qdd` at state
    /// `(q, qd)` under gravity.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ from `self.dof()`.
    #[must_use]
    pub fn inverse_dynamics(&self, q: &[f64], qd: &[f64], qdd: &[f64]) -> Vec<f64> {
        let n = self.dof();
        assert_eq!(q.len(), n, "q length mismatch");
        assert_eq!(qd.len(), n, "qd length mismatch");
        assert_eq!(qdd.len(), n, "qdd length mismatch");

        // Forward pass: absolute angle, angular velocity/acceleration, and
        // linear acceleration of each link origin and COM.
        let mut theta = vec![0.0; n];
        let mut omega = vec![0.0; n];
        let mut alpha = vec![0.0; n];
        // Acceleration of each joint origin; gravity enters as a base
        // acceleration of +g in y (d'Alembert).
        let mut ax = vec![0.0; n + 1];
        let mut ay = vec![0.0; n + 1];
        ay[0] = GRAVITY;
        let mut acc_theta = 0.0;
        let mut acc_omega = 0.0;
        let mut acc_alpha = 0.0;
        let mut com_ax = vec![0.0; n];
        let mut com_ay = vec![0.0; n];
        for i in 0..n {
            acc_theta += q[i];
            acc_omega += qd[i];
            acc_alpha += qdd[i];
            theta[i] = acc_theta;
            omega[i] = acc_omega;
            alpha[i] = acc_alpha;
            let (s, c) = theta[i].sin_cos();
            // COM acceleration: origin + rotational terms at com_offset.
            let r = self.links[i].com_offset;
            com_ax[i] = ax[i] - alpha[i] * r * s - omega[i] * omega[i] * r * c;
            com_ay[i] = ay[i] + alpha[i] * r * c - omega[i] * omega[i] * r * s;
            // Next joint origin: same with the full link length.
            let l = self.links[i].length;
            ax[i + 1] = ax[i] - alpha[i] * l * s - omega[i] * omega[i] * l * c;
            ay[i + 1] = ay[i] + alpha[i] * l * c - omega[i] * omega[i] * l * s;
        }

        // Backward pass: accumulate forces and torques from the tip.
        let mut fx = 0.0;
        let mut fy = 0.0;
        let mut torque_carry = 0.0;
        let mut tau = vec![0.0; n];
        for i in (0..n).rev() {
            let link = &self.links[i];
            let (s, c) = theta[i].sin_cos();
            let rcx = link.com_offset * c;
            let rcy = link.com_offset * s;
            let rlx = link.length * c;
            let rly = link.length * s;
            // Force balance: F_i = m a_com + F_{i+1}
            let fxi = link.mass * com_ax[i] + fx;
            let fyi = link.mass * com_ay[i] + fy;
            // Torque about the joint: inertia + COM force moment + child
            // wrench moment.
            let tau_i = link.inertia * alpha[i] + rcx * (link.mass * com_ay[i])
                - rcy * (link.mass * com_ax[i])
                + torque_carry
                + rlx * fy
                - rly * fx;
            tau[i] = tau_i;
            fx = fxi;
            fy = fyi;
            torque_carry = tau_i;
        }
        tau
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn three_link() -> SerialChain {
        SerialChain::new(vec![
            Link::uniform_rod(1.0, 2.0),
            Link::uniform_rod(0.8, 1.5),
            Link::uniform_rod(0.5, 0.8),
        ])
    }

    #[test]
    fn fk_straight_chain() {
        let chain = three_link();
        let (x, y) = chain.forward_kinematics(&[0.0, 0.0, 0.0]);
        assert!((x - 2.3).abs() < 1e-12);
        assert!(y.abs() < 1e-12);
    }

    #[test]
    fn fk_folded_chain() {
        let chain = SerialChain::new(vec![Link::uniform_rod(1.0, 1.0); 2]);
        let (x, y) = chain.forward_kinematics(&[0.0, core::f64::consts::PI]);
        assert!(x.abs() < 1e-12, "folded back onto the base, x = {x}");
        assert!(y.abs() < 1e-12);
    }

    #[test]
    fn gravity_torque_of_horizontal_rod() {
        // A single uniform rod held horizontal: τ = m g l/2.
        let chain = SerialChain::new(vec![Link::uniform_rod(1.0, 2.0)]);
        let tau = chain.inverse_dynamics(&[0.0], &[0.0], &[0.0]);
        let expected = 2.0 * GRAVITY * 0.5;
        assert!((tau[0] - expected).abs() < 1e-9, "got {} want {expected}", tau[0]);
    }

    #[test]
    fn vertical_rod_needs_no_torque() {
        let chain = SerialChain::new(vec![Link::uniform_rod(1.0, 2.0)]);
        let tau = chain.inverse_dynamics(&[core::f64::consts::FRAC_PI_2], &[0.0], &[0.0]);
        assert!(tau[0].abs() < 1e-9, "upright rod is balanced, got {}", tau[0]);
    }

    #[test]
    fn acceleration_adds_inertial_torque() {
        // Rod pointing up (no gravity torque): τ = (I_com + m r²) qdd.
        let link = Link::uniform_rod(1.0, 2.0);
        let chain = SerialChain::new(vec![link]);
        let qdd = 3.0;
        let tau = chain.inverse_dynamics(&[core::f64::consts::FRAC_PI_2], &[0.0], &[qdd]);
        let expected = (link.inertia + link.mass * link.com_offset * link.com_offset) * qdd;
        assert!((tau[0] - expected).abs() < 1e-9, "got {} want {expected}", tau[0]);
    }

    #[test]
    fn torques_linear_in_acceleration() {
        // With qd = 0, τ(qdd) − τ(0) is linear in qdd.
        let chain = three_link();
        let q = [0.3, -0.5, 0.9];
        let tau0 = chain.inverse_dynamics(&q, &[0.0; 3], &[0.0; 3]);
        let tau1 = chain.inverse_dynamics(&q, &[0.0; 3], &[1.0, 0.0, 0.0]);
        let tau2 = chain.inverse_dynamics(&q, &[0.0; 3], &[2.0, 0.0, 0.0]);
        for j in 0..3 {
            let d1 = tau1[j] - tau0[j];
            let d2 = tau2[j] - tau0[j];
            assert!((d2 - 2.0 * d1).abs() < 1e-9, "joint {j}: {d1} vs {d2}");
        }
    }

    proptest! {
        #[test]
        fn prop_fk_within_reach(
            q in prop::collection::vec(-3.0..3.0f64, 3),
        ) {
            let chain = three_link();
            let (x, y) = chain.forward_kinematics(&q);
            let reach: f64 = chain.links.iter().map(|l| l.length).sum();
            prop_assert!(x.hypot(y) <= reach + 1e-9);
        }

        #[test]
        fn prop_gravity_torques_bounded(
            q in prop::collection::vec(-3.0..3.0f64, 3),
        ) {
            // Static gravity torque at any pose is bounded by Σ m g · reach.
            let chain = three_link();
            let tau = chain.inverse_dynamics(&q, &[0.0; 3], &[0.0; 3]);
            let reach: f64 = chain.links.iter().map(|l| l.length).sum();
            let total_mass: f64 = chain.links.iter().map(|l| l.mass).sum();
            let bound = total_mass * GRAVITY * reach;
            for t in tau {
                prop_assert!(t.abs() <= bound + 1e-6);
            }
        }
    }
}
