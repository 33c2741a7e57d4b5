//! 2D pose-graph optimization by Gauss-Newton: the modern back end that
//! displaced dense filters in production SLAM stacks.
//!
//! Nodes are SE(2) poses; edges are relative-pose constraints with
//! diagonal information. [`PoseGraph::optimize`] linearizes all residuals
//! and solves the normal equations with the crate's dense solver (adequate
//! for the graph sizes exercised here; a production system would use a
//! sparse factorization — the cost *structure* per iteration is the same
//! J^T J assembly the accelerator literature targets).

use crate::geometry::{normalize_angle, Pose2, Vec2};
use crate::linalg::{LinalgError, Matrix};

/// A relative-pose constraint between two graph nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoseConstraint {
    /// Index of the source node.
    pub from: usize,
    /// Index of the target node.
    pub to: usize,
    /// Measured pose of `to` in `from`'s frame.
    pub measurement: Pose2,
    /// Diagonal information (inverse variance) for `(x, y, θ)`.
    pub information: [f64; 3],
}

/// Errors from pose-graph operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoseGraphError {
    /// A constraint references a node that does not exist.
    InvalidNode {
        /// The offending node index.
        index: usize,
    },
    /// The normal equations were singular (under-constrained graph).
    Singular,
}

impl core::fmt::Display for PoseGraphError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::InvalidNode { index } => write!(f, "constraint references missing node {index}"),
            Self::Singular => {
                write!(f, "normal equations are singular; graph is under-constrained")
            }
        }
    }
}

impl std::error::Error for PoseGraphError {}

impl From<LinalgError> for PoseGraphError {
    fn from(_: LinalgError) -> Self {
        Self::Singular
    }
}

/// A 2D pose graph with Gauss-Newton optimization.
///
/// # Examples
///
/// ```
/// use m7_kernels::{Pose2, PoseConstraint, PoseGraph, Vec2};
///
/// let mut graph = PoseGraph::new();
/// let a = graph.add_node(Pose2::identity());
/// let b = graph.add_node(Pose2::new(Vec2::new(1.2, 0.1), 0.05)); // noisy initial guess
/// graph.add_constraint(PoseConstraint {
///     from: a,
///     to: b,
///     measurement: Pose2::new(Vec2::new(1.0, 0.0), 0.0),
///     information: [10.0, 10.0, 10.0],
/// }).unwrap();
/// let error = graph.optimize(10).unwrap();
/// assert!(error < 1e-6);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PoseGraph {
    nodes: Vec<Pose2>,
    constraints: Vec<PoseConstraint>,
}

impl PoseGraph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node with an initial pose estimate; returns its index.
    pub fn add_node(&mut self, initial: Pose2) -> usize {
        self.nodes.push(initial);
        self.nodes.len() - 1
    }

    /// Adds a relative-pose constraint.
    ///
    /// # Errors
    ///
    /// Returns [`PoseGraphError::InvalidNode`] if either endpoint does not
    /// exist.
    pub fn add_constraint(&mut self, c: PoseConstraint) -> Result<(), PoseGraphError> {
        for index in [c.from, c.to] {
            if index >= self.nodes.len() {
                return Err(PoseGraphError::InvalidNode { index });
            }
        }
        self.constraints.push(c);
        Ok(())
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Current pose estimates.
    #[must_use]
    pub fn nodes(&self) -> &[Pose2] {
        &self.nodes
    }

    /// The residual of one constraint at the current estimates:
    /// `(to ⊖ from) ⊖ measurement` expressed as `(dx, dy, dθ)`.
    #[must_use]
    fn residual(&self, c: &PoseConstraint) -> [f64; 3] {
        let relative = self.nodes[c.from].inverse().compose(self.nodes[c.to]);
        let dp = relative.position - c.measurement.position;
        // Rotate the positional error into `from`'s measurement frame so
        // the Jacobians below stay consistent.
        [dp.x, dp.y, normalize_angle(relative.heading - c.measurement.heading)]
    }

    /// Total weighted squared error over all constraints.
    #[must_use]
    pub(crate) fn total_error(&self) -> f64 {
        self.constraints
            .iter()
            .map(|c| {
                let r = self.residual(c);
                r.iter().zip(&c.information).map(|(e, i)| e * e * i).sum::<f64>()
            })
            .sum()
    }

    /// Runs up to `max_iterations` Gauss-Newton steps with the first node
    /// held fixed (gauge freedom). Returns the final total error.
    ///
    /// # Errors
    ///
    /// Returns [`PoseGraphError::Singular`] if the normal equations cannot
    /// be solved (e.g. a disconnected graph).
    pub fn optimize(&mut self, max_iterations: usize) -> Result<f64, PoseGraphError> {
        if self.nodes.len() <= 1 || self.constraints.is_empty() {
            return Ok(self.total_error());
        }
        let dim = 3 * self.nodes.len();
        for _ in 0..max_iterations {
            let mut h = Matrix::zeros(dim, dim);
            let mut b = Matrix::zeros(dim, 1);

            for c in &self.constraints {
                let xi = self.nodes[c.from];
                let xj = self.nodes[c.to];
                let r = self.residual(c);
                let (si, ci) = xi.heading.sin_cos();
                let d = xj.position - xi.position;

                // Jacobians of the relative pose w.r.t. xi and xj (standard
                // 2D pose-graph linearization).
                // relative.position = R(-θi) (pj - pi)
                let j_i = [
                    [-ci, -si, -si * d.x + ci * d.y],
                    [si, -ci, -ci * d.x - si * d.y],
                    [0.0, 0.0, -1.0],
                ];
                let j_j = [[ci, si, 0.0], [-si, ci, 0.0], [0.0, 0.0, 1.0]];

                let bi = 3 * c.from;
                let bj = 3 * c.to;
                for row in 0..3 {
                    let w = c.information[row];
                    for a in 0..3 {
                        for bcol in 0..3 {
                            h[(bi + a, bi + bcol)] += j_i[row][a] * w * j_i[row][bcol];
                            h[(bi + a, bj + bcol)] += j_i[row][a] * w * j_j[row][bcol];
                            h[(bj + a, bi + bcol)] += j_j[row][a] * w * j_i[row][bcol];
                            h[(bj + a, bj + bcol)] += j_j[row][a] * w * j_j[row][bcol];
                        }
                        b[(bi + a, 0)] += j_i[row][a] * w * r[row];
                        b[(bj + a, 0)] += j_j[row][a] * w * r[row];
                    }
                }
            }

            // Fix the gauge: clamp node 0 by adding a strong prior.
            for a in 0..3 {
                h[(a, a)] += 1e9;
            }

            let delta = h.solve(&b.scaled(-1.0))?;
            let mut max_step = 0.0f64;
            for (i, node) in self.nodes.iter_mut().enumerate() {
                let dx = delta[(3 * i, 0)];
                let dy = delta[(3 * i + 1, 0)];
                let dth = delta[(3 * i + 2, 0)];
                *node = Pose2::new(node.position + Vec2::new(dx, dy), node.heading + dth);
                max_step = max_step.max(dx.abs()).max(dy.abs()).max(dth.abs());
            }
            if max_step < 1e-10 {
                break;
            }
        }
        Ok(self.total_error())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn single_edge_snaps_to_measurement() {
        let mut g = PoseGraph::new();
        let a = g.add_node(Pose2::identity());
        let b = g.add_node(Pose2::new(Vec2::new(2.0, 1.0), 0.4));
        g.add_constraint(PoseConstraint {
            from: a,
            to: b,
            measurement: Pose2::new(Vec2::new(1.0, 0.0), 0.1),
            information: [1.0, 1.0, 1.0],
        })
        .unwrap();
        let err = g.optimize(20).unwrap();
        assert!(err < 1e-10, "residual should vanish, got {err}");
        let rel = g.nodes()[a].inverse().compose(g.nodes()[b]);
        assert!(rel.position.distance(Vec2::new(1.0, 0.0)) < 1e-6);
        assert!((rel.heading - 0.1).abs() < 1e-6);
    }

    #[test]
    fn invalid_constraint_is_rejected() {
        let mut g = PoseGraph::new();
        g.add_node(Pose2::identity());
        let result = g.add_constraint(PoseConstraint {
            from: 0,
            to: 5,
            measurement: Pose2::identity(),
            information: [1.0; 3],
        });
        assert_eq!(result, Err(PoseGraphError::InvalidNode { index: 5 }));
    }

    /// Builds a noisy square loop with loop closure and checks that
    /// optimization removes the accumulated drift.
    #[test]
    fn loop_closure_removes_drift() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
        let mut g = PoseGraph::new();
        // Ground truth: 4 corners of a 10 m square plus return to start.
        let truth = [
            Pose2::new(Vec2::new(0.0, 0.0), 0.0),
            Pose2::new(Vec2::new(10.0, 0.0), core::f64::consts::FRAC_PI_2),
            Pose2::new(Vec2::new(10.0, 10.0), core::f64::consts::PI),
            Pose2::new(Vec2::new(0.0, 10.0), -core::f64::consts::FRAC_PI_2),
        ];
        // Initial estimates: truth corrupted by growing drift.
        let mut drift = Vec2::ZERO;
        for (i, t) in truth.iter().enumerate() {
            drift += Vec2::new(rng.gen_range(-0.3..0.3), rng.gen_range(-0.3..0.3));
            let noisy = if i == 0 { *t } else { Pose2::new(t.position + drift, t.heading + 0.05) };
            g.add_node(noisy);
        }
        // Odometry edges along the loop (true relative poses).
        for i in 0..4 {
            let j = (i + 1) % 4;
            let measurement = truth[i].inverse().compose(truth[j]);
            g.add_constraint(PoseConstraint {
                from: i,
                to: j,
                measurement,
                information: [10.0, 10.0, 100.0],
            })
            .unwrap();
        }
        let before = g.total_error();
        let after = g.optimize(30).unwrap();
        assert!(after < before / 100.0, "optimization must slash error: {before} -> {after}");
        // All corners land near the truth (gauge fixed at node 0).
        for (node, t) in g.nodes().iter().zip(&truth) {
            assert!(
                node.position.distance(t.position) < 0.05,
                "corner off by {}",
                node.position.distance(t.position)
            );
        }
    }

    #[test]
    fn empty_and_trivial_graphs_are_fine() {
        let mut g = PoseGraph::new();
        assert_eq!(g.optimize(5).unwrap(), 0.0);
        g.add_node(Pose2::identity());
        assert_eq!(g.optimize(5).unwrap(), 0.0);
        assert!(!g.is_empty());
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn chain_distributes_loop_closure_error() {
        // A 5-node straight chain whose initial guesses overshoot; a
        // closure from end to start pulls everything consistent.
        let mut g = PoseGraph::new();
        for i in 0..5 {
            g.add_node(Pose2::new(Vec2::new(1.2 * i as f64, 0.1 * i as f64), 0.0));
        }
        for i in 0..4 {
            g.add_constraint(PoseConstraint {
                from: i,
                to: i + 1,
                measurement: Pose2::new(Vec2::new(1.0, 0.0), 0.0),
                information: [1.0, 1.0, 1.0],
            })
            .unwrap();
        }
        g.add_constraint(PoseConstraint {
            from: 4,
            to: 0,
            measurement: Pose2::new(Vec2::new(-4.0, 0.0), 0.0),
            information: [1.0, 1.0, 1.0],
        })
        .unwrap();
        let err = g.optimize(30).unwrap();
        assert!(err < 1e-8, "consistent constraints should fit exactly, got {err}");
        assert!(g.nodes()[4].position.distance(Vec2::new(4.0, 0.0)) < 1e-4);
    }
}
