//! A bagged regression-tree surrogate model — the "ML for system design"
//! component (paper §3.1) that guides sample-efficient exploration in
//! experiment E9.

use rand::{Rng, SeedableRng};

/// A binary regression tree (CART) with variance-reduction splits.
#[derive(Debug, Clone)]
pub(crate) struct RegressionTree {
    nodes: Vec<TreeNode>,
}

#[derive(Debug, Clone)]
enum TreeNode {
    Leaf { prediction: f64 },
    Split { feature: usize, threshold: f64, left: usize, right: usize },
}

impl RegressionTree {
    /// Fits a tree to `(features, targets)` with the given depth and
    /// minimum leaf size.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or rows have unequal lengths.
    #[must_use]
    pub(crate) fn fit(
        features: &[Vec<f64>],
        targets: &[f64],
        max_depth: usize,
        min_leaf: usize,
    ) -> Self {
        assert!(!features.is_empty(), "cannot fit to an empty dataset");
        assert_eq!(features.len(), targets.len(), "feature/target length mismatch");
        let dim = features[0].len();
        assert!(features.iter().all(|f| f.len() == dim), "ragged feature rows");
        let mut nodes = Vec::new();
        let indices: Vec<usize> = (0..features.len()).collect();
        Self::build(&mut nodes, features, targets, &indices, max_depth, min_leaf.max(1));
        Self { nodes }
    }

    fn build(
        nodes: &mut Vec<TreeNode>,
        features: &[Vec<f64>],
        targets: &[f64],
        indices: &[usize],
        depth: usize,
        min_leaf: usize,
    ) -> usize {
        let mean = indices.iter().map(|&i| targets[i]).sum::<f64>() / indices.len() as f64;
        if depth == 0 || indices.len() < 2 * min_leaf {
            nodes.push(TreeNode::Leaf { prediction: mean });
            return nodes.len() - 1;
        }
        // Best split by sum-of-squares reduction.
        let dim = features[0].len();
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)
        #[allow(clippy::needless_range_loop)]
        for f in 0..dim {
            let mut values: Vec<f64> = indices.iter().map(|&i| features[i][f]).collect();
            values.sort_by(|a, b| a.partial_cmp(b).expect("finite features"));
            values.dedup();
            for w in values.windows(2) {
                let threshold = (w[0] + w[1]) / 2.0;
                let (mut ls, mut lc, mut rs, mut rc) = (0.0, 0usize, 0.0, 0usize);
                for &i in indices {
                    if features[i][f] <= threshold {
                        ls += targets[i];
                        lc += 1;
                    } else {
                        rs += targets[i];
                        rc += 1;
                    }
                }
                if lc < min_leaf || rc < min_leaf {
                    continue;
                }
                // Maximizing between-group sum of squares.
                let score = ls * ls / lc as f64 + rs * rs / rc as f64;
                if best.is_none_or(|(_, _, s)| score > s) {
                    best = Some((f, threshold, score));
                }
            }
        }
        let Some((feature, threshold, _)) = best else {
            nodes.push(TreeNode::Leaf { prediction: mean });
            return nodes.len() - 1;
        };
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            indices.iter().partition(|&&i| features[i][feature] <= threshold);
        let slot = nodes.len();
        nodes.push(TreeNode::Leaf { prediction: mean }); // placeholder
        let left = Self::build(nodes, features, targets, &left_idx, depth - 1, min_leaf);
        let right = Self::build(nodes, features, targets, &right_idx, depth - 1, min_leaf);
        nodes[slot] = TreeNode::Split { feature, threshold, left, right };
        slot
    }

    /// Predicts the target for one feature vector.
    #[must_use]
    pub(crate) fn predict(&self, features: &[f64]) -> f64 {
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                TreeNode::Leaf { prediction } => return *prediction,
                TreeNode::Split { feature, threshold, left, right } => {
                    node = if features[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }
}

/// A bagged ensemble of regression trees with prediction uncertainty.
#[derive(Debug, Clone)]
pub(crate) struct Forest {
    trees: Vec<RegressionTree>,
}

impl Forest {
    /// Fits `n_trees` trees on bootstrap resamples, deterministic in
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or `n_trees == 0`.
    #[must_use]
    pub(crate) fn fit(
        features: &[Vec<f64>],
        targets: &[f64],
        n_trees: usize,
        max_depth: usize,
        seed: u64,
    ) -> Self {
        assert!(n_trees > 0, "need at least one tree");
        assert!(!features.is_empty(), "cannot fit to an empty dataset");
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let n = features.len();
        let trees = (0..n_trees)
            .map(|_| {
                let sample: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                let fs: Vec<Vec<f64>> = sample.iter().map(|&i| features[i].clone()).collect();
                let ts: Vec<f64> = sample.iter().map(|&i| targets[i]).collect();
                RegressionTree::fit(&fs, &ts, max_depth, 2)
            })
            .collect();
        Self { trees }
    }

    /// Mean and standard deviation across trees — the uncertainty the
    /// acquisition function exploits.
    #[must_use]
    pub(crate) fn predict_with_uncertainty(&self, features: &[f64]) -> (f64, f64) {
        let preds: Vec<f64> = self.trees.iter().map(|t| t.predict(features)).collect();
        let mean = preds.iter().sum::<f64>() / preds.len() as f64;
        let var = preds.iter().map(|p| (p - mean) * (p - mean)).sum::<f64>() / preds.len() as f64;
        (mean, var.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_a_linear_surface_on_a_small_grid() {
        // y = x0 + 10·x1 on a small grid.
        let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![(i % 8) as f64, (i / 8) as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] + 10.0 * x[1]).collect();
        let forest = Forest::fit(&xs, &ys, 20, 6, 42);
        let (mean, _std) = forest.predict_with_uncertainty(&[4.0, 2.0]);
        assert!((mean - 24.0).abs() < 8.0);
    }

    fn grid_dataset(f: impl Fn(f64, f64) -> f64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                let (a, b) = (i as f64, j as f64);
                xs.push(vec![a, b]);
                ys.push(f(a, b));
            }
        }
        (xs, ys)
    }

    #[test]
    fn tree_fits_step_function() {
        let (xs, ys) = grid_dataset(|a, _| if a < 5.0 { 0.0 } else { 100.0 });
        let tree = RegressionTree::fit(&xs, &ys, 4, 2);
        assert!(tree.predict(&[2.0, 3.0]) < 10.0);
        assert!(tree.predict(&[8.0, 3.0]) > 90.0);
    }

    #[test]
    fn tree_depth_zero_is_constant() {
        let (xs, ys) = grid_dataset(|a, b| a + b);
        let tree = RegressionTree::fit(&xs, &ys, 0, 2);
        let p1 = tree.predict(&[0.0, 0.0]);
        let p2 = tree.predict(&[9.0, 9.0]);
        assert_eq!(p1, p2, "depth-0 tree predicts the global mean everywhere");
        assert!((p1 - 9.0).abs() < 1e-9);
    }

    #[test]
    fn forest_approximates_linear_function() {
        let (xs, ys) = grid_dataset(|a, b| 3.0 * a - 2.0 * b);
        let forest = Forest::fit(&xs, &ys, 30, 8, 7);
        let mut total_err = 0.0;
        for (x, y) in xs.iter().zip(&ys) {
            total_err += (forest.predict_with_uncertainty(x).0 - y).abs();
        }
        let mae = total_err / xs.len() as f64;
        assert!(mae < 2.0, "forest MAE {mae} too high");
    }

    #[test]
    fn uncertainty_is_higher_off_grid() {
        let (xs, ys) = grid_dataset(|a, b| a * b);
        let forest = Forest::fit(&xs, &ys, 25, 6, 9);
        let (_, on_grid) = forest.predict_with_uncertainty(&[5.0, 5.0]);
        let (_, off_grid) = forest.predict_with_uncertainty(&[50.0, 50.0]);
        // Extrapolation at least should not be more confident.
        assert!(off_grid >= on_grid * 0.5);
    }

    #[test]
    fn forest_is_deterministic() {
        let (xs, ys) = grid_dataset(|a, b| a + b);
        let f1 = Forest::fit(&xs, &ys, 10, 5, 3);
        let f2 = Forest::fit(&xs, &ys, 10, 5, 3);
        for x in &xs {
            assert_eq!(f1.predict_with_uncertainty(x), f2.predict_with_uncertainty(x));
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn rejects_empty_dataset() {
        let _ = RegressionTree::fit(&[], &[], 3, 2);
    }
}
