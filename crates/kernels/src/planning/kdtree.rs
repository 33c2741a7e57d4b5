//! A 2D kd-tree for nearest-neighbor and radius queries, used by the RRT*
//! rewiring step and PRM roadmap construction.

use crate::geometry::Vec2;

/// A static-insert 2D kd-tree keyed by [`Vec2`], carrying a `usize` payload
/// (typically an index into the caller's node arena).
///
/// Points are inserted incrementally without rebalancing; for the randomized
/// insertion order of sampling-based planners the expected depth stays
/// logarithmic.
#[derive(Debug, Clone, Default)]
pub(crate) struct KdTree {
    nodes: Vec<Node>,
}

#[derive(Debug, Clone)]
struct Node {
    point: Vec2,
    payload: usize,
    left: Option<usize>,
    right: Option<usize>,
}

impl KdTree {
    /// Creates an empty tree.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Inserts a point with its payload.
    pub(crate) fn insert(&mut self, point: Vec2, payload: usize) {
        let new_index = self.nodes.len();
        self.nodes.push(Node { point, payload, left: None, right: None });
        if new_index == 0 {
            return;
        }
        let mut current = 0usize;
        let mut axis = 0usize;
        loop {
            let go_left = Self::key(point, axis) < Self::key(self.nodes[current].point, axis);
            let slot = if go_left { self.nodes[current].left } else { self.nodes[current].right };
            match slot {
                Some(next) => current = next,
                None => {
                    if go_left {
                        self.nodes[current].left = Some(new_index);
                    } else {
                        self.nodes[current].right = Some(new_index);
                    }
                    return;
                }
            }
            axis ^= 1;
        }
    }

    #[inline]
    fn key(p: Vec2, axis: usize) -> f64 {
        if axis == 0 {
            p.x
        } else {
            p.y
        }
    }

    /// The payload and squared distance of the stored point nearest to
    /// `query`, or `None` if the tree is empty.
    #[must_use]
    pub(crate) fn nearest(&self, query: Vec2) -> Option<(usize, f64)> {
        if self.nodes.is_empty() {
            return None;
        }
        let mut best = (usize::MAX, f64::INFINITY);
        self.nearest_rec(0, 0, query, &mut best);
        Some((self.nodes[best.0].payload, best.1))
    }

    fn nearest_rec(&self, node: usize, axis: usize, query: Vec2, best: &mut (usize, f64)) {
        let n = &self.nodes[node];
        let d2 = n.point.distance_squared(query);
        if d2 < best.1 {
            *best = (node, d2);
        }
        let diff = Self::key(query, axis) - Self::key(n.point, axis);
        let (near, far) = if diff < 0.0 { (n.left, n.right) } else { (n.right, n.left) };
        if let Some(c) = near {
            self.nearest_rec(c, axis ^ 1, query, best);
        }
        if diff * diff < best.1 {
            if let Some(c) = far {
                self.nearest_rec(c, axis ^ 1, query, best);
            }
        }
    }

    /// Payloads of all stored points within `radius` of `query`.
    #[must_use]
    pub(crate) fn within_radius(&self, query: Vec2, radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        if !self.nodes.is_empty() && radius >= 0.0 {
            self.radius_rec(0, 0, query, radius * radius, &mut out);
        }
        out
    }

    fn radius_rec(&self, node: usize, axis: usize, query: Vec2, r2: f64, out: &mut Vec<usize>) {
        let n = &self.nodes[node];
        if n.point.distance_squared(query) <= r2 {
            out.push(n.payload);
        }
        let diff = Self::key(query, axis) - Self::key(n.point, axis);
        let (near, far) = if diff < 0.0 { (n.left, n.right) } else { (n.right, n.left) };
        if let Some(c) = near {
            self.radius_rec(c, axis ^ 1, query, r2, out);
        }
        if diff * diff <= r2 {
            if let Some(c) = far {
                self.radius_rec(c, axis ^ 1, query, r2, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn empty_tree_has_no_nearest() {
        assert!(KdTree::new().nearest(Vec2::ZERO).is_none());
        assert!(KdTree::new().within_radius(Vec2::ZERO, 1.0).is_empty());
    }

    #[test]
    fn single_point() {
        let mut t = KdTree::new();
        t.insert(Vec2::new(2.0, 3.0), 7);
        let (p, d2) = t.nearest(Vec2::new(2.0, 4.0)).unwrap();
        assert_eq!(p, 7);
        assert!((d2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_matches_linear_scan() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let pts: Vec<Vec2> = (0..300)
            .map(|_| Vec2::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
            .collect();
        let mut tree = KdTree::new();
        for (i, p) in pts.iter().enumerate() {
            tree.insert(*p, i);
        }
        for _ in 0..100 {
            let q = Vec2::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
            let (got, got_d2) = tree.nearest(q).unwrap();
            let want = pts
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.distance_squared(q).partial_cmp(&b.distance_squared(q)).unwrap()
                })
                .unwrap()
                .0;
            assert!((got_d2 - pts[want].distance_squared(q)).abs() < 1e-12);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn radius_query_matches_linear_scan() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let pts: Vec<Vec2> = (0..200)
            .map(|_| Vec2::new(rng.gen_range(0.0..50.0), rng.gen_range(0.0..50.0)))
            .collect();
        let mut tree = KdTree::new();
        for (i, p) in pts.iter().enumerate() {
            tree.insert(*p, i);
        }
        let q = Vec2::new(25.0, 25.0);
        let r = 10.0;
        let mut got = tree.within_radius(q, r);
        got.sort_unstable();
        let want: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance_squared(q) <= r * r)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(got, want);
    }

    proptest! {
        #[test]
        fn prop_nearest_agrees_with_scan(
            pts in prop::collection::vec((-50.0..50.0f64, -50.0..50.0f64), 1..120),
            q in (-60.0..60.0f64, -60.0..60.0f64),
        ) {
            let pts: Vec<Vec2> = pts.into_iter().map(|(x, y)| Vec2::new(x, y)).collect();
            let q = Vec2::new(q.0, q.1);
            let mut tree = KdTree::new();
            for (i, p) in pts.iter().enumerate() {
                tree.insert(*p, i);
            }
            let (_, got_d2) = tree.nearest(q).unwrap();
            let want_d2 = pts.iter().map(|p| p.distance_squared(q)).fold(f64::INFINITY, f64::min);
            prop_assert!((got_d2 - want_d2).abs() < 1e-9);
        }
    }
}
