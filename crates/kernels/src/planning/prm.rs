//! The Probabilistic Roadmap (PRM) planner: build a reusable roadmap once,
//! answer many queries against it.
//!
//! PRM is the planner whose edge-validation phase is *embarrassingly
//! batchable* — all candidate edges are known before any is checked — which
//! makes it the showcase workload for the batched collision checker
//! (experiment E6 runs its roadmap construction both ways).

use super::collision::CollisionWorld;
use super::kdtree::KdTree;
use super::path::Path;
use crate::geometry::Vec2;
use rand::{Rng, SeedableRng};
use std::collections::BinaryHeap;

/// Tuning parameters for [`Prm`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrmConfig {
    /// Number of roadmap samples.
    pub samples: usize,
    /// Connection radius: samples closer than this get candidate edges.
    pub connection_radius: f64,
    /// Maximum candidate neighbors per sample.
    pub max_neighbors: usize,
}

impl Default for PrmConfig {
    fn default() -> Self {
        Self { samples: 500, connection_radius: 2.0, max_neighbors: 12 }
    }
}

/// A built probabilistic roadmap over one [`CollisionWorld`].
///
/// # Examples
///
/// ```
/// use m7_kernels::{CollisionWorld, Prm, PrmConfig, Vec2};
///
/// let world = CollisionWorld::new(10.0, 10.0);
/// let prm = Prm::build(&world, PrmConfig::default(), 17);
/// let path = prm.query(&world, Vec2::new(0.5, 0.5), Vec2::new(9.5, 9.5)).unwrap();
/// assert!(path.is_valid(&world));
/// ```
#[derive(Debug, Clone)]
pub struct Prm {
    config: PrmConfig,
    vertices: Vec<Vec2>,
    /// Adjacency list: `(neighbor, edge length)` pairs per vertex.
    edges: Vec<Vec<(usize, f64)>>,
    tree: KdTree,
    /// Number of segment collision checks spent building the roadmap.
    edge_checks: usize,
}

impl Prm {
    /// Builds a roadmap using the conventional one-edge-at-a-time scalar
    /// checker.
    ///
    /// Sampling gives up once `2 × samples` candidates in a row land in
    /// collision, so on a (nearly) fully obstructed world [`Prm::len`] may
    /// come out below `config.samples` — zero when nothing is free.
    #[must_use]
    pub fn build(world: &CollisionWorld, config: PrmConfig, seed: u64) -> Self {
        Self::build_inner(world, config, seed, false)
    }

    /// Builds an identical roadmap, validating all candidate edges through
    /// the batched structure-of-arrays checker.
    ///
    /// Sampling draws rounds of `2 × samples` candidates and gives up once
    /// a whole round has no free point, so as with [`Prm::build`],
    /// [`Prm::len`] may come out below `config.samples`.
    #[must_use]
    pub fn build_batched(world: &CollisionWorld, config: PrmConfig, seed: u64) -> Self {
        Self::build_inner(world, config, seed, true)
    }

    fn build_inner(world: &CollisionWorld, config: PrmConfig, seed: u64, batched: bool) -> Self {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let round = config.samples * 2;
        let mut sample =
            || Vec2::new(rng.gen_range(0.0..world.width()), rng.gen_range(0.0..world.height()));
        // Sample free configurations.
        let mut vertices = Vec::with_capacity(config.samples);
        if batched {
            // Batch the point checks too: oversample, filter in one pass.
            let batch = world.to_batch_checker();
            while vertices.len() < config.samples {
                let candidates: Vec<Vec2> = (0..round).map(|_| sample()).collect();
                let free = batch.points_free(&candidates);
                if !free.contains(&true) {
                    break;
                }
                for (p, ok) in candidates.into_iter().zip(free) {
                    if ok && vertices.len() < config.samples {
                        vertices.push(p);
                    }
                }
            }
        } else {
            let mut misses = 0;
            while vertices.len() < config.samples && misses < round {
                let p = sample();
                if world.point_free(p) {
                    vertices.push(p);
                    misses = 0;
                } else {
                    misses += 1;
                }
            }
        }

        let mut tree = KdTree::new();
        for (i, v) in vertices.iter().enumerate() {
            tree.insert(*v, i);
        }

        // Collect candidate edges.
        let mut candidates: Vec<(usize, usize)> = Vec::new();
        for (i, v) in vertices.iter().enumerate() {
            let mut nbrs = tree.within_radius(*v, config.connection_radius);
            nbrs.sort_by(|&a, &b| {
                vertices[a]
                    .distance_squared(*v)
                    .partial_cmp(&vertices[b].distance_squared(*v))
                    .expect("distances are finite")
            });
            for &j in nbrs.iter().filter(|&&j| j > i).take(config.max_neighbors) {
                candidates.push((i, j));
            }
        }

        // Validate candidate edges — the phase E6 measures both ways. The
        // scalar path uses the conventional resolution-sampled motion
        // validator (what a general-purpose planning library does); the
        // batched path checks the same edges exactly in one SoA sweep.
        let mut edges = vec![Vec::new(); vertices.len()];
        let edge_checks = candidates.len();
        let keep: Vec<bool> = if batched {
            let batch = world.to_batch_checker();
            let segs: Vec<(Vec2, Vec2)> =
                candidates.iter().map(|&(i, j)| (vertices[i], vertices[j])).collect();
            batch.segments_free(&segs)
        } else {
            candidates
                .iter()
                .map(|&(i, j)| world.segment_free_sampled(vertices[i], vertices[j], 0.05))
                .collect()
        };
        for (&(i, j), ok) in candidates.iter().zip(keep) {
            if ok {
                let len = vertices[i].distance(vertices[j]);
                edges[i].push((j, len));
                edges[j].push((i, len));
            }
        }

        Self { config, vertices, edges, tree, edge_checks }
    }

    /// Number of roadmap vertices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Returns `true` if the roadmap has no vertices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Number of segment collision checks spent during construction.
    #[must_use]
    pub fn edge_checks(&self) -> usize {
        self.edge_checks
    }

    /// Total number of (undirected) roadmap edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Queries the roadmap for a path from `start` to `goal` using Dijkstra
    /// search, connecting the endpoints to their nearest visible vertices.
    ///
    /// Returns `None` if either endpoint cannot connect or the endpoints lie
    /// in different roadmap components.
    #[must_use]
    pub fn query(&self, world: &CollisionWorld, start: Vec2, goal: Vec2) -> Option<Path> {
        let start_v = self.connect(world, start)?;
        let goal_v = self.connect(world, goal)?;
        let chain = self.dijkstra(start_v, goal_v)?;
        let mut pts = Vec::with_capacity(chain.len() + 2);
        pts.push(start);
        pts.extend(chain.into_iter().map(|i| self.vertices[i]));
        pts.push(goal);
        Some(Path::new(pts))
    }

    /// Finds the nearest roadmap vertex visible from `p`.
    fn connect(&self, world: &CollisionWorld, p: Vec2) -> Option<usize> {
        if !world.point_free(p) {
            return None;
        }
        let mut nbrs = self.tree.within_radius(p, self.config.connection_radius * 2.0);
        nbrs.sort_by(|&a, &b| {
            self.vertices[a]
                .distance_squared(p)
                .partial_cmp(&self.vertices[b].distance_squared(p))
                .expect("distances are finite")
        });
        nbrs.into_iter().find(|&v| world.segment_free(p, self.vertices[v]))
    }

    fn dijkstra(&self, from: usize, to: usize) -> Option<Vec<usize>> {
        #[derive(PartialEq)]
        struct Entry {
            cost: f64,
            vertex: usize,
        }
        impl Eq for Entry {}
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> core::cmp::Ordering {
                // Min-heap on cost.
                other.cost.partial_cmp(&self.cost).expect("costs are finite")
            }
        }
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        let n = self.vertices.len();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev = vec![usize::MAX; n];
        let mut heap = BinaryHeap::new();
        dist[from] = 0.0;
        heap.push(Entry { cost: 0.0, vertex: from });
        while let Some(Entry { cost, vertex }) = heap.pop() {
            if vertex == to {
                break;
            }
            if cost > dist[vertex] {
                continue;
            }
            for &(nb, len) in &self.edges[vertex] {
                let next = cost + len;
                if next < dist[nb] {
                    dist[nb] = next;
                    prev[nb] = vertex;
                    heap.push(Entry { cost: next, vertex: nb });
                }
            }
        }
        if dist[to].is_infinite() {
            return None;
        }
        let mut chain = vec![to];
        let mut cursor = to;
        while cursor != from {
            cursor = prev[cursor];
            chain.push(cursor);
        }
        chain.reverse();
        Some(chain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_queries_empty_world() {
        let world = CollisionWorld::new(10.0, 10.0);
        let prm = Prm::build(&world, PrmConfig::default(), 1);
        assert_eq!(prm.len(), 500);
        assert!(prm.edge_count() > 0);
        let p = prm.query(&world, Vec2::new(0.5, 0.5), Vec2::new(9.5, 9.5)).unwrap();
        assert!(p.is_valid(&world));
        assert_eq!(p.start(), Vec2::new(0.5, 0.5));
        assert_eq!(p.goal(), Vec2::new(9.5, 9.5));
    }

    #[test]
    fn batched_build_matches_scalar_topology() {
        let mut world = CollisionWorld::new(15.0, 15.0);
        world.scatter_circles(8, 0.5, 1.5, 4);
        let a = Prm::build(&world, PrmConfig::default(), 2);
        let b = Prm::build_batched(&world, PrmConfig::default(), 2);
        // Different sampling loops draw different vertices, but both must
        // produce connected, queryable roadmaps of the same size and both
        // must spend candidate-edge checks.
        assert_eq!(a.len(), b.len());
        assert!(a.edge_checks() > 0);
        assert!(b.edge_checks() > 0);
    }

    #[test]
    fn fully_covered_world_yields_an_empty_roadmap() {
        // Both builds run on a worker thread; the test thread only waits,
        // so a sampler that never gives up fails here instead of hanging.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut world = CollisionWorld::new(10.0, 10.0);
            world.add_rect(Vec2::new(-1.0, -1.0), Vec2::new(11.0, 11.0));
            let config = PrmConfig { samples: 50, ..PrmConfig::default() };
            for prm in [Prm::build(&world, config, 1), Prm::build_batched(&world, config, 1)] {
                let path = prm.query(&world, Vec2::new(1.0, 1.0), Vec2::new(9.0, 9.0));
                tx.send((prm.len(), prm.edge_count(), path.is_none())).unwrap();
            }
        });
        for _ in 0..2 {
            let got = rx
                .recv_timeout(std::time::Duration::from_secs(30))
                .expect("PRM build on a fully covered world must return");
            assert_eq!(got, (0, 0, true));
        }
    }

    #[test]
    fn respects_walls() {
        let mut world = CollisionWorld::new(10.0, 10.0);
        world.add_rect(Vec2::new(4.5, 0.0), Vec2::new(5.5, 10.0));
        let prm = Prm::build(&world, PrmConfig { samples: 800, ..PrmConfig::default() }, 3);
        // Full wall: no crossing path exists.
        assert!(prm.query(&world, Vec2::new(1.0, 5.0), Vec2::new(9.0, 5.0)).is_none());
    }

    #[test]
    fn gap_in_wall_is_found() {
        let mut world = CollisionWorld::new(10.0, 10.0);
        world.add_rect(Vec2::new(4.5, 0.0), Vec2::new(5.5, 8.0));
        let prm = Prm::build(&world, PrmConfig { samples: 1200, ..PrmConfig::default() }, 3);
        let p = prm
            .query(&world, Vec2::new(1.0, 5.0), Vec2::new(9.0, 5.0))
            .expect("gap above the wall");
        assert!(p.is_valid(&world));
        assert!(p.waypoints().iter().any(|w| w.y > 7.5));
    }

    #[test]
    fn blocked_endpoint_fails() {
        let mut world = CollisionWorld::new(10.0, 10.0);
        world.add_circle(Vec2::new(9.0, 9.0), 1.0);
        let prm = Prm::build(&world, PrmConfig::default(), 6);
        assert!(prm.query(&world, Vec2::new(1.0, 1.0), Vec2::new(9.0, 9.0)).is_none());
    }

    #[test]
    fn deterministic_build() {
        let world = CollisionWorld::new(10.0, 10.0);
        let a = Prm::build(&world, PrmConfig::default(), 12);
        let b = Prm::build(&world, PrmConfig::default(), 12);
        assert_eq!(a.vertices, b.vertices);
        assert_eq!(a.edge_count(), b.edge_count());
    }
}
