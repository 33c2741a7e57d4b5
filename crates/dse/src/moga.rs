//! Multi-objective genetic search (NSGA-II-lite): non-dominated sorting
//! plus crowding-distance selection over a discrete design space.
//!
//! Where [`crate::Explorer`] optimizes one scalar,
//! [`nsga2`] evolves a whole latency/energy/area front at once — the
//! honest output for accelerator design studies (paper Challenge 2).

use crate::memo::dedup_indices;
use crate::pareto::pareto_front;
use crate::space::{DesignSpace, PointIndex};
use m7_trace::{MetricClass, SpanSite, TraceCounter, TraceGauge};
use rand::{Rng, SeedableRng};

// Multi-objective search observability (no-ops until
// `m7_trace::enable()`). Selection and breeding are serial, so the
// front and generation counts are seed-deterministic.
static NSGA2_SPAN: SpanSite = SpanSite::new("dse.nsga2", MetricClass::Deterministic);
static NSGA2_GENERATIONS: TraceCounter =
    TraceCounter::new("dse.nsga2.generations", MetricClass::Deterministic);
static FRONT_SIZE: TraceGauge =
    TraceGauge::new("dse.pareto.front_size", MetricClass::Deterministic);

/// A multi-objective cost function: every objective is minimized.
pub trait MultiObjective {
    /// Evaluates all objectives for one design's level values.
    fn evaluate(&self, values: &[f64]) -> Vec<f64>;
}

impl<F: Fn(&[f64]) -> Vec<f64>> MultiObjective for F {
    fn evaluate(&self, values: &[f64]) -> Vec<f64> {
        self(values)
    }
}

/// One member of the final front.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontMember {
    /// Design point (level indices).
    pub point: PointIndex,
    /// Concrete level values.
    pub values: Vec<f64>,
    /// Objective vector.
    pub objectives: Vec<f64>,
}

/// Assigns non-domination ranks (0 = best front) to objective vectors.
fn rank_population(objectives: &[Vec<f64>]) -> Vec<usize> {
    let mut ranks = vec![usize::MAX; objectives.len()];
    let mut remaining: Vec<usize> = (0..objectives.len()).collect();
    let mut rank = 0usize;
    while !remaining.is_empty() {
        let subset: Vec<Vec<f64>> = remaining.iter().map(|&i| objectives[i].clone()).collect();
        let front = pareto_front(&subset);
        let front_ids: Vec<usize> = front.iter().map(|&k| remaining[k]).collect();
        for &i in &front_ids {
            ranks[i] = rank;
        }
        remaining.retain(|i| !front_ids.contains(i));
        rank += 1;
    }
    ranks
}

/// Crowding distance within one rank (larger = more isolated = preferred).
fn crowding(objectives: &[Vec<f64>], members: &[usize]) -> Vec<f64> {
    let mut distance = vec![0.0f64; members.len()];
    if members.len() <= 2 {
        return vec![f64::INFINITY; members.len()];
    }
    let dims = objectives[members[0]].len();
    #[allow(clippy::needless_range_loop)]
    for d in 0..dims {
        let mut order: Vec<usize> = (0..members.len()).collect();
        order.sort_by(|&a, &b| {
            objectives[members[a]][d]
                .partial_cmp(&objectives[members[b]][d])
                .expect("finite objectives")
        });
        let lo = objectives[members[order[0]]][d];
        let hi = objectives[members[*order.last().expect("nonempty")]][d];
        let span = (hi - lo).max(1e-12);
        distance[order[0]] = f64::INFINITY;
        distance[*order.last().expect("nonempty")] = f64::INFINITY;
        for w in 1..order.len() - 1 {
            let prev = objectives[members[order[w - 1]]][d];
            let next = objectives[members[order[w + 1]]][d];
            distance[order[w]] += (next - prev) / span;
        }
    }
    distance
}

/// Runs NSGA-II-lite for `generations` over a population of `population`,
/// returning the final non-dominated front (deduplicated by design
/// point). Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `population < 4`.
///
/// # Examples
///
/// ```
/// use m7_dse::{nsga2, DesignSpace, Dimension};
///
/// let space = DesignSpace::new(vec![
///     Dimension::new("x", (0..16).map(|i| i as f64).collect()),
/// ]);
/// // Trade-off: f0 = x, f1 = 15 - x. Every point is Pareto-optimal.
/// let front = nsga2(&space, &|v: &[f64]| vec![v[0], 15.0 - v[0]], 20, 24, 1);
/// assert!(front.len() > 8, "most of the trade-off line should be found");
/// ```
#[must_use]
pub fn nsga2(
    space: &DesignSpace,
    objective: &dyn MultiObjective,
    generations: usize,
    population: usize,
    seed: u64,
) -> Vec<FrontMember> {
    assert!(population >= 4, "population must be at least 4");
    let _span = NSGA2_SPAN.enter();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    // Duplicate genotypes within a generation (common once the front
    // converges) are scored once and the vector is scattered back — the
    // returned batch is identical, only fewer objective calls run.
    // Scoring is serial: on a 2-vCPU host, `accelerator_codesign`'s
    // 40 × 32 run took 29–33 ms this way and 34–37 ms on two threads.
    let evaluate_batch = |ps: &[PointIndex]| -> Vec<Vec<f64>> {
        let (unique, assign) = dedup_indices(ps);
        let unique_objs: Vec<Vec<f64>> =
            unique.iter().map(|&i| objective.evaluate(&space.values(&ps[i]))).collect();
        assign.into_iter().map(|u| unique_objs[u].clone()).collect()
    };

    let mut points: Vec<PointIndex> = (0..population).map(|_| space.sample(&mut rng)).collect();
    let mut objs: Vec<Vec<f64>> = evaluate_batch(&points);

    for _ in 0..generations {
        NSGA2_GENERATIONS.incr();
        // Produce offspring: binary tournament on (rank, crowding).
        let ranks = rank_population(&objs);
        let mut crowd = vec![0.0f64; points.len()];
        let max_rank = ranks.iter().copied().max().unwrap_or(0);
        for r in 0..=max_rank {
            let members: Vec<usize> = (0..points.len()).filter(|&i| ranks[i] == r).collect();
            for (k, &m) in members.iter().enumerate() {
                crowd[m] = crowding(&objs, &members)[k];
            }
        }
        let pick = |rng: &mut rand_chacha::ChaCha8Rng| {
            let a = rng.gen_range(0..points.len());
            let b = rng.gen_range(0..points.len());
            if (ranks[a], std::cmp::Reverse(ordered(crowd[a])))
                < (ranks[b], std::cmp::Reverse(ordered(crowd[b])))
            {
                a
            } else {
                b
            }
        };
        let mut children: Vec<PointIndex> = Vec::with_capacity(population);
        while children.len() < population {
            let pa = pick(&mut rng);
            let pb = pick(&mut rng);
            let mut child = space.crossover(&points[pa], &points[pb], &mut rng);
            if rng.gen_bool(0.4) {
                child = space.neighbor(&child, &mut rng);
            }
            children.push(child);
        }
        let child_objs: Vec<Vec<f64>> = evaluate_batch(&children);

        // Environmental selection over parents + children.
        points.extend(children);
        objs.extend(child_objs);
        let ranks = rank_population(&objs);
        let mut order: Vec<usize> = (0..points.len()).collect();
        // Precompute crowding per rank.
        let mut crowd = vec![0.0f64; points.len()];
        let max_rank = ranks.iter().copied().max().unwrap_or(0);
        for r in 0..=max_rank {
            let members: Vec<usize> = (0..points.len()).filter(|&i| ranks[i] == r).collect();
            for (k, &m) in members.iter().enumerate() {
                crowd[m] = crowding(&objs, &members)[k];
            }
        }
        order.sort_by(|&a, &b| {
            ranks[a]
                .cmp(&ranks[b])
                .then_with(|| ordered(crowd[b]).partial_cmp(&ordered(crowd[a])).expect("ordered"))
        });
        order.truncate(population);
        points = order.iter().map(|&i| points[i].clone()).collect();
        objs = order.iter().map(|&i| objs[i].clone()).collect();
    }

    // Final front, deduplicated by design point.
    let front = pareto_front(&objs);
    let mut out: Vec<FrontMember> = Vec::new();
    for &i in &front {
        if out.iter().any(|m| m.point == points[i]) {
            continue;
        }
        out.push(FrontMember {
            point: points[i].clone(),
            values: space.values(&points[i]),
            objectives: objs[i].clone(),
        });
    }
    FRONT_SIZE.set(out.len() as u64);
    out
}

/// Maps possibly-infinite crowding distances to a totally ordered float.
fn ordered(v: f64) -> f64 {
    if v.is_nan() {
        0.0
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Dimension;

    fn grid(n: usize) -> DesignSpace {
        DesignSpace::new(vec![
            Dimension::new("x", (0..n).map(|i| i as f64).collect()),
            Dimension::new("y", (0..n).map(|i| i as f64).collect()),
        ])
    }

    /// A classic convex two-objective problem: f0 = x, f1 distance-like.
    fn bi_objective(v: &[f64]) -> Vec<f64> {
        let x = v[0];
        let y = v[1];
        vec![x + 0.1 * y, (15.0 - x) + 0.1 * (15.0 - y)]
    }

    #[test]
    fn front_is_mutually_nondominated() {
        let space = grid(16);
        let front = nsga2(&space, &bi_objective, 25, 20, 3);
        assert!(!front.is_empty());
        for a in &front {
            for b in &front {
                if a.point == b.point {
                    continue;
                }
                let dominates = b.objectives.iter().zip(&a.objectives).all(|(x, y)| x <= y)
                    && b.objectives.iter().zip(&a.objectives).any(|(x, y)| x < y);
                assert!(!dominates, "front member dominated");
            }
        }
    }

    #[test]
    fn front_matches_exhaustive_on_small_space() {
        // f1 strictly worsens with y, so only the y = 0 row can be optimal:
        // the true front is small and fully coverable.
        fn curved(v: &[f64]) -> Vec<f64> {
            let x = v[0];
            let y = v[1];
            vec![x, (7.0 - x) * (7.0 - x) + y]
        }
        let space = grid(8);
        // Exhaustive true front.
        let all: Vec<Vec<f64>> =
            space.enumerate().iter().map(|p| curved(&space.values(p))).collect();
        let true_front = pareto_front(&all);
        let true_set: Vec<&Vec<f64>> = true_front.iter().map(|&i| &all[i]).collect();

        let found = nsga2(&space, &curved, 40, 24, 5);
        // Every found member must be on (or tie with) the true front.
        for m in &found {
            let on_true = true_set
                .iter()
                .any(|t| t.iter().zip(&m.objectives).all(|(a, b)| (a - b).abs() < 1e-12));
            assert!(on_true, "found member {:?} is not truly optimal", m.objectives);
        }
        assert!(found.len() >= true_set.len() / 2, "should recover most of the front");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let space = grid(12);
        let a = nsga2(&space, &bi_objective, 15, 16, 7);
        let b = nsga2(&space, &bi_objective, 15, 16, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn single_objective_degenerates_to_minimum() {
        let space = grid(10);
        let front = nsga2(&space, &|v: &[f64]| vec![v[0] + v[1]], 30, 16, 2);
        assert_eq!(front.len(), 1, "a scalar objective has a single optimum");
        assert_eq!(front[0].objectives, vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "population")]
    fn rejects_tiny_population() {
        let space = grid(4);
        let _ = nsga2(&space, &bi_objective, 1, 2, 0);
    }
}
