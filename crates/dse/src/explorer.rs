//! Search strategies over discrete design spaces: exhaustive, random,
//! simulated annealing, genetic, and surrogate-guided (the ML-for-design
//! strategy of paper §3.1).
//!
//! Every search is memoized: objective evaluations go through an
//! [`EvalMemo`], so a design seen before is answered from its store.
//! The strategies that evaluate designs in batches (exhaustive, random,
//! genetic generations) run those batches through the [`m7_par`]
//! deterministic pool, since each item is a whole objective evaluation:
//! results are bit-identical for any thread count, so a search seeded
//! with `s` returns the same [`SearchResult`] at `M7_THREADS=1` and
//! `M7_THREADS=64`. Annealing and surrogate guidance evaluate one design
//! at a time.

use crate::memo::EvalMemo;
use crate::space::{DesignSpace, PointIndex};
use crate::surrogate::Forest;
use m7_par::ParConfig;
use m7_serve::{EvalCache, ResultStore};
use m7_trace::{MetricClass, SpanSite, TraceCounter, TraceHistogram};
use rand::{Rng, SeedableRng};

// Search-lifecycle observability (no-ops until `m7_trace::enable()`).
// Every search decision — which points are evaluated, which batches are
// deduped, which memo probes hit — is a pure function of (space,
// objective, budget, seed), so all DSE metrics are deterministic.
static SEARCH_SPAN: SpanSite = SpanSite::new("dse.search", MetricClass::Deterministic);
static SEARCHES: TraceCounter = TraceCounter::new("dse.searches", MetricClass::Deterministic);
static EVALUATIONS: TraceCounter = TraceCounter::new("dse.evaluations", MetricClass::Deterministic);
static GENERATIONS: TraceCounter = TraceCounter::new("dse.generations", MetricClass::Deterministic);
static BATCH_ITEMS: TraceHistogram =
    TraceHistogram::new("dse.batch_items", MetricClass::Deterministic);
static MEMO_HITS: TraceCounter = TraceCounter::new("dse.memo.hits", MetricClass::Deterministic);
static MEMO_COALESCED: TraceCounter =
    TraceCounter::new("dse.memo.coalesced", MetricClass::Deterministic);

/// A design objective to *minimize* (e.g. mission energy per meter, or a
/// weighted cost).
///
/// Implementors receive the concrete level values of a design point.
pub trait Objective: Sync {
    /// Evaluates the cost of one design (lower is better).
    fn evaluate(&self, values: &[f64]) -> f64;
}

impl<F: Fn(&[f64]) -> f64 + Sync> Objective for F {
    fn evaluate(&self, values: &[f64]) -> f64 {
        self(values)
    }
}

/// Evaluation budget for a search run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchBudget {
    /// Maximum number of objective evaluations.
    pub max_evaluations: usize,
}

impl SearchBudget {
    /// Creates a budget.
    ///
    /// # Panics
    ///
    /// Panics if `max_evaluations` is zero.
    #[must_use]
    pub fn new(max_evaluations: usize) -> Self {
        assert!(max_evaluations > 0, "budget must allow at least one evaluation");
        Self { max_evaluations }
    }
}

/// The outcome of one search run.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// Index form of the best design found.
    pub best_point: PointIndex,
    /// Concrete level values of the best design.
    pub best_values: Vec<f64>,
    /// Objective value of the best design.
    pub best_cost: f64,
    /// Objective evaluations actually spent.
    pub evaluations: usize,
    /// Best-so-far cost after each evaluation — the sample-efficiency
    /// curve of experiment E9.
    pub trace: Vec<f64>,
}

/// A search strategy.
#[derive(Debug, Clone, PartialEq)]
pub enum Explorer {
    /// Evaluate every point (or the first `budget` points).
    Exhaustive,
    /// Uniform random sampling.
    Random,
    /// Simulated annealing over the neighbor graph.
    Annealing {
        /// Initial temperature (in objective units).
        initial_temperature: f64,
        /// Multiplicative cooling per step, in `(0, 1)`.
        cooling: f64,
    },
    /// A (μ + 1) genetic algorithm with tournament selection.
    Genetic {
        /// Population size.
        population: usize,
        /// Per-child probability of a mutation step.
        mutation_rate: f64,
    },
    /// Surrogate-guided search: random warm-up, then lower-confidence-bound
    /// acquisition over a bagged-tree model.
    SurrogateGuided {
        /// Random evaluations before the first model fit.
        warmup: usize,
        /// Candidate pool scored by the model per acquisition round.
        candidates: usize,
        /// Exploration weight on the model's uncertainty.
        kappa: f64,
    },
}

impl Explorer {
    /// A reasonable default annealing schedule.
    #[must_use]
    pub fn annealing() -> Self {
        Self::Annealing { initial_temperature: 1.0, cooling: 0.98 }
    }

    /// A reasonable default genetic configuration.
    #[must_use]
    pub fn genetic() -> Self {
        Self::Genetic { population: 16, mutation_rate: 0.3 }
    }

    /// A reasonable default surrogate-guided configuration.
    #[must_use]
    pub fn surrogate() -> Self {
        Self::SurrogateGuided { warmup: 10, candidates: 64, kappa: 1.0 }
    }

    /// Strategy name for reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Exhaustive => "exhaustive",
            Self::Random => "random",
            Self::Annealing { .. } => "annealing",
            Self::Genetic { .. } => "genetic",
            Self::SurrogateGuided { .. } => "surrogate",
        }
    }

    /// Runs the search, deterministic in `seed`.
    ///
    /// Memoized through a private [`EvalCache`] sized to the budget, so a
    /// design the search revisits is not evaluated again; see
    /// [`Explorer::run_memoized`] to share a store across searches.
    ///
    /// # Examples
    ///
    /// ```
    /// use m7_dse::{DesignSpace, Dimension, Explorer, SearchBudget};
    ///
    /// let space = DesignSpace::new(vec![
    ///     Dimension::new("x", (0..10).map(f64::from).collect()),
    ///     Dimension::new("y", (0..10).map(f64::from).collect()),
    /// ]);
    /// // Minimize distance to (7, 3).
    /// let objective = |v: &[f64]| (v[0] - 7.0).powi(2) + (v[1] - 3.0).powi(2);
    /// let result = Explorer::Exhaustive.run(&space, &objective, SearchBudget::new(100), 1);
    /// assert_eq!(result.best_values, vec![7.0, 3.0]);
    /// ```
    #[must_use]
    pub fn run(
        &self,
        space: &DesignSpace,
        objective: &dyn Objective,
        budget: SearchBudget,
        seed: u64,
    ) -> SearchResult {
        let cache = EvalCache::new(budget.max_evaluations);
        let memo = EvalMemo::new(&cache, 0);
        self.run_memoized(space, objective, budget, seed, ParConfig::default(), &memo)
    }

    /// Runs the search with objective evaluations memoized through
    /// `memo`'s content-addressed store.
    ///
    /// The returned [`SearchResult`] does not depend on what the store
    /// already holds — objectives are pure, so the store changes only how
    /// many times the objective is invoked (read the savings off the
    /// store's hit counters) — nor on `par`, which changes only
    /// wall-clock time. Successive searches sharing one memo (as in
    /// experiment E9) reuse each other's evaluations — and with a
    /// disk-backed [`m7_serve::TieredCache`] behind the memo, so do
    /// successive *processes*.
    #[must_use]
    pub fn run_memoized<S: ResultStore<f64>>(
        &self,
        space: &DesignSpace,
        objective: &dyn Objective,
        budget: SearchBudget,
        seed: u64,
        par: ParConfig,
        memo: &EvalMemo<'_, S>,
    ) -> SearchResult {
        let _span = SEARCH_SPAN.enter();
        SEARCHES.incr();
        let result = match self {
            Self::Exhaustive => Self::run_exhaustive(space, objective, budget, par, memo),
            Self::Random => Self::run_random(space, objective, budget, seed, par, memo),
            Self::Annealing { initial_temperature, cooling } => Self::run_annealing(
                space,
                objective,
                budget,
                seed,
                *initial_temperature,
                *cooling,
                memo,
            ),
            Self::Genetic { population, mutation_rate } => Self::run_genetic(
                space,
                objective,
                budget,
                seed,
                *population,
                *mutation_rate,
                par,
                memo,
            ),
            Self::SurrogateGuided { warmup, candidates, kappa } => Self::run_surrogate(
                space,
                objective,
                budget,
                seed,
                *warmup,
                *candidates,
                *kappa,
                memo,
            ),
        };
        EVALUATIONS.add(result.evaluations as u64);
        result
    }

    /// Evaluates a batch of points through the deterministic pool,
    /// dispatching each *distinct* design exactly once.
    ///
    /// [`m7_serve::evaluate_batch_memo`] coalesces the duplicates of an
    /// unseen genotype within the batch (common in late GA generations)
    /// onto one dispatch, and answers every slot of a previously seen
    /// design from the memo.
    /// Each design's cost still lands in the slot of its input index, so
    /// the output is identical to the serial `points.iter().map(...)`
    /// loop for any thread count and any store contents.
    fn evaluate_batch<S: ResultStore<f64>>(
        space: &DesignSpace,
        objective: &dyn Objective,
        points: &[PointIndex],
        par: ParConfig,
        memo: &EvalMemo<'_, S>,
    ) -> Vec<f64> {
        BATCH_ITEMS.record(points.len() as u64);
        let (costs, outcome) = m7_serve::evaluate_batch_memo(
            memo.cache(),
            par,
            points,
            |p| memo.key(&space.values(p)),
            |p| objective.evaluate(&space.values(p)),
        );
        MEMO_HITS.add(outcome.cache_hits as u64);
        MEMO_COALESCED.add(outcome.coalesced as u64);
        costs
    }

    /// Evaluates one design from its concrete values, through the memo.
    fn eval_one<S: ResultStore<f64>>(
        objective: &dyn Objective,
        values: &[f64],
        memo: &EvalMemo<'_, S>,
    ) -> f64 {
        memo.cost_or_insert_with(values, || objective.evaluate(values))
    }

    fn collect(points: Vec<PointIndex>, costs: Vec<f64>, space: &DesignSpace) -> SearchResult {
        let mut best = 0usize;
        let mut trace = Vec::with_capacity(costs.len());
        let mut best_so_far = f64::INFINITY;
        for (i, &c) in costs.iter().enumerate() {
            if c < costs[best] {
                best = i;
            }
            best_so_far = best_so_far.min(c);
            trace.push(best_so_far);
        }
        SearchResult {
            best_values: space.values(&points[best]),
            best_point: points[best].clone(),
            best_cost: costs[best],
            evaluations: costs.len(),
            trace,
        }
    }

    fn run_exhaustive<S: ResultStore<f64>>(
        space: &DesignSpace,
        objective: &dyn Objective,
        budget: SearchBudget,
        par: ParConfig,
        memo: &EvalMemo<'_, S>,
    ) -> SearchResult {
        let mut points = space.enumerate();
        points.truncate(budget.max_evaluations);
        let costs = Self::evaluate_batch(space, objective, &points, par, memo);
        Self::collect(points, costs, space)
    }

    fn run_random<S: ResultStore<f64>>(
        space: &DesignSpace,
        objective: &dyn Objective,
        budget: SearchBudget,
        seed: u64,
        par: ParConfig,
        memo: &EvalMemo<'_, S>,
    ) -> SearchResult {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let points: Vec<PointIndex> =
            (0..budget.max_evaluations).map(|_| space.sample(&mut rng)).collect();
        let costs = Self::evaluate_batch(space, objective, &points, par, memo);
        Self::collect(points, costs, space)
    }

    fn run_annealing<S: ResultStore<f64>>(
        space: &DesignSpace,
        objective: &dyn Objective,
        budget: SearchBudget,
        seed: u64,
        t0: f64,
        cooling: f64,
        memo: &EvalMemo<'_, S>,
    ) -> SearchResult {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut current = space.sample(&mut rng);
        let mut current_cost = Self::eval_one(objective, &space.values(&current), memo);
        let mut best = current.clone();
        let mut best_cost = current_cost;
        let mut trace = vec![best_cost];
        let mut temperature = t0 * current_cost.abs().max(1e-9);
        for _ in 1..budget.max_evaluations {
            let candidate = space.neighbor(&current, &mut rng);
            let cost = Self::eval_one(objective, &space.values(&candidate), memo);
            let accept = cost <= current_cost || {
                let delta = cost - current_cost;
                rng.gen_bool((-delta / temperature.max(1e-12)).exp().clamp(0.0, 1.0))
            };
            if accept {
                current = candidate;
                current_cost = cost;
            }
            if cost < best_cost {
                best_cost = cost;
                best = current.clone();
            }
            trace.push(best_cost);
            temperature *= cooling;
        }
        SearchResult {
            best_values: space.values(&best),
            best_point: best,
            best_cost,
            evaluations: trace.len(),
            trace,
        }
    }

    /// A (μ + λ) generational genetic algorithm.
    ///
    /// Each generation breeds a full batch of `population` children
    /// (RNG-driven selection runs serially so the child set is a pure
    /// function of the seed), evaluates the batch through the
    /// deterministic pool, then folds the results back into the parent
    /// pool in index order. Parallelism changes wall-clock only.
    #[allow(clippy::too_many_arguments)]
    fn run_genetic<S: ResultStore<f64>>(
        space: &DesignSpace,
        objective: &dyn Objective,
        budget: SearchBudget,
        seed: u64,
        population: usize,
        mutation_rate: f64,
        par: ParConfig,
        memo: &EvalMemo<'_, S>,
    ) -> SearchResult {
        let population = population.max(2).min(budget.max_evaluations);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);

        let seeds: Vec<PointIndex> = (0..population).map(|_| space.sample(&mut rng)).collect();
        let seed_costs = Self::evaluate_batch(space, objective, &seeds, par, memo);
        let mut pool: Vec<(PointIndex, f64)> = seeds.into_iter().zip(seed_costs).collect();

        let mut trace: Vec<f64> = Vec::with_capacity(budget.max_evaluations);
        let mut best_so_far = f64::INFINITY;
        for (_, c) in &pool {
            best_so_far = best_so_far.min(*c);
            trace.push(best_so_far);
        }

        while trace.len() < budget.max_evaluations {
            GENERATIONS.incr();
            let lambda = population.min(budget.max_evaluations - trace.len());
            // Breed the whole generation serially: the child set depends
            // only on the seed, never on evaluation scheduling.
            let pick = |rng: &mut rand_chacha::ChaCha8Rng| {
                let a = rng.gen_range(0..pool.len());
                let b = rng.gen_range(0..pool.len());
                if pool[a].1 <= pool[b].1 {
                    a
                } else {
                    b
                }
            };
            let children: Vec<PointIndex> = (0..lambda)
                .map(|_| {
                    let pa = pick(&mut rng);
                    let pb = pick(&mut rng);
                    let mut child = space.crossover(&pool[pa].0, &pool[pb].0, &mut rng);
                    if rng.gen_bool(mutation_rate.clamp(0.0, 1.0)) {
                        child = space.neighbor(&child, &mut rng);
                    }
                    child
                })
                .collect();

            let costs = Self::evaluate_batch(space, objective, &children, par, memo);

            // Fold children back in deterministic index order.
            for (child, cost) in children.into_iter().zip(costs) {
                best_so_far = best_so_far.min(cost);
                trace.push(best_so_far);
                let worst = (0..pool.len())
                    .max_by(|&a, &b| pool[a].1.partial_cmp(&pool[b].1).expect("finite costs"))
                    .expect("pool is nonempty");
                if cost < pool[worst].1 {
                    pool[worst] = (child, cost);
                }
            }
        }
        let best = pool
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite costs"))
            .expect("pool is nonempty");
        SearchResult {
            best_values: space.values(&best.0),
            best_point: best.0.clone(),
            best_cost: best.1,
            evaluations: trace.len(),
            trace,
        }
    }

    /// Surrogate-guided search: each round fits a forest to every design
    /// evaluated so far and spends one evaluation on the candidate with
    /// the lowest confidence bound.
    ///
    /// Candidates are scored serially: on a 2-vCPU host, 64 of them
    /// against a 16-tree forest score in ~20 µs on one thread and ~50 µs
    /// on two.
    #[allow(clippy::too_many_arguments)]
    fn run_surrogate<S: ResultStore<f64>>(
        space: &DesignSpace,
        objective: &dyn Objective,
        budget: SearchBudget,
        seed: u64,
        warmup: usize,
        candidates: usize,
        kappa: f64,
        memo: &EvalMemo<'_, S>,
    ) -> SearchResult {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let warmup = warmup.clamp(2, budget.max_evaluations);
        let mut evaluated: Vec<(PointIndex, Vec<f64>, f64)> = Vec::new();
        let mut trace = Vec::with_capacity(budget.max_evaluations);
        let mut best_so_far = f64::INFINITY;
        let spend = |point: PointIndex,
                     evaluated: &mut Vec<(PointIndex, Vec<f64>, f64)>,
                     trace: &mut Vec<f64>,
                     best_so_far: &mut f64| {
            let values = space.values(&point);
            let cost = Self::eval_one(objective, &values, memo);
            *best_so_far = best_so_far.min(cost);
            trace.push(*best_so_far);
            evaluated.push((point, values, cost));
        };
        for _ in 0..warmup {
            let p = space.sample(&mut rng);
            spend(p, &mut evaluated, &mut trace, &mut best_so_far);
        }
        while trace.len() < budget.max_evaluations {
            GENERATIONS.incr();
            let xs: Vec<Vec<f64>> = evaluated.iter().map(|(_, v, _)| v.clone()).collect();
            let ys: Vec<f64> = evaluated.iter().map(|(_, _, c)| *c).collect();
            let forest = Forest::fit(&xs, &ys, 16, 6, seed ^ trace.len() as u64);
            // Score a fresh candidate pool by lower confidence bound; the
            // winner is the first index attaining the minimum.
            let pool: Vec<PointIndex> = (0..candidates)
                .map(|_| space.sample(&mut rng))
                .filter(|p| !evaluated.iter().any(|(q, _, _)| q == p))
                .collect();
            let mut best_candidate: Option<(usize, f64)> = None;
            for (i, p) in pool.iter().enumerate() {
                let (mean, std) = forest.predict_with_uncertainty(&space.values(p));
                let lcb = mean - kappa * std;
                if best_candidate.is_none_or(|(_, s)| lcb < s) {
                    best_candidate = Some((i, lcb));
                }
            }
            let next = match best_candidate {
                Some((i, _)) => pool[i].clone(),
                None => space.sample(&mut rng),
            };
            spend(next, &mut evaluated, &mut trace, &mut best_so_far);
        }
        let best = evaluated
            .iter()
            .min_by(|a, b| a.2.partial_cmp(&b.2).expect("finite costs"))
            .expect("warmup guarantees evaluations");
        SearchResult {
            best_point: best.0.clone(),
            best_values: best.1.clone(),
            best_cost: best.2,
            evaluations: trace.len(),
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Dimension;

    fn grid_space(n: usize) -> DesignSpace {
        DesignSpace::new(vec![
            Dimension::new("x", (0..n).map(|i| i as f64).collect()),
            Dimension::new("y", (0..n).map(|i| i as f64).collect()),
        ])
    }

    /// A rugged objective with global minimum at (12, 4).
    fn rugged(v: &[f64]) -> f64 {
        let dx = v[0] - 12.0;
        let dy = v[1] - 4.0;
        dx * dx + dy * dy + 3.0 * ((v[0] * 0.9).sin() + (v[1] * 1.3).cos())
    }

    #[test]
    fn exhaustive_finds_global_minimum() {
        let space = grid_space(16);
        let full = Explorer::Exhaustive.run(&space, &rugged, SearchBudget::new(256), 0);
        assert_eq!(full.evaluations, 256);
        // Verify optimality against a manual scan.
        let manual = space
            .enumerate()
            .into_iter()
            .map(|p| rugged(&space.values(&p)))
            .fold(f64::INFINITY, f64::min);
        assert!((full.best_cost - manual).abs() < 1e-12);
    }

    #[test]
    fn traces_are_monotone_nonincreasing() {
        let space = grid_space(16);
        for explorer in
            [Explorer::Random, Explorer::annealing(), Explorer::genetic(), Explorer::surrogate()]
        {
            let r = explorer.run(&space, &rugged, SearchBudget::new(60), 3);
            assert_eq!(r.evaluations, 60, "{}", explorer.name());
            for w in r.trace.windows(2) {
                assert!(w[1] <= w[0], "{} trace must be non-increasing", explorer.name());
            }
            assert_eq!(*r.trace.last().unwrap(), r.best_cost);
        }
    }

    #[test]
    fn all_strategies_approach_the_optimum() {
        let space = grid_space(16);
        let optimum =
            Explorer::Exhaustive.run(&space, &rugged, SearchBudget::new(256), 0).best_cost;
        for explorer in [Explorer::annealing(), Explorer::genetic(), Explorer::surrogate()] {
            let r = explorer.run(&space, &rugged, SearchBudget::new(120), 5);
            assert!(
                r.best_cost < optimum + 25.0,
                "{} landed too far from optimum: {} vs {optimum}",
                explorer.name(),
                r.best_cost
            );
        }
    }

    #[test]
    fn surrogate_beats_random_on_average() {
        // With a modest budget on a larger space, model guidance should win
        // on average across seeds.
        let space = grid_space(32);
        let budget = SearchBudget::new(40);
        let mut surrogate_total = 0.0;
        let mut random_total = 0.0;
        for seed in 0..8 {
            surrogate_total += Explorer::surrogate().run(&space, &rugged, budget, seed).best_cost;
            random_total += Explorer::Random.run(&space, &rugged, budget, seed).best_cost;
        }
        assert!(
            surrogate_total < random_total,
            "surrogate {surrogate_total} should beat random {random_total}"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let space = grid_space(16);
        for explorer in [Explorer::Random, Explorer::annealing(), Explorer::genetic()] {
            let a = explorer.run(&space, &rugged, SearchBudget::new(50), 9);
            let b = explorer.run(&space, &rugged, SearchBudget::new(50), 9);
            assert_eq!(a, b, "{}", explorer.name());
        }
    }

    /// A store that never remembers: every probe misses, so a search over
    /// it evaluates every design — the memo-free reference.
    struct Forgetful;

    impl ResultStore<f64> for Forgetful {
        fn get(&self, _: m7_serve::CacheKey) -> Option<f64> {
            None
        }

        fn insert(&self, _: m7_serve::CacheKey, _: f64) {}

        fn hits(&self) -> u64 {
            0
        }
    }

    fn oracle(
        explorer: &Explorer,
        space: &DesignSpace,
        objective: &dyn Objective,
        budget: SearchBudget,
        seed: u64,
    ) -> SearchResult {
        let memo = EvalMemo::new(&Forgetful, 0);
        explorer.run_memoized(space, objective, budget, seed, ParConfig::default(), &memo)
    }

    fn bits(r: &SearchResult) -> Vec<u64> {
        let mut bits: Vec<u64> = r.trace.iter().map(|c| c.to_bits()).collect();
        bits.extend(r.best_values.iter().map(|v| v.to_bits()));
        bits.push(r.best_cost.to_bits());
        bits
    }

    #[test]
    fn memoized_results_are_bit_identical_to_unmemoized() {
        use m7_serve::namespace;

        let space = grid_space(16);
        let budget = SearchBudget::new(60);
        for explorer in [
            Explorer::Exhaustive,
            Explorer::Random,
            Explorer::annealing(),
            Explorer::genetic(),
            Explorer::surrogate(),
        ] {
            let plain = oracle(&explorer, &space, &rugged, budget, 11);
            let cache = EvalCache::new(4096);
            let memo = EvalMemo::new(&cache, namespace("rugged", 11));
            let cold =
                explorer.run_memoized(&space, &rugged, budget, 11, ParConfig::default(), &memo);
            // Pre-warm a second store with every design in the space.
            let warm_cache = EvalCache::new(4096);
            let warm_memo = EvalMemo::new(&warm_cache, namespace("rugged", 11));
            let all = SearchBudget::new(space.cardinality());
            let par = ParConfig::default();
            let _ = Explorer::Exhaustive.run_memoized(&space, &rugged, all, 11, par, &warm_memo);
            let warm = explorer.run_memoized(&space, &rugged, budget, 11, par, &warm_memo);
            assert!(warm_cache.stats().hits > 0, "{} never read the warm store", explorer.name());
            for (label, r) in [("cold", &cold), ("warm", &warm)] {
                assert_eq!(plain, *r, "{} diverged under a {label} memo", explorer.name());
                // A bitwise check, not just PartialEq.
                assert_eq!(bits(&plain), bits(r), "{} {label} diverged bitwise", explorer.name());
            }
            assert_eq!(plain, explorer.run(&space, &rugged, budget, 11), "{}", explorer.name());
        }
    }

    #[test]
    fn run_evaluates_each_design_at_most_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let space = grid_space(2);
        let budget = SearchBudget::new(50);
        let calls = AtomicUsize::new(0);
        let counting = |v: &[f64]| {
            calls.fetch_add(1, Ordering::Relaxed);
            rugged(v)
        };
        let memoized = Explorer::annealing().run(&space, &counting, budget, 5);
        let run_calls = calls.swap(0, Ordering::Relaxed);
        let reference = oracle(&Explorer::annealing(), &space, &counting, budget, 5);
        assert!(run_calls <= 4, "a 2x2 space has 4 designs, objective ran {run_calls} times");
        assert_eq!(calls.load(Ordering::Relaxed), 50, "the oracle evaluates every step");
        assert_eq!(memoized, reference);
    }

    #[test]
    fn memoized_rerun_invokes_the_objective_strictly_less() {
        use m7_serve::namespace;
        use std::sync::atomic::{AtomicUsize, Ordering};

        let space = grid_space(8);
        let budget = SearchBudget::new(50);
        let calls = AtomicUsize::new(0);
        let counting = |v: &[f64]| {
            calls.fetch_add(1, Ordering::Relaxed);
            rugged(v)
        };

        let baseline = oracle(&Explorer::genetic(), &space, &counting, budget, 3);
        let uncached_calls = calls.swap(0, Ordering::Relaxed);

        let cache = EvalCache::new(4096);
        let memo = EvalMemo::new(&cache, namespace("rugged", 3));
        // Warm the cache with the exhaustive sweep, as E9 does.
        let _ = Explorer::Exhaustive.run_memoized(
            &space,
            &counting,
            SearchBudget::new(space.cardinality()),
            3,
            ParConfig::default(),
            &memo,
        );
        calls.store(0, Ordering::Relaxed);
        let memoized = Explorer::genetic().run_memoized(
            &space,
            &counting,
            budget,
            3,
            ParConfig::default(),
            &memo,
        );
        let cached_calls = calls.load(Ordering::Relaxed);
        assert_eq!(baseline, memoized);
        assert_eq!(cached_calls, 0, "a warm cache answers every design");
        assert!(uncached_calls > 0);
        assert!(cache.stats().hits > 0, "savings must be visible in the counters");
    }

    #[test]
    fn duplicate_genotypes_are_dispatched_once_per_batch() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // A 1-point-wide space forces every sample to the same genotype:
        // any batch is 100% duplicates.
        let space = DesignSpace::new(vec![Dimension::new("only", vec![1.0])]);
        let calls = AtomicUsize::new(0);
        let counting = |_: &[f64]| {
            calls.fetch_add(1, Ordering::Relaxed);
            0.0
        };
        let r = Explorer::Random.run(&space, &counting, SearchBudget::new(30), 0);
        assert_eq!(r.evaluations, 30, "budget accounting is unchanged by dedup");
        assert_eq!(calls.load(Ordering::Relaxed), 1, "one dispatch for 30 identical designs");
    }

    #[test]
    fn budget_is_respected() {
        let space = grid_space(8);
        for explorer in [
            Explorer::Exhaustive,
            Explorer::Random,
            Explorer::annealing(),
            Explorer::genetic(),
            Explorer::surrogate(),
        ] {
            let r = explorer.run(&space, &rugged, SearchBudget::new(25), 1);
            assert!(r.evaluations <= 25, "{} overspent", explorer.name());
        }
    }
}
