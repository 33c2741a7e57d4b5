//! Adversarial scenario search (falsification).
//!
//! Reuses the `m7-dse` explorer over *scenario-parameter* space: instead
//! of searching designs that perform well, it searches for the **easiest
//! scenario that makes a platform tier fail** its mission deadline. The
//! objective rewards failing scenarios by their difficulty (lower is an
//! easier falsifier) and pushes surviving scenarios above a fixed
//! offset, so any failure — however hard — outranks every survival. Evaluations are memoized through an `m7-serve`
//! [`EvalCache`] and fanned out by the deterministic `m7-par` pool, so
//! results are bit-identical at any thread count.

use crate::eval::evaluate_uav;
use crate::generator::generate;
use crate::scenario::{Family, Scenario};
use m7_dse::{DesignSpace, Dimension, EvalMemo, Explorer, SearchBudget};
use m7_par::{derive_seed, ParConfig};
use m7_serve::{namespace, EvalCache, ResultStore};
use m7_sim::uav::ComputeTier;
use m7_trace::{MetricClass, SpanSite, TraceCounter};

/// Cost floor for scenarios the tier survives. Failing scenarios score
/// their difficulty (≪ this), so minimizing cost finds the easiest
/// falsifier; survivors sort above the offset by *descending*
/// difficulty, steering the search toward the frontier even before the
/// first failure is found.
pub(crate) const SURVIVED_OFFSET: f64 = 10.0;

static FALSIFY: SpanSite = SpanSite::new("scen.falsify", MetricClass::Deterministic);
static FALSIFICATIONS: TraceCounter =
    TraceCounter::new("scen.falsifications", MetricClass::Deterministic);

/// Shape of the scenario-parameter space to search.
#[derive(Debug, Clone, PartialEq)]
pub struct FalsifyConfig {
    /// Generator families included in the search.
    pub families: Vec<Family>,
    /// Number of difficulty levels spanning `[0.1, 1.0]`.
    pub levels: usize,
    /// World-seed variants per (family, level) cell.
    pub variants: usize,
    /// Explorer evaluation budget.
    pub budget: usize,
}

impl Default for FalsifyConfig {
    fn default() -> Self {
        Self { families: Family::ALL.to_vec(), levels: 8, variants: 2, budget: 60 }
    }
}

impl FalsifyConfig {
    /// The searchable [`DesignSpace`] over (family, level, variant).
    ///
    /// # Panics
    ///
    /// Panics if any axis is empty or `levels < 2`.
    #[must_use]
    pub fn space(&self) -> DesignSpace {
        assert!(!self.families.is_empty(), "at least one family");
        assert!(self.levels >= 2, "at least two difficulty levels");
        assert!(self.variants >= 1, "at least one variant");
        let family = (0..self.families.len()).map(|i| i as f64).collect();
        let step = 0.9 / (self.levels - 1) as f64;
        let levels = (0..self.levels).map(|i| 0.1 + step * i as f64).collect();
        let variants = (0..self.variants).map(|i| i as f64).collect();
        DesignSpace::new(vec![
            Dimension::new("family", family),
            Dimension::new("level", levels),
            Dimension::new("variant", variants),
        ])
    }

    /// Materializes the scenario a design point denotes. The world seed
    /// is derived from `root_seed` and the (family, variant) cell, so a
    /// level sweep deforms one underlying world rather than resampling.
    #[must_use]
    pub fn scenario(&self, values: &[f64], root_seed: u64) -> Scenario {
        let family = self.families[values[0] as usize];
        let level = values[1];
        let variant = values[2] as u64;
        generate(family, level, derive_seed(root_seed, (values[0] as u64) << 8 | variant))
    }
}

/// One point on the falsification frontier: the easiest scenario found
/// that makes the tier miss its deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPoint {
    /// Generator family of the falsifying scenario.
    pub family: Family,
    /// Difficulty level the generator was asked for.
    pub level: f64,
    /// Computed difficulty score of the concrete scenario.
    pub difficulty: f64,
    /// Mission time the tier actually took (seconds).
    pub time_s: f64,
    /// The deadline it missed (seconds).
    pub deadline_s: f64,
}

/// Result of falsifying one platform tier.
#[derive(Debug, Clone, PartialEq)]
pub struct Falsification {
    /// The tier under test.
    pub tier: ComputeTier,
    /// Easiest falsifier found, or `None` if the tier survived the
    /// whole probed space.
    pub frontier: Option<FrontierPoint>,
    /// Closed-loop evaluations the explorer requested.
    pub evaluations: usize,
    /// Hardest difficulty present anywhere in the probed space (from
    /// generation alone, no simulation) — the survival bound when
    /// `frontier` is `None`.
    pub max_difficulty: f64,
}

/// Searches scenario space for the easiest scenario that fails `tier`,
/// memoizing closed-loop evaluations in `cache` under a namespace
/// derived from the tier and `seed`. Deterministic in `seed` and
/// invariant to the thread count of `par`; read savings off the store's
/// hit counter ([`ResultStore::hits`]). Any [`ResultStore`] works —
/// including the disk-backed [`m7_serve::TieredCache`], which
/// carries falsification evaluations across process restarts.
#[must_use]
pub fn falsify_memo<S: ResultStore<f64>>(
    tier: ComputeTier,
    cfg: &FalsifyConfig,
    seed: u64,
    par: ParConfig,
    cache: &S,
) -> Falsification {
    let _span = FALSIFY.enter();
    FALSIFICATIONS.incr();
    let space = cfg.space();
    let objective = |values: &[f64]| {
        let s = cfg.scenario(values, seed);
        let out = evaluate_uav(&s, tier, s.seed);
        if out.success {
            SURVIVED_OFFSET + (2.0 - s.difficulty())
        } else {
            s.difficulty()
        }
    };
    let memo = EvalMemo::new(cache, namespace(&format!("scen-falsify-{tier}"), seed));
    let result = Explorer::genetic().run_memoized(
        &space,
        &objective,
        SearchBudget::new(cfg.budget),
        seed,
        par,
        &memo,
    );
    let frontier = (result.best_cost < SURVIVED_OFFSET).then(|| {
        let s = cfg.scenario(&result.best_values, seed);
        let out = evaluate_uav(&s, tier, s.seed);
        FrontierPoint {
            family: s.family,
            level: s.level,
            difficulty: s.difficulty(),
            time_s: out.time_s,
            deadline_s: out.deadline_s,
        }
    });
    let max_difficulty = space
        .enumerate()
        .iter()
        .map(|p| cfg.scenario(&space.values(p), seed).difficulty())
        .fold(0.0, f64::max);
    Falsification { tier, frontier, evaluations: result.evaluations, max_difficulty }
}

/// [`falsify_memo`] with a private cache sized for the space — the
/// memoization still dedupes revisits within the search.
#[must_use]
pub fn falsify(tier: ComputeTier, cfg: &FalsifyConfig, seed: u64, par: ParConfig) -> Falsification {
    let cache = EvalCache::new(cfg.space().cardinality().max(64));
    falsify_memo(tier, cfg, seed, par, &cache)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> FalsifyConfig {
        FalsifyConfig { levels: 5, variants: 1, budget: 24, ..FalsifyConfig::default() }
    }

    #[test]
    fn micro_tier_is_falsified_but_embedded_survives() {
        let cfg = quick_cfg();
        let par = ParConfig::with_threads(2);
        let micro = falsify(ComputeTier::Micro, &cfg, 42, par);
        let embedded = falsify(ComputeTier::Embedded, &cfg, 42, par);
        let frontier = micro.frontier.expect("micro must fail somewhere in the space");
        assert!(frontier.time_s > frontier.deadline_s);
        assert!(embedded.frontier.is_none(), "embedded survives: {:?}", embedded.frontier);
        assert!(
            embedded.max_difficulty > frontier.difficulty,
            "adequate tier survives strictly harder scenarios than micro's frontier"
        );
    }

    #[test]
    fn falsification_is_thread_count_invariant() {
        let cfg = quick_cfg();
        let serial = falsify(ComputeTier::Micro, &cfg, 7, ParConfig::with_threads(1));
        let wide = falsify(ComputeTier::Micro, &cfg, 7, ParConfig::with_threads(8));
        assert_eq!(serial, wide);
    }

    #[test]
    fn memoized_and_plain_results_agree_and_hits_are_counted() {
        let cfg = quick_cfg();
        let par = ParConfig::with_threads(2);
        let cache = EvalCache::new(256);
        let memoized = falsify_memo(ComputeTier::Micro, &cfg, 3, par, &cache);
        let plain = falsify(ComputeTier::Micro, &cfg, 3, par);
        assert_eq!(memoized, plain);
        let before = cache.stats().hits;
        let again = falsify_memo(ComputeTier::Micro, &cfg, 3, par, &cache);
        assert_eq!(again, memoized);
        assert!(cache.stats().hits > before, "second run must hit the shared cache");
    }

    #[test]
    fn space_covers_families_levels_and_variants() {
        let cfg = FalsifyConfig::default();
        let space = cfg.space();
        assert_eq!(space.cardinality(), Family::ALL.len() * 8 * 2);
        let values = space.values(&[1, 0, 1]);
        let s = cfg.scenario(&values, 9);
        assert_eq!(s.family, Family::Maze);
        assert!((s.level - 0.1).abs() < 1e-12);
    }
}
