//! The streaming campaign engine: generate → evaluate → discard.
//!
//! [`run_campaign`] walks a [`CampaignPlan`] in adaptive rounds. Each
//! round apportions its budget slice across strata, splits every
//! stratum's allocation into fixed-size *work units*, evaluates the
//! units through the deterministic `m7-par` pool, and folds each
//! unit's [`StratumSketch`] into the per-stratum state. No scenario
//! outlives its evaluation — memory stays O(strata) no matter how
//! large the budget is.
//!
//! Work units are the checkpoint granularity. Every unit is memoized
//! in a caller-supplied [`ResultStore`] under a key derived from
//! `(campaign namespace, plan fingerprint, stratum, draw range)`, so a
//! campaign pointed at a disk-backed `TieredCache` resumes after a
//! kill by replaying finished units from the store instead of
//! re-simulating them — the sketches are bit-identical either way.
//!
//! Round 0 is a uniform pilot. Later rounds practice *importance
//! splitting*: each stratum's weight is its remaining Wilson
//! uncertainty times a Gaussian of its distance to the falsification
//! frontier anchor found by `m7_scen::falsify`, so budget drains away
//! from strata whose outcome is already settled and concentrates where
//! the platform tier flips between success and failure.

use m7_par::ParConfig;
use m7_scen::{evaluate_uav, falsify_memo, generate, FalsifyConfig, Family, FrontierPoint};
use m7_serve::{namespace, CacheKey, KeyHasher, ResultStore};
use m7_sim::uav::ComputeTier;
use m7_trace::{MetricClass, SpanSite, TraceCounter, TraceGauge, TraceHistogram};

use crate::plan::CampaignPlan;
use crate::stats::{coverage_score, StratumSketch};

static CAMPAIGN: SpanSite = SpanSite::new("camp.campaign", MetricClass::Deterministic);
static EVALUATIONS: TraceCounter =
    TraceCounter::new("camp.evaluations", MetricClass::Deterministic);
static UNITS: TraceCounter = TraceCounter::new("camp.units", MetricClass::Deterministic);
static STRATUM_BUDGET: TraceHistogram =
    TraceHistogram::new("camp.stratum_budget", MetricClass::Deterministic);
static UNIT_REPLAYS: TraceCounter = TraceCounter::new("camp.unit_replays", MetricClass::Diagnostic);
// Per-round progress, refreshed inside the round loop so a telemetry
// hub sampling mid-campaign sees the trajectory, not just the end
// state. Final values are pure functions of (plan, seed), so they stay
// in the deterministic class.
static ROUNDS_DONE: TraceGauge = TraceGauge::new("camp.rounds_done", MetricClass::Deterministic);
static COVERAGE_PPM: TraceGauge = TraceGauge::new("camp.coverage_ppm", MetricClass::Deterministic);

/// How sharply importance splitting concentrates around the frontier
/// anchor (standard deviation of the Gaussian kernel, in difficulty
/// units).
const FRONTIER_BANDWIDTH: f64 = 0.25;

/// Final state of one stratum after a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct StratumReport {
    /// Generator family of this stratum.
    pub family: Family,
    /// Difficulty decile (0-based) within the family.
    pub decile: usize,
    /// Total draws allocated to the stratum across all rounds.
    pub draws: usize,
    /// The merged evaluation sketch.
    pub sketch: StratumSketch,
    /// 95% Wilson interval on the stratum's success probability.
    pub wilson: (f64, f64),
}

/// Budget trail of one adaptive round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundReport {
    /// Round index (0 = uniform pilot).
    pub round: usize,
    /// Closed-loop evaluations this round accounted for.
    pub evaluations: usize,
    /// Strata that received a non-zero allocation.
    pub active_strata: usize,
}

/// Everything a finished campaign knows, in O(strata) space.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOutcome {
    /// The tier the campaign evaluated.
    pub tier: ComputeTier,
    /// Difficulty anchor importance splitting steered toward: the
    /// falsification frontier, or the hardest probed difficulty if the
    /// tier survived the probe.
    pub anchor: f64,
    /// The frontier point the anchoring probe found, if any.
    pub frontier: Option<FrontierPoint>,
    /// Per-stratum results, indexed as `family-major × decile`.
    pub strata: Vec<StratumReport>,
    /// Per-round budget trail.
    pub rounds: Vec<RoundReport>,
    /// Scalar coverage score in `[0, 1]`: the mean, over strata, of how
    /// tightly each stratum's success rate is pinned.
    pub coverage: f64,
    /// Closed-loop evaluations the campaign accounts for, including
    /// units replayed from the checkpoint store.
    pub evaluations: u64,
    /// Work units the campaign was split into.
    pub units: usize,
    /// Units satisfied from the checkpoint store instead of being
    /// re-simulated. Diagnostic: varies between cold and resumed runs
    /// while every other field is bit-identical.
    pub units_from_store: usize,
}

/// Runs a streaming campaign: anchor on the falsification frontier,
/// then stream `plan.budget` scenario evaluations through adaptive
/// stratified rounds, checkpointing every work unit in `units`.
///
/// Deterministic in `(plan, seed)` and invariant to the thread count
/// of `par`; all fields except the diagnostic `units_from_store` are
/// bit-identical across cold, warm, and resumed runs. Pass a
/// disk-backed [`TieredCache`](m7_serve::TieredCache) as `units` to
/// make the campaign survive a kill; pass
/// [`EvalCache`](m7_serve::EvalCache) for a memory-only run.
///
/// # Panics
///
/// Panics if the plan has no strata, zero rounds, or a zero chunk
/// size.
///
/// # Examples
///
/// ```
/// use m7_camp::{run_campaign, CampaignPlan};
/// use m7_par::ParConfig;
/// use m7_serve::EvalCache;
/// use m7_sim::uav::ComputeTier;
///
/// let plan = CampaignPlan::new(ComputeTier::Micro, 60);
/// let units = EvalCache::new(256);
/// let falsify = EvalCache::new(256);
/// let cold = run_campaign(&plan, 7, ParConfig::serial(), &units, &falsify);
/// assert_eq!(cold.evaluations, 60);
///
/// // A second run replays every unit from the store: same result,
/// // zero re-simulation.
/// let warm = run_campaign(&plan, 7, ParConfig::serial(), &units, &falsify);
/// assert_eq!(warm.units_from_store, warm.units);
/// assert_eq!(warm.strata, cold.strata);
/// ```
#[must_use]
pub fn run_campaign<S, F>(
    plan: &CampaignPlan,
    seed: u64,
    par: ParConfig,
    units: &S,
    falsify_cache: &F,
) -> CampaignOutcome
where
    S: ResultStore<StratumSketch>,
    F: ResultStore<f64>,
{
    assert!(plan.strata() > 0, "campaign plan must have at least one stratum");
    assert!(plan.rounds > 0, "campaign plan must have at least one round");
    assert!(plan.chunk > 0, "campaign chunk size must be positive");
    let _span = CAMPAIGN.enter();

    // Anchor: where does this tier start failing? The probe is
    // memoized in `falsify_cache`, so resumed campaigns skip it too.
    let probe = FalsifyConfig {
        families: plan.families.clone(),
        levels: 8,
        variants: 2,
        budget: plan.falsify_budget,
    };
    let fals = falsify_memo(plan.tier, &probe, seed, par, falsify_cache);
    let anchor = fals.frontier.as_ref().map_or(fals.max_difficulty, |f| f.difficulty);

    let n = plan.strata();
    let fingerprint = plan.fingerprint();
    let ns = namespace("m7-camp", seed);
    let mut sketches = vec![StratumSketch::default(); n];
    let mut draws_done = vec![0usize; n];
    let mut rounds = Vec::with_capacity(plan.rounds);
    let mut total_units = 0usize;
    let mut replayed_units = 0usize;

    for round in 0..plan.rounds {
        let round_budget =
            plan.budget / plan.rounds + usize::from(round < plan.budget % plan.rounds);
        let weights = if round == 0 {
            vec![1.0; n]
        } else {
            sketches.iter().map(|s| importance_weight(s, anchor)).collect()
        };
        let alloc = apportion(round_budget, &weights);

        // One work unit per `chunk` draws of a stratum, continuing at
        // that stratum's draw counter — the unit's identity (and its
        // checkpoint key) is independent of rounds and thread counts.
        let mut work: Vec<(usize, usize, usize)> = Vec::new();
        for (stratum, &count) in alloc.iter().enumerate() {
            STRATUM_BUDGET.record(count as u64);
            let mut start = draws_done[stratum];
            let end = start + count;
            while start < end {
                let len = plan.chunk.min(end - start);
                work.push((stratum, start, len));
                start += len;
            }
        }

        let results = par.par_map(&work, |&(stratum, start, len)| {
            let key = unit_key(ns, fingerprint, stratum, start, len);
            let (sketch, replayed) =
                units.get_or_insert_with(key, || evaluate_unit(plan, seed, stratum, start, len));
            (stratum, sketch, replayed)
        });

        let mut evaluations = 0usize;
        for ((stratum, _, len), (_, sketch, replayed)) in work.iter().zip(&results) {
            sketches[*stratum].merge(sketch);
            draws_done[*stratum] += len;
            evaluations += len;
            replayed_units += usize::from(*replayed);
        }
        total_units += work.len();
        UNITS.add(work.len() as u64);
        EVALUATIONS.add(evaluations as u64);
        ROUNDS_DONE.set(round as u64 + 1);
        COVERAGE_PPM.set((coverage_score(&sketches) * 1e6).round() as u64);
        rounds.push(RoundReport {
            round,
            evaluations,
            active_strata: alloc.iter().filter(|&&a| a > 0).count(),
        });
    }

    UNIT_REPLAYS.add(replayed_units as u64);
    let strata = (0..n)
        .map(|s| StratumReport {
            family: plan.family(s),
            decile: plan.decile(s),
            draws: draws_done[s],
            sketch: sketches[s],
            wilson: sketches[s].wilson(),
        })
        .collect();
    CampaignOutcome {
        tier: plan.tier,
        anchor,
        frontier: fals.frontier,
        coverage: coverage_score(&sketches),
        evaluations: draws_done.iter().map(|&d| d as u64).sum(),
        units: total_units,
        units_from_store: replayed_units,
        strata,
        rounds,
    }
}

/// Importance-splitting weight of a stratum: remaining Wilson
/// uncertainty, concentrated near the frontier anchor. Untouched
/// strata keep full weight so nothing is starved before its pilot.
fn importance_weight(sketch: &StratumSketch, anchor: f64) -> f64 {
    if sketch.trials == 0 {
        return 1.0;
    }
    let (lo, hi) = sketch.wilson();
    let z = (sketch.mean_difficulty() - anchor) / FRONTIER_BANDWIDTH;
    ((hi - lo) * (-z * z).exp()).max(1e-12)
}

/// Largest-remainder apportionment of `total` across `weights`,
/// deterministic including ties (broken toward the lower index).
fn apportion(total: usize, weights: &[f64]) -> Vec<usize> {
    let sum: f64 = weights.iter().sum();
    if total == 0 || weights.is_empty() || sum <= 0.0 {
        return vec![0; weights.len()];
    }
    let quotas: Vec<f64> = weights.iter().map(|w| total as f64 * w / sum).collect();
    let mut alloc: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let assigned: usize = alloc.iter().sum();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        let (fa, fb) = (quotas[a] - quotas[a].floor(), quotas[b] - quotas[b].floor());
        fb.partial_cmp(&fa).unwrap_or(core::cmp::Ordering::Equal).then(a.cmp(&b))
    });
    for i in 0..total.saturating_sub(assigned) {
        alloc[order[i % order.len()]] += 1;
    }
    alloc
}

/// Checkpoint key of one work unit. Folding in the plan fingerprint
/// means a store can safely hold several campaigns at once.
fn unit_key(ns: u64, fingerprint: u64, stratum: usize, start: usize, len: usize) -> CacheKey {
    let mut h = KeyHasher::new();
    h.write_str("m7-camp-unit");
    h.write_u64(ns);
    h.write_u64(fingerprint);
    h.write_u64(stratum as u64);
    h.write_u64(start as u64);
    h.write_u64(len as u64);
    h.finish()
}

/// Evaluates one work unit: `len` draws of a stratum, generated,
/// simulated, folded into a sketch, and discarded.
fn evaluate_unit(
    plan: &CampaignPlan,
    seed: u64,
    stratum: usize,
    start: usize,
    len: usize,
) -> StratumSketch {
    let family = plan.family(stratum);
    let mut sketch = StratumSketch::default();
    for draw in start..start + len {
        let (level, world_seed) = plan.draw(seed, stratum, draw);
        let s = generate(family, level, world_seed);
        let out = evaluate_uav(&s, plan.tier, s.seed);
        sketch.record(&out, s.difficulty());
    }
    sketch
}

#[cfg(test)]
mod tests {
    use super::*;
    use m7_serve::EvalCache;

    fn tiny_plan(budget: usize) -> CampaignPlan {
        CampaignPlan {
            families: vec![Family::Corridor, Family::Rooms],
            deciles: 4,
            tier: ComputeTier::Micro,
            budget,
            rounds: 2,
            chunk: 8,
            falsify_budget: 12,
        }
    }

    #[test]
    fn budget_is_spent_exactly_and_rounds_sum() {
        let plan = tiny_plan(50);
        let units = EvalCache::new(128);
        let fals = EvalCache::new(128);
        let out = run_campaign(&plan, 3, ParConfig::serial(), &units, &fals);
        assert_eq!(out.evaluations, 50);
        assert_eq!(out.rounds.iter().map(|r| r.evaluations).sum::<usize>(), 50);
        assert_eq!(out.strata.iter().map(|s| s.sketch.trials).sum::<u64>(), 50);
        assert!(out.coverage > 0.0 && out.coverage <= 1.0);
    }

    #[test]
    fn resume_replays_units_without_reevaluation() {
        let plan = tiny_plan(40);
        let units = EvalCache::new(128);
        let fals = EvalCache::new(128);
        let cold = run_campaign(&plan, 9, ParConfig::serial(), &units, &fals);
        assert_eq!(cold.units_from_store, 0);
        let warm = run_campaign(&plan, 9, ParConfig::serial(), &units, &fals);
        assert_eq!(warm.units_from_store, warm.units);
        assert_eq!(warm.strata, cold.strata);
        assert_eq!(warm.rounds, cold.rounds);
        assert_eq!(warm.coverage, cold.coverage);
    }

    #[test]
    fn thread_count_does_not_change_the_outcome() {
        let plan = tiny_plan(40);
        let a = {
            let (u, f) = (EvalCache::new(128), EvalCache::new(128));
            run_campaign(&plan, 5, ParConfig::serial(), &u, &f)
        };
        let b = {
            let (u, f) = (EvalCache::new(128), EvalCache::new(128));
            run_campaign(&plan, 5, ParConfig::with_threads(8), &u, &f)
        };
        assert_eq!(a, b);
    }

    #[test]
    fn later_rounds_skew_budget_toward_uncertain_strata() {
        // A settled stratum (many trials, tight interval, far from the
        // anchor) must weigh less than a fresh one near the anchor.
        let settled = StratumSketch {
            trials: 200,
            successes: 200,
            difficulty_ppm: 50_000 * 200, // mean difficulty 0.05
            ..StratumSketch::default()
        };
        let contested = StratumSketch {
            trials: 10,
            successes: 5,
            difficulty_ppm: 500_000 * 10, // mean difficulty 0.5
            ..StratumSketch::default()
        };
        let anchor = 0.5;
        assert!(importance_weight(&contested, anchor) > importance_weight(&settled, anchor));
    }

    #[test]
    fn apportion_conserves_total_and_follows_weights() {
        let alloc = apportion(10, &[1.0, 1.0, 2.0]);
        assert_eq!(alloc.iter().sum::<usize>(), 10);
        assert!(alloc[2] > alloc[0]);
        assert_eq!(apportion(0, &[1.0, 1.0]), vec![0, 0]);
        assert_eq!(apportion(5, &[]), Vec::<usize>::new());
        // Exact ties break toward the lower index.
        assert_eq!(apportion(3, &[1.0, 1.0]), vec![2, 1]);
    }
}
