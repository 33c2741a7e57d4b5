//! Campaign plans: the stratification of scenario space and the
//! deterministic seed schedule that samples it.
//!
//! A [`CampaignPlan`] fixes *what* a campaign measures — which
//! generator families, how many difficulty strata, which platform
//! tier, and how much evaluation budget — before any scenario exists.
//! Every random draw in the campaign is then derived from
//! `(root seed, stratum index, draw index)` through the same SplitMix64
//! scheme `m7-par` uses for its workers, so the sample a stratum sees
//! is a pure function of the plan and the root seed: independent of
//! thread count, of chunking, and of how many prior invocations
//! resumed the campaign.

use m7_par::derive_seed;
use m7_scen::Family;
use m7_serve::KeyHasher;
use m7_sim::uav::ComputeTier;

/// Salt folded into the root seed before stratum derivation, so
/// campaign streams never collide with `m7-par` worker seeds or other
/// subsystems deriving from the same root.
const STRATUM_SALT: u64 = 0x6D37_6361_6D70_0001; // "m7" "camp"

/// What a campaign measures: families × difficulty strata × tier,
/// and how much budget it may spend finding out.
///
/// # Examples
///
/// ```
/// use m7_camp::CampaignPlan;
/// use m7_sim::uav::ComputeTier;
///
/// let plan = CampaignPlan::new(ComputeTier::Micro, 600);
/// assert_eq!(plan.strata(), 6 * 10); // six families × ten deciles
/// // The sample schedule is pure in (plan, root, stratum, draw).
/// assert_eq!(plan.draw(7, 3, 0), plan.draw(7, 3, 0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignPlan {
    /// Generator families covered, one stratum row per family.
    pub families: Vec<Family>,
    /// Difficulty strata per family, partitioning level space `[0, 1)`.
    pub deciles: usize,
    /// Platform tier every scenario is evaluated against.
    pub tier: ComputeTier,
    /// Total closed-loop evaluation budget across all rounds.
    pub budget: usize,
    /// Adaptive rounds: round 0 is a uniform pilot, later rounds
    /// reallocate toward the falsification frontier.
    pub rounds: usize,
    /// Evaluations per work unit — the checkpoint granularity.
    pub chunk: usize,
    /// Budget for the frontier-anchoring `falsify` probe.
    pub falsify_budget: usize,
}

impl CampaignPlan {
    /// A plan over every generator family with ten difficulty deciles,
    /// three adaptive rounds, and 32-evaluation checkpoint units.
    #[must_use]
    pub fn new(tier: ComputeTier, budget: usize) -> Self {
        Self {
            families: Family::ALL.to_vec(),
            deciles: 10,
            tier,
            budget,
            rounds: 3,
            chunk: 32,
            falsify_budget: 36,
        }
    }

    /// Number of strata (families × deciles).
    #[must_use]
    pub fn strata(&self) -> usize {
        self.families.len() * self.deciles
    }

    /// The family a stratum index belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `stratum >= self.strata()`.
    #[must_use]
    pub fn family(&self, stratum: usize) -> Family {
        assert!(stratum < self.strata(), "stratum {stratum} out of range");
        self.families[stratum / self.deciles]
    }

    /// The difficulty decile (0-based) of a stratum index.
    #[must_use]
    pub fn decile(&self, stratum: usize) -> usize {
        stratum % self.deciles
    }

    /// The half-open difficulty-level range `[lo, hi)` a decile covers.
    #[must_use]
    pub fn level_range(&self, decile: usize) -> (f64, f64) {
        let d = self.deciles as f64;
        (decile as f64 / d, (decile + 1) as f64 / d)
    }

    /// Content fingerprint of the plan. Folded into every checkpoint
    /// key, so a resumed campaign only reuses work units produced by an
    /// identical plan.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = KeyHasher::new();
        h.write_str("m7-camp-plan");
        h.write_u64(self.families.len() as u64);
        for f in &self.families {
            h.write_str(f.name());
        }
        h.write_u64(self.deciles as u64);
        h.write_str(&self.tier.to_string());
        h.write_u64(self.budget as u64);
        h.write_u64(self.rounds as u64);
        h.write_u64(self.chunk as u64);
        h.write_u64(self.falsify_budget as u64);
        h.finish().0
    }

    /// Deterministic per-stratum stream seed for a campaign root seed.
    #[must_use]
    pub(crate) fn stratum_seed(&self, root: u64, stratum: usize) -> u64 {
        derive_seed(root ^ STRATUM_SALT, stratum as u64)
    }

    /// The `draw`-th sample of a stratum: a `(level, world seed)` pair.
    /// The level is uniform over the stratum's decile range; the world
    /// seed feeds `m7_scen::generate`. Pure in
    /// `(plan, root, stratum, draw)`.
    ///
    /// # Panics
    ///
    /// Panics if `stratum >= self.strata()`.
    #[must_use]
    pub fn draw(&self, root: u64, stratum: usize, draw: usize) -> (f64, u64) {
        let (lo, hi) = self.level_range(self.decile(stratum));
        let seed = derive_seed(self.stratum_seed(root, stratum), draw as u64);
        // Top 53 bits → uniform in [0, 1): the exact double ladder.
        let unit = (seed >> 11) as f64 / (1u64 << 53) as f64;
        (lo + unit * (hi - lo), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strata_index_maps_cover_all_cells() {
        let plan = CampaignPlan::new(ComputeTier::Micro, 100);
        let mut seen = std::collections::HashSet::new();
        for s in 0..plan.strata() {
            seen.insert((plan.family(s).name(), plan.decile(s)));
            let (lo, hi) = plan.level_range(plan.decile(s));
            assert!(lo < hi && (0.0..=1.0).contains(&lo) && hi <= 1.0);
        }
        assert_eq!(seen.len(), plan.strata());
    }

    #[test]
    fn draws_land_inside_their_decile() {
        let plan = CampaignPlan::new(ComputeTier::Embedded, 100);
        for stratum in 0..plan.strata() {
            let (lo, hi) = plan.level_range(plan.decile(stratum));
            for draw in 0..20 {
                let (level, _) = plan.draw(42, stratum, draw);
                assert!(level >= lo && level < hi, "level {level} outside [{lo}, {hi})");
            }
        }
    }

    #[test]
    fn fingerprint_distinguishes_plans() {
        let a = CampaignPlan::new(ComputeTier::Micro, 100);
        let mut b = a.clone();
        b.budget = 101;
        let mut c = a.clone();
        c.tier = ComputeTier::Desktop;
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.fingerprint(), CampaignPlan::new(ComputeTier::Micro, 100).fingerprint());
    }
}
