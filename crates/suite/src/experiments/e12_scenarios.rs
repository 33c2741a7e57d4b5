//! E12 — §2.1 + §3.1: scenario supply and adversarial falsification.
//!
//! Challenge 1 argues that accelerator designs are only as good as the
//! workloads they are judged on; §3.1 argues for search over design
//! spaces. E12 closes the loop from the *scenario* side: procedural
//! generators supply graded worlds to the existing UAV and rover closed
//! loops, and the same DSE machinery is turned around to *falsify* a
//! platform tier — find the easiest scenario that makes it miss its
//! mission deadline. An under-provisioned tier is falsified at low
//! difficulty; an adequately provisioned tier survives the entire
//! probed space, and the gap between those two numbers is the
//! provisioning margin.

use crate::report::{fmt_f64, Report, Table};
use m7_par::{derive_seed, ParConfig};
use m7_scen::{
    evaluate_rover, evaluate_uav, falsify_memo, generate, Falsification, FalsifyConfig, Family,
    ScenOutcome,
};
use m7_serve::ResultStore;
use m7_sim::uav::ComputeTier;

/// One UAV sweep cell: (family, level, scenario seed, tier).
type UavCombo = (Family, f64, u64, ComputeTier);

/// The two platform tiers under test: under-provisioned vs. adequate.
pub(crate) const TIERS: [ComputeTier; 2] = [ComputeTier::Micro, ComputeTier::Embedded];
/// Difficulty levels swept in the per-generator table.
pub(crate) const LEVELS: [f64; 3] = [0.2, 0.5, 0.8];
/// World-seed variants per (family, level) cell.
pub(crate) const VARIANTS: u64 = 2;
/// Difficulty level for the rover (RRT-in-the-loop) spot checks.
pub(crate) const ROVER_LEVEL: f64 = 0.35;

/// Aggregate UAV outcome of one tier on one generator family.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FamilyTierStat {
    /// The tier flown.
    pub tier: ComputeTier,
    /// Missions that met their deadline.
    pub successes: usize,
    /// Missions flown (levels × variants).
    pub runs: usize,
    /// Mean mission time across the runs (seconds).
    pub mean_time_s: f64,
}

/// One row of the per-generator table.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FamilyRow {
    /// Generator family.
    pub family: Family,
    /// Mean difficulty score of the swept scenarios.
    pub mean_difficulty: f64,
    /// Per-tier aggregates, in [`TIERS`] order.
    pub tiers: Vec<FamilyTierStat>,
}

/// One rover spot check: a start→goal patrol with RRT in the loop.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RoverRow {
    /// Generator family of the world.
    pub family: Family,
    /// The tier driving.
    pub tier: ComputeTier,
    /// The closed-loop outcome.
    pub outcome: ScenOutcome,
}

/// The E12 result.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ScenariosResult {
    /// Per-generator UAV success/latency rows, one per family.
    pub families: Vec<FamilyRow>,
    /// Rover spot checks (corridor and forest, both tiers).
    pub rover: Vec<RoverRow>,
    /// Falsification outcome per tier, in [`TIERS`] order.
    pub falsifications: Vec<Falsification>,
}

impl ScenariosResult {
    /// Renders the report.
    #[must_use]
    pub(crate) fn report(&self) -> Report {
        let mut report =
            Report::new("E12 — scenario supply: procedural worlds and falsification (§2.1+§3.1)");

        let mut grid = Table::new(
            "UAV deadline success per generator family (3 levels x 2 variants per tier)",
            vec![
                "family",
                "mean difficulty",
                "micro ok",
                "micro time [s]",
                "embedded ok",
                "embedded time [s]",
            ],
        );
        for row in &self.families {
            let mut cells = vec![row.family.to_string(), fmt_f64(row.mean_difficulty)];
            for stat in &row.tiers {
                cells.push(format!("{}/{}", stat.successes, stat.runs));
                cells.push(fmt_f64(stat.mean_time_s));
            }
            grid.push_row(cells);
        }
        report.push_table(grid);

        let mut rover = Table::new(
            "rover spot checks, RRT in the loop (level 0.35)",
            vec!["family", "tier", "outcome", "time [s]", "deadline [s]"],
        );
        for row in &self.rover {
            let verdict = if row.outcome.success {
                "ok"
            } else if row.outcome.deadline_miss {
                "deadline miss"
            } else {
                "incomplete"
            };
            rover.push_row(vec![
                row.family.to_string(),
                row.tier.to_string(),
                verdict.to_string(),
                fmt_f64(row.outcome.time_s),
                fmt_f64(row.outcome.deadline_s),
            ]);
        }
        report.push_table(rover);

        let mut frontier = Table::new(
            "falsification frontier (genetic search over the scenario space)",
            vec!["tier", "easiest failure", "difficulty", "time [s]", "deadline [s]", "evals"],
        );
        for f in &self.falsifications {
            match &f.frontier {
                Some(p) => frontier.push_row(vec![
                    f.tier.to_string(),
                    format!("{} @ level {}", p.family, fmt_f64(p.level)),
                    fmt_f64(p.difficulty),
                    fmt_f64(p.time_s),
                    fmt_f64(p.deadline_s),
                    f.evaluations.to_string(),
                ]),
                None => frontier.push_row(vec![
                    f.tier.to_string(),
                    "survived all".to_string(),
                    format!("> {}", fmt_f64(f.max_difficulty)),
                    "-".to_string(),
                    "-".to_string(),
                    f.evaluations.to_string(),
                ]),
            }
        }
        report.push_table(frontier);

        report.push_note(self.crossover_note());
        report
    }

    /// The crossover statement: where the under-provisioned tier breaks
    /// versus how far the adequate tier survives.
    #[must_use]
    pub(crate) fn crossover_note(&self) -> String {
        let micro = &self.falsifications[0];
        let adequate = &self.falsifications[1];
        match (&micro.frontier, &adequate.frontier) {
            (Some(m), None) => format!(
                "crossover: {} is falsified at difficulty {} ({} @ level {}), while {} \
                 survives the entire probed space up to difficulty {}",
                micro.tier,
                fmt_f64(m.difficulty),
                m.family,
                fmt_f64(m.level),
                adequate.tier,
                fmt_f64(adequate.max_difficulty)
            ),
            (Some(m), Some(a)) => format!(
                "crossover: {} fails at difficulty {} vs {} at {} — margin {}",
                micro.tier,
                fmt_f64(m.difficulty),
                adequate.tier,
                fmt_f64(a.difficulty),
                fmt_f64(a.difficulty - m.difficulty)
            ),
            (None, _) => format!(
                "no crossover found: {} survived the probed space (max difficulty {})",
                micro.tier,
                fmt_f64(micro.max_difficulty)
            ),
        }
    }
}

/// Runs E12 with the two falsification searches memoized through one
/// shared `store`, returning the result plus the number of evaluations
/// the store answered. The [`ScenariosResult`] is the same for any store
/// contents; with a disk-backed [`m7_serve::TieredCache`] the
/// falsification scores persist across process restarts.
#[must_use]
pub(crate) fn run_in<S: ResultStore<f64>>(seed: u64, store: &S) -> (ScenariosResult, u64) {
    let par = ParConfig::default();
    let hits_before = store.hits();

    // Per-generator UAV sweep: the scenario seed depends only on the
    // (family, level, variant) cell, so both tiers fly identical worlds.
    let mut combos = Vec::new();
    for (fi, &family) in Family::ALL.iter().enumerate() {
        for (li, &level) in LEVELS.iter().enumerate() {
            for variant in 0..VARIANTS {
                let cell = ((fi as u64) << 8) | ((li as u64) << 4) | variant;
                let scen_seed = derive_seed(seed, cell);
                for &tier in &TIERS {
                    combos.push((family, level, scen_seed, tier));
                }
            }
        }
    }
    let flights = par.par_map(&combos, |&(family, level, scen_seed, tier)| {
        let s = generate(family, level, scen_seed);
        (s.difficulty(), evaluate_uav(&s, tier, scen_seed))
    });

    let families = Family::ALL
        .iter()
        .map(|&family| {
            let rows: Vec<(&UavCombo, &(f64, ScenOutcome))> =
                combos.iter().zip(&flights).filter(|(c, _)| c.0 == family).collect();
            let tiers = TIERS
                .iter()
                .map(|&tier| {
                    let outs: Vec<&ScenOutcome> =
                        rows.iter().filter(|(c, _)| c.3 == tier).map(|(_, (_, out))| out).collect();
                    FamilyTierStat {
                        tier,
                        successes: outs.iter().filter(|o| o.success).count(),
                        runs: outs.len(),
                        mean_time_s: outs.iter().map(|o| o.time_s).sum::<f64>() / outs.len() as f64,
                    }
                })
                .collect();
            // Each scenario appears once per tier; average over one tier's
            // copy to count every world exactly once.
            let diffs: Vec<f64> =
                rows.iter().filter(|(c, _)| c.3 == TIERS[0]).map(|(_, (d, _))| *d).collect();
            FamilyRow {
                family,
                mean_difficulty: diffs.iter().sum::<f64>() / diffs.len() as f64,
                tiers,
            }
        })
        .collect();

    // Rover spot checks: the same worlds driven with RRT in the loop.
    let rover_combos: Vec<(Family, ComputeTier)> = [Family::Corridor, Family::Forest]
        .into_iter()
        .flat_map(|family| TIERS.into_iter().map(move |tier| (family, tier)))
        .collect();
    let rover = par.par_map(&rover_combos, |&(family, tier)| {
        let scen_seed = derive_seed(seed, 0x9000 | family as u64);
        let s = generate(family, ROVER_LEVEL, scen_seed);
        RoverRow { family, tier, outcome: evaluate_rover(&s, tier, scen_seed) }
    });

    // Adversarial search, one falsification per tier, sharing `store`
    // (distinct namespaces, so tiers never alias each other's scores).
    let cfg = FalsifyConfig::default();
    let falsifications = TIERS
        .iter()
        .enumerate()
        .map(|(ti, &tier)| {
            falsify_memo(tier, &cfg, derive_seed(seed, 0xF000 | ti as u64), par, store)
        })
        .collect();

    (ScenariosResult { families, rover, falsifications }, store.hits() - hits_before)
}

#[cfg(test)]
mod tests {
    use super::*;
    use m7_serve::TieredCache;

    /// Runs E12, deterministic in `seed` and invariant to `M7_THREADS`.
    #[must_use]
    fn run(seed: u64) -> ScenariosResult {
        run_in(seed, &crate::experiments::fresh_store()).0
    }

    #[test]
    fn deterministic() {
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn memory_tier_run_is_bit_identical_and_saves_evaluations() {
        let (tiered, saved) = run_in(3, &TieredCache::memory_only(1 << 12));
        assert_eq!(run(3), tiered, "the store must not change the result");
        assert!(saved > 0, "the genetic searches revisit scenario points");
    }

    #[test]
    fn micro_is_falsified_and_embedded_survives_strictly_harder() {
        let r = run(42);
        let micro = &r.falsifications[0];
        let adequate = &r.falsifications[1];
        let frontier = micro.frontier.as_ref().expect("micro must be falsified");
        match &adequate.frontier {
            None => assert!(
                adequate.max_difficulty > frontier.difficulty,
                "adequate tier survives strictly past micro's frontier"
            ),
            Some(a) => assert!(a.difficulty > frontier.difficulty),
        }
        assert!(r.crossover_note().contains("crossover"));
    }

    #[test]
    fn report_covers_families_tiers_and_frontier() {
        let text = run(2).report().to_string();
        for family in Family::ALL {
            assert!(text.contains(&family.to_string()), "missing {family}");
        }
        assert!(text.contains("micro") && text.contains("embedded"));
        assert!(text.contains("falsification frontier"));
        assert!(text.contains("crossover"));
    }

    #[test]
    fn every_family_has_both_tiers_and_full_runs() {
        let r = run(1);
        assert_eq!(r.families.len(), Family::ALL.len());
        for row in &r.families {
            assert_eq!(row.tiers.len(), TIERS.len());
            for stat in &row.tiers {
                assert_eq!(stat.runs, LEVELS.len() * VARIANTS as usize);
            }
        }
        assert_eq!(r.rover.len(), 4);
    }
}
