//! E14 — §2.1 at scale: streaming mega-campaigns over scenario space.
//!
//! E12 grades tiers on a small (family × level × variant) grid and
//! finds one frontier point per tier. E14 asks the fleet-scale
//! question: across *every* family and *every* difficulty band, how
//! often does a tier succeed, and how tightly is that probability
//! pinned down? The `m7-camp` engine streams the answer — scenarios
//! are generated, flown, and discarded; only per-stratum Wilson
//! sketches survive — while importance splitting drains budget away
//! from settled strata and concentrates it where the tier flips
//! between success and failure.

use crate::report::{fmt_f64, Report, Table};
use m7_camp::{run_campaign, CampaignOutcome, CampaignPlan};
use m7_par::{derive_seed, ParConfig};
use m7_serve::{EvalCache, ResultStore};
use m7_sim::uav::ComputeTier;

/// The two platform tiers campaigned: under-provisioned vs. adequate —
/// the same pair E12 falsifies, now measured across the whole envelope.
pub(crate) const TIERS: [ComputeTier; 2] = [ComputeTier::Micro, ComputeTier::Embedded];
/// Closed-loop evaluation budget per tier's campaign.
pub(crate) const BUDGET: usize = 600;
/// Most-sampled strata shown per tier in the importance table.
pub(crate) const TOP_STRATA: usize = 8;

/// The E14 result: one finished campaign per tier, under-provisioned
/// ([`ComputeTier::Micro`]) first, then adequate ([`ComputeTier::Embedded`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CampaignResult {
    /// Campaign outcomes, one per tier: Micro, then Embedded.
    pub outcomes: Vec<CampaignOutcome>,
}

impl CampaignResult {
    /// Renders the report.
    #[must_use]
    pub(crate) fn report(&self) -> Report {
        let mut report = Report::new(
            "E14 — streaming campaigns: stratified coverage with importance splitting (§2.1+§3.1)",
        );

        let mut summary = Table::new(
            "campaign summary (budget streamed through adaptive stratified rounds)",
            vec!["tier", "budget", "strata", "units", "coverage", "anchor", "frontier"],
        );
        for out in &self.outcomes {
            let frontier = match &out.frontier {
                Some(p) => format!("{} @ level {}", p.family, fmt_f64(p.level)),
                None => "survived probe".to_string(),
            };
            summary.push_row(vec![
                out.tier.to_string(),
                out.evaluations.to_string(),
                out.strata.len().to_string(),
                out.units.to_string(),
                fmt_f64(out.coverage),
                fmt_f64(out.anchor),
                frontier,
            ]);
        }
        report.push_table(summary);

        for out in &self.outcomes {
            report.push_table(self.curve_table(out));
        }

        let mut top = Table::new(
            "importance splitting: most-sampled strata per tier",
            vec!["tier", "family", "levels", "draws", "ok", "95% Wilson"],
        );
        for out in &self.outcomes {
            let mut order: Vec<usize> = (0..out.strata.len()).collect();
            order.sort_by(|&a, &b| out.strata[b].draws.cmp(&out.strata[a].draws).then(a.cmp(&b)));
            for &i in order.iter().take(TOP_STRATA) {
                let s = &out.strata[i];
                top.push_row(vec![
                    out.tier.to_string(),
                    s.family.to_string(),
                    format!(
                        "{}-{}",
                        fmt_f64(s.decile as f64 / 10.0),
                        fmt_f64((s.decile + 1) as f64 / 10.0)
                    ),
                    s.draws.to_string(),
                    format!("{}/{}", s.sketch.successes, s.sketch.trials),
                    format!("{}..{}", fmt_f64(s.wilson.0), fmt_f64(s.wilson.1)),
                ]);
            }
        }
        report.push_table(top);

        let mut rounds = Table::new(
            "budget per adaptive round (round 0 = uniform pilot)",
            vec!["tier", "round", "evals", "active strata"],
        );
        for out in &self.outcomes {
            for r in &out.rounds {
                rounds.push_row(vec![
                    out.tier.to_string(),
                    r.round.to_string(),
                    r.evaluations.to_string(),
                    r.active_strata.to_string(),
                ]);
            }
        }
        report.push_table(rounds);

        report.push_note(self.coverage_note());
        report
    }

    /// Per-family success curve of one tier: successes/draws per
    /// difficulty decile.
    fn curve_table(&self, out: &CampaignOutcome) -> Table {
        let mut table = Table::new(
            format!("success curve — {} (ok/draws per difficulty decile)", out.tier),
            vec!["family", "d0", "d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8", "d9"],
        );
        let families: Vec<_> = {
            let mut seen = Vec::new();
            for s in &out.strata {
                if !seen.contains(&s.family) {
                    seen.push(s.family);
                }
            }
            seen
        };
        for family in families {
            let mut cells = vec![family.to_string()];
            let mut row: Vec<_> = out.strata.iter().filter(|s| s.family == family).collect();
            row.sort_by_key(|s| s.decile);
            for s in row {
                cells.push(format!("{}/{}", s.sketch.successes, s.sketch.trials));
            }
            table.push_row(cells);
        }
        table
    }

    /// The coverage statement the campaign exists to make.
    #[must_use]
    pub(crate) fn coverage_note(&self) -> String {
        let micro = &self.outcomes[0];
        let adequate = &self.outcomes[1];
        format!(
            "coverage: {} pins its success curves to {} after {} streamed evaluations \
             (anchor {}), {} to {} (anchor {}); memory stayed O(strata) = {} sketches per tier",
            micro.tier,
            fmt_f64(micro.coverage),
            micro.evaluations,
            fmt_f64(micro.anchor),
            adequate.tier,
            fmt_f64(adequate.coverage),
            fmt_f64(adequate.anchor),
            micro.strata.len()
        )
    }
}

/// The plan every E14 campaign runs: all families, ten deciles, the
/// default adaptive-round shape, [`BUDGET`] evaluations.
#[must_use]
pub(crate) fn plan(tier: ComputeTier) -> CampaignPlan {
    CampaignPlan::new(tier, BUDGET)
}

/// Runs E14 with the campaigns' anchoring falsification probes memoized
/// through one shared `store`, returning the result plus the number of
/// probe evaluations the store answered. The [`CampaignResult`] is the
/// same for any store contents; with a disk-backed
/// [`m7_serve::TieredCache`] the probes survive process restarts.
#[must_use]
pub(crate) fn run_in<S: ResultStore<f64>>(seed: u64, store: &S) -> (CampaignResult, u64) {
    run_on(seed, store, ParConfig::default())
}

fn run_on<S: ResultStore<f64>>(seed: u64, store: &S, par: ParConfig) -> (CampaignResult, u64) {
    let hits_before = store.hits();
    let outcomes = TIERS
        .iter()
        .enumerate()
        .map(|(ti, &tier)| {
            // Memory-only unit store: E14 itself is a one-shot run; the
            // campaign example wires the disk-backed store for resume.
            let units = EvalCache::new(4096);
            run_campaign(&plan(tier), derive_seed(seed, 0xC000 | ti as u64), par, &units, store)
        })
        .collect();
    (CampaignResult { outcomes }, store.hits() - hits_before)
}

#[cfg(test)]
mod tests {
    use super::*;
    use m7_serve::TieredCache;

    /// Runs E14, deterministic in `seed` and invariant to `M7_THREADS`.
    fn run(seed: u64) -> CampaignResult {
        run_in(seed, &crate::experiments::fresh_store()).0
    }

    /// [`run`] on an explicit pool, to compare 1 vs 8 workers inside one
    /// process.
    fn run_with_par(seed: u64, par: ParConfig) -> CampaignResult {
        run_on(seed, &crate::experiments::fresh_store(), par).0
    }

    #[test]
    fn deterministic() {
        assert_eq!(run(5), run(5));
    }

    /// The full E14 report — both tiers, curves, importance tables,
    /// notes — is byte-identical at 1 vs 8 threads.
    #[test]
    fn report_identical_at_1_vs_8_threads() {
        let one = run_with_par(42, ParConfig::with_threads(1));
        let eight = run_with_par(42, ParConfig::with_threads(8));
        assert_eq!(one, eight, "E14 campaign outcomes must not depend on thread count");
        assert_eq!(
            one.report().to_string(),
            eight.report().to_string(),
            "E14 report must be byte-identical at 1 vs 8 threads"
        );
    }

    #[test]
    fn budget_is_fully_streamed_for_every_tier() {
        let r = run(7);
        assert_eq!(r.outcomes.len(), TIERS.len());
        for out in &r.outcomes {
            assert_eq!(out.evaluations as usize, BUDGET);
            assert_eq!(out.strata.iter().map(|s| s.sketch.trials).sum::<u64>(), BUDGET as u64);
        }
    }

    #[test]
    fn adequate_tier_covers_better_or_equal_success() {
        let r = run(42);
        let micro_ok: u64 = r.outcomes[0].strata.iter().map(|s| s.sketch.successes).sum();
        let embedded_ok: u64 = r.outcomes[1].strata.iter().map(|s| s.sketch.successes).sum();
        assert!(
            embedded_ok >= micro_ok,
            "embedded ({embedded_ok}) must succeed at least as often as micro ({micro_ok})"
        );
    }

    #[test]
    fn report_covers_tiers_curves_and_rounds() {
        let text = run(2).report().to_string();
        assert!(text.contains("campaign summary"));
        assert!(text.contains("success curve — micro"));
        assert!(text.contains("success curve — embedded"));
        assert!(text.contains("importance splitting"));
        assert!(text.contains("budget per adaptive round"));
        assert!(text.contains("coverage:"));
    }

    #[test]
    fn memory_tier_run_is_bit_identical_and_saves_evaluations() {
        let (tiered, saved) = run_in(3, &TieredCache::memory_only(1 << 12));
        assert_eq!(run(3), tiered, "the store must not change the result");
        assert!(saved > 0, "the two tiers' probes revisit scenario points");
    }
}
