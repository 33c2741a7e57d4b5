//! E11 — robustness under faults: graceful degradation as a design axis.
//!
//! The paper's Challenge 6 insists that accelerator designs be judged
//! under "real-world effects like reliability and robustness", not just
//! nominal latency. This experiment runs the same UAV, mission, and fault
//! environment through three designs:
//!
//! - **nominal** — the fault-free environment (the number a datasheet
//!   would quote);
//! - **fault-blind** — harsh faults, no recovery machinery: the vehicle
//!   flies its nominal control law into stale frames, dead sensors, and
//!   sagging packs;
//! - **degradation-aware** — the same fault draws, but the stack carries
//!   watchdogs, warm restarts, dead-reckoning coast, a cheap fallback
//!   kernel, and a commanded safe-stop, paying a ~5% monitoring tax on
//!   nominal reaction time.
//!
//! The claim shape: the degradation-aware design dominates on mission
//! success at a modest nominal-latency cost — robustness is bought, not
//! free, and mission-level scoring is what reveals the price is worth
//! paying.

use crate::report::{fmt_f64, Report, Table};
use m7_par::ParConfig;
use m7_sim::uav::{Uav, UavConfig};
use m7_sim::{
    CampaignConfig, CampaignRunner, DegradationPolicy, FaultProfile, MissionSpec, RobustnessReport,
};
use m7_units::{Joules, Meters, Seconds};

/// One design arm of the campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmRow {
    /// Arm name.
    pub arm: String,
    /// The aggregated campaign metrics.
    pub report: RobustnessReport,
}

/// The E11 result.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessResult {
    /// Monte-Carlo runs per arm.
    pub runs: usize,
    /// Fault-free blind baseline, fault-free aware (the latency tax),
    /// fault-blind, and degradation-aware — in that order.
    pub arms: Vec<ArmRow>,
}

impl RobustnessResult {
    fn arm(&self, name: &str) -> &RobustnessReport {
        &self.arms.iter().find(|a| a.arm == name).expect("arm exists").report
    }

    /// The fault-blind campaign.
    #[must_use]
    pub fn fault_blind(&self) -> &RobustnessReport {
        self.arm("fault-blind")
    }

    /// The degradation-aware campaign.
    #[must_use]
    pub fn degradation_aware(&self) -> &RobustnessReport {
        self.arm("degradation-aware")
    }

    /// Fractional nominal-mission-time cost of carrying the degradation
    /// machinery (aware vs. blind in the fault-free environment).
    #[must_use]
    pub(crate) fn nominal_latency_cost(&self) -> f64 {
        let blind = self.arm("nominal").mean_time_s;
        let aware = self.arm("nominal-aware").mean_time_s;
        aware / blind - 1.0
    }

    /// Renders the report.
    #[must_use]
    pub fn report(&self) -> Report {
        let mut report = Report::new("E11 — robustness under faults (§2.6)");
        let mut t = Table::new(
            format!("{} seeded fault schedules per arm, shared draws", self.runs),
            vec![
                "design",
                "success",
                "safe-stop",
                "crash",
                "mean time [s]",
                "MTTF [s]",
                "degr p50 [s]",
                "degr p99 [s]",
            ],
        );
        for a in &self.arms {
            let r = &a.report;
            let opt = |v: Option<f64>| v.map_or_else(|| "-".to_string(), fmt_f64);
            t.push_row(vec![
                a.arm.clone(),
                fmt_f64(r.success_rate()),
                fmt_f64(r.safe_stop_rate()),
                fmt_f64(r.crash_rate()),
                fmt_f64(r.mean_time_s),
                opt(r.mttf_s),
                opt(r.degraded_p50_s),
                opt(r.degraded_p99_s),
            ]);
        }
        report.push_table(t);
        report.push_note(format!(
            "degradation-aware beats fault-blind on mission success ({} vs {}) under \
             identical fault draws, at a {}% nominal-latency cost — robustness is a \
             design output, and it is bought, not free",
            fmt_f64(self.degradation_aware().success_rate()),
            fmt_f64(self.fault_blind().success_rate()),
            fmt_f64(self.nominal_latency_cost() * 100.0),
        ));
        report
    }
}

/// The campaign vehicle: perception-limited (short-range sensing makes
/// reaction latency the speed cap) with a battery sized to finish the
/// mission with margin, but not enough to shrug off sag and blind creep.
fn campaign_uav() -> Uav {
    Uav::new(UavConfig {
        sensor_range: Meters::new(4.0),
        battery: Joules::from_watt_hours(5.5),
        ..UavConfig::default()
    })
}

/// Runs E11 with `runs` Monte-Carlo draws per arm.
#[must_use]
pub(crate) fn run_with_runs(seed: u64, runs: usize) -> RobustnessResult {
    run_with_runs_par(seed, runs, ParConfig::default())
}

/// Runs E11 with `runs` Monte-Carlo draws per arm on an explicit
/// parallel-execution configuration. The result is bit-identical for any
/// `par` — threads change only wall-clock time.
#[must_use]
pub fn run_with_runs_par(seed: u64, runs: usize, par: ParConfig) -> RobustnessResult {
    let mission = MissionSpec::survey(1500.0);
    let horizon = Seconds::new(300.0);
    let arms = [
        ("nominal", FaultProfile::none(), DegradationPolicy::none()),
        ("nominal-aware", FaultProfile::none(), DegradationPolicy::full()),
        ("fault-blind", FaultProfile::harsh(), DegradationPolicy::none()),
        ("degradation-aware", FaultProfile::harsh(), DegradationPolicy::full()),
    ]
    .into_iter()
    .map(|(name, profile, policy)| {
        let runner = CampaignRunner::new(
            campaign_uav(),
            mission.clone(),
            policy,
            CampaignConfig::new(runs, profile, horizon),
        );
        // All arms share `seed`, so arm i's run j sees the same fault
        // draw (same derived seed, same profile) as every other arm with
        // the same profile — an apples-to-apples design comparison.
        ArmRow { arm: name.to_string(), report: runner.run(seed, &par) }
    })
    .collect();
    RobustnessResult { runs, arms }
}

/// Runs E11 with the default campaign size.
#[must_use]
pub(crate) fn run(seed: u64) -> RobustnessResult {
    run_with_runs(seed, 32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use m7_par::derive_seed;

    /// The seed E11 receives inside `run_all*(42, ..)` — index 10 in
    /// paper order — which is also what the golden report pins.
    fn campaign_seed() -> u64 {
        derive_seed(42, 10)
    }

    #[test]
    fn nominal_environment_is_perfect() {
        let r = run_with_runs(campaign_seed(), 8);
        assert_eq!(r.arm("nominal").success_rate(), 1.0);
        assert_eq!(r.arm("nominal-aware").success_rate(), 1.0);
        assert_eq!(r.arm("nominal").crashes, 0);
    }

    #[test]
    fn awareness_costs_modest_nominal_latency() {
        let r = run_with_runs(campaign_seed(), 8);
        let cost = r.nominal_latency_cost();
        assert!(cost > 0.0, "monitoring must cost something, got {cost}");
        assert!(cost < 0.15, "but the cost must stay modest, got {cost}");
    }

    #[test]
    fn aware_dominates_blind_on_mission_success() {
        let r = run(campaign_seed());
        let blind = r.fault_blind().success_rate();
        let aware = r.degradation_aware().success_rate();
        assert!(
            aware > blind,
            "degradation-aware ({aware}) must strictly beat fault-blind ({blind})"
        );
        assert!(blind < 1.0, "the harsh profile must actually hurt the blind design");
        assert!(
            r.degradation_aware().crash_rate() < r.fault_blind().crash_rate(),
            "awareness must also lose fewer vehicles"
        );
    }

    #[test]
    fn deterministic() {
        assert_eq!(run_with_runs(7, 6), run_with_runs(7, 6));
    }

    #[test]
    fn report_contains_all_arms() {
        let r = run_with_runs(3, 4);
        let text = r.report().to_string();
        for arm in ["nominal", "fault-blind", "degradation-aware"] {
            assert!(text.contains(arm), "report must list {arm}");
        }
    }
}
