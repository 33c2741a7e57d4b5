//! E5 — Challenge 4, "Pump the Brakes": the UAV compute-tier sweep.
//!
//! Reproduces the cited co-design result: mission energy per meter is
//! U-shaped in onboard compute capability, and over-provisioned compute
//! fails long missions outright through mass and power.

use crate::report::{fmt_f64, Report, Table};
use m7_sim::uav::{ComputeTier, Uav, UavConfig};
use m7_sim::MissionSpec;

/// Per-tier mission outcome summary.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TierRow {
    /// The compute tier.
    pub tier: String,
    /// Perception-limited cruise speed (m/s).
    pub safe_speed: f64,
    /// All-up mass (g).
    pub mass_g: f64,
    /// Whether the mission completed.
    pub completed: bool,
    /// Mission time (s).
    pub time_s: f64,
    /// Energy per meter covered (J/m).
    pub energy_per_meter: f64,
}

/// The E5 result.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BrakesResult {
    /// Course length flown (m).
    pub distance_m: f64,
    /// One row per tier, weakest to strongest.
    pub rows: Vec<TierRow>,
    /// The tier with the lowest energy per meter.
    pub best_tier: String,
}

impl BrakesResult {
    /// Renders the report.
    #[must_use]
    pub(crate) fn report(&self) -> Report {
        let mut report = Report::new("E5 — pump the brakes: UAV compute sweep (§2.4)");
        let mut t = Table::new(
            format!("{} m survey mission by compute tier", self.distance_m),
            vec![
                "tier",
                "safe speed [m/s]",
                "all-up mass [g]",
                "completed",
                "time [s]",
                "energy [J/m]",
            ],
        );
        for row in &self.rows {
            t.push_row(vec![
                row.tier.clone(),
                fmt_f64(row.safe_speed),
                fmt_f64(row.mass_g),
                row.completed.to_string(),
                fmt_f64(row.time_s),
                fmt_f64(row.energy_per_meter),
            ]);
        }
        report.push_table(t);
        report.push_note(format!(
            "energy per meter is U-shaped in compute tier; best tier: {} — both \
             under- and over-provisioning lose (the cited UAV co-design shape)",
            self.best_tier
        ));
        report
    }
}

/// Runs E5 over a 4 km survey.
#[must_use]
pub(crate) fn run(seed: u64) -> BrakesResult {
    let distance_m = 4000.0;
    let mission = MissionSpec::survey(distance_m);
    let rows: Vec<TierRow> = ComputeTier::ALL
        .iter()
        .map(|&tier| {
            let uav = Uav::new(UavConfig::default().with_tier(tier));
            let out = uav.fly(&mission, seed);
            TierRow {
                tier: tier.to_string(),
                safe_speed: uav.safe_speed().value(),
                mass_g: uav.all_up_mass(&mission).value(),
                completed: out.completed,
                time_s: out.time.value(),
                energy_per_meter: out.energy_per_meter(),
            }
        })
        .collect();
    let best_tier = rows
        .iter()
        .filter(|r| r.completed)
        .min_by(|a, b| {
            a.energy_per_meter.partial_cmp(&b.energy_per_meter).expect("finite energies")
        })
        .expect("some tier completes")
        .tier
        .clone();
    BrakesResult { distance_m, rows, best_tier }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u_shape_holds() {
        let r = run(5);
        let epm: Vec<f64> = r.rows.iter().map(|row| row.energy_per_meter).collect();
        // The middle tiers beat both extremes.
        let best_mid = epm[1].min(epm[2]);
        assert!(best_mid < epm[0], "middle {best_mid} must beat micro {}", epm[0]);
        assert!(best_mid < epm[4], "middle {best_mid} must beat server {}", epm[4]);
    }

    #[test]
    fn best_tier_is_a_middle_tier() {
        let r = run(5);
        assert!(r.best_tier == "embedded" || r.best_tier == "embedded-gpu", "got {}", r.best_tier);
    }

    #[test]
    fn overprovisioned_tier_fails_the_long_mission() {
        let r = run(5);
        let server = r.rows.iter().find(|row| row.tier == "server").unwrap();
        assert!(!server.completed, "server tier should drain the battery");
    }

    #[test]
    fn speeds_and_masses_are_monotone() {
        let r = run(5);
        for w in r.rows.windows(2) {
            assert!(w[0].safe_speed <= w[1].safe_speed + 1e-9);
            assert!(w[0].mass_g < w[1].mass_g);
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn report_mentions_best_tier() {
        let r = run(5);
        assert!(r.report().to_string().contains(&r.best_tier));
    }
}
