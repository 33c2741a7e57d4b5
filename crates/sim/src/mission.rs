//! Mission specifications and mission-level outcome metrics.
//!
//! The paper's Challenge 2 argues for *system-level* metrics; these types
//! are what the framework reports instead of raw kernel throughput.

use m7_units::{Joules, Meters, MetersPerSecond, Seconds, Watts};

/// A mission for a simulated vehicle.
///
/// # Examples
///
/// ```
/// use m7_sim::MissionSpec;
///
/// let m = MissionSpec::survey(2000.0);
/// assert_eq!(m.distance().value(), 2000.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MissionSpec {
    name: String,
    distance: Meters,
    /// Extra payload carried (grams) — deliveries carry cargo.
    payload_grams: f64,
    /// Standard deviation of gust-induced speed disturbance (fraction).
    gust_std: f64,
}

impl MissionSpec {
    /// A survey mission covering `distance_m` meters with no payload.
    #[must_use]
    pub fn survey(distance_m: f64) -> Self {
        Self {
            name: format!("survey-{distance_m}m"),
            distance: Meters::new(distance_m),
            payload_grams: 0.0,
            gust_std: 0.05,
        }
    }

    /// A delivery mission carrying `payload_g` grams over `distance_m`
    /// meters.
    #[must_use]
    pub fn delivery(distance_m: f64, payload_g: f64) -> Self {
        Self {
            name: format!("delivery-{distance_m}m-{payload_g}g"),
            distance: Meters::new(distance_m),
            payload_grams: payload_g,
            gust_std: 0.05,
        }
    }

    /// Overrides the gust disturbance level.
    ///
    /// # Panics
    ///
    /// Panics if `std` is negative.
    #[must_use]
    pub fn with_gusts(mut self, std: f64) -> Self {
        assert!(std >= 0.0, "gust std must be non-negative");
        self.gust_std = std;
        self
    }

    /// Mission name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Course length.
    #[must_use]
    pub fn distance(&self) -> Meters {
        self.distance
    }

    /// Cargo mass in grams.
    #[must_use]
    pub fn payload_grams(&self) -> f64 {
        self.payload_grams
    }

    /// Gust disturbance standard deviation (fraction of commanded speed).
    #[must_use]
    pub fn gust_std(&self) -> f64 {
        self.gust_std
    }
}

/// The outcome of one simulated mission.
#[derive(Debug, Clone, PartialEq)]
pub struct MissionOutcome {
    /// Whether the full course was covered before the battery died.
    pub completed: bool,
    /// Elapsed mission time (to completion or battery exhaustion).
    pub time: Seconds,
    /// Total energy drawn.
    pub energy: Joules,
    /// Distance actually covered.
    pub distance: Meters,
    /// Average ground speed.
    pub average_speed: MetersPerSecond,
    /// Average propulsion (hover + thrust) power.
    pub propulsion_power: Watts,
    /// Average compute power.
    pub compute_power: Watts,
    /// Number of replanning cycles executed.
    pub replans: u64,
}

impl MissionOutcome {
    /// Energy per meter covered — the mission-level efficiency metric.
    ///
    /// Returns infinity if no distance was covered.
    #[must_use]
    pub fn energy_per_meter(&self) -> f64 {
        if self.distance.value() <= 0.0 {
            return f64::INFINITY;
        }
        self.energy.value() / self.distance.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_constructors() {
        let s = MissionSpec::survey(500.0);
        assert_eq!(s.payload_grams(), 0.0);
        assert!(s.name().contains("survey"));
        let d = MissionSpec::delivery(800.0, 250.0);
        assert_eq!(d.payload_grams(), 250.0);
        assert_eq!(d.distance(), Meters::new(800.0));
    }

    #[test]
    fn gust_override() {
        let s = MissionSpec::survey(100.0).with_gusts(0.2);
        assert_eq!(s.gust_std(), 0.2);
    }

    #[test]
    fn energy_per_meter() {
        let o = MissionOutcome {
            completed: true,
            time: Seconds::new(100.0),
            energy: Joules::new(5000.0),
            distance: Meters::new(1000.0),
            average_speed: MetersPerSecond::new(10.0),
            propulsion_power: Watts::new(45.0),
            compute_power: Watts::new(5.0),
            replans: 100,
        };
        assert!((o.energy_per_meter() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn zero_distance_energy_per_meter_is_infinite() {
        let o = MissionOutcome {
            completed: false,
            time: Seconds::ZERO,
            energy: Joules::ZERO,
            distance: Meters::new(0.0),
            average_speed: MetersPerSecond::new(0.0),
            propulsion_power: Watts::ZERO,
            compute_power: Watts::ZERO,
            replans: 0,
        };
        assert!(o.energy_per_meter().is_infinite());
    }
}
