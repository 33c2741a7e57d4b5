//! Fleet-scale compute emissions: the "datacenters on wheels" model.
//!
//! The paper cites the result that a global autonomous-vehicle fleet's
//! onboard computers could rival datacenters in emissions. This module
//! reproduces that accounting: per-vehicle compute power × duty cycle ×
//! fleet size, compared against a hyperscale-datacenter baseline.

use crate::carbon::{operational_carbon, GridIntensity};
use m7_units::{KilogramsCo2e, Seconds, Watts};

/// A deployed fleet of autonomous vehicles with onboard compute.
///
/// # Examples
///
/// ```
/// use m7_lca::FleetModel;
/// use m7_units::Watts;
///
/// // The paper's headline scenario shape: ~100M AVs at ~1kW onboard.
/// let fleet = FleetModel::new(100_000_000, Watts::new(1000.0), 8.0);
/// let annual = fleet.annual_emissions();
/// // Hundreds of megatonnes-scale? No: ~140 Mt at world-average grid —
/// // datacenter-class.
/// assert!(annual.value() > 1e11);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetModel {
    vehicles: u64,
    compute_power: Watts,
    duty_hours_per_day: f64,
}

impl FleetModel {
    /// The grid every vehicle charges from.
    const GRID: GridIntensity = GridIntensity::WorldAverage;

    /// Creates a fleet of `vehicles` each drawing `compute_power` for
    /// `duty_hours_per_day`, on the world-average grid.
    ///
    /// # Panics
    ///
    /// Panics if `duty_hours_per_day` is outside `[0, 24]`.
    #[must_use]
    pub fn new(vehicles: u64, compute_power: Watts, duty_hours_per_day: f64) -> Self {
        assert!((0.0..=24.0).contains(&duty_hours_per_day), "duty hours must be within a day");
        Self { vehicles, compute_power, duty_hours_per_day }
    }

    /// Number of vehicles.
    #[must_use]
    pub fn vehicles(&self) -> u64 {
        self.vehicles
    }

    /// Per-vehicle compute power.
    #[must_use]
    pub fn compute_power(&self) -> Watts {
        self.compute_power
    }

    /// Annual per-vehicle compute energy duty time.
    #[must_use]
    pub(crate) fn annual_duty(&self) -> Seconds {
        Seconds::from_hours(self.duty_hours_per_day * 365.0)
    }

    /// Annual fleet-wide compute emissions.
    #[must_use]
    pub fn annual_emissions(&self) -> KilogramsCo2e {
        let per_vehicle =
            operational_carbon(self.compute_power, self.annual_duty(), Self::GRID, 1.0);
        per_vehicle * self.vehicles as f64
    }

    /// The fleet's annual emissions as a multiple of a reference
    /// hyperscale datacenter (100 MW IT load, PUE 1.2, 24/7, same grid).
    #[must_use]
    pub fn datacenter_equivalents(&self) -> f64 {
        let dc = operational_carbon(
            Watts::new(100e6),
            Seconds::from_hours(24.0 * 365.0),
            Self::GRID,
            1.2,
        );
        self.annual_emissions() / dc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_vehicle_sanity() {
        // 1 kW for 8 h/day ≈ 2920 kWh/yr ⇒ ~1.4 t at world average.
        let one = FleetModel::new(1, Watts::new(1000.0), 8.0);
        let kg = one.annual_emissions().value();
        assert!(kg > 1200.0 && kg < 1600.0, "got {kg}");
    }

    #[test]
    fn fleet_scales_linearly() {
        let one = FleetModel::new(1, Watts::new(1000.0), 8.0).annual_emissions();
        let million = FleetModel::new(1_000_000, Watts::new(1000.0), 8.0).annual_emissions();
        assert!((million.value() / one.value() - 1e6).abs() / 1e6 < 1e-9);
    }

    #[test]
    fn headline_fleet_rivals_datacenters() {
        // The paper's cited claim shape: a large AV fleet exceeds a
        // hyperscale datacenter's footprint by orders of magnitude.
        let fleet = FleetModel::new(100_000_000, Watts::new(840.0), 8.0);
        assert!(fleet.datacenter_equivalents() > 100.0);
    }

    #[test]
    fn efficient_compute_cuts_fleet_emissions_proportionally() {
        let hungry = FleetModel::new(1_000_000, Watts::new(1000.0), 8.0).annual_emissions();
        let lean = FleetModel::new(1_000_000, Watts::new(100.0), 8.0).annual_emissions();
        assert!((hungry.value() / lean.value() - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "duty hours")]
    fn rejects_impossible_duty() {
        let _ = FleetModel::new(1, Watts::new(1.0), 25.0);
    }
}
