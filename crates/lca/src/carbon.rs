//! Grid intensities, operational emissions, and combined lifecycle
//! footprints.

use m7_units::{CarbonIntensity, GramsCo2e, Joules, KilogramsCo2e, Seconds, Watts};

/// Representative grid carbon intensities (gCO₂e/kWh).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GridIntensity {
    /// World average grid.
    WorldAverage,
    /// United States average.
    UnitedStates,
    /// European Union average.
    EuropeanUnion,
    /// Coal-heavy regional grid.
    CoalHeavy,
    /// Hydro/nuclear-dominated grid.
    LowCarbon,
    /// Dedicated solar + storage.
    Solar,
}

impl GridIntensity {
    /// The intensity value.
    #[must_use]
    pub fn value(self) -> CarbonIntensity {
        CarbonIntensity::new(match self {
            Self::WorldAverage => 480.0,
            Self::UnitedStates => 390.0,
            Self::EuropeanUnion => 280.0,
            Self::CoalHeavy => 820.0,
            Self::LowCarbon => 50.0,
            Self::Solar => 40.0,
        })
    }
}

/// A combined embodied + operational carbon footprint.
///
/// # Examples
///
/// ```
/// use m7_lca::{CarbonFootprint, GridIntensity};
/// use m7_units::{Joules, KilogramsCo2e};
///
/// let fp = CarbonFootprint::new(KilogramsCo2e::new(10.0))
///     .add_operation(Joules::from_kilowatt_hours(100.0), GridIntensity::UnitedStates);
/// assert!(fp.total().value() > 10.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CarbonFootprint {
    embodied: KilogramsCo2e,
    operational: KilogramsCo2e,
}

impl CarbonFootprint {
    /// Creates a footprint with the given embodied carbon and zero
    /// operational carbon.
    #[must_use]
    pub fn new(embodied: KilogramsCo2e) -> Self {
        Self { embodied, operational: KilogramsCo2e::ZERO }
    }

    /// Adds operational emissions for `energy` drawn from `grid`.
    #[must_use]
    pub fn add_operation(mut self, energy: Joules, grid: GridIntensity) -> Self {
        let grams: GramsCo2e = grid.value().emissions_for(energy);
        self.operational += grams.to_kilograms();
        self
    }

    /// Embodied component.
    #[must_use]
    pub fn embodied(&self) -> KilogramsCo2e {
        self.embodied
    }

    /// Operational component.
    #[must_use]
    pub fn operational(&self) -> KilogramsCo2e {
        self.operational
    }

    /// Total lifecycle carbon.
    #[must_use]
    pub fn total(&self) -> KilogramsCo2e {
        self.embodied + self.operational
    }

    /// Fraction of the total that is embodied — high values mean the
    /// hardware should live longer or be reused (chiplets), the paper's
    /// end-of-life argument.
    #[must_use]
    pub fn embodied_fraction(&self) -> f64 {
        let total = self.total();
        if total.value() <= 0.0 {
            return 0.0;
        }
        self.embodied / total
    }
}

/// Operational carbon of a device drawing `power` continuously for
/// `duration` on `grid`, with a facility overhead factor `pue` (power
/// usage effectiveness; 1.0 = no overhead).
///
/// # Panics
///
/// Panics if `pue < 1.0`.
#[must_use]
pub fn operational_carbon(
    power: Watts,
    duration: Seconds,
    grid: GridIntensity,
    pue: f64,
) -> KilogramsCo2e {
    assert!(pue >= 1.0, "PUE cannot be below 1.0");
    let energy: Joules = power * duration * pue;
    grid.value().emissions_for(energy).to_kilograms()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_ordering() {
        assert!(GridIntensity::CoalHeavy.value() > GridIntensity::WorldAverage.value());
        assert!(GridIntensity::WorldAverage.value() > GridIntensity::EuropeanUnion.value());
        assert!(GridIntensity::EuropeanUnion.value() > GridIntensity::Solar.value());
    }

    #[test]
    fn footprint_accumulates() {
        let fp = CarbonFootprint::new(KilogramsCo2e::new(5.0))
            .add_operation(Joules::from_kilowatt_hours(10.0), GridIntensity::WorldAverage)
            .add_operation(Joules::from_kilowatt_hours(10.0), GridIntensity::WorldAverage);
        // 20 kWh × 480 g/kWh = 9.6 kg.
        assert!((fp.operational().value() - 9.6).abs() < 1e-9);
        assert!((fp.total().value() - 14.6).abs() < 1e-9);
        assert!((fp.embodied_fraction() - 5.0 / 14.6).abs() < 1e-9);
    }

    #[test]
    fn zero_footprint_fraction() {
        let fp = CarbonFootprint::new(KilogramsCo2e::ZERO);
        assert_eq!(fp.embodied_fraction(), 0.0);
    }

    #[test]
    fn operational_carbon_scales_with_pue() {
        let base = operational_carbon(
            Watts::new(100.0),
            Seconds::from_hours(1000.0),
            GridIntensity::UnitedStates,
            1.0,
        );
        let datacenter = operational_carbon(
            Watts::new(100.0),
            Seconds::from_hours(1000.0),
            GridIntensity::UnitedStates,
            1.5,
        );
        assert!((datacenter.value() / base.value() - 1.5).abs() < 1e-9);
        // 100 kWh × 390 = 39 kg.
        assert!((base.value() - 39.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "PUE")]
    fn rejects_sub_unity_pue() {
        let _ = operational_carbon(Watts::new(1.0), Seconds::new(1.0), GridIntensity::Solar, 0.9);
    }
}
