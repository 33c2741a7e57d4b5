//! Carbon-accounting quantities: [`GramsCo2e`], [`KilogramsCo2e`], and grid
//! [`CarbonIntensity`].
//!
//! Used by `m7-lca` for the paper's Challenge 7 ("Design Global") models:
//! embodied vs. operational carbon, edge-vs-cloud training, and fleet-scale
//! autonomous-vehicle compute.

use crate::energy::Joules;

quantity! {
    /// A mass of CO₂-equivalent emissions, in grams.
    ///
    /// # Examples
    ///
    /// ```
    /// use m7_units::GramsCo2e;
    ///
    /// let per_inference = GramsCo2e::new(0.002);
    /// let per_day = per_inference * 1_000_000.0;
    /// assert_eq!(per_day, GramsCo2e::new(2000.0));
    /// ```
    GramsCo2e, "gCO2e"
}

quantity! {
    /// A mass of CO₂-equivalent emissions, in kilograms.
    ///
    /// # Examples
    ///
    /// ```
    /// use m7_units::{GramsCo2e, KilogramsCo2e};
    ///
    /// let embodied = KilogramsCo2e::new(15.0);
    /// assert_eq!(GramsCo2e::from(embodied), GramsCo2e::new(15000.0));
    /// ```
    KilogramsCo2e, "kgCO2e"
}

quantity! {
    /// Grid carbon intensity in grams CO₂e per kilowatt-hour.
    ///
    /// # Examples
    ///
    /// ```
    /// use m7_units::{CarbonIntensity, GramsCo2e, Joules};
    ///
    /// let grid = CarbonIntensity::new(400.0); // gCO2e / kWh
    /// let emitted = grid.emissions_for(Joules::from_kilowatt_hours(2.0));
    /// assert_eq!(emitted, GramsCo2e::new(800.0));
    /// ```
    CarbonIntensity, "gCO2e/kWh"
}

impl GramsCo2e {
    /// This emission mass expressed in kilograms CO₂e.
    #[inline]
    #[must_use]
    pub fn to_kilograms(self) -> KilogramsCo2e {
        KilogramsCo2e::new(self.value() / 1e3)
    }
}

impl KilogramsCo2e {
    /// This emission mass expressed in grams CO₂e.
    #[inline]
    #[must_use]
    pub(crate) fn to_grams(self) -> GramsCo2e {
        GramsCo2e::new(self.value() * 1e3)
    }
}

impl From<KilogramsCo2e> for GramsCo2e {
    #[inline]
    fn from(kg: KilogramsCo2e) -> Self {
        kg.to_grams()
    }
}

impl From<GramsCo2e> for KilogramsCo2e {
    #[inline]
    fn from(g: GramsCo2e) -> Self {
        g.to_kilograms()
    }
}

impl CarbonIntensity {
    /// The emissions produced by drawing `energy` from a grid with this
    /// intensity.
    #[inline]
    #[must_use]
    pub fn emissions_for(self, energy: Joules) -> GramsCo2e {
        GramsCo2e::new(self.value() * energy.as_kilowatt_hours())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gram_kilogram_round_trip() {
        let g = GramsCo2e::new(2500.0);
        let kg: KilogramsCo2e = g.into();
        assert_eq!(kg, KilogramsCo2e::new(2.5));
        let back: GramsCo2e = kg.into();
        assert_eq!(back, g);
    }

    #[test]
    fn grid_emissions() {
        // A clean grid emits less for the same energy.
        let energy = Joules::from_kilowatt_hours(10.0);
        let dirty = CarbonIntensity::new(700.0).emissions_for(energy);
        let clean = CarbonIntensity::new(50.0).emissions_for(energy);
        assert!(dirty > clean);
        assert_eq!(dirty, GramsCo2e::new(7000.0));
        assert_eq!(clean, GramsCo2e::new(500.0));
    }
}
