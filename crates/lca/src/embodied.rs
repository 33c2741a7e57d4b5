//! Embodied (manufacturing) carbon of silicon, ACT-style: carbon per
//! wafer area scaled by process node, divided by die yield, plus
//! packaging.

use m7_units::{KilogramsCo2e, SquareMillimeters};

/// Fab carbon intensity per good square centimeter at a given node, in
/// kgCO₂e/cm² — representative of published ACT-class figures: newer nodes
/// need more lithography passes and energy per area.
#[must_use]
pub(crate) fn fab_intensity_kg_per_cm2(node_nm: f64) -> f64 {
    // Piecewise-linear fit through representative points:
    // 28 nm → 1.0, 14 nm → 1.4, 7 nm → 2.1, 3 nm → 2.9 kgCO2e/cm².
    let anchors = [(3.0, 2.9), (7.0, 2.1), (14.0, 1.4), (28.0, 1.0), (65.0, 0.7)];
    if node_nm <= anchors[0].0 {
        return anchors[0].1;
    }
    for w in anchors.windows(2) {
        let (n0, c0) = w[0];
        let (n1, c1) = w[1];
        if node_nm <= n1 {
            let t = (node_nm - n0) / (n1 - n0);
            return c0 + t * (c1 - c0);
        }
    }
    anchors.last().expect("anchors nonempty").1
}

/// Poisson (Murphy) die-yield model for a defect density in defects/cm².
#[must_use]
pub(crate) fn poisson_yield(area: SquareMillimeters, defect_density_per_cm2: f64) -> f64 {
    let area_cm2 = area.value() / 100.0;
    (-defect_density_per_cm2 * area_cm2).exp()
}

/// A silicon die specification for embodied-carbon accounting.
///
/// # Examples
///
/// ```
/// use m7_lca::DieSpec;
/// use m7_units::SquareMillimeters;
///
/// let small = DieSpec::new(SquareMillimeters::new(50.0), 7.0);
/// let large = DieSpec::new(SquareMillimeters::new(500.0), 7.0);
/// // Embodied carbon grows super-linearly with area (yield loss).
/// let ratio = large.embodied_carbon().value() / small.embodied_carbon().value();
/// assert!(ratio > 10.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DieSpec {
    area: SquareMillimeters,
    node_nm: f64,
}

impl DieSpec {
    /// Representative defect density (defects/cm²).
    const DEFECT_DENSITY_PER_CM2: f64 = 0.1;
    /// Representative packaging overhead (kgCO₂e).
    const PACKAGING_KG: f64 = 0.15;

    /// Creates a die at the given area and process node with representative
    /// defect density (0.1 /cm²) and packaging overhead (0.15 kgCO₂e).
    ///
    /// # Panics
    ///
    /// Panics if the area or node is non-positive or non-finite.
    #[must_use]
    pub fn new(area: SquareMillimeters, node_nm: f64) -> Self {
        assert!(area.value() > 0.0 && area.is_finite(), "die area must be positive");
        assert!(node_nm > 0.0 && node_nm.is_finite(), "process node must be positive");
        Self { area, node_nm }
    }

    /// Die area.
    #[must_use]
    pub fn area(&self) -> SquareMillimeters {
        self.area
    }

    /// Expected die yield under the Poisson model.
    #[must_use]
    pub fn yield_fraction(&self) -> f64 {
        poisson_yield(self.area, Self::DEFECT_DENSITY_PER_CM2)
    }

    /// Embodied manufacturing carbon per *good* die: fab intensity × area /
    /// yield + packaging.
    #[must_use]
    pub fn embodied_carbon(&self) -> KilogramsCo2e {
        let area_cm2 = self.area.value() / 100.0;
        let fab = fab_intensity_kg_per_cm2(self.node_nm) * area_cm2 / self.yield_fraction();
        KilogramsCo2e::new(fab + Self::PACKAGING_KG)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn newer_nodes_are_dirtier_per_area() {
        assert!(fab_intensity_kg_per_cm2(7.0) > fab_intensity_kg_per_cm2(28.0));
        assert!(fab_intensity_kg_per_cm2(3.0) > fab_intensity_kg_per_cm2(7.0));
        // Anchor values are reproduced exactly.
        assert!((fab_intensity_kg_per_cm2(28.0) - 1.0).abs() < 1e-12);
        assert!((fab_intensity_kg_per_cm2(7.0) - 2.1).abs() < 1e-12);
    }

    #[test]
    fn intensity_is_clamped_at_extremes() {
        assert_eq!(fab_intensity_kg_per_cm2(1.0), 2.9);
        assert_eq!(fab_intensity_kg_per_cm2(200.0), 0.7);
    }

    #[test]
    fn yield_decreases_with_area() {
        let small = poisson_yield(SquareMillimeters::new(50.0), 0.1);
        let large = poisson_yield(SquareMillimeters::new(600.0), 0.1);
        assert!(small > large);
        assert!(small > 0.9, "50 mm² at 0.1/cm² yields well");
        assert!(large < 0.6, "600 mm² at 0.1/cm² yields poorly");
    }

    #[test]
    fn zero_defects_is_perfect_yield() {
        assert_eq!(poisson_yield(SquareMillimeters::new(400.0), 0.0), 1.0);
    }

    #[test]
    fn embodied_carbon_is_plausible() {
        // A 100 mm² 7 nm SoC: a few kgCO2e.
        let soc = DieSpec::new(SquareMillimeters::new(100.0), 7.0);
        let kg = soc.embodied_carbon().value();
        assert!(kg > 1.0 && kg < 10.0, "got {kg}");
    }

    proptest! {
        #[test]
        fn prop_carbon_monotone_in_area(a in 10.0..500.0f64, b in 10.0..500.0f64) {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            let small = DieSpec::new(SquareMillimeters::new(lo), 7.0).embodied_carbon();
            let large = DieSpec::new(SquareMillimeters::new(hi), 7.0).embodied_carbon();
            prop_assert!(small <= large);
        }

        #[test]
        fn prop_yield_in_unit_interval(area in 1.0..1000.0f64, d0 in 0.0..2.0f64) {
            let y = poisson_yield(SquareMillimeters::new(area), d0);
            prop_assert!((0.0..=1.0).contains(&y));
        }
    }
}
