//! Chiplet vs. monolithic embodied carbon, with cross-generation reuse —
//! the paper's sustainability argument for modular hardware.

use crate::embodied::DieSpec;
use m7_units::{KilogramsCo2e, SquareMillimeters};

/// A system built either as one monolithic die or as several chiplets of
/// equal total area.
///
/// # Examples
///
/// ```
/// use m7_lca::SystemDesign;
/// use m7_units::SquareMillimeters;
///
/// let mono = SystemDesign::monolithic(SquareMillimeters::new(600.0), 7.0);
/// let chiplets = SystemDesign::chiplets(SquareMillimeters::new(600.0), 7.0, 4);
/// // Splitting the die recovers yield: less embodied carbon.
/// assert!(chiplets.embodied_carbon() < mono.embodied_carbon());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemDesign {
    total_area: SquareMillimeters,
    node_nm: f64,
    chiplet_count: usize,
    /// Extra packaging/interposer carbon per additional chiplet (kgCO₂e).
    integration_overhead_kg: f64,
}

impl SystemDesign {
    /// A single monolithic die.
    #[must_use]
    pub fn monolithic(total_area: SquareMillimeters, node_nm: f64) -> Self {
        Self { total_area, node_nm, chiplet_count: 1, integration_overhead_kg: 0.0 }
    }

    /// The same logic split into `count` equal chiplets (with a 0.05 kgCO₂e
    /// interposer/assembly overhead per extra chiplet).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    #[must_use]
    pub fn chiplets(total_area: SquareMillimeters, node_nm: f64, count: usize) -> Self {
        assert!(count > 0, "need at least one chiplet");
        Self {
            total_area,
            node_nm,
            chiplet_count: count,
            integration_overhead_kg: 0.05 * count.saturating_sub(1) as f64,
        }
    }

    /// Embodied carbon of the full system (all dies + integration).
    #[must_use]
    pub fn embodied_carbon(&self) -> KilogramsCo2e {
        let per_die_area = self.total_area / self.chiplet_count as f64;
        let die = DieSpec::new(per_die_area, self.node_nm);
        die.embodied_carbon() * self.chiplet_count as f64
            + KilogramsCo2e::new(self.integration_overhead_kg)
    }

    /// Embodied carbon per product generation when `reused` of the
    /// chiplets carry over unchanged (I/O, analog, memory controllers) and
    /// only the rest are re-fabricated.
    ///
    /// # Panics
    ///
    /// Panics if `reused` exceeds the chiplet count.
    #[must_use]
    pub fn next_generation_carbon(&self, reused: usize) -> KilogramsCo2e {
        assert!(reused <= self.chiplet_count, "cannot reuse more chiplets than exist");
        let per_die_area = self.total_area / self.chiplet_count as f64;
        let die = DieSpec::new(per_die_area, self.node_nm);
        let newly_fabbed = (self.chiplet_count - reused) as f64;
        die.embodied_carbon() * newly_fabbed + KilogramsCo2e::new(self.integration_overhead_kg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chiplets_beat_monolithic_at_large_area() {
        let mono = SystemDesign::monolithic(SquareMillimeters::new(800.0), 7.0);
        let quad = SystemDesign::chiplets(SquareMillimeters::new(800.0), 7.0, 4);
        let saving = 1.0 - quad.embodied_carbon() / mono.embodied_carbon();
        assert!(saving > 0.2, "yield recovery should save >20%, got {saving}");
    }

    #[test]
    fn tiny_dies_gain_little_from_splitting() {
        // Yield is already ~1 for small dies; integration overhead can win.
        let mono = SystemDesign::monolithic(SquareMillimeters::new(40.0), 28.0);
        let split = SystemDesign::chiplets(SquareMillimeters::new(40.0), 28.0, 4);
        let ratio = split.embodied_carbon() / mono.embodied_carbon();
        assert!(ratio > 0.9, "splitting a tiny die is not worthwhile: {ratio}");
    }

    #[test]
    fn one_chiplet_equals_monolithic() {
        let mono = SystemDesign::monolithic(SquareMillimeters::new(300.0), 7.0);
        let single = SystemDesign::chiplets(SquareMillimeters::new(300.0), 7.0, 1);
        assert_eq!(mono.embodied_carbon(), single.embodied_carbon());
    }

    #[test]
    fn reuse_cuts_next_generation_carbon() {
        let quad = SystemDesign::chiplets(SquareMillimeters::new(600.0), 7.0, 4);
        let fresh = quad.next_generation_carbon(0);
        let half_reused = quad.next_generation_carbon(2);
        assert!(half_reused.value() < fresh.value() * 0.6);
        // Full reuse pays only integration.
        let full = quad.next_generation_carbon(4);
        assert!(full.value() < fresh.value() * 0.1);
    }

    #[test]
    #[should_panic(expected = "reuse")]
    fn rejects_over_reuse() {
        let quad = SystemDesign::chiplets(SquareMillimeters::new(600.0), 7.0, 4);
        let _ = quad.next_generation_carbon(5);
    }
}
