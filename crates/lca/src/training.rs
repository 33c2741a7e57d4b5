//! Edge-vs-cloud ML training carbon comparison.
//!
//! The paper cites the finding that training on edge devices can emit
//! *more* carbon than cloud training despite the datacenter's overheads,
//! because cloud accelerators are far more energy-efficient per operation.
//! This module reproduces the comparison.

use crate::carbon::{operational_carbon, GridIntensity};
use m7_units::{Joules, KilogramsCo2e, Ops, OpsPerJoule, Seconds, Watts};

/// Where a training job runs, and with what efficiency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingVenue {
    /// Human-readable venue label.
    pub name: &'static str,
    /// Hardware energy efficiency.
    pub efficiency: OpsPerJoule,
    /// Facility overhead (PUE); edge devices have none (1.0).
    pub pue: f64,
    /// The grid powering the venue.
    pub grid: GridIntensity,
}

impl TrainingVenue {
    /// A cloud datacenter: efficient accelerators, some facility overhead,
    /// typically sited on cleaner grids.
    #[must_use]
    pub fn cloud() -> Self {
        Self {
            name: "cloud",
            efficiency: OpsPerJoule::from_tops_per_watt(1.5),
            pue: 1.1,
            grid: GridIntensity::LowCarbon,
        }
    }

    /// An edge device: no facility overhead, but an order of magnitude
    /// less efficient silicon on the local (average) grid.
    #[must_use]
    pub fn edge() -> Self {
        Self {
            name: "edge",
            efficiency: OpsPerJoule::from_tops_per_watt(0.08),
            pue: 1.0,
            grid: GridIntensity::WorldAverage,
        }
    }
}

/// A training job characterized by its total operation count.
///
/// # Examples
///
/// ```
/// use m7_lca::{TrainingJob, TrainingVenue};
/// use m7_units::Ops;
///
/// let job = TrainingJob::new(Ops::new(1e18));
/// let cloud = job.emissions(&TrainingVenue::cloud());
/// let edge = job.emissions(&TrainingVenue::edge());
/// // The paper's cited result shape: edge training emits more.
/// assert!(edge > cloud);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingJob {
    total_ops: Ops,
}

impl TrainingJob {
    /// Creates a job that must execute `total_ops` operations.
    ///
    /// # Panics
    ///
    /// Panics if the count is non-positive or non-finite.
    #[must_use]
    pub fn new(total_ops: Ops) -> Self {
        assert!(total_ops.value() > 0.0 && total_ops.is_finite(), "op count must be positive");
        Self { total_ops }
    }

    /// Total operations.
    #[must_use]
    pub fn total_ops(&self) -> Ops {
        self.total_ops
    }

    /// Energy the job draws at `venue` (before facility overhead).
    #[must_use]
    pub fn energy(&self, venue: &TrainingVenue) -> Joules {
        self.total_ops / venue.efficiency
    }

    /// Lifecycle-operational emissions of running the job at `venue`.
    #[must_use]
    pub fn emissions(&self, venue: &TrainingVenue) -> KilogramsCo2e {
        // Express the job as 1 W for `energy` seconds; PUE scales inside.
        let energy = self.energy(venue);
        operational_carbon(Watts::new(1.0), Seconds::new(energy.value()), venue.grid, venue.pue)
    }

    /// The edge-to-cloud emission ratio for this job — the headline number
    /// of experiment E8b.
    #[must_use]
    pub fn edge_to_cloud_ratio(&self) -> f64 {
        self.emissions(&TrainingVenue::edge()) / self.emissions(&TrainingVenue::cloud())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_is_dirtier_for_same_job() {
        let job = TrainingJob::new(Ops::new(1e18));
        let ratio = job.edge_to_cloud_ratio();
        assert!(ratio > 10.0, "edge/cloud ratio {ratio} should be large");
        assert!(ratio < 1000.0, "but not absurd");
    }

    #[test]
    fn ratio_is_independent_of_job_size() {
        let small = TrainingJob::new(Ops::new(1e15)).edge_to_cloud_ratio();
        let large = TrainingJob::new(Ops::new(1e20)).edge_to_cloud_ratio();
        assert!((small - large).abs() < 1e-9);
    }

    #[test]
    fn energy_scales_with_ops() {
        let cloud = TrainingVenue::cloud();
        let a = TrainingJob::new(Ops::new(1e15)).energy(&cloud);
        let b = TrainingJob::new(Ops::new(2e15)).energy(&cloud);
        assert!((b.value() / a.value() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cloud_emissions_are_plausible() {
        // A 1e24-op (large-language-model-class) job on cloud hardware:
        // 1e24 / 1.5e12 ops/J ≈ 667 GJ ≈ 185 MWh; at 50 g/kWh × 1.1 ≈ 10 t.
        let job = TrainingJob::new(Ops::new(1e24));
        let t = job.emissions(&TrainingVenue::cloud()).value() / 1000.0;
        assert!(t > 5.0 && t < 20.0, "got {t} tonnes");
    }

    #[test]
    fn venue_presets_differ_as_documented() {
        let cloud = TrainingVenue::cloud();
        let edge = TrainingVenue::edge();
        assert!(cloud.efficiency > edge.efficiency);
        assert!(cloud.pue > edge.pue);
    }
}
