//! E8 — Challenge 7, "Design Global": carbon at deployment scale.
//!
//! Three sub-experiments reproduce the section's cited results:
//!
//! - **E8a** — "datacenters on wheels": fleet-scale AV compute emissions
//!   vs. a hyperscale-datacenter baseline.
//! - **E8b** — edge-vs-cloud training carbon ratio.
//! - **E8c** — chiplet vs. monolithic embodied carbon, with
//!   cross-generation reuse.

use crate::report::{fmt_f64, Report, Table};
use m7_lca::{FleetModel, SystemDesign, TrainingJob};
use m7_units::{Ops, SquareMillimeters, Watts};

/// The E8 result.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GlobalResult {
    /// `(fleet size, annual MtCO₂e, datacenter equivalents)`.
    pub fleet_rows: Vec<(u64, f64, f64)>,
    /// Edge-to-cloud training emission ratio.
    pub edge_cloud_ratio: f64,
    /// `(design, embodied kgCO₂e, next-gen kgCO₂e with reuse)`.
    pub chiplet_rows: Vec<(String, f64, f64)>,
}

impl GlobalResult {
    /// Renders the report.
    #[must_use]
    pub(crate) fn report(&self) -> Report {
        let mut report = Report::new("E8 — design global: carbon at scale (§2.7)");

        let mut fleet = Table::new(
            "E8a: AV fleet onboard-compute emissions (1 kW, 8 h/day)",
            vec!["fleet size", "annual MtCO2e", "100 MW datacenter equivalents"],
        );
        for &(n, mt, dc) in &self.fleet_rows {
            fleet.push_row(vec![n.to_string(), fmt_f64(mt), fmt_f64(dc)]);
        }
        report.push_table(fleet);

        let mut chiplet = Table::new(
            "E8c: embodied carbon, 600 mm² of 7 nm logic",
            vec!["design", "embodied [kgCO2e]", "next generation w/ reuse [kgCO2e]"],
        );
        for (name, embodied, next) in &self.chiplet_rows {
            chiplet.push_row(vec![name.clone(), fmt_f64(*embodied), fmt_f64(*next)]);
        }
        report.push_table(chiplet);

        report.push_note(format!(
            "E8b: the same training job emits {:.0}x more CO2e on edge devices than in the \
             cloud (efficiency gap dominates the PUE overhead) — the paper's cited result",
            self.edge_cloud_ratio
        ));
        report.push_note(
            "E8a reproduces the 'datacenters on wheels' claim: a 100M-vehicle fleet's \
             onboard compute rivals hundreds of hyperscale datacenters",
        );
        report
    }
}

/// Runs E8.
#[must_use]
pub(crate) fn run() -> GlobalResult {
    let fleet_rows = [100_000u64, 1_000_000, 10_000_000, 100_000_000]
        .iter()
        .map(|&n| {
            let fleet = FleetModel::new(n, Watts::new(1000.0), 8.0);
            (
                n,
                fleet.annual_emissions().value() / 1e9, // kg → Mt
                fleet.datacenter_equivalents(),
            )
        })
        .collect();

    let edge_cloud_ratio = TrainingJob::new(Ops::new(1e21)).edge_to_cloud_ratio();

    let area = SquareMillimeters::new(600.0);
    let mono = SystemDesign::monolithic(area, 7.0);
    let quad = SystemDesign::chiplets(area, 7.0, 4);
    let chiplet_rows = vec![
        (
            "monolithic-600mm2".to_string(),
            mono.embodied_carbon().value(),
            mono.next_generation_carbon(0).value(),
        ),
        (
            "4x150mm2-chiplets".to_string(),
            quad.embodied_carbon().value(),
            quad.next_generation_carbon(2).value(),
        ),
    ];

    GlobalResult { fleet_rows, edge_cloud_ratio, chiplet_rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m7_lca::TrainingVenue;

    #[test]
    fn fleet_emissions_scale_linearly() {
        let r = run();
        let (n0, mt0, _) = r.fleet_rows[0];
        let (n3, mt3, _) = r.fleet_rows[3];
        let scale = n3 as f64 / n0 as f64;
        assert!((mt3 / mt0 - scale).abs() / scale < 1e-9);
    }

    #[test]
    fn headline_fleet_rivals_datacenters() {
        let r = run();
        let (_, _, dc) = r.fleet_rows[3];
        assert!(dc > 100.0, "100M vehicles ≈ {dc} datacenters");
    }

    #[test]
    fn edge_training_is_dirtier() {
        let r = run();
        assert!(r.edge_cloud_ratio > 10.0);
        assert!(r.edge_cloud_ratio < 1000.0);
    }

    #[test]
    fn chiplets_cut_embodied_and_nextgen_carbon() {
        let r = run();
        let mono = &r.chiplet_rows[0];
        let quad = &r.chiplet_rows[1];
        assert!(quad.1 < mono.1, "chiplets {} must undercut monolithic {}", quad.1, mono.1);
        assert!(quad.2 < quad.1, "reuse must cut next-generation carbon");
        assert!(mono.2 >= mono.1 * 0.99, "monolithic cannot reuse anything");
    }

    #[test]
    fn venue_presets_are_consistent() {
        // Guard: the ratio should track the efficiency gap order.
        let cloud = TrainingVenue::cloud();
        let edge = TrainingVenue::edge();
        let eff_gap = cloud.efficiency / edge.efficiency;
        let r = run();
        assert!(r.edge_cloud_ratio > eff_gap * 0.3);
    }

    #[test]
    fn report_renders_three_parts() {
        let text = run().report().to_string();
        assert!(text.contains("E8a"));
        assert!(text.contains("E8b"));
        assert!(text.contains("E8c"));
    }
}
