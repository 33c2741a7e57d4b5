//! Lifecycle carbon accounting for an accelerator deployment — the
//! paper's "Design Global" challenge as a report generator.
//!
//! Prices a candidate accelerator's embodied carbon, amortizes it against
//! operation, scales to a fleet, and compares chiplet vs monolithic
//! integration.
//!
//! Run with: `cargo run --example carbon_report`

use magseven::lca::{SystemDesign, TrainingJob, TrainingVenue};
use magseven::prelude::*;
use magseven::units::{Joules, Ops, Seconds, Watts};

fn main() {
    // One accelerator board: 150 mm² of 7 nm silicon drawing 15 W.
    let die = DieSpec::new(SquareMillimeters::new(150.0), 7.0);
    let embodied = die.embodied_carbon();
    println!("accelerator die: 150 mm2 @ 7 nm");
    println!("  yield: {:.2}", die.yield_fraction());
    println!("  embodied: {:.1} kgCO2e", embodied.value());

    // Five years of 8 h/day operation on the world-average grid.
    let duty = Seconds::from_hours(5.0 * 365.0 * 8.0);
    let energy: Joules = Watts::new(15.0) * duty;
    let footprint =
        CarbonFootprint::new(embodied).add_operation(energy, GridIntensity::WorldAverage);
    println!(
        "  5-year footprint: {:.1} kgCO2e total ({:.0}% embodied)",
        footprint.total().value(),
        footprint.embodied_fraction() * 100.0
    );

    // Fleet scale: "datacenters on wheels".
    println!("\nfleet-scale onboard compute (1 kW per vehicle, 8 h/day):");
    for fleet_size in [100_000u64, 1_000_000, 10_000_000, 100_000_000] {
        let fleet = FleetModel::new(fleet_size, Watts::new(1000.0), 8.0);
        println!(
            "  {:>11} vehicles: {:>8.2} MtCO2e/yr  (~{:>6.0} hyperscale datacenters)",
            fleet_size,
            fleet.annual_emissions().value() / 1e9,
            fleet.datacenter_equivalents()
        );
    }

    // Edge vs cloud training.
    let job = TrainingJob::new(Ops::new(1e21));
    println!(
        "\ntraining a 1e21-op model: edge emits {:.0}x more than cloud ({:.1} vs {:.1} kgCO2e)",
        job.edge_to_cloud_ratio(),
        job.emissions(&TrainingVenue::edge()).value(),
        job.emissions(&TrainingVenue::cloud()).value()
    );

    // Chiplet reuse.
    let mono = SystemDesign::monolithic(SquareMillimeters::new(600.0), 7.0);
    let quad = SystemDesign::chiplets(SquareMillimeters::new(600.0), 7.0, 4);
    println!("\n600 mm2 of logic, monolithic vs 4 chiplets:");
    println!("  monolithic embodied: {:.1} kgCO2e", mono.embodied_carbon().value());
    println!("  chiplets embodied:   {:.1} kgCO2e", quad.embodied_carbon().value());
    println!(
        "  next generation reusing 2 of 4 chiplets: {:.1} kgCO2e",
        quad.next_generation_carbon(2).value()
    );
}
