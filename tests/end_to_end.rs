//! Cross-crate integration: kernels → arch → sim → dse → lca, exercised
//! together the way a designer would chain them.

use magseven::kernels::{Prm, PrmConfig};
use magseven::lca::operational_carbon;
use magseven::prelude::*;
use magseven::units::{Joules, Seconds, Watts};

/// Plan with the kernels crate, profile the planner's collision workload
/// with the arch crate, and check that the modeled platform ordering is
/// consistent with the measured algorithmic behaviour.
#[test]
fn planner_workload_flows_into_cost_model() {
    let mut world = CollisionWorld::new(30.0, 30.0);
    world.scatter_circles(30, 0.4, 1.2, 11);
    let prm = Prm::build(&world, PrmConfig::default(), 3);
    assert!(prm.edge_checks() > 500);

    let workload = KernelProfile::collision_batch(prm.edge_checks(), world.len());
    let scalar = Platform::preset(PlatformKind::CpuScalar).estimate(&workload);
    let simd = Platform::preset(PlatformKind::CpuSimd).estimate(&workload);
    let asic = Platform::preset(PlatformKind::Asic).estimate(&workload);
    assert!(simd.latency < scalar.latency);
    assert!(asic.latency < simd.latency);
    assert!(asic.energy < scalar.energy);
}

/// The full co-design loop: mission simulation drives platform choice,
/// and the chosen platform's operational carbon closes the loop.
#[test]
fn mission_to_carbon_pipeline() {
    // Fly the same mission on two tiers.
    let mission = MissionSpec::survey(2000.0);
    let small = Uav::new(UavConfig::default().with_tier(ComputeTier::Embedded)).fly(&mission, 1);
    let large = Uav::new(UavConfig::default().with_tier(ComputeTier::Desktop)).fly(&mission, 1);
    assert!(small.completed && large.completed);
    assert!(small.energy < large.energy, "right-sizing saves mission energy");

    // Scale the per-mission energy difference to a fleet-year of carbon.
    let missions_per_day = 20.0;
    let annual_missions = missions_per_day * 365.0;
    let waste: Joules = (large.energy - small.energy) * annual_missions;
    let grid = GridIntensity::WorldAverage;
    let per_vehicle = operational_carbon(Watts::new(1.0), Seconds::new(waste.value()), grid, 1.0);
    assert!(
        per_vehicle.value() > 1.0,
        "over-provisioning costs kilograms of CO2e per vehicle-year: {per_vehicle}"
    );
}

/// DSE over the mission simulator lands on a design whose simulated
/// outcome actually delivers the predicted cost.
#[test]
fn dse_result_is_reproducible_in_the_simulator() {
    use magseven::suite::experiments::e9_dse;
    let space = e9_dse::uav_design_space();
    let objective = |v: &[f64]| e9_dse::mission_cost(v, 4);
    let best = Explorer::surrogate().run(&space, &objective, SearchBudget::new(30), 4);
    // Re-evaluating the chosen point yields exactly the recorded cost.
    let replay = e9_dse::mission_cost(&best.best_values, 4);
    assert_eq!(replay, best.best_cost);
}

/// The perception kernels and the pipeline simulator agree about who can
/// keep up with a camera.
#[test]
fn pipeline_keepup_matches_sustainable_rate() {
    use magseven::sim::pipeline::Pipeline;
    use magseven::sim::SensorSpec;

    let sensor = SensorSpec::camera_vga(30.0);
    let kernel = KernelProfile::feature_extract(640, 480);
    for kind in [PlatformKind::CpuScalar, PlatformKind::CpuSimd, PlatformKind::Gpu] {
        let platform = Platform::preset(kind);
        let sustainable = platform.sustainable_input_rate(&kernel, sensor.payload());
        let stats =
            Pipeline::new(sensor.clone(), platform, kernel.clone()).simulate(Seconds::new(5.0));
        let keeps_up_model = sustainable.value() > sensor.data_rate().value();
        let keeps_up_sim = stats.drop_rate() < 0.05;
        // The analytic rate check and the discrete-event simulation agree
        // except exactly at the boundary; none of these presets sit there.
        assert_eq!(keeps_up_model, keeps_up_sim, "{kind}");
    }
}

/// Units flow correctly across crate boundaries (a compile-time property
/// exercised at runtime for sanity).
#[test]
fn units_compose_across_crates() {
    let kernel = KernelProfile::gemm(128);
    let cost = Platform::preset(PlatformKind::Gpu).estimate(&kernel);
    let battery = magseven::sim::Battery::new(Joules::from_watt_hours(10.0));
    // Invocations until the battery would be empty at this cost.
    let invocations = battery.capacity() / cost.energy;
    assert!(invocations > 1000.0, "a 10 Wh battery runs many GEMMs: {invocations}");
}
