//! The facade prelude exposes a coherent, minimal surface: everything a
//! downstream user needs for the common workflows, importable with one
//! glob.

use magseven::prelude::*;

#[test]
fn kernel_workflow_via_prelude() {
    let mut world = CollisionWorld::new(10.0, 10.0);
    world.add_circle(Vec2::new(5.0, 5.0), 1.0);
    let path = Rrt::new(RrtConfig::default(), 1)
        .plan(&world, Vec2::new(1.0, 1.0), Vec2::new(9.0, 9.0))
        .expect("solvable world");
    assert!(path.is_valid(&world));
}

#[test]
fn arch_workflow_via_prelude() {
    let roof = Roofline::new(
        OpsPerSecond::from_teraops(1.0),
        magseven::units::BytesPerSecond::from_gigabytes_per_second(100.0),
    );
    assert!(roof.ridge_point().value() > 0.0);
    let cost: CostEstimate =
        Platform::preset(PlatformKind::Fpga).estimate(&KernelProfile::gemm(64));
    assert!(cost.latency > Seconds::ZERO);
    let bus = SharedBus::new(magseven::units::BytesPerSecond::from_gigabytes_per_second(10.0));
    assert!(bus.capacity().value() > 0.0);
}

#[test]
fn sim_and_lca_workflow_via_prelude() {
    let outcome: MissionOutcome = Uav::new(UavConfig::default().with_tier(ComputeTier::Embedded))
        .fly(&MissionSpec::survey(500.0), 1);
    assert!(outcome.completed);

    let footprint =
        CarbonFootprint::new(DieSpec::new(SquareMillimeters::new(80.0), 7.0).embodied_carbon())
            .add_operation(Joules::from_kilowatt_hours(10.0), GridIntensity::EuropeanUnion);
    assert!(footprint.total().value() > 0.0);
    let fleet = FleetModel::new(1000, Watts::new(500.0), 6.0);
    assert!(fleet.annual_emissions().value() > 0.0);
}

#[test]
fn dse_and_suite_workflow_via_prelude() {
    let space = DesignSpace::new(vec![m7_dse_dim("x", 5), m7_dse_dim("y", 5)]);
    let result =
        Explorer::Exhaustive.run(&space, &|v: &[f64]| v[0] + v[1], SearchBudget::new(25), 0);
    assert_eq!(result.best_values, vec![0.0, 0.0]);
    let front = pareto_front(&[vec![1.0, 2.0], vec![2.0, 1.0], vec![3.0, 3.0]]);
    assert_eq!(front, vec![0, 1]);

    let report: Report = ExperimentId::E1Growth.run(1);
    assert_eq!(report.tables().len(), 1);
}

#[test]
fn controllers_and_models_via_prelude() {
    let mut pid = Pid::new(1.0, 0.0, 0.0);
    assert_eq!(pid.update(2.0, 0.1), 2.0);
    let mlp = Mlp::new(&[2, 4, 2], 0);
    assert_eq!(mlp.classes(), 2);
    let _ = Precision::Int8;
    let _ = Vec3::new(1.0, 2.0, 3.0);
    let _ = Pose2::identity();
    let _ = EkfSlam::new(Default::default());
    let _: Lqr; // the type is nameable from the prelude
}

/// Small helper building a dimension of `n` integer levels.
fn m7_dse_dim(name: &str, n: usize) -> magseven::dse::Dimension {
    magseven::dse::Dimension::new(name, (0..n).map(|i| i as f64).collect())
}
