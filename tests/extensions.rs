//! Integration of the extension surface: the spec DSL, DVFS, thermal
//! throttling, the planner-in-the-loop rover, localization stacks, and
//! the benchmark suite — chained the way a design study would use them.

use magseven::arch::dvfs::{ladder_sweep, OperatingPoint};
use magseven::prelude::*;
use magseven::suite::{m7bench, score};

/// Spec text → platform → M7Bench → DVFS: the agile-design round trip.
#[test]
fn spec_to_benchmark_to_dvfs() {
    let platform = parse_platform(
        "kind = asic\nname = study-accel\npeak_tops = 3.0\nbandwidth_gbps = 200\n\
         serial_gops = 1.5\nactive_w = 8\n\
         specialize = families collision-geometry dense-linear-algebra stencil\nfallback = 0.05\n",
    )
    .expect("valid spec");
    // It must pass the suite workloads its families cover.
    let passes = m7bench().iter().filter(|w| score(&platform, w).passes()).count();
    assert!(passes >= 4, "the specified accelerator passes most of M7Bench: {passes}");

    // DVFS ladder preserves the specialization.
    for (_, scaled) in ladder_sweep(&platform) {
        assert_eq!(
            scaled.match_factor(&KernelProfile::collision_batch(100, 10)),
            1.0,
            "specialization must survive scaling"
        );
    }
    // Downclocking a compute-bound kernel saves energy.
    let kernel = KernelProfile::gemm(256);
    let slow = magseven::arch::dvfs::scaled_platform(
        &platform,
        OperatingPoint { frequency_scale: 0.5, voltage_scale: 0.8 },
    );
    assert!(slow.estimate(&kernel).energy < platform.estimate(&kernel).energy);
}

/// Thermal envelope: burst throughput claims must not survive sustained
/// operation above the package's sustainable power.
#[test]
fn thermal_envelope_gates_sustained_throughput() {
    let mut state = ThermalState::new(ThermalConfig::default());
    let sustainable = state.sustainable_power();
    assert!(sustainable.value() > 0.0);
    // Run well above sustainable for 15 minutes.
    for _ in 0..900 {
        state.step(Watts::new(sustainable.value() * 1.5), Seconds::new(1.0));
    }
    assert!(state.performance_scale() < 1.0);
    assert!(state.throttled_time().value() > 0.0);
}

/// The rover exercises kernels (RRT), sim (battery/kinematics), and the
/// tier model together; its compute trade-off matches the UAV's story.
#[test]
fn rover_and_uav_agree_on_compute_tradeoff() {
    let mut world = CollisionWorld::new(40.0, 40.0);
    // World seed chosen so the scattered obstacles leave the start and
    // goal reachable (both tiers complete for every patrol seed 0..8).
    world.scatter_circles(15, 0.4, 1.0, 4);
    let goals = [Vec2::new(35.0, 35.0)];
    let embedded =
        Rover::new(RoverConfig { tier: ComputeTier::Embedded, ..RoverConfig::default() }).patrol(
            &world,
            Vec2::new(1.0, 1.0),
            &goals,
            5,
        );
    let server = Rover::new(RoverConfig { tier: ComputeTier::Server, ..RoverConfig::default() })
        .patrol(&world, Vec2::new(1.0, 1.0), &goals, 5);
    assert!(embedded.completed && server.completed);
    assert!(
        server.energy > embedded.energy,
        "over-provisioned rover burns more energy, like the UAV in E5"
    );
}

/// Localization stack interop: the particle filter localizes in a map
/// built by the dense matcher, and the pose graph cleans up a drifted
/// trajectory — three SLAM formulations over shared geometry types.
#[test]
fn localization_stacks_interoperate() {
    use magseven::kernels::{
        synthetic_room_scan, OccupancyGrid, ParticleFilterConfig, PoseConstraint,
    };

    // Build a map with raw ray integration.
    let center = Vec2::new(10.0, 10.0);
    let mut map = OccupancyGrid::new(20.0, 20.0, 0.25);
    let scan = synthetic_room_scan(Pose2::new(center, 0.0), center, 7.0, 5.0, 180);
    for _ in 0..3 {
        for (b, r) in scan.bearings.iter().zip(&scan.ranges) {
            let end = center + Vec2::new(r * b.cos(), r * b.sin());
            map.integrate_ray(center, end, true);
        }
    }
    // MCL localizes in it.
    let mut pf =
        ParticleFilter::new(ParticleFilterConfig::default(), &map, Pose2::new(center, 0.0), 1.0, 2);
    pf.update(&map, &scan);
    assert!(pf.estimate().position.distance(center) < 1.0);

    // Pose graph fixes an inconsistent two-node chain.
    let mut graph = PoseGraph::new();
    let a = graph.add_node(Pose2::identity());
    let b = graph.add_node(Pose2::new(Vec2::new(2.0, 0.5), 0.2));
    graph
        .add_constraint(PoseConstraint {
            from: a,
            to: b,
            measurement: Pose2::new(Vec2::new(1.0, 0.0), 0.0),
            information: [1.0; 3],
        })
        .expect("valid nodes");
    assert!(graph.optimize(10).expect("solvable") < 1e-9);
}

/// A* and RRT agree on reachability over equivalent obstacle fields.
#[test]
fn astar_and_rrt_agree_on_reachability() {
    use magseven::kernels::OccupancyGrid;

    // Same wall, two representations.
    let mut world = CollisionWorld::new(20.0, 20.0);
    world.add_rect(Vec2::new(9.0, 0.0), Vec2::new(11.0, 20.0));
    let mut grid = OccupancyGrid::new(20.0, 20.0, 0.5);
    for i in 0..40 {
        let y = 0.25 + 0.5 * i as f64;
        for x in [9.25, 9.75, 10.25, 10.75] {
            for _ in 0..20 {
                grid.integrate_ray(Vec2::new(x, y), Vec2::new(x, y), true);
            }
        }
    }
    let start = Vec2::new(2.0, 10.0);
    let goal = Vec2::new(18.0, 10.0);
    let rrt = Rrt::new(RrtConfig { max_iterations: 3000, ..RrtConfig::default() }, 1)
        .plan(&world, start, goal);
    let grid_path = astar(&grid, start, goal, AstarConfig::default());
    assert!(rrt.is_none(), "full wall blocks RRT");
    assert!(grid_path.is_none(), "full wall blocks A*");
}

/// Challenge taxonomy is wired to the experiments it claims as evidence.
#[test]
fn challenge_coverage_is_complete() {
    let covered: usize = Challenge::ALL.iter().map(|c| c.experiments().len()).sum();
    assert!(covered >= 7);
    for c in Challenge::ALL {
        for &e in c.experiments() {
            let report = e.run(1);
            assert!(!report.tables().is_empty(), "{c} evidence {e} must run");
        }
    }
}
