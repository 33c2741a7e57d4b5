//! Micro-benchmarks of the autonomy kernels that no perfbench workload or
//! `BENCH_roofline.json` row times on its own, including the scalar vs.
//! batched collision-checking ablation that experiment E6 reports. The
//! lane-vs-scalar pairs (collision, BRIEF matching, batched MLP) are
//! measured by the roofline harness (`examples/roofline_report.rs`).
//!
//! Run with `cargo bench --offline -p m7-bench`. Every case is timed by
//! [`m7_bench::time_best`] and prints one line: its name, the best time
//! per call and, for the collision cases, edges per second. The binary
//! takes no options and ignores its arguments.

use m7_bench::{time_best, BENCH_SEED};
use m7_kernels::{
    CollisionWorld, Dataset, EkfSlam, EkfSlamConfig, FeatureFrontEnd, Image, LandmarkObservation,
    Link, Matrix, Mlp, Precision, Rrt, RrtConfig, SerialChain, Vec2,
};
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Samples per case; the ICP and pose-graph cases set their own.
const SAMPLES: usize = 20;

/// Times `f` and prints one line: the case name, the best time per call
/// and, given the `elements` one call processes, elements per second.
fn bench<O>(name: &str, samples: usize, elements: Option<u64>, f: impl FnMut() -> O) {
    let seconds = time_best(samples, f);
    let time = if seconds < 1e-6 {
        format!("{:.1} ns", seconds * 1e9)
    } else if seconds < 1e-3 {
        format!("{:.2} µs", seconds * 1e6)
    } else if seconds < 1.0 {
        format!("{:.2} ms", seconds * 1e3)
    } else {
        format!("{seconds:.3} s")
    };
    match elements {
        Some(n) => println!("{name:<48} {time:>10}/call  {:.0} elem/s", n as f64 / seconds),
        None => println!("{name:<48} {time:>10}/call"),
    }
}

/// The E6 ablation: identical edge batches through the conventional
/// sampled validator, the exact scalar test, and the batched SoA checker.
fn bench_collision_checking() {
    let mut world = CollisionWorld::new(50.0, 50.0);
    world.scatter_circles(120, 0.4, 1.5, BENCH_SEED);
    world.add_rect(Vec2::new(20.0, 0.0), Vec2::new(22.0, 35.0));
    let batch = world.to_batch_checker();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(BENCH_SEED);
    let edges: Vec<(Vec2, Vec2)> = (0..2048)
        .map(|_| {
            (
                Vec2::new(rng.gen_range(0.0..50.0), rng.gen_range(0.0..50.0)),
                Vec2::new(rng.gen_range(0.0..50.0), rng.gen_range(0.0..50.0)),
            )
        })
        .collect();

    let n = Some(edges.len() as u64);
    bench("collision_2048_edges/scalar_sampled_validator", SAMPLES, n, || {
        edges.iter().filter(|(a, b)| world.segment_free_sampled(*a, *b, 0.05)).count()
    });
    bench("collision_2048_edges/scalar_exact", SAMPLES, n, || {
        edges.iter().filter(|(a, b)| world.segment_free(*a, *b)).count()
    });
    bench("collision_2048_edges/batched_soa", SAMPLES, n, || {
        batch.segments_free(black_box(&edges)).iter().filter(|f| **f).count()
    });
}

fn bench_rrt() {
    let mut world = CollisionWorld::new(20.0, 20.0);
    world.scatter_circles(15, 0.5, 1.2, BENCH_SEED);
    bench("rrt_plan/cluttered_20x20", SAMPLES, None, || {
        Rrt::new(RrtConfig::default(), BENCH_SEED).plan(
            &world,
            Vec2::new(0.5, 0.5),
            Vec2::new(19.5, 19.5),
        )
    });
}

fn bench_ekf_slam() {
    // Pre-populate a filter with 20 landmarks, then time one
    // predict+update cycle (the steady-state cost).
    let mut template = EkfSlam::new(EkfSlamConfig::default());
    for id in 0..20 {
        template.update(&[LandmarkObservation { id, range: 5.0, bearing: 0.1 * f64::from(id) }]);
    }
    bench("ekf_slam/predict_update_20_landmarks", SAMPLES, None, || {
        let mut slam = template.clone();
        slam.predict(1.0, 0.1, 0.1);
        slam.update(&[LandmarkObservation { id: 7, range: 5.1, bearing: 0.65 }]);
        black_box(slam.pose())
    });
}

fn bench_dnn_inference() {
    let data = Dataset::blobs(50, 4, 2, BENCH_SEED);
    let mut mlp = Mlp::new(&[2, 32, 32, 4], BENCH_SEED);
    mlp.train(&data, 5, 0.05).expect("blobs fit the network");
    let input = [1.5, -0.5];
    for p in Precision::ALL {
        bench(&format!("dnn_forward/{p}"), SAMPLES, None, || {
            black_box(mlp.forward(black_box(&input), p))
        });
    }
}

fn bench_dynamics() {
    let chain = SerialChain::new(vec![Link::uniform_rod(0.5, 1.0); 7]);
    let q = [0.1, -0.2, 0.3, -0.4, 0.5, -0.6, 0.7];
    let qd = [0.5; 7];
    let qdd = [1.0; 7];
    bench("rnea/7_dof", SAMPLES, None, || {
        black_box(chain.inverse_dynamics(black_box(&q), &qd, &qdd))
    });
}

fn bench_linalg() {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(BENCH_SEED);
    let n = 40;
    let mut m = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            m[(i, j)] = rng.gen_range(-1.0..1.0);
        }
    }
    let spd = {
        let mut s = m.mul(&m.transpose()).unwrap();
        for i in 0..n {
            s[(i, i)] += n as f64;
        }
        s
    };
    let rhs = Matrix::column(&vec![1.0; n]);
    bench("linalg/solve_40x40", SAMPLES, None, || black_box(spd.solve(&rhs).unwrap()));
    bench("linalg/cholesky_40x40", SAMPLES, None, || black_box(spd.cholesky().unwrap()));
}

fn bench_localization() {
    use m7_kernels::{
        synthetic_room_scan, OccupancyGrid, ParticleFilter, ParticleFilterConfig, Pose2,
    };

    // A mapped room and one scan, shared across iterations.
    let center = Vec2::new(10.0, 10.0);
    let mut map = OccupancyGrid::new(20.0, 20.0, 0.25);
    let pose = Pose2::new(center, 0.0);
    let scan = synthetic_room_scan(pose, center, 7.0, 5.0, 120);
    for (b, r) in scan.bearings.iter().zip(&scan.ranges) {
        let end = center + Vec2::new(r * b.cos(), r * b.sin());
        for _ in 0..3 {
            map.integrate_ray(center, end, true);
        }
    }
    bench("particle_filter/update_500_particles", SAMPLES, None, || {
        let mut pf =
            ParticleFilter::new(ParticleFilterConfig::default(), &map, pose, 1.0, BENCH_SEED);
        pf.update(&map, black_box(&scan));
        black_box(pf.estimate())
    });
}

fn bench_icp() {
    use m7_kernels::{icp_align, IcpConfig, Pose2};

    let target: Vec<Vec2> = (0..200)
        .map(|i| {
            let t = i as f64 * 0.1;
            Vec2::new(t, (t * 1.1).sin() + 0.4 * (t * 0.6).cos())
        })
        .collect();
    let truth = Pose2::new(Vec2::new(0.3, -0.2), 0.12);
    let source: Vec<Vec2> = target.iter().map(|&p| truth.inverse_transform_point(p)).collect();
    bench("icp/align_200_points", 30, None, || {
        black_box(icp_align(black_box(&source), &target, Pose2::identity(), IcpConfig::default()))
    });
}

fn bench_pose_graph() {
    use m7_kernels::{Pose2, PoseConstraint, PoseGraph};

    // A 30-node loop with odometry + one closure, rebuilt per iteration.
    let build = || {
        let mut g = PoseGraph::new();
        for i in 0..30 {
            let angle = 2.0 * core::f64::consts::PI * i as f64 / 30.0;
            g.add_node(Pose2::new(
                Vec2::new(10.0 * angle.cos() + 0.1 * i as f64, 10.0 * angle.sin()),
                angle,
            ));
        }
        for i in 0..30 {
            let j = (i + 1) % 30;
            g.add_constraint(PoseConstraint {
                from: i,
                to: j,
                measurement: Pose2::new(Vec2::new(2.09, 0.0), 0.209),
                information: [10.0, 10.0, 40.0],
            })
            .expect("valid nodes");
        }
        g
    };
    bench("pose_graph/optimize_30_node_loop", 10, None, || {
        let mut g = build();
        black_box(g.optimize(10).expect("solvable"))
    });
}

fn bench_astar() {
    use m7_kernels::{astar, AstarConfig, OccupancyGrid};

    let mut grid = OccupancyGrid::new(50.0, 50.0, 0.25);
    // A few walls via repeated ray hits.
    for i in 0..120 {
        let y = 5.0 + 0.25 * i as f64;
        if y < 35.0 {
            for _ in 0..20 {
                grid.integrate_ray(Vec2::new(20.0, y), Vec2::new(20.0, y), true);
            }
        }
    }
    bench("astar/50x50m_quarter_meter_grid", SAMPLES, None, || {
        black_box(astar(&grid, Vec2::new(1.0, 1.0), Vec2::new(48.0, 48.0), AstarConfig::default()))
    });
}

fn bench_perception() {
    let image = Image::synthetic(320, 240, BENCH_SEED);
    let frontend = FeatureFrontEnd::new(200, 7);
    bench("perception/extract_320x240", SAMPLES, None, || black_box(frontend.extract(&image)));
}

fn main() {
    bench_collision_checking();
    bench_rrt();
    bench_astar();
    bench_ekf_slam();
    bench_localization();
    bench_icp();
    bench_pose_graph();
    bench_dnn_inference();
    bench_dynamics();
    bench_linalg();
    bench_perception();
}
