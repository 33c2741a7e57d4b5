//! Micro-benchmarks of the autonomy kernels that no perfbench workload or
//! `BENCH_roofline.json` row times on its own, including the scalar vs.
//! batched collision-checking ablation that experiment E6 reports. The
//! lane-vs-scalar pairs (collision, BRIEF matching, batched MLP) are
//! measured by the roofline harness (`examples/roofline_report.rs`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use m7_bench::BENCH_SEED;
use m7_kernels::{
    CollisionWorld, Dataset, EkfSlam, EkfSlamConfig, FeatureFrontEnd, Image, LandmarkObservation,
    Link, Matrix, Mlp, Precision, Rrt, RrtConfig, SerialChain, Vec2,
};
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// The E6 ablation: identical edge batches through the conventional
/// sampled validator, the exact scalar test, and the batched SoA checker.
fn bench_collision_checking(c: &mut Criterion) {
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

    let mut group = c.benchmark_group("collision_2048_edges");
    group.throughput(Throughput::Elements(edges.len() as u64));
    group.bench_function("scalar_sampled_validator", |b| {
        b.iter(|| edges.iter().filter(|(a, b)| world.segment_free_sampled(*a, *b, 0.05)).count())
    });
    group.bench_function("scalar_exact", |b| {
        b.iter(|| edges.iter().filter(|(a, b)| world.segment_free(*a, *b)).count())
    });
    group.bench_function("batched_soa", |b| {
        b.iter(|| batch.segments_free(black_box(&edges)).iter().filter(|f| **f).count())
    });
    group.finish();
}

fn bench_rrt(c: &mut Criterion) {
    let mut world = CollisionWorld::new(20.0, 20.0);
    world.scatter_circles(15, 0.5, 1.2, BENCH_SEED);
    let mut group = c.benchmark_group("rrt_plan");
    group.sample_size(20);
    group.bench_function("cluttered_20x20", |b| {
        b.iter(|| {
            Rrt::new(RrtConfig::default(), BENCH_SEED).plan(
                &world,
                Vec2::new(0.5, 0.5),
                Vec2::new(19.5, 19.5),
            )
        })
    });
    group.finish();
}

fn bench_ekf_slam(c: &mut Criterion) {
    // Pre-populate a filter with 20 landmarks, then time one
    // predict+update cycle (the steady-state cost).
    let mut template = EkfSlam::new(EkfSlamConfig::default());
    for id in 0..20 {
        template.update(&[LandmarkObservation { id, range: 5.0, bearing: 0.1 * f64::from(id) }]);
    }
    c.bench_function("ekf_slam/predict_update_20_landmarks", |b| {
        b.iter(|| {
            let mut slam = template.clone();
            slam.predict(1.0, 0.1, 0.1);
            slam.update(&[LandmarkObservation { id: 7, range: 5.1, bearing: 0.65 }]);
            black_box(slam.pose())
        })
    });
}

fn bench_dnn_inference(c: &mut Criterion) {
    let data = Dataset::blobs(50, 4, 2, BENCH_SEED);
    let mut mlp = Mlp::new(&[2, 32, 32, 4], BENCH_SEED);
    mlp.train(&data, 5, 0.05).expect("blobs fit the network");
    let input = [1.5, -0.5];
    let mut group = c.benchmark_group("dnn_forward");
    for precision in Precision::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(precision), &precision, |b, &p| {
            b.iter(|| black_box(mlp.forward(black_box(&input), p)))
        });
    }
    group.finish();
}

fn bench_dynamics(c: &mut Criterion) {
    let chain = SerialChain::new(vec![Link::uniform_rod(0.5, 1.0); 7]);
    let q = [0.1, -0.2, 0.3, -0.4, 0.5, -0.6, 0.7];
    let qd = [0.5; 7];
    let qdd = [1.0; 7];
    c.bench_function("rnea/7_dof", |b| {
        b.iter(|| black_box(chain.inverse_dynamics(black_box(&q), &qd, &qdd)))
    });
}

fn bench_linalg(c: &mut Criterion) {
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
    c.bench_function("linalg/solve_40x40", |b| b.iter(|| black_box(spd.solve(&rhs).unwrap())));
    c.bench_function("linalg/cholesky_40x40", |b| b.iter(|| black_box(spd.cholesky().unwrap())));
}

fn bench_localization(c: &mut Criterion) {
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
    let mut group = c.benchmark_group("particle_filter");
    group.sample_size(20);
    group.bench_function("update_500_particles", |b| {
        b.iter(|| {
            let mut pf =
                ParticleFilter::new(ParticleFilterConfig::default(), &map, pose, 1.0, BENCH_SEED);
            pf.update(&map, black_box(&scan));
            black_box(pf.estimate())
        })
    });
    group.finish();
}

fn bench_icp(c: &mut Criterion) {
    use m7_kernels::{icp_align, IcpConfig, Pose2};

    let target: Vec<Vec2> = (0..200)
        .map(|i| {
            let t = i as f64 * 0.1;
            Vec2::new(t, (t * 1.1).sin() + 0.4 * (t * 0.6).cos())
        })
        .collect();
    let truth = Pose2::new(Vec2::new(0.3, -0.2), 0.12);
    let source: Vec<Vec2> = target.iter().map(|&p| truth.inverse_transform_point(p)).collect();
    let mut group = c.benchmark_group("icp");
    group.sample_size(30);
    group.bench_function("align_200_points", |b| {
        b.iter(|| {
            black_box(icp_align(
                black_box(&source),
                &target,
                Pose2::identity(),
                IcpConfig::default(),
            ))
        })
    });
    group.finish();
}

fn bench_pose_graph(c: &mut Criterion) {
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
    let mut group = c.benchmark_group("pose_graph");
    group.sample_size(10);
    group.bench_function("optimize_30_node_loop", |b| {
        b.iter(|| {
            let mut g = build();
            black_box(g.optimize(10).expect("solvable"))
        })
    });
    group.finish();
}

fn bench_astar(c: &mut Criterion) {
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
    let mut group = c.benchmark_group("astar");
    group.sample_size(20);
    group.bench_function("50x50m_quarter_meter_grid", |b| {
        b.iter(|| {
            black_box(astar(
                &grid,
                Vec2::new(1.0, 1.0),
                Vec2::new(48.0, 48.0),
                AstarConfig::default(),
            ))
        })
    });
    group.finish();
}

fn bench_perception(c: &mut Criterion) {
    let image = Image::synthetic(320, 240, BENCH_SEED);
    let frontend = FeatureFrontEnd::new(200, 7);
    let mut group = c.benchmark_group("perception");
    group.sample_size(20);
    group.bench_function("extract_320x240", |b| b.iter(|| black_box(frontend.extract(&image))));
    group.finish();
}

criterion_group!(
    kernels,
    bench_collision_checking,
    bench_rrt,
    bench_astar,
    bench_ekf_slam,
    bench_localization,
    bench_icp,
    bench_pose_graph,
    bench_dnn_inference,
    bench_dynamics,
    bench_linalg,
    bench_perception,
);
criterion_main!(kernels);
