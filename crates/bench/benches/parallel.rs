//! Serial-vs-parallel benchmarks for the deterministic pool (`m7-par`).
//!
//! Every target runs the *same* seeded computation through
//! `ParConfig::with_threads(1, 2, 4, ...)`, so the timing deltas isolate
//! scheduling cost and scaling; outputs are bit-identical by the m7-par
//! determinism contract. On a multi-core host the Genetic
//! population-evaluation target scales near-linearly to 4 threads; on a
//! single-core host all thread counts collapse to roughly serial time
//! (the pool adds only claim-counter overhead).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use m7_bench::BENCH_SEED;
use m7_dse::explorer::{Explorer, SearchBudget};
use m7_dse::space::{DesignSpace, Dimension};
use m7_kernels::geometry::{Pose2, Vec2};
use m7_kernels::grid::OccupancyGrid;
use m7_kernels::planning::CollisionWorld;
use m7_kernels::slam::{synthetic_room_scan, ParticleFilter, ParticleFilterConfig};
use m7_par::ParConfig;
use m7_suite::experiments::{run, ExperimentId, Timing};
use rand::{Rng, SeedableRng};

/// Thread counts exercised by every scaling target.
const THREADS: [usize; 3] = [1, 2, 4];

/// A deliberately expensive smooth objective: the per-evaluation cost
/// (a few thousand transcendental ops) is far above the pool's claim
/// overhead, so the scaling curve reflects the scheduler, not noise.
fn heavy_objective(v: &[f64]) -> f64 {
    let mut acc = 0.0f64;
    let mut x = v[0] * 0.11 + v[1] * 0.07 + v[2] * 0.05 + 1.0;
    for _ in 0..4000 {
        x = (x * 1.000_1).sin() + 1.5;
        acc += x.sqrt();
    }
    let dx = v[0] - 21.0;
    let dy = v[1] - 13.0;
    let dz = v[2] - 8.0;
    dx * dx + dy * dy + dz * dz + (acc - acc.floor())
}

fn heavy_space() -> DesignSpace {
    DesignSpace::new(vec![
        Dimension::new("x", (0..32).map(f64::from).collect()),
        Dimension::new("y", (0..32).map(f64::from).collect()),
        Dimension::new("z", (0..16).map(f64::from).collect()),
    ])
}

/// The ISSUE's headline target: Genetic population evaluation at 1/2/4
/// threads on a non-trivial objective.
fn bench_genetic_scaling(c: &mut Criterion) {
    let space = heavy_space();
    let budget = SearchBudget::new(240);
    let mut group = c.benchmark_group("dse_genetic_scaling");
    group.sample_size(10);
    group.throughput(Throughput::Elements(240));
    for threads in THREADS {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &threads| {
            let par = ParConfig::with_threads(threads);
            b.iter(|| {
                Explorer::genetic().run_with(&space, &heavy_objective, budget, BENCH_SEED, par)
            })
        });
    }
    group.finish();
}

/// Batched collision checking: serial `segments_free` vs `par_segments_free`.
fn bench_par_collision(c: &mut Criterion) {
    let mut world = CollisionWorld::new(50.0, 50.0);
    world.scatter_circles(120, 0.4, 1.5, BENCH_SEED);
    world.add_rect(Vec2::new(20.0, 0.0), Vec2::new(22.0, 35.0));
    let batch = world.to_batch_checker();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(BENCH_SEED);
    let edges: Vec<(Vec2, Vec2)> = (0..4096)
        .map(|_| {
            (
                Vec2::new(rng.gen_range(0.0..50.0), rng.gen_range(0.0..50.0)),
                Vec2::new(rng.gen_range(0.0..50.0), rng.gen_range(0.0..50.0)),
            )
        })
        .collect();

    let mut group = c.benchmark_group("collision_par_4096_edges");
    group.throughput(Throughput::Elements(edges.len() as u64));
    group.bench_function("serial", |b| {
        b.iter(|| batch.segments_free(&edges).iter().filter(|f| **f).count())
    });
    for threads in THREADS {
        group.bench_with_input(BenchmarkId::new("par", threads), &threads, |b, &threads| {
            let par = ParConfig::with_threads(threads);
            b.iter(|| batch.par_segments_free(&edges, par).iter().filter(|f| **f).count())
        });
    }
    group.finish();
}

/// Particle-filter measurement update: serial `update` vs `par_update`.
fn bench_par_particle(c: &mut Criterion) {
    let center = Vec2::new(10.0, 10.0);
    let (half_w, half_h) = (7.0, 5.0);
    let mut map = OccupancyGrid::new(20.0, 20.0, 0.25);
    for _ in 0..3 {
        let scan = synthetic_room_scan(Pose2::new(center, 0.0), center, half_w, half_h, 180);
        for (bearing, range) in scan.bearings.iter().zip(&scan.ranges) {
            let end = center + Vec2::new(range * bearing.cos(), range * bearing.sin());
            map.integrate_ray(center, end, true);
        }
    }
    let truth = Pose2::new(center, 0.0);
    let scan = synthetic_room_scan(truth, center, half_w, half_h, 120);
    let config = ParticleFilterConfig { particles: 800, ..ParticleFilterConfig::default() };

    let mut group = c.benchmark_group("particle_update_800");
    group.sample_size(20);
    group.throughput(Throughput::Elements(800));
    group.bench_function("serial", |b| {
        b.iter(|| {
            let mut pf = ParticleFilter::new(config, &map, truth, 1.0, BENCH_SEED);
            pf.update(&map, &scan);
            pf.effective_sample_size()
        })
    });
    for threads in THREADS {
        group.bench_with_input(BenchmarkId::new("par", threads), &threads, |b, &threads| {
            let par = ParConfig::with_threads(threads);
            b.iter(|| {
                let mut pf = ParticleFilter::new(config, &map, truth, 1.0, BENCH_SEED);
                pf.par_update(&map, &scan, par);
                pf.effective_sample_size()
            })
        });
    }
    group.finish();
}

/// The whole suite through the runner at each thread count (modeled
/// timing, so every thread count runs the identical deterministic
/// workload; one thread runs the experiments inline, one at a time).
fn bench_run_all(c: &mut Criterion) {
    let mut group = c.benchmark_group("run_all_experiments");
    group.sample_size(10);
    for threads in THREADS {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &threads| {
            let par = ParConfig::with_threads(threads);
            b.iter(|| run(&ExperimentId::ALL, BENCH_SEED, Timing::Modeled, par).map(|r| r.len()))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_genetic_scaling,
    bench_par_collision,
    bench_par_particle,
    bench_run_all
);
criterion_main!(benches);
