//! Thread-count scaling benchmarks for the deterministic pool (`m7-par`).
//!
//! Both targets parallelize whole evaluations — one design per GA
//! population slot, one experiment per runner slot — and run the *same*
//! seeded computation through `ParConfig::with_threads(1, 2, 4)`, so the
//! timing deltas isolate scheduling cost and scaling; outputs are
//! bit-identical by the m7-par determinism contract. The kernels
//! themselves (batched collision checking, the particle-filter update)
//! are single-threaded and are benchmarked in `benches/kernels.rs`. On a
//! multi-core host the Genetic population-evaluation target scales
//! near-linearly to 4 threads; on a single-core host all thread counts
//! collapse to roughly serial time (the pool adds only claim-counter
//! overhead).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use m7_bench::BENCH_SEED;
use m7_dse::explorer::{Explorer, SearchBudget};
use m7_dse::memo::EvalMemo;
use m7_dse::space::{DesignSpace, Dimension};
use m7_par::ParConfig;
use m7_serve::cache::EvalCache;
use m7_suite::experiments::{run, ExperimentId, Timing};

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

/// Genetic population evaluation at 1/2/4 threads on a non-trivial
/// objective. Each iteration memoizes into a fresh store, so every
/// iteration evaluates the same designs.
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
                let cache = EvalCache::new(budget.max_evaluations);
                let memo = EvalMemo::new(&cache, 0);
                let genetic = Explorer::genetic();
                genetic.run_memoized(&space, &heavy_objective, budget, BENCH_SEED, par, &memo)
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

criterion_group!(benches, bench_genetic_scaling, bench_run_all);
criterion_main!(benches);
