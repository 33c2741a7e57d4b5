//! One Criterion benchmark per paper experiment: each target times a full
//! regeneration of that experiment's figure/table equivalent, so
//! `cargo bench` doubles as the reproduce-everything entry point.

use criterion::{criterion_group, criterion_main, Criterion};
use m7_bench::BENCH_SEED;
use m7_suite::experiments::{ExperimentId, Timing};
use std::hint::black_box;

fn bench_experiments(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiments");
    group.sample_size(10);
    for id in ExperimentId::ALL {
        group.bench_function(id.slug(), |b| {
            b.iter(|| black_box(id.run_with(black_box(BENCH_SEED), Timing::Modeled)))
        });
    }
    group.finish();
}

criterion_group!(experiments, bench_experiments);
criterion_main!(experiments);
