//! M7Bench across every platform preset, plus the framework's own
//! modeling ablations (DVFS, contention on/off, sustained thermal).
//!
//! Run with: `cargo run --release --example benchmark_suite`

use magseven::prelude::*;
use magseven::suite::{contention_onoff, dvfs_pareto, m7bench, suite_summary, thermal_sustained};

fn main() {
    let suite = m7bench();
    for kind in [
        PlatformKind::CpuScalar,
        PlatformKind::CpuSimd,
        PlatformKind::Gpu,
        PlatformKind::Fpga,
        PlatformKind::Asic,
    ] {
        println!("{}", suite_summary(&Platform::preset(kind), &suite));
    }

    println!("{}", dvfs_pareto().report());
    println!("{}", contention_onoff().report());
    println!("{}", thermal_sustained().report());

    // The taxonomy ties it together.
    println!("# Challenge coverage\n");
    for challenge in Challenge::ALL {
        let evidence: Vec<String> =
            challenge.experiments().iter().map(|e| e.slug().to_string()).collect();
        println!("- {challenge}\n  evidence: {}", evidence.join(", "));
    }
}
