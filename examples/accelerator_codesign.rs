//! Full accelerator co-design: a multi-objective search over generated
//! accelerator microarchitectures (PE count × clock × SRAM × DRAM),
//! scored on a real autonomy workload for latency, power, and silicon
//! area simultaneously.
//!
//! The printed Pareto front is the deliverable the paper's Challenge 2
//! asks for — a trade space, not a single TOPS number.
//!
//! Run with: `cargo run --release --example accelerator_codesign`

use magseven::arch::AcceleratorConfig;
use magseven::dse::{nsga2, DesignSpace, Dimension};
use magseven::prelude::*;

fn config_from(values: &[f64]) -> AcceleratorConfig {
    AcceleratorConfig {
        pe_count: values[0] as usize,
        clock_ghz: values[1],
        sram_kib: values[2],
        dram_gbps: values[3],
        datapath_bits: 16,
        families: vec![KernelFamily::CollisionGeometry, KernelFamily::DenseLinearAlgebra],
    }
}

fn main() {
    let space = DesignSpace::new(vec![
        Dimension::new("pe_count", vec![64.0, 128.0, 256.0, 512.0, 1024.0]),
        Dimension::new("clock_ghz", vec![0.5, 0.8, 1.2, 1.6]),
        Dimension::new("sram_kib", vec![128.0, 512.0, 2048.0]),
        Dimension::new("dram_gbps", vec![25.0, 50.0, 100.0]),
    ]);
    println!(
        "co-design space: {} microarchitectures; objectives: latency, power, area\n",
        space.cardinality()
    );

    // The workload under design: the obstacle-avoidance inner loop.
    let workload = [KernelProfile::collision_batch(100_000, 128), KernelProfile::ekf_update(23)];
    let objective = |values: &[f64]| -> Vec<f64> {
        let config = config_from(values);
        let platform = config.generate().expect("space contains only valid configs");
        let cost = platform.estimate_pipeline(&workload);
        vec![cost.latency.as_millis(), platform.active_power().value(), platform.die_area().value()]
    };

    let front = nsga2(&space, &objective, 40, 32, 2024);
    println!(
        "{:>5} {:>6} {:>6} {:>5}   {:>11} {:>8} {:>9} {:>8}",
        "PEs", "GHz", "KiB", "GB/s", "latency ms", "power W", "area mm2", "cost $"
    );
    let mut rows = front;
    rows.sort_by(|a, b| a.objectives[0].partial_cmp(&b.objectives[0]).expect("finite"));
    for m in &rows {
        let config = config_from(&m.values);
        println!(
            "{:>5} {:>6} {:>6} {:>5}   {:>11.3} {:>8.2} {:>9.1} {:>8.0}",
            m.values[0],
            m.values[1],
            m.values[2],
            m.values[3],
            m.objectives[0],
            m.objectives[1],
            m.objectives[2],
            config.unit_cost_usd()
        );
    }
    println!(
        "\n{} non-dominated designs: pick by the vehicle's power/mass budget (E5), \
         not by peak TOPS",
        rows.len()
    );
}
