//! The agile-design-tools opportunity (§3.1): describe an accelerator in
//! a plain-text spec a domain expert can write, compile it to a platform
//! model, and immediately evaluate it at every level — kernel latency,
//! DVFS trade space, sensor keep-up, and embodied carbon.
//!
//! Run with: `cargo run --example accelerator_spec`

use magseven::arch::dvfs::ladder_sweep;
use magseven::arch::parse_platform;
use magseven::prelude::*;

const SPEC: &str = "\
# written by a roboticist, not an architect
name           = pallet-bot-accel
kind           = asic
peak_tops      = 1.5
bandwidth_gbps = 80
serial_gops    = 1.2
dispatch_us    = 4
active_w       = 4.5
idle_w         = 0.4
mass_g         = 35
area_mm2       = 64
cost_usd       = 28
specialize     = families collision-geometry dense-linear-algebra
fallback       = 0.03
";

fn main() {
    let platform = match parse_platform(SPEC) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("spec error: {e}");
            std::process::exit(1);
        }
    };
    println!("compiled spec into platform `{}` ({})\n", platform.name(), platform.kind());

    // Kernel-level check against the workloads it claims to serve.
    for kernel in [
        KernelProfile::collision_batch(40_000, 96),
        KernelProfile::gemv(512, 512),
        KernelProfile::correlation_scan(9261, 90), // off-family
    ] {
        let cost = platform.estimate(&kernel);
        println!(
            "  {:<24} {:>9.3} ms  match {:.2}  ({})",
            kernel.name(),
            cost.latency.as_millis(),
            platform.match_factor(&kernel),
            cost.bound
        );
    }

    // DVFS trade space.
    println!("\nDVFS ladder on the collision batch:");
    let kernel = KernelProfile::collision_batch(40_000, 96);
    for (point, scaled) in ladder_sweep(&platform) {
        let cost = scaled.estimate(&kernel);
        println!(
            "  f={:<5.2} V={:<5.2}  {:>8.3} ms  {:>8.3} mJ",
            point.frequency_scale,
            point.voltage_scale,
            cost.latency.as_millis(),
            cost.energy.value() * 1e3
        );
    }

    // Global check: what does shipping it cost?
    let die = DieSpec::new(platform.die_area(), 7.0);
    println!(
        "\nembodied carbon at 7 nm: {:.2} kgCO2e per good die (yield {:.2})",
        die.embodied_carbon().value(),
        die.yield_fraction()
    );
}
