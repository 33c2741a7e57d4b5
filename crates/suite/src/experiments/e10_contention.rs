//! E10 — the "accelerators are not free" ablation (Challenge 4).
//!
//! Two tables:
//!
//! 1. **Bus contention.** Identical accelerators are added to an SoC
//!    sharing one DRAM bus; per-unit throughput degrades and aggregate
//!    throughput saturates at bus capacity.
//! 2. **Sensor/compute balance.** For a fixed camera, platforms are
//!    compared on frame drop rate: past the rate needed to keep up,
//!    additional compute buys nothing but mass and power (ties into E5).

use crate::report::{fmt_f64, Report, Table};
use m7_arch::platform::{Platform, PlatformKind};
use m7_arch::workload::KernelProfile;
use m7_arch::{scaling_under_contention, SharedBus};
use m7_sim::pipeline::Pipeline;
use m7_sim::{SensorKind, SensorSpec};
use m7_units::{Bytes, BytesPerSecond, Hertz, Seconds};

/// The E10 result.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ContentionResult {
    /// `(number of accelerators, per-unit scale, aggregate scale)`.
    pub scaling_rows: Vec<(usize, f64, f64)>,
    /// `(platform, drop rate, mean latency ms)` for the fixed camera.
    pub balance_rows: Vec<(String, f64, f64)>,
}

impl ContentionResult {
    /// Renders the report.
    #[must_use]
    pub(crate) fn report(&self) -> Report {
        let mut report = Report::new("E10 — accelerators are not free: contention (§2.4)");
        let mut t = Table::new(
            "identical accelerators sharing a 12 GB/s DRAM bus (4 GB/s each)",
            vec!["accelerators", "per-unit throughput", "aggregate throughput"],
        );
        for &(n, per, agg) in &self.scaling_rows {
            t.push_row(vec![n.to_string(), fmt_f64(per), fmt_f64(agg)]);
        }
        report.push_table(t);

        let mut b = Table::new(
            "sensor/compute balance: 30 fps full-HD camera",
            vec!["platform", "frame drop rate", "mean latency [ms]"],
        );
        for (name, drops, lat) in &self.balance_rows {
            b.push_row(vec![name.clone(), fmt_f64(*drops), fmt_f64(*lat)]);
        }
        report.push_table(b);
        report.push_note(
            "per-unit throughput falls as accelerators are added (shared-bus slowdown); and \
             once a platform keeps up with the sensor, faster platforms no longer reduce \
             drops — balance, not maximum, is the design target",
        );
        report
    }
}

/// Runs E10.
#[must_use]
pub(crate) fn run() -> ContentionResult {
    let bus = SharedBus::new(BytesPerSecond::from_gigabytes_per_second(12.0));
    let per_unit_demand = BytesPerSecond::from_gigabytes_per_second(4.0);
    let scaling_rows = (1..=8)
        .map(|n| {
            let (agg, per) = scaling_under_contention(&bus, per_unit_demand, n);
            (n, per, agg)
        })
        .collect();

    let sensor =
        SensorSpec::new(SensorKind::Camera, Hertz::new(30.0), Bytes::new(1920.0 * 1080.0), 2.0);
    let kernel = KernelProfile::feature_extract(1920, 1080);
    let balance_rows =
        [PlatformKind::CpuScalar, PlatformKind::CpuSimd, PlatformKind::Gpu, PlatformKind::Asic]
            .iter()
            .map(|&kind| {
                let p = Pipeline::new(sensor.clone(), Platform::preset(kind), kernel.clone());
                let stats = p.simulate(Seconds::new(10.0));
                (
                    Platform::preset(kind).name().to_string(),
                    stats.drop_rate(),
                    stats.mean_latency.as_millis(),
                )
            })
            .collect();

    ContentionResult { scaling_rows, balance_rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_unit_throughput_degrades() {
        let r = run();
        for w in r.scaling_rows.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-12, "per-unit must not improve with contention");
        }
        let first = r.scaling_rows[0].1;
        let last = r.scaling_rows[7].1;
        assert!(last < first * 0.5, "8-way sharing should at least halve per-unit: {last}");
    }

    #[test]
    fn aggregate_saturates() {
        let r = run();
        let agg4 = r.scaling_rows[3].2;
        let agg8 = r.scaling_rows[7].2;
        assert!(agg8 <= agg4 * 1.1, "aggregate flat past saturation: {agg4} → {agg8}");
    }

    #[test]
    fn balance_point_exists() {
        let r = run();
        let drop = |name: &str| {
            r.balance_rows
                .iter()
                .find(|(n, _, _)| n == name)
                .map(|&(_, d, _)| d)
                .expect("platform present")
        };
        assert!(drop("cpu-scalar") > 0.1, "scalar cannot keep up");
        assert!(drop("cpu-simd") < 0.01, "SIMD already keeps up");
        // Past the balance point more compute does not reduce drops.
        assert!(drop("gpu-embedded") <= drop("cpu-simd") + 1e-9);
        assert!(drop("asic") <= drop("cpu-simd") + 1e-9);
    }

    #[test]
    fn report_renders() {
        let text = run().report().to_string();
        assert!(text.contains("DRAM bus"));
        assert!(text.contains("balance"));
    }
}
