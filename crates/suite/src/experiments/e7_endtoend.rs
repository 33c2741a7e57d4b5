//! E7 — Challenge 6, "Forest vs. Trees": the end-to-end view.
//!
//! Sweeps an idealized kernel-stage speedup from 1× to 1000× through the
//! full sensor → marshalling → kernel → actuation pipeline, under a lean
//! and a heavy data-movement ("AI tax") configuration. End-to-end gain
//! flattens at the Amdahl ceiling; with a heavy tax the ceiling collapses
//! toward 1×.

use crate::report::{fmt_f64, Report, Table};
use m7_arch::platform::{Platform, PlatformKind};
use m7_arch::workload::KernelProfile;
use m7_sim::pipeline::Pipeline;
use m7_sim::{SensorKind, SensorSpec};
use m7_units::{Bytes, BytesPerSecond, Hertz, Seconds};

/// Kernel-speedup sweep points.
pub(crate) const SPEEDUPS: [f64; 7] = [1.0, 2.0, 5.0, 10.0, 50.0, 100.0, 1000.0];

/// The E7 result.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEndResult {
    /// `(kernel speedup, lean end-to-end gain, heavy-tax end-to-end gain)`.
    pub rows: Vec<(f64, f64, f64)>,
    /// Compute fraction of the lean pipeline at 1×.
    pub lean_compute_fraction: f64,
    /// Compute fraction of the heavy-tax pipeline at 1×.
    pub taxed_compute_fraction: f64,
}

impl EndToEndResult {
    /// Amdahl ceiling implied by a compute fraction.
    #[must_use]
    pub(crate) fn ceiling(fraction: f64) -> f64 {
        1.0 / (1.0 - fraction)
    }

    /// Renders the report.
    #[must_use]
    pub fn report(&self) -> Report {
        let mut report = Report::new("E7 — forest vs. trees: end-to-end speedup (§2.6)");
        let mut t = Table::new(
            "end-to-end gain vs kernel-only speedup",
            vec!["kernel speedup", "lean pipeline", "heavy AI-tax pipeline"],
        );
        for &(k, lean, taxed) in &self.rows {
            t.push_row(vec![fmt_f64(k), fmt_f64(lean), fmt_f64(taxed)]);
        }
        report.push_table(t);
        report.push_note(format!(
            "Amdahl ceilings: lean {:.1}x (compute fraction {:.2}), heavy tax {:.1}x \
             (compute fraction {:.2}) — accelerating the kernel 1000x cannot beat either",
            Self::ceiling(self.lean_compute_fraction),
            self.lean_compute_fraction,
            Self::ceiling(self.taxed_compute_fraction),
            self.taxed_compute_fraction,
        ));
        report
    }
}

fn full_hd_sensor() -> SensorSpec {
    SensorSpec::new(SensorKind::Camera, Hertz::new(30.0), Bytes::new(1920.0 * 1080.0), 2.0)
}

/// The lean pipeline: fast copy path, modest overheads, kernel-dominated
/// (the scenario accelerator pitches assume).
#[must_use]
pub fn lean_pipeline() -> Pipeline {
    Pipeline::new(
        full_hd_sensor(),
        Platform::preset(PlatformKind::CpuScalar),
        KernelProfile::feature_extract(1920, 1080),
    )
    .with_marshalling(BytesPerSecond::from_gigabytes_per_second(8.0), Seconds::from_millis(0.2))
}

/// The heavy-tax pipeline: slow serialization path and driver overheads —
/// the datacenter "AI tax" shape at the edge.
#[must_use]
pub fn taxed_pipeline() -> Pipeline {
    Pipeline::new(
        full_hd_sensor(),
        Platform::preset(PlatformKind::CpuScalar),
        KernelProfile::feature_extract(1920, 1080),
    )
    .with_marshalling(BytesPerSecond::from_gigabytes_per_second(0.1), Seconds::from_millis(5.0))
}

/// Runs E7.
#[must_use]
pub fn run() -> EndToEndResult {
    let lean = lean_pipeline();
    let taxed = taxed_pipeline();
    let rows = SPEEDUPS
        .iter()
        .map(|&k| (k, lean.end_to_end_speedup(k), taxed.end_to_end_speedup(k)))
        .collect();
    EndToEndResult {
        rows,
        lean_compute_fraction: lean.latency_budget().compute_fraction(),
        taxed_compute_fraction: taxed.latency_budget().compute_fraction(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gains_respect_amdahl() {
        let r = run();
        let lean_ceiling = EndToEndResult::ceiling(r.lean_compute_fraction);
        let taxed_ceiling = EndToEndResult::ceiling(r.taxed_compute_fraction);
        for &(k, lean, taxed) in &r.rows {
            assert!(lean <= lean_ceiling + 1e-9, "k={k}");
            assert!(taxed <= taxed_ceiling + 1e-9, "k={k}");
            assert!(lean <= k + 1e-9, "end-to-end cannot beat the kernel speedup itself");
        }
    }

    #[test]
    fn gains_are_monotone_but_saturating() {
        let r = run();
        for w in r.rows.windows(2) {
            assert!(w[1].1 >= w[0].1);
            assert!(w[1].2 >= w[0].2);
        }
        // Marginal gain from 100x → 1000x is small.
        let at_100 = r.rows[5].1;
        let at_1000 = r.rows[6].1;
        assert!(at_1000 / at_100 < 1.5, "saturation: {at_100} → {at_1000}");
    }

    #[test]
    fn tax_collapses_the_ceiling() {
        let r = run();
        assert!(r.taxed_compute_fraction < r.lean_compute_fraction);
        let (_, lean_1000, taxed_1000) = r.rows[6];
        assert!(
            taxed_1000 < lean_1000 / 2.0,
            "heavy tax should at least halve the achievable gain: {taxed_1000} vs {lean_1000}"
        );
        assert!(taxed_1000 < 3.0, "1000x kernel under heavy tax stays under 3x end-to-end");
    }

    #[test]
    fn report_renders_all_sweep_points() {
        let text = run().report().to_string();
        assert!(text.contains("1000"));
        assert!(text.contains("Amdahl"));
    }
}
