//! E2 — Challenge 1, "Build Bridges": what happens when an architect
//! accelerates the kernel a *stale benchmark* says is the bottleneck.
//!
//! The legacy benchmark pipeline is dominated by dense grid-correlation
//! scan matching ([`m7_kernels::DenseScanSlam`]'s inner loop). The
//! *deployed* pipeline — what practitioners actually run today — is a
//! sparse stack: feature extraction, EKF updates, batched collision
//! checks, and dynamics. A "correlation widget" ASIC looks spectacular on
//! the legacy benchmark and does nothing for the deployed stack, while an
//! expert-informed cross-cutting accelerator helps where it matters.

use crate::report::{fmt_f64, Report, Table};
use m7_arch::platform::{Platform, PlatformKind, Specialization};
use m7_arch::workload::{KernelFamily, KernelProfile};

/// The legacy (benchmark-era) SLAM pipeline: correlation dominates.
#[must_use]
pub(crate) fn legacy_pipeline() -> Vec<KernelProfile> {
    vec![
        // A 21×21×21-hypothesis window over a 90-beam scan, per update.
        KernelProfile::correlation_scan(9261, 90),
        KernelProfile::ekf_update(23),
        KernelProfile::rnea(6),
    ]
}

/// The deployed (modern) pipeline: sparse filters and geometry.
#[must_use]
pub(crate) fn deployed_pipeline() -> Vec<KernelProfile> {
    vec![
        KernelProfile::feature_extract(640, 480),
        KernelProfile::ekf_update(43),
        KernelProfile::collision_batch(20_000, 64),
        KernelProfile::rnea(6),
    ]
}

/// The benchmark-driven design: a widget hardwired to the correlation
/// kernel shape.
#[must_use]
pub(crate) fn correlation_widget() -> Platform {
    Platform::builder(PlatformKind::Asic)
        .name("correlation-widget")
        // The whole occupancy grid is pinned in on-chip SRAM — which is
        // exactly what makes this a widget: that SRAM helps no other kernel.
        .roofline(m7_arch::Roofline::new(
            m7_units::OpsPerSecond::from_teraops(4.0),
            m7_units::BytesPerSecond::from_gigabytes_per_second(1000.0),
        ))
        .specialization(Specialization::Widget {
            name_prefix: "correlation-".to_string(),
            family: KernelFamily::GridCorrelation,
            family_fraction: 0.3,
            fallback: 0.02,
        })
        .build()
}

/// The expert-informed design: a cross-cutting accelerator for the
/// families the deployed stack actually exercises.
#[must_use]
pub(crate) fn expert_accelerator() -> Platform {
    Platform::builder(PlatformKind::Asic)
        .name("expert-crosscutting")
        .specialization(Specialization::Families {
            families: vec![
                KernelFamily::DenseLinearAlgebra,
                KernelFamily::CollisionGeometry,
                KernelFamily::Stencil,
            ],
            fallback: 0.02,
        })
        .build()
}

/// The E2 result rows.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BridgesResult {
    /// `(design, legacy-benchmark speedup, deployed-pipeline speedup)`.
    pub rows: Vec<(String, f64, f64)>,
}

impl BridgesResult {
    /// Renders the report.
    #[must_use]
    pub(crate) fn report(&self) -> Report {
        let mut report = Report::new("E2 — build bridges: benchmark-stale acceleration (§2.1)");
        let mut t = Table::new(
            "end-to-end speedup over the host CPU",
            vec!["design", "legacy benchmark", "deployed pipeline"],
        );
        for (name, legacy, deployed) in &self.rows {
            t.push_row(vec![name.clone(), fmt_f64(*legacy), fmt_f64(*deployed)]);
        }
        report.push_table(t);
        report.push_note(
            "the correlation widget looks transformative on the stale benchmark and is \
             irrelevant to the deployed stack — ongoing domain-expert feedback would have \
             redirected the design",
        );
        report
    }
}

/// Runs E2.
#[must_use]
pub(crate) fn run() -> BridgesResult {
    let host = Platform::preset(PlatformKind::CpuSimd);
    let designs = [correlation_widget(), expert_accelerator()];
    let legacy = legacy_pipeline();
    let deployed = deployed_pipeline();

    let host_legacy = host.estimate_pipeline(&legacy).latency;
    let host_deployed = host.estimate_pipeline(&deployed).latency;

    let rows = designs
        .iter()
        .map(|design| {
            // The accelerator offloads matching kernels; non-matching kernels
            // stay on the host (a realistic SoC integration), so each kernel
            // runs on whichever is faster.
            let offloaded = |pipeline: &[KernelProfile]| {
                pipeline
                    .iter()
                    .map(|k| design.estimate(k).latency.min(host.estimate(k).latency))
                    .sum::<m7_units::Seconds>()
            };
            (
                design.name().to_string(),
                host_legacy / offloaded(&legacy),
                host_deployed / offloaded(&deployed),
            )
        })
        .collect();
    BridgesResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl BridgesResult {
        /// Speedup of `design` on the deployed pipeline.
        #[must_use]
        fn deployed_speedup(&self, design: &str) -> Option<f64> {
            self.rows.iter().find(|(n, _, _)| n == design).map(|&(_, _, s)| s)
        }
    }

    #[test]
    fn widget_wins_legacy_loses_deployed() {
        let r = run();
        let widget_legacy = r.rows[0].1;
        let widget_deployed = r.rows[0].2;
        assert!(widget_legacy > 2.0, "widget should shine on its benchmark: {widget_legacy}");
        assert!(
            widget_deployed < widget_legacy / 2.0,
            "widget gain should collapse on the deployed stack: {widget_deployed} vs {widget_legacy}"
        );
    }

    #[test]
    fn expert_design_helps_deployed_stack() {
        let r = run();
        let expert = r.deployed_speedup("expert-crosscutting").unwrap();
        let widget = r.deployed_speedup("correlation-widget").unwrap();
        assert!(expert > widget, "expert {expert} must beat widget {widget} where it matters");
        assert!(expert > 1.5, "expert design should deliver a real end-to-end win: {expert}");
    }

    #[test]
    fn speedups_are_at_least_one() {
        // Offloading falls back to the host, so no design loses end-to-end.
        for (name, legacy, deployed) in run().rows {
            assert!(legacy >= 0.99, "{name} legacy {legacy}");
            assert!(deployed >= 0.99, "{name} deployed {deployed}");
        }
    }

    #[test]
    fn report_renders() {
        let text = run().report().to_string();
        assert!(text.contains("correlation-widget"));
        assert!(text.contains("expert-crosscutting"));
    }
}
