//! E13 — measured vs modeled roofline for the vectorized autonomy kernels.
//!
//! PR 6 reworked four kernel hot loops into SIMD-friendly lane form
//! (batched collision, BRIEF descriptor matching, dense scan correlation,
//! MLP inference). This experiment closes the loop called for by §2.5:
//! place each kernel's analytic FLOP/byte footprint on the `m7-arch`
//! roofline presets and report where the model says the ceiling is —
//! then, in measured mode, check the host against it.
//!
//! Two parts, following the E6 [`Timing`] convention:
//!
//! 1. **Modeled (always, deterministic).** Pure functions of the kernel
//!    profiles: arithmetic intensity, the attainable GFLOP/s ceiling on
//!    the cpu-scalar and cpu-simd presets, memory-vs-compute bound
//!    classification, and the cost-model speedup of cpu-simd over
//!    cpu-scalar. This is the half that lands in the golden report.
//! 2. **Measured (wall clock, diagnostic-only).** The four rows of the
//!    `m7-bench` roofline harness in quick mode
//!    ([`m7_bench::run_suite`]), the same run as
//!    `examples/roofline_report --quick`. The speedups are rendered in an
//!    extra table and exported as *diagnostic-class* trace gauges, so
//!    deterministic metric dumps and the golden suite never see them.

use crate::report::{fmt_f64, Report, Table};
use m7_arch::platform::{Platform, PlatformKind};
use m7_arch::workload::KernelProfile;
use m7_arch::Roofline;
use m7_bench::{run_suite, KernelMeasurement};
use m7_kernels::{Mlp, Precision};
use m7_trace::{MetricClass, TraceGauge};
use m7_units::OpsPerByte;

use super::Timing;

// Diagnostic-class gauges: host wall-clock lane-vs-scalar speedups in
// milli-x (2.4x → 2400). Diagnostic metrics are excluded from
// deterministic dumps, so recording them never perturbs golden output.
static COLLISION_SPEEDUP: TraceGauge =
    TraceGauge::new("e13.measured.collision_speedup_milli", MetricClass::Diagnostic);
static MATCHER_SPEEDUP: TraceGauge =
    TraceGauge::new("e13.measured.matcher_speedup_milli", MetricClass::Diagnostic);
static CORRELATION_SPEEDUP: TraceGauge =
    TraceGauge::new("e13.measured.correlation_speedup_milli", MetricClass::Diagnostic);
static DNN_SPEEDUP: TraceGauge =
    TraceGauge::new("e13.measured.dnn_speedup_milli", MetricClass::Diagnostic);

/// Modeled roofline placement of one kernel on both CPU presets.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RooflineRow {
    /// Kernel profile name (e.g. `collision-batch-2048x256`).
    pub kernel: String,
    /// Kernel family label.
    pub family: String,
    /// Arithmetic intensity (flop per byte).
    pub intensity: f64,
    /// Attainable GFLOP/s under the cpu-scalar roofline.
    pub scalar_ceiling_gflops: f64,
    /// Whether cpu-scalar pins this kernel against its bandwidth roof.
    pub scalar_memory_bound: bool,
    /// Attainable GFLOP/s under the cpu-simd roofline.
    pub simd_ceiling_gflops: f64,
    /// Whether cpu-simd pins this kernel against its bandwidth roof.
    pub simd_memory_bound: bool,
    /// Cost-model latency ratio cpu-scalar / cpu-simd.
    pub modeled_speedup: f64,
}

/// The E13 result.
#[derive(Debug, Clone)]
pub(crate) struct RooflineResult {
    /// Where the measured table (if any) came from.
    pub timing: Timing,
    /// Modeled placement of the four vectorized kernels.
    pub rows: Vec<RooflineRow>,
    /// cpu-scalar ridge point (flop per byte).
    pub ridge_scalar: f64,
    /// cpu-simd ridge point (flop per byte).
    pub ridge_simd: f64,
    /// The quick roofline harness's lane-vs-scalar rows, one per kernel;
    /// empty under [`Timing::Modeled`].
    pub measured: Vec<KernelMeasurement>,
}

impl RooflineResult {
    /// Renders the report.
    #[must_use]
    pub(crate) fn report(&self) -> Report {
        let mut report =
            Report::new("E13 — measured vs modeled roofline for vectorized kernels (§2.5)");
        let mut t = Table::new(
            "modeled: kernel placement on the cpu-scalar and cpu-simd rooflines",
            vec![
                "kernel",
                "family",
                "ai [flop/B]",
                "scalar ceil [GFLOP/s]",
                "scalar bound",
                "simd ceil [GFLOP/s]",
                "simd bound",
                "modeled speedup",
            ],
        );
        for row in &self.rows {
            t.push_row(vec![
                row.kernel.clone(),
                row.family.clone(),
                fmt_f64(row.intensity),
                fmt_f64(row.scalar_ceiling_gflops),
                bound_label(row.scalar_memory_bound).to_string(),
                fmt_f64(row.simd_ceiling_gflops),
                bound_label(row.simd_memory_bound).to_string(),
                fmt_f64(row.modeled_speedup),
            ]);
        }
        report.push_table(t);
        report.push_note(format!(
            "ridge points: cpu-scalar {} flop/B, cpu-simd {} flop/B; kernels right of the \
             ridge are compute-bound, so wider lanes (not more bandwidth) buy throughput",
            fmt_f64(self.ridge_scalar),
            fmt_f64(self.ridge_simd)
        ));

        if self.timing == Timing::Measured {
            let mut m = Table::new(
                "measured: lane vs scalar wall clock on this host (diagnostic, quick harness)",
                vec!["kernel", "lane [ms]", "scalar [ms]", "speedup", "bit-identical"],
            );
            for row in &self.measured {
                m.push_row(vec![
                    row.kernel.clone(),
                    fmt_f64(row.lane_seconds * 1e3),
                    fmt_f64(row.scalar_seconds * 1e3),
                    fmt_f64(row.speedup()),
                    if row.lane_agrees { "yes" } else { "NO" }.to_string(),
                ]);
            }
            report.push_table(m);
            report.push_note(
                "wall-clock rows vary run to run and are exported as diagnostic-class trace \
                 gauges only; they are `roofline_report --quick`'s rows, and the full-size \
                 harness is `cargo run --release --example roofline_report` \
                 (BENCH_roofline.json)",
            );
        }
        report
    }
}

fn bound_label(memory_bound: bool) -> &'static str {
    if memory_bound {
        "memory"
    } else {
        "compute"
    }
}

/// The four vectorized-kernel profiles at full-harness sizes. Pure
/// function of nothing — the modeled half of E13 is seed-free.
fn modeled_profiles() -> Vec<KernelProfile> {
    // Same MLP shape as the m7-bench harness; MAC and weight-byte counts
    // are architecture-only, so no training is needed for the profile.
    let widths = [8usize, 64, 64, 6];
    let mlp = Mlp::new(&widths, 0);
    let batch = 256.0;
    vec![
        KernelProfile::collision_batch(2048, 256),
        KernelProfile::descriptor_match(512, 512),
        KernelProfile::correlation_scan(9261, 90),
        KernelProfile::dnn_inference(
            mlp.macs_per_inference() * batch,
            mlp.weight_bytes(Precision::Int8) * batch,
        ),
    ]
}

fn modeled_row(profile: &KernelProfile) -> RooflineRow {
    let scalar = Platform::preset(PlatformKind::CpuScalar);
    let simd = Platform::preset(PlatformKind::CpuSimd);
    let ai = profile.arithmetic_intensity();
    let ceiling = |roofline: Roofline, ai: OpsPerByte| roofline.attainable(ai).value() / 1e9;
    RooflineRow {
        kernel: profile.name().to_string(),
        family: profile.family().to_string(),
        intensity: ai.value(),
        scalar_ceiling_gflops: ceiling(scalar.roofline(), ai),
        scalar_memory_bound: scalar.roofline().is_memory_bound(ai),
        simd_ceiling_gflops: ceiling(simd.roofline(), ai),
        simd_memory_bound: simd.roofline().is_memory_bound(ai),
        modeled_speedup: scalar.estimate(profile).latency / simd.estimate(profile).latency,
    }
}

/// Runs E13. With [`Timing::Modeled`] the result is a pure function of
/// the kernel profiles, identical on every run and at any thread count.
#[must_use]
pub(crate) fn run(timing: Timing) -> RooflineResult {
    let profiles = modeled_profiles();
    let rows = profiles.iter().map(modeled_row).collect();
    let measured = match timing {
        Timing::Measured => {
            // The quick harness measures collision, matcher, correlation
            // and DNN, one row each, in that order.
            let rows = run_suite(true).measurements;
            let gauges = [&COLLISION_SPEEDUP, &MATCHER_SPEEDUP, &CORRELATION_SPEEDUP, &DNN_SPEEDUP];
            for (gauge, row) in gauges.into_iter().zip(&rows) {
                gauge.set((row.speedup() * 1e3) as u64);
            }
            rows
        }
        Timing::Modeled => Vec::new(),
    };
    RooflineResult {
        timing,
        rows,
        ridge_scalar: Platform::preset(PlatformKind::CpuScalar).roofline().ridge_point().value(),
        ridge_simd: Platform::preset(PlatformKind::CpuSimd).roofline().ridge_point().value(),
        measured,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modeled_half_is_deterministic() {
        let a = run(Timing::Modeled);
        let b = run(Timing::Modeled);
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.report().to_string(), b.report().to_string());
        assert!(a.measured.is_empty(), "modeled mode must not touch the wall clock");
    }

    #[test]
    fn modeled_rows_cover_all_four_kernels_with_sane_ceilings() {
        let r = run(Timing::Modeled);
        assert_eq!(r.rows.len(), 4);
        for row in &r.rows {
            assert!(row.intensity > 0.0, "{}: intensity must be positive", row.kernel);
            assert!(
                row.simd_ceiling_gflops >= row.scalar_ceiling_gflops,
                "{}: the simd roof cannot be below the scalar roof",
                row.kernel
            );
            assert!(
                row.modeled_speedup >= 1.0,
                "{}: the cost model must not rank cpu-simd behind cpu-scalar",
                row.kernel
            );
        }
        assert!(r.ridge_simd > r.ridge_scalar, "wider lanes need more intensity to saturate");
    }

    #[test]
    fn measured_mode_adds_the_host_table_and_lane_paths_agree() {
        let r = run(Timing::Measured);
        assert_eq!(r.measured.len(), 4);
        for row in &r.measured {
            assert!(row.lane_agrees, "{}: lane path diverged from scalar reference", row.kernel);
            assert!(row.lane_seconds > 0.0 && row.scalar_seconds > 0.0);
        }
        let text = r.report().to_string();
        assert!(text.contains("measured: lane vs scalar"));
        assert!(text.contains("bit-identical"));
        assert!(!text.contains("| NO "), "{text}");
    }

    #[test]
    fn modeled_report_omits_wall_clock_rows() {
        let text = run(Timing::Modeled).report().to_string();
        assert!(text.contains("modeled"));
        assert!(!text.contains("on this host"));
    }
}
