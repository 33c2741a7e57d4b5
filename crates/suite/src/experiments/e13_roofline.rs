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
//! 2. **Measured (wall clock, diagnostic-only).** Small lane-vs-scalar
//!    timings of the real kernels on the host. The speedups are rendered
//!    in an extra table and exported as *diagnostic-class* trace gauges,
//!    so deterministic metric dumps and the golden suite never see them.
//!    The full-size harness lives in `m7-bench` (`examples/roofline_report`
//!    → `BENCH_roofline.json`); this section is its smoke-scale twin.

use crate::report::{fmt_f64, Report, Table};
use m7_arch::platform::{Platform, PlatformKind};
use m7_arch::roofline::Roofline;
use m7_arch::workload::KernelProfile;
use m7_kernels::dnn::{Mlp, MlpScratch, Precision};
use m7_kernels::geometry::{Pose2, Vec2};
use m7_kernels::perception::{Descriptor, FeatureFrontEnd};
use m7_kernels::planning::CollisionWorld;
use m7_kernels::slam::{synthetic_room_scan, DenseScanSlam, DenseSlamConfig};
use m7_trace::{MetricClass, TraceGauge};
use m7_units::OpsPerByte;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::Instant;

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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// One measured lane-vs-scalar timing (wall clock, nondeterministic).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct MeasuredRow {
    /// Kernel label.
    pub kernel: String,
    /// Lane-path wall time (ms).
    pub lane_ms: f64,
    /// Scalar-reference wall time (ms).
    pub scalar_ms: f64,
    /// Whether the lane path reproduced the scalar output bit for bit.
    pub agrees: bool,
}

impl MeasuredRow {
    /// Wall-clock speedup of the lane path over the scalar reference.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.scalar_ms / self.lane_ms
    }
}

/// The E13 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct RooflineResult {
    /// Where the measured table (if any) came from.
    pub timing: Timing,
    /// Modeled placement of the four vectorized kernels.
    pub rows: Vec<RooflineRow>,
    /// cpu-scalar ridge point (flop per byte).
    pub ridge_scalar: f64,
    /// cpu-simd ridge point (flop per byte).
    pub ridge_simd: f64,
    /// Host lane-vs-scalar timings; empty under [`Timing::Modeled`].
    pub measured: Vec<MeasuredRow>,
}

impl RooflineResult {
    /// Renders the report.
    #[must_use]
    pub fn report(&self) -> Report {
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
                "measured: lane vs scalar wall clock on this host (diagnostic, smoke scale)",
                vec!["kernel", "lane [ms]", "scalar [ms]", "speedup", "bit-identical"],
            );
            for row in &self.measured {
                m.push_row(vec![
                    row.kernel.clone(),
                    fmt_f64(row.lane_ms),
                    fmt_f64(row.scalar_ms),
                    fmt_f64(row.speedup()),
                    if row.agrees { "yes" } else { "NO" }.to_string(),
                ]);
            }
            report.push_table(m);
            report.push_note(
                "wall-clock rows vary run to run and are exported as diagnostic-class trace \
                 gauges only; the full-size harness is `cargo run --release --example \
                 roofline_report` (BENCH_roofline.json)",
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

/// Times `f` once after one warm-up call, in milliseconds.
fn time_ms(mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e3
}

/// Smoke-scale host timings of the four lane kernels against their scalar
/// references. Sizes are deliberately tiny: the point is the diagnostic
/// signal (and the bit-identity check), not benchmark-grade numbers.
fn measure_host(seed: u64) -> Vec<MeasuredRow> {
    let mut rows = Vec::new();

    // Batched segment collision: short PRM-style edges in a scattered world.
    let mut world = CollisionWorld::new(40.0, 40.0);
    world.scatter_circles(64, 0.2, 1.0, seed);
    let checker = world.to_batch_checker();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0xE13);
    let edges: Vec<(Vec2, Vec2)> = (0..128)
        .map(|_| {
            let from = Vec2::new(rng.gen_range(0.0..40.0), rng.gen_range(0.0..40.0));
            (from, from + Vec2::new(rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5)))
        })
        .collect();
    let lane_ms = time_ms(|| {
        std::hint::black_box(checker.segments_free(std::hint::black_box(&edges)));
    });
    let scalar_ms = time_ms(|| {
        std::hint::black_box(checker.segments_free_scalar(std::hint::black_box(&edges)));
    });
    let agrees = checker.segments_free(&edges) == checker.segments_free_scalar(&edges);
    let row = MeasuredRow { kernel: "collision-segments".into(), lane_ms, scalar_ms, agrees };
    COLLISION_SPEEDUP.set((row.speedup() * 1e3) as u64);
    rows.push(row);

    // BRIEF descriptor matching.
    let mut gen_set = |n: usize| -> Vec<Descriptor> {
        (0..n).map(|_| Descriptor([rng.gen(), rng.gen(), rng.gen(), rng.gen()])).collect()
    };
    let (a, b) = (gen_set(64), gen_set(64));
    let lane_ms = time_ms(|| {
        std::hint::black_box(FeatureFrontEnd::match_descriptors_planes(
            std::hint::black_box(&a),
            std::hint::black_box(&b),
        ));
    });
    let scalar_ms = time_ms(|| {
        std::hint::black_box(FeatureFrontEnd::match_descriptors_scalar(
            std::hint::black_box(&a),
            std::hint::black_box(&b),
        ));
    });
    let agrees = FeatureFrontEnd::match_descriptors_planes(&a, &b)
        == FeatureFrontEnd::match_descriptors_scalar(&a, &b);
    let row = MeasuredRow { kernel: "brief-match".into(), lane_ms, scalar_ms, agrees };
    MATCHER_SPEEDUP.set((row.speedup() * 1e3) as u64);
    rows.push(row);

    // Dense correlation scan matching in a small search window.
    let config =
        DenseSlamConfig { window_trans: 0.1, window_rot: 0.06, ..DenseSlamConfig::default() };
    let room_center = Vec2::new(15.0, 15.0);
    let mut slam = DenseScanSlam::new(config, 30.0, 30.0, 0.25);
    let start = Pose2::new(room_center, 0.0);
    let scan0 = synthetic_room_scan(start, room_center, 10.0, 8.0, 30);
    slam.step(Pose2::identity(), &scan0);
    slam.step(Pose2::identity(), &scan0);
    let prior = Pose2::new(room_center + Vec2::new(0.05, -0.03), 0.01);
    let scan = synthetic_room_scan(prior, room_center, 10.0, 8.0, 30);
    let lane_ms = time_ms(|| {
        std::hint::black_box(slam.match_scan(std::hint::black_box(prior), &scan));
    });
    let scalar_ms = time_ms(|| {
        std::hint::black_box(slam.match_scan_reference(std::hint::black_box(prior), &scan));
    });
    let agrees = slam.match_scan(prior, &scan) == slam.match_scan_reference(prior, &scan);
    let row = MeasuredRow { kernel: "dense-correlation".into(), lane_ms, scalar_ms, agrees };
    CORRELATION_SPEEDUP.set((row.speedup() * 1e3) as u64);
    rows.push(row);

    // Batched MLP inference (Int8 quantized path).
    let widths = [8usize, 32, 32, 6];
    let mlp = Mlp::new(&widths, seed);
    let batch = 64;
    let inputs: Vec<f64> = (0..batch * widths[0]).map(|_| rng.gen_range(-2.0..2.0)).collect();
    let mut scratch = MlpScratch::default();
    let lane_ms = time_ms(|| {
        std::hint::black_box(mlp.forward_batch_into(
            std::hint::black_box(&inputs),
            Precision::Int8,
            &mut scratch,
        ));
    });
    let scalar_ms = time_ms(|| {
        for s in 0..batch {
            std::hint::black_box(mlp.forward_reference(
                std::hint::black_box(&inputs[s * widths[0]..(s + 1) * widths[0]]),
                Precision::Int8,
            ));
        }
    });
    let batched = mlp.forward_batch_into(&inputs, Precision::Int8, &mut scratch).to_vec();
    let agrees =
        (0..batch).all(|s| {
            batched[s * widths[3]..(s + 1) * widths[3]]
                == mlp
                    .forward_reference(&inputs[s * widths[0]..(s + 1) * widths[0]], Precision::Int8)
                    [..]
        });
    let row = MeasuredRow { kernel: "dnn-inference".into(), lane_ms, scalar_ms, agrees };
    DNN_SPEEDUP.set((row.speedup() * 1e3) as u64);
    rows.push(row);

    rows
}

/// Runs E13. With [`Timing::Modeled`] the result is a pure function of
/// the kernel profiles — the seed only feeds the measured workloads, so
/// modeled output is identical for every seed and thread count.
#[must_use]
pub fn run_with(seed: u64, timing: Timing) -> RooflineResult {
    let profiles = modeled_profiles();
    let rows = profiles.iter().map(modeled_row).collect();
    let measured = match timing {
        Timing::Measured => measure_host(seed),
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

    /// Runs E13 with host timings for the measured table.
    #[must_use]
    fn run(seed: u64) -> RooflineResult {
        run_with(seed, Timing::Measured)
    }

    #[test]
    fn modeled_half_is_seed_free_and_deterministic() {
        let a = run_with(1, Timing::Modeled);
        let b = run_with(99, Timing::Modeled);
        assert_eq!(a, b, "modeled roofline must not depend on the seed");
        assert_eq!(a.report().to_string(), b.report().to_string());
        assert!(a.measured.is_empty(), "modeled mode must not touch the wall clock");
    }

    #[test]
    fn modeled_rows_cover_all_four_kernels_with_sane_ceilings() {
        let r = run_with(42, Timing::Modeled);
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
        let r = run(42);
        assert_eq!(r.measured.len(), 4);
        for row in &r.measured {
            assert!(row.agrees, "{}: lane path diverged from scalar reference", row.kernel);
            assert!(row.lane_ms > 0.0 && row.scalar_ms > 0.0);
        }
        let text = r.report().to_string();
        assert!(text.contains("measured"));
        assert!(text.contains("bit-identical"));
    }

    #[test]
    fn modeled_report_omits_wall_clock_rows() {
        let text = run_with(42, Timing::Modeled).report().to_string();
        assert!(text.contains("modeled"));
        assert!(!text.contains("on this host"));
    }
}
