//! Measured-vs-modeled roofline harness: the wall-clock half of
//! experiment E13.
//!
//! The m7-arch cost models have always *predicted* what the kernels cost;
//! this module closes the loop. For each of the four vectorized kernels
//! (batched collision, BRIEF Hamming matching, dense correlation, MLP
//! inference) it:
//!
//! 1. builds a deterministic workload (seed [`crate::BENCH_SEED`]) at
//!    several batch sizes,
//! 2. counts FLOPs and bytes *analytically* from the kernel's own
//!    [`KernelProfile`] constructor — the same accounting the roofline
//!    model consumes,
//! 3. measures achieved GFLOP/s and GB/s on host wall clock for both the
//!    lane-vectorized path and its scalar reference ([`time_best`]),
//! 4. checks the lane path still agrees with the scalar reference on the
//!    measured workload, and
//! 5. compares achieved throughput against the
//!    [`Platform::preset`] roofline ceilings for the scalar-CPU and
//!    SIMD-CPU presets.
//!
//! Everything wall-clock is **diagnostic** by the m7-trace convention:
//! the numbers depend on the host and never feed golden reports. The
//! analytic half (profiles, intensities, attainable ceilings) is
//! deterministic and is what E13 pins in the golden suite.
//!
//! Output is a text report plus a machine-readable JSON document
//! (`BENCH_roofline.json` at the repo root) whose shape is validated with
//! the m7-trace JSON reader — see [`validate_roofline_json`].

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

use m7_arch::platform::{Platform, PlatformKind};
use m7_arch::workload::KernelProfile;
use m7_kernels::{
    synthetic_room_scan, CollisionWorld, Dataset, DenseScanSlam, DenseSlamConfig, Descriptor,
    FeatureFrontEnd, Mlp, MlpScratch, Pose2, Precision, Vec2,
};
use m7_trace::Json;
use rand::{Rng, SeedableRng};

use crate::BENCH_SEED;

/// Schema tag stamped into the JSON document, bumped on shape changes.
pub(crate) const ROOFLINE_SCHEMA: &str = "m7-bench/roofline/v1";

/// Timed samples per kernel in full mode (see [`time_best`]).
const FULL_REPS: usize = 5;
/// Timed samples per kernel in quick (CI smoke) mode.
const QUICK_REPS: usize = 2;

/// Achieved-vs-attainable comparison against one platform preset.
#[derive(Debug, Clone)]
pub struct ModeledCeiling {
    /// Preset name (`cpu-scalar` / `cpu-simd`).
    pub platform: String,
    /// Roofline-attainable throughput at this kernel's intensity (GFLOP/s).
    pub attainable_gflops: f64,
    /// Which side of the ridge point the kernel sits on.
    pub memory_bound: bool,
    /// Achieved / attainable (1.0 = the model's ceiling was reached).
    pub achieved_fraction: f64,
}

/// One kernel at one batch size: analytic footprint, measured wall clock,
/// and the modeled ceilings.
#[derive(Debug, Clone)]
pub struct KernelMeasurement {
    /// Profile name (e.g. `collision-4096x256`).
    pub kernel: String,
    /// Kernel family label from the profile.
    pub family: String,
    /// Batch size (kernel-specific unit: edges, queries, hypotheses,
    /// inferences).
    pub batch: usize,
    /// Analytic operation count per invocation.
    pub ops: f64,
    /// Analytic memory traffic per invocation (bytes).
    pub bytes: f64,
    /// Arithmetic intensity (ops/byte).
    pub intensity: f64,
    /// Best wall clock per call of the lane-vectorized path (seconds).
    pub lane_seconds: f64,
    /// Best wall clock per call of the scalar reference path (seconds).
    pub scalar_seconds: f64,
    /// Achieved throughput of the lane path (GFLOP/s, analytic ops).
    pub achieved_gflops: f64,
    /// Achieved memory traffic of the lane path (GB/s, analytic bytes).
    pub achieved_gbps: f64,
    /// Lane output compared equal to the scalar reference on this
    /// workload.
    pub lane_agrees: bool,
    /// Ceilings for the scalar-CPU and SIMD-CPU presets.
    pub ceilings: Vec<ModeledCeiling>,
}

impl KernelMeasurement {
    /// Lane-vs-scalar wall-clock speedup.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.lane_seconds > 0.0 {
            self.scalar_seconds / self.lane_seconds
        } else {
            f64::INFINITY
        }
    }
}

/// The full harness result: one [`KernelMeasurement`] per kernel × batch
/// size.
#[derive(Debug, Clone)]
pub struct RooflineSuite {
    /// Quick (CI smoke) mode: tiny batches, fewer reps.
    pub quick: bool,
    /// All measurements, in kernel order.
    pub measurements: Vec<KernelMeasurement>,
}

/// Shortest wall time of one sample: the calls per sample double until
/// a sample lasts this long, so sub-microsecond kernels stay resolvable.
const MIN_SAMPLE: Duration = Duration::from_millis(2);

/// The crate's one kernel timer: the best wall-clock seconds per call of
/// `f` over `samples` samples.
///
/// One untimed warm-up call populates caches and the branch predictor.
/// Then the calls per sample double from one until a sample lasts at
/// least 2 ms; that sample is the first of the `samples` (at least one)
/// timed at the settled call count. Each result passes through
/// [`black_box`].
pub fn time_best<O>(samples: usize, mut f: impl FnMut() -> O) -> f64 {
    let mut run = |calls: u64| {
        let start = Instant::now();
        for _ in 0..calls {
            black_box(f());
        }
        start.elapsed()
    };
    run(1);
    let mut calls = 1u64;
    let mut elapsed = run(calls);
    while elapsed < MIN_SAMPLE {
        calls *= 2;
        elapsed = run(calls);
    }
    let mut best = elapsed;
    for _ in 1..samples {
        best = best.min(run(calls));
    }
    best.as_secs_f64() / calls as f64
}

fn ceilings_for(intensity: f64, achieved_gflops: f64) -> Vec<ModeledCeiling> {
    [PlatformKind::CpuScalar, PlatformKind::CpuSimd]
        .iter()
        .map(|&kind| {
            let roofline = Platform::preset(kind).roofline();
            let attainable =
                roofline.attainable(m7_units::OpsPerByte::new(intensity)).value() / 1e9;
            ModeledCeiling {
                platform: kind.to_string(),
                attainable_gflops: attainable,
                memory_bound: roofline.is_memory_bound(m7_units::OpsPerByte::new(intensity)),
                achieved_fraction: if attainable > 0.0 {
                    achieved_gflops / attainable
                } else {
                    0.0
                },
            }
        })
        .collect()
}

fn measure(
    profile: &KernelProfile,
    batch: usize,
    lane_seconds: f64,
    scalar_seconds: f64,
    lane_agrees: bool,
) -> KernelMeasurement {
    let ops = profile.ops().value();
    let bytes = profile.bytes().value();
    let intensity = profile.arithmetic_intensity().value();
    let achieved_gflops = if lane_seconds > 0.0 { ops / lane_seconds / 1e9 } else { 0.0 };
    let achieved_gbps = if lane_seconds > 0.0 { bytes / lane_seconds / 1e9 } else { 0.0 };
    KernelMeasurement {
        kernel: profile.name().to_string(),
        family: profile.family().to_string(),
        batch,
        ops,
        bytes,
        intensity,
        lane_seconds,
        scalar_seconds,
        achieved_gflops,
        achieved_gbps,
        lane_agrees,
        ceilings: ceilings_for(intensity, achieved_gflops),
    }
}

fn collision_cases(quick: bool, reps: usize, out: &mut Vec<KernelMeasurement>) {
    let sizes: &[(usize, usize)] =
        if quick { &[(64, 32)] } else { &[(512, 128), (2048, 256), (8192, 256)] };
    for &(edges, obstacles) in sizes {
        let mut world = CollisionWorld::new(40.0, 40.0);
        world.scatter_circles(obstacles, 0.2, 1.0, BENCH_SEED);
        let checker = world.to_batch_checker();
        // PRM-style local edges: short segments from random origins. Long
        // full-span edges nearly always collide, so the scalar path exits
        // after a handful of circles and the benchmark degenerates into a
        // branch-predictor test; short, mostly-free edges make both paths
        // sweep the whole obstacle set — the planner's steady-state regime.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(BENCH_SEED + 1);
        let edge_list: Vec<(Vec2, Vec2)> = (0..edges)
            .map(|_| {
                let from = Vec2::new(rng.gen_range(0.0..40.0), rng.gen_range(0.0..40.0));
                let to = from + Vec2::new(rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5));
                (from, to)
            })
            .collect();
        let lane = time_best(reps, || {
            black_box(checker.segments_free(black_box(&edge_list)));
        });
        let scalar = time_best(reps, || {
            black_box(checker.segments_free_scalar(black_box(&edge_list)));
        });
        let agrees = checker.segments_free(&edge_list) == checker.segments_free_scalar(&edge_list);
        let profile = KernelProfile::collision_batch(edges, obstacles);
        out.push(measure(&profile, edges, lane, scalar, agrees));
    }
}

fn matcher_cases(quick: bool, reps: usize, out: &mut Vec<KernelMeasurement>) {
    let sizes: &[(usize, usize)] = if quick { &[(48, 48)] } else { &[(256, 256), (512, 512)] };
    for &(queries, candidates) in sizes {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(BENCH_SEED + 2);
        let gen_set = |rng: &mut rand_chacha::ChaCha8Rng, n: usize| -> Vec<Descriptor> {
            (0..n).map(|_| Descriptor([rng.gen(), rng.gen(), rng.gen(), rng.gen()])).collect()
        };
        let a = gen_set(&mut rng, queries);
        let b = gen_set(&mut rng, candidates);
        let lane = time_best(reps, || {
            black_box(FeatureFrontEnd::match_descriptors_planes(black_box(&a), black_box(&b)));
        });
        let scalar = time_best(reps, || {
            black_box(FeatureFrontEnd::match_descriptors_scalar(black_box(&a), black_box(&b)));
        });
        let agrees = FeatureFrontEnd::match_descriptors_planes(&a, &b)
            == FeatureFrontEnd::match_descriptors_scalar(&a, &b);
        let profile = KernelProfile::descriptor_match(queries, candidates);
        out.push(measure(&profile, queries, lane, scalar, agrees));
    }
}

fn correlation_cases(quick: bool, reps: usize, out: &mut Vec<KernelMeasurement>) {
    let configs: &[(DenseSlamConfig, usize)] = if quick {
        &[(DenseSlamConfig { window_trans: 0.1, window_rot: 0.06, ..DEFAULT_DENSE }, 30)]
    } else {
        &[(DenseSlamConfig { window_trans: 0.25, ..DEFAULT_DENSE }, 60), (DEFAULT_DENSE, 90)]
    };
    for &(config, beams) in configs {
        let room_center = Vec2::new(15.0, 15.0);
        let mut slam = DenseScanSlam::new(config, 30.0, 30.0, 0.25);
        let start = Pose2::new(room_center, 0.0);
        let scan0 = synthetic_room_scan(start, room_center, 10.0, 8.0, beams);
        // Two identity steps integrate the map so the search has structure.
        slam.step(Pose2::identity(), &scan0);
        slam.step(Pose2::identity(), &scan0);
        let prior = Pose2::new(room_center + Vec2::new(0.05, -0.03), 0.01);
        let scan = synthetic_room_scan(prior, room_center, 10.0, 8.0, beams);
        let lane = time_best(reps, || {
            black_box(slam.match_scan(black_box(prior), black_box(&scan)));
        });
        let scalar = time_best(reps, || {
            black_box(slam.match_scan_reference(black_box(prior), black_box(&scan)));
        });
        let agrees = slam.match_scan(prior, &scan) == slam.match_scan_reference(prior, &scan);
        let hypotheses = slam.hypotheses_per_scan();
        let profile = KernelProfile::correlation_scan(hypotheses, scan.bearings.len());
        out.push(measure(&profile, hypotheses, lane, scalar, agrees));
    }
}

/// Shared default so the quick/full configs above stay in sync with the
/// kernel's own defaults.
const DEFAULT_DENSE: DenseSlamConfig =
    DenseSlamConfig { window_trans: 0.5, window_rot: 0.15, step_trans: 0.05, step_rot: 0.015 };

fn dnn_cases(quick: bool, reps: usize, out: &mut Vec<KernelMeasurement>) {
    let batches: &[usize] = if quick { &[64] } else { &[256, 2048] };
    let widths = [8usize, 64, 64, 6];
    let mlp = {
        let mut m = Mlp::new(&widths, BENCH_SEED);
        // A few epochs so weights are non-degenerate (quantization paths
        // see a realistic spread).
        let data = Dataset::blobs(40, widths[3], widths[0], BENCH_SEED);
        m.train(&data, 2, 0.03).expect("blobs fit the network");
        m
    };
    for &batch in batches {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(BENCH_SEED + 3);
        let inputs: Vec<f64> = (0..batch * widths[0]).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let mut scratch = MlpScratch::default();
        let lane = time_best(reps, || {
            black_box(mlp.forward_batch_into(black_box(&inputs), Precision::Int8, &mut scratch));
        });
        let scalar = time_best(reps, || {
            for s in 0..batch {
                black_box(mlp.forward_reference(
                    black_box(&inputs[s * widths[0]..(s + 1) * widths[0]]),
                    Precision::Int8,
                ));
            }
        });
        let batched = mlp.forward_batch_into(&inputs, Precision::Int8, &mut scratch).to_vec();
        let agrees = (0..batch).all(|s| {
            batched[s * widths[3]..(s + 1) * widths[3]]
                == mlp
                    .forward_reference(&inputs[s * widths[0]..(s + 1) * widths[0]], Precision::Int8)
                    [..]
        });
        let profile = KernelProfile::dnn_inference(
            mlp.macs_per_inference() * batch as f64,
            mlp.weight_bytes(Precision::Int8) * batch as f64,
        );
        let mut m = measure(&profile, batch, lane, scalar, agrees);
        // The dnn profile name carries no shape; disambiguate the batch
        // sizes the same way the other kernel families do.
        m.kernel = format!("dnn-inference-b{batch}");
        out.push(m);
    }
}

/// Runs the whole harness. `quick` shrinks batches and repetitions to CI
/// smoke-test scale (sub-second); full mode sizes batches so the hot
/// loops dominate measurement noise.
#[must_use]
pub fn run_suite(quick: bool) -> RooflineSuite {
    let reps = if quick { QUICK_REPS } else { FULL_REPS };
    let mut measurements = Vec::new();
    collision_cases(quick, reps, &mut measurements);
    matcher_cases(quick, reps, &mut measurements);
    correlation_cases(quick, reps, &mut measurements);
    dnn_cases(quick, reps, &mut measurements);
    RooflineSuite { quick, measurements }
}

impl RooflineSuite {
    /// `true` if every lane kernel agreed with its scalar reference on
    /// the measured workloads.
    #[must_use]
    pub fn all_lanes_agree(&self) -> bool {
        self.measurements.iter().all(|m| m.lane_agrees)
    }

    /// Human-readable report: per kernel, the analytic footprint, the
    /// measured throughputs, the lane-vs-scalar speedup, and how close
    /// the lane path came to each preset's roofline ceiling.
    #[must_use]
    pub fn text_report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "measured vs modeled roofline ({} mode)", self.mode());
        let _ = writeln!(
            out,
            "{:<24} {:>7} {:>9} {:>9} {:>8} | {:>9} {:>9} | {:>10} {:>10}",
            "kernel",
            "ai",
            "GFLOP/s",
            "GB/s",
            "speedup",
            "scal-ceil",
            "simd-ceil",
            "%scalar",
            "%simd"
        );
        for m in &self.measurements {
            let scal = &m.ceilings[0];
            let simd = &m.ceilings[1];
            let _ = writeln!(
                out,
                "{:<24} {:>7.3} {:>9.3} {:>9.3} {:>7.2}x | {:>9.3} {:>9.3} | {:>9.1}% {:>9.1}%",
                m.kernel,
                m.intensity,
                m.achieved_gflops,
                m.achieved_gbps,
                m.speedup(),
                scal.attainable_gflops,
                simd.attainable_gflops,
                100.0 * scal.achieved_fraction,
                100.0 * simd.achieved_fraction,
            );
        }
        let _ = writeln!(
            out,
            "lane/scalar agreement: {}",
            if self.all_lanes_agree() { "all kernels bit-identical" } else { "DIVERGENCE" }
        );
        out
    }

    fn mode(&self) -> &'static str {
        if self.quick {
            "quick"
        } else {
            "full"
        }
    }

    /// Machine-readable JSON document (the `BENCH_roofline.json` shape).
    ///
    /// Hand-rolled emitter — all names are ASCII identifiers, so no
    /// escaping is needed; the shape is pinned by the schema tag
    /// `m7-bench/roofline/v1` and checked by [`validate_roofline_json`].
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{ROOFLINE_SCHEMA}\",");
        let _ = writeln!(out, "  \"quick\": {},", self.quick);
        out.push_str("  \"kernels\": [\n");
        for (i, m) in self.measurements.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"kernel\": \"{}\",", m.kernel);
            let _ = writeln!(out, "      \"family\": \"{}\",", m.family);
            let _ = writeln!(out, "      \"batch\": {},", m.batch);
            let _ = writeln!(out, "      \"ops\": {:.1},", m.ops);
            let _ = writeln!(out, "      \"bytes\": {:.1},", m.bytes);
            let _ = writeln!(out, "      \"intensity_ops_per_byte\": {:.6},", m.intensity);
            let _ = writeln!(out, "      \"lane_seconds\": {:.9},", m.lane_seconds);
            let _ = writeln!(out, "      \"scalar_seconds\": {:.9},", m.scalar_seconds);
            let _ = writeln!(out, "      \"speedup\": {:.3},", m.speedup());
            let _ = writeln!(out, "      \"achieved_gflops\": {:.6},", m.achieved_gflops);
            let _ = writeln!(out, "      \"achieved_gbps\": {:.6},", m.achieved_gbps);
            let _ = writeln!(out, "      \"lane_agrees_with_scalar\": {},", m.lane_agrees);
            out.push_str("      \"modeled\": [\n");
            for (j, c) in m.ceilings.iter().enumerate() {
                let comma = if j + 1 < m.ceilings.len() { "," } else { "" };
                let _ = writeln!(
                    out,
                    "        {{\"platform\": \"{}\", \"attainable_gflops\": {:.6}, \
                     \"memory_bound\": {}, \"achieved_fraction\": {:.6}}}{comma}",
                    c.platform, c.attainable_gflops, c.memory_bound, c.achieved_fraction
                );
            }
            out.push_str("      ]\n");
            let comma = if i + 1 < self.measurements.len() { "," } else { "" };
            let _ = writeln!(out, "    }}{comma}");
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Structurally validates a `BENCH_roofline.json` document using the
/// m7-trace JSON reader: schema tag, non-empty kernel list, every
/// required field present with the right type, all numbers finite and
/// non-negative, and both CPU presets modeled per kernel.
///
/// Returns the number of kernel entries.
///
/// # Errors
///
/// Returns a description of the first structural violation found.
pub fn validate_roofline_json(json: &str) -> Result<usize, String> {
    let doc = m7_trace::parse_json(json)?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing string field \"schema\"".to_string())?;
    if schema != ROOFLINE_SCHEMA {
        return Err(format!("unexpected schema {schema:?}, wanted {ROOFLINE_SCHEMA:?}"));
    }
    doc.get("quick")
        .and_then(Json::as_bool)
        .ok_or_else(|| "missing boolean field \"quick\"".to_string())?;
    let kernels = doc
        .get("kernels")
        .and_then(Json::as_arr)
        .ok_or_else(|| "missing array field \"kernels\"".to_string())?;
    if kernels.is_empty() {
        return Err("\"kernels\" must be non-empty".into());
    }
    for (i, k) in kernels.iter().enumerate() {
        let at = |msg: &str| format!("kernel {i}: {msg}");
        for field in ["kernel", "family"] {
            k.get(field)
                .and_then(Json::as_str)
                .ok_or_else(|| at(&format!("missing string field {field:?}")))?;
        }
        for field in [
            "batch",
            "ops",
            "bytes",
            "intensity_ops_per_byte",
            "lane_seconds",
            "scalar_seconds",
            "speedup",
            "achieved_gflops",
            "achieved_gbps",
        ] {
            let v = k
                .get(field)
                .and_then(Json::as_num)
                .ok_or_else(|| at(&format!("missing numeric field {field:?}")))?;
            if !v.is_finite() || v < 0.0 {
                return Err(at(&format!("{field:?} must be finite and non-negative, got {v}")));
            }
        }
        k.get("lane_agrees_with_scalar")
            .and_then(Json::as_bool)
            .ok_or_else(|| at("missing boolean field \"lane_agrees_with_scalar\""))?;
        let modeled = k
            .get("modeled")
            .and_then(Json::as_arr)
            .ok_or_else(|| at("missing array field \"modeled\""))?;
        let mut platforms: Vec<&str> =
            modeled.iter().filter_map(|c| c.get("platform").and_then(Json::as_str)).collect();
        platforms.sort_unstable();
        if platforms != ["cpu-scalar", "cpu-simd"] {
            return Err(at(&format!(
                "modeled presets must be cpu-scalar+cpu-simd, got {platforms:?}"
            )));
        }
        for c in modeled {
            let v = c
                .get("attainable_gflops")
                .and_then(Json::as_num)
                .ok_or_else(|| at("ceiling missing \"attainable_gflops\""))?;
            if !v.is_finite() || v <= 0.0 {
                return Err(at("\"attainable_gflops\" must be positive"));
            }
            c.get("memory_bound")
                .and_then(Json::as_bool)
                .ok_or_else(|| at("ceiling missing \"memory_bound\""))?;
            c.get("achieved_fraction")
                .and_then(Json::as_num)
                .ok_or_else(|| at("ceiling missing \"achieved_fraction\""))?;
        }
    }
    Ok(kernels.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_runs_and_agrees() {
        let suite = run_suite(true);
        assert_eq!(suite.measurements.len(), 4, "one case per kernel in quick mode");
        assert!(suite.all_lanes_agree(), "lane kernels must match their scalar references");
        for m in &suite.measurements {
            assert!(m.ops > 0.0 && m.bytes > 0.0 && m.intensity > 0.0);
            assert!(m.lane_seconds > 0.0 && m.scalar_seconds > 0.0);
            assert_eq!(m.ceilings.len(), 2);
        }
        let text = suite.text_report();
        assert!(text.contains("measured vs modeled roofline"));
        assert!(text.contains("bit-identical"));
    }

    #[test]
    fn timer_runs_warm_up_plus_whole_power_of_two_samples() {
        for samples in [1, 3] {
            let mut calls = 0u64;
            let per_call = time_best(samples, || calls += 1);
            // One warm-up call, the doubling samples 1 + 2 + ... + n/2,
            // then `samples` samples of n calls each: n * (samples + 1).
            let n = calls / (samples as u64 + 1);
            assert_eq!(calls % (samples as u64 + 1), 0, "{calls} calls for {samples} samples");
            assert!(n.is_power_of_two(), "{n} calls per sample");
            assert!(per_call.is_finite() && per_call >= 0.0, "{per_call} s per call");
        }
    }

    #[test]
    fn json_round_trips_through_validator() {
        let suite = run_suite(true);
        let json = suite.to_json();
        let kernels = validate_roofline_json(&json).expect("emitted JSON must validate");
        assert_eq!(kernels, suite.measurements.len());
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_roofline_json("[]").is_err(), "wrong top-level shape");
        assert!(validate_roofline_json("{\"schema\": \"bogus\"}").is_err(), "wrong schema");
        let missing = format!("{{\"schema\": \"{ROOFLINE_SCHEMA}\", \"quick\": false}}");
        assert!(validate_roofline_json(&missing).is_err(), "missing kernels array");
        let empty =
            format!("{{\"schema\": \"{ROOFLINE_SCHEMA}\", \"quick\": false, \"kernels\": []}}");
        assert!(validate_roofline_json(&empty).is_err(), "empty kernels array");
    }
}
