//! E6 — Challenge 5, "Chips and Salsa": software (and programmable
//! hardware) can transform motion planning before any ASIC is taped out.
//!
//! Two parts:
//!
//! 1. **Measured.** The PRM roadmap-construction phase is run twice on the
//!    same world and seed — once through the conventional one-edge-at-a-time
//!    trait-object checker, once through the batched structure-of-arrays
//!    checker — and the wall-clock ratio is reported. This is the same
//!    algorithmic transformation (layout + batching) behind the paper's
//!    cited up-to-500× software speedups.
//! 2. **Modeled.** The same collision workload is projected across the
//!    platform presets (scalar CPU → ASIC) with the `m7-arch` cost models.
//!
//! The build-time comparison supports two [`Timing`] modes. `Measured`
//! (the library default) reads the host wall clock, so its numbers vary
//! run to run. `Modeled` derives both build times from the `m7-arch` cost
//! models instead — fully deterministic in the seed, which is what the
//! parallel experiment runner and the determinism tests need to produce
//! byte-identical reports.

use crate::report::{fmt_f64, Report, Table};
use m7_arch::platform::{Platform, PlatformKind};
use m7_arch::workload::{KernelFamily, KernelProfile};
use m7_kernels::{CollisionWorld, Prm, PrmConfig, Vec2};
use m7_units::{Bytes, Ops};
use std::time::Instant;

/// How the E6 build-time comparison obtains its numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timing {
    /// Wall-clock `Instant` measurements on the host (nondeterministic).
    Measured,
    /// Deterministic projections from the `m7-arch` cost models.
    Modeled,
}

/// The E6 result.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PlatformsResult {
    /// Where the build times came from.
    pub timing: Timing,
    /// Scalar PRM build time (ms).
    pub scalar_ms: f64,
    /// Batched PRM build time (ms).
    pub batched_ms: f64,
    /// Software speedup (scalar / batched).
    pub measured_speedup: f64,
    /// Candidate edges validated per build.
    pub edge_checks: usize,
    /// Modeled `(platform, speedup-over-scalar)` for the batch workload.
    pub modeled: Vec<(String, f64)>,
}

impl PlatformsResult {
    /// Renders the report.
    #[must_use]
    pub(crate) fn report(&self) -> Report {
        let mut report = Report::new("E6 — chips and salsa: acceleration beyond ASICs (§2.5)");
        let label = match self.timing {
            Timing::Measured => "measured",
            Timing::Modeled => "cost-modeled",
        };
        let mut t = Table::new(
            format!("{label}: PRM roadmap construction (same world, same seed)"),
            vec!["checker", "build time [ms]", "speedup"],
        );
        t.push_row(vec![
            "scalar trait-object".to_string(),
            fmt_f64(self.scalar_ms),
            "1.00".to_string(),
        ]);
        t.push_row(vec![
            "batched SoA".to_string(),
            fmt_f64(self.batched_ms),
            fmt_f64(self.measured_speedup),
        ]);
        report.push_table(t);

        let mut m = Table::new(
            "modeled: batched collision workload across platforms",
            vec!["platform", "speedup over cpu-scalar"],
        );
        for (name, speedup) in &self.modeled {
            m.push_row(vec![name.clone(), fmt_f64(*speedup)]);
        }
        report.push_table(m);
        let basis = match self.timing {
            Timing::Measured => "on this host",
            Timing::Modeled => "under the cost model",
        };
        report.push_note(format!(
            "a pure software transformation already buys {:.1}x {basis}; the modeled \
             ladder shows SIMD/GPU/FPGA each capture most of the remaining headroom \
             before an ASIC is justified",
            self.measured_speedup
        ));
        report
    }
}

/// Runs E6: a cluttered 60×60 m warehouse with a dense roadmap.
///
/// The batched side is [`Prm::build_batched`]: the structure-of-arrays
/// checker on one thread, so [`Timing::Measured`] compares data layout
/// and batching alone, not thread count. With [`Timing::Modeled`] the
/// whole result is a pure function of `seed`.
#[must_use]
pub(crate) fn run_with(seed: u64, timing: Timing) -> PlatformsResult {
    let mut world = CollisionWorld::new(60.0, 60.0);
    world.scatter_circles(160, 0.4, 1.6, seed);
    world.add_rect(Vec2::new(20.0, 0.0), Vec2::new(22.0, 40.0));
    world.add_rect(Vec2::new(40.0, 20.0), Vec2::new(42.0, 60.0));
    let config = PrmConfig { samples: 1500, connection_radius: 3.0, max_neighbors: 14 };

    let (scalar_ms, batched_ms, edge_checks) = match timing {
        Timing::Measured => {
            // Warm-up both paths once (allocator, caches), then measure.
            let _ = Prm::build(&world, PrmConfig { samples: 100, ..config }, seed);
            let _ = Prm::build_batched(&world, PrmConfig { samples: 100, ..config }, seed);

            let t0 = Instant::now();
            let scalar = Prm::build(&world, config, seed);
            let scalar_ms = t0.elapsed().as_secs_f64() * 1e3;

            let t1 = Instant::now();
            let batched = Prm::build_batched(&world, config, seed);
            let batched_ms = t1.elapsed().as_secs_f64() * 1e3;
            (scalar_ms, batched_ms, scalar.edge_checks().max(batched.edge_checks()))
        }
        Timing::Modeled => {
            // One real build supplies the workload size; both build times
            // come from the cost models, so the numbers are deterministic.
            let batched = Prm::build_batched(&world, config, seed);
            let edge_checks = batched.edge_checks();
            let cpu = Platform::preset(PlatformKind::CpuScalar);
            let batch_profile = KernelProfile::collision_batch(edge_checks, world.len());
            // The conventional path point-checks interpolated states every
            // 5 cm along each candidate edge (mean length ~2/3 of the
            // connection radius), scanning the whole obstacle list through
            // virtual dispatch each time: ~8 flops per pair plus a
            // pointer-chase of the boxed obstacle per test.
            let steps = (config.connection_radius * (2.0 / 3.0) / 0.05).ceil();
            let pairs = edge_checks as f64 * steps * world.len() as f64;
            let scalar_profile = KernelProfile::new(
                format!("collision-scalar-{edge_checks}x{}", world.len()),
                KernelFamily::CollisionGeometry,
                Ops::new(8.0 * pairs),
                Bytes::new(48.0 * pairs),
                0.95,
            );
            (
                cpu.estimate(&scalar_profile).latency.value() * 1e3,
                cpu.estimate(&batch_profile).latency.value() * 1e3,
                edge_checks,
            )
        }
    };

    let workload = KernelProfile::collision_batch(edge_checks, world.len());
    let scalar_platform = Platform::preset(PlatformKind::CpuScalar);
    let base = scalar_platform.estimate(&workload).latency;
    let modeled = [
        PlatformKind::CpuScalar,
        PlatformKind::CpuSimd,
        PlatformKind::Gpu,
        PlatformKind::Fpga,
        PlatformKind::Asic,
    ]
    .iter()
    .map(|&kind| {
        let p = Platform::preset(kind);
        (p.name().to_string(), base / p.estimate(&workload).latency)
    })
    .collect();

    PlatformsResult {
        timing,
        scalar_ms,
        batched_ms,
        measured_speedup: scalar_ms / batched_ms,
        edge_checks,
        modeled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs E6 with wall-clock timing.
    #[must_use]
    fn run(seed: u64) -> PlatformsResult {
        run_with(seed, Timing::Measured)
    }

    #[test]
    fn batched_build_is_faster() {
        let r = run(4);
        assert!(
            r.measured_speedup > 1.2,
            "batched SoA should beat trait-object dispatch: {:.2}x",
            r.measured_speedup
        );
    }

    #[test]
    fn modeled_ladder_is_ordered() {
        let r = run(4);
        let speedup = |name: &str| {
            r.modeled.iter().find(|(n, _)| n == name).map(|&(_, s)| s).expect("platform in table")
        };
        assert!((speedup("cpu-scalar") - 1.0).abs() < 1e-9);
        assert!(speedup("cpu-simd") > 3.0);
        assert!(speedup("gpu-embedded") > speedup("cpu-simd"));
        assert!(speedup("asic") >= speedup("gpu-embedded"));
    }

    #[test]
    fn edge_checks_are_substantial() {
        let r = run(4);
        assert!(r.edge_checks > 5_000, "workload should be non-trivial: {}", r.edge_checks);
    }

    #[test]
    fn report_contains_both_tables() {
        let text = run(4).report().to_string();
        assert!(text.contains("measured"));
        assert!(text.contains("modeled"));
    }

    #[test]
    fn modeled_timing_is_deterministic() {
        let a = run_with(4, Timing::Modeled);
        let b = run_with(4, Timing::Modeled);
        assert_eq!(a, b);
        assert_eq!(a.report().to_string(), b.report().to_string());
        assert!(
            a.measured_speedup > 5.0,
            "the modeled batching win should be large: {:.1}x",
            a.measured_speedup
        );
    }
}
