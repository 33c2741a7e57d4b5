//! Dynamic voltage and frequency scaling: operating points trading
//! throughput for power on the classic `P ∝ f·V²` (≈ cubic in frequency)
//! curve.
//!
//! DVFS is the knob that lets one piece of silicon sit at several points
//! of the energy/latency trade space — the cheapest way to "pump the
//! brakes" (Challenge 4) without taping out new hardware.

use crate::platform::Platform;
use crate::roofline::Roofline;
use m7_units::{OpsPerSecond, Watts};

/// One voltage/frequency operating point, relative to the nominal point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Frequency as a fraction of nominal, in `(0, 1.2]`.
    pub frequency_scale: f64,
    /// Supply voltage as a fraction of nominal.
    pub voltage_scale: f64,
}

impl OperatingPoint {
    /// The nominal point.
    pub const NOMINAL: Self = Self { frequency_scale: 1.0, voltage_scale: 1.0 };

    /// A standard ladder of points from a deep-sleep-adjacent crawl to a
    /// mild overdrive: voltage tracks frequency with the usual guard band.
    #[must_use]
    pub fn ladder() -> Vec<Self> {
        [0.25, 0.5, 0.75, 1.0, 1.2]
            .into_iter()
            .map(|f| Self { frequency_scale: f, voltage_scale: 0.6 + 0.4 * f })
            .collect()
    }

    /// Dynamic-power multiplier at this point: `f · V²`.
    #[must_use]
    pub(crate) fn power_scale(self) -> f64 {
        self.frequency_scale * self.voltage_scale * self.voltage_scale
    }
}

/// Applies an operating point to a platform: compute throughput and the
/// serial rate scale with frequency; active power scales with `f·V²`
/// (idle power and memory bandwidth are left untouched — bandwidth is set
/// by the memory system, not the core clock).
///
/// # Panics
///
/// Panics if the frequency scale is not in `(0, 1.2]`.
///
/// # Examples
///
/// ```
/// use m7_arch::dvfs::{scaled_platform, OperatingPoint};
/// use m7_arch::platform::{Platform, PlatformKind};
/// use m7_arch::workload::KernelProfile;
///
/// let nominal = Platform::preset(PlatformKind::CpuSimd);
/// let half = scaled_platform(&nominal, OperatingPoint { frequency_scale: 0.5, voltage_scale: 0.8 });
/// let k = KernelProfile::gemm(128);
/// let fast = nominal.estimate(&k);
/// let slow = half.estimate(&k);
/// assert!(slow.latency > fast.latency);
/// assert!(slow.energy < fast.energy, "lower V² wins on energy");
/// ```
#[must_use]
pub fn scaled_platform(platform: &Platform, point: OperatingPoint) -> Platform {
    assert!(
        point.frequency_scale > 0.0 && point.frequency_scale <= 1.2,
        "frequency scale must be in (0, 1.2]"
    );
    let roofline = platform.roofline();
    let peak = OpsPerSecond::new(roofline.peak().value() * point.frequency_scale);
    Platform::builder(platform.kind())
        .name(format!("{}@{:.0}%", platform.name(), point.frequency_scale * 100.0))
        .roofline(Roofline::new(peak, roofline.bandwidth()))
        .serial_rate(OpsPerSecond::new(platform.serial_rate().value() * point.frequency_scale))
        .dispatch_overhead(platform.dispatch_overhead())
        .power(
            Watts::new(platform.active_power().value() * point.power_scale()),
            platform.idle_power(),
        )
        .mass(platform.mass())
        .die_area(platform.die_area())
        .unit_cost_usd(platform.unit_cost_usd())
        .specialization(platform.specialization().clone())
        .build()
}

/// Sweeps the standard ladder over a platform and returns
/// `(operating point, platform)` pairs — the input for a latency/energy
/// Pareto analysis.
#[must_use]
pub fn ladder_sweep(platform: &Platform) -> Vec<(OperatingPoint, Platform)> {
    OperatingPoint::ladder().into_iter().map(|p| (p, scaled_platform(platform, p))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformKind;
    use crate::workload::KernelProfile;

    #[test]
    fn power_scale_is_cubic_ish() {
        let half = OperatingPoint { frequency_scale: 0.5, voltage_scale: 0.8 };
        assert!((half.power_scale() - 0.5 * 0.64).abs() < 1e-12);
        assert_eq!(OperatingPoint::NOMINAL.power_scale(), 1.0);
    }

    #[test]
    fn ladder_is_monotone_in_power() {
        let ladder = OperatingPoint::ladder();
        for w in ladder.windows(2) {
            assert!(w[0].power_scale() < w[1].power_scale());
        }
    }

    #[test]
    fn downclocking_trades_latency_for_energy() {
        let nominal = Platform::preset(PlatformKind::Gpu);
        // A compute-bound kernel so frequency matters.
        let kernel = KernelProfile::gemm(512);
        let base = nominal.estimate(&kernel);
        let slow =
            scaled_platform(&nominal, OperatingPoint { frequency_scale: 0.5, voltage_scale: 0.8 })
                .estimate(&kernel);
        assert!(slow.latency > base.latency);
        assert!(slow.energy < base.energy);
    }

    #[test]
    fn memory_bound_kernels_barely_slow_down() {
        let nominal = Platform::preset(PlatformKind::CpuSimd);
        let kernel = KernelProfile::gemv(2048, 2048); // memory-bound
        let base = nominal.estimate(&kernel).latency;
        let slow =
            scaled_platform(&nominal, OperatingPoint { frequency_scale: 0.75, voltage_scale: 0.9 })
                .estimate(&kernel)
                .latency;
        // Bandwidth unchanged, so the slowdown is far less than 1/0.75.
        assert!(slow.value() / base.value() < 1.15, "{} vs {}", slow, base);
    }

    #[test]
    fn ladder_sweep_covers_all_points() {
        let sweep = ladder_sweep(&Platform::preset(PlatformKind::Asic));
        assert_eq!(sweep.len(), 5);
        // Latency decreases along the ladder for a compute-bound kernel.
        let kernel = KernelProfile::gemm(256);
        let lats: Vec<f64> =
            sweep.iter().map(|(_, p)| p.estimate(&kernel).latency.value()).collect();
        for w in lats.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "frequency scale")]
    fn rejects_zero_frequency() {
        let _ = scaled_platform(
            &Platform::preset(PlatformKind::Asic),
            OperatingPoint { frequency_scale: 0.0, voltage_scale: 0.5 },
        );
    }
}
