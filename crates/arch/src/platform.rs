//! Compute platform models: CPUs, GPUs, FPGAs, and ASICs with analytic
//! latency/energy/area cost estimation.
//!
//! These models substitute for the silicon prototypes the paper's cited
//! works fabricated: they preserve the *relative ordering* and the
//! mechanism (roofline limits, Amdahl serial fractions, dispatch overheads,
//! specialization cliffs) rather than absolute nanoseconds.

use crate::cost::{Bound, CostEstimate};
use crate::roofline::Roofline;
use crate::workload::{KernelFamily, KernelProfile};
use m7_units::{
    Bytes, BytesPerSecond, Grams, Joules, OpsPerSecond, Seconds, SquareMillimeters, Watts,
};

/// The broad platform classes of the paper's Challenge 5 ("Chips and
/// Salsa"): software on CPUs, programmable GPUs/FPGAs, and fixed-function
/// ASICs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlatformKind {
    /// Scalar CPU core (no SIMD), the conventional-software baseline.
    CpuScalar,
    /// Vectorized CPU (SIMD lanes + cache blocking).
    CpuSimd,
    /// Embedded GPU (Jetson-class).
    Gpu,
    /// Mid-size FPGA fabric.
    Fpga,
    /// Fixed-function ASIC.
    Asic,
}

impl core::fmt::Display for PlatformKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Self::CpuScalar => "cpu-scalar",
            Self::CpuSimd => "cpu-simd",
            Self::Gpu => "gpu",
            Self::Fpga => "fpga",
            Self::Asic => "asic",
        };
        f.write_str(s)
    }
}

/// How specialized a platform is, and to what.
#[derive(Debug, Clone, PartialEq)]
pub enum Specialization {
    /// Runs any kernel at full modeled throughput.
    GeneralPurpose,
    /// Accelerates one or more kernel *families* (cross-cutting design);
    /// anything else falls back to a slow host path.
    Families {
        /// Families that run at full throughput.
        families: Vec<KernelFamily>,
        /// Fraction of peak available to non-matching kernels (host
        /// fallback).
        fallback: f64,
    },
    /// A "widget": hardwired to kernels whose name starts with a prefix.
    Widget {
        /// Exact kernel-name prefix the datapath was synthesized for.
        name_prefix: String,
        /// Family of the widget datapath (partially reusable).
        family: KernelFamily,
        /// Fraction of peak for same-family kernels with a different shape.
        family_fraction: f64,
        /// Fraction of peak for everything else (host fallback).
        fallback: f64,
    },
}

/// An analytic model of one compute platform.
///
/// Latency model per kernel:
/// `t = overhead + serial_ops / serial_rate + parallel_ops / attainable`,
/// where `attainable` is the roofline throughput at the kernel's arithmetic
/// intensity, scaled by the specialization match factor.
///
/// # Examples
///
/// ```
/// use m7_arch::platform::{Platform, PlatformKind};
/// use m7_arch::workload::KernelProfile;
///
/// let simd = Platform::preset(PlatformKind::CpuSimd);
/// let scalar = Platform::preset(PlatformKind::CpuScalar);
/// let k = KernelProfile::collision_batch(4096, 64);
/// let fast = simd.estimate(&k);
/// let slow = scalar.estimate(&k);
/// assert!(fast.latency < slow.latency);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    name: String,
    kind: PlatformKind,
    roofline: Roofline,
    /// Throughput of the non-parallelizable fraction.
    serial_rate: OpsPerSecond,
    /// Fixed dispatch/launch overhead per kernel invocation.
    dispatch_overhead: Seconds,
    /// Power while executing.
    active_power: Watts,
    /// Power while idle.
    idle_power: Watts,
    /// Board mass contributed to the vehicle.
    mass: Grams,
    /// Silicon die area.
    die_area: SquareMillimeters,
    /// Unit cost in dollars.
    unit_cost_usd: f64,
    specialization: Specialization,
}

impl Platform {
    /// A representative preset for each platform kind.
    ///
    /// Numbers are order-of-magnitude representative of 2024-era embedded
    /// parts; they are inputs to a relative model, not datasheet claims.
    #[must_use]
    pub fn preset(kind: PlatformKind) -> Self {
        match kind {
            PlatformKind::CpuScalar => Self {
                name: "cpu-scalar".into(),
                kind,
                roofline: Roofline::new(
                    OpsPerSecond::from_gigaops(2.0),
                    BytesPerSecond::from_gigabytes_per_second(10.0),
                ),
                serial_rate: OpsPerSecond::from_gigaops(2.0),
                dispatch_overhead: Seconds::ZERO,
                active_power: Watts::new(12.0),
                idle_power: Watts::new(2.0),
                mass: Grams::new(60.0),
                die_area: SquareMillimeters::new(80.0),
                unit_cost_usd: 60.0,
                specialization: Specialization::GeneralPurpose,
            },
            PlatformKind::CpuSimd => Self {
                name: "cpu-simd".into(),
                kind,
                roofline: Roofline::new(
                    OpsPerSecond::from_gigaops(60.0),
                    BytesPerSecond::from_gigabytes_per_second(40.0),
                ),
                serial_rate: OpsPerSecond::from_gigaops(2.5),
                dispatch_overhead: Seconds::ZERO,
                active_power: Watts::new(20.0),
                idle_power: Watts::new(3.0),
                mass: Grams::new(60.0),
                die_area: SquareMillimeters::new(120.0),
                unit_cost_usd: 150.0,
                specialization: Specialization::GeneralPurpose,
            },
            PlatformKind::Gpu => Self {
                name: "gpu-embedded".into(),
                kind,
                roofline: Roofline::new(
                    OpsPerSecond::from_teraops(2.0),
                    BytesPerSecond::from_gigabytes_per_second(200.0),
                ),
                serial_rate: OpsPerSecond::from_gigaops(1.0),
                dispatch_overhead: Seconds::from_micros(30.0),
                active_power: Watts::new(30.0),
                idle_power: Watts::new(5.0),
                mass: Grams::new(280.0),
                die_area: SquareMillimeters::new(350.0),
                unit_cost_usd: 500.0,
                specialization: Specialization::GeneralPurpose,
            },
            PlatformKind::Fpga => Self {
                name: "fpga-midrange".into(),
                kind,
                roofline: Roofline::new(
                    OpsPerSecond::from_gigaops(600.0),
                    BytesPerSecond::from_gigabytes_per_second(60.0),
                ),
                serial_rate: OpsPerSecond::from_gigaops(1.0),
                dispatch_overhead: Seconds::from_micros(5.0),
                active_power: Watts::new(15.0),
                idle_power: Watts::new(4.0),
                mass: Grams::new(150.0),
                die_area: SquareMillimeters::new(400.0),
                unit_cost_usd: 400.0,
                specialization: Specialization::GeneralPurpose,
            },
            PlatformKind::Asic => Self {
                name: "asic".into(),
                kind,
                roofline: Roofline::new(
                    OpsPerSecond::from_teraops(4.0),
                    BytesPerSecond::from_gigabytes_per_second(120.0),
                ),
                serial_rate: OpsPerSecond::from_gigaops(1.5),
                dispatch_overhead: Seconds::from_micros(2.0),
                active_power: Watts::new(5.0),
                idle_power: Watts::new(0.5),
                mass: Grams::new(30.0),
                die_area: SquareMillimeters::new(60.0),
                unit_cost_usd: 35.0,
                specialization: Specialization::GeneralPurpose,
            },
        }
    }

    /// Starts a builder from a preset, for customized platforms.
    #[must_use]
    pub fn builder(kind: PlatformKind) -> PlatformBuilder {
        PlatformBuilder { platform: Self::preset(kind) }
    }

    /// Platform name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Platform class.
    #[must_use]
    pub fn kind(&self) -> PlatformKind {
        self.kind
    }

    /// The platform roofline.
    #[must_use]
    pub fn roofline(&self) -> Roofline {
        self.roofline
    }

    /// Throughput of the non-parallelizable fraction.
    #[must_use]
    pub(crate) fn serial_rate(&self) -> OpsPerSecond {
        self.serial_rate
    }

    /// Fixed dispatch/launch overhead per kernel invocation.
    #[must_use]
    pub(crate) fn dispatch_overhead(&self) -> Seconds {
        self.dispatch_overhead
    }

    /// Board mass.
    #[must_use]
    pub fn mass(&self) -> Grams {
        self.mass
    }

    /// Power while executing.
    #[must_use]
    pub fn active_power(&self) -> Watts {
        self.active_power
    }

    /// Power while idle.
    #[must_use]
    pub(crate) fn idle_power(&self) -> Watts {
        self.idle_power
    }

    /// Silicon die area.
    #[must_use]
    pub fn die_area(&self) -> SquareMillimeters {
        self.die_area
    }

    /// Unit cost in dollars.
    #[must_use]
    pub fn unit_cost_usd(&self) -> f64 {
        self.unit_cost_usd
    }

    /// The specialization policy.
    #[must_use]
    pub fn specialization(&self) -> &Specialization {
        &self.specialization
    }

    /// The fraction of peak throughput available to `profile` under this
    /// platform's specialization (1.0 for a perfect match).
    #[must_use]
    pub fn match_factor(&self, profile: &KernelProfile) -> f64 {
        match &self.specialization {
            Specialization::GeneralPurpose => 1.0,
            Specialization::Families { families, fallback } => {
                if families.contains(&profile.family()) {
                    1.0
                } else {
                    *fallback
                }
            }
            Specialization::Widget { name_prefix, family, family_fraction, fallback } => {
                if profile.name().starts_with(name_prefix.as_str()) {
                    1.0
                } else if profile.family() == *family {
                    *family_fraction
                } else {
                    *fallback
                }
            }
        }
    }

    /// Estimates the cost of one invocation of `profile`.
    #[must_use]
    pub fn estimate(&self, profile: &KernelProfile) -> CostEstimate {
        let factor = self.match_factor(profile);
        let ops = profile.ops();
        let serial_ops = ops * (1.0 - profile.parallel_fraction());
        let parallel_ops = ops * profile.parallel_fraction();

        let attainable = OpsPerSecond::new(
            self.roofline.attainable(profile.arithmetic_intensity()).value() * factor,
        );
        let t_overhead = self.dispatch_overhead;
        let t_serial =
            if serial_ops.value() > 0.0 { serial_ops / self.serial_rate } else { Seconds::ZERO };
        let t_parallel =
            if parallel_ops.value() > 0.0 { parallel_ops / attainable } else { Seconds::ZERO };
        let latency = t_overhead + t_serial + t_parallel;

        let bound = {
            let memory_limited = self.roofline.is_memory_bound(profile.arithmetic_intensity());
            let mut best = (t_overhead, Bound::Overhead);
            if t_serial > best.0 {
                best = (t_serial, Bound::Serial);
            }
            if t_parallel > best.0 {
                best = (t_parallel, if memory_limited { Bound::Memory } else { Bound::Compute });
            }
            best.1
        };

        let energy: Joules = self.active_power * latency;
        let achieved = if latency.value() > 0.0 { ops / latency } else { OpsPerSecond::ZERO };
        CostEstimate { latency, energy, achieved, power: self.active_power, bound }
    }

    /// Estimates the total cost of a pipeline of kernels executed
    /// sequentially.
    #[must_use]
    pub fn estimate_pipeline(&self, profiles: &[KernelProfile]) -> CostEstimate {
        let mut latency = Seconds::ZERO;
        let mut energy = Joules::ZERO;
        let mut total_ops = 0.0;
        let mut bound = Bound::Overhead;
        let mut worst = Seconds::ZERO;
        for p in profiles {
            let c = self.estimate(p);
            latency += c.latency;
            energy += c.energy;
            total_ops += p.ops().value();
            if c.latency > worst {
                worst = c.latency;
                bound = c.bound;
            }
        }
        let achieved = if latency.value() > 0.0 {
            OpsPerSecond::new(total_ops / latency.value())
        } else {
            OpsPerSecond::ZERO
        };
        CostEstimate { latency, energy, achieved, power: self.active_power, bound }
    }

    /// Bytes-per-second of input this platform can absorb for `profile`
    /// when invoked back-to-back (sensor-rate matching, Challenge 4).
    #[must_use]
    pub fn sustainable_input_rate(
        &self,
        profile: &KernelProfile,
        input_bytes: Bytes,
    ) -> BytesPerSecond {
        let per_invocation = self.estimate(profile).latency;
        if per_invocation.value() <= 0.0 {
            return BytesPerSecond::new(f64::INFINITY);
        }
        BytesPerSecond::new(input_bytes.value() / per_invocation.value())
    }
}

/// Builder for customized [`Platform`]s.
///
/// # Examples
///
/// ```
/// use m7_arch::platform::{Platform, PlatformKind, Specialization};
/// use m7_arch::workload::KernelFamily;
///
/// let accel = Platform::builder(PlatformKind::Asic)
///     .name("collision-accel")
///     .specialization(Specialization::Families {
///         families: vec![KernelFamily::CollisionGeometry],
///         fallback: 0.02,
///     })
///     .build();
/// assert_eq!(accel.name(), "collision-accel");
/// ```
#[derive(Debug, Clone)]
pub struct PlatformBuilder {
    platform: Platform,
}

impl PlatformBuilder {
    /// Sets the platform name.
    #[must_use]
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.platform.name = name.into();
        self
    }

    /// Sets the roofline.
    #[must_use]
    pub fn roofline(mut self, roofline: Roofline) -> Self {
        self.platform.roofline = roofline;
        self
    }

    /// Sets the serial-fraction throughput.
    #[must_use]
    pub(crate) fn serial_rate(mut self, rate: OpsPerSecond) -> Self {
        self.platform.serial_rate = rate;
        self
    }

    /// Sets the dispatch overhead.
    #[must_use]
    pub(crate) fn dispatch_overhead(mut self, overhead: Seconds) -> Self {
        self.platform.dispatch_overhead = overhead;
        self
    }

    /// Sets active and idle power.
    #[must_use]
    pub fn power(mut self, active: Watts, idle: Watts) -> Self {
        self.platform.active_power = active;
        self.platform.idle_power = idle;
        self
    }

    /// Sets the board mass.
    #[must_use]
    pub fn mass(mut self, mass: Grams) -> Self {
        self.platform.mass = mass;
        self
    }

    /// Sets the die area.
    #[must_use]
    pub fn die_area(mut self, area: SquareMillimeters) -> Self {
        self.platform.die_area = area;
        self
    }

    /// Sets the unit cost.
    #[must_use]
    pub fn unit_cost_usd(mut self, cost: f64) -> Self {
        self.platform.unit_cost_usd = cost;
        self
    }

    /// Sets the specialization policy.
    #[must_use]
    pub fn specialization(mut self, spec: Specialization) -> Self {
        self.platform.specialization = spec;
        self
    }

    /// Finishes the build.
    #[must_use]
    pub fn build(self) -> Platform {
        self.platform
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_ordering_for_parallel_kernel() {
        // A large parallel collision batch: ASIC ≥ GPU ≥ SIMD ≥ scalar.
        let k = KernelProfile::collision_batch(100_000, 128);
        let lat = |kind| Platform::preset(kind).estimate(&k).latency;
        assert!(lat(PlatformKind::Asic) < lat(PlatformKind::Gpu));
        assert!(lat(PlatformKind::Gpu) < lat(PlatformKind::CpuSimd));
        assert!(lat(PlatformKind::CpuSimd) < lat(PlatformKind::CpuScalar));
    }

    #[test]
    fn serial_kernel_prefers_cpu() {
        // RNEA is mostly serial: the scalar CPU with its fast serial rate
        // beats the GPU despite the GPU's peak.
        let k = KernelProfile::rnea(7);
        let cpu = Platform::preset(PlatformKind::CpuScalar).estimate(&k);
        let gpu = Platform::preset(PlatformKind::Gpu).estimate(&k);
        assert!(cpu.latency < gpu.latency, "Amdahl should favor the CPU");
        assert_eq!(cpu.bound, Bound::Serial);
    }

    #[test]
    fn tiny_kernel_is_overhead_bound_on_gpu() {
        let k = KernelProfile::gemv(8, 8);
        let gpu = Platform::preset(PlatformKind::Gpu).estimate(&k);
        assert_eq!(gpu.bound, Bound::Overhead);
    }

    #[test]
    fn memory_bound_detection() {
        // GEMV streams the whole matrix: memory-bound on wide machines.
        let k = KernelProfile::gemv(2048, 2048);
        let simd = Platform::preset(PlatformKind::CpuSimd).estimate(&k);
        assert_eq!(simd.bound, Bound::Memory);
    }

    #[test]
    fn widget_cliff() {
        let widget = Platform::builder(PlatformKind::Asic)
            .specialization(Specialization::Widget {
                name_prefix: "correlation-".into(),
                family: KernelFamily::GridCorrelation,
                family_fraction: 0.3,
                fallback: 0.02,
            })
            .build();
        let on_target = KernelProfile::correlation_scan(9261, 90);
        let off_target = KernelProfile::collision_batch(10_000, 64);
        assert_eq!(widget.match_factor(&on_target), 1.0);
        assert_eq!(widget.match_factor(&off_target), 0.02);
        // Off-target latency collapses relative to a general-purpose ASIC of
        // the same peak throughput running the same kernel.
        let general = Platform::preset(PlatformKind::Asic);
        let widget_off = widget.estimate(&off_target).latency;
        let general_off = general.estimate(&off_target).latency;
        assert!(
            widget_off > general_off * 1.5,
            "widget off-target {widget_off} vs general {general_off}"
        );
        // And achieved throughput on-target clearly beats off-target.
        let t_on = widget.estimate(&on_target);
        let t_off = widget.estimate(&off_target);
        assert!(t_on.achieved.value() > t_off.achieved.value() * 2.0);
    }

    #[test]
    fn family_accelerator_covers_family() {
        let accel = Platform::builder(PlatformKind::Asic)
            .specialization(Specialization::Families {
                families: vec![KernelFamily::CollisionGeometry, KernelFamily::DenseLinearAlgebra],
                fallback: 0.05,
            })
            .build();
        assert_eq!(accel.match_factor(&KernelProfile::collision_batch(100, 10)), 1.0);
        assert_eq!(accel.match_factor(&KernelProfile::gemm(64)), 1.0);
        assert_eq!(accel.match_factor(&KernelProfile::correlation_scan(100, 10)), 0.05);
    }

    #[test]
    fn pipeline_sums_costs() {
        let cpu = Platform::preset(PlatformKind::CpuSimd);
        let a = KernelProfile::gemv(256, 256);
        let b = KernelProfile::collision_batch(1000, 32);
        let sum = cpu.estimate(&a).latency + cpu.estimate(&b).latency;
        let pipe = cpu.estimate_pipeline(&[a, b]);
        assert!((pipe.latency.value() - sum.value()).abs() < 1e-15);
    }

    #[test]
    fn builder_overrides() {
        let p = Platform::builder(PlatformKind::Fpga)
            .name("custom")
            .mass(Grams::new(99.0))
            .unit_cost_usd(1234.0)
            .build();
        assert_eq!(p.name(), "custom");
        assert_eq!(p.mass(), Grams::new(99.0));
        assert_eq!(p.unit_cost_usd(), 1234.0);
        assert_eq!(p.kind(), PlatformKind::Fpga);
    }

    #[test]
    fn sustainable_input_rate_scales_inversely_with_latency() {
        let k = KernelProfile::feature_extract(640, 480);
        let frame = Bytes::new(640.0 * 480.0);
        let slow = Platform::preset(PlatformKind::CpuScalar).sustainable_input_rate(&k, frame);
        let fast = Platform::preset(PlatformKind::Gpu).sustainable_input_rate(&k, frame);
        assert!(fast.value() > slow.value());
    }

    #[test]
    fn kind_display() {
        assert_eq!(PlatformKind::CpuSimd.to_string(), "cpu-simd");
        assert_eq!(PlatformKind::Asic.to_string(), "asic");
    }
}
