//! A parameterized accelerator generator: from microarchitectural knobs
//! (PE count, clock, SRAM, DRAM interface, precision) to a validated
//! [`Platform`] with analytically scaled throughput, power, area, and
//! cost.
//!
//! This is the handle design-space exploration actually turns in an
//! accelerator study — rather than choosing among presets, the explorer
//! sweeps [`AcceleratorConfig`]s and every derived model (roofline,
//! energy, die area, embodied carbon via `m7-lca`) moves consistently.

use crate::platform::{Platform, PlatformKind, Specialization};
use crate::roofline::Roofline;
use crate::workload::KernelFamily;
use m7_units::{BytesPerSecond, Grams, OpsPerSecond, Seconds, SquareMillimeters, Watts};

/// Microarchitectural parameters of a generated accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorConfig {
    /// Number of processing elements (MAC lanes).
    pub pe_count: usize,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// On-chip SRAM in KiB.
    pub sram_kib: f64,
    /// DRAM interface bandwidth (GB/s).
    pub dram_gbps: f64,
    /// Datapath width in bits (8, 16, or 32).
    pub datapath_bits: u32,
    /// Kernel families the datapath is wired for (empty = general).
    pub families: Vec<KernelFamily>,
}

impl Default for AcceleratorConfig {
    fn default() -> Self {
        Self {
            pe_count: 256,
            clock_ghz: 1.0,
            sram_kib: 512.0,
            dram_gbps: 50.0,
            datapath_bits: 16,
            families: Vec::new(),
        }
    }
}

/// Errors validating an [`AcceleratorConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenerateError {
    /// PE count must be positive.
    NoProcessingElements,
    /// Clock must be in a manufacturable range.
    ClockOutOfRange,
    /// Datapath width must be 8, 16, or 32 bits.
    UnsupportedDatapath(u32),
    /// SRAM or DRAM parameter non-positive.
    BadMemoryParameter,
}

impl core::fmt::Display for GenerateError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::NoProcessingElements => f.write_str("pe_count must be positive"),
            Self::ClockOutOfRange => f.write_str("clock must be within 0.1..3.0 GHz"),
            Self::UnsupportedDatapath(b) => write!(f, "unsupported datapath width {b} bits"),
            Self::BadMemoryParameter => f.write_str("sram and dram parameters must be positive"),
        }
    }
}

impl std::error::Error for GenerateError {}

impl AcceleratorConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), GenerateError> {
        if self.pe_count == 0 {
            return Err(GenerateError::NoProcessingElements);
        }
        if !(0.1..=3.0).contains(&self.clock_ghz) {
            return Err(GenerateError::ClockOutOfRange);
        }
        if ![8, 16, 32].contains(&self.datapath_bits) {
            return Err(GenerateError::UnsupportedDatapath(self.datapath_bits));
        }
        if self.sram_kib <= 0.0 || self.dram_gbps <= 0.0 {
            return Err(GenerateError::BadMemoryParameter);
        }
        Ok(())
    }

    /// Peak throughput: 2 ops (multiply + add) per PE per cycle.
    #[must_use]
    pub fn peak(&self) -> OpsPerSecond {
        OpsPerSecond::new(2.0 * self.pe_count as f64 * self.clock_ghz * 1e9)
    }

    /// Die area model: PEs scale with datapath width, SRAM at ~0.08
    /// mm²/KiB (16 nm-class), plus a fixed NoC/controller floor.
    #[must_use]
    pub fn die_area(&self) -> SquareMillimeters {
        let pe_area = self.pe_count as f64 * 0.002 * (f64::from(self.datapath_bits) / 16.0);
        let sram_area = self.sram_kib * 0.08;
        SquareMillimeters::new(8.0 + pe_area + sram_area)
    }

    /// Active power model: dynamic PE power (scaled by clock² as a proxy
    /// for the voltage needed), SRAM leakage, and DRAM interface power.
    #[must_use]
    pub fn active_power(&self) -> Watts {
        let pe = self.pe_count as f64
            * 0.004
            * self.clock_ghz
            * self.clock_ghz
            * (f64::from(self.datapath_bits) / 16.0);
        let sram = self.sram_kib * 0.0002;
        let dram = self.dram_gbps * 0.03;
        Watts::new(0.3 + pe + sram + dram)
    }

    /// Unit cost model: area-proportional silicon plus packaging.
    #[must_use]
    pub fn unit_cost_usd(&self) -> f64 {
        5.0 + self.die_area().value() * 0.35
    }

    /// Generates the platform model.
    ///
    /// Larger SRAM raises the *effective* bandwidth (more reuse on chip):
    /// `effective = dram × (1 + log2(1 + sram/64 KiB))`, capped at 8×.
    ///
    /// # Errors
    ///
    /// Returns a [`GenerateError`] if the configuration is invalid.
    pub fn generate(&self) -> Result<Platform, GenerateError> {
        self.validate()?;
        let reuse = (1.0 + (1.0 + self.sram_kib / 64.0).log2()).min(8.0);
        let effective_bw = BytesPerSecond::from_gigabytes_per_second(self.dram_gbps * reuse);
        let specialization = if self.families.is_empty() {
            Specialization::GeneralPurpose
        } else {
            Specialization::Families { families: self.families.clone(), fallback: 0.02 }
        };
        Ok(Platform::builder(PlatformKind::Asic)
            .name(format!(
                "gen-{}pe-{}mhz-{}kib",
                self.pe_count,
                (self.clock_ghz * 1000.0) as u64,
                self.sram_kib as u64
            ))
            .roofline(Roofline::new(self.peak(), effective_bw))
            .serial_rate(OpsPerSecond::from_gigaops(1.5))
            .dispatch_overhead(Seconds::from_micros(2.0))
            .power(self.active_power(), Watts::new(self.active_power().value() * 0.1))
            .mass(Grams::new(15.0 + self.die_area().value() * 0.2))
            .die_area(self.die_area())
            .unit_cost_usd(self.unit_cost_usd())
            .specialization(specialization)
            .build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::KernelProfile;

    #[test]
    fn default_config_generates() {
        let p = AcceleratorConfig::default().generate().unwrap();
        assert!(p.name().starts_with("gen-256pe"));
        // 256 PEs × 2 × 1 GHz = 512 GOPS.
        assert!((p.roofline().peak().value() - 512e9).abs() < 1e-3);
        assert!(p.die_area().value() > 8.0);
        assert!(p.active_power().value() > 0.3);
    }

    #[test]
    fn more_pes_more_throughput_more_power_more_area() {
        let small = AcceleratorConfig { pe_count: 64, ..AcceleratorConfig::default() };
        let large = AcceleratorConfig { pe_count: 1024, ..AcceleratorConfig::default() };
        assert!(large.peak() > small.peak());
        assert!(large.active_power() > small.active_power());
        assert!(large.die_area() > small.die_area());
        assert!(large.unit_cost_usd() > small.unit_cost_usd());
    }

    #[test]
    fn sram_buys_effective_bandwidth() {
        let thin = AcceleratorConfig { sram_kib: 32.0, ..AcceleratorConfig::default() }
            .generate()
            .unwrap();
        let fat = AcceleratorConfig { sram_kib: 4096.0, ..AcceleratorConfig::default() }
            .generate()
            .unwrap();
        assert!(fat.roofline().bandwidth() > thin.roofline().bandwidth());
        // A memory-bound kernel gets faster with the bigger SRAM.
        let k = KernelProfile::gemv(2048, 2048);
        assert!(fat.estimate(&k).latency < thin.estimate(&k).latency);
    }

    #[test]
    fn narrower_datapath_is_cheaper() {
        let int8 = AcceleratorConfig { datapath_bits: 8, ..AcceleratorConfig::default() };
        let fp32 = AcceleratorConfig { datapath_bits: 32, ..AcceleratorConfig::default() };
        assert!(int8.die_area() < fp32.die_area());
        assert!(int8.active_power() < fp32.active_power());
    }

    #[test]
    fn specialized_generation_carries_families() {
        let cfg = AcceleratorConfig {
            families: vec![KernelFamily::CollisionGeometry],
            ..AcceleratorConfig::default()
        };
        let p = cfg.generate().unwrap();
        assert_eq!(p.match_factor(&KernelProfile::collision_batch(100, 10)), 1.0);
        assert_eq!(p.match_factor(&KernelProfile::gemm(64)), 0.02);
    }

    #[test]
    fn validation_catches_each_constraint() {
        let bad = AcceleratorConfig { pe_count: 0, ..AcceleratorConfig::default() };
        assert_eq!(bad.validate(), Err(GenerateError::NoProcessingElements));
        let bad = AcceleratorConfig { clock_ghz: 5.0, ..AcceleratorConfig::default() };
        assert_eq!(bad.validate(), Err(GenerateError::ClockOutOfRange));
        let bad = AcceleratorConfig { datapath_bits: 12, ..AcceleratorConfig::default() };
        assert_eq!(bad.validate(), Err(GenerateError::UnsupportedDatapath(12)));
        let bad = AcceleratorConfig { dram_gbps: 0.0, ..AcceleratorConfig::default() };
        assert_eq!(bad.validate(), Err(GenerateError::BadMemoryParameter));
        assert!(AcceleratorConfig::default().validate().is_ok());
    }

    #[test]
    fn error_messages_name_the_knob() {
        assert!(GenerateError::UnsupportedDatapath(12).to_string().contains("12"));
        assert!(GenerateError::ClockOutOfRange.to_string().contains("GHz"));
    }
}
