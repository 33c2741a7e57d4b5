//! Cost estimates produced by platform models.

use m7_units::{Joules, OpsPerSecond, Seconds, Watts};

/// Which roof limited the kernel on the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Limited by peak arithmetic throughput.
    Compute,
    /// Limited by memory bandwidth.
    Memory,
    /// Limited by the non-parallelizable fraction (Amdahl).
    Serial,
    /// Limited by dispatch/launch overhead.
    Overhead,
}

impl core::fmt::Display for Bound {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Self::Compute => "compute-bound",
            Self::Memory => "memory-bound",
            Self::Serial => "serial-bound",
            Self::Overhead => "overhead-bound",
        };
        f.write_str(s)
    }
}

/// The modeled cost of one kernel invocation on one platform.
///
/// # Examples
///
/// ```
/// use m7_arch::platform::{Platform, PlatformKind};
/// use m7_arch::workload::KernelProfile;
///
/// let cpu = Platform::preset(PlatformKind::CpuScalar);
/// let cost = cpu.estimate(&KernelProfile::gemv(512, 512));
/// assert!(cost.latency.value() > 0.0);
/// assert!(cost.energy.value() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Wall-clock latency of the invocation.
    pub latency: Seconds,
    /// Energy drawn during the invocation.
    pub energy: Joules,
    /// Achieved throughput (`ops / latency`).
    pub achieved: OpsPerSecond,
    /// Average power during the invocation.
    pub power: Watts,
    /// The limiting roof.
    pub bound: Bound,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_display() {
        assert_eq!(Bound::Memory.to_string(), "memory-bound");
        assert_eq!(Bound::Overhead.to_string(), "overhead-bound");
    }
}
