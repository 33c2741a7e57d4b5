//! Per-node placement: which silicon a node runs on, at what DVFS
//! point, and on which shared memory bus.
//!
//! A [`Placement`] binds a graph node to an `m7-arch` [`Platform`] —
//! either a preset or a platform parsed from the spec DSL — plus an
//! optional [`OperatingPoint`] (DVFS) and an optional *site*. Nodes
//! that share a site contend for that site's bus: at seal time the
//! graph computes each node's sustained memory demand and stretches
//! its service time by the max-min-fair
//! [`SharedBus`](m7_arch::SharedBus) slowdown factor.

use m7_arch::dvfs::{scaled_platform, OperatingPoint};
use m7_arch::platform::{Platform, PlatformKind};
use m7_arch::{parse_platform, ParseSpecError};

/// Where (and how fast) a node runs.
///
/// # Examples
///
/// ```
/// use m7_arch::dvfs::OperatingPoint;
/// use m7_arch::platform::PlatformKind;
/// use m7_flow::Placement;
///
/// let p = Placement::preset(PlatformKind::Gpu)
///     .with_point(OperatingPoint { frequency_scale: 0.5, voltage_scale: 0.8 })
///     .at_site("soc0");
/// assert_eq!(p.site(), Some("soc0"));
/// assert!(p.effective_platform().name().contains("50%"));
/// ```
#[derive(Debug, Clone)]
pub struct Placement {
    platform: Platform,
    point: OperatingPoint,
    site: Option<String>,
}

impl Placement {
    /// Places on an explicit platform at the nominal operating point.
    #[must_use]
    pub fn new(platform: Platform) -> Self {
        Self { platform, point: OperatingPoint::NOMINAL, site: None }
    }

    /// Places on a built-in platform preset.
    #[must_use]
    pub fn preset(kind: PlatformKind) -> Self {
        Self::new(Platform::preset(kind))
    }

    /// Places on a platform described in the `m7-arch` spec DSL.
    ///
    /// # Errors
    ///
    /// Returns the DSL parse error verbatim.
    pub fn from_spec(text: &str) -> Result<Self, ParseSpecError> {
        Ok(Self::new(parse_platform(text)?))
    }

    /// Sets the DVFS operating point.
    #[must_use]
    pub fn with_point(mut self, point: OperatingPoint) -> Self {
        self.point = point;
        self
    }

    /// Assigns the node to a shared bus site declared via
    /// [`GraphBuilder::shared_site`](crate::GraphBuilder::shared_site).
    #[must_use]
    pub fn at_site(mut self, site: impl Into<String>) -> Self {
        self.site = Some(site.into());
        self
    }

    /// The nominal platform.
    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The DVFS operating point.
    #[must_use]
    pub fn point(&self) -> OperatingPoint {
        self.point
    }

    /// The shared-site name, if any.
    #[must_use]
    pub fn site(&self) -> Option<&str> {
        self.site.as_deref()
    }

    /// The platform with the operating point applied (frequency scales
    /// compute and the serial rate; `f·V²` scales active power;
    /// bandwidth is untouched).
    #[must_use]
    pub fn effective_platform(&self) -> Platform {
        if self.point == OperatingPoint::NOMINAL {
            self.platform.clone()
        } else {
            scaled_platform(&self.platform, self.point)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m7_arch::workload::KernelProfile;

    #[test]
    fn preset_at_nominal_is_the_preset() {
        let p = Placement::preset(PlatformKind::CpuSimd);
        let k = KernelProfile::gemm(128);
        assert_eq!(
            p.effective_platform().estimate(&k).latency,
            Platform::preset(PlatformKind::CpuSimd).estimate(&k).latency
        );
        assert_eq!(p.site(), None);
    }

    #[test]
    fn downclocked_placement_is_slower() {
        let k = KernelProfile::gemm(256);
        let nominal = Placement::preset(PlatformKind::Gpu);
        let slow = Placement::preset(PlatformKind::Gpu)
            .with_point(OperatingPoint { frequency_scale: 0.5, voltage_scale: 0.8 });
        assert!(
            slow.effective_platform().estimate(&k).latency
                > nominal.effective_platform().estimate(&k).latency
        );
    }

    #[test]
    fn spec_dsl_placements_parse() {
        let p = Placement::from_spec("kind = asic\nname = planner-asic\npeak_tops = 4.0")
            .expect("valid spec");
        assert_eq!(p.platform().name(), "planner-asic");
        assert!(Placement::from_spec("kind = warp-drive").is_err());
    }
}
