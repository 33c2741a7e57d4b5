//! The roofline performance model: attainable throughput as the minimum of
//! the compute roof and the bandwidth-scaled arithmetic intensity.

use m7_units::{BytesPerSecond, OpsPerByte, OpsPerSecond};

/// A roofline: peak compute throughput plus peak memory bandwidth.
///
/// # Examples
///
/// ```
/// use m7_arch::Roofline;
/// use m7_units::{BytesPerSecond, OpsPerByte, OpsPerSecond};
///
/// let roof = Roofline::new(
///     OpsPerSecond::from_teraops(1.0),
///     BytesPerSecond::from_gigabytes_per_second(100.0),
/// );
/// // At the ridge point the two roofs meet.
/// let ridge = roof.ridge_point();
/// let at_ridge = roof.attainable(ridge);
/// assert!((at_ridge.as_teraops() - 1.0).abs() < 1e-9);
/// // Far below the ridge the kernel is bandwidth-bound.
/// let low = roof.attainable(OpsPerByte::new(0.1));
/// assert!(low < at_ridge);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roofline {
    peak: OpsPerSecond,
    bandwidth: BytesPerSecond,
}

impl Roofline {
    /// Creates a roofline from peak throughput and bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if either peak is non-positive or non-finite.
    #[must_use]
    pub fn new(peak: OpsPerSecond, bandwidth: BytesPerSecond) -> Self {
        assert!(peak.value() > 0.0 && peak.is_finite(), "peak must be positive");
        assert!(bandwidth.value() > 0.0 && bandwidth.is_finite(), "bandwidth must be positive");
        Self { peak, bandwidth }
    }

    /// Peak compute throughput.
    #[must_use]
    pub fn peak(self) -> OpsPerSecond {
        self.peak
    }

    /// Peak memory bandwidth.
    #[must_use]
    pub fn bandwidth(self) -> BytesPerSecond {
        self.bandwidth
    }

    /// Attainable throughput at the given arithmetic intensity:
    /// `min(peak, bandwidth × intensity)`.
    #[must_use]
    pub fn attainable(self, intensity: OpsPerByte) -> OpsPerSecond {
        let bw_bound = OpsPerSecond::new(self.bandwidth.value() * intensity.value());
        bw_bound.min(self.peak)
    }

    /// The arithmetic intensity at which compute and bandwidth roofs meet.
    #[must_use]
    pub fn ridge_point(self) -> OpsPerByte {
        OpsPerByte::new(self.peak.value() / self.bandwidth.value())
    }

    /// Returns `true` if a kernel of the given intensity is bandwidth-bound
    /// on this roofline.
    #[must_use]
    pub fn is_memory_bound(self, intensity: OpsPerByte) -> bool {
        intensity < self.ridge_point()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roof() -> Roofline {
        Roofline::new(
            OpsPerSecond::from_gigaops(500.0),
            BytesPerSecond::from_gigabytes_per_second(50.0),
        )
    }

    #[test]
    fn ridge_point_value() {
        assert!((roof().ridge_point().value() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn memory_bound_below_ridge() {
        let r = roof();
        assert!(r.is_memory_bound(OpsPerByte::new(1.0)));
        assert!(!r.is_memory_bound(OpsPerByte::new(100.0)));
    }

    #[test]
    fn attainable_is_capped_by_peak() {
        let r = roof();
        assert_eq!(r.attainable(OpsPerByte::new(1e9)), r.peak());
    }

    #[test]
    fn attainable_scales_with_intensity_when_bound() {
        let r = roof();
        let a = r.attainable(OpsPerByte::new(1.0));
        let b = r.attainable(OpsPerByte::new(2.0));
        assert!((b.value() / a.value() - 2.0).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn prop_attainable_never_exceeds_either_roof(intensity in 0.001..1e6f64) {
            let r = roof();
            let got = r.attainable(OpsPerByte::new(intensity));
            prop_assert!(got <= r.peak());
            prop_assert!(got.value() <= r.bandwidth().value() * intensity + 1e-6);
        }

        #[test]
        fn prop_attainable_monotone(a in 0.001..1e5f64, b in 0.001..1e5f64) {
            let r = roof();
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            prop_assert!(r.attainable(OpsPerByte::new(lo)) <= r.attainable(OpsPerByte::new(hi)));
        }
    }
}
