//! Computation quantities: [`Ops`], [`OpsPerSecond`], [`OpsPerJoule`], and
//! arithmetic intensity [`OpsPerByte`].
//!
//! These power the roofline and cost models in `m7-arch`. [`OpsPerJoule`]
//! is the reciprocal view of the marketing metric "TOPS/W" — the paper's
//! Challenge 2 warns against optimizing it in isolation.

use crate::data::Bytes;
use crate::energy::Joules;
use crate::time::Seconds;

quantity! {
    /// A count of arithmetic operations (e.g. FLOPs or MACs).
    ///
    /// # Examples
    ///
    /// ```
    /// use m7_units::Ops;
    ///
    /// // A 256x256 GEMV is ~2*n*m operations.
    /// let gemv = Ops::new(2.0 * 256.0 * 256.0);
    /// assert_eq!(gemv, Ops::new(131072.0));
    /// ```
    Ops, "ops"
}

quantity! {
    /// A compute throughput in operations per second.
    ///
    /// # Examples
    ///
    /// ```
    /// use m7_units::OpsPerSecond;
    ///
    /// let tpu = OpsPerSecond::from_teraops(92.0);
    /// assert_eq!(tpu.as_teraops(), 92.0);
    /// ```
    OpsPerSecond, "ops/s"
}

quantity! {
    /// Energy efficiency in operations per joule.
    ///
    /// `OpsPerJoule::from_tops_per_watt` converts from the "TOPS/W" figure
    /// of merit (numerically identical: 1 TOPS/W = 10¹² ops/J).
    ///
    /// # Examples
    ///
    /// ```
    /// use m7_units::OpsPerJoule;
    ///
    /// let asic = OpsPerJoule::from_tops_per_watt(4.0);
    /// assert_eq!(asic, OpsPerJoule::new(4e12));
    /// ```
    OpsPerJoule, "ops/J"
}

quantity! {
    /// Arithmetic intensity in operations per byte of memory traffic.
    ///
    /// # Examples
    ///
    /// ```
    /// use m7_units::{Bytes, Ops, OpsPerByte};
    ///
    /// let intensity: OpsPerByte = Ops::new(1024.0) / Bytes::new(256.0);
    /// assert_eq!(intensity, OpsPerByte::new(4.0));
    /// ```
    OpsPerByte, "ops/B"
}

relate!(Ops, Seconds, OpsPerSecond);
relate!(Ops, Joules, OpsPerJoule);
relate!(Ops, Bytes, OpsPerByte);

impl OpsPerSecond {
    /// Creates a throughput from giga-operations per second.
    #[inline]
    #[must_use]
    pub fn from_gigaops(gops: f64) -> Self {
        Self::new(gops * 1e9)
    }

    /// Creates a throughput from tera-operations per second.
    #[inline]
    #[must_use]
    pub fn from_teraops(tops: f64) -> Self {
        Self::new(tops * 1e12)
    }

    /// The throughput expressed in tera-operations per second.
    #[inline]
    #[must_use]
    pub fn as_teraops(self) -> f64 {
        self.value() / 1e12
    }
}

impl OpsPerJoule {
    /// Creates an efficiency from the "TOPS/W" figure of merit.
    #[inline]
    #[must_use]
    pub fn from_tops_per_watt(tops_per_watt: f64) -> Self {
        Self::new(tops_per_watt * 1e12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::Watts;

    #[test]
    fn throughput_relations() {
        let t: Seconds = Ops::new(1e9) / OpsPerSecond::from_gigaops(2.0);
        assert!((t.value() - 0.5).abs() < 1e-12);
        let done: Ops = OpsPerSecond::new(100.0) * Seconds::new(3.0);
        assert_eq!(done, Ops::new(300.0));
    }

    #[test]
    fn efficiency_relations() {
        let e: Joules = Ops::new(4e12) / OpsPerJoule::from_tops_per_watt(2.0);
        assert!((e.value() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn tops_per_watt_is_consistent_with_power() {
        // 10 TOPS at 5 W is 2 TOPS/W.
        let throughput = OpsPerSecond::from_teraops(10.0);
        let power = Watts::new(5.0);
        let one_second = Seconds::new(1.0);
        let ops: Ops = throughput * one_second;
        let energy: Joules = power * one_second;
        let eff: OpsPerJoule = ops / energy;
        assert!((eff.value() - 2e12).abs() < 1e-3);
    }

    #[test]
    fn arithmetic_intensity() {
        let ai: OpsPerByte = Ops::new(4096.0) / Bytes::new(1024.0);
        assert_eq!(ai, OpsPerByte::new(4.0));
        let ops: Ops = ai * Bytes::new(10.0);
        assert_eq!(ops, Ops::new(40.0));
    }
}
