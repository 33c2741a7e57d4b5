//! Data-volume quantities: [`Bytes`] and [`BytesPerSecond`].

use crate::time::Seconds;

quantity! {
    /// An amount of data in bytes.
    ///
    /// # Examples
    ///
    /// ```
    /// use m7_units::Bytes;
    ///
    /// let frame = Bytes::from_mebibytes(2.0);
    /// assert_eq!(frame, Bytes::new(2.0 * 1024.0 * 1024.0));
    /// ```
    Bytes, "B"
}

quantity! {
    /// A data rate in bytes per second.
    ///
    /// # Examples
    ///
    /// ```
    /// use m7_units::{Bytes, BytesPerSecond, Seconds};
    ///
    /// let link = BytesPerSecond::from_gigabytes_per_second(10.0);
    /// let transfer: Seconds = Bytes::new(5e9) / link;
    /// assert!((transfer.value() - 0.5).abs() < 1e-12);
    /// ```
    BytesPerSecond, "B/s"
}

relate!(Bytes, Seconds, BytesPerSecond);

impl Bytes {
    /// Creates a data amount from mebibytes (1024² B).
    #[inline]
    #[must_use]
    pub fn from_mebibytes(mib: f64) -> Self {
        Self::new(mib * 1024.0 * 1024.0)
    }
}

impl BytesPerSecond {
    /// Creates a rate from decimal gigabytes per second.
    #[inline]
    #[must_use]
    pub fn from_gigabytes_per_second(gbps: f64) -> Self {
        Self::new(gbps * 1e9)
    }

    /// The rate expressed in decimal gigabytes per second.
    #[inline]
    #[must_use]
    pub fn as_gigabytes_per_second(self) -> f64 {
        self.value() / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors() {
        assert_eq!(Bytes::from_mebibytes(1.0), Bytes::new(1048576.0));
    }

    #[test]
    fn transfer_time() {
        let t: Seconds = Bytes::new(1e9) / BytesPerSecond::from_gigabytes_per_second(4.0);
        assert!((t.value() - 0.25).abs() < 1e-12);
        let moved: Bytes = BytesPerSecond::new(100.0) * Seconds::new(2.0);
        assert_eq!(moved, Bytes::new(200.0));
    }
}
