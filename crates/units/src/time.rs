//! Time and rate quantities: [`Seconds`] and [`Hertz`].

quantity! {
    /// A duration in seconds.
    ///
    /// # Examples
    ///
    /// ```
    /// use m7_units::Seconds;
    ///
    /// let frame = Seconds::from_millis(33.0);
    /// assert!((frame.value() - 0.033).abs() < 1e-12);
    /// ```
    Seconds, "s"
}

quantity! {
    /// A rate in hertz (events per second).
    ///
    /// # Examples
    ///
    /// ```
    /// use m7_units::Hertz;
    ///
    /// let camera = Hertz::new(30.0);
    /// assert!((camera.period().value() - 1.0 / 30.0).abs() < 1e-12);
    /// ```
    Hertz, "Hz"
}

impl Seconds {
    /// Creates a duration from milliseconds.
    #[inline]
    #[must_use]
    pub fn from_millis(ms: f64) -> Self {
        Self::new(ms / 1e3)
    }

    /// Creates a duration from microseconds.
    #[inline]
    #[must_use]
    pub fn from_micros(us: f64) -> Self {
        Self::new(us / 1e6)
    }

    /// Creates a duration from hours.
    #[inline]
    #[must_use]
    pub fn from_hours(h: f64) -> Self {
        Self::new(h * 3600.0)
    }

    /// The duration expressed in milliseconds.
    #[inline]
    #[must_use]
    pub fn as_millis(self) -> f64 {
        self.value() * 1e3
    }

    /// The rate whose period is this duration.
    ///
    /// Returns an infinite rate for a zero duration.
    #[inline]
    #[must_use]
    pub fn rate(self) -> Hertz {
        Hertz::new(1.0 / self.value())
    }
}

impl Hertz {
    /// The period of one event at this rate.
    ///
    /// Returns an infinite period for a zero rate.
    #[inline]
    #[must_use]
    pub fn period(self) -> Seconds {
        Seconds::new(1.0 / self.value())
    }
}

impl From<core::time::Duration> for Seconds {
    #[inline]
    fn from(d: core::time::Duration) -> Self {
        Self::new(d.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_round_trips() {
        let s = Seconds::from_millis(250.0);
        assert!((s.as_millis() - 250.0).abs() < 1e-9);
        assert!((Seconds::from_hours(2.0).value() - 7200.0).abs() < 1e-9);
    }

    #[test]
    fn period_rate_inverse() {
        let f = Hertz::new(100.0);
        let back = f.period().rate();
        assert!((back.value() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let a = Seconds::new(1.5);
        let b = Seconds::new(0.5);
        assert_eq!(a + b, Seconds::new(2.0));
        assert_eq!(a - b, Seconds::new(1.0));
        assert_eq!(a * 2.0, Seconds::new(3.0));
        assert_eq!(a / b, 3.0);
        let total: Seconds = [a, b, b].iter().sum();
        assert_eq!(total, Seconds::new(2.5));
    }

    #[test]
    fn display_includes_symbol() {
        assert_eq!(format!("{:.1}", Seconds::new(1.25)), "1.2 s");
        assert_eq!(format!("{}", Hertz::new(30.0)), "30 Hz");
    }

    #[test]
    fn from_std_duration() {
        let s: Seconds = core::time::Duration::from_millis(1500).into();
        assert!((s.value() - 1.5).abs() < 1e-12);
    }
}
