//! Energy and power quantities: [`Joules`] and [`Watts`].

use crate::time::Seconds;

quantity! {
    /// An amount of energy in joules.
    ///
    /// # Examples
    ///
    /// ```
    /// use m7_units::{Joules, Seconds, Watts};
    ///
    /// let battery = Joules::from_watt_hours(50.0);
    /// let draw = Watts::new(100.0);
    /// let endurance: Seconds = battery / draw;
    /// assert!((endurance - Seconds::from_hours(0.5)).value().abs() < 1e-9);
    /// ```
    Joules, "J"
}

quantity! {
    /// Power in watts.
    ///
    /// # Examples
    ///
    /// ```
    /// use m7_units::{Joules, Seconds, Watts};
    ///
    /// let energy: Joules = Watts::new(5.0) * Seconds::new(10.0);
    /// assert_eq!(energy, Joules::new(50.0));
    /// ```
    Watts, "W"
}

relate!(Joules, Seconds, Watts);

impl Joules {
    /// Creates an energy from watt-hours (1 Wh = 3600 J).
    #[inline]
    #[must_use]
    pub fn from_watt_hours(wh: f64) -> Self {
        Self::new(wh * 3600.0)
    }

    /// Creates an energy from kilowatt-hours.
    #[inline]
    #[must_use]
    pub fn from_kilowatt_hours(kwh: f64) -> Self {
        Self::from_watt_hours(kwh * 1e3)
    }

    /// The energy expressed in watt-hours.
    #[inline]
    #[must_use]
    pub(crate) fn as_watt_hours(self) -> f64 {
        self.value() / 3600.0
    }

    /// The energy expressed in kilowatt-hours.
    #[inline]
    #[must_use]
    pub(crate) fn as_kilowatt_hours(self) -> f64 {
        self.as_watt_hours() / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watt_hours_round_trip() {
        let e = Joules::from_watt_hours(25.0);
        assert!((e.as_watt_hours() - 25.0).abs() < 1e-9);
        assert!((Joules::from_kilowatt_hours(1.0).value() - 3.6e6).abs() < 1e-6);
    }

    #[test]
    fn power_energy_time_relations() {
        let p: Watts = Joules::new(100.0) / Seconds::new(20.0);
        assert_eq!(p, Watts::new(5.0));
        let t: Seconds = Joules::new(100.0) / Watts::new(5.0);
        assert_eq!(t, Seconds::new(20.0));
        let e: Joules = Watts::new(5.0) * Seconds::new(20.0);
        assert_eq!(e, Joules::new(100.0));
        let e2: Joules = Seconds::new(20.0) * Watts::new(5.0);
        assert_eq!(e2, e);
    }
}
