//! Spatial quantities: [`Meters`], [`MetersPerSecond`],
//! and silicon die area [`SquareMillimeters`].

use crate::time::Seconds;

quantity! {
    /// A distance in meters.
    ///
    /// # Examples
    ///
    /// ```
    /// use m7_units::{Meters, MetersPerSecond, Seconds};
    ///
    /// let leg = Meters::new(120.0);
    /// let speed: MetersPerSecond = leg / Seconds::new(60.0);
    /// assert_eq!(speed, MetersPerSecond::new(2.0));
    /// ```
    Meters, "m"
}

quantity! {
    /// A speed in meters per second.
    ///
    /// # Examples
    ///
    /// ```
    /// use m7_units::{Meters, MetersPerSecond, Seconds};
    ///
    /// let covered: Meters = MetersPerSecond::new(3.0) * Seconds::new(4.0);
    /// assert_eq!(covered, Meters::new(12.0));
    /// ```
    MetersPerSecond, "m/s"
}

quantity! {
    /// Silicon die area in square millimeters.
    ///
    /// # Examples
    ///
    /// ```
    /// use m7_units::SquareMillimeters;
    ///
    /// let die = SquareMillimeters::new(100.0);
    /// let with_margin = die * 1.5;
    /// assert_eq!(with_margin, SquareMillimeters::new(150.0));
    /// ```
    SquareMillimeters, "mm^2"
}

relate!(Meters, Seconds, MetersPerSecond);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinematic_relations() {
        let v: MetersPerSecond = Meters::new(10.0) / Seconds::new(2.0);
        assert_eq!(v, MetersPerSecond::new(5.0));
        let d: Meters = v * Seconds::new(3.0);
        assert_eq!(d, Meters::new(15.0));
    }

    #[test]
    fn area_scaling() {
        let a = SquareMillimeters::new(50.0);
        assert_eq!(a * 2.0, SquareMillimeters::new(100.0));
        assert_eq!(a / 2.0, SquareMillimeters::new(25.0));
    }
}
