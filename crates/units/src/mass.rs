//! Mass quantities: [`Grams`] and [`Kilograms`].
//!
//! Mass matters to autonomous systems: every gram of compute hardware on a
//! UAV costs hover power (see the E5 experiment in `m7-suite`).

quantity! {
    /// A mass in grams.
    ///
    /// # Examples
    ///
    /// ```
    /// use m7_units::{Grams, Kilograms};
    ///
    /// let board = Grams::new(250.0);
    /// assert_eq!(board.to_kilograms(), Kilograms::new(0.25));
    /// ```
    Grams, "g"
}

quantity! {
    /// A mass in kilograms.
    ///
    /// # Examples
    ///
    /// ```
    /// use m7_units::{Grams, Kilograms};
    ///
    /// let airframe = Kilograms::new(1.2);
    /// assert_eq!(Grams::from(airframe), Grams::new(1200.0));
    /// ```
    Kilograms, "kg"
}

impl Grams {
    /// This mass expressed in kilograms.
    #[inline]
    #[must_use]
    pub fn to_kilograms(self) -> Kilograms {
        Kilograms::new(self.value() / 1e3)
    }
}

impl Kilograms {
    /// This mass expressed in grams.
    #[inline]
    #[must_use]
    pub(crate) fn to_grams(self) -> Grams {
        Grams::new(self.value() * 1e3)
    }
}

impl From<Grams> for Kilograms {
    #[inline]
    fn from(g: Grams) -> Self {
        g.to_kilograms()
    }
}

impl From<Kilograms> for Grams {
    #[inline]
    fn from(kg: Kilograms) -> Self {
        kg.to_grams()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let g = Grams::new(750.0);
        let kg: Kilograms = g.into();
        assert_eq!(kg, Kilograms::new(0.75));
        let back: Grams = kg.into();
        assert_eq!(back, g);
    }

    #[test]
    fn accumulation() {
        let total: Grams = [Grams::new(100.0), Grams::new(50.5)].iter().sum();
        assert_eq!(total, Grams::new(150.5));
    }
}
