//! Battery and vehicle power models.
//!
//! The hover-power model is the physical coupling behind experiment E5:
//! every gram of compute hardware raises the power needed just to stay
//! airborne, so over-provisioned compute shortens missions even before it
//! draws its first computational watt.

use m7_units::{Grams, Joules, Seconds, Watts};

/// An energy store with draw tracking.
///
/// # Examples
///
/// ```
/// use m7_sim::Battery;
/// use m7_units::{Joules, Seconds, Watts};
///
/// let mut b = Battery::new(Joules::from_watt_hours(50.0));
/// b.draw(Watts::new(100.0), Seconds::new(60.0));
/// assert!(b.remaining() < b.capacity());
/// assert!(!b.is_empty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Battery {
    capacity: Joules,
    used: Joules,
}

impl Battery {
    /// Creates a full battery of the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is non-positive or non-finite.
    #[must_use]
    pub fn new(capacity: Joules) -> Self {
        assert!(capacity.value() > 0.0 && capacity.is_finite(), "capacity must be positive");
        Self { capacity, used: Joules::ZERO }
    }

    /// Total capacity.
    #[must_use]
    pub fn capacity(&self) -> Joules {
        self.capacity
    }

    /// Energy drawn so far.
    #[must_use]
    pub fn used(&self) -> Joules {
        self.used
    }

    /// Energy remaining (never negative).
    #[must_use]
    pub fn remaining(&self) -> Joules {
        (self.capacity - self.used).max(Joules::ZERO)
    }

    /// State of charge in `[0, 1]`.
    #[must_use]
    pub(crate) fn state_of_charge(&self) -> f64 {
        (self.remaining() / self.capacity).clamp(0.0, 1.0)
    }

    /// Returns `true` once the battery is exhausted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.used >= self.capacity
    }

    /// Draws `power` for `dt`. Returns `true` if the battery still has
    /// charge afterwards.
    pub fn draw(&mut self, power: Watts, dt: Seconds) -> bool {
        self.used += power * dt;
        !self.is_empty()
    }
}

/// Multirotor hover power from momentum theory:
/// `P = (m g)^{3/2} / sqrt(2 ρ A) / η`.
#[must_use]
pub(crate) fn hover_power(total_mass: Grams, rotor_disk_area_m2: f64) -> Watts {
    const G: f64 = 9.81;
    const AIR_DENSITY: f64 = 1.225;
    /// Electromechanical efficiency of the propulsion chain.
    const EFFICIENCY: f64 = 0.6;
    let kg = total_mass.to_kilograms().value();
    let thrust = kg * G;
    let ideal = thrust.powf(1.5) / (2.0 * AIR_DENSITY * rotor_disk_area_m2).sqrt();
    Watts::new(ideal / EFFICIENCY)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_depletes() {
        let mut b = Battery::new(Joules::new(100.0));
        assert!(b.draw(Watts::new(10.0), Seconds::new(5.0)));
        assert_eq!(b.remaining(), Joules::new(50.0));
        assert!((b.state_of_charge() - 0.5).abs() < 1e-12);
        assert!(!b.draw(Watts::new(10.0), Seconds::new(5.0)));
        assert!(b.is_empty());
        assert_eq!(b.remaining(), Joules::ZERO);
    }

    #[test]
    fn overdraw_clamps_remaining() {
        let mut b = Battery::new(Joules::new(10.0));
        b.draw(Watts::new(100.0), Seconds::new(1.0));
        assert_eq!(b.remaining(), Joules::ZERO);
        assert_eq!(b.state_of_charge(), 0.0);
        assert_eq!(b.used(), Joules::new(100.0));
    }

    #[test]
    fn discharge_is_monotone() {
        // Remaining charge never recovers and used energy never shrinks,
        // no matter the draw pattern.
        let mut b = Battery::new(Joules::new(500.0));
        let powers = [5.0, 0.0, 80.0, 1.0, 40.0, 0.0, 120.0];
        let mut last_remaining = b.remaining();
        let mut last_used = b.used();
        let mut last_soc = b.state_of_charge();
        for (i, &p) in powers.iter().cycle().take(70).enumerate() {
            b.draw(Watts::new(p), Seconds::new(0.5 + (i % 3) as f64));
            assert!(b.remaining() <= last_remaining, "remaining must not recover");
            assert!(b.used() >= last_used, "used must not shrink");
            assert!(b.state_of_charge() <= last_soc, "SoC must not recover");
            last_remaining = b.remaining();
            last_used = b.used();
            last_soc = b.state_of_charge();
        }
        assert!(b.is_empty(), "70 draws at these powers exhaust 500 J");
        assert_eq!(b.remaining(), Joules::ZERO);
    }

    #[test]
    fn zero_power_draw_changes_nothing() {
        let mut b = Battery::new(Joules::new(100.0));
        assert!(b.draw(Watts::new(0.0), Seconds::new(1e6)));
        assert_eq!(b.remaining(), b.capacity());
        assert_eq!(b.state_of_charge(), 1.0);
    }

    #[test]
    fn hover_power_increases_superlinearly() {
        let p1 = hover_power(Grams::new(1500.0), 0.25);
        let p2 = hover_power(Grams::new(3000.0), 0.25);
        assert!(p2.value() > 2.0 * p1.value(), "power grows faster than mass");
    }

    #[test]
    fn hover_power_is_plausible() {
        // A 1.5 kg quad with 0.25 m² disk area hovers around 100-200 W.
        let p = hover_power(Grams::new(1500.0), 0.25);
        assert!(p.value() > 50.0 && p.value() < 300.0, "got {p}");
    }

    #[test]
    fn bigger_rotors_hover_cheaper() {
        let small = hover_power(Grams::new(2000.0), 0.1);
        let large = hover_power(Grams::new(2000.0), 0.5);
        assert!(large < small);
    }
}
