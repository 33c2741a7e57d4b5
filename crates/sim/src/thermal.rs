//! A lumped thermal model with throttling — the "power and thermal
//! characteristics" the paper's end-to-end-modeling opportunity (§3.1)
//! says simulators must capture.
//!
//! First-order RC: `C dT/dt = P − (T − T_ambient) / R`. When the junction
//! temperature crosses the throttle point, the platform sheds performance
//! linearly until the critical temperature, where it runs at its floor
//! throughput. Sustained workloads on passively-cooled edge boxes live in
//! exactly this regime.

use m7_units::{Seconds, Watts};

/// Thermal parameters of a compute package.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalConfig {
    /// Ambient temperature (°C).
    pub ambient_c: f64,
    /// Thermal resistance junction→ambient (°C/W).
    pub resistance_c_per_w: f64,
    /// Thermal capacitance (J/°C).
    pub capacitance_j_per_c: f64,
    /// Temperature where throttling begins (°C).
    pub throttle_c: f64,
    /// Temperature of maximum throttling (°C).
    pub critical_c: f64,
    /// Fraction of full performance retained at `critical_c`.
    pub floor_fraction: f64,
}

impl Default for ThermalConfig {
    fn default() -> Self {
        // A passively cooled embedded module.
        Self {
            ambient_c: 25.0,
            resistance_c_per_w: 2.0,
            capacitance_j_per_c: 40.0,
            throttle_c: 85.0,
            critical_c: 105.0,
            floor_fraction: 0.3,
        }
    }
}

/// The lumped thermal state of one package.
///
/// # Examples
///
/// ```
/// use m7_sim::{ThermalConfig, ThermalState};
/// use m7_units::{Seconds, Watts};
///
/// let mut t = ThermalState::new(ThermalConfig::default());
/// // 40 W sustained on a 2 °C/W package heads toward 105 °C and throttles.
/// for _ in 0..600 {
///     t.step(Watts::new(40.0), Seconds::new(1.0));
/// }
/// assert!(t.performance_scale() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalState {
    config: ThermalConfig,
    temperature_c: f64,
    /// Seconds spent throttled so far.
    throttled_time: f64,
}

impl ThermalState {
    /// Creates a package at ambient temperature.
    #[must_use]
    pub fn new(config: ThermalConfig) -> Self {
        Self { config, temperature_c: config.ambient_c, throttled_time: 0.0 }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &ThermalConfig {
        &self.config
    }

    /// Current junction temperature (°C).
    #[must_use]
    pub fn temperature_c(&self) -> f64 {
        self.temperature_c
    }

    /// Cumulative time spent above the throttle point.
    #[must_use]
    pub fn throttled_time(&self) -> Seconds {
        Seconds::new(self.throttled_time)
    }

    /// The performance multiplier at the current temperature: 1.0 below the
    /// throttle point, ramping linearly down to `floor_fraction` at the
    /// critical temperature.
    #[must_use]
    pub fn performance_scale(&self) -> f64 {
        let c = &self.config;
        if self.temperature_c <= c.throttle_c {
            return 1.0;
        }
        if self.temperature_c >= c.critical_c {
            return c.floor_fraction;
        }
        let t = (self.temperature_c - c.throttle_c) / (c.critical_c - c.throttle_c);
        1.0 - t * (1.0 - c.floor_fraction)
    }

    /// Advances the RC model by `dt` under dissipated `power`.
    pub fn step(&mut self, power: Watts, dt: Seconds) {
        let c = &self.config;
        // Sub-step for stability when dt is large relative to RC.
        let tau = c.resistance_c_per_w * c.capacitance_j_per_c;
        let substeps = (dt.value() / (tau * 0.1)).ceil().max(1.0) as usize;
        let h = dt.value() / substeps as f64;
        for _ in 0..substeps {
            let flow_out = (self.temperature_c - c.ambient_c) / c.resistance_c_per_w;
            let dtemp = (power.value() - flow_out) / c.capacitance_j_per_c;
            self.temperature_c += dtemp * h;
            if self.temperature_c > c.throttle_c {
                self.throttled_time += h;
            }
        }
    }

    /// The largest power this package can dissipate indefinitely without
    /// ever throttling.
    #[must_use]
    pub fn sustainable_power(&self) -> Watts {
        Watts::new(
            (self.config.throttle_c - self.config.ambient_c) / self.config.resistance_c_per_w,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cool_package_runs_full_speed() {
        let t = ThermalState::new(ThermalConfig::default());
        assert_eq!(t.performance_scale(), 1.0);
        assert_eq!(t.temperature_c(), 25.0);
    }

    #[test]
    fn converges_to_steady_state() {
        let config = ThermalConfig::default();
        let mut t = ThermalState::new(config);
        let power = Watts::new(20.0);
        for _ in 0..5000 {
            t.step(power, Seconds::new(1.0));
        }
        // Steady state: ambient + P·R = 25 + 40 = 65 °C.
        let expected = config.ambient_c + power.value() * config.resistance_c_per_w;
        assert!((t.temperature_c() - expected).abs() < 0.5, "got {}", t.temperature_c());
        assert_eq!(t.performance_scale(), 1.0, "65 °C is below the throttle point");
    }

    #[test]
    fn sustained_overload_throttles() {
        let mut t = ThermalState::new(ThermalConfig::default());
        for _ in 0..2000 {
            t.step(Watts::new(45.0), Seconds::new(1.0)); // steady state 115 °C
        }
        assert!(t.performance_scale() <= 0.31, "should hit the floor: {}", t.performance_scale());
        assert!(t.throttled_time().value() > 0.0);
    }

    #[test]
    fn throttle_ramp_is_linear() {
        let mut t = ThermalState::new(ThermalConfig::default());
        t.temperature_c = 95.0; // halfway between 85 and 105
        let expected = 1.0 - 0.5 * (1.0 - 0.3);
        assert!((t.performance_scale() - expected).abs() < 1e-12);
    }

    #[test]
    fn sustainable_power_matches_throttle_point() {
        let t = ThermalState::new(ThermalConfig::default());
        assert_eq!(t.sustainable_power(), Watts::new(30.0)); // (85-25)/2
                                                             // Just below it never throttles.
        let mut s = ThermalState::new(ThermalConfig::default());
        for _ in 0..5000 {
            s.step(Watts::new(29.0), Seconds::new(1.0));
        }
        assert_eq!(s.performance_scale(), 1.0);
    }

    #[test]
    fn throttle_has_thermal_hysteresis() {
        // The RC mass makes throttling hysteretic in *time*: performance
        // neither collapses the instant overload power is applied nor
        // recovers the instant it is removed.
        let mut t = ThermalState::new(ThermalConfig::default());
        t.step(Watts::new(45.0), Seconds::new(1.0));
        assert_eq!(t.performance_scale(), 1.0, "one second of overload cannot throttle yet");

        // Soak to the throttled steady state (45 W -> 115 C).
        for _ in 0..2000 {
            t.step(Watts::new(45.0), Seconds::new(1.0));
        }
        let throttled = t.performance_scale();
        assert!(throttled < 1.0);
        let accumulated = t.throttled_time();

        // Dropping to a sustainable power does not restore performance
        // immediately: the package must first bleed stored heat.
        t.step(Watts::new(20.0), Seconds::new(1.0));
        assert!(
            t.performance_scale() < 1.0,
            "still throttled right after the power drop: {}",
            t.performance_scale()
        );
        assert!(t.throttled_time() >= accumulated, "throttled time is monotone");

        // Eventually the 20 W steady state (65 C) clears the throttle.
        let mut recovery_s = 0.0;
        while t.performance_scale() < 1.0 {
            t.step(Watts::new(20.0), Seconds::new(1.0));
            recovery_s += 1.0;
            assert!(recovery_s < 5000.0, "must eventually recover");
        }
        assert!(recovery_s > 5.0, "recovery takes thermal time, got {recovery_s} s");
    }

    #[test]
    fn throttled_time_only_grows_above_throttle_point() {
        let mut t = ThermalState::new(ThermalConfig::default());
        for _ in 0..500 {
            t.step(Watts::new(20.0), Seconds::new(1.0)); // steady 65 C
        }
        assert_eq!(t.throttled_time(), Seconds::ZERO);
    }

    #[test]
    fn cooling_recovers_performance() {
        let mut t = ThermalState::new(ThermalConfig::default());
        for _ in 0..2000 {
            t.step(Watts::new(45.0), Seconds::new(1.0));
        }
        assert!(t.performance_scale() < 1.0);
        for _ in 0..2000 {
            t.step(Watts::new(0.0), Seconds::new(1.0));
        }
        assert_eq!(t.performance_scale(), 1.0, "idle cooling restores full speed");
        assert!((t.temperature_c() - 25.0).abs() < 1.0);
    }
}
