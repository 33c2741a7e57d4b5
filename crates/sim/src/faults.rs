//! Fault injection: sensor, compute, power, and transport faults
//! scheduled against mission time, plus a deterministic Monte-Carlo
//! schedule sampler for robustness campaigns.
//!
//! Real deployments — the paper's "real-world effects like reliability and
//! robustness" (Challenge 6) — lose sensors to glare and dust, lose
//! compute to thermal or power events, and lose messages between pipeline
//! stages. The fault schedule lets every closed-loop simulation in this
//! crate be rerun under degradation, so robustness becomes a measurable
//! design output. [`FaultProfile`] turns per-minute hazard rates into
//! seeded schedules for [`crate::CampaignRunner`].

use m7_units::Seconds;
use rand::{Rng, SeedableRng};

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// The primary exteroceptive sensor produces nothing.
    SensorDropout {
        /// Fault onset (mission time).
        start: Seconds,
        /// Fault duration.
        duration: Seconds,
    },
    /// The sensor keeps publishing the *last* frame — stale data that an
    /// unmonitored consumer cannot distinguish from fresh readings.
    SensorStuck {
        /// Fault onset (mission time).
        start: Seconds,
        /// Fault duration.
        duration: Seconds,
    },
    /// The sensor reads consistently off by a fixed margin (mis-calibration
    /// after a shock, thermal drift), eating into the usable sensing range.
    SensorBias {
        /// Fault onset (mission time).
        start: Seconds,
        /// Fault duration.
        duration: Seconds,
        /// Range error magnitude (meters of sensing range lost).
        bias_m: f64,
    },
    /// Compute runs degraded (thermal throttle, power cap).
    ComputeBrownout {
        /// Fault onset (mission time).
        start: Seconds,
        /// Fault duration.
        duration: Seconds,
        /// Latency multiplier while active (> 1).
        slowdown: f64,
    },
    /// A transient compute fault (bit flip, watchdog trip) that kills the
    /// autonomy stack at one instant; the vehicle must restart it before
    /// resuming. Recovery cost is decided by the consumer's
    /// [`crate::DegradationPolicy`].
    ComputeCrash {
        /// The instant the stack dies (mission time).
        at: Seconds,
    },
    /// Battery voltage sag (cold cells, aging pack): the pack delivers
    /// energy at reduced efficiency while active.
    BatterySag {
        /// Fault onset (mission time).
        start: Seconds,
        /// Fault duration.
        duration: Seconds,
        /// Delivery efficiency while active, in `(0, 1]`.
        efficiency: f64,
    },
    /// Inter-stage messages (sensor → compute → actuation) drop with the
    /// given probability while active — the transport fault consumed by
    /// [`crate::pipeline::Pipeline::simulate_with_faults`] and, as an
    /// effective-latency tax, by the closed-loop vehicles.
    MessageDrop {
        /// Fault onset (mission time).
        start: Seconds,
        /// Fault duration.
        duration: Seconds,
        /// Per-message drop probability while active, in `[0, 1)`.
        drop_rate: f64,
    },
}

impl Fault {
    /// The `[start, end)` window of the fault. Point events
    /// ([`Fault::ComputeCrash`]) have a zero-length window.
    #[must_use]
    pub fn interval(&self) -> (Seconds, Seconds) {
        match *self {
            Fault::SensorDropout { start, duration }
            | Fault::SensorStuck { start, duration }
            | Fault::SensorBias { start, duration, .. }
            | Fault::ComputeBrownout { start, duration, .. }
            | Fault::BatterySag { start, duration, .. }
            | Fault::MessageDrop { start, duration, .. } => (start, start + duration),
            Fault::ComputeCrash { at } => (at, at),
        }
    }

    /// Returns `true` if the fault is active at mission time `t`
    /// (half-open window; point events are never "active").
    #[must_use]
    pub fn active_at(&self, t: Seconds) -> bool {
        let (s, e) = self.interval();
        t >= s && t < e
    }
}

/// Per-minute hazard rates and severity parameters for sampling random
/// fault schedules. All rates are Poisson arrivals; durations are
/// exponential with the given means.
///
/// # Examples
///
/// ```
/// use m7_sim::{FaultProfile, FaultSchedule};
/// use m7_units::Seconds;
///
/// let schedule = FaultSchedule::sample(&FaultProfile::harsh(), Seconds::new(120.0), 7);
/// // Same seed, same schedule — campaigns are reproducible.
/// assert_eq!(schedule, FaultSchedule::sample(&FaultProfile::harsh(), Seconds::new(120.0), 7));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Sensor dropouts per minute.
    pub dropout_per_min: f64,
    /// Mean dropout duration (s).
    pub dropout_mean_s: f64,
    /// Stuck-sensor events per minute.
    pub stuck_per_min: f64,
    /// Mean stuck duration (s).
    pub stuck_mean_s: f64,
    /// Sensor-bias episodes per minute.
    pub bias_per_min: f64,
    /// Mean bias duration (s).
    pub bias_mean_s: f64,
    /// Bias magnitude (meters of sensing range lost).
    pub bias_m: f64,
    /// Compute brownouts per minute.
    pub brownout_per_min: f64,
    /// Mean brownout duration (s).
    pub brownout_mean_s: f64,
    /// Brownout latency multiplier (> 1).
    pub brownout_slowdown: f64,
    /// Transient compute crashes per minute.
    pub crash_per_min: f64,
    /// Battery-sag episodes per minute.
    pub sag_per_min: f64,
    /// Mean sag duration (s).
    pub sag_mean_s: f64,
    /// Delivery efficiency during sag, in `(0, 1]`.
    pub sag_efficiency: f64,
    /// Message-drop windows per minute.
    pub msg_drop_per_min: f64,
    /// Mean drop-window duration (s).
    pub msg_drop_mean_s: f64,
    /// Per-message drop probability inside a window, `[0, 1)`.
    pub msg_drop_rate: f64,
}

impl FaultProfile {
    /// No faults at all — the nominal environment.
    #[must_use]
    pub fn none() -> Self {
        Self {
            dropout_per_min: 0.0,
            dropout_mean_s: 0.0,
            stuck_per_min: 0.0,
            stuck_mean_s: 0.0,
            bias_per_min: 0.0,
            bias_mean_s: 0.0,
            bias_m: 0.0,
            brownout_per_min: 0.0,
            brownout_mean_s: 0.0,
            brownout_slowdown: 1.0,
            crash_per_min: 0.0,
            sag_per_min: 0.0,
            sag_mean_s: 0.0,
            sag_efficiency: 1.0,
            msg_drop_per_min: 0.0,
            msg_drop_mean_s: 0.0,
            msg_drop_rate: 0.0,
        }
    }

    /// Occasional mild faults — a good day in the field.
    #[must_use]
    pub fn calm() -> Self {
        Self {
            dropout_per_min: 0.2,
            dropout_mean_s: 3.0,
            stuck_per_min: 0.1,
            stuck_mean_s: 2.0,
            bias_per_min: 0.1,
            bias_mean_s: 10.0,
            bias_m: 1.0,
            brownout_per_min: 0.2,
            brownout_mean_s: 5.0,
            brownout_slowdown: 1.5,
            crash_per_min: 0.05,
            sag_per_min: 0.1,
            sag_mean_s: 8.0,
            sag_efficiency: 0.8,
            msg_drop_per_min: 0.1,
            msg_drop_mean_s: 4.0,
            msg_drop_rate: 0.2,
        }
    }

    /// Frequent, severe faults — the robustness-campaign stressor used by
    /// experiment E11.
    #[must_use]
    pub fn harsh() -> Self {
        Self {
            dropout_per_min: 0.5,
            dropout_mean_s: 8.0,
            stuck_per_min: 0.5,
            stuck_mean_s: 6.0,
            bias_per_min: 0.3,
            bias_mean_s: 15.0,
            bias_m: 1.5,
            brownout_per_min: 0.4,
            brownout_mean_s: 10.0,
            brownout_slowdown: 3.0,
            crash_per_min: 0.3,
            sag_per_min: 0.3,
            sag_mean_s: 15.0,
            sag_efficiency: 0.55,
            msg_drop_per_min: 0.4,
            msg_drop_mean_s: 8.0,
            msg_drop_rate: 0.5,
        }
    }
}

/// A time-ordered set of faults.
///
/// # Examples
///
/// ```
/// use m7_sim::{Fault, FaultSchedule};
/// use m7_units::Seconds;
///
/// let schedule = FaultSchedule::new(vec![Fault::SensorDropout {
///     start: Seconds::new(10.0),
///     duration: Seconds::new(5.0),
/// }]);
/// assert_eq!(schedule.merged_sensor_outages(), vec![(Seconds::new(10.0), Seconds::new(15.0))]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    faults: Vec<Fault>,
}

impl FaultSchedule {
    /// Creates a schedule.
    ///
    /// # Panics
    ///
    /// Panics if any duration is negative, any brownout slowdown is not
    /// ≥ 1, any bias is negative or non-finite, any sag efficiency is
    /// outside `(0, 1]`, or any drop rate is outside `[0, 1)`.
    #[must_use]
    pub fn new(faults: Vec<Fault>) -> Self {
        for f in &faults {
            let (s, e) = f.interval();
            assert!(e >= s, "fault duration must be non-negative");
            match *f {
                Fault::ComputeBrownout { slowdown, .. } => {
                    assert!(slowdown >= 1.0, "brownout slowdown must be >= 1");
                }
                Fault::SensorBias { bias_m, .. } => {
                    assert!(bias_m >= 0.0 && bias_m.is_finite(), "bias must be non-negative");
                }
                Fault::BatterySag { efficiency, .. } => {
                    assert!(
                        efficiency > 0.0 && efficiency <= 1.0,
                        "sag efficiency must be in (0, 1]"
                    );
                }
                Fault::MessageDrop { drop_rate, .. } => {
                    assert!((0.0..1.0).contains(&drop_rate), "message drop rate must be in [0, 1)");
                }
                _ => {}
            }
        }
        Self { faults }
    }

    /// The empty schedule (nominal operation).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Samples a random schedule from per-minute hazard rates over
    /// `[0, horizon)`, deterministic in `seed`.
    ///
    /// Arrivals are Poisson (exponential gaps), durations exponential
    /// with the profile's means. Faults are sorted by onset.
    #[must_use]
    pub fn sample(profile: &FaultProfile, horizon: Seconds, seed: u64) -> Self {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0xFA17_5EED_0000_0000);
        let mut faults: Vec<Fault> = Vec::new();
        let h = horizon.value();

        // One arrival process per fault kind; each draws its gaps and
        // durations in a fixed order so the schedule is a pure function
        // of (profile, horizon, seed).
        let arrivals = |per_min: f64, rng: &mut rand_chacha::ChaCha8Rng| -> Vec<f64> {
            let mut starts = Vec::new();
            if per_min > 0.0 {
                let mut t = 0.0;
                loop {
                    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                    t += -u.ln() * 60.0 / per_min;
                    if t >= h {
                        break;
                    }
                    starts.push(t);
                }
            }
            starts
        };
        let duration = |mean_s: f64, rng: &mut rand_chacha::ChaCha8Rng| -> f64 {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            (-u.ln() * mean_s).max(0.2)
        };

        for t in arrivals(profile.dropout_per_min, &mut rng) {
            let d = duration(profile.dropout_mean_s, &mut rng);
            faults.push(Fault::SensorDropout { start: Seconds::new(t), duration: Seconds::new(d) });
        }
        for t in arrivals(profile.stuck_per_min, &mut rng) {
            let d = duration(profile.stuck_mean_s, &mut rng);
            faults.push(Fault::SensorStuck { start: Seconds::new(t), duration: Seconds::new(d) });
        }
        for t in arrivals(profile.bias_per_min, &mut rng) {
            let d = duration(profile.bias_mean_s, &mut rng);
            faults.push(Fault::SensorBias {
                start: Seconds::new(t),
                duration: Seconds::new(d),
                bias_m: profile.bias_m,
            });
        }
        for t in arrivals(profile.brownout_per_min, &mut rng) {
            let d = duration(profile.brownout_mean_s, &mut rng);
            faults.push(Fault::ComputeBrownout {
                start: Seconds::new(t),
                duration: Seconds::new(d),
                slowdown: profile.brownout_slowdown.max(1.0),
            });
        }
        for t in arrivals(profile.crash_per_min, &mut rng) {
            faults.push(Fault::ComputeCrash { at: Seconds::new(t) });
        }
        for t in arrivals(profile.sag_per_min, &mut rng) {
            let d = duration(profile.sag_mean_s, &mut rng);
            faults.push(Fault::BatterySag {
                start: Seconds::new(t),
                duration: Seconds::new(d),
                efficiency: profile.sag_efficiency.clamp(f64::EPSILON, 1.0),
            });
        }
        for t in arrivals(profile.msg_drop_per_min, &mut rng) {
            let d = duration(profile.msg_drop_mean_s, &mut rng);
            faults.push(Fault::MessageDrop {
                start: Seconds::new(t),
                duration: Seconds::new(d),
                drop_rate: profile.msg_drop_rate.clamp(0.0, 1.0 - f64::EPSILON),
            });
        }

        faults.sort_by(|a, b| {
            a.interval().0.value().partial_cmp(&b.interval().0.value()).expect("finite onsets")
        });
        Self::new(faults)
    }

    /// The scheduled faults.
    #[must_use]
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Whether any fault is active at time `t` (point events never are).
    #[must_use]
    pub(crate) fn any_active(&self, t: Seconds) -> bool {
        self.faults.iter().any(|f| f.active_at(t))
    }

    /// The onset of the dropout outage covering `t`, if any (the earliest
    /// start among active dropouts — what a watchdog would know).
    #[must_use]
    pub(crate) fn dropout_since(&self, t: Seconds) -> Option<Seconds> {
        self.faults
            .iter()
            .filter(|f| matches!(f, Fault::SensorDropout { .. }) && f.active_at(t))
            .map(|f| f.interval().0)
            .min_by(|a, b| a.value().partial_cmp(&b.value()).expect("finite starts"))
    }

    /// The onset of the stuck-sensor episode covering `t`, if any.
    #[must_use]
    pub fn stuck_since(&self, t: Seconds) -> Option<Seconds> {
        self.faults
            .iter()
            .filter(|f| matches!(f, Fault::SensorStuck { .. }) && f.active_at(t))
            .map(|f| f.interval().0)
            .min_by(|a, b| a.value().partial_cmp(&b.value()).expect("finite starts"))
    }

    /// Total sensing-range error at time `t` (sum of active biases,
    /// meters).
    #[must_use]
    pub(crate) fn sensor_bias(&self, t: Seconds) -> f64 {
        self.faults
            .iter()
            .filter_map(|f| match f {
                Fault::SensorBias { bias_m, .. } if f.active_at(t) => Some(*bias_m),
                _ => None,
            })
            .sum()
    }

    /// The compute latency multiplier at time `t` (product of active
    /// brownouts; 1.0 nominal).
    #[must_use]
    pub(crate) fn compute_slowdown(&self, t: Seconds) -> f64 {
        self.faults
            .iter()
            .filter_map(|f| match f {
                Fault::ComputeBrownout { slowdown, .. } if f.active_at(t) => Some(*slowdown),
                _ => None,
            })
            .product()
    }

    /// Battery delivery efficiency at time `t` (product of active sags;
    /// 1.0 nominal). Energy drawn from the pack is `power * dt /
    /// efficiency`.
    #[must_use]
    pub(crate) fn battery_efficiency(&self, t: Seconds) -> f64 {
        self.faults
            .iter()
            .filter_map(|f| match f {
                Fault::BatterySag { efficiency, .. } if f.active_at(t) => Some(*efficiency),
                _ => None,
            })
            .product()
    }

    /// Message drop probability at time `t`: active windows combine as
    /// independent losses, `1 - Π(1 - rᵢ)`.
    #[must_use]
    pub fn message_drop_rate(&self, t: Seconds) -> f64 {
        let pass: f64 = self
            .faults
            .iter()
            .filter_map(|f| match f {
                Fault::MessageDrop { drop_rate, .. } if f.active_at(t) => Some(1.0 - *drop_rate),
                _ => None,
            })
            .product();
        1.0 - pass
    }

    /// Union-merged `[start, end)` windows where perception is degraded
    /// (dropout or stuck), sorted by start. Overlapping and touching
    /// windows coalesce — the interval arithmetic the property tests pin.
    #[must_use]
    pub fn merged_sensor_outages(&self) -> Vec<(Seconds, Seconds)> {
        let mut windows: Vec<(f64, f64)> = self
            .faults
            .iter()
            .filter(|f| matches!(f, Fault::SensorDropout { .. } | Fault::SensorStuck { .. }))
            .map(|f| {
                let (s, e) = f.interval();
                (s.value(), e.value())
            })
            .filter(|(s, e)| e > s)
            .collect();
        windows.sort_by(|a, b| a.partial_cmp(b).expect("finite windows"));
        let mut merged: Vec<(f64, f64)> = Vec::new();
        for (s, e) in windows {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        merged.into_iter().map(|(s, e)| (Seconds::new(s), Seconds::new(e))).collect()
    }
}

/// A schedule's interval-fault state at the current mission time.
///
/// No fault starts or ends strictly between two consecutive interval
/// edges, so every query below is constant there: the cursor re-asks the
/// schedule only when time reaches the next edge, and a closed loop can
/// hoist whatever it derives from the state the same way. Point events
/// ([`Fault::ComputeCrash`]) are not edges; their consumer tracks them.
#[derive(Debug)]
pub(crate) struct FaultCursor<'a> {
    schedule: &'a FaultSchedule,
    /// Sorted, distinct starts and ends of the interval faults.
    edges: Vec<f64>,
    /// Index of the first edge later than the last refresh.
    next: usize,
    /// [`FaultSchedule::compute_slowdown`].
    pub(crate) slowdown: f64,
    /// [`FaultSchedule::battery_efficiency`].
    pub(crate) efficiency: f64,
    /// [`FaultSchedule::message_drop_rate`].
    pub(crate) drop_rate: f64,
    /// [`FaultSchedule::sensor_bias`] while a bias fault is active.
    pub(crate) bias: Option<f64>,
    /// [`FaultSchedule::any_active`].
    pub(crate) any_active: bool,
    /// [`FaultSchedule::dropout_since`].
    pub(crate) dropout_since: Option<Seconds>,
    /// [`FaultSchedule::stuck_since`].
    pub(crate) stuck_since: Option<Seconds>,
}

impl<'a> FaultCursor<'a> {
    /// A cursor at mission time zero.
    pub(crate) fn new(schedule: &'a FaultSchedule) -> Self {
        let mut edges: Vec<f64> = schedule
            .faults
            .iter()
            .filter(|f| !matches!(f, Fault::ComputeCrash { .. }))
            .flat_map(|f| {
                let (s, e) = f.interval();
                [s.value(), e.value()]
            })
            .collect();
        edges.sort_by(f64::total_cmp);
        edges.dedup();
        let mut cursor = Self {
            schedule,
            edges,
            next: 0,
            slowdown: 1.0,
            efficiency: 1.0,
            drop_rate: 0.0,
            bias: None,
            any_active: false,
            dropout_since: None,
            stuck_since: None,
        };
        cursor.refresh(Seconds::ZERO);
        cursor
    }

    /// The earliest mission time at which the state can change.
    pub(crate) fn next_edge(&self) -> f64 {
        self.edges.get(self.next).copied().unwrap_or(f64::INFINITY)
    }

    /// Brings the state to mission time `t`, which must not decrease
    /// between calls. Returns whether an edge was crossed.
    pub(crate) fn seek(&mut self, t: Seconds) -> bool {
        if t.value() < self.next_edge() {
            return false;
        }
        self.refresh(t);
        true
    }

    fn refresh(&mut self, t: Seconds) {
        let s = self.schedule;
        self.next = self.edges.partition_point(|&e| e <= t.value());
        self.slowdown = s.compute_slowdown(t);
        self.efficiency = s.battery_efficiency(t);
        self.drop_rate = s.message_drop_rate(t);
        self.bias = s
            .faults
            .iter()
            .any(|f| matches!(f, Fault::SensorBias { .. }) && f.active_at(t))
            .then(|| s.sensor_bias(t));
        self.any_active = s.any_active(t);
        self.dropout_since = s.dropout_since(t);
        self.stuck_since = s.stuck_since(t);
    }

    /// Asserts that the state equals the schedule's direct queries at `t`.
    #[cfg(test)]
    pub(crate) fn assert_current(&self, t: Seconds) {
        let s = self.schedule;
        assert_eq!(self.slowdown.to_bits(), s.compute_slowdown(t).to_bits(), "slowdown at {t}");
        assert_eq!(self.efficiency.to_bits(), s.battery_efficiency(t).to_bits(), "sag at {t}");
        assert_eq!(self.drop_rate.to_bits(), s.message_drop_rate(t).to_bits(), "drops at {t}");
        assert_eq!(self.bias.unwrap_or(0.0), s.sensor_bias(t), "bias at {t}");
        assert_eq!(self.any_active, s.any_active(t), "any_active at {t}");
        assert_eq!(self.dropout_since, s.dropout_since(t), "dropout at {t}");
        assert_eq!(self.stuck_since, s.stuck_since(t), "stuck at {t}");
        CURSOR_CHECKS.with(|n| n.set(n.get() + 1));
    }
}

#[cfg(test)]
thread_local! {
    /// Steps at which [`FaultCursor::assert_current`] has passed on this
    /// thread.
    pub(crate) static CURSOR_CHECKS: core::cell::Cell<u64> = const { core::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_is_nominal() {
        let s = FaultSchedule::none();
        assert_eq!(s.dropout_since(Seconds::new(0.0)), None);
        assert_eq!(s.compute_slowdown(Seconds::new(100.0)), 1.0);
        assert_eq!(s.battery_efficiency(Seconds::new(100.0)), 1.0);
        assert_eq!(s.message_drop_rate(Seconds::new(100.0)), 0.0);
        assert_eq!(s.sensor_bias(Seconds::new(100.0)), 0.0);
        assert!(!s.any_active(Seconds::new(0.0)));
        assert!(s.merged_sensor_outages().is_empty());
    }

    #[test]
    fn dropout_window_is_half_open() {
        let s = FaultSchedule::new(vec![Fault::SensorDropout {
            start: Seconds::new(10.0),
            duration: Seconds::new(5.0),
        }]);
        assert_eq!(s.dropout_since(Seconds::new(9.99)), None);
        assert_eq!(s.dropout_since(Seconds::new(10.0)), Some(Seconds::new(10.0)));
        assert_eq!(s.dropout_since(Seconds::new(14.99)), Some(Seconds::new(10.0)));
        assert_eq!(s.dropout_since(Seconds::new(15.0)), None);
    }

    #[test]
    fn overlapping_brownouts_compound() {
        let s = FaultSchedule::new(vec![
            Fault::ComputeBrownout {
                start: Seconds::new(0.0),
                duration: Seconds::new(10.0),
                slowdown: 2.0,
            },
            Fault::ComputeBrownout {
                start: Seconds::new(5.0),
                duration: Seconds::new(10.0),
                slowdown: 3.0,
            },
        ]);
        assert_eq!(s.compute_slowdown(Seconds::new(2.0)), 2.0);
        assert_eq!(s.compute_slowdown(Seconds::new(7.0)), 6.0);
        assert_eq!(s.compute_slowdown(Seconds::new(12.0)), 3.0);
        assert_eq!(s.compute_slowdown(Seconds::new(20.0)), 1.0);
    }

    #[test]
    #[should_panic(expected = "slowdown")]
    fn rejects_speedup_brownout() {
        let _ = FaultSchedule::new(vec![Fault::ComputeBrownout {
            start: Seconds::ZERO,
            duration: Seconds::new(1.0),
            slowdown: 0.5,
        }]);
    }

    #[test]
    #[should_panic(expected = "efficiency")]
    fn rejects_zero_efficiency_sag() {
        let _ = FaultSchedule::new(vec![Fault::BatterySag {
            start: Seconds::ZERO,
            duration: Seconds::new(1.0),
            efficiency: 0.0,
        }]);
    }

    #[test]
    #[should_panic(expected = "drop rate")]
    fn rejects_certain_message_drop() {
        let _ = FaultSchedule::new(vec![Fault::MessageDrop {
            start: Seconds::ZERO,
            duration: Seconds::new(1.0),
            drop_rate: 1.0,
        }]);
    }

    #[test]
    fn stuck_and_bias_queries() {
        let s = FaultSchedule::new(vec![
            Fault::SensorStuck { start: Seconds::new(5.0), duration: Seconds::new(3.0) },
            Fault::SensorBias {
                start: Seconds::new(4.0),
                duration: Seconds::new(10.0),
                bias_m: 1.5,
            },
            Fault::SensorBias {
                start: Seconds::new(6.0),
                duration: Seconds::new(2.0),
                bias_m: 0.5,
            },
        ]);
        assert_eq!(s.stuck_since(Seconds::new(6.0)), Some(Seconds::new(5.0)));
        assert_eq!(s.stuck_since(Seconds::new(9.0)), None);
        assert_eq!(s.sensor_bias(Seconds::new(7.0)), 2.0);
        assert_eq!(s.sensor_bias(Seconds::new(12.0)), 1.5);
        // Stuck sensors still "produce" — they are not a dropout.
        assert_eq!(s.dropout_since(Seconds::new(6.0)), None);
    }

    #[test]
    fn point_events_are_never_active() {
        let s = FaultSchedule::new(vec![Fault::ComputeCrash { at: Seconds::new(10.0) }]);
        assert!(!s.any_active(Seconds::new(10.0)));
    }

    #[test]
    fn sag_and_message_drop_compound() {
        let s = FaultSchedule::new(vec![
            Fault::BatterySag {
                start: Seconds::ZERO,
                duration: Seconds::new(10.0),
                efficiency: 0.5,
            },
            Fault::BatterySag {
                start: Seconds::new(5.0),
                duration: Seconds::new(10.0),
                efficiency: 0.8,
            },
            Fault::MessageDrop {
                start: Seconds::ZERO,
                duration: Seconds::new(10.0),
                drop_rate: 0.5,
            },
            Fault::MessageDrop {
                start: Seconds::new(5.0),
                duration: Seconds::new(10.0),
                drop_rate: 0.5,
            },
        ]);
        assert_eq!(s.battery_efficiency(Seconds::new(7.0)), 0.4);
        assert!((s.message_drop_rate(Seconds::new(7.0)) - 0.75).abs() < 1e-12);
        assert_eq!(s.battery_efficiency(Seconds::new(12.0)), 0.8);
    }

    #[test]
    fn merged_outages_coalesce_overlaps() {
        let s = FaultSchedule::new(vec![
            Fault::SensorDropout { start: Seconds::new(1.0), duration: Seconds::new(4.0) },
            Fault::SensorStuck { start: Seconds::new(3.0), duration: Seconds::new(4.0) },
            Fault::SensorDropout { start: Seconds::new(10.0), duration: Seconds::new(1.0) },
        ]);
        let merged = s.merged_sensor_outages();
        assert_eq!(
            merged,
            vec![(Seconds::new(1.0), Seconds::new(7.0)), (Seconds::new(10.0), Seconds::new(11.0)),]
        );
    }

    #[test]
    fn sampled_schedule_is_deterministic_and_rate_scaled() {
        let horizon = Seconds::new(600.0);
        let a = FaultSchedule::sample(&FaultProfile::harsh(), horizon, 42);
        let b = FaultSchedule::sample(&FaultProfile::harsh(), horizon, 42);
        assert_eq!(a, b);
        let c = FaultSchedule::sample(&FaultProfile::harsh(), horizon, 43);
        assert_ne!(a, c, "different seeds draw different schedules");
        let calm = FaultSchedule::sample(&FaultProfile::calm(), horizon, 42);
        assert!(
            a.faults().len() > calm.faults().len(),
            "harsh ({}) should out-draw calm ({})",
            a.faults().len(),
            calm.faults().len()
        );
        let none = FaultSchedule::sample(&FaultProfile::none(), horizon, 42);
        assert!(none.faults().is_empty());
    }

    #[test]
    fn sampled_faults_start_inside_horizon() {
        let horizon = Seconds::new(120.0);
        let s = FaultSchedule::sample(&FaultProfile::harsh(), horizon, 9);
        for f in s.faults() {
            assert!(f.interval().0 < horizon, "onset past horizon: {f:?}");
        }
        // Sorted by onset.
        for w in s.faults().windows(2) {
            assert!(w[0].interval().0 <= w[1].interval().0);
        }
    }
}
