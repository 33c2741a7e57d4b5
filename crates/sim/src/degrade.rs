//! Graceful-degradation policies: what the autonomy stack *does* when a
//! fault is active.
//!
//! The paper's Challenge 6 argues that accelerator value must be scored
//! under "real-world effects like reliability and robustness". A fault
//! schedule alone only measures how a *blind* system dies; the
//! interesting design axis is the recovery machinery — watchdogs, retry,
//! dead-reckoning coast, kernel fallback, commanded safe-stop — and what
//! its nominal-time overhead buys in mission success. [`DegradationPolicy`]
//! packages those knobs so the rover and UAV closed loops, and the
//! campaign runner above them, can compare fault-blind and
//! degradation-aware configurations of the *same* vehicle.

use m7_units::Seconds;

/// Retry a crashed autonomy stack with exponential backoff before giving
/// up and cold-booting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Warm-restart attempts before falling back to a cold boot.
    pub max_attempts: u32,
    /// Cost of the first warm restart; attempt `i` costs
    /// `backoff_base * 2^i`.
    pub backoff_base: Seconds,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 3, backoff_base: Seconds::new(0.5) }
    }
}

/// Coast on dead reckoning while perception is out, instead of creeping
/// blind or flying stale data at full speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoastPolicy {
    /// Fraction of the last known safe speed to hold while coasting.
    pub speed_fraction: f64,
    /// Maximum time to trust dead reckoning before slowing to a creep.
    pub max_duration: Seconds,
    /// Watchdog delay before a stuck sensor is detected (staleness
    /// check period).
    pub detect_after: Seconds,
}

impl Default for CoastPolicy {
    fn default() -> Self {
        Self {
            speed_fraction: 0.6,
            max_duration: Seconds::new(4.0),
            detect_after: Seconds::new(0.5),
        }
    }
}

/// Command a controlled stop when remaining energy drops below a reserve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SafeStopPolicy {
    /// Fraction of pack capacity held in reserve; when projected energy
    /// to finish exceeds what is left above the reserve, stop now rather
    /// than fall out of the sky later.
    pub reserve_fraction: f64,
}

impl Default for SafeStopPolicy {
    fn default() -> Self {
        Self { reserve_fraction: 0.08 }
    }
}

/// The graceful-degradation configuration a closed loop consults when
/// faults are active.
///
/// [`DegradationPolicy::none`] is the fault-blind baseline: no watchdog,
/// no retry, no fallback — the vehicle runs its nominal control law into
/// whatever the fault schedule throws at it. [`DegradationPolicy::full`]
/// enables every mechanism and pays a small monitoring tax
/// ([`DegradationPolicy::monitor_overhead`]) on nominal reaction time.
///
/// # Examples
///
/// ```
/// use m7_sim::DegradationPolicy;
///
/// let blind = DegradationPolicy::none();
/// assert!(!blind.is_aware());
/// assert_eq!(blind.monitor_overhead(), 1.0);
///
/// let aware = DegradationPolicy::full();
/// assert!(aware.is_aware());
/// assert!(aware.monitor_overhead() > 1.0, "awareness costs nominal latency");
///
/// // Policies compose à la carte: retry-only, no coast or safe-stop.
/// let retry_only = DegradationPolicy { retry: Some(Default::default()), ..DegradationPolicy::none() };
/// assert!(retry_only.is_aware());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DegradationPolicy {
    /// Warm-restart crashed compute with backoff (else: cold boot).
    pub retry: Option<RetryPolicy>,
    /// Dead-reckoning coast through perception outages (else: blind
    /// creep on dropout, full-speed stale data on stuck frames).
    pub coast: Option<CoastPolicy>,
    /// Swap the planner to a cheaper kernel variant under brownout or
    /// battery sag: lower quality (longer effective reaction distance)
    /// but far less compute power and latency.
    pub kernel_fallback: bool,
    /// Commanded safe-stop on low projected energy (else: fly until the
    /// pack dies).
    pub safe_stop: Option<SafeStopPolicy>,
}

impl DegradationPolicy {
    /// The fault-blind baseline: every mechanism off.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Every mechanism on, with default tuning.
    #[must_use]
    pub fn full() -> Self {
        Self {
            retry: Some(RetryPolicy::default()),
            coast: Some(CoastPolicy::default()),
            kernel_fallback: true,
            safe_stop: Some(SafeStopPolicy::default()),
        }
    }

    /// Whether any degradation mechanism is enabled (i.e. the stack runs
    /// health monitoring at all).
    #[must_use]
    pub fn is_aware(&self) -> bool {
        self.retry.is_some()
            || self.coast.is_some()
            || self.kernel_fallback
            || self.safe_stop.is_some()
    }

    /// Multiplier on nominal reaction time paid for health monitoring
    /// (watchdogs, heartbeats, state checkpoints). 1.0 when blind —
    /// awareness is not free, which is exactly the trade experiment E11
    /// measures.
    #[must_use]
    pub fn monitor_overhead(&self) -> f64 {
        if self.is_aware() {
            1.05
        } else {
            1.0
        }
    }

    /// Warm-restart cost of crash recovery attempt `attempt` (0-based),
    /// if retries are enabled and the attempt is within budget.
    #[must_use]
    pub(crate) fn retry_cost(&self, attempt: u32) -> Option<Seconds> {
        let r = self.retry?;
        if attempt < r.max_attempts {
            Some(Seconds::new(r.backoff_base.value() * f64::from(1u32 << attempt.min(16))))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blind_policy_has_no_overhead() {
        let p = DegradationPolicy::none();
        assert!(!p.is_aware());
        assert_eq!(p.monitor_overhead(), 1.0);
        assert_eq!(p.retry_cost(0), None);
    }

    #[test]
    fn full_policy_is_aware_and_taxed() {
        let p = DegradationPolicy::full();
        assert!(p.is_aware());
        assert!(p.monitor_overhead() > 1.0);
    }

    #[test]
    fn retry_backoff_doubles_then_exhausts() {
        let p = DegradationPolicy {
            retry: Some(RetryPolicy { max_attempts: 3, backoff_base: Seconds::new(0.5) }),
            ..DegradationPolicy::none()
        };
        assert_eq!(p.retry_cost(0), Some(Seconds::new(0.5)));
        assert_eq!(p.retry_cost(1), Some(Seconds::new(1.0)));
        assert_eq!(p.retry_cost(2), Some(Seconds::new(2.0)));
        assert_eq!(p.retry_cost(3), None, "budget exhausted -> cold boot");
    }

    #[test]
    fn single_mechanism_counts_as_aware() {
        let p = DegradationPolicy { kernel_fallback: true, ..DegradationPolicy::none() };
        assert!(p.is_aware());
    }
}
