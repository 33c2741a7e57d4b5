//! Deterministic Monte-Carlo fault-injection campaigns.
//!
//! One fault schedule is one draw from an environment; robustness is a
//! property of the *distribution*. [`CampaignRunner`] fans N seeded
//! schedules across the deterministic `m7-par` pool — per-run seeds come
//! from [`m7_par::derive_seed`], results are aggregated in index order,
//! and pooled latency percentiles use a total order — so a campaign
//! report is byte-identical at `M7_THREADS=1` and `M7_THREADS=8`. That
//! determinism is what lets experiment E11 compare fault-blind and
//! degradation-aware designs *under the same fault draws* and lets the
//! golden-report tests pin the output.

use crate::degrade::DegradationPolicy;
use crate::faults::{FaultProfile, FaultSchedule};
use crate::mission::MissionSpec;
use crate::uav::{FaultedOutcome, Uav};
use m7_par::{derive_seed, ParConfig};
use m7_trace::{MetricClass, SpanSite, TraceCounter, TraceHistogram};
use m7_units::Seconds;

// Campaign observability (no-ops until `m7_trace::enable()`). Fault
// draws, outcomes, and degradation times are pure functions of the root
// seed, so every metric here is deterministic-class.
static CAMPAIGN_SPAN: SpanSite = SpanSite::new("sim.campaign.run", MetricClass::Deterministic);
static RUNS: TraceCounter = TraceCounter::new("sim.campaign.runs", MetricClass::Deterministic);
static SUCCESSES: TraceCounter =
    TraceCounter::new("sim.campaign.successes", MetricClass::Deterministic);
static SAFE_STOPS: TraceCounter =
    TraceCounter::new("sim.campaign.safe_stops", MetricClass::Deterministic);
static CRASHES: TraceCounter =
    TraceCounter::new("sim.campaign.crashes", MetricClass::Deterministic);
static RETRIES: TraceCounter =
    TraceCounter::new("sim.campaign.retries", MetricClass::Deterministic);
static FAULTS_SCHEDULED: TraceCounter =
    TraceCounter::new("sim.faults.scheduled", MetricClass::Deterministic);
static COAST_NS: TraceHistogram =
    TraceHistogram::new("sim.campaign.coast_ns", MetricClass::Deterministic);
static FALLBACK_NS: TraceHistogram =
    TraceHistogram::new("sim.campaign.fallback_ns", MetricClass::Deterministic);

fn seconds_to_ns(s: Seconds) -> u64 {
    let ns = s.value() * 1e9;
    if ns.is_finite() && ns >= 0.0 {
        ns as u64
    } else {
        0
    }
}

/// Size and environment of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Number of independent mission runs (fault-schedule draws).
    pub runs: usize,
    /// Hazard rates the schedules are drawn from.
    pub profile: FaultProfile,
    /// Horizon over which faults are scheduled; should cover the longest
    /// plausible mission duration.
    pub horizon: Seconds,
}

impl CampaignConfig {
    /// A campaign of `runs` draws from `profile` over `horizon`.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is zero.
    #[must_use]
    pub fn new(runs: usize, profile: FaultProfile, horizon: Seconds) -> Self {
        assert!(runs > 0, "a campaign needs at least one run");
        Self { runs, profile, horizon }
    }
}

/// Aggregated robustness metrics over a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessReport {
    /// Runs executed.
    pub runs: usize,
    /// Runs that completed the mission (and were not lost).
    pub successes: usize,
    /// Runs ending in a commanded safe-stop.
    pub safe_stops: usize,
    /// Runs ending in vehicle loss (collision or mid-air battery death).
    pub crashes: usize,
    /// Mean mission time over all runs (s).
    pub mean_time_s: f64,
    /// Mean energy drawn over all runs (J).
    pub mean_energy_j: f64,
    /// Mean time-to-failure over lost runs (s); `None` if nothing was
    /// lost.
    pub mttf_s: Option<f64>,
    /// Median effective reaction latency while faults were active (s).
    pub degraded_p50_s: Option<f64>,
    /// 90th-percentile degraded reaction latency (s).
    pub degraded_p90_s: Option<f64>,
    /// 99th-percentile degraded reaction latency (s).
    pub degraded_p99_s: Option<f64>,
    /// Mean warm-restart attempts per run.
    pub mean_retries: f64,
    /// Mean time per run spent coasting on dead reckoning (s).
    pub mean_coast_s: f64,
    /// Mean time per run spent on the fallback kernel (s).
    pub mean_fallback_s: f64,
}

impl RobustnessReport {
    /// Mission success rate in `[0, 1]`.
    #[must_use]
    pub fn success_rate(&self) -> f64 {
        self.successes as f64 / self.runs as f64
    }

    /// Safe-stop rate in `[0, 1]`.
    #[must_use]
    pub fn safe_stop_rate(&self) -> f64 {
        self.safe_stops as f64 / self.runs as f64
    }

    /// Vehicle-loss rate in `[0, 1]`.
    #[must_use]
    pub fn crash_rate(&self) -> f64 {
        self.crashes as f64 / self.runs as f64
    }
}

/// Runs one vehicle + mission + policy against N drawn fault schedules.
///
/// # Examples
///
/// ```
/// use m7_par::ParConfig;
/// use m7_sim::{CampaignConfig, CampaignRunner, DegradationPolicy, FaultProfile, MissionSpec};
/// use m7_sim::uav::{Uav, UavConfig};
/// use m7_units::Seconds;
///
/// let runner = CampaignRunner::new(
///     Uav::new(UavConfig::default()),
///     MissionSpec::survey(400.0),
///     DegradationPolicy::full(),
///     CampaignConfig::new(8, FaultProfile::calm(), Seconds::new(120.0)),
/// );
/// let report = runner.run(42, &ParConfig::serial());
/// assert_eq!(report.runs, 8);
/// // Same root seed, any thread count -> identical report.
/// assert_eq!(report, runner.run(42, &ParConfig::with_threads(4)));
/// ```
#[derive(Debug, Clone)]
pub struct CampaignRunner {
    uav: Uav,
    mission: MissionSpec,
    policy: DegradationPolicy,
    config: CampaignConfig,
}

impl CampaignRunner {
    /// Creates a campaign over a vehicle, mission, and policy.
    #[must_use]
    pub fn new(
        uav: Uav,
        mission: MissionSpec,
        policy: DegradationPolicy,
        config: CampaignConfig,
    ) -> Self {
        Self { uav, mission, policy, config }
    }

    /// The campaign configuration.
    #[must_use]
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Runs the campaign, deterministic in `root_seed` for any thread
    /// count.
    ///
    /// Run `i` draws its schedule *and* its in-flight randomness from
    /// `derive_seed(root_seed, i)`, so two campaigns with the same root
    /// seed see the same fault draws run for run — the apples-to-apples
    /// comparison experiment E11 depends on.
    #[must_use]
    pub fn run(&self, root_seed: u64, par: &ParConfig) -> RobustnessReport {
        let _span = CAMPAIGN_SPAN.enter();
        let outcomes: Vec<FaultedOutcome> = par.par_map_indexed(self.config.runs, |i| {
            let seed = derive_seed(root_seed, i as u64);
            let schedule = FaultSchedule::sample(&self.config.profile, self.config.horizon, seed);
            FAULTS_SCHEDULED.add(schedule.faults().len() as u64);
            self.uav.fly_degraded(&self.mission, &schedule, &self.policy, seed)
        });
        Self::aggregate(&outcomes)
    }

    /// Aggregates outcomes in index order (thread-count independent).
    fn aggregate(outcomes: &[FaultedOutcome]) -> RobustnessReport {
        let runs = outcomes.len();
        let successes = outcomes.iter().filter(|o| o.succeeded()).count();
        let safe_stops = outcomes.iter().filter(|o| o.safe_stopped).count();
        let crashes = outcomes.iter().filter(|o| o.crashed).count();
        if m7_trace::enabled() {
            RUNS.add(runs as u64);
            SUCCESSES.add(successes as u64);
            SAFE_STOPS.add(safe_stops as u64);
            CRASHES.add(crashes as u64);
            for o in outcomes {
                RETRIES.add(o.retries);
                COAST_NS.record(seconds_to_ns(o.coast_time));
                FALLBACK_NS.record(seconds_to_ns(o.fallback_time));
            }
        }
        let mean = |f: &dyn Fn(&FaultedOutcome) -> f64| -> f64 {
            outcomes.iter().map(f).sum::<f64>() / runs as f64
        };
        let mean_time_s = mean(&|o| o.mission.time.value());
        let mean_energy_j = mean(&|o| o.mission.energy.value());
        let mean_retries = mean(&|o| o.retries as f64);
        let mean_coast_s = mean(&|o| o.coast_time.value());
        let mean_fallback_s = mean(&|o| o.fallback_time.value());

        let failures: Vec<f64> =
            outcomes.iter().filter_map(|o| o.time_to_failure.map(|t| t.value())).collect();
        let mttf_s = if failures.is_empty() {
            None
        } else {
            Some(failures.iter().sum::<f64>() / failures.len() as f64)
        };

        // Pool every degraded-latency sample, then sort with a total
        // order so percentile cuts are identical at any thread count.
        let mut latencies: Vec<f64> =
            outcomes.iter().flat_map(|o| o.degraded_latencies_s.iter().copied()).collect();
        latencies.sort_by(f64::total_cmp);
        let pct = |p: f64| -> Option<f64> {
            if latencies.is_empty() {
                None
            } else {
                let idx = ((latencies.len() - 1) as f64 * p).round() as usize;
                Some(latencies[idx])
            }
        };

        RobustnessReport {
            runs,
            successes,
            safe_stops,
            crashes,
            mean_time_s,
            mean_energy_j,
            mttf_s,
            degraded_p50_s: pct(0.50),
            degraded_p90_s: pct(0.90),
            degraded_p99_s: pct(0.99),
            mean_retries,
            mean_coast_s,
            mean_fallback_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uav::UavConfig;

    fn tiny_runner(policy: DegradationPolicy) -> CampaignRunner {
        CampaignRunner::new(
            Uav::new(UavConfig::default()),
            MissionSpec::survey(300.0),
            policy,
            CampaignConfig::new(6, FaultProfile::calm(), Seconds::new(90.0)),
        )
    }

    #[test]
    fn campaign_is_thread_count_invariant() {
        let runner = tiny_runner(DegradationPolicy::full());
        let serial = runner.run(42, &ParConfig::serial());
        let threaded = runner.run(42, &ParConfig::with_threads(8));
        assert_eq!(serial, threaded);
    }

    #[test]
    fn nominal_campaign_always_succeeds() {
        let runner = CampaignRunner::new(
            Uav::new(UavConfig::default()),
            MissionSpec::survey(300.0),
            DegradationPolicy::none(),
            CampaignConfig::new(5, FaultProfile::none(), Seconds::new(60.0)),
        );
        let report = runner.run(1, &ParConfig::serial());
        assert_eq!(report.successes, 5);
        assert_eq!(report.success_rate(), 1.0);
        assert_eq!(report.crashes, 0);
        assert_eq!(report.mttf_s, None);
        assert_eq!(report.degraded_p50_s, None, "no faults, no degraded samples");
    }

    #[test]
    fn percentiles_are_ordered() {
        let runner = CampaignRunner::new(
            Uav::new(UavConfig::default()),
            MissionSpec::survey(400.0),
            DegradationPolicy::full(),
            CampaignConfig::new(8, FaultProfile::harsh(), Seconds::new(120.0)),
        );
        let report = runner.run(7, &ParConfig::serial());
        let (p50, p90, p99) = (
            report.degraded_p50_s.expect("harsh profile produces samples"),
            report.degraded_p90_s.expect("p90"),
            report.degraded_p99_s.expect("p99"),
        );
        assert!(p50 <= p90 && p90 <= p99, "{p50} <= {p90} <= {p99}");
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_run_campaign_is_rejected() {
        let _ = CampaignConfig::new(0, FaultProfile::none(), Seconds::new(1.0));
    }
}
