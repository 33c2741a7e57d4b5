//! A closed-loop point-mass UAV whose mission performance couples to its
//! onboard compute tier — the experiment E5 ("Pump the Brakes") vehicle.
//!
//! Two couplings drive the result, both physical:
//!
//! 1. **Perception-limited speed.** The UAV may only fly as fast as it can
//!    react: `v_safe = sensor_range / (2 · t_react)`, where `t_react` is the
//!    compute tier's planning latency. Weak compute ⇒ slow flight ⇒ long
//!    missions.
//! 2. **Mass- and power-taxed endurance.** The compute board's mass raises
//!    hover power superlinearly, and its electrical draw adds on top. Strong
//!    compute ⇒ heavy, hungry vehicle ⇒ short endurance.
//!
//! Mission energy is therefore U-shaped in compute capability, exactly the
//! shape the paper cites from UAV co-design studies.

use crate::battery::{hover_power, Battery};
use crate::degrade::DegradationPolicy;
use crate::faults::{FaultCursor, FaultSchedule};
use crate::mission::{MissionOutcome, MissionSpec};
use crate::sensor::NoiseSource;
use m7_units::{Grams, Hertz, Joules, Meters, MetersPerSecond, Seconds, Watts};
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Blind creep speed when perception is lost and no coast policy applies.
const BLIND_CREEP: f64 = 0.3;
/// Hover time for a full cold reboot of the autonomy stack after a crash.
const COLD_BOOT_S: f64 = 12.0;
/// Probability that one warm-restart attempt revives a crashed stack.
const WARM_RESTART_SUCCESS: f64 = 0.7;
/// Collision hazard per meter flown on stale (stuck-sensor) data.
const STALE_HAZARD_PER_M: f64 = 0.004;
/// Seed salt for the fault-event RNG, kept separate from the gust stream.
const EVENT_SEED_SALT: u64 = 0xDE67_ADE0_5EED_0001;

/// Onboard compute tiers, weakest to strongest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ComputeTier {
    /// Microcontroller-class.
    Micro,
    /// Embedded CPU board.
    Embedded,
    /// Embedded GPU module (Jetson-class).
    EmbeddedGpu,
    /// Small-form-factor desktop with discrete GPU.
    Desktop,
    /// Workstation/server-class board.
    Server,
}

impl ComputeTier {
    /// All tiers, weakest to strongest.
    pub const ALL: [Self; 5] =
        [Self::Micro, Self::Embedded, Self::EmbeddedGpu, Self::Desktop, Self::Server];

    /// Board mass.
    #[must_use]
    pub fn mass(self) -> Grams {
        Grams::new(match self {
            Self::Micro => 15.0,
            Self::Embedded => 60.0,
            Self::EmbeddedGpu => 280.0,
            Self::Desktop => 700.0,
            Self::Server => 1500.0,
        })
    }

    /// Electrical power draw while planning.
    #[must_use]
    pub fn power(self) -> Watts {
        Watts::new(match self {
            Self::Micro => 2.0,
            Self::Embedded => 10.0,
            Self::EmbeddedGpu => 25.0,
            Self::Desktop => 60.0,
            Self::Server => 150.0,
        })
    }

    /// End-to-end perceive-and-plan latency.
    #[must_use]
    pub fn plan_latency(self) -> Seconds {
        Seconds::new(match self {
            Self::Micro => 0.9,
            Self::Embedded => 0.15,
            Self::EmbeddedGpu => 0.03,
            Self::Desktop => 0.015,
            Self::Server => 0.008,
        })
    }

    /// Replanning rate implied by the planning latency.
    #[must_use]
    pub fn plan_rate(self) -> Hertz {
        self.plan_latency().rate()
    }
}

impl core::fmt::Display for ComputeTier {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Self::Micro => "micro",
            Self::Embedded => "embedded",
            Self::EmbeddedGpu => "embedded-gpu",
            Self::Desktop => "desktop",
            Self::Server => "server",
        };
        f.write_str(s)
    }
}

/// Airframe and payload configuration of the simulated UAV.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UavConfig {
    /// Airframe mass excluding compute and cargo.
    pub frame_mass: Grams,
    /// Battery capacity.
    pub battery: Joules,
    /// Total rotor disk area (m²).
    pub rotor_disk_area: f64,
    /// Obstacle sensing range (meters).
    pub sensor_range: Meters,
    /// Mechanical top speed.
    pub max_speed: MetersPerSecond,
    /// Onboard compute tier.
    pub tier: ComputeTier,
}

impl Default for UavConfig {
    fn default() -> Self {
        Self {
            frame_mass: Grams::new(1200.0),
            battery: Joules::from_watt_hours(20.0),
            rotor_disk_area: 0.25,
            sensor_range: Meters::new(12.0),
            max_speed: MetersPerSecond::new(16.0),
            tier: ComputeTier::Embedded,
        }
    }
}

impl UavConfig {
    /// Returns the config with a different compute tier.
    #[must_use]
    pub fn with_tier(mut self, tier: ComputeTier) -> Self {
        self.tier = tier;
        self
    }

    /// Returns the config with a different battery capacity.
    #[must_use]
    pub fn with_battery(mut self, capacity: Joules) -> Self {
        self.battery = capacity;
        self
    }
}

/// The closed-loop UAV simulator.
///
/// # Examples
///
/// ```
/// use m7_sim::mission::MissionSpec;
/// use m7_sim::uav::{ComputeTier, Uav, UavConfig};
///
/// let uav = Uav::new(UavConfig::default().with_tier(ComputeTier::EmbeddedGpu));
/// let outcome = uav.fly(&MissionSpec::survey(1000.0), 7);
/// assert!(outcome.completed);
/// assert!(outcome.average_speed.value() > 5.0);
/// ```
#[derive(Debug, Clone)]
pub struct Uav {
    config: UavConfig,
}

impl Uav {
    /// Creates a UAV from its configuration.
    #[must_use]
    pub fn new(config: UavConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &UavConfig {
        &self.config
    }

    /// The perception-limited safe cruise speed for this configuration:
    /// the vehicle must be able to detect and clear an obstacle within half
    /// its sensing range, so reaction latency caps speed.
    #[must_use]
    pub fn safe_speed(&self) -> MetersPerSecond {
        let t_react = self.config.tier.plan_latency();
        let v_limit = self.config.sensor_range.value() / (2.0 * t_react.value());
        MetersPerSecond::new(v_limit).min(self.config.max_speed)
    }

    /// All-up mass for a mission (frame + compute + cargo).
    #[must_use]
    pub fn all_up_mass(&self, mission: &MissionSpec) -> Grams {
        self.config.frame_mass + self.config.tier.mass() + Grams::new(mission.payload_grams())
    }

    /// Flies `mission` with no faults and the fault-blind policy,
    /// deterministic in `seed`: [`Uav::fly_degraded`] with an empty
    /// schedule and [`DegradationPolicy::none`], where every fault factor
    /// is exactly 1.
    #[must_use]
    pub fn fly(&self, mission: &MissionSpec, seed: u64) -> MissionOutcome {
        self.fly_degraded(mission, &FaultSchedule::none(), &DegradationPolicy::none(), seed).mission
    }

    /// Flies `mission` under a fault schedule while consulting a
    /// [`DegradationPolicy`], deterministic in `seed`. This is the UAV's
    /// one closed loop: [`Uav::fly`] and experiment E11 both run it.
    ///
    /// Fixed-step loop (20 ms): each step the vehicle cruises at its
    /// gust-perturbed safe speed, draws hover plus compute power, and
    /// counts replans at the tier's plan rate. The mission aborts when the
    /// battery empties. On top of that it models:
    ///
    /// - **Compute crashes** ([`crate::faults::Fault::ComputeCrash`]): the
    ///   stack dies and the vehicle hovers while it restarts — warm
    ///   retries with backoff if the policy enables them, otherwise a
    ///   full cold boot.
    /// - **Brownouts**: the reaction latency, and so the safe speed,
    ///   degrades by the scheduled factor.
    /// - **Sensor dropouts**: dead-reckoning coast at a fraction of the
    ///   safe speed (bounded by the coast budget) if enabled, else a
    ///   blind creep at 0.3 m/s.
    /// - **Sensor bias**: the usable sensing range shrinks by the bias,
    ///   floored at 0.5 m while a bias is active.
    /// - **Stuck sensors**: a fault-blind vehicle flies stale frames at
    ///   full speed and accrues collision hazard per meter; an aware
    ///   vehicle detects staleness after the watchdog period and coasts.
    /// - **Kernel fallback**: under brownout or battery sag, an aware
    ///   vehicle may swap to a cheaper planner variant (lower latency and
    ///   power, slightly worse effective sensing).
    /// - **Battery sag**: energy is drawn at reduced delivery efficiency.
    /// - **Message drops**: lost inter-stage messages cost retransmits,
    ///   stretching effective reaction latency by `1 / (1 - rate)`.
    /// - **Safe-stop**: when projected energy-to-finish exceeds what is
    ///   left above the reserve, an aware vehicle lands under control
    ///   instead of falling out of the sky later.
    ///
    /// Health monitoring is not free: an aware policy pays
    /// [`DegradationPolicy::monitor_overhead`] on nominal reaction time.
    ///
    /// The fault state is piecewise constant in mission time, so the loop
    /// re-derives the reaction latency, safe speed and power draw only when
    /// time reaches the next fault edge, scheduled crash or end of a
    /// restart.
    #[must_use]
    // Inlined into `fly`, whose empty schedule and blind policy the
    // optimizer then folds into a fault-free copy of the loop.
    #[inline]
    pub fn fly_degraded(
        &self,
        mission: &MissionSpec,
        faults: &FaultSchedule,
        policy: &DegradationPolicy,
        seed: u64,
    ) -> FaultedOutcome {
        let dt = Seconds::new(0.02);
        let mass = self.all_up_mass(mission);
        let p_hover = hover_power(mass, self.config.rotor_disk_area);
        let p_compute = self.config.tier.power();
        let mut gusts = NoiseSource::new(mission.gust_std(), seed);
        // Fault events (restart success, stale-data collisions) draw from
        // their own stream so they never perturb the gust sequence.
        let mut events = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ EVENT_SEED_SALT);

        let mut crash_times: Vec<Seconds> = faults
            .faults()
            .iter()
            .filter_map(|f| match f {
                crate::faults::Fault::ComputeCrash { at } => Some(*at),
                _ => None,
            })
            .collect();
        crash_times.sort_by(|a, b| a.value().partial_cmp(&b.value()).expect("finite crashes"));
        let crash_at = |i: usize| crash_times.get(i).map_or(f64::INFINITY, |c| c.value());
        let mut next_crash = 0usize;

        let mut battery = Battery::new(self.config.battery);
        let mut covered = Meters::new(0.0);
        let mut t = Seconds::ZERO;
        let mut replan_accumulator = 0.0;
        let mut replans = 0u64;
        let replan_step = self.config.tier.plan_rate().value() * dt.value();
        let overhead = policy.monitor_overhead();

        let mut completed = false;
        let mut crashed = false;
        let mut safe_stopped = false;
        let mut retries = 0u64;
        let mut cold_boots = 0u64;
        let mut coast_time = Seconds::ZERO;
        let mut fallback_time = Seconds::ZERO;
        let mut time_to_failure = None;
        let mut degraded_latencies_s = Vec::new();
        let mut recovering_until = Seconds::ZERO;

        // Nominal cruise plan used for energy projection by safe-stop.
        let v_plan = {
            let t_react = self.config.tier.plan_latency() * overhead;
            MetersPerSecond::new(self.config.sensor_range.value() / (2.0 * t_react.value()))
                .min(self.config.max_speed)
        };

        let cruise = |c: &FaultCursor| {
            let range = self.config.sensor_range.value();
            let mut range_eff = Meters::new(c.bias.map_or(range, |b| (range - b).max(0.5)));
            let mut latency = self.config.tier.plan_latency();
            let mut p_compute_eff = p_compute;
            // Cheaper kernel variant: faster and frugal, slightly worse
            // effective sensing — worth it only under stress.
            let fallback = policy.kernel_fallback && (c.slowdown >= 1.5 || c.efficiency < 1.0);
            if fallback {
                latency *= 0.5;
                p_compute_eff = p_compute * 0.35;
                range_eff *= 0.85;
            }
            // Dropped inter-stage messages cost retransmits.
            let retransmit = 1.0 / (1.0 - c.drop_rate);
            let t_react = latency * c.slowdown * overhead * retransmit;
            Cruise {
                t_react,
                v_safe: MetersPerSecond::new(range_eff.value() / (2.0 * t_react.value()))
                    .min(self.config.max_speed),
                fallback,
                p_fly: Watts::new((p_hover + p_compute_eff).value() / c.efficiency),
                // Stack rebooting, near-idle.
                p_reboot: Watts::new((p_hover + p_compute * 0.2).value() / c.efficiency),
            }
        };
        let mut cursor = FaultCursor::new(faults);
        let mut now = cruise(&cursor);
        let mut next_event = cursor.next_edge().min(crash_at(0));
        // No fault active and no restart under way: the step cruises at
        // `now.v_safe`. Like `now`, this changes only at an event.
        let mut quiet = !cursor.any_active;

        // Safety cap so a mis-configured vehicle cannot spin forever.
        let max_steps = 10_000_000usize;
        for step in 0..max_steps {
            if covered >= mission.distance() {
                completed = true;
                break;
            }

            if t.value() >= next_event {
                // Transient compute crashes ground planning until recovered.
                while next_crash < crash_times.len() && crash_times[next_crash] <= t {
                    next_crash += 1;
                    let mut downtime = Seconds::ZERO;
                    let mut revived = false;
                    let mut attempt = 0u32;
                    while let Some(cost) = policy.retry_cost(attempt) {
                        downtime += cost;
                        retries += 1;
                        attempt += 1;
                        if events.gen_bool(WARM_RESTART_SUCCESS) {
                            revived = true;
                            break;
                        }
                    }
                    if !revived {
                        downtime += Seconds::new(COLD_BOOT_S);
                        cold_boots += 1;
                    }
                    let until = t + downtime;
                    recovering_until = recovering_until.max(until);
                }
                if cursor.seek(t) {
                    now = cruise(&cursor);
                }
                next_event = cursor.next_edge().min(crash_at(next_crash));
                let recovering = t < recovering_until;
                if recovering {
                    next_event = next_event.min(recovering_until.value());
                }
                quiet = !recovering && !cursor.any_active;
            }
            #[cfg(test)]
            cursor.assert_current(t);

            // Commanded safe-stop: land now if finishing is no longer
            // energetically credible above the reserve.
            if let Some(ss) = policy.safe_stop {
                let dist_left = (mission.distance() - covered).max(Meters::new(0.0));
                let needed = dist_left.value() / v_plan.value() * (p_hover + p_compute).value();
                let reserve = ss.reserve_fraction * battery.capacity().value();
                if needed > battery.remaining().value() - reserve {
                    safe_stopped = true;
                    break;
                }
            }

            let mut stale_exposure = false;
            let (v_cmd, p_total) = if quiet {
                (now.v_safe, now.p_fly)
            } else if t < recovering_until {
                (MetersPerSecond::new(0.0), now.p_reboot)
            } else {
                if now.fallback {
                    fallback_time += dt;
                }
                if cursor.any_active && step % 25 == 0 {
                    degraded_latencies_s.push(now.t_react.value());
                }
                let v_cmd = if let Some(since) = cursor.dropout_since {
                    match policy.coast {
                        Some(c) if t - since < c.max_duration => {
                            coast_time += dt;
                            now.v_safe * c.speed_fraction
                        }
                        _ => MetersPerSecond::new(BLIND_CREEP),
                    }
                } else if let Some(since) = cursor.stuck_since {
                    match policy.coast {
                        // Watchdog has flagged the stale stream: coast.
                        Some(c) if t - since >= c.detect_after => {
                            if t - since < c.detect_after + c.max_duration {
                                coast_time += dt;
                                now.v_safe * c.speed_fraction
                            } else {
                                MetersPerSecond::new(BLIND_CREEP)
                            }
                        }
                        // Undetected: full speed on stale frames.
                        _ => {
                            stale_exposure = true;
                            now.v_safe
                        }
                    }
                } else {
                    now.v_safe
                };
                (v_cmd, now.p_fly)
            };

            // Gusts perturb ground speed multiplicatively.
            let v = (v_cmd * (1.0 + gusts.sample())).max(MetersPerSecond::new(0.0));

            // Flying stale perception risks an obstacle strike.
            if stale_exposure {
                let p_hit = (STALE_HAZARD_PER_M * v.value() * dt.value()).clamp(0.0, 1.0);
                if events.gen_bool(p_hit) {
                    crashed = true;
                    time_to_failure = Some(t);
                    break;
                }
            }

            if !battery.draw(p_total, dt) {
                t += dt;
                crashed = true; // fell out of the sky, pack exhausted
                time_to_failure = Some(t);
                break;
            }
            covered += v * dt;
            t += dt;
            replan_accumulator += replan_step;
            while replan_accumulator >= 1.0 {
                replan_accumulator -= 1.0;
                replans += 1;
            }
        }

        let average_speed = if t.value() > 0.0 { covered / t } else { MetersPerSecond::new(0.0) };
        FaultedOutcome {
            mission: MissionOutcome {
                completed,
                time: t,
                energy: battery.used().min(battery.capacity()),
                distance: covered.min(mission.distance()),
                average_speed,
                propulsion_power: p_hover,
                compute_power: p_compute,
                replans,
            },
            safe_stopped,
            crashed,
            retries,
            cold_boots,
            coast_time,
            fallback_time,
            time_to_failure,
            degraded_latencies_s,
        }
    }
}

/// The step values [`Uav::fly_degraded`] derives from the fault state,
/// held between fault edges.
struct Cruise {
    /// Effective reaction latency.
    t_react: Seconds,
    /// Perception-limited cruise speed.
    v_safe: MetersPerSecond,
    /// The fallback kernel variant is in use.
    fallback: bool,
    /// Pack draw while flying.
    p_fly: Watts,
    /// Pack draw while the stack restarts.
    p_reboot: Watts,
}

/// Outcome of a fault-injected, policy-mediated flight
/// ([`Uav::fly_degraded`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultedOutcome {
    /// The usual mission metrics (time, energy, distance, ...).
    pub mission: MissionOutcome,
    /// The vehicle commanded a controlled stop on low projected energy.
    pub safe_stopped: bool,
    /// The vehicle was lost: obstacle strike on stale data, or the pack
    /// died mid-air.
    pub crashed: bool,
    /// Warm-restart attempts spent on compute crashes.
    pub retries: u64,
    /// Full cold reboots after exhausted (or absent) retry budgets.
    pub cold_boots: u64,
    /// Time spent coasting on dead reckoning.
    pub coast_time: Seconds,
    /// Time spent on the fallback kernel variant.
    pub fallback_time: Seconds,
    /// Mission time at which the vehicle was lost, if it was.
    pub time_to_failure: Option<Seconds>,
    /// Sampled effective reaction latencies (s) while any fault was
    /// active — the degraded-mode latency distribution.
    pub degraded_latencies_s: Vec<f64>,
}

impl FaultedOutcome {
    /// Mission success: completed, not lost, not stopped short.
    #[must_use]
    pub fn succeeded(&self) -> bool {
        self.mission.completed && !self.crashed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_are_ordered() {
        for pair in ComputeTier::ALL.windows(2) {
            assert!(pair[0].mass() < pair[1].mass());
            assert!(pair[0].power() < pair[1].power());
            assert!(pair[0].plan_latency() > pair[1].plan_latency());
        }
    }

    #[test]
    fn weak_compute_limits_speed() {
        let micro = Uav::new(UavConfig::default().with_tier(ComputeTier::Micro));
        let gpu = Uav::new(UavConfig::default().with_tier(ComputeTier::EmbeddedGpu));
        assert!(micro.safe_speed() < gpu.safe_speed());
        // The GPU tier is mechanically limited, not perception limited.
        assert_eq!(gpu.safe_speed(), UavConfig::default().max_speed);
    }

    #[test]
    fn short_survey_completes_on_all_tiers() {
        for tier in ComputeTier::ALL {
            let uav = Uav::new(UavConfig::default().with_tier(tier));
            let out = uav.fly(&MissionSpec::survey(500.0), 1);
            assert!(out.completed, "tier {tier} failed a short survey");
            assert!(out.energy.value() > 0.0);
            assert!(out.replans > 0);
        }
    }

    #[test]
    fn mission_energy_is_u_shaped_in_tier() {
        // Long survey: the embedded tier should beat both extremes.
        let energies: Vec<f64> = ComputeTier::ALL
            .iter()
            .map(|&tier| {
                Uav::new(UavConfig::default().with_tier(tier))
                    .fly(&MissionSpec::survey(3000.0), 5)
                    .energy_per_meter()
            })
            .collect();
        let micro = energies[0];
        let embedded = energies[1];
        let server = energies[4];
        assert!(embedded < micro, "embedded {embedded} should beat micro {micro}");
        assert!(embedded < server, "embedded {embedded} should beat server {server}");
    }

    #[test]
    fn overprovisioned_compute_fails_long_missions() {
        let long = MissionSpec::survey(6000.0);
        let embedded =
            Uav::new(UavConfig::default().with_tier(ComputeTier::Embedded)).fly(&long, 3);
        let server = Uav::new(UavConfig::default().with_tier(ComputeTier::Server)).fly(&long, 3);
        assert!(embedded.completed, "right-sized compute completes");
        assert!(!server.completed, "over-provisioned compute drains the battery");
        assert!(server.distance < long.distance());
    }

    #[test]
    fn payload_raises_energy_per_meter() {
        let uav = Uav::new(UavConfig::default());
        let light = uav.fly(&MissionSpec::survey(1000.0), 2);
        let heavy = uav.fly(&MissionSpec::delivery(1000.0, 800.0), 2);
        assert!(heavy.energy_per_meter() > light.energy_per_meter());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let uav = Uav::new(UavConfig::default());
        let a = uav.fly(&MissionSpec::survey(800.0), 11);
        let b = uav.fly(&MissionSpec::survey(800.0), 11);
        assert_eq!(a, b);
    }

    #[test]
    fn sensor_dropout_slows_the_mission() {
        use crate::faults::Fault;
        let uav = Uav::new(UavConfig::default());
        let mission = MissionSpec::survey(1000.0);
        let nominal = uav.fly(&mission, 1);
        let degraded = uav
            .fly_degraded(
                &mission,
                &FaultSchedule::new(vec![Fault::SensorDropout {
                    start: Seconds::new(5.0),
                    duration: Seconds::new(20.0),
                }]),
                &DegradationPolicy::none(),
                1,
            )
            .mission;
        assert!(nominal.completed && degraded.completed);
        assert!(
            degraded.time.value() > nominal.time.value() + 15.0,
            "20 s of blind creep costs real time: {} vs {}",
            degraded.time,
            nominal.time
        );
    }

    #[test]
    fn brownout_reduces_safe_speed() {
        use crate::faults::Fault;
        // A tier that is perception-limited even nominally.
        let uav = Uav::new(UavConfig::default().with_tier(ComputeTier::Micro));
        let mission = MissionSpec::survey(500.0).with_gusts(0.0);
        let nominal = uav.fly(&mission, 2);
        let browned = uav
            .fly_degraded(
                &mission,
                &FaultSchedule::new(vec![Fault::ComputeBrownout {
                    start: Seconds::ZERO,
                    duration: Seconds::new(1e6),
                    slowdown: 2.0,
                }]),
                &DegradationPolicy::none(),
                2,
            )
            .mission;
        assert!(browned.time.value() > nominal.time.value() * 1.8, "half the speed, ~2x the time");
    }

    #[test]
    fn long_blind_crawl_can_fail_the_mission() {
        use crate::faults::Fault;
        let uav = Uav::new(UavConfig::default());
        let mission = MissionSpec::survey(3000.0);
        let blinded = uav
            .fly_degraded(
                &mission,
                &FaultSchedule::new(vec![Fault::SensorDropout {
                    start: Seconds::ZERO,
                    duration: Seconds::new(1e6),
                }]),
                &DegradationPolicy::none(),
                3,
            )
            .mission;
        assert!(!blinded.completed, "creeping blind at 0.3 m/s drains the battery first");
    }

    /// The nominal closed loop as it stood before [`Uav::fly`] became a
    /// wrapper over [`Uav::fly_degraded`], kept as a bit-exact oracle.
    fn reference_fly(uav: &Uav, mission: &MissionSpec, seed: u64) -> MissionOutcome {
        let config = uav.config();
        let dt = Seconds::new(0.02);
        let mass = uav.all_up_mass(mission);
        let p_hover = hover_power(mass, config.rotor_disk_area);
        let p_compute = config.tier.power();
        let mut gusts = NoiseSource::new(mission.gust_std(), seed);

        let mut battery = Battery::new(config.battery);
        let mut covered = Meters::new(0.0);
        let mut t = Seconds::ZERO;
        let mut replan_accumulator = 0.0;
        let mut replans = 0u64;
        let plan_rate = config.tier.plan_rate();

        let max_steps = 10_000_000usize;
        let mut completed = false;
        for _ in 0..max_steps {
            if covered >= mission.distance() {
                completed = true;
                break;
            }
            let t_react = config.tier.plan_latency();
            let v_cmd = MetersPerSecond::new(config.sensor_range.value() / (2.0 * t_react.value()))
                .min(config.max_speed);
            let v = (v_cmd * (1.0 + gusts.sample())).max(MetersPerSecond::new(0.0));
            let p_total = p_hover + p_compute;
            if !battery.draw(p_total, dt) {
                t += dt;
                break;
            }
            covered += v * dt;
            t += dt;
            replan_accumulator += plan_rate.value() * dt.value();
            while replan_accumulator >= 1.0 {
                replan_accumulator -= 1.0;
                replans += 1;
            }
        }

        let average_speed = if t.value() > 0.0 { covered / t } else { MetersPerSecond::new(0.0) };
        MissionOutcome {
            completed,
            time: t,
            energy: battery.used().min(battery.capacity()),
            distance: covered.min(mission.distance()),
            average_speed,
            propulsion_power: p_hover,
            compute_power: p_compute,
            replans,
        }
    }

    /// Bit patterns of every float in an outcome, so `-0.0` and `0.0`
    /// (or two NaNs) cannot pass for each other.
    fn bits(o: &MissionOutcome) -> [u64; 8] {
        [
            u64::from(o.completed),
            o.time.value().to_bits(),
            o.energy.value().to_bits(),
            o.distance.value().to_bits(),
            o.average_speed.value().to_bits(),
            o.propulsion_power.value().to_bits(),
            o.compute_power.value().to_bits(),
            o.replans,
        ]
    }

    #[test]
    fn fly_replays_the_reference_loop_bit_for_bit() {
        let missions = [MissionSpec::survey(600.0), MissionSpec::delivery(900.0, 400.0)];
        for tier in ComputeTier::ALL {
            for range in [12.0, 3.0, 0.3] {
                let mut config = UavConfig::default().with_tier(tier);
                config.sensor_range = Meters::new(range);
                let uav = Uav::new(config);
                for mission in &missions {
                    for gust in [0.0, 0.05, 0.2] {
                        let mission = mission.clone().with_gusts(gust);
                        for seed in [1, 77] {
                            let want = reference_fly(&uav, &mission, seed);
                            let got = uav.fly(&mission, seed);
                            assert_eq!(
                                bits(&got),
                                bits(&want),
                                "{tier} range {range} {} gust {gust} seed {seed}",
                                mission.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fault_cursor_matches_direct_queries_at_every_step() {
        // `fly_degraded` asserts the cursor against the schedule's direct
        // queries on every step of a test build; count that it did.
        let uav = Uav::new(UavConfig::default().with_tier(ComputeTier::Micro));
        let mission = MissionSpec::survey(1500.0);
        let profile = crate::faults::FaultProfile::harsh();
        for seed in 0..6 {
            let schedule = FaultSchedule::sample(&profile, Seconds::new(600.0), seed);
            assert!(schedule.faults().len() > 10, "harsh schedules carry many faults");
            for policy in [DegradationPolicy::none(), DegradationPolicy::full()] {
                let before = crate::faults::CURSOR_CHECKS.with(std::cell::Cell::get);
                let out = uav.fly_degraded(&mission, &schedule, &policy, seed);
                let checked = crate::faults::CURSOR_CHECKS.with(std::cell::Cell::get) - before;
                let steps = (out.mission.time.value() / 0.02).round() as u64;
                // A flight that ends inside a step (safe-stop, strike) has
                // checked one step more than its clock shows.
                assert!(
                    checked == steps || checked == steps + 1,
                    "seed {seed}: {checked} checks over {steps} steps"
                );
            }
        }
    }

    #[test]
    fn awareness_taxes_the_nominal_mission() {
        // On a perception-limited vehicle the 5% monitor overhead shows
        // up as a slightly slower fault-free mission.
        let mut cfg = UavConfig::default().with_tier(ComputeTier::Micro);
        cfg.sensor_range = Meters::new(4.0);
        let uav = Uav::new(cfg);
        let mission = MissionSpec::survey(300.0).with_gusts(0.0);
        let blind =
            uav.fly_degraded(&mission, &FaultSchedule::none(), &DegradationPolicy::none(), 1);
        let aware =
            uav.fly_degraded(&mission, &FaultSchedule::none(), &DegradationPolicy::full(), 1);
        assert!(blind.succeeded() && aware.succeeded());
        assert!(
            aware.mission.time.value() > blind.mission.time.value() * 1.02,
            "monitoring overhead must cost time: {} vs {}",
            aware.mission.time,
            blind.mission.time
        );
    }

    #[test]
    fn coast_outruns_blind_creep_through_a_dropout() {
        use crate::faults::Fault;
        let uav = Uav::new(UavConfig::default());
        let mission = MissionSpec::survey(600.0).with_gusts(0.0);
        let schedule = FaultSchedule::new(vec![Fault::SensorDropout {
            start: Seconds::new(5.0),
            duration: Seconds::new(3.0),
        }]);
        let blind = uav.fly_degraded(&mission, &schedule, &DegradationPolicy::none(), 4);
        let aware = uav.fly_degraded(&mission, &schedule, &DegradationPolicy::full(), 4);
        assert!(aware.coast_time.value() > 2.0, "coast should cover the outage");
        assert_eq!(blind.coast_time, Seconds::ZERO);
        assert!(
            aware.mission.time < blind.mission.time,
            "coasting finishes sooner than creeping: {} vs {}",
            aware.mission.time,
            blind.mission.time
        );
    }

    #[test]
    fn stale_sensor_is_deadly_only_when_undetected() {
        use crate::faults::Fault;
        let uav = Uav::new(UavConfig::default());
        let mission = MissionSpec::survey(2000.0).with_gusts(0.0);
        // A long stuck episode: the blind vehicle flies ~hundreds of
        // meters on stale frames; the aware one detects within 0.5 s.
        let schedule = FaultSchedule::new(vec![Fault::SensorStuck {
            start: Seconds::new(10.0),
            duration: Seconds::new(60.0),
        }]);
        let mut blind_crashes = 0;
        let mut aware_crashes = 0;
        for seed in 0..20 {
            if uav.fly_degraded(&mission, &schedule, &DegradationPolicy::none(), seed).crashed {
                blind_crashes += 1;
            }
            if uav.fly_degraded(&mission, &schedule, &DegradationPolicy::full(), seed).crashed {
                aware_crashes += 1;
            }
        }
        assert!(
            blind_crashes > aware_crashes,
            "stale-data exposure must cost the blind design: {blind_crashes} vs {aware_crashes}"
        );
    }

    #[test]
    fn safe_stop_prevents_midair_battery_death() {
        use crate::faults::Fault;
        // A battery too small for the mission plus a deep sag: the blind
        // vehicle falls out of the sky; the aware one lands on purpose.
        let cfg = UavConfig::default().with_battery(Joules::from_watt_hours(4.0));
        let uav = Uav::new(cfg);
        let mission = MissionSpec::survey(4000.0).with_gusts(0.0);
        let schedule = FaultSchedule::new(vec![Fault::BatterySag {
            start: Seconds::ZERO,
            duration: Seconds::new(1e6),
            efficiency: 0.6,
        }]);
        let blind = uav.fly_degraded(&mission, &schedule, &DegradationPolicy::none(), 5);
        let aware = uav.fly_degraded(&mission, &schedule, &DegradationPolicy::full(), 5);
        assert!(blind.crashed, "blind design drains the pack mid-air");
        assert!(blind.time_to_failure.is_some());
        assert!(aware.safe_stopped, "aware design lands under control");
        assert!(!aware.crashed);
    }

    #[test]
    fn retries_recover_faster_than_cold_boots() {
        use crate::faults::Fault;
        let uav = Uav::new(UavConfig::default());
        let mission = MissionSpec::survey(500.0).with_gusts(0.0);
        let schedule = FaultSchedule::new(vec![
            Fault::ComputeCrash { at: Seconds::new(5.0) },
            Fault::ComputeCrash { at: Seconds::new(15.0) },
        ]);
        let blind = uav.fly_degraded(&mission, &schedule, &DegradationPolicy::none(), 6);
        let aware = uav.fly_degraded(&mission, &schedule, &DegradationPolicy::full(), 6);
        assert_eq!(blind.cold_boots, 2, "no retry budget: every crash is a cold boot");
        assert_eq!(blind.retries, 0);
        assert!(aware.retries >= 2, "aware design attempts warm restarts");
        assert!(
            aware.mission.time < blind.mission.time,
            "warm restarts beat cold boots: {} vs {}",
            aware.mission.time,
            blind.mission.time
        );
    }

    #[test]
    fn degraded_flight_is_deterministic() {
        let uav = Uav::new(UavConfig::default());
        let mission = MissionSpec::survey(700.0);
        let schedule =
            FaultSchedule::sample(&crate::faults::FaultProfile::harsh(), Seconds::new(300.0), 9);
        let a = uav.fly_degraded(&mission, &schedule, &DegradationPolicy::full(), 9);
        let b = uav.fly_degraded(&mission, &schedule, &DegradationPolicy::full(), 9);
        assert_eq!(a, b);
    }

    #[test]
    fn gusts_change_outcome_details_not_success() {
        let uav = Uav::new(UavConfig::default());
        let calm = uav.fly(&MissionSpec::survey(800.0).with_gusts(0.0), 1);
        let windy = uav.fly(&MissionSpec::survey(800.0).with_gusts(0.1), 1);
        assert!(calm.completed && windy.completed);
        assert_ne!(calm.time, windy.time);
    }
}
