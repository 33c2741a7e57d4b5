//! A differential-drive ground rover with the *actual* motion planner in
//! the loop.
//!
//! Unlike the UAV model (which abstracts planning into a latency), the
//! rover plans every leg with the real RRT from `m7-kernels`, tracks the
//! smoothed path with pure pursuit, and pays for planning twice: once as
//! stationary time (the vehicle waits on compute, scaled by the compute
//! tier) and once as compute energy. This is the end-to-end loop the
//! paper's Challenge 6 asks designs to be judged in.

use crate::battery::Battery;
use crate::degrade::DegradationPolicy;
use crate::faults::{Fault, FaultSchedule};
use crate::uav::ComputeTier;
use m7_kernels::{normalize_angle, CollisionWorld, Pose2, Rrt, RrtConfig, Vec2};
use m7_units::{Grams, Joules, Meters, MetersPerSecond, Seconds, Watts};
use rand::{Rng, SeedableRng};

/// Blind creep speed on the ground while perception is out.
const ROVER_BLIND_CREEP: f64 = 0.2;
/// Stationary time for a cold reboot of the autonomy stack.
const ROVER_COLD_BOOT_S: f64 = 12.0;
/// Probability one warm restart revives a crashed stack.
const ROVER_WARM_RESTART_SUCCESS: f64 = 0.7;
/// Seed salt for the rover's fault-event RNG.
const ROVER_EVENT_SEED_SALT: u64 = 0x0BE7_ADE0_5EED_0002;

/// Rover chassis and power configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RoverConfig {
    /// Chassis mass excluding compute.
    pub chassis_mass: Grams,
    /// Battery capacity.
    pub battery: Joules,
    /// Rolling-resistance coefficient (dimensionless).
    pub rolling_resistance: f64,
    /// Drivetrain base (idle) power.
    pub base_power: Watts,
    /// Top speed.
    pub max_speed: MetersPerSecond,
    /// Pure-pursuit lookahead distance (meters).
    pub lookahead: f64,
    /// Onboard compute tier (sets planning latency and power).
    pub tier: ComputeTier,
}

impl Default for RoverConfig {
    fn default() -> Self {
        Self {
            chassis_mass: Grams::new(8000.0),
            battery: Joules::from_watt_hours(100.0),
            rolling_resistance: 0.03,
            base_power: Watts::new(8.0),
            max_speed: MetersPerSecond::new(2.0),
            lookahead: 1.0,
            tier: ComputeTier::Embedded,
        }
    }
}

/// Outcome of a patrol run.
#[derive(Debug, Clone, PartialEq)]
pub struct RoverOutcome {
    /// Goals reached before the battery died or planning failed.
    pub goals_reached: usize,
    /// Total elapsed time (driving + planning).
    pub time: Seconds,
    /// Time spent stationary waiting for the planner.
    pub planning_time: Seconds,
    /// Total energy drawn.
    pub energy: Joules,
    /// Distance actually driven.
    pub distance: Meters,
    /// `true` if every goal was reached.
    pub completed: bool,
}

impl RoverOutcome {
    /// Fraction of mission time spent waiting on compute.
    #[must_use]
    pub fn planning_fraction(&self) -> f64 {
        if self.time.value() <= 0.0 {
            return 0.0;
        }
        self.planning_time / self.time
    }
}

/// The closed-loop rover simulator.
///
/// # Examples
///
/// ```
/// use m7_kernels::{CollisionWorld, Vec2};
/// use m7_sim::{Rover, RoverConfig};
///
/// let world = CollisionWorld::new(20.0, 20.0);
/// let rover = Rover::new(RoverConfig::default());
/// let outcome = rover.patrol(&world, Vec2::new(1.0, 1.0), &[Vec2::new(18.0, 18.0)], 7);
/// assert!(outcome.completed);
/// ```
#[derive(Debug, Clone)]
pub struct Rover {
    config: RoverConfig,
}

impl Rover {
    /// Creates a rover from its configuration.
    #[must_use]
    pub fn new(config: RoverConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &RoverConfig {
        &self.config
    }

    /// Drive power at speed `v`: rolling resistance plus drivetrain base.
    #[must_use]
    pub(crate) fn drive_power(&self, v: MetersPerSecond) -> Watts {
        const G: f64 = 9.81;
        let mass_kg = (self.config.chassis_mass + self.config.tier.mass()).to_kilograms().value();
        Watts::new(self.config.rolling_resistance * mass_kg * G * v.value())
            + self.config.base_power
    }

    /// Patrols from `start` through every goal in order, planning each leg
    /// with RRT and tracking it with pure pursuit. Deterministic in `seed`.
    ///
    /// This is the fault-free case of the one patrol loop that fault
    /// campaigns also drive: an empty schedule and
    /// [`DegradationPolicy::none`], where every fault factor is exactly 1.
    #[must_use]
    pub fn patrol(
        &self,
        world: &CollisionWorld,
        start: Vec2,
        goals: &[Vec2],
        seed: u64,
    ) -> RoverOutcome {
        let (none, blind) = (FaultSchedule::none(), DegradationPolicy::none());
        self.patrol_degraded(world, start, goals, &none, &blind, seed).outcome
    }

    /// Patrols under a fault schedule while consulting a
    /// [`DegradationPolicy`], deterministic in `seed`. This is the rover's
    /// one closed loop; [`Rover::patrol`] and experiment E12 run it.
    ///
    /// Each leg is planned with RRT while the rover stands still, then
    /// tracked with pure pursuit in 50 ms steps; a leg that has not
    /// reached its goal after 200 000 steps ends the patrol.
    ///
    /// A ground vehicle degrades differently from a UAV: stopping is
    /// always safe, so crashes and outages cost *time and energy* rather
    /// than the vehicle. Compute crashes park the rover while the stack
    /// restarts (warm retries if enabled, else a cold boot); sensor
    /// dropouts are crept through blind or coasted on dead reckoning;
    /// brownouts stretch the stationary planning stalls (the fallback
    /// kernel shrinks them); battery sag inflates every draw; and a
    /// safe-stop policy parks the rover once the reserve is reached
    /// instead of stranding it mid-leg.
    #[must_use]
    pub(crate) fn patrol_degraded(
        &self,
        world: &CollisionWorld,
        start: Vec2,
        goals: &[Vec2],
        faults: &FaultSchedule,
        policy: &DegradationPolicy,
        seed: u64,
    ) -> DegradedPatrolOutcome {
        let dt = Seconds::new(0.05);
        let mut battery = Battery::new(self.config.battery);
        let mut pose = Pose2::new(start, 0.0);
        let mut time = Seconds::ZERO;
        let mut planning_time = Seconds::ZERO;
        let mut distance = Meters::new(0.0);
        let mut goals_reached = 0usize;
        let compute_power: Watts = self.config.tier.power();
        let overhead = policy.monitor_overhead();
        let mut events = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ ROVER_EVENT_SEED_SALT);

        let mut crash_times: Vec<Seconds> = faults
            .faults()
            .iter()
            .filter_map(|f| match f {
                Fault::ComputeCrash { at } => Some(*at),
                _ => None,
            })
            .collect();
        crash_times.sort_by(|a, b| a.value().partial_cmp(&b.value()).expect("finite crashes"));
        let mut next_crash = 0usize;
        let mut retries = 0u64;
        let mut cold_boots = 0u64;
        let mut coast_time = Seconds::ZERO;
        let mut safe_stopped = false;

        'mission: for (leg, &goal) in goals.iter().enumerate() {
            let planner = Rrt::new(RrtConfig::default(), seed ^ (leg as u64) << 8);
            let Some(raw) = planner.plan(world, pose.position, goal) else {
                break;
            };
            let path = raw.shortcut(world);
            // A full leg plan costs about 20 replans. Brownouts stretch the
            // planning stall; the fallback kernel shrinks it (and its power)
            // at no safety cost on the ground.
            let slowdown = faults.compute_slowdown(time);
            let stressed = slowdown >= 1.5 || faults.battery_efficiency(time) < 1.0;
            let (lat_scale, p_plan) = if policy.kernel_fallback && stressed {
                (0.5 * slowdown, compute_power * 0.35)
            } else {
                (slowdown, compute_power)
            };
            let plan_cost = self.config.tier.plan_latency() * 20.0 * lat_scale * overhead;
            planning_time += plan_cost;
            time += plan_cost;
            let eff = faults.battery_efficiency(time);
            let p_stall = Watts::new((p_plan + self.config.base_power).value() / eff);
            if !battery.draw(p_stall, plan_cost) {
                break;
            }

            let mut s = 0.0f64; // arc-length progress of the lookahead point
            let max_steps = 200_000;
            for _ in 0..max_steps {
                if pose.position.distance(goal) < 0.5 {
                    goals_reached += 1;
                    continue 'mission;
                }
                // Park for stack restarts.
                while next_crash < crash_times.len() && crash_times[next_crash] <= time {
                    next_crash += 1;
                    let mut downtime = Seconds::ZERO;
                    let mut revived = false;
                    let mut attempt = 0u32;
                    while let Some(cost) = policy.retry_cost(attempt) {
                        downtime += cost;
                        retries += 1;
                        attempt += 1;
                        if events.gen_bool(ROVER_WARM_RESTART_SUCCESS) {
                            revived = true;
                            break;
                        }
                    }
                    if !revived {
                        downtime += Seconds::new(ROVER_COLD_BOOT_S);
                        cold_boots += 1;
                    }
                    time += downtime;
                    if !battery.draw(self.config.base_power, downtime) {
                        break 'mission;
                    }
                }
                // Park for good once the reserve is reached.
                if let Some(ss) = policy.safe_stop {
                    if battery.state_of_charge() <= ss.reserve_fraction {
                        safe_stopped = true;
                        break 'mission;
                    }
                }
                while s < path.length()
                    && path.point_at(s).distance(pose.position) < self.config.lookahead
                {
                    s += self.config.lookahead * 0.25;
                }
                let carrot = path.point_at(s.min(path.length()));
                let to_carrot = carrot - pose.position;
                let heading_error = normalize_angle(to_carrot.angle() - pose.heading);
                let v_track = self.config.max_speed
                    * (1.0 - 0.7 * (heading_error.abs() / core::f64::consts::PI));
                // Perception outages cap speed: coast or creep.
                let v = if let Some(since) = faults.dropout_since(time) {
                    match policy.coast {
                        Some(c) if time - since < c.max_duration => {
                            coast_time += dt;
                            v_track * c.speed_fraction
                        }
                        _ => v_track.min(MetersPerSecond::new(ROVER_BLIND_CREEP)),
                    }
                } else {
                    v_track
                };
                let omega = 2.5 * heading_error;
                let step = v * dt;
                pose = Pose2::new(
                    pose.position + pose.forward() * step.value(),
                    pose.heading + omega * dt.value(),
                );
                distance += step;
                time += dt;
                let eff = faults.battery_efficiency(time);
                let p = Watts::new((self.drive_power(v) + compute_power).value() / eff);
                if !battery.draw(p, dt) {
                    break 'mission;
                }
            }
            // Tracking stalled (should not happen on valid paths).
            break;
        }

        DegradedPatrolOutcome {
            outcome: RoverOutcome {
                goals_reached,
                time,
                planning_time,
                energy: battery.used().min(battery.capacity()),
                distance,
                completed: goals_reached == goals.len(),
            },
            safe_stopped,
            retries,
            cold_boots,
            coast_time,
        }
    }
}

/// Outcome of a fault-injected, policy-mediated patrol
/// ([`Rover::patrol_degraded`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DegradedPatrolOutcome {
    /// The usual patrol metrics.
    pub outcome: RoverOutcome,
    /// The rover parked on reserve charge instead of stranding mid-leg.
    pub safe_stopped: bool,
    /// Warm-restart attempts spent on compute crashes.
    pub retries: u64,
    /// Cold reboots after exhausted (or absent) retry budgets.
    pub cold_boots: u64,
    /// Time spent coasting on dead reckoning.
    pub coast_time: Seconds,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open_world() -> CollisionWorld {
        CollisionWorld::new(30.0, 30.0)
    }

    #[test]
    fn reaches_single_goal_in_open_world() {
        let rover = Rover::new(RoverConfig::default());
        let out = rover.patrol(&open_world(), Vec2::new(2.0, 2.0), &[Vec2::new(25.0, 25.0)], 1);
        assert!(out.completed, "open-world patrol must succeed: {out:?}");
        assert!(out.distance.value() > 30.0, "diagonal is ~32.5 m");
        assert!(out.energy.value() > 0.0);
    }

    #[test]
    fn multi_goal_patrol() {
        let mut world = CollisionWorld::new(30.0, 30.0);
        world.add_rect(Vec2::new(12.0, 5.0), Vec2::new(14.0, 25.0));
        let rover = Rover::new(RoverConfig::default());
        let goals = [Vec2::new(25.0, 5.0), Vec2::new(25.0, 28.0), Vec2::new(2.0, 28.0)];
        let out = rover.patrol(&world, Vec2::new(2.0, 2.0), &goals, 2);
        assert_eq!(out.goals_reached, 3);
        assert!(out.completed);
        assert!(out.planning_time.value() > 0.0);
    }

    #[test]
    fn weak_compute_spends_more_time_planning() {
        let world = open_world();
        let goals = [Vec2::new(28.0, 28.0)];
        let fast =
            Rover::new(RoverConfig { tier: ComputeTier::EmbeddedGpu, ..RoverConfig::default() })
                .patrol(&world, Vec2::new(1.0, 1.0), &goals, 3);
        let slow = Rover::new(RoverConfig { tier: ComputeTier::Micro, ..RoverConfig::default() })
            .patrol(&world, Vec2::new(1.0, 1.0), &goals, 3);
        assert!(slow.planning_fraction() > fast.planning_fraction());
        assert!(slow.time > fast.time, "waiting on compute slows the mission");
    }

    #[test]
    fn dead_battery_aborts() {
        let config = RoverConfig {
            battery: Joules::new(200.0), // tiny
            ..RoverConfig::default()
        };
        let out = Rover::new(config).patrol(
            &open_world(),
            Vec2::new(1.0, 1.0),
            &[Vec2::new(28.0, 28.0)],
            4,
        );
        assert!(!out.completed);
        assert!(out.distance.value() < 40.0);
    }

    #[test]
    fn unreachable_goal_fails_cleanly() {
        let mut world = CollisionWorld::new(20.0, 20.0);
        world.add_rect(Vec2::new(9.0, 0.0), Vec2::new(11.0, 20.0)); // full wall
        let out = Rover::new(RoverConfig::default()).patrol(
            &world,
            Vec2::new(2.0, 10.0),
            &[Vec2::new(18.0, 10.0)],
            5,
        );
        assert!(!out.completed);
        assert_eq!(out.goals_reached, 0);
    }

    #[test]
    fn drive_power_grows_with_speed_and_mass() {
        let rover = Rover::new(RoverConfig::default());
        let slow = rover.drive_power(MetersPerSecond::new(0.5));
        let fast = rover.drive_power(MetersPerSecond::new(2.0));
        assert!(fast > slow);
        let heavy = Rover::new(RoverConfig {
            chassis_mass: Grams::new(20_000.0),
            ..RoverConfig::default()
        });
        assert!(heavy.drive_power(MetersPerSecond::new(2.0)) > fast);
    }

    /// The nominal patrol loop as it stood before [`Rover::patrol`] became
    /// a wrapper over [`Rover::patrol_degraded`], kept as a bit-exact
    /// oracle.
    fn reference_patrol(
        rover: &Rover,
        world: &CollisionWorld,
        start: Vec2,
        goals: &[Vec2],
        seed: u64,
    ) -> RoverOutcome {
        let config = rover.config();
        let dt = Seconds::new(0.05);
        let mut battery = Battery::new(config.battery);
        let mut pose = Pose2::new(start, 0.0);
        let mut time = Seconds::ZERO;
        let mut planning_time = Seconds::ZERO;
        let mut distance = Meters::new(0.0);
        let mut goals_reached = 0usize;
        let compute_power: Watts = config.tier.power();

        'mission: for (leg, &goal) in goals.iter().enumerate() {
            let planner = Rrt::new(RrtConfig::default(), seed ^ (leg as u64) << 8);
            let Some(raw) = planner.plan(world, pose.position, goal) else {
                break;
            };
            let path = raw.shortcut(world);
            let plan_cost = config.tier.plan_latency() * 20.0;
            planning_time += plan_cost;
            time += plan_cost;
            if !battery.draw(compute_power + config.base_power, plan_cost) {
                break;
            }

            let mut s = 0.0f64;
            for _ in 0..200_000 {
                if pose.position.distance(goal) < 0.5 {
                    goals_reached += 1;
                    continue 'mission;
                }
                while s < path.length()
                    && path.point_at(s).distance(pose.position) < config.lookahead
                {
                    s += config.lookahead * 0.25;
                }
                let carrot = path.point_at(s.min(path.length()));
                let to_carrot = carrot - pose.position;
                let heading_error = normalize_angle(to_carrot.angle() - pose.heading);
                let v =
                    config.max_speed * (1.0 - 0.7 * (heading_error.abs() / core::f64::consts::PI));
                let omega = 2.5 * heading_error;
                let step = v * dt;
                pose = Pose2::new(
                    pose.position + pose.forward() * step.value(),
                    pose.heading + omega * dt.value(),
                );
                distance += step;
                time += dt;
                let p = rover.drive_power(v) + compute_power;
                if !battery.draw(p, dt) {
                    break 'mission;
                }
            }
            break;
        }

        RoverOutcome {
            goals_reached,
            time,
            planning_time,
            energy: battery.used().min(battery.capacity()),
            distance,
            completed: goals_reached == goals.len(),
        }
    }

    #[test]
    fn patrol_replays_the_reference_loop_bit_for_bit() {
        let bits = |o: &RoverOutcome| {
            [
                o.goals_reached as u64,
                o.time.value().to_bits(),
                o.planning_time.value().to_bits(),
                o.energy.value().to_bits(),
                o.distance.value().to_bits(),
                u64::from(o.completed),
            ]
        };
        let mut walled = CollisionWorld::new(30.0, 30.0);
        walled.add_rect(Vec2::new(12.0, 5.0), Vec2::new(14.0, 25.0));
        let mut blocked = CollisionWorld::new(20.0, 20.0);
        blocked.add_rect(Vec2::new(9.0, 0.0), Vec2::new(11.0, 20.0));
        let cases: [(&CollisionWorld, Vec2, &[Vec2]); 4] = [
            (&walled, Vec2::new(2.0, 2.0), &[Vec2::new(25.0, 5.0), Vec2::new(25.0, 28.0)]),
            (&walled, Vec2::new(1.0, 1.0), &[Vec2::new(2.0, 28.0)]),
            (&blocked, Vec2::new(2.0, 10.0), &[Vec2::new(18.0, 10.0)]),
            (&blocked, Vec2::new(2.0, 2.0), &[Vec2::new(5.0, 18.0), Vec2::new(2.0, 2.0)]),
        ];
        let tiny = RoverConfig { battery: Joules::new(300.0), ..RoverConfig::default() };
        let micro = RoverConfig { tier: ComputeTier::Micro, ..RoverConfig::default() };
        for config in [RoverConfig::default(), tiny, micro] {
            let rover = Rover::new(config);
            for (i, &(world, start, goals)) in cases.iter().enumerate() {
                for seed in [3, 11] {
                    let want = reference_patrol(&rover, world, start, goals, seed);
                    let got = rover.patrol(world, start, goals, seed);
                    assert_eq!(bits(&got), bits(&want), "case {i} seed {seed}");
                }
            }
        }
    }

    #[test]
    fn crashes_cost_the_blind_rover_more_time() {
        let world = open_world();
        let rover = Rover::new(RoverConfig::default());
        let goals = [Vec2::new(25.0, 25.0)];
        let schedule = FaultSchedule::new(vec![
            Fault::ComputeCrash { at: Seconds::new(4.0) },
            Fault::ComputeCrash { at: Seconds::new(9.0) },
        ]);
        let blind = rover.patrol_degraded(
            &world,
            Vec2::new(2.0, 2.0),
            &goals,
            &schedule,
            &DegradationPolicy::none(),
            8,
        );
        let aware = rover.patrol_degraded(
            &world,
            Vec2::new(2.0, 2.0),
            &goals,
            &schedule,
            &DegradationPolicy::full(),
            8,
        );
        assert!(blind.outcome.completed && aware.outcome.completed);
        assert_eq!(blind.cold_boots, 2);
        assert!(aware.retries >= 2);
        assert!(
            aware.outcome.time < blind.outcome.time,
            "warm restarts park the rover for less time: {} vs {}",
            aware.outcome.time,
            blind.outcome.time
        );
    }

    #[test]
    fn safe_stop_parks_on_reserve() {
        let config = RoverConfig {
            battery: Joules::new(800.0), // not enough for the long patrol
            ..RoverConfig::default()
        };
        let rover = Rover::new(config);
        let goals = [Vec2::new(28.0, 28.0), Vec2::new(2.0, 28.0), Vec2::new(28.0, 2.0)];
        let aware = rover.patrol_degraded(
            &open_world(),
            Vec2::new(1.0, 1.0),
            &goals,
            &FaultSchedule::none(),
            &DegradationPolicy::full(),
            10,
        );
        assert!(!aware.outcome.completed);
        assert!(aware.safe_stopped, "the rover should park on reserve, not strand");
        assert!(aware.outcome.energy < Joules::new(800.0));
    }

    #[test]
    fn degraded_patrol_is_deterministic() {
        let world = open_world();
        let rover = Rover::new(RoverConfig::default());
        let goals = [Vec2::new(20.0, 25.0)];
        let schedule =
            FaultSchedule::sample(&crate::faults::FaultProfile::harsh(), Seconds::new(120.0), 3);
        let a = rover.patrol_degraded(
            &world,
            Vec2::new(1.0, 1.0),
            &goals,
            &schedule,
            &DegradationPolicy::full(),
            3,
        );
        let b = rover.patrol_degraded(
            &world,
            Vec2::new(1.0, 1.0),
            &goals,
            &schedule,
            &DegradationPolicy::full(),
            3,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn deterministic() {
        let world = open_world();
        let rover = Rover::new(RoverConfig::default());
        let a = rover.patrol(&world, Vec2::new(1.0, 1.0), &[Vec2::new(20.0, 25.0)], 9);
        let b = rover.patrol(&world, Vec2::new(1.0, 1.0), &[Vec2::new(20.0, 25.0)], 9);
        assert_eq!(a, b);
    }
}
