//! Plugging a [`Scenario`] into the `m7-sim` closed loops, with a
//! mission deadline so "failure" is well-defined.
//!
//! - **UAV**: the scenario's environment profile (gusts, payload,
//!   sensor derate) and geometry (detour factor from occupancy) shape a
//!   delivery mission over repeated traversals of the world tile; the
//!   vehicle must finish before a deadline set by a reference ground
//!   speed. An under-provisioned tier is perception-limited below that
//!   speed once the sensor derate bites, so it misses the deadline long
//!   before the battery gives out.
//! - **Rover**: the scenario is flattened into a [`m7_kernels::CollisionWorld`]
//!   and patrolled with the real RRT in the loop; planning stalls
//!   (scaled by the compute tier) count against the same kind of
//!   deadline.

use crate::scenario::Scenario;
use m7_sim::uav::{ComputeTier, Uav, UavConfig};
use m7_sim::{MissionSpec, Rover, RoverConfig};
use m7_trace::{MetricClass, SpanSite, TraceCounter};
use m7_units::Meters;

/// Reference ground speed (m/s) that sets the UAV mission deadline:
/// `deadline = mission distance / UAV_DEADLINE_SPEED`.
pub(crate) const UAV_DEADLINE_SPEED: f64 = 4.5;
/// Traversals of the world tile that make up one UAV mission (a survey
/// pattern over the scenario, not a single crossing).
pub(crate) const UAV_LAPS: f64 = 30.0;
/// Reference speed (m/s) over the straight-line start→goal distance
/// that sets the rover deadline.
pub(crate) const ROVER_DEADLINE_SPEED: f64 = 1.1;

static EVALUATE: SpanSite = SpanSite::new("scen.evaluate", MetricClass::Deterministic);
static EVALUATIONS: TraceCounter =
    TraceCounter::new("scen.evaluations", MetricClass::Deterministic);

/// Outcome of one scenario evaluation against one platform tier.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenOutcome {
    /// Mission finished before the deadline.
    pub success: bool,
    /// The vehicle covered the course at all (battery / planner held).
    pub completed: bool,
    /// The course was covered but after the deadline.
    pub deadline_miss: bool,
    /// Elapsed mission time (seconds).
    pub time_s: f64,
    /// The deadline the mission was judged against (seconds).
    pub deadline_s: f64,
    /// Energy drawn (joules).
    pub energy_j: f64,
    /// Distance covered (meters).
    pub distance_m: f64,
}

/// The UAV mission a scenario implies: [`UAV_LAPS`] traversals of the
/// tile stretched by a detour factor from obstacle density, carrying
/// the scenario payload through its gust field.
#[must_use]
pub(crate) fn uav_mission(s: &Scenario) -> MissionSpec {
    let detour = 1.0 + 2.0 * s.occupancy_fraction();
    let distance = s.straight_line() * detour * UAV_LAPS;
    MissionSpec::delivery(distance, s.payload_grams).with_gusts(s.gust_std)
}

/// The UAV configuration a scenario implies for `tier`: the default
/// airframe with its sensing range derated by the scenario's
/// visibility profile.
#[must_use]
pub(crate) fn uav_config(s: &Scenario, tier: ComputeTier) -> UavConfig {
    let base = UavConfig::default();
    UavConfig {
        sensor_range: Meters::new(base.sensor_range.value() * s.sensor_derate),
        tier,
        ..base
    }
}

/// Flies the scenario's UAV mission on `tier`, deterministic in `seed`.
#[must_use]
pub fn evaluate_uav(s: &Scenario, tier: ComputeTier, seed: u64) -> ScenOutcome {
    let _span = EVALUATE.enter();
    EVALUATIONS.incr();
    let mission = uav_mission(s);
    let out = Uav::new(uav_config(s, tier)).fly(&mission, seed);
    let deadline_s = mission.distance().value() / UAV_DEADLINE_SPEED;
    let deadline_miss = out.completed && out.time.value() > deadline_s;
    ScenOutcome {
        success: out.completed && !deadline_miss,
        completed: out.completed,
        deadline_miss,
        time_s: out.time.value(),
        deadline_s,
        energy_j: out.energy.value(),
        distance_m: out.distance.value(),
    }
}

/// Drives the scenario start→goal with the RRT-in-the-loop rover on
/// `tier`, deterministic in `seed`. The deadline charges planning
/// stalls and detours against a 1.1 m/s average speed over the
/// straight-line distance.
#[must_use]
pub fn evaluate_rover(s: &Scenario, tier: ComputeTier, seed: u64) -> ScenOutcome {
    let _span = EVALUATE.enter();
    EVALUATIONS.incr();
    let world = s.collision_world();
    let rover = Rover::new(RoverConfig { tier, ..RoverConfig::default() });
    let out = rover.patrol(&world, s.start, &[s.goal], seed);
    let deadline_s = s.straight_line() / ROVER_DEADLINE_SPEED;
    let deadline_miss = out.completed && out.time.value() > deadline_s;
    ScenOutcome {
        success: out.completed && !deadline_miss,
        completed: out.completed,
        deadline_miss,
        time_s: out.time.value(),
        deadline_s,
        energy_j: out.energy.value(),
        distance_m: out.distance.value(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate;
    use crate::scenario::Family;

    #[test]
    fn uav_mission_scales_with_payload_and_gusts() {
        let easy = generate(Family::Forest, 0.1, 4);
        let hard = generate(Family::Forest, 0.9, 4);
        assert!(uav_mission(&hard).payload_grams() > uav_mission(&easy).payload_grams());
        assert!(uav_mission(&hard).gust_std() > uav_mission(&easy).gust_std());
        assert!(uav_config(&hard, ComputeTier::Micro).sensor_range.value() < 12.0);
    }

    #[test]
    fn adequate_tier_passes_where_micro_misses_the_deadline() {
        let hard = generate(Family::Forest, 0.8, 7);
        let micro = evaluate_uav(&hard, ComputeTier::Micro, 7);
        let embedded = evaluate_uav(&hard, ComputeTier::Embedded, 7);
        assert!(micro.deadline_miss && !micro.success, "micro: {micro:?}");
        assert!(embedded.success, "embedded: {embedded:?}");
        assert!(embedded.time_s < micro.time_s);
    }

    #[test]
    fn easy_scenarios_pass_on_both_tiers() {
        let easy = generate(Family::Corridor, 0.1, 5);
        for tier in [ComputeTier::Micro, ComputeTier::Embedded] {
            let out = evaluate_uav(&easy, tier, 5);
            assert!(out.success, "{tier}: {out:?}");
        }
    }

    #[test]
    fn uav_evaluation_is_deterministic() {
        let s = generate(Family::UrbanCanyon, 0.6, 9);
        let a = evaluate_uav(&s, ComputeTier::Micro, 9);
        let b = evaluate_uav(&s, ComputeTier::Micro, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn rover_feels_the_planning_stall() {
        let s = generate(Family::Corridor, 0.3, 2);
        let micro = evaluate_rover(&s, ComputeTier::Micro, 2);
        let gpu = evaluate_rover(&s, ComputeTier::EmbeddedGpu, 2);
        assert!(gpu.completed && micro.completed, "micro {micro:?} gpu {gpu:?}");
        assert!(
            micro.time_s > gpu.time_s + 10.0,
            "the micro tier stalls on planning: {} vs {}",
            micro.time_s,
            gpu.time_s
        );
        assert!(gpu.success, "gpu {gpu:?}");
        assert!(!micro.success, "micro must blow the deadline: {micro:?}");
    }
}
