//! Procedural scenario generation and adversarial scenario search.
//!
//! Autonomy stacks are judged in closed loop, and closed loops need
//! *worlds*. This crate makes scenario supply a first-class subsystem:
//!
//! - [`generate`] — deterministic, seeded procedural generators for
//!   six parametric families (corridor, maze, random forest, urban
//!   canyon, moving obstacles, multi-room indoor), each emitting a
//!   typed [`Scenario`] with
//!   an occupancy grid, start/goal, an environment profile (gusts,
//!   payload, sensor derate), and a computed difficulty score.
//! - [`render_scenario`] / [`parse_scenario`] — a compact textual DSL
//!   mirroring `m7_arch::spec`, so scenarios round-trip to and from text
//!   bit-exactly.
//! - [`evaluate_uav`] / [`evaluate_rover`] — couplings into the existing `m7-sim` closed loops: the
//!   UAV mission loop and the RRT-in-the-loop rover, each with a
//!   mission deadline that makes "failure" crisp.
//! - [`falsify()`] — adversarial search that reuses the `m7-dse` explorer
//!   over scenario-parameter space to find the *easiest* scenario that
//!   breaks a platform tier, memoized via `m7-serve` and fanned out by
//!   the deterministic `m7-par` pool.
//!
//! Everything is deterministic in its seed and invariant to
//! `M7_THREADS`, so experiment E12's reports are byte-stable.
//!
//! # Examples
//!
//! ```
//! use m7_scen::{generate, Family};
//! use m7_sim::uav::ComputeTier;
//!
//! let scenario = generate(Family::Forest, 0.5, 7);
//! assert!(!scenario.point_blocked(scenario.start));
//! let outcome = m7_scen::evaluate_uav(&scenario, ComputeTier::Embedded, 7);
//! assert!(outcome.success);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod dsl;
mod eval;
mod falsify;
mod generator;
mod scenario;

pub use dsl::{parse_scenario, render_scenario, ParseScenarioError, ScenErrorKind};
pub use eval::{evaluate_rover, evaluate_uav, ScenOutcome};
pub use falsify::{falsify, falsify_memo, Falsification, FalsifyConfig, FrontierPoint};
pub use generator::generate;
pub use scenario::{CircleObs, Family, Mover, RectObs, Scenario};
