//! End-to-end discrete-event simulation for autonomous systems.
//!
//! This crate is the MAVBench/RoSE-class substrate the paper's Challenge 6
//! ("Forest vs. Trees") and Challenge 4 ("Pump the Brakes") call for: it
//! closes the loop from sensors through compute to actuators and the
//! physical vehicle, so that kernel-level accelerator decisions can be
//! judged by *mission-level* outcomes.
//!
//! - [`SensorSpec`] — rate/payload/noise models for cameras, lidars, IMUs.
//! - [`Battery`] — energy storage and the mass-dependent hover-power model.
//! - [`pipeline`] — the sensor → marshalling → kernel → actuation pipeline
//!   with explicit data-movement taxes (the "AI tax").
//! - [`uav`] — a closed-loop point-mass UAV whose safe speed is coupled to
//!   its perception/planning latency and whose endurance is coupled to the
//!   mass and power of its compute tier. [`uav::Uav::fly_degraded`] is its
//!   one step loop, with or without faults.
//! - [`MissionSpec`], [`MissionOutcome`] — mission specifications and outcome metrics.
//!
//! # Examples
//!
//! ```
//! use m7_sim::MissionSpec;
//! use m7_sim::uav::{ComputeTier, Uav, UavConfig};
//!
//! let config = UavConfig::default().with_tier(ComputeTier::Embedded);
//! let uav = Uav::new(config);
//! let outcome = uav.fly(&MissionSpec::survey(1000.0), 99);
//! assert!(outcome.completed);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod battery;
mod campaign;
mod degrade;
mod faults;
mod mission;
pub mod pipeline;
mod rover;
mod sensor;
mod thermal;
pub mod uav;

pub use battery::Battery;
pub use campaign::{CampaignConfig, CampaignRunner, RobustnessReport};
pub use degrade::{CoastPolicy, DegradationPolicy, RetryPolicy, SafeStopPolicy};
pub use faults::{Fault, FaultProfile, FaultSchedule};
pub use mission::{MissionOutcome, MissionSpec};
pub use rover::{Rover, RoverConfig, RoverOutcome};
pub use sensor::{SensorKind, SensorSpec};
pub use thermal::{ThermalConfig, ThermalState};
