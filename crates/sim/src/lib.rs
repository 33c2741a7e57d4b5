//! End-to-end discrete-event simulation for autonomous systems.
//!
//! This crate is the MAVBench/RoSE-class substrate the paper's Challenge 6
//! ("Forest vs. Trees") and Challenge 4 ("Pump the Brakes") call for: it
//! closes the loop from sensors through compute to actuators and the
//! physical vehicle, so that kernel-level accelerator decisions can be
//! judged by *mission-level* outcomes.
//!
//! - [`des`] — a small deterministic discrete-event engine.
//! - [`sensor`] — rate/payload/noise models for cameras, lidars, IMUs.
//! - [`battery`] — energy storage and the mass-dependent hover-power model.
//! - [`pipeline`] — the sensor → marshalling → kernel → actuation pipeline
//!   with explicit data-movement taxes (the "AI tax").
//! - [`uav`] — a closed-loop point-mass UAV whose safe speed is coupled to
//!   its perception/planning latency and whose endurance is coupled to the
//!   mass and power of its compute tier. [`uav::Uav::fly_degraded`] is its
//!   one step loop, with or without faults.
//! - [`mission`] — mission specifications and outcome metrics.
//!
//! # Examples
//!
//! ```
//! use m7_sim::mission::MissionSpec;
//! use m7_sim::uav::{ComputeTier, Uav, UavConfig};
//!
//! let config = UavConfig::default().with_tier(ComputeTier::Embedded);
//! let uav = Uav::new(config);
//! let outcome = uav.fly(&MissionSpec::survey(1000.0), 99);
//! assert!(outcome.completed);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod battery;
pub mod campaign;
pub mod degrade;
pub mod des;
pub mod faults;
pub mod mission;
pub mod pipeline;
pub mod rover;
pub mod sensor;
pub mod thermal;
pub mod uav;
