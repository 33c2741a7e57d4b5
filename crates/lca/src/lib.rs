//! Lifecycle and carbon analysis for accelerators and autonomous systems.
//!
//! The paper's Challenge 7 ("Design Global") argues that accelerator
//! design must account for embodied manufacturing carbon, operational
//! carbon at deployment scale, and end-of-life reuse. This crate implements
//! an ACT-style accounting model:
//!
//! - [`DieSpec`] — manufacturing carbon from die area, process node,
//!   yield, and packaging.
//! - [`GridIntensity`], [`CarbonFootprint`] — grids, operational emissions, and combined footprints.
//! - [`FleetModel`] — "datacenters on wheels": fleet-scale compute emissions for
//!   autonomous-vehicle deployments.
//! - [`TrainingJob`] — edge-vs-cloud ML training comparison.
//! - [`SystemDesign`] — chiplet/monolithic embodied-carbon comparison with
//!   cross-generation reuse.
//!
//! Experiment E8 regenerates the paper's cited results from these models.
//!
//! # Examples
//!
//! ```
//! use m7_lca::DieSpec;
//! use m7_units::SquareMillimeters;
//!
//! let soc = DieSpec::new(SquareMillimeters::new(100.0), 7.0);
//! let footprint = soc.embodied_carbon();
//! assert!(footprint.value() > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod carbon;
mod chiplet;
mod embodied;
mod fleet;
mod training;

pub use carbon::{operational_carbon, CarbonFootprint, GridIntensity};
pub use chiplet::SystemDesign;
pub use embodied::DieSpec;
pub use fleet::FleetModel;
pub use training::{TrainingJob, TrainingVenue};
