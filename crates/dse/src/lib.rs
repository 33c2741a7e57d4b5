//! Design-space exploration for accelerator and system co-design.
//!
//! Implements the "Machine Learning for System Design" opportunity of the
//! paper (§3.1): given a [`DesignSpace`] and an
//! [`Objective`] (typically a mission-level metric from
//! `m7-sim`), search strategies from exhaustive enumeration to
//! surrogate-model-guided acquisition find good designs, and
//! [`pareto_front`] summarizes multi-objective trade-offs.
//!
//! Experiment E9 compares the strategies' sample efficiency.
//!
//! # Examples
//!
//! ```
//! use m7_dse::{DesignSpace, Dimension, Explorer, SearchBudget};
//!
//! let space = DesignSpace::new(vec![
//!     Dimension::new("pe_count", vec![8.0, 16.0, 32.0, 64.0]),
//!     Dimension::new("sram_kib", vec![64.0, 128.0, 256.0]),
//! ]);
//! // A toy cost: prefer 32 PEs and 128 KiB.
//! let cost = |v: &[f64]| (v[0] - 32.0).abs() + (v[1] - 128.0).abs() / 10.0;
//! let best = Explorer::Exhaustive.run(&space, &cost, SearchBudget::new(12), 0);
//! assert_eq!(best.best_values, vec![32.0, 128.0]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod explorer;
mod memo;
mod moga;
mod pareto;
mod space;
mod surrogate;

pub use explorer::{Explorer, Objective, SearchBudget, SearchResult};
pub use memo::EvalMemo;
pub use moga::{nsga2, FrontMember, MultiObjective};
pub use pareto::pareto_front;
pub use space::{DesignSpace, Dimension};
