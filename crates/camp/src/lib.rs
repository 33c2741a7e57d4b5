//! Streaming mega-campaigns: million-scenario coverage in O(strata)
//! memory.
//!
//! E12's falsification search finds *one* frontier point per tier.
//! The scenario-diversity challenge asks a harder question: across
//! the whole operating envelope — every generator family, every
//! difficulty band — *how often* does a platform tier succeed, and
//! how sure are we? Answering that takes orders of magnitude more
//! closed-loop evaluations than any in-memory grid can hold, so this
//! crate streams them: scenarios are generated, evaluated, and
//! discarded, and only fixed-size statistics survive.
//!
//! - [`CampaignPlan`]: families × difficulty strata ×
//!   tier × budget, plus the deterministic per-stratum seed schedule
//!   (the `m7-par` SplitMix64 scheme, so campaigns are invariant to
//!   thread count and to how many invocations they are resumed
//!   across).
//! - [`StratumSketch`]: mergeable integer sketches per
//!   stratum, Wilson confidence intervals on success curves, and a
//!   scalar coverage score.
//! - [`run_campaign`]: adaptive rounds that pilot
//!   uniformly, then importance-split the remaining budget toward
//!   strata straddling the falsification frontier found by
//!   `m7_scen::falsify`; every fixed-size work unit checkpoints
//!   through an `m7_serve::ResultStore`, so a campaign pointed at a
//!   disk-backed tiered cache survives a kill and resumes with zero
//!   re-evaluation.
//!
//! Experiment E14 reports campaigns for the micro and embedded tiers;
//! `examples/campaign.rs` drives arbitrary budgets from the command
//! line.
//!
//! # Examples
//!
//! ```
//! use m7_camp::{run_campaign, CampaignPlan};
//! use m7_par::ParConfig;
//! use m7_serve::EvalCache;
//! use m7_sim::uav::ComputeTier;
//!
//! let plan = CampaignPlan::new(ComputeTier::Micro, 60);
//! let units = EvalCache::new(256);
//! let falsify = EvalCache::new(256);
//! let out = run_campaign(&plan, 42, ParConfig::default(), &units, &falsify);
//! assert_eq!(out.evaluations, 60);
//! assert_eq!(out.strata.len(), plan.strata());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod plan;
mod stats;

pub use engine::{run_campaign, CampaignOutcome, RoundReport, StratumReport};
pub use plan::CampaignPlan;
pub use stats::StratumSketch;
