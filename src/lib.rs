//! # magseven
//!
//! An end-to-end **domain-specific accelerator design and evaluation
//! framework for autonomous systems**, reproducing the framework called for
//! by *"The Magnificent Seven Challenges and Opportunities in Domain-Specific
//! Accelerator Design for Autonomous Systems"* (DAC 2024).
//!
//! This facade crate re-exports every subsystem:
//!
//! - [`units`] — physical-quantity newtypes ([`m7_units`])
//! - [`kernels`] — executable autonomy kernels ([`m7_kernels`])
//! - [`arch`] — platform and cost models ([`m7_arch`])
//! - [`sim`] — end-to-end closed-loop simulator ([`m7_sim`])
//! - [`flow`] — typed dataflow-graph runtime for multi-rate
//!   perception → planning → control pipelines ([`m7_flow`])
//! - [`dse`] — design-space exploration ([`m7_dse`])
//! - [`lca`] — lifecycle/carbon analysis ([`m7_lca`])
//! - [`suite`] — benchmark suite and experiments E1..E15 ([`m7_suite`])
//! - [`par`] — deterministic parallel runtime ([`m7_par`])
//! - [`scen`] — procedural scenario generation, scenario DSL, and
//!   adversarial falsification ([`m7_scen`])
//! - [`camp`] — streaming mega-campaigns: stratified sampling,
//!   importance splitting, mergeable coverage sketches ([`m7_camp`])
//! - [`serve`] — memoizing evaluation service: content-addressed result
//!   cache, request batcher, loopback server ([`m7_serve`])
//! - [`trace`] — structured tracing, metrics & profiling: spans, typed
//!   counters/histograms, chrome://tracing export ([`m7_trace`])
//!
//! ## Quickstart
//!
//! ```
//! use magseven::prelude::*;
//!
//! // Describe a candidate platform and a workload, then evaluate it.
//! let platform = Platform::preset(PlatformKind::CpuSimd);
//! let workload = KernelProfile::gemv(256, 256);
//! let cost = platform.estimate(&workload);
//! assert!(cost.latency > Seconds::ZERO);
//! ```

#![forbid(unsafe_code)]

/// The README's Rust examples, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

pub use m7_arch as arch;
pub use m7_bench as bench;
pub use m7_camp as camp;
pub use m7_dse as dse;
pub use m7_flow as flow;
pub use m7_kernels as kernels;
pub use m7_lca as lca;
pub use m7_par as par;
pub use m7_scen as scen;
pub use m7_serve as serve;
pub use m7_sim as sim;
pub use m7_suite as suite;
pub use m7_trace as trace;
pub use m7_units as units;

/// Commonly used types from every subsystem, for glob import.
pub mod prelude {
    pub use m7_arch::{
        dvfs::OperatingPoint,
        parse_platform,
        platform::{Platform, PlatformKind, Specialization},
        workload::{KernelFamily, KernelProfile},
        AcceleratorConfig, CostEstimate, Roofline, SharedBus,
    };
    pub use m7_camp::{run_campaign, CampaignOutcome, CampaignPlan, StratumSketch};
    pub use m7_dse::{nsga2, pareto_front, DesignSpace, Explorer, SearchBudget};
    pub use m7_flow::{
        EdgeSpec, FlowError, GraphBuilder, GraphReport, LossModel, MessageType, Placement,
        QueuePolicy, ServerSpec, Service, SinkSpec, SourceSpec,
    };
    pub use m7_kernels::{
        astar, AstarConfig, CollisionWorld, EkfSlam, Lqr, Mlp, ParticleFilter, Pid, Pose2,
        PoseGraph, Precision, Prm, PrmConfig, Rrt, RrtConfig, RrtStar, TrapezoidalProfile, Vec2,
        Vec3,
    };
    pub use m7_lca::{CarbonFootprint, DieSpec, FleetModel, GridIntensity};
    pub use m7_par::ParConfig;
    pub use m7_scen::{
        evaluate_rover, evaluate_uav, falsify, generate, Falsification, FalsifyConfig, Family,
        ScenOutcome, Scenario,
    };
    pub use m7_serve::{
        evaluate_batch_memo, CacheKey, CacheStats, EvalCache, EvalClient, EvalRequest, EvalServer,
        ServeConfig,
    };
    pub use m7_sim::{
        uav::{ComputeTier, Uav, UavConfig},
        CampaignConfig, CampaignRunner, DegradationPolicy, Fault, FaultProfile, FaultSchedule,
        MissionOutcome, MissionSpec, RobustnessReport, Rover, RoverConfig, ThermalConfig,
        ThermalState,
    };
    pub use m7_suite::{experiments::ExperimentId, Challenge, Report};
    pub use m7_units::{
        Grams, GramsCo2e, Hertz, Joules, Meters, MetersPerSecond, Ops, OpsPerSecond, Seconds,
        SquareMillimeters, Watts,
    };
}
