//! # m7-flow — typed dataflow-graph runtime
//!
//! The perception → planning → control chain of an autonomous system is
//! not a fixed stage pipeline: sensors tick at different rates, fusion
//! nodes consume the freshest sample rather than every sample, planners
//! apply backpressure, and every node may live on a different piece of
//! silicon. This crate models that chain as a **typed dataflow graph**
//! (after "Dataflow Accelerator Architecture for Autonomous Machine
//! Computing", arXiv 2109.07047):
//!
//! - **Nodes** declare their message types, firing rates, service
//!   models, and deadlines ([`GraphBuilder::source`],
//!   [`GraphBuilder::server`], [`GraphBuilder::sink`]).
//! - **Edges** are bounded queues with explicit [`QueuePolicy`] drop /
//!   backpressure semantics, optional transport latency, and optional
//!   seeded message loss ([`EdgeSpec`], [`LossModel`]).
//! - **Placement**: each node can carry a [`Placement`] — a platform
//!   preset or a spec-DSL text from `m7-arch`, an optional DVFS
//!   operating point, and an optional shared bus site — so service
//!   times reflect the silicon the node runs on, including contention
//!   between co-located nodes.
//! - **Execution** is a deterministic virtual-time event simulation:
//!   events run one at a time in timestamp order with FIFO
//!   tie-breaking ([`EventQueue`]). Sealing and running are both
//!   serial, so reports are **bit-identical at any thread count**.
//!
//! # Example
//!
//! ```
//! use m7_flow::{EdgeSpec, GraphBuilder, MessageType, ServerSpec, Service, SinkSpec, SourceSpec};
//! use m7_par::ParConfig;
//! use m7_units::{Bytes, Hertz, Seconds};
//!
//! struct Frame;
//! impl MessageType for Frame {
//!     const NAME: &'static str = "frame";
//! }
//! struct Command;
//! impl MessageType for Command {
//!     const NAME: &'static str = "command";
//! }
//!
//! let mut g = GraphBuilder::new("demo");
//! let cam = g.source::<Frame>("camera", SourceSpec::new(Hertz::new(30.0), Bytes::new(640.0 * 480.0))).unwrap();
//! let plan = g
//!     .server::<Frame, Command>("planner", ServerSpec::new(Service::fixed(Seconds::from_millis(10.0))))
//!     .unwrap();
//! let out = g.sink::<Command>("control", SinkSpec::new()).unwrap();
//! g.connect(cam, plan, EdgeSpec::queue(2)).unwrap();
//! g.connect(plan, out, EdgeSpec::wire()).unwrap();
//! let graph = g.seal(ParConfig::serial()).unwrap();
//! let report = graph.run(Seconds::new(1.0)).unwrap();
//! assert_eq!(report.node("camera").unwrap().fired, 31); // t = 0, 1/30, …, 30/30
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod graph;
mod message;
mod placement;
mod policy;
mod vtime;

pub use engine::{EdgeReport, GraphReport, NodeKind, NodeReport};
pub use graph::{
    EdgeId, EdgeSpec, FlowError, Graph, GraphBuilder, LossModel, LossSeed, NodeId, ServerSpec,
    Service, SinkSpec, SourceSpec,
};
pub use message::MessageType;
pub use placement::Placement;
pub use policy::QueuePolicy;
pub use vtime::EventQueue;
