//! Graph construction: typed nodes, bounded edges, placement, and the
//! seal step that turns declarations into a runnable [`Graph`].

use crate::message::{MessageType, PortType};
use crate::placement::Placement;
use crate::policy::QueuePolicy;
use m7_arch::spec::ParseSpecError;
use m7_arch::workload::KernelProfile;
use m7_par::ParConfig;
use m7_units::{Bytes, BytesPerSecond, Hertz, Seconds};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Handle to a declared node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) usize);

/// Handle to a declared edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeId(pub(crate) usize);

/// How long one service invocation takes on the node's placement.
#[derive(Debug, Clone)]
pub enum Service {
    /// A fixed modeled latency, independent of placement.
    Fixed(Seconds),
    /// A kernel profile costed on the node's (DVFS-scaled) platform via
    /// the roofline estimator. Requires a [`Placement`].
    Kernel(KernelProfile),
}

impl Service {
    /// A fixed modeled service time.
    #[must_use]
    pub fn fixed(latency: Seconds) -> Self {
        Self::Fixed(latency)
    }

    /// A kernel-profile service costed on the node's placement.
    #[must_use]
    pub fn kernel(profile: KernelProfile) -> Self {
        Self::Kernel(profile)
    }
}

/// Declaration of a source node: fires at a fixed rate, emitting one
/// message of `payload` bytes per firing.
#[derive(Debug, Clone)]
pub struct SourceSpec {
    pub(crate) rate: Hertz,
    pub(crate) payload: Bytes,
}

impl SourceSpec {
    /// A source firing at `rate` with `payload` bytes per message.
    #[must_use]
    pub fn new(rate: Hertz, payload: Bytes) -> Self {
        Self { rate, payload }
    }
}

/// Declaration of a server node: a single-server queueing station with
/// a service model, an output payload, and an optional deadline.
#[derive(Debug, Clone)]
pub struct ServerSpec {
    pub(crate) service: Service,
    pub(crate) output: Bytes,
    pub(crate) speedup: f64,
    pub(crate) deadline: Option<Seconds>,
}

impl ServerSpec {
    /// A server with the given service model, a 64-byte output payload,
    /// no speedup, and no deadline.
    #[must_use]
    pub fn new(service: Service) -> Self {
        Self { service, output: Bytes::new(64.0), speedup: 1.0, deadline: None }
    }

    /// Sets the output message payload in bytes.
    #[must_use]
    pub fn output_bytes(mut self, output: Bytes) -> Self {
        self.output = output;
        self
    }

    /// Applies an idealized accelerator speedup to the service time.
    #[must_use]
    pub fn speedup(mut self, factor: f64) -> Self {
        self.speedup = factor;
        self
    }

    /// Declares a completion deadline, measured from the triggering
    /// message's birth to service completion.
    #[must_use]
    pub fn deadline(mut self, deadline: Seconds) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Declaration of a sink node: records every received message.
#[derive(Debug, Clone, Default)]
pub struct SinkSpec {
    pub(crate) deadline: Option<Seconds>,
}

impl SinkSpec {
    /// A sink with no deadline.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares an end-to-end deadline, measured from the message's
    /// birth at its source to arrival at this sink.
    #[must_use]
    pub fn deadline(mut self, deadline: Seconds) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// When a lossy edge draws its RNG stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossSeed {
    /// Seeded from the run seed and the edge's index via
    /// `m7_par::derive_seed` — different edges get independent streams.
    Derived,
    /// Seeded from this exact value, ignoring the run seed (used by the
    /// legacy pipeline compatibility layer to reproduce its historical
    /// stream bit for bit).
    Fixed(u64),
}

/// Probabilistic in-transport message loss on an edge.
///
/// The loss probability may vary with virtual time (fault windows); the
/// RNG is only consulted when the probability is strictly positive, so
/// a schedule that is quiet at a message's timestamp consumes no
/// randomness.
#[derive(Clone)]
pub struct LossModel {
    pub(crate) rate: Arc<dyn Fn(Seconds) -> f64 + Send + Sync>,
    pub(crate) seed: LossSeed,
}

impl LossModel {
    /// A constant loss probability.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0, 1)`.
    #[must_use]
    pub fn constant(rate: f64) -> Self {
        assert!((0.0..1.0).contains(&rate), "loss rate must be in [0, 1)");
        Self::from_fn(move |_| rate)
    }

    /// A time-varying loss probability.
    #[must_use]
    pub fn from_fn(rate: impl Fn(Seconds) -> f64 + Send + Sync + 'static) -> Self {
        Self { rate: Arc::new(rate), seed: LossSeed::Derived }
    }

    /// Overrides the RNG seeding strategy.
    #[must_use]
    pub fn with_seed(mut self, seed: LossSeed) -> Self {
        self.seed = seed;
        self
    }
}

impl core::fmt::Debug for LossModel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("LossModel").field("seed", &self.seed).finish_non_exhaustive()
    }
}

/// What kind of coupling an edge provides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EdgeKind {
    /// A bounded queue feeding a server: every delivered message is
    /// eventually served (or dropped by the policy).
    Queue { capacity: usize, policy: QueuePolicy },
    /// A direct wire into a sink: delivery is recording.
    Wire,
    /// A latest-value register on a server: the consumer reads the
    /// freshest sample at each service start; older samples are
    /// superseded, never queued.
    Sampled,
}

/// Declaration of an edge: coupling kind, transport latency, loss.
#[derive(Debug, Clone)]
pub struct EdgeSpec {
    pub(crate) kind: EdgeKind,
    pub(crate) latency: Seconds,
    pub(crate) loss: Option<LossModel>,
}

impl EdgeSpec {
    /// A bounded queue of `capacity` messages with the
    /// [`QueuePolicy::DropNewest`] policy. Only valid into a server.
    #[must_use]
    pub fn queue(capacity: usize) -> Self {
        Self {
            kind: EdgeKind::Queue { capacity, policy: QueuePolicy::DropNewest },
            latency: Seconds::ZERO,
            loss: None,
        }
    }

    /// A direct wire. Only valid into a sink.
    #[must_use]
    pub fn wire() -> Self {
        Self { kind: EdgeKind::Wire, latency: Seconds::ZERO, loss: None }
    }

    /// A latest-value sampled coupling. Only valid into a server, which
    /// reads the freshest sample at each service start. Sampled edges
    /// are exempt from the acyclicity check, so state can feed back
    /// (e.g. the planner's last trajectory sampled by the perception
    /// front end).
    #[must_use]
    pub fn sampled() -> Self {
        Self { kind: EdgeKind::Sampled, latency: Seconds::ZERO, loss: None }
    }

    /// Sets the queue-overflow policy (queues only; ignored otherwise).
    #[must_use]
    pub fn policy(mut self, policy: QueuePolicy) -> Self {
        if let EdgeKind::Queue { policy: p, .. } = &mut self.kind {
            *p = policy;
        }
        self
    }

    /// Adds transport latency: a message sent at `t` arrives at
    /// `t + latency` (its logical timestamp advances; queue occupancy
    /// is still charged at send time).
    #[must_use]
    pub fn latency(mut self, latency: Seconds) -> Self {
        self.latency = latency;
        self
    }

    /// Adds probabilistic in-transport loss.
    #[must_use]
    pub fn loss(mut self, loss: LossModel) -> Self {
        self.loss = Some(loss);
        self
    }
}

/// Everything that can be wrong with a graph declaration.
#[derive(Debug)]
#[non_exhaustive]
pub enum FlowError {
    /// An edge's endpoint message types disagree.
    TypeMismatch {
        /// Producing node.
        from: String,
        /// Consuming node.
        to: String,
        /// What the producer emits.
        produces: &'static str,
        /// What the consumer expects.
        consumes: &'static str,
    },
    /// A bounded queue was declared with capacity zero.
    ZeroCapacity {
        /// Producing node.
        from: String,
        /// Consuming node.
        to: String,
    },
    /// A source rate or edge latency is non-positive or non-finite.
    InvalidRate {
        /// The offending node.
        node: String,
    },
    /// A service time, speedup, payload, or deadline is invalid.
    InvalidService {
        /// The offending node.
        node: String,
        /// What was wrong.
        what: &'static str,
    },
    /// Two nodes were declared with the same name.
    DuplicateName {
        /// The reused name.
        name: String,
    },
    /// An edge endpoint cannot play the requested role (queue into a
    /// sink, wire into a server, edge out of a sink, edge into a
    /// source, …).
    BadEndpoint {
        /// Producing node.
        from: String,
        /// Consuming node.
        to: String,
        /// Why the endpoints are incompatible.
        why: &'static str,
    },
    /// A server has no incoming trigger edge, or more than one.
    TriggerCount {
        /// The offending server.
        node: String,
        /// How many trigger edges it has.
        count: usize,
    },
    /// A [`QueuePolicy::Block`] edge's producer is not a server.
    BlockNeedsServerUpstream {
        /// Producing node.
        from: String,
        /// Consuming node.
        to: String,
    },
    /// The trigger edges form a cycle.
    Cyclic {
        /// The graph name.
        graph: String,
    },
    /// A kernel-profile service has no placement to be costed on.
    MissingPlacement {
        /// The offending server.
        node: String,
    },
    /// A placement names a site never declared via
    /// [`GraphBuilder::shared_site`].
    UnknownSite {
        /// The placed node.
        node: String,
        /// The undeclared site.
        site: String,
    },
    /// A run was requested over a non-finite or negative duration.
    InvalidDuration {
        /// The offending duration in seconds.
        seconds: f64,
    },
    /// A placement spec failed to parse.
    Spec(ParseSpecError),
}

impl core::fmt::Display for FlowError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::TypeMismatch { from, to, produces, consumes } => write!(
                f,
                "edge {from} -> {to}: producer emits `{produces}` but consumer expects `{consumes}`"
            ),
            Self::ZeroCapacity { from, to } => {
                write!(f, "edge {from} -> {to}: queue capacity must be at least 1")
            }
            Self::InvalidRate { node } => {
                write!(f, "node {node}: rates and latencies must be positive and finite")
            }
            Self::InvalidService { node, what } => write!(f, "node {node}: {what}"),
            Self::DuplicateName { name } => write!(f, "node name {name:?} declared twice"),
            Self::BadEndpoint { from, to, why } => write!(f, "edge {from} -> {to}: {why}"),
            Self::TriggerCount { node, count } => {
                write!(f, "server {node} must have exactly one incoming queue edge, found {count}")
            }
            Self::BlockNeedsServerUpstream { from, to } => write!(
                f,
                "edge {from} -> {to}: Block backpressure needs a server producer \
                 (a sensor cannot be asked to stop sensing)"
            ),
            Self::Cyclic { graph } => {
                write!(
                    f,
                    "graph {graph}: trigger edges form a cycle (use a sampled edge for feedback)"
                )
            }
            Self::MissingPlacement { node } => {
                write!(f, "server {node}: a kernel-profile service needs a placement")
            }
            Self::UnknownSite { node, site } => {
                write!(f, "node {node}: site {site:?} was never declared via shared_site()")
            }
            Self::InvalidDuration { seconds } => {
                write!(f, "run duration must be finite and non-negative, got {seconds}")
            }
            Self::Spec(e) => write!(f, "placement spec: {e}"),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<ParseSpecError> for FlowError {
    fn from(e: ParseSpecError) -> Self {
        Self::Spec(e)
    }
}

/// The role of a declared node.
#[derive(Debug, Clone)]
pub(crate) enum Role {
    Source(SourceSpec),
    Server(ServerSpec),
    Sink(SinkSpec),
}

#[derive(Debug, Clone)]
pub(crate) struct NodeDecl {
    pub name: String,
    pub role: Role,
    pub input: Option<PortType>,
    /// Dedicated port type for sampled in-edges, when it differs from
    /// the trigger port (fusion servers).
    pub sampled: Option<PortType>,
    pub output: Option<PortType>,
    pub placement: Option<Placement>,
}

#[derive(Debug, Clone)]
pub(crate) struct EdgeDecl {
    pub from: usize,
    pub to: usize,
    pub spec: EdgeSpec,
}

/// Declarative builder for a dataflow graph.
///
/// Declare nodes, connect them with typed edges, optionally place them
/// on silicon, then [`GraphBuilder::seal`] to validate the topology and
/// pre-compute every service time.
#[derive(Debug)]
pub struct GraphBuilder {
    name: String,
    nodes: Vec<NodeDecl>,
    edges: Vec<EdgeDecl>,
    sites: BTreeMap<String, BytesPerSecond>,
}

impl GraphBuilder {
    /// Starts a graph. The name prefixes its `flow.*` metrics.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), nodes: Vec::new(), edges: Vec::new(), sites: BTreeMap::new() }
    }

    fn declare(&mut self, node: NodeDecl) -> Result<NodeId, FlowError> {
        if self.nodes.iter().any(|n| n.name == node.name) {
            return Err(FlowError::DuplicateName { name: node.name });
        }
        self.nodes.push(node);
        Ok(NodeId(self.nodes.len() - 1))
    }

    /// Declares a source emitting `T` messages.
    ///
    /// # Errors
    ///
    /// [`FlowError::InvalidRate`] for a non-positive/non-finite rate or
    /// payload, [`FlowError::DuplicateName`] for a reused name.
    pub fn source<T: MessageType>(
        &mut self,
        name: impl Into<String>,
        spec: SourceSpec,
    ) -> Result<NodeId, FlowError> {
        let name = name.into();
        let rate = spec.rate.value();
        let payload = spec.payload.value();
        if !(rate > 0.0 && rate.is_finite() && payload > 0.0 && payload.is_finite()) {
            return Err(FlowError::InvalidRate { node: name });
        }
        self.declare(NodeDecl {
            name,
            role: Role::Source(spec),
            input: None,
            sampled: None,
            output: Some(PortType::of::<T>()),
            placement: None,
        })
    }

    /// Declares a server consuming `I` and emitting `O`.
    ///
    /// # Errors
    ///
    /// [`FlowError::InvalidService`] for a negative/non-finite service
    /// time, non-positive speedup, non-positive output payload, or
    /// non-positive deadline; [`FlowError::DuplicateName`] for a reused
    /// name.
    pub fn server<I: MessageType, O: MessageType>(
        &mut self,
        name: impl Into<String>,
        spec: ServerSpec,
    ) -> Result<NodeId, FlowError> {
        self.server_with_ports(name.into(), spec, PortType::of::<I>(), None, PortType::of::<O>())
    }

    /// Declares a fusion server: triggered by `I` messages, observing
    /// the freshest `S` over [sampled](EdgeSpec::sampled) edges, and
    /// emitting `O`. This is the multi-rate shape — e.g. a 30 Hz camera
    /// trigger fused with 100 Hz IMU state.
    ///
    /// # Errors
    ///
    /// Same contract as [`GraphBuilder::server`].
    pub fn fusion_server<I: MessageType, S: MessageType, O: MessageType>(
        &mut self,
        name: impl Into<String>,
        spec: ServerSpec,
    ) -> Result<NodeId, FlowError> {
        self.server_with_ports(
            name.into(),
            spec,
            PortType::of::<I>(),
            Some(PortType::of::<S>()),
            PortType::of::<O>(),
        )
    }

    fn server_with_ports(
        &mut self,
        name: String,
        spec: ServerSpec,
        input: PortType,
        sampled: Option<PortType>,
        output: PortType,
    ) -> Result<NodeId, FlowError> {
        if let Service::Fixed(s) = &spec.service {
            if !(s.value() >= 0.0 && s.is_finite()) {
                return Err(FlowError::InvalidService {
                    node: name,
                    what: "fixed service time must be finite and non-negative",
                });
            }
        }
        if !(spec.speedup > 0.0 && spec.speedup.is_finite()) {
            return Err(FlowError::InvalidService {
                node: name,
                what: "speedup must be positive and finite",
            });
        }
        if !(spec.output.value() > 0.0 && spec.output.value().is_finite()) {
            return Err(FlowError::InvalidService {
                node: name,
                what: "output payload must be positive and finite",
            });
        }
        if let Some(d) = spec.deadline {
            if !(d.value() > 0.0 && d.is_finite()) {
                return Err(FlowError::InvalidService {
                    node: name,
                    what: "deadline must be positive and finite",
                });
            }
        }
        self.declare(NodeDecl {
            name,
            role: Role::Server(spec),
            input: Some(input),
            sampled,
            output: Some(output),
            placement: None,
        })
    }

    /// Declares a sink consuming `T`.
    ///
    /// # Errors
    ///
    /// [`FlowError::InvalidService`] for a non-positive deadline,
    /// [`FlowError::DuplicateName`] for a reused name.
    pub fn sink<T: MessageType>(
        &mut self,
        name: impl Into<String>,
        spec: SinkSpec,
    ) -> Result<NodeId, FlowError> {
        let name = name.into();
        if let Some(d) = spec.deadline {
            if !(d.value() > 0.0 && d.is_finite()) {
                return Err(FlowError::InvalidService {
                    node: name,
                    what: "deadline must be positive and finite",
                });
            }
        }
        self.declare(NodeDecl {
            name,
            role: Role::Sink(spec),
            input: Some(PortType::of::<T>()),
            sampled: None,
            output: None,
            placement: None,
        })
    }

    /// Declares a shared bus site with the given total bandwidth.
    /// Nodes placed [`Placement::at_site`] here contend for it.
    pub fn shared_site(&mut self, name: impl Into<String>, capacity: BytesPerSecond) {
        self.sites.insert(name.into(), capacity);
    }

    /// Assigns a placement to a node.
    ///
    /// # Errors
    ///
    /// [`FlowError::UnknownSite`] if the placement names an undeclared
    /// site.
    pub fn place(&mut self, node: NodeId, placement: Placement) -> Result<(), FlowError> {
        if let Some(site) = placement.site() {
            if !self.sites.contains_key(site) {
                return Err(FlowError::UnknownSite {
                    node: self.nodes[node.0].name.clone(),
                    site: site.to_string(),
                });
            }
        }
        self.nodes[node.0].placement = Some(placement);
        Ok(())
    }

    /// Connects two nodes with a typed edge. Edges transmit in
    /// declaration order when a node fans out.
    ///
    /// # Errors
    ///
    /// [`FlowError::TypeMismatch`] when the port types disagree,
    /// [`FlowError::ZeroCapacity`] for an empty queue,
    /// [`FlowError::BadEndpoint`] for role-incompatible endpoints,
    /// [`FlowError::BlockNeedsServerUpstream`] for a blocking edge out
    /// of a source, [`FlowError::InvalidRate`] for a negative or
    /// non-finite edge latency.
    pub fn connect(
        &mut self,
        from: NodeId,
        to: NodeId,
        spec: EdgeSpec,
    ) -> Result<EdgeId, FlowError> {
        let (f, t) = (&self.nodes[from.0], &self.nodes[to.0]);
        let names = || (f.name.clone(), t.name.clone());
        let Some(out) = f.output else {
            let (from, to) = names();
            return Err(FlowError::BadEndpoint { from, to, why: "a sink has no output port" });
        };
        // A sampled edge lands on the consumer's dedicated sampled port
        // when it declares one (fusion servers); every other edge — and
        // sampled edges into plain servers — uses the trigger port.
        let port =
            if matches!(spec.kind, EdgeKind::Sampled) { t.sampled.or(t.input) } else { t.input };
        let Some(inp) = port else {
            let (from, to) = names();
            return Err(FlowError::BadEndpoint { from, to, why: "a source has no input port" });
        };
        if !out.matches(&inp) {
            let (from, to) = names();
            return Err(FlowError::TypeMismatch {
                from,
                to,
                produces: out.name(),
                consumes: inp.name(),
            });
        }
        if !(spec.latency.value() >= 0.0 && spec.latency.is_finite()) {
            return Err(FlowError::InvalidRate { node: f.name.clone() });
        }
        match spec.kind {
            EdgeKind::Queue { capacity, policy } => {
                if !matches!(t.role, Role::Server(_)) {
                    let (from, to) = names();
                    return Err(FlowError::BadEndpoint {
                        from,
                        to,
                        why: "a queue edge must feed a server (use wire() into a sink)",
                    });
                }
                if capacity == 0 {
                    let (from, to) = names();
                    return Err(FlowError::ZeroCapacity { from, to });
                }
                if policy == QueuePolicy::Block && !matches!(f.role, Role::Server(_)) {
                    let (from, to) = names();
                    return Err(FlowError::BlockNeedsServerUpstream { from, to });
                }
            }
            EdgeKind::Wire => {
                if !matches!(t.role, Role::Sink(_)) {
                    let (from, to) = names();
                    return Err(FlowError::BadEndpoint {
                        from,
                        to,
                        why: "a wire edge must feed a sink (use queue() into a server)",
                    });
                }
            }
            EdgeKind::Sampled => {
                if !matches!(t.role, Role::Server(_)) {
                    let (from, to) = names();
                    return Err(FlowError::BadEndpoint {
                        from,
                        to,
                        why: "a sampled edge must feed a server",
                    });
                }
            }
        }
        self.edges.push(EdgeDecl { from: from.0, to: to.0, spec });
        Ok(EdgeId(self.edges.len() - 1))
    }

    /// Validates the topology, costs every placement, applies
    /// shared-site contention, and returns a runnable [`Graph`]. Sealing
    /// is serial: `par` is ignored.
    ///
    /// # Errors
    ///
    /// Any [`FlowError`] the declarations deferred: trigger-count
    /// violations, trigger cycles, kernel services without placements.
    pub fn seal(self, _par: ParConfig) -> Result<Graph, FlowError> {
        crate::engine::seal(self)
    }

    pub(crate) fn into_parts(
        self,
    ) -> (String, Vec<NodeDecl>, Vec<EdgeDecl>, BTreeMap<String, BytesPerSecond>) {
        (self.name, self.nodes, self.edges, self.sites)
    }
}

pub use crate::engine::Graph;

#[cfg(test)]
mod tests {
    use super::*;

    struct Frame;
    impl MessageType for Frame {
        const NAME: &'static str = "frame";
    }
    struct Cmd;
    impl MessageType for Cmd {
        const NAME: &'static str = "cmd";
    }
    struct Imu;
    impl MessageType for Imu {
        const NAME: &'static str = "imu";
    }

    fn cam_spec() -> SourceSpec {
        SourceSpec::new(Hertz::new(30.0), Bytes::new(1000.0))
    }

    fn srv_spec() -> ServerSpec {
        ServerSpec::new(Service::fixed(Seconds::from_millis(1.0)))
    }

    #[test]
    fn type_mismatch_is_a_build_error() {
        let mut g = GraphBuilder::new("t");
        let cam = g.source::<Frame>("cam", cam_spec()).unwrap();
        let srv = g.server::<Imu, Cmd>("fuse", srv_spec()).unwrap();
        let err = g.connect(cam, srv, EdgeSpec::queue(2)).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("`frame`") && msg.contains("`imu`"), "{msg}");
    }

    #[test]
    fn fusion_server_types_its_sampled_port_separately() {
        let mut g = GraphBuilder::new("t");
        let cam = g.source::<Frame>("cam", cam_spec()).unwrap();
        let imu =
            g.source::<Imu>("imu", SourceSpec::new(Hertz::new(100.0), Bytes::new(24.0))).unwrap();
        let fuse = g.fusion_server::<Frame, Imu, Cmd>("fuse", srv_spec()).unwrap();
        g.connect(cam, fuse, EdgeSpec::queue(2)).unwrap();
        g.connect(imu, fuse, EdgeSpec::sampled()).unwrap();
        // The trigger port still rejects the sampled type and vice versa.
        let err = g.connect(imu, fuse, EdgeSpec::queue(2)).unwrap_err();
        assert!(matches!(err, FlowError::TypeMismatch { .. }), "{err}");
        let err = g.connect(cam, fuse, EdgeSpec::sampled()).unwrap_err();
        assert!(matches!(err, FlowError::TypeMismatch { .. }), "{err}");
    }

    #[test]
    fn zero_capacity_is_a_build_error() {
        let mut g = GraphBuilder::new("t");
        let cam = g.source::<Frame>("cam", cam_spec()).unwrap();
        let srv = g.server::<Frame, Cmd>("srv", srv_spec()).unwrap();
        assert!(matches!(
            g.connect(cam, srv, EdgeSpec::queue(0)),
            Err(FlowError::ZeroCapacity { .. })
        ));
    }

    #[test]
    fn block_out_of_a_source_is_a_build_error() {
        let mut g = GraphBuilder::new("t");
        let cam = g.source::<Frame>("cam", cam_spec()).unwrap();
        let srv = g.server::<Frame, Cmd>("srv", srv_spec()).unwrap();
        assert!(matches!(
            g.connect(cam, srv, EdgeSpec::queue(1).policy(QueuePolicy::Block)),
            Err(FlowError::BlockNeedsServerUpstream { .. })
        ));
    }

    #[test]
    fn role_incompatible_endpoints_are_build_errors() {
        let mut g = GraphBuilder::new("t");
        let cam = g.source::<Frame>("cam", cam_spec()).unwrap();
        let srv = g.server::<Frame, Cmd>("srv", srv_spec()).unwrap();
        let sink = g.sink::<Cmd>("out", SinkSpec::new()).unwrap();
        // Queue into a sink, wire into a server, edge out of a sink,
        // edge into a source.
        assert!(matches!(
            g.connect(srv, sink, EdgeSpec::queue(1)),
            Err(FlowError::BadEndpoint { .. })
        ));
        assert!(matches!(
            g.connect(cam, srv, EdgeSpec::wire()),
            Err(FlowError::BadEndpoint { .. })
        ));
        assert!(matches!(
            g.connect(sink, srv, EdgeSpec::wire()),
            Err(FlowError::BadEndpoint { .. })
        ));
        assert!(matches!(
            g.connect(srv, cam, EdgeSpec::wire()),
            Err(FlowError::BadEndpoint { .. })
        ));
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut g = GraphBuilder::new("t");
        g.source::<Frame>("cam", cam_spec()).unwrap();
        assert!(matches!(
            g.source::<Frame>("cam", cam_spec()),
            Err(FlowError::DuplicateName { .. })
        ));
    }

    #[test]
    fn unknown_site_is_rejected() {
        let mut g = GraphBuilder::new("t");
        let srv = g.server::<Frame, Cmd>("srv", srv_spec()).unwrap();
        let p = Placement::preset(m7_arch::platform::PlatformKind::Gpu).at_site("nowhere");
        assert!(matches!(g.place(srv, p), Err(FlowError::UnknownSite { .. })));
    }

    #[test]
    fn errors_render_useful_messages() {
        let e = FlowError::TriggerCount { node: "fuse".into(), count: 2 };
        assert!(e.to_string().contains("exactly one"));
        let e = FlowError::Cyclic { graph: "g".into() };
        assert!(e.to_string().contains("sampled edge"));
    }
}
