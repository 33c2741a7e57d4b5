//! The sealed graph and its virtual-time execution engine.
//!
//! [`GraphBuilder::seal`] validates the builder's topology, costs every
//! placement, applies shared-site contention, and freezes the result
//! into a [`Graph`]. [`Graph::run_seeded`] then executes the graph on a
//! deterministic virtual clock, one event at a time in (time, FIFO)
//! order. Sealing and running are both serial, so the report is
//! bit-identical at any thread count.

use crate::graph::{
    EdgeDecl, EdgeKind, FlowError, GraphBuilder, LossModel, LossSeed, Role, Service,
};
use crate::policy::QueuePolicy;
use crate::vtime::EventQueue;
use m7_arch::contention::SharedBus;
use m7_par::derive_seed;
use m7_trace::metrics::{registry, MetricClass};
use m7_units::{BytesPerSecond, Hertz, Seconds};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, VecDeque};

/// The role a node plays, as reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Fires at a fixed rate.
    Source,
    /// A single-server queueing station.
    Server,
    /// Records received messages.
    Sink,
}

impl core::fmt::Display for NodeKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Self::Source => "source",
            Self::Server => "server",
            Self::Sink => "sink",
        })
    }
}

#[derive(Debug, Clone)]
enum SealedRole {
    Source { period: f64 },
    Server { service: f64, deadline: Option<f64>, energy_per_item: f64 },
    Sink { deadline: Option<f64> },
}

#[derive(Debug, Clone)]
struct SealedNode {
    name: String,
    role: SealedRole,
    /// Outgoing edges in declaration order — transmit order is part of
    /// the deterministic contract.
    out_edges: Vec<usize>,
    /// The single queue in-edge of a server.
    trigger: Option<usize>,
    /// Sampled in-edges of a server, in declaration order.
    sampled_in: Vec<usize>,
    platform: Option<String>,
    site: Option<String>,
    slowdown: f64,
}

#[derive(Clone)]
struct SealedEdge {
    from: usize,
    to: usize,
    kind: EdgeKind,
    latency: f64,
    loss: Option<LossModel>,
}

/// A validated, costed, runnable dataflow graph.
///
/// Produced by [`GraphBuilder::seal`](crate::GraphBuilder::seal); see
/// the crate-level example.
pub struct Graph {
    name: String,
    nodes: Vec<SealedNode>,
    edges: Vec<SealedEdge>,
}

/// A modeled message: when it was born at its source, when it arrives
/// at the consuming end of the current edge, and how big it is.
#[derive(Debug, Clone, Copy)]
struct Msg {
    born: f64,
    arrival: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Fire(usize),
    Done(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Srv {
    Idle,
    Serving,
    /// Output parked on `blocked_on` full downstream edges; the next
    /// service start waits for all of them to free a slot.
    Blocked,
}

struct NodeState {
    fired: u64,
    processed: u64,
    received: u64,
    deadline_misses: u64,
    srv: Srv,
    current: Option<Msg>,
    blocked_on: usize,
    latencies: Vec<f64>,
}

struct EdgeState {
    queue: VecDeque<Msg>,
    parked: Option<Msg>,
    slot_fresh: bool,
    has_slot: bool,
    delivered: u64,
    dropped: u64,
    lost: u64,
    superseded: u64,
    blocked: u64,
    max_depth: u64,
    rng: Option<ChaCha8Rng>,
}

enum Outcome {
    Ok,
    Lost,
    Dropped,
    Parked,
}

/// Per-node results of a run.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// Node name.
    pub name: String,
    /// Node role.
    pub kind: NodeKind,
    /// Source firings.
    pub fired: u64,
    /// Server completions.
    pub processed: u64,
    /// Messages consumed (trigger messages, fresh samples, sink
    /// receptions).
    pub received: u64,
    /// Completions (servers) or receptions (sinks) past the deadline.
    pub deadline_misses: u64,
    /// Effective platform name, if placed.
    pub platform: Option<String>,
    /// Shared-site name, if placed on one.
    pub site: Option<String>,
    /// Post-contention service time per item, for servers.
    pub service: Option<Seconds>,
    /// Contention stretch factor applied to the service time.
    pub slowdown: f64,
    /// Total modeled energy over the run, in joules.
    pub energy_j: f64,
    /// Sink latencies in completion order, seconds.
    pub latencies: Vec<f64>,
    /// Mean sink latency.
    pub mean_latency: Seconds,
    /// p99 sink latency.
    pub p99_latency: Seconds,
    /// Sink reception rate over the run.
    pub throughput: Hertz,
}

/// Per-edge results of a run.
#[derive(Debug, Clone)]
pub struct EdgeReport {
    /// Producing node.
    pub from: String,
    /// Consuming node.
    pub to: String,
    /// Human-readable edge kind, e.g. `queue(cap=4, drop-newest)`.
    pub kind: String,
    /// Messages accepted (queued, served directly, sampled, or
    /// recorded).
    pub delivered: u64,
    /// Messages dropped by the overflow policy.
    pub dropped: u64,
    /// Messages lost in transport.
    pub lost: u64,
    /// Samples overwritten before anyone read them.
    pub superseded: u64,
    /// Times the producer parked on this edge (Block policy).
    pub blocked: u64,
    /// High-water queue depth.
    pub max_depth: u64,
}

/// The result of one [`Graph::run_seeded`] execution.
#[derive(Debug, Clone)]
pub struct GraphReport {
    /// Graph name.
    pub name: String,
    /// Simulated duration.
    pub duration: Seconds,
    /// Per-node results, in declaration order.
    pub nodes: Vec<NodeReport>,
    /// Per-edge results, in declaration order.
    pub edges: Vec<EdgeReport>,
}

impl GraphReport {
    /// Looks a node up by name.
    #[must_use]
    pub fn node(&self, name: &str) -> Option<&NodeReport> {
        self.nodes.iter().find(|n| n.name == name)
    }

    /// Looks an edge up by its endpoint names.
    #[must_use]
    pub fn edge(&self, from: &str, to: &str) -> Option<&EdgeReport> {
        self.edges.iter().find(|e| e.from == from && e.to == to)
    }
}

impl Graph {
    /// The graph name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Runs the graph with seed 0.
    ///
    /// # Errors
    ///
    /// [`FlowError::InvalidDuration`] for a non-finite or negative
    /// duration.
    pub fn run(&self, duration: Seconds) -> Result<GraphReport, FlowError> {
        self.run_seeded(duration, 0)
    }

    /// Runs the graph for `duration` of virtual time.
    ///
    /// `seed` feeds every [`LossSeed::Derived`] edge RNG (edges with
    /// [`LossSeed::Fixed`] ignore it). The run is serial, so the report
    /// is bit-identical for a given `(graph, duration, seed)` whatever
    /// `m7-par` thread count sealed the graph.
    ///
    /// # Errors
    ///
    /// [`FlowError::InvalidDuration`] for a non-finite or negative
    /// duration.
    pub fn run_seeded(&self, duration: Seconds, seed: u64) -> Result<GraphReport, FlowError> {
        if !(duration.value() >= 0.0 && duration.is_finite()) {
            return Err(FlowError::InvalidDuration { seconds: duration.value() });
        }
        let mut run = Run::new(self, seed);
        run.execute(duration);
        Ok(run.into_report(duration))
    }
}

struct Run<'g> {
    g: &'g Graph,
    ns: Vec<NodeState>,
    es: Vec<EdgeState>,
}

impl<'g> Run<'g> {
    fn new(g: &'g Graph, seed: u64) -> Self {
        let ns = g
            .nodes
            .iter()
            .map(|_| NodeState {
                fired: 0,
                processed: 0,
                received: 0,
                deadline_misses: 0,
                srv: Srv::Idle,
                current: None,
                blocked_on: 0,
                latencies: Vec::new(),
            })
            .collect();
        let es = g
            .edges
            .iter()
            .enumerate()
            .map(|(i, e)| EdgeState {
                queue: VecDeque::new(),
                parked: None,
                slot_fresh: false,
                has_slot: false,
                delivered: 0,
                dropped: 0,
                lost: 0,
                superseded: 0,
                blocked: 0,
                max_depth: 0,
                rng: e.loss.as_ref().map(|l| {
                    ChaCha8Rng::seed_from_u64(match l.seed {
                        LossSeed::Fixed(s) => s,
                        LossSeed::Derived => derive_seed(seed, i as u64),
                    })
                }),
            })
            .collect();
        Self { g, ns, es }
    }

    fn execute(&mut self, duration: Seconds) {
        let mut q: EventQueue<Ev> = EventQueue::new();
        for (i, n) in self.g.nodes.iter().enumerate() {
            if matches!(n.role, SealedRole::Source { .. }) {
                q.schedule(Seconds::ZERO, Ev::Fire(i));
            }
        }
        // The first event strictly past the horizon ends the run;
        // events at exactly `duration` are still processed.
        while let Some((t, ev)) = q.pop() {
            if t > duration {
                break;
            }
            match ev {
                Ev::Fire(i) => self.commit_fire(i, t.value(), &mut q),
                Ev::Done(i) => self.commit_done(i, t.value(), &mut q),
            }
        }
    }

    fn commit_fire(&mut self, i: usize, t: f64, q: &mut EventQueue<Ev>) {
        let g = self.g;
        let SealedRole::Source { period } = &g.nodes[i].role else {
            unreachable!("only sources fire")
        };
        let period = *period;
        self.ns[i].fired += 1;
        let msg = Msg { born: t, arrival: t };
        for &e in &g.nodes[i].out_edges {
            let _ = self.transmit(e, msg, t, q);
        }
        q.schedule(Seconds::new(t + period), Ev::Fire(i));
    }

    fn commit_done(&mut self, i: usize, t: f64, q: &mut EventQueue<Ev>) {
        let g = self.g;
        let m = self.ns[i].current.take().expect("a Done event implies a message in service");
        self.ns[i].processed += 1;
        if let SealedRole::Server { deadline: Some(d), .. } = &g.nodes[i].role {
            if t - m.born > *d {
                self.ns[i].deadline_misses += 1;
            }
        }
        let out = Msg { born: m.born, arrival: t };
        let mut parked = 0usize;
        for &e in &g.nodes[i].out_edges {
            if matches!(self.transmit(e, out, t, q), Outcome::Parked) {
                parked += 1;
            }
        }
        if parked > 0 {
            self.ns[i].srv = Srv::Blocked;
            self.ns[i].blocked_on = parked;
        } else {
            self.finish_or_next(i, t, q);
        }
    }

    /// Sends `msg` down edge `e` at time `t`: loss draw first, then
    /// delivery according to the edge kind.
    fn transmit(&mut self, e: usize, mut msg: Msg, t: f64, q: &mut EventQueue<Ev>) -> Outcome {
        let g = self.g;
        let edge = &g.edges[e];
        if let Some(loss) = &edge.loss {
            let rate = (loss.rate)(Seconds::new(t));
            if rate > 0.0
                && self.es[e].rng.as_mut().expect("lossy edges have an RNG").gen_bool(rate)
            {
                self.es[e].lost += 1;
                return Outcome::Lost;
            }
        }
        msg.arrival = t + edge.latency;
        match edge.kind {
            EdgeKind::Wire => {
                self.deliver_to_sink(e, msg);
                Outcome::Ok
            }
            EdgeKind::Sampled => {
                let es = &mut self.es[e];
                if es.slot_fresh {
                    es.superseded += 1;
                }
                es.has_slot = true;
                es.slot_fresh = true;
                es.delivered += 1;
                Outcome::Ok
            }
            EdgeKind::Queue { capacity, policy } => {
                self.deliver_to_server(e, capacity, policy, msg, t, q)
            }
        }
    }

    fn deliver_to_sink(&mut self, e: usize, msg: Msg) {
        let g = self.g;
        let dst = g.edges[e].to;
        self.es[e].delivered += 1;
        self.ns[dst].received += 1;
        let latency = msg.arrival - msg.born;
        self.ns[dst].latencies.push(latency);
        if let SealedRole::Sink { deadline: Some(d) } = &g.nodes[dst].role {
            if latency > *d {
                self.ns[dst].deadline_misses += 1;
            }
        }
    }

    fn deliver_to_server(
        &mut self,
        e: usize,
        capacity: usize,
        policy: QueuePolicy,
        msg: Msg,
        t: f64,
        q: &mut EventQueue<Ev>,
    ) -> Outcome {
        let dst = self.g.edges[e].to;
        if self.ns[dst].srv == Srv::Idle {
            self.es[e].delivered += 1;
            self.start_service(dst, msg, t, q);
            return Outcome::Ok;
        }
        if self.es[e].queue.len() >= capacity {
            match policy {
                QueuePolicy::DropNewest => {
                    self.es[e].dropped += 1;
                    Outcome::Dropped
                }
                QueuePolicy::DropOldest => {
                    let es = &mut self.es[e];
                    es.queue.pop_front();
                    es.dropped += 1;
                    es.queue.push_back(msg);
                    es.delivered += 1;
                    Outcome::Ok
                }
                QueuePolicy::Block => {
                    let es = &mut self.es[e];
                    es.parked = Some(msg);
                    es.blocked += 1;
                    Outcome::Parked
                }
            }
        } else {
            let es = &mut self.es[e];
            es.queue.push_back(msg);
            es.delivered += 1;
            es.max_depth = es.max_depth.max(es.queue.len() as u64);
            Outcome::Ok
        }
    }

    fn start_service(&mut self, i: usize, msg: Msg, t: f64, q: &mut EventQueue<Ev>) {
        let g = self.g;
        let SealedRole::Server { service, .. } = &g.nodes[i].role else {
            unreachable!("only servers serve")
        };
        let service = *service;
        let start = t.max(msg.arrival);
        // Read the freshest sample from each sampled in-edge.
        for &e in &g.nodes[i].sampled_in {
            if self.es[e].slot_fresh {
                self.es[e].slot_fresh = false;
                self.ns[i].received += 1;
            }
        }
        self.ns[i].received += 1;
        self.ns[i].current = Some(msg);
        self.ns[i].srv = Srv::Serving;
        q.schedule(Seconds::new(start + service), Ev::Done(i));
    }

    /// A server finished (or got unblocked): pull the next trigger
    /// message, or go idle.
    fn finish_or_next(&mut self, i: usize, t: f64, q: &mut EventQueue<Ev>) {
        let Some(trig) = self.g.nodes[i].trigger else {
            self.ns[i].srv = Srv::Idle;
            return;
        };
        match self.es[trig].queue.pop_front() {
            Some(m) => {
                self.start_service(i, m, t, q);
                self.unpark_into(trig, t, q);
            }
            None => self.ns[i].srv = Srv::Idle,
        }
    }

    /// A slot just freed on `e`; if its producer parked a message
    /// here, move it into the queue and, once the producer is parked
    /// nowhere, let it start its next service. Chains are bounded by
    /// graph depth — the trigger topology is a DAG.
    fn unpark_into(&mut self, e: usize, t: f64, q: &mut EventQueue<Ev>) {
        let Some(m) = self.es[e].parked.take() else { return };
        let es = &mut self.es[e];
        es.queue.push_back(m);
        es.delivered += 1;
        es.max_depth = es.max_depth.max(es.queue.len() as u64);
        let producer = self.g.edges[e].from;
        debug_assert_eq!(self.ns[producer].srv, Srv::Blocked);
        self.ns[producer].blocked_on -= 1;
        if self.ns[producer].blocked_on == 0 {
            self.finish_or_next(producer, t, q);
        }
    }

    fn into_report(self, duration: Seconds) -> GraphReport {
        let nodes: Vec<NodeReport> = self
            .g
            .nodes
            .iter()
            .zip(self.ns)
            .map(|(n, s)| {
                let (kind, service, energy_per_item, is_sink) = match &n.role {
                    SealedRole::Source { .. } => (NodeKind::Source, None, 0.0, false),
                    SealedRole::Server { service, energy_per_item, .. } => {
                        (NodeKind::Server, Some(Seconds::new(*service)), *energy_per_item, false)
                    }
                    SealedRole::Sink { .. } => (NodeKind::Sink, None, 0.0, true),
                };
                // Same ordering and accumulation as the legacy
                // pipeline stats: sort, then mean over the sorted
                // values, then the p99 index.
                let mut sorted = s.latencies.clone();
                sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
                let mean = if sorted.is_empty() {
                    0.0
                } else {
                    sorted.iter().sum::<f64>() / sorted.len() as f64
                };
                let p99 = if sorted.is_empty() {
                    0.0
                } else {
                    sorted[((sorted.len() as f64 * 0.99) as usize).min(sorted.len() - 1)]
                };
                let throughput = if is_sink {
                    Hertz::new(s.received as f64 / duration.value().max(1e-12))
                } else {
                    Hertz::ZERO
                };
                NodeReport {
                    name: n.name.clone(),
                    kind,
                    fired: s.fired,
                    processed: s.processed,
                    received: s.received,
                    deadline_misses: s.deadline_misses,
                    platform: n.platform.clone(),
                    site: n.site.clone(),
                    service,
                    slowdown: n.slowdown,
                    energy_j: energy_per_item * s.processed as f64,
                    latencies: s.latencies,
                    mean_latency: Seconds::new(mean),
                    p99_latency: Seconds::new(p99),
                    throughput,
                }
            })
            .collect();
        let edges: Vec<EdgeReport> = self
            .g
            .edges
            .iter()
            .zip(self.es)
            .map(|(e, s)| EdgeReport {
                from: self.g.nodes[e.from].name.clone(),
                to: self.g.nodes[e.to].name.clone(),
                kind: match e.kind {
                    EdgeKind::Queue { capacity, policy } => {
                        format!("queue(cap={capacity}, {policy})")
                    }
                    EdgeKind::Wire => "wire".to_string(),
                    EdgeKind::Sampled => "sampled".to_string(),
                },
                delivered: s.delivered,
                dropped: s.dropped,
                lost: s.lost,
                superseded: s.superseded,
                blocked: s.blocked,
                max_depth: s.max_depth,
            })
            .collect();
        let report = GraphReport { name: self.g.name.clone(), duration, nodes, edges };
        publish_metrics(&report);
        report
    }
}

/// Mirrors the run into the `m7-trace` registry under `flow.*` when
/// tracing is enabled, so `examples/trace_tail.rs` and the telemetry
/// plane see queue depths and drop counters live.
fn publish_metrics(r: &GraphReport) {
    if !m7_trace::enabled() {
        return;
    }
    let reg = registry();
    let class = MetricClass::Deterministic;
    for n in &r.nodes {
        let base = format!("flow.{}.{}", r.name, n.name);
        reg.counter(&format!("{base}.fired"), class).add(n.fired);
        reg.counter(&format!("{base}.processed"), class).add(n.processed);
        reg.counter(&format!("{base}.received"), class).add(n.received);
        reg.counter(&format!("{base}.deadline_miss"), class).add(n.deadline_misses);
        if n.kind == NodeKind::Sink {
            let h = reg.histogram(&format!("{base}.latency_ns"), class);
            for l in &n.latencies {
                h.record(seconds_to_ns(*l));
            }
        }
    }
    for e in &r.edges {
        let base = format!("flow.{}.edge.{}-{}", r.name, e.from, e.to);
        reg.counter(&format!("{base}.delivered"), class).add(e.delivered);
        reg.counter(&format!("{base}.dropped"), class).add(e.dropped);
        reg.counter(&format!("{base}.lost"), class).add(e.lost);
        reg.counter(&format!("{base}.superseded"), class).add(e.superseded);
        reg.counter(&format!("{base}.blocked"), class).add(e.blocked);
        reg.gauge(&format!("{base}.depth_max"), class).record_max(e.max_depth);
    }
}

fn seconds_to_ns(s: f64) -> u64 {
    if s <= 0.0 {
        0
    } else {
        (s * 1e9).min(u64::MAX as f64) as u64
    }
}

/// Validates and freezes a builder into a runnable [`Graph`]. See
/// [`GraphBuilder::seal`](crate::GraphBuilder::seal).
pub(crate) fn seal(builder: GraphBuilder) -> Result<Graph, FlowError> {
    let (name, decls, edge_decls, sites) = builder.into_parts();

    // Per-node edge topology.
    let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); decls.len()];
    let mut triggers: Vec<Vec<usize>> = vec![Vec::new(); decls.len()];
    let mut sampled_in: Vec<Vec<usize>> = vec![Vec::new(); decls.len()];
    for (i, e) in edge_decls.iter().enumerate() {
        out_edges[e.from].push(i);
        match e.spec.kind {
            EdgeKind::Queue { .. } => triggers[e.to].push(i),
            EdgeKind::Sampled => sampled_in[e.to].push(i),
            EdgeKind::Wire => {}
        }
    }

    // Every server needs exactly one trigger.
    for (i, d) in decls.iter().enumerate() {
        if matches!(d.role, Role::Server(_)) && triggers[i].len() != 1 {
            return Err(FlowError::TriggerCount { node: d.name.clone(), count: triggers[i].len() });
        }
        if let Role::Server(spec) = &d.role {
            if matches!(spec.service, Service::Kernel(_)) && d.placement.is_none() {
                return Err(FlowError::MissingPlacement { node: d.name.clone() });
            }
        }
    }

    // The non-sampled topology must be a DAG (Kahn); sampled edges are
    // exempt so state can feed back.
    let order = topo_order(decls.len(), &edge_decls)
        .ok_or_else(|| FlowError::Cyclic { graph: name.clone() })?;

    // Propagate nominal rates along trigger edges in topological order.
    let mut rates = vec![0.0f64; decls.len()];
    for &i in &order {
        match &decls[i].role {
            Role::Source(s) => rates[i] = s.rate.value(),
            Role::Server(_) => rates[i] = rates[edge_decls[triggers[i][0]].from],
            Role::Sink(_) => {
                rates[i] = edge_decls.iter().filter(|e| e.to == i).map(|e| rates[e.from]).sum();
            }
        }
    }

    // Shared-site contention: each placed node's sustained memory
    // demand stretches every co-located service by the max-min-fair
    // bus slowdown.
    let mut slowdowns = vec![1.0f64; decls.len()];
    let mut members: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, d) in decls.iter().enumerate() {
        if let Some(site) = d.placement.as_ref().and_then(|p| p.site()) {
            members.entry(site).or_default().push(i);
        }
    }
    for (site, nodes_here) in &members {
        let capacity = sites.get(*site).copied().expect("site validated at place()");
        let demands: Vec<BytesPerSecond> = nodes_here
            .iter()
            .map(|&i| BytesPerSecond::new(node_demand(i, &decls, &edge_decls, &rates)))
            .collect();
        let factors = SharedBus::new(capacity).slowdowns(&demands);
        for (&i, f) in nodes_here.iter().zip(factors) {
            slowdowns[i] = f;
        }
    }

    let nodes: Vec<SealedNode> = decls
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let (base_service, energy_rate, platform) = cost_node(d);
            let role = match &d.role {
                Role::Source(s) => SealedRole::Source { period: s.rate.period().value() },
                Role::Server(s) => {
                    let service = if slowdowns[i] != 1.0 {
                        base_service * slowdowns[i]
                    } else {
                        base_service
                    };
                    SealedRole::Server {
                        service,
                        deadline: s.deadline.map(Seconds::value),
                        energy_per_item: energy_rate * service,
                    }
                }
                Role::Sink(s) => SealedRole::Sink { deadline: s.deadline.map(Seconds::value) },
            };
            SealedNode {
                name: d.name.clone(),
                role,
                out_edges: out_edges[i].clone(),
                trigger: triggers[i].first().copied(),
                sampled_in: sampled_in[i].clone(),
                platform,
                site: d.placement.as_ref().and_then(|p| p.site()).map(str::to_string),
                slowdown: slowdowns[i],
            }
        })
        .collect();

    let edges: Vec<SealedEdge> = edge_decls
        .into_iter()
        .map(|EdgeDecl { from, to, spec }| SealedEdge {
            from,
            to,
            kind: spec.kind,
            latency: spec.latency.value(),
            loss: spec.loss,
        })
        .collect();

    Ok(Graph { name, nodes, edges })
}

/// Kahn topological order over the non-sampled edges; `None` on a
/// cycle.
fn topo_order(n: usize, edges: &[EdgeDecl]) -> Option<Vec<usize>> {
    let mut indegree = vec![0usize; n];
    for e in edges {
        if !matches!(e.spec.kind, EdgeKind::Sampled) {
            indegree[e.to] += 1;
        }
    }
    let mut ready: VecDeque<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(i) = ready.pop_front() {
        order.push(i);
        for e in edges {
            if e.from == i && !matches!(e.spec.kind, EdgeKind::Sampled) {
                indegree[e.to] -= 1;
                if indegree[e.to] == 0 {
                    ready.push_back(e.to);
                }
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// Base service time (s), active-power energy rate (W while serving),
/// and effective-platform label for one node.
fn cost_node(d: &crate::graph::NodeDecl) -> (f64, f64, Option<String>) {
    let Role::Server(spec) = &d.role else { return (0.0, 0.0, None) };
    let platform = d.placement.as_ref().map(crate::Placement::effective_platform);
    let label = platform.as_ref().map(|p| p.name().to_string());
    match &spec.service {
        Service::Fixed(s) => {
            let base = s.value() / spec.speedup;
            let watts = platform.as_ref().map_or(0.0, |p| p.active_power().value());
            (base, watts, label)
        }
        Service::Kernel(profile) => {
            let p = platform.as_ref().expect("kernel placement validated at seal");
            let est = p.estimate(profile);
            let base = est.latency.value() / spec.speedup;
            // Energy as a rate so contention stretch scales it too.
            let watts = if base > 0.0 { est.energy.value() / base } else { 0.0 };
            (base, watts, label)
        }
    }
}

/// Sustained memory demand of a placed node: incoming message traffic
/// plus the kernel's own per-invocation traffic at the node's rate.
fn node_demand(
    i: usize,
    decls: &[crate::graph::NodeDecl],
    edges: &[EdgeDecl],
    rates: &[f64],
) -> f64 {
    let incoming: f64 = edges
        .iter()
        .filter(|e| e.to == i)
        .map(|e| {
            let bytes = match &decls[e.from].role {
                Role::Source(s) => s.payload.value(),
                Role::Server(s) => s.output.value(),
                Role::Sink(_) => 0.0,
            };
            rates[e.from] * bytes
        })
        .sum();
    let kernel: f64 = match &decls[i].role {
        Role::Server(spec) => match &spec.service {
            Service::Kernel(profile) => profile.bytes().value() * rates[i],
            Service::Fixed(_) => 0.0,
        },
        _ => 0.0,
    };
    incoming + kernel
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{EdgeSpec, GraphBuilder, ServerSpec, SinkSpec, SourceSpec};
    use crate::message::MessageType;
    use crate::placement::Placement;
    use m7_arch::platform::PlatformKind;
    use m7_par::ParConfig;
    use m7_units::Bytes;

    struct Frame;
    impl MessageType for Frame {
        const NAME: &'static str = "frame";
    }
    struct Cmd;
    impl MessageType for Cmd {
        const NAME: &'static str = "cmd";
    }

    fn chain(rate: f64, service_ms: f64, capacity: usize, policy: QueuePolicy) -> Graph {
        let mut g = GraphBuilder::new("t");
        let src = g
            .source::<Frame>("src", SourceSpec::new(Hertz::new(rate), Bytes::new(1000.0)))
            .unwrap();
        let srv = g
            .server::<Frame, Cmd>(
                "srv",
                ServerSpec::new(Service::fixed(Seconds::from_millis(service_ms))),
            )
            .unwrap();
        let out = g.sink::<Cmd>("out", SinkSpec::new()).unwrap();
        g.connect(src, srv, EdgeSpec::queue(capacity).policy(policy)).unwrap();
        g.connect(srv, out, EdgeSpec::wire()).unwrap();
        g.seal(ParConfig::serial()).unwrap()
    }

    #[test]
    fn underloaded_chain_processes_every_firing() {
        let r = chain(10.0, 1.0, 2, QueuePolicy::DropNewest).run(Seconds::new(1.0)).unwrap();
        let fired = r.node("src").unwrap().fired;
        assert_eq!(fired, 11);
        // The final firing's completion lands past the horizon.
        assert_eq!(r.node("srv").unwrap().processed, fired - 1);
        assert_eq!(r.node("out").unwrap().received, fired - 1);
        assert_eq!(r.edge("src", "srv").unwrap().dropped, 0);
        // Service is 1 ms end to end.
        let out = r.node("out").unwrap();
        assert!((out.mean_latency.value() - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn overloaded_drop_newest_drops_and_bounds_depth() {
        // 100 Hz into a 25 ms server: ~60% of frames dropped.
        let r = chain(100.0, 25.0, 2, QueuePolicy::DropNewest).run(Seconds::new(1.0)).unwrap();
        let e = r.edge("src", "srv").unwrap();
        assert!(e.dropped > 0, "overload must drop");
        assert!(e.max_depth <= 2);
        assert_eq!(
            r.node("src").unwrap().fired,
            e.delivered + e.dropped,
            "every firing is either delivered or dropped"
        );
    }

    #[test]
    fn drop_oldest_keeps_latest_latencies_bounded() {
        let newest = chain(100.0, 25.0, 2, QueuePolicy::DropNewest).run(Seconds::new(2.0)).unwrap();
        let oldest = chain(100.0, 25.0, 2, QueuePolicy::DropOldest).run(Seconds::new(2.0)).unwrap();
        // Same loss volume, but drop-oldest serves fresher frames.
        assert!(oldest.edge("src", "srv").unwrap().dropped > 0);
        assert!(oldest.node("out").unwrap().p99_latency <= newest.node("out").unwrap().p99_latency);
    }

    #[test]
    fn block_policy_backpressures_the_producer() {
        // src --queue--> a (1 ms) --queue(cap 1, Block)--> b (50 ms) --wire--> out
        let mut g = GraphBuilder::new("bp");
        let src = g
            .source::<Frame>("src", SourceSpec::new(Hertz::new(100.0), Bytes::new(100.0)))
            .unwrap();
        let a = g
            .server::<Frame, Frame>("a", ServerSpec::new(Service::fixed(Seconds::from_millis(1.0))))
            .unwrap();
        let b = g
            .server::<Frame, Cmd>("b", ServerSpec::new(Service::fixed(Seconds::from_millis(50.0))))
            .unwrap();
        let out = g.sink::<Cmd>("out", SinkSpec::new()).unwrap();
        g.connect(src, a, EdgeSpec::queue(4)).unwrap();
        g.connect(a, b, EdgeSpec::queue(1).policy(QueuePolicy::Block)).unwrap();
        g.connect(b, out, EdgeSpec::wire()).unwrap();
        let r = g.seal(ParConfig::serial()).unwrap().run(Seconds::new(1.0)).unwrap();
        let ab = r.edge("a", "b").unwrap();
        assert!(ab.blocked > 0, "a must park on the full edge");
        assert_eq!(ab.dropped, 0, "Block never drops");
        // While a is blocked it stops draining its own queue, so the
        // bounded src->a queue overflows instead.
        assert!(r.edge("src", "a").unwrap().dropped > 0);
        // b is the bottleneck: one frame per 50 ms, first completion at
        // 51 ms, last inside the horizon at 951 ms.
        assert_eq!(r.node("b").unwrap().processed, 19);
    }

    #[test]
    fn sampled_edge_supersedes_instead_of_queueing() {
        // Fast IMU sampled by a server triggered by a slow camera:
        // most samples are overwritten unread, none are queued.
        let mut g = GraphBuilder::new("s");
        let imu =
            g.source::<Cmd>("imu", SourceSpec::new(Hertz::new(100.0), Bytes::new(24.0))).unwrap();
        let cam =
            g.source::<Cmd>("cam", SourceSpec::new(Hertz::new(10.0), Bytes::new(1000.0))).unwrap();
        let fuse = g
            .server::<Cmd, Cmd>("fuse", ServerSpec::new(Service::fixed(Seconds::from_millis(5.0))))
            .unwrap();
        let out = g.sink::<Cmd>("out", SinkSpec::new()).unwrap();
        g.connect(cam, fuse, EdgeSpec::queue(2)).unwrap();
        g.connect(imu, fuse, EdgeSpec::sampled()).unwrap();
        g.connect(fuse, out, EdgeSpec::wire()).unwrap();
        let r = g.seal(ParConfig::serial()).unwrap().run(Seconds::new(1.0)).unwrap();
        let se = r.edge("imu", "fuse").unwrap();
        // 100 IMU samples written, only ~11 read: most are superseded.
        assert_eq!(se.delivered, 100);
        assert!(se.superseded > 80, "unread samples must be superseded, got {}", se.superseded);
        assert_eq!(se.dropped, 0);
        assert_eq!(se.max_depth, 0, "sampled edges never queue");
    }

    #[test]
    fn transport_latency_shifts_sink_latency() {
        let mut g = GraphBuilder::new("lat");
        let src =
            g.source::<Frame>("src", SourceSpec::new(Hertz::new(10.0), Bytes::new(1.0))).unwrap();
        let srv = g
            .server::<Frame, Cmd>("srv", ServerSpec::new(Service::fixed(Seconds::from_millis(1.0))))
            .unwrap();
        let out =
            g.sink::<Cmd>("out", SinkSpec::new().deadline(Seconds::from_millis(2.0))).unwrap();
        g.connect(src, srv, EdgeSpec::queue(1)).unwrap();
        g.connect(srv, out, EdgeSpec::wire().latency(Seconds::from_millis(2.0))).unwrap();
        let r = g.seal(ParConfig::serial()).unwrap().run(Seconds::new(1.0)).unwrap();
        let o = r.node("out").unwrap();
        assert!((o.mean_latency.value() - 3e-3).abs() < 1e-9);
        // 1 ms service + 2 ms wire > 2 ms deadline: every frame late.
        assert_eq!(o.deadline_misses, o.received);
    }

    #[test]
    fn lossy_edge_is_seed_deterministic() {
        let build = || {
            let mut g = GraphBuilder::new("loss");
            let src = g
                .source::<Frame>("src", SourceSpec::new(Hertz::new(200.0), Bytes::new(1.0)))
                .unwrap();
            let srv = g
                .server::<Frame, Cmd>(
                    "srv",
                    ServerSpec::new(Service::fixed(Seconds::from_millis(1.0))),
                )
                .unwrap();
            let out = g.sink::<Cmd>("out", SinkSpec::new()).unwrap();
            g.connect(src, srv, EdgeSpec::queue(2).loss(LossModel::constant(0.3))).unwrap();
            g.connect(srv, out, EdgeSpec::wire()).unwrap();
            g.seal(ParConfig::serial()).unwrap()
        };
        let a = build().run_seeded(Seconds::new(2.0), 7).unwrap();
        let b = build().run_seeded(Seconds::new(2.0), 7).unwrap();
        let c = build().run_seeded(Seconds::new(2.0), 8).unwrap();
        let lost = |r: &GraphReport| r.edge("src", "srv").unwrap().lost;
        assert_eq!(lost(&a), lost(&b), "same seed, same losses");
        assert!(lost(&a) > 50, "30% of 401 firings should be lost, got {}", lost(&a));
        assert_ne!(
            a.node("out").unwrap().latencies,
            c.node("out").unwrap().latencies,
            "different seeds should diverge"
        );
    }

    #[test]
    fn same_timestamp_handling_order_is_pinned() {
        // Twelve identical chains fire together, so every 100 Hz tick is
        // a batch of two dozen same-timestamp Fire events, and the
        // chains' Done events share timestamps too (a's 10 ms service is
        // the source period). Per-chain loss draws make them diverge.
        //   src --queue(2, 20% loss)--> a (10 ms)
        //       --queue(1, Block)--> b (25 ms, 75 ms deadline) --wire--> out (80 ms deadline)
        //   imu (200 Hz) --sampled--> b
        let build = || {
            let mut g = GraphBuilder::new("det");
            for c in 0..12 {
                let src = g
                    .source::<Frame>(
                        format!("src{c}"),
                        SourceSpec::new(Hertz::new(100.0), Bytes::new(5000.0)),
                    )
                    .unwrap();
                let imu = g
                    .source::<Frame>(
                        format!("imu{c}"),
                        SourceSpec::new(Hertz::new(200.0), Bytes::new(24.0)),
                    )
                    .unwrap();
                let a = g
                    .server::<Frame, Frame>(
                        format!("a{c}"),
                        ServerSpec::new(Service::fixed(Seconds::from_millis(10.0))),
                    )
                    .unwrap();
                let b = g
                    .server::<Frame, Cmd>(
                        format!("b{c}"),
                        ServerSpec::new(Service::fixed(Seconds::from_millis(25.0)))
                            .deadline(Seconds::from_millis(75.0)),
                    )
                    .unwrap();
                let out = g
                    .sink::<Cmd>(
                        format!("out{c}"),
                        SinkSpec::new().deadline(Seconds::from_millis(80.0)),
                    )
                    .unwrap();
                g.connect(src, a, EdgeSpec::queue(2).loss(LossModel::constant(0.2))).unwrap();
                g.connect(a, b, EdgeSpec::queue(1).policy(QueuePolicy::Block)).unwrap();
                g.connect(imu, b, EdgeSpec::sampled()).unwrap();
                g.connect(b, out, EdgeSpec::wire()).unwrap();
            }
            g.seal(ParConfig::serial()).unwrap()
        };
        // One line per chain: `node fired/processed/received/misses`,
        // then `edge delivered/dropped/lost/blocked/max_depth`.
        let pinned = |r: &GraphReport| -> Vec<String> {
            r.nodes
                .chunks(5)
                .zip(r.edges.chunks(4))
                .map(|(nodes, edges)| {
                    let n = nodes.iter().map(|n| {
                        format!(
                            "{} {}/{}/{}/{}",
                            n.name, n.fired, n.processed, n.received, n.deadline_misses
                        )
                    });
                    let e = edges.iter().map(|e| {
                        format!(
                            "{}-{} {}/{}/{}/{}/{}",
                            e.from, e.to, e.delivered, e.dropped, e.lost, e.blocked, e.max_depth
                        )
                    });
                    n.chain(e).collect::<Vec<_>>().join(" ")
                })
                .collect()
        };
        let report = build().run_seeded(Seconds::new(2.0), 42).unwrap();
        // Pinned: the handling order of same-timestamp events must not
        // change any count.
        let want = [
            "src0 200/0/0/0 imu0 401/0/0/0 a0 0/82/82/0 b0 0/79/160/76 out0 0/0/79/76 src0-a0 84/71/45/0/2 a0-b0 81/0/0/80/1 imu0-b0 401/0/0/0/0 b0-out0 79/0/0/0/0",
            "src1 200/0/0/0 imu1 401/0/0/0 a1 0/82/82/0 b1 0/79/160/72 out1 0/0/79/71 src1-a1 83/75/42/0/2 a1-b1 81/0/0/77/1 imu1-b1 401/0/0/0/0 b1-out1 79/0/0/0/0",
            "src2 200/0/0/0 imu2 401/0/0/0 a2 0/82/82/0 b2 0/79/160/76 out2 0/0/79/76 src2-a2 84/78/38/0/2 a2-b2 81/0/0/80/1 imu2-b2 401/0/0/0/0 b2-out2 79/0/0/0/0",
            "src3 200/0/0/0 imu3 401/0/0/0 a3 0/82/82/0 b3 0/79/160/75 out3 0/0/79/75 src3-a3 84/71/45/0/2 a3-b3 81/0/0/79/1 imu3-b3 401/0/0/0/0 b3-out3 79/0/0/0/0",
            "src4 200/0/0/0 imu4 401/0/0/0 a4 0/82/82/0 b4 0/79/160/76 out4 0/0/79/76 src4-a4 84/76/40/0/2 a4-b4 81/0/0/80/1 imu4-b4 401/0/0/0/0 b4-out4 79/0/0/0/0",
            "src5 200/0/0/0 imu5 401/0/0/0 a5 0/82/82/0 b5 0/79/160/75 out5 0/0/79/74 src5-a5 84/79/37/0/2 a5-b5 81/0/0/78/1 imu5-b5 401/0/0/0/0 b5-out5 79/0/0/0/0",
            "src6 200/0/0/0 imu6 401/0/0/0 a6 0/82/82/0 b6 0/79/160/76 out6 0/0/79/76 src6-a6 83/74/43/0/2 a6-b6 81/0/0/80/1 imu6-b6 401/0/0/0/0 b6-out6 79/0/0/0/0",
            "src7 200/0/0/0 imu7 401/0/0/0 a7 0/82/82/0 b7 0/79/160/76 out7 0/0/79/76 src7-a7 84/68/48/0/2 a7-b7 81/0/0/80/1 imu7-b7 401/0/0/0/0 b7-out7 79/0/0/0/0",
            "src8 200/0/0/0 imu8 401/0/0/0 a8 0/82/82/0 b8 0/79/160/75 out8 0/0/79/73 src8-a8 83/71/46/0/2 a8-b8 81/0/0/79/1 imu8-b8 401/0/0/0/0 b8-out8 79/0/0/0/0",
            "src9 200/0/0/0 imu9 401/0/0/0 a9 0/82/82/0 b9 0/79/160/74 out9 0/0/79/73 src9-a9 84/75/41/0/2 a9-b9 81/0/0/78/1 imu9-b9 401/0/0/0/0 b9-out9 79/0/0/0/0",
            "src10 200/0/0/0 imu10 401/0/0/0 a10 0/82/82/0 b10 0/79/160/75 out10 0/0/79/73 src10-a10 84/80/36/0/2 a10-b10 81/0/0/80/1 imu10-b10 401/0/0/0/0 b10-out10 79/0/0/0/0",
            "src11 200/0/0/0 imu11 401/0/0/0 a11 0/81/81/0 b11 0/78/158/72 out11 0/0/78/72 src11-a11 83/83/34/0/2 a11-b11 80/0/0/76/1 imu11-b11 401/0/0/0/0 b11-out11 78/0/0/0/0",
        ];
        assert_eq!(pinned(&report), want);
    }

    #[test]
    fn contention_stretches_co_located_services() {
        let build = |shared: bool| {
            let mut g = GraphBuilder::new("bus");
            // Deliberately undersized: combined demand oversubscribes
            // the bus so co-located services visibly stretch.
            g.shared_site("soc0", BytesPerSecond::new(5e7));
            let cam = g
                .source::<Frame>("cam", SourceSpec::new(Hertz::new(30.0), Bytes::new(2e6)))
                .unwrap();
            let pre = g
                .server::<Frame, Frame>(
                    "pre",
                    ServerSpec::new(Service::kernel(
                        m7_arch::workload::KernelProfile::feature_extract(1280, 720),
                    )),
                )
                .unwrap();
            let plan = g
                .server::<Frame, Cmd>(
                    "plan",
                    ServerSpec::new(Service::kernel(m7_arch::workload::KernelProfile::gemm(256))),
                )
                .unwrap();
            let out = g.sink::<Cmd>("out", SinkSpec::new()).unwrap();
            g.connect(cam, pre, EdgeSpec::queue(2)).unwrap();
            g.connect(pre, plan, EdgeSpec::queue(2)).unwrap();
            g.connect(plan, out, EdgeSpec::wire()).unwrap();
            let mut place = |n, kind| {
                let p = Placement::preset(kind);
                let p = if shared { p.at_site("soc0") } else { p };
                g.place(n, p).unwrap();
            };
            place(pre, PlatformKind::CpuSimd);
            place(plan, PlatformKind::CpuSimd);
            g.seal(ParConfig::serial()).unwrap()
        };
        let alone = build(false).run(Seconds::new(1.0)).unwrap();
        let contended = build(true).run(Seconds::new(1.0)).unwrap();
        let svc = |r: &GraphReport, n: &str| r.node(n).unwrap().service.unwrap();
        assert!(contended.node("pre").unwrap().slowdown > 1.0);
        assert!(svc(&contended, "pre") > svc(&alone, "pre"));
        assert_eq!(alone.node("pre").unwrap().slowdown, 1.0);
    }

    #[test]
    fn nan_duration_is_a_typed_error_not_a_hang() {
        let g = chain(10.0, 1.0, 1, QueuePolicy::DropNewest);
        assert!(matches!(g.run(Seconds::new(f64::NAN)), Err(FlowError::InvalidDuration { .. })));
        assert!(matches!(g.run(Seconds::new(-1.0)), Err(FlowError::InvalidDuration { .. })));
        assert!(matches!(
            g.run(Seconds::new(f64::INFINITY)),
            Err(FlowError::InvalidDuration { .. })
        ));
    }

    #[test]
    fn zero_duration_processes_only_t0() {
        let r = chain(10.0, 1.0, 1, QueuePolicy::DropNewest).run(Seconds::ZERO).unwrap();
        assert_eq!(r.node("src").unwrap().fired, 1);
        assert_eq!(r.node("srv").unwrap().processed, 0, "service ends after the horizon");
    }
}
