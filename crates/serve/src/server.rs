//! The evaluation server: a non-blocking readiness loop over the
//! memoizing batcher and the tiered cache.
//!
//! ```text
//!                    ┌────────────── event thread ──────────────┐
//! clients ──accept──▶│ conn table (≤ max_connections, else busy)│
//!                    │   ▼ nonblocking reads                    │
//!                    │ protocol sniff: 0xA7 ⇒ binary frames,    │
//!                    │                 else legacy text shim    │
//!                    │   ▼ parsed requests                      │
//!                    │ pending queue (≤ max_pending, else busy) │
//!                    │   ▼ drain ≤ max_batch per turn           │
//!                    │ coalesce ▸ tiered cache ▸ m7-par batch   │
//!                    │   ▼ per-conn write buffers, nonblocking  │
//!                    └──────────────────────────────────────────┘
//! ```
//!
//! One thread owns every socket; nothing in the request path blocks on
//! a client. A turn that makes no progress blocks in `poll(2)` on the
//! listener, every connection that can still make progress (readable
//! while it can still read, writable while it owes bytes) and the read
//! end of a wake pair, with the earliest stuck-connection reap deadline
//! as its timeout. [`ServerHandle::shutdown`] (and dropping the handle)
//! writes one byte to the wake pair, so an idle server sleeps until a
//! client, a deadline or its owner needs it — it never polls on a timer.
//! Admission control is two-layer and explicit: a connection
//! beyond `max_connections` and a request beyond `max_pending` both get
//! an immediate `busy`, never an unbounded backlog. Backpressure on the
//! wire is per-connection write buffers flushed as sockets drain; a slow
//! reader only ever stalls itself.
//!
//! Binary connections are persistent — many frames per connection, each
//! answered in order. Legacy text connections keep the original
//! one-request-per-connection contract, so every pre-existing client
//! (including [`EvalClient`]) works unchanged.
//!
//! With [`ServeConfig::disk_dir`] set, results live in the tiered cache:
//! hot in-memory shards over the crash-safe segment store, so a
//! restarted server answers previously computed work from disk — see
//! [`crate::TieredCache`] and [`crate::SegmentStore`] for the recovery rules.

use crate::batch::evaluate_batch_memo_flagged;
use crate::frame::{encode_response, FrameDecoder};
use crate::introspect::{PhaseStats, ServerStats};
use crate::key::{namespace, EvalRequest};
use crate::segment::{RecoveryReport, SegmentConfig};
use crate::sys::{Poller, POLLIN, POLLOUT};
use crate::tier::{TierConfig, TierStats, TieredCache};
use crate::wire::{format_response, parse_request, Request, Response};
use m7_par::ParConfig;
use m7_trace::{
    Counter, Gauge, Histogram, MetricClass, SpanSite, TraceCounter, TraceGauge, TraceHistogram,
};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// Request-lifecycle observability (no-ops until `m7_trace::enable()`).
// Everything here depends on client arrival order and host scheduling,
// so it is all diagnostic-class. The same numbers are also counted in
// always-on per-server state (see `Shared`), which is what the
// `telemetry` request and the `ServerHandle` accessors answer from —
// exact whether or not tracing is enabled.
static DISPATCH_SPAN: SpanSite = SpanSite::new("sched.serve.dispatch", MetricClass::Diagnostic);
static REQUESTS: TraceCounter = TraceCounter::new("serve.requests", MetricClass::Diagnostic);
static BUSY_SHED: TraceCounter = TraceCounter::new("serve.busy_shed", MetricClass::Diagnostic);
static REAPED: TraceCounter = TraceCounter::new("serve.reaped", MetricClass::Diagnostic);
static QUEUE_WAIT_NS: TraceHistogram =
    TraceHistogram::new("sched.serve.queue_wait_ns", MetricClass::Diagnostic);
static DISPATCH_BATCH: TraceHistogram =
    TraceHistogram::new("sched.serve.dispatch_batch", MetricClass::Diagnostic);
// Per-phase latency mirrors for the telemetry hub/journal; registry
// names line up with the `accept→parse→dispatch→write` loop phases.
static PHASE_ACCEPT_NS: TraceHistogram =
    TraceHistogram::new("sched.serve.phase_accept_ns", MetricClass::Diagnostic);
static PHASE_PARSE_NS: TraceHistogram =
    TraceHistogram::new("sched.serve.phase_parse_ns", MetricClass::Diagnostic);
static PHASE_DISPATCH_NS: TraceHistogram =
    TraceHistogram::new("sched.serve.phase_dispatch_ns", MetricClass::Diagnostic);
static PHASE_WRITE_NS: TraceHistogram =
    TraceHistogram::new("sched.serve.phase_write_ns", MetricClass::Diagnostic);
static CONNECTIONS_GAUGE: TraceGauge =
    TraceGauge::new("sched.serve.connections", MetricClass::Diagnostic);
static PENDING_GAUGE: TraceGauge = TraceGauge::new("sched.serve.pending", MetricClass::Diagnostic);

/// Upper bound on one legacy text message; larger requests are rejected.
const MAX_MESSAGE_BYTES: usize = 64 * 1024;

/// Nonblocking read chunk size.
const READ_CHUNK: usize = 4096;

/// Server configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// TCP port on 127.0.0.1 (0 picks an ephemeral port; read it back
    /// from [`ServerHandle::addr`]).
    pub port: u16,
    /// Pool used to dispatch each batch of unique evaluations.
    pub par: ParConfig,
    /// Hot-tier cache capacity (entries).
    pub cache_capacity: usize,
    /// Bound on parsed requests awaiting dispatch; beyond it requests
    /// are answered `busy` immediately (admission control).
    pub max_pending: usize,
    /// Most requests coalesced into one dispatch.
    pub max_batch: usize,
    /// Simultaneous connections the event loop will hold; beyond it new
    /// connections are answered `busy` and closed (connection limit).
    pub max_connections: usize,
    /// A connection stuck mid-message or mid-response longer than this
    /// is dropped.
    pub io_timeout: Duration,
    /// When set, back the hot shards with the crash-safe on-disk
    /// segment store in this directory: results survive restarts.
    pub disk_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            port: 0,
            par: ParConfig::default(),
            cache_capacity: 4096,
            max_pending: 64,
            max_batch: 32,
            max_connections: 256,
            io_timeout: Duration::from_secs(2),
            disk_dir: None,
        }
    }
}

/// The pure function a server serves. Implementations must be
/// deterministic in the request — the cache depends on it.
pub trait Evaluator: Send + Sync {
    /// A tag mixed into every cache key, separating this evaluator's
    /// results from any other's.
    fn namespace_tag(&self) -> &str;

    /// Evaluates one request, or explains (in one line) why it cannot.
    ///
    /// # Errors
    ///
    /// Returns a one-line message for requests outside the evaluator's
    /// domain (wrong arity, unknown workload, non-finite inputs).
    fn evaluate(&self, request: &EvalRequest) -> Result<f64, String>;
}

impl<F: Fn(&EvalRequest) -> Result<f64, String> + Send + Sync> Evaluator for F {
    fn namespace_tag(&self) -> &str {
        "closure"
    }

    fn evaluate(&self, request: &EvalRequest) -> Result<f64, String> {
        self(request)
    }
}

/// Always-on latency histograms, one per event-loop phase. Recording is
/// a few relaxed atomic ops per turn that did work — cheap enough to
/// keep exact regardless of the trace-enable flag, which is what lets
/// the `telemetry` request answer with real quantiles on any server.
struct PhaseClocks {
    accept: Histogram,
    parse: Histogram,
    dispatch: Histogram,
    write: Histogram,
}

impl PhaseClocks {
    const fn new() -> Self {
        Self {
            accept: Histogram::new(),
            parse: Histogram::new(),
            dispatch: Histogram::new(),
            write: Histogram::new(),
        }
    }
}

fn phase_stats(h: &Histogram) -> PhaseStats {
    PhaseStats {
        count: h.count(),
        p50_ns: h.quantile_upper_bound(0.50),
        p95_ns: h.quantile_upper_bound(0.95),
        p99_ns: h.quantile_upper_bound(0.99),
    }
}

/// Records one phase's duration into the always-on histogram and its
/// gated registry mirror (for the telemetry hub / flight journal).
fn record_phase(exact: &Histogram, mirror: &TraceHistogram, since: Instant) {
    let ns = u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
    exact.record(ns);
    mirror.record(ns);
}

/// State shared between the event thread and the handle.
struct Shared {
    stop: AtomicBool,
    /// Deterministic evaluator errors are cached alongside costs: a bad
    /// request is re-answered from memory (or disk), not re-evaluated.
    cache: TieredCache<Result<f64, String>>,
    /// Connections or requests answered `busy`.
    shed: Counter,
    /// Requests dispatched.
    requests: Counter,
    /// Connections reaped for exceeding the io timeout while stuck.
    reaped: Counter,
    /// Connections currently held by the event loop (updated per turn).
    connections: Gauge,
    /// Requests awaiting dispatch (updated per turn).
    pending_depth: Gauge,
    /// Per-phase latency, exact and always on.
    phases: PhaseClocks,
    /// When the server was spawned (uptime reference).
    started: Instant,
    config: ServeConfig,
    evaluator: Arc<dyn Evaluator>,
}

/// Builds the `telemetry` answer from the shared state. Pure reads of
/// atomics — called inline from the parse phase without blocking.
fn server_stats(shared: &Shared) -> ServerStats {
    let tier = shared.cache.stats();
    let recovery = shared.cache.recovery();
    ServerStats {
        uptime_ms: u64::try_from(shared.started.elapsed().as_millis()).unwrap_or(u64::MAX),
        connections: shared.connections.get(),
        pending: shared.pending_depth.get(),
        requests: shared.requests.get(),
        shed: shared.shed.get(),
        reaped: shared.reaped.get(),
        accept: phase_stats(&shared.phases.accept),
        parse: phase_stats(&shared.phases.parse),
        dispatch: phase_stats(&shared.phases.dispatch),
        write: phase_stats(&shared.phases.write),
        hot_hits: tier.hot_hits,
        disk_hits: tier.disk_hits,
        misses: tier.misses,
        insertions: tier.insertions,
        disk_errors: tier.disk_errors,
        hot_entries: tier.hot_entries as u64,
        disk_entries: tier.disk_entries as u64,
        compactions: tier.compactions,
        recovered_entries: recovery.map_or(0, |r| r.live_entries as u64),
        recovery_torn_bytes: recovery.map_or(0, |r| r.torn_bytes),
    }
}

/// A running server: its bound address plus the event-thread handle
/// needed to join it.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// Write end of the wake pair: one byte ends the event loop's wait.
    wake: UnixStream,
    event: Option<std::thread::JoinHandle<()>>,
}

/// The evaluation server.
pub struct EvalServer;

impl EvalServer {
    /// Binds 127.0.0.1, recovers the disk tier if configured, and
    /// spawns the event thread.
    ///
    /// # Errors
    ///
    /// The bind error if the port is unavailable, or the disk tier's
    /// open/recovery error.
    pub fn spawn(config: ServeConfig, evaluator: Arc<dyn Evaluator>) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, config.port))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let tier = match &config.disk_dir {
            Some(dir) => TierConfig::Disk(SegmentConfig::new(dir)),
            None => TierConfig::MemoryOnly,
        };
        let cache = TieredCache::open(config.cache_capacity.max(1), tier)?;
        let (wake_rx, wake) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            cache,
            shed: Counter::new(),
            requests: Counter::new(),
            reaped: Counter::new(),
            connections: Gauge::new(),
            pending_depth: Gauge::new(),
            phases: PhaseClocks::new(),
            started: Instant::now(),
            config,
            evaluator,
        });

        let event_shared = Arc::clone(&shared);
        let event = std::thread::Builder::new()
            .name("m7-serve-event".into())
            .spawn(move || event_loop(&listener, &wake_rx, &event_shared))?;

        Ok(ServerHandle { addr, shared, wake, event: Some(event) })
    }
}

impl ServerHandle {
    /// The bound address (resolves an ephemeral port request).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Exact per-tier telemetry.
    #[must_use]
    pub fn tier_stats(&self) -> TierStats {
        self.shared.cache.stats()
    }

    /// What disk-tier recovery replayed at startup (`None` without a
    /// disk tier).
    #[must_use]
    pub fn recovery(&self) -> Option<RecoveryReport> {
        self.shared.cache.recovery()
    }

    /// Exact count of connections and requests answered `busy`.
    #[must_use]
    pub fn shed_count(&self) -> u64 {
        self.shared.shed.get()
    }

    /// Stops the server and joins the event thread. The disk tier (if
    /// any) is synced by the event loop on the way out.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Blocks until the server stops on its own — a client's `shutdown`
    /// request — joining the event thread. The foreground-serving
    /// counterpart of [`ServerHandle::shutdown`].
    pub fn wait(mut self) {
        if let Some(handle) = self.event.take() {
            let _ = handle.join();
        }
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // The byte stays queued until the loop drains it, so a loop that
        // is about to wait still sees it. A full pair already holds one.
        let _ = (&self.wake).write(&[1]);
        if let Some(handle) = self.event.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.event.is_some() {
            self.stop_and_join();
        }
    }
}

/// Which protocol a connection speaks, sniffed from its first byte.
enum Proto {
    /// No bytes yet.
    Unknown,
    /// Newline `key = value` text, one request per connection.
    Legacy,
    /// Length-prefixed binary frames, persistent.
    Binary(Box<FrameDecoder>),
}

struct Conn {
    stream: TcpStream,
    proto: Proto,
    /// Unparsed legacy input (binary input lives in the decoder).
    in_buf: Vec<u8>,
    /// Bytes of `in_buf` already searched for the blank line that ends a
    /// legacy message.
    scanned: usize,
    /// Bytes owed to the client, flushed as the socket drains.
    out: VecDeque<u8>,
    /// When the current partial message or unflushed output started
    /// waiting — the stuck-connection clock.
    stuck_since: Option<Instant>,
    /// Close once `out` drains (legacy turn done, or fatal error).
    close_after_flush: bool,
    /// Peer closed its write side.
    saw_eof: bool,
    /// Requests parsed but not yet answered (keeps the conn alive).
    in_flight: usize,
    /// A request answered at parse time (control request or busy shed)
    /// that arrived behind evals still queued for this connection. It
    /// waits here, counted in `in_flight`, until they are answered, so
    /// responses keep request order; parsing pauses meanwhile.
    deferred: Option<Request>,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            proto: Proto::Unknown,
            in_buf: Vec::new(),
            scanned: 0,
            out: VecDeque::new(),
            stuck_since: None,
            close_after_flush: false,
            saw_eof: false,
            in_flight: 0,
            deferred: None,
        }
    }

    /// What this connection waits for: readable while it can still read
    /// (never after EOF or once closing), writable while it owes bytes.
    fn interest(&self) -> i16 {
        let mut events = 0;
        if !self.saw_eof && !self.close_after_flush {
            events |= POLLIN;
        }
        if !self.out.is_empty() {
            events |= POLLOUT;
        }
        events
    }

    fn queue_response(&mut self, response: &Response) {
        let bytes = match self.proto {
            Proto::Binary(_) => encode_response(response),
            _ => format_response(response).into_bytes(),
        };
        self.out.extend(bytes);
        self.in_flight = self.in_flight.saturating_sub(1);
    }
}

/// One parsed request waiting for dispatch, tagged with its connection.
struct PendingReq {
    conn_id: u64,
    request: EvalRequest,
    enqueued: Instant,
}

fn event_loop(listener: &TcpListener, wake: &UnixStream, shared: &Shared) {
    let ns = namespace(shared.evaluator.namespace_tag(), 0);
    let mut conns: Vec<(u64, Conn)> = Vec::new();
    let mut next_id: u64 = 0;
    let mut pending: VecDeque<PendingReq> = VecDeque::new();
    let mut poller = Poller::default();

    loop {
        let stopping = shared.stop.load(Ordering::SeqCst);
        let mut progress = false;

        // Accept phase: drain the listener; over the connection limit,
        // shed explicitly with `busy` instead of queueing.
        let accept_started = Instant::now();
        let mut accepted = false;
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    progress = true;
                    accepted = true;
                    if stopping {
                        continue; // dropped: no new work while draining
                    }
                    if conns.len() >= shared.config.max_connections {
                        shed_busy(stream, shared);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // A response may leave in two writes (the halves of
                    // a wrapped buffer); with Nagle the second can wait
                    // on a delayed ACK.
                    let _ = stream.set_nodelay(true);
                    conns.push((next_id, Conn::new(stream)));
                    next_id += 1;
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        if accepted {
            record_phase(&shared.phases.accept, &PHASE_ACCEPT_NS, accept_started);
        }
        // Keep the live gauges fresh before any telemetry request is
        // parsed this turn, so answers reflect this turn's state.
        shared.connections.set(conns.len() as u64);
        CONNECTIONS_GAUGE.set(conns.len() as u64);

        // Read phase: pull bytes, sniff the protocol, parse complete
        // messages into the pending queue (or answer control requests
        // inline).
        let parse_started = Instant::now();
        let mut parsed_any = false;
        for (id, conn) in &mut conns {
            if conn.close_after_flush {
                continue;
            }
            let read = pump_read(conn);
            if read > 0 {
                progress = true;
                parsed_any = true;
            }
            parse_conn(*id, conn, shared, &mut pending);
        }
        if parsed_any {
            record_phase(&shared.phases.parse, &PHASE_PARSE_NS, parse_started);
        }
        shared.pending_depth.set(pending.len() as u64);
        PENDING_GAUGE.set(pending.len() as u64);

        // Dispatch phase: drain one batch through the tiered cache and
        // the pool, then scatter responses to their connections.
        if !pending.is_empty() {
            progress = true;
            let _span = DISPATCH_SPAN.enter();
            let dispatch_started = Instant::now();
            let take = pending.len().min(shared.config.max_batch.max(1));
            let batch: Vec<PendingReq> = pending.drain(..take).collect();
            shared.requests.add(batch.len() as u64);
            REQUESTS.add(batch.len() as u64);
            DISPATCH_BATCH.record(batch.len() as u64);
            for req in &batch {
                QUEUE_WAIT_NS
                    .record(u64::try_from(req.enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX));
            }
            let requests: Vec<EvalRequest> = batch.iter().map(|p| p.request.clone()).collect();
            let evaluator = &shared.evaluator;
            let (results, _outcome) = evaluate_batch_memo_flagged(
                &shared.cache,
                shared.config.par,
                &requests,
                |r| r.cache_key(ns),
                |r| evaluator.evaluate(r).map_err(|e| e.to_string()),
            );
            for (req, (result, saved)) in batch.iter().zip(results) {
                let response = match result {
                    Ok(cost) => Response::Cost { cost, cached: saved },
                    Err(msg) => Response::Error(msg),
                };
                if let Some((_, conn)) = conns.iter_mut().find(|(id, _)| *id == req.conn_id) {
                    conn.queue_response(&response);
                }
                // A vanished connection just discards its response —
                // the result is cached either way.
            }
            record_phase(&shared.phases.dispatch, &PHASE_DISPATCH_NS, dispatch_started);
        }

        // Write phase: flush what each socket will take.
        let write_started = Instant::now();
        let mut wrote_any = false;
        for (_, conn) in &mut conns {
            if pump_write(conn) {
                progress = true;
                wrote_any = true;
            }
        }
        if wrote_any {
            record_phase(&shared.phases.write, &PHASE_WRITE_NS, write_started);
        }

        // Reap phase: closed, finished, or stuck-past-timeout conns.
        let timeout = shared.config.io_timeout;
        conns.retain_mut(|(_, conn)| retain_conn(conn, timeout, &shared.reaped));

        let stop = shared.stop.load(Ordering::SeqCst);
        if stop && stopping {
            // Two turns with the flag up: one drain turn, then out once
            // nothing is owed. An undrained connection is flushed on
            // later turns, bounded by io_timeout reaping.
            let drained = pending.is_empty()
                && conns.iter().all(|(_, c)| c.out.is_empty() && c.in_flight == 0);
            if drained {
                let _ = shared.cache.sync();
                return;
            }
        }

        if !progress {
            let deadline = reap_deadline(&conns, timeout);
            // A stopping loop never waits without a deadline.
            if stop && deadline.is_none() {
                continue;
            }
            poller.clear();
            poller.add(listener, POLLIN);
            poller.add(wake, POLLIN);
            for (_, conn) in &conns {
                let events = conn.interest();
                if events != 0 {
                    poller.add(&conn.stream, events);
                }
            }
            // A failed wait only costs one extra turn.
            let _ = poller.wait(deadline.map(|d| d.saturating_duration_since(Instant::now())));
            let mut drain = [0u8; 16];
            while matches!((&*wake).read(&mut drain), Ok(n) if n > 0) {}
        }
    }
}

/// When the first stuck connection is due for reaping, if any is stuck
/// (none when `timeout` is too large to add to an `Instant`).
fn reap_deadline(conns: &[(u64, Conn)], timeout: Duration) -> Option<Instant> {
    conns.iter().filter_map(|(_, c)| c.stuck_since?.checked_add(timeout)).min()
}

/// Answers `busy` on a just-accepted, about-to-be-dropped connection.
fn shed_busy(mut stream: TcpStream, shared: &Shared) {
    shared.shed.incr();
    BUSY_SHED.incr();
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    // A fresh connection has not spoken yet, so the protocol is
    // unknown; the legacy rendering is self-describing either way.
    let _ = stream.write_all(format_response(&Response::Busy).as_bytes());
}

/// Nonblocking read into the connection's buffers. Returns bytes read.
fn pump_read(conn: &mut Conn) -> usize {
    if conn.saw_eof {
        return 0;
    }
    let mut total = 0;
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.saw_eof = true;
                break;
            }
            Ok(n) => {
                total += n;
                match &mut conn.proto {
                    Proto::Unknown => {
                        conn.proto = if chunk[0] == crate::frame::MAGIC {
                            let mut decoder = Box::new(FrameDecoder::new());
                            decoder.feed(&chunk[..n]);
                            Proto::Binary(decoder)
                        } else {
                            conn.in_buf.extend_from_slice(&chunk[..n]);
                            Proto::Legacy
                        };
                    }
                    Proto::Binary(decoder) => decoder.feed(&chunk[..n]),
                    Proto::Legacy => conn.in_buf.extend_from_slice(&chunk[..n]),
                }
                if conn.in_buf.len() > MAX_MESSAGE_BYTES {
                    conn.queue_response(&Response::Error("message too large".into()));
                    conn.close_after_flush = true;
                    break;
                }
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.saw_eof = true;
                conn.close_after_flush = true;
                break;
            }
        }
    }
    total
}

/// Parses whatever complete messages the connection holds, answering
/// control requests inline and queueing evals (with admission control).
fn parse_conn(id: u64, conn: &mut Conn, shared: &Shared, pending: &mut VecDeque<PendingReq>) {
    while !conn.close_after_flush {
        let request = if let Some(request) = conn.deferred.take() {
            if conn.in_flight > 1 {
                conn.deferred = Some(request); // earlier evals still queued
                return;
            }
            conn.in_flight -= 1; // counted again below
            request
        } else {
            match next_request(conn) {
                Some(request) => request,
                None => return,
            }
        };
        conn.in_flight += 1;
        let inline =
            !matches!(request, Request::Eval(_)) || pending.len() >= shared.config.max_pending;
        if inline && conn.in_flight > 1 {
            // Answering now would overtake this connection's queued evals.
            conn.deferred = Some(request);
            return;
        }
        match request {
            Request::Eval(eval) => {
                if pending.len() >= shared.config.max_pending {
                    // Admission control: immediate busy, no backlog.
                    shared.shed.incr();
                    BUSY_SHED.incr();
                    conn.queue_response(&Response::Busy);
                    end_legacy_turn(conn);
                } else {
                    pending.push_back(PendingReq {
                        conn_id: id,
                        request: eval,
                        enqueued: Instant::now(),
                    });
                }
            }
            Request::Telemetry => {
                // Answered inline: pure atomic reads, no dispatch, so
                // introspection never stalls the loop.
                conn.queue_response(&Response::Telemetry(Box::new(server_stats(shared))));
                end_legacy_turn(conn);
            }
            Request::Shutdown => {
                conn.queue_response(&Response::Stopping);
                conn.close_after_flush = true;
                shared.stop.store(true, Ordering::SeqCst);
            }
        }
    }
}

/// The next complete request the connection holds, if any. Marks the
/// connection to close on EOF or a protocol error.
fn next_request(conn: &mut Conn) -> Option<Request> {
    match &mut conn.proto {
        Proto::Unknown => {
            if conn.saw_eof {
                conn.close_after_flush = true;
            }
            None
        }
        Proto::Binary(decoder) => match decoder.next_request() {
            Ok(Some(req)) => Some(req),
            Ok(None) => {
                if conn.saw_eof {
                    if decoder.pending_bytes() > 0 {
                        conn.queue_response(&Response::Error("connection closed mid-frame".into()));
                    }
                    conn.close_after_flush = true;
                }
                None
            }
            Err(err) => {
                conn.queue_response(&Response::Error(err.to_string()));
                conn.close_after_flush = true;
                None
            }
        },
        Proto::Legacy => {
            // A legacy message ends at the first blank line, or at
            // EOF (clients that close their write side). The search
            // resumes one byte before the last one stopped, so a `\n`
            // ending one read still pairs with a `\n` starting the next.
            let from = conn.scanned.saturating_sub(1);
            let end =
                conn.in_buf[from..].windows(2).position(|w| w == b"\n\n").map(|p| from + p + 2);
            conn.scanned = conn.in_buf.len();
            match end {
                Some(end) => {
                    let msg: Vec<u8> = conn.in_buf.drain(..end).collect();
                    conn.scanned = 0;
                    Some(parse_legacy(conn, &msg))
                }
                None if conn.saw_eof && !conn.in_buf.is_empty() => {
                    let msg = std::mem::take(&mut conn.in_buf);
                    conn.scanned = 0;
                    Some(parse_legacy(conn, &msg))
                }
                None => {
                    if conn.saw_eof {
                        conn.close_after_flush = true;
                    }
                    None
                }
            }
            .flatten()
        }
    }
}

/// Legacy text parse: an unparsable message answers an error and ends
/// the connection's turn.
fn parse_legacy(conn: &mut Conn, msg: &[u8]) -> Option<Request> {
    let text = match std::str::from_utf8(msg) {
        Ok(text) => text,
        Err(_) => {
            conn.queue_response(&Response::Error("message is not UTF-8".into()));
            conn.close_after_flush = true;
            return None;
        }
    };
    match parse_request(text) {
        Ok(req) => Some(req),
        Err(err) => {
            conn.queue_response(&Response::Error(err.to_string()));
            conn.close_after_flush = true;
            None
        }
    }
}

/// Legacy connections serve one request then close (the original
/// contract); binary connections persist.
fn end_legacy_turn(conn: &mut Conn) {
    if matches!(conn.proto, Proto::Legacy) {
        conn.close_after_flush = true;
    }
}

/// Marks a legacy connection done once its answer is queued (the
/// response to its single request is written by the dispatch phase).
fn legacy_answered(conn: &Conn) -> bool {
    matches!(conn.proto, Proto::Legacy) && conn.in_flight == 0 && !conn.out.is_empty()
}

/// Nonblocking flush of the connection's write buffer. Returns whether
/// any bytes moved.
fn pump_write(conn: &mut Conn) -> bool {
    if conn.out.is_empty() {
        return false;
    }
    if legacy_answered(conn) {
        conn.close_after_flush = true;
    }
    let mut moved = false;
    while !conn.out.is_empty() {
        let (head, _) = conn.out.as_slices();
        match conn.stream.write(head) {
            Ok(0) => break,
            Ok(n) => {
                conn.out.drain(..n);
                moved = true;
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.out.clear();
                conn.close_after_flush = true;
                break;
            }
        }
    }
    if moved {
        let _ = conn.stream.flush();
    }
    moved
}

/// Whether to keep a connection for the next turn; updates its stuck
/// clock. Timeout reaps are counted (other departures are normal ends).
fn retain_conn(conn: &mut Conn, timeout: Duration, reaped: &Counter) -> bool {
    let done_writing = conn.out.is_empty();
    if conn.close_after_flush && done_writing {
        return false;
    }
    if conn.saw_eof && done_writing && conn.in_flight == 0 {
        // Peer finished and nothing is owed.
        let partial = match &conn.proto {
            Proto::Binary(d) => d.pending_bytes() > 0,
            _ => !conn.in_buf.is_empty(),
        };
        if !partial {
            return false;
        }
    }
    // The stuck clock runs while a partial message waits for bytes or a
    // response waits for the socket; it resets when the conn goes idle.
    let waiting = !conn.out.is_empty()
        || !conn.in_buf.is_empty()
        || conn.in_flight > 0
        || matches!(&conn.proto, Proto::Binary(d) if d.pending_bytes() > 0);
    match (waiting, conn.stuck_since) {
        (false, _) => conn.stuck_since = None,
        (true, None) => conn.stuck_since = Some(Instant::now()),
        (true, Some(since)) => {
            if since.elapsed() > timeout {
                reaped.incr();
                REAPED.incr();
                return false;
            }
        }
    }
    true
}

/// Reads one blank-line-terminated legacy message (or to EOF), bounded
/// by [`MAX_MESSAGE_BYTES`] and the connection's read timeout. Used by
/// the blocking legacy client.
fn read_message(stream: &mut TcpStream) -> io::Result<String> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.len() > MAX_MESSAGE_BYTES {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "message too large"));
        }
        if buf.windows(2).rev().take(buf.len().min(n + 1)).any(|w| w == b"\n\n") {
            break;
        }
    }
    String::from_utf8(buf)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "message is not UTF-8"))
}

/// A one-request-per-connection client for the legacy text protocol.
///
/// # Examples
///
/// ```no_run
/// use m7_serve::{EvalClient, EvalRequest};
///
/// let client = EvalClient::new("127.0.0.1:7207".parse().unwrap());
/// let response = client.eval(&EvalRequest::new("mission", vec![1.0, 2.0], 42))?;
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct EvalClient {
    addr: SocketAddr,
    timeout: Duration,
}

impl EvalClient {
    /// A client for the server at `addr` with a 5 s default timeout.
    #[must_use]
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr, timeout: Duration::from_secs(5) }
    }

    /// Overrides the connect/read/write timeout.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Sends an evaluation request.
    ///
    /// # Errors
    ///
    /// Returns the socket error, or `InvalidData` when the response does
    /// not parse.
    pub fn eval(&self, request: &EvalRequest) -> io::Result<Response> {
        self.roundtrip(&Request::Eval(request.clone()))
    }

    /// Requests the full live-telemetry snapshot.
    ///
    /// # Errors
    ///
    /// Returns the socket error, or `InvalidData` when the response does
    /// not parse.
    pub fn telemetry(&self) -> io::Result<Response> {
        self.roundtrip(&Request::Telemetry)
    }

    /// Sends the shutdown sentinel.
    ///
    /// # Errors
    ///
    /// Returns the socket error, or `InvalidData` when the response does
    /// not parse.
    pub fn shutdown(&self) -> io::Result<Response> {
        self.roundtrip(&Request::Shutdown)
    }

    fn roundtrip(&self, request: &Request) -> io::Result<Response> {
        let mut stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        stream.write_all(crate::wire::format_request(request).as_bytes())?;
        stream.flush()?;
        let text = read_message(&mut stream)?;
        crate::wire::parse_response(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// A persistent binary-protocol connection: many framed requests per
/// TCP connection, each answered in order — the high-throughput path.
///
/// # Examples
///
/// ```no_run
/// use m7_serve::{EvalRequest, FramedClient};
///
/// let mut client = FramedClient::connect("127.0.0.1:7207".parse().unwrap())?;
/// for i in 0..100 {
///     let resp = client.eval(&EvalRequest::new("mission", vec![f64::from(i)], 42))?;
/// }
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct FramedClient {
    stream: TcpStream,
    decoder: FrameDecoder,
}

impl FramedClient {
    /// Connects with a 5 s default timeout.
    ///
    /// # Errors
    ///
    /// The connect error.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        Self::connect_timeout(addr, Duration::from_secs(5))
    }

    /// Connects with an explicit connect/read/write timeout.
    ///
    /// # Errors
    ///
    /// The connect error.
    pub fn connect_timeout(addr: SocketAddr, timeout: Duration) -> io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Self { stream, decoder: FrameDecoder::new() })
    }

    /// Sends one request frame and blocks for its response frame.
    ///
    /// # Errors
    ///
    /// The socket error, or `InvalidData` when the response stream does
    /// not decode.
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        self.stream.write_all(&crate::frame::encode_request(request))?;
        self.stream.flush()?;
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            if let Some(resp) = self
                .decoder
                .next_response()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
            {
                return Ok(resp);
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed mid-response",
                ));
            }
            self.decoder.feed(&chunk[..n]);
        }
    }

    /// Sends an evaluation request.
    ///
    /// # Errors
    ///
    /// See [`FramedClient::request`].
    pub fn eval(&mut self, request: &EvalRequest) -> io::Result<Response> {
        self.request(&Request::Eval(request.clone()))
    }

    /// Requests the full live-telemetry snapshot.
    ///
    /// # Errors
    ///
    /// See [`FramedClient::request`].
    pub fn telemetry(&mut self) -> io::Result<Response> {
        self.request(&Request::Telemetry)
    }

    /// Sends the shutdown sentinel.
    ///
    /// # Errors
    ///
    /// See [`FramedClient::request`].
    pub fn shutdown(&mut self) -> io::Result<Response> {
        self.request(&Request::Shutdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic(request: &EvalRequest) -> Result<f64, String> {
        if request.values.is_empty() {
            return Err("values must be nonempty".to_string());
        }
        Ok(request.values.iter().map(|v| v * v).sum::<f64>() + request.seed as f64)
    }

    fn spawn_default() -> ServerHandle {
        EvalServer::spawn(
            ServeConfig { par: ParConfig::serial(), ..ServeConfig::default() },
            Arc::new(quadratic),
        )
        .expect("bind loopback")
    }

    #[test]
    fn eval_roundtrip_and_cache_hit() {
        let server = spawn_default();
        let client = EvalClient::new(server.addr());
        let req = EvalRequest::new("mission", vec![3.0, 4.0], 2);
        let first = client.eval(&req).unwrap();
        assert_eq!(first, Response::Cost { cost: 27.0, cached: false });
        let second = client.eval(&req).unwrap();
        assert_eq!(second, Response::Cost { cost: 27.0, cached: true });
        assert_eq!(server.tier_stats().hits(), 1);
        server.shutdown();
    }

    #[test]
    fn framed_client_is_persistent_and_in_order() {
        let server = spawn_default();
        let mut client = FramedClient::connect(server.addr()).unwrap();
        for i in 0..20u32 {
            let req = EvalRequest::new("mission", vec![f64::from(i % 5)], 0);
            let want = quadratic(&req).unwrap();
            match client.eval(&req).unwrap() {
                Response::Cost { cost, .. } => assert_eq!(cost.to_bits(), want.to_bits()),
                other => panic!("unexpected response: {other:?}"),
            }
        }
        // 20 requests over one connection: 5 unique, 15 cached.
        assert_eq!(server.tier_stats().hits(), 15);
        let Response::Telemetry(stats) = client.telemetry().unwrap() else {
            panic!("want telemetry")
        };
        assert_eq!(stats.hot_entries, 5);
        server.shutdown();
    }

    #[test]
    fn legacy_and_binary_clients_share_one_cache() {
        let server = spawn_default();
        let req = EvalRequest::new("mission", vec![5.0], 1);
        let legacy = EvalClient::new(server.addr());
        let Response::Cost { cost: a, cached: first_cached } = legacy.eval(&req).unwrap() else {
            panic!()
        };
        assert!(!first_cached);
        let mut binary = FramedClient::connect(server.addr()).unwrap();
        let Response::Cost { cost: b, cached } = binary.eval(&req).unwrap() else { panic!() };
        assert!(cached, "binary client must hit the legacy client's entry");
        assert_eq!(a.to_bits(), b.to_bits());
        server.shutdown();
    }

    #[test]
    fn telemetry_answers_on_both_protocols() {
        let server = spawn_default();
        let legacy = EvalClient::new(server.addr());
        for i in 0..4u32 {
            let _ = legacy.eval(&EvalRequest::new("mission", vec![f64::from(i)], 0)).unwrap();
        }
        let Response::Telemetry(over_text) = legacy.telemetry().unwrap() else {
            panic!("want telemetry")
        };
        assert_eq!(over_text.requests, 4);
        assert!(over_text.dispatch.count >= 1, "dispatch phase must have samples");
        assert!(over_text.dispatch.p99_ns >= over_text.dispatch.p50_ns);
        assert_eq!(over_text.misses, 4);

        let mut binary = FramedClient::connect(server.addr()).unwrap();
        let Response::Telemetry(over_frames) = binary.telemetry().unwrap() else {
            panic!("want telemetry")
        };
        // The framed query itself parses but never dispatches.
        assert_eq!(over_frames.requests, 4);
        assert!(over_frames.parse.count >= over_text.parse.count);
        server.shutdown();
    }

    #[test]
    fn telemetry_and_clean_shutdown() {
        let server = spawn_default();
        let client = EvalClient::new(server.addr());
        let _ = client.eval(&EvalRequest::new("mission", vec![1.0], 0)).unwrap();
        let Response::Telemetry(stats) = client.telemetry().unwrap() else {
            panic!("want telemetry")
        };
        assert_eq!(stats.hot_entries, 1);
        assert_eq!(client.shutdown().unwrap(), Response::Stopping);
        server.wait();
    }

    #[test]
    fn malformed_and_out_of_domain_requests_get_errors() {
        let server = spawn_default();
        let client = EvalClient::new(server.addr());
        // Out-of-domain: empty values vector.
        let resp = client.eval(&EvalRequest::new("mission", vec![], 0)).unwrap();
        assert_eq!(resp, Response::Error("values must be nonempty".to_string()));
        // Malformed on the wire.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        stream.write_all(b"op = warp\n\n").unwrap();
        let text = read_message(&mut stream).unwrap();
        let parsed = crate::wire::parse_response(&text).unwrap();
        assert!(matches!(parsed, Response::Error(ref msg) if msg.contains("unknown op")));
        server.shutdown();
    }

    /// Sends a legacy text request in `pieces`, one `write` each with a
    /// pause between, and reads the response.
    fn text_request_in_pieces(server: &ServerHandle, pieces: &[&[u8]]) -> Response {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        for piece in pieces {
            stream.write_all(piece).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        crate::wire::parse_response(&read_message(&mut stream).unwrap()).unwrap()
    }

    #[test]
    fn text_request_written_one_byte_at_a_time_is_answered() {
        let server = spawn_default();
        let text =
            crate::wire::format_request(&Request::Eval(EvalRequest::new("mission", vec![2.0], 1)));
        let pieces: Vec<&[u8]> = text.as_bytes().chunks(1).collect();
        let resp = text_request_in_pieces(&server, &pieces);
        assert_eq!(resp, Response::Cost { cost: 5.0, cached: false });
        server.shutdown();
    }

    #[test]
    fn text_request_with_blank_line_split_across_writes_is_answered() {
        let server = spawn_default();
        let resp = text_request_in_pieces(&server, &[b"op = eval\nvalues = 3\nseed = 0\n", b"\n"]);
        assert_eq!(resp, Response::Cost { cost: 9.0, cached: false });
        server.shutdown();
    }

    #[test]
    fn unbounded_io_timeout_waits_for_a_split_request_without_panicking() {
        // The half-sent request leaves the connection stuck, so the idle
        // wait computes a reap deadline from `Duration::MAX`.
        let server = EvalServer::spawn(
            ServeConfig {
                io_timeout: Duration::MAX,
                par: ParConfig::serial(),
                ..Default::default()
            },
            Arc::new(quadratic),
        )
        .unwrap();
        let resp = text_request_in_pieces(&server, &[b"op = eval\nvalues = 2\n", b"seed = 1\n\n"]);
        assert_eq!(resp, Response::Cost { cost: 5.0, cached: false });
        server.shutdown();
    }

    #[test]
    fn garbage_binary_frames_get_an_error_not_a_hang() {
        let server = spawn_default();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Valid magic, hostile length.
        let mut bytes = vec![crate::frame::MAGIC, crate::frame::VERSION, 0x01, 0];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        stream.write_all(&bytes).unwrap();
        let mut decoder = FrameDecoder::new();
        let mut chunk = [0u8; 256];
        let resp = loop {
            if let Some(resp) = decoder.next_response().unwrap() {
                break resp;
            }
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "server closed without answering");
            decoder.feed(&chunk[..n]);
        };
        assert!(matches!(resp, Response::Error(ref msg) if msg.contains("exceeds")), "{resp:?}");
        server.shutdown();
    }

    #[test]
    fn full_queue_sheds_with_busy() {
        // max_pending = 0: every eval request is answered busy, which
        // exercises the admission-control path deterministically.
        let server = EvalServer::spawn(
            ServeConfig { max_pending: 0, par: ParConfig::serial(), ..ServeConfig::default() },
            Arc::new(quadratic),
        )
        .unwrap();
        let client = EvalClient::new(server.addr());
        let resp = client.eval(&EvalRequest::new("mission", vec![1.0], 0)).unwrap();
        assert_eq!(resp, Response::Busy);
        assert!(server.shed_count() >= 1);
        server.shutdown();
    }

    #[test]
    fn framed_control_request_waits_for_earlier_evals() {
        // Both frames arrive in one read; the telemetry answer must not
        // overtake the queued eval's, since frames carry no request id.
        let server = EvalServer::spawn(
            ServeConfig { max_pending: 1, par: ParConfig::serial(), ..ServeConfig::default() },
            Arc::new(quadratic),
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let eval = Request::Eval(EvalRequest::new("mission", vec![3.0], 1));
        let mut bytes = crate::frame::encode_request(&eval);
        bytes.extend(crate::frame::encode_request(&Request::Telemetry));
        stream.write_all(&bytes).unwrap();
        let mut decoder = FrameDecoder::new();
        let mut chunk = [0u8; 256];
        let mut responses = Vec::new();
        while responses.len() < 2 {
            if let Some(resp) = decoder.next_response().unwrap() {
                responses.push(resp);
                continue;
            }
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "server closed after {responses:?}");
            decoder.feed(&chunk[..n]);
        }
        assert_eq!(responses[0], Response::Cost { cost: 10.0, cached: false });
        let Response::Telemetry(stats) = &responses[1] else { panic!("{:?}", responses[1]) };
        assert_eq!(stats.requests, 1, "the eval was dispatched before telemetry answered");
        server.shutdown();
    }

    #[test]
    fn connection_limit_sheds_with_busy() {
        let server = EvalServer::spawn(
            ServeConfig { max_connections: 0, par: ParConfig::serial(), ..ServeConfig::default() },
            Arc::new(quadratic),
        )
        .unwrap();
        let client = EvalClient::new(server.addr());
        let resp = client.eval(&EvalRequest::new("mission", vec![1.0], 0)).unwrap();
        assert_eq!(resp, Response::Busy);
        server.shutdown();
    }

    #[test]
    fn connections_poll_only_for_what_can_progress() {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut conn = Conn::new(listener.accept().unwrap().0);
        assert_eq!(conn.interest(), POLLIN, "an open, idle connection waits to read");
        conn.out.extend(b"owed");
        assert_eq!(conn.interest(), POLLIN | POLLOUT, "owed bytes add POLLOUT");
        // After EOF, POLLIN would report ready on every wait: an idle
        // server holding this connection would spin.
        conn.saw_eof = true;
        assert_eq!(conn.interest(), POLLOUT);
        conn.out.clear();
        assert_eq!(conn.interest(), 0);
        conn.saw_eof = false;
        conn.close_after_flush = true;
        assert_eq!(conn.interest(), 0, "a closing connection reads no more");
    }

    #[test]
    fn reap_deadline_is_the_earliest_stuck_connection() {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut conns = Vec::new();
        for id in 0..3u64 {
            let _client = TcpStream::connect(addr).unwrap();
            conns.push((id, Conn::new(listener.accept().unwrap().0)));
        }
        let timeout = Duration::from_secs(2);
        assert_eq!(reap_deadline(&conns, timeout), None, "nothing stuck, no deadline");
        let now = Instant::now();
        conns[1].1.stuck_since = Some(now);
        conns[2].1.stuck_since = Some(now + Duration::from_millis(5));
        assert_eq!(reap_deadline(&conns, timeout), Some(now + timeout));
        // An io_timeout past what an Instant can hold means "never".
        assert_eq!(reap_deadline(&conns, Duration::MAX), None);
    }

    #[test]
    fn disk_backed_server_warm_starts_across_restarts() {
        let dir = std::env::temp_dir().join(format!(
            "m7serve-warm-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServeConfig {
            par: ParConfig::serial(),
            disk_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let req = EvalRequest::new("mission", vec![6.0, 8.0], 3);

        let server = EvalServer::spawn(config.clone(), Arc::new(quadratic)).unwrap();
        let client = EvalClient::new(server.addr());
        let Response::Cost { cost, cached } = client.eval(&req).unwrap() else { panic!() };
        assert!(!cached, "cold start computes");
        server.shutdown();

        // A brand-new process-equivalent: fresh server, same directory.
        let server = EvalServer::spawn(config, Arc::new(quadratic)).unwrap();
        let recovered = server.recovery().expect("disk tier");
        assert_eq!(recovered.live_entries, 1);
        let client = EvalClient::new(server.addr());
        let Response::Cost { cost: warm, cached } = client.eval(&req).unwrap() else { panic!() };
        assert!(cached, "warm start answers from the recovered disk tier");
        assert_eq!(warm.to_bits(), cost.to_bits());
        assert_eq!(server.tier_stats().disk_hits, 1);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
