//! `serve`: an open loop against an in-process `EvalServer` evaluating
//! `e9_dse::mission_cost` on a serial pool.
//!
//! One generator thread sends requests when they are due (Poisson
//! arrivals) over nonblocking sockets: framed requests on a fixed pool of
//! persistent connections, one request outstanding per connection, and
//! about one in ten in the legacy text protocol on a connection of its
//! own. (One pipelined connection cannot be used: a request shed with
//! `busy` is answered ahead of the requests queued before it, and frames
//! carry no request id.) Traffic is ≈70% repeats of a small hot set,
//! ≈20% first touches of keys recovered from the disk tier, and ≈10% new
//! designs. The disk tier is filled once with those recovered keys, then
//! recovered when the measured server spawns.
//!
//! Phases: a fixed `lo` rate, a fixed `hi` rate, stepped ramps, then a
//! saturation phase that keeps every client connection busy (closed loop)
//! and counts answers per second. Every request is timed from when it was
//! due. A ramp step meets the
//! limit when its p99 (failed requests counting as over it) is within
//! [`LIMIT_US`] and its backlog does not grow; `serve.capacity_rps` is
//! the highest such step, median over the ramps of a run.
//!
//! End-to-end, the workload reports `ops_per_s`: answers per second at
//! saturation, median over 1000-answer windows. The open-loop latencies
//! and the capacity are per-layer metrics of the traced run: on a 2-core virtual machine their
//! run-to-run spread was wider than any bound the benchmark may set,
//! because at these loads the server mostly waits out its idle park and
//! the host's wake-up latency (see README.md).

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use magseven::par::ParConfig;
use magseven::serve::frame::encode_request;
use magseven::serve::wire::{format_request, parse_response, Request, Response};
use magseven::serve::{
    EvalRequest, EvalServer, Evaluator, FrameDecoder, FramedClient, ServeConfig, ServerHandle,
    ServerStats,
};
use magseven::suite::experiments::e9_dse::mission_cost;

use crate::spans::{self, span};
use crate::stats::{median, quantile_of, slope, Rng};
use crate::{Config, Outcome};

/// Offered rates of the fixed phases, requests per second: about 10% and
/// 40% of the capacity measured on a 2-core host (≈5000/s).
const LO_RPS: f64 = 500.0;
const HI_RPS: f64 = 2000.0;
/// Ramp step rates, requests per second, ×1.1 apart around capacity.
const RAMP_RPS: [f64; 8] = [3300.0, 3630.0, 3990.0, 4390.0, 4830.0, 5310.0, 5840.0, 6430.0];
/// Seconds per phase at `--seconds 20`; other run lengths scale them.
const LO_S: f64 = 5.0;
const HI_S: f64 = 4.0;
const STEP_S: f64 = 0.25;
const SAT_S: f64 = 2.5;
/// Requests drawn for the saturation phase, per second of it: more than
/// the server completes, so the client never runs dry.
const SAT_DRAWN_RPS: f64 = 14000.0;
/// Requests per window: `lo` and `hi` report the median over windows of
/// each window's p50 and p99, so one stall moves one window, not the run.
const WINDOW: usize = 1000;
/// Ramps per run; `serve.capacity_rps` is the median of their capacities.
const RAMPS: usize = 2;
/// The p99 latency limit a ramp step must meet.
const LIMIT_US: f64 = 5000.0;
/// A step's backlog is growing when the least-squares trend of the
/// outstanding-request count rises by more than this over the step.
const GROWTH_LIMIT: f64 = 16.0;
/// Hot-set size.
const HOT_KEYS: usize = 16;
/// A request unanswered this long after it was sent has failed.
const TIMEOUT_S: f64 = 2.0;
/// Client connections: a fixed pool of persistent framed connections,
/// and a limit on legacy connections open at once. A request finding no
/// free connection waits in the generator's queue, and that wait counts
/// in its latency. A fixed pool keeps the server's per-turn connection
/// scan the same from run to run.
const FRAMED_CONNS: usize = 8;
const LEGACY_CONNS: usize = 8;
/// Idle gap between phases, so one phase's backlog never leaks into the
/// next one's latencies.
const GAP_S: f64 = 0.1;
/// Server spawns timed for `setup_s`; the last one serves the run.
const SPAWNS: usize = 5;
const WORKLOAD: &str = "e9";

static EVALUATIONS: AtomicU64 = AtomicU64::new(0);

/// The served function: E9's UAV mission cost, with request checks.
struct MissionCost;

impl Evaluator for MissionCost {
    fn namespace_tag(&self) -> &str {
        "m7-perfbench-e9"
    }

    fn evaluate(&self, request: &EvalRequest) -> Result<f64, String> {
        let v = &request.values;
        if v.len() != 4 || v.iter().any(|x| !x.is_finite()) || !(0.0..5.0).contains(&v[0]) {
            return Err("want 4 finite values with a tier index in 0..5".into());
        }
        EVALUATIONS.fetch_add(1, Ordering::Relaxed);
        let _s = span("serve.evaluator", request.seed);
        Ok(mission_cost(v, request.seed))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Key {
    Hot(usize),
    Recovered(usize),
    New(usize),
}

struct Keys {
    hot: Vec<EvalRequest>,
    recovered: Vec<EvalRequest>,
    new: Vec<EvalRequest>,
}

impl Keys {
    fn request(&self, key: Key) -> &EvalRequest {
        match key {
            Key::Hot(i) => &self.hot[i],
            Key::Recovered(i) => &self.recovered[i],
            Key::New(i) => &self.new[i],
        }
    }
}

fn design(rng: &mut Rng, seed: u64) -> EvalRequest {
    let values = vec![
        rng.below(5) as f64,
        [10.0, 20.0, 40.0, 80.0][rng.below(4)],
        [0.15, 0.25, 0.4][rng.below(3)],
        [8.0, 12.0, 20.0][rng.below(3)],
    ];
    EvalRequest::new(WORKLOAD, values, seed)
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
struct Due {
    at: f64,
    key: Key,
    legacy: bool,
    phase: usize,
}

/// A phase of the schedule: a constant offered rate for a duration.
#[derive(Debug, Clone, Copy)]
struct Phase {
    name: &'static str,
    rps: f64,
    start: f64,
    secs: f64,
    traced: bool,
}

/// Builds the request schedule, all from `rng`: the key mix and the
/// protocol mix, with Poisson arrivals in each open-loop phase; the
/// saturation phase's requests are all due at its start.
fn schedule(phases: &[Phase], rng: &mut Rng, keys: &mut Keys, key_base: u64) -> Vec<Due> {
    let mut out = Vec::new();
    let mut draw = |at: f64, phase: usize, rng: &mut Rng| {
        let u = rng.unit();
        let key = if u < 0.7 {
            Key::Hot(rng.below(HOT_KEYS))
        } else if u < 0.9 {
            let i = keys.recovered.len();
            keys.recovered.push(design(rng, key_base + (1 << 32) + i as u64));
            Key::Recovered(i)
        } else {
            let i = keys.new.len();
            keys.new.push(design(rng, key_base + (2 << 32) + i as u64));
            Key::New(i)
        };
        out.push(Due { at, key, legacy: rng.unit() < 0.1, phase });
    };
    for (p, phase) in phases.iter().enumerate() {
        if phase.name == "sat" {
            for _ in 0..(phase.rps * phase.secs) as usize {
                draw(phase.start, p, rng);
            }
            continue;
        }
        let mut t = phase.start;
        loop {
            t += -(1.0 - rng.unit()).ln() / phase.rps;
            if t >= phase.start + phase.secs {
                break;
            }
            draw(t, p, rng);
        }
    }
    out
}

/// The phases of one run: `lo`, `hi` and the ramps, in a compressed
/// untraced copy and a traced copy when tracing.
fn phases(cfg: &Config) -> Vec<Phase> {
    let halves: &[bool] = if cfg.trace { &[false, true] } else { &[false] };
    let scale = cfg.seconds / 20.0 / halves.len() as f64;
    let mut out = Vec::new();
    let mut t = GAP_S;
    let mut push = |name, rps, secs: f64, traced| {
        out.push(Phase { name, rps, start: t, secs: secs * scale, traced });
        t += secs * scale + GAP_S;
    };
    for &traced in halves {
        push("lo", LO_RPS, LO_S, traced);
        push("hi", HI_RPS, HI_S, traced);
        for _ in 0..RAMPS {
            for rps in RAMP_RPS {
                push("ramp", rps, STEP_S, traced);
            }
        }
        push("sat", SAT_DRAWN_RPS, SAT_S, traced);
    }
    out
}

/// What happened to one request.
#[derive(Debug, Clone, Copy)]
struct Done {
    due: usize,
    /// When the answer arrived, seconds since the generator started.
    at: f64,
    /// From due to answer, microseconds; infinite when it failed.
    latency_us: f64,
    cost: Option<f64>,
}

/// One client connection with at most one request outstanding.
struct Conn {
    stream: TcpStream,
    legacy: bool,
    /// The outstanding request's index in the schedule.
    waiting: Option<usize>,
    /// When it was sent, seconds since the generator started.
    sent_at: f64,
    out: Vec<u8>,
    sent: usize,
    /// Legacy answer bytes; framed bytes go to the decoder.
    buf: Vec<u8>,
    decoder: FrameDecoder,
    /// The peer closed, or the socket failed.
    closed: bool,
}

impl Conn {
    fn open(addr: SocketAddr, legacy: bool) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Self {
            stream,
            legacy,
            waiting: None,
            sent_at: 0.0,
            out: Vec::new(),
            sent: 0,
            buf: Vec::new(),
            decoder: FrameDecoder::new(),
            closed: false,
        })
    }

    /// Moves bytes both ways without blocking. Returns whether any moved
    /// and the answer, once complete (`Some(None)` when the connection
    /// ended without a readable answer).
    fn pump(&mut self, chunk: &mut [u8]) -> (bool, Option<Option<Response>>) {
        let mut moved = false;
        let mut closed = self.closed;
        while self.sent < self.out.len() {
            match self.stream.write(&self.out[self.sent..]) {
                Ok(n) if n > 0 => {
                    self.sent += n;
                    moved = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                _ => {
                    closed = true;
                    break;
                }
            }
        }
        loop {
            match self.stream.read(chunk) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(n) => {
                    moved = true;
                    if self.legacy {
                        self.buf.extend_from_slice(&chunk[..n]);
                    } else {
                        self.decoder.feed(&chunk[..n]);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    closed = true;
                    break;
                }
            }
        }
        let answer = if self.legacy {
            let complete = closed || self.buf.windows(2).any(|w| w == b"\n\n");
            complete
                .then(|| std::str::from_utf8(&self.buf).ok().and_then(|t| parse_response(t).ok()))
        } else {
            match self.decoder.next_response() {
                Ok(Some(r)) => Some(Some(r)),
                Ok(None) if !closed => None,
                _ => Some(None),
            }
        };
        self.closed = closed;
        (moved, answer)
    }
}

/// The generator's state. Framed requests go out on a fixed pool of
/// persistent connections, each with at most one request outstanding;
/// legacy requests open a connection each, as the text protocol requires.
/// A due request waits in `queue` until a connection is free.
struct Generator<'a> {
    addr: SocketAddr,
    sched: &'a [Due],
    keys: &'a Keys,
    /// Per phase, the time after which its queued requests are dropped
    /// unsent (the end of the saturation phase).
    cutoff: Vec<f64>,
    /// New keys sent to the server.
    sent_new: u64,
    t0: Instant,
    conns: Vec<Conn>,
    /// Pooled framed connections with nothing outstanding.
    idle: Vec<Conn>,
    /// Due requests waiting for a free connection.
    queue: VecDeque<usize>,
    done: Vec<Done>,
    late_us: Vec<f64>,
    /// `(seconds since start, outstanding requests)` samples.
    depth: Vec<(f64, f64)>,
    chunk: Vec<u8>,
}

impl<'a> Generator<'a> {
    fn new(
        addr: SocketAddr,
        sched: &'a [Due],
        keys: &'a Keys,
        phases: &[Phase],
    ) -> io::Result<Self> {
        Ok(Self {
            addr,
            sched,
            keys,
            cutoff: phases
                .iter()
                .map(|p| if p.name == "sat" { p.start + p.secs } else { f64::INFINITY })
                .collect(),
            sent_new: 0,
            t0: Instant::now(),
            conns: Vec::new(),
            idle: (0..FRAMED_CONNS).map(|_| Conn::open(addr, false)).collect::<io::Result<_>>()?,
            queue: VecDeque::new(),
            done: Vec::with_capacity(sched.len()),
            late_us: Vec::with_capacity(sched.len()),
            depth: Vec::new(),
            chunk: vec![0; 64 * 1024],
        })
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    fn finish(&mut self, due: usize, response: Option<Response>) {
        let d = self.sched[due];
        let now = self.now();
        let cost = match response {
            Some(Response::Cost { cost, .. }) => Some(cost),
            _ => None,
        };
        let latency_us = if cost.is_some() { (now - d.at) * 1e6 } else { f64::INFINITY };
        if spans::enabled() {
            let name = match (d.legacy, d.key) {
                (true, _) => "serve.rtt.text",
                (false, Key::Hot(_)) => "serve.rtt.hot_hit",
                (false, Key::Recovered(_)) => "serve.rtt.disk_hit",
                (false, Key::New(_)) => "serve.rtt.miss",
            };
            let t0 = spans::ns_at(self.t0);
            spans::record(name, t0 + (d.at * 1e9) as u64, t0 + (now * 1e9) as u64, due as u64);
        }
        self.done.push(Done { due, at: now, latency_us, cost });
    }

    /// Sends queued requests while connections are free.
    fn send_queued(&mut self) -> io::Result<()> {
        while let Some(&due) = self.queue.front() {
            let d = self.sched[due];
            if self.now() >= self.cutoff[d.phase] {
                self.queue.pop_front();
                continue;
            }
            let legacy = self.conns.iter().filter(|c| c.legacy).count();
            let mut conn = if d.legacy {
                if legacy >= LEGACY_CONNS {
                    return Ok(());
                }
                Conn::open(self.addr, true)?
            } else if let Some(conn) = self.idle.pop() {
                conn
            } else {
                return Ok(());
            };
            self.queue.pop_front();
            self.sent_new += u64::from(matches!(d.key, Key::New(_)));
            let request = Request::Eval(self.keys.request(d.key).clone());
            conn.out = if d.legacy {
                format_request(&request).into_bytes()
            } else {
                encode_request(&request)
            };
            conn.sent = 0;
            conn.waiting = Some(due);
            conn.sent_at = self.now();
            self.conns.push(conn);
        }
        Ok(())
    }

    /// Pumps every busy connection once; true if any bytes moved.
    fn poll(&mut self) -> bool {
        let mut progress = false;
        let now = self.now();
        let mut i = 0;
        while i < self.conns.len() {
            let (moved, answer) = self.conns[i].pump(&mut self.chunk);
            progress |= moved;
            let due = self.conns[i].waiting.expect("busy connections wait on a request");
            let sent_at = self.conns[i].sent_at;
            let answer = answer.or_else(|| (now - sent_at > TIMEOUT_S).then_some(None));
            let Some(response) = answer else {
                i += 1;
                continue;
            };
            let conn = self.conns.swap_remove(i);
            // A framed connection goes back to the pool; one the server
            // closed is replaced.
            if !conn.legacy {
                if conn.closed || response.is_none() {
                    if let Ok(fresh) = Conn::open(self.addr, false) {
                        self.idle.push(fresh);
                    }
                } else {
                    self.idle.push(Conn { waiting: None, ..conn });
                }
            }
            self.finish(due, response);
        }
        progress
    }

    /// Runs the whole schedule, switching spans on at `traced_from`
    /// seconds.
    fn drive(&mut self, traced_from: f64) -> io::Result<()> {
        let mut next = 0;
        let mut last_sample = -1.0;
        loop {
            let now = self.now();
            if now >= traced_from && !spans::enabled() {
                spans::enable(true);
            }
            while next < self.sched.len() && self.sched[next].at <= now {
                if self.cutoff[self.sched[next].phase].is_infinite() {
                    self.late_us.push((now - self.sched[next].at) * 1e6);
                }
                self.queue.push_back(next);
                next += 1;
            }
            self.send_queued()?;
            let progress = self.poll();
            if now - last_sample >= 0.0005 {
                self.depth.push((now, (self.conns.len() + self.queue.len()) as f64));
                last_sample = now;
            }
            if next == self.sched.len() && self.conns.is_empty() && self.queue.is_empty() {
                return Ok(());
            }
            if !progress {
                std::hint::spin_loop();
            }
        }
    }
}

/// Spawns the measured server over the prefilled disk tier.
fn spawn(dir: &std::path::Path) -> io::Result<ServerHandle> {
    let config = ServeConfig {
        par: ParConfig::serial(),
        disk_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    };
    EvalServer::spawn(config, Arc::new(MissionCost))
}

/// Fills the disk tier with the hot and recovered keys through a
/// throwaway server, so their results are on disk before the measured
/// server recovers them.
fn prefill(dir: &std::path::Path, keys: &Keys) -> io::Result<()> {
    let config = ServeConfig {
        par: ParConfig::with_threads(2),
        disk_dir: Some(dir.to_path_buf()),
        max_pending: 4096,
        max_batch: 64,
        ..ServeConfig::default()
    };
    let server = EvalServer::spawn(config, Arc::new(MissionCost))?;
    let mut stream = TcpStream::connect(server.addr())?;
    stream.set_nodelay(true)?;
    for window in keys.hot.chunks(256).chain(keys.recovered.chunks(256)) {
        ask_all(&mut stream, window)?;
    }
    server.shutdown();
    Ok(())
}

/// Sends every request as one burst of frames, then reads all answers.
fn ask_all(stream: &mut TcpStream, requests: &[EvalRequest]) -> io::Result<()> {
    let mut bytes = Vec::new();
    for r in requests {
        bytes.extend(encode_request(&Request::Eval(r.clone())));
    }
    stream.write_all(&bytes)?;
    let mut decoder = FrameDecoder::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut answered = 0;
    while answered < requests.len() {
        match decoder.next_response() {
            Ok(Some(Response::Cost { .. })) => answered += 1,
            Ok(Some(other)) => return Err(io::Error::other(format!("answered {other:?}"))),
            Ok(None) => {
                let n = stream.read(&mut chunk)?;
                if n == 0 {
                    return Err(io::Error::other("server closed"));
                }
                decoder.feed(&chunk[..n]);
            }
            Err(e) => return Err(io::Error::other(e.to_string())),
        }
    }
    Ok(())
}

/// Direct `mission_cost` of each key, on two threads.
fn direct_costs(keys: &Keys, wanted: impl IntoIterator<Item = Key>) -> HashMap<Key, f64> {
    let mut wanted: Vec<Key> = wanted.into_iter().collect();
    wanted.sort();
    wanted.dedup();
    let all: Vec<(Key, &EvalRequest)> = wanted.into_iter().map(|k| (k, keys.request(k))).collect();
    let (a, b) = all.split_at(all.len() / 2);
    let eval = |part: &[(Key, &EvalRequest)]| -> Vec<(Key, f64)> {
        part.iter().map(|(k, r)| (*k, mission_cost(&r.values, r.seed))).collect()
    };
    std::thread::scope(|s| {
        let h = s.spawn(|| eval(a));
        let mut out: HashMap<Key, f64> = eval(b).into_iter().collect();
        out.extend(h.join().expect("cost thread panicked"));
        out
    })
}

fn telemetry(addr: SocketAddr) -> io::Result<ServerStats> {
    match FramedClient::connect(addr)?.telemetry()? {
        Response::Telemetry(stats) => Ok(*stats),
        other => Err(io::Error::other(format!("telemetry answered {other:?}"))),
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    if let Err(err) = measure(cfg, &mut out) {
        out.failed += 1;
        out.mismatch(format!("serve workload error: {err}"));
    }
    out
}

/// p50 and p99 of a latency set (infinite entries are failures).
fn p50_p99(lat: &[f64]) -> (f64, f64) {
    (quantile_of(lat, 0.5), quantile_of(lat, 0.99))
}

/// Median over [`WINDOW`]-request windows (in due order) of each
/// window's p50 and p99; a short tail joins the last window.
fn windowed(lat: &[f64]) -> (f64, f64) {
    let n = (lat.len() / WINDOW).max(1);
    let (p50s, p99s): (Vec<f64>, Vec<f64>) = (0..n)
        .map(|w| p50_p99(&lat[w * WINDOW..if w + 1 == n { lat.len() } else { (w + 1) * WINDOW }]))
        .unzip();
    (median(&p50s), median(&p99s))
}

fn measure(cfg: &Config, out: &mut Outcome) -> io::Result<()> {
    let mut rng = Rng::new(cfg.seed);
    let key_base = rng.next_u64() >> 1;
    let mut keys = Keys {
        hot: (0..HOT_KEYS).map(|i| design(&mut rng, key_base + i as u64)).collect(),
        recovered: Vec::new(),
        new: Vec::new(),
    };
    let phases = phases(cfg);
    let sched = schedule(&phases, &mut rng, &mut keys, key_base);
    let dir = cfg.out.join("tier");
    prefill(&dir, &keys)?;

    // Set-up: spawn with recovery, then warm the hot set into the hot
    // tier (first touches of the hot set are not part of the mix).
    let mut setup_s = Vec::new();
    let mut server = None;
    for _ in 0..SPAWNS {
        if let Some(old) = server.take() {
            ServerHandle::shutdown(old);
        }
        let t = Instant::now();
        let s = spawn(&dir)?;
        let mut client = TcpStream::connect(s.addr())?;
        client.set_nodelay(true)?;
        ask_all(&mut client, &keys.hot)?;
        setup_s.push(t.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one spawn");
    let recovered_entries = server.recovery().map_or(0, |r| r.live_entries);
    EVALUATIONS.store(0, Ordering::SeqCst);

    let mut gen = Generator::new(server.addr(), &sched, &keys, &phases)?;
    // The traced copy of the schedule switches spans on at its start.
    let traced_from = phases.iter().find(|p| p.traced).map_or(f64::INFINITY, |p| p.start);
    let result = gen.drive(traced_from);
    let stats = telemetry(server.addr());
    let evaluations = EVALUATIONS.load(Ordering::SeqCst);
    server.shutdown();
    spans::enable(false);
    result?;
    let stats = stats?;

    // Output checks, outside the measured window.
    let costs =
        direct_costs(&keys, gen.done.iter().filter(|d| d.cost.is_some()).map(|d| sched[d.due].key));
    let mut answered_new = 0u64;
    for d in &gen.done {
        let key = sched[d.due].key;
        if let Some(cost) = d.cost {
            answered_new += u64::from(matches!(key, Key::New(_)));
            if cost.to_bits() != costs[&key].to_bits() {
                out.mismatch(format!(
                    "{key:?} served {cost} but mission_cost gives {}",
                    costs[&key]
                ));
            }
        }
    }
    // Every answered new key was a miss; a new key whose request failed
    // (shed, or timed out) may or may not have been evaluated.
    let sent_new = gen.sent_new;
    if stats.misses != evaluations || !(answered_new..=sent_new).contains(&stats.misses) {
        out.mismatch(format!(
            "server missed {} times and evaluated {evaluations} times for {answered_new} \
             answered of {sent_new} new keys",
            stats.misses
        ));
    }

    // Latencies by phase.
    gen.done.sort_by_key(|d| d.due);
    let mut by_phase: Vec<Vec<f64>> = vec![Vec::new(); phases.len()];
    for d in &gen.done {
        by_phase[sched[d.due].phase].push(d.latency_us);
    }
    out.failed += out.mismatches.len() as u64;
    for (p, lat) in by_phase.iter().enumerate() {
        if phases[p].name != "ramp" && !phases[p].traced {
            out.attempted += lat.len() as u64;
            out.failed += lat.iter().filter(|l| l.is_infinite()).count() as u64;
        }
    }
    let phase_lat = |name: &str, traced: bool| -> Vec<f64> {
        phases
            .iter()
            .enumerate()
            .filter(|(_, p)| p.name == name && p.traced == traced)
            .flat_map(|(i, _)| by_phase[i].iter().copied())
            .collect()
    };

    // Ramps: a step meets the limit on p99 and a flat backlog; each
    // ramp's capacity is its highest such step.
    let mut capacities = Vec::new();
    let mut ramp_failed = 0usize;
    let mut best = 0.0f64;
    for (p, phase) in phases.iter().enumerate().filter(|(_, p)| p.name == "ramp" && !p.traced) {
        let lat = &by_phase[p];
        ramp_failed += lat.iter().filter(|l| l.is_infinite()).count();
        let (_, p99) = p50_p99(lat);
        let (xs, ys): (Vec<f64>, Vec<f64>) = gen
            .depth
            .iter()
            .filter(|(t, _)| *t >= phase.start && *t < phase.start + phase.secs)
            .copied()
            .unzip();
        let rise = slope(&xs, &ys) * phase.secs;
        let ok = p99 <= LIMIT_US && rise <= GROWTH_LIMIT;
        out.note(format!(
            "  ramp step {:>6.0}/s: {:>5} requests p99 {p99:>9.1} us backlog rise {rise:>6.1} {}",
            phase.rps,
            lat.len(),
            if ok { "ok" } else { "over" }
        ));
        if ok {
            best = best.max(phase.rps);
        }
        if phase.rps == RAMP_RPS[RAMP_RPS.len() - 1] {
            capacities.push(best);
            best = 0.0;
        }
    }
    let capacity = median(&capacities);
    // Saturation: answers per second over WINDOW-answer windows.
    let saturated = |traced: bool| -> f64 {
        let mut at: Vec<f64> = gen
            .done
            .iter()
            .filter(|d| {
                let p = &phases[sched[d.due].phase];
                p.name == "sat" && p.traced == traced && d.cost.is_some()
            })
            .map(|d| d.at)
            .collect();
        at.sort_by(f64::total_cmp);
        let rate = |w: &[f64]| (w.len() - 1) as f64 / (w[w.len() - 1] - w[0]);
        let rates: Vec<f64> = at.chunks_exact(WINDOW).map(rate).collect();
        if rates.is_empty() && at.len() > 1 {
            rate(&at)
        } else {
            median(&rates)
        }
    };
    let sat = saturated(false);
    let late = quantile_of(&gen.late_us, 0.99);
    let (lo50, lo99) = windowed(&phase_lat("lo", false));
    let (hi50, hi99) = windowed(&phase_lat("hi", false));
    out.note(format!(
        "serve: lo p50 {lo50:.1} p99 {lo99:.1} us; hi p50 {hi50:.1} p99 {hi99:.1} us; \
         capacity {capacity:.0}/s (ramps {capacities:?}); {ramp_failed} ramp requests failed; \
         saturated {sat:.0}/s; \
         generator late p99 {late:.1} us; {} keys recovered",
        recovered_entries
    ));

    if cfg.trace {
        let spans = spans::snapshot();
        let totals = spans::totals(&spans);
        // Round trips by kind, over the traced copy of `lo` and `hi`.
        let rtt = |kind: fn(&Due) -> bool| -> Vec<f64> {
            gen.done
                .iter()
                .map(|d| (&sched[d.due], d.latency_us))
                .filter(|(due, _)| {
                    let p = &phases[due.phase];
                    p.traced && matches!(p.name, "lo" | "hi") && kind(due)
                })
                .map(|(_, l)| l)
                .collect()
        };
        let hot = rtt(|d| !d.legacy && matches!(d.key, Key::Hot(_)));
        for (kind, lat) in [
            ("hot_hit", hot.clone()),
            ("disk_hit", rtt(|d| !d.legacy && matches!(d.key, Key::Recovered(_)))),
            ("miss", rtt(|d| !d.legacy && matches!(d.key, Key::New(_)))),
            ("text", rtt(|d| d.legacy)),
        ] {
            let (p50, p99) = p50_p99(&lat);
            out.metric(format!("serve.rtt.{kind}.p50_us"), p50, "us");
            out.metric(format!("serve.rtt.{kind}.p99_us"), p99, "us");
        }
        let hot50 = quantile_of(&hot, 0.5);
        let server_ns = (stats.parse.p50_ns + stats.dispatch.p50_ns + stats.write.p50_ns) as f64;
        let wait = (hot50 - server_ns * 1e-3).max(0.0);
        out.metric("serve.wait.p50_us", wait, "us");
        for (name, phase) in [
            ("accept", stats.accept),
            ("parse", stats.parse),
            ("dispatch", stats.dispatch),
            ("write", stats.write),
        ] {
            out.metric(format!("serve.phase.{name}.p99_ns"), phase.p99_ns as f64, "ns");
        }
        let ev = totals.get("serve.evaluator").copied().unwrap_or_default();
        out.metric("serve.lo.p50_us", lo50, "us");
        out.metric("serve.lo.p99_us", lo99, "us");
        out.metric("serve.hi.p50_us", hi50, "us");
        out.metric("serve.hi.p99_us", hi99, "us");
        out.metric("serve.capacity_rps", capacity, "1/s");
        out.metric("serve.evaluator.us", ev.total_ns as f64 / ev.count.max(1) as f64 * 1e-3, "us");
        out.metric("serve.evaluator.calls", evaluations as f64, "count");
        let hits = stats.hot_hits + stats.disk_hits;
        out.metric("serve.hit_ratio", hits as f64 / (hits + stats.misses).max(1) as f64, "ratio");
        out.metric("serve.shed", stats.shed as f64, "count");
        out.metric("serve.reaped", stats.reaped as f64, "count");
        out.metric("serve.gen.late_p99_us", late, "us");
        out.metric("serve.recover.s", median(&setup_s), "s");
        out.metric("serve.recover.entries", recovered_entries as f64, "count");
        out.metric("serve.segment.appends", stats.insertions as f64, "count");
        out.metric("trace.overhead_pct", (sat / saturated(true) - 1.0) * 100.0, "%");
        out.metric("trace.unattributed_pct", wait / hot50.max(f64::MIN_POSITIVE) * 100.0, "%");
        let traced_wall = phases.iter().filter(|p| p.traced).map(|p| p.secs + GAP_S).sum::<f64>();
        out.note(spans::self_time_table(&spans, (traced_wall * 1e9) as u64));
    } else {
        out.metric("ops_per_s", sat, "1/s");
        out.metric("setup_s", median(&setup_s), "s");
    }
    Ok(())
}
