//! Integration tests for the serving layer: E9 memoization produces a
//! byte-identical report while saving evaluations, and the loopback
//! evaluation server round-trips requests — duplicates answered from
//! cache — identically at any pool size.
//!
//! Network-touching tests run the client under a watchdog thread so a
//! wedged server fails the test in seconds instead of hanging CI.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use magseven::par::ParConfig;
use magseven::serve::frame::{FrameDecoder, MAGIC, VERSION};
use magseven::serve::wire::{parse_response, Response};
use magseven::serve::{
    EvalClient, EvalRequest, EvalServer, Evaluator, FramedClient, ServeConfig, TierStats,
    TieredCache,
};
use magseven::suite::experiments::{e9_dse, ExperimentId};

/// The watchdog budget for one whole client session against a local
/// server — generous next to the ~ms round-trips, tight next to CI.
const WATCHDOG: Duration = Duration::from_secs(60);

/// Runs `work` on a helper thread and fails loudly if it does not finish
/// inside [`WATCHDOG`] — the test-level guard against a deadlocked
/// accept or dispatch loop.
fn with_watchdog<T: Send + 'static>(work: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(work());
    });
    let result = rx.recv_timeout(WATCHDOG).expect("server session wedged past the watchdog");
    worker.join().expect("worker panicked");
    result
}

/// A deliberately slow-free pure evaluator: a polynomial of the request
/// fields, deterministic and cheap, so tests exercise the transport and
/// cache rather than the objective.
struct PolyEvaluator;

impl Evaluator for PolyEvaluator {
    fn namespace_tag(&self) -> &str {
        "poly"
    }

    fn evaluate(&self, request: &EvalRequest) -> Result<f64, String> {
        if request.workload != "poly" {
            return Err(format!("unknown workload {:?}", request.workload));
        }
        if request.values.is_empty() {
            return Err("poly needs at least one value".to_string());
        }
        let mut acc = request.seed as f64 * 0.125;
        for (i, v) in request.values.iter().enumerate() {
            acc = acc * 0.5 + v * (i as f64 + 1.0);
        }
        Ok(acc)
    }
}

/// The session's request mix: distinct points interleaved with exact
/// duplicates (every third request repeats its predecessor).
fn session_requests(n: usize) -> Vec<EvalRequest> {
    (0..n)
        .map(|i| {
            let pick = if i % 3 == 2 { i - 1 } else { i };
            EvalRequest::new("poly", vec![pick as f64, pick as f64 * 0.25 + 1.0], 7)
        })
        .collect()
}

/// One full client session: eval every request, then read the tier
/// counters and shut the server down. Returns `(costs, cached flags,
/// final stats)`.
fn run_session(par: ParConfig) -> (Vec<f64>, Vec<bool>, TierStats) {
    with_watchdog(move || {
        let config = ServeConfig { par, ..ServeConfig::default() };
        let handle =
            EvalServer::spawn(config, Arc::new(PolyEvaluator)).expect("bind loopback server");
        let client = EvalClient::new(handle.addr()).with_timeout(Duration::from_secs(10));

        let mut costs = Vec::new();
        let mut cached = Vec::new();
        for request in session_requests(18) {
            match client.eval(&request).expect("eval round-trip") {
                Response::Cost { cost, cached: was_cached } => {
                    costs.push(cost);
                    cached.push(was_cached);
                }
                other => panic!("unexpected response: {other:?}"),
            }
        }
        let stats = handle.tier_stats();
        handle.shutdown();
        (costs, cached, stats)
    })
}

/// Served costs bit-match direct evaluation; the duplicate requests are
/// answered from the cache and the server's counters say so.
#[test]
fn loopback_round_trip_serves_exact_costs_and_caches_duplicates() {
    let (costs, cached, stats) = run_session(ParConfig::default());
    let expected: Vec<f64> = session_requests(18)
        .iter()
        .map(|r| PolyEvaluator.evaluate(r).expect("valid request"))
        .collect();
    assert_eq!(costs.len(), expected.len());
    for (i, (got, want)) in costs.iter().zip(&expected).enumerate() {
        assert_eq!(got.to_bits(), want.to_bits(), "request {i}: served {got}, direct {want}");
    }
    // 18 requests, every third a duplicate of its predecessor: exactly 6
    // requests repeat an already-served point.
    let dup_count = cached.iter().filter(|&&c| c).count();
    assert_eq!(dup_count, 6, "cached flags: {cached:?}");
    assert_eq!(stats.hits(), 6, "server cache telemetry must agree: {stats}");
    assert_eq!(stats.misses as usize, 12, "{stats}");
}

/// A serial pool and a 4-thread pool serve byte-identical responses —
/// the server inherits `m7-par`'s determinism contract.
#[test]
fn server_responses_are_thread_count_invariant() {
    let (serial_costs, serial_cached, serial_stats) = run_session(ParConfig::serial());
    let (pooled_costs, pooled_cached, pooled_stats) = run_session(ParConfig::with_threads(4));
    assert_eq!(serial_costs.len(), pooled_costs.len());
    for (a, b) in serial_costs.iter().zip(&pooled_costs) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_eq!(serial_cached, pooled_cached);
    assert_eq!(serial_stats.hits(), pooled_stats.hits());
    assert_eq!(serial_stats.misses, pooled_stats.misses);
}

/// Invalid requests come back as `error` responses — and, being
/// deterministic, are themselves cached — without disturbing the
/// well-formed traffic around them.
#[test]
fn invalid_requests_answer_with_errors_not_hangs() {
    with_watchdog(|| {
        let handle = EvalServer::spawn(ServeConfig::default(), Arc::new(PolyEvaluator))
            .expect("bind loopback server");
        let client = EvalClient::new(handle.addr()).with_timeout(Duration::from_secs(10));

        let bad = EvalRequest::new("nope", vec![1.0], 7);
        match client.eval(&bad).expect("round-trip") {
            Response::Error(msg) => assert!(msg.contains("unknown workload"), "{msg}"),
            other => panic!("expected an error response, got {other:?}"),
        }
        // The valid request after a rejected one is served normally.
        let good = EvalRequest::new("poly", vec![2.0, 3.0], 7);
        match client.eval(&good).expect("round-trip") {
            Response::Cost { cost, .. } => {
                let direct = PolyEvaluator.evaluate(&good).expect("valid");
                assert_eq!(cost.to_bits(), direct.to_bits());
            }
            other => panic!("expected a cost, got {other:?}"),
        }
        handle.shutdown();
    });
}

/// Sends raw bytes on a fresh connection and reads until the server
/// closes it.
fn send_and_read_to_close(handle: &magseven::serve::ServerHandle, bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    stream.write_all(bytes).expect("send");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("read to close");
    reply
}

/// The retired cache-stats request gets an error over both protocols,
/// and the server keeps serving other connections.
#[test]
fn retired_stats_request_gets_an_error_and_serving_continues() {
    with_watchdog(|| {
        let handle = EvalServer::spawn(ServeConfig::default(), Arc::new(PolyEvaluator))
            .expect("bind loopback server");

        let reply = send_and_read_to_close(&handle, b"op = stats\n\n");
        let reply = String::from_utf8(reply).expect("text reply");
        match parse_response(&reply).expect("parsable reply") {
            Response::Error(msg) => assert!(msg.contains("unknown op `stats`"), "{msg}"),
            other => panic!("expected an error response, got {other:?}"),
        }

        let reply = send_and_read_to_close(&handle, &[MAGIC, VERSION, 0x02, 0, 0, 0, 0, 0]);
        let mut decoder = FrameDecoder::new();
        decoder.feed(&reply);
        match decoder.next_response().expect("framed reply") {
            Some(Response::Error(msg)) => assert!(msg.contains("unknown frame kind 0x02"), "{msg}"),
            other => panic!("expected an error frame, got {other:?}"),
        }

        let good = EvalRequest::new("poly", vec![2.0, 3.0], 7);
        let direct = PolyEvaluator.evaluate(&good).expect("valid");
        let client = EvalClient::new(handle.addr()).with_timeout(Duration::from_secs(10));
        let mut framed = FramedClient::connect(handle.addr()).expect("connect framed");
        for response in [client.eval(&good), framed.eval(&good)] {
            match response.expect("round-trip") {
                Response::Cost { cost, .. } => assert_eq!(cost.to_bits(), direct.to_bits()),
                other => panic!("expected a cost, got {other:?}"),
            }
        }
        handle.shutdown();
    });
}

/// E9 through a shared memory tier: the rendered report is byte-identical
/// to the golden snapshot (blessed from a memo-free search), and the store
/// saves a strictly positive number of objective evaluations.
#[test]
fn e9_memoized_report_is_byte_identical_and_saves_work() {
    let seed = ExperimentId::E9Dse.seed(42);
    let (memoized, saved) = e9_dse::run_in(seed, &TieredCache::memory_only(1 << 12));
    let golden = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/e9_dse.txt"),
    )
    .expect("E9 golden snapshot");
    assert_eq!(memoized.report().to_string(), golden, "memoization must not change E9's report");
    assert_eq!(memoized, e9_dse::run(seed), "the store's contents must not change the result");
    assert!(saved > 0, "E9's budgeted strategies revisit exhaustively-scored designs");
}
