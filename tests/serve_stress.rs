//! Loopback stress tests for the readiness-loop server: many
//! concurrent clients — persistent binary-framed and legacy
//! one-shot text mixed together — hammer one server with overlapping,
//! duplicate-heavy request schedules, and every response must be
//! bit-identical to a serial oracle while the cache counters balance
//! exactly.
//!
//! The exact accounting relied on below follows from the dispatch
//! design: batches are evaluated serially inside the event loop, so the
//! *first* probe of each unique key is the only probe that can miss —
//! every later probe hits, and in-batch duplicates coalesce without
//! touching the hit/miss counters at all. Hence, regardless of thread
//! interleaving:
//!
//! - `misses == insertions == entries == unique keys`,
//! - exactly one response per unique key carries `cached: false`,
//! - `hits + misses + coalesced == total requests`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use magseven::serve::wire::Response;
use magseven::serve::{
    EvalClient, EvalRequest, EvalServer, Evaluator, FramedClient, ServeConfig, ServerHandle,
};

/// Watchdog budget for one whole stress scenario.
const WATCHDOG: Duration = Duration::from_secs(60);

const CLIENTS: usize = 10;
const PER_CLIENT: usize = 40;
const UNIQUE_KEYS: usize = 30;

/// Runs `work` on a helper thread and fails loudly if it wedges.
fn with_watchdog<T: Send + 'static>(work: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(work());
    });
    let result = rx.recv_timeout(WATCHDOG).expect("stress scenario wedged past the watchdog");
    worker.join().expect("stress worker panicked");
    result
}

static CASE: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "m7stress-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Pure polynomial evaluator with a deliberate micro-stall so batches
/// genuinely overlap with client submission under load.
struct StallPoly;

impl Evaluator for StallPoly {
    fn namespace_tag(&self) -> &str {
        "stress-poly"
    }

    fn evaluate(&self, request: &EvalRequest) -> Result<f64, String> {
        std::thread::sleep(Duration::from_micros(200));
        let mut acc = request.seed as f64 * 0.375;
        for (i, v) in request.values.iter().enumerate() {
            acc = acc * 0.5 + v * (i as f64 + 1.0);
        }
        Ok(acc)
    }
}

/// The request each (client, step) pair sends. The modulus folds every
/// client's schedule onto [`UNIQUE_KEYS`] shared points, so duplicates
/// occur both within one client and *across* clients racing each other.
fn request_for(client: usize, step: usize) -> EvalRequest {
    let pick = (client * 7 + step * 3) % UNIQUE_KEYS;
    EvalRequest::new("stress-poly", vec![pick as f64, pick as f64 * 0.5 - 3.0], 11)
}

/// What the server *must* answer for that request, computed serially.
fn oracle(client: usize, step: usize) -> f64 {
    StallPoly.evaluate(&request_for(client, step)).expect("pure evaluator")
}

/// Drives one client session and returns `(cost_bits, cached)` per
/// step. Even client ids hold one persistent binary connection; odd ids
/// reconnect per request over the legacy text protocol.
fn run_client(handle: &ServerHandle, client: usize) -> Vec<(u64, bool)> {
    let addr = handle.addr();
    let mut out = Vec::with_capacity(PER_CLIENT);
    let mut framed = if client.is_multiple_of(2) {
        Some(FramedClient::connect_timeout(addr, Duration::from_secs(10)).expect("connect framed"))
    } else {
        None
    };
    for step in 0..PER_CLIENT {
        let request = request_for(client, step);
        let response = match framed.as_mut() {
            Some(fc) => fc.eval(&request),
            None => EvalClient::new(addr).with_timeout(Duration::from_secs(10)).eval(&request),
        }
        .unwrap_or_else(|e| panic!("client {client} step {step}: {e}"));
        match response {
            Response::Cost { cost, cached } => out.push((cost.to_bits(), cached)),
            other => panic!("client {client} step {step}: unexpected {other:?}"),
        }
    }
    out
}

fn spawn_clients(handle: &Arc<ServerHandle>) -> Vec<Vec<(u64, bool)>> {
    let threads: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let handle = Arc::clone(handle);
            std::thread::spawn(move || run_client(&handle, client))
        })
        .collect();
    threads.into_iter().map(|t| t.join().expect("client thread panicked")).collect()
}

/// 10 concurrent clients (5 framed + 5 legacy), duplicate-heavy mix:
/// every answer matches the serial oracle bit-for-bit, exactly one
/// `cached: false` per unique key, and the counters balance exactly.
#[test]
fn concurrent_mixed_clients_agree_with_the_serial_oracle() {
    with_watchdog(|| {
        // The hot tier is sharded 16 ways with a per-shard bound, so
        // give it headroom well past UNIQUE_KEYS even under a worst-case
        // hash skew — this test is about accounting, not eviction.
        let config =
            ServeConfig { cache_capacity: 1024, max_pending: 4096, ..ServeConfig::default() };
        let handle =
            Arc::new(EvalServer::spawn(config, Arc::new(StallPoly)).expect("bind stress server"));
        let sessions = spawn_clients(&handle);

        let mut computed = 0usize;
        for (client, session) in sessions.iter().enumerate() {
            assert_eq!(session.len(), PER_CLIENT, "client {client} dropped responses");
            for (step, &(bits, cached)) in session.iter().enumerate() {
                assert_eq!(
                    bits,
                    oracle(client, step).to_bits(),
                    "client {client} step {step}: answer differs from the serial oracle"
                );
                if !cached {
                    computed += 1;
                }
            }
        }
        assert_eq!(computed, UNIQUE_KEYS, "each unique key is computed exactly once");

        let total = (CLIENTS * PER_CLIENT) as u64;
        let stats = handle.tier_stats();
        assert_eq!(stats.misses, UNIQUE_KEYS as u64, "only first probes can miss");
        // Nothing evicted: every inserted key is still in the hot tier.
        assert_eq!(stats.insertions, UNIQUE_KEYS as u64);
        assert_eq!(stats.hot_entries, UNIQUE_KEYS);
        assert!(
            stats.hits() + stats.misses <= total,
            "hits {} + misses {} cannot exceed {} requests (rest coalesced)",
            stats.hits(),
            stats.misses,
            total
        );
        assert_eq!(handle.shed_count(), 0, "nothing may be shed under the connection limit");

        let handle = Arc::into_inner(handle).expect("all clients joined");
        handle.shutdown();
    });
}

/// Live telemetry rides alongside the full concurrent eval mix without
/// stalling either side: two pollers — one per protocol — interleave
/// introspection queries with the 10-client duplicate-heavy eval storm.
/// Telemetry is answered inline from the parse phase, so every query
/// completes even while dispatch is stalled inside the evaluator; the
/// observed request counter must be monotone across polls, the eval
/// answers still match the serial oracle bit-for-bit, and the final
/// sample agrees exactly with the cache accounting.
#[test]
fn telemetry_queries_ride_alongside_the_eval_storm() {
    with_watchdog(|| {
        const POLLS: usize = 40;
        let config =
            ServeConfig { cache_capacity: 1024, max_pending: 4096, ..ServeConfig::default() };
        let handle = Arc::new(
            EvalServer::spawn(config, Arc::new(StallPoly)).expect("bind telemetry stress server"),
        );

        let pollers: Vec<_> = (0..2)
            .map(|poller| {
                let handle = Arc::clone(&handle);
                std::thread::spawn(move || {
                    let addr = handle.addr();
                    let mut last_requests = 0u64;
                    for poll in 0..POLLS {
                        let response = if poller == 0 {
                            FramedClient::connect_timeout(addr, Duration::from_secs(10))
                                .and_then(|mut c| c.telemetry())
                        } else {
                            EvalClient::new(addr).with_timeout(Duration::from_secs(10)).telemetry()
                        }
                        .unwrap_or_else(|e| panic!("poller {poller} poll {poll}: {e}"));
                        let stats = match response {
                            Response::Telemetry(stats) => stats,
                            other => panic!("poller {poller} poll {poll}: unexpected {other:?}"),
                        };
                        assert!(
                            stats.requests >= last_requests,
                            "poller {poller} poll {poll}: dispatched-request count went backwards"
                        );
                        last_requests = stats.requests;
                    }
                    last_requests
                })
            })
            .collect();

        let sessions = spawn_clients(&handle);
        for result in pollers {
            result.join().expect("telemetry poller panicked");
        }

        // The eval traffic under interleaved introspection is untouched.
        for (client, session) in sessions.iter().enumerate() {
            assert_eq!(session.len(), PER_CLIENT, "client {client} dropped responses");
            for (step, &(bits, _)) in session.iter().enumerate() {
                assert_eq!(
                    bits,
                    oracle(client, step).to_bits(),
                    "client {client} step {step}: answer differs from the serial oracle"
                );
            }
        }

        // A final quiesced sample must agree exactly with the cache
        // accounting: telemetry itself never dispatches, so only the
        // eval requests count.
        let final_stats = match FramedClient::connect_timeout(handle.addr(), WATCHDOG)
            .and_then(|mut c| c.telemetry())
            .expect("final telemetry query")
        {
            Response::Telemetry(stats) => stats,
            other => panic!("final telemetry query answered {other:?}"),
        };
        let total = (CLIENTS * PER_CLIENT) as u64;
        assert_eq!(final_stats.requests, total, "every eval was dispatched, nothing else");
        assert_eq!(final_stats.misses, UNIQUE_KEYS as u64, "only first probes can miss");
        assert_eq!(final_stats.shed, 0, "nothing may be shed under the connection limit");
        assert!(final_stats.dispatch.count >= 1, "dispatch latency must have samples");
        assert!(
            final_stats.parse.p99_ns >= final_stats.parse.p50_ns,
            "phase quantiles must be ordered"
        );

        let handle = Arc::into_inner(handle).expect("all clients joined");
        handle.shutdown();
    });
}

/// The disk-tier restart scenario: a stressed server persists its
/// cache, a *new* server over the same directory answers the identical
/// concurrent mix bit-for-bit with **zero** misses and **zero**
/// recomputation — the warm start is observable in the tier counters.
#[test]
fn disk_tier_restart_answers_the_whole_mix_without_recomputing() {
    with_watchdog(|| {
        let dir = temp_dir("restart");
        let config = ServeConfig {
            cache_capacity: 8, // smaller than the key set: the disk tier must carry it
            max_pending: 4096,
            disk_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };

        let first = Arc::new(
            EvalServer::spawn(config.clone(), Arc::new(StallPoly)).expect("bind first server"),
        );
        let round1 = spawn_clients(&first);
        let computed: usize = round1.iter().flatten().filter(|&&(_, cached)| !cached).count();
        assert_eq!(computed, UNIQUE_KEYS, "round 1 computes each key once");
        Arc::into_inner(first).expect("clients joined").shutdown(); // syncs the segment store

        let second =
            Arc::new(EvalServer::spawn(config, Arc::new(StallPoly)).expect("bind second server"));
        let recovered = second.recovery().expect("disk tier configured").live_entries;
        assert_eq!(recovered, UNIQUE_KEYS, "every acked key survives the restart");

        let round2 = spawn_clients(&second);
        for (client, (s1, s2)) in round1.iter().zip(&round2).enumerate() {
            for (step, (&(b1, _), &(b2, cached))) in s1.iter().zip(s2).enumerate() {
                assert_eq!(b1, b2, "client {client} step {step}: restart changed the answer");
                assert!(cached, "client {client} step {step}: warm server recomputed");
            }
        }

        let tier = second.tier_stats();
        let total = (CLIENTS * PER_CLIENT) as u64;
        assert_eq!(tier.misses, 0, "a fully warm disk tier never misses");
        assert_eq!(tier.insertions, 0, "nothing recomputed, nothing re-inserted");
        assert!(tier.disk_hits >= 1, "the warm start must be served from disk");
        assert_eq!(
            tier.hot_hits + tier.disk_hits,
            total,
            "every round-2 request is answered by one of the two tiers"
        );

        Arc::into_inner(second).expect("clients joined").shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    });
}
