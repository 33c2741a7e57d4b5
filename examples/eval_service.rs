//! A loopback evaluation service for the E9 mission objective: clients
//! submit UAV design points over TCP and receive the mission-level cost,
//! with duplicate work answered from the content-addressed cache.
//!
//! Run with: `cargo run --release --example eval_service [mode] [flags]`
//!
//! Modes (default: `--self-test`):
//!
//! - `--serve` — bind the given `--port` (default ephemeral), print the
//!   bound address, and serve until a client sends `op = shutdown`.
//! - `--client` — send `--requests` design points (with deliberate
//!   duplicates) to a server at `--port`, print each cost, then query
//!   `op = telemetry` and print the server's snapshot.
//! - `--self-test` — spawn an in-process server on an ephemeral port,
//!   run the client against it, verify every response bit-matches direct
//!   evaluation and that duplicates hit the cache, then shut down.
//!   Exits non-zero on any mismatch.
//!
//! Flags: `--port P`, `--threads N` (evaluation pool size), `--requests
//! N` (client design points, default 12), `--seed S` (mission seed,
//! default 42), `--cache-dir DIR` (back the cache with the crash-safe
//! on-disk segment store in DIR — results survive restarts, and a
//! restarted server reports how many entries it recovered), `--trace
//! FILE` (write a chrome://tracing JSON trace on exit), `--metrics`
//! (dump `key=value` metrics to stderr on exit).
//!
//! Kill-and-restart smoke, by hand:
//!
//! ```text
//! cargo run --release --example eval_service -- --self-test --cache-dir /tmp/m7cache
//! cargo run --release --example eval_service -- --self-test --cache-dir /tmp/m7cache
//! ```
//!
//! The second run recovers the first run's entries from disk and fails
//! unless every request is answered from the warm cache without
//! recomputing.
//!
//! Protocol: newline-delimited `key = value` pairs, blank-line
//! terminated — try it by hand with `nc 127.0.0.1 <port>`:
//!
//! ```text
//! op = eval
//! workload = uav-mission
//! seed = 42
//! values = 2 40 0.25 12
//! ```

use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use magseven::par::ParConfig;
use magseven::serve::wire::Response;
use magseven::serve::{EvalClient, EvalRequest, EvalServer, Evaluator, ServeConfig};
use magseven::suite::experiments::e9_dse;
use magseven::trace::{flag_value, ObsFlags};

/// The served objective: E9's mission-level cost over (tier, battery_wh,
/// rotor_m2, sensor_m), validated before indexing anything.
struct MissionEvaluator;

impl Evaluator for MissionEvaluator {
    fn namespace_tag(&self) -> &str {
        "e9-mission"
    }

    fn evaluate(&self, request: &EvalRequest) -> Result<f64, String> {
        if request.workload != "uav-mission" {
            return Err(format!(
                "unknown workload {:?}; this service serves \"uav-mission\"",
                request.workload
            ));
        }
        if request.values.len() != 4 {
            return Err(format!(
                "uav-mission takes 4 values (tier battery_wh rotor_m2 sensor_m), got {}",
                request.values.len()
            ));
        }
        if request.values.iter().any(|v| !v.is_finite()) {
            return Err("all values must be finite".to_string());
        }
        let tier = request.values[0];
        if tier.fract() != 0.0 || !(0.0..5.0).contains(&tier) {
            return Err(format!("tier must be an integer in 0..=4, got {tier}"));
        }
        if request.values[1] <= 0.0 || request.values[2] <= 0.0 || request.values[3] <= 0.0 {
            return Err("battery_wh, rotor_m2, and sensor_m must be positive".to_string());
        }
        Ok(e9_dse::mission_cost(&request.values, request.seed))
    }
}

/// The client's workload: `n` design points from the E9 space, cycling
/// so every third request is a repeat — the duplicates the cache should
/// absorb.
fn client_requests(n: usize, seed: u64) -> Vec<EvalRequest> {
    let space = e9_dse::uav_design_space();
    let all = space.enumerate();
    (0..n)
        .map(|i| {
            // Stride through the space, revisiting every third point.
            let pick = if i % 3 == 2 { i - 1 } else { i };
            let point = &all[(pick * 7) % all.len()];
            EvalRequest::new("uav-mission", space.values(point), seed)
        })
        .collect()
}

/// Prints what a disk-backed server found on startup — the observable
/// proof that a restart reuses earlier work.
fn report_recovery(handle: &magseven::serve::ServerHandle, cache_dir: &Option<PathBuf>) {
    if let (Some(dir), Some(rec)) = (cache_dir, handle.recovery()) {
        println!(
            "disk cache {}: recovered {} entries ({} records, {} torn bytes truncated)",
            dir.display(),
            rec.live_entries,
            rec.records,
            rec.torn_bytes
        );
    }
}

fn serve(port: u16, par: ParConfig, cache_dir: Option<PathBuf>) -> ExitCode {
    let config = ServeConfig { port, par, disk_dir: cache_dir.clone(), ..ServeConfig::default() };
    let handle = match EvalServer::spawn(config, Arc::new(MissionEvaluator)) {
        Ok(handle) => handle,
        Err(err) => {
            eprintln!("bind failed: {err}");
            return ExitCode::from(2);
        }
    };
    report_recovery(&handle, &cache_dir);
    println!("serving uav-mission on {}", handle.addr());
    println!("stop with: op = shutdown");
    handle.wait();
    eprintln!("server stopped");
    ExitCode::SUCCESS
}

fn run_client(port: u16, requests: usize, seed: u64) -> ExitCode {
    let addr = std::net::SocketAddr::from(([127, 0, 0, 1], port));
    let client = EvalClient::new(addr);
    for request in client_requests(requests, seed) {
        match client.eval(&request) {
            Ok(Response::Cost { cost, cached }) => {
                let tag = if cached { " (cached)" } else { "" };
                println!("{:?} -> {cost}{tag}", request.values);
            }
            Ok(other) => {
                eprintln!("unexpected response: {other:?}");
                return ExitCode::from(2);
            }
            Err(err) => {
                eprintln!("request failed: {err}");
                return ExitCode::from(2);
            }
        }
    }
    match client.telemetry() {
        Ok(Response::Telemetry(stats)) => print!("server telemetry: {stats}"),
        other => {
            eprintln!("telemetry query failed: {other:?}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

/// Spawns server + client in one process and verifies the served costs
/// bit-match direct evaluation, with duplicates answered from cache.
///
/// With `--cache-dir`, a second invocation over the same directory is a
/// *warm* start: the server recovers the previous run's entries from
/// disk, and this self-test then **requires** every response to be
/// cached and at least one answer to come from the disk tier — the
/// kill-and-restart proof, runnable as two plain processes.
fn self_test(requests: usize, seed: u64, par: ParConfig, cache_dir: Option<PathBuf>) -> ExitCode {
    let config =
        ServeConfig { port: 0, par, disk_dir: cache_dir.clone(), ..ServeConfig::default() };
    let handle = match EvalServer::spawn(config, Arc::new(MissionEvaluator)) {
        Ok(handle) => handle,
        Err(err) => {
            eprintln!("bind failed: {err}");
            return ExitCode::from(2);
        }
    };
    report_recovery(&handle, &cache_dir);
    let warm_start = handle.recovery().is_some_and(|rec| rec.live_entries > 0);
    println!("self-test server on {}", handle.addr());
    let client = EvalClient::new(handle.addr());
    let evaluator = MissionEvaluator;

    let mut failures = 0usize;
    let mut cached_responses = 0usize;
    for request in client_requests(requests, seed) {
        let direct = evaluator.evaluate(&request).expect("self-test requests are valid");
        match client.eval(&request) {
            Ok(Response::Cost { cost, cached }) => {
                if cost.to_bits() != direct.to_bits() {
                    eprintln!("MISMATCH {:?}: served {cost}, direct {direct}", request.values);
                    failures += 1;
                }
                if cached {
                    cached_responses += 1;
                }
            }
            other => {
                eprintln!("unexpected response for {:?}: {other:?}", request.values);
                failures += 1;
            }
        }
    }

    let tier = handle.tier_stats();
    println!("served {requests} requests, {cached_responses} answered from cache");
    println!("server cache: {tier}");
    handle.shutdown();

    if failures > 0 {
        eprintln!("self-test FAILED: {failures} mismatched responses");
        return ExitCode::FAILURE;
    }
    if requests >= 3 && cached_responses == 0 {
        eprintln!("self-test FAILED: duplicate requests never hit the cache");
        return ExitCode::FAILURE;
    }
    if warm_start {
        // A restart over a populated cache directory must reuse it: the
        // same deterministic request schedule was computed last time, so
        // nothing may be recomputed and the disk tier must answer.
        if cached_responses != requests {
            eprintln!(
                "self-test FAILED: warm start recomputed {} of {requests} requests",
                requests - cached_responses
            );
            return ExitCode::FAILURE;
        }
        if tier.disk_hits == 0 {
            eprintln!("self-test FAILED: warm start never touched the disk tier");
            return ExitCode::FAILURE;
        }
        println!("warm start verified: all {requests} responses served from the recovered cache");
    }
    println!("self-test passed: all served costs bit-match direct evaluation");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut mode = "--self-test".to_string();
    let mut port = 0u16;
    let mut requests = 12usize;
    let mut seed = 42u64;
    let mut cache_dir: Option<PathBuf> = None;
    let mut obs = ObsFlags::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--serve" | "--client" | "--self-test" => mode = arg,
            "--port" => port = flag_value(&mut args, "--port", "a port number"),
            "--requests" => {
                requests =
                    flag_value::<NonZeroUsize>(&mut args, "--requests", "a positive integer").get();
            }
            "--seed" => seed = flag_value(&mut args, "--seed", "an integer"),
            "--cache-dir" => {
                cache_dir = Some(flag_value(&mut args, "--cache-dir", "a directory path"));
            }
            s if obs.consume(s, &mut args) => {}
            other => {
                eprintln!(
                    "unknown argument {other:?}; usage: eval_service \
                     [--serve|--client|--self-test] [--port P] [--threads N] [--requests N] \
                     [--seed S] [--cache-dir DIR] [--trace FILE] [--metrics] \
                     [--stats-interval MS] [--journal DIR]"
                );
                return ExitCode::from(2);
            }
        }
    }
    obs.activate();
    let _pump = match magseven::serve::TelemetryPump::from_flags(&obs) {
        Ok(pump) => pump,
        Err(err) => {
            eprintln!("telemetry journal: {err}");
            return ExitCode::from(2);
        }
    };
    let par = obs.threads.map_or_else(ParConfig::default, ParConfig::with_threads);

    let code = match mode.as_str() {
        "--serve" => serve(port, par, cache_dir),
        "--client" => {
            if port == 0 {
                eprintln!("--client needs --port (the address printed by --serve)");
                return ExitCode::from(2);
            }
            run_client(port, requests, seed)
        }
        _ => self_test(requests, seed, par, cache_dir),
    };

    if !obs.finish() {
        return ExitCode::FAILURE;
    }
    code
}
