//! Serve-latency benchmark: drives an in-process evaluation server over
//! the framed protocol and writes `BENCH_serve_latency.json`.
//!
//! Run with: `cargo run --release --example serve_bench [--out PATH]`
//!
//! The workload is fixed — 512 framed eval requests over 64 unique
//! designs, seed 42 — so the `deterministic` section of the document
//! (request/hit/shed counts) is identical on every host, while the
//! `diagnostic` section carries wall-clock latency: client-observed
//! round-trip quantiles plus the server's own per-phase p99s pulled
//! live over the new `telemetry` request.
//!
//! `--out PATH` chooses the output path (default
//! `BENCH_serve_latency.json`). To gate a fresh measurement on the
//! committed baseline, diff the two with the regression sentinel:
//!
//! ```text
//! cargo run --release --example serve_bench -- --out bench-fresh.json
//! cargo run --release --example bench_sentinel -- --check BENCH_serve_latency.json bench-fresh.json
//! ```
//!
//! Deterministic counts must match exactly; latencies may wander within
//! the sentinel's ratio.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use magseven::par::ParConfig;
use magseven::serve::wire::Response;
use magseven::serve::{EvalRequest, EvalServer, FramedClient, ServeConfig};
use magseven::trace::Histogram;

const SEED: u64 = 42;
const REQUESTS: usize = 512;
const UNIQUE: usize = 64;

fn evaluator(request: &EvalRequest) -> Result<f64, String> {
    // A small but non-trivial deterministic cost: a short logistic-map
    // orbit keyed by the design values, so misses do measurable work.
    let mut x = 0.25 + request.values.iter().sum::<f64>().fract().abs() * 0.5;
    for _ in 0..256 {
        x = 3.7 * x * (1.0 - x);
    }
    Ok(x + request.seed as f64)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut out = "BENCH_serve_latency.json".to_string();
    while let Some(arg) = args.next() {
        match (arg.as_str(), args.next()) {
            ("--out", Some(path)) => out = path,
            _ => {
                eprintln!("usage: serve_bench [--out PATH]");
                std::process::exit(2);
            }
        }
    }

    let server = EvalServer::spawn(
        ServeConfig { par: ParConfig::serial(), ..ServeConfig::default() },
        Arc::new(evaluator),
    )
    .expect("bind loopback server");
    let mut client = FramedClient::connect(server.addr()).expect("connect framed client");

    let roundtrip = Histogram::new();
    for i in 0..REQUESTS {
        let design = i % UNIQUE;
        let request = EvalRequest::new("serve-bench", vec![design as f64 * 0.125], SEED);
        let started = Instant::now();
        match client.eval(&request).expect("eval roundtrip") {
            Response::Cost { .. } => {}
            other => panic!("unexpected response: {other:?}"),
        }
        roundtrip.record(started.elapsed().as_nanos() as u64);
    }

    let stats = match client.telemetry().expect("telemetry roundtrip") {
        Response::Telemetry(stats) => stats,
        other => panic!("unexpected telemetry response: {other:?}"),
    };
    server.shutdown();

    let hits = stats.hot_hits + stats.disk_hits;
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"m7-bench/serve-latency/v1\",");
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(json, "  \"deterministic\": {{");
    let _ = writeln!(json, "    \"requests\": {},", stats.requests);
    let _ = writeln!(json, "    \"unique_designs\": {UNIQUE},");
    let _ = writeln!(json, "    \"cache_hits\": {hits},");
    let _ = writeln!(json, "    \"shed\": {},", stats.shed);
    let _ = writeln!(json, "    \"reaped\": {}", stats.reaped);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"diagnostic\": {{");
    for (label, p) in [(50u32, 0.50f64), (95, 0.95), (99, 0.99)] {
        let _ =
            writeln!(json, "    \"roundtrip_p{label}_ns\": {},", roundtrip.quantile_upper_bound(p));
    }
    let _ = writeln!(json, "    \"parse_p99_ns\": {},", stats.parse.p99_ns);
    let _ = writeln!(json, "    \"dispatch_p99_ns\": {},", stats.dispatch.p99_ns);
    let _ = writeln!(json, "    \"write_p99_ns\": {}", stats.write.p99_ns);
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");

    magseven::trace::parse_json(&json).expect("emitted JSON must parse");
    println!(
        "serve bench: {} requests ({} unique), {} cache hits, roundtrip p50 <= {} ns, p99 <= {} ns",
        stats.requests,
        UNIQUE,
        hits,
        roundtrip.quantile_upper_bound(0.50),
        roundtrip.quantile_upper_bound(0.99),
    );

    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(err) => {
            eprintln!("failed to write {out}: {err}");
            std::process::exit(1);
        }
    }
}
