//! Serve-latency benchmark: drives an in-process evaluation server over
//! the framed protocol and writes `BENCH_serve_latency.json`.
//!
//! Run with: `cargo run --release --example serve_bench [--out PATH] [--check [BASELINE]] [--ratio R]`
//!
//! The workload is fixed — 512 framed eval requests over 64 unique
//! designs, seed 42 — so the `deterministic` section of the document
//! (request/hit/shed counts) is identical on every host, while the
//! `diagnostic` section carries wall-clock latency: client-observed
//! round-trip quantiles plus the server's own per-phase p99s pulled
//! live over the new `telemetry` request.
//!
//! - `--out PATH` chooses the output path (default
//!   `BENCH_serve_latency.json`).
//! - `--check [BASELINE]` additionally diffs the fresh measurement
//!   against BASELINE (default: the `--out` path as committed) with the
//!   regression sentinel and exits non-zero on regression —
//!   deterministic counts must match exactly, latencies may wander
//!   within the ratio.
//! - `--ratio R` overrides the sentinel's diagnostic tolerance.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use magseven::bench::sentinel::{compare_json, SentinelConfig, DEFAULT_DIAG_RATIO};
use magseven::par::ParConfig;
use magseven::serve::key::EvalRequest;
use magseven::serve::wire::Response;
use magseven::serve::{EvalServer, FramedClient, ServeConfig};
use magseven::trace::cli::flag_value;
use magseven::trace::Histogram;

const SEED: u64 = 42;
const REQUESTS: usize = 512;
const UNIQUE: usize = 64;
/// What `--ratio` accepts.
const RATIO: &str = "a finite non-negative number";

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
    let mut args = std::env::args().skip(1).peekable();
    let mut out = "BENCH_serve_latency.json".to_string();
    let mut check: Option<Option<String>> = None;
    let mut ratio = DEFAULT_DIAG_RATIO;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(path) => out = path,
                None => die_usage(),
            },
            "--check" => {
                // Optional value: absent or next-is-a-flag means "the
                // committed --out file".
                let explicit = args.peek().filter(|a| !a.starts_with("--")).cloned();
                if explicit.is_some() {
                    args.next();
                }
                check = Some(explicit);
            }
            "--ratio" => {
                ratio = flag_value(&mut args, "--ratio", RATIO);
                if !(ratio.is_finite() && ratio >= 0.0) {
                    eprintln!("--ratio needs {RATIO}");
                    std::process::exit(2);
                }
            }
            _ => die_usage(),
        }
    }

    let baseline = check.as_ref().map(|explicit| {
        let path = explicit.clone().unwrap_or_else(|| out.clone());
        match std::fs::read_to_string(&path) {
            Ok(text) => (path, text),
            Err(err) => {
                eprintln!("cannot read baseline {path}: {err}");
                std::process::exit(2);
            }
        }
    });

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

    if let Some((path, baseline_text)) = baseline {
        let report = compare_json(&baseline_text, &json, &SentinelConfig { diag_ratio: ratio })
            .unwrap_or_else(|err| {
                eprintln!("sentinel: {err}");
                std::process::exit(2);
            });
        print!("{}", report.render());
        if !report.passed() {
            eprintln!("FAIL: fresh measurement regressed against {path}");
            std::process::exit(1);
        }
    }

    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(err) => {
            eprintln!("failed to write {out}: {err}");
            std::process::exit(1);
        }
    }
}

fn die_usage() -> ! {
    eprintln!("usage: serve_bench [--out PATH] [--check [BASELINE]] [--ratio R]");
    std::process::exit(2);
}
