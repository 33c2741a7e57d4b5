//! Telemetry tail: a text dashboard over a live server or a recovered
//! flight journal.
//!
//! Run with:
//! - `cargo run --example trace_tail -- --journal DIR` — recover the
//!   crash-safe journal under DIR (baseline + acked delta prefix, torn
//!   tail truncated) and render the final pre-crash snapshot.
//! - `cargo run --example trace_tail -- --port P [--legacy]` — query a
//!   running `eval_service --serve` instance's live telemetry, over the
//!   framed binary protocol by default or the legacy text protocol with
//!   `--legacy`, and render the per-phase latency dashboard.
//! - `cargo run --example trace_tail -- --flow` — run an instrumented
//!   multi-rate dataflow graph (`m7-flow`) and tail its `flow.*` node,
//!   queue-depth, and drop counters.
//!
//! Snapshots from any source group `flow.*` metrics into a dedicated
//! `[dataflow]` section so queue depths and drop counters read together.
//!
//! Exit codes: 0 on success, 1 when the journal is empty or the server
//! unreachable, 2 on bad flags.

use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4};

use magseven::serve::recover_snapshot;
use magseven::serve::wire::Response;
use magseven::serve::{EvalClient, FramedClient};
use magseven::trace::{flag_value, MetricClass, MetricEntry, MetricValue, Snapshot};

fn usage() -> ! {
    eprintln!("usage: trace_tail --journal DIR | --port P [--legacy] | --flow");
    std::process::exit(2);
}

fn print_entry(entry: &MetricEntry) {
    match &entry.value {
        MetricValue::Counter(v) => println!("  {:<40} {v}", entry.name),
        MetricValue::Gauge(v) => println!("  {:<40} {v} (gauge)", entry.name),
        MetricValue::Histogram(h) => println!(
            "  {:<40} n={} mean={:.1} p50<={} p95<={} p99<={}",
            entry.name,
            h.count,
            h.mean(),
            h.quantile_upper_bound(0.50),
            h.quantile_upper_bound(0.95),
            h.quantile_upper_bound(0.99),
        ),
    }
}

fn render_entries(entries: &[MetricEntry]) {
    // Dataflow-graph metrics (node firings, queue depths, drop/loss
    // counters) read as one unit regardless of metric class.
    let (flow, rest): (Vec<_>, Vec<_>) = entries.iter().partition(|e| e.name.starts_with("flow."));
    if !flow.is_empty() {
        println!("[dataflow]");
        for entry in flow {
            print_entry(entry);
        }
    }
    for class in [MetricClass::Deterministic, MetricClass::Diagnostic] {
        let in_class: Vec<_> = rest.iter().filter(|e| e.class == class).collect();
        if in_class.is_empty() {
            continue;
        }
        println!(
            "[{}]",
            if class == MetricClass::Deterministic { "deterministic" } else { "diagnostic" }
        );
        for entry in in_class {
            print_entry(entry);
        }
    }
}

fn render_snapshot(snapshot: &Snapshot, records: usize) {
    println!(
        "snapshot seq {} at +{} ms ({} journal records, {} metrics)",
        snapshot.seq,
        snapshot.wall_ms,
        records,
        snapshot.metrics.entries.len()
    );
    render_entries(&snapshot.metrics.entries);
}

/// Runs an instrumented multi-rate graph — an overloaded fusion stage
/// fed by a 30 Hz camera (bounded drop-newest queue) and a 200 Hz IMU
/// (sampled edge), draining through a backpressured planner — and tails
/// its `flow.*` metrics.
fn tail_flow() -> i32 {
    use magseven::flow::{
        EdgeSpec, GraphBuilder, MessageType, QueuePolicy, ServerSpec, Service, SinkSpec, SourceSpec,
    };
    use magseven::par::ParConfig;
    use magseven::units::{Bytes, Hertz, Seconds};

    struct Frame;
    impl MessageType for Frame {
        const NAME: &'static str = "frame";
    }
    struct NavState;
    impl MessageType for NavState {
        const NAME: &'static str = "nav_state";
    }
    struct Track;
    impl MessageType for Track {
        const NAME: &'static str = "track";
    }
    struct Cmd;
    impl MessageType for Cmd {
        const NAME: &'static str = "cmd";
    }

    magseven::trace::enable();
    let mut g = GraphBuilder::new("tail");
    let build = (|| {
        let cam =
            g.source::<Frame>("camera", SourceSpec::new(Hertz::new(30.0), Bytes::new(65536.0)))?;
        let imu =
            g.source::<NavState>("imu", SourceSpec::new(Hertz::new(200.0), Bytes::new(24.0)))?;
        let fusion = g.fusion_server::<Frame, NavState, Track>(
            "fusion",
            ServerSpec::new(Service::fixed(Seconds::from_millis(45.0)))
                .deadline(Seconds::from_millis(50.0)),
        )?;
        let planner = g.server::<Track, Cmd>(
            "planner",
            ServerSpec::new(Service::fixed(Seconds::from_millis(10.0))),
        )?;
        let control =
            g.sink::<Cmd>("control", SinkSpec::new().deadline(Seconds::from_millis(120.0)))?;
        g.connect(cam, fusion, EdgeSpec::queue(2))?;
        g.connect(imu, fusion, EdgeSpec::sampled())?;
        g.connect(fusion, planner, EdgeSpec::queue(1).policy(QueuePolicy::Block))?;
        g.connect(planner, control, EdgeSpec::wire().latency(Seconds::from_millis(2.0)))?;
        Ok::<(), magseven::flow::FlowError>(())
    })();
    if let Err(err) = build {
        eprintln!("graph declaration rejected: {err}");
        return 1;
    }
    let report = match g.seal(ParConfig::default()).and_then(|graph| graph.run(Seconds::new(2.0))) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("graph run failed: {err}");
            return 1;
        }
    };
    println!(
        "ran graph `{}` for {} s: {} nodes, {} edges",
        report.name,
        report.duration.value(),
        report.nodes.len(),
        report.edges.len()
    );
    let snapshot = magseven::trace::snapshot();
    let flow_entries: Vec<MetricEntry> =
        snapshot.entries.into_iter().filter(|e| e.name.starts_with("flow.")).collect();
    render_entries(&flow_entries);
    0
}

fn tail_journal(dir: &str) -> i32 {
    match recover_snapshot(dir) {
        Ok(Some((snapshot, records))) => {
            render_snapshot(&snapshot, records);
            0
        }
        Ok(None) => {
            eprintln!("journal {dir}: no baseline record (nothing was ever published)");
            1
        }
        Err(err) => {
            eprintln!("journal {dir}: {err}");
            1
        }
    }
}

fn tail_live(port: u16, legacy: bool) -> i32 {
    let addr = SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::LOCALHOST, port));
    let result = if legacy {
        EvalClient::new(addr).telemetry()
    } else {
        FramedClient::connect(addr).and_then(|mut client| client.telemetry())
    };
    match result {
        Ok(Response::Telemetry(stats)) => {
            let protocol = if legacy { "legacy text" } else { "binary frames" };
            println!("live telemetry from 127.0.0.1:{port} over {protocol}");
            print!("{stats}");
            0
        }
        Ok(other) => {
            eprintln!("server answered {other:?} instead of telemetry");
            1
        }
        Err(err) => {
            eprintln!("cannot query 127.0.0.1:{port}: {err}");
            1
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut journal: Option<String> = None;
    let mut port: Option<u16> = None;
    let mut legacy = false;
    let mut flow = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--flow" => flow = true,
            "--journal" => match args.next() {
                Some(dir) => journal = Some(dir),
                None => usage(),
            },
            "--port" => port = Some(flag_value(&mut args, "--port", "a TCP port number")),
            "--legacy" => legacy = true,
            _ => usage(),
        }
    }
    let code = match (journal, port, flow) {
        (Some(dir), None, false) => tail_journal(&dir),
        (None, Some(p), false) => tail_live(p, legacy),
        (None, None, true) => tail_flow(),
        _ => usage(),
    };
    std::process::exit(code);
}
