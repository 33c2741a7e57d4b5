//! End-to-end and per-layer benchmark for magseven.
//!
//! ```text
//! m7-perfbench --workload <campaign|serve|dataflow|suite> --seed N --seconds S --trace 0|1
//!              [--out DIR]
//! ```
//!
//! Every workload drives the facade crate's public API with inputs made
//! from `--seed`, measures for `--seconds`, checks the outputs, and
//! prints one JSON result line last. With `--trace 0` the metrics are
//! the workload's end-to-end metrics; with `--trace 1` they are its
//! per-layer metrics, taken from benchmark-side spans (see `spans.rs`),
//! and the spans are written to `--out` at exit. See `README.md`.

mod campaign;
mod dataflow;
mod serve;
mod spans;
mod stats;
mod suite;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// What one invocation runs with.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for disk tiers and the span dump.
    pub out: PathBuf,
}

impl Config {
    /// The instant the measured window closes, counted from `start`.
    pub fn deadline(&self, start: Instant) -> Instant {
        start + Duration::from_secs_f64(self.seconds)
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures, one line each.
    pub mismatches: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable detail for stderr (tables, quartiles).
    pub notes: String,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    pub fn note(&mut self, line: impl AsRef<str>) {
        self.notes.push_str(line.as_ref());
        self.notes.push('\n');
    }

    /// Records an output-check failure.
    pub fn mismatch(&mut self, line: impl Into<String>) {
        self.mismatches.push(line.into());
    }

    /// Adds the traced-run summary rows shared by every workload: tracing
    /// overhead against the untraced slices of the same run, and the share
    /// of traced wall time no root span covers.
    pub fn trace_summary(&mut self, untraced_s: f64, traced_s: f64, wall_ns: u64) {
        let spans = spans::snapshot();
        let roots: u64 = spans.iter().filter(|s| s.parent == 0).map(spans::Span::dur_ns).sum();
        self.metric("trace.overhead_pct", (traced_s / untraced_s - 1.0) * 100.0, "%");
        self.metric(
            "trace.unattributed_pct",
            wall_ns.saturating_sub(roots) as f64 / wall_ns.max(1) as f64 * 100.0,
            "%",
        );
        self.note(spans::self_time_table(&spans, wall_ns));
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: m7-perfbench --workload <campaign|serve|dataflow|suite> --seed N \
         --seconds S --trace 0|1 [--out DIR]"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from("perfbench/out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0 && s.is_finite())
            }
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--out" => out = PathBuf::from(value),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    // One pool thread unless a workload asks for more explicitly; the
    // suite's experiments read this when they build their own pools.
    std::env::set_var(magseven::par::THREADS_ENV, "1");

    let out = out.join(format!("{workload}-{seed}-{}", std::process::id()));
    if let Err(err) = std::fs::create_dir_all(&out) {
        eprintln!("cannot create {}: {err}", out.display());
        std::process::exit(1);
    }
    let config = Config { seed, seconds, trace, out };
    let mut outcome = match workload.as_str() {
        "campaign" => campaign::run(&config),
        "serve" => serve::run(&config),
        "dataflow" => dataflow::run(&config),
        "suite" => suite::run(&config),
        _ => usage(),
    };
    if !trace {
        outcome.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }

    // Work files (disk tiers) are removed; the span dump is kept.
    let spans = spans::snapshot();
    let _ = std::fs::remove_dir_all(&config.out);
    if trace {
        let dir = config.out.parent().map(PathBuf::from).unwrap_or_default();
        let base = dir.join(format!("{workload}-{seed}"));
        let written =
            std::fs::write(base.with_extension("spans.jsonl"), spans::to_json_lines(&spans))
                .and_then(|()| std::fs::write(base.with_extension("selftime.txt"), &outcome.notes));
        if let Err(err) = written {
            outcome.mismatch(format!("cannot write span dump: {err}"));
        }
    }

    eprint!("{}", outcome.notes);
    for m in &outcome.mismatches {
        eprintln!("CHECK FAILED: {m}");
    }
    let correct = outcome.mismatches.is_empty();
    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ =
            write!(line, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    line.push_str("}}");
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}

/// Peak resident set size of this process, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
