//! `m7-trace`: zero-dependency structured tracing, metrics, and
//! profiling for the Magnificent-Seven stack.
//!
//! Three pillars, all usable with no external crates:
//!
//! - **Spans** ([`SpanSite`]): hierarchical begin/end regions stamped with
//!   *wall-clock* nanoseconds (what actually happened on this machine)
//!   or *modeled* nanoseconds (what the simulated platform would take —
//!   deterministic across hosts and thread counts). Events land in a
//!   lock-free per-thread ring-buffer flight recorder ([`recorder`])
//!   that is merged at export time, including across threads spawned by
//!   the `m7-par` pool.
//! - **Metrics** ([`registry`]): typed counters, gauges, and fixed
//!   log₂-bucket histograms with exact counts, registered by name in a
//!   process-wide registry. Each metric is classed
//!   [`MetricClass::Deterministic`] (thread-count-invariant, seeds-only)
//!   or [`MetricClass::Diagnostic`] (`sched.*`, wall-time/scheduling
//!   dependent).
//! - **Exporters** ([`chrome_trace_json`], [`text_report`], [`kv_dump`]): chrome://tracing JSON (open in
//!   `chrome://tracing` or <https://ui.perfetto.dev>), a flat text
//!   report, and a machine-readable `key = value` dump.
//!
//! A fourth pillar makes the plane *live* instead of post-mortem: the
//! [`TelemetryHub`] samples the registry on a cadence into
//! versioned, delta-encoded [`Snapshot`] records and streams
//! them to pluggable [`SnapshotSink`]s (e.g. `m7-serve`'s
//! crash-safe flight journal), driven by the shared
//! `--stats-interval`/`--journal` CLI flags.
//!
//! Tracing is **off by default** and the disabled path is one relaxed
//! atomic load plus a predictable branch — golden reports and benchmark
//! numbers are unaffected until [`enable`] is called (or the
//! `--trace`/`--metrics` CLI flags flip it on).
//!
//! # Examples
//!
//! ```
//! use m7_trace::{SpanSite, MetricClass, TraceCounter};
//!
//! static STEP: SpanSite = SpanSite::new("doc.step", MetricClass::Deterministic);
//! static ITEMS: TraceCounter = TraceCounter::new("doc.items", MetricClass::Deterministic);
//!
//! m7_trace::enable();
//! {
//!     let _span = STEP.enter(); // records begin/end on drop
//!     ITEMS.add(3);
//! }
//! let snap = m7_trace::snapshot();
//! assert_eq!(snap.counter("doc.items"), Some(3));
//! assert_eq!(snap.counter("doc.step.spans"), Some(1));
//! let json = m7_trace::chrome_trace_json();
//! assert!(json.contains("doc.step"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cli;
mod export;
mod hub;
mod metrics;
pub mod recorder;
mod snapshot;
mod span;

pub use cli::{flag_value, ObsFlags};
pub use export::{
    chrome_trace_json, kv_dump, parse_json, text_report, validate_chrome_trace, Json, TraceSummary,
};
pub use hub::{HubConfig, SnapshotSink, TelemetryHub};
pub use metrics::{
    registry, Counter, Gauge, Histogram, HistogramSnapshot, MetricClass, MetricEntry, MetricValue,
    MetricsSnapshot, Registry, TraceCounter, TraceGauge, TraceHistogram, HISTOGRAM_BUCKETS,
};
pub use snapshot::{
    decode_record, DeltaEntry, DeltaValue, Snapshot, SnapshotDelta, SnapshotRecord,
};
pub use span::{span_dyn, SpanGuard, SpanSite};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether tracing is currently on. This is the gate every span and
/// gated metric checks; when it returns `false` instrumentation costs
/// one relaxed load and a branch.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns tracing on: spans record, gated metrics count.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns tracing off. Already-recorded events and metric values are
/// kept; use [`reset`] to clear them.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// A point-in-time copy of every registered metric, sorted by name.
#[must_use]
pub fn snapshot() -> MetricsSnapshot {
    registry().snapshot()
}

/// Zeroes all metrics and clears all recorded span events, keeping
/// registrations valid. The enable state is untouched.
pub fn reset() {
    registry().reset();
    recorder::clear();
}

#[cfg(test)]
mod tests {
    // The enable flag is process-global, so tests that toggle it
    // serialize on this lock (cargo runs #[test] fns concurrently).
    pub(crate) static GLOBAL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_by_default_and_toggles() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        super::disable();
        assert!(!super::enabled());
        super::enable();
        assert!(super::enabled());
        super::disable();
    }
}
