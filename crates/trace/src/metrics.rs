//! Typed metrics — counters, gauges, and fixed log-bucket histograms —
//! plus the global registry that names them.
//!
//! Two layers:
//!
//! - The **raw types** ([`Counter`], [`Gauge`], [`Histogram`]) always
//!   count. They are plain atomic cells usable as struct fields (the
//!   `m7-serve` cache keeps its exact per-instance telemetry in
//!   [`Counter`]s) with no global state and no enable gate.
//! - The **trace handles** ([`TraceCounter`], [`TraceGauge`],
//!   [`TraceHistogram`]) are `const`-constructible statics that register
//!   themselves in the global [`Registry`] on first touch and do
//!   *nothing* while tracing is disabled — the disabled path is one
//!   relaxed atomic load and a predictable branch.
//!
//! Every registered metric carries a [`MetricClass`]:
//! [`MetricClass::Deterministic`] metrics depend only on the work
//! performed (so their aggregate values are identical at any thread
//! count for the same seeds), while [`MetricClass::Diagnostic`] metrics
//! (`sched.*`, wall-clock latencies, queue depths) depend on scheduling
//! and are excluded from determinism comparisons via
//! [`MetricsSnapshot::deterministic_only`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of histogram buckets: one for zero plus one per power of two
/// up to `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Whether a metric's aggregate value is a pure function of the work
/// performed (thread-count invariant) or of how it was scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricClass {
    /// Value depends only on inputs and seeds — identical at
    /// `M7_THREADS=1` and `M7_THREADS=8` for the same run.
    Deterministic,
    /// Value depends on scheduling, wall-clock time, or load (per-worker
    /// item counts, queue waits, latency histograms). Excluded from
    /// determinism checks.
    Diagnostic,
}

/// An exact, always-on, lock-free event counter.
///
/// # Examples
///
/// ```
/// let c = m7_trace::Counter::new();
/// c.incr();
/// c.add(4);
/// assert_eq!(c.get(), 5);
/// ```
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    #[must_use]
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A last-value gauge with a monotone-max variant.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at zero.
    #[must_use]
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Stores `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (high-water mark).
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A fixed log₂-bucket histogram with exact count and sum.
///
/// Bucket 0 holds zeros; bucket `b ≥ 1` holds values in
/// `[2^(b-1), 2^b)`. Bucket bounds are monotone, recording is lock-free,
/// and the per-bucket counts conserve the total: the sum of all bucket
/// counts always equals [`Histogram::count`].
///
/// # Examples
///
/// ```
/// let h = m7_trace::Histogram::new();
/// for v in [0, 1, 3, 200] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.sum(), 204);
/// // 200 lands in the [128, 256) bucket, whose upper edge is 255.
/// assert_eq!(h.quantile_upper_bound(1.0), 255);
/// ```
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Self {
            buckets: [ZERO; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// The bucket index for `v`: 0 for zero, else `floor(log2(v)) + 1`.
    #[inline]
    #[must_use]
    pub fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// The smallest value landing in bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= HISTOGRAM_BUCKETS`.
    #[must_use]
    pub fn bucket_lower_bound(i: usize) -> u64 {
        assert!(i < HISTOGRAM_BUCKETS, "bucket {i} out of range");
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of observations (wrapping beyond `u64::MAX`).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean observation, or 0 for an empty histogram.
    #[must_use]
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Observations in bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= HISTOGRAM_BUCKETS`.
    #[must_use]
    pub(crate) fn bucket_count(&self, i: usize) -> u64 {
        self.buckets[i].load(Ordering::Relaxed)
    }

    /// An upper bound on the `p`-quantile (`p` in `[0, 1]`): the upper
    /// edge of the bucket containing that rank.
    #[must_use]
    pub fn quantile_upper_bound(&self, p: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((n as f64 * p.clamp(0.0, 1.0)).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for i in 0..HISTOGRAM_BUCKETS {
            seen += self.bucket_count(i);
            if seen >= rank {
                return if i + 1 < HISTOGRAM_BUCKETS {
                    Self::bucket_lower_bound(i + 1).saturating_sub(1)
                } else {
                    u64::MAX
                };
            }
        }
        u64::MAX
    }

    /// Clears all buckets, the count, and the sum.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram's nonzero buckets.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = (0..HISTOGRAM_BUCKETS)
            .filter_map(|i| {
                let n = self.bucket_count(i);
                (n > 0).then_some((i, n))
            })
            .collect();
        HistogramSnapshot { count: self.count(), sum: self.sum(), buckets }
    }
}

/// Point-in-time histogram contents: `(bucket index, count)` for every
/// nonzero bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Nonzero buckets as `(index, count)`, in index order.
    pub buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    /// Mean observation, or 0 for an empty snapshot.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper bound on the `p`-quantile (`p` in `[0, 1]`): the upper
    /// edge of the bucket containing that rank.
    #[must_use]
    pub fn quantile_upper_bound(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * p.clamp(0.0, 1.0)).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(i, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return if i + 1 < HISTOGRAM_BUCKETS {
                    Histogram::bucket_lower_bound(i + 1).saturating_sub(1)
                } else {
                    u64::MAX
                };
            }
        }
        u64::MAX
    }
}

/// A registered metric's current value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A counter's total.
    Counter(u64),
    /// A gauge's last/maximum value.
    Gauge(u64),
    /// A histogram's buckets, count, and sum.
    Histogram(HistogramSnapshot),
}

/// One named metric in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricEntry {
    /// Registered name (dot-separated, e.g. `par.items`).
    pub name: String,
    /// Determinism class.
    pub class: MetricClass,
    /// Current value.
    pub value: MetricValue,
}

/// A point-in-time copy of every registered metric, sorted by name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// All entries, sorted by name.
    pub entries: Vec<MetricEntry>,
}

impl MetricsSnapshot {
    /// Keeps only [`MetricClass::Deterministic`] metrics — the subset
    /// whose values must be identical across thread counts.
    #[must_use]
    pub fn deterministic_only(self) -> Self {
        Self {
            entries: self
                .entries
                .into_iter()
                .filter(|e| e.class == MetricClass::Deterministic)
                .collect(),
        }
    }

    /// Looks up an entry by exact name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&MetricEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// The value of a counter metric, if registered.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)?.value {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        }
    }

    /// The contents of a histogram metric, if registered.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match &self.get(name)?.value {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }
}

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

struct RegistryInner {
    by_name: HashMap<&'static str, usize>,
    entries: Vec<(&'static str, MetricClass, Metric)>,
}

/// The global metric registry: interns metrics by name and hands out
/// `&'static` handles.
///
/// Metric storage is leaked on first registration, so handles stay valid
/// forever; [`Registry::reset`] zeroes values without unregistering.
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner.lock().expect("metric registry poisoned")
    }

    fn intern<T>(
        &self,
        name: &str,
        class: MetricClass,
        make: impl FnOnce() -> &'static T,
        as_metric: impl Fn(&'static T) -> Metric,
        get: impl Fn(&Metric) -> Option<&'static T>,
    ) -> &'static T {
        let mut inner = self.lock();
        if let Some(&i) = inner.by_name.get(name) {
            return get(&inner.entries[i].2).unwrap_or_else(|| {
                panic!("metric {name:?} already registered with a different type")
            });
        }
        let leaked_name: &'static str = Box::leak(name.to_string().into_boxed_str());
        let handle = make();
        let index = inner.entries.len();
        inner.by_name.insert(leaked_name, index);
        inner.entries.push((leaked_name, class, as_metric(handle)));
        handle
    }

    /// Returns (registering on first use) the counter named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    pub fn counter(&self, name: &str, class: MetricClass) -> &'static Counter {
        self.intern(
            name,
            class,
            || Box::leak(Box::new(Counter::new())),
            Metric::Counter,
            |m| if let Metric::Counter(c) = m { Some(c) } else { None },
        )
    }

    /// Returns (registering on first use) the gauge named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    pub fn gauge(&self, name: &str, class: MetricClass) -> &'static Gauge {
        self.intern(
            name,
            class,
            || Box::leak(Box::new(Gauge::new())),
            Metric::Gauge,
            |m| if let Metric::Gauge(g) = m { Some(g) } else { None },
        )
    }

    /// Returns (registering on first use) the histogram named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    pub fn histogram(&self, name: &str, class: MetricClass) -> &'static Histogram {
        self.intern(
            name,
            class,
            || Box::leak(Box::new(Histogram::new())),
            Metric::Histogram,
            |m| if let Metric::Histogram(h) = m { Some(h) } else { None },
        )
    }

    /// A point-in-time copy of every registered metric, sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        let mut entries: Vec<MetricEntry> = inner
            .entries
            .iter()
            .map(|(name, class, metric)| MetricEntry {
                name: (*name).to_string(),
                class: *class,
                value: match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot { entries }
    }

    /// Zeroes every registered metric, keeping registrations (and every
    /// handed-out `&'static` handle) valid.
    pub fn reset(&self) {
        let inner = self.lock();
        for (_, _, metric) in &inner.entries {
            match metric {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.reset(),
                Metric::Histogram(h) => h.reset(),
            }
        }
    }
}

/// The process-wide metric registry.
#[must_use]
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        inner: Mutex::new(RegistryInner { by_name: HashMap::new(), entries: Vec::new() }),
    })
}

/// A `const`-constructible counter handle that registers itself on first
/// touch and is a no-op while tracing is disabled.
///
/// # Examples
///
/// ```
/// use m7_trace::{MetricClass, TraceCounter};
///
/// static REQUESTS: TraceCounter = TraceCounter::new("doc.requests", MetricClass::Deterministic);
/// REQUESTS.incr(); // no-op: tracing is off by default
/// m7_trace::enable();
/// REQUESTS.add(2);
/// assert_eq!(REQUESTS.get(), 2);
/// ```
pub struct TraceCounter {
    name: &'static str,
    class: MetricClass,
    cell: OnceLock<&'static Counter>,
}

impl TraceCounter {
    /// Declares a counter named `name` (registered lazily).
    #[must_use]
    pub const fn new(name: &'static str, class: MetricClass) -> Self {
        Self { name, class, cell: OnceLock::new() }
    }

    fn handle(&self) -> &'static Counter {
        self.cell.get_or_init(|| registry().counter(self.name, self.class))
    }

    /// Adds `n` when tracing is enabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.handle().add(n);
        }
    }

    /// Adds one when tracing is enabled.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The registered counter's current value (0 if never touched).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.get().map_or(0, |c| c.get())
    }
}

/// A `const`-constructible gauge handle; no-op while tracing is
/// disabled. See [`TraceCounter`].
pub struct TraceGauge {
    name: &'static str,
    class: MetricClass,
    cell: OnceLock<&'static Gauge>,
}

impl TraceGauge {
    /// Declares a gauge named `name` (registered lazily).
    #[must_use]
    pub const fn new(name: &'static str, class: MetricClass) -> Self {
        Self { name, class, cell: OnceLock::new() }
    }

    fn handle(&self) -> &'static Gauge {
        self.cell.get_or_init(|| registry().gauge(self.name, self.class))
    }

    /// Stores `v` when tracing is enabled.
    #[inline]
    pub fn set(&self, v: u64) {
        if crate::enabled() {
            self.handle().set(v);
        }
    }

    /// Raises the gauge to `v` when tracing is enabled.
    #[inline]
    pub fn record_max(&self, v: u64) {
        if crate::enabled() {
            self.handle().record_max(v);
        }
    }

    /// The registered gauge's current value (0 if never touched).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.get().map_or(0, |g| g.get())
    }
}

/// A `const`-constructible histogram handle; no-op while tracing is
/// disabled. See [`TraceCounter`].
pub struct TraceHistogram {
    name: &'static str,
    class: MetricClass,
    cell: OnceLock<&'static Histogram>,
}

impl TraceHistogram {
    /// Declares a histogram named `name` (registered lazily).
    #[must_use]
    pub const fn new(name: &'static str, class: MetricClass) -> Self {
        Self { name, class, cell: OnceLock::new() }
    }

    fn handle(&self) -> &'static Histogram {
        self.cell.get_or_init(|| registry().histogram(self.name, self.class))
    }

    /// Records `v` when tracing is enabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if crate::enabled() {
            self.handle().record(v);
        }
    }

    /// The registered histogram's observation count (0 if never touched).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.cell.get().map_or(0, |h| h.count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::new();
        c.incr();
        c.add(9);
        assert_eq!(c.get(), 10);
        c.reset();
        assert_eq!(c.get(), 0);

        let g = Gauge::new();
        g.set(7);
        g.record_max(3);
        assert_eq!(g.get(), 7);
        g.record_max(12);
        assert_eq!(g.get(), 12);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_lower_bound(0), 0);
        assert_eq!(Histogram::bucket_lower_bound(1), 1);
        assert_eq!(Histogram::bucket_lower_bound(64), 1 << 63);
    }

    #[test]
    fn histogram_conserves_counts() {
        let h = Histogram::new();
        let values = [0u64, 1, 1, 5, 1000, u64::MAX];
        for &v in &values {
            h.record(v);
        }
        assert_eq!(h.count(), values.len() as u64);
        let bucket_total: u64 = (0..HISTOGRAM_BUCKETS).map(|i| h.bucket_count(i)).sum();
        assert_eq!(bucket_total, h.count());
        assert_eq!(h.sum(), values.iter().copied().fold(0u64, u64::wrapping_add));
    }

    #[test]
    fn quantile_bounds_are_ordered() {
        let h = Histogram::new();
        for v in 0..1000u64 {
            h.record(v);
        }
        let p50 = h.quantile_upper_bound(0.5);
        let p99 = h.quantile_upper_bound(0.99);
        assert!(p50 <= p99);
        assert!(p99 >= 990);
        assert_eq!(Histogram::new().quantile_upper_bound(0.5), 0);
    }

    #[test]
    fn snapshot_lists_nonzero_buckets_in_order() {
        let h = Histogram::new();
        h.record(0);
        h.record(300);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.buckets.len(), 2);
        assert_eq!(s.buckets[0], (0, 1));
        assert_eq!(s.buckets[1], (Histogram::bucket_index(300), 1));
    }
}
