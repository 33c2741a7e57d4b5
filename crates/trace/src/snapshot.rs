//! Versioned, delta-encoded telemetry snapshots.
//!
//! A [`Snapshot`] is a sequenced point-in-time copy of the metric
//! registry ([`MetricsSnapshot`]) plus a coarse wall-clock stamp. The
//! [`TelemetryHub`](crate::hub::TelemetryHub) captures them on a cadence
//! and streams them to sinks (live queries, the on-disk flight journal)
//! as one *full* record followed by [`SnapshotDelta`]s — only what
//! changed since the previous sample, so a journal record costs bytes
//! proportional to activity, not registry size.
//!
//! Three contracts pin the format down:
//!
//! - **Round-trip:** `decode(encode(x)) == x` for both record kinds
//!   (property-tested in `tests/telemetry_props.rs`).
//! - **Delta algebra:** `prev.apply(&next.delta_from(&prev)) == next`,
//!   and [`SnapshotDelta::merge`] is commutative and associative —
//!   counter and histogram-bucket increments add, gauges keep the
//!   high-water value — so deltas can be folded in any order.
//! - **Bounded decode:** every length field is validated against a hard
//!   cap *before* any allocation, so a corrupt or adversarial record can
//!   never balloon memory (at most 4096 entries, 256-byte metric names,
//!   and [`HISTOGRAM_BUCKETS`] buckets).
//!
//! The deterministic-vs-diagnostic split survives encoding: each entry
//! carries its [`MetricClass`], and [`Snapshot::deterministic_only`]
//! filters a decoded snapshot exactly like the live registry.

use crate::metrics::{
    HistogramSnapshot, MetricClass, MetricEntry, MetricValue, MetricsSnapshot, HISTOGRAM_BUCKETS,
};

/// Wire version of the snapshot record format.
pub(crate) const SNAPSHOT_VERSION: u8 = 1;
/// Hard cap on entries per record — far above any real registry, low
/// enough that a corrupt length cannot cause a large allocation.
pub(crate) const MAX_SNAPSHOT_ENTRIES: usize = 4096;
/// Hard cap on a metric name's encoded length in bytes.
pub(crate) const MAX_METRIC_NAME_LEN: usize = 256;

const KIND_FULL: u8 = 0x00;
const KIND_DELTA: u8 = 0x01;

const TAG_COUNTER: u8 = 0;
const TAG_GAUGE: u8 = 1;
const TAG_HISTOGRAM: u8 = 2;

/// A sequenced point-in-time copy of the metric registry.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Position in the hub's stream: 0 for the baseline full snapshot,
    /// then contiguous. Journal records are keyed by this.
    pub seq: u64,
    /// Milliseconds since the hub started (wall clock, diagnostic only —
    /// never fed back into modeled time or seeds).
    pub wall_ms: u64,
    /// The metric values, sorted by name.
    pub metrics: MetricsSnapshot,
}

impl Snapshot {
    /// Captures the global registry as snapshot `seq` at `wall_ms`.
    #[must_use]
    pub fn capture(seq: u64, wall_ms: u64) -> Self {
        Self { seq, wall_ms, metrics: crate::registry().snapshot() }
    }

    /// Keeps only deterministic-class entries (thread-count invariant).
    #[must_use]
    pub fn deterministic_only(self) -> Self {
        Self { metrics: self.metrics.deterministic_only(), ..self }
    }

    /// The changes that turn `prev` into `self`: counter and histogram
    /// entries become non-negative increments, gauges carry their new
    /// absolute value. Metrics absent from `prev` (the registry only
    /// grows) enter whole; an unchanged metric contributes nothing.
    ///
    /// Counter or bucket values that *decreased* (a concurrent
    /// `reset()`) are re-emitted whole rather than as an impossible
    /// negative increment, so applying the delta still reproduces
    /// `self` exactly.
    #[must_use]
    pub fn delta_from(&self, prev: &Snapshot) -> SnapshotDelta {
        let mut changes = Vec::new();
        for entry in &self.metrics.entries {
            let old = prev.metrics.get(&entry.name);
            if let Some(change) = entry_delta(entry, old) {
                changes.push(change);
            }
        }
        SnapshotDelta { seq: self.seq, wall_ms: self.wall_ms, changes }
    }

    /// Applies a delta, producing the successor snapshot: counters and
    /// histogram buckets add their increments, gauges take the carried
    /// value, unknown names are inserted in sorted position.
    #[must_use]
    pub fn apply(&self, delta: &SnapshotDelta) -> Snapshot {
        let mut entries = self.metrics.entries.clone();
        for change in &delta.changes {
            match entries.binary_search_by(|e| e.name.as_str().cmp(&change.name)) {
                Ok(i) => apply_change(&mut entries[i], change),
                Err(i) => entries.insert(i, materialize(change)),
            }
        }
        Snapshot { seq: delta.seq, wall_ms: delta.wall_ms, metrics: MetricsSnapshot { entries } }
    }

    /// Encodes a self-contained *full* record.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![SNAPSHOT_VERSION, KIND_FULL];
        put_varint(&mut out, self.seq);
        put_varint(&mut out, self.wall_ms);
        put_varint(&mut out, self.metrics.entries.len() as u64);
        for entry in &self.metrics.entries {
            encode_name_class(&mut out, &entry.name, entry.class);
            match &entry.value {
                MetricValue::Counter(v) => {
                    out.push(TAG_COUNTER);
                    put_varint(&mut out, *v);
                }
                MetricValue::Gauge(v) => {
                    out.push(TAG_GAUGE);
                    put_varint(&mut out, *v);
                }
                MetricValue::Histogram(h) => encode_histogram(&mut out, h.count, h.sum, &h.buckets),
            }
        }
        out
    }
}

/// The changes between two consecutive snapshots. See
/// [`Snapshot::delta_from`] for the exact semantics per metric kind.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SnapshotDelta {
    /// Sequence number of the snapshot this delta *produces*.
    pub seq: u64,
    /// Wall stamp of the produced snapshot (milliseconds since hub start).
    pub wall_ms: u64,
    /// Changed metrics, sorted by name.
    pub changes: Vec<DeltaEntry>,
}

/// One changed metric inside a [`SnapshotDelta`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaEntry {
    /// Registered metric name.
    pub name: String,
    /// Determinism class (carried so decoded records keep the split).
    pub class: MetricClass,
    /// The change.
    pub value: DeltaValue,
}

/// The change carried for one metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaValue {
    /// Counter increment (merge: add).
    Counter(u64),
    /// New absolute gauge value (merge: max — high-water).
    Gauge(u64),
    /// Histogram increments: count, sum, and per-bucket additions
    /// (merge: add elementwise).
    Histogram {
        /// Increment to the total sample count.
        count: u64,
        /// Increment to the value sum.
        sum: u64,
        /// `(bucket index, count increment)` pairs, ascending index.
        buckets: Vec<(usize, u64)>,
    },
}

impl SnapshotDelta {
    /// Whether the delta carries no changes (nothing worth publishing).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Folds `other` into `self`. Commutative and associative up to the
    /// stated per-kind semantics (counters/buckets add, gauges max,
    /// `seq`/`wall_ms` max), so a set of deltas merges to the same value
    /// in any order — the property `tests/telemetry_props.rs` pins.
    pub fn merge(&mut self, other: &SnapshotDelta) {
        self.seq = self.seq.max(other.seq);
        self.wall_ms = self.wall_ms.max(other.wall_ms);
        for change in &other.changes {
            match self.changes.binary_search_by(|e| e.name.as_str().cmp(&change.name)) {
                Ok(i) => merge_change(&mut self.changes[i].value, &change.value),
                Err(i) => self.changes.insert(i, change.clone()),
            }
        }
    }

    /// Encodes a *delta* record.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![SNAPSHOT_VERSION, KIND_DELTA];
        put_varint(&mut out, self.seq);
        put_varint(&mut out, self.wall_ms);
        put_varint(&mut out, self.changes.len() as u64);
        for change in &self.changes {
            encode_name_class(&mut out, &change.name, change.class);
            match &change.value {
                DeltaValue::Counter(v) => {
                    out.push(TAG_COUNTER);
                    put_varint(&mut out, *v);
                }
                DeltaValue::Gauge(v) => {
                    out.push(TAG_GAUGE);
                    put_varint(&mut out, *v);
                }
                DeltaValue::Histogram { count, sum, buckets } => {
                    encode_histogram(&mut out, *count, *sum, buckets)
                }
            }
        }
        out
    }
}

/// A decoded journal/stream record: the baseline or one delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotRecord {
    /// Self-contained full snapshot (stream position 0).
    Full(Snapshot),
    /// Changes since the preceding record.
    Delta(SnapshotDelta),
}

/// Decodes one record produced by [`Snapshot::encode`] or
/// [`SnapshotDelta::encode`]. Returns `None` on version mismatch,
/// truncation, trailing garbage, or any length field beyond its cap —
/// allocation stays bounded on arbitrary input.
#[must_use]
pub fn decode_record(bytes: &[u8]) -> Option<SnapshotRecord> {
    let mut r = VarReader { bytes, pos: 0 };
    if r.byte()? != SNAPSHOT_VERSION {
        return None;
    }
    let kind = r.byte()?;
    let seq = r.varint()?;
    let wall_ms = r.varint()?;
    let n = r.varint()? as usize;
    if n > MAX_SNAPSHOT_ENTRIES {
        return None;
    }
    let record = match kind {
        KIND_FULL => {
            let mut entries = Vec::with_capacity(n.min(256));
            for _ in 0..n {
                let (name, class) = r.name_class()?;
                let value = match r.byte()? {
                    TAG_COUNTER => MetricValue::Counter(r.varint()?),
                    TAG_GAUGE => MetricValue::Gauge(r.varint()?),
                    TAG_HISTOGRAM => MetricValue::Histogram(r.histogram()?),
                    _ => return None,
                };
                entries.push(MetricEntry { name, class, value });
            }
            SnapshotRecord::Full(Snapshot { seq, wall_ms, metrics: MetricsSnapshot { entries } })
        }
        KIND_DELTA => {
            let mut changes = Vec::with_capacity(n.min(256));
            for _ in 0..n {
                let (name, class) = r.name_class()?;
                let value = match r.byte()? {
                    TAG_COUNTER => DeltaValue::Counter(r.varint()?),
                    TAG_GAUGE => DeltaValue::Gauge(r.varint()?),
                    TAG_HISTOGRAM => {
                        let HistogramSnapshot { count, sum, buckets } = r.histogram()?;
                        DeltaValue::Histogram { count, sum, buckets }
                    }
                    _ => return None,
                };
                changes.push(DeltaEntry { name, class, value });
            }
            SnapshotRecord::Delta(SnapshotDelta { seq, wall_ms, changes })
        }
        _ => return None,
    };
    if r.pos != bytes.len() {
        return None; // trailing garbage: the record is not what we wrote
    }
    Some(record)
}

fn entry_delta(entry: &MetricEntry, old: Option<&MetricEntry>) -> Option<DeltaEntry> {
    let value = match (&entry.value, old.map(|o| &o.value)) {
        (MetricValue::Counter(new), Some(MetricValue::Counter(prev))) => {
            if new == prev {
                return None;
            }
            // A decrease means the registry was reset mid-stream; carry
            // the absolute value so apply() still lands on `new`.
            DeltaValue::Counter(new.checked_sub(*prev).unwrap_or(*new))
        }
        (MetricValue::Gauge(new), Some(MetricValue::Gauge(prev))) => {
            if new == prev {
                return None;
            }
            DeltaValue::Gauge(*new)
        }
        (MetricValue::Histogram(new), Some(MetricValue::Histogram(prev))) => {
            if new == prev {
                return None;
            }
            histogram_delta(new, prev)?
        }
        // New metric, or a kind change (impossible with the interning
        // registry, but a decoded snapshot could disagree): enter whole.
        (value, _) => full_as_delta(value),
    };
    Some(DeltaEntry { name: entry.name.clone(), class: entry.class, value })
}

fn histogram_delta(new: &HistogramSnapshot, prev: &HistogramSnapshot) -> Option<DeltaValue> {
    if new.count < prev.count || new.sum < prev.sum {
        // Reset mid-stream: re-emit whole.
        return Some(full_as_delta(&MetricValue::Histogram(new.clone())));
    }
    let mut buckets = Vec::new();
    let mut prev_iter = prev.buckets.iter().peekable();
    for &(idx, count) in &new.buckets {
        let prev_count = loop {
            match prev_iter.peek() {
                Some(&&(pidx, pcount)) if pidx < idx => {
                    prev_iter.next();
                    // A bucket present before but gone now is a reset;
                    // handled by the count/sum guard above for real
                    // histograms. Ignore here.
                    let _ = pcount;
                }
                Some(&&(pidx, pcount)) if pidx == idx => break pcount,
                _ => break 0,
            }
        };
        let Some(diff) = count.checked_sub(prev_count) else {
            // Bucket shrank without the totals shrinking — synthetic
            // input; fall back to re-emitting the whole histogram.
            return Some(full_as_delta(&MetricValue::Histogram(new.clone())));
        };
        if diff > 0 {
            buckets.push((idx, diff));
        }
    }
    Some(DeltaValue::Histogram { count: new.count - prev.count, sum: new.sum - prev.sum, buckets })
}

fn full_as_delta(value: &MetricValue) -> DeltaValue {
    match value {
        MetricValue::Counter(v) => DeltaValue::Counter(*v),
        MetricValue::Gauge(v) => DeltaValue::Gauge(*v),
        MetricValue::Histogram(h) => {
            DeltaValue::Histogram { count: h.count, sum: h.sum, buckets: h.buckets.clone() }
        }
    }
}

fn materialize(change: &DeltaEntry) -> MetricEntry {
    let value = match &change.value {
        DeltaValue::Counter(v) => MetricValue::Counter(*v),
        DeltaValue::Gauge(v) => MetricValue::Gauge(*v),
        DeltaValue::Histogram { count, sum, buckets } => {
            MetricValue::Histogram(HistogramSnapshot {
                count: *count,
                sum: *sum,
                buckets: buckets.clone(),
            })
        }
    };
    MetricEntry { name: change.name.clone(), class: change.class, value }
}

fn apply_change(entry: &mut MetricEntry, change: &DeltaEntry) {
    match (&mut entry.value, &change.value) {
        (MetricValue::Counter(v), DeltaValue::Counter(d)) => *v = v.saturating_add(*d),
        (MetricValue::Gauge(v), DeltaValue::Gauge(new)) => *v = *new,
        (MetricValue::Histogram(h), DeltaValue::Histogram { count, sum, buckets }) => {
            h.count = h.count.saturating_add(*count);
            h.sum = h.sum.saturating_add(*sum);
            for &(idx, diff) in buckets {
                match h.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
                    Ok(i) => h.buckets[i].1 = h.buckets[i].1.saturating_add(diff),
                    Err(i) => h.buckets.insert(i, (idx, diff)),
                }
            }
        }
        // Kind mismatch: the change wins wholesale (decoded streams are
        // trusted to be self-consistent; this keeps apply total).
        (value, _) => *value = materialize(change).value,
    }
}

fn merge_change(into: &mut DeltaValue, other: &DeltaValue) {
    match (into, other) {
        (DeltaValue::Counter(a), DeltaValue::Counter(b)) => *a = a.saturating_add(*b),
        (DeltaValue::Gauge(a), DeltaValue::Gauge(b)) => *a = (*a).max(*b),
        (
            DeltaValue::Histogram { count, sum, buckets },
            DeltaValue::Histogram { count: c2, sum: s2, buckets: b2 },
        ) => {
            *count = count.saturating_add(*c2);
            *sum = sum.saturating_add(*s2);
            for &(idx, diff) in b2 {
                match buckets.binary_search_by_key(&idx, |&(i, _)| i) {
                    Ok(i) => buckets[i].1 = buckets[i].1.saturating_add(diff),
                    Err(i) => buckets.insert(i, (idx, diff)),
                }
            }
        }
        // Kind mismatch between merged deltas: keep a deterministic,
        // order-invariant resolution by taking the lexically-larger
        // materialized encoding. In practice kinds never change.
        (into, other) => {
            let a = std::mem::replace(into, other.clone());
            if encode_value_for_cmp(&a) > encode_value_for_cmp(other) {
                *into = a;
            }
        }
    }
}

fn encode_value_for_cmp(v: &DeltaValue) -> Vec<u8> {
    let mut out = Vec::new();
    match v {
        DeltaValue::Counter(x) => {
            out.push(TAG_COUNTER);
            put_varint(&mut out, *x);
        }
        DeltaValue::Gauge(x) => {
            out.push(TAG_GAUGE);
            put_varint(&mut out, *x);
        }
        DeltaValue::Histogram { count, sum, buckets } => {
            encode_histogram(&mut out, *count, *sum, buckets)
        }
    }
    out
}

fn encode_name_class(out: &mut Vec<u8>, name: &str, class: MetricClass) {
    let bytes = name.as_bytes();
    debug_assert!(bytes.len() <= MAX_METRIC_NAME_LEN, "metric name too long: {name}");
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
    out.push(match class {
        MetricClass::Deterministic => 0,
        MetricClass::Diagnostic => 1,
    });
}

fn encode_histogram(out: &mut Vec<u8>, count: u64, sum: u64, buckets: &[(usize, u64)]) {
    out.push(TAG_HISTOGRAM);
    put_varint(out, count);
    put_varint(out, sum);
    put_varint(out, buckets.len() as u64);
    for &(idx, c) in buckets {
        put_varint(out, idx as u64);
        put_varint(out, c);
    }
}

/// LEB128 unsigned varint — 1 byte for values < 128, which covers most
/// bucket indexes and small increments.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

struct VarReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl VarReader<'_> {
    fn byte(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn varint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.byte()?;
            if shift == 63 && byte > 1 {
                return None; // overflow past u64
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Some(v);
            }
            shift += 7;
            if shift > 63 {
                return None;
            }
        }
    }

    fn name_class(&mut self) -> Option<(String, MetricClass)> {
        let len = self.varint()? as usize;
        if len > MAX_METRIC_NAME_LEN || self.pos + len > self.bytes.len() {
            return None;
        }
        let name = std::str::from_utf8(&self.bytes[self.pos..self.pos + len]).ok()?.to_string();
        self.pos += len;
        let class = match self.byte()? {
            0 => MetricClass::Deterministic,
            1 => MetricClass::Diagnostic,
            _ => return None,
        };
        Some((name, class))
    }

    fn histogram(&mut self) -> Option<HistogramSnapshot> {
        let count = self.varint()?;
        let sum = self.varint()?;
        let n = self.varint()? as usize;
        if n > HISTOGRAM_BUCKETS {
            return None;
        }
        let mut buckets = Vec::with_capacity(n);
        let mut last: Option<usize> = None;
        for _ in 0..n {
            let idx = self.varint()? as usize;
            if idx >= HISTOGRAM_BUCKETS || last.is_some_and(|l| idx <= l) {
                return None; // indexes must be ascending and in range
            }
            last = Some(idx);
            buckets.push((idx, self.varint()?));
        }
        Some(HistogramSnapshot { count, sum, buckets })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter(name: &str, v: u64) -> MetricEntry {
        MetricEntry {
            name: name.to_string(),
            class: MetricClass::Deterministic,
            value: MetricValue::Counter(v),
        }
    }

    fn hist(name: &str, count: u64, sum: u64, buckets: &[(usize, u64)]) -> MetricEntry {
        MetricEntry {
            name: name.to_string(),
            class: MetricClass::Diagnostic,
            value: MetricValue::Histogram(HistogramSnapshot {
                count,
                sum,
                buckets: buckets.to_vec(),
            }),
        }
    }

    fn snap(seq: u64, entries: Vec<MetricEntry>) -> Snapshot {
        Snapshot { seq, wall_ms: seq * 10, metrics: MetricsSnapshot { entries } }
    }

    #[test]
    fn full_record_round_trips() {
        let s = snap(
            3,
            vec![
                counter("a.count", 7),
                hist("b.lat", 4, 90, &[(0, 1), (5, 3)]),
                MetricEntry {
                    name: "c.gauge".into(),
                    class: MetricClass::Deterministic,
                    value: MetricValue::Gauge(123456789),
                },
            ],
        );
        assert_eq!(decode_record(&s.encode()), Some(SnapshotRecord::Full(s)));
    }

    #[test]
    fn delta_apply_reconstructs_next_snapshot() {
        // Entries must stay sorted by name — the registry invariant.
        let a = snap(0, vec![hist("h", 1, 8, &[(3, 1)]), counter("x", 2)]);
        let b =
            snap(1, vec![hist("h", 3, 20, &[(1, 1), (3, 2)]), counter("new", 5), counter("x", 9)]);
        let d = b.delta_from(&a);
        assert_eq!(a.apply(&d), b);
        assert_eq!(decode_record(&d.encode()), Some(SnapshotRecord::Delta(d)));
    }

    #[test]
    fn unchanged_metrics_do_not_appear_in_deltas() {
        let a = snap(0, vec![counter("same", 4), counter("moves", 1)]);
        let mut b = snap(1, vec![counter("same", 4), counter("moves", 1)]);
        b.metrics.entries[1].value = MetricValue::Counter(3);
        let d = b.delta_from(&a);
        assert_eq!(d.changes.len(), 1);
        assert_eq!(d.changes[0].name, "moves");
        assert_eq!(d.changes[0].value, DeltaValue::Counter(2));
    }

    #[test]
    fn merge_is_order_invariant() {
        let base = snap(0, vec![counter("c", 0), hist("h", 0, 0, &[])]);
        let s1 = snap(1, vec![counter("c", 3), hist("h", 1, 4, &[(2, 1)])]);
        let s2 = snap(2, vec![counter("c", 5), hist("h", 3, 10, &[(1, 1), (2, 2)])]);
        let d1 = s1.delta_from(&base);
        let d2 = s2.delta_from(&s1);
        let mut ab = d1.clone();
        ab.merge(&d2);
        let mut ba = d2.clone();
        ba.merge(&d1);
        assert_eq!(ab, ba);
        // The merged delta reproduces the final snapshot in one hop.
        assert_eq!(base.apply(&ab), s2);
    }

    #[test]
    fn decode_rejects_garbage_and_bounds() {
        assert_eq!(decode_record(&[]), None);
        assert_eq!(decode_record(&[9, KIND_FULL, 0, 0, 0]), None, "wrong version");
        assert_eq!(decode_record(&[SNAPSHOT_VERSION, 7, 0, 0, 0]), None, "wrong kind");
        // Entry count beyond the cap must be rejected before allocating.
        let mut huge = vec![SNAPSHOT_VERSION, KIND_FULL, 0, 0];
        put_varint(&mut huge, (MAX_SNAPSHOT_ENTRIES + 1) as u64);
        assert_eq!(decode_record(&huge), None);
        // Trailing garbage after a valid record is rejected.
        let mut ok = snap(0, vec![counter("x", 1)]).encode();
        ok.push(0);
        assert_eq!(decode_record(&ok), None);
        // Truncation at every boundary is rejected, never panics.
        let full = snap(1, vec![counter("x", 300), hist("h", 2, 9, &[(0, 1), (7, 1)])]).encode();
        for cut in 0..full.len() {
            assert_eq!(decode_record(&full[..cut]), None, "cut at {cut}");
        }
    }

    #[test]
    fn varint_round_trips_extremes() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut r = VarReader { bytes: &out, pos: 0 };
            assert_eq!(r.varint(), Some(v));
            assert_eq!(r.pos, out.len());
        }
    }
}
