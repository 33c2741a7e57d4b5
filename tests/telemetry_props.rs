//! Property suite for the live-telemetry snapshot codec and the flight
//! journal built on it.
//!
//! Three contracts under test, matching the module docs of
//! `m7_trace::snapshot` and `m7_serve::journal`:
//!
//! - **Codec round-trip:** `decode_record(encode(x)) == x` for full and
//!   delta records over arbitrary registries, and every truncated prefix
//!   decodes to `None` (never panics, never mis-parses).
//! - **Delta algebra:** `prev.apply(&next.delta_from(&prev)) == next`
//!   along an arbitrary metric history, unchanged metrics stay out of
//!   deltas, and [`SnapshotDelta::merge`] is commutative and associative
//!   so a folded delta replays a whole chain in one hop.
//! - **Journal durability:** a record is acked once `publish` returns;
//!   cutting the segment file at *any* byte offset (the on-disk state a
//!   `kill -9` mid-write leaves behind) and recovering yields exactly
//!   the snapshot reconstructed from the wholly-surviving record prefix
//!   — never a torn or reordered state. A live end-to-end test runs a
//!   real [`TelemetryHub`] into a [`FlightJournal`] and checks recovery
//!   lands on the final published registry state.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use magseven::serve::{
    recover_snapshot, FlightJournal, FILE_HEADER, RECORD_HEADER_BYTES, RECORD_TRAILER_BYTES,
    SEGMENT_FILE,
};
use magseven::trace::{
    decode_record, HistogramSnapshot, HubConfig, MetricClass, MetricEntry, MetricValue,
    MetricsSnapshot, Snapshot, SnapshotRecord, SnapshotSink, TelemetryHub, HISTOGRAM_BUCKETS,
};
use proptest::prelude::*;

/// Snapshots per generated history (seq 0 ..= STEPS-1).
const STEPS: usize = 4;

/// Every proptest case gets its own directory: cases run back-to-back
/// in one process, so pid+thread tags alone would collide.
static CASE: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "m7tel-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One synthetic metric's whole history: its kind, the step it first
/// appears (the registry only grows), and a per-step increment.
#[derive(Debug, Clone)]
struct Spec {
    kind: usize,
    first: usize,
    incs: Vec<u64>,
}

/// Generates 1..8 metric histories plus a heartbeat metric that changes
/// every step, so no interval is quiet and deltas stay non-empty — the
/// same invariant the hub enforces by skipping quiet intervals.
fn specs() -> impl Strategy<Value = Vec<Spec>> {
    prop::collection::vec((0..3usize, 0..STEPS, prop::collection::vec(0u64..40, STEPS)), 1..8)
        .prop_map(|raw| {
            let mut specs = vec![Spec { kind: 0, first: 0, incs: vec![1; STEPS] }];
            specs.extend(raw.into_iter().map(|(kind, first, incs)| Spec { kind, first, incs }));
            specs
        })
}

/// The cumulative value of metric `i` at step `t`, or `None` before the
/// metric first appears. Counters and gauges carry the running sum of
/// increments (monotone, like real registry traffic); histograms spread
/// each step's increment over a step-dependent bucket so multi-bucket
/// deltas get exercised.
fn value_at(i: usize, spec: &Spec, t: usize) -> Option<MetricValue> {
    if t < spec.first {
        return None;
    }
    let total: u64 = spec.incs[spec.first..=t].iter().sum();
    Some(match spec.kind {
        0 => MetricValue::Counter(total),
        1 => MetricValue::Gauge(total),
        _ => {
            let mut buckets: Vec<(usize, u64)> = Vec::new();
            let mut sum = 0u64;
            for (step, &inc) in spec.incs.iter().enumerate().take(t + 1).skip(spec.first) {
                if inc == 0 {
                    continue;
                }
                let idx = (i * 5 + step * 11) % HISTOGRAM_BUCKETS;
                match buckets.binary_search_by_key(&idx, |&(b, _)| b) {
                    Ok(at) => buckets[at].1 += inc,
                    Err(at) => buckets.insert(at, (idx, inc)),
                }
                sum += inc * (step as u64 + 1);
            }
            MetricValue::Histogram(HistogramSnapshot { count: total, sum, buckets })
        }
    })
}

/// Materializes the registry state at step `t`: entries sorted by name
/// (the registry invariant), classes alternating so both halves of the
/// deterministic/diagnostic split ride through the codec.
fn snap_at(specs: &[Spec], t: usize) -> Snapshot {
    let entries = specs
        .iter()
        .enumerate()
        .filter_map(|(i, spec)| {
            value_at(i, spec, t).map(|value| MetricEntry {
                name: format!("telprops.m{i:02}"),
                class: if i % 2 == 0 {
                    MetricClass::Deterministic
                } else {
                    MetricClass::Diagnostic
                },
                value,
            })
        })
        .collect();
    Snapshot { seq: t as u64, wall_ms: t as u64 * 17, metrics: MetricsSnapshot { entries } }
}

fn record_len(payload_len: usize) -> u64 {
    RECORD_HEADER_BYTES + payload_len as u64 + RECORD_TRAILER_BYTES
}

/// Truncates the file at `path` to `len` bytes — the crash.
fn truncate_file(path: &std::path::Path, len: u64) {
    let f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    f.set_len(len).unwrap();
}

proptest! {
    /// Full and delta records decode back to exactly what was encoded,
    /// and every strict prefix of the encoding is rejected (`None`)
    /// rather than mis-parsed or panicking — the journal's torn-record
    /// guard depends on this.
    #[test]
    fn records_round_trip_and_reject_every_truncation(specs in specs()) {
        for t in 0..STEPS {
            let snap = snap_at(&specs, t);
            let bytes = snap.encode();
            prop_assert_eq!(decode_record(&bytes), Some(SnapshotRecord::Full(snap.clone())));
            for cut in 0..bytes.len() {
                prop_assert_eq!(decode_record(&bytes[..cut]), None, "full cut at {}", cut);
            }
        }
        for t in 1..STEPS {
            let delta = snap_at(&specs, t).delta_from(&snap_at(&specs, t - 1));
            let bytes = delta.encode();
            prop_assert_eq!(decode_record(&bytes), Some(SnapshotRecord::Delta(delta.clone())));
            for cut in 0..bytes.len() {
                prop_assert_eq!(decode_record(&bytes[..cut]), None, "delta cut at {}", cut);
            }
        }
    }

    /// Applying each step's delta reconstructs the next snapshot
    /// exactly, and a metric only appears in a delta when it actually
    /// changed (or newly appeared) — the property that makes journal
    /// records cost bytes proportional to activity.
    #[test]
    fn delta_chain_reconstructs_every_snapshot(specs in specs()) {
        let mut current = snap_at(&specs, 0);
        for t in 1..STEPS {
            let next = snap_at(&specs, t);
            let delta = next.delta_from(&current);
            for change in &delta.changes {
                let before = current.metrics.get(&change.name);
                let after = next.metrics.get(&change.name).expect("changes name an entry");
                prop_assert!(
                    before != Some(after),
                    "unchanged metric {} appeared in a delta",
                    change.name
                );
            }
            current = current.apply(&delta);
            prop_assert_eq!(&current, &next, "apply must land on the sampled snapshot");
        }
    }

    /// Delta merge is commutative and associative, and the fold of a
    /// whole chain replays it in one hop: counters and histogram
    /// buckets add, gauges keep the high-water value (which equals the
    /// final value here because registry traffic is monotone).
    #[test]
    fn merge_is_order_invariant_and_replays_the_chain(specs in specs()) {
        let snaps: Vec<Snapshot> = (0..STEPS).map(|t| snap_at(&specs, t)).collect();
        let deltas: Vec<_> =
            (1..STEPS).map(|t| snaps[t].delta_from(&snaps[t - 1])).collect();

        let mut ab = deltas[0].clone();
        ab.merge(&deltas[1]);
        let mut ba = deltas[1].clone();
        ba.merge(&deltas[0]);
        prop_assert_eq!(&ab, &ba, "merge must be commutative");

        let mut left = ab.clone();
        left.merge(&deltas[2]);
        let mut bc = deltas[1].clone();
        bc.merge(&deltas[2]);
        let mut right = deltas[0].clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right, "merge must be associative");

        prop_assert_eq!(
            snaps[0].apply(&left),
            snaps[STEPS - 1].clone(),
            "the folded delta must replay the chain in one hop"
        );
    }

    /// The kill -9 property. Publish a baseline plus delta chain
    /// through the journal, cut the segment file at an arbitrary byte
    /// offset, and recover: the result is exactly the snapshot
    /// reconstructed from the records wholly before the cut — the acked
    /// prefix — and nothing else. (Crashes are simulated by truncation,
    /// the same on-disk state a mid-write kill leaves; the CI
    /// telemetry-smoke job runs the real `kill -9` end to end.)
    #[test]
    fn journal_cut_at_any_offset_recovers_exactly_the_acked_prefix(
        specs in specs(),
        cut_frac in 0.0f64..=1.0,
    ) {
        let dir = temp_dir("cut");
        let snaps: Vec<Snapshot> = (0..STEPS).map(|t| snap_at(&specs, t)).collect();
        let mut payload_lens = vec![snaps[0].encode().len()];
        {
            let mut journal = FlightJournal::open(&dir).unwrap();
            journal.publish(&snaps[0], None);
            for t in 1..STEPS {
                let delta = snaps[t].delta_from(&snaps[t - 1]);
                prop_assert!(!delta.is_empty(), "the heartbeat keeps every delta non-empty");
                payload_lens.push(delta.encode().len());
                journal.publish(&snaps[t], Some(&delta));
            }
            prop_assert_eq!(journal.write_errors(), 0);
        }

        let path = dir.join(SEGMENT_FILE);
        let full = std::fs::read(&path).unwrap().len() as u64;
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let cut = (cut_frac * full as f64).round().min(full as f64) as u64;
        truncate_file(&path, cut);

        // The expected survivor count, from record framing alone.
        let header = FILE_HEADER.len() as u64;
        let mut end = header;
        let mut survivors = 0usize;
        if cut >= header {
            for &len in &payload_lens {
                let next = end + record_len(len);
                if next > cut {
                    break;
                }
                end = next;
                survivors += 1;
            }
        }

        match recover_snapshot(&dir).unwrap() {
            None => prop_assert_eq!(survivors, 0, "a surviving baseline must recover"),
            Some((snapshot, records)) => {
                prop_assert_eq!(records, survivors, "recovery folds exactly the acked prefix");
                prop_assert_eq!(
                    snapshot,
                    snaps[survivors - 1].clone(),
                    "recovery must land on the last acked snapshot"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// End to end with a *real* hub: sample the live registry on a 1 ms
/// cadence into a journal, then recover and check the journal's fold
/// lands on the final published registry state — seqs contiguous, the
/// stop-time flush included.
#[test]
fn live_hub_streams_into_the_journal_and_recovery_matches() {
    let dir = temp_dir("live");
    let ticks =
        magseven::trace::registry().counter("telprops.live_ticks", MetricClass::Deterministic);
    let journal = FlightJournal::open(&dir).unwrap();
    let hub = TelemetryHub::start(
        HubConfig { interval: Duration::from_millis(1) },
        vec![Box::new(journal)],
    );
    for _ in 0..5 {
        ticks.add(3);
        std::thread::sleep(Duration::from_millis(3));
    }
    let final_value = ticks.get();
    hub.stop(); // flushes one final sample before joining

    let (snapshot, records) =
        recover_snapshot(&dir).unwrap().expect("the baseline must reach the journal");
    assert!(records >= 1);
    assert_eq!(
        snapshot.metrics.counter("telprops.live_ticks"),
        Some(final_value),
        "recovery must see the last pre-stop counter value"
    );
    assert_eq!(snapshot.seq + 1, records as u64, "journal seqs are contiguous from the baseline");
    let _ = std::fs::remove_dir_all(&dir);
}
