//! Crash-safe flight journal: telemetry snapshots on the segment store.
//!
//! [`FlightJournal`] is a [`SnapshotSink`] that appends every record the
//! telemetry hub publishes to an append-only [`SegmentStore`], keyed by
//! sequence number: key 0 holds the baseline full snapshot, key `k > 0`
//! holds the delta from record `k - 1`. Because the store CRC-checks
//! every record and truncates the torn tail on open, a `kill -9` at any
//! instant leaves exactly the prefix of records that reached the OS —
//! [`recover_snapshot`] replays `0, 1, 2, …` until the first gap and
//! folds the deltas back into the final pre-crash snapshot.
//!
//! [`TelemetryPump`] is the one-call wiring every binary shares: it
//! turns the parsed [`ObsFlags`] (`--stats-interval`, `--journal`) into
//! a running [`TelemetryHub`] with the journal attached, so the four
//! CLI entry points do not each reimplement the plumbing.

use std::io;
use std::path::Path;

use m7_trace::{
    decode_record, ObsFlags, Snapshot, SnapshotDelta, SnapshotRecord, SnapshotSink, TelemetryHub,
};

use crate::segment::{RecoveryReport, SegmentConfig, SegmentStore};

/// Streams hub records into a [`SegmentStore`], one record per sequence
/// number.
pub struct FlightJournal {
    store: SegmentStore,
    write_errors: u64,
}

impl FlightJournal {
    /// Opens (or recovers) the journal under `dir`.
    ///
    /// # Errors
    ///
    /// Propagates [`SegmentStore::open`] failures — I/O errors, or
    /// `InvalidData` when `dir` holds a non-segment file.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let store = SegmentStore::open(SegmentConfig::new(dir.as_ref()))?;
        Ok(Self { store, write_errors: 0 })
    }

    /// What opening the journal replayed and repaired.
    #[must_use]
    pub fn recovery(&self) -> RecoveryReport {
        self.store.recovery()
    }

    /// Appends that failed (the journal degrades rather than panicking
    /// the hub thread; a non-zero value means the record stream on disk
    /// ends earlier than the in-process one).
    #[must_use]
    pub fn write_errors(&self) -> u64 {
        self.write_errors
    }
}

impl SnapshotSink for FlightJournal {
    fn publish(&mut self, snapshot: &Snapshot, delta: Option<&SnapshotDelta>) {
        let payload = match delta {
            None => snapshot.encode(),
            Some(delta) => delta.encode(),
        };
        if self.store.append(snapshot.seq, &payload).is_err() {
            self.write_errors += 1;
        }
    }
}

/// Replays a journal directory back into its final snapshot.
///
/// Reads record 0 (the baseline full snapshot) and then folds deltas at
/// `1, 2, …` until the first missing key — the end of the acked prefix.
/// Returns `None` when the directory holds no baseline (the journal
/// never started). The second tuple element is the number of records
/// folded in, baseline included.
///
/// # Errors
///
/// Propagates store-open I/O errors, and reports `InvalidData` when a
/// stored record fails to decode (journal written by an incompatible
/// version, or key 0 is not a full snapshot).
pub fn recover_snapshot(dir: impl AsRef<Path>) -> io::Result<Option<(Snapshot, usize)>> {
    let store = SegmentStore::open(SegmentConfig::new(dir.as_ref()))?;
    let Some(baseline) = store.get(0)? else {
        return Ok(None);
    };
    let corrupt = |seq: u64| {
        io::Error::new(io::ErrorKind::InvalidData, format!("journal record {seq} did not decode"))
    };
    let mut snapshot = match decode_record(&baseline) {
        Some(SnapshotRecord::Full(snap)) => snap,
        _ => return Err(corrupt(0)),
    };
    let mut records = 1;
    loop {
        let seq = snapshot.seq + 1;
        let Some(bytes) = store.get(seq)? else {
            return Ok(Some((snapshot, records)));
        };
        match decode_record(&bytes) {
            Some(SnapshotRecord::Delta(delta)) => snapshot = snapshot.apply(&delta),
            _ => return Err(corrupt(seq)),
        }
        records += 1;
    }
}

/// The running telemetry plane of one process: the hub plus whatever
/// sinks the observability flags asked for.
pub struct TelemetryPump {
    hub: TelemetryHub,
}

impl TelemetryPump {
    /// Starts the hub if `flags` ask for one (`--stats-interval` and/or
    /// `--journal`), attaching a [`FlightJournal`] sink when a journal
    /// directory was given. Returns `None` when telemetry is off — the
    /// caller just holds the `Option` and drops it at exit, which
    /// flushes one final sample.
    ///
    /// # Errors
    ///
    /// Propagates journal-open failures; the hub itself cannot fail to
    /// start.
    pub fn from_flags(flags: &ObsFlags) -> io::Result<Option<Self>> {
        if !flags.wants_hub() {
            return Ok(None);
        }
        let mut sinks: Vec<Box<dyn SnapshotSink>> = Vec::new();
        if let Some(dir) = &flags.journal {
            sinks.push(Box::new(FlightJournal::open(dir)?));
        }
        let hub = TelemetryHub::start(flags.hub_config(), sinks);
        Ok(Some(Self { hub }))
    }

    /// The most recent published snapshot, if any.
    #[must_use]
    pub fn latest(&self) -> Option<Snapshot> {
        self.hub.latest()
    }

    /// Records published so far (baseline + non-empty deltas).
    #[must_use]
    pub fn snapshots_published(&self) -> u64 {
        self.hub.snapshots_published()
    }

    /// Stops the hub: one final sample reaches the sinks before this
    /// returns. Dropping the pump does the same.
    pub fn stop(self) {
        self.hub.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m7_trace::{MetricClass, MetricEntry, MetricValue, MetricsSnapshot};

    fn snap(seq: u64, entries: Vec<MetricEntry>) -> Snapshot {
        Snapshot { seq, wall_ms: seq * 10, metrics: MetricsSnapshot { entries } }
    }

    fn counter(name: &str, value: u64) -> MetricEntry {
        MetricEntry {
            name: name.to_string(),
            class: MetricClass::Deterministic,
            value: MetricValue::Counter(value),
        }
    }

    fn publish_chain(journal: &mut FlightJournal, snaps: &[Snapshot]) {
        journal.publish(&snaps[0], None);
        for pair in snaps.windows(2) {
            let delta = pair[1].delta_from(&pair[0]);
            journal.publish(&pair[1], Some(&delta));
        }
    }

    #[test]
    fn journal_round_trips_baseline_plus_deltas() {
        let dir = std::env::temp_dir().join(format!("m7-journal-rt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let snaps = [
            snap(0, vec![counter("a", 1)]),
            snap(1, vec![counter("a", 3)]),
            snap(2, vec![counter("a", 3), counter("b", 7)]),
        ];
        {
            let mut journal = FlightJournal::open(&dir).expect("open journal");
            publish_chain(&mut journal, &snaps);
            assert_eq!(journal.write_errors(), 0);
        }
        let (recovered, records) = recover_snapshot(&dir).expect("recover").expect("baseline");
        assert_eq!(records, 3);
        assert_eq!(recovered, snaps[2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_stops_at_first_gap() {
        let dir = std::env::temp_dir().join(format!("m7-journal-gap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let snaps = [snap(0, vec![counter("a", 1)]), snap(1, vec![counter("a", 2)])];
        {
            let mut journal = FlightJournal::open(&dir).expect("open journal");
            publish_chain(&mut journal, &snaps);
            // A record past a gap must be ignored: seq 3 exists, 2 does not.
            let orphan = snap(3, vec![counter("a", 9)]);
            let delta = orphan.delta_from(&snaps[1]);
            journal.store.append(3, &delta.encode()).expect("append orphan");
        }
        let (recovered, records) = recover_snapshot(&dir).expect("recover").expect("baseline");
        assert_eq!(records, 2);
        assert_eq!(recovered, snaps[1]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_dir_recovers_to_none() {
        let dir = std::env::temp_dir().join(format!("m7-journal-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(recover_snapshot(&dir).expect("recover").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pump_is_off_without_flags_and_journals_with_them() {
        let flags = ObsFlags::default();
        assert!(TelemetryPump::from_flags(&flags).expect("pump").is_none());

        let dir = std::env::temp_dir().join(format!("m7-journal-pump-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let flags = ObsFlags {
            stats_interval: Some(5),
            journal: Some(dir.display().to_string()),
            ..ObsFlags::default()
        };
        let pump = TelemetryPump::from_flags(&flags).expect("pump").expect("hub on");
        pump.stop(); // final sample flushes the baseline even if quiet
        let recovered = recover_snapshot(&dir).expect("recover");
        assert!(recovered.is_some(), "baseline record must reach the journal");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
