//! Crash-recovery property suite for the on-disk segment store and the
//! tiered cache over it.
//!
//! The contract under test: an entry is **acked** once `append` (or a
//! tiered insert) returns, and recovery after a crash at *any* byte
//! offset serves exactly the complete prefix of acked records — every
//! record wholly before the cut survives with its exact bytes, nothing
//! at or after the cut is ever served, and the torn tail is physically
//! truncated so the store is immediately writable again. Crashes are
//! simulated by truncating or corrupting the segment file between
//! process-equivalents (open → drop → reopen), which exercises the same
//! recovery path a killed process would.

use magseven::serve::{CacheKey, KeyHasher};
use magseven::serve::{
    SegmentConfig, SegmentStore, FILE_HEADER, RECORD_HEADER_BYTES, RECORD_TRAILER_BYTES,
    SEGMENT_FILE,
};
use magseven::serve::{TierConfig, TieredCache};
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Every proptest case gets its own directory: cases run back-to-back
/// in one process, so pid+thread tags alone would collide.
static CASE: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "m7rec-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic payload bytes for record `i`.
fn payload(i: usize, len: usize) -> Vec<u8> {
    (0..len).map(|j| (i.wrapping_mul(31) ^ j.wrapping_mul(7)) as u8).collect()
}

fn record_len(payload_len: usize) -> u64 {
    RECORD_HEADER_BYTES + payload_len as u64 + RECORD_TRAILER_BYTES
}

fn key_of(raw: u64) -> CacheKey {
    let mut h = KeyHasher::new();
    h.write_u64(raw);
    h.finish()
}

/// Truncates the file at `path` to `len` bytes — the crash.
fn truncate_file(path: &std::path::Path, len: u64) {
    let f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    f.set_len(len).unwrap();
}

proptest! {
    /// The torn-write property. Append N records, cut the file at an
    /// arbitrary byte offset — anywhere from zero (mid-header) to the
    /// full length — and reopen:
    ///
    /// - exactly the records wholly before the cut are recovered,
    /// - each with byte-identical payload,
    /// - the torn tail is physically truncated,
    /// - the reopened store accepts new appends that survive a further
    ///   reopen with zero torn bytes (recovery is idempotent).
    #[test]
    fn truncation_at_any_offset_keeps_exactly_the_acked_prefix(
        lens in prop::collection::vec(0usize..48, 1..16),
        cut_frac in 0.0f64..=1.0,
    ) {
        let dir = temp_dir("cut");
        let path = dir.join(SEGMENT_FILE);
        {
            let store = SegmentStore::open(SegmentConfig::new(&dir)).unwrap();
            for (i, &len) in lens.iter().enumerate() {
                store.append(i as u64, &payload(i, len)).unwrap();
            }
        }
        let full = std::fs::read(&path).unwrap().len() as u64;
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let cut = (cut_frac * full as f64).round().min(full as f64) as u64;
        truncate_file(&path, cut);

        // The expected complete prefix, computed from record framing
        // alone — the model the store must match.
        let header = FILE_HEADER.len() as u64;
        let (survivors, good_end, torn) = if cut < header {
            // The header itself is torn: everything present is garbage,
            // and recovery rewrites a fresh 8-byte header.
            (0usize, header, cut)
        } else {
            let mut end = header;
            let mut n = 0usize;
            for &len in &lens {
                let next = end + record_len(len);
                if next > cut {
                    break;
                }
                end = next;
                n += 1;
            }
            (n, end, cut - end)
        };

        let store = SegmentStore::open(SegmentConfig::new(&dir)).unwrap();
        let rec = store.recovery();
        prop_assert_eq!(rec.records, survivors, "recovered record count");
        prop_assert_eq!(rec.live_entries, survivors, "keys are unique here");
        prop_assert_eq!(rec.torn_bytes, torn, "torn tail size");
        prop_assert_eq!(store.file_bytes(), good_end, "tail physically truncated");
        for (i, &len) in lens.iter().enumerate() {
            let got = store.get(i as u64).unwrap();
            if i < survivors {
                prop_assert_eq!(got.as_deref(), Some(&payload(i, len)[..]), "record {} bytes", i);
            } else {
                prop_assert_eq!(got, None, "record {} is past the cut and must not serve", i);
            }
        }

        // The recovered store is immediately writable, and the repair
        // sticks: a further reopen finds a clean file.
        store.append(0xdead_beef, b"post-crash append").unwrap();
        drop(store);
        let store = SegmentStore::open(SegmentConfig::new(&dir)).unwrap();
        prop_assert_eq!(store.recovery().torn_bytes, 0, "recovery must be idempotent");
        prop_assert_eq!(store.recovery().live_entries, survivors + 1);
        let post = store.get(0xdead_beef).unwrap();
        prop_assert_eq!(post.as_deref(), Some(&b"post-crash append"[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The last-write-wins property. A history that rewrites a few keys
    /// over and over is cut at an arbitrary offset and reopened: the
    /// record count, the live-key count and every key's payload must
    /// equal a `HashMap` model of the complete records before the cut,
    /// replayed in append order.
    #[test]
    fn repeated_keys_recover_the_last_acked_write(
        writes in prop::collection::vec((0u64..6, 0usize..24), 1..40),
        cut_frac in 0.0f64..=1.0,
    ) {
        let dir = temp_dir("rewrite");
        let path = dir.join(SEGMENT_FILE);
        {
            let store = SegmentStore::open(SegmentConfig::new(&dir)).unwrap();
            for (i, &(key, len)) in writes.iter().enumerate() {
                store.append(key, &payload(i, len)).unwrap();
            }
        }
        let full = std::fs::read(&path).unwrap().len() as u64;
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let cut = (cut_frac * full as f64).round().min(full as f64) as u64;
        truncate_file(&path, cut);

        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut acked = 0usize;
        let mut end = FILE_HEADER.len() as u64;
        for (i, &(key, len)) in writes.iter().enumerate() {
            end += record_len(len);
            if end > cut {
                break;
            }
            model.insert(key, payload(i, len));
            acked += 1;
        }

        let store = SegmentStore::open(SegmentConfig::new(&dir)).unwrap();
        let rec = store.recovery();
        prop_assert_eq!(rec.records, acked, "records before the cut");
        prop_assert_eq!(rec.live_entries, model.len(), "distinct keys before the cut");
        for key in 0..6u64 {
            let got = store.get(key).unwrap();
            prop_assert_eq!(got.as_deref(), model.get(&key).map(Vec::as_slice), "key {}", key);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flipping any single post-header byte stops replay at the damaged
    /// record: everything before it survives byte-identical, the
    /// damaged record and everything after are dropped, and the store
    /// never serves corrupt data or panics. (CRC-32 detects every
    /// single-byte error, so the damaged record is always rejected.)
    #[test]
    fn corruption_at_any_offset_never_serves_damaged_data(
        lens in prop::collection::vec(1usize..32, 1..12),
        pos_frac in 0.0f64..1.0,
        xor in 1u8..=255,
    ) {
        let dir = temp_dir("flip");
        let path = dir.join(SEGMENT_FILE);
        {
            let store = SegmentStore::open(SegmentConfig::new(&dir)).unwrap();
            for (i, &len) in lens.iter().enumerate() {
                store.append(i as u64, &payload(i, len)).unwrap();
            }
        }
        let mut raw = std::fs::read(&path).unwrap();
        let header = FILE_HEADER.len();
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let pos = header + ((pos_frac * (raw.len() - header) as f64) as usize)
            .min(raw.len() - header - 1);
        raw[pos] ^= xor;
        std::fs::write(&path, &raw).unwrap();

        // Which record owns the flipped byte?
        let mut end = header as u64;
        let mut damaged = lens.len();
        for (i, &len) in lens.iter().enumerate() {
            let next = end + record_len(len);
            if (pos as u64) < next {
                damaged = i;
                break;
            }
            end = next;
        }

        let store = SegmentStore::open(SegmentConfig::new(&dir)).unwrap();
        prop_assert_eq!(store.recovery().records, damaged, "replay stops at the damage");
        for (i, &len) in lens.iter().enumerate() {
            let got = store.get(i as u64).unwrap();
            if i < damaged {
                prop_assert_eq!(got.as_deref(), Some(&payload(i, len)[..]));
            } else {
                prop_assert_eq!(got, None, "record {} is at/after the damage", i);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The same durability contract one level up, through the tiered
    /// cache: values inserted through [`TieredCache`] and recovered
    /// after an arbitrary-offset crash are served **bit-identical** or
    /// not at all — never wrong — and the survivor set is exactly the
    /// complete on-disk prefix.
    #[test]
    fn tiered_cache_recovers_exact_values_after_any_cut(
        bits in prop::collection::vec(0u64..=u64::MAX, 1..20),
        cut_frac in 0.0f64..=1.0,
    ) {
        let dir = temp_dir("tier");
        let path = dir.join(SEGMENT_FILE);
        let values: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        {
            let cache: TieredCache<f64> = TieredCache::open(4, TierConfig::disk(&dir)).unwrap();
            for (i, &v) in values.iter().enumerate() {
                cache.insert(key_of(i as u64), v);
            }
            cache.sync().unwrap();
        }
        let full = std::fs::read(&path).unwrap().len() as u64;
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let cut = (cut_frac * full as f64).round().min(full as f64) as u64;
        truncate_file(&path, cut);

        // f64 payloads are fixed-size, so the survivor count follows
        // from the cut alone.
        let header = FILE_HEADER.len() as u64;
        let per_record = record_len(8);
        #[allow(clippy::cast_possible_truncation)]
        let survivors = (cut.saturating_sub(header) / per_record) as usize;

        let cache: TieredCache<f64> = TieredCache::open(4, TierConfig::disk(&dir)).unwrap();
        let rec = cache.recovery().expect("disk tier is configured");
        prop_assert_eq!(rec.live_entries, survivors.min(values.len()));
        for (i, &v) in values.iter().enumerate() {
            match cache.get(key_of(i as u64)) {
                Some(got) => {
                    prop_assert!(i < survivors, "value {} served from past the cut", i);
                    prop_assert_eq!(got.to_bits(), v.to_bits(), "value {} must be bit-exact", i);
                }
                None => prop_assert!(i >= survivors, "acked value {} lost before the cut", i),
            }
        }
        prop_assert_eq!(cache.stats().disk_errors, 0, "no decode failures on a clean prefix");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Deterministic (non-random) sweep: cut a two-record file at **every**
/// byte offset. The record boundary is the exact durability edge:
/// offsets inside record 2 keep record 1 only; offsets inside record 1
/// (or the header) keep nothing; no offset anywhere loses record 1 once
/// the cut is past its last byte.
#[test]
fn every_single_byte_cut_of_a_small_file_recovers_cleanly() {
    let lens = [5usize, 9];
    let header = FILE_HEADER.len() as u64;
    let r1_end = header + record_len(lens[0]);
    let r2_end = r1_end + record_len(lens[1]);

    for cut in 0..=r2_end {
        let dir = temp_dir("sweep");
        let path = dir.join(SEGMENT_FILE);
        {
            let store = SegmentStore::open(SegmentConfig::new(&dir)).unwrap();
            store.append(0, &payload(0, lens[0])).unwrap();
            store.append(1, &payload(1, lens[1])).unwrap();
        }
        truncate_file(&path, cut);
        let store = SegmentStore::open(SegmentConfig::new(&dir)).unwrap();
        let expect = usize::from(cut >= r1_end) + usize::from(cut >= r2_end);
        assert_eq!(store.recovery().live_entries, expect, "cut at byte {cut}");
        assert_eq!(store.get(0).unwrap().is_some(), cut >= r1_end, "cut at byte {cut}");
        assert_eq!(store.get(1).unwrap().is_some(), cut >= r2_end, "cut at byte {cut}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
