//! The cold tier: a crash-safe, append-only, on-disk segment store.
//!
//! One segment file holds a fixed 8-byte header followed by
//! length-prefixed records:
//!
//! ```text
//! file header   b"M7SEG" ++ [version u8 = 1] ++ [0, 0]
//! record        [len u32le] [key u64le] [payload; len] [crc u32le]
//! ```
//!
//! The CRC (IEEE 802.3 CRC-32) covers the record's `len`, `key`, and
//! payload bytes, so a record is accepted only when every byte of it is
//! intact. The file is written strictly append-only; an entry is
//! **acknowledged** once [`SegmentStore::append`] returns, at which
//! point its bytes have been handed to the OS (call
//! [`SegmentStore::sync`] to force them to media).
//!
//! # Recovery rules
//!
//! On [`SegmentStore::open`] the whole file is scanned from the header:
//!
//! 1. each record's length is bounds-checked, then its CRC verified —
//!    one validating pass that fixes where the intact prefix ends and
//!    how many records it holds, so the index is sized once and filled
//!    by a plain re-walk of that prefix;
//! 2. the scan stops at end-of-file, at a partial record, or at the
//!    first CRC mismatch — everything from that point on is the **torn
//!    tail** (a crash mid-append, or corruption);
//! 3. the torn tail is physically truncated away, so the file is again
//!    a valid prefix of an append history and the next append cannot
//!    interleave with garbage;
//! 4. for duplicate keys the *last* intact record wins (append order is
//!    update order).
//!
//! The property suite in `tests/serve_recovery_props.rs` drives this
//! with crashes at arbitrary byte offsets: every record wholly before
//! the cut survives, nothing after it is ever served.

use m7_trace::{MetricClass, SpanSite, TraceCounter};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::Mutex;

static RECOVERY_SPAN: SpanSite = SpanSite::new("serve.segment.recover", MetricClass::Diagnostic);
static G_RECOVERED: TraceCounter =
    TraceCounter::new("serve.segment.recovered_entries", MetricClass::Diagnostic);
static G_TORN: TraceCounter =
    TraceCounter::new("serve.segment.torn_bytes", MetricClass::Diagnostic);
static G_COMPACTIONS: TraceCounter =
    TraceCounter::new("serve.segment.compactions", MetricClass::Diagnostic);

/// File header: magic, layout version, two reserved zero bytes.
pub const FILE_HEADER: [u8; 8] = *b"M7SEG\x01\x00\x00";

/// Fixed bytes before each record's payload (`len` + `key`).
pub const RECORD_HEADER_BYTES: u64 = 12;

/// Bytes after the payload (the CRC).
pub const RECORD_TRAILER_BYTES: u64 = 4;

/// Hard bound on one record's payload; longer announced lengths are
/// treated as corruption.
pub(crate) const MAX_RECORD_PAYLOAD: usize = 1024 * 1024;

/// The default segment file name inside a cache directory.
pub const SEGMENT_FILE: &str = "segment.m7seg";

/// Slice-by-8 lookup tables for the reflected IEEE polynomial:
/// `CRC_TABLES[0]` is the classic bytewise table, and `CRC_TABLES[k][i]`
/// advances `CRC_TABLES[k - 1][i]` by one more zero byte.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// IEEE 802.3 CRC-32 (the zlib/PNG polynomial), slice-by-8: eight
/// table lookups per 8-byte word, bytewise over the remainder.
#[must_use]
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = c ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// How values cross the memory/disk boundary. Implementations must
/// round-trip: `decode(encode(v)) == Some(v)`.
pub trait DiskCodec: Sized {
    /// Appends the value's canonical byte form.
    fn encode(&self, out: &mut Vec<u8>);
    /// Reconstructs a value, or `None` if the bytes are not a valid
    /// encoding (a decode failure is treated like a CRC failure: the
    /// record is not served).
    fn decode(bytes: &[u8]) -> Option<Self>;
}

impl DiskCodec for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let arr: [u8; 8] = bytes.try_into().ok()?;
        Some(f64::from_bits(u64::from_le_bytes(arr)))
    }
}

/// `Ok(cost)` ⇒ tag 0 + 8 bits bytes; `Err(message)` ⇒ tag 1 + UTF-8.
impl DiskCodec for Result<f64, String> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Ok(v) => {
                out.push(0);
                v.encode(out);
            }
            Err(msg) => {
                out.push(1);
                out.extend_from_slice(msg.as_bytes());
            }
        }
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let (&tag, rest) = bytes.split_first()?;
        match tag {
            0 => f64::decode(rest).map(Ok),
            1 => String::from_utf8(rest.to_vec()).ok().map(Err),
            _ => None,
        }
    }
}

/// Tuning for the on-disk tier.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentConfig {
    /// Directory holding the segment file (created if absent).
    pub dir: PathBuf,
    /// Compaction triggers only once the file exceeds this many bytes…
    pub compact_min_bytes: u64,
    /// …and dead (overwritten) record bytes exceed this fraction of the
    /// file.
    pub compact_dead_ratio: f64,
    /// Fsync after every append. Off by default: an acked append has
    /// reached the OS, and the recovery path tolerates losing a clean
    /// suffix; turn it on when the entry must survive power loss.
    pub fsync_each_append: bool,
}

impl SegmentConfig {
    /// Defaults for `dir`: compact past 4 MiB at ≥ 50% dead bytes, no
    /// per-append fsync.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            compact_min_bytes: 4 * 1024 * 1024,
            compact_dead_ratio: 0.5,
            fsync_each_append: false,
        }
    }
}

/// What [`SegmentStore::open`] found and repaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Intact records replayed (including superseded duplicates).
    pub records: usize,
    /// Distinct keys live after replay (last record per key wins).
    pub live_entries: usize,
    /// Bytes truncated from the torn tail (0 on a clean file).
    pub torn_bytes: u64,
    /// File bytes scanned, header included.
    pub scanned_bytes: u64,
}

struct SegState {
    file: File,
    /// `key → (payload offset, payload length)` for the last intact
    /// record of each key.
    index: HashMap<u64, (u64, u32)>,
    /// Append position == current file length.
    tail: u64,
    /// Payload+framing bytes owned by superseded records.
    dead_bytes: u64,
}

/// A single-file append-only store: `key → latest payload`.
///
/// All operations take `&self`; the file and its index share one lock,
/// so appends are atomic with respect to reads.
pub struct SegmentStore {
    state: Mutex<SegState>,
    path: PathBuf,
    config: SegmentConfig,
    recovery: RecoveryReport,
    compactions: m7_trace::Counter,
}

fn record_bytes(payload_len: u64) -> u64 {
    RECORD_HEADER_BYTES + payload_len + RECORD_TRAILER_BYTES
}

/// The `(len, key)` header at the start of `rec` (at least
/// [`RECORD_HEADER_BYTES`] long).
fn record_header(rec: &[u8]) -> (u32, u64) {
    let len = u32::from_le_bytes(rec[0..4].try_into().unwrap());
    let key = u64::from_le_bytes(rec[4..12].try_into().unwrap());
    (len, key)
}

impl SegmentStore {
    /// Opens (or creates) `dir/segment.m7seg`, replaying every intact
    /// record and truncating the torn tail.
    ///
    /// # Errors
    ///
    /// I/O errors, or `InvalidData` if the file exists but does not
    /// start with the segment magic (it is some other file — refuse to
    /// clobber it).
    pub fn open(config: SegmentConfig) -> io::Result<Self> {
        let _span = RECOVERY_SPAN.enter();
        std::fs::create_dir_all(&config.dir)?;
        let path = config.dir.join(SEGMENT_FILE);
        // Never truncate here: recovery below decides what survives.
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;

        let mut raw = Vec::new();
        file.read_to_end(&mut raw)?;
        let mut recovery = RecoveryReport { scanned_bytes: raw.len() as u64, ..Default::default() };

        let mut index: HashMap<u64, (u64, u32)> = HashMap::new();
        let mut dead_bytes = 0u64;
        let good_end = if raw.is_empty() {
            file.write_all_at(&FILE_HEADER, 0)?;
            FILE_HEADER.len() as u64
        } else if raw.len() < FILE_HEADER.len() && raw == FILE_HEADER[..raw.len()] {
            // A crash tore the header itself: nothing was ever acked, so
            // rewrite it and start empty.
            recovery.torn_bytes = raw.len() as u64;
            file.set_len(0)?;
            file.write_all_at(&FILE_HEADER, 0)?;
            FILE_HEADER.len() as u64
        } else if raw.len() < FILE_HEADER.len() || raw[..5] != FILE_HEADER[..5] {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} is not an m7 segment file", path.display()),
            ));
        } else if raw[5] != FILE_HEADER[5] {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("segment layout version {} is not supported", raw[5]),
            ));
        } else {
            // Validate: bounds and CRC of every record up to the first
            // bad one, which fixes the intact prefix and its size.
            let mut end = FILE_HEADER.len();
            while let Some(next) = Self::scan_record(&raw, end) {
                recovery.records += 1;
                end = next;
            }
            // Index: one allocation, then a plain walk of the prefix
            // (every record in it is already known to be intact).
            index.reserve(recovery.records);
            let mut pos = FILE_HEADER.len();
            while pos < end {
                let (len, key) = record_header(&raw[pos..]);
                let payload_off = (pos as u64) + RECORD_HEADER_BYTES;
                if let Some((_, old_len)) = index.insert(key, (payload_off, len)) {
                    dead_bytes += record_bytes(u64::from(old_len));
                }
                pos += record_bytes(u64::from(len)) as usize;
            }
            recovery.torn_bytes = (raw.len() - end) as u64;
            end as u64
        };
        recovery.live_entries = index.len();
        if recovery.torn_bytes > 0 {
            file.set_len(good_end)?;
        }

        G_RECOVERED.add(recovery.records as u64);
        G_TORN.add(recovery.torn_bytes);

        Ok(Self {
            state: Mutex::new(SegState { file, index, tail: good_end, dead_bytes }),
            path,
            config,
            recovery,
            compactions: m7_trace::Counter::new(),
        })
    }

    /// Validates the record at `pos`; returns the next record's offset,
    /// or `None` where the intact prefix ends.
    fn scan_record(raw: &[u8], pos: usize) -> Option<usize> {
        let (len, _) = record_header(raw.get(pos..pos + RECORD_HEADER_BYTES as usize)?);
        if len as usize > MAX_RECORD_PAYLOAD {
            return None;
        }
        let crc_off = pos + RECORD_HEADER_BYTES as usize + len as usize;
        let stored_crc = u32::from_le_bytes(raw.get(crc_off..crc_off + 4)?.try_into().unwrap());
        if crc32(&raw[pos..crc_off]) != stored_crc {
            return None;
        }
        Some(crc_off + 4)
    }

    /// What [`SegmentStore::open`] replayed and repaired.
    #[must_use]
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// Appends `key → payload`. The entry is acknowledged — and will
    /// survive reopen — once this returns.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for payloads over 1 MiB;
    /// otherwise the underlying I/O error (the in-memory index is not
    /// updated on failure, so a failed append is invisible).
    pub fn append(&self, key: u64, payload: &[u8]) -> io::Result<()> {
        if payload.len() > MAX_RECORD_PAYLOAD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("payload of {} bytes exceeds the record bound", payload.len()),
            ));
        }
        let mut rec = Vec::with_capacity(
            (RECORD_HEADER_BYTES + RECORD_TRAILER_BYTES) as usize + payload.len(),
        );
        rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        rec.extend_from_slice(&key.to_le_bytes());
        rec.extend_from_slice(payload);
        let crc = crc32(&rec);
        rec.extend_from_slice(&crc.to_le_bytes());

        let mut s = self.state.lock().expect("segment state poisoned");
        s.file.write_all_at(&rec, s.tail)?;
        if self.config.fsync_each_append {
            s.file.sync_data()?;
        }
        let payload_off = s.tail + RECORD_HEADER_BYTES;
        if let Some((_, old_len)) = s.index.insert(key, (payload_off, payload.len() as u32)) {
            s.dead_bytes += record_bytes(u64::from(old_len));
        }
        s.tail += rec.len() as u64;
        drop(s);
        self.maybe_compact().map(|_| ())
    }

    /// Reads the latest payload for `key`, re-verifying its CRC.
    ///
    /// # Errors
    ///
    /// The underlying I/O error; a CRC mismatch on read comes back as
    /// `InvalidData` (the record is never served corrupt).
    pub fn get(&self, key: u64) -> io::Result<Option<Vec<u8>>> {
        let s = self.state.lock().expect("segment state poisoned");
        let Some(&(payload_off, len)) = s.index.get(&key) else {
            return Ok(None);
        };
        let total = record_bytes(u64::from(len)) as usize;
        let mut rec = vec![0u8; total];
        s.file.read_exact_at(&mut rec, payload_off - RECORD_HEADER_BYTES)?;
        drop(s);
        let crc_off = total - RECORD_TRAILER_BYTES as usize;
        let stored = u32::from_le_bytes(rec[crc_off..].try_into().unwrap());
        if crc32(&rec[..crc_off]) != stored {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "record failed CRC on read"));
        }
        Ok(Some(rec[RECORD_HEADER_BYTES as usize..crc_off].to_vec()))
    }

    /// Distinct live keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.lock().expect("segment state poisoned").index.len()
    }

    /// `true` when no key is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current file size in bytes.
    #[must_use]
    pub fn file_bytes(&self) -> u64 {
        self.state.lock().expect("segment state poisoned").tail
    }

    /// Compactions performed over this store's lifetime.
    #[must_use]
    pub(crate) fn compactions(&self) -> u64 {
        self.compactions.get()
    }

    /// Forces buffered appends to media (fsync).
    ///
    /// # Errors
    ///
    /// The underlying I/O error.
    pub fn sync(&self) -> io::Result<()> {
        self.state.lock().expect("segment state poisoned").file.sync_data()
    }

    /// Rewrites the file to live records only, if the dead-byte ratio
    /// warrants it. Returns `true` when a compaction ran.
    ///
    /// The new file is written beside the old one and atomically renamed
    /// over it, so a crash mid-compaction leaves either the old or the
    /// new file intact — never a mixture.
    ///
    /// # Errors
    ///
    /// The underlying I/O error; on failure the old file remains
    /// authoritative.
    pub(crate) fn maybe_compact(&self) -> io::Result<bool> {
        let mut s = self.state.lock().expect("segment state poisoned");
        if s.tail < self.config.compact_min_bytes {
            return Ok(false);
        }
        let dead_ratio = s.dead_bytes as f64 / s.tail.max(1) as f64;
        if dead_ratio < self.config.compact_dead_ratio {
            return Ok(false);
        }
        self.compact_locked(&mut s)?;
        G_COMPACTIONS.incr();
        self.compactions.incr();
        Ok(true)
    }

    /// Unconditional compaction (tests and explicit maintenance).
    ///
    /// # Errors
    ///
    /// The underlying I/O error.
    pub fn compact(&self) -> io::Result<()> {
        let mut s = self.state.lock().expect("segment state poisoned");
        self.compact_locked(&mut s)?;
        G_COMPACTIONS.incr();
        self.compactions.incr();
        Ok(())
    }

    fn compact_locked(&self, s: &mut SegState) -> io::Result<()> {
        // Stable order: ascending original offset, i.e. append order.
        let mut live: Vec<(u64, u64, u32)> =
            s.index.iter().map(|(&k, &(off, len))| (off, k, len)).collect();
        live.sort_unstable();

        let tmp_path = self.path.with_extension("compact");
        let mut tmp = File::create(&tmp_path)?;
        tmp.write_all(&FILE_HEADER)?;
        let mut new_index: HashMap<u64, (u64, u32)> = HashMap::with_capacity(live.len());
        let mut new_tail = FILE_HEADER.len() as u64;
        for (payload_off, key, len) in live {
            let mut payload = vec![0u8; len as usize];
            s.file.read_exact_at(&mut payload, payload_off)?;
            let mut rec = Vec::with_capacity(record_bytes(u64::from(len)) as usize);
            rec.extend_from_slice(&len.to_le_bytes());
            rec.extend_from_slice(&key.to_le_bytes());
            rec.extend_from_slice(&payload);
            let crc = crc32(&rec);
            rec.extend_from_slice(&crc.to_le_bytes());
            tmp.write_all(&rec)?;
            new_index.insert(key, (new_tail + RECORD_HEADER_BYTES, len));
            new_tail += rec.len() as u64;
        }
        tmp.sync_data()?;
        drop(tmp);
        std::fs::rename(&tmp_path, &self.path)?;

        s.file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        s.index = new_index;
        s.tail = new_tail;
        s.dead_bytes = 0;
        Ok(())
    }
}

impl core::fmt::Debug for SegmentStore {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SegmentStore")
            .field("path", &self.path)
            .field("live_entries", &self.len())
            .field("file_bytes", &self.file_bytes())
            .field("recovery", &self.recovery)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "m7seg-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The CRC-32 the store shipped with: one table lookup per byte.
    /// The oracle for the slice-by-8 [`crc32`].
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE reference vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414f_a339);
    }

    #[test]
    fn slice_by_8_crc32_equals_the_bytewise_reference() {
        use rand::{Rng, RngCore, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xc3c3);
        // Every length across the 8-byte word boundary and remainders.
        let mut short = [0u8; 64];
        rng.fill_bytes(&mut short);
        for len in 0..=64 {
            assert_eq!(crc32(&short[..len]), crc32_bytewise(&short[..len]), "length {len}");
        }
        for case in 0..256 {
            let len = rng.gen_range(0..=4096);
            let mut bytes = vec![0u8; len];
            rng.fill_bytes(&mut bytes);
            assert_eq!(crc32(&bytes), crc32_bytewise(&bytes), "case {case}, length {len}");
            // Unaligned sub-slices: start and end anywhere inside.
            let from = rng.gen_range(0..=len);
            let to = rng.gen_range(from..=len);
            let sub = &bytes[from..to];
            assert_eq!(crc32(sub), crc32_bytewise(sub), "case {case}, bytes {from}..{to}");
        }
    }

    #[test]
    fn codec_round_trips() {
        for v in [0.0f64, -0.0, 1.0 / 3.0, f64::MAX] {
            let mut b = Vec::new();
            v.encode(&mut b);
            assert_eq!(f64::decode(&b).unwrap().to_bits(), v.to_bits());
        }
        for r in [Ok(2.5f64), Err("bad tier".to_string())] {
            let mut b = Vec::new();
            r.encode(&mut b);
            assert_eq!(<Result<f64, String>>::decode(&b), Some(r));
        }
        assert_eq!(f64::decode(&[0; 7]), None);
        assert_eq!(<Result<f64, String>>::decode(&[]), None);
        assert_eq!(<Result<f64, String>>::decode(&[9, 0]), None);
    }

    #[test]
    fn append_get_reopen_round_trip() {
        let dir = temp_dir("roundtrip");
        {
            let store = SegmentStore::open(SegmentConfig::new(&dir)).unwrap();
            store.append(1, b"one").unwrap();
            store.append(2, b"two").unwrap();
            store.append(1, b"uno").unwrap(); // update: last record wins
            assert_eq!(store.get(1).unwrap().as_deref(), Some(&b"uno"[..]));
            assert_eq!(store.get(2).unwrap().as_deref(), Some(&b"two"[..]));
            assert_eq!(store.get(3).unwrap(), None);
            assert_eq!(store.len(), 2);
        }
        let store = SegmentStore::open(SegmentConfig::new(&dir)).unwrap();
        let rec = store.recovery();
        assert_eq!((rec.records, rec.live_entries, rec.torn_bytes), (3, 2, 0));
        assert_eq!(store.get(1).unwrap().as_deref(), Some(&b"uno"[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_earlier_records_survive() {
        let dir = temp_dir("torn");
        let path = dir.join(SEGMENT_FILE);
        let good_len = {
            let store = SegmentStore::open(SegmentConfig::new(&dir)).unwrap();
            store.append(10, b"alpha").unwrap();
            let keep = store.file_bytes();
            store.append(11, b"beta").unwrap();
            keep
        };
        // Crash: the second record is half-written.
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(good_len + 3).unwrap();
        drop(file);

        let store = SegmentStore::open(SegmentConfig::new(&dir)).unwrap();
        let rec = store.recovery();
        assert_eq!((rec.records, rec.live_entries, rec.torn_bytes), (1, 1, 3));
        assert_eq!(store.get(10).unwrap().as_deref(), Some(&b"alpha"[..]));
        assert_eq!(store.get(11).unwrap(), None);
        assert_eq!(store.file_bytes(), good_len, "tail physically truncated");
        // Appending after recovery works and survives another reopen.
        store.append(12, b"gamma").unwrap();
        drop(store);
        let store = SegmentStore::open(SegmentConfig::new(&dir)).unwrap();
        assert_eq!(store.get(12).unwrap().as_deref(), Some(&b"gamma"[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_byte_stops_replay_at_the_damage() {
        let dir = temp_dir("corrupt");
        let path = dir.join(SEGMENT_FILE);
        {
            let store = SegmentStore::open(SegmentConfig::new(&dir)).unwrap();
            store.append(1, b"first").unwrap();
            store.append(2, b"second").unwrap();
        }
        // Flip one payload byte of the second record.
        let mut raw = std::fs::read(&path).unwrap();
        let n = raw.len();
        raw[n - 6] ^= 0x40;
        std::fs::write(&path, &raw).unwrap();

        let store = SegmentStore::open(SegmentConfig::new(&dir)).unwrap();
        assert_eq!(store.recovery().records, 1, "replay stops at the damaged record");
        assert!(store.recovery().torn_bytes > 0);
        assert_eq!(store.get(1).unwrap().as_deref(), Some(&b"first"[..]));
        assert_eq!(store.get(2).unwrap(), None, "the corrupt record is never served");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_files_are_refused_not_clobbered() {
        let dir = temp_dir("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(SEGMENT_FILE), b"definitely not a segment").unwrap();
        let err = SegmentStore::open(SegmentConfig::new(&dir)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_drops_dead_bytes_and_preserves_live_values() {
        let dir = temp_dir("compact");
        let store = SegmentStore::open(SegmentConfig::new(&dir)).unwrap();
        for round in 0..20u8 {
            for key in 0..8u64 {
                store.append(key, &[round; 16]).unwrap();
            }
        }
        let before = store.file_bytes();
        store.compact().unwrap();
        assert!(store.file_bytes() < before / 4, "{} -> {}", before, store.file_bytes());
        assert_eq!(store.len(), 8);
        for key in 0..8u64 {
            assert_eq!(store.get(key).unwrap().as_deref(), Some(&[19u8; 16][..]));
        }
        // Compacted file replays cleanly.
        drop(store);
        let store = SegmentStore::open(SegmentConfig::new(&dir)).unwrap();
        assert_eq!(store.recovery().live_entries, 8);
        assert_eq!(store.recovery().torn_bytes, 0);
        for key in 0..8u64 {
            assert_eq!(store.get(key).unwrap().as_deref(), Some(&[19u8; 16][..]));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn automatic_compaction_trips_on_dead_ratio() {
        let dir = temp_dir("auto-compact");
        let mut config = SegmentConfig::new(&dir);
        config.compact_min_bytes = 256;
        config.compact_dead_ratio = 0.5;
        let store = SegmentStore::open(config).unwrap();
        for round in 0..64u8 {
            store.append(1, &[round; 32]).unwrap();
        }
        assert!(store.compactions() > 0, "overwrites of one key must trip compaction");
        assert_eq!(store.get(1).unwrap().as_deref(), Some(&[63u8; 32][..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_payload_is_rejected() {
        let dir = temp_dir("oversize");
        let store = SegmentStore::open(SegmentConfig::new(&dir)).unwrap();
        let big = vec![0u8; MAX_RECORD_PAYLOAD + 1];
        assert_eq!(store.append(1, &big).unwrap_err().kind(), io::ErrorKind::InvalidInput);
        assert_eq!(store.len(), 0, "failed append leaves no trace");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
