//! The tiered content-addressed cache: hot in-memory shards backed by
//! the crash-safe on-disk [`SegmentStore`].
//!
//! Lookup order is hot tier → disk tier → miss; a disk hit is promoted
//! into the hot tier so repeat traffic stays in memory. Inserts land in
//! both tiers (write-through), so every acknowledged result survives a
//! process restart — the warm-start property the DSE and falsification
//! campaigns lean on.
//!
//! Because every cached value is a pure function of its key, the tier
//! split is invisible to results: a computation through a
//! [`TieredCache`] returns bits identical to an uncached run, whatever
//! mixture of hot hits, disk hits, evictions, and recoveries happened
//! along the way. The [`ResultStore`] trait is that contract as an
//! interface — the memoized search paths accept any implementation.

use crate::cache::EvalCache;
use crate::key::CacheKey;
use crate::segment::{DiskCodec, RecoveryReport, SegmentConfig, SegmentStore};
use m7_trace::{Counter, MetricClass, TraceCounter};
use std::io;
use std::path::PathBuf;

// Tier-level observability (no-ops until `m7_trace::enable()`). The
// hot/disk split depends on eviction and promotion order, so it is
// diagnostic; recovery numbers are a pure function of the file.
static G_HOT_HITS: TraceCounter = TraceCounter::new("serve.tier.hot_hits", MetricClass::Diagnostic);
static G_DISK_HITS: TraceCounter =
    TraceCounter::new("serve.tier.disk_hits", MetricClass::Diagnostic);
static G_MISSES: TraceCounter = TraceCounter::new("serve.tier.misses", MetricClass::Diagnostic);
static G_DISK_ERRORS: TraceCounter =
    TraceCounter::new("serve.tier.disk_errors", MetricClass::Diagnostic);

/// The storage contract shared by [`EvalCache`] and [`TieredCache`]:
/// a thread-safe map from content-addressed keys to pure-function
/// results. `get_or_insert_with` must run `compute` outside any lock it
/// holds for other keys.
pub trait ResultStore<V: Clone>: Sync {
    /// Looks up `key`, counting a hit or a miss.
    fn get(&self, key: CacheKey) -> Option<V>;

    /// Stores `value` under `key`.
    fn insert(&self, key: CacheKey, value: V);

    /// Lookups that found a value, so callers can report evaluations
    /// saved.
    fn hits(&self) -> u64;

    /// The cached value for `key`, or `compute`'s result after storing
    /// it. The flag is `true` on a hit.
    fn get_or_insert_with(&self, key: CacheKey, compute: impl FnOnce() -> V) -> (V, bool) {
        if let Some(v) = self.get(key) {
            return (v, true);
        }
        let v = compute();
        self.insert(key, v.clone());
        (v, false)
    }
}

impl<V: Clone + Send + Sync> ResultStore<V> for EvalCache<V> {
    fn get(&self, key: CacheKey) -> Option<V> {
        EvalCache::get(self, key)
    }

    fn insert(&self, key: CacheKey, value: V) {
        EvalCache::insert(self, key, value);
    }

    fn hits(&self) -> u64 {
        self.stats().hits
    }

    fn get_or_insert_with(&self, key: CacheKey, compute: impl FnOnce() -> V) -> (V, bool) {
        EvalCache::get_or_insert_with(self, key, compute)
    }
}

/// Exact tier telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierStats {
    /// Lookups answered by the in-memory tier.
    pub hot_hits: u64,
    /// Lookups answered by the disk tier (and promoted).
    pub disk_hits: u64,
    /// Lookups answered by neither tier.
    pub misses: u64,
    /// Values written through both tiers.
    pub insertions: u64,
    /// Disk reads/writes that failed and were degraded to misses.
    pub disk_errors: u64,
    /// Entries currently in the hot tier.
    pub hot_entries: usize,
    /// Live entries in the disk tier (0 when the disk tier is off).
    pub disk_entries: usize,
    /// Compactions the disk tier has run.
    pub compactions: u64,
}

impl TierStats {
    /// All lookups answered from some tier.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hot_hits + self.disk_hits
    }
}

impl core::fmt::Display for TierStats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "hot {} / disk {} / misses {} / hot entries {} / disk entries {}",
            self.hot_hits, self.disk_hits, self.misses, self.hot_entries, self.disk_entries
        )
    }
}

/// Where a [`TieredCache`] keeps its cold tier.
#[derive(Debug, Clone, PartialEq)]
pub enum TierConfig {
    /// Hot tier only — behaves exactly like a plain [`EvalCache`].
    MemoryOnly,
    /// Hot tier backed by an on-disk segment store.
    Disk(SegmentConfig),
}

impl TierConfig {
    /// A disk-backed tier with [`SegmentConfig`] defaults under `dir`.
    #[must_use]
    pub fn disk(dir: impl Into<PathBuf>) -> Self {
        Self::Disk(SegmentConfig::new(dir))
    }
}

/// Hot sharded LRU over a crash-safe append-only disk tier.
///
/// # Examples
///
/// ```
/// use m7_serve::{CacheKey, ResultStore, TieredCache};
///
/// let cache: TieredCache<f64> = TieredCache::memory_only(128);
/// cache.insert(CacheKey(42), 3.25);
/// assert_eq!(cache.get(CacheKey(42)), Some(3.25));
/// assert_eq!(cache.stats().hot_hits, 1);
/// ```
pub struct TieredCache<V> {
    hot: EvalCache<V>,
    disk: Option<SegmentStore>,
    hot_hits: Counter,
    disk_hits: Counter,
    misses: Counter,
    insertions: Counter,
    disk_errors: Counter,
}

impl<V: Clone + DiskCodec> TieredCache<V> {
    /// Opens a tiered cache with a hot bound of `hot_capacity` entries.
    ///
    /// With a disk config, the segment file is recovered first (torn
    /// tail truncated, intact records indexed); recovered entries are
    /// served from disk on demand, not bulk-loaded into the hot tier.
    ///
    /// # Errors
    ///
    /// Disk-tier open/recovery errors. `MemoryOnly` cannot fail.
    ///
    /// # Panics
    ///
    /// Panics if `hot_capacity` is zero.
    pub fn open(hot_capacity: usize, config: TierConfig) -> io::Result<Self> {
        let disk = match config {
            TierConfig::MemoryOnly => None,
            TierConfig::Disk(seg) => Some(SegmentStore::open(seg)?),
        };
        Ok(Self {
            hot: EvalCache::new(hot_capacity),
            disk,
            hot_hits: Counter::new(),
            disk_hits: Counter::new(),
            misses: Counter::new(),
            insertions: Counter::new(),
            disk_errors: Counter::new(),
        })
    }

    /// A hot-tier-only cache (never fails, no disk I/O).
    #[must_use]
    pub fn memory_only(hot_capacity: usize) -> Self {
        Self::open(hot_capacity, TierConfig::MemoryOnly).expect("memory-only open cannot fail")
    }

    /// The disk tier's recovery report, when a disk tier is configured.
    #[must_use]
    pub fn recovery(&self) -> Option<RecoveryReport> {
        self.disk.as_ref().map(SegmentStore::recovery)
    }

    /// Forces the disk tier to media (no-op without one).
    ///
    /// # Errors
    ///
    /// The underlying fsync error.
    pub fn sync(&self) -> io::Result<()> {
        match &self.disk {
            Some(disk) => disk.sync(),
            None => Ok(()),
        }
    }

    /// Exact tier counters plus current entry counts.
    #[must_use]
    pub fn stats(&self) -> TierStats {
        TierStats {
            hot_hits: self.hot_hits.get(),
            disk_hits: self.disk_hits.get(),
            misses: self.misses.get(),
            insertions: self.insertions.get(),
            disk_errors: self.disk_errors.get(),
            hot_entries: self.hot.len(),
            disk_entries: self.disk.as_ref().map_or(0, SegmentStore::len),
            compactions: self.disk.as_ref().map_or(0, SegmentStore::compactions),
        }
    }

    fn tier_get(&self, key: CacheKey) -> Option<V> {
        if let Some(v) = self.hot.get(key) {
            self.hot_hits.incr();
            G_HOT_HITS.incr();
            return Some(v);
        }
        if let Some(disk) = &self.disk {
            match disk.get(key.0) {
                Ok(Some(bytes)) => {
                    if let Some(v) = V::decode(&bytes) {
                        // Promote without re-appending: the record is
                        // already durable.
                        self.hot.insert(key, v.clone());
                        self.disk_hits.incr();
                        G_DISK_HITS.incr();
                        return Some(v);
                    }
                    self.disk_errors.incr();
                    G_DISK_ERRORS.incr();
                }
                Ok(None) => {}
                Err(_) => {
                    // Disk trouble degrades to a miss: the caller
                    // recomputes, correctness is unaffected.
                    self.disk_errors.incr();
                    G_DISK_ERRORS.incr();
                }
            }
        }
        self.misses.incr();
        G_MISSES.incr();
        None
    }

    fn tier_insert(&self, key: CacheKey, value: V) {
        self.insertions.incr();
        self.hot.insert(key, value.clone());
        if let Some(disk) = &self.disk {
            let mut payload = Vec::new();
            value.encode(&mut payload);
            if disk.append(key.0, &payload).is_err() {
                self.disk_errors.incr();
                G_DISK_ERRORS.incr();
            }
        }
    }
}

impl<V: Clone + Send + Sync + DiskCodec> ResultStore<V> for TieredCache<V> {
    fn get(&self, key: CacheKey) -> Option<V> {
        self.tier_get(key)
    }

    fn insert(&self, key: CacheKey, value: V) {
        self.tier_insert(key, value);
    }

    fn hits(&self) -> u64 {
        self.stats().hits()
    }
}

impl<V: Clone + DiskCodec> TieredCache<V> {
    /// Looks up `key` through both tiers; see [`ResultStore::get`].
    #[must_use]
    pub fn get(&self, key: CacheKey) -> Option<V> {
        self.tier_get(key)
    }

    /// Write-through insert; see [`ResultStore::insert`].
    pub fn insert(&self, key: CacheKey, value: V) {
        self.tier_insert(key, value);
    }
}

impl<V> core::fmt::Debug for TieredCache<V> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TieredCache").field("has_disk", &self.disk.is_some()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "m7tier-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(i: u64) -> CacheKey {
        CacheKey(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    #[test]
    fn memory_only_matches_plain_cache_semantics() {
        let cache: TieredCache<f64> = TieredCache::memory_only(8);
        assert_eq!(cache.get(key(1)), None);
        cache.insert(key(1), 2.5);
        assert_eq!(cache.get(key(1)), Some(2.5));
        let s = cache.stats();
        assert_eq!((s.hot_hits, s.disk_hits, s.misses, s.insertions), (1, 0, 1, 1));
    }

    #[test]
    fn disk_tier_survives_reopen_and_reports_warm_hits() {
        let dir = temp_dir("reopen");
        {
            let cache: TieredCache<f64> = TieredCache::open(64, TierConfig::disk(&dir)).unwrap();
            for i in 0..10 {
                cache.insert(key(i), i as f64 * 0.5);
            }
        }
        let cache: TieredCache<f64> = TieredCache::open(64, TierConfig::disk(&dir)).unwrap();
        let rec = cache.recovery().expect("disk tier present");
        assert_eq!((rec.live_entries, rec.torn_bytes), (10, 0));
        // Every get is a disk hit (hot tier is empty after restart)…
        for i in 0..10 {
            assert_eq!(cache.get(key(i)), Some(i as f64 * 0.5));
        }
        assert_eq!(cache.stats().disk_hits, 10);
        // …then a hot hit once promoted.
        for i in 0..10 {
            assert_eq!(cache.get(key(i)), Some(i as f64 * 0.5));
        }
        let s = cache.stats();
        assert_eq!((s.hot_hits, s.disk_hits, s.misses), (10, 10, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hot_eviction_falls_back_to_disk_not_recompute() {
        let dir = temp_dir("evict");
        let cache: TieredCache<f64> = TieredCache::open(4, TierConfig::disk(&dir)).unwrap();
        for i in 0..64u32 {
            cache.insert(key(u64::from(i)), f64::from(i));
        }
        assert!(cache.stats().hot_entries <= 4);
        // Everything is still servable — from disk.
        for i in 0..64u32 {
            assert_eq!(cache.get(key(u64::from(i))), Some(f64::from(i)), "key {i}");
        }
        let s = cache.stats();
        assert_eq!(s.misses, 0, "nothing is lost to eviction with a disk tier: {s}");
        assert!(s.disk_hits >= 60, "{s}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn error_values_round_trip_through_disk() {
        let dir = temp_dir("errors");
        {
            let cache: TieredCache<Result<f64, String>> =
                TieredCache::open(8, TierConfig::disk(&dir)).unwrap();
            cache.insert(key(1), Ok(1.5));
            cache.insert(key(2), Err("tier must be an integer".to_string()));
        }
        let cache: TieredCache<Result<f64, String>> =
            TieredCache::open(8, TierConfig::disk(&dir)).unwrap();
        assert_eq!(cache.get(key(1)), Some(Ok(1.5)));
        assert_eq!(cache.get(key(2)), Some(Err("tier must be an integer".to_string())));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn get_or_insert_with_computes_once_across_tiers() {
        let dir = temp_dir("goiw");
        let cache: TieredCache<f64> = TieredCache::open(2, TierConfig::disk(&dir)).unwrap();
        let (v, hit) = ResultStore::get_or_insert_with(&cache, key(9), || 81.0);
        assert_eq!((v, hit), (81.0, false));
        let (v, hit) = ResultStore::get_or_insert_with(&cache, key(9), || unreachable!());
        assert_eq!((v, hit), (81.0, true));
        assert_eq!(ResultStore::<f64>::hits(&cache), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_tiered_use_is_safe() {
        let dir = temp_dir("concurrent");
        let cache: TieredCache<f64> = TieredCache::open(16, TierConfig::disk(&dir)).unwrap();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..200 {
                        let k = key(t * 1000 + i);
                        cache.insert(k, (t * 1000 + i) as f64);
                        assert_eq!(cache.get(k), Some((t * 1000 + i) as f64));
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.insertions, 800);
        assert_eq!(s.misses, 0, "{s}");
        assert_eq!(s.disk_errors, 0, "{s}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
