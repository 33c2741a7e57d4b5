//! A sharded, bounded, memoizing result store addressed by
//! [`crate::CacheKey`].
//!
//! The cache holds *pure-function results*: because every cached value is
//! a deterministic function of its key, eviction and cross-thread races
//! can only cost recomputation, never change a result — which is what
//! lets the memoized evaluation paths stay bit-identical to the uncached
//! ones at any thread count.
//!
//! Capacity is a hard bound: the store never holds more than `capacity`
//! entries, enforced per shard with LRU-ish eviction (each shard evicts
//! its least-recently-used entry when full). Hit / miss / eviction /
//! insertion counters are exact and lock-free to read.

use crate::key::CacheKey;
use m7_trace::{Counter, MetricClass, TraceCounter};
use std::collections::HashMap;
use std::sync::Mutex;

/// Number of independently locked shards (power of two).
const SHARDS: usize = 16;

// Global registry mirrors of the per-instance counters (no-ops until
// `m7_trace::enable()`). The batcher probes and inserts serially, so
// totals are a pure function of the submitted work — deterministic
// across thread counts.
static G_HITS: TraceCounter = TraceCounter::new("serve.cache.hits", MetricClass::Deterministic);
static G_MISSES: TraceCounter = TraceCounter::new("serve.cache.misses", MetricClass::Deterministic);
static G_EVICTIONS: TraceCounter =
    TraceCounter::new("serve.cache.evictions", MetricClass::Deterministic);
static G_INSERTIONS: TraceCounter =
    TraceCounter::new("serve.cache.insertions", MetricClass::Deterministic);

/// Exact cache telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found a value.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Values inserted (updates of an existing key count too).
    pub insertions: u64,
    /// Entries currently stored.
    pub entries: usize,
}

struct Entry<V> {
    value: V,
    last_used: u64,
}

struct Shard<V> {
    map: HashMap<u64, Entry<V>>,
    tick: u64,
    capacity: usize,
}

impl<V: Clone> Shard<V> {
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn get(&mut self, key: u64) -> Option<V> {
        let tick = self.touch();
        let entry = self.map.get_mut(&key)?;
        entry.last_used = tick;
        Some(entry.value.clone())
    }

    /// Inserts, evicting the least-recently-used entry if the shard is
    /// full. Returns `true` when an eviction happened.
    fn insert(&mut self, key: u64, value: V) -> bool {
        let tick = self.touch();
        if let Some(entry) = self.map.get_mut(&key) {
            entry.value = value;
            entry.last_used = tick;
            return false;
        }
        let mut evicted = false;
        if self.map.len() >= self.capacity {
            if let Some(&oldest) = self.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k)
            {
                self.map.remove(&oldest);
                evicted = true;
            }
        }
        self.map.insert(key, Entry { value, last_used: tick });
        evicted
    }
}

/// A thread-safe, bounded, content-addressed result cache.
///
/// # Examples
///
/// ```
/// use m7_serve::{CacheKey, EvalCache};
///
/// let cache: EvalCache<f64> = EvalCache::new(128);
/// let key = CacheKey(42);
/// assert_eq!(cache.get(key), None);
/// cache.insert(key, 3.25);
/// assert_eq!(cache.get(key), Some(3.25));
/// let stats = cache.stats();
/// assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
/// ```
pub struct EvalCache<V> {
    shards: Vec<Mutex<Shard<V>>>,
    capacity: usize,
    // Per-instance telemetry lives on m7-trace's always-on counter type
    // (exact, lock-free); every bump is also mirrored into the global
    // trace registry under serve.cache.* when tracing is enabled.
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    insertions: Counter,
}

impl<V: Clone> EvalCache<V> {
    /// Creates a cache bounded to at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be at least 1");
        let nshards = SHARDS.min(capacity);
        // Distribute the bound exactly: sum of shard capacities == capacity.
        let shards = (0..nshards)
            .map(|i| {
                let cap = capacity / nshards + usize::from(i < capacity % nshards);
                Mutex::new(Shard { map: HashMap::new(), tick: 0, capacity: cap })
            })
            .collect();
        Self {
            shards,
            capacity,
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
            insertions: Counter::new(),
        }
    }

    fn shard(&self, key: CacheKey) -> &Mutex<Shard<V>> {
        // High bits pick the shard; low bits index the map, so the two
        // uses of the key are decorrelated.
        let idx = (key.0 >> 48) as usize % self.shards.len();
        &self.shards[idx]
    }

    /// Looks up `key`, counting a hit or a miss.
    #[must_use]
    pub fn get(&self, key: CacheKey) -> Option<V> {
        let found = self.shard(key).lock().expect("cache shard poisoned").get(key.0);
        match found {
            Some(v) => {
                self.hits.incr();
                G_HITS.incr();
                Some(v)
            }
            None => {
                self.misses.incr();
                G_MISSES.incr();
                None
            }
        }
    }

    /// Stores `value` under `key`, evicting the shard's least-recently
    /// used entry if the bound requires it.
    pub fn insert(&self, key: CacheKey, value: V) {
        let evicted = self.shard(key).lock().expect("cache shard poisoned").insert(key.0, value);
        self.insertions.incr();
        G_INSERTIONS.incr();
        if evicted {
            self.evictions.incr();
            G_EVICTIONS.incr();
        }
    }

    /// Returns the cached value for `key`, or computes, stores, and
    /// returns it. The second element is `true` on a hit.
    ///
    /// `compute` runs outside the shard lock, so a slow evaluation never
    /// blocks other shards — at worst two threads race to fill the same
    /// key with the identical pure-function result.
    pub fn get_or_insert_with(&self, key: CacheKey, compute: impl FnOnce() -> V) -> (V, bool) {
        if let Some(v) = self.get(key) {
            return (v, true);
        }
        let v = compute();
        self.insert(key, v.clone());
        (v, false)
    }

    /// Current number of stored entries (always `<= capacity`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache shard poisoned").map.len()).sum()
    }

    /// `true` when nothing is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured hard bound on stored entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Exact counters plus the current entry count.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            insertions: self.insertions.get(),
            entries: self.len(),
        }
    }

    /// Drops every entry; counters are preserved.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("cache shard poisoned").map.clear();
        }
    }
}

impl<V: Clone> core::fmt::Debug for EvalCache<V> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EvalCache")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> CacheKey {
        // Spread keys across shards like real FNV output would.
        CacheKey(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    #[test]
    fn get_insert_roundtrip_and_exact_counters() {
        let cache: EvalCache<f64> = EvalCache::new(64);
        assert_eq!(cache.get(key(1)), None);
        cache.insert(key(1), 1.5);
        assert_eq!(cache.get(key(1)), Some(1.5));
        assert_eq!(cache.get(key(2)), None);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.entries), (1, 2, 1, 1));
    }

    #[test]
    fn capacity_is_a_hard_bound() {
        let cache: EvalCache<u32> = EvalCache::new(10);
        for i in 0..1000 {
            cache.insert(key(i), i as u32);
            assert!(cache.len() <= 10, "len {} exceeded capacity after insert {i}", cache.len());
        }
        assert!(cache.stats().evictions >= 990);
    }

    #[test]
    fn lru_prefers_recently_used_entries() {
        // Single-shard cache so recency is globally ordered.
        let cache: EvalCache<u32> = EvalCache::new(2);
        assert_eq!(cache.shards.len(), 2.min(SHARDS));
        let cache: EvalCache<u32> = EvalCache::new(1);
        cache.insert(CacheKey(1), 10);
        cache.insert(CacheKey(2), 20);
        assert_eq!(cache.get(CacheKey(1)), None, "older entry evicted");
        assert_eq!(cache.get(CacheKey(2)), Some(20));
    }

    #[test]
    fn update_of_existing_key_does_not_evict() {
        let cache: EvalCache<u32> = EvalCache::new(1);
        cache.insert(CacheKey(7), 1);
        cache.insert(CacheKey(7), 2);
        assert_eq!(cache.get(CacheKey(7)), Some(2));
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn get_or_insert_with_reports_hits() {
        let cache: EvalCache<u64> = EvalCache::new(8);
        let (v, hit) = cache.get_or_insert_with(key(3), || 42);
        assert_eq!((v, hit), (42, false));
        let (v, hit) = cache.get_or_insert_with(key(3), || unreachable!("must be cached"));
        assert_eq!((v, hit), (42, true));
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache: EvalCache<u8> = EvalCache::new(8);
        cache.insert(key(1), 1);
        let _ = cache.get(key(1));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_is_rejected() {
        let _ = EvalCache::<f64>::new(0);
    }

    #[test]
    fn concurrent_use_is_safe_and_bounded() {
        let cache: EvalCache<u64> = EvalCache::new(32);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..500 {
                        let k = key(t * 1000 + i);
                        cache.insert(k, i);
                        let _ = cache.get(k);
                    }
                });
            }
        });
        assert!(cache.len() <= 32);
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 2000);
        assert_eq!(s.insertions, 2000);
    }
}
