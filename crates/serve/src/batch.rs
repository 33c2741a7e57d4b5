//! The request batcher: coalesce duplicate in-flight requests, consult
//! the cache, and dispatch only the unique misses — in one batch — over
//! the deterministic [`m7_par`] pool.
//!
//! This is the same dedup → batch → dispatch → cache shape as an
//! inference-serving stack, applied to objective evaluations. Because
//! the evaluation function is pure, the returned vector is **bit
//! identical** to `items.iter().map(eval).collect()` for any thread
//! count, any cache contents, and any eviction history — caching and
//! coalescing change only how much work runs, never what is returned.

use crate::key::CacheKey;
use crate::tier::ResultStore;
use m7_par::ParConfig;
use m7_trace::{MetricClass, SpanSite, TraceCounter, TraceHistogram};
use std::collections::HashMap;

// Batch-lifecycle observability (no-ops until `m7_trace::enable()`).
// Batch sizes, unique-work counts, and hit/coalesce/compute totals are
// decided in the serial probe phase, so they are deterministic; the
// hit/miss latency split is host timing, hence `sched.` / diagnostic.
static BATCH_SPAN: SpanSite = SpanSite::new("serve.batch", MetricClass::Deterministic);
static BATCH_ITEMS: TraceHistogram =
    TraceHistogram::new("serve.batch.items", MetricClass::Deterministic);
static BATCH_UNIQUE: TraceHistogram =
    TraceHistogram::new("serve.batch.unique", MetricClass::Deterministic);
static HITS: TraceCounter = TraceCounter::new("serve.batch.hits", MetricClass::Deterministic);
static COALESCED: TraceCounter =
    TraceCounter::new("serve.batch.coalesced", MetricClass::Deterministic);
static COMPUTED: TraceCounter =
    TraceCounter::new("serve.batch.computed", MetricClass::Deterministic);
static HIT_PATH_NS: TraceHistogram =
    TraceHistogram::new("sched.serve.hit_path_ns", MetricClass::Diagnostic);
static MISS_PATH_NS: TraceHistogram =
    TraceHistogram::new("sched.serve.miss_path_ns", MetricClass::Diagnostic);

/// What one batched dispatch did, for telemetry and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchOutcome {
    /// Requests answered straight from the cache.
    pub cache_hits: usize,
    /// Duplicate in-flight requests folded onto another request's
    /// evaluation.
    pub coalesced: usize,
    /// Evaluations actually dispatched to the pool.
    pub computed: usize,
}

impl BatchOutcome {
    /// Evaluations avoided by the cache and by in-flight coalescing.
    #[must_use]
    pub fn saved(&self) -> usize {
        self.cache_hits + self.coalesced
    }
}

/// Evaluates `items` through the cache with duplicate coalescing.
///
/// Stages, in order:
///
/// 1. every item's [`CacheKey`] is computed serially (keys are cheap and
///    the order of `get` counters stays deterministic on the serial path),
/// 2. cache hits are answered immediately,
/// 3. the remaining misses are coalesced by key — each unique key is
///    evaluated once —
/// 4. and the unique work runs as one batch on the pool, after which
///    results are scattered back to every requesting slot and inserted
///    into the cache.
///
/// # Examples
///
/// ```
/// use m7_par::ParConfig;
/// use m7_serve::{evaluate_batch_memo, CacheKey, EvalCache, KeyHasher};
///
/// let cache: EvalCache<f64> = EvalCache::new(64);
/// let items = [2.0f64, 3.0, 2.0, 2.0];
/// let key_of = |x: &f64| {
///     let mut h = KeyHasher::new();
///     h.write_f64(*x);
///     h.finish()
/// };
/// let (out, stats) =
///     evaluate_batch_memo(&cache, ParConfig::serial(), &items, key_of, |x| x * x);
/// assert_eq!(out, vec![4.0, 9.0, 4.0, 4.0]);
/// assert_eq!(stats.computed, 2); // 2.0 evaluated once, 3.0 once
/// assert_eq!(stats.coalesced, 2); // the two duplicate 2.0 requests
/// ```
pub fn evaluate_batch_memo<S, T, V, K, E>(
    cache: &S,
    par: ParConfig,
    items: &[T],
    key_of: K,
    eval: E,
) -> (Vec<V>, BatchOutcome)
where
    S: ResultStore<V>,
    T: Sync,
    V: Clone + Send + Sync,
    K: Fn(&T) -> CacheKey,
    E: Fn(&T) -> V + Sync,
{
    let (flagged, outcome) = evaluate_batch_memo_flagged(cache, par, items, key_of, eval);
    (flagged.into_iter().map(|(v, _)| v).collect(), outcome)
}

/// [`evaluate_batch_memo`], additionally flagging each slot with whether
/// *its* evaluation was avoided (`true` for a cache hit or a request
/// coalesced onto another slot's evaluation; `false` for the slot that
/// actually computed).
pub(crate) fn evaluate_batch_memo_flagged<S, T, V, K, E>(
    cache: &S,
    par: ParConfig,
    items: &[T],
    key_of: K,
    eval: E,
) -> (Vec<(V, bool)>, BatchOutcome)
where
    S: ResultStore<V>,
    T: Sync,
    V: Clone + Send + Sync,
    K: Fn(&T) -> CacheKey,
    E: Fn(&T) -> V + Sync,
{
    let _span = BATCH_SPAN.enter();
    let tracing = m7_trace::enabled();
    let probe_start = tracing.then(std::time::Instant::now);
    let mut outcome = BatchOutcome::default();

    // Per-slot resolution: a hit value, or a position in the unique
    // miss list (`primary` marks the slot whose request is dispatched).
    enum Slot<V> {
        Hit(V),
        Miss { pos: usize, primary: bool },
    }
    let mut slots: Vec<Slot<V>> = Vec::with_capacity(items.len());
    let mut unique: Vec<usize> = Vec::new();
    let mut first_seen: HashMap<u64, usize> = HashMap::new();
    let mut unique_keys: Vec<CacheKey> = Vec::new();

    for (i, item) in items.iter().enumerate() {
        let key = key_of(item);
        if let Some(pos) = first_seen.get(&key.0) {
            // Coalesce onto the in-flight evaluation of the same key —
            // no second cache probe, no second dispatch.
            outcome.coalesced += 1;
            slots.push(Slot::Miss { pos: *pos, primary: false });
            continue;
        }
        match cache.get(key) {
            Some(v) => {
                outcome.cache_hits += 1;
                slots.push(Slot::Hit(v));
            }
            None => {
                let pos = unique.len();
                first_seen.insert(key.0, pos);
                unique.push(i);
                unique_keys.push(key);
                slots.push(Slot::Miss { pos, primary: true });
            }
        }
    }

    outcome.computed = unique.len();
    let compute_start = if let Some(t0) = probe_start {
        // The serial key/probe/coalesce pass above is the latency every
        // cache-answered request pays.
        HIT_PATH_NS.record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        Some(std::time::Instant::now())
    } else {
        None
    };
    let computed: Vec<V> = par.par_map(&unique, |&i| eval(&items[i]));
    for (key, value) in unique_keys.iter().zip(&computed) {
        cache.insert(*key, value.clone());
    }
    if tracing {
        if let Some(t0) = compute_start {
            if !unique.is_empty() {
                MISS_PATH_NS.record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
            }
        }
        BATCH_ITEMS.record(items.len() as u64);
        BATCH_UNIQUE.record(unique.len() as u64);
        HITS.add(outcome.cache_hits as u64);
        COALESCED.add(outcome.coalesced as u64);
        COMPUTED.add(outcome.computed as u64);
    }

    let results = slots
        .into_iter()
        .map(|slot| match slot {
            Slot::Hit(v) => (v, true),
            Slot::Miss { pos, primary } => (computed[pos].clone(), !primary),
        })
        .collect();
    (results, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::EvalCache;
    use crate::key::KeyHasher;

    fn key_of(x: &u64) -> CacheKey {
        let mut h = KeyHasher::new();
        h.write_u64(*x);
        h.finish()
    }

    #[test]
    fn matches_plain_map_for_any_cache_state_and_thread_count() {
        let items: Vec<u64> = (0..200).map(|i| i % 37).collect();
        let want: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        let cache: EvalCache<u64> = EvalCache::new(16); // small: forces evictions
        for threads in [1, 2, 8] {
            let (got, _) = evaluate_batch_memo(
                &cache,
                ParConfig::with_threads(threads),
                &items,
                key_of,
                |x| x * x + 1,
            );
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn duplicates_are_coalesced_not_recomputed() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = AtomicUsize::new(0);
        let cache: EvalCache<u64> = EvalCache::new(64);
        let items = [5u64, 5, 5, 6, 6, 7];
        let (got, outcome) =
            evaluate_batch_memo(&cache, ParConfig::with_threads(4), &items, key_of, |x| {
                calls.fetch_add(1, Ordering::Relaxed);
                x * 10
            });
        assert_eq!(got, vec![50, 50, 50, 60, 60, 70]);
        assert_eq!(calls.load(Ordering::Relaxed), 3, "one evaluation per unique key");
        assert_eq!(outcome, BatchOutcome { cache_hits: 0, coalesced: 3, computed: 3 });
        assert_eq!(outcome.saved(), 3);
    }

    #[test]
    fn second_batch_is_all_hits() {
        let cache: EvalCache<u64> = EvalCache::new(64);
        let items = [1u64, 2, 3];
        let _ = evaluate_batch_memo(&cache, ParConfig::serial(), &items, key_of, |x| x + 1);
        let (got, outcome) =
            evaluate_batch_memo(&cache, ParConfig::serial(), &items, key_of, |_| {
                unreachable!("warm cache must answer everything")
            });
        assert_eq!(got, vec![2, 3, 4]);
        assert_eq!(outcome, BatchOutcome { cache_hits: 3, coalesced: 0, computed: 0 });
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let cache: EvalCache<u64> = EvalCache::new(4);
        let (got, outcome) = evaluate_batch_memo(&cache, ParConfig::serial(), &[], key_of, |x| *x);
        assert!(got.is_empty());
        assert_eq!(outcome, BatchOutcome::default());
    }
}
