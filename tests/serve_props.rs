//! Property tests for the serving layer: cache-key canonicalization,
//! the cache's hard capacity bound and exact telemetry, and the batched
//! memoized evaluator's thread-count and warming-order invariance.

use std::collections::HashMap;

use magseven::par::ParConfig;
use magseven::serve::{
    evaluate_batch_memo, namespace, CacheKey, EvalCache, EvalRequest, KeyHasher,
};
use proptest::prelude::*;

/// Spreads a small integer key over the full 64-bit space, so shard
/// selection (high bits) behaves as it does for real content hashes.
fn key_of(raw: u64) -> CacheKey {
    let mut h = KeyHasher::new();
    h.write_u64(raw);
    h.finish()
}

proptest! {
    /// Structurally equal requests always produce the same key — the
    /// canonicalization is a pure function of field content, not of
    /// allocation or construction order.
    #[test]
    fn equal_requests_hash_equal(
        seed in 0u64..1 << 48,
        ns in 0u64..1 << 48,
        values in prop::collection::vec(-1e6..1e6f64, 0..8),
    ) {
        let a = EvalRequest::new("uav-mission", values.clone(), seed);
        let b = EvalRequest::new("uav-mission", values, seed);
        prop_assert_eq!(a.cache_key(ns), b.cache_key(ns));
    }

    /// Perturbing any single field — one value, the workload, the seed,
    /// the namespace, or the value-vector length — changes the key.
    #[test]
    fn perturbing_any_single_field_changes_the_key(
        seed in 0u64..1 << 48,
        ns in 0u64..1 << 48,
        values in prop::collection::vec(-1e6..1e6f64, 1..8),
        which in 0usize..16,
    ) {
        let base = EvalRequest::new("uav-mission", values.clone(), seed);
        let key = base.cache_key(ns);

        let mut bumped = values.clone();
        let i = which % bumped.len();
        bumped[i] += 1.0;
        prop_assert_ne!(EvalRequest::new("uav-mission", bumped, seed).cache_key(ns), key);

        let mut extended = values.clone();
        extended.push(0.0);
        prop_assert_ne!(EvalRequest::new("uav-mission", extended, seed).cache_key(ns), key);

        prop_assert_ne!(
            EvalRequest::new("uav-missionx", values.clone(), seed).cache_key(ns),
            key
        );
        prop_assert_ne!(
            EvalRequest::new("uav-mission", values.clone(), seed ^ 1).cache_key(ns),
            key
        );
        prop_assert_ne!(base.cache_key(ns ^ 1), key);
    }

    /// The capacity bound is hard: through any interleaving of inserts
    /// and lookups over a key universe far larger than the cache, `len`
    /// never exceeds `capacity`, and the telemetry stays self-consistent.
    #[test]
    fn cache_never_exceeds_capacity(
        capacity in 1usize..48,
        ops in prop::collection::vec((0u64..4096, prop::bool::ANY), 1..300),
    ) {
        let cache: EvalCache<f64> = EvalCache::new(capacity);
        for &(raw, is_insert) in &ops {
            if is_insert {
                cache.insert(key_of(raw), raw as f64);
            } else {
                let _ = cache.get(key_of(raw));
            }
            prop_assert!(cache.len() <= capacity, "len {} > capacity {capacity}", cache.len());
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.entries, cache.len());
        prop_assert_eq!(stats.insertions, ops.iter().filter(|(_, ins)| *ins).count() as u64);
        prop_assert!(stats.evictions <= stats.insertions);
    }

    /// When no shard can evict (capacity comfortably above the distinct
    /// key count), hit and miss counters match a plain `HashMap` model
    /// exactly, op for op.
    #[test]
    fn counters_match_a_map_model_when_nothing_evicts(
        raws in prop::collection::vec(0u64..40, 1..200),
    ) {
        // 16 shards over capacity 1024 leaves >= 64 slots per shard for
        // at most 40 distinct keys: eviction is impossible even if every
        // key landed in one shard.
        let cache: EvalCache<f64> = EvalCache::new(1024);
        let mut model: HashMap<u64, f64> = HashMap::new();
        let mut hits = 0u64;
        let mut misses = 0u64;
        for &raw in &raws {
            let already = model.contains_key(&raw);
            let (value, was_hit) = cache.get_or_insert_with(key_of(raw), || raw as f64 * 0.5);
            let modeled = *model.entry(raw).or_insert(raw as f64 * 0.5);
            prop_assert_eq!(value.to_bits(), modeled.to_bits());
            prop_assert_eq!(was_hit, already, "hit iff the model already held the key");
            if was_hit {
                hits += 1;
            } else {
                misses += 1;
            }
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.hits, hits);
        prop_assert_eq!(stats.misses, misses);
        prop_assert_eq!(stats.evictions, 0);
        prop_assert_eq!(stats.entries, model.len());
        prop_assert_eq!(stats.misses, model.len() as u64, "each distinct key misses exactly once");
    }

    /// The memoized batch evaluator returns bit-identical results at any
    /// thread count and from any cache warming state — caching changes
    /// how much work runs, never what comes back.
    #[test]
    fn memoized_batches_are_thread_and_warming_invariant(
        seed in 0u64..1 << 48,
        raws in prop::collection::vec(0u64..24, 1..40),
        warm in prop::collection::vec(0u64..24, 0..12),
    ) {
        let ns = namespace("prop-batch", seed);
        let requests: Vec<EvalRequest> = raws
            .iter()
            .map(|&r| EvalRequest::new("w", vec![r as f64, (r * r) as f64 * 0.25], seed))
            .collect();
        let eval = |r: &EvalRequest| r.values.iter().sum::<f64>() * 1.0625 + seed as f64;
        let expected: Vec<f64> = requests.iter().map(eval).collect();

        for threads in [1usize, 4] {
            // A cold cache, and one pre-warmed with an arbitrary subset.
            for warmed in [false, true] {
                let cache: EvalCache<f64> = EvalCache::new(256);
                if warmed {
                    for &r in &warm {
                        let req =
                            EvalRequest::new("w", vec![r as f64, (r * r) as f64 * 0.25], seed);
                        cache.insert(req.cache_key(ns), eval(&req));
                    }
                }
                let (results, outcome) = evaluate_batch_memo(
                    &cache,
                    ParConfig::with_threads(threads),
                    &requests,
                    |r| r.cache_key(ns),
                    eval,
                );
                for (got, want) in results.iter().zip(&expected) {
                    prop_assert_eq!(got.to_bits(), want.to_bits());
                }
                prop_assert_eq!(
                    outcome.computed + outcome.saved(),
                    requests.len(),
                    "every slot is either computed or saved"
                );
            }
        }
    }
}
