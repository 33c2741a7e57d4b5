//! Memoized objective evaluation for search strategies.
//!
//! [`EvalMemo`] binds an [`EvalCache`] to a key namespace (one objective
//! function at one root seed), so that [`Explorer`](crate::explorer::Explorer)
//! runs — and successive runs sharing a cache, like E9's five strategies
//! over the same mission objective — stop re-scoring duplicate designs.
//!
//! Because objectives are pure, memoization never changes a result: a
//! search returns a [`SearchResult`](crate::explorer::SearchResult)
//! bit-identical to one over a store that never hits (which evaluates
//! every design), it just invokes the objective fewer times.

use crate::space::PointIndex;
use m7_serve::{CacheKey, EvalCache, KeyHasher, ResultStore};

/// A cache handle scoped to one objective: keys mix the namespace with
/// the design's concrete values (bit-exact, via `to_bits`).
///
/// Generic over the backing store: the default is the in-memory
/// [`EvalCache`], and any [`ResultStore`] — notably the disk-backed
/// [`m7_serve::TieredCache`] — slots in unchanged, so a search can
/// reuse results across *processes*, not just across strategies.
///
/// # Examples
///
/// ```
/// use m7_dse::EvalMemo;
/// use m7_serve::{namespace, EvalCache};
///
/// let cache = EvalCache::new(1024);
/// let memo = EvalMemo::new(&cache, namespace("my-objective", 42));
/// assert_eq!(memo.key(&[1.0, 2.0]), memo.key(&[1.0, 2.0]));
/// assert_ne!(memo.key(&[1.0, 2.0]), memo.key(&[1.0, 2.5]));
/// ```
pub struct EvalMemo<'a, S: ResultStore<f64> = EvalCache<f64>> {
    cache: &'a S,
    namespace: u64,
}

// Derived Clone/Copy would require `S: Clone`; the handle is only a
// reference plus a u64, so implement them directly.
impl<S: ResultStore<f64>> Clone for EvalMemo<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<S: ResultStore<f64>> Copy for EvalMemo<'_, S> {}

impl<'a, S: ResultStore<f64>> EvalMemo<'a, S> {
    /// Binds `cache` under `namespace` (derive one with
    /// [`m7_serve::namespace`]).
    #[must_use]
    pub fn new(cache: &'a S, namespace: u64) -> Self {
        Self { cache, namespace }
    }

    /// The content-addressed key for a design's concrete values.
    #[must_use]
    pub fn key(&self, values: &[f64]) -> CacheKey {
        let mut h = KeyHasher::new();
        h.write_u64(self.namespace);
        h.write_f64_slice(values);
        h.finish()
    }

    /// The underlying store.
    #[must_use]
    pub fn cache(&self) -> &'a S {
        self.cache
    }

    /// Returns the memoized cost of `values`, computing and storing it on
    /// a miss.
    pub(crate) fn cost_or_insert_with(&self, values: &[f64], compute: impl FnOnce() -> f64) -> f64 {
        self.cache.get_or_insert_with(self.key(values), compute).0
    }
}

impl<S: ResultStore<f64>> core::fmt::Debug for EvalMemo<'_, S> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EvalMemo").field("namespace", &self.namespace).finish()
    }
}

/// Coalesces duplicate design points within one evaluation batch.
///
/// Returns `(unique, assign)` where `unique` holds the index of the
/// first occurrence of each distinct point (in first-seen order, so the
/// mapping is deterministic and insertion-order stable) and
/// `assign[i]` is the position in `unique` owning point `i`'s result.
/// NSGA-II's population scoring, which has no memo, uses this so a
/// generation never scores the same genotype twice; the memoized
/// explorers leave coalescing to [`m7_serve::evaluate_batch_memo`].
#[must_use]
pub(crate) fn dedup_indices(points: &[PointIndex]) -> (Vec<usize>, Vec<usize>) {
    let mut first: std::collections::HashMap<&[usize], usize> = std::collections::HashMap::new();
    let mut unique: Vec<usize> = Vec::new();
    let mut assign: Vec<usize> = Vec::with_capacity(points.len());
    for (i, p) in points.iter().enumerate() {
        let pos = match first.get(p.as_slice()) {
            Some(&pos) => pos,
            None => {
                let pos = unique.len();
                first.insert(p.as_slice(), pos);
                unique.push(i);
                pos
            }
        };
        assign.push(pos);
    }
    (unique, assign)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_maps_every_slot_to_its_first_occurrence() {
        let points: Vec<PointIndex> =
            vec![vec![0, 1], vec![2, 2], vec![0, 1], vec![3, 0], vec![2, 2], vec![0, 1]];
        let (unique, assign) = dedup_indices(&points);
        assert_eq!(unique, vec![0, 1, 3]);
        assert_eq!(assign, vec![0, 1, 0, 2, 1, 0]);
        // Reconstruction covers every slot.
        for (i, &u) in assign.iter().enumerate() {
            assert_eq!(points[unique[u]], points[i]);
        }
    }

    #[test]
    fn dedup_of_distinct_points_is_identity() {
        let points: Vec<PointIndex> = (0..5).map(|i| vec![i]).collect();
        let (unique, assign) = dedup_indices(&points);
        assert_eq!(unique, vec![0, 1, 2, 3, 4]);
        assert_eq!(assign, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn dedup_of_empty_batch() {
        let (unique, assign) = dedup_indices(&[]);
        assert!(unique.is_empty() && assign.is_empty());
    }

    #[test]
    fn memo_returns_cached_cost_without_recompute() {
        let cache = EvalCache::new(16);
        let memo = EvalMemo::new(&cache, 7);
        assert_eq!(memo.cost_or_insert_with(&[1.0], || 5.0), 5.0);
        assert_eq!(memo.cost_or_insert_with(&[1.0], || unreachable!("cached")), 5.0);
        assert_eq!(cache.stats().hits, 1);
    }
}
