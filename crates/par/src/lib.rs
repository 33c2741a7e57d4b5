//! Deterministic parallel execution for the `magseven` workspace.
//!
//! The paper's Challenge 5 ("Chips and Salsa", §2.5) argues that
//! batched, parallel *software* execution is itself a first-class
//! accelerator. This crate is the workspace's software accelerator: a
//! small scoped thread pool with work-stealing-style dynamic chunk
//! claiming, exposing data-parallel maps whose **results are
//! bit-identical regardless of thread count or scheduling order**.
//!
//! # Determinism contract
//!
//! [`par_map`] and [`par_map_indexed`] evaluate a pure function over
//! each input and write each output into the slot owned by its input
//! index. Scheduling decides only *who* computes a slot, never *what*
//! is computed or *where* it lands, so for any thread count:
//!
//! ```text
//! par_map(items, f) == items.iter().map(f).collect()
//! ```
//!
//! Functions that fold results (experiment replicates, DSE population
//! scoring) must combine outputs *after* the parallel map, in index
//! order, to preserve floating-point associativity — every call site in
//! this workspace does.
//!
//! # Thread-count control
//!
//! The pool size is chosen per call:
//!
//! 1. an explicit [`ParConfig`] wins,
//! 2. else the `M7_THREADS` environment variable (clamped to
//!    `1..=256`),
//! 3. else [`std::thread::available_parallelism`].
//!
//! `M7_THREADS=1` (or one available core) short-circuits to a plain
//! serial loop on the calling thread — no pool, no atomics.
//!
//! # Examples
//!
//! ```
//! // Deterministic parallel map: order of results always matches input.
//! let squares = m7_par::par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! // Identical output at any thread count.
//! use m7_par::ParConfig;
//! let serial = ParConfig::serial().par_map(&[1.0f64, 2.0, 3.0], |x| x.sqrt());
//! let wide = ParConfig::with_threads(8).par_map(&[1.0f64, 2.0, 3.0], |x| x.sqrt());
//! assert_eq!(serial, wide);
//! ```

#![warn(missing_docs)]

use m7_trace::{MetricClass, SpanSite, TraceCounter, TraceHistogram};
use std::sync::atomic::{AtomicUsize, Ordering};

// Observability (no-ops until `m7_trace::enable()`): batch/item totals
// are pure functions of the work submitted, so they are classed
// deterministic and recorded identically on the serial and pooled
// paths. Everything scheduling-dependent — who claimed, who stole, how
// deep the remaining queue was — lives under the `sched.` prefix as
// diagnostic-class metrics.
static BATCH_SPAN: SpanSite = SpanSite::new("par.batch", MetricClass::Deterministic);
static WORKER_SPAN: SpanSite = SpanSite::new("sched.par.worker", MetricClass::Diagnostic);
static BATCHES: TraceCounter = TraceCounter::new("par.batches", MetricClass::Deterministic);
static ITEMS: TraceCounter = TraceCounter::new("par.items", MetricClass::Deterministic);
static CLAIMS: TraceCounter = TraceCounter::new("sched.par.claims", MetricClass::Diagnostic);
static STEALS: TraceCounter = TraceCounter::new("sched.par.steals", MetricClass::Diagnostic);
static QUEUE_DEPTH: TraceHistogram =
    TraceHistogram::new("sched.par.queue_depth", MetricClass::Diagnostic);
static WORKER_ITEMS: TraceHistogram =
    TraceHistogram::new("sched.par.worker_items", MetricClass::Diagnostic);

/// Hard ceiling on the pool size; protects against pathological
/// `M7_THREADS` values.
pub(crate) const MAX_THREADS: usize = 256;

/// Upper bound on how many items a worker claims per visit to the
/// shared cursor; amortizes counter traffic on large fine-grained
/// batches. Small batches drop to one-item claims (see [`claim_chunk`])
/// so a handful of coarse tasks — e.g. ten whole experiments — still
/// spread across all workers.
const MAX_CLAIM_CHUNK: usize = 4;

/// Chunk size for a batch: one item per claim until the batch is large
/// enough that every worker gets several chunks, then up to
/// [`MAX_CLAIM_CHUNK`]. Purely a scheduling knob — results never depend
/// on it.
fn claim_chunk(len: usize, workers: usize) -> usize {
    (len / (workers * 8).max(1)).clamp(1, MAX_CLAIM_CHUNK)
}

/// Environment variable overriding the pool width.
pub const THREADS_ENV: &str = "M7_THREADS";

/// Resolved parallelism configuration for a batch of calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParConfig {
    threads: usize,
}

impl Default for ParConfig {
    /// Reads `M7_THREADS`, falling back to the host's available
    /// parallelism.
    fn default() -> Self {
        Self { threads: default_threads() }
    }
}

impl ParConfig {
    /// A pool of exactly `threads` workers (clamped to `1..=256`).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self { threads: threads.clamp(1, MAX_THREADS) }
    }

    /// The serial configuration: everything runs on the calling thread.
    #[must_use]
    pub fn serial() -> Self {
        Self { threads: 1 }
    }

    /// The configured worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items` in parallel; results are in input order and
    /// bit-identical to the serial map for any thread count.
    pub fn par_map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        self.par_map_indexed(items.len(), |i| f(&items[i]))
    }

    /// Maps `f` over `0..len` in parallel; results are in index order
    /// and bit-identical to the serial map for any thread count.
    ///
    /// This is the primitive the rest of the crate builds on: workers
    /// dynamically claim small index chunks from a shared atomic cursor
    /// (the scheduling is self-balancing like a work-stealing deque,
    /// without per-worker queues to rebalance) and write each result
    /// into the uniquely owned slot for its index.
    pub fn par_map_indexed<U, F>(&self, len: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        let workers = self.threads.min(len).max(1);
        let _span = BATCH_SPAN.enter();
        BATCHES.incr();
        ITEMS.add(len as u64);
        if workers == 1 || len <= 1 {
            return (0..len).map(f).collect();
        }
        let chunk = claim_chunk(len, workers);

        let mut results: Vec<Option<U>> = Vec::with_capacity(len);
        results.resize_with(len, || None);
        let slots = SlotWriter::new(&mut results);
        let cursor = AtomicUsize::new(0);

        let (cursor_ref, f_ref, slots_ref) = (&cursor, &f, &slots);
        std::thread::scope(|scope| {
            // The calling thread is worker 0; spawn the remaining ones.
            for worker in 1..workers {
                scope.spawn(move || worker_loop(cursor_ref, len, chunk, worker, f_ref, slots_ref));
            }
            worker_loop(cursor_ref, len, chunk, 0, f_ref, slots_ref);
        });

        results.into_iter().map(|slot| slot.expect("every index claimed exactly once")).collect()
    }
}

/// Dynamic-chunk worker: claim `chunk` indices at a time until the
/// range is exhausted.
fn worker_loop<U, F>(
    cursor: &AtomicUsize,
    len: usize,
    chunk: usize,
    worker: usize,
    f: &F,
    slots: &SlotWriter<'_, U>,
) where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    // Hoisted so the disabled path stays one load + branch per claim.
    let tracing = m7_trace::enabled();
    let _span = if tracing { Some(WORKER_SPAN.enter()) } else { None };
    let mut processed = 0u64;
    loop {
        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
        if start >= len {
            break;
        }
        if tracing {
            CLAIMS.incr();
            if worker != 0 {
                // A spawned worker pulling work the caller would
                // otherwise run — the pool's analogue of a steal.
                STEALS.incr();
            }
            QUEUE_DEPTH.record((len - start) as u64);
        }
        let end = (start + chunk).min(len);
        processed += (end - start) as u64;
        for i in start..end {
            // SAFETY (upheld here): `i` comes from a unique fetch_add
            // claim, so no other worker touches slot `i`.
            unsafe { slots.write(i, f(i)) };
        }
    }
    if tracing {
        WORKER_ITEMS.record(processed);
    }
}

/// Shared mutable access to the result buffer with index-disjoint
/// writes.
///
/// Each index is claimed exactly once through the atomic cursor, so
/// writes never alias; the scope guarantees workers end before the
/// buffer is read.
struct SlotWriter<'a, U> {
    base: *mut Option<U>,
    len: usize,
    _lifetime: std::marker::PhantomData<&'a mut [Option<U>]>,
}

// SAFETY: the raw pointer is only dereferenced at indices uniquely
// claimed via the atomic cursor (see `worker_loop`), so concurrent use
// from multiple threads never aliases.
unsafe impl<U: Send> Sync for SlotWriter<'_, U> {}

impl<'a, U> SlotWriter<'a, U> {
    fn new(buffer: &'a mut Vec<Option<U>>) -> Self {
        Self { base: buffer.as_mut_ptr(), len: buffer.len(), _lifetime: std::marker::PhantomData }
    }

    /// Writes `value` into slot `i`.
    ///
    /// # Safety
    ///
    /// Callers must guarantee `i < len` and that no other thread writes
    /// slot `i` (both hold for indices claimed from the shared cursor).
    unsafe fn write(&self, i: usize, value: U) {
        debug_assert!(i < self.len);
        unsafe { *self.base.add(i) = Some(value) };
    }
}

/// Resolves the default worker count: `M7_THREADS` env override, else
/// available parallelism.
#[must_use]
pub(crate) fn default_threads() -> usize {
    if let Ok(raw) = std::env::var(THREADS_ENV) {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n.min(MAX_THREADS);
            }
        }
        eprintln!("warning: ignoring invalid {THREADS_ENV}={raw:?} (want 1..={MAX_THREADS})");
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// [`ParConfig::par_map`] with the default configuration
/// (`M7_THREADS` / available parallelism).
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    ParConfig::default().par_map(items, f)
}

/// [`ParConfig::par_map_indexed`] with the default configuration.
pub fn par_map_indexed<U, F>(len: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    ParConfig::default().par_map_indexed(len, f)
}

/// Derives a statistically independent child seed from a root seed and
/// a task index (SplitMix64 over the pair).
///
/// Parallel replicates and sharded sweeps use this so that each task's
/// randomness is a pure function of `(root, index)` — independent of
/// scheduling — keeping fan-out deterministic.
#[must_use]
pub fn derive_seed(root: u64, index: u64) -> u64 {
    let mut z = root ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_serial_map() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = ParConfig::with_threads(threads).par_map(&items, |&x| x * x + 1);
            assert_eq!(got, serial, "threads={threads}");
        }
    }

    #[test]
    fn float_results_are_bit_identical_across_thread_counts() {
        let items: Vec<f64> = (0..5000).map(|i| f64::from(i) * 0.37).collect();
        let f = |x: &f64| (x.sin() * x.cos()).mul_add(3.7, x.sqrt());
        let serial = ParConfig::serial().par_map(&items, f);
        for threads in [2, 4, 16] {
            let par = ParConfig::with_threads(threads).par_map(&items, f);
            let identical = serial.iter().zip(&par).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(identical, "bitwise divergence at {threads} threads");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
        assert_eq!(par_map_indexed(0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn indexed_map_covers_every_index_once() {
        let n = 10_000;
        let got = ParConfig::with_threads(8).par_map_indexed(n, |i| i);
        assert_eq!(got, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Last items are 100x more expensive; dynamic claiming must not
        // serialize on a single unlucky worker (correctness check only —
        // timing is asserted in the bench suite).
        let items: Vec<usize> = (0..64).collect();
        let got = ParConfig::with_threads(4).par_map(&items, |&i| {
            let reps = if i > 56 { 200_000 } else { 2_000 };
            (0..reps).map(|k| f64::from(k as u32).sqrt()).sum::<f64>().floor() as usize + i
        });
        let want: Vec<usize> = items
            .iter()
            .map(|&i| {
                let reps = if i > 56 { 200_000 } else { 2_000 };
                (0..reps).map(|k| f64::from(k as u32).sqrt()).sum::<f64>().floor() as usize + i
            })
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn derive_seed_is_stable_and_spreads() {
        assert_eq!(derive_seed(42, 0), derive_seed(42, 0));
        let seeds: std::collections::HashSet<u64> = (0..100).map(|i| derive_seed(42, i)).collect();
        assert_eq!(seeds.len(), 100, "children must not collide");
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }

    #[test]
    fn with_threads_clamps() {
        assert_eq!(ParConfig::with_threads(0).threads(), 1);
        assert_eq!(ParConfig::with_threads(100_000).threads(), MAX_THREADS);
    }

    #[test]
    fn panics_propagate_without_deadlock() {
        let result = std::panic::catch_unwind(|| {
            ParConfig::with_threads(4).par_map_indexed(100, |i| {
                assert!(i != 57, "injected failure");
                i
            })
        });
        assert!(result.is_err(), "worker panic must surface to the caller");
    }
}
