//! Deterministic parallel execution for the `magseven` workspace.
//!
//! The paper's Challenge 5 ("Chips and Salsa", §2.5) argues that
//! batched, parallel *software* execution is itself a first-class
//! accelerator. This crate is the workspace's software accelerator: a
//! small scoped thread pool whose workers claim one index at a time from
//! a shared counter, exposing data-parallel maps whose **results are
//! bit-identical regardless of thread count or scheduling order**.
//!
//! # Determinism contract
//!
//! [`ParConfig::par_map`] and [`ParConfig::par_map_indexed`] evaluate a
//! pure function over each input and return the outputs in input order.
//! Scheduling decides only *who* computes an output, never *what* is
//! computed or *where* it lands, so for any thread count:
//!
//! ```text
//! par.par_map(items, f) == items.iter().map(f).collect()
//! ```
//!
//! Functions that fold results (experiment replicates, DSE population
//! scoring) must combine outputs *after* the parallel map, in index
//! order, to preserve floating-point associativity — every call site in
//! this workspace does.
//!
//! # Thread-count control
//!
//! A pool's width is, in order of precedence:
//!
//! 1. an explicit [`ParConfig::with_threads`] or [`ParConfig::serial`],
//! 2. else the `M7_THREADS` environment variable (clamped to
//!    `1..=256`),
//! 3. else [`std::thread::available_parallelism`].
//!
//! [`ParConfig::default`] resolves 2 and 3 once per process, at its
//! first call: a binary that sets `M7_THREADS` must do so before it
//! builds a pool, and an invalid value is warned about once.
//!
//! `M7_THREADS=1` (or one available core) short-circuits to a plain
//! serial loop on the calling thread — no pool, no atomics.
//!
//! # Where the pool is used
//!
//! Each fan-out costs a few tens of microseconds (scoped threads are
//! spawned per batch), so the pool only serves batches whose items are
//! whole units of work: experiments in the runner, campaign work units,
//! closed-loop flights and rover runs, DSE objective batches, and serve
//! batch dispatch. Finer-grained loops (costing a graph's nodes at seal,
//! scoring surrogate candidates, scoring an NSGA-II generation) run
//! serially.
//!
//! # Examples
//!
//! ```
//! use m7_par::ParConfig;
//!
//! // Results are in input order and identical at any thread count.
//! let items = [1u64, 2, 3, 4];
//! let serial = ParConfig::serial().par_map(&items, |&x| x * x);
//! let wide = ParConfig::with_threads(8).par_map(&items, |&x| x * x);
//! assert_eq!(serial, vec![1, 4, 9, 16]);
//! assert_eq!(serial, wide);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use m7_trace::{MetricClass, SpanSite, TraceCounter, TraceHistogram};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

// Observability (no-ops until `m7_trace::enable()`): batch/item totals
// are pure functions of the work submitted, so they are classed
// deterministic and recorded identically on the serial and pooled
// paths. How many items each worker ran depends on scheduling, so the
// worker span and its item histogram live under the `sched.` prefix as
// diagnostic-class metrics.
static BATCH_SPAN: SpanSite = SpanSite::new("par.batch", MetricClass::Deterministic);
static WORKER_SPAN: SpanSite = SpanSite::new("sched.par.worker", MetricClass::Diagnostic);
static BATCHES: TraceCounter = TraceCounter::new("par.batches", MetricClass::Deterministic);
static ITEMS: TraceCounter = TraceCounter::new("par.items", MetricClass::Deterministic);
static WORKER_ITEMS: TraceHistogram =
    TraceHistogram::new("sched.par.worker_items", MetricClass::Diagnostic);

/// Hard ceiling on the pool size; protects against pathological
/// `M7_THREADS` values.
const MAX_THREADS: usize = 256;

/// Environment variable overriding the pool width.
pub const THREADS_ENV: &str = "M7_THREADS";

/// Resolved parallelism configuration for a batch of calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParConfig {
    threads: usize,
}

impl Default for ParConfig {
    /// Reads `M7_THREADS` once per process, falling back to the host's
    /// available parallelism.
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
    /// This is the primitive the rest of the crate builds on: each
    /// worker claims one index at a time from a shared counter, so a
    /// slow item never holds back the rest, and keeps its own
    /// `(index, result)` pairs, which are sorted back into index order
    /// once every worker is done. A panic in `f` reaches the caller after
    /// the other workers have drained the range.
    pub fn par_map_indexed<U, F>(&self, len: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        let workers = self.threads.min(len);
        let _span = BATCH_SPAN.enter();
        BATCHES.incr();
        ITEMS.add(len as u64);
        if workers <= 1 {
            return (0..len).map(f).collect();
        }

        let next = AtomicUsize::new(0);
        let work = || {
            let _span = WORKER_SPAN.enter();
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= len {
                    break;
                }
                done.push((i, f(i)));
            }
            WORKER_ITEMS.record(done.len() as u64);
            done
        };
        let mut pairs = std::thread::scope(|scope| {
            // The calling thread is worker 0; spawn the remaining ones.
            let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
            let mut pairs = work();
            for worker in spawned {
                pairs.extend(worker.join().unwrap_or_else(|panic| resume_unwind(panic)));
            }
            pairs
        });
        pairs.sort_unstable_by_key(|&(i, _)| i);
        pairs.into_iter().map(|(_, result)| result).collect()
    }
}

/// The width [`ParConfig::default`] uses, resolved at its first call:
/// `M7_THREADS` if it parses, else available parallelism.
fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        if let Ok(raw) = std::env::var(THREADS_ENV) {
            if let Some(n) = parse_threads(&raw) {
                return n;
            }
            eprintln!("warning: ignoring invalid {THREADS_ENV}={raw:?} (want 1..={MAX_THREADS})");
        }
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    })
}

/// Parses an `M7_THREADS` value: a positive integer, surrounding
/// whitespace allowed, clamped to [`MAX_THREADS`].
fn parse_threads(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok().filter(|&n| n >= 1).map(|n| n.min(MAX_THREADS))
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
        let par = ParConfig::with_threads(4);
        assert!(par.par_map(&empty, |&x| x).is_empty());
        assert_eq!(par.par_map(&[7u32], |&x| x + 1), vec![8]);
        assert_eq!(par.par_map_indexed(0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn indexed_map_covers_every_index_once() {
        let n = 10_000;
        let got = ParConfig::with_threads(8).par_map_indexed(n, |i| i);
        assert_eq!(got, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Last items are 100x more expensive; whichever workers draw
        // them, the results must still land in index order.
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
    fn threads_env_parse_rule() {
        for bad in ["abc", "0", "", "-3", "2.5"] {
            assert_eq!(parse_threads(bad), None, "{bad:?} must be rejected");
        }
        assert_eq!(parse_threads(" 4 "), Some(4));
        assert_eq!(parse_threads("1"), Some(1));
        assert_eq!(parse_threads("100000"), Some(MAX_THREADS));
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
