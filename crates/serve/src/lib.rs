//! Batched, memoizing evaluation service for `magseven` — the
//! inference-serving tier of the workspace.
//!
//! The ROADMAP's north star is a system that serves heavy evaluation
//! traffic; AutoPilot-style design-space exploration spends most of its
//! budget re-evaluating near-duplicate candidate configurations. This
//! crate closes both gaps with the same dedup → batch → dispatch → cache
//! shape an inference server uses:
//!
//! - [`CacheKey`] — deterministic content-addressed cache keys: a 64-bit
//!   FNV-1a hash over canonicalized requests, fields in fixed order,
//!   floats via [`f64::to_bits`].
//! - [`EvalCache`] — a sharded in-memory store with a hard capacity bound,
//!   LRU-ish eviction, and exact hit/miss/eviction counters.
//! - [`evaluate_batch_memo`] — the request batcher: coalesce duplicate in-flight
//!   requests, answer hits from the cache, dispatch unique misses in one
//!   batch over the deterministic [`m7_par`] pool.
//! - [`SegmentStore`] — a crash-safe append-only on-disk segment store:
//!   CRC-checked records, torn-tail truncation on recovery, and
//!   dead-ratio-triggered compaction.
//! - [`TieredCache`] — the tiered cache: the hot in-memory shards backed by the
//!   segment store, behind the [`ResultStore`] abstraction every
//!   memoization call site uses.
//! - [`wire`] — the newline-delimited `key = value` protocol (the same
//!   line format as `m7_arch::parse_platform` reads — no JSON dependency), kept as the
//!   compatibility shim.
//! - [`frame`] — the versioned length-prefixed binary protocol: an
//!   incremental decoder that validates before it allocates and never
//!   panics on adversarial bytes.
//! - [`ServerStats`] — the live-telemetry payload: per-phase latency
//!   quantiles, connection/pending gauges, shed/reap counters, and tier
//!   and recovery stats, answered inline from the readiness loop over
//!   both protocols. `telemetry` is the server's one introspection
//!   request; in-process callers read [`ServerHandle::tier_stats`].
//! - [`FlightJournal`] — the crash-safe flight journal: telemetry snapshots
//!   streamed through the [`SegmentStore`] so `kill -9` leaves a
//!   recoverable record, plus the [`TelemetryPump`] helper that
//!   wires `--stats-interval`/`--journal` flags into a running hub.
//! - [`EvalServer`] — a non-blocking readiness-loop service on a loopback
//!   [`std::net::TcpListener`] that sleeps in `poll(2)` when idle (woken
//!   by a socket, a reap deadline or its handle's wake pair): connection
//!   limits and a bounded pending queue that shed load with an explicit
//!   `busy` response, per-protocol connections (binary frames are
//!   persistent, legacy text is one-request-per-connection),
//!   per-connection write backpressure, and clean shutdown on a sentinel
//!   request.
//!
//! # Determinism contract
//!
//! Every cached value is a pure function of its key, so memoization can
//! change only *how much* work runs, never *what* is returned: a search
//! or experiment evaluated through this crate is **byte-identical** with
//! the cache on or off, at any thread count, under any eviction history.
//!
//! # Examples
//!
//! ```
//! use m7_par::ParConfig;
//! use m7_serve::{evaluate_batch_memo, EvalCache, EvalRequest};
//!
//! let cache: EvalCache<f64> = EvalCache::new(1024);
//! let requests: Vec<EvalRequest> = (0..8)
//!     .map(|i| EvalRequest::new("square", vec![f64::from(i % 3)], 0))
//!     .collect();
//! let (costs, outcome) = evaluate_batch_memo(
//!     &cache,
//!     ParConfig::serial(),
//!     &requests,
//!     |r| r.cache_key(0),
//!     |r| r.values[0] * r.values[0],
//! );
//! assert_eq!(costs.len(), 8);
//! assert_eq!(outcome.computed, 3); // only the three unique designs ran
//! ```

#![warn(missing_docs)]
// `deny`, not `forbid`: the private `sys` module, the `poll(2)` binding,
// opts back in and is the crate's one exception.
#![deny(unsafe_code)]

mod batch;
mod cache;
pub mod frame;
mod introspect;
mod journal;
mod key;
mod segment;
mod server;
mod sys;
mod tier;
pub mod wire;

pub use batch::{evaluate_batch_memo, BatchOutcome};
pub use cache::{CacheStats, EvalCache};
pub use frame::{FrameDecoder, FrameError};
pub use introspect::{PhaseStats, ServerStats};
pub use journal::{recover_snapshot, FlightJournal, TelemetryPump};
pub use key::{namespace, CacheKey, EvalRequest, KeyHasher};
pub use segment::{
    DiskCodec, RecoveryReport, SegmentConfig, SegmentStore, FILE_HEADER, RECORD_HEADER_BYTES,
    RECORD_TRAILER_BYTES, SEGMENT_FILE,
};
pub use server::{EvalClient, EvalServer, Evaluator, FramedClient, ServeConfig, ServerHandle};
pub use tier::{ResultStore, TierConfig, TierStats, TieredCache};
