//! The flight recorder: lock-free per-thread ring buffers of span
//! events, merged at export time.
//!
//! Each thread that records events owns a buffer — a
//! fixed-capacity ring of packed atomic slots written with relaxed
//! stores and never locked on the hot path. Buffers are registered
//! globally so [`drain`] can merge events across every thread the
//! `m7-par` pool ever spawned. When a thread exits, its buffer is parked
//! on a free list and handed to the next new thread, so repeated
//! `par_map` calls (each of which spawns fresh scoped threads) reuse a
//! bounded set of buffers instead of leaking one per thread.
//!
//! When a ring fills, the oldest events are overwritten
//! (flight-recorder semantics) and a dropped-event counter is bumped;
//! exporters report the drop count so truncation is never silent. The
//! default capacity is 32768 events per thread,
//! overridable with the `M7_TRACE_EVENTS` environment variable.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default per-thread ring capacity in events.
pub(crate) const DEFAULT_CAPACITY: usize = 1 << 15;

/// Which clock stamped an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Clock {
    /// Host monotonic time, nanoseconds since the process trace epoch.
    Wall,
    /// Simulated-platform time, nanoseconds on the model's timeline.
    Modeled,
}

/// The kind of a recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (`ts` = start).
    Begin,
    /// A span closed (`ts` = end).
    End,
    /// A self-contained span (`ts` = start, `dur` = duration).
    Complete,
    /// A zero-duration marker.
    Instant,
}

/// One decoded event from a thread's ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Interned span/marker name.
    pub name: &'static str,
    /// Event kind.
    pub kind: EventKind,
    /// Timestamp clock.
    pub clock: Clock,
    /// Timestamp in nanoseconds (see [`Clock`]).
    pub ts_ns: u64,
    /// Duration in nanoseconds; meaningful only for
    /// [`EventKind::Complete`].
    pub dur_ns: u64,
    /// Stable id of the recording thread (dense, starts at 0).
    pub tid: u64,
    /// Position in the thread's total event sequence (monotone per
    /// thread, counts overwritten events too).
    pub seq: u64,
}

// Packed slot layout (3 × AtomicU64 per event):
//   meta = name_id << 32 | kind << 8 | clock   (kind/clock are small)
//   ts   = timestamp ns
//   dur  = duration ns (Complete only)
// A slot with meta == EMPTY has never been written.
const EMPTY: u64 = u64::MAX;

struct Slot {
    meta: AtomicU64,
    ts: AtomicU64,
    dur: AtomicU64,
}

/// One thread's event ring. Created through the global pool; public so
/// `drain` results can reference thread ids, not for direct use.
pub(crate) struct ThreadBuffer {
    tid: u64,
    slots: Box<[Slot]>,
    /// Total events ever pushed (head position = head % capacity).
    head: AtomicU64,
}

impl ThreadBuffer {
    fn new(tid: u64, capacity: usize) -> Self {
        let slots = (0..capacity.max(1))
            .map(|_| Slot {
                meta: AtomicU64::new(EMPTY),
                ts: AtomicU64::new(0),
                dur: AtomicU64::new(0),
            })
            .collect();
        Self { tid, slots, head: AtomicU64::new(0) }
    }

    fn push(&self, name_id: u32, kind: EventKind, clock: Clock, ts: u64, dur: u64) {
        let i = self.head.fetch_add(1, Ordering::Relaxed) as usize % self.slots.len();
        let slot = &self.slots[i];
        let meta = (u64::from(name_id) << 32)
            | ((kind as u64) << 8)
            | match clock {
                Clock::Wall => 0,
                Clock::Modeled => 1,
            };
        slot.ts.store(ts, Ordering::Relaxed);
        slot.dur.store(dur, Ordering::Relaxed);
        slot.meta.store(meta, Ordering::Relaxed);
    }

    fn clear(&self) {
        for slot in self.slots.iter() {
            slot.meta.store(EMPTY, Ordering::Relaxed);
        }
        self.head.store(0, Ordering::Relaxed);
    }

    /// Events currently retained, oldest first, plus how many older
    /// events were overwritten.
    fn decode(&self, names: &[&'static str]) -> (Vec<Event>, u64) {
        let head = self.head.load(Ordering::Relaxed);
        let cap = self.slots.len() as u64;
        let retained = head.min(cap);
        let dropped = head - retained;
        let mut events = Vec::with_capacity(retained as usize);
        for off in 0..retained {
            let seq = dropped + off;
            let slot = &self.slots[(seq % cap) as usize];
            let meta = slot.meta.load(Ordering::Relaxed);
            if meta == EMPTY {
                continue;
            }
            let name_id = (meta >> 32) as usize;
            let kind = match (meta >> 8) & 0xff {
                0 => EventKind::Begin,
                1 => EventKind::End,
                2 => EventKind::Complete,
                _ => EventKind::Instant,
            };
            let clock = if meta & 0xff == 0 { Clock::Wall } else { Clock::Modeled };
            events.push(Event {
                name: names.get(name_id).copied().unwrap_or("?"),
                kind,
                clock,
                ts_ns: slot.ts.load(Ordering::Relaxed),
                dur_ns: slot.dur.load(Ordering::Relaxed),
                tid: self.tid,
                seq,
            });
        }
        (events, dropped)
    }
}

struct Global {
    /// Every buffer ever created, in tid order. Buffers are never
    /// removed (export needs events from exited pool threads).
    buffers: Mutex<Vec<Arc<ThreadBuffer>>>,
    /// Buffers whose owning thread exited, ready for reuse.
    free: Mutex<Vec<Arc<ThreadBuffer>>>,
    /// Interned names, indexed by the 32-bit id packed into slots.
    names: Mutex<Vec<&'static str>>,
    next_tid: AtomicUsize,
}

fn global() -> &'static Global {
    static GLOBAL: OnceLock<Global> = OnceLock::new();
    GLOBAL.get_or_init(|| Global {
        buffers: Mutex::new(Vec::new()),
        free: Mutex::new(Vec::new()),
        names: Mutex::new(Vec::new()),
        next_tid: AtomicUsize::new(0),
    })
}

fn capacity() -> usize {
    static CAPACITY: OnceLock<usize> = OnceLock::new();
    *CAPACITY.get_or_init(|| {
        std::env::var("M7_TRACE_EVENTS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(DEFAULT_CAPACITY)
    })
}

/// Interns `name`, returning the id packed into event slots.
pub(crate) fn intern(name: &'static str) -> u32 {
    let mut names = global().names.lock().expect("trace name table poisoned");
    if let Some(i) = names.iter().position(|&n| std::ptr::eq(n.as_ptr(), name.as_ptr())) {
        return i as u32;
    }
    // Fall back to string equality for distinct statics with equal text.
    if let Some(i) = names.iter().position(|&n| n == name) {
        return i as u32;
    }
    names.push(name);
    u32::try_from(names.len() - 1).expect("more than 2^32 span names")
}

/// The wall-clock epoch: everything is stamped relative to the first
/// trace touch so chrome-trace timestamps start near zero.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds of host monotonic time since the trace epoch.
#[must_use]
pub(crate) fn wall_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

struct LocalBuffer(Arc<ThreadBuffer>);

impl Drop for LocalBuffer {
    fn drop(&mut self) {
        // Park the buffer for the next thread. Its events stay visible
        // to drain() via the global buffer list; the reusing thread
        // appends after them (same tid — fine for flight recording).
        global().free.lock().expect("trace free list poisoned").push(Arc::clone(&self.0));
    }
}

thread_local! {
    static LOCAL: LocalBuffer = {
        let g = global();
        let reused = g.free.lock().expect("trace free list poisoned").pop();
        let buf = reused.unwrap_or_else(|| {
            let tid = g.next_tid.fetch_add(1, Ordering::Relaxed) as u64;
            let buf = Arc::new(ThreadBuffer::new(tid, capacity()));
            g.buffers.lock().expect("trace buffer list poisoned").push(Arc::clone(&buf));
            buf
        });
        LocalBuffer(buf)
    };
}

/// Records one event on the calling thread's ring.
pub(crate) fn record(name_id: u32, kind: EventKind, clock: Clock, ts: u64, dur: u64) {
    LOCAL.with(|l| l.0.push(name_id, kind, clock, ts, dur));
}

/// Everything the recorder holds, merged across threads.
#[derive(Debug, Clone, Default)]
pub struct Drained {
    /// All retained events, sorted by `(tid, seq)`.
    pub events: Vec<Event>,
    /// Events lost to ring wrap-around, summed over threads.
    pub dropped: u64,
    /// Number of distinct thread buffers (live or parked).
    pub threads: usize,
}

/// Merges every thread's retained events. Threads may keep recording
/// concurrently; the result is a consistent-enough flight-recorder
/// snapshot, exact once recording has quiesced.
#[must_use]
pub fn drain() -> Drained {
    let g = global();
    let names = g.names.lock().expect("trace name table poisoned").clone();
    let buffers = g.buffers.lock().expect("trace buffer list poisoned").clone();
    let mut out = Drained { threads: buffers.len(), ..Drained::default() };
    for buf in &buffers {
        let (events, dropped) = buf.decode(&names);
        out.events.extend(events);
        out.dropped += dropped;
    }
    out.events.sort_by_key(|e| (e.tid, e.seq));
    out
}

/// Clears every thread's ring (drop counters included). Registered
/// names and thread ids are kept.
pub fn clear() {
    let buffers = global().buffers.lock().expect("trace buffer list poisoned").clone();
    for buf in &buffers {
        buf.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_retains_newest_and_counts_drops() {
        let buf = ThreadBuffer::new(99, 4);
        for i in 0..10u64 {
            buf.push(0, EventKind::Instant, Clock::Wall, i, 0);
        }
        let (events, dropped) = buf.decode(&["x"]);
        assert_eq!(dropped, 6);
        assert_eq!(events.len(), 4);
        assert_eq!(events.iter().map(|e| e.ts_ns).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
        assert!(events.iter().all(|e| e.tid == 99 && e.name == "x"));
    }

    #[test]
    fn clear_empties_the_ring() {
        let buf = ThreadBuffer::new(0, 8);
        buf.push(0, EventKind::Begin, Clock::Modeled, 1, 0);
        buf.clear();
        let (events, dropped) = buf.decode(&["x"]);
        assert!(events.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn wall_clock_is_monotone() {
        let a = wall_ns();
        let b = wall_ns();
        assert!(b >= a);
    }
}
