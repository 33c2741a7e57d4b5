//! A small deterministic discrete-event simulation engine.
//!
//! Events are ordered by timestamp with FIFO tie-breaking (a monotone
//! sequence number), so identical schedules replay identically. This is
//! the virtual clock under every graph execution in this crate, `m7_sim`'s
//! pipeline included, since that pipeline runs as a graph.

use m7_units::Seconds;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An event queue advancing simulated time monotonically.
///
/// # Examples
///
/// ```
/// use m7_flow::vtime::EventQueue;
/// use m7_units::Seconds;
///
/// let mut q = EventQueue::new();
/// q.schedule(Seconds::new(2.0), "later");
/// q.schedule(Seconds::new(1.0), "sooner");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!(e, "sooner");
/// assert_eq!(t, Seconds::new(1.0));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<HeapEntry<E>>>,
    now: f64,
    next_seq: u64,
}

#[derive(Debug, Clone)]
struct HeapEntry<E> {
    at: f64,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.at
            .partial_cmp(&other.at)
            .expect("event times are finite")
            .then(self.seq.cmp(&other.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    #[must_use]
    pub fn new() -> Self {
        Self { heap: BinaryHeap::new(), now: 0.0, next_seq: 0 }
    }

    /// Current simulated time (the timestamp of the last popped event).
    #[must_use]
    pub fn now(&self) -> Seconds {
        Seconds::new(self.now)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is non-finite or earlier than the current time.
    // Out of line on purpose: inlined into the engine's call sites, the
    // perfbench dataflow workload ran ~10% fewer events/s (x86-64).
    #[inline(never)]
    pub fn schedule(&mut self, at: Seconds, payload: E) {
        assert!(at.is_finite(), "event time must be finite");
        assert!(at.value() >= self.now, "cannot schedule into the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(HeapEntry { at: at.value(), seq, payload }));
    }

    /// Pops the next event, advancing simulated time to its timestamp.
    pub fn pop(&mut self) -> Option<(Seconds, E)> {
        self.heap.pop().map(|Reverse(entry)| {
            self.now = entry.at;
            (Seconds::new(entry.at), entry.payload)
        })
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Seconds::new(3.0), 'c');
        q.schedule(Seconds::new(1.0), 'a');
        q.schedule(Seconds::new(2.0), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
        assert_eq!(q.now(), Seconds::new(3.0));
    }

    #[test]
    fn fifo_tie_breaking() {
        let mut q = EventQueue::new();
        q.schedule(Seconds::new(1.0), 1);
        q.schedule(Seconds::new(1.0), 2);
        q.schedule(Seconds::new(1.0), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.schedule(Seconds::new(5.0), ());
        q.pop();
        q.schedule(Seconds::new(1.0), ());
    }
}
