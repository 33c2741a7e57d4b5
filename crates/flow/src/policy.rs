//! Bounded-queue overflow policies.

/// What a bounded queue does when a message arrives while it is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueuePolicy {
    /// Drop the arriving message (the behaviour of a real perception
    /// stack under overload, and of the legacy `m7-sim` pipeline).
    DropNewest,
    /// Drop the oldest queued message to make room — latest-data-wins,
    /// the right policy when stale sensor frames are worthless.
    DropOldest,
    /// Apply backpressure: the *producing server* parks its completed
    /// output and does not start its next service until the consumer
    /// frees a slot. Only valid on edges whose producer is a server —
    /// a sensor cannot be asked to stop sensing.
    Block,
}

impl core::fmt::Display for QueuePolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Self::DropNewest => "drop-newest",
            Self::DropOldest => "drop-oldest",
            Self::Block => "block",
        };
        f.write_str(s)
    }
}
