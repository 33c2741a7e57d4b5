//! Live server introspection: the `telemetry` request's payload.
//!
//! [`ServerStats`] is everything the readiness loop knows about itself
//! at one instant — per-phase latency quantiles (upper bounds from the
//! 65-bucket log₂ histograms in `m7-trace`), connection/pending gauges,
//! admission-control and reap counters, tier hit/miss stats, and what
//! disk recovery replayed at startup, and the server's only
//! introspection answer. It is answered *inline* from the parse phase:
//! no dispatch, no locks beyond the cache's own counters, so querying a
//! busy server never stalls evaluation traffic.
//!
//! On the wire the struct travels as an ordered `(name, value)` list —
//! self-describing, so fields can be added without renumbering either
//! protocol: the legacy rendering is `telemetry.<name> = <value>` lines
//! and the framed rendering is a counted list of (string, u64) pairs.
//! [`ServerStats::from_pairs`] ignores unknown names and zero-fills
//! missing ones.

/// Latency summary of one event-loop phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseStats {
    /// Turns in which the phase did work (its histogram's sample count).
    pub count: u64,
    /// p50 latency upper bound, nanoseconds.
    pub p50_ns: u64,
    /// p95 latency upper bound, nanoseconds.
    pub p95_ns: u64,
    /// p99 latency upper bound, nanoseconds.
    pub p99_ns: u64,
}

/// A live snapshot of the server's internals. See the module docs for
/// how it travels on the wire.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Milliseconds since the event loop started.
    pub uptime_ms: u64,
    /// Connections currently held by the event loop.
    pub connections: u64,
    /// Parsed requests awaiting dispatch right now.
    pub pending: u64,
    /// Requests dispatched since startup.
    pub requests: u64,
    /// Connections/requests answered `busy` (admission control).
    pub shed: u64,
    /// Connections reaped for being stuck past the io timeout.
    pub reaped: u64,
    /// Accept-phase latency (turns that accepted ≥ 1 connection).
    pub accept: PhaseStats,
    /// Read+parse-phase latency (turns that moved or parsed bytes).
    pub parse: PhaseStats,
    /// Dispatch-phase latency (one batch through cache + pool).
    pub dispatch: PhaseStats,
    /// Write-phase latency (turns that flushed ≥ 1 byte).
    pub write: PhaseStats,
    /// Lookups answered by the hot tier.
    pub hot_hits: u64,
    /// Lookups answered by the disk tier.
    pub disk_hits: u64,
    /// Lookups answered by neither tier.
    pub misses: u64,
    /// Values written through the tiers.
    pub insertions: u64,
    /// Disk operations degraded to misses.
    pub disk_errors: u64,
    /// Entries currently hot.
    pub hot_entries: u64,
    /// Live entries on disk.
    pub disk_entries: u64,
    /// Disk compactions run.
    pub compactions: u64,
    /// Live entries disk recovery replayed at startup.
    pub recovered_entries: u64,
    /// Torn bytes recovery truncated at startup.
    pub recovery_torn_bytes: u64,
}

macro_rules! stats_pairs {
    ($($name:literal => $($field:ident).+),+ $(,)?) => {
        impl ServerStats {
            /// The ordered `(name, value)` wire form.
            #[must_use]
            pub fn pairs(&self) -> Vec<(&'static str, u64)> {
                vec![$(($name, self.$($field).+)),+]
            }

            /// Rebuilds from wire pairs: unknown names are ignored,
            /// missing ones stay zero — `from_pairs(x.pairs()) == x`.
            #[must_use]
            pub(crate) fn from_pairs<'a, I>(pairs: I) -> Self
            where
                I: IntoIterator<Item = (&'a str, u64)>,
            {
                let mut out = Self::default();
                for (name, value) in pairs {
                    match name {
                        $($name => out.$($field).+ = value,)+
                        _ => {}
                    }
                }
                out
            }
        }
    };
}

stats_pairs! {
    "uptime_ms" => uptime_ms,
    "connections" => connections,
    "pending" => pending,
    "requests" => requests,
    "shed" => shed,
    "reaped" => reaped,
    "accept.count" => accept.count,
    "accept.p50_ns" => accept.p50_ns,
    "accept.p95_ns" => accept.p95_ns,
    "accept.p99_ns" => accept.p99_ns,
    "parse.count" => parse.count,
    "parse.p50_ns" => parse.p50_ns,
    "parse.p95_ns" => parse.p95_ns,
    "parse.p99_ns" => parse.p99_ns,
    "dispatch.count" => dispatch.count,
    "dispatch.p50_ns" => dispatch.p50_ns,
    "dispatch.p95_ns" => dispatch.p95_ns,
    "dispatch.p99_ns" => dispatch.p99_ns,
    "write.count" => write.count,
    "write.p50_ns" => write.p50_ns,
    "write.p95_ns" => write.p95_ns,
    "write.p99_ns" => write.p99_ns,
    "tier.hot_hits" => hot_hits,
    "tier.disk_hits" => disk_hits,
    "tier.misses" => misses,
    "tier.insertions" => insertions,
    "tier.disk_errors" => disk_errors,
    "tier.hot_entries" => hot_entries,
    "tier.disk_entries" => disk_entries,
    "tier.compactions" => compactions,
    "recovery.entries" => recovered_entries,
    "recovery.torn_bytes" => recovery_torn_bytes,
}

impl core::fmt::Display for ServerStats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "up {} ms · {} conns · {} pending · {} requests · {} shed · {} reaped",
            self.uptime_ms, self.connections, self.pending, self.requests, self.shed, self.reaped
        )?;
        for (name, p) in [
            ("accept", &self.accept),
            ("parse", &self.parse),
            ("dispatch", &self.dispatch),
            ("write", &self.write),
        ] {
            writeln!(
                f,
                "{name:>9}: {:>8} turns · p50 ≤ {} ns · p95 ≤ {} ns · p99 ≤ {} ns",
                p.count, p.p50_ns, p.p95_ns, p.p99_ns
            )?;
        }
        writeln!(
            f,
            "tier: {} hot + {} disk hits / {} misses · {} inserted · {}+{} entries · \
             recovered {} ({} torn bytes)",
            self.hot_hits,
            self.disk_hits,
            self.misses,
            self.insertions,
            self.hot_entries,
            self.disk_entries,
            self.recovered_entries,
            self.recovery_torn_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServerStats {
        ServerStats {
            uptime_ms: 1234,
            connections: 3,
            pending: 2,
            requests: 99,
            shed: 1,
            reaped: 4,
            accept: PhaseStats { count: 10, p50_ns: 100, p95_ns: 200, p99_ns: 400 },
            parse: PhaseStats { count: 11, p50_ns: 101, p95_ns: 201, p99_ns: 401 },
            dispatch: PhaseStats { count: 12, p50_ns: 102, p95_ns: 202, p99_ns: 402 },
            write: PhaseStats { count: 13, p50_ns: 103, p95_ns: 203, p99_ns: 403 },
            hot_hits: 5,
            disk_hits: 6,
            misses: 7,
            insertions: 8,
            disk_errors: 0,
            hot_entries: 9,
            disk_entries: 10,
            compactions: 1,
            recovered_entries: 11,
            recovery_torn_bytes: 12,
        }
    }

    #[test]
    fn pairs_round_trip_exactly() {
        let stats = sample();
        let pairs = stats.pairs();
        assert_eq!(ServerStats::from_pairs(pairs.iter().copied()), stats);
        // Every field is covered: flipping any pair must change the result.
        for i in 0..pairs.len() {
            let mut mutated: Vec<_> = pairs.clone();
            mutated[i].1 = mutated[i].1.wrapping_add(1);
            assert_ne!(ServerStats::from_pairs(mutated.into_iter()), stats, "pair {i} ignored");
        }
    }

    #[test]
    fn unknown_names_are_ignored_and_missing_default() {
        let got = ServerStats::from_pairs([("requests", 7u64), ("from.the.future", 1)]);
        assert_eq!(got.requests, 7);
        assert_eq!(got.shed, 0);
    }

    #[test]
    fn display_renders_every_phase() {
        let text = sample().to_string();
        for needle in ["accept", "parse", "dispatch", "write", "p99", "recovered 11"] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
    }
}
