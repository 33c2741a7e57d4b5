//! Hierarchical spans: RAII wall-clock regions, deterministic
//! modeled-time regions, and zero-duration instants.
//!
//! A [`SpanSite`] is a `const`-constructible static naming one
//! instrumentation point. Entering it yields a [`SpanGuard`] that
//! records a begin event immediately and the matching end event on drop;
//! nesting guards nests spans. Every site also maintains two registry
//! metrics automatically:
//!
//! - `<name>.spans` — a counter of completed spans, classed with the
//!   site (deterministic sites therefore contribute to the
//!   thread-invariance guarantee), and
//! - `<name>.wall_ns` / `<name>.modeled_ns` — a duration histogram.
//!   Wall histograms are always [`MetricClass::Diagnostic`] (host timing
//!   is never deterministic); modeled histograms carry the site's class.
//!
//! Everything is a no-op while [`crate::enabled`] is false.

use crate::metrics::MetricClass;
use crate::recorder::{self, Clock, EventKind};
use std::sync::OnceLock;

struct SiteState {
    name_id: u32,
    spans: &'static crate::Counter,
    wall_ns: &'static crate::Histogram,
    modeled_ns: &'static crate::Histogram,
}

/// One named instrumentation point; declare as a `static`.
///
/// # Examples
///
/// ```
/// use m7_trace::{SpanSite, MetricClass};
///
/// static DECODE: SpanSite = SpanSite::new("doc.decode", MetricClass::Deterministic);
///
/// m7_trace::enable();
/// {
///     let _span = DECODE.enter(); // wall-clock span until end of scope
/// }
/// DECODE.complete_modeled(0, 1_500); // modeled-time span: 1.5 µs at t=0
/// ```
pub struct SpanSite {
    name: &'static str,
    class: MetricClass,
    state: OnceLock<SiteState>,
}

impl SpanSite {
    /// Declares a span site named `name`.
    ///
    /// `class` describes the site's *modeled* side-metrics: pass
    /// [`MetricClass::Deterministic`] when the number of times this site
    /// fires (and any modeled durations) depend only on inputs and
    /// seeds, [`MetricClass::Diagnostic`] otherwise.
    #[must_use]
    pub const fn new(name: &'static str, class: MetricClass) -> Self {
        Self { name, class, state: OnceLock::new() }
    }

    /// The site's name.
    #[must_use]
    pub const fn name(&self) -> &'static str {
        self.name
    }

    fn state(&self) -> &SiteState {
        self.state.get_or_init(|| {
            let reg = crate::registry();
            SiteState {
                name_id: recorder::intern(self.name),
                spans: reg.counter(&format!("{}.spans", self.name), self.class),
                wall_ns: reg.histogram(&format!("{}.wall_ns", self.name), MetricClass::Diagnostic),
                modeled_ns: reg.histogram(&format!("{}.modeled_ns", self.name), self.class),
            }
        })
    }

    /// Opens a wall-clock span that closes when the guard drops.
    /// Returns an inert guard while tracing is disabled.
    #[inline]
    #[must_use]
    pub fn enter(&'static self) -> SpanGuard {
        if !crate::enabled() {
            return SpanGuard { site: None, start_ns: 0 };
        }
        let state = self.state();
        let start_ns = recorder::wall_ns();
        recorder::record(state.name_id, EventKind::Begin, Clock::Wall, start_ns, 0);
        SpanGuard { site: Some(self), start_ns }
    }

    /// Records a complete span on the **modeled** timeline: the platform
    /// model says this region spans `[start_ns, start_ns + dur_ns)` of
    /// simulated time. Deterministic across hosts and thread counts.
    #[inline]
    pub fn complete_modeled(&'static self, start_ns: u64, dur_ns: u64) {
        if !crate::enabled() {
            return;
        }
        let state = self.state();
        recorder::record(state.name_id, EventKind::Complete, Clock::Modeled, start_ns, dur_ns);
        state.spans.incr();
        state.modeled_ns.record(dur_ns);
    }

    /// Records a zero-duration wall-clock marker (a fault fired, a
    /// request was shed, ...).
    #[inline]
    pub fn instant(&'static self) {
        if !crate::enabled() {
            return;
        }
        let state = self.state();
        recorder::record(state.name_id, EventKind::Instant, Clock::Wall, recorder::wall_ns(), 0);
    }
}

/// RAII guard from [`SpanSite::enter`]; records the end event (and the
/// span's wall-duration histogram sample) on drop.
pub struct SpanGuard {
    site: Option<&'static SpanSite>,
    start_ns: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(site) = self.site else { return };
        let state = site.state();
        let end_ns = recorder::wall_ns();
        recorder::record(state.name_id, EventKind::End, Clock::Wall, end_ns, 0);
        state.spans.incr();
        state.wall_ns.record(end_ns.saturating_sub(self.start_ns));
    }
}

/// Opens a wall-clock span at a name chosen at runtime (e.g. a
/// per-experiment slug). The name must be `'static` — intern it once,
/// not per call, when the set of names is dynamic.
///
/// Side-metrics (`<name>.spans`, `<name>.wall_ns`) are registered like
/// a [`MetricClass::Deterministic`] site's: the *count* of experiment
/// runs is deterministic even though their wall durations are not.
#[must_use]
pub fn span_dyn(name: &'static str) -> SpanGuard {
    use std::collections::HashMap;
    use std::sync::Mutex;

    if !crate::enabled() {
        return SpanGuard { site: None, start_ns: 0 };
    }
    static SITES: Mutex<Option<HashMap<&'static str, &'static SpanSite>>> = Mutex::new(None);
    let site = {
        let mut sites = SITES.lock().expect("dynamic span table poisoned");
        let map = sites.get_or_insert_with(HashMap::new);
        *map.entry(name)
            .or_insert_with(|| Box::leak(Box::new(SpanSite::new(name, MetricClass::Deterministic))))
    };
    site.enter()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Clock, EventKind};

    #[test]
    fn spans_record_pairs_and_metrics() {
        let _guard = crate::tests::GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::enable();
        crate::reset();

        static OUTER: SpanSite = SpanSite::new("test.outer", MetricClass::Deterministic);
        static INNER: SpanSite = SpanSite::new("test.inner", MetricClass::Deterministic);
        {
            let _o = OUTER.enter();
            let _i = INNER.enter();
        }
        OUTER.complete_modeled(10, 5);
        OUTER.instant();

        let drained = crate::recorder::drain();
        let outer: Vec<_> = drained.events.iter().filter(|e| e.name == "test.outer").collect();
        assert_eq!(outer.iter().filter(|e| e.kind == EventKind::Begin).count(), 1);
        assert_eq!(outer.iter().filter(|e| e.kind == EventKind::End).count(), 1);
        assert_eq!(
            outer
                .iter()
                .filter(|e| e.kind == EventKind::Complete && e.clock == Clock::Modeled)
                .count(),
            1
        );
        assert_eq!(outer.iter().filter(|e| e.kind == EventKind::Instant).count(), 1);

        // Nesting is well-formed: inner closes before outer on the same
        // thread (events are (tid, seq)-ordered).
        let seqs: Vec<_> = drained
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Begin || e.kind == EventKind::End)
            .map(|e| (e.name, e.kind))
            .collect();
        assert_eq!(
            seqs,
            vec![
                ("test.outer", EventKind::Begin),
                ("test.inner", EventKind::Begin),
                ("test.inner", EventKind::End),
                ("test.outer", EventKind::End),
            ]
        );

        let snap = crate::snapshot();
        assert_eq!(snap.counter("test.outer.spans"), Some(2)); // wall + modeled
        assert_eq!(snap.counter("test.inner.spans"), Some(1));
        crate::disable();
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = crate::tests::GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::disable();
        crate::reset();
        static QUIET: SpanSite = SpanSite::new("test.quiet", MetricClass::Deterministic);
        {
            let _s = QUIET.enter();
        }
        QUIET.complete_modeled(0, 1);
        QUIET.instant();
        let _d = span_dyn("test.quiet_dyn");
        drop(_d);
        assert!(crate::recorder::drain().events.iter().all(|e| !e.name.starts_with("test.quiet")));
        assert_eq!(crate::snapshot().counter("test.quiet.spans").unwrap_or(0), 0);
    }
}
