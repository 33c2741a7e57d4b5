//! Benchmark-side spans around calls into the program's layers.
//!
//! A span records its name, start, end, parent span and request id. Spans
//! are kept in memory while the benchmark runs and written out as JSON
//! lines when it ends. Recording is off unless [`enable`] was called, and
//! an inert guard costs one atomic load.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u32,
    /// Enclosing span on the same thread, 0 for a root.
    pub parent: u32,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static CURRENT: Cell<u32> = const { Cell::new(0) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the benchmark's epoch.
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The epoch-relative nanosecond timestamp of `t`.
pub fn ns_at(t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(epoch()).as_nanos()).unwrap_or(u64::MAX)
}

pub fn enable(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; recorded when dropped.
pub struct Guard {
    name: &'static str,
    id: u32,
    parent: u32,
    req: u64,
    start_ns: u64,
}

/// Opens a span named `name` for request `req`, nested under the
/// thread's current span.
pub fn span(name: &'static str, req: u64) -> Guard {
    if !enabled() {
        return Guard { name, id: 0, parent: 0, req, start_ns: 0 };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT.with(|c| c.replace(id));
    Guard { name, id, parent, req, start_ns: now_ns() }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = now_ns();
        CURRENT.with(|c| c.set(self.parent));
        push(Span {
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
            id: self.id,
            parent: self.parent,
            req: self.req,
        });
    }
}

/// Records a span whose start and end were observed separately (an
/// asynchronous request), under the thread's current span.
pub fn record(name: &'static str, start_ns: u64, end_ns: u64, req: u64) {
    if !enabled() {
        return;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT.with(Cell::get);
    push(Span { name, start_ns, end_ns, id, parent, req });
}

fn push(span: Span) {
    SPANS.lock().expect("span buffer poisoned").push(span);
}

/// Every span recorded so far.
pub fn snapshot() -> Vec<Span> {
    SPANS.lock().expect("span buffer poisoned").clone()
}

/// Per-name totals: count, total and self time (total minus the time
/// covered by direct children).
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// The self-time table, one row per span name, plus the unattributed
/// remainder of `wall_ns` that no root span covers.
pub fn self_time_table(spans: &[Span], wall_ns: u64) -> String {
    let roots: u64 = spans.iter().filter(|s| s.parent == 0).map(Span::dur_ns).sum();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>9} {:>12} {:>12} {:>7}",
        "span", "count", "total_s", "self_s", "self%"
    );
    let wall = wall_ns.max(1) as f64;
    for (name, t) in totals(spans) {
        let _ = writeln!(
            out,
            "{:<28} {:>9} {:>12.6} {:>12.6} {:>6.2}%",
            name,
            t.count,
            t.total_ns as f64 * 1e-9,
            t.self_ns as f64 * 1e-9,
            t.self_ns as f64 / wall * 100.0
        );
    }
    let rest = wall_ns.saturating_sub(roots);
    let _ = writeln!(
        out,
        "{:<28} {:>9} {:>12} {:>12.6} {:>6.2}%",
        "(unattributed)",
        "",
        "",
        rest as f64 * 1e-9,
        rest as f64 / wall * 100.0
    );
    out
}

/// All spans as JSON lines.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"req\":{}}}",
            s.name, s.start_ns, s.end_ns, s.id, s.parent, s.req
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = [
            Span { name: "a", start_ns: 0, end_ns: 100, id: 1, parent: 0, req: 0 },
            Span { name: "b", start_ns: 10, end_ns: 40, id: 2, parent: 1, req: 0 },
            Span { name: "c", start_ns: 12, end_ns: 20, id: 3, parent: 2, req: 0 },
        ];
        let t = totals(&spans);
        assert_eq!(t["a"].self_ns, 70);
        assert_eq!(t["b"].self_ns, 22);
        assert_eq!(t["c"].self_ns, 8);
        assert!(self_time_table(&spans, 150).contains("(unattributed)"));
    }
}
