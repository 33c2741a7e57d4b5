//! Exporters: chrome://tracing JSON, a flat text report, and a
//! machine-readable `key = value` dump — plus a structural validator
//! for the emitted chrome-trace shape (used by CI's trace-smoke job).
//!
//! Chrome-trace layout: wall-clock spans land on `pid 0` ("wall"), one
//! track per recording thread, as `B`/`E` event pairs; modeled-time
//! spans land on `pid 1` ("modeled") as `X` complete events so the
//! simulated timeline reads independently of host timing. Timestamps
//! are microseconds with nanosecond precision (`ts` fractional). The
//! files open directly in `chrome://tracing` and
//! <https://ui.perfetto.dev>.

use crate::metrics::{MetricValue, MetricsSnapshot};
use crate::recorder::{self, Clock, Drained, Event, EventKind};
use std::collections::HashMap;
use std::fmt::Write as _;

const WALL_PID: u64 = 0;
const MODELED_PID: u64 = 1;

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Pairs up each thread's wall `B`/`E` events, turning the flight
/// recorder's possibly-truncated stream into well-formed spans:
/// an `E` with no open `B` (its begin was overwritten) is dropped, and
/// a `B` still open at the end of the stream is closed at the thread's
/// last seen timestamp. Returns `(begin, end)` event-index pairs.
fn pair_wall_spans(events: &[Event]) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    let mut stacks: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut last_ts: HashMap<u64, u64> = HashMap::new();
    let mut synthetic_ends: Vec<(usize, u64)> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        if e.clock != Clock::Wall {
            continue;
        }
        let ts = last_ts.entry(e.tid).or_insert(0);
        *ts = (*ts).max(e.ts_ns);
        match e.kind {
            EventKind::Begin => stacks.entry(e.tid).or_default().push(i),
            EventKind::End => {
                // Close the innermost open span with the same name;
                // mismatched ends (begin lost to ring wrap) are dropped.
                if let Some(stack) = stacks.get_mut(&e.tid) {
                    if let Some(pos) = stack.iter().rposition(|&bi| events[bi].name == e.name) {
                        let bi = stack.remove(pos);
                        pairs.push((bi, i));
                    }
                }
            }
            _ => {}
        }
    }
    // Begins never closed (end not yet recorded, or lost): synthesize a
    // zero-extent close at the thread's last timestamp.
    for (tid, stack) in stacks {
        let ts = last_ts.get(&tid).copied().unwrap_or(0);
        for bi in stack {
            synthetic_ends.push((bi, ts));
        }
    }
    for (bi, _ts) in synthetic_ends {
        pairs.push((bi, bi)); // degenerate: end = begin (zero duration)
    }
    pairs
}

/// Renders everything recorded so far as chrome://tracing "JSON Array
/// Format" (open in `chrome://tracing` or Perfetto).
#[must_use]
pub fn chrome_trace_json() -> String {
    let drained = recorder::drain();
    chrome_trace_json_from(&drained)
}

fn chrome_trace_json_from(drained: &Drained) -> String {
    let mut lines: Vec<String> = Vec::new();
    for pid in [WALL_PID, MODELED_PID] {
        let name = if pid == WALL_PID { "wall" } else { "modeled" };
        lines.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{name}\"}}}}"
        ));
    }
    let mut named_tids: Vec<u64> =
        drained.events.iter().filter(|e| e.clock == Clock::Wall).map(|e| e.tid).collect();
    named_tids.sort_unstable();
    named_tids.dedup();
    for tid in named_tids {
        lines.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{WALL_PID},\"tid\":{tid},\
             \"args\":{{\"name\":\"worker {tid}\"}}}}"
        ));
    }

    // Wall B/E pairs, sanitized, flattened to individual events and
    // sorted by (tid, ts, seq, begin-before-end) so each track's stream
    // is monotone and LIFO-nested even after ring wrap.
    let pairs = pair_wall_spans(&drained.events);
    let mut wall: Vec<(u64, u64, u64, u8, String)> = Vec::with_capacity(pairs.len() * 2);
    for (bi, ei) in pairs {
        let b = &drained.events[bi];
        let end = &drained.events[ei];
        let end_ts = end.ts_ns.max(b.ts_ns);
        wall.push((
            b.tid,
            b.ts_ns,
            b.seq,
            0,
            format!(
                "{{\"name\":\"{}\",\"cat\":\"wall\",\"ph\":\"B\",\"pid\":{WALL_PID},\
                 \"tid\":{},\"ts\":{}}}",
                json_escape(b.name),
                b.tid,
                us(b.ts_ns)
            ),
        ));
        wall.push((
            b.tid,
            end_ts,
            end.seq,
            1,
            format!(
                "{{\"name\":\"{}\",\"cat\":\"wall\",\"ph\":\"E\",\"pid\":{WALL_PID},\
                 \"tid\":{},\"ts\":{}}}",
                json_escape(b.name),
                b.tid,
                us(end_ts)
            ),
        ));
    }
    wall.sort_by_key(|&(tid, ts, seq, rank, _)| (tid, ts, seq, rank));
    lines.extend(wall.into_iter().map(|(_, _, _, _, line)| line));

    // Instants and modeled complete events.
    let mut rest: Vec<&Event> = drained
        .events
        .iter()
        .filter(|e| {
            e.kind == EventKind::Instant
                || (e.kind == EventKind::Complete && e.clock == Clock::Modeled)
        })
        .collect();
    rest.sort_by_key(|e| (e.tid, e.ts_ns, e.seq));
    for e in rest {
        match e.kind {
            EventKind::Instant => lines.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"instant\",\"ph\":\"i\",\"pid\":{WALL_PID},\
                 \"tid\":{},\"ts\":{},\"s\":\"t\"}}",
                json_escape(e.name),
                e.tid,
                us(e.ts_ns)
            )),
            EventKind::Complete => lines.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"modeled\",\"ph\":\"X\",\"pid\":{MODELED_PID},\
                 \"tid\":{},\"ts\":{},\"dur\":{}}}",
                json_escape(e.name),
                e.tid,
                us(e.ts_ns),
                us(e.dur_ns)
            )),
            _ => {}
        }
    }

    let mut out = String::from("[\n");
    out.push_str(&lines.join(",\n"));
    out.push_str("\n]\n");
    out
}

/// A human-readable flat report: enabled state, recorder totals, and
/// every registered metric.
#[must_use]
pub fn text_report() -> String {
    let drained = recorder::drain();
    let snap = crate::snapshot();
    let mut out = String::new();
    let _ = writeln!(out, "== m7-trace report ==");
    let _ = writeln!(
        out,
        "recorder: {} events across {} thread buffers ({} dropped to ring wrap)",
        drained.events.len(),
        drained.threads,
        drained.dropped
    );
    if snap.entries.is_empty() {
        let _ = writeln!(out, "metrics: (none registered)");
        return out;
    }
    let _ = writeln!(out, "metrics ({}):", snap.entries.len());
    for e in &snap.entries {
        let class = match e.class {
            crate::MetricClass::Deterministic => "det ",
            crate::MetricClass::Diagnostic => "diag",
        };
        match &e.value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "  [{class}] {:<40} {v}", e.name);
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "  [{class}] {:<40} {v} (gauge)", e.name);
            }
            MetricValue::Histogram(h) => {
                let mean = if h.count == 0 { 0.0 } else { h.sum as f64 / h.count as f64 };
                let _ = writeln!(
                    out,
                    "  [{class}] {:<40} n={} sum={} mean={mean:.1}",
                    e.name, h.count, h.sum
                );
            }
        }
    }
    out
}

/// A machine-readable `key = value` dump of every registered metric,
/// sorted by key, plus `trace.dropped_events`. Histograms expand to
/// `<name>.count`, `<name>.sum`, and one `<name>.b<i>` line per nonzero
/// bucket. Grep-friendly for CI.
#[must_use]
pub fn kv_dump() -> String {
    kv_dump_from(&crate::snapshot(), recorder::drain().dropped)
}

fn kv_dump_from(snap: &MetricsSnapshot, dropped: u64) -> String {
    let mut lines: Vec<String> = Vec::new();
    for e in &snap.entries {
        match &e.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                lines.push(format!("{} = {v}", e.name));
            }
            MetricValue::Histogram(h) => {
                lines.push(format!("{}.count = {}", e.name, h.count));
                lines.push(format!("{}.sum = {}", e.name, h.sum));
                for &(i, n) in &h.buckets {
                    lines.push(format!("{}.b{i} = {n}", e.name));
                }
            }
        }
    }
    lines.push(format!("trace.dropped_events = {dropped}"));
    lines.sort();
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// Summary returned by a successful [`validate_chrome_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceSummary {
    /// Total events parsed.
    pub events: usize,
    /// Matched `B`/`E` span pairs.
    pub wall_spans: usize,
    /// `X` complete events (modeled timeline).
    pub modeled_spans: usize,
    /// `i` instant markers.
    pub instants: usize,
}

// ---- minimal JSON reader (enough for the chrome-trace array shape) ----

/// A parsed JSON value from the crate's minimal zero-dependency reader.
///
/// Public so downstream harnesses can structurally validate their own
/// machine-readable output (e.g. the m7-bench `BENCH_roofline.json`
/// shape) with the same parser that backs [`validate_chrome_trace`],
/// without an external JSON dependency. Parse documents with [`parse_json`].
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (read as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array of values.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Field lookup on an object; `None` for other variants or a missing
    /// key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Arrays and objects nested deeper than this are rejected, so a hostile
/// document cannot exhaust the parser's stack.
const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document (rejecting trailing data).
///
/// Total and linear in the input length: nesting past 128 levels and
/// numbers that overflow `f64` (such as `1e999`) are errors.
///
/// # Errors
///
/// Returns a byte-offset description of the first syntax error.
pub fn parse_json(json: &str) -> Result<Json, String> {
    let mut parser = Parser::new(json);
    let doc = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing data after document"));
    }
    Ok(doc)
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Self { src: s, bytes: s.as_bytes(), pos: 0, depth: 0 }
    }

    /// Opens one array or object level.
    fn enter(&mut self, open: u8) -> Result<(), String> {
        self.expect(open)?;
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        Ok(())
    }

    fn err(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {text}")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|v| v.is_finite())
            .map(Json::Num)
            .ok_or_else(|| self.err("invalid number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self.bytes.get(self.pos).ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self.bytes.get(self.pos).ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Copy the run up to the next quote or backslash in one
                    // slice. Both are ASCII, so the run ends on a char
                    // boundary.
                    let start = self.pos - 1;
                    while self.bytes.get(self.pos).is_some_and(|b| !matches!(b, b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run =
                        self.src.get(start..self.pos).ok_or_else(|| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.enter(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected , or ] in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.enter(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected , or } in object")),
            }
        }
    }
}

/// Structurally validates chrome-trace JSON produced by
/// [`chrome_trace_json`]: the document must be a JSON array of event
/// objects; every event needs `ph`/`pid`/`tid` (and `name`, `ts` for
/// non-metadata phases); `B`/`E` events must pair up LIFO per
/// `(pid, tid)` with non-decreasing timestamps; `X` durations must be
/// non-negative.
///
/// # Errors
///
/// Returns a description of the first structural violation found.
pub fn validate_chrome_trace(json: &str) -> Result<TraceSummary, String> {
    let doc = parse_json(json)?;
    let Json::Arr(events) = doc else {
        return Err("top level must be a JSON array".into());
    };

    let mut summary = TraceSummary { events: events.len(), ..TraceSummary::default() };
    let mut stacks: HashMap<(u64, u64), Vec<(String, f64)>> = HashMap::new();
    let mut last_ts: HashMap<(u64, u64), f64> = HashMap::new();

    for (i, e) in events.iter().enumerate() {
        let at = |msg: &str| format!("event {i}: {msg}");
        let ph =
            e.get("ph").and_then(Json::as_str).ok_or_else(|| at("missing string field \"ph\""))?;
        let pid = e.get("pid").and_then(Json::as_num).ok_or_else(|| at("missing \"pid\""))?;
        let tid = e.get("tid").and_then(Json::as_num).ok_or_else(|| at("missing \"tid\""))?;
        if ph == "M" {
            continue;
        }
        let name = e.get("name").and_then(Json::as_str).ok_or_else(|| at("missing \"name\""))?;
        let ts = e.get("ts").and_then(Json::as_num).ok_or_else(|| at("missing \"ts\""))?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(at("\"ts\" must be a finite non-negative number"));
        }
        let track = (pid as u64, tid as u64);
        let prev = last_ts.entry(track).or_insert(ts);
        if ph == "B" || ph == "E" {
            if ts < *prev {
                return Err(at(&format!(
                    "timestamp went backwards on pid {} tid {} ({ts} < {prev})",
                    track.0, track.1
                )));
            }
            *prev = ts;
        }
        match ph {
            "B" => stacks.entry(track).or_default().push((name.to_string(), ts)),
            "E" => {
                let (open_name, open_ts) = stacks
                    .get_mut(&track)
                    .and_then(Vec::pop)
                    .ok_or_else(|| at(&format!("\"E\" for {name:?} with no open \"B\"")))?;
                if open_name != name {
                    return Err(at(&format!(
                        "\"E\" for {name:?} does not match open span {open_name:?}"
                    )));
                }
                if ts < open_ts {
                    return Err(at("span ends before it begins"));
                }
                summary.wall_spans += 1;
            }
            "X" => {
                let dur = e
                    .get("dur")
                    .and_then(Json::as_num)
                    .ok_or_else(|| at("\"X\" missing \"dur\""))?;
                if !dur.is_finite() || dur < 0.0 {
                    return Err(at("\"X\" duration must be non-negative"));
                }
                summary.modeled_spans += 1;
            }
            "i" | "I" => summary.instants += 1,
            other => return Err(at(&format!("unknown phase {other:?}"))),
        }
    }
    for ((pid, tid), stack) in stacks {
        if let Some((name, _)) = stack.last() {
            return Err(format!(
                "unclosed \"B\" span {name:?} on pid {pid} tid {tid} at end of trace"
            ));
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricClass;
    use crate::span::SpanSite;

    #[test]
    fn exported_trace_validates() {
        let _guard = crate::tests::GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::enable();
        crate::reset();
        static A: SpanSite = SpanSite::new("export.a", MetricClass::Deterministic);
        static B: SpanSite = SpanSite::new("export.b", MetricClass::Deterministic);
        {
            let _a = A.enter();
            let _b = B.enter();
        }
        A.complete_modeled(100, 40);
        B.instant();
        let json = chrome_trace_json();
        let summary = validate_chrome_trace(&json).expect("emitted trace must validate");
        assert!(summary.wall_spans >= 2);
        assert!(summary.modeled_spans >= 1);
        assert!(summary.instants >= 1);
        crate::disable();
    }

    #[test]
    fn kv_dump_is_sorted_and_expands_histograms() {
        let _guard = crate::tests::GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::enable();
        crate::reset();
        crate::registry().counter("export.kv.count_a", MetricClass::Deterministic).add(7);
        let h = crate::registry().histogram("export.kv.hist", MetricClass::Deterministic);
        h.record(0);
        h.record(9);
        let dump = kv_dump();
        assert!(dump.contains("export.kv.count_a = 7\n"));
        assert!(dump.contains("export.kv.hist.count = 2\n"));
        assert!(dump.contains("export.kv.hist.sum = 9\n"));
        assert!(dump.contains("export.kv.hist.b0 = 1\n"));
        assert!(dump.contains("trace.dropped_events = "));
        let lines: Vec<&str> = dump.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
        crate::disable();
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("[{\"ph\":\"B\"}]").is_err());
        // E without B.
        let orphan = r#"[{"name":"x","ph":"E","pid":0,"tid":0,"ts":1.0}]"#;
        assert!(validate_chrome_trace(orphan).is_err());
        // Backwards timestamps.
        let backwards = r#"[
            {"name":"x","ph":"B","pid":0,"tid":0,"ts":5.0},
            {"name":"x","ph":"E","pid":0,"tid":0,"ts":1.0}
        ]"#;
        assert!(validate_chrome_trace(backwards).is_err());
        // Unclosed span.
        let unclosed = r#"[{"name":"x","ph":"B","pid":0,"tid":0,"ts":1.0}]"#;
        assert!(validate_chrome_trace(unclosed).is_err());
        // Well-formed.
        let good = r#"[
            {"name":"proc","ph":"M","pid":0,"tid":0,"args":{"name":"wall"}},
            {"name":"x","ph":"B","pid":0,"tid":0,"ts":1.0},
            {"name":"y","ph":"B","pid":0,"tid":0,"ts":2.0},
            {"name":"y","ph":"E","pid":0,"tid":0,"ts":3.0},
            {"name":"x","ph":"E","pid":0,"tid":0,"ts":4.0},
            {"name":"m","ph":"X","pid":1,"tid":0,"ts":0.0,"dur":2.5},
            {"name":"i","ph":"i","pid":0,"tid":0,"ts":4.0,"s":"t"}
        ]"#;
        let s = validate_chrome_trace(good).unwrap();
        assert_eq!((s.events, s.wall_spans, s.modeled_spans, s.instants), (7, 2, 1, 1));
    }

    #[test]
    fn text_report_mentions_metrics() {
        let _guard = crate::tests::GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::enable();
        crate::reset();
        crate::registry().counter("export.report.c", MetricClass::Diagnostic).add(3);
        let report = text_report();
        assert!(report.contains("== m7-trace report =="));
        assert!(report.contains("export.report.c"));
        crate::disable();
    }
}
