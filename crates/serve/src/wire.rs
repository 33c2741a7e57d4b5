//! The loopback wire protocol: newline-delimited `key = value` lines,
//! one blank line terminating each message — the same line-oriented
//! format as `m7_arch::spec` (no JSON dependency exists in this
//! workspace, and none is needed).
//!
//! ```text
//! op = eval
//! workload = mission
//! values = 1 20 0.25 12
//! seed = 42
//!
//! ```
//!
//! Floats are rendered with Rust's shortest round-trip formatting, so a
//! cost parsed back from the wire is bit-identical to the cost computed
//! by the server.

use crate::introspect::ServerStats;
use crate::key::EvalRequest;

/// A request message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Evaluate one design.
    Eval(EvalRequest),
    /// Report full live server telemetry ([`ServerStats`]).
    Telemetry,
    /// Sentinel: shut the server down cleanly.
    Shutdown,
}

/// A response message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The evaluation result; `cached` is `true` when the cache (or an
    /// in-flight duplicate) answered it.
    Cost {
        /// The objective value.
        cost: f64,
        /// Whether an evaluation was avoided.
        cached: bool,
    },
    /// Live server telemetry snapshot (boxed: [`ServerStats`] is by far
    /// the widest payload, and responses are moved around by value).
    Telemetry(Box<ServerStats>),
    /// The pending queue was full; the request was shed, not queued.
    Busy,
    /// Acknowledgement of a shutdown sentinel.
    Stopping,
    /// The request could not be served; the message is one line.
    Error(String),
}

/// A protocol parse error with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// 1-based line of the offending input (0 for message-level errors).
    pub line: usize,
    /// What went wrong.
    pub kind: WireErrorKind,
}

/// The kinds of protocol errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireErrorKind {
    /// A line was not of the form `key = value`.
    MalformedLine,
    /// The key is not recognized.
    UnknownKey(String),
    /// `op = …` named an unknown operation.
    UnknownOp(String),
    /// The value could not be parsed for its key.
    InvalidValue {
        /// The key whose value failed.
        key: String,
        /// The raw value text.
        value: String,
    },
    /// The mandatory `op` field was missing.
    MissingOp,
    /// An `op = eval` request was missing a required field.
    MissingField(&'static str),
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match &self.kind {
            WireErrorKind::MalformedLine => {
                write!(f, "line {}: expected `key = value`", self.line)
            }
            WireErrorKind::UnknownKey(k) => write!(f, "line {}: unknown key `{k}`", self.line),
            WireErrorKind::UnknownOp(op) => write!(f, "line {}: unknown op `{op}`", self.line),
            WireErrorKind::InvalidValue { key, value } => {
                write!(f, "line {}: invalid value `{value}` for `{key}`", self.line)
            }
            WireErrorKind::MissingOp => write!(f, "request is missing the `op` field"),
            WireErrorKind::MissingField(field) => {
                write!(f, "eval request is missing the `{field}` field")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Splits a message into `(line_no, key, value)` fields, ignoring blank
/// lines and `#` comments.
fn fields(text: &str) -> Result<Vec<(usize, &str, &str)>, WireError> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(WireError { line: line_no, kind: WireErrorKind::MalformedLine });
        };
        out.push((line_no, key.trim(), value.trim()));
    }
    Ok(out)
}

fn parse_f64(line: usize, key: &str, value: &str) -> Result<f64, WireError> {
    value.parse::<f64>().map_err(|_| WireError {
        line,
        kind: WireErrorKind::InvalidValue { key: key.to_string(), value: value.to_string() },
    })
}

fn parse_u64(line: usize, key: &str, value: &str) -> Result<u64, WireError> {
    value.parse::<u64>().map_err(|_| WireError {
        line,
        kind: WireErrorKind::InvalidValue { key: key.to_string(), value: value.to_string() },
    })
}

/// Parses one request message.
///
/// # Errors
///
/// Returns a positioned [`WireError`] on malformed lines, unknown keys
/// or ops, bad numbers, or missing mandatory fields.
pub(crate) fn parse_request(text: &str) -> Result<Request, WireError> {
    let mut op: Option<(usize, String)> = None;
    let mut workload = String::from("mission");
    let mut values: Option<Vec<f64>> = None;
    let mut seed: Option<u64> = None;
    for (line, key, value) in fields(text)? {
        match key {
            "op" => op = Some((line, value.to_string())),
            "workload" => workload = value.to_string(),
            "values" => {
                let mut parsed = Vec::new();
                for word in value.split_whitespace() {
                    parsed.push(parse_f64(line, key, word)?);
                }
                values = Some(parsed);
            }
            "seed" => seed = Some(parse_u64(line, key, value)?),
            other => {
                return Err(WireError { line, kind: WireErrorKind::UnknownKey(other.to_string()) })
            }
        }
    }
    let Some((op_line, op)) = op else {
        return Err(WireError { line: 0, kind: WireErrorKind::MissingOp });
    };
    match op.as_str() {
        "eval" => {
            let values =
                values.ok_or(WireError { line: 0, kind: WireErrorKind::MissingField("values") })?;
            let seed =
                seed.ok_or(WireError { line: 0, kind: WireErrorKind::MissingField("seed") })?;
            Ok(Request::Eval(EvalRequest { workload, values, seed }))
        }
        "telemetry" => Ok(Request::Telemetry),
        "shutdown" => Ok(Request::Shutdown),
        other => {
            Err(WireError { line: op_line, kind: WireErrorKind::UnknownOp(other.to_string()) })
        }
    }
}

/// Renders a request, blank-line terminated.
#[must_use]
pub fn format_request(request: &Request) -> String {
    match request {
        Request::Eval(eval) => {
            let values: Vec<String> = eval.values.iter().map(|v| format!("{v}")).collect();
            format!(
                "op = eval\nworkload = {}\nvalues = {}\nseed = {}\n\n",
                eval.workload,
                values.join(" "),
                eval.seed
            )
        }
        Request::Telemetry => "op = telemetry\n\n".to_string(),
        Request::Shutdown => "op = shutdown\n\n".to_string(),
    }
}

/// Parses one response message.
///
/// # Errors
///
/// Returns a positioned [`WireError`] on malformed or incomplete
/// responses.
pub fn parse_response(text: &str) -> Result<Response, WireError> {
    let mut status: Option<String> = None;
    let mut cost: Option<f64> = None;
    let mut cached = false;
    let mut stopping = false;
    let mut error: Option<String> = None;
    let mut telemetry: Vec<(String, u64)> = Vec::new();
    for (line, key, value) in fields(text)? {
        if let Some(name) = key.strip_prefix("telemetry.") {
            telemetry.push((name.to_string(), parse_u64(line, key, value)?));
            continue;
        }
        match key {
            "status" => status = Some(value.to_string()),
            "cost" => cost = Some(parse_f64(line, key, value)?),
            "cached" => cached = value == "true",
            "stopping" => stopping = value == "true",
            "error" => error = Some(value.to_string()),
            other => {
                return Err(WireError { line, kind: WireErrorKind::UnknownKey(other.to_string()) })
            }
        }
    }
    match status.as_deref() {
        Some("ok") if stopping => Ok(Response::Stopping),
        Some("ok") => {
            if let Some(cost) = cost {
                Ok(Response::Cost { cost, cached })
            } else if !telemetry.is_empty() {
                Ok(Response::Telemetry(Box::new(ServerStats::from_pairs(
                    telemetry.iter().map(|(k, v)| (k.as_str(), *v)),
                ))))
            } else {
                Err(WireError { line: 0, kind: WireErrorKind::MissingField("cost") })
            }
        }
        Some("busy") => Ok(Response::Busy),
        Some("error") => {
            Ok(Response::Error(error.unwrap_or_else(|| "unspecified error".to_string())))
        }
        Some(other) => Err(WireError {
            line: 0,
            kind: WireErrorKind::InvalidValue { key: "status".into(), value: other.into() },
        }),
        None => Err(WireError { line: 0, kind: WireErrorKind::MissingField("status") }),
    }
}

/// Renders a response, blank-line terminated. Error text is flattened to
/// one line so it cannot forge extra protocol lines.
#[must_use]
pub(crate) fn format_response(response: &Response) -> String {
    match response {
        Response::Cost { cost, cached } => {
            format!("status = ok\ncost = {cost}\ncached = {cached}\n\n")
        }
        Response::Telemetry(stats) => {
            let mut out = String::from("status = ok\n");
            for (name, value) in stats.pairs() {
                out.push_str(&format!("telemetry.{name} = {value}\n"));
            }
            out.push('\n');
            out
        }
        Response::Busy => "status = busy\n\n".to_string(),
        Response::Stopping => "status = ok\nstopping = true\n\n".to_string(),
        Response::Error(msg) => {
            let one_line: String =
                msg.chars().map(|c| if c == '\n' || c == '\r' { ' ' } else { c }).collect();
            format!("status = error\nerror = {one_line}\n\n")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_request_round_trips() {
        let req = Request::Eval(EvalRequest::new("mission", vec![1.0, 20.5, 0.25], 42));
        let text = format_request(&req);
        assert_eq!(parse_request(&text).unwrap(), req);
    }

    #[test]
    fn control_requests_round_trip() {
        for req in [Request::Telemetry, Request::Shutdown] {
            assert_eq!(parse_request(&format_request(&req)).unwrap(), req);
        }
    }

    #[test]
    fn telemetry_response_round_trips() {
        let stats = ServerStats {
            uptime_ms: 42,
            connections: 2,
            pending: 1,
            requests: 1000,
            shed: 3,
            reaped: 1,
            hot_hits: 900,
            misses: 100,
            insertions: 100,
            ..ServerStats::default()
        };
        let text = format_response(&Response::Telemetry(Box::new(stats.clone())));
        assert!(text.contains("telemetry.requests = 1000"), "{text}");
        assert_eq!(parse_response(&text).unwrap(), Response::Telemetry(Box::new(stats)));
    }

    #[test]
    fn cost_response_round_trips_bit_exactly() {
        // Shortest round-trip float formatting: the parsed cost is the
        // same f64, bit for bit.
        for cost in [1.0 / 3.0, f64::MIN_POSITIVE, -0.0, 1e300, 123.456_789_012_345_67] {
            let resp = Response::Cost { cost, cached: true };
            let parsed = parse_response(&format_response(&resp)).unwrap();
            let Response::Cost { cost: parsed_cost, cached } = parsed else { panic!() };
            assert_eq!(parsed_cost.to_bits(), cost.to_bits());
            assert!(cached);
        }
    }

    #[test]
    fn busy_stopping_error_round_trip() {
        for resp in [
            Response::Busy,
            Response::Stopping,
            Response::Error("line 2: unknown key `warp`".to_string()),
        ] {
            assert_eq!(parse_response(&format_response(&resp)).unwrap(), resp);
        }
    }

    #[test]
    fn parse_errors_are_positioned() {
        let err = parse_request("op = eval\nnot a field\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.kind, WireErrorKind::MalformedLine);
        assert!(err.to_string().contains("line 2"));

        let err = parse_request("op = warp\n").unwrap_err();
        assert!(matches!(err.kind, WireErrorKind::UnknownOp(ref op) if op == "warp"));

        let err = parse_request("values = 1 2\nseed = 3\n").unwrap_err();
        assert_eq!(err.kind, WireErrorKind::MissingOp);

        let err = parse_request("op = eval\nseed = 3\n").unwrap_err();
        assert_eq!(err.kind, WireErrorKind::MissingField("values"));

        let err = parse_request("op = eval\nvalues = one two\nseed = 3\n").unwrap_err();
        assert!(matches!(err.kind, WireErrorKind::InvalidValue { .. }));
    }

    #[test]
    fn retired_stats_op_is_unknown() {
        // `telemetry` carries the cache counters `op = stats` answered.
        let err = parse_request("op = stats\n\n").unwrap_err();
        assert_eq!(err.kind, WireErrorKind::UnknownOp("stats".to_string()));
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let req = parse_request("# a comment\n\nop = telemetry  # trailing\n\n").unwrap();
        assert_eq!(req, Request::Telemetry);
    }

    #[test]
    fn error_responses_cannot_forge_protocol_lines() {
        let resp = Response::Error("bad\nstatus = ok".to_string());
        let text = format_response(&resp);
        let parsed = parse_response(&text).unwrap();
        assert!(matches!(parsed, Response::Error(ref msg) if !msg.contains('\n')));
    }
}
