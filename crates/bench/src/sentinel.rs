//! Regression sentinel: a tolerance-aware diff over two metric/bench
//! JSON documents.
//!
//! The suite's benchmark artifacts (`BENCH_roofline.json`,
//! `BENCH_serve_latency.json`, exported metric dumps) are plain JSON
//! with numeric leaves. The sentinel flattens a baseline and a candidate
//! document to dotted paths and compares leaf by leaf under **per-class
//! tolerance rules**, mirroring the m7-trace metric split:
//!
//! - Paths under a `deterministic` object must match **exactly** — they
//!   are pure functions of (seed, config) and any drift is a
//!   correctness regression, not noise.
//! - Other numeric paths are **diagnostic** (wall-clock, host
//!   dependent): a regression is only flagged when the value moves in
//!   its *worse* direction by more than the configured ratio. The worse
//!   direction is inferred from the metric name (`_ns`/`misses`/
//!   `errors`/… are worse when higher; `gflops`/`hits`/`coverage`/…
//!   worse when lower; unclassified diagnostic paths are informational
//!   only).
//! - A path present in the baseline but missing from the candidate is
//!   always a regression (schema drift hides losses); new paths in the
//!   candidate are allowed (forward compat).
//!
//! [`compare`] returns a [`SentinelReport`]; `examples/bench_sentinel.rs`
//! wires it to `--check BASELINE CANDIDATE` with a non-zero exit on any
//! regression, which is what CI runs.

use std::fmt::Write as _;

use m7_trace::Json;

/// Default allowed worsening ratio for diagnostic metrics: candidate
/// may be up to `1 + ratio` times worse than baseline. The default is
/// deliberately generous (5.0 ⇒ 6× worse) so cross-host CI runs stay
/// quiet while order-of-magnitude regressions still trip.
pub const DEFAULT_DIAG_RATIO: f64 = 5.0;

/// Sentinel tuning.
#[derive(Debug, Clone)]
pub struct SentinelConfig {
    /// Allowed fractional worsening for diagnostic metrics (see
    /// [`DEFAULT_DIAG_RATIO`]).
    pub diag_ratio: f64,
}

impl Default for SentinelConfig {
    fn default() -> Self {
        Self { diag_ratio: DEFAULT_DIAG_RATIO }
    }
}

/// How one flattened path was judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance (or informational-only).
    Ok,
    /// Moved in the better direction beyond the tolerance — worth a
    /// look, never a failure.
    Improved,
    /// Moved in the worse direction beyond tolerance, drifted from an
    /// exact-match baseline, or vanished from the candidate.
    Regressed,
}

/// One compared leaf.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Dotted path into the document (arrays as numeric components).
    pub path: String,
    /// Baseline value.
    pub baseline: f64,
    /// Candidate value, or `None` when the path vanished.
    pub candidate: Option<f64>,
    /// The judgement.
    pub verdict: Verdict,
}

/// The full diff.
#[derive(Debug, Clone, Default)]
pub struct SentinelReport {
    /// Every baseline leaf, in document order.
    pub findings: Vec<Finding>,
}

impl SentinelReport {
    /// Paths judged regressed.
    #[must_use]
    pub fn regressions(&self) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.verdict == Verdict::Regressed).collect()
    }

    /// True when the candidate is acceptable.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.regressions().is_empty()
    }

    /// Human-readable summary, one line per non-Ok finding plus totals.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let tag = match f.verdict {
                Verdict::Ok => continue,
                Verdict::Improved => "improved",
                Verdict::Regressed => "REGRESSED",
            };
            match f.candidate {
                Some(c) => {
                    let _ = writeln!(out, "{tag:>9}  {}: {} -> {}", f.path, f.baseline, c);
                }
                None => {
                    let _ = writeln!(out, "{tag:>9}  {}: {} -> (missing)", f.path, f.baseline);
                }
            }
        }
        let regressed = self.regressions().len();
        let _ = writeln!(
            out,
            "sentinel: {} paths compared, {} regressed -> {}",
            self.findings.len(),
            regressed,
            if regressed == 0 { "PASS" } else { "FAIL" }
        );
        out
    }
}

/// Which way "worse" points for a diagnostic metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    HigherIsWorse,
    LowerIsWorse,
    Informational,
}

fn last_component(path: &str) -> &str {
    path.rsplit('.').next().unwrap_or(path)
}

fn direction(path: &str) -> Direction {
    const HIGHER_WORSE: [&str; 8] =
        ["_ns", "_ms", "latency", "misses", "errors", "torn", "shed", "reaped"];
    const LOWER_WORSE: [&str; 7] =
        ["gflops", "gbps", "throughput", "hits", "coverage", "frames", "speedup"];
    let leaf = last_component(path);
    if HIGHER_WORSE.iter().any(|m| leaf.contains(m)) {
        return Direction::HigherIsWorse;
    }
    if LOWER_WORSE.iter().any(|m| leaf.contains(m)) {
        return Direction::LowerIsWorse;
    }
    Direction::Informational
}

fn is_deterministic(path: &str) -> bool {
    path.split('.').any(|c| c == "deterministic")
}

fn flatten_into(prefix: &str, doc: &Json, out: &mut Vec<(String, f64)>) {
    let join = |key: &str| {
        if prefix.is_empty() {
            key.to_string()
        } else {
            format!("{prefix}.{key}")
        }
    };
    match doc {
        Json::Num(v) => out.push((prefix.to_string(), *v)),
        Json::Obj(fields) => {
            for (key, value) in fields {
                flatten_into(&join(key), value, out);
            }
        }
        Json::Arr(items) => {
            for (i, value) in items.iter().enumerate() {
                flatten_into(&join(&i.to_string()), value, out);
            }
        }
        // Strings, bools, and nulls are labels, not measurements.
        Json::Null | Json::Bool(_) | Json::Str(_) => {}
    }
}

/// Flattens a JSON document to dotted-path numeric leaves, in document
/// order.
#[must_use]
pub(crate) fn flatten(doc: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    flatten_into("", doc, &mut out);
    out
}

fn judge(path: &str, baseline: f64, candidate: f64, config: &SentinelConfig) -> Verdict {
    if is_deterministic(path) {
        return if baseline.to_bits() == candidate.to_bits() || baseline == candidate {
            Verdict::Ok
        } else {
            Verdict::Regressed
        };
    }
    let allowed = config.diag_ratio;
    // `worse`/`better` are fractional moves relative to the baseline
    // magnitude; a zero baseline compares absolutely (any move from an
    // exact zero is a full-ratio move).
    let scale = if baseline == 0.0 { 1.0 } else { baseline.abs() };
    let shift = (candidate - baseline) / scale;
    match direction(path) {
        Direction::Informational => Verdict::Ok,
        Direction::HigherIsWorse if shift > allowed => Verdict::Regressed,
        Direction::HigherIsWorse if shift < -allowed => Verdict::Improved,
        Direction::LowerIsWorse if -shift > allowed => Verdict::Regressed,
        Direction::LowerIsWorse if -shift < -allowed => Verdict::Improved,
        Direction::HigherIsWorse | Direction::LowerIsWorse => Verdict::Ok,
    }
}

/// Diffs `candidate` against `baseline` under `config`. See the module
/// docs for the rules.
#[must_use]
pub(crate) fn compare(
    baseline: &Json,
    candidate: &Json,
    config: &SentinelConfig,
) -> SentinelReport {
    let base = flatten(baseline);
    let cand = flatten(candidate);
    let findings = base
        .iter()
        .map(|(path, b)| match cand.iter().find(|(p, _)| p == path) {
            Some((_, c)) => Finding {
                path: path.clone(),
                baseline: *b,
                candidate: Some(*c),
                verdict: judge(path, *b, *c, config),
            },
            None => Finding {
                path: path.clone(),
                baseline: *b,
                candidate: None,
                verdict: Verdict::Regressed,
            },
        })
        .collect();
    SentinelReport { findings }
}

/// Parses and diffs two JSON documents.
///
/// # Errors
///
/// Returns the parse error (with which side failed) when either
/// document is not valid JSON.
pub fn compare_json(
    baseline: &str,
    candidate: &str,
    config: &SentinelConfig,
) -> Result<SentinelReport, String> {
    let base = m7_trace::parse_json(baseline).map_err(|e| format!("baseline: {e}"))?;
    let cand = m7_trace::parse_json(candidate).map_err(|e| format!("candidate: {e}"))?;
    Ok(compare(&base, &cand, config))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{
        "schema": "m7-bench/serve-latency/v1",
        "deterministic": {"requests": 100, "cache_hits": 80},
        "diagnostic": {"eval_p99_ns": 1000, "tier_hits": 50, "note_count": 3}
    }"#;

    fn check(candidate: &str) -> SentinelReport {
        compare_json(BASE, candidate, &SentinelConfig::default()).expect("valid json")
    }

    #[test]
    fn identical_documents_pass() {
        let report = check(BASE);
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.findings.len(), 5);
    }

    #[test]
    fn deterministic_drift_fails_exactly() {
        let drifted = BASE.replace("\"requests\": 100", "\"requests\": 101");
        let report = check(&drifted);
        assert!(!report.passed());
        assert_eq!(report.regressions()[0].path, "deterministic.requests");
    }

    #[test]
    fn diagnostic_latency_tolerates_noise_but_not_blowups() {
        // 3x worse: within the default 6x budget.
        let noisy = BASE.replace("\"eval_p99_ns\": 1000", "\"eval_p99_ns\": 3000");
        assert!(check(&noisy).passed());
        // 20x worse: regression.
        let blown = BASE.replace("\"eval_p99_ns\": 1000", "\"eval_p99_ns\": 20000");
        let report = check(&blown);
        assert!(!report.passed());
        assert_eq!(report.regressions()[0].path, "diagnostic.eval_p99_ns");
    }

    #[test]
    fn lower_is_worse_metrics_fail_on_collapse() {
        let collapsed = BASE.replace("\"tier_hits\": 50", "\"tier_hits\": 0");
        let report =
            compare_json(BASE, &collapsed, &SentinelConfig { diag_ratio: 0.5 }).expect("json");
        assert!(!report.passed());
        assert_eq!(report.regressions()[0].path, "diagnostic.tier_hits");
    }

    #[test]
    fn missing_path_is_a_regression_and_new_paths_are_not() {
        let missing = BASE.replace("\"tier_hits\": 50, ", "");
        assert!(!check(&missing).passed());
        let extra = BASE.replace("\"note_count\": 3", "\"note_count\": 3, \"new_metric\": 9");
        assert!(check(&extra).passed());
    }

    #[test]
    fn unclassified_diagnostics_are_informational() {
        let moved = BASE.replace("\"note_count\": 3", "\"note_count\": 400");
        assert!(check(&moved).passed());
    }

    #[test]
    fn render_names_the_guilty_path() {
        let drifted = BASE.replace("\"cache_hits\": 80", "\"cache_hits\": 79");
        let text = check(&drifted).render();
        assert!(text.contains("REGRESSED"), "{text}");
        assert!(text.contains("deterministic.cache_hits"), "{text}");
        assert!(text.contains("FAIL"), "{text}");
    }
}
