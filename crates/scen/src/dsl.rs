//! A compact textual scenario DSL, mirroring `m7_arch::spec`.
//!
//! Line-oriented `key = value` with `#` comments and positioned errors.
//! Scalars appear once; obstacle lines (`circle`, `rect`, `mover`)
//! repeat and keep their order. Floats render in shortest round-trip
//! form, so `parse(render(s)) == s` bit-for-bit.
//!
//! ```text
//! # a hand-written pocket forest
//! family    = forest
//! seed      = 7
//! level     = 0.5
//! size      = 40.0 40.0
//! start     = 2.5 20.0
//! goal      = 37.5 20.0
//! gust      = 0.2
//! payload_g = 300.0
//! sensor    = 0.675
//! circle    = 10.5 12.25 1.5
//! rect      = 5.0 5.0 8.0 9.0
//! mover     = 20.0 30.0 0.7 0.5 -0.3
//! ```

use crate::scenario::{CircleObs, Family, Mover, RectObs, Scenario};
use m7_kernels::Vec2;

/// A scenario parse error with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseScenarioError {
    /// 1-based line of the offending input (0 for document-level errors).
    pub line: usize,
    /// What went wrong.
    pub kind: ScenErrorKind,
}

/// The kinds of scenario-DSL errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenErrorKind {
    /// A line was not of the form `key = value`.
    MalformedLine,
    /// The key is not recognized.
    UnknownKey(String),
    /// The value could not be parsed for its key, or lies outside the
    /// key's range.
    InvalidValue {
        /// The key whose value failed.
        key: String,
        /// The raw value text.
        value: String,
    },
    /// `family = …` named an unknown generator family.
    UnknownFamily(String),
    /// A mandatory scalar field was missing.
    MissingField(&'static str),
}

impl core::fmt::Display for ParseScenarioError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match &self.kind {
            ScenErrorKind::MalformedLine => {
                write!(f, "line {}: expected `key = value`", self.line)
            }
            ScenErrorKind::UnknownKey(k) => write!(f, "line {}: unknown key `{k}`", self.line),
            ScenErrorKind::InvalidValue { key, value } => {
                write!(f, "line {}: invalid value `{value}` for `{key}`", self.line)
            }
            ScenErrorKind::UnknownFamily(k) => {
                write!(f, "line {}: unknown scenario family `{k}`", self.line)
            }
            ScenErrorKind::MissingField(k) => write!(f, "scenario is missing the `{k}` field"),
        }
    }
}

impl std::error::Error for ParseScenarioError {}

/// Renders a scenario to its DSL text. Floats use Rust's shortest
/// round-trip formatting, so [`parse_scenario`] reconstructs the exact
/// same [`Scenario`].
#[must_use]
pub fn render_scenario(s: &Scenario) -> String {
    use core::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# m7-scen scenario ({} @ level {:?})", s.family, s.level);
    let _ = writeln!(out, "family = {}", s.family.name());
    let _ = writeln!(out, "seed = {}", s.seed);
    let _ = writeln!(out, "level = {:?}", s.level);
    let _ = writeln!(out, "size = {:?} {:?}", s.width, s.height);
    let _ = writeln!(out, "start = {:?} {:?}", s.start.x, s.start.y);
    let _ = writeln!(out, "goal = {:?} {:?}", s.goal.x, s.goal.y);
    let _ = writeln!(out, "gust = {:?}", s.gust_std);
    let _ = writeln!(out, "payload_g = {:?}", s.payload_grams);
    let _ = writeln!(out, "sensor = {:?}", s.sensor_derate);
    for c in &s.circles {
        let _ = writeln!(out, "circle = {:?} {:?} {:?}", c.center.x, c.center.y, c.radius);
    }
    for r in &s.rects {
        let _ = writeln!(out, "rect = {:?} {:?} {:?} {:?}", r.min.x, r.min.y, r.max.x, r.max.y);
    }
    for m in &s.movers {
        let _ = writeln!(
            out,
            "mover = {:?} {:?} {:?} {:?} {:?}",
            m.center.x, m.center.y, m.radius, m.velocity.x, m.velocity.y
        );
    }
    out
}

fn invalid(line: usize, key: &str, value: &str) -> ParseScenarioError {
    ParseScenarioError {
        line,
        kind: ScenErrorKind::InvalidValue { key: key.to_string(), value: value.to_string() },
    }
}

/// Splits `value` into exactly `n` finite floats.
fn floats(line: usize, key: &str, value: &str, n: usize) -> Result<Vec<f64>, ParseScenarioError> {
    let parts: Vec<f64> = value
        .split_whitespace()
        .map(|p| p.parse::<f64>().map_err(|_| invalid(line, key, value)))
        .collect::<Result<_, _>>()?;
    if parts.len() != n || parts.iter().any(|v| !v.is_finite()) {
        return Err(invalid(line, key, value));
    }
    Ok(parts)
}

/// Parses `value` as one finite float inside the range `ok` accepts.
fn float_in(
    line: usize,
    key: &str,
    value: &str,
    ok: impl Fn(f64) -> bool,
) -> Result<f64, ParseScenarioError> {
    let v = floats(line, key, value, 1)?[0];
    if ok(v) {
        Ok(v)
    } else {
        Err(invalid(line, key, value))
    }
}

/// Parses DSL text back into a [`Scenario`].
///
/// # Errors
///
/// Returns a [`ParseScenarioError`] with the offending line on
/// malformed input, unknown keys or families, bad numbers (including a
/// negative `gust` or `payload_g`, or a `sensor` derate outside
/// `(0, 1]`), or a missing mandatory field.
///
/// # Examples
///
/// ```
/// use m7_scen::{generate, parse_scenario, render_scenario};
///
/// let s = generate(m7_scen::Family::Corridor, 0.4, 11);
/// let text = render_scenario(&s);
/// assert_eq!(parse_scenario(&text)?, s);
/// # Ok::<(), m7_scen::ParseScenarioError>(())
/// ```
pub fn parse_scenario(input: &str) -> Result<Scenario, ParseScenarioError> {
    let mut family: Option<Family> = None;
    let mut seed: Option<u64> = None;
    let mut level: Option<f64> = None;
    let mut size: Option<(f64, f64)> = None;
    let mut start: Option<Vec2> = None;
    let mut goal: Option<Vec2> = None;
    let mut gust: Option<f64> = None;
    let mut payload: Option<f64> = None;
    let mut sensor: Option<f64> = None;
    let mut circles = Vec::new();
    let mut rects = Vec::new();
    let mut movers = Vec::new();

    for (idx, raw) in input.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(ParseScenarioError { line: line_no, kind: ScenErrorKind::MalformedLine });
        };
        let key = key.trim();
        let value = value.trim();
        match key {
            "family" => {
                family = Some(Family::parse(value).ok_or(ParseScenarioError {
                    line: line_no,
                    kind: ScenErrorKind::UnknownFamily(value.to_string()),
                })?);
            }
            "seed" => {
                seed = Some(value.parse::<u64>().map_err(|_| invalid(line_no, key, value))?);
            }
            "level" => level = Some(floats(line_no, key, value, 1)?[0]),
            "size" => {
                let v = floats(line_no, key, value, 2)?;
                size = Some((v[0], v[1]));
            }
            "start" => {
                let v = floats(line_no, key, value, 2)?;
                start = Some(Vec2::new(v[0], v[1]));
            }
            "goal" => {
                let v = floats(line_no, key, value, 2)?;
                goal = Some(Vec2::new(v[0], v[1]));
            }
            "gust" => gust = Some(float_in(line_no, key, value, |v| v >= 0.0)?),
            "payload_g" => payload = Some(float_in(line_no, key, value, |v| v >= 0.0)?),
            "sensor" => sensor = Some(float_in(line_no, key, value, |v| v > 0.0 && v <= 1.0)?),
            "circle" => {
                let v = floats(line_no, key, value, 3)?;
                circles.push(CircleObs { center: Vec2::new(v[0], v[1]), radius: v[2] });
            }
            "rect" => {
                let v = floats(line_no, key, value, 4)?;
                rects.push(RectObs { min: Vec2::new(v[0], v[1]), max: Vec2::new(v[2], v[3]) });
            }
            "mover" => {
                let v = floats(line_no, key, value, 5)?;
                movers.push(Mover {
                    center: Vec2::new(v[0], v[1]),
                    radius: v[2],
                    velocity: Vec2::new(v[3], v[4]),
                });
            }
            other => {
                return Err(ParseScenarioError {
                    line: line_no,
                    kind: ScenErrorKind::UnknownKey(other.to_string()),
                });
            }
        }
    }

    let missing =
        |k: &'static str| ParseScenarioError { line: 0, kind: ScenErrorKind::MissingField(k) };
    let (width, height) = size.ok_or(missing("size"))?;
    Ok(Scenario {
        family: family.ok_or(missing("family"))?,
        seed: seed.ok_or(missing("seed"))?,
        level: level.ok_or(missing("level"))?,
        width,
        height,
        start: start.ok_or(missing("start"))?,
        goal: goal.ok_or(missing("goal"))?,
        circles,
        rects,
        movers,
        gust_std: gust.ok_or(missing("gust"))?,
        payload_grams: payload.ok_or(missing("payload_g"))?,
        sensor_derate: sensor.ok_or(missing("sensor"))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate;

    #[test]
    fn round_trips_every_family() {
        for family in Family::ALL {
            for level in [0.0, 0.35, 1.0] {
                let s = generate(family, level, 17);
                let text = render_scenario(&s);
                let back = parse_scenario(&text).expect("rendered text parses");
                assert_eq!(back, s, "{family} level {level} must round-trip exactly");
            }
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let s = generate(Family::Corridor, 0.2, 1);
        let text = format!("# header\n\n{}\n# trailer\n", render_scenario(&s));
        assert_eq!(parse_scenario(&text).unwrap(), s);
    }

    #[test]
    fn malformed_line_is_positioned() {
        let err = parse_scenario("family = maze\nnot a kv line\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.kind, ScenErrorKind::MalformedLine);
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn unknown_key_and_family_are_reported() {
        let err = parse_scenario("altitude = 120\n").unwrap_err();
        assert_eq!(err.kind, ScenErrorKind::UnknownKey("altitude".to_string()));
        let err = parse_scenario("family = warehouse\n").unwrap_err();
        assert_eq!(err.kind, ScenErrorKind::UnknownFamily("warehouse".to_string()));
    }

    #[test]
    fn bad_arity_and_nan_are_invalid_values() {
        assert!(matches!(
            parse_scenario("circle = 1.0 2.0\n").unwrap_err().kind,
            ScenErrorKind::InvalidValue { .. }
        ));
        assert!(matches!(
            parse_scenario("gust = NaN\n").unwrap_err().kind,
            ScenErrorKind::InvalidValue { .. }
        ));
        // Values the evaluator cannot fly are refused at their line.
        for bad in ["gust = -0.1", "payload_g = -5.0", "sensor = 0.0", "sensor = 1.5"] {
            let err = parse_scenario(&format!("family = maze\n{bad}\n")).unwrap_err();
            assert_eq!(err.line, 2, "{bad}");
            assert!(matches!(err.kind, ScenErrorKind::InvalidValue { .. }), "{bad}");
        }
    }

    #[test]
    fn missing_mandatory_field_is_named() {
        let s = generate(Family::Forest, 0.5, 3);
        let text: String = render_scenario(&s)
            .lines()
            .filter(|l| !l.starts_with("goal"))
            .map(|l| format!("{l}\n"))
            .collect();
        let err = parse_scenario(&text).unwrap_err();
        assert_eq!(err.kind, ScenErrorKind::MissingField("goal"));
        assert!(err.to_string().contains("`goal`"));
    }
}
