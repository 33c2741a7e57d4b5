//! A tiny textual accelerator-specification language.
//!
//! The paper's §3.1 ("Agile Design Tools") asks for high-level interfaces
//! through which *domain experts* — not just architects — can describe
//! candidate accelerators. This module provides exactly that: a
//! line-oriented `key = value` format that compiles into a validated
//! [`Platform`], with positioned error messages.
//!
//! ```text
//! # my collision accelerator
//! name          = collision-engine
//! kind          = asic
//! peak_tops     = 2.5
//! bandwidth_gbps = 150
//! serial_gops   = 1.0
//! dispatch_us   = 3
//! active_w      = 6
//! idle_w        = 0.5
//! mass_g        = 40
//! area_mm2      = 75
//! cost_usd      = 42
//! specialize    = families collision-geometry dense-linear-algebra
//! fallback      = 0.05
//! ```
//!
//! Every field is optional except `kind`; omitted fields inherit the
//! preset for that kind.

use crate::platform::{Platform, PlatformKind, Specialization};
use crate::roofline::Roofline;
use crate::workload::KernelFamily;
use m7_units::{BytesPerSecond, Grams, OpsPerSecond, Seconds, SquareMillimeters, Watts};

/// A specification parse error with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSpecError {
    /// 1-based line of the offending input (0 for document-level errors).
    pub line: usize,
    /// What went wrong.
    pub kind: SpecErrorKind,
}

/// The kinds of specification errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecErrorKind {
    /// A line was not of the form `key = value`.
    MalformedLine,
    /// The key is not recognized.
    UnknownKey(String),
    /// The value could not be parsed for its key.
    InvalidValue {
        /// The key whose value failed.
        key: String,
        /// The raw value text.
        value: String,
    },
    /// `kind = …` named an unknown platform kind.
    UnknownKind(String),
    /// A `specialize = families …` listed an unknown kernel family.
    UnknownFamily(String),
    /// The mandatory `kind` field was missing.
    MissingKind,
}

impl core::fmt::Display for ParseSpecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match &self.kind {
            SpecErrorKind::MalformedLine => {
                write!(f, "line {}: expected `key = value`", self.line)
            }
            SpecErrorKind::UnknownKey(k) => write!(f, "line {}: unknown key `{k}`", self.line),
            SpecErrorKind::InvalidValue { key, value } => {
                write!(f, "line {}: invalid value `{value}` for `{key}`", self.line)
            }
            SpecErrorKind::UnknownKind(k) => {
                write!(f, "line {}: unknown platform kind `{k}`", self.line)
            }
            SpecErrorKind::UnknownFamily(k) => {
                write!(f, "line {}: unknown kernel family `{k}`", self.line)
            }
            SpecErrorKind::MissingKind => write!(f, "spec is missing the `kind` field"),
        }
    }
}

impl std::error::Error for ParseSpecError {}

fn parse_kind(s: &str) -> Option<PlatformKind> {
    match s {
        "cpu-scalar" => Some(PlatformKind::CpuScalar),
        "cpu-simd" => Some(PlatformKind::CpuSimd),
        "gpu" => Some(PlatformKind::Gpu),
        "fpga" => Some(PlatformKind::Fpga),
        "asic" => Some(PlatformKind::Asic),
        _ => None,
    }
}

fn parse_family(s: &str) -> Option<KernelFamily> {
    match s {
        "dense-linear-algebra" => Some(KernelFamily::DenseLinearAlgebra),
        "collision-geometry" => Some(KernelFamily::CollisionGeometry),
        "stencil" => Some(KernelFamily::Stencil),
        "grid-correlation" => Some(KernelFamily::GridCorrelation),
        "recurrence" => Some(KernelFamily::Recurrence),
        "other" => Some(KernelFamily::Other),
        _ => None,
    }
}

/// Parses an accelerator specification into a [`Platform`].
///
/// # Errors
///
/// Returns a [`ParseSpecError`] with the offending line on malformed
/// input, unknown keys/kinds/families, bad numbers (including any
/// non-finite value, and a `peak_tops` or `bandwidth_gbps` that is not
/// positive), or a missing `kind`.
///
/// # Examples
///
/// ```
/// use m7_arch::parse_platform;
///
/// let platform = parse_platform(
///     "kind = fpga\nname = my-fpga\npeak_tops = 0.8\nmass_g = 120\n",
/// )?;
/// assert_eq!(platform.name(), "my-fpga");
/// assert_eq!(platform.mass(), m7_units::Grams::new(120.0));
/// # Ok::<(), m7_arch::ParseSpecError>(())
/// ```
pub fn parse_platform(input: &str) -> Result<Platform, ParseSpecError> {
    // First pass: find the kind so defaults come from its preset.
    let mut kind: Option<PlatformKind> = None;
    let mut fields: Vec<(usize, String, String)> = Vec::new();
    for (idx, raw) in input.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(ParseSpecError { line: line_no, kind: SpecErrorKind::MalformedLine });
        };
        let key = key.trim().to_string();
        let value = value.trim().to_string();
        if key == "kind" {
            kind = Some(parse_kind(&value).ok_or(ParseSpecError {
                line: line_no,
                kind: SpecErrorKind::UnknownKind(value.clone()),
            })?);
        } else {
            fields.push((line_no, key, value));
        }
    }
    let kind = kind.ok_or(ParseSpecError { line: 0, kind: SpecErrorKind::MissingKind })?;
    let mut builder = Platform::builder(kind);
    let preset = Platform::preset(kind);
    let mut peak = preset.roofline().peak();
    let mut bandwidth = preset.roofline().bandwidth();
    let mut active = preset.active_power();
    let mut idle = preset.idle_power();

    let invalid = |line: usize, key: &str, value: &str| ParseSpecError {
        line,
        kind: SpecErrorKind::InvalidValue { key: key.to_string(), value: value.to_string() },
    };
    let parse_f64 = |line: usize, key: &str, value: &str| -> Result<f64, ParseSpecError> {
        value.parse::<f64>().ok().filter(|v| v.is_finite()).ok_or_else(|| invalid(line, key, value))
    };
    // A roofline ceiling must be positive and finite after unit scaling.
    let ceiling = |line: usize, key: &str, value: &str, scale: f64| {
        let v = parse_f64(line, key, value)? * scale;
        if v > 0.0 && v.is_finite() {
            Ok(v)
        } else {
            Err(invalid(line, key, value))
        }
    };

    let mut fallback = 0.02f64;
    let mut specializations: Vec<(usize, String)> = Vec::new();
    for (line, key, value) in fields {
        match key.as_str() {
            "name" => builder = builder.name(value),
            "peak_tops" => peak = OpsPerSecond::new(ceiling(line, &key, &value, 1e12)?),
            "bandwidth_gbps" => bandwidth = BytesPerSecond::new(ceiling(line, &key, &value, 1e9)?),
            "serial_gops" => {
                builder =
                    builder.serial_rate(OpsPerSecond::from_gigaops(parse_f64(line, &key, &value)?));
            }
            "dispatch_us" => {
                builder =
                    builder.dispatch_overhead(Seconds::from_micros(parse_f64(line, &key, &value)?));
            }
            "active_w" => active = Watts::new(parse_f64(line, &key, &value)?),
            "idle_w" => idle = Watts::new(parse_f64(line, &key, &value)?),
            "mass_g" => builder = builder.mass(Grams::new(parse_f64(line, &key, &value)?)),
            "area_mm2" => {
                builder = builder.die_area(SquareMillimeters::new(parse_f64(line, &key, &value)?));
            }
            "cost_usd" => builder = builder.unit_cost_usd(parse_f64(line, &key, &value)?),
            "fallback" => fallback = parse_f64(line, &key, &value)?,
            "specialize" => specializations.push((line, value)),
            other => {
                return Err(ParseSpecError {
                    line,
                    kind: SpecErrorKind::UnknownKey(other.to_string()),
                })
            }
        }
    }

    // Specializations are parsed last, so any error above wins over an
    // unknown family, and `fallback` may appear anywhere.
    let mut families: Option<Vec<KernelFamily>> = None;
    for (line, value) in specializations {
        let mut words = value.split_whitespace();
        match words.next() {
            Some("families") => {
                let mut fams = Vec::new();
                for w in words {
                    fams.push(parse_family(w).ok_or(ParseSpecError {
                        line,
                        kind: SpecErrorKind::UnknownFamily(w.to_string()),
                    })?);
                }
                families = Some(fams);
            }
            Some("general") | None => {}
            Some(other) => {
                return Err(ParseSpecError {
                    line,
                    kind: SpecErrorKind::InvalidValue {
                        key: "specialize".into(),
                        value: other.into(),
                    },
                })
            }
        }
    }
    if let Some(families) = families {
        builder = builder.specialization(Specialization::Families { families, fallback });
    }

    Ok(builder.roofline(Roofline::new(peak, bandwidth)).power(active, idle).build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::KernelProfile;

    const FULL_SPEC: &str = "\
# a collision accelerator described by a roboticist
name           = collision-engine
kind           = asic
peak_tops      = 2.5
bandwidth_gbps = 150
serial_gops    = 1.0
dispatch_us    = 3
active_w       = 6
idle_w         = 0.5
mass_g         = 40
area_mm2       = 75
cost_usd       = 42
specialize     = families collision-geometry dense-linear-algebra
fallback       = 0.05
";

    #[test]
    fn full_spec_round_trips() {
        let p = parse_platform(FULL_SPEC).unwrap();
        assert_eq!(p.name(), "collision-engine");
        assert_eq!(p.kind(), PlatformKind::Asic);
        assert_eq!(p.mass(), Grams::new(40.0));
        assert_eq!(p.die_area(), SquareMillimeters::new(75.0));
        assert_eq!(p.unit_cost_usd(), 42.0);
        assert_eq!(p.active_power(), Watts::new(6.0));
        assert!((p.roofline().peak().as_teraops() - 2.5).abs() < 1e-12);
        // Specialization behaves.
        assert_eq!(p.match_factor(&KernelProfile::collision_batch(100, 10)), 1.0);
        assert_eq!(p.match_factor(&KernelProfile::correlation_scan(100, 10)), 0.05);
    }

    #[test]
    fn minimal_spec_inherits_preset() {
        let p = parse_platform("kind = gpu").unwrap();
        let preset = Platform::preset(PlatformKind::Gpu);
        assert_eq!(p.roofline(), preset.roofline());
        assert_eq!(p.mass(), preset.mass());
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let p = parse_platform("\n# comment only\nkind = fpga  # trailing comment\n\n").unwrap();
        assert_eq!(p.kind(), PlatformKind::Fpga);
    }

    #[test]
    fn missing_kind_is_reported() {
        let err = parse_platform("name = x").unwrap_err();
        assert_eq!(err.kind, SpecErrorKind::MissingKind);
    }

    #[test]
    fn malformed_line_carries_line_number() {
        let err = parse_platform("kind = asic\nthis is not a field\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.kind, SpecErrorKind::MalformedLine);
    }

    #[test]
    fn unknown_key_value_kind_family() {
        let err = parse_platform("kind = asic\nwarp_drive = 9\n").unwrap_err();
        assert!(matches!(err.kind, SpecErrorKind::UnknownKey(ref k) if k == "warp_drive"));

        let err = parse_platform("kind = asic\nmass_g = heavy\n").unwrap_err();
        assert!(matches!(err.kind, SpecErrorKind::InvalidValue { .. }));
        assert_eq!(err.line, 2);

        let err = parse_platform("kind = quantum\n").unwrap_err();
        assert!(matches!(err.kind, SpecErrorKind::UnknownKind(ref k) if k == "quantum"));

        let err = parse_platform("kind = asic\nspecialize = families warp-fields\n").unwrap_err();
        assert!(matches!(err.kind, SpecErrorKind::UnknownFamily(ref k) if k == "warp-fields"));
    }

    #[test]
    fn field_errors_win_over_an_unknown_family() {
        let err =
            parse_platform("kind = asic\nspecialize = families warp-fields\nmass_g = heavy\n")
                .unwrap_err();
        assert_eq!(err.line, 3);
        assert!(matches!(err.kind, SpecErrorKind::InvalidValue { ref key, .. } if key == "mass_g"));
    }

    #[test]
    fn error_display_is_positioned() {
        let err = parse_platform("kind = asic\nmass_g = heavy\n").unwrap_err();
        let text = err.to_string();
        assert!(text.contains("line 2"));
        assert!(text.contains("mass_g"));
    }

    #[test]
    fn parsed_platform_estimates_like_built_platform() {
        let parsed = parse_platform(FULL_SPEC).unwrap();
        let kernel = KernelProfile::collision_batch(10_000, 64);
        let cost = parsed.estimate(&kernel);
        assert!(cost.latency.value() > 0.0);
        assert!(cost.energy.value() > 0.0);
    }
}
