//! Fuzz-style tests for the text parsers that take input from outside the
//! program: the scenario DSL (`m7_scen::parse_scenario`), the accelerator
//! spec language (`m7_arch::parse_platform`) and the JSON reader
//! behind the BENCH baselines (`m7_trace::parse_json`).
//!
//! The contract under test: every input, however mangled, returns `Ok` or
//! an error — never a panic or a stack overflow — and a rendered scenario
//! still parses back to exactly itself. The battery follows
//! `serve_frame_fuzz.rs`: byte soup, every truncation of a valid document,
//! and adversarial token substitution (non-finite and out-of-range
//! numbers, 2⁶⁴, empty values, duplicated keys, deep nesting).

use magseven::arch::{parse_platform, ParseSpecError};
use magseven::scen::{generate, parse_scenario, render_scenario, Family, ParseScenarioError};
use magseven::trace::parse_json;
use proptest::prelude::*;

/// The committed BENCH baselines `bench_sentinel --check` reads.
const BENCH_FILES: [&str; 2] =
    [include_str!("../BENCH_roofline.json"), include_str!("../BENCH_serve_latency.json")];

/// A spec that sets every key the language knows.
const FULL_SPEC: &str = "\
# every key, so every value can be substituted
name           = fuzz-engine
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

/// Values that have broken numeric parsers elsewhere: non-finite, signed
/// zero, negative, huge, one past `u64::MAX`, and empty.
const ADVERSARIAL: [&str; 8] =
    ["nan", "inf", "-1", "-0", "1e308", "18446744073709551616", "", "-inf"];

/// One rendered scenario per generator family.
fn rendered() -> Vec<String> {
    Family::ALL.iter().map(|&f| render_scenario(&generate(f, 0.6, 17))).collect()
}

/// Scenario parse results carry the offending line (0 only for a missing
/// field, which has no line).
fn check_scen(text: &str) {
    match parse_scenario(text) {
        Ok(_) => {}
        Err(ParseScenarioError { line, .. }) => assert!(line <= text.lines().count()),
    }
}

fn check_spec(text: &str) {
    match parse_platform(text) {
        Ok(_) => {}
        Err(ParseSpecError { line, .. }) => assert!(line <= text.lines().count()),
    }
}

/// Every variant of `doc` with one value replaced by an adversarial token,
/// one space-separated number replaced, or one line duplicated.
fn substitutions(doc: &str) -> Vec<String> {
    let lines: Vec<&str> = doc.lines().collect();
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let Some((key, value)) = line.split_once('=') else { continue };
        let words: Vec<&str> = value.split_whitespace().collect();
        let mut edited = Vec::new();
        for token in ADVERSARIAL {
            edited.push(format!("{key}= {token}"));
            for w in 0..words.len() {
                let mut ws = words.clone();
                ws[w] = token;
                edited.push(format!("{key}= {}", ws.join(" ")));
            }
        }
        // A duplicated key: the later line wins or is rejected, never panics.
        edited.push(format!("{line}\n{line}"));
        for e in edited {
            let mut doc_lines: Vec<String> = lines.iter().map(|l| (*l).to_string()).collect();
            doc_lines[i] = e;
            out.push(doc_lines.join("\n"));
        }
    }
    out
}

#[test]
fn every_truncation_of_every_family_parses_or_errors() {
    for text in rendered() {
        let whole = parse_scenario(&text).expect("a rendered scenario parses");
        assert_eq!(render_scenario(&whole), text);
        for cut in (0..=text.len()).filter(|&c| text.is_char_boundary(c)) {
            check_scen(&text[..cut]);
        }
    }
    for cut in 0..=FULL_SPEC.len() {
        check_spec(&FULL_SPEC[..cut]);
    }
}

#[test]
fn adversarial_tokens_return_ok_or_a_typed_error() {
    for text in rendered() {
        for doc in substitutions(&text) {
            check_scen(&doc);
        }
    }
    for doc in substitutions(FULL_SPEC) {
        check_spec(&doc);
    }
}

#[test]
fn non_finite_and_negative_spec_numbers_are_typed_errors() {
    for key in ["peak_tops", "bandwidth_gbps"] {
        for token in ["nan", "inf", "-inf", "-1", "-0", "0"] {
            let err = parse_platform(&format!("kind = gpu\n{key} = {token}\n"))
                .expect_err("a roofline needs a positive, finite ceiling");
            assert_eq!(err.line, 2, "{key} = {token}");
        }
    }
}

#[test]
fn every_truncation_of_the_bench_files_parses_or_errors() {
    for doc in BENCH_FILES {
        parse_json(doc).expect("a committed BENCH file parses");
        // Every cut before the closing brace leaves an incomplete document.
        for cut in (0..doc.trim_end().len()).filter(|&c| doc.is_char_boundary(c)) {
            assert!(parse_json(&doc[..cut]).is_err(), "prefix of {cut} bytes");
        }
    }
}

#[test]
fn deep_nesting_and_overflowing_numbers_are_errors() {
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(parse_json(&"[".repeat(100_000)).is_err());
    assert!(parse_json(&"{\"a\":".repeat(100_000)).is_err());
    assert!(parse_json(&nested(50_000)).is_err());
    assert!(parse_json(&nested(129)).is_err());
    assert!(parse_json(&nested(128)).is_ok());
    for number in ["1e999", "-1e999", "[1e999]", "{\"x\": 1e400}"] {
        assert!(parse_json(number).is_err(), "{number}");
    }
    assert_eq!(parse_json("1e308").ok().and_then(|j| j.as_num()), Some(1e308));
}

#[test]
fn long_strings_keep_every_char() {
    let text = "aé\u{1F680}".repeat(20_000);
    let doc = format!("[\"{text}\", \"x\\ny\"]");
    let parsed = parse_json(&doc).expect("a long string parses");
    let items = parsed.as_arr().expect("an array");
    assert_eq!(items[0].as_str(), Some(text.as_str()));
    assert_eq!(items[1].as_str(), Some("x\ny"));
}

proptest! {
    /// Arbitrary bytes, read as (lossy) UTF-8, never panic any parser.
    #[test]
    fn byte_soup_never_panics(bytes in prop::collection::vec(0u8..=255, 0..400)) {
        let text = String::from_utf8_lossy(&bytes);
        check_scen(&text);
        check_spec(&text);
        let _ = parse_json(&text);
    }

    /// Byte soup spliced into a valid document, where the parsers get past
    /// the first line and reach their value handling.
    #[test]
    fn spliced_soup_never_panics(
        family in 0usize..Family::ALL.len(),
        at in 0usize..4096,
        bytes in prop::collection::vec(0u8..=255, 0..48),
    ) {
        let text = render_scenario(&generate(Family::ALL[family], 0.5, 3));
        let soup = String::from_utf8_lossy(&bytes);
        let mut cut = at % (text.len() + 1);
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        check_scen(&format!("{}{soup}{}", &text[..cut], &text[cut..]));
        let mut cut = at % (FULL_SPEC.len() + 1);
        while !FULL_SPEC.is_char_boundary(cut) {
            cut -= 1;
        }
        check_spec(&format!("{}{soup}{}", &FULL_SPEC[..cut], &FULL_SPEC[cut..]));
        for doc in BENCH_FILES {
            let mut cut = at % (doc.len() + 1);
            while !doc.is_char_boundary(cut) {
                cut -= 1;
            }
            let _ = parse_json(&format!("{}{soup}{}", &doc[..cut], &doc[cut..]));
        }
    }

    /// `parse(render(s)) == s` for every family, level and seed.
    #[test]
    fn rendered_scenarios_round_trip(
        family in 0usize..Family::ALL.len(),
        level in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let s = generate(Family::ALL[family], level, seed);
        prop_assert_eq!(parse_scenario(&render_scenario(&s)).expect("rendered text parses"), s);
    }
}
