//! Golden-report regression suite: the seed-42, cost-modeled report text
//! of every experiment (E1–E15) is pinned under `tests/golden/`, one file
//! per slug. Any drift in a model, a kernel, the fault layer, or the
//! report renderer fails the diff with a first-divergence pointer.
//!
//! To re-bless after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_reports
//! ```
//!
//! The snapshots are taken with [`Timing::Modeled`] so E6 reports its
//! cost-model numbers instead of host wall clock — every byte is a pure
//! function of the seed.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use magseven::par::ParConfig;
use magseven::serve::{recover_snapshot, FlightJournal};
use magseven::suite::experiments::{run, ExperimentId, Timing};
use magseven::suite::Report;
use magseven::trace::{HubConfig, TelemetryHub};

const ROOT_SEED: u64 = 42;

/// Every experiment's seed-42 modeled report, in paper order, on `par`.
fn run_all(par: ParConfig) -> Vec<(ExperimentId, Report)> {
    let rows = run(&ExperimentId::ALL, ROOT_SEED, Timing::Modeled, par).expect("ALL is non-empty");
    rows.into_iter().map(|(id, report, _)| (id, report)).collect()
}

fn golden_path(slug: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(format!("{slug}.txt"))
}

fn update_requested() -> bool {
    std::env::var("UPDATE_GOLDEN").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Renders the first point of divergence between two texts, with a line
/// of context, so a golden failure reads like a diff hunk instead of two
/// multi-kilobyte blobs.
fn first_divergence(expected: &str, actual: &str) -> String {
    let mut out = String::new();
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        if e != a {
            let _ = writeln!(out, "first divergence at line {}:", i + 1);
            let _ = writeln!(out, "  golden: {e}");
            let _ = writeln!(out, "  actual: {a}");
            return out;
        }
    }
    let (el, al) = (expected.lines().count(), actual.lines().count());
    let _ = writeln!(
        out,
        "texts agree for {} lines, then lengths differ: golden {el} lines, actual {al} lines",
        el.min(al)
    );
    out
}

fn check_against_golden(id: ExperimentId, rendered: &str) {
    let path = golden_path(id.slug());
    if update_requested() {
        std::fs::write(&path, rendered).expect("write golden snapshot");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {}: {e}\n\
             run `UPDATE_GOLDEN=1 cargo test --test golden_reports` to create it",
            path.display()
        )
    });
    assert!(
        golden == rendered,
        "{id} report drifted from {}\n{}\
         if the change is intentional, re-bless with `UPDATE_GOLDEN=1 cargo test --test golden_reports`",
        path.display(),
        first_divergence(&golden, rendered)
    );
}

/// Every experiment's seed-42 modeled report matches its pinned snapshot.
///
/// Reports are generated exactly as `run(&ALL, 42, Modeled, serial)` does,
/// so the snapshots double as a regression net for the per-experiment
/// seed derivation: reordering `ExperimentId::ALL` or changing
/// `derive_seed` shows up as drift here, not just as silent re-seeding.
#[test]
fn every_report_matches_its_golden_snapshot() {
    let reports = run_all(ParConfig::serial());
    assert_eq!(reports.len(), ExperimentId::ALL.len(), "one snapshot per experiment");
    for (id, report) in &reports {
        check_against_golden(*id, &report.to_string());
    }
}

/// There is exactly one snapshot per experiment slug — a deleted or
/// renamed experiment must not leave a stale golden file behind.
#[test]
fn golden_directory_has_no_strays() {
    let dir = golden_path("").parent().map(PathBuf::from).expect("golden dir");
    let mut found: Vec<String> = std::fs::read_dir(&dir)
        .expect("tests/golden exists")
        .filter_map(Result::ok)
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.ends_with(".txt"))
        .map(|n| n.trim_end_matches(".txt").to_string())
        .collect();
    found.sort();
    let mut expected: Vec<String> =
        ExperimentId::ALL.iter().map(|id| id.slug().to_string()).collect();
    expected.sort();
    assert_eq!(found, expected, "tests/golden/ must hold exactly one .txt per experiment slug");
}

/// The telemetry hub is strictly read-only over the registry: running
/// the whole suite while it samples at an aggressive 1 ms cadence —
/// tracing force-enabled, flight journal attached and absorbing every
/// delta — reproduces every golden byte. A cadence-dependent report
/// would mean sampling leaked into modeled time or seeds.
#[test]
fn hub_sampling_at_any_cadence_leaves_goldens_byte_identical() {
    let dir = std::env::temp_dir().join(format!("m7-golden-hub-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let journal = FlightJournal::open(&dir).expect("open flight journal");
    let hub = TelemetryHub::start(
        HubConfig { interval: Duration::from_millis(1) },
        vec![Box::new(journal)],
    );

    let reports = run_all(ParConfig::serial());
    hub.stop();

    for (id, report) in &reports {
        let golden = std::fs::read_to_string(golden_path(id.slug())).unwrap_or_else(|e| {
            panic!("missing golden snapshot for {id}: {e} (run the serial golden test first)")
        });
        assert!(
            golden == report.to_string(),
            "{id} drifted with the hub sampling at 1 ms\n{}",
            first_divergence(&golden, &report.to_string())
        );
    }

    // The journal really was live during the run: it must recover to a
    // baseline (and, with the suite's registry churn, some deltas).
    let recovered = recover_snapshot(&dir).expect("recover journal");
    assert!(recovered.is_some(), "the hub must have journaled at least the baseline");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The parallel runner reproduces the same golden bytes at 1 and 8
/// threads. This re-runs the whole suite twice, so it is `#[ignore]`d in
/// the default test pass; CI's golden job includes it via
/// `cargo test --workspace -- --include-ignored`.
#[test]
#[ignore = "runs the full suite twice; CI includes it with --include-ignored"]
fn parallel_runner_reproduces_goldens_at_any_thread_count() {
    for threads in [1, 8] {
        let reports = run_all(ParConfig::with_threads(threads));
        for (id, report) in &reports {
            let golden = std::fs::read_to_string(golden_path(id.slug()))
                .expect("golden snapshot exists (run the serial golden test first)");
            assert!(
                golden == report.to_string(),
                "{id} at {threads} thread(s) drifted from its golden snapshot\n{}",
                first_divergence(&golden, &report.to_string())
            );
        }
    }
}
