//! Thread-count invariance of the observability layer: with tracing
//! enabled, running the full experiment suite (E1–E15) on a 1-thread
//! and an 8-thread pool must produce byte-identical reports AND
//! identical deterministic-class aggregate metrics.
//!
//! Scheduling-dependent metrics (`sched.*`, wall-clock histograms) are
//! explicitly diagnostic-class and excluded — that split is the
//! contract this test pins down.

use magseven::par::ParConfig;
use magseven::suite::experiments::{run, ExperimentId, Timing};
use magseven::trace::{MetricValue, MetricsSnapshot};

const ROOT_SEED: u64 = 42;

fn run_suite(threads: usize) -> (String, MetricsSnapshot) {
    magseven::trace::reset();
    let reports =
        run(&ExperimentId::ALL, ROOT_SEED, Timing::Modeled, ParConfig::with_threads(threads))
            .expect("ALL is non-empty");
    let mut text = String::new();
    for (id, report, _) in reports {
        text.push_str(id.slug());
        text.push('\n');
        text.push_str(&report.to_string());
        text.push('\n');
    }
    (text, magseven::trace::snapshot().deterministic_only())
}

#[test]
fn aggregate_metrics_are_thread_count_invariant_over_the_suite() {
    magseven::trace::enable();
    let (text_1, snap_1) = run_suite(1);
    let (text_8, snap_8) = run_suite(8);

    assert_eq!(text_1, text_8, "reports must be byte-identical across thread counts");
    assert!(
        snap_1.entries.iter().any(|e| e.name == "suite.experiments"),
        "the suite must have recorded metrics while tracing was on"
    );

    let names_1: Vec<&str> = snap_1.entries.iter().map(|e| e.name.as_str()).collect();
    let names_8: Vec<&str> = snap_8.entries.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names_1, names_8, "both runs must register the same deterministic metrics");

    for (a, b) in snap_1.entries.iter().zip(&snap_8.entries) {
        assert_eq!(
            a.value, b.value,
            "deterministic metric {:?} must not depend on the thread count",
            a.name
        );
    }

    // Spot-check a few load-bearing aggregates so an accidentally empty
    // snapshot cannot pass.
    for key in ["suite.experiments", "par.batches", "par.items", "dse.evaluations"] {
        match snap_1.get(key).map(|e| &e.value) {
            Some(MetricValue::Counter(v)) => {
                assert!(*v > 0, "{key} should be nonzero after a full suite run")
            }
            other => panic!("{key} missing or not a counter: {other:?}"),
        }
    }
}
