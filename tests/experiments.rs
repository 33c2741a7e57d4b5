//! Integration sweep over the whole experiment suite: every experiment
//! runs, renders, and reproduces its paper-anchored headline shape.

use magseven::suite::experiments::{e7_endtoend, ExperimentId};

#[test]
fn every_experiment_runs_and_renders() {
    for id in ExperimentId::ALL {
        let report = id.run(42);
        assert!(!report.tables().is_empty(), "{id} must produce tables");
        let text = report.to_string();
        assert!(text.len() > 100, "{id} report too small");
        assert!(text.contains('|'), "{id} report should contain tables");
    }
}

/// E7's result is public (perfbench builds its pipelines). The other
/// experiments' headline shapes are checked by m7-suite's unit tests.
#[test]
fn headline_shapes_hold_together() {
    // E7: the 1000x kernel gain is Amdahl-capped.
    let e7 = e7_endtoend::run();
    let (_, lean_1000, taxed_1000) = *e7.rows.last().unwrap();
    assert!(lean_1000 < 1000.0 / 10.0);
    assert!(taxed_1000 < lean_1000);
}

#[test]
fn experiments_are_deterministic() {
    for id in [ExperimentId::E1Growth, ExperimentId::E5Brakes, ExperimentId::E9Dse] {
        let a = id.run(7).to_string();
        let b = id.run(7).to_string();
        assert_eq!(a, b, "{id} must be reproducible");
    }
}

#[test]
fn different_seeds_change_stochastic_experiments() {
    let a = ExperimentId::E1Growth.run(1).to_string();
    let b = ExperimentId::E1Growth.run(2).to_string();
    assert_ne!(a, b, "the bibliometric draw is stochastic across seeds");
}

#[test]
fn experiment_descriptions_reference_paper_sections() {
    for id in ExperimentId::ALL {
        let d = id.description();
        assert!(
            d.contains('§') || d.contains("Fig."),
            "{id} description should carry its paper anchor: {d}"
        );
    }
}
