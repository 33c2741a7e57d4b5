//! The m7-par determinism contract, checked end to end: the same seed
//! must produce bit-identical results whether work runs serially, on the
//! deterministic pool, or at any thread count.

use magseven::dse::explorer::{Explorer, SearchBudget};
use magseven::dse::memo::EvalMemo;
use magseven::dse::space::{DesignSpace, Dimension};
use magseven::par::ParConfig;
use magseven::serve::cache::EvalCache;
use magseven::suite::experiments::{run, run_selected_serial, ExperimentId, Timing};

fn rugged_space() -> DesignSpace {
    DesignSpace::new(vec![
        Dimension::new("x", (0..24).map(f64::from).collect()),
        Dimension::new("y", (0..24).map(f64::from).collect()),
        Dimension::new("z", (0..8).map(f64::from).collect()),
    ])
}

fn rugged(v: &[f64]) -> f64 {
    let dx = v[0] - 17.0;
    let dy = v[1] - 5.0;
    let dz = v[2] - 3.0;
    dx * dx + dy * dy + 2.0 * dz * dz + 3.0 * ((v[0] * 0.9).sin() + (v[1] * 1.3).cos())
}

/// Satellite requirement: identical `Report` output from the parallel
/// runner vs. the serial loop for the same seed.
#[test]
fn parallel_runner_matches_serial_loop_byte_for_byte() {
    let serial = run_selected_serial(&ExperimentId::ALL, 42, Timing::Modeled).unwrap();
    let parallel = run(&ExperimentId::ALL, 42, Timing::Modeled, ParConfig::default()).unwrap();
    assert_eq!(serial.len(), parallel.len());
    for ((sid, sreport), (pid, preport, _)) in serial.iter().zip(&parallel) {
        assert_eq!(sid, pid, "paper order must be preserved");
        assert_eq!(
            sreport.to_string(),
            preport.to_string(),
            "{sid}: parallel report must be byte-identical to serial"
        );
    }
}

/// Satellite requirement: identical `SearchResult` from every DSE
/// strategy at 1 vs. 8 threads (the `M7_THREADS=1` CI job exercises the
/// same path through the env override).
#[test]
fn dse_strategies_identical_at_1_vs_8_threads() {
    let space = rugged_space();
    let budget = SearchBudget::new(60);
    let strategies =
        [Explorer::Exhaustive, Explorer::Random, Explorer::genetic(), Explorer::surrogate()];
    let run = |strategy: &Explorer, threads: usize| {
        let cache = EvalCache::new(budget.max_evaluations);
        let memo = EvalMemo::new(&cache, 0);
        let par = ParConfig::with_threads(threads);
        strategy.run_memoized(&space, &rugged, budget, 7, par, &memo)
    };
    for strategy in &strategies {
        let one = run(strategy, 1);
        let eight = run(strategy, 8);
        assert_eq!(one, eight, "{} must not depend on thread count", strategy.name());
        let bitwise = one.trace.iter().zip(&eight.trace).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(bitwise, "{}: traces must match bit for bit", strategy.name());
    }
}
