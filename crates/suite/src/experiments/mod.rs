//! The experiment registry: one module per paper-anchored experiment.
//!
//! | ID | Paper anchor | Claim shape reproduced |
//! |----|--------------|------------------------|
//! | E1 | Fig. 1 | publication mentions grow super-linearly 2014-2023 |
//! | E2 | §2.1 Build Bridges | accelerating a benchmark-stale kernel wastes the design |
//! | E3 | §2.2 Metrics Matter | raw throughput and time-to-accuracy rank precisions differently |
//! | E4 | §2.3 Widgetism | a widget wins its task, loses the suite |
//! | E5 | §2.4 Pump the Brakes | mission energy is U-shaped in compute tier |
//! | E6 | §2.5 Chips and Salsa | batched software collision checking is dramatically faster |
//! | E7 | §2.6 Forest vs. Trees | kernel speedups hit the Amdahl/AI-tax ceiling |
//! | E8 | §2.7 Design Global | fleets rival datacenters; edge training is dirtier; chiplets save carbon |
//! | E9 | §3.1 ML for design | surrogate-guided DSE is more sample-efficient |
//! | E10 | §2.4 + §3.1 | accelerators contend — per-unit throughput degrades |
//! | E11 | §2.6 | graceful degradation dominates fault-blind on mission success |
//! | E12 | §2.1 + §3.1 | procedural scenarios grade tiers; falsification finds the failure frontier |
//! | E13 | §2.5 | vectorized kernels placed on (and checked against) the roofline |
//! | E14 | §2.1 + §3.1 | streaming campaigns: stratified coverage with importance splitting |
//! | E15 | §2.5 + §2.6 | multi-rate fusion graph: placement, DVFS, and backpressure tradeoffs |

mod e10_contention;
pub mod e11_robustness;
mod e12_scenarios;
mod e13_roofline;
mod e14_campaign;
pub mod e15_fusion;
mod e1_growth;
mod e2_bridges;
mod e3_metrics;
mod e4_widgetism;
mod e5_brakes;
mod e6_platforms;
pub mod e7_endtoend;
mod e8_global;
pub mod e9_dse;

use crate::report::Report;
use m7_par::{derive_seed, ParConfig};
use m7_serve::{EvalCache, ResultStore};
use m7_trace::{MetricClass, TraceCounter};

// Suite observability (no-ops until `m7_trace::enable()`): one counter
// for experiments run plus a per-experiment wall span named by slug.
static EXPERIMENTS: TraceCounter =
    TraceCounter::new("suite.experiments", MetricClass::Deterministic);

pub use e6_platforms::Timing;

/// A runnable experiment from the suite.
///
/// # Examples
///
/// ```
/// use m7_suite::experiments::ExperimentId;
///
/// for id in ExperimentId::ALL {
///     assert!(!id.description().is_empty());
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExperimentId {
    /// E1 — publication-growth curve (paper Fig. 1).
    E1Growth,
    /// E2 — wrong-kernel acceleration (Challenge 1).
    E2Bridges,
    /// E3 — throughput vs. time-to-accuracy (Challenge 2).
    E3Metrics,
    /// E4 — widget vs. cross-cutting accelerator (Challenge 3).
    E4Widgetism,
    /// E5 — UAV compute-tier sweep (Challenge 4).
    E5Brakes,
    /// E6 — platform comparison for motion planning (Challenge 5).
    E6Platforms,
    /// E7 — end-to-end Amdahl / AI-tax curve (Challenge 6).
    E7EndToEnd,
    /// E8 — fleet, training, and chiplet carbon (Challenge 7).
    E8Global,
    /// E9 — DSE sample efficiency (§3.1).
    E9Dse,
    /// E10 — shared-resource contention (Challenge 4 ablation).
    E10Contention,
    /// E11 — robustness under injected faults (Challenge 6).
    E11Robustness,
    /// E12 — procedural scenario supply and falsification (§2.1 + §3.1).
    E12Scenarios,
    /// E13 — measured vs modeled roofline for vectorized kernels (§2.5).
    E13Roofline,
    /// E14 — streaming mega-campaigns over scenario space (§2.1 + §3.1).
    E14Campaign,
    /// E15 — multi-rate sensor-fusion dataflow graph (§2.5 + §2.6).
    E15Fusion,
}

impl ExperimentId {
    /// All experiments, in paper order. E13–E15 are appended at the
    /// end so the position-derived per-experiment seeds of earlier
    /// experiments are unchanged.
    pub const ALL: [Self; 15] = [
        Self::E1Growth,
        Self::E2Bridges,
        Self::E3Metrics,
        Self::E4Widgetism,
        Self::E5Brakes,
        Self::E6Platforms,
        Self::E7EndToEnd,
        Self::E8Global,
        Self::E9Dse,
        Self::E10Contention,
        Self::E11Robustness,
        Self::E12Scenarios,
        Self::E13Roofline,
        Self::E14Campaign,
        Self::E15Fusion,
    ];

    /// Short identifier used in file names and bench targets.
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            Self::E1Growth => "e1_growth",
            Self::E2Bridges => "e2_bridges",
            Self::E3Metrics => "e3_metrics",
            Self::E4Widgetism => "e4_widgetism",
            Self::E5Brakes => "e5_brakes",
            Self::E6Platforms => "e6_platforms",
            Self::E7EndToEnd => "e7_endtoend",
            Self::E8Global => "e8_global",
            Self::E9Dse => "e9_dse",
            Self::E10Contention => "e10_contention",
            Self::E11Robustness => "e11_robustness",
            Self::E12Scenarios => "e12_scenarios",
            Self::E13Roofline => "e13_roofline",
            Self::E14Campaign => "e14_campaign",
            Self::E15Fusion => "e15_fusion",
        }
    }

    /// One-line description with the paper anchor.
    #[must_use]
    pub fn description(self) -> &'static str {
        match self {
            Self::E1Growth => "Fig. 1: growth of autonomy-accelerator publications",
            Self::E2Bridges => "§2.1: accelerating an obsolete SLAM kernel wastes the design",
            Self::E3Metrics => "§2.2: throughput and time-to-accuracy rank precisions differently",
            Self::E4Widgetism => "§2.3: a widget ASIC wins its task but loses the task suite",
            Self::E5Brakes => "§2.4: UAV mission energy is U-shaped in onboard compute",
            Self::E6Platforms => "§2.5: batched/vectorized software transforms motion planning",
            Self::E7EndToEnd => "§2.6: kernel speedups hit the end-to-end Amdahl/AI-tax ceiling",
            Self::E8Global => "§2.7: fleet carbon, edge-vs-cloud training, chiplet reuse",
            Self::E9Dse => "§3.1: surrogate-guided DSE finds better designs in fewer samples",
            Self::E10Contention => "§2.4: accelerators are not free — shared-bus contention",
            Self::E11Robustness => {
                "§2.6: graceful degradation beats fault-blind designs on mission success"
            }
            Self::E12Scenarios => {
                "§2.1+§3.1: procedural scenarios grade tiers; falsification finds the frontier"
            }
            Self::E13Roofline => {
                "§2.5: vectorized kernels placed on (and checked against) the roofline"
            }
            Self::E14Campaign => {
                "§2.1+§3.1: streaming campaigns pin per-stratum success curves at scale"
            }
            Self::E15Fusion => {
                "§2.5+§2.6: one fusion graph, three placements — contention, DVFS, backpressure"
            }
        }
    }

    /// Runs the experiment with default parameters, deterministic in
    /// `seed` (except E6's wall-clock rows; see [`Timing`]).
    #[must_use]
    pub fn run(self, seed: u64) -> Report {
        self.run_with(seed, Timing::Measured)
    }

    /// Runs the experiment with an explicit E6 [`Timing`] mode. With
    /// [`Timing::Modeled`] every report is a pure function of `seed`.
    #[must_use]
    pub fn run_with(self, seed: u64, timing: Timing) -> Report {
        self.run_in(seed, timing, &fresh_store()).0
    }

    /// Runs the experiment with its memoized objective evaluations (E9,
    /// E12, and E14) routed through `store`.
    ///
    /// Returns the report plus the number of evaluations `store` answered
    /// during this run (`0` for experiments that memoize nothing). The
    /// report is byte-identical for any store contents — memoization only
    /// skips re-scoring pure objectives. With a disk-backed
    /// [`TieredCache`](m7_serve::TieredCache) the scores survive
    /// process restarts, so a warm re-run reports larger savings.
    #[must_use]
    pub fn run_in<S: ResultStore<f64>>(
        self,
        seed: u64,
        timing: Timing,
        store: &S,
    ) -> (Report, u64) {
        EXPERIMENTS.incr();
        let _span = m7_trace::span_dyn(self.slug());
        let plain = |report: Report| (report, 0);
        match self {
            Self::E1Growth => plain(e1_growth::run(seed).report()),
            Self::E2Bridges => plain(e2_bridges::run().report()),
            Self::E3Metrics => plain(e3_metrics::run(seed).report()),
            Self::E4Widgetism => plain(e4_widgetism::run().report()),
            Self::E5Brakes => plain(e5_brakes::run(seed).report()),
            Self::E6Platforms => plain(e6_platforms::run_with(seed, timing).report()),
            Self::E7EndToEnd => plain(e7_endtoend::run().report()),
            Self::E8Global => plain(e8_global::run().report()),
            Self::E9Dse => {
                let (result, saved) = e9_dse::run_in(seed, store);
                (result.report(), saved)
            }
            Self::E10Contention => plain(e10_contention::run().report()),
            Self::E11Robustness => plain(e11_robustness::run(seed).report()),
            Self::E12Scenarios => {
                let (result, saved) = e12_scenarios::run_in(seed, store);
                (result.report(), saved)
            }
            Self::E13Roofline => plain(e13_roofline::run(timing).report()),
            Self::E14Campaign => {
                let (result, saved) = e14_campaign::run_in(seed, store);
                (result.report(), saved)
            }
            Self::E15Fusion => plain(e15_fusion::run(seed).report()),
        }
    }

    /// The experiment's seed under `root_seed`: derived from its position
    /// in paper order, so an experiment runs on the same seed whether or
    /// not the others run.
    #[must_use]
    pub fn seed(self, root_seed: u64) -> u64 {
        let index = Self::ALL.iter().position(|&e| e == self).expect("id is in ALL") as u64;
        derive_seed(root_seed, index)
    }
}

/// Capacity of the in-memory store each experiment run gets: enough for
/// every memoized key of E9, E12, or E14, so savings never depend on
/// eviction. [`EvalCache`] grows lazily, so the bound costs nothing for
/// experiments that memoize nothing.
const STORE_CAPACITY: usize = 1024;

/// A fresh in-memory store for one experiment run.
pub(crate) fn fresh_store() -> EvalCache<f64> {
    EvalCache::new(STORE_CAPACITY)
}

/// Resolves a slug-prefix filter to experiments in paper order.
///
/// `None` selects every experiment. A filter that matches nothing is an
/// error naming the known slugs, so a typo cannot silently run zero
/// experiments.
///
/// # Errors
///
/// Returns the "known slugs" message when the filter matches no slug.
pub fn select(filter: Option<&str>) -> Result<Vec<ExperimentId>, String> {
    let Some(f) = filter else { return Ok(ExperimentId::ALL.to_vec()) };
    let ids: Vec<ExperimentId> =
        ExperimentId::ALL.iter().copied().filter(|id| id.slug().starts_with(f)).collect();
    if ids.is_empty() {
        return Err(format!(
            "no experiment slug starts with {f:?}; known slugs: {}",
            known_slugs()
        ));
    }
    Ok(ids)
}

fn known_slugs() -> String {
    ExperimentId::ALL.map(ExperimentId::slug).join(", ")
}

/// Runs the selected experiments on the deterministic pool, each on its
/// [`ExperimentId::seed`] and with a fresh in-memory store, returning
/// `(id, report, evaluations saved)` in the given order regardless of
/// which finishes first.
///
/// With [`Timing::Modeled`] the reports are a pure function of
/// `root_seed` at any thread count; with [`Timing::Measured`] only E6's
/// and E13's wall-clock numbers vary. Because no two experiments share a
/// store, the savings figures are exact and thread-count invariant too.
/// `ParConfig::serial()` runs the experiments one at a time, inline.
///
/// # Errors
///
/// Returns an error listing the known slugs when `ids` is empty — an
/// empty selection is always a caller bug, never a valid no-op.
pub fn run(
    ids: &[ExperimentId],
    root_seed: u64,
    timing: Timing,
    par: ParConfig,
) -> Result<Vec<(ExperimentId, Report, u64)>, String> {
    if ids.is_empty() {
        return Err(format!("the experiment selection is empty; known slugs: {}", known_slugs()));
    }
    Ok(par.par_map(ids, |&id| {
        let (report, saved) = id.run_in(id.seed(root_seed), timing, &fresh_store());
        (id, report, saved)
    }))
}

/// [`run`] one experiment at a time, without the savings figures — kept
/// for callers that want reports only.
///
/// # Errors
///
/// Returns the same empty-selection error as [`run`].
pub fn run_selected_serial(
    ids: &[ExperimentId],
    root_seed: u64,
    timing: Timing,
) -> Result<Vec<(ExperimentId, Report)>, String> {
    let rows = run(ids, root_seed, timing, ParConfig::serial())?;
    Ok(rows.into_iter().map(|(id, report, _)| (id, report)).collect())
}

impl core::fmt::Display for ExperimentId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.slug())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_are_unique() {
        let mut slugs: Vec<&str> = ExperimentId::ALL.iter().map(|e| e.slug()).collect();
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), ExperimentId::ALL.len());
    }

    #[test]
    fn display_matches_slug() {
        assert_eq!(ExperimentId::E5Brakes.to_string(), "e5_brakes");
    }

    #[test]
    fn select_resolves_prefixes_and_defaults_to_all() {
        assert_eq!(select(None).unwrap(), ExperimentId::ALL.to_vec());
        assert_eq!(select(Some("e5")).unwrap(), vec![ExperimentId::E5Brakes]);
        // "e1" prefixes e1, e10, e11, e12, e13, e14, and e15.
        assert_eq!(
            select(Some("e1")).unwrap(),
            vec![
                ExperimentId::E1Growth,
                ExperimentId::E10Contention,
                ExperimentId::E11Robustness,
                ExperimentId::E12Scenarios,
                ExperimentId::E13Roofline,
                ExperimentId::E14Campaign,
                ExperimentId::E15Fusion,
            ]
        );
    }

    #[test]
    fn headline_shapes_hold_together() {
        // E2: the widget's deployed-stack speedup collapses versus its
        // benchmark speedup; the expert design wins where it matters.
        let e2 = e2_bridges::run();
        let widget = &e2.rows[0];
        let expert = &e2.rows[1];
        assert!(widget.1 > 2.0 && widget.2 < widget.1 / 2.0);
        assert!(expert.2 > widget.2);

        // E3: metric inversion.
        let e3 = e3_metrics::run(42);
        assert_ne!(e3.throughput_winner, e3.time_to_accuracy_winner);

        // E4: widget loses the suite geomean to the cross-cutting design.
        let e4 = e4_widgetism::run();
        let widget_idx = e4.designs.iter().position(|d| d == "widget-prm-asic").unwrap();
        let cross_idx = e4.designs.iter().position(|d| d == "crosscutting-asic").unwrap();
        assert!(e4.suite_geomean[cross_idx] > e4.suite_geomean[widget_idx]);

        // E5: U-shape with a middle-tier winner.
        let e5 = e5_brakes::run(42);
        assert!(e5.best_tier == "embedded" || e5.best_tier == "embedded-gpu");

        // E8: edge training dirtier; big fleets rival datacenters.
        let e8 = e8_global::run();
        assert!(e8.edge_cloud_ratio > 10.0);
        assert!(e8.fleet_rows.last().unwrap().2 > 100.0);
    }

    #[test]
    fn unknown_selection_errors_name_the_slugs() {
        let err = select(Some("e99")).unwrap_err();
        assert!(err.contains("no experiment slug starts with \"e99\""), "got {err}");
        assert!(err.contains("e11_robustness"), "error must list known slugs: {err}");
    }

    #[test]
    fn savings_are_thread_count_invariant_and_only_memoizing_experiments_save() {
        let serial = run(&ExperimentId::ALL, 42, Timing::Modeled, ParConfig::serial()).unwrap();
        let parallel =
            run(&ExperimentId::ALL, 42, Timing::Modeled, ParConfig::with_threads(4)).unwrap();
        let ids: Vec<ExperimentId> = parallel.iter().map(|(id, _, _)| *id).collect();
        assert_eq!(ids, ExperimentId::ALL, "reports come back in paper order");
        for ((id, report, saved), (_, preport, psaved)) in serial.iter().zip(&parallel) {
            assert_eq!(report.to_string(), preport.to_string(), "{id}: report must not move");
            assert_eq!(saved, psaved, "{id}: savings must be thread-count invariant");
            let memoizes = matches!(
                id,
                ExperimentId::E9Dse | ExperimentId::E12Scenarios | ExperimentId::E14Campaign
            );
            assert_eq!(*saved > 0, memoizes, "{id} saved {saved}");
        }
    }

    #[test]
    fn run_selected_serial_matches_the_runner() {
        let ids = [ExperimentId::E5Brakes, ExperimentId::E9Dse];
        let plain = run_selected_serial(&ids, 42, Timing::Modeled).unwrap();
        let rows = run(&ids, 42, Timing::Modeled, ParConfig::serial()).unwrap();
        assert_eq!(plain.len(), rows.len());
        for ((id, report), (rid, rreport, _)) in plain.iter().zip(&rows) {
            assert_eq!(id, rid);
            assert_eq!(report.to_string(), rreport.to_string(), "{id}");
        }
    }

    #[test]
    fn empty_selection_errs_and_names_the_slugs() {
        let err = run(&[], 42, Timing::Modeled, ParConfig::default()).unwrap_err();
        assert!(err.starts_with("the experiment selection is empty;"), "got {err}");
        assert!(err.contains("known slugs: e1_growth, e2_bridges"), "got {err}");
        assert_eq!(run_selected_serial(&[], 42, Timing::Modeled).unwrap_err(), err);
    }

    #[test]
    fn single_selection_keeps_its_full_run_seed() {
        let ids = [ExperimentId::E1Growth, ExperimentId::E5Brakes];
        let pair = run_selected_serial(&ids, 42, Timing::Modeled).unwrap();
        let solo = run_selected_serial(&ids[1..], 42, Timing::Modeled).unwrap();
        assert_eq!(solo[0].1.to_string(), pair[1].1.to_string());
    }
}
