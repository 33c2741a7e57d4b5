//! The campaign determinism contract, end to end: a campaign checkpointed
//! through the disk-backed tiered cache must produce the byte-identical
//! report on a cold run, a resumed run, and a thread-count change —
//! with the warm resume re-evaluating nothing.

use magseven::camp::{run_campaign, CampaignPlan};
use magseven::par::ParConfig;
use magseven::serve::{EvalCache, TierConfig, TieredCache};
use magseven::sim::uav::ComputeTier;

fn small_plan() -> CampaignPlan {
    let mut plan = CampaignPlan::new(ComputeTier::Micro, 120);
    plan.chunk = 8;
    plan
}

/// Cold (memory-only) and checkpointed (disk-backed) campaigns agree
/// byte for byte, and the resumed run replays every unit from disk.
#[test]
fn cold_and_resumed_campaigns_are_byte_identical() {
    let dir = std::env::temp_dir().join(format!("m7camp-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let plan = small_plan();

    let reference = {
        let (units, falsify) = (EvalCache::new(256), EvalCache::new(256));
        run_campaign(&plan, 7, ParConfig::with_threads(2), &units, &falsify)
    };

    let cold = {
        let units: TieredCache<magseven::camp::StratumSketch> =
            TieredCache::open(256, TierConfig::disk(dir.join("units"))).unwrap();
        let falsify: TieredCache<f64> =
            TieredCache::open(256, TierConfig::disk(dir.join("falsify"))).unwrap();
        let out = run_campaign(&plan, 7, ParConfig::with_threads(2), &units, &falsify);
        units.sync().unwrap();
        falsify.sync().unwrap();
        out
    };
    assert_eq!(cold.units_from_store, 0, "an empty store cannot replay units");
    assert_eq!(cold.strata, reference.strata);
    assert_eq!(cold.rounds, reference.rounds);
    assert_eq!(cold.coverage, reference.coverage);

    // Resume in a "fresh process": reopen the stores from disk, run at a
    // different thread count, and require zero re-evaluations.
    let resumed = {
        let units: TieredCache<magseven::camp::StratumSketch> =
            TieredCache::open(256, TierConfig::disk(dir.join("units"))).unwrap();
        let falsify: TieredCache<f64> =
            TieredCache::open(256, TierConfig::disk(dir.join("falsify"))).unwrap();
        assert!(
            units.recovery().is_some_and(|r| r.live_entries > 0),
            "the resumed store must recover the cold run's checkpoints"
        );
        run_campaign(&plan, 7, ParConfig::with_threads(8), &units, &falsify)
    };
    assert_eq!(
        resumed.units_from_store, resumed.units,
        "a warm resume must replay every unit and re-evaluate none"
    );
    assert_eq!(resumed.strata, cold.strata);
    assert_eq!(resumed.rounds, cold.rounds);
    assert_eq!(resumed.coverage, cold.coverage);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Checkpoints are keyed by the plan fingerprint: a different plan
/// sharing the same store must never replay the other plan's units.
#[test]
fn different_plans_never_share_checkpoints() {
    let units = EvalCache::new(512);
    let falsify = EvalCache::new(512);
    let a = small_plan();
    let mut b = small_plan();
    b.budget = 96;
    let _ = run_campaign(&a, 7, ParConfig::serial(), &units, &falsify);
    let out_b = run_campaign(&b, 7, ParConfig::serial(), &units, &falsify);
    assert_eq!(
        out_b.units_from_store, 0,
        "plan B must not replay plan A's units despite the shared store"
    );
}
