//! Property tests for the campaign statistics and seed schedule:
//! merge-order invariance of the per-worker sketches and collision
//! freedom of the stratified seed derivation. The Wilson interval's
//! properties are unit tests in `stats.rs`.

use m7_camp::{CampaignPlan, StratumSketch};
use m7_scen::ScenOutcome;
use m7_serve::DiskCodec;
use m7_sim::uav::ComputeTier;
use proptest::prelude::*;

/// A synthetic outcome for sketch-recording properties.
fn outcome(success: bool, completed: bool, time_s: f64) -> ScenOutcome {
    ScenOutcome {
        success,
        completed,
        deadline_miss: completed && !success,
        time_s,
        deadline_s: 60.0,
        energy_j: 10.0,
        distance_m: 80.0,
    }
}

proptest! {
    /// Per-worker sketches merge to bit-identical totals in any order:
    /// merging left-to-right equals merging right-to-left equals any
    /// pairing, because the accumulators are saturating integers.
    #[test]
    fn sketch_merge_is_order_invariant(
        spec in proptest::collection::vec((prop::bool::ANY, prop::bool::ANY, 0.0f64..1e4), 1..20),
    ) {
        let sketches: Vec<StratumSketch> = spec
            .iter()
            .map(|&(success, completed, time_s)| {
                let mut s = StratumSketch::default();
                s.record(&outcome(success && completed, completed, time_s), 0.5);
                s
            })
            .collect();
        let mut forward = StratumSketch::default();
        for s in &sketches {
            forward.merge(s);
        }
        let mut backward = StratumSketch::default();
        for s in sketches.iter().rev() {
            backward.merge(s);
        }
        // Pairwise tree merge, as a wide worker pool would produce.
        let mut tree = sketches.clone();
        while tree.len() > 1 {
            let mut next = Vec::new();
            for pair in tree.chunks(2) {
                let mut m = pair[0];
                if let Some(b) = pair.get(1) {
                    m.merge(b);
                }
                next.push(m);
            }
            tree = next;
        }
        prop_assert_eq!(forward, backward);
        prop_assert_eq!(forward, tree[0]);
    }

    /// The sketch disk codec round-trips exactly.
    #[test]
    fn sketch_codec_round_trips(
        trials in 0u64..1 << 40,
        successes in 0u64..1 << 40,
        time_us in 0u64..1 << 50,
    ) {
        let s = StratumSketch {
            trials,
            successes,
            deadline_misses: trials / 3,
            incompletes: trials / 7,
            time_us,
            difficulty_ppm: successes / 2,
        };
        let mut bytes = Vec::new();
        s.encode(&mut bytes);
        prop_assert_eq!(StratumSketch::decode(&bytes), Some(s));
    }

    /// The stratified seed schedule never hands the same world seed to
    /// two different (stratum, draw) cells — the streams are disjoint.
    #[test]
    fn stratified_seed_derivation_is_collision_free(root in 0u64..u64::MAX) {
        let plan = CampaignPlan::new(ComputeTier::Micro, 1000);
        let mut seen = std::collections::HashSet::new();
        for stratum in 0..plan.strata() {
            for draw in 0..40 {
                let (_, seed) = plan.draw(root, stratum, draw);
                prop_assert!(
                    seen.insert(seed),
                    "seed collision at stratum {stratum} draw {draw}"
                );
            }
        }
    }

    /// Draw levels always land inside the stratum's decile.
    #[test]
    fn draw_levels_respect_their_stratum(
        root in 0u64..u64::MAX,
        stratum in 0usize..60,
        draw in 0usize..1000,
    ) {
        let plan = CampaignPlan::new(ComputeTier::Embedded, 1000);
        let (lo, hi) = plan.level_range(plan.decile(stratum));
        let (level, _) = plan.draw(root, stratum, draw);
        prop_assert!(level >= lo && level < hi, "level {level} outside [{lo}, {hi})");
    }
}
