//! Property tests for scenario generation and the scenario DSL:
//! endpoint freedom, bounds invariants, seed/thread determinism, and
//! exact DSL round-tripping across the whole parameter space.

use m7_par::ParConfig;
use m7_scen::{generate, parse_scenario, render_scenario, Family};
use proptest::prelude::*;

proptest! {
    /// The start and goal are always collision-free, for every family,
    /// level, and seed — an RRT query from start to goal is well-posed.
    #[test]
    fn start_and_goal_are_collision_free(
        fam in 0usize..Family::ALL.len(),
        level in 0.0f64..=1.0,
        seed in 0u64..1 << 32,
    ) {
        let family = Family::ALL[fam];
        let s = generate(family, level, seed);
        prop_assert!(!s.point_blocked(s.start), "start blocked: {family} {level} {seed}");
        prop_assert!(!s.point_blocked(s.goal), "goal blocked: {family} {level} {seed}");
        let world = s.collision_world();
        prop_assert!(world.point_free(s.start));
        prop_assert!(world.point_free(s.goal));
    }

    /// The same (family, level, seed) triple yields a bit-identical
    /// scenario whether generated serially or inside a wide pool —
    /// generation is invariant to `M7_THREADS`.
    #[test]
    fn same_seed_is_bit_identical_at_any_thread_count(
        fam in 0usize..Family::ALL.len(),
        level in 0.0f64..=1.0,
        seed in 0u64..1 << 32,
    ) {
        let family = Family::ALL[fam];
        let reference = generate(family, level, seed);
        for threads in [1usize, 4, 8] {
            let pool = ParConfig::with_threads(threads);
            let clones = pool.par_map(&[seed; 4], |&s| generate(family, level, s));
            for clone in clones {
                prop_assert_eq!(&clone, &reference, "thread count {} diverged", threads);
            }
        }
    }

    /// The DSL round-trips exactly: `parse(render(s)) == s`.
    #[test]
    fn dsl_round_trips_exactly(
        fam in 0usize..Family::ALL.len(),
        level in 0.0f64..=1.0,
        seed in 0u64..1 << 32,
    ) {
        let family = Family::ALL[fam];
        let s = generate(family, level, seed);
        let text = render_scenario(&s);
        let back = parse_scenario(&text).expect("rendered scenario parses");
        prop_assert_eq!(back, s);
    }
}
