//! Deterministic, seeded procedural world generators.
//!
//! [`generate`] maps `(family, level, seed)` to a [`Scenario`], pure in
//! all three arguments: the same triple always yields a bit-identical
//! scenario, on any host and at any `M7_THREADS` setting (generation
//! never touches the pool). The `level` knob in `[0, 1]` scales both
//! the geometry (narrower passages, denser clutter, faster movers) and
//! the environment profile (gusts, payload, sensor derate).

use crate::scenario::{CircleObs, Family, Mover, RectObs, Scenario};
use m7_kernels::Vec2;
use m7_trace::{MetricClass, SpanSite, TraceCounter, TraceHistogram};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Side length of every generated world (meters).
pub(crate) const WORLD_SIZE: f64 = 40.0;
/// Free-space disk kept around the start and goal when placing
/// randomized obstacles.
pub(crate) const ENDPOINT_CLEARANCE: f64 = 1.5;

// Scenario observability (no-ops until `m7_trace::enable()`).
static GENERATE: SpanSite = SpanSite::new("scen.generate", MetricClass::Deterministic);
static GENERATED: TraceCounter = TraceCounter::new("scen.scenarios", MetricClass::Deterministic);
static OBSTACLES: TraceHistogram =
    TraceHistogram::new("scen.obstacles", MetricClass::Deterministic);

/// Decorrelates the per-family RNG streams for one seed.
fn family_salt(family: Family) -> u64 {
    match family {
        Family::Corridor => 0x5CE0_0001_C0FF_EE01,
        Family::Maze => 0x5CE0_0002_C0FF_EE02,
        Family::Forest => 0x5CE0_0003_C0FF_EE03,
        Family::UrbanCanyon => 0x5CE0_0004_C0FF_EE04,
        Family::MovingObstacles => 0x5CE0_0005_C0FF_EE05,
        Family::Rooms => 0x5CE0_0006_C0FF_EE06,
    }
}

/// Generates a scenario: pure in `(family, level, seed)`.
///
/// `level` is clamped to `[0, 1]`. Randomized obstacles keep 1.5 m
/// clear of the start and goal, and every
/// obstacle footprint (movers at their inflated radius) stays inside
/// the `[0, WORLD_SIZE]²` world.
///
/// # Panics
///
/// Panics if `level` is not finite.
///
/// # Examples
///
/// ```
/// use m7_scen::{generate, Family};
///
/// let easy = generate(Family::Maze, 0.1, 42);
/// let hard = generate(Family::Maze, 0.9, 42);
/// assert!(hard.difficulty() > easy.difficulty());
/// assert_eq!(generate(Family::Maze, 0.1, 42), easy);
/// ```
#[must_use]
pub fn generate(family: Family, level: f64, seed: u64) -> Scenario {
    assert!(level.is_finite(), "difficulty level must be finite");
    let level = level.clamp(0.0, 1.0);
    let _span = GENERATE.enter();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ family_salt(family));

    let mid = WORLD_SIZE / 2.0;
    let start = Vec2::new(2.5, mid);
    let goal = Vec2::new(WORLD_SIZE - 2.5, mid);
    let mut scenario = Scenario {
        family,
        seed,
        level,
        width: WORLD_SIZE,
        height: WORLD_SIZE,
        start,
        goal,
        circles: Vec::new(),
        rects: Vec::new(),
        movers: Vec::new(),
        // Environment stress scales with the difficulty knob.
        gust_std: 0.05 + 0.3 * level,
        payload_grams: 600.0 * level,
        sensor_derate: 1.0 - 0.65 * level,
    };

    let clears_endpoints = |center: Vec2, footprint: f64| {
        center.distance(start) > footprint + ENDPOINT_CLEARANCE
            && center.distance(goal) > footprint + ENDPOINT_CLEARANCE
    };

    match family {
        Family::Corridor => {
            // Two long walls around a shrinking passage, plus clutter.
            let gap = 7.0 - 5.5 * level;
            let thickness = 1.2;
            scenario.rects.push(RectObs {
                min: Vec2::new(0.0, mid - gap / 2.0 - thickness),
                max: Vec2::new(WORLD_SIZE, mid - gap / 2.0),
            });
            scenario.rects.push(RectObs {
                min: Vec2::new(0.0, mid + gap / 2.0),
                max: Vec2::new(WORLD_SIZE, mid + gap / 2.0 + thickness),
            });
            let clutter = (level * 6.0).round() as usize;
            for _ in 0..clutter {
                let radius = rng.gen_range(0.25..0.5);
                let margin = radius + 0.2;
                if gap / 2.0 <= margin {
                    continue; // passage too narrow for clutter
                }
                let c = Vec2::new(
                    rng.gen_range(8.0..WORLD_SIZE - 8.0),
                    rng.gen_range(mid - gap / 2.0 + margin..mid + gap / 2.0 - margin),
                );
                if clears_endpoints(c, radius) {
                    scenario.circles.push(CircleObs { center: c, radius });
                }
            }
        }
        Family::Maze => {
            // Vertical walls, one gap each; gaps shrink with level.
            let thickness = 0.9;
            let gap = 9.0 - 6.5 * level;
            for wall in 0..4 {
                let x0 = 8.0 + 8.0 * wall as f64;
                let gy = rng.gen_range(4.0 + gap / 2.0..WORLD_SIZE - 4.0 - gap / 2.0);
                scenario.rects.push(RectObs {
                    min: Vec2::new(x0 - thickness / 2.0, 0.0),
                    max: Vec2::new(x0 + thickness / 2.0, gy - gap / 2.0),
                });
                scenario.rects.push(RectObs {
                    min: Vec2::new(x0 - thickness / 2.0, gy + gap / 2.0),
                    max: Vec2::new(x0 + thickness / 2.0, WORLD_SIZE),
                });
            }
        }
        Family::Forest => {
            // Uniformly scattered trees; count and girth grow with level.
            let count = 8 + (level * 48.0) as usize;
            let mut placed = 0usize;
            for _ in 0..count * 8 {
                if placed == count {
                    break;
                }
                let radius = rng.gen_range(0.4..0.8 + 0.8 * level);
                let lo = radius + 0.2;
                let hi = WORLD_SIZE - radius - 0.2;
                let c = Vec2::new(rng.gen_range(lo..hi), rng.gen_range(lo..hi));
                if clears_endpoints(c, radius) {
                    scenario.circles.push(CircleObs { center: c, radius });
                    placed += 1;
                }
            }
        }
        Family::UrbanCanyon => {
            // Two rows of buildings around a canyon that narrows with
            // level; cross streets shrink as buildings widen.
            let half_gap = 5.0 - 3.5 * level;
            let depth = 10.0;
            for row in 0..2 {
                let (y_lo, y_hi) = if row == 0 {
                    ((mid - half_gap - depth).max(0.5), mid - half_gap)
                } else {
                    (mid + half_gap, (mid + half_gap + depth).min(WORLD_SIZE - 0.5))
                };
                for slot in 0..4 {
                    let x0 = 3.0 + 9.0 * slot as f64 + rng.gen_range(0.0..0.5);
                    let width = 6.0 + rng.gen_range(0.0..1.5) * level;
                    scenario.rects.push(RectObs {
                        min: Vec2::new(x0, y_lo),
                        max: Vec2::new((x0 + width).min(WORLD_SIZE - 0.5), y_hi),
                    });
                }
            }
        }
        Family::MovingObstacles => {
            // A sparse forest plus circular obstacles in linear motion.
            let trees = 6 + (level * 18.0) as usize;
            let mut placed = 0usize;
            for _ in 0..trees * 8 {
                if placed == trees {
                    break;
                }
                let radius = rng.gen_range(0.4..0.9);
                let lo = radius + 0.2;
                let hi = WORLD_SIZE - radius - 0.2;
                let c = Vec2::new(rng.gen_range(lo..hi), rng.gen_range(lo..hi));
                if clears_endpoints(c, radius) {
                    scenario.circles.push(CircleObs { center: c, radius });
                    placed += 1;
                }
            }
            let movers = 2 + (level * 5.0) as usize;
            let speed = 0.3 + 1.7 * level;
            let radius = 0.7;
            let footprint = radius + speed * crate::scenario::MOVER_HORIZON_S;
            let mut placed = 0usize;
            for _ in 0..movers * 10 {
                if placed == movers {
                    break;
                }
                let lo = footprint + 0.2;
                let hi = WORLD_SIZE - footprint - 0.2;
                let c = Vec2::new(rng.gen_range(lo..hi), rng.gen_range(lo..hi));
                let heading = rng.gen_range(0.0..core::f64::consts::TAU);
                if clears_endpoints(c, footprint) {
                    scenario.movers.push(Mover {
                        center: c,
                        radius,
                        velocity: Vec2::new(heading.cos(), heading.sin()) * speed,
                    });
                    placed += 1;
                }
            }
        }
        Family::Rooms => {
            // Interior walls carve the floor into a 3×3 room grid.
            // Every wall span between two crossings keeps exactly one
            // doorway, so the rooms stay connected, but the doorway
            // clearance shrinks with level — the clearance constraint
            // an indoor platform has to thread.
            let thickness = 0.8;
            let doorway = 4.5 - 3.3 * level;
            let lines = [WORLD_SIZE / 3.0, 2.0 * WORLD_SIZE / 3.0];
            let cuts = [0.0, lines[0], lines[1], WORLD_SIZE];
            let mut doorways: Vec<Vec2> = Vec::new();
            for &pos in &lines {
                for span in 0..3 {
                    // Vertical wall at x = pos, one span per room row.
                    let (lo, hi) = (cuts[span], cuts[span + 1]);
                    let margin = doorway / 2.0 + thickness;
                    let d = rng.gen_range(lo + margin..hi - margin);
                    scenario.rects.push(RectObs {
                        min: Vec2::new(pos - thickness / 2.0, lo),
                        max: Vec2::new(pos + thickness / 2.0, d - doorway / 2.0),
                    });
                    scenario.rects.push(RectObs {
                        min: Vec2::new(pos - thickness / 2.0, d + doorway / 2.0),
                        max: Vec2::new(pos + thickness / 2.0, hi),
                    });
                    doorways.push(Vec2::new(pos, d));
                }
                for span in 0..3 {
                    // Horizontal wall at y = pos, one span per room column.
                    let (lo, hi) = (cuts[span], cuts[span + 1]);
                    let margin = doorway / 2.0 + thickness;
                    let d = rng.gen_range(lo + margin..hi - margin);
                    scenario.rects.push(RectObs {
                        min: Vec2::new(lo, pos - thickness / 2.0),
                        max: Vec2::new(d - doorway / 2.0, pos + thickness / 2.0),
                    });
                    scenario.rects.push(RectObs {
                        min: Vec2::new(d + doorway / 2.0, pos - thickness / 2.0),
                        max: Vec2::new(hi, pos + thickness / 2.0),
                    });
                    doorways.push(Vec2::new(d, pos));
                }
            }
            // Furniture clutter inside the rooms, kept clear of the
            // endpoints and of every doorway so connectivity survives.
            let clutter = (level * 10.0) as usize;
            let mut placed = 0usize;
            for _ in 0..clutter * 8 {
                if placed == clutter {
                    break;
                }
                let radius = rng.gen_range(0.3..0.6);
                let lo = radius + 0.2;
                let hi = WORLD_SIZE - radius - 0.2;
                let c = Vec2::new(rng.gen_range(lo..hi), rng.gen_range(lo..hi));
                let clears_doorways =
                    doorways.iter().all(|d| c.distance(*d) > doorway / 2.0 + radius + 0.5);
                if clears_endpoints(c, radius) && clears_doorways {
                    scenario.circles.push(CircleObs { center: c, radius });
                    placed += 1;
                }
            }
        }
    }

    GENERATED.incr();
    OBSTACLES.record(scenario.obstacle_count() as u64);
    scenario
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Returns `true` if every obstacle footprint (movers inflated) lies
    /// inside the scenario's `[0, width] × [0, height]` bounds — the
    /// invariant [`generate`] guarantees, re-checkable on parsed input.
    fn obstacles_in_bounds(s: &Scenario) -> bool {
        let inside = |min: Vec2, max: Vec2| {
            min.x >= 0.0 && min.y >= 0.0 && max.x <= s.width && max.y <= s.height
        };
        s.circles.iter().all(|c| {
            let r = Vec2::new(c.radius, c.radius);
            inside(c.center - r, c.center + r)
        }) && s.rects.iter().all(|r| inside(r.min, r.max))
            && s.movers.iter().all(|m| {
                let r = Vec2::new(m.inflated_radius(), m.inflated_radius());
                inside(m.center - r, m.center + r)
            })
    }

    proptest::proptest! {
        /// Every obstacle footprint (movers at their inflated radius) lies
        /// inside the world bounds.
        #[test]
        fn all_obstacles_are_within_grid_bounds(
            fam in 0usize..Family::ALL.len(),
            level in 0.0f64..=1.0,
            seed in 0u64..1 << 32,
        ) {
            let family = Family::ALL[fam];
            let s = generate(family, level, seed);
            proptest::prop_assert!(obstacles_in_bounds(&s), "{family} {level} {seed} leaks out of bounds");
        }
    }

    #[test]
    fn same_triple_is_bit_identical() {
        for family in Family::ALL {
            let a = generate(family, 0.6, 9);
            let b = generate(family, 0.6, 9);
            assert_eq!(a, b, "{family} generation must be deterministic");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(Family::Forest, 0.5, 1);
        let b = generate(Family::Forest, 0.5, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn endpoints_are_always_free() {
        for family in Family::ALL {
            for seed in 0..8 {
                for level in [0.0, 0.3, 0.7, 1.0] {
                    let s = generate(family, level, seed);
                    assert!(
                        !s.point_blocked(s.start) && !s.point_blocked(s.goal),
                        "{family} level {level} seed {seed} blocks an endpoint"
                    );
                }
            }
        }
    }

    #[test]
    fn obstacles_stay_in_bounds() {
        for family in Family::ALL {
            for seed in 0..8 {
                let s = generate(family, 1.0, seed);
                assert!(obstacles_in_bounds(&s), "{family} seed {seed} leaks out of bounds");
            }
        }
    }

    #[test]
    fn level_raises_difficulty() {
        for family in Family::ALL {
            let easy = generate(family, 0.1, 3).difficulty();
            let hard = generate(family, 0.9, 3).difficulty();
            assert!(hard > easy + 0.1, "{family}: {easy} -> {hard}");
        }
    }

    #[test]
    fn level_is_clamped() {
        assert_eq!(generate(Family::Maze, 2.0, 5), generate(Family::Maze, 1.0, 5));
        assert_eq!(generate(Family::Maze, -1.0, 5), generate(Family::Maze, 0.0, 5));
    }

    #[test]
    fn families_produce_their_signature_geometry() {
        assert!(generate(Family::Corridor, 0.5, 1).rects.len() >= 2);
        assert_eq!(generate(Family::Maze, 0.5, 1).rects.len(), 8);
        assert!(generate(Family::Forest, 0.5, 1).circles.len() >= 8);
        assert_eq!(generate(Family::UrbanCanyon, 0.5, 1).rects.len(), 8);
        assert!(!generate(Family::MovingObstacles, 0.5, 1).movers.is_empty());
        // Rooms: 4 interior walls × 3 spans × 2 rects around each doorway.
        assert_eq!(generate(Family::Rooms, 0.5, 1).rects.len(), 24);
    }

    #[test]
    fn rooms_doorways_narrow_with_level_but_never_close() {
        // The widest vertical gap in each wall span is the doorway; it
        // must shrink with level and stay positive (connectivity).
        let gap_at = |level: f64| {
            let s = generate(Family::Rooms, level, 11);
            // Vertical-wall rects come in pairs around a doorway; the
            // doorway height is the gap between a pair's two rects.
            let pair = (&s.rects[0], &s.rects[1]);
            pair.1.min.y - pair.0.max.y
        };
        let (easy, hard) = (gap_at(0.1), gap_at(0.9));
        assert!(hard < easy, "doorways must narrow: {easy} -> {hard}");
        assert!(hard > 1.0, "doorways must stay passable: {hard}");
    }
}
