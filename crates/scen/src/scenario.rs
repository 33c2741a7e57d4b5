//! The typed [`Scenario`] value: a parametric world plus an environment
//! profile, consumable by both closed loops in `m7-sim`.
//!
//! A scenario owns its obstacle *primitives* (circles, axis-aligned
//! rects, and moving circles) rather than a built
//! [`m7_kernels::CollisionWorld`], so it is
//! cheap to clone, serialize, compare bit-for-bit, and round-trip
//! through the textual DSL ([`crate::parse_scenario`]). The collision world — with
//! moving obstacles conservatively inflated by their motion over a
//! short planning horizon — is built on demand.

use m7_kernels::{CollisionWorld, Vec2};

/// Planning horizon (seconds) by which a moving obstacle is inflated
/// when the scenario is flattened into a static [`CollisionWorld`]: the
/// swept disk a conservative planner must avoid.
pub(crate) const MOVER_HORIZON_S: f64 = 1.5;

/// The procedural generator families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// A narrow passage between two long walls, with clutter at higher
    /// difficulty.
    Corridor,
    /// Vertical walls with one gap each — the path snakes through.
    Maze,
    /// Uniformly scattered circular trees.
    Forest,
    /// Two rows of rectangular buildings around a shrinking canyon.
    UrbanCanyon,
    /// A sparse forest plus circular obstacles that move.
    MovingObstacles,
    /// A multi-room indoor floor plan: interior walls carve the world
    /// into a 3×3 room grid, every wall span pierced by one doorway
    /// whose clearance shrinks with difficulty.
    Rooms,
}

impl Family {
    /// All families, in generation order.
    pub const ALL: [Self; 6] = [
        Self::Corridor,
        Self::Maze,
        Self::Forest,
        Self::UrbanCanyon,
        Self::MovingObstacles,
        Self::Rooms,
    ];

    /// The DSL / report name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Corridor => "corridor",
            Self::Maze => "maze",
            Self::Forest => "forest",
            Self::UrbanCanyon => "urban-canyon",
            Self::MovingObstacles => "moving",
            Self::Rooms => "rooms",
        }
    }

    /// Parses a DSL name back to a family.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|f| f.name() == s)
    }
}

impl core::fmt::Display for Family {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// A static circular obstacle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircleObs {
    /// Center position.
    pub center: Vec2,
    /// Radius (meters).
    pub radius: f64,
}

/// A static axis-aligned rectangular obstacle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RectObs {
    /// Minimum corner.
    pub min: Vec2,
    /// Maximum corner.
    pub max: Vec2,
}

/// A circular obstacle that moves at constant velocity, reflecting off
/// the world bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mover {
    /// Position at `t = 0`.
    pub center: Vec2,
    /// Body radius (meters).
    pub radius: f64,
    /// Velocity (m/s).
    pub velocity: Vec2,
}

impl Mover {
    /// Speed (m/s).
    #[must_use]
    pub fn speed(&self) -> f64 {
        self.velocity.norm()
    }

    /// The conservative static footprint: body radius plus the distance
    /// covered over [`MOVER_HORIZON_S`].
    #[must_use]
    pub(crate) fn inflated_radius(&self) -> f64 {
        self.radius + self.speed() * MOVER_HORIZON_S
    }
}

/// A generated (or parsed) scenario: world geometry, mission endpoints,
/// and the environment profile the closed loops consume.
///
/// Equality is bit-exact over every field, which is what the
/// determinism and DSL round-trip guarantees are stated against.
///
/// # Examples
///
/// ```
/// use m7_scen::{generate, Family};
///
/// let s = generate(Family::Forest, 0.5, 7);
/// assert!(s.collision_world().point_free(s.start));
/// assert!(s.difficulty() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Which generator produced this world.
    pub family: Family,
    /// The generation seed (recorded so a scenario names its own
    /// provenance and derived evaluation streams).
    pub seed: u64,
    /// The requested difficulty knob in `[0, 1]` the generator was run
    /// at. The *realized* difficulty is [`Scenario::difficulty`].
    pub level: f64,
    /// World width (meters).
    pub width: f64,
    /// World height (meters).
    pub height: f64,
    /// Mission start point.
    pub start: Vec2,
    /// Mission goal point.
    pub goal: Vec2,
    /// Static circular obstacles.
    pub circles: Vec<CircleObs>,
    /// Static rectangular obstacles.
    pub rects: Vec<RectObs>,
    /// Moving obstacles.
    pub movers: Vec<Mover>,
    /// Gust disturbance standard deviation (fraction of commanded
    /// speed) for the UAV loop.
    pub gust_std: f64,
    /// Cargo mass carried on the mission (grams).
    pub payload_grams: f64,
    /// Sensor-noise profile as an effective range multiplier in
    /// `(0, 1]`: degraded visibility shrinks usable sensing range.
    pub sensor_derate: f64,
}

impl Scenario {
    /// Total number of obstacles (static and moving).
    #[must_use]
    pub fn obstacle_count(&self) -> usize {
        self.circles.len() + self.rects.len() + self.movers.len()
    }

    /// Straight-line start→goal distance (meters).
    #[must_use]
    pub(crate) fn straight_line(&self) -> f64 {
        self.start.distance(self.goal)
    }

    /// Returns `true` if `p` is inside any obstacle, with movers taken
    /// at their conservative inflated footprint.
    #[must_use]
    pub fn point_blocked(&self, p: Vec2) -> bool {
        self.circles.iter().any(|c| p.distance_squared(c.center) <= c.radius * c.radius)
            || self
                .rects
                .iter()
                .any(|r| p.x >= r.min.x && p.x <= r.max.x && p.y >= r.min.y && p.y <= r.max.y)
            || self.movers.iter().any(|m| {
                let r = m.inflated_radius();
                p.distance_squared(m.center) <= r * r
            })
    }

    /// Builds the static [`CollisionWorld`] the planners consume:
    /// circles and rects verbatim, movers as circles inflated by their
    /// motion over a 1.5 s horizon.
    #[must_use]
    pub fn collision_world(&self) -> CollisionWorld {
        let mut world = CollisionWorld::new(self.width, self.height);
        for c in &self.circles {
            world.add_circle(c.center, c.radius);
        }
        for r in &self.rects {
            world.add_rect(r.min, r.max);
        }
        for m in &self.movers {
            world.add_circle(m.center, m.inflated_radius());
        }
        world
    }

    /// Rasterizes the world into a `cols × rows` boolean occupancy
    /// grid (row-major, row 0 at `y = 0`), sampling cell centers.
    #[must_use]
    pub(crate) fn rasterize(&self, cols: usize, rows: usize) -> Vec<bool> {
        assert!(cols > 0 && rows > 0, "raster needs at least one cell");
        let mut cells = Vec::with_capacity(cols * rows);
        for row in 0..rows {
            for col in 0..cols {
                let p = Vec2::new(
                    (col as f64 + 0.5) * self.width / cols as f64,
                    (row as f64 + 0.5) * self.height / rows as f64,
                );
                cells.push(self.point_blocked(p));
            }
        }
        cells
    }

    /// Fraction of the world area occupied by obstacles, estimated on a
    /// 1-meter sampling grid — the geometric load behind
    /// [`Scenario::difficulty`].
    #[must_use]
    pub(crate) fn occupancy_fraction(&self) -> f64 {
        let cols = (self.width.ceil() as usize).max(1);
        let rows = (self.height.ceil() as usize).max(1);
        let cells = self.rasterize(cols, rows);
        cells.iter().filter(|&&b| b).count() as f64 / cells.len() as f64
    }

    /// The computed difficulty score, a pure function of the realized
    /// scenario (not of the requested `level`): a weighted blend of
    /// geometric load (occupancy, clutter count, obstacle motion) and
    /// environment stress (gusts, payload, sensor derate), roughly in
    /// `[0, 1]`.
    #[must_use]
    pub fn difficulty(&self) -> f64 {
        let geo = (self.occupancy_fraction() / 0.35).min(1.0);
        let clutter = (self.obstacle_count() as f64 / 60.0).min(1.0);
        let top_speed = self.movers.iter().map(Mover::speed).fold(0.0f64, f64::max);
        let motion = (top_speed / 2.0).min(1.0);
        let gust = (self.gust_std / 0.35).min(1.0);
        let payload = (self.payload_grams / 700.0).min(1.0);
        let sensing = ((1.0 - self.sensor_derate) / 0.7).clamp(0.0, 1.0);
        0.25 * geo + 0.05 * clutter + 0.10 * motion + 0.15 * gust + 0.15 * payload + 0.30 * sensing
    }

    /// Renders the world as ASCII art (`#` static obstacle, `o` moving
    /// obstacle footprint, `S` start, `G` goal), `cols × rows`
    /// characters with row 0 at the *top* (max `y`). A cell is marked
    /// if an obstacle *overlaps* it at all (not just its center), so
    /// thin walls never vanish between sample rows.
    #[must_use]
    pub fn ascii_art(&self, cols: usize, rows: usize) -> String {
        assert!(cols > 0 && rows > 0, "ascii art needs at least one cell");
        let half = Vec2::new(0.5 * self.width / cols as f64, 0.5 * self.height / rows as f64);
        let mut out = String::with_capacity((cols + 1) * rows);
        let cell = |col: usize, row: usize| -> Vec2 {
            Vec2::new(
                (col as f64 + 0.5) * self.width / cols as f64,
                // Row 0 renders the top of the world.
                (rows as f64 - row as f64 - 0.5) * self.height / rows as f64,
            )
        };
        // Squared distance from a disk center to the cell around `p`:
        // zero inside, so a disk overlaps iff this is within radius².
        let disk_overlaps = |p: Vec2, center: Vec2, radius: f64| -> bool {
            let dx = ((center.x - p.x).abs() - half.x).max(0.0);
            let dy = ((center.y - p.y).abs() - half.y).max(0.0);
            dx * dx + dy * dy <= radius * radius
        };
        let rect_overlaps = |p: Vec2, r: &RectObs| -> bool {
            r.min.x <= p.x + half.x
                && r.max.x >= p.x - half.x
                && r.min.y <= p.y + half.y
                && r.max.y >= p.y - half.y
        };
        let mark = |p: Vec2, q: Vec2| -> bool {
            (p.x - q.x).abs() <= half.x && (p.y - q.y).abs() <= half.y
        };
        for row in 0..rows {
            for col in 0..cols {
                let p = cell(col, row);
                let ch = if mark(p, self.start) {
                    'S'
                } else if mark(p, self.goal) {
                    'G'
                } else if self
                    .movers
                    .iter()
                    .any(|m| disk_overlaps(p, m.center, m.inflated_radius()))
                {
                    'o'
                } else if self.circles.iter().any(|c| disk_overlaps(p, c.center, c.radius))
                    || self.rects.iter().any(|r| rect_overlaps(p, r))
                {
                    '#'
                } else {
                    '.'
                };
                out.push(ch);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scenario {
        Scenario {
            family: Family::Forest,
            seed: 1,
            level: 0.5,
            width: 10.0,
            height: 10.0,
            start: Vec2::new(1.0, 5.0),
            goal: Vec2::new(9.0, 5.0),
            circles: vec![CircleObs { center: Vec2::new(5.0, 5.0), radius: 1.0 }],
            rects: vec![RectObs { min: Vec2::new(2.0, 8.0), max: Vec2::new(4.0, 9.0) }],
            movers: vec![Mover {
                center: Vec2::new(7.0, 2.0),
                radius: 0.5,
                velocity: Vec2::new(1.0, 0.0),
            }],
            gust_std: 0.1,
            payload_grams: 100.0,
            sensor_derate: 0.8,
        }
    }

    #[test]
    fn family_names_round_trip() {
        for f in Family::ALL {
            assert_eq!(Family::parse(f.name()), Some(f));
        }
        assert_eq!(Family::parse("warehouse"), None);
    }

    #[test]
    fn point_blocked_matches_collision_world() {
        let s = tiny();
        let world = s.collision_world();
        for col in 0..20 {
            for row in 0..20 {
                let p = Vec2::new(0.25 + col as f64 * 0.5, 0.25 + row as f64 * 0.5);
                assert_eq!(s.point_blocked(p), !world.point_free(p), "at {p:?}");
            }
        }
    }

    #[test]
    fn mover_inflation_covers_the_horizon() {
        let m = tiny().movers[0];
        assert!((m.inflated_radius() - (0.5 + MOVER_HORIZON_S)).abs() < 1e-12);
    }

    #[test]
    fn difficulty_is_finite_and_bounded() {
        let s = tiny();
        let d = s.difficulty();
        assert!(d.is_finite() && (0.0..=1.0).contains(&d), "difficulty {d}");
    }

    #[test]
    fn harder_env_scores_harder() {
        let easy = tiny();
        let mut hard = easy.clone();
        hard.gust_std = 0.3;
        hard.payload_grams = 600.0;
        hard.sensor_derate = 0.4;
        assert!(hard.difficulty() > easy.difficulty());
    }

    #[test]
    fn rasterize_marks_the_central_tree() {
        let s = tiny();
        let cells = s.rasterize(10, 10);
        assert!(cells[5 * 10 + 5], "cell over the central circle must be blocked");
        assert!(!cells[10], "start-side cell must be free");
    }

    #[test]
    fn ascii_art_shape_and_markers() {
        let art = tiny().ascii_art(20, 10);
        assert_eq!(art.lines().count(), 10);
        assert!(art.lines().all(|l| l.chars().count() == 20));
        for ch in ['S', 'G', '#', 'o'] {
            assert!(art.contains(ch), "missing {ch} in:\n{art}");
        }
    }
}
