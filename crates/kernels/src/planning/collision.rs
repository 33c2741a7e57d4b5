//! Collision checking against circular and rectangular obstacles.
//!
//! Two implementations of the same predicate live here:
//!
//! - [`CollisionWorld`] — the *conventional* representation: a list of
//!   boxed [`Obstacle`] trait objects queried one edge at a time with
//!   virtual dispatch, the way a general-purpose planning library stores
//!   heterogeneous collision geometry.
//! - [`BatchChecker`] — the *accelerated* software path: obstacles flattened
//!   into structure-of-arrays buffers, whole batches of edges checked in
//!   tight branch-minimal loops over squared distances.
//!
//! Both produce identical answers ([`BatchChecker`] is property-tested
//! against [`CollisionWorld`]); they differ only in cost. That difference is
//! the subject of experiment E6.

use crate::geometry::Vec2;

/// A collision primitive that can be queried against points and segments.
pub(crate) trait Obstacle: core::fmt::Debug + Send + Sync {
    /// Returns `true` if `p` lies inside the obstacle.
    fn contains(&self, p: Vec2) -> bool;

    /// Returns `true` if the segment `a → b` intersects the obstacle.
    fn intersects_segment(&self, a: Vec2, b: Vec2) -> bool;
}

/// A circular obstacle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Circle {
    /// Center position.
    pub center: Vec2,
    /// Radius (meters).
    pub radius: f64,
}

impl Obstacle for Circle {
    fn contains(&self, p: Vec2) -> bool {
        p.distance_squared(self.center) <= self.radius * self.radius
    }

    fn intersects_segment(&self, a: Vec2, b: Vec2) -> bool {
        segment_circle_intersects(a, b, self.center, self.radius)
    }
}

/// An axis-aligned rectangular obstacle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Rect {
    /// Minimum corner.
    pub min: Vec2,
    /// Maximum corner.
    pub max: Vec2,
}

impl Obstacle for Rect {
    fn contains(&self, p: Vec2) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    fn intersects_segment(&self, a: Vec2, b: Vec2) -> bool {
        segment_rect_intersects(a, b, self.min, self.max)
    }
}

/// Exact segment/circle intersection via closest-point projection.
fn segment_circle_intersects(a: Vec2, b: Vec2, center: Vec2, radius: f64) -> bool {
    let ab = b - a;
    let len2 = ab.norm_squared();
    let t = if len2 == 0.0 { 0.0 } else { ((center - a).dot(ab) / len2).clamp(0.0, 1.0) };
    let closest = a + ab * t;
    closest.distance_squared(center) <= radius * radius
}

/// Segment/AABB intersection via the slab method.
fn segment_rect_intersects(a: Vec2, b: Vec2, min: Vec2, max: Vec2) -> bool {
    let d = b - a;
    let mut tmin = 0.0f64;
    let mut tmax = 1.0f64;
    for (origin, dir, lo, hi) in [(a.x, d.x, min.x, max.x), (a.y, d.y, min.y, max.y)] {
        if dir.abs() < 1e-15 {
            if origin < lo || origin > hi {
                return false;
            }
        } else {
            let inv = 1.0 / dir;
            let (t1, t2) = ((lo - origin) * inv, (hi - origin) * inv);
            let (t1, t2) = if t1 < t2 { (t1, t2) } else { (t2, t1) };
            tmin = tmin.max(t1);
            tmax = tmax.min(t2);
            if tmin > tmax {
                return false;
            }
        }
    }
    true
}

/// The conventional heterogeneous obstacle world.
///
/// Obstacles are boxed trait objects; every query walks the list with
/// virtual dispatch and early exit — the memory-layout baseline for
/// experiment E6.
///
/// # Examples
///
/// ```
/// use m7_kernels::{CollisionWorld, Vec2};
///
/// let mut world = CollisionWorld::new(10.0, 10.0);
/// world.add_circle(Vec2::new(5.0, 5.0), 1.0);
/// assert!(!world.point_free(Vec2::new(5.0, 5.0)));
/// assert!(world.point_free(Vec2::new(1.0, 1.0)));
/// assert!(!world.segment_free(Vec2::new(0.0, 5.0), Vec2::new(10.0, 5.0)));
/// ```
#[derive(Debug)]
pub struct CollisionWorld {
    width: f64,
    height: f64,
    /// Trait-object view used by the scalar query path (the conventional
    /// heterogeneous layout whose cost E6 measures).
    obstacles: Vec<Box<dyn Obstacle>>,
    /// Concrete record of the same obstacles, used to build the flattened
    /// [`BatchChecker`] without downcasting.
    primitives: Vec<Primitive>,
}

/// Concrete obstacle primitive, the flattenable subset of [`Obstacle`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum Primitive {
    Circle(Circle),
    Rect(Rect),
}

impl CollisionWorld {
    /// Creates an empty world covering `[0, width] × [0, height]`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is non-positive or non-finite.
    #[must_use]
    pub fn new(width: f64, height: f64) -> Self {
        assert!(width > 0.0 && width.is_finite(), "width must be positive");
        assert!(height > 0.0 && height.is_finite(), "height must be positive");
        Self { width, height, obstacles: Vec::new(), primitives: Vec::new() }
    }

    /// Workspace width in meters.
    #[inline]
    #[must_use]
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Workspace height in meters.
    #[inline]
    #[must_use]
    pub fn height(&self) -> f64 {
        self.height
    }

    /// Number of obstacles.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.obstacles.len()
    }

    /// Returns `true` if the world has no obstacles.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.obstacles.is_empty()
    }

    /// Adds a circular obstacle.
    pub fn add_circle(&mut self, center: Vec2, radius: f64) {
        let c = Circle { center, radius };
        self.obstacles.push(Box::new(c));
        self.primitives.push(Primitive::Circle(c));
    }

    /// Adds an axis-aligned rectangular obstacle.
    pub fn add_rect(&mut self, min: Vec2, max: Vec2) {
        let r = Rect { min, max };
        self.obstacles.push(Box::new(r));
        self.primitives.push(Primitive::Rect(r));
    }

    /// Populates the world with `count` random circles, deterministically
    /// from `seed`. Radii are drawn from `[r_min, r_max]`.
    pub fn scatter_circles(&mut self, count: usize, r_min: f64, r_max: f64, seed: u64) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..count {
            let c = Vec2::new(rng.gen_range(0.0..self.width), rng.gen_range(0.0..self.height));
            let r = rng.gen_range(r_min..=r_max);
            self.add_circle(c, r);
        }
    }

    /// Returns `true` if `p` is inside the workspace and outside every
    /// obstacle.
    #[must_use]
    pub fn point_free(&self, p: Vec2) -> bool {
        if p.x < 0.0 || p.y < 0.0 || p.x > self.width || p.y > self.height {
            return false;
        }
        self.obstacles.iter().all(|o| !o.contains(p))
    }

    /// Returns `true` if the segment `a → b` stays inside the workspace and
    /// clear of every obstacle (exact continuous test).
    #[must_use]
    pub fn segment_free(&self, a: Vec2, b: Vec2) -> bool {
        if !self.point_free(a) || !self.point_free(b) {
            return false;
        }
        self.obstacles.iter().all(|o| !o.intersects_segment(a, b))
    }

    /// Conventional *discrete* motion validation: point-checks interpolated
    /// states every `resolution` meters along the segment, the way
    /// general-purpose planning libraries validate motions.
    ///
    /// This is the realistic software baseline for experiment E6: it does
    /// `len/resolution` full obstacle scans per edge, and (like its
    /// real-world counterparts) can in principle miss an obstacle thinner
    /// than the resolution. Use [`CollisionWorld::segment_free`] when
    /// exactness matters.
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is not positive.
    #[must_use]
    pub fn segment_free_sampled(&self, a: Vec2, b: Vec2, resolution: f64) -> bool {
        assert!(resolution > 0.0, "resolution must be positive");
        if !self.point_free(a) || !self.point_free(b) {
            return false;
        }
        let len = a.distance(b);
        let steps = (len / resolution).ceil() as usize;
        for i in 1..steps {
            let t = i as f64 / steps as f64;
            if !self.point_free(a.lerp(b, t)) {
                return false;
            }
        }
        true
    }

    /// Builds the flattened batch checker for this world.
    #[must_use]
    pub fn to_batch_checker(&self) -> BatchChecker {
        let mut circles = SoaCircles::default();
        let mut rects = SoaRects::default();
        for p in &self.primitives {
            match p {
                Primitive::Circle(c) => circles.push(c.center, c.radius),
                Primitive::Rect(r) => rects.push(r.min, r.max),
            }
        }
        BatchChecker { width: self.width, height: self.height, circles, rects }
    }
}

/// Lane width of the vectorized predicates: four f64 values, one AVX2
/// register (or two NEON registers). The inner loops below are written as
/// fixed-width chunks of this size so the autovectorizer can prove the
/// trip count and emit packed mul-add chains.
pub(crate) const COLLISION_LANES: usize = 4;

/// Obstacles tested branch-free between early-exit checks. A multiple of
/// [`COLLISION_LANES`]; large enough that the per-block branch is
/// amortized, small enough that a dense world still exits early.
const COLLISION_BLOCK: usize = 32;

#[derive(Debug, Default, Clone)]
struct SoaCircles {
    cx: Vec<f64>,
    cy: Vec<f64>,
    r2: Vec<f64>,
}

impl SoaCircles {
    fn push(&mut self, center: Vec2, radius: f64) {
        self.cx.push(center.x);
        self.cy.push(center.y);
        self.r2.push(radius * radius);
    }

    /// Branch-free lane test: does any circle contain `(px, py)`?
    ///
    /// Identical per-circle arithmetic to the scalar reference (same
    /// expressions, exact comparisons), so the boolean answer is
    /// bit-identical; only the early-exit granularity changes (per
    /// [`COLLISION_BLOCK`] instead of per obstacle).
    fn any_contains(&self, px: f64, py: f64) -> bool {
        let n = self.cx.len();
        let mut base = 0;
        while base < n {
            let end = (base + COLLISION_BLOCK).min(n);
            let (cxs, cys, r2s) = (&self.cx[base..end], &self.cy[base..end], &self.r2[base..end]);
            let mut any = false;
            let mut lanes = cxs
                .chunks_exact(COLLISION_LANES)
                .zip(cys.chunks_exact(COLLISION_LANES))
                .zip(r2s.chunks_exact(COLLISION_LANES));
            for ((cx4, cy4), r24) in lanes.by_ref() {
                let mut hit = false;
                for l in 0..COLLISION_LANES {
                    let dx = px - cx4[l];
                    let dy = py - cy4[l];
                    hit |= dx * dx + dy * dy <= r24[l];
                }
                any |= hit;
            }
            let done = cxs.len() - cxs.len() % COLLISION_LANES;
            for i in done..cxs.len() {
                let dx = px - cxs[i];
                let dy = py - cys[i];
                any |= dx * dx + dy * dy <= r2s[i];
            }
            if any {
                return true;
            }
            base = end;
        }
        false
    }

    /// Branch-free lane test: does any circle intersect the segment with
    /// origin `(ax, ay)`, direction `(dx, dy)`, and `inv_len2 = 1/|d|²`?
    ///
    /// Per-circle arithmetic matches the scalar reference expression
    /// (closest-point projection, clamp, squared distance), so the boolean
    /// is bit-identical. `clamp` lowers to max/min — no branches inside
    /// the lane body.
    fn any_hits_segment(&self, ax: f64, ay: f64, dx: f64, dy: f64, inv_len2: f64) -> bool {
        let n = self.cx.len();
        let mut base = 0;
        while base < n {
            let end = (base + COLLISION_BLOCK).min(n);
            let (cxs, cys, r2s) = (&self.cx[base..end], &self.cy[base..end], &self.r2[base..end]);
            let mut any = false;
            let mut lanes = cxs
                .chunks_exact(COLLISION_LANES)
                .zip(cys.chunks_exact(COLLISION_LANES))
                .zip(r2s.chunks_exact(COLLISION_LANES));
            for ((cx4, cy4), r24) in lanes.by_ref() {
                let mut hit = false;
                for l in 0..COLLISION_LANES {
                    let acx = cx4[l] - ax;
                    let acy = cy4[l] - ay;
                    let t = ((acx * dx + acy * dy) * inv_len2).clamp(0.0, 1.0);
                    let px = acx - t * dx;
                    let py = acy - t * dy;
                    hit |= px * px + py * py <= r24[l];
                }
                any |= hit;
            }
            let done = cxs.len() - cxs.len() % COLLISION_LANES;
            for i in done..cxs.len() {
                let acx = cxs[i] - ax;
                let acy = cys[i] - ay;
                let t = ((acx * dx + acy * dy) * inv_len2).clamp(0.0, 1.0);
                let px = acx - t * dx;
                let py = acy - t * dy;
                any |= px * px + py * py <= r2s[i];
            }
            if any {
                return true;
            }
            base = end;
        }
        false
    }
}

#[derive(Debug, Default, Clone)]
struct SoaRects {
    min_x: Vec<f64>,
    min_y: Vec<f64>,
    max_x: Vec<f64>,
    max_y: Vec<f64>,
}

impl SoaRects {
    fn push(&mut self, min: Vec2, max: Vec2) {
        self.min_x.push(min.x);
        self.min_y.push(min.y);
        self.max_x.push(max.x);
        self.max_y.push(max.y);
    }

    /// Branch-free lane test: does any rectangle contain `(px, py)`?
    fn any_contains(&self, px: f64, py: f64) -> bool {
        let n = self.min_x.len();
        let mut base = 0;
        while base < n {
            let end = (base + COLLISION_BLOCK).min(n);
            let mut any = false;
            for i in base..end {
                any |= px >= self.min_x[i]
                    && px <= self.max_x[i]
                    && py >= self.min_y[i]
                    && py <= self.max_y[i];
            }
            if any {
                return true;
            }
            base = end;
        }
        false
    }
}

/// The batched structure-of-arrays collision checker.
///
/// Built from a [`CollisionWorld`] via
/// [`CollisionWorld::to_batch_checker`]; answers the same queries with
/// flat-array arithmetic and batch entry points. Agreement with the scalar
/// checker is property-tested.
///
/// # Examples
///
/// ```
/// use m7_kernels::{CollisionWorld, Vec2};
///
/// let mut world = CollisionWorld::new(10.0, 10.0);
/// world.add_circle(Vec2::new(5.0, 5.0), 1.0);
/// let batch = world.to_batch_checker();
/// let edges = [(Vec2::new(0.0, 5.0), Vec2::new(10.0, 5.0)),
///              (Vec2::new(0.0, 0.5), Vec2::new(10.0, 0.5))];
/// let free = batch.segments_free(&edges);
/// assert_eq!(free, vec![false, true]);
/// ```
#[derive(Debug, Clone)]
pub struct BatchChecker {
    width: f64,
    height: f64,
    circles: SoaCircles,
    rects: SoaRects,
}

impl BatchChecker {
    /// Number of obstacles in the checker.
    #[must_use]
    pub fn len(&self) -> usize {
        self.circles.cx.len() + self.rects.min_x.len()
    }

    /// Returns `true` if the checker has no obstacles.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lane point predicate: the workspace bound check, then the
    /// branch-free [`COLLISION_LANES`]-wide circle and rect sweeps.
    ///
    /// Bit-identical to [`BatchChecker::point_free_one_scalar`] — the
    /// per-obstacle arithmetic is the same expression; only the early-exit
    /// granularity differs.
    #[inline]
    fn point_free_one(&self, p: Vec2) -> bool {
        if p.x < 0.0 || p.y < 0.0 || p.x > self.width || p.y > self.height {
            return false;
        }
        !self.circles.any_contains(p.x, p.y) && !self.rects.any_contains(p.x, p.y)
    }

    /// Lane segment predicate: edge geometry hoisted once, then the
    /// branch-free lane sweep over circles and the slab test over rects.
    ///
    /// Bit-identical to [`BatchChecker::segment_free_one_scalar`].
    #[inline]
    fn segment_free_one(&self, a: Vec2, b: Vec2) -> bool {
        let inside = |p: Vec2| p.x >= 0.0 && p.y >= 0.0 && p.x <= self.width && p.y <= self.height;
        if !inside(a) || !inside(b) {
            return false;
        }
        let dx = b.x - a.x;
        let dy = b.y - a.y;
        let len2 = dx * dx + dy * dy;
        let inv_len2 = if len2 == 0.0 { 0.0 } else { 1.0 / len2 };
        if self.circles.any_hits_segment(a.x, a.y, dx, dy, inv_len2) {
            return false;
        }
        for r in 0..self.rects.min_x.len() {
            if segment_rect_intersects(
                a,
                b,
                Vec2::new(self.rects.min_x[r], self.rects.min_y[r]),
                Vec2::new(self.rects.max_x[r], self.rects.max_y[r]),
            ) {
                return false;
            }
        }
        true
    }

    /// Scalar segment predicate: edge geometry hoisted into registers once,
    /// straight-line closest-point test per circle with early exit.
    ///
    /// Kept as the property-tested reference for the lane path; exposed
    /// through [`BatchChecker::segments_free_scalar`].
    fn segment_free_one_scalar(&self, a: Vec2, b: Vec2) -> bool {
        let inside = |p: Vec2| p.x >= 0.0 && p.y >= 0.0 && p.x <= self.width && p.y <= self.height;
        if !inside(a) || !inside(b) {
            return false;
        }
        let dx = b.x - a.x;
        let dy = b.y - a.y;
        let len2 = dx * dx + dy * dy;
        let inv_len2 = if len2 == 0.0 { 0.0 } else { 1.0 / len2 };
        for c in 0..self.circles.cx.len() {
            // Closest point on the segment to the circle center,
            // entirely in registers.
            let acx = self.circles.cx[c] - a.x;
            let acy = self.circles.cy[c] - a.y;
            let t = ((acx * dx + acy * dy) * inv_len2).clamp(0.0, 1.0);
            let px = acx - t * dx;
            let py = acy - t * dy;
            if px * px + py * py <= self.circles.r2[c] {
                return false;
            }
        }
        for r in 0..self.rects.min_x.len() {
            if segment_rect_intersects(
                a,
                b,
                Vec2::new(self.rects.min_x[r], self.rects.min_y[r]),
                Vec2::new(self.rects.max_x[r], self.rects.max_y[r]),
            ) {
                return false;
            }
        }
        true
    }

    /// Batched point query: one boolean per input point.
    ///
    /// Point-major iteration over the flat SoA arrays, each point running
    /// the [`COLLISION_LANES`]-wide branch-free sweep; the tests diff it
    /// against a scalar early-exit reference.
    #[must_use]
    pub(crate) fn points_free(&self, points: &[Vec2]) -> Vec<bool> {
        points.iter().map(|&p| self.point_free_one(p)).collect()
    }

    /// Batched segment query: one boolean per input edge.
    ///
    /// The obstacle set lives in contiguous arrays that stay
    /// cache-resident across the whole edge batch, each edge's geometry is
    /// hoisted into registers once, and the inner loop is a fixed-width
    /// branch-free closest-point sweep (four circles per step).
    #[must_use]
    pub fn segments_free(&self, edges: &[(Vec2, Vec2)]) -> Vec<bool> {
        edges.iter().map(|&(a, b)| self.segment_free_one(a, b)).collect()
    }

    /// Scalar-reference [`BatchChecker::segments_free`]: per-obstacle early
    /// exit, no lane restructuring. Bit-identical output; kept public so
    /// benchmarks and property tests can diff the two paths.
    #[must_use]
    pub fn segments_free_scalar(&self, edges: &[(Vec2, Vec2)]) -> Vec<bool> {
        edges.iter().map(|&(a, b)| self.segment_free_one_scalar(a, b)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl BatchChecker {
        /// Scalar point predicate over the flat SoA arrays: no virtual
        /// dispatch, no per-obstacle pointer chase, square-distance arithmetic
        /// only, and an early exit once any obstacle claims the point.
        ///
        /// The reference the lane path is property-tested against.
        fn point_free_one_scalar(&self, p: Vec2) -> bool {
            if p.x < 0.0 || p.y < 0.0 || p.x > self.width || p.y > self.height {
                return false;
            }
            for ((cx, cy), r2) in self.circles.cx.iter().zip(&self.circles.cy).zip(&self.circles.r2)
            {
                let dx = p.x - cx;
                let dy = p.y - cy;
                if dx * dx + dy * dy <= *r2 {
                    return false;
                }
            }
            for i in 0..self.rects.min_x.len() {
                if p.x >= self.rects.min_x[i]
                    && p.x <= self.rects.max_x[i]
                    && p.y >= self.rects.min_y[i]
                    && p.y <= self.rects.max_y[i]
                {
                    return false;
                }
            }
            true
        }

        /// Scalar-reference [`BatchChecker::points_free`]: per-obstacle
        /// early exit, no lane restructuring, bit-identical output.
        fn points_free_scalar(&self, points: &[Vec2]) -> Vec<bool> {
            points.iter().map(|&p| self.point_free_one_scalar(p)).collect()
        }
    }

    fn demo_world() -> CollisionWorld {
        let mut w = CollisionWorld::new(20.0, 20.0);
        w.add_circle(Vec2::new(5.0, 5.0), 2.0);
        w.add_circle(Vec2::new(14.0, 12.0), 3.0);
        w.add_rect(Vec2::new(8.0, 0.0), Vec2::new(9.0, 10.0));
        w
    }

    #[test]
    fn point_queries() {
        let w = demo_world();
        assert!(!w.point_free(Vec2::new(5.0, 5.0)));
        assert!(!w.point_free(Vec2::new(8.5, 4.0)));
        assert!(w.point_free(Vec2::new(1.0, 1.0)));
        assert!(!w.point_free(Vec2::new(-0.1, 1.0)), "outside workspace is not free");
        assert!(!w.point_free(Vec2::new(1.0, 20.5)));
    }

    #[test]
    fn segment_queries() {
        let w = demo_world();
        assert!(!w.segment_free(Vec2::new(0.0, 5.0), Vec2::new(10.0, 5.0)), "crosses circle");
        assert!(!w.segment_free(Vec2::new(7.0, 4.0), Vec2::new(10.0, 4.0)), "crosses rect");
        assert!(w.segment_free(Vec2::new(0.5, 18.0), Vec2::new(6.0, 18.0)));
    }

    #[test]
    fn segment_grazing_circle_boundary() {
        let mut w = CollisionWorld::new(10.0, 10.0);
        w.add_circle(Vec2::new(5.0, 5.0), 1.0);
        // Passes exactly 1.5 m from the center: free.
        assert!(w.segment_free(Vec2::new(0.0, 6.5), Vec2::new(10.0, 6.5)));
        // Passes 0.5 m from the center: blocked.
        assert!(!w.segment_free(Vec2::new(0.0, 5.5), Vec2::new(10.0, 5.5)));
    }

    #[test]
    fn rect_slab_edge_cases() {
        let r = Rect { min: Vec2::new(2.0, 2.0), max: Vec2::new(4.0, 4.0) };
        // Vertical segment through the box.
        assert!(r.intersects_segment(Vec2::new(3.0, 0.0), Vec2::new(3.0, 6.0)));
        // Vertical segment beside the box.
        assert!(!r.intersects_segment(Vec2::new(5.0, 0.0), Vec2::new(5.0, 6.0)));
        // Segment fully inside.
        assert!(r.intersects_segment(Vec2::new(2.5, 2.5), Vec2::new(3.5, 3.5)));
        // Degenerate point segment inside.
        assert!(r.intersects_segment(Vec2::new(3.0, 3.0), Vec2::new(3.0, 3.0)));
    }

    #[test]
    fn sampled_validator_agrees_on_coarse_obstacles() {
        // At 5 cm resolution against ≥0.3 m obstacles, the conventional
        // sampled validator agrees with the exact test.
        let mut w = CollisionWorld::new(20.0, 20.0);
        w.scatter_circles(10, 0.4, 2.0, 17);
        w.add_rect(Vec2::new(5.0, 5.0), Vec2::new(7.0, 12.0));
        for i in 0..60 {
            let t = i as f64 / 60.0;
            let a = Vec2::new(20.0 * t, 0.5);
            let b = Vec2::new(20.0 - 20.0 * t, 19.5);
            assert_eq!(w.segment_free_sampled(a, b, 0.05), w.segment_free(a, b), "edge {i}");
        }
    }

    #[test]
    fn sampled_validator_costs_scale_with_resolution() {
        // Behavioral (not timing) check: a coarser resolution can miss a
        // thin obstacle that the exact test catches.
        let mut w = CollisionWorld::new(10.0, 10.0);
        w.add_rect(Vec2::new(4.499, 0.0), Vec2::new(4.501, 10.0)); // 2 mm wall
                                                                   // 1 m sampling from x = 1 lands on integer x only, straddling 4.5.
        let a = Vec2::new(1.0, 5.0);
        let b = Vec2::new(9.0, 5.0);
        assert!(!w.segment_free(a, b), "exact test catches the wall");
        // 1 m sampling steps straddle the wall.
        assert!(w.segment_free_sampled(a, b, 1.0), "coarse sampling misses it");
        // Fine sampling may or may not land on 2 mm; the exact checker is
        // the ground truth either way.
    }

    #[test]
    fn batch_matches_scalar_on_demo_world() {
        let w = demo_world();
        let batch = w.to_batch_checker();
        assert_eq!(batch.len(), w.len());
        let edges: Vec<(Vec2, Vec2)> = (0..50)
            .map(|i| {
                let t = i as f64 / 50.0;
                (Vec2::new(20.0 * t, 0.0), Vec2::new(20.0 - 20.0 * t, 20.0))
            })
            .collect();
        let batch_res = batch.segments_free(&edges);
        for (i, (a, b)) in edges.iter().enumerate() {
            assert_eq!(batch_res[i], w.segment_free(*a, *b), "edge {i}");
        }
    }

    #[test]
    fn scatter_is_deterministic() {
        let mut a = CollisionWorld::new(30.0, 30.0);
        a.scatter_circles(25, 0.5, 2.0, 99);
        let mut b = CollisionWorld::new(30.0, 30.0);
        b.scatter_circles(25, 0.5, 2.0, 99);
        let pa = a.to_batch_checker();
        let pb = b.to_batch_checker();
        let probe: Vec<Vec2> =
            (0..100).map(|i| Vec2::new((i % 10) as f64 * 3.0, (i / 10) as f64 * 3.0)).collect();
        assert_eq!(pa.points_free(&probe), pb.points_free(&probe));
    }

    /// Lane path vs scalar reference at every chunk remainder length:
    /// circle counts spanning `len % COLLISION_LANES ∈ {0..LANES-1}` and
    /// both sides of the block boundary.
    #[test]
    fn lane_path_matches_scalar_at_every_remainder() {
        let probe_pts: Vec<Vec2> =
            (0..200).map(|i| Vec2::new((i % 20) as f64, (i / 20) as f64 * 2.0)).collect();
        let probe_edges: Vec<(Vec2, Vec2)> = (0..100)
            .map(|i| {
                let t = i as f64 / 100.0;
                (Vec2::new(20.0 * t, 0.0), Vec2::new(20.0 - 20.0 * t, 20.0))
            })
            .collect();
        let counts = (0..=9)
            .chain(COLLISION_BLOCK - 2..=COLLISION_BLOCK + COLLISION_LANES + 1)
            .collect::<Vec<_>>();
        for n in counts {
            let mut w = CollisionWorld::new(20.0, 20.0);
            w.scatter_circles(n, 0.3, 2.0, n as u64 + 7);
            if n % 2 == 0 {
                w.add_rect(Vec2::new(3.0, 3.0), Vec2::new(4.5, 9.0));
            }
            let batch = w.to_batch_checker();
            assert_eq!(
                batch.points_free(&probe_pts),
                batch.points_free_scalar(&probe_pts),
                "point lane/scalar divergence at {n} circles"
            );
            assert_eq!(
                batch.segments_free(&probe_edges),
                batch.segments_free_scalar(&probe_edges),
                "segment lane/scalar divergence at {n} circles"
            );
        }
    }

    proptest! {
        #[test]
        fn prop_lane_kernels_agree_with_scalar_reference(
            seed in 0u64..500,
            circles in 0usize..40,
            edges in prop::collection::vec(((-1.0..21.0f64, -1.0..21.0f64), (-1.0..21.0f64, -1.0..21.0f64)), 1..40),
        ) {
            let mut w = CollisionWorld::new(20.0, 20.0);
            w.scatter_circles(circles, 0.3, 2.5, seed);
            w.add_rect(Vec2::new(3.0, 3.0), Vec2::new(4.5, 9.0));
            let batch = w.to_batch_checker();
            let edges: Vec<(Vec2, Vec2)> = edges
                .into_iter()
                .map(|((ax, ay), (bx, by))| (Vec2::new(ax, ay), Vec2::new(bx, by)))
                .collect();
            let pts: Vec<Vec2> = edges.iter().map(|&(a, _)| a).collect();
            prop_assert_eq!(batch.segments_free(&edges), batch.segments_free_scalar(&edges));
            prop_assert_eq!(batch.points_free(&pts), batch.points_free_scalar(&pts));
        }

        #[test]
        fn prop_batch_agrees_with_scalar(
            seed in 0u64..500,
            edges in prop::collection::vec(((0.0..20.0f64, 0.0..20.0f64), (0.0..20.0f64, 0.0..20.0f64)), 1..40),
        ) {
            let mut w = CollisionWorld::new(20.0, 20.0);
            w.scatter_circles(8, 0.3, 2.5, seed);
            w.add_rect(Vec2::new(3.0, 3.0), Vec2::new(4.5, 9.0));
            let batch = w.to_batch_checker();
            let edges: Vec<(Vec2, Vec2)> = edges
                .into_iter()
                .map(|((ax, ay), (bx, by))| (Vec2::new(ax, ay), Vec2::new(bx, by)))
                .collect();
            let got = batch.segments_free(&edges);
            for (i, (a, b)) in edges.iter().enumerate() {
                prop_assert_eq!(got[i], w.segment_free(*a, *b));
            }
        }

        #[test]
        fn prop_points_free_agrees(
            seed in 0u64..500,
            pts in prop::collection::vec((-1.0..21.0f64, -1.0..21.0f64), 1..60),
        ) {
            let mut w = CollisionWorld::new(20.0, 20.0);
            w.scatter_circles(10, 0.3, 2.0, seed);
            let batch = w.to_batch_checker();
            let pts: Vec<Vec2> = pts.into_iter().map(|(x, y)| Vec2::new(x, y)).collect();
            let got = batch.points_free(&pts);
            for (i, p) in pts.iter().enumerate() {
                prop_assert_eq!(got[i], w.point_free(*p));
            }
        }
    }
}
