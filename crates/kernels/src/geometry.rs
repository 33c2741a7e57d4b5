//! Minimal 2D/3D geometry: vectors, rotations, rigid poses.
//!
//! These types are deliberately small and `Copy`; kernel inner loops use
//! them directly without allocation.

/// A 2D vector (also used as a 2D point).
///
/// # Examples
///
/// ```
/// use m7_kernels::Vec2;
///
/// let a = Vec2::new(3.0, 4.0);
/// assert_eq!(a.norm(), 5.0);
/// assert_eq!(a + Vec2::new(1.0, -1.0), Vec2::new(4.0, 3.0));
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Vec2 {
    /// X component.
    pub x: f64,
    /// Y component.
    pub y: f64,
}

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Self = Self { x: 0.0, y: 0.0 };

    /// Creates a vector from components.
    #[inline]
    #[must_use]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Dot product.
    #[inline]
    #[must_use]
    pub fn dot(self, rhs: Self) -> f64 {
        self.x * rhs.x + self.y * rhs.y
    }

    /// 2D cross product (z component of the 3D cross product).
    #[inline]
    #[must_use]
    pub fn cross(self, rhs: Self) -> f64 {
        self.x * rhs.y - self.y * rhs.x
    }

    /// Euclidean norm.
    #[inline]
    #[must_use]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean norm (cheaper than [`Vec2::norm`]).
    #[inline]
    #[must_use]
    pub(crate) fn norm_squared(self) -> f64 {
        self.dot(self)
    }

    /// Euclidean distance to another point.
    #[inline]
    #[must_use]
    pub fn distance(self, rhs: Self) -> f64 {
        (self - rhs).norm()
    }

    /// Squared distance to another point.
    #[inline]
    #[must_use]
    pub fn distance_squared(self, rhs: Self) -> f64 {
        (self - rhs).norm_squared()
    }

    /// The unit vector in this direction, or zero if this is the zero
    /// vector.
    #[inline]
    #[must_use]
    pub(crate) fn normalized(self) -> Self {
        let n = self.norm();
        if n > 0.0 {
            self / n
        } else {
            Self::ZERO
        }
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    #[must_use]
    pub(crate) fn lerp(self, other: Self, t: f64) -> Self {
        self + (other - self) * t
    }

    /// Rotates the vector by `angle` radians counter-clockwise.
    #[inline]
    #[must_use]
    pub(crate) fn rotated(self, angle: f64) -> Self {
        let (s, c) = angle.sin_cos();
        Self::new(c * self.x - s * self.y, s * self.x + c * self.y)
    }

    /// The angle of this vector from the +x axis, in `(-π, π]`.
    #[inline]
    #[must_use]
    pub fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }
}

impl core::ops::Add for Vec2 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl core::ops::Sub for Vec2 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl core::ops::Mul<f64> for Vec2 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        Self::new(self.x * rhs, self.y * rhs)
    }
}

impl core::ops::Div<f64> for Vec2 {
    type Output = Self;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        Self::new(self.x / rhs, self.y / rhs)
    }
}

impl core::ops::Neg for Vec2 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.x, -self.y)
    }
}

impl core::ops::AddAssign for Vec2 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl core::ops::SubAssign for Vec2 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

/// A 3D vector.
///
/// # Examples
///
/// ```
/// use m7_kernels::Vec3;
///
/// let x = Vec3::new(1.0, 0.0, 0.0);
/// let y = Vec3::new(0.0, 1.0, 0.0);
/// assert_eq!(x.cross(y), Vec3::new(0.0, 0.0, 1.0));
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Vec3 {
    /// X component.
    pub x: f64,
    /// Y component.
    pub y: f64,
    /// Z component.
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Self = Self { x: 0.0, y: 0.0, z: 0.0 };

    /// Creates a vector from components.
    #[inline]
    #[must_use]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// Dot product.
    #[inline]
    #[must_use]
    pub fn dot(self, rhs: Self) -> f64 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product.
    #[inline]
    #[must_use]
    pub fn cross(self, rhs: Self) -> Self {
        Self::new(
            self.y * rhs.z - self.z * rhs.y,
            self.z * rhs.x - self.x * rhs.z,
            self.x * rhs.y - self.y * rhs.x,
        )
    }

    /// Euclidean norm.
    #[inline]
    #[must_use]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }
}

impl core::ops::Add for Vec3 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl core::ops::Sub for Vec3 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl core::ops::Mul<f64> for Vec3 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        Self::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl core::ops::Neg for Vec3 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.x, -self.y, -self.z)
    }
}

impl core::ops::AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.x += rhs.x;
        self.y += rhs.y;
        self.z += rhs.z;
    }
}

/// Normalizes an angle into `(-π, π]`.
///
/// # Examples
///
/// ```
/// use m7_kernels::normalize_angle;
///
/// let a = normalize_angle(3.0 * std::f64::consts::PI);
/// assert!((a - std::f64::consts::PI).abs() < 1e-12);
/// ```
#[inline]
#[must_use]
pub fn normalize_angle(angle: f64) -> f64 {
    let two_pi = 2.0 * core::f64::consts::PI;
    let mut a = angle % two_pi;
    if a <= -core::f64::consts::PI {
        a += two_pi;
    } else if a > core::f64::consts::PI {
        a -= two_pi;
    }
    a
}

/// A planar rigid pose: position plus heading.
///
/// # Examples
///
/// ```
/// use m7_kernels::{Pose2, Vec2};
///
/// let pose = Pose2::new(Vec2::new(1.0, 2.0), std::f64::consts::FRAC_PI_2);
/// let p = pose.transform_point(Vec2::new(1.0, 0.0));
/// assert!((p.x - 1.0).abs() < 1e-12);
/// assert!((p.y - 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Pose2 {
    /// Position in the world frame.
    pub position: Vec2,
    /// Heading in radians, normalized to `(-π, π]` by [`Pose2::new`].
    pub heading: f64,
}

impl Pose2 {
    /// Creates a pose, normalizing the heading into `(-π, π]`.
    #[inline]
    #[must_use]
    pub fn new(position: Vec2, heading: f64) -> Self {
        Self { position, heading: normalize_angle(heading) }
    }

    /// The identity pose at the origin.
    #[inline]
    #[must_use]
    pub fn identity() -> Self {
        Self::default()
    }

    /// Maps a point from this pose's body frame into the world frame.
    #[inline]
    #[must_use]
    pub fn transform_point(self, local: Vec2) -> Vec2 {
        self.position + local.rotated(self.heading)
    }

    /// Maps a world-frame point into this pose's body frame.
    #[inline]
    #[must_use]
    pub fn inverse_transform_point(self, world: Vec2) -> Vec2 {
        (world - self.position).rotated(-self.heading)
    }

    /// Composes two poses: applies `rhs` in this pose's frame.
    #[inline]
    #[must_use]
    pub fn compose(self, rhs: Self) -> Self {
        Self::new(self.position + rhs.position.rotated(self.heading), self.heading + rhs.heading)
    }

    /// The inverse pose, such that `p.compose(p.inverse())` is identity.
    #[inline]
    #[must_use]
    pub fn inverse(self) -> Self {
        let inv_heading = -self.heading;
        Self::new((-self.position).rotated(inv_heading), inv_heading)
    }

    /// Unit vector along the heading direction.
    #[inline]
    #[must_use]
    pub fn forward(self) -> Vec2 {
        Vec2::new(self.heading.cos(), self.heading.sin())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const EPS: f64 = 1e-9;

    fn approx(a: Vec2, b: Vec2) -> bool {
        (a - b).norm() < EPS
    }

    #[test]
    fn vec2_basics() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a.dot(b), 1.0);
        assert_eq!(a.cross(b), -7.0);
        assert_eq!((a * 2.0).x, 2.0);
        assert!(approx(a.lerp(b, 0.0), a));
        assert!(approx(a.lerp(b, 1.0), b));
    }

    #[test]
    fn vec2_rotation_preserves_norm() {
        let v = Vec2::new(3.0, 4.0);
        let r = v.rotated(1.2345);
        assert!((r.norm() - 5.0).abs() < EPS);
    }

    #[test]
    fn vec3_cross_is_orthogonal() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-2.0, 0.5, 4.0);
        let c = a.cross(b);
        assert!(c.dot(a).abs() < EPS);
        assert!(c.dot(b).abs() < EPS);
    }

    #[test]
    fn normalize_angle_range() {
        for k in -10..=10 {
            let a = normalize_angle(0.5 + k as f64 * 2.0 * core::f64::consts::PI);
            assert!((a - 0.5).abs() < 1e-9, "k={k} a={a}");
        }
    }

    #[test]
    fn pose_compose_inverse_is_identity() {
        let p = Pose2::new(Vec2::new(2.0, -1.0), 0.7);
        let id = p.compose(p.inverse());
        assert!(approx(id.position, Vec2::ZERO));
        assert!(id.heading.abs() < EPS);
    }

    #[test]
    fn pose_transform_round_trip() {
        let p = Pose2::new(Vec2::new(5.0, 3.0), -1.1);
        let local = Vec2::new(0.4, -0.9);
        let world = p.transform_point(local);
        let back = p.inverse_transform_point(world);
        assert!(approx(back, local));
    }

    proptest! {
        #[test]
        fn prop_rotation_preserves_norm(x in -100.0..100.0f64, y in -100.0..100.0f64, a in -10.0..10.0f64) {
            let v = Vec2::new(x, y);
            prop_assert!((v.rotated(a).norm() - v.norm()).abs() < 1e-9);
        }

        #[test]
        fn prop_normalize_angle_in_range(a in -1000.0..1000.0f64) {
            let n = normalize_angle(a);
            prop_assert!(n > -core::f64::consts::PI - 1e-12);
            prop_assert!(n <= core::f64::consts::PI + 1e-12);
            // Same direction as the input.
            prop_assert!(((n - a).rem_euclid(2.0 * core::f64::consts::PI)).abs() < 1e-6
                || ((n - a).rem_euclid(2.0 * core::f64::consts::PI) - 2.0 * core::f64::consts::PI).abs() < 1e-6);
        }

        #[test]
        fn prop_pose_compose_associative(
            x1 in -10.0..10.0f64, y1 in -10.0..10.0f64, h1 in -3.0..3.0f64,
            x2 in -10.0..10.0f64, y2 in -10.0..10.0f64, h2 in -3.0..3.0f64,
            x3 in -10.0..10.0f64, y3 in -10.0..10.0f64, h3 in -3.0..3.0f64,
        ) {
            let a = Pose2::new(Vec2::new(x1, y1), h1);
            let b = Pose2::new(Vec2::new(x2, y2), h2);
            let c = Pose2::new(Vec2::new(x3, y3), h3);
            let left = a.compose(b).compose(c);
            let right = a.compose(b.compose(c));
            prop_assert!((left.position - right.position).norm() < 1e-6);
            prop_assert!(normalize_angle(left.heading - right.heading).abs() < 1e-6);
        }

        #[test]
        fn prop_inverse_transform_round_trip(
            px in -10.0..10.0f64, py in -10.0..10.0f64, h in -3.0..3.0f64,
            qx in -10.0..10.0f64, qy in -10.0..10.0f64,
        ) {
            let p = Pose2::new(Vec2::new(px, py), h);
            let q = Vec2::new(qx, qy);
            let back = p.transform_point(p.inverse_transform_point(q));
            prop_assert!((back - q).norm() < 1e-8);
        }
    }
}
