//! The `quantity!` macro: defines a strongly-typed `f64` wrapper with the
//! arithmetic shared by every physical quantity in this crate.

/// Defines a physical-quantity newtype over `f64`.
///
/// The generated type implements `Copy`, `Clone`, `PartialEq`, `PartialOrd`,
/// `Debug`, `Display` (value plus unit symbol), `Default`, and the
/// dimensionally sound arithmetic:
///
/// - `Q + Q -> Q`, `Q - Q -> Q`
/// - `Q * f64 -> Q`, `f64 * Q -> Q`, `Q / f64 -> Q`
/// - `Q / Q -> f64` (a dimensionless ratio)
/// - `AddAssign`, `SubAssign`, `MulAssign<f64>`, `DivAssign<f64>`
/// - `std::iter::Sum`
macro_rules! quantity {
    (
        $(#[$meta:meta])*
        $name:ident, $symbol:literal
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates a quantity from a raw value in the base unit.
            #[inline]
            #[must_use]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw value in the base unit.
            #[inline]
            #[must_use]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns `true` if the value is finite (neither NaN nor infinite).
            #[inline]
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Returns the smaller of two quantities.
            #[inline]
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of two quantities.
            #[inline]
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the absolute value.
            #[inline]
            #[must_use]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Clamps the quantity into `[lo, hi]`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi` or either bound is NaN.
            #[inline]
            #[must_use]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }
        }

        impl core::fmt::Display for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $symbol)
                } else {
                    write!(f, "{} {}", self.0, $symbol)
                }
            }
        }

        impl From<$name> for f64 {
            #[inline]
            fn from(q: $name) -> f64 {
                q.0
            }
        }

        impl core::ops::Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl core::ops::Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl core::ops::Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl core::ops::Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl core::ops::Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl core::ops::Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl core::ops::Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl core::ops::AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl core::ops::SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl core::ops::MulAssign<f64> for $name {
            #[inline]
            fn mul_assign(&mut self, rhs: f64) {
                self.0 *= rhs;
            }
        }

        impl core::ops::DivAssign<f64> for $name {
            #[inline]
            fn div_assign(&mut self, rhs: f64) {
                self.0 /= rhs;
            }
        }

        impl core::iter::Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::ZERO, |acc, x| acc + x)
            }
        }

        impl<'a> core::iter::Sum<&'a $name> for $name {
            fn sum<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
                iter.fold(Self::ZERO, |acc, x| acc + *x)
            }
        }
    };
}

/// Declares the cross-unit relation `$a / $b = $c` together with the implied
/// products `$c * $b = $a` and `$b * $c = $a`, and the co-quotient
/// `$a / $c = $b`.
macro_rules! relate {
    ($a:ty, $b:ty, $c:ty) => {
        impl core::ops::Div<$b> for $a {
            type Output = $c;
            #[inline]
            fn div(self, rhs: $b) -> $c {
                <$c>::new(self.value() / rhs.value())
            }
        }

        impl core::ops::Div<$c> for $a {
            type Output = $b;
            #[inline]
            fn div(self, rhs: $c) -> $b {
                <$b>::new(self.value() / rhs.value())
            }
        }

        impl core::ops::Mul<$b> for $c {
            type Output = $a;
            #[inline]
            fn mul(self, rhs: $b) -> $a {
                <$a>::new(self.value() * rhs.value())
            }
        }

        impl core::ops::Mul<$c> for $b {
            type Output = $a;
            #[inline]
            fn mul(self, rhs: $c) -> $a {
                <$a>::new(self.value() * rhs.value())
            }
        }
    };
}
