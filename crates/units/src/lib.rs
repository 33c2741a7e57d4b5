//! Physical-quantity newtypes for the `magseven` framework.
//!
//! Every quantity that crosses a crate boundary in `magseven` is a newtype
//! from this crate ([`Seconds`], [`Joules`], [`Watts`], [`Grams`], ...), so
//! the compiler rejects unit confusion such as adding an energy to a power.
//! Raw `f64` values are confined to kernel inner loops.
//!
//! Quantities support the arithmetic that is physically meaningful:
//! same-unit addition/subtraction, scaling by dimensionless `f64`, ratios of
//! same-unit values (yielding `f64`), and a curated set of cross-unit
//! relations (e.g. [`Joules`] `/` [`Seconds`] `=` [`Watts`]).
//!
//! # Examples
//!
//! ```
//! use m7_units::{Joules, Seconds, Watts};
//!
//! let energy = Joules::new(120.0);
//! let time = Seconds::new(60.0);
//! let power: Watts = energy / time;
//! assert_eq!(power, Watts::new(2.0));
//! assert_eq!(power * time, energy);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

#[macro_use]
mod quantity;

mod carbon;
mod compute;
mod data;
mod energy;
mod mass;
mod space;
mod time;

pub use carbon::{CarbonIntensity, GramsCo2e, KilogramsCo2e};
pub use compute::{Ops, OpsPerByte, OpsPerJoule, OpsPerSecond};
pub use data::{Bytes, BytesPerSecond};
pub use energy::{Joules, Watts};
pub use mass::{Grams, Kilograms};
pub use space::{Meters, MetersPerSecond, SquareMillimeters};
pub use time::{Hertz, Seconds};

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn all_quantities_are_send_sync() {
        assert_send_sync::<Seconds>();
        assert_send_sync::<Hertz>();
        assert_send_sync::<Joules>();
        assert_send_sync::<Watts>();
        assert_send_sync::<Grams>();
        assert_send_sync::<Kilograms>();
        assert_send_sync::<Meters>();
        assert_send_sync::<MetersPerSecond>();
        assert_send_sync::<SquareMillimeters>();
        assert_send_sync::<Bytes>();
        assert_send_sync::<BytesPerSecond>();
        assert_send_sync::<Ops>();
        assert_send_sync::<OpsPerSecond>();
        assert_send_sync::<OpsPerJoule>();
        assert_send_sync::<GramsCo2e>();
        assert_send_sync::<CarbonIntensity>();
    }
}
