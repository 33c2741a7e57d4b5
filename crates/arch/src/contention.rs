//! Shared-resource contention: the "accelerators are not free" model
//! (Challenge 4, experiment E10).
//!
//! Every accelerator added to an SoC shares DRAM bandwidth and interconnect
//! with the host and with its peers. This module models that sharing with
//! max-min fair allocation plus an M/M/1-style queueing delay as the bus
//! approaches saturation.

use m7_units::BytesPerSecond;

/// A shared memory bus with max-min fair bandwidth allocation.
///
/// # Examples
///
/// ```
/// use m7_arch::SharedBus;
/// use m7_units::BytesPerSecond;
///
/// let bus = SharedBus::new(BytesPerSecond::from_gigabytes_per_second(10.0));
/// let demands = [
///     BytesPerSecond::from_gigabytes_per_second(8.0),
///     BytesPerSecond::from_gigabytes_per_second(8.0),
/// ];
/// let alloc = bus.allocate(&demands);
/// // Oversubscribed 16 GB/s of demand on a 10 GB/s bus: each gets 5.
/// assert!((alloc[0].as_gigabytes_per_second() - 5.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharedBus {
    capacity: BytesPerSecond,
}

impl SharedBus {
    /// Creates a bus with the given total capacity.
    ///
    /// # Panics
    ///
    /// Panics if capacity is non-positive or non-finite.
    #[must_use]
    pub fn new(capacity: BytesPerSecond) -> Self {
        assert!(capacity.value() > 0.0 && capacity.is_finite(), "bus capacity must be positive");
        Self { capacity }
    }

    /// Total bus capacity.
    #[must_use]
    pub fn capacity(&self) -> BytesPerSecond {
        self.capacity
    }

    /// Utilization of the bus under the given demands (may exceed 1).
    #[must_use]
    pub(crate) fn utilization(&self, demands: &[BytesPerSecond]) -> f64 {
        let total: f64 = demands.iter().map(|d| d.value()).sum();
        total / self.capacity.value()
    }

    /// Max-min fair allocation of capacity across demands.
    ///
    /// Clients demanding less than their fair share keep their full demand;
    /// the surplus is redistributed among the rest.
    #[must_use]
    pub fn allocate(&self, demands: &[BytesPerSecond]) -> Vec<BytesPerSecond> {
        let n = demands.len();
        if n == 0 {
            return Vec::new();
        }
        let mut alloc = vec![0.0f64; n];
        let mut remaining: Vec<usize> = (0..n).collect();
        let mut capacity_left = self.capacity.value();
        // Iteratively satisfy the smallest demands.
        loop {
            if remaining.is_empty() || capacity_left <= 0.0 {
                break;
            }
            let fair = capacity_left / remaining.len() as f64;
            let (satisfied, rest): (Vec<usize>, Vec<usize>) =
                remaining.iter().partition(|&&i| demands[i].value() <= fair);
            if satisfied.is_empty() {
                for &i in &remaining {
                    alloc[i] = fair;
                }
                break;
            }
            for &i in &satisfied {
                alloc[i] = demands[i].value();
                capacity_left -= demands[i].value();
            }
            remaining = rest;
        }
        alloc.into_iter().map(BytesPerSecond::new).collect()
    }

    /// Per-client sustained-rate slowdown factors (`demand / allocation`,
    /// ≥ 1).
    ///
    /// Unlike [`SharedBus::allocate`], the division here is against a
    /// *contention-degraded* effective capacity: as raw utilization rises
    /// toward saturation, bank conflicts and arbitration waste up to 30% of
    /// the nominal bandwidth, so adding clients hurts before the bus is
    /// nominally full.
    #[must_use]
    pub fn slowdowns(&self, demands: &[BytesPerSecond]) -> Vec<f64> {
        let rho = self.utilization(demands);
        let effective = BytesPerSecond::new(self.capacity.value() * (1.0 - 0.3 * rho.min(1.0)));
        let alloc = Self::new(effective).allocate(demands);
        demands
            .iter()
            .zip(&alloc)
            .map(|(d, a)| {
                if d.value() <= 0.0 {
                    1.0
                } else if a.value() <= 0.0 {
                    f64::INFINITY
                } else {
                    (d.value() / a.value()).max(1.0)
                }
            })
            .collect()
    }
}

/// Aggregate throughput of `n` identical accelerators sharing one bus, each
/// demanding `per_unit` bandwidth and achieving throughput proportional to
/// allocated bandwidth.
///
/// Returns `(aggregate_scale, per_unit_scale)` relative to one uncontended
/// accelerator — the "adding accelerators is not free" curve of E10.
#[must_use]
pub fn scaling_under_contention(bus: &SharedBus, per_unit: BytesPerSecond, n: usize) -> (f64, f64) {
    if n == 0 {
        return (0.0, 0.0);
    }
    let demands = vec![per_unit; n];
    let slow = bus.slowdowns(&demands);
    let per_unit_scale = 1.0 / slow[0];
    (per_unit_scale * n as f64, per_unit_scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn gbps(v: f64) -> BytesPerSecond {
        BytesPerSecond::from_gigabytes_per_second(v)
    }

    #[test]
    fn undersubscribed_bus_grants_all() {
        let bus = SharedBus::new(gbps(10.0));
        let alloc = bus.allocate(&[gbps(2.0), gbps(3.0)]);
        assert_eq!(alloc[0], gbps(2.0));
        assert_eq!(alloc[1], gbps(3.0));
    }

    #[test]
    fn oversubscribed_bus_is_fair() {
        let bus = SharedBus::new(gbps(10.0));
        let alloc = bus.allocate(&[gbps(20.0), gbps(20.0)]);
        assert!((alloc[0].as_gigabytes_per_second() - 5.0).abs() < 1e-9);
        assert!((alloc[1].as_gigabytes_per_second() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn small_demand_is_protected() {
        let bus = SharedBus::new(gbps(10.0));
        let alloc = bus.allocate(&[gbps(1.0), gbps(100.0)]);
        assert_eq!(alloc[0], gbps(1.0), "small client keeps its demand");
        assert!((alloc[1].as_gigabytes_per_second() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn slowdown_grows_with_clients() {
        let bus = SharedBus::new(gbps(10.0));
        let one = bus.slowdowns(&[gbps(4.0)])[0];
        let three = bus.slowdowns(&[gbps(4.0); 3])[0];
        assert_eq!(one, 1.0, "a lone modest client is unimpeded");
        assert!(three > one, "more clients must mean more slowdown");
    }

    #[test]
    fn aggregate_scaling_saturates() {
        // Each accelerator wants 4 GB/s of a 10 GB/s bus.
        let bus = SharedBus::new(gbps(10.0));
        let (agg1, per1) = scaling_under_contention(&bus, gbps(4.0), 1);
        let (agg4, per4) = scaling_under_contention(&bus, gbps(4.0), 4);
        let (agg8, per8) = scaling_under_contention(&bus, gbps(4.0), 8);
        assert!(per1 > per4 && per4 > per8, "per-unit throughput degrades");
        assert!(agg4 > agg1, "some aggregate gain remains");
        // Once saturated, aggregate stops growing (bounded by capacity).
        assert!(agg8 <= agg4 * 1.05, "aggregate saturates: {agg8} vs {agg4}");
    }

    #[test]
    fn empty_demands() {
        let bus = SharedBus::new(gbps(10.0));
        assert!(bus.allocate(&[]).is_empty());
        assert!(bus.slowdowns(&[]).is_empty());
        assert_eq!(scaling_under_contention(&bus, gbps(1.0), 0), (0.0, 0.0));
    }

    proptest! {
        #[test]
        fn prop_allocation_never_exceeds_capacity(
            demands in prop::collection::vec(0.1..50.0f64, 1..10),
        ) {
            let bus = SharedBus::new(gbps(10.0));
            let demands: Vec<BytesPerSecond> = demands.into_iter().map(gbps).collect();
            let alloc = bus.allocate(&demands);
            let total: f64 = alloc.iter().map(|a| a.value()).sum();
            prop_assert!(total <= bus.capacity().value() * (1.0 + 1e-9));
            for (a, d) in alloc.iter().zip(&demands) {
                prop_assert!(a.value() <= d.value() + 1e-9, "never allocate more than demanded");
            }
        }

        #[test]
        fn prop_slowdowns_at_least_one(
            demands in prop::collection::vec(0.1..50.0f64, 1..10),
        ) {
            let bus = SharedBus::new(gbps(10.0));
            let demands: Vec<BytesPerSecond> = demands.into_iter().map(gbps).collect();
            for s in bus.slowdowns(&demands) {
                prop_assert!(s >= 1.0 - 1e-12);
            }
        }
    }
}
