//! Message-type contracts for graph ports.
//!
//! The runtime moves *modeled* messages (a birth timestamp plus a byte
//! count), but the ports they flow through are typed: a source declares
//! what it produces, a server declares what it consumes and emits, and
//! [`GraphBuilder::connect`](crate::GraphBuilder::connect) refuses an
//! edge whose endpoint types disagree — the classic "IMU samples wired
//! into the image pre-processor" mistake becomes a build-time
//! [`FlowError::TypeMismatch`](crate::FlowError::TypeMismatch) instead
//! of a silently wrong simulation.

use std::any::TypeId;

/// A message type carried on a graph edge.
///
/// Implement this marker trait for each payload class in a workload.
/// The type itself is never instantiated at runtime — it only names and
/// type-checks the port.
///
/// # Examples
///
/// ```
/// use m7_flow::MessageType;
///
/// struct LidarSweep;
/// impl MessageType for LidarSweep {
///     const NAME: &'static str = "lidar_sweep";
/// }
/// ```
pub trait MessageType: 'static {
    /// Human-readable type name used in error messages and reports.
    const NAME: &'static str;
}

/// The resolved type of a node port: a [`MessageType`]'s identity plus
/// its display name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PortType {
    id: TypeId,
    name: &'static str,
}

impl PortType {
    /// The port type of a [`MessageType`].
    #[must_use]
    pub(crate) fn of<T: MessageType>() -> Self {
        Self { id: TypeId::of::<T>(), name: T::NAME }
    }

    /// Display name of the message type.
    #[must_use]
    pub(crate) fn name(&self) -> &'static str {
        self.name
    }

    /// Whether two ports carry the same message type.
    #[must_use]
    pub(crate) fn matches(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl core::fmt::Display for PortType {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct A;
    impl MessageType for A {
        const NAME: &'static str = "a";
    }
    struct B;
    impl MessageType for B {
        const NAME: &'static str = "b";
    }

    #[test]
    fn identity_is_the_rust_type_not_the_name() {
        struct AliasOfA;
        impl MessageType for AliasOfA {
            const NAME: &'static str = "a"; // same display name, different type
        }
        assert!(PortType::of::<A>().matches(&PortType::of::<A>()));
        assert!(!PortType::of::<A>().matches(&PortType::of::<B>()));
        assert!(!PortType::of::<A>().matches(&PortType::of::<AliasOfA>()));
        assert_eq!(PortType::of::<A>().name(), PortType::of::<AliasOfA>().name());
    }
}
