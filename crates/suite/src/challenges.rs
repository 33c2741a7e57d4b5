//! The Magnificent Seven challenge taxonomy itself, as a typed API.
//!
//! The paper's primary contribution *is* this taxonomy; encoding it makes
//! the framework self-describing: every experiment declares which
//! challenge it evidences, and tooling (reports, docs, the
//! `run_experiments` binary) can group results by challenge.

use crate::experiments::ExperimentId;

/// The seven challenges, in paper order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Challenge {
    /// §2.1 — engage with domain experts.
    BuildBridges,
    /// §2.2 — metrics matter.
    MetricsMatter,
    /// §2.3 — avoid over-specialization.
    Widgetism,
    /// §2.4 — do not always accelerate.
    PumpTheBrakes,
    /// §2.5 — acceleration beyond ASICs.
    ChipsAndSalsa,
    /// §2.6 — take an end-to-end view.
    ForestVsTrees,
    /// §2.7 — sustainability and impact.
    DesignGlobal,
}

impl Challenge {
    /// All seven, in paper order.
    pub const ALL: [Self; 7] = [
        Self::BuildBridges,
        Self::MetricsMatter,
        Self::Widgetism,
        Self::PumpTheBrakes,
        Self::ChipsAndSalsa,
        Self::ForestVsTrees,
        Self::DesignGlobal,
    ];

    /// The paper's section number.
    #[must_use]
    pub fn section(self) -> &'static str {
        match self {
            Self::BuildBridges => "2.1",
            Self::MetricsMatter => "2.2",
            Self::Widgetism => "2.3",
            Self::PumpTheBrakes => "2.4",
            Self::ChipsAndSalsa => "2.5",
            Self::ForestVsTrees => "2.6",
            Self::DesignGlobal => "2.7",
        }
    }

    /// The paper's title for the challenge.
    #[must_use]
    pub(crate) fn title(self) -> &'static str {
        match self {
            Self::BuildBridges => "Build Bridges: Engage with Domain Experts",
            Self::MetricsMatter => "Measure Twice, Cut Once: Metrics Matter",
            Self::Widgetism => "\"Widgetism\": Avoid Over-Specialization",
            Self::PumpTheBrakes => "Pump the Brakes: Do Not Always Accelerate",
            Self::ChipsAndSalsa => "Chips and Salsa: Acceleration Beyond ASICs",
            Self::ForestVsTrees => "Forest vs. Trees: Take an End-to-End View",
            Self::DesignGlobal => "Design Global: Sustainability and Impact",
        }
    }

    /// The experiments that evidence this challenge.
    #[must_use]
    pub fn experiments(self) -> &'static [ExperimentId] {
        match self {
            Self::BuildBridges => &[ExperimentId::E2Bridges],
            Self::MetricsMatter => &[ExperimentId::E3Metrics],
            Self::Widgetism => &[ExperimentId::E4Widgetism],
            Self::PumpTheBrakes => &[ExperimentId::E5Brakes, ExperimentId::E10Contention],
            Self::ChipsAndSalsa => &[ExperimentId::E6Platforms],
            Self::ForestVsTrees => &[ExperimentId::E7EndToEnd, ExperimentId::E11Robustness],
            Self::DesignGlobal => &[ExperimentId::E8Global],
        }
    }
}

impl core::fmt::Display for Challenge {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "§{} {}", self.section(), self.title())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_challenges_in_order() {
        assert_eq!(Challenge::ALL.len(), 7);
        for w in Challenge::ALL.windows(2) {
            assert!(w[0] < w[1], "paper order must be preserved");
        }
        assert_eq!(Challenge::ALL[0].section(), "2.1");
        assert_eq!(Challenge::ALL[6].section(), "2.7");
    }

    #[test]
    fn every_challenge_has_evidence() {
        for c in Challenge::ALL {
            assert!(!c.experiments().is_empty(), "{c} has no experiment");
        }
    }

    #[test]
    fn display_carries_section() {
        assert_eq!(
            Challenge::PumpTheBrakes.to_string(),
            "§2.4 Pump the Brakes: Do Not Always Accelerate"
        );
    }
}
