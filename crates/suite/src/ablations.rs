//! Ablations of the framework's own design choices, as promised in
//! DESIGN.md: each isolates one modeling decision and shows what the
//! results would claim without it.
//!
//! - [`dvfs_pareto`] — is a DVFS ladder enough to "pump the brakes", or
//!   does tier selection (E5) still matter? Produces the latency/energy
//!   Pareto front across operating points.
//! - [`contention_onoff`] — what would E10's scaling table claim if the
//!   shared bus were ignored (the "accelerators are free" assumption)?
//! - [`thermal_sustained`] — what does a throughput claim look like after
//!   ten minutes of sustained load on a passively cooled module?

use crate::report::{fmt_f64, Report, Table};
use m7_arch::dvfs::ladder_sweep;
use m7_arch::platform::{Platform, PlatformKind};
use m7_arch::workload::KernelProfile;
use m7_arch::SharedBus;
use m7_dse::pareto_front;
use m7_sim::{ThermalConfig, ThermalState};
use m7_units::{BytesPerSecond, Seconds, Watts};

/// Result of the DVFS ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsAblation {
    /// `(frequency scale, latency ms, energy mJ, on Pareto front)`.
    pub rows: Vec<(f64, f64, f64, bool)>,
}

/// Runs the DVFS ablation on the embedded GPU with the feature-extraction
/// workload.
#[must_use]
pub fn dvfs_pareto() -> DvfsAblation {
    let platform = Platform::preset(PlatformKind::Gpu);
    let kernel = KernelProfile::feature_extract(1280, 720);
    let sweep = ladder_sweep(&platform);
    let metrics: Vec<Vec<f64>> = sweep
        .iter()
        .map(|(_, p)| {
            let c = p.estimate(&kernel);
            vec![c.latency.as_millis(), c.energy.value() * 1e3]
        })
        .collect();
    let front = pareto_front(&metrics);
    let rows = sweep
        .iter()
        .zip(&metrics)
        .enumerate()
        .map(|(i, ((point, _), m))| (point.frequency_scale, m[0], m[1], front.contains(&i)))
        .collect();
    DvfsAblation { rows }
}

impl DvfsAblation {
    /// Renders the report.
    #[must_use]
    pub fn report(&self) -> Report {
        let mut report = Report::new("Ablation: DVFS ladder vs tier choice");
        let mut t = Table::new(
            "gpu-embedded operating points, 720p feature extraction",
            vec!["freq scale", "latency [ms]", "energy [mJ]", "pareto"],
        );
        for &(f, lat, e, on) in &self.rows {
            t.push_row(vec![fmt_f64(f), fmt_f64(lat), fmt_f64(e), on.to_string()]);
        }
        report.push_table(t);
        report.push_note(
            "DVFS spans part of the latency/energy trade space but cannot shed the board's \
             mass — the E5 mission still needs tier selection",
        );
        report
    }
}

/// Result of the contention on/off ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionAblation {
    /// `(accelerators, aggregate with contention, aggregate if 'free')`.
    pub rows: Vec<(usize, f64, f64)>,
}

/// Runs the contention on/off ablation.
#[must_use]
pub fn contention_onoff() -> ContentionAblation {
    let bus = SharedBus::new(BytesPerSecond::from_gigabytes_per_second(12.0));
    let per_unit = BytesPerSecond::from_gigabytes_per_second(4.0);
    let rows = (1..=8)
        .map(|n| {
            let (agg, _) = m7_arch::scaling_under_contention(&bus, per_unit, n);
            (n, agg, n as f64)
        })
        .collect();
    ContentionAblation { rows }
}

impl ContentionAblation {
    /// Renders the report.
    #[must_use]
    pub fn report(&self) -> Report {
        let mut report = Report::new("Ablation: shared-bus contention on/off");
        let mut t = Table::new(
            "aggregate accelerator throughput (units of one uncontended accelerator)",
            vec!["accelerators", "with contention", "'accelerators are free'"],
        );
        for &(n, real, free) in &self.rows {
            t.push_row(vec![n.to_string(), fmt_f64(real), fmt_f64(free)]);
        }
        report.push_table(t);
        report.push_note(
            "ignoring the bus predicts linear scaling forever; the contended model \
             saturates at ~2 units — the delta is the size of the modeling error the \
             paper's Challenge 4 warns about",
        );
        report
    }
}

/// Result of the sustained-thermal ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalAblation {
    /// `(minute, junction °C, performance scale)`.
    pub rows: Vec<(usize, f64, f64)>,
    /// Performance after ten minutes relative to the first minute.
    pub sustained_fraction: f64,
}

/// Runs the sustained-thermal ablation: 40 W on a passively cooled module
/// for ten minutes.
#[must_use]
pub fn thermal_sustained() -> ThermalAblation {
    let mut state = ThermalState::new(ThermalConfig::default());
    let mut rows = Vec::new();
    for minute in 1..=10 {
        for _ in 0..60 {
            state.step(Watts::new(40.0), Seconds::new(1.0));
        }
        rows.push((minute, state.temperature_c(), state.performance_scale()));
    }
    let first = rows.first().expect("ten rows").2;
    let last = rows.last().expect("ten rows").2;
    ThermalAblation { rows, sustained_fraction: last / first }
}

impl ThermalAblation {
    /// Renders the report.
    #[must_use]
    pub fn report(&self) -> Report {
        let mut report = Report::new("Ablation: burst vs sustained thermal throughput");
        let mut t = Table::new(
            "40 W sustained on a passively cooled module",
            vec!["minute", "junction [C]", "performance scale"],
        );
        for &(m, temp, scale) in &self.rows {
            t.push_row(vec![m.to_string(), fmt_f64(temp), fmt_f64(scale)]);
        }
        report.push_table(t);
        report.push_note(format!(
            "a benchmark run in the first minute overstates sustained throughput by {:.0}% — \
             end-to-end models must include the thermal envelope (§3.1)",
            (1.0 / self.sustained_fraction - 1.0) * 100.0
        ));
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dvfs_front_is_nontrivial() {
        let a = dvfs_pareto();
        assert_eq!(a.rows.len(), 5);
        let on_front = a.rows.iter().filter(|r| r.3).count();
        assert!(on_front >= 2, "the ladder should expose a real trade-off");
        // Latency decreases with frequency.
        for w in a.rows.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-9);
        }
    }

    #[test]
    fn contention_gap_grows_with_units() {
        let a = contention_onoff();
        let gap = |row: &(usize, f64, f64)| row.2 - row.1;
        assert!(gap(&a.rows[7]) > gap(&a.rows[0]));
        assert!(a.rows[7].1 < 3.0, "contended aggregate saturates");
        assert_eq!(a.rows[7].2, 8.0, "'free' model claims linear scaling");
    }

    #[test]
    fn sustained_throughput_is_lower_than_burst() {
        let a = thermal_sustained();
        assert!(a.sustained_fraction < 0.8, "got {}", a.sustained_fraction);
        // Temperature is monotone non-decreasing under constant load.
        for w in a.rows.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-9);
        }
    }

    #[test]
    fn reports_render() {
        assert!(dvfs_pareto().report().to_string().contains("pareto"));
        assert!(contention_onoff().report().to_string().contains("free"));
        assert!(thermal_sustained().report().to_string().contains("junction"));
    }
}
