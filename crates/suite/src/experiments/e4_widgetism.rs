//! E4 — Challenge 3, "Widgetism": the over-specialization trap.
//!
//! A task suite of six autonomy workloads is run on three designs: a
//! widget ASIC hardwired to task 1's exact kernel, a cross-cutting
//! accelerator for the two primitive families shared across the suite,
//! and the SIMD CPU software baseline. The widget posts the single best
//! number on its own task and the worst suite average.

use crate::report::{fmt_f64, Report, Table};
use m7_arch::platform::{Platform, PlatformKind, Specialization};
use m7_arch::workload::{KernelFamily, KernelProfile};

/// The six-task autonomy suite (name, kernel pipeline).
#[must_use]
pub(crate) fn task_suite() -> Vec<(String, Vec<KernelProfile>)> {
    vec![
        (
            "uav-obstacle-avoidance".to_string(),
            vec![KernelProfile::collision_batch(30_000, 64), KernelProfile::ekf_update(23)],
        ),
        (
            "manipulator-control".to_string(),
            vec![KernelProfile::rnea(7), KernelProfile::gemv(128, 128)],
        ),
        ("warehouse-prm".to_string(), vec![KernelProfile::collision_batch(120_000, 256)]),
        (
            "visual-odometry".to_string(),
            vec![KernelProfile::feature_extract(640, 480), KernelProfile::gemv(256, 256)],
        ),
        ("perception-dnn".to_string(), vec![KernelProfile::dnn_inference(2.0e6, 2.0e6)]),
        ("legacy-scan-matching".to_string(), vec![KernelProfile::correlation_scan(9261, 90)]),
    ]
}

/// The widget under test: hardwired to the warehouse PRM's exact batch
/// shape.
#[must_use]
pub(crate) fn prm_widget() -> Platform {
    Platform::builder(PlatformKind::Asic)
        .name("widget-prm-asic")
        .specialization(Specialization::Widget {
            name_prefix: "collision-120000x256".to_string(),
            family: KernelFamily::CollisionGeometry,
            family_fraction: 0.25,
            fallback: 0.02,
        })
        .build()
}

/// The cross-cutting design: accelerates the two families that dominate
/// the suite (batched geometry + dense linear algebra).
#[must_use]
pub(crate) fn crosscutting_accelerator() -> Platform {
    Platform::builder(PlatformKind::Asic)
        .name("crosscutting-asic")
        .specialization(Specialization::Families {
            families: vec![KernelFamily::CollisionGeometry, KernelFamily::DenseLinearAlgebra],
            fallback: 0.02,
        })
        .build()
}

/// The E4 result.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WidgetismResult {
    /// Design names, column order of `speedups`.
    pub designs: Vec<String>,
    /// `(task, per-design speedups over the scalar-CPU software baseline)`.
    pub speedups: Vec<(String, Vec<f64>)>,
    /// Geometric-mean suite speedup per design.
    pub suite_geomean: Vec<f64>,
}

impl WidgetismResult {
    /// Renders the report.
    #[must_use]
    pub(crate) fn report(&self) -> Report {
        let mut report = Report::new("E4 — widgetism: over-specialization (§2.3)");
        let mut headers = vec!["task".to_string()];
        headers.extend(self.designs.iter().cloned());
        let mut t = Table::new("speedup over scalar-CPU software", headers);
        for (task, row) in &self.speedups {
            let mut cells = vec![task.clone()];
            cells.extend(row.iter().map(|&s| fmt_f64(s)));
            t.push_row(cells);
        }
        let mut cells = vec!["SUITE GEOMEAN".to_string()];
        cells.extend(self.suite_geomean.iter().map(|&s| fmt_f64(s)));
        t.push_row(cells);
        report.push_table(t);
        report.push_note(
            "the widget posts the single largest per-task number and the smallest suite \
             geomean — evaluation breadth is what exposes widgetism",
        );
        report
    }
}

/// Runs E4. Each design offloads kernels it beats the host on; the rest
/// stay on the integrated SIMD host.
#[must_use]
pub(crate) fn run() -> WidgetismResult {
    let baseline = Platform::preset(PlatformKind::CpuScalar);
    let host = Platform::preset(PlatformKind::CpuSimd);
    let designs = [host.clone(), prm_widget(), crosscutting_accelerator()];
    let suite = task_suite();

    let mut speedups = Vec::new();
    for (task, pipeline) in &suite {
        let base = baseline.estimate_pipeline(pipeline).latency;
        let row: Vec<f64> = designs
            .iter()
            .map(|design| {
                let t: m7_units::Seconds = pipeline
                    .iter()
                    .map(|k| design.estimate(k).latency.min(host.estimate(k).latency))
                    .sum();
                base / t
            })
            .collect();
        speedups.push((task.clone(), row));
    }
    let suite_geomean = (0..designs.len())
        .map(|d| {
            let product: f64 = speedups.iter().map(|(_, row)| row[d].ln()).sum();
            (product / speedups.len() as f64).exp()
        })
        .collect();
    WidgetismResult {
        designs: designs.iter().map(|d| d.name().to_string()).collect(),
        speedups,
        suite_geomean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn design_index(r: &WidgetismResult, name: &str) -> usize {
        r.designs.iter().position(|d| d == name).expect("design present")
    }

    #[test]
    fn widget_wins_its_own_task() {
        let r = run();
        let widget = design_index(&r, "widget-prm-asic");
        let prm_row = &r.speedups.iter().find(|(t, _)| t == "warehouse-prm").unwrap().1;
        let best = prm_row.iter().cloned().fold(f64::MIN, f64::max);
        assert_eq!(prm_row[widget], best, "widget must top its own task");
        assert!(prm_row[widget] > 10.0, "and by a wide margin: {}", prm_row[widget]);
    }

    #[test]
    fn widget_loses_the_suite() {
        let r = run();
        let widget = design_index(&r, "widget-prm-asic");
        let cross = design_index(&r, "crosscutting-asic");
        assert!(
            r.suite_geomean[cross] > r.suite_geomean[widget],
            "cross-cutting {} must beat widget {} on the suite",
            r.suite_geomean[cross],
            r.suite_geomean[widget]
        );
    }

    #[test]
    fn crosscutting_helps_multiple_tasks() {
        let r = run();
        let cross = design_index(&r, "crosscutting-asic");
        let host = design_index(&r, "cpu-simd");
        let improved = r.speedups.iter().filter(|(_, row)| row[cross] > row[host] * 1.2).count();
        assert!(improved >= 3, "cross-cutting design should lift at least 3 of 6 tasks");
    }

    #[test]
    fn all_speedups_positive() {
        let r = run();
        for (task, row) in &r.speedups {
            for &s in row {
                assert!(s > 0.0, "task {task} has non-positive speedup");
            }
        }
    }

    #[test]
    fn report_has_geomean_row() {
        let text = run().report().to_string();
        assert!(text.contains("SUITE GEOMEAN"));
    }
}
