//! E3 — Challenge 2, "Metrics Matter": the MLPerf lesson.
//!
//! Dropping weight precision raises the modeled accelerator throughput
//! monotonically (quantized training steps stream fewer bytes). But the
//! *task* metric — wall-clock time until the model reaches a target
//! accuracy — ranks the precisions differently, because aggressive
//! quantization needs more epochs or never converges. A designer who
//! optimizes raw throughput ships the int2 design; a designer who measures
//! time-to-accuracy ships int8/int16.

use crate::report::{fmt_f64, Report, Table};
use m7_arch::platform::{Platform, PlatformKind};
use m7_arch::workload::KernelProfile;
use m7_kernels::dnn::{Dataset, Mlp, Precision};
use m7_units::Seconds;
use serde::{Deserialize, Serialize};

/// Per-precision measurements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrecisionRow {
    /// Weight precision.
    pub precision: String,
    /// Modeled training-step throughput (steps/s) on the accelerator.
    pub steps_per_second: f64,
    /// Epochs of quantization-aware training needed to hit the target
    /// accuracy (`None` = never reached).
    pub epochs_to_target: Option<usize>,
    /// Wall-clock time to the target accuracy (`None` = never).
    pub time_to_accuracy: Option<f64>,
    /// Final accuracy after the training budget.
    pub final_accuracy: f64,
}

/// The E3 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsResult {
    /// One row per precision, highest to lowest.
    pub rows: Vec<PrecisionRow>,
    /// Precision with the best raw throughput.
    pub throughput_winner: String,
    /// Precision with the best time-to-accuracy.
    pub time_to_accuracy_winner: String,
}

impl MetricsResult {
    /// Renders the report.
    #[must_use]
    pub fn report(&self) -> Report {
        let mut report = Report::new("E3 — metrics matter: throughput vs time-to-accuracy (§2.2)");
        let mut t = Table::new(
            "precision sweep",
            vec![
                "precision",
                "steps/s (modeled)",
                "epochs to 95%",
                "time-to-accuracy [s]",
                "final accuracy",
            ],
        );
        for row in &self.rows {
            t.push_row(vec![
                row.precision.clone(),
                fmt_f64(row.steps_per_second),
                row.epochs_to_target.map_or_else(|| "never".to_string(), |e| e.to_string()),
                row.time_to_accuracy.map_or_else(|| "inf".to_string(), fmt_f64),
                fmt_f64(row.final_accuracy),
            ]);
        }
        report.push_table(t);
        report.push_note(format!(
            "raw-throughput winner: {}; time-to-accuracy winner: {} — the two metrics \
             disagree, exactly the paper's warning",
            self.throughput_winner, self.time_to_accuracy_winner
        ));
        report
    }
}

/// Runs E3: an 8-class classification task trained quantization-aware at
/// every precision, with step throughput modeled on the ASIC preset.
#[must_use]
pub fn run(seed: u64) -> MetricsResult {
    let data = Dataset::blobs(100, 8, 2, seed);
    let target = 0.95;
    let max_epochs = 150;
    let accelerator = Platform::preset(PlatformKind::Asic);
    let template = Mlp::new(&[2, 16, 8], seed ^ 0x5EED);

    let rows: Vec<PrecisionRow> = Precision::ALL
        .iter()
        .map(|&precision| {
            // Modeled step cost: forward+backward ≈ 3× inference MACs; the
            // weight traffic shrinks with precision (the throughput "win").
            let profile = KernelProfile::dnn_inference(
                3.0 * template.macs_per_inference(),
                3.0 * template.weight_bytes(precision),
            );
            let step_latency: Seconds = accelerator.estimate(&profile).latency;
            let steps_per_second = 1.0 / step_latency.value();

            let mut model = template.clone();
            let epochs_to_target = model
                .epochs_to_accuracy(&data, target, 0.05, precision, max_epochs)
                .expect("the blobs fit the network");
            let steps_per_epoch = data.len() as f64;
            let time_to_accuracy =
                epochs_to_target.map(|e| e as f64 * steps_per_epoch * step_latency.value());
            PrecisionRow {
                precision: precision.to_string(),
                steps_per_second,
                epochs_to_target,
                time_to_accuracy,
                final_accuracy: model
                    .accuracy(&data, precision)
                    .expect("the blobs fit the network"),
            }
        })
        .collect();

    let throughput_winner = rows
        .iter()
        .max_by(|a, b| {
            a.steps_per_second.partial_cmp(&b.steps_per_second).expect("finite throughput")
        })
        .expect("nonempty rows")
        .precision
        .clone();
    let time_to_accuracy_winner = rows
        .iter()
        .filter(|r| r.time_to_accuracy.is_some())
        .min_by(|a, b| a.time_to_accuracy.partial_cmp(&b.time_to_accuracy).expect("finite times"))
        .expect("at least one precision converges")
        .precision
        .clone();
    MetricsResult { rows, throughput_winner, time_to_accuracy_winner }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_increases_as_precision_drops() {
        let r = run(3);
        for w in r.rows.windows(2) {
            assert!(
                w[1].steps_per_second >= w[0].steps_per_second,
                "{} -> {} should not reduce modeled throughput",
                w[0].precision,
                w[1].precision
            );
        }
    }

    #[test]
    fn metrics_disagree() {
        let r = run(3);
        assert_ne!(
            r.throughput_winner, r.time_to_accuracy_winner,
            "the whole point: raw throughput and time-to-accuracy pick different designs"
        );
        assert_eq!(r.throughput_winner, "int2", "lowest precision streams fewest bytes");
    }

    #[test]
    fn int2_never_reaches_target() {
        let r = run(3);
        let int2 = r.rows.iter().find(|row| row.precision == "int2").unwrap();
        assert!(int2.time_to_accuracy.is_none());
        assert!(int2.final_accuracy < 0.95);
    }

    #[test]
    fn f32_reaches_target() {
        let r = run(3);
        let f32_row = r.rows.iter().find(|row| row.precision == "f32").unwrap();
        assert!(f32_row.epochs_to_target.is_some());
        assert!(f32_row.final_accuracy >= 0.95);
    }

    #[test]
    fn report_renders_every_precision() {
        let text = run(3).report().to_string();
        for p in ["f32", "int16", "int8", "int4", "int2"] {
            assert!(text.contains(p), "missing {p}");
        }
    }
}
