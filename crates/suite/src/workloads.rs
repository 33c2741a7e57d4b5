//! M7Bench: a standardized autonomy benchmark suite with system-level
//! scoring — the paper's "Standardized Benchmarks and Metrics"
//! opportunity (§3.2).
//!
//! Each workload names a deployable autonomy function, the kernel
//! pipeline it executes per input, and the input rate it must sustain.
//! [`score`] evaluates a platform against a workload with metrics the
//! paper endorses (keep-up at the sensor rate, latency, energy per input)
//! instead of raw TOPS, and [`suite_summary`] aggregates across the suite
//! so narrow widgets cannot hide (Challenge 3).

use crate::report::{fmt_f64, Report, Table};
use m7_arch::platform::Platform;
use m7_arch::workload::KernelProfile;
use m7_units::{Hertz, Joules, Seconds};

/// One standardized benchmark workload.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkWorkload {
    name: String,
    pipeline: Vec<KernelProfile>,
    /// Rate at which inputs arrive and must be fully processed.
    input_rate: Hertz,
    /// Latency bound for one input (control deadline).
    deadline: Seconds,
}

impl BenchmarkWorkload {
    /// Creates a workload.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline is empty or the rate/deadline are
    /// non-positive.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        pipeline: Vec<KernelProfile>,
        input_rate: Hertz,
        deadline: Seconds,
    ) -> Self {
        assert!(!pipeline.is_empty(), "a workload needs at least one kernel");
        assert!(input_rate.value() > 0.0, "input rate must be positive");
        assert!(deadline.value() > 0.0, "deadline must be positive");
        Self { name: name.into(), pipeline, input_rate, deadline }
    }

    /// Workload name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The kernel pipeline per input.
    #[must_use]
    pub fn pipeline(&self) -> &[KernelProfile] {
        &self.pipeline
    }

    /// Required input rate.
    #[must_use]
    pub(crate) fn input_rate(&self) -> Hertz {
        self.input_rate
    }

    /// Per-input latency deadline.
    #[must_use]
    pub fn deadline(&self) -> Seconds {
        self.deadline
    }
}

/// The reference M7Bench suite: six deployable autonomy functions.
#[must_use]
pub fn m7bench() -> Vec<BenchmarkWorkload> {
    vec![
        BenchmarkWorkload::new(
            "obstacle-avoidance",
            vec![KernelProfile::collision_batch(100_000, 128), KernelProfile::ekf_update(23)],
            Hertz::new(30.0),
            Seconds::from_millis(25.0),
        ),
        BenchmarkWorkload::new(
            "visual-odometry",
            vec![KernelProfile::feature_extract(1920, 1080), KernelProfile::gemv(256, 256)],
            Hertz::new(30.0),
            Seconds::from_millis(33.0),
        ),
        BenchmarkWorkload::new(
            "manipulation-control",
            vec![KernelProfile::rnea(7), KernelProfile::gemv(64, 64)],
            Hertz::new(1000.0),
            Seconds::from_millis(1.0),
        ),
        BenchmarkWorkload::new(
            "global-replanning",
            vec![KernelProfile::collision_batch(500_000, 512)],
            Hertz::new(2.0),
            Seconds::from_millis(400.0),
        ),
        BenchmarkWorkload::new(
            "perception-dnn",
            vec![KernelProfile::dnn_inference(2.0e8, 2.0e8)],
            Hertz::new(60.0),
            Seconds::from_millis(15.0),
        ),
        BenchmarkWorkload::new(
            "localization-update",
            vec![KernelProfile::ekf_update(43), KernelProfile::gemv(128, 128)],
            Hertz::new(100.0),
            Seconds::from_millis(10.0),
        ),
    ]
}

/// The system-level score of one platform on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkScore {
    /// Workload name.
    pub workload: String,
    /// Per-input pipeline latency.
    pub latency: Seconds,
    /// Energy per input.
    pub energy: Joules,
    /// Whether the deadline is met.
    pub meets_deadline: bool,
    /// Whether back-to-back processing sustains the input rate.
    pub sustains_rate: bool,
}

impl BenchmarkScore {
    /// A workload *passes* only if both system requirements hold — the
    /// metric the paper wants instead of raw throughput.
    #[must_use]
    pub fn passes(&self) -> bool {
        self.meets_deadline && self.sustains_rate
    }
}

/// Scores a platform against one workload.
#[must_use]
pub fn score(platform: &Platform, workload: &BenchmarkWorkload) -> BenchmarkScore {
    let cost = platform.estimate_pipeline(workload.pipeline());
    BenchmarkScore {
        workload: workload.name().to_string(),
        latency: cost.latency,
        energy: cost.energy,
        meets_deadline: cost.latency <= workload.deadline(),
        sustains_rate: cost.latency <= workload.input_rate().period(),
    }
}

/// Scores a platform across the whole suite and renders a report.
#[must_use]
pub fn suite_summary(platform: &Platform, suite: &[BenchmarkWorkload]) -> Report {
    let mut report = Report::new(format!("M7Bench: {}", platform.name()));
    let mut t = Table::new(
        "per-workload system-level results",
        vec!["workload", "latency [ms]", "energy [mJ]", "deadline", "rate", "pass"],
    );
    let mut passes = 0usize;
    for w in suite {
        let s = score(platform, w);
        if s.passes() {
            passes += 1;
        }
        t.push_row(vec![
            s.workload.clone(),
            fmt_f64(s.latency.as_millis()),
            fmt_f64(s.energy.value() * 1e3),
            s.meets_deadline.to_string(),
            s.sustains_rate.to_string(),
            s.passes().to_string(),
        ]);
    }
    report.push_table(t);
    report.push_note(format!("{passes}/{} workloads pass on {}", suite.len(), platform.name()));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use m7_arch::platform::PlatformKind;

    #[test]
    fn reference_suite_is_well_formed() {
        let suite = m7bench();
        assert_eq!(suite.len(), 6);
        let mut names: Vec<&str> = suite.iter().map(BenchmarkWorkload::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6, "workload names must be unique");
    }

    #[test]
    fn stronger_platforms_pass_more() {
        let suite = m7bench();
        let count = |kind| {
            let p = Platform::preset(kind);
            suite.iter().filter(|w| score(&p, w).passes()).count()
        };
        let scalar = count(PlatformKind::CpuScalar);
        let simd = count(PlatformKind::CpuSimd);
        let asic = count(PlatformKind::Asic);
        assert!(simd >= scalar);
        assert!(asic >= simd);
        assert!(scalar < suite.len(), "the scalar CPU must fail something");
        assert!(simd > 0, "SIMD passes at least one workload");
    }

    #[test]
    fn control_loop_punishes_dispatch_overhead() {
        // The 1 kHz manipulation loop: the GPU's 30 µs launch overhead is
        // fine, but its slow serial path for tiny kernels is the risk;
        // either way the score must reflect system requirements, not TOPS.
        let suite = m7bench();
        let control = suite.iter().find(|w| w.name() == "manipulation-control").unwrap();
        let gpu = score(&Platform::preset(PlatformKind::Gpu), control);
        let cpu = score(&Platform::preset(PlatformKind::CpuSimd), control);
        assert!(cpu.latency < gpu.latency, "tiny serial kernels favor the CPU");
    }

    #[test]
    fn score_fields_are_consistent() {
        let suite = m7bench();
        let p = Platform::preset(PlatformKind::Asic);
        for w in &suite {
            let s = score(&p, w);
            assert_eq!(s.passes(), s.meets_deadline && s.sustains_rate);
            assert!(s.latency.value() > 0.0);
            assert!(s.energy.value() > 0.0);
        }
    }

    #[test]
    fn summary_report_renders() {
        let report = suite_summary(&Platform::preset(PlatformKind::CpuSimd), &m7bench());
        assert!(report.to_string().contains("obstacle-avoidance"));
        assert!(report.notes()[0].contains("workloads pass"));
    }

    #[test]
    #[should_panic(expected = "at least one kernel")]
    fn empty_pipeline_rejected() {
        let _ = BenchmarkWorkload::new("bad", vec![], Hertz::new(1.0), Seconds::new(1.0));
    }
}
