//! The sensor → marshalling → kernel → actuation pipeline with explicit
//! data-movement taxes.
//!
//! This is the "forest" of Challenge 6: accelerating the kernel stage by
//! 1000× moves end-to-end latency only as far as Amdahl's Law and the "AI
//! tax" of ingest/marshalling allow. Experiment E7 sweeps
//! [`Pipeline::with_kernel_speedup`] and reports the end-to-end curve.

use crate::faults::FaultSchedule;
use crate::sensor::SensorSpec;
use m7_arch::platform::Platform;
use m7_arch::workload::KernelProfile;
use m7_flow::{
    EdgeSpec, GraphBuilder, LossModel, LossSeed, MessageType, ServerSpec, Service, SinkSpec,
    SourceSpec,
};
use m7_par::ParConfig;
use m7_trace::{MetricClass, SpanSite, TraceCounter, TraceHistogram};
use m7_units::{Bytes, BytesPerSecond, Hertz, Seconds};

// Closed-loop pipeline observability (no-ops until `m7_trace::enable()`).
// Stage latencies and frame totals are pure functions of the pipeline
// model and seed, so everything here is deterministic-class. The stage
// span sites also emit one modeled-time frame timeline per simulate
// call (ingest → compute → actuate on the model's clock).
static SIM_SPAN: SpanSite = SpanSite::new("sim.pipeline.simulate", MetricClass::Deterministic);
static INGEST_SPAN: SpanSite = SpanSite::new("sim.pipeline.ingest", MetricClass::Deterministic);
static COMPUTE_SPAN: SpanSite = SpanSite::new("sim.pipeline.compute", MetricClass::Deterministic);
static ACTUATE_SPAN: SpanSite = SpanSite::new("sim.pipeline.actuate", MetricClass::Deterministic);
static INGEST_NS: TraceHistogram =
    TraceHistogram::new("sim.pipeline.ingest_ns", MetricClass::Deterministic);
static COMPUTE_NS: TraceHistogram =
    TraceHistogram::new("sim.pipeline.compute_ns", MetricClass::Deterministic);
static ACTUATE_NS: TraceHistogram =
    TraceHistogram::new("sim.pipeline.actuate_ns", MetricClass::Deterministic);
static FRAMES_IN: TraceCounter =
    TraceCounter::new("sim.pipeline.frames_in", MetricClass::Deterministic);
static FRAMES_PROCESSED: TraceCounter =
    TraceCounter::new("sim.pipeline.frames_processed", MetricClass::Deterministic);
static FRAMES_DROPPED: TraceCounter =
    TraceCounter::new("sim.pipeline.frames_dropped", MetricClass::Deterministic);
static FRAMES_LOST: TraceCounter =
    TraceCounter::new("sim.pipeline.frames_lost", MetricClass::Deterministic);

fn seconds_to_ns(s: Seconds) -> u64 {
    let ns = s.value() * 1e9;
    if ns.is_finite() && ns >= 0.0 {
        ns as u64
    } else {
        0
    }
}

/// Per-stage latency budget of one frame through the pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyBudget {
    /// Sensor readout, serialization, and copy-in (the "AI tax").
    pub ingest: Seconds,
    /// Kernel execution on the platform (after any modeled speedup).
    pub compute: Seconds,
    /// Actuation transport and settling.
    pub actuate: Seconds,
}

impl LatencyBudget {
    /// Total end-to-end latency.
    #[must_use]
    pub fn total(&self) -> Seconds {
        self.ingest + self.compute + self.actuate
    }

    /// Fraction of the total spent in the kernel — the Amdahl ceiling's
    /// complement.
    #[must_use]
    pub fn compute_fraction(&self) -> f64 {
        self.compute / self.total()
    }
}

/// Throughput and latency statistics from a simulated pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineStats {
    /// Frames produced by the sensor.
    pub frames_in: u64,
    /// Frames fully processed.
    pub frames_processed: u64,
    /// Frames dropped at the full queue.
    pub frames_dropped: u64,
    /// Frames lost in transport (inter-stage message drops).
    pub frames_lost: u64,
    /// Mean end-to-end latency of processed frames.
    pub mean_latency: Seconds,
    /// 99th-percentile end-to-end latency.
    pub p99_latency: Seconds,
    /// Achieved processing rate.
    pub throughput: Hertz,
}

impl PipelineStats {
    /// Fraction of produced frames that were dropped.
    #[must_use]
    pub fn drop_rate(&self) -> f64 {
        if self.frames_in == 0 {
            return 0.0;
        }
        self.frames_dropped as f64 / self.frames_in as f64
    }
}

/// A degenerate pipeline configuration, reported by
/// [`Pipeline::try_simulate_with_faults`] instead of panicking or hanging.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum PipelineConfigError {
    /// The compute queue has capacity zero: every frame that arrives
    /// while the stage is busy would be dropped, which is a
    /// configuration mistake, not a model.
    ZeroQueueCapacity,
    /// The simulation duration is negative, NaN, or infinite. (The
    /// pre-dataflow simulator looped forever on a NaN duration.)
    InvalidDuration {
        /// The offending duration in seconds.
        seconds: f64,
    },
}

impl core::fmt::Display for PipelineConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::ZeroQueueCapacity => {
                write!(f, "queue capacity must be at least 1 (got 0)")
            }
            Self::InvalidDuration { seconds } => {
                write!(f, "simulation duration must be finite and non-negative, got {seconds}")
            }
        }
    }
}

impl std::error::Error for PipelineConfigError {}

/// An end-to-end perception/compute/actuation pipeline.
///
/// # Examples
///
/// ```
/// use m7_arch::platform::{Platform, PlatformKind};
/// use m7_arch::workload::KernelProfile;
/// use m7_sim::pipeline::Pipeline;
/// use m7_sim::SensorSpec;
///
/// let p = Pipeline::new(
///     SensorSpec::camera_vga(30.0),
///     Platform::preset(PlatformKind::CpuSimd),
///     KernelProfile::feature_extract(640, 480),
/// );
/// let budget = p.latency_budget();
/// assert!(budget.total().value() > 0.0);
/// // A 10× kernel speedup cannot deliver a 10× end-to-end speedup.
/// let sped = p.with_kernel_speedup(10.0);
/// let gain = budget.total() / sped.latency_budget().total();
/// assert!(gain < 10.0);
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline {
    sensor: SensorSpec,
    platform: Platform,
    kernel: KernelProfile,
    /// Marshalling/copy bandwidth from sensor memory into the compute
    /// device.
    marshalling_bandwidth: BytesPerSecond,
    /// Fixed per-frame driver/serialization overhead.
    marshalling_overhead: Seconds,
    /// Actuator transport and settling delay.
    actuation_latency: Seconds,
    /// Modeled accelerator speedup applied to the kernel stage only.
    kernel_speedup: f64,
    /// Frames buffered before the compute stage; beyond this they drop.
    queue_capacity: usize,
}

impl Pipeline {
    /// Creates a pipeline with representative marshalling and actuation
    /// defaults (1 GB/s copy path, 0.5 ms driver overhead, 2 ms actuation).
    #[must_use]
    pub fn new(sensor: SensorSpec, platform: Platform, kernel: KernelProfile) -> Self {
        Self {
            sensor,
            platform,
            kernel,
            marshalling_bandwidth: BytesPerSecond::from_gigabytes_per_second(1.0),
            marshalling_overhead: Seconds::from_millis(0.5),
            actuation_latency: Seconds::from_millis(2.0),
            kernel_speedup: 1.0,
            queue_capacity: 4,
        }
    }

    /// Overrides the marshalling path (bandwidth + fixed overhead).
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is non-positive or overhead negative.
    #[must_use]
    pub fn with_marshalling(mut self, bandwidth: BytesPerSecond, overhead: Seconds) -> Self {
        assert!(bandwidth.value() > 0.0, "bandwidth must be positive");
        assert!(overhead.value() >= 0.0, "overhead must be non-negative");
        self.marshalling_bandwidth = bandwidth;
        self.marshalling_overhead = overhead;
        self
    }

    /// Overrides the actuation latency.
    #[must_use]
    pub fn with_actuation(mut self, latency: Seconds) -> Self {
        self.actuation_latency = latency;
        self
    }

    /// Returns a pipeline whose kernel stage runs `factor`× faster (an
    /// idealized accelerator swap) — everything else unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive.
    #[must_use]
    pub fn with_kernel_speedup(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "speedup must be positive");
        self.kernel_speedup = factor;
        self
    }

    /// Overrides the compute-stage queue capacity.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// The sensor feeding this pipeline.
    #[must_use]
    pub fn sensor(&self) -> &SensorSpec {
        &self.sensor
    }

    /// Per-frame latency budget through the three stages.
    #[must_use]
    pub fn latency_budget(&self) -> LatencyBudget {
        let payload: Bytes = self.sensor.payload();
        let ingest = self.marshalling_overhead
            + Seconds::new(payload.value() / self.marshalling_bandwidth.value());
        let compute = self.platform.estimate(&self.kernel).latency / self.kernel_speedup;
        let budget = LatencyBudget { ingest, compute, actuate: self.actuation_latency };
        if m7_trace::enabled() {
            INGEST_NS.record(seconds_to_ns(budget.ingest));
            COMPUTE_NS.record(seconds_to_ns(budget.compute));
            ACTUATE_NS.record(seconds_to_ns(budget.actuate));
        }
        budget
    }

    /// End-to-end speedup delivered by a kernel-only speedup of `factor`,
    /// relative to this pipeline — the Amdahl curve of experiment E7.
    #[must_use]
    pub fn end_to_end_speedup(&self, factor: f64) -> f64 {
        let base = self.latency_budget().total();
        let sped = self.clone().with_kernel_speedup(self.kernel_speedup * factor);
        base / sped.latency_budget().total()
    }

    /// Simulates `duration` of operation with frames arriving at the sensor
    /// rate and a single-server compute stage.
    ///
    /// Frames that arrive while the queue is full are dropped — the
    /// backpressure behaviour of a real perception stack.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration (zero queue capacity,
    /// non-finite or negative duration); use
    /// [`Pipeline::try_simulate_with_faults`] for a typed error instead.
    #[must_use]
    pub fn simulate(&self, duration: Seconds) -> PipelineStats {
        self.simulate_with_faults(duration, &FaultSchedule::none(), 0)
    }

    /// Simulates `duration` of operation under a fault schedule,
    /// deterministic in `seed`.
    ///
    /// In addition to queue backpressure, frames arriving inside a
    /// [`crate::faults::Fault::MessageDrop`] window are lost in
    /// transport with the scheduled probability before they ever reach
    /// the compute queue — the inter-stage link failures of a real
    /// distributed autonomy stack. With an empty schedule this is
    /// byte-identical to [`Pipeline::simulate`].
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration (zero queue capacity,
    /// non-finite or negative duration); use
    /// [`Pipeline::try_simulate_with_faults`] for a typed error
    /// instead.
    #[must_use]
    pub fn simulate_with_faults(
        &self,
        duration: Seconds,
        faults: &FaultSchedule,
        seed: u64,
    ) -> PipelineStats {
        match self.try_simulate_with_faults(duration, faults, seed) {
            Ok(stats) => stats,
            Err(e) => panic!("invalid pipeline config: {e}"),
        }
    }

    /// Fallible form of [`Pipeline::simulate_with_faults`].
    ///
    /// The simulation runs as a three-node `m7-flow` dataflow graph —
    /// sensor source, compute server behind a bounded drop-newest
    /// queue, actuation sink behind a delay wire — and is bit-identical
    /// to the pre-dataflow event-loop simulator for every valid
    /// configuration.
    ///
    /// # Errors
    ///
    /// [`PipelineConfigError`] on a zero-capacity queue or a
    /// non-finite/negative duration.
    pub fn try_simulate_with_faults(
        &self,
        duration: Seconds,
        faults: &FaultSchedule,
        seed: u64,
    ) -> Result<PipelineStats, PipelineConfigError> {
        if self.queue_capacity == 0 {
            return Err(PipelineConfigError::ZeroQueueCapacity);
        }
        if !(duration.value() >= 0.0 && duration.is_finite()) {
            return Err(PipelineConfigError::InvalidDuration { seconds: duration.value() });
        }

        let _span = SIM_SPAN.enter();
        let budget = self.latency_budget();
        let service = budget.ingest + budget.compute;

        let mut g = GraphBuilder::new("pipeline");
        let sensor = g
            .source::<SensorFrame>(
                "sensor",
                SourceSpec::new(self.sensor.rate(), self.sensor.payload()),
            )
            .expect("sensor specs are validated at construction");
        let compute = g
            .server::<SensorFrame, ActuationCmd>(
                "compute",
                ServerSpec::new(Service::fixed(service)),
            )
            .expect("service time is finite");
        let actuate = g
            .sink::<ActuationCmd>("actuate", SinkSpec::new())
            .expect("sink declaration is infallible");
        let schedule = faults.clone();
        g.connect(
            sensor,
            compute,
            EdgeSpec::queue(self.queue_capacity).loss(
                LossModel::from_fn(move |t| schedule.message_drop_rate(t))
                    // The historical transport-loss RNG stream, bit for
                    // bit: one ChaCha8 draw per arrival inside a fault
                    // window.
                    .with_seed(LossSeed::Fixed(seed ^ 0x1155_D20B_5EED_0003)),
            ),
        )
        .expect("capacity checked above");
        g.connect(compute, actuate, EdgeSpec::wire().latency(self.actuation_latency))
            .expect("wire into sink is valid");
        let graph = g.seal(ParConfig::serial()).expect("three-node chain is well-formed");
        let report = graph.run(duration).expect("duration checked above");

        let frames_in = report.node("sensor").expect("declared above").fired;
        let compute_node = report.node("compute").expect("declared above");
        let frames_processed = compute_node.processed;
        let link = report.edge("sensor", "compute").expect("declared above");
        let frames_dropped = link.dropped;
        let frames_lost = link.lost;
        let mut latencies = report.node("actuate").expect("declared above").latencies.clone();

        latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let mean = if latencies.is_empty() {
            0.0
        } else {
            latencies.iter().sum::<f64>() / latencies.len() as f64
        };
        let p99 = if latencies.is_empty() {
            0.0
        } else {
            latencies[((latencies.len() as f64 * 0.99) as usize).min(latencies.len() - 1)]
        };
        if m7_trace::enabled() {
            FRAMES_IN.add(frames_in);
            FRAMES_PROCESSED.add(frames_processed);
            FRAMES_DROPPED.add(frames_dropped);
            FRAMES_LOST.add(frames_lost);
            // One representative frame's stage timeline on the modeled
            // clock: ingest, then compute, then actuation settling.
            let (ingest, compute, actuate) = (
                seconds_to_ns(budget.ingest),
                seconds_to_ns(budget.compute),
                seconds_to_ns(budget.actuate),
            );
            INGEST_SPAN.complete_modeled(0, ingest);
            COMPUTE_SPAN.complete_modeled(ingest, compute);
            ACTUATE_SPAN.complete_modeled(ingest.saturating_add(compute), actuate);
        }
        Ok(PipelineStats {
            frames_in,
            frames_processed,
            frames_dropped,
            frames_lost,
            mean_latency: Seconds::new(mean),
            p99_latency: Seconds::new(p99),
            throughput: Hertz::new(frames_processed as f64 / duration.value().max(1e-12)),
        })
    }
}

/// The sensor's frame payload flowing into the compute stage.
struct SensorFrame;
impl MessageType for SensorFrame {
    const NAME: &'static str = "sensor_frame";
}

/// The compute stage's command flowing to the actuator.
struct ActuationCmd;
impl MessageType for ActuationCmd {
    const NAME: &'static str = "actuation_cmd";
}

#[cfg(test)]
mod tests {
    use super::*;
    use m7_arch::platform::PlatformKind;

    impl Pipeline {
        /// Fallible form of [`Pipeline::simulate`].
        fn try_simulate(&self, duration: Seconds) -> Result<PipelineStats, PipelineConfigError> {
            self.try_simulate_with_faults(duration, &FaultSchedule::none(), 0)
        }
    }

    fn vga_pipeline(kind: PlatformKind) -> Pipeline {
        Pipeline::new(
            SensorSpec::camera_vga(30.0),
            Platform::preset(kind),
            KernelProfile::feature_extract(640, 480),
        )
    }

    /// A full-HD pipeline heavy enough to overwhelm the scalar CPU.
    fn hd_pipeline(kind: PlatformKind) -> Pipeline {
        use crate::sensor::SensorKind;
        Pipeline::new(
            SensorSpec::new(SensorKind::Camera, Hertz::new(30.0), Bytes::new(1920.0 * 1080.0), 2.0),
            Platform::preset(kind),
            KernelProfile::feature_extract(1920, 1080),
        )
    }

    #[test]
    fn budget_components_positive() {
        let b = vga_pipeline(PlatformKind::CpuSimd).latency_budget();
        assert!(b.ingest.value() > 0.0);
        assert!(b.compute.value() > 0.0);
        assert!(b.actuate.value() > 0.0);
        assert!(b.compute_fraction() > 0.0 && b.compute_fraction() < 1.0);
    }

    #[test]
    fn amdahl_ceiling() {
        let p = vga_pipeline(PlatformKind::CpuScalar);
        let b = p.latency_budget();
        let limit = 1.0 / (1.0 - b.compute_fraction());
        let huge = p.end_to_end_speedup(1e9);
        assert!(huge < limit * 1.001, "end-to-end speedup {huge} must respect Amdahl {limit}");
        // Diminishing returns: 10→100 gains less than 1→10.
        let g10 = p.end_to_end_speedup(10.0);
        let g100 = p.end_to_end_speedup(100.0);
        assert!(g100 / g10 < g10 / 1.0);
    }

    #[test]
    fn fast_platform_keeps_up_with_camera() {
        let stats = hd_pipeline(PlatformKind::Gpu).simulate(Seconds::new(10.0));
        assert_eq!(stats.frames_dropped, 0, "GPU should keep up with 30 fps full-HD");
        assert!(stats.throughput.value() > 25.0);
        assert!(stats.mean_latency.value() > 0.0);
        assert!(stats.p99_latency >= stats.mean_latency);
    }

    #[test]
    fn slow_platform_drops_frames() {
        let stats = hd_pipeline(PlatformKind::CpuScalar).simulate(Seconds::new(10.0));
        assert!(stats.drop_rate() > 0.1, "scalar CPU cannot keep up: {:?}", stats);
        assert!(stats.throughput.value() < 30.0);
    }

    #[test]
    fn kernel_speedup_reduces_drops() {
        let base = hd_pipeline(PlatformKind::CpuScalar);
        let sped = base.clone().with_kernel_speedup(50.0);
        let a = base.simulate(Seconds::new(10.0));
        let b = sped.simulate(Seconds::new(10.0));
        assert!(b.drop_rate() < a.drop_rate());
        assert!(b.mean_latency < a.mean_latency);
    }

    #[test]
    fn marshalling_tax_bounds_speedup() {
        // Make the ingest tax dominate: slow copy path.
        let p = vga_pipeline(PlatformKind::CpuSimd).with_marshalling(
            BytesPerSecond::from_gigabytes_per_second(0.05),
            Seconds::from_millis(2.0),
        );
        let gain = p.end_to_end_speedup(1000.0);
        assert!(gain < 2.0, "ingest-dominated pipeline barely improves: {gain}");
    }

    #[test]
    fn stats_drop_rate_handles_zero_frames() {
        let stats = PipelineStats {
            frames_in: 0,
            frames_processed: 0,
            frames_dropped: 0,
            frames_lost: 0,
            mean_latency: Seconds::ZERO,
            p99_latency: Seconds::ZERO,
            throughput: Hertz::new(0.0),
        };
        assert_eq!(stats.drop_rate(), 0.0);
    }

    #[test]
    fn message_drops_lose_frames_in_transport() {
        use crate::faults::{Fault, FaultSchedule};
        let p = hd_pipeline(PlatformKind::Gpu);
        let schedule = FaultSchedule::new(vec![Fault::MessageDrop {
            start: Seconds::ZERO,
            duration: Seconds::new(1e6),
            drop_rate: 0.5,
        }]);
        let stats = p.simulate_with_faults(Seconds::new(10.0), &schedule, 1);
        let rate = stats.frames_lost as f64 / stats.frames_in as f64;
        assert!(
            (0.35..0.65).contains(&rate),
            "half the frames should die in transport, got {rate}"
        );
        assert!(stats.frames_processed < stats.frames_in);
        // Deterministic in the seed.
        assert_eq!(stats, p.simulate_with_faults(Seconds::new(10.0), &schedule, 1));
        assert_ne!(
            stats.frames_lost,
            p.simulate_with_faults(Seconds::new(10.0), &schedule, 2).frames_lost
        );
    }

    #[test]
    fn zero_capacity_is_a_typed_error() {
        let p = vga_pipeline(PlatformKind::Gpu).with_queue_capacity(0);
        assert_eq!(p.try_simulate(Seconds::new(1.0)), Err(PipelineConfigError::ZeroQueueCapacity));
    }

    #[test]
    #[should_panic(expected = "invalid pipeline config")]
    fn zero_capacity_panics_in_the_legacy_api() {
        let _ = vga_pipeline(PlatformKind::Gpu).with_queue_capacity(0).simulate(Seconds::new(1.0));
    }

    #[test]
    fn degenerate_durations_are_typed_errors() {
        let p = vga_pipeline(PlatformKind::Gpu);
        // The pre-dataflow simulator looped forever on NaN.
        assert!(matches!(
            p.try_simulate(Seconds::new(f64::NAN)),
            Err(PipelineConfigError::InvalidDuration { .. })
        ));
        assert!(matches!(
            p.try_simulate(Seconds::new(-1.0)),
            Err(PipelineConfigError::InvalidDuration { .. })
        ));
        assert!(matches!(
            p.try_simulate(Seconds::new(f64::INFINITY)),
            Err(PipelineConfigError::InvalidDuration { .. })
        ));
        // Zero duration is valid: the t=0 arrival is still processed.
        let stats = p.try_simulate(Seconds::ZERO).expect("zero duration is fine");
        assert_eq!(stats.frames_in, 1);
    }

    #[test]
    fn try_simulate_matches_simulate() {
        let p = hd_pipeline(PlatformKind::CpuScalar);
        assert_eq!(p.try_simulate(Seconds::new(5.0)).unwrap(), p.simulate(Seconds::new(5.0)));
    }

    #[test]
    fn empty_schedule_matches_plain_simulate() {
        let p = hd_pipeline(PlatformKind::CpuScalar);
        let plain = p.simulate(Seconds::new(5.0));
        let faulted = p.simulate_with_faults(Seconds::new(5.0), &FaultSchedule::none(), 99);
        assert_eq!(plain, faulted);
        assert_eq!(plain.frames_lost, 0);
    }
}
