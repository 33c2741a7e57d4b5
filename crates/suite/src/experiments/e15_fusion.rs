//! E15 — multi-rate sensor fusion on the dataflow runtime (§2.5 + §2.6).
//!
//! A 30 Hz HD camera and a 100 Hz IMU feed a fusion node: the camera
//! triggers it through a bounded drop-newest queue, the IMU publishes
//! its freshest state over a sampled edge. Fused tracks flow through a
//! backpressured capacity-1 queue into a planner and on to the control
//! sink, which carries the end-to-end deadline. The *same graph* is
//! then run under three placements:
//!
//! 1. **unified SoC** — fusion and planner share one CPU-SIMD die and
//!    one memory bus, so the camera stream's bandwidth demand stretches
//!    both services (§2.6's contention tax);
//! 2. **heterogeneous** — fusion on the GPU, the planner on a small
//!    collision ASIC described in the `m7-arch` spec DSL (§2.5);
//! 3. **heterogeneous @ DVFS** — the same silicon down-clocked to half
//!    frequency, trading deadline slack for energy.
//!
//! The run is a deterministic virtual-time simulation: the report is a
//! pure function of the seed, bit-identical at any thread count.

use crate::report::{fmt_f64, Report, Table};
use m7_arch::dvfs::OperatingPoint;
use m7_arch::platform::PlatformKind;
use m7_arch::workload::KernelProfile;
use m7_flow::{
    EdgeSpec, FlowError, Graph, GraphBuilder, GraphReport, LossModel, MessageType, Placement,
    QueuePolicy, ServerSpec, Service, SinkSpec, SourceSpec,
};
use m7_par::ParConfig;
use m7_units::{Bytes, BytesPerSecond, Hertz, Seconds};
use serde::{Deserialize, Serialize};

/// Simulated horizon in seconds.
pub(crate) const DURATION_S: f64 = 2.0;
/// Camera rate.
pub const CAMERA_HZ: f64 = 30.0;
/// IMU rate.
pub const IMU_HZ: f64 = 100.0;
/// HD camera payload (16-bit pixels).
pub const CAMERA_BYTES: f64 = 1920.0 * 1080.0 * 2.0;
/// Wireless-ish camera link loss probability per frame.
pub const CAMERA_LOSS: f64 = 0.02;

/// The planner ASIC, in the spec DSL a domain expert would write.
pub const PLANNER_ASIC_SPEC: &str = "\
# capacity-1 backpressured motion planner
kind           = asic
name           = planner-asic
peak_tops      = 2.0
bandwidth_gbps = 64
active_w       = 8
idle_w         = 0.6
specialize     = families collision-geometry
fallback       = 0.05
";

struct CameraFrame;
impl MessageType for CameraFrame {
    const NAME: &'static str = "camera_frame";
}
struct ImuState;
impl MessageType for ImuState {
    const NAME: &'static str = "imu_state";
}
struct FusedTrack;
impl MessageType for FusedTrack {
    const NAME: &'static str = "fused_track";
}
struct TrajectoryPlan;
impl MessageType for TrajectoryPlan {
    const NAME: &'static str = "trajectory_plan";
}

/// One placement of the fusion graph.
struct Deployment {
    label: &'static str,
    /// Shared bus backing a unified SoC, if any.
    site: Option<(&'static str, BytesPerSecond)>,
    fusion: Placement,
    planner: Placement,
}

fn deployments() -> Vec<Deployment> {
    let half = OperatingPoint { frequency_scale: 0.5, voltage_scale: 0.8 };
    let asic = || Placement::from_spec(PLANNER_ASIC_SPEC).expect("planner spec parses");
    vec![
        Deployment {
            label: "unified SoC (CPU-SIMD, shared bus)",
            site: Some(("soc", BytesPerSecond::from_gigabytes_per_second(0.06))),
            fusion: Placement::preset(PlatformKind::CpuSimd).at_site("soc"),
            planner: Placement::preset(PlatformKind::CpuSimd).at_site("soc"),
        },
        Deployment {
            label: "hetero (GPU + planner ASIC)",
            site: None,
            fusion: Placement::preset(PlatformKind::Gpu),
            planner: asic(),
        },
        Deployment {
            label: "hetero @ DVFS 0.5f/0.8V",
            site: None,
            fusion: Placement::preset(PlatformKind::Gpu).with_point(half),
            planner: asic().with_point(half),
        },
    ]
}

/// Builds the canonical E15 graph under one deployment.
fn build(dep: &Deployment) -> Result<Graph, FlowError> {
    let mut g = GraphBuilder::new("e15");
    if let Some((name, capacity)) = &dep.site {
        g.shared_site(*name, *capacity);
    }
    let camera = g.source::<CameraFrame>(
        "camera",
        SourceSpec::new(Hertz::new(CAMERA_HZ), Bytes::new(CAMERA_BYTES)),
    )?;
    let imu = g.source::<ImuState>("imu", SourceSpec::new(Hertz::new(IMU_HZ), Bytes::new(24.0)))?;
    let fusion = g.fusion_server::<CameraFrame, ImuState, FusedTrack>(
        "fusion",
        ServerSpec::new(Service::kernel(KernelProfile::feature_extract(1920, 1080)))
            .output_bytes(Bytes::new(4096.0))
            .deadline(Seconds::from_millis(40.0)),
    )?;
    let planner = g.server::<FusedTrack, TrajectoryPlan>(
        "planner",
        ServerSpec::new(Service::kernel(KernelProfile::collision_batch(60_000, 2000)))
            .output_bytes(Bytes::new(512.0))
            .deadline(Seconds::from_millis(60.0)),
    )?;
    let control =
        g.sink::<TrajectoryPlan>("control", SinkSpec::new().deadline(Seconds::from_millis(100.0)))?;
    g.place(fusion, dep.fusion.clone())?;
    g.place(planner, dep.planner.clone())?;
    g.connect(camera, fusion, EdgeSpec::queue(2).loss(LossModel::constant(CAMERA_LOSS)))?;
    g.connect(imu, fusion, EdgeSpec::sampled())?;
    g.connect(fusion, planner, EdgeSpec::queue(1).policy(QueuePolicy::Block))?;
    g.connect(planner, control, EdgeSpec::wire().latency(Seconds::from_millis(2.0)))?;
    g.seal(ParConfig::serial())
}

/// What one deployment did with the multi-rate traffic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeploymentOutcome {
    /// Deployment label.
    pub label: String,
    /// Effective fusion platform (after DVFS).
    pub fusion_platform: String,
    /// Effective planner platform (after DVFS).
    pub planner_platform: String,
    /// Post-contention fusion service time, ms.
    pub fusion_service_ms: f64,
    /// Post-contention planner service time, ms.
    pub planner_service_ms: f64,
    /// Contention stretch on the fusion service (1.0 = no contention).
    pub fusion_slowdown: f64,
    /// Camera frames emitted.
    pub frames_fired: u64,
    /// IMU samples emitted.
    pub imu_fired: u64,
    /// Frames dropped by the bounded camera queue.
    pub frames_dropped: u64,
    /// Frames lost on the camera link.
    pub frames_lost: u64,
    /// IMU samples overwritten before fusion read them.
    pub imu_superseded: u64,
    /// Times fusion parked on the planner's full queue.
    pub fusion_blocked: u64,
    /// Trajectory plans delivered to control.
    pub commands: u64,
    /// Deadline misses across fusion, planner, and control.
    pub deadline_misses: u64,
    /// Mean end-to-end latency at the control sink, ms.
    pub mean_latency_ms: f64,
    /// p99 end-to-end latency at the control sink, ms.
    pub p99_latency_ms: f64,
    /// Modeled compute energy (fusion + planner), joules.
    pub compute_energy_j: f64,
}

fn summarize(label: &str, r: &GraphReport) -> DeploymentOutcome {
    let fusion = r.node("fusion").expect("fusion node");
    let planner = r.node("planner").expect("planner node");
    let control = r.node("control").expect("control node");
    let cam_edge = r.edge("camera", "fusion").expect("camera edge");
    let imu_edge = r.edge("imu", "fusion").expect("imu edge");
    let plan_edge = r.edge("fusion", "planner").expect("planner edge");
    let to_ms = |s: Seconds| s.value() * 1e3;
    DeploymentOutcome {
        label: label.to_string(),
        fusion_platform: fusion.platform.clone().unwrap_or_default(),
        planner_platform: planner.platform.clone().unwrap_or_default(),
        fusion_service_ms: fusion.service.map_or(0.0, to_ms),
        planner_service_ms: planner.service.map_or(0.0, to_ms),
        fusion_slowdown: fusion.slowdown,
        frames_fired: r.node("camera").expect("camera node").fired,
        imu_fired: r.node("imu").expect("imu node").fired,
        frames_dropped: cam_edge.dropped,
        frames_lost: cam_edge.lost,
        imu_superseded: imu_edge.superseded,
        fusion_blocked: plan_edge.blocked,
        commands: control.received,
        deadline_misses: fusion.deadline_misses + planner.deadline_misses + control.deadline_misses,
        mean_latency_ms: to_ms(control.mean_latency),
        p99_latency_ms: to_ms(control.p99_latency),
        compute_energy_j: fusion.energy_j + planner.energy_j,
    }
}

/// The E15 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FusionResult {
    /// Simulated horizon, seconds.
    pub duration_s: f64,
    /// One outcome per deployment: unified SoC, heterogeneous, then
    /// heterogeneous under DVFS.
    pub outcomes: Vec<DeploymentOutcome>,
}

impl FusionResult {
    /// Renders the report.
    #[must_use]
    pub fn report(&self) -> Report {
        let mut report =
            Report::new("E15 — multi-rate fusion graph: placement, DVFS, backpressure (§2.5+§2.6)");
        let mut placement = Table::new(
            "placement and post-contention service",
            vec![
                "deployment",
                "fusion on",
                "planner on",
                "fusion svc [ms]",
                "planner svc [ms]",
                "bus slowdown",
                "energy [J]",
            ],
        );
        let mut traffic = Table::new(
            "multi-rate traffic, backpressure, deadlines",
            vec![
                "deployment",
                "dropped",
                "lost",
                "imu superseded",
                "blocked",
                "plans out",
                "deadline misses",
                "mean e2e [ms]",
                "p99 e2e [ms]",
            ],
        );
        for o in &self.outcomes {
            placement.push_row(vec![
                o.label.clone(),
                o.fusion_platform.clone(),
                o.planner_platform.clone(),
                fmt_f64(o.fusion_service_ms),
                fmt_f64(o.planner_service_ms),
                fmt_f64(o.fusion_slowdown),
                fmt_f64(o.compute_energy_j),
            ]);
            traffic.push_row(vec![
                o.label.clone(),
                o.frames_dropped.to_string(),
                o.frames_lost.to_string(),
                o.imu_superseded.to_string(),
                o.fusion_blocked.to_string(),
                o.commands.to_string(),
                o.deadline_misses.to_string(),
                fmt_f64(o.mean_latency_ms),
                fmt_f64(o.p99_latency_ms),
            ]);
        }
        report.push_table(placement);
        report.push_table(traffic);
        let [soc, hetero, dvfs] = &self.outcomes[..] else {
            return report;
        };
        report.push_note(format!(
            "same graph, three placements: the unified SoC stretches fusion {}x under bus \
             contention and drops {} of {} frames; the GPU+ASIC split keeps every deadline",
            fmt_f64(soc.fusion_slowdown),
            soc.frames_dropped,
            soc.frames_fired,
        ));
        report.push_note(format!(
            "the 100 Hz IMU is sampled, not queued: {} of {} samples are superseded unread — \
             backpressure-free fusion of fast sensors",
            dvfs.imu_superseded, dvfs.imu_fired,
        ));
        report.push_note(format!(
            "halving the clock cuts compute energy {} -> {} J but costs {} deadline misses \
             (p99 {} -> {} ms)",
            fmt_f64(hetero.compute_energy_j),
            fmt_f64(dvfs.compute_energy_j),
            dvfs.deadline_misses,
            fmt_f64(hetero.p99_latency_ms),
            fmt_f64(dvfs.p99_latency_ms),
        ));
        report
    }
}

/// Runs E15: the three deployments of the canonical fusion graph.
///
/// `seed` drives the camera-link loss draws.
#[must_use]
pub fn run(seed: u64) -> FusionResult {
    let duration = Seconds::new(DURATION_S);
    let outcomes = deployments()
        .into_iter()
        .map(|dep| {
            let graph = build(&dep).expect("e15 graph is statically valid");
            let report = graph.run_seeded(duration, seed).expect("duration is valid");
            summarize(dep.label, &report)
        })
        .collect();
    FusionResult { duration_s: DURATION_S, outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_deployments_of_one_graph() {
        let r = run(7);
        assert_eq!(r.outcomes.len(), 3);
        for o in &r.outcomes {
            assert_eq!(o.frames_fired, 60, "{}: 2 s of 30 Hz", o.label);
            assert!(o.imu_fired >= 200, "{}: 2 s of 100 Hz", o.label);
            assert!(o.commands > 0, "{}: control must receive plans", o.label);
        }
    }

    #[test]
    fn unified_soc_pays_contention_and_drops_frames() {
        let r = run(7);
        let soc = &r.outcomes[0];
        let hetero = &r.outcomes[1];
        assert!(soc.fusion_slowdown > 1.0, "shared bus must stretch fusion");
        assert!(soc.frames_dropped > 0, "overloaded fusion must shed frames");
        assert!(hetero.fusion_slowdown == 1.0 && hetero.frames_dropped == 0);
        assert!(hetero.p99_latency_ms < soc.p99_latency_ms);
    }

    #[test]
    fn dvfs_trades_energy_for_deadline_slack() {
        let r = run(7);
        let hetero = &r.outcomes[1];
        let dvfs = &r.outcomes[2];
        assert!(dvfs.compute_energy_j < hetero.compute_energy_j);
        assert!(dvfs.p99_latency_ms > hetero.p99_latency_ms);
        assert!(dvfs.deadline_misses >= hetero.deadline_misses);
    }

    #[test]
    fn sampled_imu_never_backpressures() {
        let r = run(7);
        for o in &r.outcomes {
            assert!(o.imu_superseded > 0, "{}: fast sensor must supersede", o.label);
            assert!(
                o.imu_superseded + o.commands <= o.imu_fired + o.frames_fired,
                "{}: sanity",
                o.label
            );
        }
    }

    #[test]
    fn report_renders_all_deployments() {
        let text = run(7).report().to_string();
        assert!(text.contains("unified SoC"));
        assert!(text.contains("planner-asic"));
        assert!(text.contains("DVFS"));
    }
}
