//! `dataflow`: the m7-flow engine on a fixed graph set, pool at 2 threads.
//!
//! - `wide`: 16 identical 30 Hz camera → planner → control chains. Their
//!   16 same-timestamp firings reach the engine's parallel batch size, so
//!   every tick dispatches through `m7_par`.
//! - `fusion`: the E15 fusion graph under its three placements; its
//!   batches are small and run serially.
//! - the E7 lean and taxed `m7_sim::Pipeline`s.
//!
//! A slice runs the whole set once. `ops_per_s` is the median slice
//! rate in events per second, counting Σ fired + processed + received
//! over every graph report plus frames in + frames processed of each
//! pipeline. `setup_s` is the
//! median time to seal the graph set. Every report must equal the one
//! the same graph gives sealed at one thread.

use std::time::Instant;

use magseven::arch::dvfs::OperatingPoint;
use magseven::arch::platform::PlatformKind;
use magseven::arch::workload::KernelProfile;
use magseven::flow::{
    EdgeSpec, FlowError, Graph, GraphBuilder, GraphReport, LossModel, MessageType, Placement,
    QueuePolicy, ServerSpec, Service, SinkSpec, SourceSpec,
};
use magseven::par::ParConfig;
use magseven::serve::KeyHasher;
use magseven::sim::pipeline::Pipeline;
use magseven::suite::experiments::e15_fusion::{
    CAMERA_BYTES, CAMERA_HZ, CAMERA_LOSS, IMU_HZ, PLANNER_ASIC_SPEC,
};
use magseven::suite::experiments::e7_endtoend::{lean_pipeline, taxed_pipeline};
use magseven::units::{Bytes, BytesPerSecond, Hertz, Seconds};

use crate::spans::{self, span};
use crate::stats::{median, Summary};
use crate::{Config, Outcome};

/// Parallel chains in the wide graph.
const WIDE_CHAINS: usize = 16;
/// Simulated seconds per graph run.
const WIDE_S: f64 = 60.0;
const FUSION_S: f64 = 120.0;
const PIPELINE_S: f64 = 600.0;
/// Seal rounds timed for `setup_s`.
const SEAL_ROUNDS: usize = 25;

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

fn wide(par: ParConfig) -> Result<Graph, FlowError> {
    let mut g = GraphBuilder::new("wide");
    for i in 0..WIDE_CHAINS {
        let camera = g.source::<CameraFrame>(
            format!("camera{i}"),
            SourceSpec::new(Hertz::new(CAMERA_HZ), Bytes::new(CAMERA_BYTES)),
        )?;
        let planner = g.server::<CameraFrame, TrajectoryPlan>(
            format!("planner{i}"),
            ServerSpec::new(Service::fixed(Seconds::from_millis(12.0)))
                .output_bytes(Bytes::new(512.0))
                .deadline(Seconds::from_millis(40.0)),
        )?;
        let control = g.sink::<TrajectoryPlan>(
            format!("control{i}"),
            SinkSpec::new().deadline(Seconds::from_millis(60.0)),
        )?;
        g.connect(camera, planner, EdgeSpec::queue(2).loss(LossModel::constant(CAMERA_LOSS)))?;
        g.connect(planner, control, EdgeSpec::wire().latency(Seconds::from_millis(2.0)))?;
    }
    g.seal(par)
}

/// The E15 fusion graph under one placement (0 = unified SoC on a shared
/// bus, 1 = GPU + planner ASIC, 2 = the same at half frequency).
fn fusion(placement: usize, par: ParConfig) -> Result<Graph, FlowError> {
    let half = OperatingPoint { frequency_scale: 0.5, voltage_scale: 0.8 };
    let asic = Placement::from_spec(PLANNER_ASIC_SPEC)?;
    let mut g = GraphBuilder::new("fusion");
    let (fusion_at, planner_at) = match placement {
        0 => {
            g.shared_site("soc", BytesPerSecond::from_gigabytes_per_second(0.06));
            let soc = Placement::preset(PlatformKind::CpuSimd).at_site("soc");
            (soc.clone(), soc)
        }
        1 => (Placement::preset(PlatformKind::Gpu), asic),
        _ => (Placement::preset(PlatformKind::Gpu).with_point(half), asic.with_point(half)),
    };
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
    g.place(fusion, fusion_at)?;
    g.place(planner, planner_at)?;
    g.connect(camera, fusion, EdgeSpec::queue(2).loss(LossModel::constant(CAMERA_LOSS)))?;
    g.connect(imu, fusion, EdgeSpec::sampled())?;
    g.connect(fusion, planner, EdgeSpec::queue(1).policy(QueuePolicy::Block))?;
    g.connect(planner, control, EdgeSpec::wire().latency(Seconds::from_millis(2.0)))?;
    g.seal(par)
}

struct GraphSet {
    wide: Graph,
    fusion: Vec<Graph>,
}

impl GraphSet {
    fn seal(par: ParConfig) -> Result<Self, FlowError> {
        Ok(Self {
            wide: wide(par)?,
            fusion: (0..3).map(|p| fusion(p, par)).collect::<Result<_, _>>()?,
        })
    }
}

fn events(r: &GraphReport) -> u64 {
    r.nodes.iter().map(|n| n.fired + n.processed + n.received).sum()
}

fn fingerprint(text: &str) -> u64 {
    let mut h = KeyHasher::new();
    h.write_str(text);
    h.finish().0
}

/// One pass over the graph set: per-part wall seconds and events, plus a
/// fingerprint of every report in order.
#[derive(Default)]
struct Pass {
    wide: (f64, u64),
    fusion: (f64, u64),
    pipeline: (f64, u64),
    prints: Vec<u64>,
}

impl Pass {
    fn events(&self) -> u64 {
        self.wide.1 + self.fusion.1 + self.pipeline.1
    }

    fn wall(&self) -> f64 {
        self.wide.0 + self.fusion.0 + self.pipeline.0
    }
}

fn run_set(set: &GraphSet, pipelines: &[Pipeline], seed: u64) -> Result<Pass, FlowError> {
    let mut pass = Pass::default();
    let t = Instant::now();
    let r = {
        let _s = span("flow.wide.run", seed);
        set.wide.run_seeded(Seconds::new(WIDE_S), seed)?
    };
    pass.wide = (t.elapsed().as_secs_f64(), events(&r));
    pass.prints.push(fingerprint(&format!("{r:?}")));
    for g in &set.fusion {
        let t = Instant::now();
        let r = {
            let _s = span("flow.fusion.run", seed);
            g.run_seeded(Seconds::new(FUSION_S), seed)?
        };
        pass.fusion.0 += t.elapsed().as_secs_f64();
        pass.fusion.1 += events(&r);
        pass.prints.push(fingerprint(&format!("{r:?}")));
    }
    for p in pipelines {
        let t = Instant::now();
        let stats = {
            let _s = span("sim.pipeline.run", seed);
            p.simulate(Seconds::new(PIPELINE_S))
        };
        pass.pipeline.0 += t.elapsed().as_secs_f64();
        pass.pipeline.1 += stats.frames_in + stats.frames_processed;
        pass.prints.push(fingerprint(&format!("{stats:?}")));
    }
    Ok(pass)
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    match measure(cfg, &mut out) {
        Ok(()) => out,
        Err(err) => {
            out.failed += 1;
            out.mismatch(format!("dataflow graph error: {err}"));
            out
        }
    }
}

fn measure(cfg: &Config, out: &mut Outcome) -> Result<(), FlowError> {
    let par = ParConfig::with_threads(2);
    let seed = cfg.seed;
    spans::enable(cfg.trace);
    let mut seal_s = Vec::new();
    let mut set = None;
    for _ in 0..SEAL_ROUNDS {
        let t = Instant::now();
        let sealed = {
            let _s = span("flow.seal", seed);
            GraphSet::seal(par)?
        };
        seal_s.push(t.elapsed().as_secs_f64());
        set = Some(sealed);
    }
    spans::enable(false);
    let set = set.expect("at least one seal round");
    let pipelines = [lean_pipeline(), taxed_pipeline()];
    // Serial twins give the reference reports; their run is not timed.
    let reference = run_set(&GraphSet::seal(ParConfig::serial())?, &pipelines, seed)?.prints;

    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    // The traced seal rounds count towards the traced wall time.
    let mut traced_wall_ns = if cfg.trace { (seal_s.iter().sum::<f64>() * 1e9) as u64 } else { 0 };
    let start = Instant::now();
    let end = cfg.deadline(start);
    let mut i = 0usize;
    while Instant::now() < end || untraced.len() < 3 || (cfg.trace && traced.len() < 3) {
        let trace_this = cfg.trace && i % 2 == 1;
        i += 1;
        spans::enable(trace_this);
        let t0 = spans::now_ns();
        let pass = run_set(&set, &pipelines, seed)?;
        if trace_this {
            traced_wall_ns += spans::now_ns() - t0;
        }
        spans::enable(false);
        out.attempted += pass.prints.len() as u64;
        let differing = pass.prints.iter().zip(&reference).filter(|(a, b)| a != b).count();
        if differing > 0 {
            out.failed += differing as u64;
            out.mismatch(format!(
                "{differing} of {} reports differ between 2 threads and 1 thread",
                reference.len()
            ));
        }
        if trace_this {
            traced.push(pass)
        } else {
            untraced.push(pass)
        }
    }

    let rates: Vec<f64> = untraced.iter().map(|p| p.events() as f64 / p.wall()).collect();
    let r = Summary::of(&rates);
    out.note(format!(
        "dataflow: {} untraced passes of {} events: events/s p25 {:.0} p50 {:.0} p75 {:.0}",
        r.n,
        untraced[0].events(),
        r.p25,
        r.p50,
        r.p75
    ));
    if cfg.trace {
        let part = |f: fn(&Pass) -> (f64, u64), runs: f64| {
            let s: Vec<f64> = traced.iter().map(|p| f(p).0 / runs).collect();
            let events = f(&traced[0]).1 as f64 / runs;
            (median(&s), events)
        };
        let (wide_s, wide_ev) = part(|p| p.wide, 1.0);
        let (fusion_s, fusion_ev) = part(|p| p.fusion, 3.0);
        let (pipe_s, pipe_frames) = part(|p| p.pipeline, 2.0);
        out.metric("flow.seal.s", median(&seal_s), "s");
        out.metric("flow.wide.run_s", wide_s, "s");
        out.metric("flow.wide.events", wide_ev, "count");
        out.metric("flow.wide.events_per_s", wide_ev / wide_s, "1/s");
        out.metric("flow.fusion.run_s", fusion_s, "s");
        out.metric("flow.fusion.events", fusion_ev, "count");
        out.metric("flow.fusion.events_per_s", fusion_ev / fusion_s, "1/s");
        out.metric("sim.pipeline.run_s", pipe_s, "s");
        out.metric("sim.pipeline.frames", pipe_frames, "count");
        let walls = |v: &[Pass]| median(&v.iter().map(Pass::wall).collect::<Vec<_>>());
        out.trace_summary(walls(&untraced), walls(&traced), traced_wall_ns);
    } else {
        out.metric("ops_per_s", r.p50, "1/s");
        out.metric("setup_s", median(&seal_s), "s");
    }
    Ok(())
}
