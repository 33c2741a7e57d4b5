//! Equivalence oracle for the dataflow backend of `m7_sim::Pipeline`.
//!
//! `Pipeline::simulate_with_faults` now runs on the `m7-flow` graph
//! engine. This suite pins that migration two ways:
//!
//! 1. **Oracle equivalence** — the pre-migration event loop (arrival /
//!    done on a hand-rolled queue, reproduced verbatim below) must
//!    produce *equal* [`PipelineStats`] — every field, bit for bit —
//!    across randomized sensors, platforms, kernels, marshalling paths,
//!    queue capacities, durations, fault schedules, and seeds.
//! 2. **Legacy-vs-Result API** — `try_simulate_with_faults` agrees with
//!    the panicking wrapper on every valid configuration.

use magseven::flow::EventQueue;
use magseven::sim::pipeline::{Pipeline, PipelineStats};
use magseven::sim::{Fault, FaultSchedule, SensorKind, SensorSpec};
use magseven::units::{Bytes, BytesPerSecond, Hertz, Seconds};
use magseven::{
    arch::platform::{Platform, PlatformKind},
    arch::workload::KernelProfile,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// The pre-migration `simulate_with_faults` event loop, verbatim (minus
/// the trace emission, which does not touch the returned stats). This is
/// the oracle the graph backend must match bit for bit.
fn legacy_oracle(
    p: &Pipeline,
    queue_capacity: usize,
    duration: Seconds,
    faults: &FaultSchedule,
    seed: u64,
) -> PipelineStats {
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Event {
        Arrival,
        Done,
    }

    let budget = p.latency_budget();
    let service = budget.ingest + budget.compute;
    let actuation_latency = budget.actuate;
    let period = p.sensor().rate().period();

    let mut q: EventQueue<Event> = EventQueue::new();
    q.schedule(Seconds::ZERO, Event::Arrival);

    let mut waiting: VecDeque<Seconds> = VecDeque::new();
    let mut busy = false;
    let mut in_service_arrival = Seconds::ZERO;
    let mut frames_in = 0u64;
    let mut frames_processed = 0u64;
    let mut frames_dropped = 0u64;
    let mut frames_lost = 0u64;
    let mut latencies: Vec<f64> = Vec::new();
    let mut link = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x1155_D20B_5EED_0003);

    while let Some((now, event)) = q.pop() {
        if now > duration {
            break;
        }
        match event {
            Event::Arrival => {
                frames_in += 1;
                let drop_rate = faults.message_drop_rate(now);
                if drop_rate > 0.0 && link.gen_bool(drop_rate) {
                    frames_lost += 1;
                    q.schedule(now + period, Event::Arrival);
                    continue;
                }
                if busy {
                    if waiting.len() >= queue_capacity {
                        frames_dropped += 1;
                    } else {
                        waiting.push_back(now);
                    }
                } else {
                    busy = true;
                    in_service_arrival = now;
                    q.schedule(now + service, Event::Done);
                }
                q.schedule(now + period, Event::Arrival);
            }
            Event::Done => {
                frames_processed += 1;
                let end_to_end = now + actuation_latency - in_service_arrival;
                latencies.push(end_to_end.value());
                match waiting.pop_front() {
                    Some(arrival) => {
                        in_service_arrival = arrival;
                        q.schedule(now + service, Event::Done);
                    }
                    None => busy = false,
                }
            }
        }
    }

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
    PipelineStats {
        frames_in,
        frames_processed,
        frames_dropped,
        frames_lost,
        mean_latency: Seconds::new(mean),
        p99_latency: Seconds::new(p99),
        throughput: Hertz::new(frames_processed as f64 / duration.value().max(1e-12)),
    }
}

const KINDS: [PlatformKind; 5] = [
    PlatformKind::CpuScalar,
    PlatformKind::CpuSimd,
    PlatformKind::Gpu,
    PlatformKind::Fpga,
    PlatformKind::Asic,
];

fn kernel_strategy() -> impl Strategy<Value = KernelProfile> {
    prop_oneof![
        (64usize..800, 64usize..600).prop_map(|(w, h)| KernelProfile::feature_extract(w, h)),
        (16usize..384).prop_map(KernelProfile::gemm),
        (32usize..512, 32usize..512).prop_map(|(r, c)| KernelProfile::gemv(r, c)),
    ]
}

#[derive(Debug, Clone)]
struct RandomConfig {
    rate_hz: f64,
    payload: f64,
    kind: usize,
    kernel: KernelProfile,
    bandwidth_gbps: f64,
    overhead_ms: f64,
    actuation_ms: f64,
    speedup: f64,
    capacity: usize,
    duration_s: f64,
    windows: Vec<(f64, f64, f64)>,
    seed: u64,
}

fn config_strategy() -> impl Strategy<Value = RandomConfig> {
    (
        (
            5.0f64..120.0,
            1e3f64..2e6,
            0usize..KINDS.len(),
            kernel_strategy(),
            0.05f64..8.0,
            0.0f64..5.0,
            0.0f64..10.0,
            0.5f64..100.0,
        ),
        (
            1usize..8,
            0.05f64..2.5,
            proptest::collection::vec((0.0f64..2.5, 0.01f64..1.5, 0.0f64..0.9), 0..3),
            any::<u64>(),
        ),
    )
        .prop_map(
            |(
                (
                    rate_hz,
                    payload,
                    kind,
                    kernel,
                    bandwidth_gbps,
                    overhead_ms,
                    actuation_ms,
                    speedup,
                ),
                (capacity, duration_s, windows, seed),
            )| RandomConfig {
                rate_hz,
                payload,
                kind,
                kernel,
                bandwidth_gbps,
                overhead_ms,
                actuation_ms,
                speedup,
                capacity,
                duration_s,
                windows,
                seed,
            },
        )
}

fn build(c: &RandomConfig) -> (Pipeline, FaultSchedule) {
    let pipeline = Pipeline::new(
        SensorSpec::new(SensorKind::Camera, Hertz::new(c.rate_hz), Bytes::new(c.payload), 2.0),
        Platform::preset(KINDS[c.kind]),
        c.kernel.clone(),
    )
    .with_marshalling(
        BytesPerSecond::from_gigabytes_per_second(c.bandwidth_gbps),
        Seconds::from_millis(c.overhead_ms),
    )
    .with_actuation(Seconds::from_millis(c.actuation_ms))
    .with_kernel_speedup(c.speedup)
    .with_queue_capacity(c.capacity);
    let faults = FaultSchedule::new(
        c.windows
            .iter()
            .map(|&(start, dur, rate)| Fault::MessageDrop {
                start: Seconds::new(start),
                duration: Seconds::new(dur),
                drop_rate: rate,
            })
            .collect(),
    );
    (pipeline, faults)
}

proptest! {
    /// The graph backend reproduces the legacy event loop exactly:
    /// every counter and every latency statistic, across the whole
    /// randomized configuration space.
    #[test]
    fn graph_backend_matches_the_legacy_event_loop(c in config_strategy()) {
        let (pipeline, faults) = build(&c);
        let duration = Seconds::new(c.duration_s);
        let expected = legacy_oracle(&pipeline, c.capacity, duration, &faults, c.seed);
        let actual = pipeline.simulate_with_faults(duration, &faults, c.seed);
        prop_assert_eq!(&actual, &expected, "config: {:?}", c);
    }

    /// The fallible API returns exactly what the panicking wrapper
    /// computes on every valid configuration.
    #[test]
    fn try_simulate_agrees_with_the_legacy_api(c in config_strategy()) {
        let (pipeline, faults) = build(&c);
        let duration = Seconds::new(c.duration_s);
        let fallible = pipeline
            .try_simulate_with_faults(duration, &faults, c.seed)
            .expect("configuration is valid");
        let legacy = pipeline.simulate_with_faults(duration, &faults, c.seed);
        prop_assert_eq!(fallible, legacy);
    }
}
