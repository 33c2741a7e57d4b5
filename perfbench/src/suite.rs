//! `suite`: all fifteen experiments at seed 42 with modeled timing, pool
//! at one thread, in repeated passes.
//!
//! A pass runs every experiment once, in an order drawn from `--seed`
//! (each experiment's own seed comes from its paper-order position, so
//! the order never changes a report), and renders each report.
//! `ops_per_s` is the median pass rate in experiments per second (fifteen
//! per pass). Every report must be byte-identical to
//! `tests/golden/<slug>.txt`; `setup_s` is the median time to load them.
//!
//! The traced run also switches on the program's own m7-trace recorder
//! and reads its existing `scen.evaluate` spans, the closed-loop
//! evaluations inside E12 and E14.

use std::path::Path;
use std::time::Instant;

use magseven::suite::experiments::{run_selected_serial, ExperimentId, Timing};
use magseven::trace::recorder::{self, EventKind};

use crate::spans::{self, span};
use crate::stats::{median, Rng, Summary};
use crate::{Config, Outcome};

const ROOT_SEED: u64 = 42;
const SETUP_ROUNDS: usize = 50;

fn load_goldens() -> std::io::Result<Vec<String>> {
    ExperimentId::ALL
        .iter()
        .map(|id| {
            std::fs::read_to_string(Path::new("tests/golden").join(format!("{}.txt", id.slug())))
        })
        .collect()
}

/// Σ duration and count of the program's `scen.evaluate` spans since the
/// last drain, and the events the recorder dropped.
fn closed_loop_spans() -> (u64, u64, u64) {
    let drained = recorder::drain();
    recorder::clear();
    let (mut total, mut count) = (0u64, 0u64);
    let mut open: Vec<(u64, u64)> = Vec::new();
    for e in drained.events.iter().filter(|e| e.name == "scen.evaluate") {
        match e.kind {
            EventKind::Begin => open.push((e.tid, e.ts_ns)),
            EventKind::End => {
                if let Some(i) = open.iter().rposition(|&(tid, _)| tid == e.tid) {
                    total += e.ts_ns.saturating_sub(open.remove(i).1);
                    count += 1;
                }
            }
            _ => {}
        }
    }
    (total, count, drained.dropped)
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut goldens = Vec::new();
    for _ in 0..SETUP_ROUNDS {
        let t = Instant::now();
        match load_goldens() {
            Ok(g) => goldens = g,
            Err(err) => {
                out.failed += 1;
                out.mismatch(format!("cannot read tests/golden: {err}"));
                return out;
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let names: Vec<&'static str> = ExperimentId::ALL
        .iter()
        .map(|id| &*Box::leak(format!("suite.{}", id.slug()).into_boxed_str()))
        .collect();

    let mut rng = Rng::new(cfg.seed);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut traced_wall_ns = 0u64;
    let (mut loop_ns, mut loop_calls, mut dropped) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    let end = cfg.deadline(start);
    let mut pass = 0usize;
    while Instant::now() < end || untraced.len() < 3 || (cfg.trace && traced.len() < 3) {
        let trace_this = cfg.trace && pass % 2 == 1;
        pass += 1;
        let mut order: Vec<usize> = (0..ExperimentId::ALL.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }

        spans::enable(trace_this);
        if trace_this {
            magseven::trace::enable();
            recorder::clear();
        }
        let t0 = spans::now_ns();
        let t = Instant::now();
        let mut texts = Vec::with_capacity(order.len());
        for &i in &order {
            let id = ExperimentId::ALL[i];
            let report = {
                let _s = span(names[i], i as u64);
                run_selected_serial(&[id], ROOT_SEED, Timing::Modeled)
            };
            let _s = span("suite.render", i as u64);
            texts.push(
                report.map(|r| r.into_iter().map(|(_, rep)| rep.to_string()).collect::<String>()),
            );
        }
        let wall = t.elapsed().as_secs_f64();
        if trace_this {
            traced_wall_ns += spans::now_ns() - t0;
            magseven::trace::disable();
            let (ns, calls, lost) = closed_loop_spans();
            loop_ns += ns;
            loop_calls += calls;
            dropped += lost;
            traced.push(wall);
        } else {
            untraced.push(wall);
        }
        spans::enable(false);

        for (&i, text) in order.iter().zip(texts) {
            out.attempted += 1;
            let slug = ExperimentId::ALL[i].slug();
            match text {
                Ok(text) if text == goldens[i] => {}
                Ok(_) => {
                    out.failed += 1;
                    out.mismatch(format!("{slug} report differs from tests/golden/{slug}.txt"));
                }
                Err(err) => {
                    out.failed += 1;
                    out.mismatch(format!("{slug} failed to run: {err}"));
                }
            }
        }
    }

    let s = Summary::of(&untraced);
    out.note(format!(
        "suite: {} untraced passes: s/pass p25 {:.4} p50 {:.4} p75 {:.4}",
        s.n, s.p25, s.p50, s.p75
    ));
    let per_pass = ExperimentId::ALL.len() as f64;
    let rates: Vec<f64> = untraced.iter().map(|w| per_pass / w).collect();
    if cfg.trace {
        let spans = spans::snapshot();
        let totals = spans::totals(&spans);
        let passes = traced.len() as f64;
        for name in &names {
            let t = totals.get(name).copied().unwrap_or_default();
            out.metric(format!("{name}.s"), t.total_ns as f64 * 1e-9 / passes, "s");
        }
        let render = totals.get("suite.render").copied().unwrap_or_default();
        out.metric("suite.render.s", render.total_ns as f64 * 1e-9 / passes, "s");
        out.metric("sim.uav.fly_us", loop_ns as f64 / loop_calls.max(1) as f64 * 1e-3, "us");
        out.metric("scen.evaluate.calls", loop_calls as f64 / passes, "count");
        if dropped > 0 {
            out.note(format!(
                "m7-trace recorder dropped {dropped} events; closed-loop spans are partial"
            ));
        }
        out.trace_summary(median(&untraced), median(&traced), traced_wall_ns);
    } else {
        out.metric("ops_per_s", median(&rates), "1/s");
        out.metric("setup_s", median(&setup_s), "s");
    }
    out
}
