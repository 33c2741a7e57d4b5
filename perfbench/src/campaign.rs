//! `campaign`: streaming scenario campaigns on the micro tier, one pool
//! thread, every work unit checkpointed into a fresh disk-backed tiered
//! cache (the `campaign --resume-dir` configuration).
//!
//! The measured window is cut into fixed-work slices: one campaign of
//! [`BUDGET`] evaluations each, on its own seed and its own fresh store.
//! `ops_per_s` is the median slice rate in evaluations per second; `setup_s` the median store
//! open. The traced run alternates untraced and traced slices; after
//! each traced slice it replays every stratum's draws through
//! `generate` → `evaluate_uav` → `StratumSketch::record`, which must
//! rebuild each sketch bit for bit, and replays the frontier probe.

use std::time::Instant;

use magseven::camp::{run_campaign, CampaignOutcome, CampaignPlan, StratumSketch};
use magseven::par::ParConfig;
use magseven::scen::{evaluate_uav, falsify_memo, generate, FalsifyConfig};
use magseven::serve::{CacheKey, EvalCache, ResultStore, TierConfig, TieredCache};
use magseven::sim::uav::ComputeTier;

use crate::spans::{self, span};
use crate::stats::{mean, median, Rng, Summary};
use crate::{Config, Outcome};

/// Closed-loop evaluations per slice.
const BUDGET: usize = 600;
/// The closed loop's fixed step, seconds.
const UAV_STEP_S: f64 = 0.02;

/// A store wrapper that opens a span around each tier lookup, each
/// computed value, and each tier insert. It follows the default
/// `ResultStore::get_or_insert_with`, which is what `TieredCache` uses.
struct Traced<'a, S> {
    inner: &'a S,
    compute: &'static str,
}

impl<V: Clone, S: ResultStore<V>> ResultStore<V> for Traced<'_, S> {
    fn get(&self, key: CacheKey) -> Option<V> {
        let _s = span("serve.tier.get", key.0);
        self.inner.get(key)
    }

    fn insert(&self, key: CacheKey, value: V) {
        let _s = span("serve.tier.insert", key.0);
        self.inner.insert(key, value);
    }

    fn hits(&self) -> u64 {
        self.inner.hits()
    }

    fn get_or_insert_with(&self, key: CacheKey, compute: impl FnOnce() -> V) -> (V, bool) {
        if let Some(v) = self.get(key) {
            return (v, true);
        }
        let v = {
            let _s = span(self.compute, key.0);
            compute()
        };
        self.insert(key, v.clone());
        (v, false)
    }
}

struct Stores {
    units: TieredCache<StratumSketch>,
    falsify: TieredCache<f64>,
}

impl Stores {
    fn open(dir: &std::path::Path) -> std::io::Result<Self> {
        Ok(Self {
            units: TieredCache::open(4096, TierConfig::disk(dir.join("units")))?,
            falsify: TieredCache::open(1024, TierConfig::disk(dir.join("falsify")))?,
        })
    }

    fn appends(&self) -> u64 {
        self.units.stats().insertions + self.falsify.stats().insertions
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let plan = CampaignPlan::new(ComputeTier::Micro, BUDGET);
    let mut rng = Rng::new(cfg.seed);
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut traced_wall_ns = 0u64;
    let mut replay = Replay::default();
    let mut appends = 0u64;

    let start = Instant::now();
    let end = cfg.deadline(start);
    let mut slice = 0usize;
    // At least three slices of each kind, so every median has quartiles.
    while Instant::now() < end || untraced.len() < 3 || (cfg.trace && traced.len() < 3) {
        let trace_this = cfg.trace && slice % 2 == 1;
        let dir = cfg.out.join(format!("slice{slice}"));
        slice += 1;
        let seed = rng.next_u64();

        let t = Instant::now();
        let stores = match Stores::open(&dir) {
            Ok(s) => s,
            Err(err) => {
                out.mismatch(format!("cannot open campaign store in {}: {err}", dir.display()));
                break;
            }
        };
        setup.push(t.elapsed().as_secs_f64());

        let result = if trace_this {
            spans::enable(true);
            let t0 = spans::now_ns();
            let units = Traced { inner: &stores.units, compute: "camp.unit" };
            let falsify = Traced { inner: &stores.falsify, compute: "dse.falsify.eval" };
            let t = Instant::now();
            let result = {
                let _s = span("camp.run_campaign", seed);
                run_campaign(&plan, seed, ParConfig::serial(), &units, &falsify)
            };
            let wall = t.elapsed().as_secs_f64();
            replay.check(&plan, seed, &result, &mut out);
            traced_wall_ns += spans::now_ns() - t0;
            spans::enable(false);
            appends += stores.appends();
            traced.push(wall);
            result
        } else {
            let t = Instant::now();
            let result =
                run_campaign(&plan, seed, ParConfig::serial(), &stores.units, &stores.falsify);
            untraced.push(t.elapsed().as_secs_f64());
            result
        };
        drop(stores);
        let _ = std::fs::remove_dir_all(&dir);

        out.attempted += 1;
        if result.evaluations != BUDGET as u64 || result.units_from_store != 0 {
            out.failed += 1;
            out.mismatch(format!(
                "campaign seed {seed}: {} evaluations (want {BUDGET}), {} units from store (want 0)",
                result.evaluations, result.units_from_store
            ));
        }
    }

    let rates: Vec<f64> = untraced.iter().map(|w| BUDGET as f64 / w).collect();
    let r = Summary::of(&rates);
    out.note(format!(
        "campaign: {} untraced slices of {BUDGET} evals: evals/s p25 {:.1} p50 {:.1} p75 {:.1}",
        r.n, r.p25, r.p50, r.p75
    ));
    if cfg.trace {
        let spans = spans::snapshot();
        let t = spans::totals(&spans);
        let per = |name: &str| t.get(name).copied().unwrap_or_default();
        let fly = per("sim.uav.fly");
        let gen = per("scen.generate");
        let engine = per("camp.run_campaign");
        let insert = per("serve.tier.insert");
        out.metric("sim.uav.fly_us", fly.total_ns as f64 / fly.count.max(1) as f64 * 1e-3, "us");
        out.metric("sim.uav.steps", replay.steps as f64, "count");
        out.metric("sim.uav.ns_per_step", fly.total_ns as f64 / replay.steps.max(1) as f64, "ns");
        out.metric("scen.generate.us", gen.total_ns as f64 / gen.count.max(1) as f64 * 1e-3, "us");
        out.metric("scen.generate.calls", gen.count as f64, "count");
        out.metric("dse.falsify_probe.s", mean(&replay.probe_s), "s");
        // The frontier probe runs inside `run_campaign` without a span of
        // its own; its replayed time is taken off the engine's self time.
        let engine_self = engine.self_ns as f64 / engine.count.max(1) as f64 * 1e-9;
        out.metric("camp.engine.self_s", engine_self - mean(&replay.probe_s), "s");
        out.metric(
            "serve.tier.insert_us",
            insert.total_ns as f64 / insert.count.max(1) as f64 * 1e-3,
            "us",
        );
        out.metric("serve.segment.appends", appends as f64, "count");
        out.trace_summary(median(&untraced), median(&traced), traced_wall_ns);
    } else {
        out.metric("ops_per_s", r.p50, "1/s");
        out.metric("setup_s", median(&setup), "s");
    }
    out
}

/// The traced run's replay of each campaign through the layers it is
/// built from.
#[derive(Default)]
struct Replay {
    /// Σ mission time ÷ the 20 ms closed-loop step.
    steps: u64,
    probe_s: Vec<f64>,
}

impl Replay {
    fn check(
        &mut self,
        plan: &CampaignPlan,
        seed: u64,
        result: &CampaignOutcome,
        out: &mut Outcome,
    ) {
        for (stratum, report) in result.strata.iter().enumerate() {
            let family = plan.family(stratum);
            let mut sketch = StratumSketch::default();
            for draw in 0..report.draws {
                let (level, world_seed) = plan.draw(seed, stratum, draw);
                let s = {
                    let _s = span("scen.generate", world_seed);
                    generate(family, level, world_seed)
                };
                let o = {
                    let _s = span("sim.uav.fly", world_seed);
                    evaluate_uav(&s, plan.tier, s.seed)
                };
                sketch.record(&o, s.difficulty());
                self.steps += (o.time_s / UAV_STEP_S).round() as u64;
            }
            if sketch != report.sketch {
                out.mismatch(format!(
                    "campaign seed {seed}: stratum {stratum} sketch differs on replay"
                ));
            }
        }
        let probe = FalsifyConfig {
            families: plan.families.clone(),
            levels: 8,
            variants: 2,
            budget: plan.falsify_budget,
        };
        let t = Instant::now();
        let fals = {
            let _s = span("dse.falsify_probe", seed);
            falsify_memo(plan.tier, &probe, seed, ParConfig::serial(), &EvalCache::new(1024))
        };
        self.probe_s.push(t.elapsed().as_secs_f64());
        if fals.frontier != result.frontier {
            out.mismatch(format!("campaign seed {seed}: frontier probe differs on replay"));
        }
    }
}
