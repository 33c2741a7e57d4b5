//! Streaming scenario campaigns from the command line: stratified
//! coverage of every generator family with importance splitting, at
//! any budget, resumable across invocations.
//!
//! Run with: `cargo run --release --example campaign [flags]`
//!
//! Flags:
//!
//! - `--budget N` — closed-loop evaluations to stream (default 600)
//! - `--tier T` — platform tier to campaign: `micro`, `embedded`,
//!   `embedded-gpu`, `desktop`, or `server` (default `micro`)
//! - `--seed S` — campaign root seed (default 42)
//! - `--resume-dir DIR` — checkpoint every work unit in a crash-safe
//!   on-disk tiered cache under DIR; a re-run over the same directory
//!   replays finished units instead of re-simulating them, so a killed
//!   campaign continues where it died
//! - `--self-test` — prove the determinism and resume contracts: the
//!   coverage report must be byte-identical across 1 vs 8 threads,
//!   cold vs disk-backed, after a simulated mid-run kill (torn
//!   checkpoint tail), and on a warm resume that re-evaluates nothing.
//!   Exits non-zero on any mismatch.
//! - `--threads N`, `--trace FILE`, `--metrics` — the shared
//!   observability flags (`m7_trace::ObsFlags`)
//!
//! Kill-and-resume, by hand:
//!
//! ```text
//! cargo run --release --example campaign -- --budget 100000 --resume-dir /tmp/m7camp &
//! kill %1                    # any time
//! cargo run --release --example campaign -- --budget 100000 --resume-dir /tmp/m7camp
//! ```
//!
//! The second run recovers the finished work units from disk, reports
//! how many it replayed, and produces the byte-identical report the
//! uninterrupted run would have printed.

use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use magseven::camp::{run_campaign, CampaignOutcome, CampaignPlan, StratumSketch};
use magseven::par::ParConfig;
use magseven::serve::{EvalCache, TierConfig, TieredCache, SEGMENT_FILE};
use magseven::sim::uav::ComputeTier;
use magseven::suite::{fmt_f64, Report, Table};
use magseven::trace::{flag_value, ObsFlags};

/// Parses a tier name (the `Display` form used across the suite).
fn parse_tier(name: &str) -> Option<ComputeTier> {
    match name {
        "micro" => Some(ComputeTier::Micro),
        "embedded" => Some(ComputeTier::Embedded),
        "embedded-gpu" => Some(ComputeTier::EmbeddedGpu),
        "desktop" => Some(ComputeTier::Desktop),
        "server" => Some(ComputeTier::Server),
        _ => None,
    }
}

/// Renders the deterministic coverage report — every field in here is
/// bit-identical across thread counts and cold/resumed runs, which is
/// exactly what the self-test asserts byte-equality on.
fn render(out: &CampaignOutcome) -> String {
    let mut report = Report::new(format!("campaign — tier {}", out.tier));
    let mut summary = Table::new(
        "summary",
        vec!["evaluations", "strata", "units", "coverage", "anchor", "frontier"],
    );
    let frontier = match &out.frontier {
        Some(p) => format!("{} @ level {}", p.family, fmt_f64(p.level)),
        None => "survived probe".to_string(),
    };
    summary.push_row(vec![
        out.evaluations.to_string(),
        out.strata.len().to_string(),
        out.units.to_string(),
        fmt_f64(out.coverage),
        fmt_f64(out.anchor),
        frontier,
    ]);
    report.push_table(summary);

    let deciles = out.strata.iter().map(|s| s.decile + 1).max().unwrap_or(0);
    let mut headers = vec!["family".to_string()];
    headers.extend((0..deciles).map(|d| format!("d{d}")));
    let mut curves = Table::new("success curve (ok/draws per difficulty decile)", headers);
    let mut families = Vec::new();
    for s in &out.strata {
        if !families.contains(&s.family) {
            families.push(s.family);
        }
    }
    for family in families {
        let mut cells = vec![family.to_string()];
        let mut row: Vec<_> = out.strata.iter().filter(|s| s.family == family).collect();
        row.sort_by_key(|s| s.decile);
        for s in row {
            cells.push(format!("{}/{}", s.sketch.successes, s.sketch.trials));
        }
        curves.push_row(cells);
    }
    report.push_table(curves);
    report.to_string()
}

/// Runs one campaign with optional disk-backed checkpointing, printing
/// replay/recovery facts to stderr (they vary between cold and resumed
/// runs; the report on stdout never does).
fn run_once(
    plan: &CampaignPlan,
    seed: u64,
    par: ParConfig,
    resume_dir: Option<&Path>,
) -> std::io::Result<CampaignOutcome> {
    let out = match resume_dir {
        Some(dir) => {
            let units: TieredCache<StratumSketch> =
                TieredCache::open(4096, TierConfig::disk(dir.join("units")))?;
            let falsify: TieredCache<f64> =
                TieredCache::open(1024, TierConfig::disk(dir.join("falsify")))?;
            if let Some(rec) = units.recovery() {
                eprintln!(
                    "resume {}: {} finished units recovered ({} torn bytes truncated)",
                    dir.display(),
                    rec.live_entries,
                    rec.torn_bytes
                );
            }
            let out = run_campaign(plan, seed, par, &units, &falsify);
            units.sync()?;
            falsify.sync()?;
            out
        }
        None => {
            let units = EvalCache::new(1 << 16);
            let falsify = EvalCache::new(1024);
            run_campaign(plan, seed, par, &units, &falsify)
        }
    };
    eprintln!(
        "campaign done: {} evaluations in {} units, {} units replayed from checkpoints",
        out.evaluations, out.units, out.units_from_store
    );
    Ok(out)
}

/// Truncates the units segment to 60% of its length — the torn tail a
/// mid-write kill leaves behind, which recovery must absorb.
fn tear_checkpoint_tail(resume_dir: &Path) -> std::io::Result<u64> {
    let segment = resume_dir.join("units").join(SEGMENT_FILE);
    let len = std::fs::metadata(&segment)?.len();
    let keep = len * 6 / 10;
    let file = std::fs::OpenOptions::new().write(true).open(&segment)?;
    file.set_len(keep)?;
    Ok(len - keep)
}

/// Proves the campaign contracts end to end. Every step must produce a
/// byte-identical coverage report:
///
/// 1. serial in-memory (the reference)
/// 2. 8 threads in-memory (thread-count invariance)
/// 3. cold disk-backed run (checkpointing changes nothing)
/// 4. resume after a simulated mid-run kill (torn checkpoint tail)
/// 5. warm resume, which must replay every unit and re-evaluate none
fn self_test(plan: &CampaignPlan, seed: u64) -> ExitCode {
    let dir = std::env::temp_dir().join(format!("m7camp-selftest-{}", std::process::id()));
    if dir.exists() {
        if let Err(err) = std::fs::remove_dir_all(&dir) {
            eprintln!("cannot clear {}: {err}", dir.display());
            return ExitCode::from(2);
        }
    }

    let result = self_test_steps(plan, seed, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok(()) => {
            println!("self-test passed: byte-identical reports across threads, kill, and resume");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("self-test FAILED: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn self_test_steps(plan: &CampaignPlan, seed: u64, dir: &Path) -> Result<(), String> {
    let io = |err: std::io::Error| format!("io error: {err}");

    let reference = run_once(plan, seed, ParConfig::serial(), None).map_err(io)?;
    let report = render(&reference);

    let wide = run_once(plan, seed, ParConfig::with_threads(8), None).map_err(io)?;
    if render(&wide) != report {
        return Err("8-thread report differs from the serial report".into());
    }
    println!("threads ok: 1-thread and 8-thread reports are byte-identical");

    let cold = run_once(plan, seed, ParConfig::default(), Some(dir)).map_err(io)?;
    if render(&cold) != report {
        return Err("cold disk-backed report differs from the in-memory report".into());
    }
    if cold.units_from_store != 0 {
        return Err(format!(
            "cold run replayed {} units from an empty store",
            cold.units_from_store
        ));
    }
    println!("checkpointing ok: cold disk-backed report is byte-identical");

    let torn = tear_checkpoint_tail(dir).map_err(io)?;
    let resumed = run_once(plan, seed, ParConfig::default(), Some(dir)).map_err(io)?;
    if render(&resumed) != report {
        return Err("post-kill resumed report differs".into());
    }
    if resumed.units_from_store == 0 || resumed.units_from_store >= resumed.units {
        return Err(format!(
            "kill simulation lost nothing or everything: {} of {} units replayed",
            resumed.units_from_store, resumed.units
        ));
    }
    println!(
        "kill ok: tore {torn} checkpoint bytes, resumed {} of {} units, report byte-identical",
        resumed.units_from_store, resumed.units
    );

    let warm = run_once(plan, seed, ParConfig::default(), Some(dir)).map_err(io)?;
    if render(&warm) != report {
        return Err("warm resumed report differs".into());
    }
    if warm.units_from_store != warm.units {
        return Err(format!(
            "warm resume re-evaluated {} units",
            warm.units - warm.units_from_store
        ));
    }
    println!("resume ok: warm run replayed all {} units, re-evaluated none", warm.units);
    Ok(())
}

fn main() -> ExitCode {
    let mut budget = 600usize;
    let mut tier = ComputeTier::Micro;
    let mut seed = 42u64;
    let mut resume_dir: Option<PathBuf> = None;
    let mut selftest = false;
    let mut obs = ObsFlags::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--budget" => {
                budget =
                    flag_value::<NonZeroUsize>(&mut args, "--budget", "a positive integer").get();
            }
            "--tier" => {
                let Some(v) = args.next().as_deref().and_then(parse_tier) else {
                    eprintln!(
                        "--tier needs one of: micro, embedded, embedded-gpu, desktop, server"
                    );
                    return ExitCode::from(2);
                };
                tier = v;
            }
            "--seed" => seed = flag_value(&mut args, "--seed", "an integer"),
            "--resume-dir" => {
                resume_dir = Some(flag_value(&mut args, "--resume-dir", "a directory path"));
            }
            "--self-test" => selftest = true,
            s if obs.consume(s, &mut args) => {}
            other => {
                eprintln!(
                    "unknown argument {other:?}; usage: campaign [--budget N] [--tier T] \
                     [--seed S] [--resume-dir DIR] [--self-test] [--threads N] [--trace FILE] \
                     [--metrics] [--stats-interval MS] [--journal DIR]"
                );
                return ExitCode::from(2);
            }
        }
    }
    obs.activate();
    let _pump = match magseven::serve::TelemetryPump::from_flags(&obs) {
        Ok(pump) => pump,
        Err(err) => {
            eprintln!("telemetry journal: {err}");
            return ExitCode::from(2);
        }
    };
    let plan = CampaignPlan::new(tier, budget);

    let code = if selftest {
        self_test(&plan, seed)
    } else {
        let par = obs.threads.map_or_else(ParConfig::default, ParConfig::with_threads);
        match run_once(&plan, seed, par, resume_dir.as_deref()) {
            Ok(out) => {
                print!("{}", render(&out));
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("campaign failed: {err}");
                ExitCode::from(2)
            }
        }
    };

    if !obs.finish() {
        return ExitCode::FAILURE;
    }
    code
}
