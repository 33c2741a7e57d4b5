//! Tri-mode determinism regression: the memoized experiments (E9, E12)
//! must render **byte-identical** reports whether their shared result
//! store is (a) memory-only, (b) a cold disk-backed tier, or (c) a disk
//! tier pre-warmed by a previous run over the same directory — and all
//! three must match the pinned golden snapshots byte-for-byte.
//!
//! Memoization may only change *how much work runs*, never *what the
//! answer is*: cached values are pure functions of their keys, so the
//! only figure allowed to move across modes is the saved-evaluations
//! count — equal for memory and cold disk (write-through changes no hit
//! path), and strictly larger once the disk tier is warm.

use std::path::PathBuf;

use magseven::par::ParConfig;
use magseven::serve::{ResultStore, TierConfig, TieredCache};
use magseven::suite::experiments::{run, ExperimentId, Timing};

const ROOT_SEED: u64 = 42;
const HOT_CAPACITY: usize = 1 << 14;
const IDS: [ExperimentId; 2] = [ExperimentId::E9Dse, ExperimentId::E12Scenarios];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("m7golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn golden_text(id: ExperimentId) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(format!("{}.txt", id.slug()));
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run the golden_reports suite first",
            path.display()
        )
    })
}

/// One run of the memoized experiments over `store`:
/// `(rendered reports, saved-evaluation counts)` in `IDS` order.
fn run_in<S: ResultStore<f64>>(store: &S) -> (Vec<String>, Vec<u64>) {
    IDS.iter()
        .map(|id| {
            let (report, saved) = id.run_in(id.seed(ROOT_SEED), Timing::Modeled, store);
            (report.to_string(), saved)
        })
        .unzip()
}

#[test]
fn reports_are_byte_identical_across_disabled_cold_and_warm_disk() {
    // Baseline: the runner, with a fresh store per experiment.
    let baseline =
        run(&IDS, ROOT_SEED, Timing::Modeled, ParConfig::serial()).expect("non-empty selection");

    // Mode 1 — disabled disk: one shared memory-only tier.
    let memory: TieredCache<f64> = TieredCache::memory_only(HOT_CAPACITY);
    let (memory_reports, memory_saved) = run_in(&memory);

    // Mode 2 — cold disk: fresh directory, write-through as it runs.
    let dir = temp_dir("trimode");
    let (cold_reports, cold_saved) = {
        let cold: TieredCache<f64> =
            TieredCache::open(HOT_CAPACITY, TierConfig::disk(&dir)).expect("open cold tier");
        let out = run_in(&cold);
        cold.sync().expect("sync segment store");
        out
    };

    // Mode 3 — warm disk: a *new* store over the same directory, as a
    // restarted process would see it.
    let warm: TieredCache<f64> =
        TieredCache::open(HOT_CAPACITY, TierConfig::disk(&dir)).expect("reopen warm tier");
    let recovered = warm.recovery().expect("disk tier configured");
    assert!(recovered.live_entries > 0, "the cold run must have persisted its evaluations");
    assert_eq!(recovered.torn_bytes, 0, "a clean shutdown leaves no torn tail");
    let (warm_reports, warm_saved) = run_in(&warm);

    for (i, &id) in IDS.iter().enumerate() {
        let golden = golden_text(id);
        let base = baseline[i].1.to_string();
        assert_eq!(base, golden, "{id}: the runner drifted from its golden snapshot");
        assert_eq!(memory_reports[i], golden, "{id}: memory-only tier changed the report bytes");
        assert_eq!(cold_reports[i], golden, "{id}: cold disk tier changed the report bytes");
        assert_eq!(warm_reports[i], golden, "{id}: warm disk tier changed the report bytes");

        // Savings bookkeeping: neither the runner's fresh store nor the
        // shared tier evicts, so both see the identical hit sequence, as
        // does a cold disk tier; a warm tier answers the formerly-cold
        // first evaluations too, so it must save strictly more.
        assert_eq!(memory_saved[i], baseline[i].2, "{id}: the shared store altered the hit path");
        assert_eq!(cold_saved[i], memory_saved[i], "{id}: write-through altered the hit path");
        assert!(
            warm_saved[i] > cold_saved[i],
            "{id}: warm disk saved {} which is not more than cold {}",
            warm_saved[i],
            cold_saved[i]
        );
    }
    assert_eq!(warm.stats().disk_errors, 0, "no decode failures against a cleanly synced store");
    let _ = std::fs::remove_dir_all(&dir);
}
