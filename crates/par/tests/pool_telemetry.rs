//! With tracing on, the pool's telemetry adds up: every item a pooled
//! batch counts in `par.items` shows up in exactly one worker's
//! `sched.par.worker_items` sample, and each batch opens one
//! `sched.par.worker` span per worker.
//!
//! Tracing is process-wide, so this binary holds a single test.

use m7_par::ParConfig;

struct Totals {
    items: u64,
    worker_items: u64,
    worker_samples: u64,
    worker_spans: u64,
}

fn totals() -> Totals {
    let snap = m7_trace::snapshot();
    let worker_items = snap.histogram("sched.par.worker_items");
    Totals {
        items: snap.counter("par.items").unwrap_or(0),
        worker_items: worker_items.map_or(0, |h| h.sum),
        worker_samples: worker_items.map_or(0, |h| h.count),
        worker_spans: snap.counter("sched.par.worker.spans").unwrap_or(0),
    }
}

#[test]
fn worker_items_and_spans_add_up_over_pooled_batches() {
    m7_trace::enable();
    let before = totals();

    let pool = ParConfig::with_threads(4);
    let label = |i: usize| format!("item-{}", i * i);
    let mut workers = 0;
    for len in 2..=40 {
        let serial: Vec<String> = (0..len).map(label).collect();
        assert_eq!(pool.par_map_indexed(len, label), serial, "len={len}");
        workers += len.min(4) as u64;
    }

    let after = totals();
    m7_trace::disable();
    let items = after.items - before.items;
    assert_eq!(items, (2..=40).sum::<u64>());
    assert_eq!(after.worker_items - before.worker_items, items, "each item is run by one worker");
    assert_eq!(after.worker_samples - before.worker_samples, workers, "one sample per worker");
    assert_eq!(after.worker_spans - before.worker_spans, workers, "one span per worker");
}
