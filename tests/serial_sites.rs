//! The fine-grained sites run serially at any pool width: sealing a
//! graph, a surrogate-guided search and NSGA-II start no m7-par batch.
//!
//! Tracing and the pool width are process-wide, so this binary holds a
//! single test.

use magseven::dse::{nsga2, DesignSpace, Dimension, Explorer, SearchBudget};
use magseven::flow::{
    EdgeSpec, GraphBuilder, MessageType, ServerSpec, Service, SinkSpec, SourceSpec,
};
use magseven::par::{ParConfig, THREADS_ENV};
use magseven::units::{Bytes, Hertz, Seconds};

struct Frame;
impl MessageType for Frame {
    const NAME: &'static str = "frame";
}

fn batches() -> u64 {
    magseven::trace::snapshot().counter("par.batches").unwrap_or(0)
}

#[test]
fn seal_surrogate_and_nsga2_start_no_pool_batch_at_eight_threads() {
    std::env::set_var(THREADS_ENV, "8");
    magseven::trace::enable();
    magseven::trace::reset();

    let before = batches();
    let mut g = GraphBuilder::new("chains");
    for c in 0..8 {
        let src = g
            .source::<Frame>(format!("src{c}"), SourceSpec::new(Hertz::new(30.0), Bytes::new(1e3)))
            .unwrap();
        let work = g
            .server::<Frame, Frame>(
                format!("work{c}"),
                ServerSpec::new(Service::fixed(Seconds::from_millis(5.0))),
            )
            .unwrap();
        let out = g.sink::<Frame>(format!("out{c}"), SinkSpec::new()).unwrap();
        g.connect(src, work, EdgeSpec::queue(2)).unwrap();
        g.connect(work, out, EdgeSpec::wire()).unwrap();
    }
    let graph = g.seal(ParConfig::with_threads(8)).unwrap();
    assert_eq!(batches(), before, "seal must cost nodes without the pool");
    assert!(graph.run(Seconds::new(0.5)).is_ok());

    let space = DesignSpace::new(vec![
        Dimension::new("x", (0..16).map(f64::from).collect()),
        Dimension::new("y", (0..16).map(f64::from).collect()),
    ]);
    let bowl = |v: &[f64]| (v[0] - 11.0).powi(2) + (v[1] - 4.0).powi(2);
    let before = batches();
    let r = Explorer::surrogate().run(&space, &bowl, SearchBudget::new(40), 3);
    assert_eq!(r.evaluations, 40);
    assert_eq!(batches(), before, "surrogate scoring must not use the pool");

    let before = batches();
    let front = nsga2(&space, &|v: &[f64]| vec![v[0], 15.0 - v[0] + v[1]], 10, 16, 5);
    assert!(!front.is_empty());
    assert_eq!(batches(), before, "NSGA-II scoring must not use the pool");

    // The counter is live: a batch through the pool is counted.
    let _ = ParConfig::with_threads(8).par_map(&[1u32, 2, 3], |x| x + 1);
    assert_eq!(batches(), before + 1);
    magseven::trace::disable();
}
