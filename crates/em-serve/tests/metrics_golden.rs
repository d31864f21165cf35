//! Exact-text golden for em-serve's `/metrics` exposition.
//!
//! The registry is fed a fixed set of observations — bucket boundaries,
//! the overflow bucket, a stage the request never entered, every
//! counter family — and its rendering must match
//! `tests/golden/metrics.txt` byte for byte. Scrapers, dashboards and
//! the perf harness parse this text, so any change to a series name,
//! label, order or bucket layout shows up here as a diff.

use std::sync::atomic::Ordering;

use em_obs::{Stage, Tracer};
use em_serve::cache::CacheStats;
use em_serve::{Endpoint, Metrics, RejectCause, Rejects};

#[test]
fn metrics_render_matches_the_golden_text() {
    let m = Metrics::new();
    m.record(Endpoint::Explain, 50, false);
    m.record(Endpoint::Explain, 700, false);
    m.record(Endpoint::Explain, 10_000_000, true);
    m.record(Endpoint::Predict, 100, false);
    m.record(Endpoint::Predict, 101, false);
    m.record(Endpoint::Metrics, 5_000_000, false);
    m.record(Endpoint::Other, 4_000, true);

    let trace = em_obs::Collector::new();
    trace.record_stage(Stage::Tokenize, 999);
    trace.record_stage(Stage::ModelScoring, 2_000_000);
    trace.record_stage(Stage::SurrogateFit, 50_000);
    m.record_explain_stages(&trace);
    let slow = em_obs::Collector::new();
    slow.record_stage(Stage::ModelScoring, 7_000_000_000);
    m.record_explain_stages(&slow);
    m.record_slow();

    let rejects = Rejects::default();
    rejects.record(RejectCause::Shed);
    rejects.record(RejectCause::Shed);
    rejects.record(RejectCause::HeaderDeadline);
    rejects.record(RejectCause::PeerAbort);

    let cache = CacheStats::default();
    cache.hits.store(7, Ordering::Relaxed);
    cache.misses.store(3, Ordering::Relaxed);
    cache.evictions.store(1, Ordering::Relaxed);

    let text = m.render(&rejects, &cache, 5);
    assert_eq!(text, include_str!("golden/metrics.txt"));
}
