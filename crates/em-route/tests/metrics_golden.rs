//! Exact-text golden for em-route's `/metrics` registry.
//!
//! The registry is fed a fixed set of observations and its rendering
//! must match `tests/golden/metrics.txt` byte for byte. The latency and
//! stage histograms are read by the perf harness, and the per-backend
//! outcome and connection counters by the CI smoke job, so any change to
//! a series name, label, order or bucket layout shows up here as a diff.

use std::sync::atomic::Ordering;

use em_obs::{Stage, Tracer};
use em_route::metrics::{ConnectionKind, Outcome, RouteEndpoint, RouterMetrics};
use em_serve::{CacheStats, RejectCause, Rejects};

#[test]
fn metrics_render_matches_the_golden_text() {
    let m = RouterMetrics::new(2);
    m.record_outcome(0, Outcome::Ok);
    m.record_outcome(0, Outcome::Ok);
    m.record_outcome(0, Outcome::Timeout);
    m.record_outcome(1, Outcome::ConnectError);
    m.record_outcome(1, Outcome::Status);
    m.record_outcome(1, Outcome::ProtocolError);

    m.record_connection(0, ConnectionKind::Opened);
    m.record_connection(0, ConnectionKind::Reused);
    m.record_connection(0, ConnectionKind::Reused);
    m.record_connection(1, ConnectionKind::Stale);
    m.record_connection(1, ConnectionKind::Opened);

    m.record_latency(RouteEndpoint::Explain, 50);
    m.record_latency(RouteEndpoint::Explain, 700);
    m.record_latency(RouteEndpoint::Predict, 100_000);
    m.record_latency(RouteEndpoint::Admin, 6_000_000);

    let trace = em_obs::Collector::new();
    trace.record_stage(Stage::RouteKey, 40_000);
    trace.record_stage(Stage::RouteForward, 2_000_000);
    m.record_stages(&trace);

    m.record_failover();
    m.record_no_backend();
    let rejects = Rejects::default();
    rejects.record(RejectCause::Shed);
    rejects.record(RejectCause::ShedDrop);
    rejects.record(RejectCause::Idle);
    rejects.record(RejectCause::HeaderDeadline);
    rejects.record(RejectCause::WriteDeadline);

    let cache = CacheStats::default();
    cache.hits.store(9, Ordering::Relaxed);
    cache.misses.store(4, Ordering::Relaxed);
    cache.evictions.store(2, Ordering::Relaxed);

    let text = m.render(&["alpha", "beta"], &rejects, &cache, 3);
    assert_eq!(text, include_str!("golden/metrics.txt"));
}
