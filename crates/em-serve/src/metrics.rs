//! Lock-free request counters and latency histograms for `/metrics`.
//!
//! Rendered in the Prometheus text exposition format (counters and
//! cumulative `_bucket{le=...}` histogram series) so any standard scraper
//! can consume it, while staying dependency-free: every cell is an
//! `AtomicU64` bumped on the request path. Latency histograms are
//! [`em_obs::Histogram`]s, the same type `em-route` exposes, and
//! [`Rejects`] is the reject-cause table the shared connection lifecycle
//! ([`crate::listener`]) fills for both tiers.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use em_obs::Histogram;

use crate::cache::CacheStats;

/// The endpoints tracked individually. `Other` covers 404/405/parse
/// failures so every handled connection is counted somewhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /explain`.
    Explain,
    /// `POST /predict`.
    Predict,
    /// `GET /healthz`.
    Healthz,
    /// `GET /readyz`.
    Readyz,
    /// `GET /metrics`.
    Metrics,
    /// `POST /drain`.
    Drain,
    /// `POST /shutdown`.
    Shutdown,
    /// Anything else.
    Other,
}

impl Endpoint {
    /// All endpoints, in render (and declaration) order.
    pub fn all() -> [Endpoint; 8] {
        [
            Endpoint::Explain,
            Endpoint::Predict,
            Endpoint::Healthz,
            Endpoint::Readyz,
            Endpoint::Metrics,
            Endpoint::Drain,
            Endpoint::Shutdown,
            Endpoint::Other,
        ]
    }

    /// The metrics label.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Explain => "explain",
            Endpoint::Predict => "predict",
            Endpoint::Healthz => "healthz",
            Endpoint::Readyz => "readyz",
            Endpoint::Metrics => "metrics",
            Endpoint::Drain => "drain",
            Endpoint::Shutdown => "shutdown",
            Endpoint::Other => "other",
        }
    }
}

/// Why a connection was rejected or abandoned instead of being served
/// normally. Each cause is one `em_serve_rejects_total{cause=...}`
/// counter on a backend and one `em_route_rejects_total{cause=...}`
/// counter on the router, so an operator (or the chaos suite) can
/// attribute every misbehaving-client pattern to its specific defence
/// at either tier (DESIGN.md §14).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectCause {
    /// Queue full: 503 + `Retry-After` written from the accept thread.
    Shed,
    /// Queue full and the non-blocking 503 write did not complete; the
    /// connection was dropped rather than blocking the accept loop.
    ShedDrop,
    /// Queued longer than the admission bound; discarded unanswered
    /// because the client has almost certainly timed out.
    StaleQueue,
    /// Deadline expired before the client sent a single byte
    /// (connect-and-hold).
    Idle,
    /// Deadline expired while reading the request line or headers
    /// (slowloris header drip).
    HeaderDeadline,
    /// Deadline expired while reading the declared body (body drip).
    BodyDeadline,
    /// Deadline expired while writing the response (never-reading peer).
    WriteDeadline,
    /// The peer closed or reset the connection mid-request.
    PeerAbort,
}

impl RejectCause {
    /// All causes, in render (and declaration) order.
    pub fn all() -> [RejectCause; 8] {
        [
            RejectCause::Shed,
            RejectCause::ShedDrop,
            RejectCause::StaleQueue,
            RejectCause::Idle,
            RejectCause::HeaderDeadline,
            RejectCause::BodyDeadline,
            RejectCause::WriteDeadline,
            RejectCause::PeerAbort,
        ]
    }

    /// The `cause` label value.
    pub fn label(self) -> &'static str {
        match self {
            RejectCause::Shed => "shed",
            RejectCause::ShedDrop => "shed_drop",
            RejectCause::StaleQueue => "stale_queue",
            RejectCause::Idle => "idle",
            RejectCause::HeaderDeadline => "header_deadline",
            RejectCause::BodyDeadline => "body_deadline",
            RejectCause::WriteDeadline => "write_deadline",
            RejectCause::PeerAbort => "peer_abort",
        }
    }
}

/// One counter per [`RejectCause`]. Rejects are deliberately **not**
/// latency observations: a shed or reaped connection has no meaningful
/// service latency, and recording a fabricated one (the old `0 µs` shed
/// sample) drags the latency percentiles toward zero exactly when the
/// server is overloaded.
#[derive(Debug, Default)]
pub struct Rejects([AtomicU64; 8]);

impl Rejects {
    /// Counts one rejected/abandoned connection under its cause.
    pub fn record(&self, cause: RejectCause) {
        if let Some(cell) = self.0.get(cause as usize) {
            cell.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Connections counted for `cause`.
    pub fn get(&self, cause: RejectCause) -> u64 {
        self.0
            .get(cause as usize)
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }

    /// Appends the `metric` counter family: one series per cause, every
    /// cause rendered even at zero so scrapers see the full taxonomy from
    /// the first scrape.
    pub fn render(&self, out: &mut String, metric: &str) {
        let _ = writeln!(out, "# TYPE {metric} counter");
        for cause in RejectCause::all() {
            let _ = writeln!(
                out,
                "{metric}{{cause=\"{}\"}} {}",
                cause.label(),
                self.get(cause)
            );
        }
    }
}

/// The registry: per-endpoint request latency and error counts plus
/// per-stage histograms ([`em_obs::Stage`]): each `/explain` request
/// contributes one stage observation per stage it entered — the total
/// time that request spent in the stage.
#[derive(Debug, Default)]
pub struct Metrics {
    latency: [Histogram; 8],
    errors: [AtomicU64; 8],
    stages: [Histogram; em_obs::N_STAGES],
    slow_requests: AtomicU64,
}

impl Metrics {
    /// A fresh registry with all counters at zero.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records one request: its endpoint, latency, and whether it was
    /// answered with a non-2xx status.
    pub fn record(&self, endpoint: Endpoint, latency_us: u64, is_error: bool) {
        if let Some(latency) = self.latency.get(endpoint as usize) {
            latency.observe(latency_us);
        }
        if let Some(errors) = self.errors.get(endpoint as usize).filter(|_| is_error) {
            errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total requests recorded for an endpoint.
    pub fn requests(&self, endpoint: Endpoint) -> u64 {
        self.latency
            .get(endpoint as usize)
            .map_or(0, Histogram::count)
    }

    /// Folds one request's per-stage timings (an [`em_obs::Collector`]
    /// filled during `/explain`) into the stage histograms. Stages the
    /// request never entered (e.g. everything on a cache hit) are skipped
    /// rather than observed as zeros.
    pub fn record_explain_stages(&self, trace: &em_obs::Collector) {
        for (stage, us) in trace.entered_stages_us() {
            if let Some(histogram) = self.stages.get(stage.index()) {
                histogram.observe(us);
            }
        }
    }

    /// Counts one request that exceeded the slow-request threshold.
    pub fn record_slow(&self) {
        self.slow_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests counted by [`Metrics::record_slow`].
    pub fn slow_requests(&self) -> u64 {
        self.slow_requests.load(Ordering::Relaxed)
    }

    /// Renders the Prometheus text exposition, including the listener's
    /// reject counters and the cache counters passed in (both live next
    /// to the registry in the server).
    pub fn render(&self, rejects: &Rejects, cache: &CacheStats, cache_len: usize) -> String {
        let mut out = String::new();
        out.push_str("# TYPE em_serve_requests_total counter\n");
        for ep in Endpoint::all() {
            let _ = writeln!(
                out,
                "em_serve_requests_total{{endpoint=\"{}\"}} {}",
                ep.label(),
                self.requests(ep)
            );
        }
        out.push_str("# TYPE em_serve_request_errors_total counter\n");
        for (ep, errors) in Endpoint::all().into_iter().zip(&self.errors) {
            let _ = writeln!(
                out,
                "em_serve_request_errors_total{{endpoint=\"{}\"}} {}",
                ep.label(),
                errors.load(Ordering::Relaxed)
            );
        }
        out.push_str("# TYPE em_serve_request_latency_us histogram\n");
        for (ep, latency) in Endpoint::all().into_iter().zip(&self.latency) {
            latency.render(
                &mut out,
                "em_serve_request_latency_us",
                "endpoint",
                ep.label(),
            );
        }
        out.push_str("# TYPE em_serve_stage_latency_us histogram\n");
        for (stage, histogram) in em_obs::Stage::all().into_iter().zip(&self.stages) {
            histogram.render(
                &mut out,
                "em_serve_stage_latency_us",
                "stage",
                stage.label(),
            );
        }
        rejects.render(&mut out, "em_serve_rejects_total");
        let slow = self.slow_requests.load(Ordering::Relaxed);
        let _ = writeln!(
            out,
            "# TYPE em_serve_slow_requests_total counter\nem_serve_slow_requests_total {slow}"
        );
        cache.render(&mut out, "em_serve", cache_len);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_fills_the_right_bucket() {
        let m = Metrics::new();
        m.record(Endpoint::Explain, 50, false); // <= 100
        m.record(Endpoint::Explain, 700, false); // <= 1000
        m.record(Endpoint::Explain, 10_000_000, true); // overflow bucket
        assert_eq!(m.requests(Endpoint::Explain), 3);
        let text = m.render(&Rejects::default(), &CacheStats::default(), 0);
        assert!(
            text.contains("em_serve_request_latency_us_bucket{endpoint=\"explain\",le=\"100\"} 1")
        );
        assert!(
            text.contains("em_serve_request_latency_us_bucket{endpoint=\"explain\",le=\"1000\"} 2")
        );
        assert!(
            text.contains("em_serve_request_latency_us_bucket{endpoint=\"explain\",le=\"+Inf\"} 3")
        );
        assert!(text.contains("em_serve_request_errors_total{endpoint=\"explain\"} 1"));
        assert!(text.contains("em_serve_request_latency_us_count{endpoint=\"explain\"} 3"));
    }

    #[test]
    fn buckets_are_cumulative_in_render() {
        let m = Metrics::new();
        for us in [50, 50, 400, 900, 4000] {
            m.record(Endpoint::Predict, us, false);
        }
        let text = m.render(&Rejects::default(), &CacheStats::default(), 0);
        assert!(
            text.contains("em_serve_request_latency_us_bucket{endpoint=\"predict\",le=\"100\"} 2")
        );
        assert!(
            text.contains("em_serve_request_latency_us_bucket{endpoint=\"predict\",le=\"500\"} 3")
        );
        assert!(
            text.contains("em_serve_request_latency_us_bucket{endpoint=\"predict\",le=\"1000\"} 4")
        );
        assert!(
            text.contains("em_serve_request_latency_us_bucket{endpoint=\"predict\",le=\"5000\"} 5")
        );
    }

    #[test]
    fn stage_histograms_render_per_stage_series() {
        use em_obs::{Stage, Tracer};
        let m = Metrics::new();
        let trace = em_obs::Collector::new();
        trace.record_stage(Stage::ModelScoring, 2_000_000); // 2000 us
        trace.record_stage(Stage::SurrogateFit, 50_000); // 50 us
        m.record_explain_stages(&trace);
        m.record_slow();
        let text = m.render(&Rejects::default(), &CacheStats::default(), 0);
        assert!(text
            .contains("em_serve_stage_latency_us_bucket{stage=\"model_scoring\",le=\"5000\"} 1"));
        assert!(text.contains("em_serve_stage_latency_us_sum{stage=\"model_scoring\"} 2000"));
        assert!(text.contains("em_serve_stage_latency_us_count{stage=\"model_scoring\"} 1"));
        assert!(text.contains("em_serve_stage_latency_us_count{stage=\"surrogate_fit\"} 1"));
        // Stages the request never entered still render (at zero).
        assert!(text.contains("em_serve_stage_latency_us_count{stage=\"tokenize\"} 0"));
        assert!(text.contains("em_serve_slow_requests_total 1"));
        assert_eq!(m.slow_requests(), 1);
    }

    #[test]
    fn cache_counters_are_rendered() {
        let m = Metrics::new();
        let stats = CacheStats::default();
        stats.hits.store(7, Ordering::Relaxed);
        stats.misses.store(3, Ordering::Relaxed);
        let text = m.render(&Rejects::default(), &stats, 5);
        assert!(text.contains("em_serve_cache_hits_total 7"));
        assert!(text.contains("em_serve_cache_misses_total 3"));
        assert!(text.contains("em_serve_cache_entries 5"));
    }

    #[test]
    fn rejects_render_per_cause_without_latency_samples() {
        let m = Metrics::new();
        let rejects = Rejects::default();
        rejects.record(RejectCause::Shed);
        rejects.record(RejectCause::Shed);
        rejects.record(RejectCause::HeaderDeadline);
        assert_eq!(rejects.get(RejectCause::Shed), 2);
        assert_eq!(rejects.get(RejectCause::HeaderDeadline), 1);
        let text = m.render(&rejects, &CacheStats::default(), 0);
        assert!(text.contains("# TYPE em_serve_rejects_total counter"));
        assert!(text.contains("em_serve_rejects_total{cause=\"shed\"} 2"));
        assert!(text.contains("em_serve_rejects_total{cause=\"header_deadline\"} 1"));
        // Every cause renders a series even at zero, so scrapers see the
        // full taxonomy from the first scrape.
        for cause in RejectCause::all() {
            assert!(text.contains(&format!(
                "em_serve_rejects_total{{cause=\"{}\"}}",
                cause.label()
            )));
        }
        // Regression (shed-path metrics pollution): a reject is not a
        // latency observation — no endpoint series moved.
        for ep in Endpoint::all() {
            assert_eq!(m.requests(ep), 0);
        }
        assert!(text.contains("em_serve_request_latency_us_count{endpoint=\"other\"} 0"));
    }

    #[test]
    fn every_endpoint_has_a_requests_series() {
        let text = Metrics::new().render(&Rejects::default(), &CacheStats::default(), 0);
        for ep in Endpoint::all() {
            assert!(text.contains(&format!(
                "em_serve_requests_total{{endpoint=\"{}\"}} 0",
                ep.label()
            )));
        }
    }
}
