//! The router's own Prometheus surface.
//!
//! Every proxied *attempt* is attributed to a `(backend, outcome)` cell
//! of `em_route_requests_total` — a request that fails over therefore
//! leaves a visible trail: one `connect_error` on the dead backend and
//! one `ok` on the survivor that absorbed it. How each attempt used the
//! backend's connection pool lands in
//! `em_route_connections_total{backend,kind}`. Router-level events that
//! have no backend (nothing routable) get their own counters, and
//! rejected connections render from the shared listener's
//! [`Rejects`] as `em_route_rejects_total{cause}` — the same taxonomy
//! `em-serve` exposes. Latency histograms are [`em_obs::Histogram`]s, the
//! backends' own type and bucket layout, so the two tiers' dashboards
//! line up, and the proxy path's `route_key` / `route_forward` stages
//! ([`em_obs::Stage`]) render as stage histograms exactly like the
//! backends' pipeline stages do.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use em_obs::Histogram;
use em_serve::Rejects;

/// The outcome of one proxied attempt against one backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// 2xx answer proxied through.
    Ok,
    /// Backend answered non-2xx; passed through verbatim (not a failure
    /// of the backend — it said no).
    Status,
    /// Connect refused/unreachable/timed out: nothing reached the
    /// backend; the request is eligible for failover.
    ConnectError,
    /// The exchange timed out after connecting; answered 504.
    Timeout,
    /// The backend spoke something that was not HTTP; answered 502.
    ProtocolError,
}

/// Number of [`Outcome`] variants (array-table size).
pub const N_OUTCOMES: usize = 5;

impl Outcome {
    /// All outcomes, in render order.
    pub const fn all() -> [Outcome; N_OUTCOMES] {
        [
            Outcome::Ok,
            Outcome::Status,
            Outcome::ConnectError,
            Outcome::Timeout,
            Outcome::ProtocolError,
        ]
    }

    /// The `outcome` label value.
    pub const fn label(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Status => "status",
            Outcome::ConnectError => "connect_error",
            Outcome::Timeout => "timeout",
            Outcome::ProtocolError => "protocol_error",
        }
    }

    /// Dense index for array-backed tables.
    pub const fn index(self) -> usize {
        match self {
            Outcome::Ok => 0,
            Outcome::Status => 1,
            Outcome::ConnectError => 2,
            Outcome::Timeout => 3,
            Outcome::ProtocolError => 4,
        }
    }
}

/// How one forward used its backend's connection pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectionKind {
    /// A fresh connection was opened.
    Opened,
    /// The answer came back on a pooled connection.
    Reused,
    /// A pooled connection was found closed and the request was re-sent
    /// on a fresh one.
    Stale,
}

/// Number of [`ConnectionKind`] variants (array-table size).
pub const N_CONNECTION_KINDS: usize = 3;

impl ConnectionKind {
    /// All kinds, in render order.
    pub const fn all() -> [ConnectionKind; N_CONNECTION_KINDS] {
        [
            ConnectionKind::Opened,
            ConnectionKind::Reused,
            ConnectionKind::Stale,
        ]
    }

    /// The `kind` label value.
    pub const fn label(self) -> &'static str {
        match self {
            ConnectionKind::Opened => "opened",
            ConnectionKind::Reused => "reused",
            ConnectionKind::Stale => "stale",
        }
    }

    /// Dense index for array-backed tables.
    pub const fn index(self) -> usize {
        match self {
            ConnectionKind::Opened => 0,
            ConnectionKind::Reused => 1,
            ConnectionKind::Stale => 2,
        }
    }
}

/// The router endpoints tracked with latency histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteEndpoint {
    /// Proxied `POST /explain`.
    Explain,
    /// Proxied `POST /predict`.
    Predict,
    /// Everything the router answers itself (`/healthz`, `/metrics`,
    /// `/ring`, `/drain`, `/shutdown`, and errors).
    Admin,
}

/// Number of [`RouteEndpoint`] variants (array-table size).
pub const N_ROUTE_ENDPOINTS: usize = 3;

impl RouteEndpoint {
    /// All endpoints, in render order.
    pub const fn all() -> [RouteEndpoint; N_ROUTE_ENDPOINTS] {
        [
            RouteEndpoint::Explain,
            RouteEndpoint::Predict,
            RouteEndpoint::Admin,
        ]
    }

    /// The `endpoint` label value.
    pub const fn label(self) -> &'static str {
        match self {
            RouteEndpoint::Explain => "explain",
            RouteEndpoint::Predict => "predict",
            RouteEndpoint::Admin => "admin",
        }
    }

    /// Dense index for array-backed tables.
    pub const fn index(self) -> usize {
        match self {
            RouteEndpoint::Explain => 0,
            RouteEndpoint::Predict => 1,
            RouteEndpoint::Admin => 2,
        }
    }
}

/// The registry: `(backend, outcome)` and `(backend, connection kind)`
/// counters, per-endpoint latency, per-stage latency, and the
/// router-level event counters.
#[derive(Debug)]
pub struct RouterMetrics {
    backends: Vec<[AtomicU64; N_OUTCOMES]>,
    connections: Vec<[AtomicU64; N_CONNECTION_KINDS]>,
    endpoints: [Histogram; N_ROUTE_ENDPOINTS],
    stages: [Histogram; 2],
    failovers: AtomicU64,
    no_backend: AtomicU64,
}

/// The two proxy stages with histograms, in render order.
const ROUTE_STAGES: [em_obs::Stage; 2] = [em_obs::Stage::RouteKey, em_obs::Stage::RouteForward];

impl RouterMetrics {
    /// A fresh registry for `n_backends` backends, all counters zero.
    pub fn new(n_backends: usize) -> RouterMetrics {
        RouterMetrics {
            backends: (0..n_backends).map(|_| Default::default()).collect(),
            connections: (0..n_backends).map(|_| Default::default()).collect(),
            endpoints: Default::default(),
            stages: Default::default(),
            failovers: AtomicU64::new(0),
            no_backend: AtomicU64::new(0),
        }
    }

    fn outcome_cell(&self, backend: usize, outcome: Outcome) -> Option<&AtomicU64> {
        self.backends.get(backend)?.get(outcome.index())
    }

    /// Counts one attempt outcome against one backend.
    pub fn record_outcome(&self, backend: usize, outcome: Outcome) {
        if let Some(cell) = self.outcome_cell(backend, outcome) {
            cell.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Attempts recorded for `(backend, outcome)`.
    pub fn outcome(&self, backend: usize, outcome: Outcome) -> u64 {
        self.outcome_cell(backend, outcome)
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }

    fn connection_cell(&self, backend: usize, kind: ConnectionKind) -> Option<&AtomicU64> {
        self.connections.get(backend)?.get(kind.index())
    }

    /// Counts one use of `backend`'s connection pool.
    pub fn record_connection(&self, backend: usize, kind: ConnectionKind) {
        if let Some(cell) = self.connection_cell(backend, kind) {
            cell.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Pool uses recorded for `(backend, kind)`.
    pub fn connections(&self, backend: usize, kind: ConnectionKind) -> u64 {
        self.connection_cell(backend, kind)
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }

    /// Observes one request's total router latency for an endpoint.
    pub fn record_latency(&self, endpoint: RouteEndpoint, us: u64) {
        if let Some(histogram) = self.endpoints.get(endpoint.index()) {
            histogram.observe(us);
        }
    }

    /// Folds one request's `route_key` / `route_forward` span totals (an
    /// [`em_obs::Collector`] filled on the proxy path) into the stage
    /// histograms.
    pub fn record_stages(&self, trace: &em_obs::Collector) {
        for (slot, stage) in self.stages.iter().zip(ROUTE_STAGES) {
            if trace.stage_entries(stage) > 0 {
                slot.observe(trace.stage_nanos(stage) / 1_000);
            }
        }
    }

    /// Counts one failover hop (a retry against the next ring owner).
    pub fn record_failover(&self) {
        self.failovers.fetch_add(1, Ordering::Relaxed);
    }

    /// Failover hops counted so far.
    pub fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }

    /// Counts one request that found no routable backend (answered 503).
    pub fn record_no_backend(&self) {
        self.no_backend.fetch_add(1, Ordering::Relaxed);
    }

    /// Renders the Prometheus text exposition. `names[i]` labels backend
    /// `i`; `rejects` are the listener's reject counters; extra series
    /// (probe state) are appended by the caller.
    pub fn render(&self, names: &[&str], rejects: &Rejects) -> String {
        let mut out = String::new();
        out.push_str("# TYPE em_route_requests_total counter\n");
        for (i, outcomes) in self.backends.iter().enumerate() {
            let name = names.get(i).copied().unwrap_or("?");
            for (outcome, cell) in Outcome::all().into_iter().zip(outcomes) {
                let _ = writeln!(
                    out,
                    "em_route_requests_total{{backend=\"{name}\",outcome=\"{}\"}} {}",
                    outcome.label(),
                    cell.load(Ordering::Relaxed),
                );
            }
        }
        out.push_str("# TYPE em_route_connections_total counter\n");
        for (i, kinds) in self.connections.iter().enumerate() {
            let name = names.get(i).copied().unwrap_or("?");
            for (kind, cell) in ConnectionKind::all().into_iter().zip(kinds) {
                let _ = writeln!(
                    out,
                    "em_route_connections_total{{backend=\"{name}\",kind=\"{}\"}} {}",
                    kind.label(),
                    cell.load(Ordering::Relaxed),
                );
            }
        }
        for (name, counter) in [
            ("em_route_failovers_total", &self.failovers),
            ("em_route_no_backend_total", &self.no_backend),
        ] {
            let value = counter.load(Ordering::Relaxed);
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {value}");
        }
        rejects.render(&mut out, "em_route_rejects_total");
        out.push_str("# TYPE em_route_request_latency_us histogram\n");
        for (endpoint, histogram) in RouteEndpoint::all().into_iter().zip(&self.endpoints) {
            histogram.render(
                &mut out,
                "em_route_request_latency_us",
                "endpoint",
                endpoint.label(),
            );
        }
        out.push_str("# TYPE em_route_stage_latency_us histogram\n");
        for (stage, histogram) in ROUTE_STAGES.into_iter().zip(&self.stages) {
            histogram.render(
                &mut out,
                "em_route_stage_latency_us",
                "stage",
                stage.label(),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcomes_are_attributed_per_backend() {
        let m = RouterMetrics::new(2);
        m.record_outcome(0, Outcome::Ok);
        m.record_outcome(0, Outcome::Ok);
        m.record_outcome(1, Outcome::ConnectError);
        m.record_outcome(7, Outcome::Ok); // unknown backend: dropped, not a panic
        assert_eq!(m.outcome(0, Outcome::Ok), 2);
        assert_eq!(m.outcome(1, Outcome::ConnectError), 1);
        let text = m.render(&["alpha", "beta"], &Rejects::default());
        assert!(text.contains("em_route_requests_total{backend=\"alpha\",outcome=\"ok\"} 2"));
        assert!(
            text.contains("em_route_requests_total{backend=\"beta\",outcome=\"connect_error\"} 1")
        );
        // Every (backend, outcome) cell renders even at zero.
        assert!(text.contains("em_route_requests_total{backend=\"beta\",outcome=\"timeout\"} 0"));
    }

    #[test]
    fn connection_uses_are_attributed_per_backend() {
        let m = RouterMetrics::new(2);
        m.record_connection(0, ConnectionKind::Opened);
        m.record_connection(0, ConnectionKind::Reused);
        m.record_connection(0, ConnectionKind::Reused);
        m.record_connection(1, ConnectionKind::Stale);
        m.record_connection(5, ConnectionKind::Opened); // unknown backend: dropped
        assert_eq!(m.connections(0, ConnectionKind::Reused), 2);
        assert_eq!(m.connections(1, ConnectionKind::Stale), 1);
        let text = m.render(&["alpha", "beta"], &Rejects::default());
        assert!(text.contains("em_route_connections_total{backend=\"alpha\",kind=\"reused\"} 2"));
        assert!(text.contains("em_route_connections_total{backend=\"beta\",kind=\"opened\"} 0"));
    }

    #[test]
    fn latency_histograms_render_cumulative_buckets() {
        let m = RouterMetrics::new(1);
        m.record_latency(RouteEndpoint::Explain, 50);
        m.record_latency(RouteEndpoint::Explain, 700);
        let text = m.render(&["a"], &Rejects::default());
        assert!(
            text.contains("em_route_request_latency_us_bucket{endpoint=\"explain\",le=\"100\"} 1")
        );
        assert!(
            text.contains("em_route_request_latency_us_bucket{endpoint=\"explain\",le=\"1000\"} 2")
        );
        assert!(
            text.contains("em_route_request_latency_us_bucket{endpoint=\"explain\",le=\"+Inf\"} 2")
        );
        assert!(text.contains("em_route_request_latency_us_count{endpoint=\"explain\"} 2"));
    }

    #[test]
    fn stage_histograms_fold_a_collector() {
        use em_obs::Tracer;
        let m = RouterMetrics::new(1);
        let trace = em_obs::Collector::new();
        trace.record_stage(em_obs::Stage::RouteKey, 40_000); // 40 us
        trace.record_stage(em_obs::Stage::RouteForward, 2_000_000); // 2000 us
        m.record_stages(&trace);
        let text = m.render(&["a"], &Rejects::default());
        assert!(text.contains("em_route_stage_latency_us_count{stage=\"route_key\"} 1"));
        assert!(text.contains("em_route_stage_latency_us_sum{stage=\"route_forward\"} 2000"));
    }

    #[test]
    fn router_level_counters_render() {
        let m = RouterMetrics::new(1);
        m.record_failover();
        m.record_no_backend();
        let rejects = Rejects::default();
        rejects.record(em_serve::RejectCause::Shed);
        rejects.record(em_serve::RejectCause::Idle);
        let text = m.render(&["a"], &rejects);
        assert!(text.contains("em_route_failovers_total 1"));
        assert!(text.contains("em_route_no_backend_total 1"));
        assert!(text.contains("em_route_rejects_total{cause=\"shed\"} 1"));
        assert!(text.contains("em_route_rejects_total{cause=\"idle\"} 1"));
        assert!(text.contains("em_route_rejects_total{cause=\"peer_abort\"} 0"));
        assert_eq!(m.failovers(), 1);
    }
}
