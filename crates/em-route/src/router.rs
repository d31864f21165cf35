//! The reverse proxy: keyed forwarding, failover, and the admin
//! surface.
//!
//! The serving skeleton is `em-serve`'s [`Listener`], reused as a
//! library: its accept loop, bounded queue, worker pool, per-request
//! [`em_serve::deadline::Deadline`], shedding, and reject counters run
//! the router exactly as they run a backend, and the [`Router`] is the
//! [`Service`] plugged into it. What this crate adds is the routing
//! brain:
//!
//! 1. **Key** (`route_key` stage): decode the request with the *same*
//!    codec the backends use, compute the canonical key
//!    ([`em_codec::explain::cache_key`], or
//!    [`em_codec::explain::predict_key`] for `/predict`), and look up the
//!    owner on the ring. The codec resolves a request from its body
//!    alone, so the router and every backend compute one key for it with
//!    no setting to keep in step. Malformed requests are rejected here
//!    with the byte-same 400 body a backend would have produced — same
//!    decode functions, same error encoding.
//! 2. **Answer a repeat**: an `/explain` key the router has relayed a
//!    200 for is answered from its own [`ShardedCache`] — the stored
//!    bytes, `X-Cache: hit`, and `X-Backend` naming the backend that
//!    computed them — with no forward, whatever the backends' health.
//!    For a fleet serving one model a key's bytes are a pure function of
//!    the key, the same fact failover rests on. Only 200 answers to
//!    `/explain` are stored; `/predict` is forwarded every time.
//! 3. **Forward** (`route_forward` stage): exchange with the owner, on a
//!    kept-alive connection from that backend's [`client::Pool`] when one
//!    is idle. On a *connect* failure — nothing reached the backend —
//!    record the failure, back off, and retry against the next ring
//!    owner, bounded by [`RouterConfig::failover_retries`]. `/explain`
//!    and `/predict` are pure functions of their body, so replaying one
//!    elsewhere cannot change any answer; only connect failures trigger
//!    this (a timeout after connecting might mean the backend is
//!    mid-compute). A pooled connection the backend closed between
//!    requests is not a failure: the pool re-sends on a fresh connection,
//!    and a connect failure there fails over as above. A backend's idle
//!    connections are closed on a connect failure or timeout, when the
//!    health table ejects it, and when it is drained.
//! 4. **Attribute**: every attempt lands in
//!    `em_route_requests_total{backend,outcome}` and its pool use in
//!    `em_route_connections_total{backend,kind}`; the winning backend is
//!    named in the response's `X-Backend` header.

use std::net::{SocketAddr, ToSocketAddrs};
use std::time::Duration;

use em_codec::explain::{cache_key, decode_explain_request, decode_pair, predict_key};
use em_codec::Value;
use em_entity::Schema;
use em_obs::{Span, Stage};
use em_serve::cache::{self, ShardedCache};
use em_serve::client::{self, ClientError, ClientResponse, Pool, PoolUse};
use em_serve::http::{Request, Response};
use em_serve::{Listener, ServerHandle, Service};

use crate::health::{HealthConfig, HealthTable};
use crate::metrics::{ConnectionKind, Outcome, RouteEndpoint, RouterMetrics};
use crate::ring::{BackendSpec, Ring};

/// Router tunables.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Proxy workers; `0` means one per core.
    pub workers: usize,
    /// Accepted-but-unserved connections held before shedding with 503.
    pub queue_depth: usize,
    /// Total wall-clock budget for one client request (read + proxy +
    /// write).
    pub request_timeout: Duration,
    /// Connections queued longer than this are discarded unanswered.
    pub max_queue_age: Duration,
    /// Budget for one backend exchange: connect, request write and the
    /// whole response read together.
    pub backend_timeout: Duration,
    /// Additional ring owners tried after the first on connect failure.
    pub failover_retries: usize,
    /// Base backoff before each failover hop (doubles per hop).
    pub failover_backoff: Duration,
    /// Health-machine tunables (probing, ejection, recovery).
    pub health: HealthConfig,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            workers: 0,
            queue_depth: 128,
            request_timeout: Duration::from_secs(30),
            max_queue_age: Duration::from_secs(10),
            backend_timeout: Duration::from_secs(20),
            failover_retries: 2,
            failover_backoff: Duration::from_millis(20),
            health: HealthConfig::default(),
        }
    }
}

/// A relayed `/explain` 200: its body and the backend that computed it.
#[derive(Clone)]
struct Relayed {
    backend: usize,
    body: String,
}

/// A bound router. [`Router::run`] blocks until shutdown;
/// [`Router::spawn`] runs it on a background thread for tests.
pub struct Router {
    schema: Schema,
    backends: Vec<BackendSpec>,
    /// One idle-connection pool per backend, index-aligned with
    /// `backends`. A forward holds one connection at a time, so a pool
    /// never holds more than the router's worker count.
    pools: Vec<Pool>,
    ring: Ring,
    health: HealthTable,
    /// `/explain` 200s already relayed, by canonical key, at a backend
    /// cache's default size.
    cache: ShardedCache<Relayed>,
    metrics: RouterMetrics,
    config: RouterConfig,
    listener: Listener,
}

impl std::fmt::Debug for Router {
    // Manual impl: the router holds a schema and live tables; the
    // listener (address, sizing) and backend count are what a log line
    // needs.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("listener", &self.listener)
            .field("backends", &self.backends.len())
            .finish_non_exhaustive()
    }
}

impl Router {
    /// Binds the listener and assembles the routing state. Bind to port
    /// 0 for an ephemeral port (tests).
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        schema: Schema,
        backends: Vec<BackendSpec>,
        config: RouterConfig,
    ) -> std::io::Result<Router> {
        if backends.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "at least one backend is required",
            ));
        }
        let n = backends.len();
        Ok(Router {
            schema,
            ring: Ring::build(&backends),
            pools: backends.iter().map(|b| Pool::new(b.addr)).collect(),
            backends,
            health: HealthTable::new(n, config.health),
            cache: ShardedCache::new(cache::DEFAULT_CAPACITY, cache::DEFAULT_SHARDS),
            metrics: RouterMetrics::new(n),
            config,
            listener: Listener::bind(
                addr,
                em_par::worker_count(config.workers),
                config.queue_depth,
                config.request_timeout,
                config.max_queue_age,
            )?,
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Serves until a `POST /shutdown` arrives, then drains in-flight
    /// requests, stops the prober, and returns.
    pub fn run(self) {
        std::thread::scope(|scope| {
            scope.spawn(|| self.probe_until_shutdown());
            self.listener.run(&self);
        });
    }

    /// Runs the router on a background thread, returning a handle with
    /// the bound address.
    pub fn spawn(self) -> ServerHandle {
        ServerHandle::spawn(self.local_addr(), move || self.run())
    }

    /// Closes `backend`'s idle pooled connections.
    fn discard_idle(&self, backend: usize) {
        if let Some(pool) = self.pools.get(backend) {
            pool.discard_idle();
        }
    }

    /// The active prober: every `probe_interval`, exchanges `GET /healthz`
    /// with each backend and feeds the result into the health machine —
    /// so a dead backend is ejected (and a recovered one readmitted) even
    /// with no client traffic flowing. Probes use fresh connections, not
    /// the pool: they test that the backend accepts. Sleeps in short
    /// slices so shutdown is prompt.
    fn probe_until_shutdown(&self) {
        let interval = self.health.config().probe_interval;
        let timeout = self.health.config().probe_timeout;
        while !self.listener.is_shutting_down() {
            for (i, backend) in self.backends.iter().enumerate() {
                // Any answer, whatever its status, shows the backend up.
                match client::request_with_timeout(backend.addr, "GET", "/healthz", "", timeout) {
                    Ok(_) | Err(ClientError::Status(_)) => self.health.record_success(i),
                    Err(ClientError::Connect(_) | ClientError::Timeout(_)) => {
                        self.health.record_failure(i);
                        if !self.health.is_routable(i) {
                            self.discard_idle(i);
                        }
                    }
                    // Garbage on the health port is not a transport
                    // failure; leave the circuit alone and let real
                    // traffic decide.
                    Err(ClientError::Protocol(_)) => {}
                }
            }
            let mut slept = Duration::ZERO;
            while slept < interval && !self.listener.is_shutting_down() {
                let slice = Duration::from_millis(25).min(interval - slept);
                std::thread::sleep(slice);
                slept += slice;
            }
        }
    }
}

impl Service for Router {
    type Endpoint = RouteEndpoint;
    const UNPARSED: RouteEndpoint = RouteEndpoint::Admin;
    const OVERLOADED: &'static str = "router overloaded";

    /// Maps a request to (endpoint, response, initiate-shutdown).
    fn route(&self, request: &Request) -> (RouteEndpoint, Response, bool) {
        match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/explain") => (RouteEndpoint::Explain, proxy_explain(self, request), false),
            ("POST", "/predict") => (RouteEndpoint::Predict, proxy_predict(self, request), false),
            ("GET", "/healthz") => (
                RouteEndpoint::Admin,
                Response::json(
                    200,
                    Value::object(vec![("status", Value::string("ok"))]).to_json(),
                ),
                false,
            ),
            ("GET", "/metrics") => (
                RouteEndpoint::Admin,
                Response::text(200, render_metrics(self)),
                false,
            ),
            ("GET", "/ring") => (
                RouteEndpoint::Admin,
                Response::json(200, ring_json(self)),
                false,
            ),
            ("POST", "/drain") => (RouteEndpoint::Admin, handle_drain(self, request), false),
            ("POST", "/shutdown") => (
                RouteEndpoint::Admin,
                Response::json(
                    200,
                    Value::object(vec![("shutting_down", true.into())]).to_json(),
                ),
                true,
            ),
            (_, "/explain" | "/predict" | "/drain" | "/shutdown") => (
                RouteEndpoint::Admin,
                Response::error(405, "use POST"),
                false,
            ),
            (_, "/healthz" | "/metrics" | "/ring") => {
                (RouteEndpoint::Admin, Response::error(405, "use GET"), false)
            }
            _ => (
                RouteEndpoint::Admin,
                Response::error(404, "no such endpoint"),
                false,
            ),
        }
    }

    fn record(&self, endpoint: RouteEndpoint, latency_us: u64, _status: u16) {
        self.metrics.record_latency(endpoint, latency_us);
    }
}

/// Proxies `POST /explain`: decode with the backends' own codec and key;
/// answer a key already relayed from the router's cache, and forward any
/// other to the ring owner, keeping a 200.
fn proxy_explain(state: &Router, request: &Request) -> Response {
    let trace = em_obs::Collector::new();
    let key = {
        let _span = Span::enter(&trace, Stage::RouteKey);
        // The same decode the backend runs: a malformed body gets the
        // byte-identical 400 it would have gotten from `em-serve`.
        match decode_explain_request(&request.body, &state.schema) {
            Ok(decoded) => cache_key(&state.schema, &decoded),
            Err(msg) => return Response::error(400, &msg),
        }
    };
    let response = match state.cache.get(&key) {
        Some(hit) => Response::json(200, hit.body)
            .with_header("X-Cache", "hit")
            .with_header("X-Backend", backend_name(state, hit.backend)),
        None => match forward(state, &trace, &key, "/explain", &request.body) {
            Ok((backend, answer)) => {
                let response = passthrough(answer, backend_name(state, backend));
                if response.status == 200 {
                    let body = response.body.clone();
                    state.cache.insert(key, Relayed { backend, body });
                }
                response
            }
            Err(response) => response,
        },
    };
    state.metrics.record_stages(&trace);
    response
}

/// Proxies `POST /predict`, keyed by [`predict_key`].
fn proxy_predict(state: &Router, request: &Request) -> Response {
    let trace = em_obs::Collector::new();
    let key = {
        let _span = Span::enter(&trace, Stage::RouteKey);
        let root = match Value::parse(&request.body) {
            Ok(v) => v,
            Err(e) => return Response::error(400, &e.to_string()),
        };
        match decode_pair(&root, &state.schema) {
            Ok(pair) => predict_key(&state.schema, &pair),
            Err(msg) => return Response::error(400, &msg),
        }
    };
    let response = match forward(state, &trace, &key, "/predict", &request.body) {
        Ok((backend, answer)) => passthrough(answer, backend_name(state, backend)),
        Err(response) => response,
    };
    state.metrics.record_stages(&trace);
    response
}

/// Forwards `body` to the backends in ring order for `key`, failing over
/// past unroutable or connect-dead backends, bounded by the retry
/// budget. See the module docs for the failover policy. `Ok` carries the
/// backend that answered 2xx and its answer; `Err` is the response for
/// every other end.
fn forward(
    state: &Router,
    trace: &em_obs::Collector,
    key: &str,
    path: &str,
    body: &str,
) -> Result<(usize, ClientResponse), Response> {
    let _span = Span::enter(trace, Stage::RouteForward);
    let order = state.ring.owners(key);
    let mut hops = 0usize;
    for &backend in &order {
        if !state.health.is_routable(backend) {
            continue;
        }
        if hops > 0 {
            if hops > state.config.failover_retries {
                break;
            }
            state.metrics.record_failover();
            // Exponential backoff between hops: the first retry waits
            // one base unit, the next two, then four...
            let factor = 1u32 << (hops - 1).min(8);
            std::thread::sleep(state.config.failover_backoff.saturating_mul(factor));
        }
        let (Some(spec), Some(pool)) = (state.backends.get(backend), state.pools.get(backend))
        else {
            continue;
        };
        let (result, used) = pool.exchange("POST", path, body, state.config.backend_timeout);
        record_pool_use(state, backend, used);
        match result {
            Ok(response) => {
                state.health.record_success(backend);
                state.metrics.record_outcome(backend, Outcome::Ok);
                return Ok((backend, response));
            }
            Err(ClientError::Status(response)) => {
                // The backend is alive and said no: pass its answer
                // through verbatim; failing over would hide real errors
                // (and a 503 shed elsewhere would double load).
                state.health.record_success(backend);
                state.metrics.record_outcome(backend, Outcome::Status);
                return Err(passthrough(response, &spec.name));
            }
            Err(ClientError::Connect(_)) => {
                // Nothing reached the backend: eject-worthy and safe to
                // retry against the next ring owner. Its idle connections
                // lead to the same dead or saturated process.
                pool.discard_idle();
                state.health.record_failure(backend);
                state.metrics.record_outcome(backend, Outcome::ConnectError);
                hops += 1;
            }
            Err(ClientError::Timeout(_)) => {
                // The backend may be mid-compute; report gateway timeout
                // rather than replaying onto a healthy node.
                pool.discard_idle();
                state.health.record_failure(backend);
                state.metrics.record_outcome(backend, Outcome::Timeout);
                return Err(Response::error(504, "backend exchange timed out")
                    .with_header("X-Backend", &spec.name));
            }
            Err(ClientError::Protocol(_)) => {
                state
                    .metrics
                    .record_outcome(backend, Outcome::ProtocolError);
                return Err(Response::error(502, "backend spoke invalid HTTP")
                    .with_header("X-Backend", &spec.name));
            }
        }
    }
    state.metrics.record_no_backend();
    Err(Response::error(503, "no routable backend").with_header("Retry-After", "1"))
}

/// Counts how one forward used `backend`'s connection pool.
fn record_pool_use(state: &Router, backend: usize, used: PoolUse) {
    for (happened, kind) in [
        (used.opened, ConnectionKind::Opened),
        (used.reused, ConnectionKind::Reused),
        (used.stale, ConnectionKind::Stale),
    ] {
        if happened {
            state.metrics.record_connection(backend, kind);
        }
    }
}

/// The name of backend `index`, as `X-Backend` gives it.
fn backend_name(state: &Router, index: usize) -> &str {
    state.backends.get(index).map_or("?", |b| b.name.as_str())
}

/// Rebuilds a backend response for the client: same status, byte-same
/// body, the cache/timing headers preserved, plus `X-Backend` naming who
/// served it.
fn passthrough(mut response: ClientResponse, backend_name: &str) -> Response {
    let mut out = Response::json(response.status, std::mem::take(&mut response.body));
    for header in ["x-cache", "x-timing", "retry-after"] {
        if let Some(value) = response.header(header) {
            out = out.with_header(header, value);
        }
    }
    out.with_header("X-Backend", backend_name)
}

/// `GET /ring`: the ring's placement view joined with live health state.
fn ring_json(state: &Router) -> String {
    let base = state.ring.to_value(&state.backends);
    let entries: Vec<Value> = match base.get("backends").and_then(|b| b.as_array()) {
        Some(list) => list
            .iter()
            .enumerate()
            .map(|(i, entry)| {
                let mut fields: Vec<(String, Value)> =
                    entry.as_object().map(|f| f.to_vec()).unwrap_or_default();
                if let Some(snap) = state.health.snapshot(i) {
                    fields.push(("state".to_string(), Value::string(snap.state.label())));
                    fields.push(("draining".to_string(), snap.draining.into()));
                }
                Value::Object(fields)
            })
            .collect(),
        None => Vec::new(),
    };
    Value::object(vec![
        ("points", base.get("points").cloned().unwrap_or(Value::Null)),
        ("backends", Value::Array(entries)),
    ])
    .to_json()
}

/// `POST /drain`: body `{"backend": "<name>"}` (optionally
/// `"draining": false` to readmit; any value but a boolean is a 400
/// before anything changes). Marks the backend draining on the ring and
/// forwards the drain to the backend itself so its `/readyz` flips too.
fn handle_drain(state: &Router, request: &Request) -> Response {
    let root = match Value::parse(&request.body) {
        Ok(v) => v,
        Err(e) => return Response::error(400, &e.to_string()),
    };
    let Some(name) = root.get("backend").and_then(|v| v.as_str()) else {
        return Response::error(400, "missing field \"backend\"");
    };
    let draining = match root.get("draining").map(Value::as_bool) {
        None => true,
        Some(Some(draining)) => draining,
        Some(None) => return Response::error(400, "\"draining\" must be a boolean"),
    };
    let Some(backend) = state.backends.iter().position(|b| b.name == name) else {
        return Response::error(404, &format!("unknown backend {name:?}"));
    };
    state.health.set_draining(backend, draining);
    if draining {
        state.discard_idle(backend);
    }
    // Best-effort: tell the backend so its own /readyz reports draining.
    // Readmission is router-side only (em-serve draining is one-way by
    // design — a drained node restarts to rejoin).
    let acknowledged = draining
        && state
            .backends
            .get(backend)
            .map(|spec| {
                client::request_with_timeout(
                    spec.addr,
                    "POST",
                    "/drain",
                    "",
                    state.health.config().probe_timeout,
                )
                .is_ok_and(|response| (200..300).contains(&response.status))
            })
            .unwrap_or(false);
    Response::json(
        200,
        Value::object(vec![
            ("backend", Value::string(name)),
            ("draining", draining.into()),
            ("backend_acknowledged", acknowledged.into()),
        ])
        .to_json(),
    )
}

/// `GET /metrics`: the counter/histogram registry plus a live
/// `em_route_backend_state` gauge per backend.
fn render_metrics(state: &Router) -> String {
    let names: Vec<&str> = state.backends.iter().map(|b| b.name.as_str()).collect();
    let mut out = state.metrics.render(
        &names,
        state.listener.rejects(),
        state.cache.stats(),
        state.cache.len(),
    );
    out.push_str("# TYPE em_route_backend_routable gauge\n");
    for (i, backend) in state.backends.iter().enumerate() {
        let snap = state.health.snapshot(i);
        let routable =
            snap.is_some_and(|s| !s.draining && s.state != crate::health::HealthState::Unhealthy);
        out.push_str(&format!(
            "em_route_backend_routable{{backend=\"{}\",state=\"{}\",draining=\"{}\"}} {}\n",
            backend.name,
            snap.map_or("unknown", |s| s.state.label()),
            snap.is_some_and(|s| s.draining),
            u8::from(routable),
        ));
    }
    out
}
