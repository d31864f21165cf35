//! The explanation server: the em-serve [`Service`] on the shared
//! [`Listener`] lifecycle.
//!
//! Accepting, queueing, shedding, deadlines, reject attribution, and
//! shutdown live in [`crate::listener`] (DESIGN.md §14); this module
//! routes each parsed request to its handler — explain (cached), predict,
//! health, readiness, metrics, drain, shutdown — and records its latency.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use em_codec::explain::{self as codec, ExplainOptions};
use em_codec::Value;
use em_entity::{MatchModel, Schema};
use em_obs::Tracer;
use em_par::ParallelismConfig;

use crate::cache::ShardedCache;
use crate::http::{Request, Response};
use crate::listener::{Listener, ServerHandle, Service};
use crate::metrics::{Endpoint, Metrics};

/// Server tunables.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker-pool sizing; `worker_count()` resolves `threads: 0` to the
    /// core count.
    pub parallelism: ParallelismConfig,
    /// Accepted-but-unserved connections held before shedding with 503.
    pub queue_depth: usize,
    /// Explanation-cache capacity (entries).
    pub cache_capacity: usize,
    /// Explanation-cache shard count.
    pub cache_shards: usize,
    /// Default explainer options, overridable per request via `"config"`.
    pub defaults: ExplainOptions,
    /// Decision threshold for `POST /predict`.
    pub predict_threshold: f64,
    /// An `/explain` request slower than this (wall-clock, milliseconds)
    /// is logged to stderr with its stage breakdown and counted in
    /// `em_serve_slow_requests_total`. `None` disables slow-request
    /// logging entirely.
    pub slow_request_ms: Option<u64>,
    /// Total wall-clock budget for one request: reading it (however
    /// slowly the client drips it), computing, and writing the response
    /// all share this one deadline. A connection's first request counts
    /// from the moment a worker picks the connection up; a later one on a
    /// kept-alive connection counts from its first byte.
    pub request_timeout: Duration,
    /// Admission bound: a connection that waited in the queue longer
    /// than this is discarded unanswered — its client has almost
    /// certainly timed out, and serving it would waste compute.
    pub max_queue_age: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            parallelism: ParallelismConfig::auto(),
            queue_depth: 64,
            cache_capacity: 1024,
            cache_shards: 8,
            defaults: ExplainOptions::default(),
            predict_threshold: 0.5,
            slow_request_ms: Some(1_000),
            request_timeout: Duration::from_secs(30),
            max_queue_age: Duration::from_secs(10),
        }
    }
}

/// A bound explanation server. [`Server::run`] blocks until shutdown;
/// [`Server::spawn`] runs it on a background thread for tests.
pub struct Server {
    schema: Schema,
    model: Box<dyn MatchModel + Send + Sync>,
    cache: ShardedCache,
    metrics: Metrics,
    defaults: ExplainOptions,
    predict_threshold: f64,
    slow_request_ms: Option<u64>,
    /// Set by `POST /drain`: the node keeps serving, but `GET /readyz`
    /// answers 503 so a routing tier stops sending it new traffic.
    draining: AtomicBool,
    listener: Listener,
}

impl std::fmt::Debug for Server {
    // Manual impl: the model is a `Box<dyn MatchModel>`, which cannot be
    // printed; the listener (address, sizing) is what a log line needs.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("listener", &self.listener)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds the listener and assembles the server state. Bind to port 0
    /// for an ephemeral port (tests).
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        schema: Schema,
        model: Box<dyn MatchModel + Send + Sync>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        Ok(Server {
            schema,
            model,
            cache: ShardedCache::new(config.cache_capacity, config.cache_shards),
            metrics: Metrics::new(),
            defaults: config.defaults,
            predict_threshold: config.predict_threshold,
            slow_request_ms: config.slow_request_ms,
            draining: AtomicBool::new(false),
            listener: Listener::bind(
                addr,
                config.parallelism.worker_count(),
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
    /// requests and returns.
    pub fn run(self) {
        self.listener.run(&self);
    }

    /// Runs the server on a background thread, returning a handle with the
    /// bound address.
    pub fn spawn(self) -> ServerHandle {
        ServerHandle::spawn(self.local_addr(), move || self.run())
    }
}

impl Service for Server {
    type Endpoint = Endpoint;
    const UNPARSED: Endpoint = Endpoint::Other;
    const OVERLOADED: &'static str = "server overloaded";

    /// Maps a request to (endpoint, response, initiate-shutdown).
    fn route(&self, request: &Request) -> (Endpoint, Response, bool) {
        match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/explain") => (Endpoint::Explain, handle_explain(self, request), false),
            ("POST", "/predict") => (Endpoint::Predict, handle_predict(self, request), false),
            ("GET", "/healthz") => (
                Endpoint::Healthz,
                Response::json(
                    200,
                    Value::object(vec![("status", Value::string("ok"))]).to_json(),
                ),
                false,
            ),
            ("GET", "/readyz") => (Endpoint::Readyz, handle_readyz(self), false),
            ("GET", "/metrics") => (
                Endpoint::Metrics,
                Response::text(
                    200,
                    self.metrics.render(
                        self.listener.rejects(),
                        self.cache.stats(),
                        self.cache.len(),
                    ),
                ),
                false,
            ),
            ("POST", "/drain") => {
                self.draining.store(true, Ordering::SeqCst);
                (
                    Endpoint::Drain,
                    Response::json(
                        200,
                        Value::object(vec![("draining", true.into())]).to_json(),
                    ),
                    false,
                )
            }
            ("POST", "/shutdown") => (
                Endpoint::Shutdown,
                Response::json(
                    200,
                    Value::object(vec![("shutting_down", true.into())]).to_json(),
                ),
                true,
            ),
            (_, "/explain" | "/predict" | "/drain" | "/shutdown") => {
                (Endpoint::Other, Response::error(405, "use POST"), false)
            }
            (_, "/healthz" | "/readyz" | "/metrics") => {
                (Endpoint::Other, Response::error(405, "use GET"), false)
            }
            _ => (
                Endpoint::Other,
                Response::error(404, "no such endpoint"),
                false,
            ),
        }
    }

    fn record(&self, endpoint: Endpoint, latency_us: u64, status: u16) {
        self.metrics.record(endpoint, latency_us, status >= 400);
    }
}

/// `GET /readyz`: readiness, as distinct from `/healthz` liveness. A
/// draining node (after `POST /drain`) is alive — it still answers
/// in-flight and direct traffic — but not *ready*: it answers 503 here so
/// a routing tier stops assigning it new keys before the queue ever
/// sheds. The body always reports the draining flag and the current
/// accept-queue depth so operators can watch a drain complete.
fn handle_readyz(state: &Server) -> Response {
    let draining = state.draining.load(Ordering::SeqCst);
    let body = Value::object(vec![
        ("ready", (!draining).into()),
        ("draining", draining.into()),
        ("queue_depth", state.listener.queue_len().into()),
    ])
    .to_json();
    Response::json(if draining { 503 } else { 200 }, body)
}

fn handle_explain(state: &Server, request: &Request) -> Response {
    let start = Instant::now(); // em-lint: allow(nondet-taint) -- latency for the X-Compute-Micros header and metrics only; never touches explanation bytes
    let mut decoded =
        match codec::decode_explain_request(&request.body, &state.schema, &state.defaults) {
            Ok(d) => d,
            Err(msg) => return Response::error(400, &msg),
        };
    decoded.options.threads = request_threads(decoded.options.threads, state.listener.workers());
    let key = codec::cache_key(&state.schema, &decoded);
    let trace = em_obs::Collector::new();
    let (body, cache_state) = match state.cache.get(&key) {
        // The cached body is bit-identical to a fresh computation (the
        // explanation is a deterministic function of the key), so only the
        // X-Cache header distinguishes this path.
        Some(body) => {
            trace.add(em_obs::Counter::CacheHits, 1);
            (body, "hit")
        }
        None => {
            trace.add(em_obs::Counter::CacheMisses, 1);
            let body = codec::run_explain(&state.model, &state.schema, &decoded, &trace).to_json();
            state.cache.insert(key, body.clone());
            (body, "miss")
        }
    };
    state.metrics.record_explain_stages(&trace);
    let total_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    let timing = timing_header(total_us, &trace);
    if state
        .slow_request_ms
        .is_some_and(|ms| total_us > ms.saturating_mul(1_000))
    {
        state.metrics.record_slow();
        eprintln!("em-serve: slow request POST /explain ({timing})");
    }
    Response::json(200, body)
        .with_header("X-Cache", cache_state)
        .with_header("X-Timing", &timing)
}

/// The scoring threads one `/explain` may use: `0` (auto) and any count
/// above the worker pool mean the pool size. Every thread count gives the
/// same bytes (DESIGN.md §7), so this bounds how far one request fans
/// out, never what it answers.
fn request_threads(requested: usize, workers: usize) -> usize {
    match requested {
        0 => workers,
        n => n.min(workers),
    }
}

/// Formats the `X-Timing` header: total handler wall-clock plus one
/// `stage=<n>us` entry for every pipeline stage the request entered (a
/// cache hit therefore reports only `total`).
fn timing_header(total_us: u64, trace: &em_obs::Collector) -> String {
    use std::fmt::Write as _;
    let mut out = format!("total={total_us}us");
    for (stage, us) in trace.entered_stages_us() {
        let _ = write!(out, "; {}={us}us", stage.label());
    }
    out
}

fn handle_predict(state: &Server, request: &Request) -> Response {
    let root = match Value::parse(&request.body) {
        Ok(v) => v,
        Err(e) => return Response::error(400, &e.to_string()),
    };
    let pair = match codec::decode_pair(&root, &state.schema) {
        Ok(p) => p,
        Err(msg) => return Response::error(400, &msg),
    };
    let probability = state.model.predict_proba(&state.schema, &pair);
    Response::json(
        200,
        codec::encode_prediction(probability, state.predict_threshold).to_json(),
    )
}

#[cfg(test)]
mod tests {
    use super::request_threads;

    #[test]
    fn request_threads_are_clamped_to_the_worker_pool() {
        assert_eq!(request_threads(0, 4), 4);
        assert_eq!(request_threads(1, 4), 1);
        assert_eq!(request_threads(3, 4), 3);
        assert_eq!(request_threads(4, 4), 4);
        assert_eq!(request_threads(1024, 4), 4);
        assert_eq!(request_threads(0, 1), 1);
        assert_eq!(request_threads(1024, 1), 1);
    }
}
