//! `em-serve` — an online explanation-serving subsystem.
//!
//! Turns the workspace's explainers into a network service: a
//! dependency-free HTTP/1.1 server on `std::net` exposing
//!
//! * `POST /explain` — record pair + explainer choice + config overrides →
//!   explanation JSON, answered from a sharded LRU cache when possible
//!   (`X-Cache: hit|miss`); cached and fresh responses are bit-identical
//!   because explanations are deterministic functions of
//!   `(pair, explainer, config, seed)`. Each response carries an
//!   `X-Timing` header with the request's per-stage breakdown (an
//!   `em-obs` trace; DESIGN.md §10), and requests slower than
//!   [`ServerConfig::slow_request_ms`] are logged to stderr;
//! * `POST /predict` — record pair → match probability + decision;
//! * `GET /healthz` — liveness;
//! * `GET /readyz` — readiness: `200` while accepting, `503` (with the
//!   current queue depth) once the node is draining;
//! * `GET /metrics` — Prometheus text: per-endpoint request counters and
//!   latency histograms, per-pipeline-stage latency histograms
//!   (`em_serve_stage_latency_us`), slow-request and cache counters;
//! * `POST /drain` — mark the node draining (readiness goes red, liveness
//!   stays green) so routers stop sending while in-flight work finishes;
//! * `POST /shutdown` — graceful stop (in-flight requests drain).
//!
//! The connection lifecycle — accept loop, bounded queue, worker pool
//! built on `em_par::scoped_workers` and sized by
//! [`em_par::ParallelismConfig`] — is the [`Listener`], shared with the
//! `em-route` tier: each tier only implements [`Service`]. JSON and the
//! explanation codec come from `em-codec`, so the crate adds no
//! dependencies beyond the workspace.
//!
//! The request lifecycle is hardened against misbehaving clients
//! (DESIGN.md §14): each request runs under a [`Deadline`] bounding
//! total read + write time regardless of how the peer drips bytes, a
//! kept-alive connection holds its worker only while no other connection
//! waits, queued connections past an admission age bound are discarded,
//! overload shedding never blocks the accept loop, and every rejection is
//! attributed to a cause in `em_serve_rejects_total{cause=...}`.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![deny(clippy::unwrap_used)]

pub mod cache;
pub mod client;
pub mod deadline;
pub mod http;
pub mod listener;
pub mod metrics;
pub mod pool;
pub mod server;

pub use cache::{CacheStats, ShardedCache};
pub use client::{ClientError, ClientResponse};
pub use deadline::{Deadline, DeadlineStream};
pub use listener::{Listener, ServerHandle, Service};
pub use metrics::{Endpoint, Metrics, RejectCause, Rejects};
pub use server::{Server, ServerConfig};
