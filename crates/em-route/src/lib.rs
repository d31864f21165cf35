//! `em-route` — the consistent-hash routing tier for multi-backend
//! explanation serving.
//!
//! One `em-serve` node multiplies its throughput with a sharded response
//! cache; N nodes only multiply the *aggregate* hit rate if the same
//! request reliably lands on the same node's warm cache. This crate is
//! the tier that makes that true: an HTTP/1.1 reverse proxy that routes
//! `POST /explain` and `POST /predict` by a consistent-hash ring keyed on
//! the **same canonical cache key** the backends compute
//! ([`em_codec::explain::cache_key`], hashed with [`em_codec::hash`]) —
//! router and backend agree byte-for-byte on where a key lives, so cache
//! affinity is a property of the key, not of luck (DESIGN.md §15).
//!
//! * [`ring`] — the weighted ring: virtual nodes placed by deterministic
//!   FNV-1a hashing, binary-search ownership, minimal remapping when a
//!   backend leaves;
//! * [`health`] — per-backend health: active `/healthz` probing, passive
//!   ejection on connect/timeout errors, half-open recovery, draining;
//! * [`metrics`] — the router's own Prometheus surface:
//!   `em_route_requests_total{backend,outcome}`,
//!   `em_route_connections_total{backend,kind}`, the shared
//!   `em_route_rejects_total{cause}` taxonomy, and latency and stage
//!   histograms;
//! * [`router`] — the proxy itself: keyed forwarding over a pool of
//!   kept-alive connections per backend, with bounded
//!   retry-with-backoff failover (connect failures only — the requests
//!   are pure, so replaying one elsewhere cannot change any answer), the
//!   admin endpoints `GET /ring` and `POST /drain`, and the active health
//!   prober.
//!
//! The connection lifecycle is `em-serve`'s own: the [`Router`] is an
//! [`em_serve::Service`] on an [`em_serve::Listener`], the one accept
//! loop, bounded queue, worker pool, per-request deadline, shedding
//! path, and reject-counter table both tiers run. With the HTTP
//! reader/writer and the typed client and its connection pool, that
//! machinery is reused as a library, not copied; the crate adds no
//! dependencies beyond the workspace.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![deny(clippy::unwrap_used)]

pub mod health;
pub mod metrics;
pub mod ring;
pub mod router;

pub use health::{HealthConfig, HealthState, HealthTable};
pub use metrics::{Outcome, RouterMetrics};
pub use ring::{BackendSpec, Ring};
pub use router::{Router, RouterConfig};
