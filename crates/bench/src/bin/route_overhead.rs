//! Router overhead and cache-affinity report for `em-route`.
//!
//! Spawns two serving topologies over the same trained matcher:
//!
//! * **direct** — one `em-serve` backend, driven straight;
//! * **routed** — three backends behind the `em-route` consistent-hash
//!   router, driven through the router.
//!
//! Each topology serves the same request set twice (cold, then cached);
//! every request carries its own seed, so every key is distinct. The
//! direct leg checks the cache itself: every cold request misses, every
//! cached one hits with the cold request's exact bytes, and `/metrics`
//! shows `em_serve_cache_hits_total`. The report gives per-phase p50/p99,
//! the router-added p50 on the cached
//! path (where proxy cost is not drowned by explanation compute), and the
//! cache-affinity hit rate: the fraction of repeated requests through the
//! router answered from a backend's warm cache. With keyed routing that
//! rate must be at least the single-backend baseline — the ring sends a
//! repeat to the same node that cached it.
//!
//! Reads `SCALE`/`SAMPLES`/`DATASETS` plus `REQUESTS` (default 20).
//!
//! Run with: `cargo run --release -p bench --bin route_overhead`

use em_codec::Value;
use em_datagen::MagellanBenchmark;
use em_entity::Schema;
use em_matchers::LogisticMatcher;
use em_route::{BackendSpec, Router, RouterConfig};
use em_serve::client;
use em_serve::{Server, ServerConfig};

fn spawn_backend(
    schema: &Schema,
    matcher: &LogisticMatcher,
    cache: usize,
) -> em_serve::ServerHandle {
    Server::bind(
        "127.0.0.1:0",
        schema.clone(),
        Box::new(matcher.clone()),
        ServerConfig {
            // One exact-LRU shard sized to the request set, so repeats
            // are hits whenever they reach the same backend.
            cache_capacity: cache.max(1),
            cache_shards: 1,
            ..Default::default()
        },
    )
    .expect("bind backend")
    .spawn()
}

fn main() {
    let base = bench::config_from_env();
    let id = bench::datasets_from_env()[0];
    let n_requests = bench::requests_from_env();

    let dataset = MagellanBenchmark {
        scale: base.scale,
        ..Default::default()
    }
    .generate(id);
    let schema = dataset.schema().clone();
    let matcher = LogisticMatcher::train(&dataset);

    let records = dataset.records();
    let bodies: Vec<String> = (0..n_requests)
        .map(|i| {
            let pair = &records[i % records.len()].pair;
            bench::explain_body(&schema, pair, base.n_samples, base.seed + i as u64)
        })
        .collect();

    // Baseline: one backend, driven directly.
    let direct = spawn_backend(&schema, &matcher, n_requests);
    let mut direct_cold = bench::drive(direct.addr(), &bodies);
    let mut direct_cached = bench::drive(direct.addr(), &bodies);
    assert!(
        direct_cold.cache.iter().all(|c| c == "miss"),
        "every cold request must miss: {:?}",
        direct_cold.cache
    );
    assert!(
        direct_cached.cache.iter().all(|c| c == "hit"),
        "every repeated request must hit: {:?}",
        direct_cached.cache
    );
    let metrics = client::request(direct.addr(), "GET", "/metrics", "").expect("metrics");
    assert!(
        metrics.body.contains("em_serve_cache_hits_total"),
        "/metrics lacks the cache-hit counter:\n{}",
        metrics.body
    );
    client::request(direct.addr(), "POST", "/shutdown", "").expect("shutdown direct");
    direct.join();
    let baseline_hit_rate = direct_cached.hits() as f64 / n_requests as f64;

    // Routed: three backends behind the consistent-hash router.
    let backends: Vec<_> = (0..3)
        .map(|_| spawn_backend(&schema, &matcher, n_requests))
        .collect();
    let specs: Vec<BackendSpec> = backends
        .iter()
        .enumerate()
        .map(|(i, b)| BackendSpec::new(format!("b{i}"), b.addr()))
        .collect();
    let router = Router::bind(
        "127.0.0.1:0",
        schema.clone(),
        specs,
        RouterConfig::default(),
    )
    .expect("bind router")
    .spawn();

    let mut routed_cold = bench::drive(router.addr(), &bodies);
    let mut routed_cached = bench::drive(router.addr(), &bodies);
    let affinity_hit_rate = routed_cached.hits() as f64 / n_requests as f64;

    client::request(router.addr(), "POST", "/shutdown", "").expect("shutdown router");
    router.join();
    for backend in backends {
        client::request(backend.addr(), "POST", "/shutdown", "").expect("shutdown backend");
        backend.join();
    }

    let identical = direct_cold.bodies == routed_cold.bodies
        && direct_cached.bodies == routed_cached.bodies
        && direct_cold.bodies == direct_cached.bodies;

    // `phase_report` sorts each pass's latencies in place.
    let phases = Value::Array(vec![
        bench::phase_report("direct_cold", &mut direct_cold.latencies_us),
        bench::phase_report("direct_cached", &mut direct_cached.latencies_us),
        bench::phase_report("routed_cold", &mut routed_cold.latencies_us),
        bench::phase_report("routed_cached", &mut routed_cached.latencies_us),
    ]);
    // Router-added latency is read off the cached path: both topologies
    // answer from a warm cache there, so the difference is proxy cost.
    let router_added_p50_us = bench::percentile(&routed_cached.latencies_us, 0.5) as i64
        - bench::percentile(&direct_cached.latencies_us, 0.5) as i64;

    let report = Value::object(vec![
        ("dataset", Value::string(id.short_name())),
        ("n_samples", base.n_samples.into()),
        ("backends", 3usize.into()),
        ("identical_bodies", identical.into()),
        ("baseline_cache_hit_rate", baseline_hit_rate.into()),
        ("affinity_cache_hit_rate", affinity_hit_rate.into()),
        (
            "router_added_p50_us",
            Value::Number(router_added_p50_us as f64),
        ),
        ("phases", phases),
    ]);
    bench::outln!("{}", report.to_json());
    assert!(
        identical,
        "routed bodies must be byte-identical to the direct run"
    );
    assert!(
        affinity_hit_rate >= baseline_hit_rate,
        "keyed routing must preserve the single-backend hit rate: \
         affinity {affinity_hit_rate} < baseline {baseline_hit_rate}"
    );
}
