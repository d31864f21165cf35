//! Router overhead and cache-affinity report for `em-route`.
//!
//! Spawns two serving topologies over the same trained matcher:
//!
//! * **direct** — one `em-serve` backend, driven straight;
//! * **routed** — three backends behind the `em-route` consistent-hash
//!   router, driven through the router.
//!
//! Each topology serves the same request set twice (cold, then cached).
//! The report gives per-phase p50/p99, the router-added p50 on the cached
//! path (where proxy cost is not drowned by explanation compute), and the
//! cache-affinity hit rate: the fraction of repeated requests through the
//! router answered from a backend's warm cache. With keyed routing that
//! rate must be at least the single-backend baseline — the ring sends a
//! repeat to the same node that cached it.
//!
//! Reads `SCALE`/`SAMPLES`/`DATASETS` plus `REQUESTS` (default 20).
//!
//! Run with: `cargo run --release -p bench --bin route_overhead`

use std::net::SocketAddr;
use std::time::Instant;

use em_codec::ExplainOptions;
use em_codec::Value;
use em_datagen::MagellanBenchmark;
use em_entity::{EntityPair, Schema};
use em_matchers::{LogisticMatcher, MatcherConfig};
use em_par::ParallelismConfig;
use em_route::{BackendSpec, Router, RouterConfig};
use em_serve::client;
use em_serve::{Server, ServerConfig};

fn explain_body(schema: &Schema, pair: &EntityPair, n_samples: usize, seed: u64) -> String {
    let entity = |e: &em_entity::Entity| {
        Value::Object(
            (0..schema.len())
                .map(|i| (schema.name(i).to_string(), Value::string(e.value(i))))
                .collect(),
        )
    };
    Value::object(vec![
        (
            "pair",
            Value::object(vec![
                ("left", entity(&pair.left)),
                ("right", entity(&pair.right)),
            ]),
        ),
        ("explainer", Value::string("landmark")),
        (
            "config",
            Value::object(vec![
                ("n_samples", n_samples.into()),
                ("seed", Value::Number(seed as f64)),
            ]),
        ),
    ])
    .to_json()
}

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
            parallelism: ParallelismConfig::auto(),
            // One exact-LRU shard sized to the request set, so repeats
            // are hits whenever they reach the same backend.
            cache_capacity: cache.max(1),
            cache_shards: 1,
            defaults: ExplainOptions::default(),
            ..Default::default()
        },
    )
    .expect("bind backend")
    .spawn()
}

/// Drives one pass; returns (latencies µs, bodies, cache hits observed).
fn drive(addr: SocketAddr, bodies: &[String]) -> (Vec<u64>, Vec<String>, usize) {
    let mut latencies = Vec::with_capacity(bodies.len());
    let mut responses = Vec::with_capacity(bodies.len());
    let mut hits = 0usize;
    for body in bodies {
        let start = Instant::now();
        let resp = client::request(addr, "POST", "/explain", body).expect("request failed");
        latencies.push(u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX));
        assert_eq!(resp.status, 200, "{}", resp.body);
        if resp.header("x-cache") == Some("hit") {
            hits += 1;
        }
        responses.push(resp.body);
    }
    (latencies, responses, hits)
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn phase_report(name: &str, latencies: &mut [u64]) -> Value {
    latencies.sort_unstable();
    let total_us: u64 = latencies.iter().sum();
    let rps = latencies.len() as f64 / (total_us as f64 / 1e6);
    Value::object(vec![
        ("phase", Value::string(name)),
        ("requests", latencies.len().into()),
        ("requests_per_sec", rps.into()),
        ("p50_us", Value::Number(percentile(latencies, 0.5) as f64)),
        ("p99_us", Value::Number(percentile(latencies, 0.99) as f64)),
    ])
}

fn main() {
    let base = bench::config_from_env();
    let id = bench::datasets_from_env()[0];
    let n_requests: usize = std::env::var("REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20);

    let dataset = MagellanBenchmark {
        scale: base.scale,
        ..Default::default()
    }
    .generate(id);
    let schema = dataset.schema().clone();
    let matcher = LogisticMatcher::train(&dataset, &MatcherConfig::default());

    let records = dataset.records();
    let bodies: Vec<String> = (0..n_requests)
        .map(|i| {
            let pair = &records[i % records.len()].pair;
            explain_body(&schema, pair, base.n_samples, base.seed + i as u64)
        })
        .collect();

    // Baseline: one backend, driven directly.
    let direct = spawn_backend(&schema, &matcher, n_requests);
    let (mut direct_cold, direct_bodies, _) = drive(direct.addr(), &bodies);
    let (mut direct_cached, direct_cached_bodies, direct_hits) = drive(direct.addr(), &bodies);
    client::request(direct.addr(), "POST", "/shutdown", "").expect("shutdown direct");
    direct.join();
    let baseline_hit_rate = direct_hits as f64 / n_requests as f64;

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
        RouterConfig {
            parallelism: ParallelismConfig::auto(),
            ..Default::default()
        },
    )
    .expect("bind router")
    .spawn();

    let (mut routed_cold, routed_bodies, _) = drive(router.addr(), &bodies);
    let (mut routed_cached, routed_cached_bodies, routed_hits) = drive(router.addr(), &bodies);
    let affinity_hit_rate = routed_hits as f64 / n_requests as f64;

    client::request(router.addr(), "POST", "/shutdown", "").expect("shutdown router");
    router.join();
    for backend in backends {
        client::request(backend.addr(), "POST", "/shutdown", "").expect("shutdown backend");
        backend.join();
    }

    let identical = direct_bodies == routed_bodies
        && direct_cached_bodies == routed_cached_bodies
        && direct_bodies == direct_cached_bodies;

    // Router-added latency is read off the cached path: both topologies
    // answer from a warm cache there, so the difference is proxy cost.
    routed_cached.sort_unstable();
    direct_cached.sort_unstable();
    let router_added_p50_us =
        percentile(&routed_cached, 0.5) as i64 - percentile(&direct_cached, 0.5) as i64;

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
        (
            "phases",
            Value::Array(vec![
                phase_report("direct_cold", &mut direct_cold),
                phase_report("direct_cached", &mut direct_cached),
                phase_report("routed_cold", &mut routed_cold),
                phase_report("routed_cached", &mut routed_cached),
            ]),
        ),
    ]);
    println!("{}", report.to_json());
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
