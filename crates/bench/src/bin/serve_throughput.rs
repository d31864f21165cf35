//! Throughput report for the `em-serve` explanation API.
//!
//! Spawns the server in-process on an ephemeral loopback port, trains a
//! matcher, and drives it over real TCP in two phases:
//!
//! * **cold** — every request uses a fresh seed, so each one computes a
//!   full explanation (cache misses);
//! * **cached** — the same requests repeated, answered from the
//!   explanation cache (and verified byte-identical to the cold bodies).
//!
//! Emits a JSON report with requests/second and p50/p99 latency per phase.
//! Reads the shared `SCALE`/`SAMPLES`/`DATASETS` variables plus `REQUESTS`
//! (requests per phase, default 20).
//!
//! Run with: `cargo run --release -p bench --bin serve_throughput`

use em_codec::Value;
use em_datagen::MagellanBenchmark;
use em_matchers::{LogisticMatcher, MatcherConfig};
use em_serve::client;
use em_serve::{Server, ServerConfig};

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
    let matcher = LogisticMatcher::train(&dataset, &MatcherConfig::default());

    // One body per distinct seed: distinct cache keys, so the first pass is
    // all misses and the second all hits.
    let records = dataset.records();
    let bodies: Vec<String> = (0..n_requests)
        .map(|i| {
            let pair = &records[i % records.len()].pair;
            bench::explain_body(&schema, pair, base.n_samples, base.seed + i as u64)
        })
        .collect();

    let server = Server::bind(
        "127.0.0.1:0",
        schema,
        Box::new(matcher),
        ServerConfig {
            // One shard: exact LRU, so capacity = n_requests guarantees the
            // second pass is all hits regardless of key-hash imbalance.
            cache_capacity: n_requests.max(1),
            cache_shards: 1,
            ..Default::default()
        },
    )
    .expect("bind ephemeral port");
    let handle = server.spawn();
    let addr = handle.addr();

    let mut cold = bench::drive(addr, &bodies);
    let mut cached = bench::drive(addr, &bodies);
    assert!(
        cold.cache.iter().all(|c| c == "miss"),
        "every cold request must miss: {:?}",
        cold.cache
    );
    assert!(
        cached.cache.iter().all(|c| c == "hit"),
        "every repeated request must hit: {:?}",
        cached.cache
    );
    let identical = cold.bodies == cached.bodies;

    let metrics = client::request(addr, "GET", "/metrics", "").expect("metrics");
    client::request(addr, "POST", "/shutdown", "").expect("shutdown");
    handle.join();

    let report = Value::object(vec![
        ("dataset", Value::string(id.short_name())),
        ("n_samples", base.n_samples.into()),
        ("identical_bodies", identical.into()),
        (
            "phases",
            Value::Array(vec![
                bench::phase_report("cold", &mut cold.latencies_us),
                bench::phase_report("cached", &mut cached.latencies_us),
            ]),
        ),
    ]);
    bench::outln!("{}", report.to_json());
    assert!(
        identical,
        "cached bodies must be byte-identical to cold ones"
    );
    assert!(metrics.body.contains("em_serve_cache_hits_total"));
}
