//! One end-to-end profile: the explainer's stages, the serving tiers and
//! the batch pipeline, measured over one generated dataset and one
//! trained matcher.
//!
//! * **Explainer cells.** Each explainer (landmark, lime, mojito-copy)
//!   explains every record once per round with an [`em_obs::Collector`]
//!   attached, over [`TIMED_ROUNDS`] rounds. Each round has a *coverage*,
//!   the fraction of its end-to-end wall-clock the stage spans account
//!   for, and the explainer's cell is the round of median coverage:
//!   end-to-end time, per-stage time and entry counts, throughput
//!   counters, and that coverage. Coverage below 0.9 in any cell fails
//!   the run: a meaningful chunk of explanation latency would be
//!   invisible to tracing. A round at small settings lasts well under a
//!   millisecond, so one interruption between two spans can sink a
//!   single round; the median round is the one no such outlier decides.
//!   One untimed round of every explainer runs before the timed rounds,
//!   so the process's cold start is charged to no cell; the report says
//!   so in `untimed_warm_up_rounds`, beside `timed_rounds`.
//! * **Serving.** One request per record, each with its own seed, sent
//!   cold and then again cached: first straight to one `em-serve`
//!   backend, then through `em-route` to three. Each phase reports its
//!   request count, p50, and a tail percentile only where at least ten
//!   requests lie beyond it. em-route answers a repeat from its own
//!   response cache, so the routed cached phase never reaches a backend:
//!   the router-added p50 (routed cached p50 minus direct cached p50) is
//!   what answering a repeat at the router costs over answering it at a
//!   backend, one warm cache each, and the affinity hit rate is the
//!   share of repeats through the router answered from a cache. On the
//!   direct backend every cold request must miss and every repeat hit;
//!   routed bodies must equal direct ones, cached bodies cold ones, byte
//!   for byte; and the routed hit rate must reach the single-backend
//!   rate.
//! * **Batch.** `em-batch` plans and runs the first `4 × RECORDS`
//!   records at 1, 2 and 4 threads and reports records/s. The shards must
//!   be byte-identical at every thread count.
//!
//! Reads `SCALE`/`RECORDS`/`SAMPLES`/`DATASETS` (the first dataset
//! named); the first `RECORDS` records of the dataset are explained and
//! served. Prints one JSON object, then fails on any check the run did
//! not pass.
//!
//! Run with: `cargo run --release -p bench --bin e2e_profile`

use std::net::SocketAddr;
use std::time::Instant;

use em_batch::{execute, plan, PlanConfig, RunMode};
use em_codec::explain::{encode_explain_request, ExplainRequest};
use em_codec::Value;
use em_datagen::MagellanBenchmark;
use em_entity::{dataset_to_csv, EmDataset, LabeledPair, Schema};
use em_lime::ExplainConfig;
use em_matchers::LogisticMatcher;
use em_obs::{Collector, Counter, Stage};
use em_route::{BackendSpec, Router, RouterConfig};
use em_serve::{client, Server, ServerConfig, ServerHandle};
use landmark_core::ExplainerKind;

/// The coverage floor: stage spans must explain at least this fraction of
/// each cell's end-to-end wall-clock.
const MIN_COVERAGE: f64 = 0.9;

/// Untimed rounds of every explainer before the timed cells.
const WARM_UP_ROUNDS: usize = 1;

/// Timed rounds of each explainer; its cell is the round of median
/// coverage.
const TIMED_ROUNDS: usize = 5;

/// The explainers profiled, one cell each.
const EXPLAINERS: [ExplainerKind; 3] = [
    ExplainerKind::Landmark,
    ExplainerKind::Lime,
    ExplainerKind::MojitoCopy,
];

/// Backends behind the router in the routed phases.
const BACKENDS: usize = 3;

/// A tail percentile is reported only when at least this many samples
/// lie beyond it.
const MIN_BEYOND_TAIL: usize = 10;

/// A count or a time in whole units as a JSON number.
fn count(n: u64) -> Value {
    Value::Number(n as f64)
}

/// Times [`TIMED_ROUNDS`] rounds per explainer after the warm-up rounds
/// and reports the round of median coverage as its cell; pushes a cell
/// under the coverage floor onto `failures`.
#[expect(
    clippy::disallowed_methods,
    reason = "a measurement: the clock times the cells, and no explanation depends on it"
)]
fn explainer_cells(
    model: &LogisticMatcher,
    schema: &Schema,
    records: &[LabeledPair],
    n_samples: usize,
    failures: &mut Vec<String>,
) -> Value {
    let config = ExplainConfig {
        n_samples,
        ..Default::default()
    };
    let run = |explainer: ExplainerKind, trace: &Collector| {
        for record in records {
            explainer.explain(model, schema, &record.pair, &config, trace);
        }
    };
    for _ in 0..WARM_UP_ROUNDS {
        for explainer in EXPLAINERS {
            run(explainer, &Collector::new());
        }
    }
    let mut cells = Vec::new();
    let mut min_coverage = f64::INFINITY;
    for explainer in EXPLAINERS {
        let mut rounds: Vec<(f64, u64, Collector)> = (0..TIMED_ROUNDS)
            .map(|_| {
                let trace = Collector::new();
                let start = Instant::now();
                run(explainer, &trace);
                let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                let coverage = trace.total_stage_nanos() as f64 / wall_ns as f64;
                (coverage, wall_ns, trace)
            })
            .collect();
        rounds.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (coverage, wall_ns, trace) = rounds.swap_remove(TIMED_ROUNDS / 2);
        min_coverage = min_coverage.min(coverage);

        let stages: Vec<(String, Value)> = Stage::all()
            .iter()
            .filter(|s| trace.stage_entries(**s) > 0)
            .map(|s| {
                (
                    s.label().to_string(),
                    Value::object(vec![
                        ("us", count(trace.stage_nanos(*s) / 1_000)),
                        ("entries", count(trace.stage_entries(*s))),
                    ]),
                )
            })
            .collect();
        cells.push(Value::object(vec![
            ("explainer", Value::string(explainer.name())),
            ("records", records.len().into()),
            ("end_to_end_us", count(wall_ns / 1_000)),
            ("stage_coverage", coverage.into()),
            ("stages", Value::Object(stages)),
            (
                "samples_scored",
                count(trace.counter(Counter::SamplesScored)),
            ),
            ("features", count(trace.counter(Counter::Features))),
        ]));
    }
    if min_coverage < MIN_COVERAGE {
        failures.push(format!(
            "stage spans cover only {min_coverage:.3} of end-to-end latency (floor {MIN_COVERAGE})"
        ));
    }
    Value::object(vec![
        ("untimed_warm_up_rounds", WARM_UP_ROUNDS.into()),
        ("timed_rounds", TIMED_ROUNDS.into()),
        ("min_stage_coverage", min_coverage.into()),
        ("cells", Value::Array(cells)),
    ])
}

/// What one pass of requests saw.
struct Pass {
    /// Client-observed latency of each request, in µs, ascending.
    latencies_us: Vec<u64>,
    /// Each response body, in request order.
    bodies: Vec<String>,
    /// Responses with `X-Cache: hit`.
    hits: usize,
}

/// Sends every body to `addr` as `POST /explain`, one after another;
/// panics unless each answer is a 200.
#[expect(
    clippy::disallowed_methods,
    reason = "client-side latency measurement; the bodies are compared byte for byte, the times only reported"
)]
fn drive(addr: SocketAddr, bodies: &[String]) -> Pass {
    let mut pass = Pass {
        latencies_us: Vec::with_capacity(bodies.len()),
        bodies: Vec::with_capacity(bodies.len()),
        hits: 0,
    };
    for body in bodies {
        let start = Instant::now();
        let resp = client::request(addr, "POST", "/explain", body).expect("request failed");
        pass.latencies_us
            .push(u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX));
        assert_eq!(resp.status, 200, "{}", resp.body);
        pass.hits += usize::from(resp.header("x-cache") == Some("hit"));
        pass.bodies.push(resp.body);
    }
    pass.latencies_us.sort_unstable();
    pass
}

/// The `p`-quantile (`0.0..=1.0`) of a non-empty ascending slice, by
/// nearest rank, and how many samples lie beyond it.
fn percentile(sorted: &[u64], p: f64) -> (u64, usize) {
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    (sorted[idx], sorted.len() - 1 - idx)
}

/// One serving phase's row: request count, throughput, p50, and each
/// tail percentile with at least [`MIN_BEYOND_TAIL`] requests beyond it.
fn phase_row(name: &str, pass: &Pass) -> Value {
    let latencies = &pass.latencies_us;
    let total_us: u64 = latencies.iter().sum();
    let mut row = vec![
        ("phase", Value::string(name)),
        ("requests", latencies.len().into()),
        (
            "requests_per_sec",
            (latencies.len() as f64 / (total_us as f64 / 1e6)).into(),
        ),
        ("p50_us", count(percentile(latencies, 0.5).0)),
    ];
    for (label, p) in [("p90_us", 0.9), ("p99_us", 0.99)] {
        let (value, beyond) = percentile(latencies, p);
        if beyond >= MIN_BEYOND_TAIL {
            row.push((label, count(value)));
        }
    }
    Value::object(row)
}

/// One backend whose cache holds every request: one exact-LRU shard, so
/// a repeat is a hit whenever it reaches the backend that cached it.
fn spawn_backend(schema: &Schema, matcher: &LogisticMatcher, requests: usize) -> ServerHandle {
    Server::bind(
        "127.0.0.1:0",
        schema.clone(),
        Box::new(matcher.clone()),
        ServerConfig {
            cache_capacity: requests,
            cache_shards: 1,
            ..Default::default()
        },
    )
    .expect("bind backend")
    .spawn()
}

fn shut_down(handle: ServerHandle) {
    client::request(handle.addr(), "POST", "/shutdown", "").expect("shutdown");
    handle.join();
}

/// Serves one request per record, direct then routed, cold then cached;
/// pushes every failed check onto `failures`.
fn serving(
    matcher: &LogisticMatcher,
    schema: &Schema,
    records: &[LabeledPair],
    config: &ExplainConfig,
    failures: &mut Vec<String>,
) -> Value {
    let n = records.len();
    let bodies: Vec<String> = records
        .iter()
        .zip(config.seed..)
        .map(|(record, seed)| {
            let request = ExplainRequest {
                pair: record.pair.clone(),
                explainer: ExplainerKind::Landmark,
                config: ExplainConfig { seed, ..*config },
            };
            encode_explain_request(schema, &request)
        })
        .collect();

    let direct = spawn_backend(schema, matcher, n);
    let direct_cold = drive(direct.addr(), &bodies);
    let direct_cached = drive(direct.addr(), &bodies);
    let metrics = client::request(direct.addr(), "GET", "/metrics", "").expect("metrics");
    shut_down(direct);
    if direct_cold.hits != 0 || direct_cached.hits != n {
        failures.push(format!(
            "every cold request must miss and every repeat hit: {} and {} of {n} hit",
            direct_cold.hits, direct_cached.hits
        ));
    }
    if !metrics.body.contains("em_serve_cache_hits_total") {
        failures.push("/metrics lacks the cache-hit counter".to_string());
    }

    let backends: Vec<ServerHandle> = (0..BACKENDS)
        .map(|_| spawn_backend(schema, matcher, n))
        .collect();
    let specs = backends
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
    let routed_cold = drive(router.addr(), &bodies);
    let routed_cached = drive(router.addr(), &bodies);
    shut_down(router);
    backends.into_iter().for_each(shut_down);

    let identical = direct_cold.bodies == routed_cold.bodies
        && direct_cached.bodies == routed_cached.bodies
        && direct_cold.bodies == direct_cached.bodies;
    if !identical {
        failures.push("routed and cached bodies must equal the direct cold run's".to_string());
    }
    let baseline_hit_rate = direct_cached.hits as f64 / n as f64;
    let affinity_hit_rate = routed_cached.hits as f64 / n as f64;
    if affinity_hit_rate < baseline_hit_rate {
        failures.push(format!(
            "keyed routing must keep the single-backend hit rate: \
             affinity {affinity_hit_rate} < baseline {baseline_hit_rate}"
        ));
    }
    // Both topologies answer a repeat from a warm cache, the direct one
    // at the backend and the routed one at the router, so the
    // difference of the p50s is what the router's answer costs over the
    // backend's.
    let router_added_p50_us = percentile(&routed_cached.latencies_us, 0.5).0 as f64
        - percentile(&direct_cached.latencies_us, 0.5).0 as f64;
    Value::object(vec![
        ("backends", BACKENDS.into()),
        ("identical_bodies", identical.into()),
        ("baseline_cache_hit_rate", baseline_hit_rate.into()),
        ("affinity_cache_hit_rate", affinity_hit_rate.into()),
        ("router_added_p50_us", router_added_p50_us.into()),
        (
            "phases",
            Value::Array(vec![
                phase_row("direct_cold", &direct_cold),
                phase_row("direct_cached", &direct_cached),
                phase_row("routed_cold", &routed_cold),
                phase_row("routed_cached", &routed_cached),
            ]),
        ),
    ])
}

/// Plans and runs `dataset` through `em-batch` at 1, 2 and 4 threads in
/// a scratch directory; pushes a failed byte check onto `failures`.
#[expect(
    clippy::disallowed_methods,
    reason = "a scratch directory and the clock: neither the path nor the time reaches an output byte"
)]
fn batch(dataset: &EmDataset, n_samples: usize, failures: &mut Vec<String>) -> Value {
    let dir = std::env::temp_dir().join(format!("bench-e2e-profile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let input = dir.join("input.csv");
    std::fs::write(&input, dataset_to_csv(dataset)).expect("write input");

    let shards = dataset.len().min(4);
    let mut runs = Vec::new();
    let mut outputs: Vec<Vec<u8>> = Vec::new();
    for threads in [1usize, 2, 4] {
        let run_dir = dir.join(format!("run-t{threads}"));
        let plan = plan::create_plan(
            &input,
            &run_dir,
            &PlanConfig {
                shards,
                seed: 42,
                explainer: ExplainerKind::Landmark,
                n_samples,
                threads,
            },
        )
        .expect("plan");
        let start = Instant::now();
        execute(&run_dir, RunMode::Fresh, None, None, em_obs::noop()).expect("run");
        let seconds = start.elapsed().as_secs_f64();
        runs.push(Value::object(vec![
            ("threads", threads.into()),
            ("records", dataset.len().into()),
            ("seconds", seconds.into()),
            ("records_per_sec", (dataset.len() as f64 / seconds).into()),
        ]));
        let shard_bytes = (0..shards).map(|shard| plan.shard_path(&run_dir, shard));
        outputs.push(
            shard_bytes
                .flat_map(|path| std::fs::read(path).expect("read shard"))
                .collect(),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    let identical = outputs.windows(2).all(|w| w[0] == w[1]);
    if !identical {
        failures.push("batch shards differ across thread counts".to_string());
    }
    Value::object(vec![
        ("shards", shards.into()),
        ("identical_shards", identical.into()),
        ("runs", Value::Array(runs)),
    ])
}

fn main() {
    let base = bench::config_from_env();
    let id = bench::datasets_from_env()[0];
    let full = MagellanBenchmark {
        scale: base.scale,
        ..Default::default()
    }
    .generate(id);
    let matcher = LogisticMatcher::train(&full);
    let schema = full.schema();
    let records = &full.records()[..full.len().min(base.n_records_per_label)];
    // em-batch trains its plan's matcher from its input, which must hold
    // both classes; the first `RECORDS` records alone may not.
    let batch_input = EmDataset::new(
        full.name(),
        schema.clone(),
        full.records()[..full.len().min(4 * base.n_records_per_label)].to_vec(),
    );
    eprintln!(
        "# e2e_profile — dataset={}, records={}, samples={}",
        id.short_name(),
        records.len(),
        base.n_samples
    );

    let mut failures = Vec::new();
    let explainer = explainer_cells(&matcher, schema, records, base.n_samples, &mut failures);
    let request_config = ExplainConfig {
        n_samples: base.n_samples,
        seed: base.seed,
        ..Default::default()
    };
    let serving = serving(&matcher, schema, records, &request_config, &mut failures);
    let batch = batch(&batch_input, base.n_samples, &mut failures);

    let report = Value::object(vec![
        ("dataset", Value::string(id.short_name())),
        ("records", records.len().into()),
        ("n_samples", base.n_samples.into()),
        ("explainer", explainer),
        ("serving", serving),
        ("batch", batch),
    ]);
    bench::outln!("{}", report.to_json());
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_pick_nearest_ranks_and_count_what_lies_beyond() {
        assert_eq!(percentile(&[1, 2, 3, 4, 5], 0.5), (3, 2));
        assert_eq!(percentile(&[1, 2, 3, 4, 5], 0.99), (5, 0));
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 0.9), (90, 10));
        assert_eq!(percentile(&hundred, 0.99), (99, 1));
    }

    #[test]
    fn a_tail_is_reported_only_with_ten_samples_beyond_it() {
        let pass = |n: u64| Pass {
            latencies_us: (1..=n).collect(),
            bodies: Vec::new(),
            hits: 0,
        };
        let twenty = phase_row("p", &pass(20));
        assert_eq!(twenty.get("requests"), Some(&Value::Number(20.0)));
        assert!(twenty.get("p90_us").is_none() && twenty.get("p99_us").is_none());
        let hundred = phase_row("p", &pass(100));
        assert_eq!(hundred.get("p90_us"), Some(&Value::Number(90.0)));
        assert!(hundred.get("p99_us").is_none());
        let thousand = phase_row("p", &pass(1000));
        assert_eq!(thousand.get("p99_us"), Some(&Value::Number(990.0)));
    }
}
