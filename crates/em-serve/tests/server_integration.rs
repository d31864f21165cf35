//! End-to-end test: a real `TcpListener` on an ephemeral port, a trained
//! matcher behind it, and assertions that the served explanation is
//! bit-identical to a direct explainer call — on both the cold and the
//! cached path — with the metrics counters moving accordingly.

use em_codec::ExplainOptions;
use em_codec::Value;
use em_datagen::{DatasetId, MagellanBenchmark};
use em_entity::{EntityPair, MatchModel, Schema};
use em_lime::ExplainConfig;
use em_matchers::{LogisticMatcher, MatcherConfig};
use em_par::ParallelismConfig;
use em_serve::client;
use em_serve::{Server, ServerConfig};
use landmark_core::{GenerationStrategy, LandmarkExplainer};

const N_SAMPLES: usize = 64;
const SEED: u64 = 42;

/// An `/explain` body for `pair`, with `"threads"` in its config when
/// given.
fn explain_body(schema: &Schema, pair: &EntityPair, threads: Option<usize>) -> String {
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
            Value::object(
                [
                    ("n_samples", N_SAMPLES.into()),
                    ("seed", Value::Number(SEED as f64)),
                ]
                .into_iter()
                .chain(threads.map(|n| ("threads", n.into())))
                .collect(),
            ),
        ),
    ])
    .to_json()
}

/// Reads `name value` from the Prometheus text output.
fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|line| {
            line.strip_prefix(name)
                .and_then(|rest| rest.strip_prefix(' ').and_then(|v| v.parse().ok()))
        })
        .unwrap_or_else(|| panic!("metric {name} not found"))
}

#[test]
fn serves_bit_identical_explanations_with_cache_and_metrics() {
    // A small but real setup: generated benchmark data, trained matcher.
    let dataset = MagellanBenchmark::scaled(0.05).generate(DatasetId::SFz);
    let schema = dataset.schema().clone();
    let pair = dataset.records()[0].pair.clone();
    let matcher = LogisticMatcher::train(&dataset, &MatcherConfig::default());

    // Ground truth, computed before the matcher moves into the server.
    let config = ExplainConfig {
        n_samples: N_SAMPLES,
        seed: SEED,
        ..Default::default()
    };
    let direct = LandmarkExplainer::new(config, GenerationStrategy::Auto).explain(
        &matcher,
        &schema,
        &pair,
        em_obs::noop(),
    );
    let direct_prob = matcher.predict_proba(&schema, &pair);

    let server = Server::bind(
        "127.0.0.1:0",
        schema.clone(),
        Box::new(matcher),
        ServerConfig {
            parallelism: ParallelismConfig::with_threads(2),
            cache_capacity: 64,
            defaults: ExplainOptions::default(),
            ..Default::default()
        },
    )
    .expect("bind ephemeral port");
    let handle = server.spawn();
    let addr = handle.addr();

    // Liveness.
    let health = client::request(addr, "GET", "/healthz", "").unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(
        Value::parse(&health.body)
            .unwrap()
            .get("status")
            .unwrap()
            .as_str(),
        Some("ok")
    );

    // Cold explanation.
    let body = explain_body(&schema, &pair, None);
    let cold = client::request(addr, "POST", "/explain", &body).unwrap();
    assert_eq!(cold.status, 200, "{}", cold.body);
    assert_eq!(cold.header("x-cache"), Some("miss"));
    let parsed = Value::parse(&cold.body).expect("response is well-formed JSON");
    assert_eq!(parsed.get("explainer").unwrap().as_str(), Some("landmark"));
    let views = parsed.get("explanations").unwrap().as_array().unwrap();
    assert_eq!(views.len(), 2);

    // The served token weights must be bit-identical to the direct call:
    // the JSON layer writes f64 in shortest-roundtrip form, so parsing
    // recovers the exact bits.
    for (view, direct_view) in views.iter().zip(direct.both()) {
        let weights = view.get("token_weights").unwrap().as_array().unwrap();
        assert_eq!(weights.len(), direct_view.explanation.len());
        assert!(!weights.is_empty(), "explanation should not be empty");
        for (w, tw) in weights.iter().zip(direct_view.explanation.iter()) {
            assert_eq!(
                w.get("weight").unwrap().as_f64().unwrap().to_bits(),
                tw.weight.to_bits(),
                "served weight differs from direct explainer"
            );
            assert_eq!(
                w.get("text").unwrap().as_str().unwrap(),
                tw.token.text.as_str()
            );
            assert_eq!(w.get("side").unwrap().as_str().unwrap(), tw.side.prefix());
        }
        assert_eq!(
            view.get("model_prediction")
                .unwrap()
                .as_f64()
                .unwrap()
                .to_bits(),
            direct_view.explanation.model_prediction.to_bits()
        );
    }

    // Cached repeat: byte-identical body, hit header, counters move.
    let warm = client::request(addr, "POST", "/explain", &body).unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("x-cache"), Some("hit"));
    assert_eq!(warm.body, cold.body, "cached body must be byte-identical");

    // The tracing layer reports stage timings without changing the body.
    let cold_timing = cold.header("x-timing").expect("X-Timing on cold path");
    assert!(cold_timing.starts_with("total="), "{cold_timing}");
    assert!(cold_timing.contains("model_scoring="), "{cold_timing}");
    assert!(cold_timing.contains("surrogate_fit="), "{cold_timing}");
    let warm_timing = warm.header("x-timing").expect("X-Timing on warm path");
    assert!(warm_timing.starts_with("total="), "{warm_timing}");
    assert!(
        !warm_timing.contains("model_scoring="),
        "a cache hit runs no pipeline stage: {warm_timing}"
    );

    let metrics_text = client::request(addr, "GET", "/metrics", "").unwrap();
    assert_eq!(metrics_text.status, 200);
    let text = metrics_text.body;
    assert_eq!(
        metric(&text, "em_serve_requests_total{endpoint=\"explain\"}"),
        2
    );
    assert_eq!(metric(&text, "em_serve_cache_hits_total"), 1);
    assert_eq!(metric(&text, "em_serve_cache_misses_total"), 1);
    assert_eq!(metric(&text, "em_serve_cache_entries"), 1);
    assert_eq!(
        metric(&text, "em_serve_requests_total{endpoint=\"healthz\"}"),
        1
    );
    assert!(
        metric(
            &text,
            "em_serve_request_latency_us_count{endpoint=\"explain\"}"
        ) == 2
    );
    // Only the cold request ran the pipeline, so each stage histogram saw
    // exactly one observation.
    assert_eq!(
        metric(
            &text,
            "em_serve_stage_latency_us_count{stage=\"model_scoring\"}"
        ),
        1
    );
    assert_eq!(
        metric(
            &text,
            "em_serve_stage_latency_us_count{stage=\"surrogate_fit\"}"
        ),
        1
    );

    // Prediction agrees bit-for-bit with the matcher.
    let predict_body = {
        let root = Value::parse(&body).unwrap();
        Value::object(vec![("pair", root.get("pair").unwrap().clone())]).to_json()
    };
    let pred = client::request(addr, "POST", "/predict", &predict_body).unwrap();
    assert_eq!(pred.status, 200);
    let pred = Value::parse(&pred.body).unwrap();
    assert_eq!(
        pred.get("probability").unwrap().as_f64().unwrap().to_bits(),
        direct_prob.to_bits()
    );
    assert_eq!(
        pred.get("match").unwrap().as_bool(),
        Some(direct_prob >= 0.5)
    );

    // Error paths stay structured.
    let bad = client::request(addr, "POST", "/explain", "{not json").unwrap();
    assert_eq!(bad.status, 400);
    assert!(Value::parse(&bad.body).unwrap().get("error").is_some());
    assert_eq!(
        client::request(addr, "GET", "/explain", "").unwrap().status,
        405
    );
    assert_eq!(
        client::request(addr, "GET", "/nope", "").unwrap().status,
        404
    );

    // A fresh request after the errors still hits the cache.
    let again = client::request(addr, "POST", "/explain", &body).unwrap();
    assert_eq!(again.header("x-cache"), Some("hit"));
    assert_eq!(again.body, cold.body);

    // Graceful shutdown: acknowledged, then the thread joins.
    let bye = client::request(addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(bye.status, 200);
    handle.join();
}

#[test]
fn request_thread_count_never_changes_the_body() {
    // `threads` is left out of the cache key, so each count gets a server
    // of its own and both requests compute. The pool has 2 workers, so
    // 1024 requested threads run as 2.
    let dataset = MagellanBenchmark::scaled(0.05).generate(DatasetId::SFz);
    let schema = dataset.schema().clone();
    let pair = dataset.records()[0].pair.clone();
    let matcher = LogisticMatcher::train(&dataset, &MatcherConfig::default());
    let bodies: Vec<String> = [1, 1024]
        .into_iter()
        .map(|threads| {
            let server = Server::bind(
                "127.0.0.1:0",
                schema.clone(),
                Box::new(matcher.clone()),
                ServerConfig {
                    parallelism: ParallelismConfig::with_threads(2),
                    ..Default::default()
                },
            )
            .expect("bind ephemeral port");
            let handle = server.spawn();
            let body = explain_body(&schema, &pair, Some(threads));
            let response = client::request(handle.addr(), "POST", "/explain", &body).unwrap();
            assert_eq!(response.status, 200, "{}", response.body);
            assert_eq!(response.header("x-cache"), Some("miss"));
            client::request(handle.addr(), "POST", "/shutdown", "").unwrap();
            handle.join();
            response.body
        })
        .collect();
    assert_eq!(
        bodies[0], bodies[1],
        "threads 1 and 1024 must give the same bytes"
    );
}

#[test]
fn a_kernel_width_below_the_floor_never_kills_a_worker() {
    // Such a width once made every sample weight underflow to 0 and the
    // surrogate fit panic its worker: one request per worker left a server
    // that still accepted connections but never answered them. It is now
    // a 400 at decode, before any work.
    let dataset = MagellanBenchmark::scaled(0.05).generate(DatasetId::SFz);
    let schema = dataset.schema().clone();
    let pair = dataset.records()[0].pair.clone();
    let matcher = LogisticMatcher::train(&dataset, &MatcherConfig::default());
    let workers = 2;
    let server = Server::bind(
        "127.0.0.1:0",
        schema.clone(),
        Box::new(matcher),
        ServerConfig {
            parallelism: ParallelismConfig::with_threads(workers),
            ..Default::default()
        },
    )
    .expect("bind ephemeral port");
    let handle = server.spawn();
    let addr = handle.addr();
    let timeout = std::time::Duration::from_secs(10);

    let deadly = r#"{"pair":{"left":{"name":"alpha"},"right":{"name":"beta"}},"explainer":"lime","config":{"kernel_width":1e-150}}"#;
    for _ in 0..workers {
        // At worst the connection dies with its worker; what matters is
        // that the server answers afterwards.
        if let Ok(response) =
            client::request_with_timeout(addr, "POST", "/explain", deadly, timeout)
        {
            assert_eq!(response.status, 400, "{}", response.body);
        }
    }

    let health = client::request_with_timeout(addr, "GET", "/healthz", "", timeout)
        .expect("a worker answers /healthz");
    assert_eq!(health.status, 200);
    let body = explain_body(&schema, &pair, None);
    let explained = client::request_with_timeout(addr, "POST", "/explain", &body, timeout)
        .expect("a worker answers /explain");
    assert_eq!(explained.status, 200, "{}", explained.body);

    client::request(addr, "POST", "/shutdown", "").unwrap();
    handle.join();
}
