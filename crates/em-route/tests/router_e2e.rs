//! End-to-end failover test: three real `em-serve` backends behind the
//! router, mixed `/explain` and `/predict` traffic, one backend that
//! holds pooled connections killed mid-run. Every request must be
//! answered, every body byte-identical to the library's answer for the
//! same matcher, an explanation the router cached before the kill must
//! still be answered from its cache, and post-kill traffic on keys the
//! router has not cached must redistribute to the survivors only.

use std::time::Duration;

use em_codec::explain::{
    encode_explain_request, encode_pair, encode_prediction, run_explain, ExplainRequest,
};
use em_codec::Value;
use em_datagen::{DatasetId, MagellanBenchmark};
use em_entity::{EmDataset, MatchModel, Schema, MATCH_THRESHOLD};
use em_lime::ExplainConfig;
use em_matchers::LogisticMatcher;
use em_route::{BackendSpec, HealthConfig, Router, RouterConfig};
use em_serve::client;
use em_serve::{Server, ServerConfig};
use landmark_core::ExplainerKind;

const N_SAMPLES: usize = 32;
const SEED: u64 = 7;
const N_PAIRS: usize = 8;

/// Mixed traffic over the first [`N_PAIRS`] pairs: an explain (at
/// `seed`) and a predict per pair, each with the library's answer for
/// the same matcher.
fn traffic(
    dataset: &EmDataset,
    matcher: &LogisticMatcher,
    seed: u64,
) -> (Vec<(&'static str, String)>, Vec<String>) {
    let schema = dataset.schema();
    dataset.records()[..N_PAIRS]
        .iter()
        .flat_map(|record| {
            let request = ExplainRequest {
                pair: record.pair.clone(),
                explainer: ExplainerKind::Landmark,
                config: ExplainConfig {
                    n_samples: N_SAMPLES,
                    seed,
                    ..Default::default()
                },
            };
            let explain = (
                ("/explain", encode_explain_request(schema, &request)),
                run_explain(matcher, schema, &request, em_obs::noop()).to_json(),
            );
            let probability = matcher.predict_proba(schema, &record.pair);
            let predict = (
                (
                    "/predict",
                    Value::object(vec![("pair", encode_pair(schema, &record.pair))]).to_json(),
                ),
                encode_prediction(probability, MATCH_THRESHOLD).to_json(),
            );
            [explain, predict]
        })
        .unzip()
}

fn spawn_backend(schema: &Schema, matcher: &LogisticMatcher) -> em_serve::ServerHandle {
    Server::bind(
        "127.0.0.1:0",
        schema.clone(),
        Box::new(matcher.clone()),
        ServerConfig {
            workers: 2,
            cache_capacity: 64,
            ..Default::default()
        },
    )
    .expect("bind backend")
    .spawn()
}

/// Reads a labelled counter like
/// `em_route_requests_total{backend="b1",outcome="ok"}` from the
/// Prometheus text.
fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|line| {
            line.strip_prefix(name)
                .and_then(|rest| rest.strip_prefix(' ').and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

#[test]
fn failover_keeps_every_answer_byte_identical() {
    // One dataset, one trained matcher, cloned into three identical
    // routed nodes.
    let dataset = MagellanBenchmark::scaled(0.05).generate(DatasetId::SFz);
    let schema = dataset.schema().clone();
    let matcher = LogisticMatcher::train(&dataset);

    let mut backends: Vec<Option<em_serve::ServerHandle>> = (0..3)
        .map(|_| Some(spawn_backend(&schema, &matcher)))
        .collect();
    let backend_addrs: Vec<std::net::SocketAddr> = backends
        .iter()
        .map(|b| b.as_ref().expect("live backend").addr())
        .collect();
    let specs: Vec<BackendSpec> = backend_addrs
        .iter()
        .enumerate()
        .map(|(i, &addr)| BackendSpec::new(format!("b{i}"), addr))
        .collect();

    let router = Router::bind(
        "127.0.0.1:0",
        schema.clone(),
        specs,
        RouterConfig {
            workers: 2,
            failover_retries: 2,
            failover_backoff: Duration::from_millis(5),
            backend_timeout: Duration::from_secs(10),
            health: HealthConfig {
                // Slow active probing: this test exercises the *passive*
                // path deterministically. Long cooldown so the killed
                // node stays ejected for the test's lifetime.
                probe_interval: Duration::from_secs(30),
                probe_timeout: Duration::from_millis(500),
                eject_threshold: 1,
                eject_cooldown: Duration::from_secs(120),
            },
            ..Default::default()
        },
    )
    .expect("bind router")
    .spawn();
    let via = router.addr();

    let (requests, expected) = traffic(&dataset, &matcher, SEED);
    // A malformed body's 400, as a live backend answers it.
    let expected_bad =
        client::request(backend_addrs[0], "POST", "/explain", "{not json").expect("backend 400");
    assert_eq!(expected_bad.status, 400);

    // Phase 1: everything through the router. Byte-identical answers,
    // and the serving backend named in X-Backend.
    let mut served_by = Vec::new();
    for ((path, body), want) in requests.iter().zip(&expected) {
        let r = client::request(via, "POST", path, body).expect("routed");
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(&r.body, want, "routed {path} body differs from the library");
        served_by.push(r.header("x-backend").expect("X-Backend header").to_string());
    }
    let mut distinct = served_by.clone();
    distinct.sort();
    distinct.dedup();
    assert!(
        distinct.len() >= 2,
        "16 keyed requests should spread across >1 of 3 backends, got {distinct:?}"
    );

    // A repeated explain is answered from the router's own cache, named
    // after the backend that computed it.
    let (path0, body0) = &requests[0];
    let repeat = client::request(via, "POST", path0, body0).expect("repeat");
    assert_eq!(repeat.header("x-backend"), Some(served_by[0].as_str()));
    assert_eq!(
        repeat.header("x-cache"),
        Some("hit"),
        "a repeat should be answered from the router's cache"
    );
    assert_eq!(&repeat.body, &expected[0]);

    // Router-side 400 is byte-identical to the backend's own 400: the
    // router runs the same decode, so clients can't tell who rejected.
    let bad = client::request(via, "POST", "/explain", "{not json").expect("routed 400");
    assert_eq!(bad.status, 400);
    assert_eq!(bad.body, expected_bad.body);

    // Kill the backend that computed request 0, mid-run and for real.
    // Joining its thread guarantees the listener socket is fully closed,
    // so later connects are refused rather than racing the kernel
    // accept backlog. The router holds pooled connections to it: the
    // predicts it served are forwarded again (predicts are never cached)
    // and answered on one.
    let victim_name = served_by[0].clone();
    let victim_predicts: Vec<usize> = (0..requests.len())
        .filter(|&i| requests[i].0 == "/predict" && served_by[i] == victim_name)
        .collect();
    assert!(
        !victim_predicts.is_empty(),
        "no predict key is owned by {victim_name}: {served_by:?}"
    );
    for &i in &victim_predicts {
        let r = client::request(via, "POST", requests[i].0, &requests[i].1).expect("predict");
        assert_eq!(r.header("x-backend"), Some(victim_name.as_str()));
        assert_eq!(&r.body, &expected[i]);
    }
    let before_kill = client::request(via, "GET", "/metrics", "").expect("metrics");
    assert!(
        metric(
            &before_kill.body,
            &format!("em_route_connections_total{{backend=\"{victim_name}\",kind=\"reused\"}}")
        ) >= 1,
        "the victim was never forwarded to on a pooled connection:\n{}",
        before_kill.body
    );
    let victim_idx: usize = victim_name
        .strip_prefix('b')
        .and_then(|s| s.parse().ok())
        .expect("backend name b<i>");
    client::request(backend_addrs[victim_idx], "POST", "/shutdown", "").expect("kill victim");
    backends[victim_idx].take().expect("victim alive").join();

    // The key cached before the kill is still answered, byte for byte,
    // from the router's cache: a hit needs no live backend.
    let cached = client::request(via, "POST", path0, body0).expect("cached after kill");
    assert_eq!(cached.status, 200, "{}", cached.body);
    assert_eq!(&cached.body, &expected[0]);
    assert_eq!(cached.header("x-cache"), Some("hit"));
    assert_eq!(cached.header("x-backend"), Some(victim_name.as_str()));

    // Phase 2: the same pairs, explained at a seed the router has not
    // cached, so the victim's keys fail over. Every request answered,
    // still byte-identical, and nothing served by the dead node.
    let (requests, expected) = traffic(&dataset, &matcher, SEED + 1);
    for ((path, body), want) in requests.iter().zip(&expected) {
        let r = client::request(via, "POST", path, body).expect("routed after kill");
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(
            &r.body, want,
            "post-kill {path} body differs from the library"
        );
        let backend = r.header("x-backend").expect("X-Backend header");
        assert_ne!(backend, victim_name, "request served by the killed backend");
    }

    // The router observed the failure: a connect error attributed to the
    // victim, at least one failover, and the victim ejected on /ring.
    let metrics = client::request(via, "GET", "/metrics", "").expect("metrics");
    assert_eq!(metrics.status, 200);
    let text = &metrics.body;
    assert!(
        metric(
            text,
            &format!(
                "em_route_requests_total{{backend=\"{victim_name}\",outcome=\"connect_error\"}}"
            )
        ) >= 1,
        "no connect_error recorded for the killed backend:\n{text}"
    );
    assert!(metric(text, "em_route_failovers_total") >= 1);
    for name in ["b0", "b1", "b2"] {
        if name != victim_name {
            assert!(
                metric(
                    text,
                    &format!("em_route_requests_total{{backend=\"{name}\",outcome=\"ok\"}}")
                ) >= 1,
                "survivor {name} served nothing:\n{text}"
            );
        }
    }

    let ring = client::request(via, "GET", "/ring", "").expect("ring");
    let ring = Value::parse(&ring.body).expect("ring JSON");
    let entries = ring
        .get("backends")
        .expect("backends")
        .as_array()
        .expect("array");
    assert_eq!(entries.len(), 3);
    for entry in entries {
        let name = entry.get("name").expect("name").as_str().expect("str");
        let state = entry.get("state").expect("state").as_str().expect("str");
        if name == victim_name {
            assert_eq!(state, "unhealthy", "killed backend not ejected: {state}");
        }
    }

    // Draining a survivor moves its traffic without erroring anything,
    // on keys the router has not cached yet.
    let survivor = distinct
        .iter()
        .find(|n| **n != victim_name)
        .expect("a survivor served traffic")
        .clone();
    let drain = client::request(
        via,
        "POST",
        "/drain",
        &Value::object(vec![("backend", Value::string(survivor.as_str()))]).to_json(),
    )
    .expect("drain");
    assert_eq!(drain.status, 200, "{}", drain.body);
    let (requests, expected) = traffic(&dataset, &matcher, SEED + 2);
    for ((path, body), want) in requests.iter().zip(&expected) {
        let r = client::request(via, "POST", path, body).expect("routed while draining");
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(&r.body, want);
        let backend = r.header("x-backend").expect("X-Backend header");
        assert_ne!(backend, victim_name);
        assert_ne!(backend, survivor, "request routed to a draining backend");
    }
    // Readmit, so shutdown below reflects a steady state.
    let undrain = client::request(
        via,
        "POST",
        "/drain",
        &Value::object(vec![
            ("backend", Value::string(survivor.as_str())),
            ("draining", false.into()),
        ])
        .to_json(),
    )
    .expect("undrain");
    assert_eq!(undrain.status, 200);

    // Clean shutdown of the router, then of the surviving backends.
    let bye = client::request(via, "POST", "/shutdown", "").expect("router shutdown");
    assert_eq!(bye.status, 200);
    router.join();
    for backend in backends.into_iter().flatten() {
        client::request(backend.addr(), "POST", "/shutdown", "").expect("backend shutdown");
        backend.join();
    }
}
