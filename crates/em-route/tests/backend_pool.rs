//! The router → backend hop over real TCP: forwards reuse a pooled
//! connection, a pooled connection the backend closed costs one re-send
//! on a fresh connection (not a failover), and `backend_timeout` bounds
//! a whole backend exchange, however the backend paces its answer.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

use em_datagen::{DatasetId, Domain};
use em_entity::{EntityPair, MatchModel, Schema};
use em_par::ParallelismConfig;
use em_route::{BackendSpec, HealthConfig, Router, RouterConfig};
use em_serve::client;
use em_serve::{Server, ServerConfig, ServerHandle};

/// A model that never looks at the pair: these tests exercise the hop.
struct ConstModel;

impl MatchModel for ConstModel {
    fn predict_proba(&self, _schema: &Schema, _pair: &EntityPair) -> f64 {
        0.5
    }
}

const PREDICT: &str = r#"{"pair":{"left":{"name":"bistro 12","addr":"12 main st","city":"springfield","phone":"555-0112","type":"cafe"},"right":{"name":"bistro 12","addr":"12 main street","city":"springfield","phone":"555-0112","type":"cafe"}}}"#;

fn schema() -> Schema {
    Domain::new(DatasetId::SFz.spec().domain).schema()
}

/// A router in front of one backend, `b0`, with active probing slowed
/// to once a minute and ejection out of reach, so only the forwards
/// under test touch the backend.
fn spawn_router(backend: SocketAddr, backend_timeout: Duration) -> ServerHandle {
    Router::bind(
        "127.0.0.1:0",
        schema(),
        vec![BackendSpec::new("b0", backend)],
        RouterConfig {
            parallelism: ParallelismConfig::with_threads(2),
            backend_timeout,
            health: HealthConfig {
                probe_interval: Duration::from_secs(60),
                eject_threshold: 100,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("bind router")
    .spawn()
}

/// Reads `name value` from the Prometheus text; a missing series fails
/// the test rather than reading as zero.
fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|line| {
            line.strip_prefix(name)
                .and_then(|rest| rest.strip_prefix(' ').and_then(|v| v.parse().ok()))
        })
        .unwrap_or_else(|| panic!("metric {name} not found in:\n{text}"))
}

fn connections(text: &str, kind: &str) -> u64 {
    metric(
        text,
        &format!("em_route_connections_total{{backend=\"b0\",kind=\"{kind}\"}}"),
    )
}

fn outcome(text: &str, outcome: &str) -> u64 {
    metric(
        text,
        &format!("em_route_requests_total{{backend=\"b0\",outcome=\"{outcome}\"}}"),
    )
}

fn scrape(router: &ServerHandle) -> String {
    let metrics = client::request(router.addr(), "GET", "/metrics", "").expect("scrape");
    assert_eq!(metrics.status, 200);
    metrics.body
}

fn shut_down(handle: ServerHandle) {
    client::request(handle.addr(), "POST", "/shutdown", "").expect("shutdown");
    handle.join();
}

#[test]
fn a_pooled_connection_the_backend_closed_is_re_sent_not_failed_over() {
    let backend = Server::bind(
        "127.0.0.1:0",
        schema(),
        Box::new(ConstModel),
        ServerConfig {
            parallelism: ParallelismConfig::with_threads(2),
            ..Default::default()
        },
    )
    .expect("bind backend")
    .spawn();
    let router = spawn_router(backend.addr(), Duration::from_secs(10));
    // The prober's first round runs at start-up. Let it land first: a
    // probe queued at the backend while a pooled connection idles there
    // takes that connection's worker, which would close it.
    let started = Instant::now();
    while metric(
        &client::request(backend.addr(), "GET", "/metrics", "")
            .expect("backend metrics")
            .body,
        "em_serve_requests_total{endpoint=\"healthz\"}",
    ) == 0
    {
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "no probe arrived"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let predict = || {
        let r = client::request(router.addr(), "POST", "/predict", PREDICT).expect("predict");
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(r.header("x-backend"), Some("b0"));
        r.body
    };

    let first = predict();
    assert_eq!(predict(), first);
    let text = scrape(&router);
    assert_eq!(connections(&text, "opened"), 1, "{text}");
    assert_eq!(connections(&text, "reused"), 1, "{text}");

    // Past the backend's idle bound (1 s) it has closed the pooled
    // connection. The next forward finds it closed before any response
    // byte, re-sends on a fresh connection, and is answered as usual.
    std::thread::sleep(Duration::from_millis(1500));
    assert_eq!(predict(), first);
    let text = scrape(&router);
    assert_eq!(connections(&text, "stale"), 1, "{text}");
    assert_eq!(connections(&text, "opened"), 2, "{text}");
    assert_eq!(connections(&text, "reused"), 1, "{text}");
    assert_eq!(outcome(&text, "ok"), 3, "{text}");
    assert_eq!(outcome(&text, "connect_error"), 0, "{text}");
    assert_eq!(metric(&text, "em_route_failovers_total"), 0, "{text}");

    shut_down(router);
    shut_down(backend);
}

#[test]
fn a_dripping_backend_is_cut_at_the_exchange_budget() {
    // Regression: the budget used to bound each socket read, so a backend
    // dripping a 61-byte body at 10 bytes/s held a 300 ms forward for
    // 6.1 s and was answered 200.
    let fake = TcpListener::bind("127.0.0.1:0").expect("bind fake backend");
    let addr = fake.local_addr().expect("fake addr");
    std::thread::spawn(move || {
        for conn in fake.incoming() {
            let Ok(mut conn) = conn else { continue };
            std::thread::spawn(move || {
                let mut sink = [0u8; 8192];
                let _ = conn.read(&mut sink);
                let head = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 61\r\n\r\n";
                if conn.write_all(head.as_bytes()).is_err() {
                    return;
                }
                for _ in 0..61 {
                    std::thread::sleep(Duration::from_millis(100));
                    if conn.write_all(b" ").is_err() {
                        return;
                    }
                }
            });
        }
    });
    let router = spawn_router(addr, Duration::from_millis(300));

    let started = Instant::now();
    let r = client::request(router.addr(), "POST", "/predict", PREDICT).expect("predict");
    let took = started.elapsed();
    assert_eq!(r.status, 504, "{}", r.body);
    assert_eq!(r.header("x-backend"), Some("b0"));
    assert!(
        took < Duration::from_millis(1500),
        "a 300 ms backend budget took {took:?}"
    );
    let text = scrape(&router);
    assert_eq!(outcome(&text, "timeout"), 1, "{text}");
    shut_down(router);
}
