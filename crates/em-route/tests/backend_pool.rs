//! The router → backend hop over real TCP: forwards reuse a pooled
//! connection, a pooled connection the backend closed costs one re-send
//! on a fresh connection (not a failover), `backend_timeout` bounds a
//! whole backend exchange, however the backend paces its answer, a
//! timed-out exchange counts toward ejection, and a drain the router
//! refuses never reaches the backend. A repeated `/explain` skips the
//! hop: the router answers it from its own cache, which keeps only 200
//! answers to `/explain`, so an error status and `/predict` are
//! forwarded every time.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use em_datagen::{DatasetId, Domain};
use em_entity::{EntityPair, MatchModel, Schema};
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

const EXPLAIN: &str = r#"{"pair":{"left":{"name":"bistro 12","addr":"12 main st","city":"springfield","phone":"555-0112","type":"cafe"},"right":{"name":"bistro 12","addr":"12 main street","city":"springfield","phone":"555-0112","type":"cafe"}},"config":{"n_samples":16}}"#;

fn schema() -> Schema {
    Domain::new(DatasetId::SFz.spec().domain).schema()
}

/// A router in front of one backend, `b0`, with active probing slowed
/// to once a minute and ejection out of reach, so only the forwards
/// under test touch the backend.
fn spawn_router(backend: SocketAddr, backend_timeout: Duration) -> ServerHandle {
    spawn_router_ejecting_at(backend, backend_timeout, 100)
}

/// [`spawn_router`] with ejection after `eject_threshold` consecutive
/// transport failures.
fn spawn_router_ejecting_at(
    backend: SocketAddr,
    backend_timeout: Duration,
    eject_threshold: u32,
) -> ServerHandle {
    Router::bind(
        "127.0.0.1:0",
        schema(),
        vec![BackendSpec::new("b0", backend)],
        RouterConfig {
            workers: 2,
            backend_timeout,
            health: HealthConfig {
                probe_interval: Duration::from_secs(60),
                eject_threshold,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("bind router")
    .spawn()
}

/// A fake backend that answers `GET /healthz` at once and drips every
/// other answer: a 200 head, then a 61-byte body at 10 bytes/s.
fn dripping_backend() -> SocketAddr {
    let fake = TcpListener::bind("127.0.0.1:0").expect("bind fake backend");
    let addr = fake.local_addr().expect("fake addr");
    std::thread::spawn(move || {
        for conn in fake.incoming() {
            let Ok(mut conn) = conn else { continue };
            std::thread::spawn(move || {
                let mut request = [0u8; 8192];
                let n = conn.read(&mut request).unwrap_or(0);
                if request[..n].starts_with(b"GET /healthz ") {
                    let _ = conn.write_all(
                        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok",
                    );
                    return;
                }
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
    addr
}

/// Reads one request, head and `Content-Length` body, from `conn`.
fn read_request(conn: &mut TcpStream) -> Vec<u8> {
    let mut request = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(end) = request.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&request[..end]).to_ascii_lowercase();
            let length: usize = head
                .lines()
                .find_map(|line| line.strip_prefix("content-length:"))
                .map_or(0, |v| v.trim().parse().unwrap_or(0));
            if request.len() >= end + 4 + length {
                return request;
            }
        }
        match conn.read(&mut chunk) {
            Ok(0) | Err(_) => return request,
            Ok(n) => request.extend_from_slice(&chunk[..n]),
        }
    }
}

/// A fake backend that answers `GET /healthz` at once, its first
/// `POST /explain` with a 503 and every later one with a 200, counting
/// the explains it receives in `explains`.
fn flaky_backend(explains: Arc<AtomicUsize>) -> SocketAddr {
    let fake = TcpListener::bind("127.0.0.1:0").expect("bind fake backend");
    let addr = fake.local_addr().expect("fake addr");
    std::thread::spawn(move || {
        for conn in fake.incoming() {
            let Ok(mut conn) = conn else { continue };
            let request = read_request(&mut conn);
            let (head, body) = if request.starts_with(b"POST /explain ") {
                if explains.fetch_add(1, Ordering::SeqCst) == 0 {
                    (
                        "503 Service Unavailable\r\nRetry-After: 1",
                        r#"{"error":"server overloaded"}"#,
                    )
                } else {
                    ("200 OK\r\nX-Cache: miss", r#"{"explanations":[]}"#)
                }
            } else {
                ("200 OK", r#"{"status":"ok"}"#)
            };
            let _ = write!(
                conn,
                "HTTP/1.1 {head}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
                 Connection: close\r\n\r\n{body}",
                body.len()
            );
        }
    });
    addr
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

/// The `em_route_requests_total` and `em_route_connections_total` series:
/// what a forward moves.
fn forward_series(text: &str) -> Vec<&str> {
    text.lines()
        .filter(|line| {
            line.starts_with("em_route_requests_total{")
                || line.starts_with("em_route_connections_total{")
        })
        .collect()
}

/// An em-serve backend over [`ConstModel`] with two workers.
fn const_backend() -> ServerHandle {
    Server::bind(
        "127.0.0.1:0",
        schema(),
        Box::new(ConstModel),
        ServerConfig {
            workers: 2,
            ..Default::default()
        },
    )
    .expect("bind backend")
    .spawn()
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
#[expect(
    clippy::disallowed_methods,
    reason = "the test waits on the clock for the backend's first probe round"
)]
fn a_pooled_connection_the_backend_closed_is_re_sent_not_failed_over() {
    let backend = const_backend();
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
#[expect(
    clippy::disallowed_methods,
    reason = "the test measures how long the router takes to give up"
)]
fn a_dripping_backend_is_cut_at_the_exchange_budget() {
    // Regression: the budget used to bound each socket read, so a backend
    // dripping a 61-byte body at 10 bytes/s held a 300 ms forward for
    // 6.1 s and was answered 200.
    let router = spawn_router(dripping_backend(), Duration::from_millis(300));

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

#[test]
fn a_timed_out_forward_counts_toward_ejection() {
    // The fake answers the start-up probe at once, so with a threshold
    // of 1 the ejection can only come from the forward's timeout.
    let router = spawn_router_ejecting_at(dripping_backend(), Duration::from_millis(300), 1);
    let r = client::request(router.addr(), "POST", "/predict", PREDICT).expect("predict");
    assert_eq!(r.status, 504, "{}", r.body);
    let ring = client::request(router.addr(), "GET", "/ring", "").expect("ring");
    assert!(
        ring.body.contains(r#""name":"b0""#) && ring.body.contains(r#""state":"unhealthy""#),
        "{}",
        ring.body
    );
    let text = scrape(&router);
    assert_eq!(outcome(&text, "timeout"), 1, "{text}");
    shut_down(router);
}

#[test]
fn a_drain_whose_flag_is_not_a_boolean_changes_nothing() {
    // em-serve cannot undo a drain without a restart, so a body that
    // does not say `true` or `false` must not drain either tier.
    let backend = const_backend();
    let router = spawn_router(backend.addr(), Duration::from_secs(10));
    for flag in [r#""false""#, "0", "null", "[]"] {
        let body = format!(r#"{{"backend":"b0","draining":{flag}}}"#);
        let response = client::request(router.addr(), "POST", "/drain", &body).expect("drain");
        assert_eq!(response.status, 400, "{flag}: {}", response.body);
        assert_eq!(
            response.body,
            r#"{"error":"\"draining\" must be a boolean"}"#
        );
    }
    let ring = client::request(router.addr(), "GET", "/ring", "").expect("ring");
    assert_eq!(ring.status, 200);
    assert!(ring.body.contains(r#""draining":false"#), "{}", ring.body);
    assert!(!ring.body.contains(r#""draining":true"#), "{}", ring.body);
    let ready = client::request(backend.addr(), "GET", "/readyz", "").expect("readyz");
    assert_eq!(ready.status, 200, "{}", ready.body);
    shut_down(router);
    shut_down(backend);
}

#[test]
fn a_repeated_explain_is_answered_by_the_router_without_a_forward() {
    let backend = const_backend();
    let router = spawn_router(backend.addr(), Duration::from_secs(10));
    let explain = || {
        let r = client::request(router.addr(), "POST", "/explain", EXPLAIN).expect("explain");
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(r.header("x-backend"), Some("b0"));
        r
    };

    let first = explain();
    assert_eq!(first.header("x-cache"), Some("miss"));
    let before = scrape(&router);
    let again = explain();
    assert_eq!(again.body, first.body);
    assert_eq!(again.header("x-cache"), Some("hit"));
    assert_eq!(again.header("x-timing"), None, "no backend handler ran");
    let after = scrape(&router);
    assert_eq!(forward_series(&after), forward_series(&before));
    assert_eq!(metric(&after, "em_route_cache_hits_total"), 1, "{after}");
    assert_eq!(metric(&after, "em_route_cache_misses_total"), 1, "{after}");
    assert_eq!(metric(&after, "em_route_cache_entries"), 1, "{after}");
    let backend_text = client::request(backend.addr(), "GET", "/metrics", "")
        .expect("backend metrics")
        .body;
    assert_eq!(
        metric(
            &backend_text,
            "em_serve_requests_total{endpoint=\"explain\"}"
        ),
        1,
        "the repeat reached the backend"
    );

    shut_down(router);
    shut_down(backend);
}

#[test]
fn an_error_status_is_never_stored() {
    let explains = Arc::new(AtomicUsize::new(0));
    let router = spawn_router(flaky_backend(explains.clone()), Duration::from_secs(10));
    let explain = || client::request(router.addr(), "POST", "/explain", EXPLAIN).expect("explain");

    let refused = explain();
    assert_eq!(refused.status, 503, "{}", refused.body);
    assert_eq!(refused.header("retry-after"), Some("1"));
    assert_eq!(metric(&scrape(&router), "em_route_cache_entries"), 0);

    let computed = explain();
    assert_eq!(computed.status, 200, "{}", computed.body);
    assert_eq!(computed.header("x-cache"), Some("miss"));
    let repeat = explain();
    assert_eq!(repeat.status, 200, "{}", repeat.body);
    assert_eq!(repeat.header("x-cache"), Some("hit"));
    assert_eq!(repeat.body, computed.body);
    assert_eq!(
        explains.load(Ordering::SeqCst),
        2,
        "the 503 was not re-asked"
    );
    let text = scrape(&router);
    assert_eq!(outcome(&text, "status"), 1, "{text}");
    assert_eq!(outcome(&text, "ok"), 1, "{text}");
    assert_eq!(metric(&text, "em_route_cache_entries"), 1, "{text}");
    shut_down(router);
}

#[test]
fn a_repeated_predict_is_forwarded_every_time() {
    let backend = const_backend();
    let router = spawn_router(backend.addr(), Duration::from_secs(10));
    let first = client::request(router.addr(), "POST", "/predict", PREDICT).expect("predict");
    for _ in 0..2 {
        let r = client::request(router.addr(), "POST", "/predict", PREDICT).expect("predict");
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(r.body, first.body);
        assert_eq!(r.header("x-cache"), None);
    }
    let text = scrape(&router);
    assert_eq!(outcome(&text, "ok"), 3, "{text}");
    for series in [
        "em_route_cache_hits_total",
        "em_route_cache_misses_total",
        "em_route_cache_entries",
    ] {
        assert_eq!(metric(&text, series), 0, "{text}");
    }
    shut_down(router);
    shut_down(backend);
}
