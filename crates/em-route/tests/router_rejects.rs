//! Reject attribution at the routing tier, over real TCP.
//!
//! The router runs the same connection lifecycle as `em-serve`, so a
//! misbehaving client is reaped by the same defence and counted under
//! the same cause in `em_route_rejects_total{cause=...}`. No test needs
//! a live backend: every request here is rejected before the router
//! would forward it, so the single backend address points at a closed
//! port.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use em_datagen::{DatasetId, Domain};
use em_par::ParallelismConfig;
use em_route::{BackendSpec, HealthConfig, Router, RouterConfig};
use em_serve::client;

/// The exact bytes of the 408 a reaped connection receives.
const DEADLINE_408: &str = "HTTP/1.1 408 Request Timeout\r\nContent-Type: application/json\r\n\
Content-Length: 37\r\nConnection: close\r\n\r\n{\"error\":\"request deadline exceeded\"}";

/// The exact bytes of the 503 the accept loop sheds with.
const OVERLOADED_503: &str =
    "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
Content-Length: 29\r\nConnection: close\r\nRetry-After: 1\r\n\r\n{\"error\":\"router overloaded\"}";

/// A port nothing listens on: bound, read, released.
fn closed_port() -> SocketAddr {
    let probe = TcpListener::bind("127.0.0.1:0").expect("bind probe");
    probe.local_addr().expect("probe addr")
}

fn spawn_router(workers: usize, queue_depth: usize, timeout: Duration) -> em_serve::ServerHandle {
    let schema = Domain::new(DatasetId::SFz.spec().domain).schema();
    Router::bind(
        "127.0.0.1:0",
        schema,
        vec![BackendSpec::new("b0", closed_port())],
        RouterConfig {
            parallelism: ParallelismConfig::with_threads(workers),
            queue_depth,
            request_timeout: timeout,
            health: HealthConfig {
                probe_interval: Duration::from_secs(60),
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

fn reject_count(text: &str, cause: &str) -> u64 {
    metric(
        text,
        &format!("em_route_rejects_total{{cause=\"{cause}\"}}"),
    )
}

/// Everything the router sends before closing the connection.
fn read_all(mut stream: &TcpStream) -> String {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read response");
    out
}

fn scrape_and_shut_down(router: em_serve::ServerHandle) -> String {
    let metrics = client::request(router.addr(), "GET", "/metrics", "").expect("scrape");
    assert_eq!(metrics.status, 200);
    client::request(router.addr(), "POST", "/shutdown", "").expect("shutdown");
    router.join();
    metrics.body
}

#[test]
fn silent_and_dripping_connections_are_reaped_under_their_own_causes() {
    let router = spawn_router(2, 16, Duration::from_millis(400));

    // Connect-and-hold: not one byte is ever sent.
    let silent = TcpStream::connect(router.addr()).expect("connect silent");
    // Header drip: a request line, then one header byte at a time, each
    // well inside any per-read window — only the total deadline stops it.
    let mut drip = TcpStream::connect(router.addr()).expect("connect drip");
    drip.write_all(b"POST /explain HTTP/1.1\r\nX-Drip: ")
        .expect("request line");
    for _ in 0..3 {
        std::thread::sleep(Duration::from_millis(100));
        if drip.write_all(b"x").is_err() {
            break;
        }
    }

    assert_eq!(read_all(&silent), DEADLINE_408);
    assert_eq!(read_all(&drip), DEADLINE_408);

    let text = scrape_and_shut_down(router);
    assert_eq!(reject_count(&text, "idle"), 1, "{text}");
    assert_eq!(reject_count(&text, "header_deadline"), 1, "{text}");
    for cause in ["shed", "shed_drop", "stale_queue", "body_deadline"] {
        assert_eq!(reject_count(&text, cause), 0, "{cause}: {text}");
    }
}

#[test]
fn a_full_queue_is_shed_with_the_routers_503() {
    // One worker and a one-slot queue hold at most two connections. A
    // silent connection keeps the worker for the whole 1 s deadline, so
    // of three opened back to back at least one finds the queue full and
    // is shed; every other one is reaped as idle. Which ones is up to the
    // scheduler, so the test checks the counts, not the order.
    let router = spawn_router(1, 1, Duration::from_secs(1));
    let conns: Vec<TcpStream> = (0..3)
        .map(|_| TcpStream::connect(router.addr()).expect("connect"))
        .collect();
    let responses: Vec<String> = conns.iter().map(read_all).collect();
    let shed = responses.iter().filter(|r| *r == OVERLOADED_503).count();
    let reaped = responses.iter().filter(|r| *r == DEADLINE_408).count();
    assert!(shed >= 1, "{responses:?}");
    assert_eq!(shed + reaped, 3, "{responses:?}");

    let text = scrape_and_shut_down(router);
    assert_eq!(reject_count(&text, "shed"), shed as u64, "{text}");
    assert_eq!(reject_count(&text, "idle"), reaped as u64, "{text}");
}

#[test]
fn a_body_the_codec_refuses_is_answered_without_a_forward() {
    // The router decodes with em-serve's codec, so a request a backend
    // would refuse with a 400 never leaves the router. The lasso solver
    // once panicked the backend worker that explained such a request.
    let router = spawn_router(1, 4, Duration::from_secs(5));
    let body = r#"{"pair":{"left":{"name":"alpha"},"right":{"name":"beta"}},"config":{"solver":"lasso","lambda":0}}"#;
    let response = client::request(router.addr(), "POST", "/explain", body).expect("explain");
    assert_eq!(response.status, 400, "{}", response.body);
    assert_eq!(response.body, r#"{"error":"\"solver\" must be \"ridge\""}"#);

    let text = scrape_and_shut_down(router);
    let forwarded: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("em_route_requests_total{") && !l.ends_with(" 0"))
        .collect();
    assert!(forwarded.is_empty(), "{forwarded:?}");
    assert_eq!(metric(&text, "em_route_no_backend_total"), 0, "{text}");
}
