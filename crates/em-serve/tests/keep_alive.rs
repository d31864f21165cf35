//! Kept-alive connections over real TCP: a request that asks for
//! `Connection: keep-alive` gets the bytes a fresh connection would get
//! and the connection stays open for the next one; a request that does
//! not ask gets exactly the `Connection: close` answer it always got; and
//! an idle kept-alive connection never keeps a queued request waiting.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use em_entity::{EntityPair, MatchModel, Schema};
use em_par::ParallelismConfig;
use em_serve::client::{self, Pool, PoolUse};
use em_serve::{Server, ServerConfig, ServerHandle};

/// A model that scores the share of left-name tokens found on the right,
/// so explanations depend on the pair.
struct OverlapModel;

impl MatchModel for OverlapModel {
    fn predict_proba(&self, _schema: &Schema, pair: &EntityPair) -> f64 {
        let left: Vec<&str> = pair.left.value(0).split_whitespace().collect();
        let right = pair.right.value(0);
        let shared = left
            .iter()
            .filter(|t| right.split_whitespace().any(|r| r == **t))
            .count();
        shared as f64 / left.len().max(1) as f64
    }
}

const EXPLAIN: &str = r#"{"pair":{"left":{"name":"blue bistro main street"},"right":{"name":"blue bistro main st"}},"explainer":"landmark","config":{"n_samples":32,"seed":5}}"#;
const PREDICT: &str = r#"{"pair":{"left":{"name":"blue bistro main street"},"right":{"name":"blue bistro main st"}}}"#;

fn spawn_server(workers: usize) -> ServerHandle {
    Server::bind(
        "127.0.0.1:0",
        Schema::from_names(vec!["name"]),
        Box::new(OverlapModel),
        ServerConfig {
            parallelism: ParallelismConfig::with_threads(workers),
            ..Default::default()
        },
    )
    .expect("bind")
    .spawn()
}

fn shut_down(server: ServerHandle) {
    let bye = client::request(server.addr(), "POST", "/shutdown", "").expect("shutdown");
    assert_eq!(bye.status, 200);
    server.join();
}

/// Sends one request on a connection that stays open, and reads one
/// response framed by its `Content-Length`: (head, body).
fn send_kept_alive(
    conn: &mut BufReader<TcpStream>,
    method: &str,
    path: &str,
    body: &str,
) -> (String, String) {
    let wire = format!(
        "{method} {path} HTTP/1.1\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len()
    );
    conn.get_mut().write_all(wire.as_bytes()).expect("write");
    let mut head = String::new();
    loop {
        let before = head.len();
        conn.read_line(&mut head).expect("read head");
        assert!(head.len() > before, "connection closed mid-head: {head:?}");
        if head.ends_with("\r\n\r\n") {
            break;
        }
    }
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.parse().ok())
        .expect("Content-Length");
    let mut body = vec![0u8; length];
    conn.read_exact(&mut body).expect("read body");
    (head, String::from_utf8(body).expect("utf-8 body"))
}

/// Opens a connection with a read timeout, so a server that never closes
/// fails the test instead of hanging it.
fn open(addr: SocketAddr) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    BufReader::new(stream)
}

/// Reads until the server closes; `Ok` is what arrived before the close.
fn read_to_close(conn: &mut BufReader<TcpStream>) -> std::io::Result<String> {
    let mut rest = String::new();
    conn.read_to_string(&mut rest).map(|_| rest)
}

#[test]
fn kept_alive_requests_get_the_bytes_of_fresh_connections() {
    let server = spawn_server(2);
    let addr = server.addr();
    let requests = [
        ("POST", "/explain", EXPLAIN),
        ("POST", "/predict", PREDICT),
        ("GET", "/healthz", ""),
    ];
    let fresh: Vec<String> = requests
        .iter()
        .map(|(method, path, body)| {
            let r = client::request(addr, method, path, body).expect("fresh request");
            assert_eq!(r.status, 200, "{}", r.body);
            assert_eq!(r.header("connection"), Some("close"));
            r.body
        })
        .collect();

    let mut conn = open(addr);
    for ((method, path, body), want) in requests.iter().zip(&fresh) {
        let (head, got) = send_kept_alive(&mut conn, method, path, body);
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
        assert!(head.contains("\r\nConnection: keep-alive\r\n"), "{head}");
        assert_eq!(
            &got, want,
            "{method} {path} differs on a kept-alive connection"
        );
    }
    drop(conn);
    shut_down(server);
}

#[test]
fn a_request_that_does_not_ask_gets_the_closing_bytes_unchanged() {
    let server = spawn_server(2);
    let expected = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
Content-Length: 15\r\nConnection: close\r\n\r\n{\"status\":\"ok\"}";
    for ask in ["", "Connection: close\r\n"] {
        let mut conn = open(server.addr());
        conn.get_mut()
            .write_all(format!("GET /healthz HTTP/1.1\r\n{ask}\r\n").as_bytes())
            .expect("write");
        assert_eq!(read_to_close(&mut conn).expect("read"), expected);
    }
    shut_down(server);
}

#[test]
fn an_idle_kept_alive_connection_gives_its_worker_to_a_queued_request() {
    // One worker: while it waits on the kept-alive connection, a new
    // connection can only be served once the worker gives that one up.
    let server = spawn_server(1);
    let addr = server.addr();
    let mut idle = open(addr);
    let (head, _) = send_kept_alive(&mut idle, "GET", "/healthz", "");
    assert!(head.contains("\r\nConnection: keep-alive\r\n"), "{head}");

    let started = Instant::now();
    let health = client::request(addr, "GET", "/healthz", "").expect("queued request");
    let waited = started.elapsed();
    assert_eq!(health.status, 200);
    assert!(
        waited < Duration::from_millis(200),
        "a queued request waited {waited:?} behind an idle kept-alive connection"
    );
    // The kept-alive connection was closed without a word: the peer asked
    // for nothing, so it gets no 408.
    assert_eq!(read_to_close(&mut idle).expect("closed cleanly"), "");

    let text = client::request(addr, "GET", "/metrics", "")
        .expect("metrics")
        .body;
    assert!(
        text.lines()
            .filter(|l| l.starts_with("em_serve_rejects_total{"))
            .all(|l| l.ends_with(" 0")),
        "{text}"
    );
    shut_down(server);
}

#[test]
fn a_pool_reuses_its_connection_until_the_server_closes_it() {
    let server = spawn_server(2);
    let pool = Pool::new(server.addr());
    let opened = PoolUse {
        opened: true,
        ..Default::default()
    };
    let reused = PoolUse {
        reused: true,
        ..Default::default()
    };
    let mut uses = Vec::new();
    for _ in 0..3 {
        let (result, used) = pool.exchange("POST", "/predict", PREDICT, Duration::from_secs(5));
        assert_eq!(result.expect("pooled predict").status, 200);
        uses.push(used);
    }
    assert_eq!(uses, [opened, reused, reused]);
    assert_eq!(pool.idle_count(), 1);

    // Past the server's idle bound (1 s) the pooled connection is closed:
    // the request is re-sent on a fresh one and still answered.
    std::thread::sleep(Duration::from_millis(1500));
    let (result, used) = pool.exchange("GET", "/healthz", "", Duration::from_secs(5));
    assert_eq!(result.expect("re-sent request").status, 200);
    assert_eq!(
        used,
        PoolUse {
            opened: true,
            stale: true,
            ..Default::default()
        }
    );
    pool.discard_idle();
    assert_eq!(pool.idle_count(), 0);
    shut_down(server);
}
