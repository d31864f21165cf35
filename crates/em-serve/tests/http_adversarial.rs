//! Adversarial HTTP framing tests over real TCP: hostile or broken
//! clients must get clean 4xx answers (or silence, for a bare probe),
//! the metrics counters must move exactly as specified, and no worker
//! may wedge — a well-formed request after every attack still succeeds.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use em_entity::{EntityPair, MatchModel, Schema};
use em_serve::client;
use em_serve::{Server, ServerConfig};

/// A model that never looks at the pair — these tests exercise framing,
/// not explanation quality.
struct ConstModel;

impl MatchModel for ConstModel {
    fn predict_proba(&self, _schema: &Schema, _pair: &EntityPair) -> f64 {
        0.5
    }
}

/// Writes raw bytes to the server and returns everything it sends back.
/// `close_write` half-closes the socket first, so the server sees EOF
/// where it expects more body.
fn raw_roundtrip(addr: SocketAddr, payload: &[u8], close_write: bool) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    stream.write_all(payload).expect("write payload");
    if close_write {
        stream.shutdown(Shutdown::Write).expect("half-close");
    }
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
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
fn hostile_framing_is_rejected_cleanly_and_nothing_wedges() {
    let schema = Schema::from_names(vec!["name"]);
    let server = Server::bind(
        "127.0.0.1:0",
        schema,
        Box::new(ConstModel),
        ServerConfig::default(),
    )
    .expect("bind ephemeral port");
    let handle = server.spawn();
    let addr = handle.addr();

    // 1. Immediate-close probe: connect and hang up without a byte. The
    //    server must not answer it and must not count it as malformed.
    drop(TcpStream::connect(addr).expect("probe connect"));

    // 2. Oversized request line: one byte past the 16 KiB header cap,
    //    with no newline. The old unbounded `read_line` buffered such
    //    lines forever; the capped read rejects with a 400. (Exactly
    //    cap+1 bytes so the server drains our send entirely — leftover
    //    unread bytes would turn its close into a TCP reset.)
    let oversized = raw_roundtrip(addr, &vec![b'a'; (16 << 10) + 1], false);
    assert!(oversized.starts_with("HTTP/1.1 400 "), "{oversized}");
    assert!(oversized.contains("header cap"), "{oversized}");

    // 3. Conflicting Content-Length values: the request-smuggling
    //    ambiguity. Must be refused outright, not resolved silently.
    //    (No body bytes follow: the server rejects on the headers alone.)
    let conflicting = raw_roundtrip(
        addr,
        b"POST /explain HTTP/1.1\r\nContent-Length: 10\r\nContent-Length: 4\r\n\r\n",
        false,
    );
    assert!(conflicting.starts_with("HTTP/1.1 400 "), "{conflicting}");
    assert!(conflicting.contains("conflicting"), "{conflicting}");

    // 4. Duplicate but *identical* Content-Length values are harmless and
    //    stay accepted.
    let duplicate = raw_roundtrip(
        addr,
        b"GET /healthz HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi",
        false,
    );
    assert!(duplicate.starts_with("HTTP/1.1 200 "), "{duplicate}");

    // 5. Truncated body: Content-Length promises 100 bytes, the client
    //    half-closes after 5. The worker must not hang waiting; the EOF
    //    surfaces as a 400.
    let truncated = raw_roundtrip(
        addr,
        b"POST /explain HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort",
        true,
    );
    assert!(truncated.starts_with("HTTP/1.1 400 "), "{truncated}");

    // No worker is wedged: a well-formed request still round-trips.
    let health = client::request(addr, "GET", "/healthz", "").unwrap();
    assert_eq!(health.status, 200);

    // Give the probe's worker a moment to finish its (silent) handling
    // before scraping counters.
    std::thread::sleep(Duration::from_millis(200));
    let text = client::request(addr, "GET", "/metrics", "").unwrap().body;
    // Exactly the three malformed requests — the bare probe adds nothing.
    assert_eq!(
        metric(&text, "em_serve_requests_total{endpoint=\"other\"}"),
        3
    );
    assert_eq!(
        metric(&text, "em_serve_request_errors_total{endpoint=\"other\"}"),
        3
    );
    // The two good requests (healthz here, plus the duplicate-CL healthz).
    assert_eq!(
        metric(&text, "em_serve_requests_total{endpoint=\"healthz\"}"),
        2
    );
    assert_eq!(
        metric(&text, "em_serve_request_errors_total{endpoint=\"healthz\"}"),
        0
    );

    let bye = client::request(addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(bye.status, 200);
    handle.join();
}

#[test]
fn a_head_that_is_not_utf8_is_a_malformed_request_not_a_peer_abort() {
    // Regression: the head reader failed such a line as an i/o error, so
    // the answer read `i/o: stream did not contain valid UTF-8` and the
    // connection was counted as a peer abort although the peer sent the
    // whole request.
    let server = Server::bind(
        "127.0.0.1:0",
        Schema::from_names(vec!["name"]),
        Box::new(ConstModel),
        ServerConfig::default(),
    )
    .expect("bind ephemeral port");
    let handle = server.spawn();
    let addr = handle.addr();

    let answer = raw_roundtrip(
        addr,
        b"GET /healthz HTTP/1.1\r\nX-Name: caf\xe9\r\n\r\n",
        false,
    );
    assert!(answer.starts_with("HTTP/1.1 400 "), "{answer}");
    assert!(
        answer.ends_with("\r\n\r\n{\"error\":\"malformed request: header section is not UTF-8\"}"),
        "{answer}"
    );

    let text = client::request(addr, "GET", "/metrics", "").unwrap().body;
    assert_eq!(
        metric(&text, "em_serve_rejects_total{cause=\"peer_abort\"}"),
        0
    );
    assert_eq!(
        metric(&text, "em_serve_request_errors_total{endpoint=\"other\"}"),
        1
    );

    let bye = client::request(addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(bye.status, 200);
    handle.join();
}

#[test]
fn a_chunked_body_is_refused_with_501_and_the_connection_closes() {
    // Regression: the chunks were never read, so the body parsed as empty
    // JSON (a 400), and on a kept-alive connection the chunk bytes would
    // have been parsed as the next request. Now the request is refused
    // whole, and the connection closes although it asked to stay open.
    let server = Server::bind(
        "127.0.0.1:0",
        Schema::from_names(vec!["name"]),
        Box::new(ConstModel),
        ServerConfig::default(),
    )
    .expect("bind ephemeral port");
    let handle = server.spawn();
    let addr = handle.addr();

    let answer = raw_roundtrip(
        addr,
        b"POST /predict HTTP/1.1\r\nTransfer-Encoding: chunked\r\nConnection: keep-alive\r\n\r\n\
7\r\n{\"pair\"\r\n0\r\n\r\n",
        false,
    );
    let message = "{\"error\":\"Transfer-Encoding is not supported; send Content-Length\"}";
    assert_eq!(
        answer,
        format!(
            "HTTP/1.1 501 Not Implemented\r\nContent-Type: application/json\r\n\
Content-Length: {}\r\nConnection: close\r\n\r\n{message}",
            message.len()
        )
    );

    let text = client::request(addr, "GET", "/metrics", "").unwrap().body;
    assert_eq!(
        metric(&text, "em_serve_request_errors_total{endpoint=\"other\"}"),
        1
    );
    let bye = client::request(addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(bye.status, 200);
    handle.join();
}
