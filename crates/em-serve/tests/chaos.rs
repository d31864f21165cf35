//! Misbehaving-client fault-injection harness, driven over real TCP.
//!
//! Seven attack clients — slowloris header drip, byte-at-a-time body
//! drip, connect-and-hold, never-reading receiver, mid-body abort, and
//! two that first get a connection kept alive (then fall silent, or
//! drip the headers of their second request) — run concurrently against
//! a live server while healthy `/explain` traffic flows. The
//! request-lifecycle hardening (DESIGN.md §14) must hold all of these at
//! once: healthy requests keep completing with responses byte-identical
//! to an unloaded run, every attack connection is reaped by its
//! deadline, and `/metrics` attributes each rejection to its distinct
//! `em_serve_rejects_total{cause=...}`.

#![expect(
    clippy::disallowed_methods,
    reason = "every attack is timed against its deadline with the clock"
)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use em_codec::explain::{encode_explain_request, ExplainRequest};
use em_datagen::{DatasetId, MagellanBenchmark};
use em_entity::{EntityPair, MatchModel, Schema};
use em_lime::ExplainConfig;
use em_matchers::LogisticMatcher;
use em_serve::client;
use em_serve::deadline::{is_timeout, Deadline, DeadlineStream};
use em_serve::http::Response;
use em_serve::{Server, ServerConfig};
use landmark_core::ExplainerKind;

/// The per-connection budget used by the chaos server: short enough to
/// keep the suite fast, long enough that a healthy request (parse +
/// explain + respond) never brushes against it.
const CHAOS_DEADLINE: Duration = Duration::from_millis(1200);

/// The acceptance bound: every attack connection must be reaped within
/// its deadline plus this slack (queue wait + scheduling).
const REAP_SLACK: Duration = Duration::from_secs(2);

/// How often the drip attacks feed the server one byte — comfortably
/// inside any per-read timeout, so only a total deadline stops them.
const DRIP_INTERVAL: Duration = Duration::from_millis(100);

/// A trivial model for the tests that exercise the lifecycle only.
struct ConstModel;

impl MatchModel for ConstModel {
    fn predict_proba(&self, _schema: &Schema, _pair: &EntityPair) -> f64 {
        0.5
    }
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

fn reject_count(text: &str, cause: &str) -> u64 {
    metric(
        text,
        &format!("em_serve_rejects_total{{cause=\"{cause}\"}}"),
    )
}

/// Drains the socket until EOF/reset (the server has finished with us)
/// and returns how long the connection lived since `started`, with the
/// bytes the server sent. Polls with a short read timeout so drip attacks
/// can keep dripping in between.
fn await_reaped(stream: &TcpStream, started: Instant, drip: Option<&[u8]>) -> (Duration, String) {
    stream
        .set_read_timeout(Some(DRIP_INTERVAL))
        .expect("set read timeout");
    let mut buf = [0u8; 4096];
    let mut received = Vec::new();
    loop {
        match (&mut (&*stream)).read(&mut buf) {
            // Response bytes (a 408, say) mean the server is done with
            // us; keep draining until the close comes through.
            Ok(n) if n > 0 => {
                received.extend_from_slice(&buf[..n]);
                continue;
            }
            Ok(_) => break, // EOF: reaped
            Err(e) if is_timeout(&e) => {
                // Still alive — drip the next byte if this attack drips.
                if let Some(bytes) = drip {
                    if (&mut (&*stream)).write_all(bytes).is_err() {
                        break; // reset: reaped
                    }
                }
            }
            Err(_) => break, // reset: reaped
        }
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "attack connection never reaped"
        );
    }
    (
        started.elapsed(),
        String::from_utf8_lossy(&received).into_owned(),
    )
}

/// Opens connections that ask for keep-alive (`GET /healthz`) until the
/// server keeps one open. It closes after the response whenever another
/// connection waits for a worker, so under attack this can take a few
/// tries. Reads byte by byte: nothing past the response may be consumed.
fn kept_alive_connection(addr: SocketAddr) -> TcpStream {
    let started = Instant::now();
    loop {
        let mut stream = TcpStream::connect(addr).expect("keep-alive connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set read timeout");
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nConnection: keep-alive\r\n\r\n")
            .expect("keep-alive request");
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") {
            assert_eq!(
                stream.read(&mut byte).expect("response head"),
                1,
                "closed mid-head"
            );
            head.push(byte[0]);
        }
        let head = String::from_utf8(head).expect("utf-8 head");
        let length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .and_then(|v| v.parse().ok())
            .expect("Content-Length");
        let mut body = vec![0u8; length];
        stream.read_exact(&mut body).expect("response body");
        if head.contains("\r\nConnection: keep-alive\r\n") {
            return stream;
        }
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "the server never kept a connection alive"
        );
    }
}

/// Keep-alive, then silence: the worker waiting for the next request
/// gives the connection up at the idle bound (or sooner, for a queued
/// connection) without a word — the peer asked for nothing, so no 408
/// and no reject.
fn keep_alive_then_silent(addr: SocketAddr) -> Duration {
    let stream = kept_alive_connection(addr);
    let (lived, received) = await_reaped(&stream, Instant::now(), None);
    assert_eq!(received, "", "an idle kept-alive connection was answered");
    lived
}

/// Keep-alive, then a header drip on the second request: the second
/// request runs under a deadline of its own and is reaped mid-header.
/// If the server gave the connection up before the request line arrived
/// (a connection was queued), there was no second request; try again.
fn keep_alive_then_header_drip(addr: SocketAddr) -> Duration {
    for _ in 0..20 {
        let mut stream = kept_alive_connection(addr);
        let started = Instant::now();
        if stream.write_all(b"POST /explain HTTP/1.1\r\n").is_err() {
            continue;
        }
        let (lived, received) = await_reaped(&stream, started, Some(b"X"));
        if received.starts_with("HTTP/1.1 408 ") {
            return lived;
        }
        assert_eq!(received, "", "second request answered with something else");
    }
    panic!("no kept-alive connection carried a second request");
}

/// Slowloris: a real request line, then header bytes dripped one at a
/// time, forever. Per-read timeouts never fire; the deadline must.
fn slowloris_header_drip(addr: SocketAddr) -> Duration {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("slowloris connect");
    stream
        .write_all(b"POST /explain HTTP/1.1\r\n")
        .expect("request line");
    await_reaped(&stream, started, Some(b"X")).0
}

/// Body drip: complete headers declaring a body, then one body byte per
/// interval — the body never completes inside the deadline.
fn body_byte_drip(addr: SocketAddr) -> Duration {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("body-drip connect");
    stream
        .write_all(b"POST /explain HTTP/1.1\r\nContent-Length: 600\r\n\r\n")
        .expect("headers");
    await_reaped(&stream, started, Some(b"a")).0
}

/// Connect-and-hold: open the connection and send nothing at all.
fn connect_and_hold(addr: SocketAddr) -> Duration {
    let started = Instant::now();
    let stream = TcpStream::connect(addr).expect("hold connect");
    await_reaped(&stream, started, None).0
}

/// Never-reading receiver: sends a complete valid request, then refuses
/// to read the response for the whole deadline window. A small response
/// lands in kernel buffers and the server moves on (that is the point:
/// the worker is not held hostage); the late drain below must find the
/// connection already finished and closed.
fn never_reading_receiver(addr: SocketAddr, body: &str) -> Duration {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("never-reading connect");
    let wire = format!(
        "POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(wire.as_bytes()).expect("request");
    // Refuse to read while the server is (maybe) trying to write.
    std::thread::sleep(CHAOS_DEADLINE + REAP_SLACK);
    // The drain must complete near-instantly: everything the server will
    // ever send is already buffered (or the connection is already reset).
    let drain_started = Instant::now();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set read timeout");
    let mut sink = Vec::new();
    let _ = stream.read_to_end(&mut sink);
    assert!(
        drain_started.elapsed() < Duration::from_secs(2),
        "server still owned the connection after the deadline window"
    );
    started.elapsed()
}

/// Mid-body abort: promise a body, send a fragment, vanish.
fn mid_body_abort(addr: SocketAddr) {
    let mut stream = TcpStream::connect(addr).expect("abort connect");
    stream
        .write_all(b"POST /explain HTTP/1.1\r\nContent-Length: 500\r\n\r\npartial-body")
        .expect("partial request");
    drop(stream); // FIN mid-body; the worker must not wait for the rest
}

/// The acceptance scenario: 8 concurrent attack connections (two each of
/// slowloris, body drip, never-reading, connect-and-hold) plus mid-body
/// aborts and the two kept-alive attacks against a 4-worker server,
/// while 50 healthy `/explain` requests complete byte-identical to an
/// unloaded run.
#[test]
fn chaos_suite_healthy_traffic_survives_eight_concurrent_attacks() {
    let suite_started = Instant::now();
    let dataset = MagellanBenchmark::scaled(0.05).generate(DatasetId::SFz);
    let schema = dataset.schema().clone();
    let matcher = LogisticMatcher::train(&dataset);
    let server = Server::bind(
        "127.0.0.1:0",
        schema.clone(),
        Box::new(matcher),
        ServerConfig {
            workers: 4,
            queue_depth: 256,
            request_timeout: CHAOS_DEADLINE,
            // Generous admission bound: healthy requests queued behind
            // attack waves must not be discarded in this scenario.
            max_queue_age: Duration::from_secs(30),
            ..Default::default()
        },
    )
    .expect("bind");
    let handle = server.spawn();
    let addr = handle.addr();

    // Unloaded baseline: one response body per distinct pair.
    let pairs: Vec<EntityPair> = dataset
        .records()
        .iter()
        .take(5)
        .map(|r| r.pair.clone())
        .collect();
    let bodies: Vec<String> = pairs
        .iter()
        .map(|pair| {
            let request = ExplainRequest {
                pair: pair.clone(),
                explainer: ExplainerKind::Landmark,
                config: ExplainConfig {
                    n_samples: 32,
                    seed: 7,
                    ..Default::default()
                },
            };
            encode_explain_request(&schema, &request)
        })
        .collect();
    let baselines: Vec<String> = bodies
        .iter()
        .map(|b| {
            let resp = client::request(addr, "POST", "/explain", b).expect("baseline");
            assert_eq!(resp.status, 200);
            resp.body
        })
        .collect();
    let predict_body = bodies[0].clone();

    std::thread::scope(|scope| {
        // 8 attack connections, two of each kind, all at once.
        let attacks: Vec<_> = (0..2)
            .flat_map(|_| {
                vec![
                    scope.spawn(move || ("slowloris", slowloris_header_drip(addr))),
                    scope.spawn(move || ("body-drip", body_byte_drip(addr))),
                    scope.spawn(move || ("connect-and-hold", connect_and_hold(addr))),
                ]
            })
            .collect();
        let never_readers: Vec<_> = (0..2)
            .map(|_| {
                let body = predict_body.clone();
                scope.spawn(move || never_reading_receiver(addr, &body))
            })
            .collect();
        for _ in 0..2 {
            scope.spawn(move || mid_body_abort(addr));
        }
        let kept_alive = vec![
            scope.spawn(move || ("keep-alive-then-silent", keep_alive_then_silent(addr))),
            scope.spawn(move || ("keep-alive-then-drip", keep_alive_then_header_drip(addr))),
        ];

        // Give the attacks a head start so they genuinely contend with
        // the healthy traffic for workers.
        std::thread::sleep(Duration::from_millis(150));

        // 50 healthy requests across 5 client threads.
        let healthy: Vec<_> = (0..5)
            .map(|t| {
                let bodies = bodies.clone();
                let baselines = baselines.clone();
                scope.spawn(move || {
                    for i in 0..10 {
                        let k = (t + i) % bodies.len();
                        let started = Instant::now();
                        let resp = client::request_with_timeout(
                            addr,
                            "POST",
                            "/explain",
                            &bodies[k],
                            Duration::from_secs(20),
                        )
                        .expect("healthy request must complete under attack");
                        assert_eq!(resp.status, 200, "healthy request failed under attack");
                        assert_eq!(
                            resp.body, baselines[k],
                            "response under attack diverged from the unloaded run"
                        );
                        assert!(
                            started.elapsed() < Duration::from_secs(15),
                            "healthy latency unbounded under attack: {:?}",
                            started.elapsed()
                        );
                    }
                })
            })
            .collect();

        for h in healthy {
            h.join().expect("healthy client");
        }
        for a in attacks.into_iter().chain(kept_alive) {
            let (kind, lived) = a.join().expect("attack client");
            assert!(
                lived <= CHAOS_DEADLINE + REAP_SLACK,
                "{kind} connection outlived deadline+slack: {lived:?}"
            );
        }
        for n in never_readers {
            n.join().expect("never-reading client");
        }
    });

    // Every attack kind shows up under its distinct cause.
    let text = client::request(addr, "GET", "/metrics", "")
        .expect("metrics")
        .body;
    // The kept-alive drip adds one header_deadline; the silent kept-alive
    // connection adds nothing, so exactly the two connect-and-hold
    // attacks count as idle.
    assert!(reject_count(&text, "header_deadline") >= 3, "{text}");
    assert!(reject_count(&text, "body_deadline") >= 2, "{text}");
    assert_eq!(reject_count(&text, "idle"), 2, "{text}");
    assert!(reject_count(&text, "peer_abort") >= 2, "{text}");
    // The healthy traffic all landed on /explain, error-free.
    assert!(metric(&text, "em_serve_requests_total{endpoint=\"explain\"}") >= 55);
    assert_eq!(
        metric(&text, "em_serve_request_errors_total{endpoint=\"explain\"}"),
        0
    );

    let bye = client::request(addr, "POST", "/shutdown", "").expect("shutdown");
    assert_eq!(bye.status, 200);
    handle.join();
    assert!(
        suite_started.elapsed() < Duration::from_secs(60),
        "chaos suite must stay under the CI wall-clock bound, took {:?}",
        suite_started.elapsed()
    );
}

/// Regression (accept-thread blocking shed write): with the worker pool
/// wedged and the queue full, shed 503s go to never-reading clients
/// without the accept loop ever blocking — later connections keep being
/// accepted and answered promptly.
#[test]
fn accept_loop_keeps_accepting_while_shedding_to_never_reading_clients() {
    let server = Server::bind(
        "127.0.0.1:0",
        Schema::from_names(vec!["name"]),
        Box::new(ConstModel),
        ServerConfig {
            workers: 1,
            queue_depth: 1,
            request_timeout: Duration::from_millis(1500),
            max_queue_age: Duration::from_secs(10),
            ..Default::default()
        },
    )
    .expect("bind");
    let handle = server.spawn();
    let addr = handle.addr();

    // Wedge the single worker (connect-and-hold) and fill the one queue
    // slot with a second idle connection.
    let wedge = TcpStream::connect(addr).expect("wedge connect");
    let filler = TcpStream::connect(addr).expect("filler connect");
    std::thread::sleep(Duration::from_millis(150)); // let both settle

    // Five never-reading clients hit the full queue: each gets the
    // non-blocking shed write and never drains it. The old code called a
    // blocking `write_to` on the accept thread here — one such client
    // stalled `accept` for everyone.
    let shed_clients: Vec<TcpStream> = (0..5)
        .map(|i| {
            let mut s = TcpStream::connect(addr)
                .unwrap_or_else(|e| panic!("shed client {i} blocked from connecting: {e}"));
            s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
                .expect("request");
            s // kept open, response never read
        })
        .collect();

    // The accept loop must still be servicing new connections promptly.
    // A shed 503 is delivered best-effort: if the probe's request bytes
    // have not yet crossed the loopback when the accept thread closes,
    // the kernel answers later arrivals with RST and the probe sees a
    // reset instead of the 503 — so a reset is retried. What may never
    // happen is a slow or absent *accept*: every attempt must resolve
    // fast, and the whole loop stays under the one-second liveness bound.
    let probe_started = Instant::now();
    let probe = (0..5)
        .find_map(|_| {
            client::request_with_timeout(addr, "GET", "/healthz", "", Duration::from_secs(2)).ok()
        })
        .expect("probe must be accepted and answered while sheds are pending");
    assert_eq!(probe.status, 503, "probe should be shed, not queued");
    assert_eq!(probe.header("retry-after"), Some("1"));
    assert_eq!(probe.body, "{\"error\":\"server overloaded\"}");
    assert!(
        probe_started.elapsed() < Duration::from_secs(1),
        "accept loop stalled behind never-reading shed clients: {:?}",
        probe_started.elapsed()
    );

    // After the wedge's deadline reaps it, normal service resumes.
    drop(wedge);
    drop(filler);
    drop(shed_clients);
    std::thread::sleep(Duration::from_millis(1700));
    let healthy = client::request(addr, "GET", "/healthz", "").expect("healthy after sheds");
    assert_eq!(healthy.status, 200);

    let text = client::request(addr, "GET", "/metrics", "")
        .expect("metrics")
        .body;
    let shed_total = reject_count(&text, "shed") + reject_count(&text, "shed_drop");
    assert!(
        shed_total >= 6,
        "expected ≥6 sheds (5 clients + probe): {text}"
    );
    // Regression (shed-path metrics pollution): sheds are rejects, not
    // zero-latency `Other` samples dragging p50 toward zero.
    assert_eq!(
        metric(&text, "em_serve_requests_total{endpoint=\"other\"}"),
        0,
        "sheds must not be counted as served `other` requests: {text}"
    );

    let bye = client::request(addr, "POST", "/shutdown", "").expect("shutdown");
    assert_eq!(bye.status, 200);
    handle.join();
}

/// Regression (shutdown self-wake on a wildcard bind): the self-wake used
/// to connect to `0.0.0.0:<port>`, which is platform-dependent and can
/// leave `run()` blocked in `accept` forever. Binding `0.0.0.0` must now
/// shut down cleanly (the wake aims at loopback).
#[test]
fn wildcard_bind_shuts_down_cleanly() {
    let server = Server::bind(
        "0.0.0.0:0",
        Schema::from_names(vec!["name"]),
        Box::new(ConstModel),
        ServerConfig {
            workers: 1,
            ..Default::default()
        },
    )
    .expect("bind wildcard");
    let port = server.local_addr().port();
    let handle = server.spawn();
    let addr: SocketAddr = format!("127.0.0.1:{port}").parse().expect("loopback addr");

    let bye = client::request(addr, "POST", "/shutdown", "").expect("shutdown");
    assert_eq!(bye.status, 200);

    // Join under a watchdog: a missed wake-up means `accept` blocks
    // forever and `join` never returns.
    let joined = std::sync::Arc::new(AtomicBool::new(false));
    let flag = joined.clone();
    std::thread::spawn(move || {
        handle.join();
        flag.store(true, Ordering::SeqCst);
    });
    let waited = Instant::now();
    while !joined.load(Ordering::SeqCst) {
        assert!(
            waited.elapsed() < Duration::from_secs(10),
            "server bound to 0.0.0.0 failed to shut down: accept never woke"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Admission control: connections that outwait the queue-age bound are
/// discarded unanswered (their clients have long timed out), and fresh
/// connections afterwards are served normally.
#[test]
fn stale_queued_connections_are_discarded_unanswered() {
    let server = Server::bind(
        "127.0.0.1:0",
        Schema::from_names(vec!["name"]),
        Box::new(ConstModel),
        ServerConfig {
            workers: 1,
            queue_depth: 16,
            request_timeout: Duration::from_millis(600),
            max_queue_age: Duration::from_millis(50),
            ..Default::default()
        },
    )
    .expect("bind");
    let handle = server.spawn();
    let addr = handle.addr();

    // Wedge the single worker for ~600 ms.
    let wedge = TcpStream::connect(addr).expect("wedge connect");
    std::thread::sleep(Duration::from_millis(100));

    // Three healthy requests arrive while the worker is wedged; by the
    // time it frees up they are ~500 ms old — far past the 50 ms bound.
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..3)
            .map(|_| {
                scope.spawn(move || {
                    client::request_with_timeout(
                        addr,
                        "GET",
                        "/healthz",
                        "",
                        Duration::from_secs(5),
                    )
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client"))
            .collect()
    });
    for outcome in &outcomes {
        assert!(
            outcome.is_err(),
            "stale connection should be dropped unanswered, got {outcome:?}"
        );
    }

    // The wedge has been reaped; a fresh request is young when popped
    // and gets served.
    drop(wedge);
    std::thread::sleep(Duration::from_millis(200));
    let fresh = client::request(addr, "GET", "/healthz", "").expect("fresh request");
    assert_eq!(fresh.status, 200);

    let text = client::request(addr, "GET", "/metrics", "")
        .expect("metrics")
        .body;
    assert_eq!(reject_count(&text, "stale_queue"), 3, "{text}");
    assert_eq!(reject_count(&text, "idle"), 1, "{text}");

    let bye = client::request(addr, "POST", "/shutdown", "").expect("shutdown");
    assert_eq!(bye.status, 200);
    handle.join();
}

/// The write half of the deadline, over real TCP: a response too large
/// for the kernel buffers of a never-reading peer must be abandoned when
/// the budget expires — the worker is freed, not held hostage. (Real
/// explanation responses are a few KB and land in the buffers whole,
/// which is why the end-to-end chaos test above cannot wedge a worker
/// this way; this pins the defence for arbitrarily large responses.)
#[test]
fn response_write_is_abandoned_when_the_peer_never_reads() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    let peer = TcpStream::connect(addr).expect("connect");
    let (server_side, _) = listener.accept().expect("accept");

    // 8 MiB: beyond any plausible loopback send+receive buffering.
    let response = Response::json(200, "x".repeat(8 << 20));
    let deadline = Deadline::starting_now(Duration::from_millis(500));
    let started = Instant::now();
    let err = response
        .write_to(&mut DeadlineStream::new(&server_side, deadline), false)
        .expect_err("writing 8 MiB to a never-reading peer must hit the deadline");
    assert!(is_timeout(&err), "expected a timeout, got {err:?}");
    let elapsed = started.elapsed();
    assert!(
        elapsed >= Duration::from_millis(400),
        "gave up before the budget was spent: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "write was not bounded by the deadline: {elapsed:?}"
    );
    drop(peer);
}
