//! A tiny blocking HTTP client for the router, integration tests, and
//! benches.
//!
//! Speaks exactly the dialect the server emits: responses framed by
//! `Content-Length`, read by one parser (`read_response`) whether the
//! connection is used once or kept alive. The one-shot API ([`request`],
//! [`exchange`]) opens a connection per request and sends
//! `Connection: close`; a [`Pool`] keeps idle connections to one backend
//! and sends each request on one of them with `Connection: keep-alive`.
//! Either way, one exchange — connect, request write, and every response
//! read — runs under one [`Deadline`] ([`DEFAULT_TIMEOUT`] unless
//! overridden), so a wedged or dripping server fails the exchange within
//! its budget instead of holding the caller.
//!
//! Failures are typed ([`ClientError`]) by what a failover policy may do
//! with them: a [`ClientError::Connect`] means no request byte ever
//! reached the backend (safe to retry elsewhere), while
//! [`ClientError::Status`] means the backend answered — it carries the
//! full response (including `Retry-After`) so "backend said no" can be
//! passed through rather than treated as "backend down". A pooled
//! connection the backend closed between requests is not an error: the
//! request is re-sent once on a fresh connection, and that attempt types
//! the failure.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::deadline::{is_timeout, Deadline, DeadlineStream};
use crate::http::{has_keep_alive, read_capped_line, MAX_HEADER_BYTES};

/// Exchange budget applied by [`request`] and [`exchange`]: bounds the
/// connect, the request write and the whole response read together.
/// Generous, because a cold `/explain` trains nothing but can still
/// compute for seconds on a loaded CI box.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

/// A parsed response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body.
    pub body: String,
}

impl ClientResponse {
    /// First header with the given lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why an exchange failed, separated by what a failover policy may do
/// about it (DESIGN.md §15).
#[derive(Debug)]
pub enum ClientError {
    /// TCP connect failed (refused, unreachable, or connect timeout): no
    /// request byte ever reached the backend, so retrying the same
    /// request against another backend cannot double-execute anything.
    Connect(std::io::Error),
    /// The exchange budget ran out *after* the connection was
    /// established. The backend may have received — and may still be
    /// processing — the request; only idempotent requests are safe to
    /// retry.
    Timeout(std::io::Error),
    /// The backend answered with a non-2xx status. This is not a
    /// transport failure: the full response (including any `Retry-After`)
    /// is carried so a proxy can pass it through verbatim.
    Status(ClientResponse),
    /// The backend spoke, but not valid HTTP — or the connection broke
    /// mid-exchange with a non-timeout error. The request reached the
    /// peer, so this is distinct from [`ClientError::Connect`].
    Protocol(std::io::Error),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "connect failed: {e}"),
            ClientError::Timeout(e) => write!(f, "exchange timed out: {e}"),
            ClientError::Status(r) => write!(f, "backend answered {}", r.status),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// Collapses the typed error back into `std::io::Error` for the
    /// legacy [`request`] API (which reports any parsed response as `Ok`
    /// and everything else as IO).
    fn into_io(self) -> std::io::Error {
        match self {
            ClientError::Connect(e) | ClientError::Timeout(e) | ClientError::Protocol(e) => e,
            ClientError::Status(r) => {
                std::io::Error::other(format!("backend answered {}", r.status))
            }
        }
    }

    /// Types a failure on an established connection.
    fn established(error: std::io::Error) -> ClientError {
        if is_timeout(&error) {
            ClientError::Timeout(error)
        } else {
            ClientError::Protocol(error)
        }
    }
}

/// Sends one request and reads the full response, under
/// [`DEFAULT_TIMEOUT`]. Any parsed response — whatever its status — is
/// `Ok`; use [`exchange`] when the caller needs failures typed.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<ClientResponse> {
    request_with_timeout(addr, method, path, body, DEFAULT_TIMEOUT)
}

/// [`request`] with an explicit exchange budget (see [`exchange_with_timeout`]).
pub fn request_with_timeout(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> std::io::Result<ClientResponse> {
    transfer(addr, method, path, body, timeout).map_err(ClientError::into_io)
}

/// Sends one request under [`DEFAULT_TIMEOUT`], with failures typed for
/// failover: `Ok` is a 2xx response; a non-2xx answer is
/// [`ClientError::Status`] carrying the full response.
pub fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<ClientResponse, ClientError> {
    exchange_with_timeout(addr, method, path, body, DEFAULT_TIMEOUT)
}

/// [`exchange`] with an explicit exchange budget. `timeout` bounds the
/// connect, the request write and the whole response read together: a
/// server that accepts but never answers, or drips its answer, fails the
/// exchange within one `timeout`. Sub-millisecond values are raised to
/// 1 ms — a zero socket timeout means "block forever", the opposite of
/// what a caller asking for a tiny timeout wants.
pub fn exchange_with_timeout(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> Result<ClientResponse, ClientError> {
    transfer(addr, method, path, body, timeout).and_then(require_2xx)
}

/// Idle keep-alive connections to one backend, the most recently used on
/// top, behind a mutex. A caller holds a connection only for the length
/// of one exchange, so the stack never grows past the number of callers
/// exchanging at once. The stack is a deque used at its back: em-lint
/// resolves calls by method name, and `Vec::pop` would resolve to
/// [`crate::pool::BoundedQueue::pop`].
#[derive(Debug)]
pub struct Pool {
    addr: SocketAddr,
    idle: Mutex<VecDeque<TcpStream>>,
}

/// How one pooled exchange used connections, for the caller's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolUse {
    /// A fresh connection was opened.
    pub opened: bool,
    /// The response came back on a pooled connection.
    pub reused: bool,
    /// A pooled connection was found closed before any response byte,
    /// and the request was re-sent on a fresh one.
    pub stale: bool,
}

impl Pool {
    /// An empty pool for the backend at `addr`.
    pub fn new(addr: SocketAddr) -> Pool {
        Pool {
            addr,
            idle: Mutex::new(VecDeque::new()),
        }
    }

    /// Idle connections currently held.
    pub fn idle_count(&self) -> usize {
        self.idle_stack().len()
    }

    /// Closes every idle connection: after a connect failure or timeout,
    /// an ejection or a drain, none of them is worth trying again.
    pub fn discard_idle(&self) {
        self.idle_stack().clear();
    }

    /// Sends one request under one exchange budget, on the most recently
    /// used idle connection when there is one, typed like
    /// [`exchange_with_timeout`]. A pooled connection that fails before
    /// one response byte arrives (write error, EOF or reset) was closed by
    /// the backend between requests, so the request is re-sent once on a
    /// fresh connection, and the fresh attempt types any failure:
    /// [`ClientError::Connect`] still means no backend took the request.
    /// A timeout on a pooled connection is not re-sent — the backend may
    /// still be computing. The connection goes back on the stack when the
    /// response says `Connection: keep-alive`.
    pub fn exchange(
        &self,
        method: &str,
        path: &str,
        body: &str,
        timeout: Duration,
    ) -> (Result<ClientResponse, ClientError>, PoolUse) {
        let deadline = exchange_deadline(timeout);
        let wire = request_wire(self.addr, method, path, body, true);
        let mut used = PoolUse::default();
        if let Some(stream) = self.checkout() {
            match round_trip(&stream, deadline, &wire) {
                Ok((response, reusable)) => {
                    used.reused = true;
                    if reusable {
                        self.checkin(stream);
                    }
                    return (require_2xx(response), used);
                }
                Err(Failed { error, answered }) if answered || is_timeout(&error) => {
                    return (Err(ClientError::established(error)), used);
                }
                Err(_) => used.stale = true,
            }
        }
        let result = connect(self.addr, deadline).and_then(|stream| {
            used.opened = true;
            let (response, reusable) = round_trip(&stream, deadline, &wire)
                .map_err(|failed| ClientError::established(failed.error))?;
            if reusable {
                self.checkin(stream);
            }
            Ok(response)
        });
        (result.and_then(require_2xx), used)
    }

    /// The idle stack. A worker that panicked while holding the lock left
    /// nothing half-done in a stack of whole connections, so poisoning is
    /// ignored.
    fn idle_stack(&self) -> MutexGuard<'_, VecDeque<TcpStream>> {
        self.idle.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn checkout(&self) -> Option<TcpStream> {
        self.idle_stack().pop_back()
    }

    fn checkin(&self, stream: TcpStream) {
        self.idle_stack().push_back(stream);
    }
}

/// `Ok` for a 2xx response, [`ClientError::Status`] for any other.
fn require_2xx(response: ClientResponse) -> Result<ClientResponse, ClientError> {
    if (200..300).contains(&response.status) {
        Ok(response)
    } else {
        Err(ClientError::Status(response))
    }
}

/// The budget of one exchange, raised to at least 1 ms.
fn exchange_deadline(timeout: Duration) -> Deadline {
    Deadline::starting_now(timeout.max(Duration::from_millis(1)))
}

/// The request's wire bytes.
fn request_wire(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    keep_alive: bool,
) -> String {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{body}",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )
}

/// The one-shot exchange: connect, send with `Connection: close`, read
/// one response. `Ok` is any parsed response; errors are typed by phase
/// (connect vs. established).
fn transfer(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> Result<ClientResponse, ClientError> {
    let deadline = exchange_deadline(timeout);
    let stream = connect(addr, deadline)?;
    round_trip(
        &stream,
        deadline,
        &request_wire(addr, method, path, body, false),
    )
    .map(|(response, _)| response)
    .map_err(|failed| ClientError::established(failed.error))
}

/// Opens a connection within what is left of `deadline`. A connect
/// timeout is still a *connect* failure: the handshake never completed,
/// so no byte reached the backend.
fn connect(addr: SocketAddr, deadline: Deadline) -> Result<TcpStream, ClientError> {
    let left = deadline.remaining().ok_or_else(|| {
        ClientError::Connect(std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            "exchange budget spent before connecting",
        ))
    })?;
    let stream = TcpStream::connect_timeout(&addr, left).map_err(ClientError::Connect)?;
    // Each request is one write; on a kept-alive connection Nagle could
    // hold it for the ACK of the previous one.
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// A failed [`round_trip`]: the error, and whether any response byte had
/// arrived before it.
struct Failed {
    error: std::io::Error,
    answered: bool,
}

/// Writes `wire` and reads one response, every socket call charged to
/// `deadline`. Returns the response and whether the connection may carry
/// another request: the response said `Connection: keep-alive` and
/// nothing followed it.
fn round_trip(
    stream: &TcpStream,
    deadline: Deadline,
    wire: &str,
) -> Result<(ClientResponse, bool), Failed> {
    let mut socket = DeadlineStream::new(stream, deadline);
    if let Err(error) = socket
        .write_all(wire.as_bytes())
        .and_then(|()| socket.flush())
    {
        return Err(Failed {
            error,
            answered: false,
        });
    }
    let mut reader = BufReader::new(socket);
    match read_response(&mut reader) {
        Ok(response) => {
            let reusable = reader.buffer().is_empty() && has_keep_alive(&response.headers);
            Ok((response, reusable))
        }
        Err(error) => Err(Failed {
            error,
            answered: reader.get_ref().bytes_read() > 0,
        }),
    }
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

/// One line of the response head, charged to the head's byte budget.
fn head_line<R: BufRead>(reader: &mut R, budget: &mut usize) -> std::io::Result<String> {
    let line = read_capped_line(reader, *budget)?
        .ok_or_else(|| bad("response head exceeds the header cap"))?;
    *budget -= line.len();
    Ok(line)
}

/// Reads one response framed by its `Content-Length`, leaving `reader`
/// at the first byte after it. EOF before the first byte is
/// [`std::io::ErrorKind::UnexpectedEof`]; a missing or short body, or a
/// head that is not HTTP, is [`std::io::ErrorKind::InvalidData`].
fn read_response<R: BufRead>(reader: &mut R) -> std::io::Result<ClientResponse> {
    let mut budget = MAX_HEADER_BYTES;
    let status_line = head_line(reader, &mut budget)?;
    if status_line.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed before any response byte",
        ));
    }
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut headers = Vec::new();
    loop {
        let line = head_line(reader, &mut budget)?;
        if line.is_empty() {
            return Err(bad("no header/body separator"));
        }
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            break;
        }
        let (name, value) = line.split_once(':').ok_or_else(|| bad("bad header"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let declared = headers
        .iter()
        .find(|(name, _)| name == "content-length")
        .ok_or_else(|| bad("response without Content-Length"))?
        .1
        .parse::<u64>()
        .map_err(|_| bad("bad content-length"))?;
    let mut body = Vec::new();
    reader.take(declared).read_to_end(&mut body)?;
    if body.len() as u64 != declared {
        return Err(bad("truncated body"));
    }
    let body = String::from_utf8(body).map_err(|_| bad("response is not utf-8"))?;
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accepts exactly one connection and answers with `wire` verbatim.
    fn one_shot_server(wire: &'static str) -> SocketAddr {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            if let Ok((mut stream, _)) = listener.accept() {
                let mut sink = [0u8; 4096];
                let _ = stream.read(&mut sink); // drain the request first
                let _ = stream.write_all(wire.as_bytes());
            }
        });
        addr
    }

    #[test]
    fn parses_a_response() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\nX-Cache: hit\r\n\r\n{}";
        let r = read_response(&mut &raw[..]).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.header("x-cache"), Some("hit"));
        assert_eq!(r.body, "{}");
    }

    #[test]
    fn rejects_truncated_bodies() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n{}";
        assert!(read_response(&mut &raw[..]).is_err());
    }

    #[test]
    fn responses_are_framed_by_content_length() {
        // Two responses back to back on one stream: the first read stops
        // at its declared length and leaves the second whole.
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\n{}\
HTTP/1.1 404 Not Found\r\nContent-Length: 4\r\n\r\nnope";
        let mut reader = &raw[..];
        let first = read_response(&mut reader).unwrap();
        assert_eq!((first.status, first.body.as_str()), (200, "{}"));
        assert!(has_keep_alive(&first.headers));
        let second = read_response(&mut reader).unwrap();
        assert_eq!((second.status, second.body.as_str()), (404, "nope"));
        let eof = read_response(&mut reader).expect_err("nothing left");
        assert_eq!(eof.kind(), std::io::ErrorKind::UnexpectedEof);
        let unframed = b"HTTP/1.1 200 OK\r\n\r\n{}";
        assert!(read_response(&mut &unframed[..]).is_err());
    }

    #[test]
    fn a_dripping_answer_is_cut_at_the_exchange_budget() {
        // Regression: the budget used to bound each read, so a server
        // sending one byte every 100 ms held a 300 ms exchange for as
        // long as its body lasted.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            if let Ok((mut stream, _)) = listener.accept() {
                let mut sink = [0u8; 4096];
                let _ = stream.read(&mut sink);
                let _ = stream.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 40\r\n\r\n");
                for _ in 0..40 {
                    std::thread::sleep(Duration::from_millis(100));
                    if stream.write_all(b"x").is_err() {
                        break;
                    }
                }
            }
        });
        let started = std::time::Instant::now();
        let err = exchange_with_timeout(addr, "GET", "/healthz", "", Duration::from_millis(300))
            .expect_err("a 4 s drip must not fit a 300 ms budget");
        assert!(matches!(err, ClientError::Timeout(_)), "got {err:?}");
        assert!(
            started.elapsed() < Duration::from_millis(1500),
            "exchange outlived its budget: {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn connect_refused_is_a_connect_error() {
        // Bind then drop: the port goes back to the kernel, so the
        // connect is refused — the variant a failover policy may act on.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        drop(listener);
        let err = exchange_with_timeout(addr, "GET", "/healthz", "", Duration::from_millis(500))
            .expect_err("connect to a closed port must fail");
        assert!(matches!(err, ClientError::Connect(_)), "got {err:?}");
    }

    #[test]
    fn established_but_silent_is_a_timeout_error() {
        // A listener that never answers (the kernel completes the
        // handshake from the backlog either way): the request reached
        // the peer, so this must NOT look like a connect failure.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let started = std::time::Instant::now();
        let err = exchange_with_timeout(addr, "GET", "/healthz", "", Duration::from_millis(200))
            .expect_err("unresponsive server must time the client out");
        assert!(matches!(err, ClientError::Timeout(_)), "got {err:?}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "client failed fast, not after {:?}",
            started.elapsed()
        );
        drop(listener);
    }

    #[test]
    fn non_2xx_is_a_status_error_carrying_the_response() {
        let addr = one_shot_server(
            "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 2\r\n\r\n{}",
        );
        let err = exchange_with_timeout(addr, "POST", "/explain", "{}", Duration::from_secs(5))
            .expect_err("503 must be a Status error");
        match err {
            ClientError::Status(response) => {
                assert_eq!(response.status, 503);
                assert_eq!(response.header("retry-after"), Some("1"));
                assert_eq!(response.body, "{}");
            }
            other => panic!("expected Status, got {other:?}"),
        }
        // The legacy API reports the same answer as Ok: tests assert on
        // 4xx/5xx statuses directly.
        let addr = one_shot_server(
            "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 2\r\n\r\n{}",
        );
        let legacy =
            request_with_timeout(addr, "POST", "/explain", "{}", Duration::from_secs(5)).unwrap();
        assert_eq!(legacy.status, 503);
    }

    #[test]
    fn garbage_bytes_are_a_protocol_error() {
        let addr = one_shot_server("this is not http at all");
        let err = exchange_with_timeout(addr, "GET", "/healthz", "", Duration::from_secs(5))
            .expect_err("garbage must be a Protocol error");
        assert!(matches!(err, ClientError::Protocol(_)), "got {err:?}");
    }

    #[test]
    fn a_2xx_exchange_is_ok() {
        let addr = one_shot_server("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}");
        let response =
            exchange_with_timeout(addr, "GET", "/healthz", "", Duration::from_secs(5)).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.body, "{}");
    }
}
