//! Minimal HTTP/1.1 framing over `std::net` streams.
//!
//! Implements exactly what both tiers need: request-line + header
//! parsing, `Content-Length` bodies with a size cap, and response writing.
//! A response says `Connection: keep-alive` only when the listener keeps
//! the connection open for another request, which it does for a request
//! that asks (em-route's backend pool does) and only while no other
//! connection waits for a worker (DESIGN.md §14); every other response is
//! `Connection: close`. Bodies are framed by `Content-Length` alone: a
//! request carrying `Transfer-Encoding` is refused with a 501, because its
//! unread chunks would otherwise be parsed as the next request.

use std::io::{BufRead, BufReader, Read, Write};

use em_codec::Value;

/// Largest accepted request body (1 MiB) — an EM record pair is a few KB.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Largest accepted header section (the client caps response heads at
/// the same size).
pub(crate) const MAX_HEADER_BYTES: usize = 16 << 10;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// The request path (query strings are not used by this API).
    pub path: String,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length`).
    pub body: String,
}

impl Request {
    /// First header with the given lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the request asks for `Connection: keep-alive`.
    pub fn wants_keep_alive(&self) -> bool {
        has_keep_alive(&self.headers)
    }
}

/// Whether any `Connection` header in `headers` (lower-cased names)
/// lists the `keep-alive` token.
pub(crate) fn has_keep_alive(headers: &[(String, String)]) -> bool {
    headers.iter().any(|(name, value)| {
        name == "connection"
            && value
                .split(',')
                .any(|token| token.trim().eq_ignore_ascii_case("keep-alive"))
    })
}

/// Which part of the request was being read when a timeout fired. The
/// server maps the phases to distinct reject causes so a header-dripping
/// slowloris and a body-dripping client are distinguishable in
/// `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPhase {
    /// Request line or header section.
    Header,
    /// The `Content-Length`-declared body.
    Body,
}

impl ReadPhase {
    /// Human label, used in error messages.
    pub fn label(self) -> &'static str {
        match self {
            ReadPhase::Header => "header",
            ReadPhase::Body => "body",
        }
    }
}

/// A framing/parse failure, mapped to a 4xx by the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed request line or header.
    Malformed(String),
    /// Body longer than [`MAX_BODY_BYTES`] (→ 413).
    BodyTooLarge,
    /// The peer closed the connection before sending any request byte —
    /// a plain port probe or health-checker connect. Not a protocol
    /// error: the server writes no response and bumps no error counter.
    Closed,
    /// The connection deadline (or a socket timeout) expired while
    /// reading the given phase (→ 408).
    Timeout(ReadPhase),
    /// The request carries `Transfer-Encoding`, which is not decoded
    /// (→ 501, and the connection closes).
    TransferEncoding,
    /// The socket failed or closed mid-request.
    Io(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::BodyTooLarge => write!(f, "request body too large"),
            HttpError::Closed => write!(f, "connection closed before any request byte"),
            HttpError::Timeout(phase) => {
                write!(f, "request deadline exceeded reading the {}", phase.label())
            }
            HttpError::TransferEncoding => {
                write!(f, "Transfer-Encoding is not supported; send Content-Length")
            }
            HttpError::Io(m) => write!(f, "i/o: {m}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Maps a raw I/O failure to [`HttpError::Timeout`] when it is a timeout
/// (either kind the platform uses for an expired socket timeout), and to
/// [`HttpError::Io`] otherwise.
fn classify_io(error: std::io::Error, phase: ReadPhase) -> HttpError {
    if crate::deadline::is_timeout(&error) {
        HttpError::Timeout(phase)
    } else {
        HttpError::Io(error.to_string())
    }
}

/// Reads one `\n`-terminated line of at most `budget` bytes (terminator
/// included), without buffering anything past the cap: `None` for a
/// longer line, the empty string on EOF. The cap is what keeps a
/// newline-less request line (or a single huge header line) from
/// buffering unboundedly; the client's response reader shares it.
pub(crate) fn read_capped_line<R: BufRead>(
    reader: &mut R,
    budget: usize,
) -> std::io::Result<Option<String>> {
    let mut line = String::new();
    let n = reader.take(budget as u64 + 1).read_line(&mut line)?;
    Ok((n <= budget).then_some(line))
}

/// [`read_capped_line`] for the request head, with its failures typed.
fn read_head_line<R: BufRead>(
    reader: &mut R,
    budget: usize,
    what: &str,
) -> Result<String, HttpError> {
    read_capped_line(reader, budget)
        .map_err(|e| classify_io(e, ReadPhase::Header))?
        .ok_or_else(|| {
            HttpError::Malformed(format!(
                "{what} exceeds the {MAX_HEADER_BYTES}-byte header cap"
            ))
        })
}

/// Reads one HTTP/1.1 request from `stream`, buffered for this request
/// alone; [`read_request_from`] keeps one buffer across requests.
pub fn read_request<S: Read>(stream: S) -> Result<Request, HttpError> {
    read_request_from(&mut BufReader::new(stream))
}

/// Reads one HTTP/1.1 request from a caller-owned buffered reader. Bytes
/// past the request stay in `reader`, so a connection that carries
/// several requests loses none of them.
pub fn read_request_from<R: BufRead>(reader: &mut R) -> Result<Request, HttpError> {
    // The request line, headers, and terminating blank line all count
    // against one [`MAX_HEADER_BYTES`] budget, enforced *while* reading.
    let mut budget = MAX_HEADER_BYTES;
    let line = read_head_line(reader, budget, "request line")?;
    if line.is_empty() {
        return Err(HttpError::Closed);
    }
    budget -= line.len();
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing path".into()))?
        .to_string();
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("bad version {version:?}")));
    }

    let mut headers = Vec::new();
    loop {
        let header = read_head_line(reader, budget, "header section")?;
        let trimmed = header.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        budget -= header.len();
        let (name, value) = trimmed
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header line {trimmed:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    // A chunked body is never decoded. Reading on without it would leave
    // the chunks on the wire, to be parsed as the next request on a
    // kept-alive connection, so the request is refused whole.
    if headers.iter().any(|(name, _)| name == "transfer-encoding") {
        return Err(HttpError::TransferEncoding);
    }

    // Every `Content-Length` header must agree. Resolving duplicates to
    // any single one silently (the old `find` behaviour) is the classic
    // request-smuggling bug: two parsers picking different values frame
    // the connection differently.
    let mut declared: Option<usize> = None;
    for (name, value) in &headers {
        if name != "content-length" {
            continue;
        }
        let parsed = value
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed("bad content-length".into()))?;
        match declared {
            Some(previous) if previous != parsed => {
                return Err(HttpError::Malformed(
                    "conflicting content-length headers".into(),
                ));
            }
            _ => declared = Some(parsed),
        }
    }
    let content_length = declared.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::BodyTooLarge);
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| classify_io(e, ReadPhase::Body))?;
    let body =
        String::from_utf8(body).map_err(|_| HttpError::Malformed("body is not utf-8".into()))?;

    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// A response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers (e.g. `X-Cache`).
    pub extra_headers: Vec<(String, String)>,
    /// The body.
    pub body: String,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body,
        }
    }

    /// A JSON error response: `{"error": message}`. Both tiers answer
    /// every failure in this one shape.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(
            status,
            Value::object(vec![("error", Value::string(message))]).to_json(),
        )
    }

    /// A plain-text response (used by `/metrics`).
    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body,
        }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.extra_headers
            .push((name.to_string(), value.to_string()));
        self
    }

    /// Serializes the response to its wire bytes. `keep_alive` picks the
    /// `Connection` header: `keep-alive` when the listener keeps the
    /// connection open for another request, `close` otherwise. Split from
    /// [`Response::write_to`] so the accept loop can attempt a single
    /// non-blocking shed write.
    pub fn to_wire(&self, keep_alive: bool) -> String {
        let mut out = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            status_reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.extra_headers {
            out.push_str(name);
            out.push_str(": ");
            out.push_str(value);
            out.push_str("\r\n");
        }
        out.push_str("\r\n");
        out.push_str(&self.body);
        out
    }

    /// Serializes and writes the response (see [`Response::to_wire`]).
    pub fn write_to<W: Write>(&self, mut stream: W, keep_alive: bool) -> std::io::Result<()> {
        stream.write_all(self.to_wire(keep_alive).as_bytes())?;
        stream.flush()
    }
}

/// The reason phrase for the status codes this server emits.
fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        501 => "Not Implemented",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Internal Server Error",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_post_with_body() {
        let raw = "POST /explain HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{\"a\"";
        let req = read_request(raw.as_bytes()).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/explain");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, "{\"a\"");
    }

    #[test]
    fn parses_a_get_without_body() {
        let req = read_request("GET /healthz HTTP/1.1\r\n\r\n".as_bytes()).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.body, "");
    }

    #[test]
    fn header_names_are_lowercased() {
        let req =
            read_request("GET / HTTP/1.1\r\nX-Custom-THING:  v  \r\n\r\n".as_bytes()).unwrap();
        assert_eq!(req.header("x-custom-thing"), Some("v"));
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(matches!(
            read_request("\r\n\r\n".as_bytes()),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            read_request("GET /\r\n\r\n".as_bytes()),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            read_request("GET / SPDY/9\r\n\r\n".as_bytes()),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            read_request("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n".as_bytes()),
            Err(HttpError::Malformed(_))
        ));
    }

    /// A reader that never yields a newline — a socket-level slowloris.
    /// With the old unbounded `read_line` this made `read_request` buffer
    /// forever; the capped read must bail after [`MAX_HEADER_BYTES`].
    struct EndlessBytes;

    impl Read for EndlessBytes {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            for b in buf.iter_mut() {
                *b = b'a';
            }
            Ok(buf.len())
        }
    }

    #[test]
    fn oversized_request_line_is_rejected_not_buffered() {
        // Regression: an endless request line used to grow the line buffer
        // without bound. Terminating at all proves the cap is enforced.
        assert!(matches!(
            read_request(EndlessBytes),
            Err(HttpError::Malformed(m)) if m.contains("request line")
        ));
    }

    #[test]
    fn oversized_header_line_is_rejected_not_buffered() {
        let head = "GET / HTTP/1.1\r\nX-Huge: ".as_bytes();
        assert!(matches!(
            read_request(head.chain(EndlessBytes)),
            Err(HttpError::Malformed(m)) if m.contains("header section")
        ));
    }

    #[test]
    fn header_section_at_the_cap_is_rejected() {
        let filler = "a".repeat(MAX_HEADER_BYTES);
        let raw = format!("GET / HTTP/1.1\r\nX-Filler: {filler}\r\n\r\n");
        assert!(matches!(
            read_request(raw.as_bytes()),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn eof_before_any_byte_is_a_clean_close() {
        // Regression: a bare connect-and-close (port probe) used to surface
        // as `Malformed("empty request line")` and bump the error counter.
        assert!(matches!(
            read_request("".as_bytes()),
            Err(HttpError::Closed)
        ));
    }

    #[test]
    fn conflicting_content_lengths_are_rejected() {
        // Regression: `find` used to silently pick the first value — the
        // request-smuggling framing ambiguity.
        let raw = "POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 2\r\n\r\nabcd";
        assert!(matches!(
            read_request(raw.as_bytes()),
            Err(HttpError::Malformed(m)) if m.contains("conflicting")
        ));
    }

    #[test]
    fn duplicate_identical_content_lengths_are_tolerated() {
        let raw = "POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd";
        let req = read_request(raw.as_bytes()).unwrap();
        assert_eq!(req.body, "abcd");
    }

    #[test]
    fn rejects_oversized_bodies_without_reading_them() {
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            read_request(raw.as_bytes()),
            Err(HttpError::BodyTooLarge)
        ));
    }

    #[test]
    fn truncated_body_is_an_io_error() {
        let raw = "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
        assert!(matches!(
            read_request(raw.as_bytes()),
            Err(HttpError::Io(_))
        ));
    }

    #[test]
    fn response_wire_format_is_well_formed() {
        let mut buf = Vec::new();
        Response::json(200, "{\"ok\":true}".to_string())
            .with_header("X-Cache", "hit")
            .write_to(&mut buf, false)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("X-Cache: hit\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
        let kept = Response::json(200, "{}".to_string()).to_wire(true);
        assert!(kept.contains("Connection: keep-alive\r\n"), "{kept}");
    }

    #[test]
    fn transfer_encoding_is_refused_before_any_body_byte() {
        // Regression: the chunks used to be left unread, so the body
        // parsed as empty JSON, and on a kept-alive connection the chunk
        // bytes would have been read as the next request.
        let raw = "POST /explain HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\
Connection: keep-alive\r\n\r\n4\r\n{}{}\r\n0\r\n\r\n";
        let err = read_request(raw.as_bytes()).expect_err("chunked body must be refused");
        assert_eq!(err, HttpError::TransferEncoding);
        assert_eq!(
            err.to_string(),
            "Transfer-Encoding is not supported; send Content-Length"
        );
        assert_eq!(status_reason(501), "Not Implemented");
    }

    #[test]
    fn a_shared_reader_keeps_the_bytes_of_the_next_request() {
        let raw = "GET /healthz HTTP/1.1\r\nConnection: keep-alive\r\n\r\n\
POST /predict HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}";
        let mut reader = BufReader::new(raw.as_bytes());
        let first = read_request_from(&mut reader).unwrap();
        assert_eq!(first.path, "/healthz");
        assert!(first.wants_keep_alive());
        let second = read_request_from(&mut reader).unwrap();
        assert_eq!(
            (second.path.as_str(), second.body.as_str()),
            ("/predict", "{}")
        );
        assert!(!second.wants_keep_alive());
        assert!(matches!(
            read_request_from(&mut reader),
            Err(HttpError::Closed)
        ));
    }

    #[test]
    fn keep_alive_is_read_from_any_connection_token() {
        let req =
            read_request("GET / HTTP/1.1\r\nConnection: Upgrade, Keep-Alive\r\n\r\n".as_bytes())
                .unwrap();
        assert!(req.wants_keep_alive());
        let req = read_request("GET / HTTP/1.1\r\nConnection: close\r\n\r\n".as_bytes()).unwrap();
        assert!(!req.wants_keep_alive());
    }
}
