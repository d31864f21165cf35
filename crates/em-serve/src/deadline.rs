//! Per-request deadlines for the request lifecycle.
//!
//! A per-*read* socket timeout does not bound a request: a slowloris
//! client dripping one byte just inside the timeout holds a worker
//! forever. [`Deadline`] fixes the total budget when a request starts;
//! [`DeadlineStream`] re-arms the socket timeout to the *remaining*
//! budget before every read and write, so total header+body time and
//! total response-write time are bounded no matter how the client paces
//! itself. A kept-alive connection re-arms its stream with a fresh
//! deadline for each further request ([`DeadlineStream::rearm`]), and the
//! client charges a whole exchange — connect, write, every read — to one.
//! The deadline machinery only decides *when to give up on a socket* — it
//! never influences explanation bytes, seeds, or orderings, which is why
//! its clock reads are declared `sanitize(nondet-taint)` barriers
//! (DESIGN.md §14).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The smallest timeout ever handed to the kernel. A remaining budget in
/// the sub-millisecond range could truncate to a zero `timeval`, which
/// `setsockopt` reads as "block forever" — the exact failure mode this
/// module exists to prevent.
const MIN_SOCKET_TIMEOUT: Duration = Duration::from_millis(1);

/// A fixed total time budget counted from a start instant.
///
/// Stored as `(started, budget)` rather than a precomputed expiry so the
/// arithmetic is saturating end to end: no `Instant` addition can
/// overflow, and a clock that stands still simply never expires the
/// deadline early.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    started: Instant,
    budget: Duration,
}

impl Deadline {
    /// A deadline expiring `budget` from now.
    // em-lint: sanitize(nondet-taint) -- lifecycle clock: the deadline only bounds socket I/O (when to give up on a peer); it never feeds seeds, orderings, or response bytes (DESIGN.md §14)
    pub fn starting_now(budget: Duration) -> Deadline {
        Deadline {
            started: Instant::now(),
            budget,
        }
    }

    /// A deadline counted from an explicit start instant (queue stamps,
    /// tests).
    pub fn starting_at(started: Instant, budget: Duration) -> Deadline {
        Deadline { started, budget }
    }

    /// The total budget this deadline was created with.
    pub fn budget(&self) -> Duration {
        self.budget
    }

    /// Remaining budget as seen from `now`: `None` exactly when the
    /// deadline has expired (elapsed ≥ budget). Pure — this is the
    /// deadline math, separated from the clock so the boundary cases are
    /// unit-testable.
    pub fn remaining_at(&self, now: Instant) -> Option<Duration> {
        let elapsed = now.saturating_duration_since(self.started);
        self.budget
            .checked_sub(elapsed)
            .filter(|left| !left.is_zero())
    }

    /// Remaining budget as of this instant.
    // em-lint: sanitize(nondet-taint) -- lifecycle clock: remaining budget arms socket timeouts only, never seeds, orderings, or response bytes (DESIGN.md §14)
    pub fn remaining(&self) -> Option<Duration> {
        self.remaining_at(Instant::now())
    }

    /// Whether the budget is spent.
    pub fn expired(&self) -> bool {
        self.remaining().is_none()
    }
}

/// The slice of socket behaviour the deadline machinery needs, split out
/// as a trait so tests can drive [`DeadlineStream`] with a scripted fake
/// instead of a kernel socket.
pub trait SocketTimeouts {
    /// Arms the read timeout for the next read call.
    fn set_read_timeout(&self, timeout: Duration) -> std::io::Result<()>;
    /// Arms the write timeout for the next write call.
    fn set_write_timeout(&self, timeout: Duration) -> std::io::Result<()>;
}

impl SocketTimeouts for &TcpStream {
    fn set_read_timeout(&self, timeout: Duration) -> std::io::Result<()> {
        TcpStream::set_read_timeout(self, Some(timeout))
    }

    fn set_write_timeout(&self, timeout: Duration) -> std::io::Result<()> {
        TcpStream::set_write_timeout(self, Some(timeout))
    }
}

/// Whether an I/O error is a timeout, under either spelling: Unix
/// surfaces an expired `SO_RCVTIMEO`/`SO_SNDTIMEO` as `WouldBlock`,
/// Windows as `TimedOut`.
pub fn is_timeout(error: &std::io::Error) -> bool {
    matches!(
        error.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn expired_error() -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::TimedOut, "connection deadline expired")
}

/// An I/O adaptor that charges every read and write against one
/// [`Deadline`]: before each operation the socket timeout is re-armed to
/// the remaining budget (never below `MIN_SOCKET_TIMEOUT`), and an
/// already-expired deadline fails immediately with
/// [`std::io::ErrorKind::TimedOut`] without touching the socket.
#[derive(Debug)]
pub struct DeadlineStream<S> {
    inner: S,
    deadline: Deadline,
    bytes_read: u64,
}

impl<S> DeadlineStream<S> {
    /// Wraps `inner` (for a `TcpStream`, pass `&stream`) under `deadline`.
    pub fn new(inner: S, deadline: Deadline) -> DeadlineStream<S> {
        DeadlineStream {
            inner,
            deadline,
            bytes_read: 0,
        }
    }

    /// The deadline every operation is charged against.
    pub fn deadline(&self) -> Deadline {
        self.deadline
    }

    /// Charges every later operation against `deadline` instead: the next
    /// request on a kept-alive connection gets a budget of its own. The
    /// byte count carries over, so a request after the first is never
    /// taken for a connect-and-hold peer.
    pub fn rearm(&mut self, deadline: Deadline) {
        self.deadline = deadline;
    }

    /// Total bytes successfully read so far, over every deadline this
    /// stream has had — how the server tells a connect-and-hold peer
    /// (deadline expired at zero bytes) from a slowloris dripper (expired
    /// mid-header), and the client a closed pooled connection (no response
    /// byte) from a broken response.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }
}

impl<S: Read + SocketTimeouts> Read for DeadlineStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let Some(left) = self.deadline.remaining() else {
            return Err(expired_error());
        };
        self.inner.set_read_timeout(left.max(MIN_SOCKET_TIMEOUT))?;
        let n = self.inner.read(buf)?;
        self.bytes_read += n as u64;
        Ok(n)
    }
}

impl<S: Write + SocketTimeouts> Write for DeadlineStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let Some(left) = self.deadline.remaining() else {
            return Err(expired_error());
        };
        self.inner.set_write_timeout(left.max(MIN_SOCKET_TIMEOUT))?;
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{read_request, HttpError, ReadPhase, MAX_BODY_BYTES};
    use std::sync::Mutex;

    #[test]
    fn remaining_at_the_boundaries() {
        let start = Instant::now();
        let d = Deadline::starting_at(start, Duration::from_millis(100));
        // Fresh: the whole budget is left.
        assert_eq!(d.remaining_at(start), Some(Duration::from_millis(100)));
        // One tick before expiry: the last nanosecond is still usable.
        assert_eq!(
            d.remaining_at(start + Duration::from_nanos(99_999_999)),
            Some(Duration::from_nanos(1))
        );
        // Exactly at expiry: spent, not a zero-length grant (a zero
        // socket timeout would mean "block forever").
        assert_eq!(d.remaining_at(start + Duration::from_millis(100)), None);
        // Past expiry: stays spent.
        assert_eq!(d.remaining_at(start + Duration::from_secs(5)), None);
    }

    #[test]
    fn remaining_saturates_for_a_clock_before_the_start() {
        // `saturating_duration_since` guards against `now < started`
        // (possible when a deadline is stamped on another thread): the
        // budget is simply still whole.
        let start = Instant::now();
        let d = Deadline::starting_at(start + Duration::from_secs(10), Duration::from_millis(50));
        assert_eq!(d.remaining_at(start), Some(Duration::from_millis(50)));
    }

    #[test]
    fn zero_budget_is_born_expired() {
        let d = Deadline::starting_now(Duration::ZERO);
        assert!(d.expired());
        assert_eq!(d.remaining(), None);
    }

    /// A scripted peer: each `read` yields one byte of `payload` after
    /// `delay_per_byte`, honouring whatever read timeout the
    /// `DeadlineStream` armed — exactly like a kernel socket facing a
    /// dripping client.
    struct DripPeer {
        state: Mutex<DripState>,
        delay_per_byte: Duration,
    }

    struct DripState {
        payload: Vec<u8>,
        cursor: usize,
        read_timeout: Duration,
    }

    impl DripPeer {
        fn new(payload: &[u8], delay_per_byte: Duration) -> DripPeer {
            DripPeer {
                state: Mutex::new(DripState {
                    payload: payload.to_vec(),
                    cursor: 0,
                    read_timeout: Duration::from_secs(3600),
                }),
                delay_per_byte,
            }
        }
    }

    impl SocketTimeouts for &DripPeer {
        fn set_read_timeout(&self, timeout: Duration) -> std::io::Result<()> {
            match self.state.lock() {
                Ok(mut s) => {
                    s.read_timeout = timeout;
                    Ok(())
                }
                Err(_) => Err(std::io::Error::other("poisoned")),
            }
        }

        fn set_write_timeout(&self, _timeout: Duration) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Read for &DripPeer {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let (byte, timeout) = {
                let mut s = self
                    .state
                    .lock()
                    .map_err(|_| std::io::Error::other("poisoned"))?;
                let timeout = s.read_timeout;
                if s.cursor >= s.payload.len() {
                    return Ok(0); // EOF once the script is exhausted
                }
                let b = s.payload[s.cursor];
                s.cursor += 1;
                (b, timeout)
            };
            if self.delay_per_byte >= timeout {
                // The armed timeout fires before the next byte lands.
                std::thread::sleep(timeout);
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "read timed out",
                ));
            }
            std::thread::sleep(self.delay_per_byte);
            match buf.first_mut() {
                Some(slot) => {
                    *slot = byte;
                    Ok(1)
                }
                None => Ok(0),
            }
        }
    }

    #[test]
    fn fast_peer_is_untouched_by_the_deadline() {
        let payload = b"POST /explain HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi";
        let peer = DripPeer::new(payload, Duration::ZERO);
        let mut stream = DeadlineStream::new(&peer, Deadline::starting_now(Duration::from_secs(5)));
        let request = read_request(&mut stream).expect("fast request parses");
        assert_eq!(request.method, "POST");
        assert_eq!(request.body, "hi");
        assert_eq!(stream.bytes_read(), payload.len() as u64);
    }

    #[test]
    fn slow_header_drip_times_out_in_the_header_phase() {
        // 20 ms/byte against a 100 ms total budget: the per-byte pace
        // would satisfy any per-read timeout, only a total budget stops it.
        let peer = DripPeer::new(b"POST /explain HTTP/1.1\r\n", Duration::from_millis(20));
        let mut stream =
            DeadlineStream::new(&peer, Deadline::starting_now(Duration::from_millis(100)));
        let err = read_request(&mut stream).expect_err("drip must time out");
        assert_eq!(err, HttpError::Timeout(ReadPhase::Header));
        assert!(stream.bytes_read() > 0, "some header bytes were read");
    }

    #[test]
    fn slow_body_drip_times_out_in_the_body_phase() {
        // Headers arrive instantly; the declared 64-byte body drips too
        // slowly for the remaining budget.
        let head = b"POST /explain HTTP/1.1\r\nContent-Length: 64\r\n\r\n";
        let mut payload = head.to_vec();
        payload.extend(std::iter::repeat_n(b'x', 64));
        let peer = DripPeer::new(&payload, Duration::from_millis(5));
        let budget = Duration::from_millis(head.len() as u64 * 5 + 60);
        let mut stream = DeadlineStream::new(&peer, Deadline::starting_now(budget));
        let err = read_request(&mut stream).expect_err("body drip must time out");
        assert_eq!(err, HttpError::Timeout(ReadPhase::Body));
    }

    #[test]
    fn rearm_gives_the_next_request_a_fresh_budget() {
        // Two requests on one stream: after the first, a spent budget
        // fails the next read at once and a fresh one lets the second
        // request parse; the byte count runs on across both.
        let first = b"GET /healthz HTTP/1.1\r\n\r\n";
        let mut payload = first.to_vec();
        payload.extend_from_slice(b"GET /metrics HTTP/1.1\r\n\r\n");
        let peer = DripPeer::new(&payload, Duration::ZERO);
        let mut stream = DeadlineStream::new(&peer, Deadline::starting_now(Duration::from_secs(5)));
        let mut reader = std::io::BufReader::with_capacity(first.len(), &mut stream);
        assert_eq!(
            crate::http::read_request_from(&mut reader).map(|r| r.path),
            Ok("/healthz".to_string())
        );
        reader
            .get_mut()
            .rearm(Deadline::starting_now(Duration::ZERO));
        assert_eq!(
            crate::http::read_request_from(&mut reader).map(|r| r.path),
            Err(HttpError::Timeout(ReadPhase::Header))
        );
        reader
            .get_mut()
            .rearm(Deadline::starting_now(Duration::from_secs(5)));
        assert_eq!(
            crate::http::read_request_from(&mut reader).map(|r| r.path),
            Ok("/metrics".to_string())
        );
        assert_eq!(stream.bytes_read(), payload.len() as u64);
    }

    #[test]
    fn expired_deadline_fails_without_touching_the_socket() {
        let peer = DripPeer::new(b"GET /healthz HTTP/1.1\r\n\r\n", Duration::ZERO);
        let mut stream = DeadlineStream::new(&peer, Deadline::starting_now(Duration::ZERO));
        let err = read_request(&mut stream).expect_err("expired deadline");
        assert_eq!(err, HttpError::Timeout(ReadPhase::Header));
        assert_eq!(stream.bytes_read(), 0, "no read was attempted");
    }

    #[test]
    fn header_cap_still_fires_under_an_active_deadline() {
        // A fast client blasting an endless request line hits the 16 KiB
        // header cap (Malformed), not the deadline — the caps and the
        // deadline compose, whichever bound is crossed first wins.
        let huge = vec![b'a'; 64 << 10];
        let peer = DripPeer::new(&huge, Duration::ZERO);
        let mut stream =
            DeadlineStream::new(&peer, Deadline::starting_now(Duration::from_secs(30)));
        assert!(matches!(
            read_request(&mut stream),
            Err(HttpError::Malformed(m)) if m.contains("request line")
        ));
    }

    #[test]
    fn body_cap_rejects_before_the_deadline_matters() {
        // An over-cap Content-Length is refused from the headers alone —
        // no budget is spent reading a body that would be discarded.
        let raw = format!(
            "POST /explain HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let peer = DripPeer::new(raw.as_bytes(), Duration::ZERO);
        let mut stream =
            DeadlineStream::new(&peer, Deadline::starting_now(Duration::from_secs(30)));
        assert!(matches!(
            read_request(&mut stream),
            Err(HttpError::BodyTooLarge)
        ));
    }

    #[test]
    fn timeout_error_kinds_are_recognised() {
        assert!(is_timeout(&std::io::Error::new(
            std::io::ErrorKind::WouldBlock,
            "x"
        )));
        assert!(is_timeout(&std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            "x"
        )));
        assert!(!is_timeout(&std::io::Error::other("x")));
    }
}
