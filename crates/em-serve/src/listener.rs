//! The connection lifecycle both serving tiers share.
//!
//! One listener thread accepts connections and pushes them onto a
//! [`BoundedQueue`]; `em_par::scoped_workers` runs the worker pool that
//! drains it. When the queue is full the accept thread sheds with a
//! non-blocking 503 + `Retry-After` instead of queueing unbounded —
//! never waiting on a client socket, because every other user's `accept`
//! is behind it. Each request runs under one [`Deadline`] covering its
//! read, compute, and response write; queued connections older than the
//! admission bound are discarded unanswered. Every rejection is counted
//! under its [`RejectCause`] (DESIGN.md §14).
//!
//! A request that asks for `Connection: keep-alive` keeps its connection
//! open while nobody else waits for a worker: the worker then waits for
//! the next request's first byte in short slices, and gives the
//! connection up as soon as a connection is queued, shutdown starts, the
//! peer closes, or the connection has idled for the idle bound. A
//! kept-alive peer therefore holds a worker no longer than one request
//! can, and never while another connection waits.
//! A request that asks for shutdown flips an atomic flag and pokes the
//! listener with a loopback connection so `accept` wakes up; closing the
//! queue then lets every in-flight request finish before
//! [`Listener::run`] returns.
//!
//! What a tier adds is a [`Service`]: `em-serve`'s explainer and
//! `em-route`'s proxy each route a parsed request and record its
//! latency, and nothing else (DESIGN.md §15).

use std::io::{BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::deadline::{is_timeout, Deadline, DeadlineStream};
use crate::http::{read_request_from, HttpError, ReadPhase, Request, Response};
use crate::metrics::{RejectCause, Rejects};
use crate::pool::{BoundedQueue, PushError};

/// Budget for writing a 408 after the connection deadline has already
/// expired. The deadline is spent, but the client may still be reading;
/// a short fixed grace keeps the courtesy answer from re-wedging the
/// worker the deadline just freed.
const REJECT_WRITE_GRACE: Duration = Duration::from_secs(1);

/// Bound on the shutdown self-wake connect, so `run` can never wedge
/// behind its own wake-up.
const WAKE_CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// How long a kept-alive connection may stay silent between requests
/// before its worker closes it (capped at the request timeout).
const KEEP_ALIVE_IDLE: Duration = Duration::from_secs(1);

/// How often a worker waiting on a kept-alive connection looks up from
/// it to check the accept queue and the shutdown flag.
const KEEP_ALIVE_POLL: Duration = Duration::from_millis(5);

/// The buffered, deadline-charged reader a connection keeps across its
/// requests.
type ConnReader<'a> = BufReader<DeadlineStream<&'a TcpStream>>;

/// What a connection does after one request's response.
enum AfterResponse {
    /// Wait for another request on it.
    KeepAlive,
    /// Close it.
    Close,
    /// Close it, then stop the listener.
    Shutdown,
}

/// One tier's request handling, plugged into a [`Listener`].
pub trait Service: Sync {
    /// The label a request's latency is recorded under.
    type Endpoint: Copy;
    /// The endpoint charged with requests that never parsed (400/413).
    const UNPARSED: Self::Endpoint;
    /// The message of the 503 body the accept loop sheds with.
    const OVERLOADED: &'static str;

    /// Answers one parsed request: (endpoint, response,
    /// initiate-shutdown).
    fn route(&self, request: &Request) -> (Self::Endpoint, Response, bool);

    /// Records one answered request's latency and status.
    fn record(&self, endpoint: Self::Endpoint, latency_us: u64, status: u16);
}

/// A bound socket plus the queue, worker pool, deadlines, and reject
/// counters that serve it. [`Listener::run`] drives a [`Service`] until
/// one of its requests asks for shutdown.
#[derive(Debug)]
pub struct Listener {
    socket: TcpListener,
    addr: SocketAddr,
    workers: usize,
    request_timeout: Duration,
    max_queue_age: Duration,
    queue: BoundedQueue<TcpStream>,
    rejects: Rejects,
    shutdown: AtomicBool,
}

impl Listener {
    /// Binds `addr` (port 0 for an ephemeral port) for a pool of
    /// `workers` fed by a queue of `queue_depth` connections. Each
    /// connection gets `request_timeout` for read + compute + write, and
    /// is discarded unanswered if it waited longer than `max_queue_age`.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        workers: usize,
        queue_depth: usize,
        request_timeout: Duration,
        max_queue_age: Duration,
    ) -> std::io::Result<Listener> {
        let socket = TcpListener::bind(addr)?;
        let addr = socket.local_addr()?;
        Ok(Listener {
            socket,
            addr,
            workers,
            request_timeout,
            max_queue_age,
            queue: BoundedQueue::new(queue_depth),
            rejects: Rejects::default(),
            shutdown: AtomicBool::new(false),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Size of the worker pool.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// Connections accepted but not yet picked up by a worker.
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The reject counters, for the service's `/metrics`.
    pub fn rejects(&self) -> &Rejects {
        &self.rejects
    }

    /// Whether a request has asked for shutdown.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Serves `service` until one of its requests asks for shutdown,
    /// then drains in-flight requests and returns.
    pub fn run<S: Service>(&self, service: &S) {
        em_par::scoped_workers(
            self.workers,
            |_worker| {
                while let Some(conn) = self.queue.pop() {
                    // Admission control: a connection that outwaited the
                    // queue-age bound belongs to a client that has almost
                    // certainly timed out; dropping the stream closes it
                    // without spending any compute.
                    if conn.age() > self.max_queue_age {
                        self.rejects.record(RejectCause::StaleQueue);
                        continue;
                    }
                    self.handle_connection(service, conn.item);
                }
            },
            || {
                for incoming in self.socket.incoming() {
                    if self.is_shutting_down() {
                        break;
                    }
                    let Ok(stream) = incoming else { continue };
                    if let Err(PushError::Full(stream) | PushError::Closed(stream)) =
                        self.queue.push(stream)
                    {
                        self.shed_without_blocking(&stream, S::OVERLOADED);
                    }
                }
                self.queue.close();
            },
        );
    }

    /// Sheds a connection from the accept thread without ever blocking
    /// it: the socket is flipped to non-blocking, already-arrived request
    /// bytes are drained (bounded, never waiting — closing with unread
    /// received data makes the kernel send RST instead of FIN, and the
    /// RST destroys the 503 sitting unread in the client's buffers), and
    /// the 503 (with `Retry-After`) is attempted as a *single* write. A
    /// fresh connection's send buffer is empty, so the ~100-byte response
    /// virtually always fits; a peer whose buffer somehow cannot take it
    /// (never-reading client) just loses the connection — the one thing
    /// the accept loop must never do is wait on a client socket, because
    /// every other user's `accept` is behind it.
    fn shed_without_blocking(&self, stream: &TcpStream, message: &str) {
        let wire = Response::error(503, message)
            .with_header("Retry-After", "1")
            .to_wire(false);
        let nonblocking = stream.set_nonblocking(true).is_ok();
        if nonblocking {
            let mut sink = [0u8; 4096];
            for _ in 0..32 {
                if !matches!(std::io::Read::read(&mut &*stream, &mut sink), Ok(n) if n > 0) {
                    break;
                }
            }
        }
        let written = nonblocking
            && matches!((&mut &*stream).write(wire.as_bytes()), Ok(n) if n == wire.len());
        self.rejects.record(if written {
            RejectCause::Shed
        } else {
            RejectCause::ShedDrop
        });
    }

    /// Serves one connection: its first request under a [`Deadline`]
    /// counted from pickup, and each kept-alive request after it under a
    /// deadline of its own counted from its first byte. Every socket read
    /// and write of a request is charged against its `request_timeout`
    /// budget, so no pacing a client chooses can hold the worker past it
    /// (DESIGN.md §14).
    fn handle_connection<S: Service>(&self, service: &S, stream: TcpStream) {
        let deadline = Deadline::starting_now(self.request_timeout);
        let mut reader = BufReader::new(DeadlineStream::new(&stream, deadline));
        let shutdown = loop {
            match self.serve_request(service, &stream, &mut reader) {
                AfterResponse::KeepAlive if self.await_next_request(&stream, &reader) => {
                    reader
                        .get_mut()
                        .rearm(Deadline::starting_now(self.request_timeout));
                }
                AfterResponse::Shutdown => break true,
                AfterResponse::KeepAlive | AfterResponse::Close => break false,
            }
        };
        drop(reader);
        drop(stream);
        if shutdown {
            self.shutdown.store(true, Ordering::SeqCst);
            wake_accept_loop(self.addr);
        }
    }

    /// Reads, routes, answers, and records one request under the
    /// reader's current deadline, and says what the connection does next.
    fn serve_request<S: Service>(
        &self,
        service: &S,
        stream: &TcpStream,
        reader: &mut ConnReader<'_>,
    ) -> AfterResponse {
        let start = Instant::now();
        // A request the listener answers itself never keeps its connection.
        let unparsed = |response: Response| (S::UNPARSED, response, false, false);
        let (endpoint, response, is_shutdown, wants_keep_alive) = match read_request_from(reader) {
            Ok(request) => {
                let (endpoint, response, is_shutdown) = service.route(&request);
                (endpoint, response, is_shutdown, request.wants_keep_alive())
            }
            // The peer closed without sending a byte (port probe, health
            // checker, or a kept-alive peer hanging up between requests).
            // Nothing was asked, so nothing is answered and no counter is
            // bumped.
            Err(HttpError::Closed) => return AfterResponse::Close,
            Err(HttpError::Timeout(phase)) => {
                // The deadline expired mid-request. Attribute the cause —
                // connect-and-hold (not one byte on the connection),
                // header drip, or body drip — then answer 408 under a
                // short grace budget (the client may well still be
                // reading) and reap the connection.
                self.rejects.record(match phase {
                    ReadPhase::Header if reader.get_ref().bytes_read() == 0 => RejectCause::Idle,
                    ReadPhase::Header => RejectCause::HeaderDeadline,
                    ReadPhase::Body => RejectCause::BodyDeadline,
                });
                let sink = reader.get_mut();
                sink.rearm(Deadline::starting_now(REJECT_WRITE_GRACE));
                let _ = Response::error(408, "request deadline exceeded").write_to(sink, false);
                return AfterResponse::Close;
            }
            Err(HttpError::BodyTooLarge) => {
                unparsed(Response::error(413, "request body too large"))
            }
            Err(err @ HttpError::TransferEncoding) => {
                unparsed(Response::error(501, &err.to_string()))
            }
            Err(err) => {
                if matches!(err, HttpError::Io(_)) {
                    // The peer closed or reset mid-request; the 400 below
                    // is written into the void on a full close, but
                    // half-closed peers (`shutdown(Write)`) still read it.
                    self.rejects.record(RejectCause::PeerAbort);
                }
                unparsed(Response::error(400, &err.to_string()))
            }
        };
        let latency_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        service.record(endpoint, latency_us, response.status);
        // Keep the connection only for a peer that asked, and only while
        // nobody else waits for a worker.
        let keep_alive =
            wants_keep_alive && !is_shutdown && !self.is_shutting_down() && self.queue.is_empty();
        if keep_alive {
            // Each response is one write: with Nagle on, it could wait for
            // the ACK of the previous response on the same connection.
            let _ = stream.set_nodelay(true);
        }
        // The response write shares the request's deadline: a peer that
        // accepts bytes too slowly (or never reads) is cut off when the
        // budget runs out — silently, since no response can follow a
        // partial response.
        let written = match response.write_to(reader.get_mut(), keep_alive) {
            Ok(()) => true,
            Err(err) => {
                if is_timeout(&err) {
                    self.rejects.record(RejectCause::WriteDeadline);
                }
                false
            }
        };
        if is_shutdown {
            AfterResponse::Shutdown
        } else if keep_alive && written {
            AfterResponse::KeepAlive
        } else {
            AfterResponse::Close
        }
    }

    /// Waits, in [`KEEP_ALIVE_POLL`] slices, for the first byte of the
    /// next request on a kept-alive connection. Returns `false`, and the
    /// caller closes the connection, when the peer closes, a connection
    /// waits in the queue, shutdown starts, or the connection has been
    /// silent for the idle bound. None of these is a reject: the peer has
    /// asked for nothing.
    fn await_next_request(&self, stream: &TcpStream, reader: &ConnReader<'_>) -> bool {
        if !reader.buffer().is_empty() {
            return true;
        }
        let idle = Deadline::starting_now(KEEP_ALIVE_IDLE.min(self.request_timeout));
        let mut first_byte = [0u8; 1];
        while !idle.expired() && self.queue.is_empty() && !self.is_shutting_down() {
            if stream.set_read_timeout(Some(KEEP_ALIVE_POLL)).is_err() {
                return false;
            }
            match stream.peek(&mut first_byte) {
                Ok(n) => return n > 0,
                Err(err) if is_timeout(&err) => {}
                Err(_) => return false,
            }
        }
        false
    }
}

/// Pokes the accept loop with a loopback connection so it observes the
/// shutdown flag. The *bound* address is not used directly: a wildcard
/// bind (`0.0.0.0` / `[::]`) is not a connectable destination on every
/// platform, so the wake aims at the loopback of the same family on the
/// bound port, with a connect timeout so shutdown can never wedge behind
/// its own wake-up. The dummy connection is dropped unanswered.
fn wake_accept_loop(addr: SocketAddr) {
    let ip = match addr.ip() {
        IpAddr::V4(v4) if v4.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(v6) if v6.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    let _ = TcpStream::connect_timeout(&SocketAddr::new(ip, addr.port()), WAKE_CONNECT_TIMEOUT);
}

/// Handle to a server running on a background thread.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// Runs `serve` — a tier's blocking `run` — on a background thread,
    /// for a server bound to `addr`.
    pub fn spawn(addr: SocketAddr, serve: impl FnOnce() + Send + 'static) -> ServerHandle {
        ServerHandle {
            addr,
            thread: std::thread::spawn(serve),
        }
    }

    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the server to finish (after a `/shutdown` request).
    pub fn join(self) {
        // em-lint: allow(panic-in-request-path) -- shutdown path; propagating a worker panic is the point
        self.thread.join().expect("server thread panicked");
    }
}
