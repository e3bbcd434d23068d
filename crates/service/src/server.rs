//! The serving machinery: epoll reactor, bounded queue, worker pool,
//! graceful shutdown (DESIGN.md §18).
//!
//! Request lifecycle:
//!
//! 1. the reactor thread accepts connections nonblocking (with
//!    `TCP_NODELAY` and an explicit listen backlog), registers each socket
//!    edge-triggered, and drains readiness events into per-connection
//!    [`Conn`] state machines — HTTP/1.1 keep-alive and pipelining are
//!    handled entirely here, one thread, zero locks on the read path;
//! 2. every parsed request is stamped and, when cacheable, keyed and
//!    probed in the response cache: a hit is answered inline with the
//!    entry's preserialized wire bytes. The rest are pushed into the
//!    bounded [`BoundedQueue`] with their key; a full queue is answered
//!    `429` in request order on the same connection — admission control
//!    happens before any handler runs, and the connection survives the
//!    rejection;
//! 3. a worker pops the task and first checks the per-request deadline:
//!    work that already waited longer than `deadline` is answered `503`
//!    without being executed (its result could not reach the client in
//!    time anyway); otherwise the handler runs and a successful response
//!    is cached under the task's key, with no second hash or lookup;
//! 4. completions flow back over a mutex'd vector + eventfd wakeup; the
//!    reactor slots each response into its pipeline position and flushes.
//!
//! Timeout taxonomy (satellite: no more silent drops of slow clients):
//!
//! * slow or partial request (head or body) → `408`, counted in
//!   `sbomdiff_timeouts_total{phase="header"|"body"}`;
//! * idle keep-alive connection → closed silently (that is the protocol's
//!   contract between requests), counted under `phase="idle"`;
//! * queued past deadline → `503`, counted in
//!   `sbomdiff_deadline_timeouts_total` (unchanged from the thread-pool
//!   server).
//!
//! Worker count follows the same `Jobs` policy as the batch pipeline
//! (`--jobs N`, `SBOMDIFF_JOBS`, available parallelism). Shutdown is
//! graceful: close the listener, flush connections that are owed nothing,
//! give the rest a short grace period, join every thread.

use std::collections::HashSet;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::api::{self, AppState, Executed};
use crate::conn::{Conn, FillOutcome, ParsedRequest, WriteBuf};
use crate::http::{ReadPhase, Request, Response};
use crate::metrics::{Endpoint, TimeoutPhase};
use crate::queue::BoundedQueue;
use crate::reactor::{
    bind_listener, set_nodelay, Event, Poller, Waker, LISTENER_TOKEN, WAKER_TOKEN,
};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Port to bind on 127.0.0.1 (`0` picks an ephemeral port).
    pub port: u16,
    /// Worker threads (`0` → `Jobs` default policy).
    pub jobs: usize,
    /// Bounded queue capacity; overflow is answered 429.
    pub queue_capacity: usize,
    /// Per-request deadline measured from parse; exceeded in queue → 503.
    pub deadline: Duration,
    /// Response-cache capacity in entries.
    pub cache_capacity: usize,
    /// Default seed for requests that do not carry one.
    pub seed: u64,
    /// How long a partial request may stall (per phase: head, then body)
    /// before the connection is answered 408.
    pub header_timeout: Duration,
    /// How long a keep-alive connection may sit idle between requests
    /// before being closed.
    pub idle_timeout: Duration,
    /// Listen backlog handed to `listen(2)`.
    pub backlog: i32,
    /// Maximum unanswered pipelined requests per connection before parse
    /// backpressure kicks in.
    pub max_pipeline: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            port: 0,
            jobs: 0,
            queue_capacity: 128,
            deadline: Duration::from_secs(10),
            cache_capacity: 256,
            seed: 42,
            header_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(10),
            backlog: 1024,
            max_pipeline: 64,
        }
    }
}

/// Grace period for connections still owed responses at shutdown.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// A parsed request on its way to a worker.
struct Task {
    token: usize,
    generation: u64,
    seq: u64,
    request: Request,
    /// The response-cache key the reactor already probed and missed;
    /// `None` for requests that are not cacheable.
    key: Option<u128>,
    parsed_at: Instant,
    endpoint: Endpoint,
    close: bool,
}

/// A finished response on its way back to the reactor.
struct Completion {
    token: usize,
    generation: u64,
    seq: u64,
    buf: WriteBuf,
    close: bool,
}

/// A running server; dropping the handle shuts it down.
pub struct Server;

/// Handle to a running server.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<AppState>,
    queue: Arc<BoundedQueue<Task>>,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    reactor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `127.0.0.1:port` and starts the reactor and worker threads.
    ///
    /// # Errors
    ///
    /// Propagates socket/epoll setup errors (bind failure, mostly).
    pub fn start(config: ServeConfig) -> std::io::Result<ServerHandle> {
        let listener = bind_listener(config.port, config.backlog)?;
        let addr = listener.local_addr()?;
        let poller = Poller::new()?;
        poller.add_readable(listener.as_raw_fd(), LISTENER_TOKEN)?;
        let waker = Arc::new(Waker::new(&poller)?);
        let state = Arc::new(AppState::new(config.seed, config.cache_capacity));
        let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
        let completions = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));

        let workers: Vec<_> = (0..sbomdiff_parallel::Jobs::new(config.jobs).get())
            .map(|i| {
                let state = Arc::clone(&state);
                let queue = Arc::clone(&queue);
                let completions = Arc::clone(&completions);
                let waker = Arc::clone(&waker);
                let deadline = config.deadline;
                std::thread::Builder::new()
                    .name(format!("sbomdiff-worker-{i}"))
                    .spawn(move || worker_loop(&state, &queue, &completions, &waker, deadline))
                    .expect("spawn worker")
            })
            .collect();

        let reactor = {
            let event_loop = EventLoop {
                poller,
                listener: Some(listener),
                conns: Vec::new(),
                free: Vec::new(),
                next_generation: 0,
                state: Arc::clone(&state),
                queue: Arc::clone(&queue),
                completions,
                waker: Arc::clone(&waker),
                stop: Arc::clone(&stop),
                header_timeout: config.header_timeout,
                idle_timeout: config.idle_timeout,
                max_pipeline: config.max_pipeline.max(1),
                scratch: Vec::new(),
                repump: HashSet::new(),
            };
            std::thread::Builder::new()
                .name("sbomdiff-reactor".into())
                .spawn(move || event_loop.run())
                .expect("spawn reactor")
        };

        Ok(ServerHandle {
            addr,
            state,
            queue,
            stop,
            waker,
            reactor: Some(reactor),
            workers,
        })
    }
}

fn worker_loop(
    state: &AppState,
    queue: &BoundedQueue<Task>,
    completions: &Mutex<Vec<Completion>>,
    waker: &Waker,
    deadline: Duration,
) {
    while let Some(task) = queue.pop() {
        let waited = task.parsed_at.elapsed();
        let (buf, close) = if waited > deadline {
            // The deadline gate runs at dequeue: work that already sat in
            // the queue past its deadline is not worth executing.
            state.metrics.record_timeout();
            state.metrics.record(task.endpoint, 503, waited);
            let response = Response::error(503, "deadline exceeded while queued");
            (WriteBuf::Owned(response.serialize(task.close)), task.close)
        } else {
            // Worker-pool boundary: no panic — injected or genuine — may
            // take the worker thread down (a dead worker would silently
            // shrink the pool). Handlers already degrade gracefully, so
            // this catch is a counted safety net, not a control-flow path;
            // the chaos harness asserts the counter stays at zero.
            let executed = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                api::execute_miss(state, &task.request, task.key, queue.len())
            })) {
                Ok(executed) => executed,
                Err(_) => {
                    state.metrics.record_worker_panic();
                    Executed::Miss(Response::error(503, "request aborted by internal fault"))
                }
            };
            state
                .metrics
                .record(task.endpoint, executed.status(), task.parsed_at.elapsed());
            let buf = match executed {
                // The zero-alloc hot path: a keep-alive cache hit writes
                // the entry's preserialized persistent-form bytes.
                Executed::Hit(entry) if !task.close => WriteBuf::Shared(Arc::clone(&entry.wire)),
                Executed::Hit(entry) => WriteBuf::Owned(entry.closing_wire()),
                Executed::Miss(response) => WriteBuf::Owned(response.serialize(task.close)),
            };
            (buf, task.close)
        };
        completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Completion {
                token: task.token,
                generation: task.generation,
                seq: task.seq,
                buf,
                close,
            });
        waker.wake();
    }
}

/// The reactor: owns the poller, the listener, and every connection.
struct EventLoop {
    poller: Poller,
    listener: Option<TcpListener>,
    /// Connection slab indexed by epoll token; `None` slots are free.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_generation: u64,
    state: Arc<AppState>,
    queue: Arc<BoundedQueue<Task>>,
    completions: Arc<Mutex<Vec<Completion>>>,
    waker: Arc<Waker>,
    stop: Arc<AtomicBool>,
    header_timeout: Duration,
    idle_timeout: Duration,
    max_pipeline: usize,
    /// Reused parse-output buffer.
    scratch: Vec<ParsedRequest>,
    /// Connections whose last fill stopped at its read budget: kernel
    /// bytes may be stranded, and edge-triggered epoll will never
    /// re-announce them — the loop re-fills these itself each iteration
    /// (with a zero poll timeout while any remain).
    repump: HashSet<usize>,
}

impl EventLoop {
    fn run(mut self) {
        // The poll tick bounds timeout-detection latency; an eventfd wake
        // interrupts it immediately for completions and shutdown.
        let tick = (self.header_timeout.min(self.idle_timeout) / 4)
            .clamp(Duration::from_millis(5), Duration::from_millis(100));
        let mut events: Vec<Event> = Vec::new();
        let mut last_scan = Instant::now();
        let mut draining_since: Option<Instant> = None;
        loop {
            events.clear();
            let wait = if !self.repump.is_empty() {
                // Budget-exhausted reads are pending: poll without
                // blocking so stranded kernel bytes are consumed now,
                // while still interleaving other sockets' events.
                Duration::ZERO
            } else if draining_since.is_some() {
                tick.min(Duration::from_millis(10))
            } else {
                tick
            };
            if self.poller.wait(&mut events, Some(wait)).is_err() {
                break;
            }
            let stopping = self.stop.load(Ordering::SeqCst);
            if stopping {
                if let Some(listener) = self.listener.take() {
                    self.poller.delete(listener.as_raw_fd());
                    // Dropping closes the port: no new connections.
                }
                if draining_since.is_none() {
                    draining_since = Some(Instant::now());
                }
            }
            // Accept last: a slot freed by a teardown in this batch must
            // not be recycled while a stale event for it is still queued.
            let mut accept_ready = false;
            for &ev in &events {
                match ev.token {
                    WAKER_TOKEN => self.waker.drain(),
                    LISTENER_TOKEN => accept_ready = true,
                    token => self.conn_event(token as usize, ev),
                }
            }
            self.apply_completions();
            if accept_ready && !stopping {
                self.accept_ready();
            }
            // Re-fill connections whose read budget ran out before the
            // socket was drained — after the event batch, so one greedy
            // peer's backlog interleaves with everyone else's traffic.
            if !self.repump.is_empty() {
                let tokens: Vec<usize> = self.repump.drain().collect();
                for token in tokens {
                    self.service_read(token);
                }
            }
            let now = Instant::now();
            if now.duration_since(last_scan) >= tick {
                last_scan = now;
                self.scan_timeouts(now);
            }
            if let Some(since) = draining_since {
                let force = since.elapsed() > DRAIN_GRACE;
                for token in 0..self.conns.len() {
                    let done = match self.conns[token].as_ref() {
                        Some(conn) => force || conn.owes_nothing(),
                        None => false,
                    };
                    if done {
                        self.teardown(token);
                    }
                }
                if self.conns.iter().all(Option::is_none) {
                    break;
                }
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Whole responses go out in single buffers, so Nagle
                    // only adds delayed-ACK tail latency (the 105ms max_us
                    // outlier in the pre-reactor bench).
                    set_nodelay(stream.as_raw_fd());
                    let token = self.free.pop().unwrap_or_else(|| {
                        self.conns.push(None);
                        self.conns.len() - 1
                    });
                    self.next_generation += 1;
                    let conn = Conn::new(stream, self.next_generation, Instant::now());
                    if self
                        .poller
                        .add(conn.stream.as_raw_fd(), token as u64)
                        .is_err()
                    {
                        self.free.push(token);
                        continue; // drop closes the socket
                    }
                    self.conns[token] = Some(conn);
                    // Registration reports current readiness once (ET), so
                    // data that raced ahead of the add is not lost — but
                    // only in the *next* wait. Read now for the common case
                    // of a request arriving with the connection.
                    self.conn_event(
                        token,
                        Event {
                            token: token as u64,
                            readable: true,
                            writable: false,
                            hangup: false,
                        },
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // EMFILE/ECONNABORTED and friends: back off, keep serving.
                Err(_) => return,
            }
        }
    }

    fn conn_event(&mut self, token: usize, ev: Event) {
        let mut dead = false;
        {
            let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
                return;
            };
            if (ev.readable || ev.hangup) && conn.fill(Instant::now()) == FillOutcome::Broken {
                dead = true;
            }
            if !dead && ev.hangup && !conn.read_closed {
                // EPOLLERR/EPOLLHUP without a clean EOF: the peer is gone
                // and cannot receive a response; don't keep the slot.
                dead = true;
            }
        }
        if dead {
            self.teardown(token);
            return;
        }
        // Parse newly-buffered requests and/or flush on writability; pump
        // covers both and tears down finished connections.
        self.pump(token);
    }

    /// Parses and dispatches everything the connection has buffered, then
    /// flushes its write queue. Safe to call whenever state may have
    /// advanced; does nothing on an empty slot.
    fn pump(&mut self, token: usize) {
        let now = Instant::now();
        let mut out = std::mem::take(&mut self.scratch);
        let mut dead = false;
        if let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) {
            let (_halt, err) = conn.extract_requests(self.max_pipeline, now, &mut out);
            for parsed in out.drain(..) {
                let endpoint = Endpoint::classify(&parsed.request.path);
                let close = !parsed.keep_alive;
                // Inline hot path: answer cacheable repeats directly from
                // the reactor with the entry's preserialized bytes, skipping
                // the queue and both thread handoffs. Only compute (misses)
                // is subject to admission control. This probe is the
                // request's one cache lookup; a miss carries its key along.
                let key = api::cache_key(&parsed.request);
                if let Some(entry) = key.and_then(|key| self.state.cache.get(&key)) {
                    self.state
                        .metrics
                        .record(endpoint, entry.status(), now.elapsed());
                    let buf = if close {
                        WriteBuf::Owned(entry.closing_wire())
                    } else {
                        WriteBuf::Shared(Arc::clone(&entry.wire))
                    };
                    conn.complete(parsed.seq, buf, close);
                    continue;
                }
                conn.inflight += 1;
                let task = Task {
                    token,
                    generation: conn.generation,
                    seq: parsed.seq,
                    request: parsed.request,
                    key,
                    parsed_at: now,
                    endpoint,
                    close,
                };
                if let Err(rejected) = self.queue.push(task) {
                    // Shed load at the door: the client gets an immediate
                    // 429 in pipeline order, and the connection survives.
                    conn.inflight -= 1;
                    self.state.metrics.record_rejected();
                    self.state
                        .metrics
                        .record(rejected.endpoint, 429, rejected.parsed_at.elapsed());
                    let response = Response::error(429, "server is at capacity, retry later");
                    conn.complete(
                        rejected.seq,
                        WriteBuf::Owned(response.serialize(rejected.close)),
                        rejected.close,
                    );
                }
            }
            if let Some(err) = err {
                // Framing error: answer with the mapped status, stop
                // parsing, close once everything before it is flushed.
                let status = err.status();
                self.state
                    .metrics
                    .record(Endpoint::Other, status, now.elapsed());
                let seq = conn.begin_close_with_seq();
                let response = Response::error(status, err.message());
                conn.complete(seq, WriteBuf::Owned(response.serialize(true)), true);
            }
            dead = conn.flush().is_err() || conn.finished();
            if !dead && conn.wants_fill() {
                // Parsing made room (or a budget stopped the last fill):
                // schedule a re-fill — EPOLLET will not announce the
                // bytes already sitting in the kernel buffer.
                self.repump.insert(token);
            }
        }
        self.scratch = out;
        if dead {
            self.teardown(token);
        }
    }

    /// Re-fills a connection whose previous fill stopped at its read
    /// budget, then pumps it. Invoked outside epoll dispatch: these bytes
    /// will never produce another edge-triggered event.
    fn service_read(&mut self, token: usize) {
        let dead = {
            let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
                return;
            };
            if !conn.wants_fill() {
                return;
            }
            conn.fill(Instant::now()) == FillOutcome::Broken
        };
        if dead {
            self.teardown(token);
            return;
        }
        self.pump(token);
    }

    /// Applies worker completions: slot each response into its pipeline
    /// position, then re-pump — freed pipeline slots may unblock buffered
    /// requests that edge-triggered epoll will never re-announce.
    fn apply_completions(&mut self) {
        let drained: Vec<Completion> = {
            let mut guard = self
                .completions
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut guard)
        };
        for completion in drained {
            let token = completion.token;
            {
                let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
                    continue;
                };
                if conn.generation != completion.generation {
                    continue; // the slot was recycled; response has no home
                }
                conn.inflight -= 1;
                conn.complete(completion.seq, completion.buf, completion.close);
            }
            self.pump(token);
        }
    }

    /// Detects and answers timeouts: 408 for stalled partial requests,
    /// silent close (counted) for idle keep-alive connections.
    fn scan_timeouts(&mut self, now: Instant) {
        for token in 0..self.conns.len() {
            let Some(conn) = self.conns[token].as_mut() else {
                continue;
            };
            if let Some((since, phase)) = conn.partial_phase() {
                if now.duration_since(since) < self.header_timeout {
                    continue;
                }
                let timeout_phase = match phase {
                    ReadPhase::Head => TimeoutPhase::Header,
                    ReadPhase::Body => TimeoutPhase::Body,
                };
                self.state.metrics.record_timeout_phase(timeout_phase);
                self.state
                    .metrics
                    .record(Endpoint::Other, 408, now.duration_since(since));
                let seq = conn.begin_close_with_seq();
                let response = Response::error(408, "timed out waiting for the request");
                conn.complete(seq, WriteBuf::Owned(response.serialize(true)), true);
                let dead = conn.flush().is_err() || conn.finished();
                if dead {
                    self.teardown(token);
                }
            } else if conn.is_idle() && now.duration_since(conn.last_activity) >= self.idle_timeout
            {
                self.state.metrics.record_timeout_phase(TimeoutPhase::Idle);
                self.teardown(token);
            }
        }
    }

    fn teardown(&mut self, token: usize) {
        if let Some(conn) = self.conns.get_mut(token).and_then(Option::take) {
            self.poller.delete(conn.stream.as_raw_fd());
            self.free.push(token);
            // A recycled slot must not inherit the old conn's re-fill.
            self.repump.remove(&token);
            // Dropping the Conn closes the socket.
        }
    }
}

impl ServerHandle {
    /// The bound address (useful with `port: 0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (metrics/cache introspection for tests and loadgen).
    pub fn state(&self) -> &AppState {
        &self.state
    }

    /// Graceful shutdown: close the listener, drain connections that are
    /// owed responses (bounded grace), join all threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
        self.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    /// One-shot request helper; sends `Connection: close` so
    /// `read_to_string` terminates when the server closes.
    fn http_request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(raw.as_bytes()).unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        parse_response(&text)
    }

    fn parse_response(text: &str) -> (u16, String) {
        let status: u16 = text
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status line");
        let body = text
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    /// Reads one Content-Length-framed response off a keep-alive stream.
    fn read_framed(stream: &mut TcpStream) -> (u16, String) {
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") {
            stream.read_exact(&mut byte).expect("response head");
            head.push(byte[0]);
        }
        let head_text = String::from_utf8(head).unwrap();
        let status: u16 = head_text
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status line");
        let length: usize = head_text
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .expect("content-length");
        let mut body = vec![0u8; length];
        stream.read_exact(&mut body).expect("response body");
        (status, String::from_utf8(body).unwrap())
    }

    #[test]
    fn serves_healthz_and_metrics() {
        let mut handle = Server::start(ServeConfig::default()).unwrap();
        let (status, body) = http_request(handle.addr(), "GET", "/healthz", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"ok\""));
        let (status, body) = http_request(handle.addr(), "GET", "/metrics", "");
        assert_eq!(status, 200);
        assert!(body.contains("sbomdiff_requests_total"));
        assert!(body.contains("sbomdiff_timeouts_total"));
        handle.shutdown();
    }

    #[test]
    fn keep_alive_serves_sequential_requests_on_one_connection() {
        let mut handle = Server::start(ServeConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        for _ in 0..3 {
            stream
                .write_all(b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n")
                .unwrap();
            let (status, body) = read_framed(&mut stream);
            assert_eq!(status, 200);
            assert!(body.contains("\"ok\""));
        }
        handle.shutdown();
    }

    #[test]
    fn crlf_padding_between_pipelined_requests_is_ignored() {
        // RFC 9112 §2.2: empty-line padding before a request line must not
        // 400 the connection.
        let mut handle = Server::start(ServeConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .write_all(
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n\r\nGET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
            )
            .unwrap();
        for _ in 0..2 {
            let (status, body) = read_framed(&mut stream);
            assert_eq!(status, 200);
            assert!(body.contains("\"ok\""));
        }
        handle.shutdown();
    }

    #[test]
    fn large_single_burst_body_is_served_not_timed_out() {
        // A legal body arriving in one burst larger than fill's read
        // budget must be served: stranded kernel-buffer bytes generate no
        // further edge-triggered event, so the reactor re-fills on its
        // own instead of stalling into a 408.
        let mut handle = Server::start(ServeConfig {
            header_timeout: Duration::from_millis(500),
            ..ServeConfig::default()
        })
        .unwrap();
        let body = format!(
            "{{\"files\":{{\"requirements.txt\":\"# {}\\nnumpy==1.19.2\\n\"}}}}",
            "x".repeat(400 * 1024)
        );
        let (status, _) = http_request(handle.addr(), "POST", "/v1/analyze", &body);
        assert_eq!(status, 200);
        assert_eq!(
            handle.state().metrics.timeouts_phase(TimeoutPhase::Body),
            0,
            "a fully-delivered body must never be counted as a body stall"
        );
        handle.shutdown();
    }

    #[test]
    fn cache_serves_identical_bodies() {
        let mut handle = Server::start(ServeConfig::default()).unwrap();
        let payload = r#"{"files":{"requirements.txt":"numpy==1.19.2\n"}}"#;
        let (s1, b1) = http_request(handle.addr(), "POST", "/v1/analyze", payload);
        let (s2, b2) = http_request(handle.addr(), "POST", "/v1/analyze", payload);
        assert_eq!((s1, s2), (200, 200));
        assert_eq!(b1, b2);
        assert!(handle.state().cache.stats().hits >= 1);
        handle.shutdown();
    }

    #[test]
    fn zero_deadline_times_out_queued_work() {
        let mut handle = Server::start(ServeConfig {
            deadline: Duration::ZERO,
            ..ServeConfig::default()
        })
        .unwrap();
        let (status, _) = http_request(handle.addr(), "GET", "/healthz", "");
        assert_eq!(status, 503);
        assert!(handle.state().metrics.timeouts() >= 1);
        handle.shutdown();
    }

    #[test]
    fn stalled_body_answers_408_and_counts_the_phase() {
        // A client that sends its head but trickles the body must get 408
        // (not a silent drop) once header_timeout expires, attributed to
        // the body phase.
        let mut handle = Server::start(ServeConfig {
            header_timeout: Duration::from_millis(100),
            ..ServeConfig::default()
        })
        .unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .write_all(b"POST /v1/diff HTTP/1.1\r\nHost: localhost\r\nContent-Length: 5\r\n\r\nab")
            .unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 408 "), "{text}");
        assert!(handle.state().metrics.timeouts_phase(TimeoutPhase::Body) >= 1);
        handle.shutdown();
    }

    #[test]
    fn idle_keep_alive_connection_is_reaped() {
        let mut handle = Server::start(ServeConfig {
            idle_timeout: Duration::from_millis(100),
            ..ServeConfig::default()
        })
        .unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // Idle close between requests is silent by contract: EOF, no bytes.
        let mut buf = [0u8; 16];
        assert!(matches!(stream.read(&mut buf), Ok(0)));
        assert!(handle.state().metrics.timeouts_phase(TimeoutPhase::Idle) >= 1);
        handle.shutdown();
    }

    #[test]
    fn malformed_request_line_is_400_not_drop() {
        let mut handle = Server::start(ServeConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.write_all(b"BOGUS\r\n\r\n").unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 400 "), "{text}");
        handle.shutdown();
    }

    #[test]
    fn shutdown_closes_the_port() {
        let mut handle = Server::start(ServeConfig::default()).unwrap();
        let addr = handle.addr();
        handle.shutdown();
        // After shutdown the listener is gone; a fresh connection must not
        // be answered (connect may succeed into a lingering backlog, but
        // no response will ever come — use a short read timeout).
        if let Ok(stream) = TcpStream::connect(addr) {
            let mut stream = stream;
            stream
                .set_read_timeout(Some(Duration::from_millis(200)))
                .unwrap();
            stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
            let mut buf = [0u8; 16];
            assert!(matches!(stream.read(&mut buf), Ok(0) | Err(_)));
        }
    }
}
