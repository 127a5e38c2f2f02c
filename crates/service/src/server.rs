//! The TCP serving layer: `workers` readiness-polling event loops that
//! answer every request inline.
//!
//! Each loop is one thread owning an epoll [`crate::poll::Poller`], an
//! eventfd [`Waker`] and its share of the connections. Connections are
//! non-blocking with per-connection read/write buffers, so idle clients cost
//! file descriptors, not threads. Loop 0 also owns the listener and deals
//! accepted sockets round-robin to the loops through a per-loop inbox and
//! that loop's waker.
//!
//! One readiness pass of a loop reads every readable connection, splits off
//! its complete frames (each bounded by [`crate::proto::MAX_FRAME_BYTES`])
//! and answers them in order against the store, on the loop thread — no
//! hand-off to another thread. Writes — registrations, mutations and
//! corrections — defer their durability wait into one pass-wide
//! [`DurabilityBarrier`], settled once per pass: from a connection's first
//! write on, its answers are held until the settle, so
//! acknowledged-after-durable holds and concurrent strict-fsync writers on
//! one loop share a group commit. Answers that owe no wait are written
//! before the settle. Each connection's answers of a pass leave in one
//! coalesced `write`.
//!
//! Answers push back on their client. A connection with unwritten answers
//! is not read until they are flushed, so its further requests wait in the
//! kernel's socket buffer; and one pass answers a connection's frames only
//! until about a mebibyte of answers is pending — the rest wait in its read
//! buffer. A client that half-closes after its last frame still gets every
//! answer before the server closes its side.
//!
//! A `watch` frame turns its connection into a write source. The store's
//! fan-out wakes the owning loop through the [`Waker`] the subscription
//! carries, and the loop moves queued events into the connection's write
//! buffer only while that buffer is flushed — a subscriber that stops
//! reading fills its bounded queue and is lag-dropped, then told to resync.
//! Any frame from a watching client (`unwatch`, or a plain request) ends the
//! subscription; a disconnect is an ordinary readable event.
//!
//! Shutdown — a client's `shutdown` request or
//! [`ServerHandle::request_shutdown`] — raises a flag and wakes every loop;
//! each flushes what it can and closes its connections, so
//! [`ServerHandle::join`] returns even when clients leave connections idle.
//! The loops need Linux epoll: elsewhere [`serve`] reports
//! [`std::io::ErrorKind::Unsupported`].

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use crate::error::ServiceError;
use crate::poll::Waker;
use crate::proto::{Request, Response};
use crate::store::{DurabilityBarrier, ProvenanceAnswer, WorkflowStore};

/// A response as the server encodes it: a provenance answer keeps its task
/// ids and spec, and [`Response::encode`] borrows each name from the spec.
type Reply = Response<ProvenanceAnswer>;

/// Configuration of a [`serve`] call.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind; port 0 picks a free port (see
    /// [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Number of store shards.
    pub shards: usize,
    /// Number of event loops, one thread each.
    pub workers: usize,
    /// Idle timeout in milliseconds (0 disables): a connection whose client
    /// sends nothing for this long, with nothing left to write to it, is
    /// closed. Watch subscriptions are exempt (the server pushes to them).
    pub read_timeout_ms: u64,
    /// Write-stall timeout in milliseconds (0 disables): a connection whose
    /// client accepts none of its pending response or event bytes for this
    /// long is closed.
    pub write_timeout_ms: u64,
    /// Bound on open connections across all loops (0 disables). A
    /// connection accepted past it gets a best-effort
    /// [`ServiceError::Overloaded`] frame and is closed.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            shards: 4,
            workers: 4,
            read_timeout_ms: 30_000,
            write_timeout_ms: 30_000,
            max_connections: 16_384,
        }
    }
}

/// `Some(duration)` for a positive millisecond count, `None` for the
/// disabled sentinel 0.
fn timeout_of(ms: u64) -> Option<Duration> {
    (ms > 0).then(|| Duration::from_millis(ms))
}

/// One loop's door: the waker that interrupts its `epoll_wait`, and the
/// inbox loop 0 deals accepted sockets into.
#[derive(Debug)]
struct Mailbox {
    waker: Arc<Waker>,
    inbox: Mutex<Vec<TcpStream>>,
}

/// State shared between the event loops and the handle.
#[derive(Debug)]
struct Shared {
    addr: SocketAddr,
    shutdown: AtomicBool,
    /// One mailbox per loop, indexed by loop number.
    loops: Vec<Mailbox>,
}

impl Shared {
    /// Raises the shutdown flag and wakes every loop; each closes its own
    /// connections on the way out.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for mailbox in &self.loops {
            mailbox.waker.wake();
        }
    }

    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// A running server: the bound address, the shared store and the loop
/// threads to join on shutdown.
#[derive(Debug)]
pub struct ServerHandle {
    store: Arc<WorkflowStore>,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (relevant with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The store backing the server (shared with the loop threads).
    #[must_use]
    pub fn store(&self) -> Arc<WorkflowStore> {
        Arc::clone(&self.store)
    }

    /// Begins shutdown without waiting for the loops; follow with
    /// [`ServerHandle::join`]. Batched-but-unsynced WAL records are pushed
    /// to stable storage first.
    pub fn request_shutdown(&self) {
        let _ = self.store.backend().sync();
        self.shared.begin_shutdown();
    }

    /// Waits for every event loop to exit — either after a shutdown was
    /// requested, or once a client sends a `shutdown` request (this is what
    /// `wolves serve` blocks on).
    pub fn join(mut self) {
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }

    /// Convenience: [`ServerHandle::request_shutdown`] then
    /// [`ServerHandle::join`].
    pub fn shutdown(self) {
        self.request_shutdown();
        self.join();
    }
}

/// Binds a listener and starts the event loops on a fresh in-memory store.
///
/// # Errors
/// Reports bind failures, and `Unsupported` off Linux.
pub fn serve(config: &ServerConfig) -> std::io::Result<ServerHandle> {
    serve_with_store(config, Arc::new(WorkflowStore::new(config.shards)))
}

/// [`serve`] on a caller-provided store — how `wolves serve --data-dir`
/// plugs in a store recovered from a durable backend
/// ([`crate::store::WorkflowStore::open`]); binding and recovery stay
/// separable failures.
///
/// # Errors
/// Reports bind failures, and `Unsupported` off Linux.
pub fn serve_with_store(
    config: &ServerConfig,
    store: Arc<WorkflowStore>,
) -> std::io::Result<ServerHandle> {
    engine::spawn(config, store)
}

/// Answers one request against the store; the boolean asks the loop to
/// begin server shutdown after replying. Writes — registrations, mutations
/// and corrections — are committed and published, but their group-commit
/// wait is folded into `barrier`: the caller MUST [`settle`] it before a
/// response whose request folded an obligation leaves the server, which
/// keeps the acknowledged-after-durable contract while every write of a
/// readiness pass shares one wait.
fn respond(
    store: &WorkflowStore,
    request: Request,
    barrier: &mut DurabilityBarrier,
) -> (Reply, bool) {
    let response = match request {
        Request::Register { payload } => store
            .register_text_deferred(&payload)
            .map(|written| Response::Registered(store.defer(written, barrier))),
        Request::Validate { workflow, version } => {
            store.validate(workflow, version).map(Response::Verdict)
        }
        Request::Correct { workflow, strategy } => store
            .correct_deferred(workflow, strategy)
            .map(|written| Response::Corrected(store.defer(written, barrier))),
        Request::Provenance { workflow, subject } => store
            .provenance_answer(workflow, &subject)
            .map(Response::Provenance),
        Request::Mutate {
            workflow,
            op,
            expect,
        } => store
            .mutate_inner(workflow, op, expect)
            .map(|(written, _)| Response::Mutated(store.defer(written, barrier))),
        Request::Export { workflow } => store.export(workflow).map(Response::Exported),
        Request::Snapshot => store.snapshot_all().map(Response::Snapshotted),
        Request::Epoch { workflow } => store
            .cursor(workflow)
            .map(|(seq, epoch)| Response::Epoch { seq, epoch }),
        Request::Heal => {
            let (healed, still_degraded) = store.heal();
            Ok(Response::Healed {
                healed,
                still_degraded,
            })
        }
        Request::Stats => Ok(Response::Stats(store.stats())),
        Request::Metrics { slow } => Ok(Response::Metrics(if slow {
            store.slow_requests_text()
        } else {
            store.metrics_text()
        })),
        // subscriptions are connection-scoped and opened by the loop
        // itself; this arm is unreachable in practice
        Request::Watch { .. } => Err(ServiceError::Protocol(
            "watch is handled by the connection loop".to_owned(),
        )),
        // idempotent outside subscription mode (e.g. after a lag-drop
        // already ended the subscription server-side)
        Request::Unwatch => Ok(Response::Unwatched),
        Request::Shutdown => {
            // push batched-but-unsynced WAL records to stable storage
            // before acknowledging the shutdown
            let _ = store.backend().sync();
            return (Response::ShuttingDown, true);
        }
    };
    (
        response.unwrap_or_else(|e| {
            store.record_error(&e);
            Response::Error(e.to_wire())
        }),
        false,
    )
}

/// Settles a readiness pass's shared durability barrier. On a fsync failure
/// it returns the error frame that replaces every write acknowledgement held
/// for the barrier — a registration, mutation or correction: none of those
/// records is power-loss durable yet, so none may be acknowledged as applied
/// (the records stay staged, so a later group commit retries them).
fn settle(store: &WorkflowStore, barrier: &DurabilityBarrier) -> Option<String> {
    if barrier.is_empty() {
        return None;
    }
    let e = store.await_durability(barrier).err()?;
    store.record_error(&e);
    let mut frame = String::new();
    Reply::Error(e.to_wire()).encode(&mut frame);
    Some(frame)
}

#[cfg(not(target_os = "linux"))]
mod engine {
    use super::{ServerConfig, ServerHandle};
    use crate::store::WorkflowStore;
    use std::sync::Arc;

    /// No `poll(2)` backend exists: the loops run on Linux epoll only.
    pub(super) fn spawn(
        _config: &ServerConfig,
        _store: Arc<WorkflowStore>,
    ) -> std::io::Result<ServerHandle> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "the server's event loops need Linux epoll",
        ))
    }
}

/// The event loops (see the module docs).
#[cfg(target_os = "linux")]
mod engine {
    use std::collections::HashMap;
    use std::io::{self, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use parking_lot::Mutex;

    use super::{respond, settle, timeout_of, Mailbox, Reply, ServerConfig, ServerHandle, Shared};
    use crate::error::ServiceError;
    use crate::obs::{duration_ns, ServerGauges, Stage};
    use crate::poll::{raw_fd_of, Interest, Poller, Waker};
    use crate::proto::{
        Frame, FrameDecoder, Request, Response, WatchEvent, Watching, MAX_FRAME_BYTES,
    };
    use crate::store::{DurabilityBarrier, WatchSubscription, WorkflowStore};

    const LISTENER_TOKEN: u64 = 0;
    const WAKER_TOKEN: u64 = 1;
    const FIRST_CONN_TOKEN: u64 = 2;

    /// How often a loop sweeps for timed-out connections and re-arms a
    /// listener paused on descriptor exhaustion; also its longest
    /// `epoll_wait`.
    const SWEEP_EVERY: Duration = Duration::from_millis(500);

    /// Answer bytes a connection may have pending — unwritten, or held for
    /// the pass's settle — before a pass stops taking its frames.
    const ANSWER_BUDGET: usize = 1 << 20;

    /// A frame decoded off a connection, or the protocol error that stands
    /// in its slot.
    type Taken = Result<Frame, ServiceError>;

    /// An answer held for the pass's settle, already encoded.
    struct Held {
        token: u64,
        frame: String,
        /// A write acknowledgement, which a failed settle turns into its
        /// error.
        write: bool,
    }

    pub(super) fn spawn(
        config: &ServerConfig,
        store: Arc<WorkflowStore>,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(config.addr.as_str())?;
        listener.set_nonblocking(true)?;
        let count = config.workers.max(1);
        let mut pollers = Vec::with_capacity(count);
        let mut loops = Vec::with_capacity(count);
        for _ in 0..count {
            let poller = Poller::new()?;
            let waker = Arc::new(Waker::new()?);
            poller.register(waker.raw_fd(), WAKER_TOKEN, Interest::Read)?;
            pollers.push(poller);
            loops.push(Mailbox {
                waker,
                inbox: Mutex::new(Vec::new()),
            });
        }
        pollers[0].register(raw_fd_of(&listener), LISTENER_TOKEN, Interest::Read)?;
        let shared = Arc::new(Shared {
            addr: listener.local_addr()?,
            shutdown: AtomicBool::new(false),
            loops,
        });
        let gauges = Arc::new(ServerGauges::default());
        store.attach_server_gauges(Arc::clone(&gauges));
        let mut listener = Some(listener);
        let mut threads = Vec::with_capacity(count);
        for (index, poller) in pollers.into_iter().enumerate() {
            let event_loop = EventLoop {
                index,
                poller,
                listener: listener.take(),
                listener_paused: false,
                next_loop: 0,
                conns: HashMap::new(),
                next_token: FIRST_CONN_TOKEN,
                backlog: Vec::new(),
                store: Arc::clone(&store),
                shared: Arc::clone(&shared),
                gauges: Arc::clone(&gauges),
                read_timeout: timeout_of(config.read_timeout_ms),
                write_timeout: timeout_of(config.write_timeout_ms),
                max_connections: config.max_connections,
            };
            let spawned = std::thread::Builder::new()
                .name(format!("wolves-loop-{index}"))
                .spawn(move || event_loop.run());
            match spawned {
                Ok(thread) => threads.push(thread),
                Err(e) => {
                    shared.begin_shutdown();
                    for thread in threads {
                        let _ = thread.join();
                    }
                    return Err(e);
                }
            }
        }
        Ok(ServerHandle {
            store,
            shared,
            threads,
        })
    }

    /// Takes a connection's next complete frame off its input; a frame
    /// that is not UTF-8 becomes a protocol error in its slot.
    fn next_frame(input: &mut FrameDecoder) -> Option<Taken> {
        input.next_frame().map(|frame| {
            frame.map_err(|e| ServiceError::Protocol(format!("frame is not valid UTF-8: {e}")))
        })
    }

    /// Per-connection state, owned by one loop.
    struct Conn {
        stream: TcpStream,
        input: FrameDecoder,
        write_buf: String,
        write_pos: usize,
        /// Wire bytes of this pass's answers held for the settle.
        held: usize,
        /// A pass stopped at the answer budget with frames left in `input`.
        backlogged: bool,
        interest: Interest,
        /// When the client last sent bytes: the idle timeout's clock.
        last_read: Instant,
        /// When the socket last accepted bytes: the write-stall clock.
        last_write: Instant,
        /// A live subscription makes the connection a write source.
        watch: Option<WatchSubscription>,
        /// The peer closed its sending side: its frames are answered and
        /// flushed, then the connection closes.
        hung_up: bool,
    }

    impl Conn {
        fn new(stream: TcpStream) -> Conn {
            let now = Instant::now();
            Conn {
                stream,
                input: FrameDecoder::default(),
                write_buf: String::new(),
                write_pos: 0,
                held: 0,
                backlogged: false,
                interest: Interest::Read,
                last_read: now,
                last_write: now,
                watch: None,
                hung_up: false,
            }
        }

        fn flushed(&self) -> bool {
            self.write_pos >= self.write_buf.len()
        }

        /// Answer bytes not yet accepted by the socket, held ones included.
        fn pending(&self) -> usize {
            self.write_buf.len() - self.write_pos + self.held
        }

        /// Reads readable bytes straight into the input, stopping once it
        /// holds a byte more than a frame's bound (the rest waits in the
        /// socket for the next readiness event); `true` means the peer is
        /// gone.
        fn fill(&mut self) -> bool {
            self.last_read = Instant::now();
            while self.input.buffered() <= MAX_FRAME_BYTES {
                let limit = MAX_FRAME_BYTES + 1 - self.input.buffered();
                match self.input.read_from(&mut self.stream, limit) {
                    Ok(0) => return true,
                    Ok(_) => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => return true,
                }
            }
            false
        }

        /// Writes as much of the pending bytes as the socket takes now.
        ///
        /// # Errors
        /// Reports fatal socket errors (`WouldBlock` is not one: the rest
        /// stays buffered for the next writable event).
        fn flush(&mut self) -> io::Result<()> {
            while self.write_pos < self.write_buf.len() {
                match self
                    .stream
                    .write(&self.write_buf.as_bytes()[self.write_pos..])
                {
                    Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                    Ok(n) => {
                        self.write_pos += n;
                        self.last_write = Instant::now();
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            self.write_buf.clear();
            self.write_pos = 0;
            Ok(())
        }

        /// Moves the subscription's queued events into the write buffer;
        /// `true` when anything was appended. A lag-drop is answered with
        /// an explicit `resync` event and ends the subscription.
        fn pump(&mut self, store: &WorkflowStore) -> bool {
            let Some(subscription) = &self.watch else {
                return false;
            };
            let start = self.write_buf.len();
            let ended = loop {
                match subscription.try_recv() {
                    Ok(Some(event)) => event.encode(&mut self.write_buf),
                    Ok(None) => break false,
                    Err(ServiceError::Lagged) => {
                        // the store dropped this slow consumer; hand the
                        // client a resync cursor so it can export and
                        // re-subscribe
                        let workflow = subscription.workflow();
                        let seq = store
                            .cursor(workflow)
                            .map_or(subscription.seq(), |(seq, _)| seq);
                        WatchEvent::Resync { workflow, seq }.encode(&mut self.write_buf);
                        break true;
                    }
                    // closed without lagging (store dropped)
                    Err(_) => break true,
                }
            };
            if ended {
                self.watch = None;
            }
            self.write_buf.len() > start
        }

        /// Polls for requests while flushed, and only for writability while
        /// bytes are pending — the client is heard again once it has read
        /// what it was sent.
        fn rearm(&mut self, poller: &Poller, token: u64) -> io::Result<()> {
            let want = if self.flushed() {
                Interest::Read
            } else {
                Interest::Write
            };
            if want != self.interest {
                poller.rearm(raw_fd_of(&self.stream), token, want)?;
                self.interest = want;
            }
            Ok(())
        }

        fn expired(
            &self,
            now: Instant,
            read_timeout: Option<Duration>,
            write_timeout: Option<Duration>,
        ) -> bool {
            if self.flushed() {
                self.watch.is_none()
                    && read_timeout.is_some_and(|t| now.duration_since(self.last_read) > t)
            } else {
                write_timeout.is_some_and(|t| now.duration_since(self.last_write) > t)
            }
        }
    }

    /// One event loop: a thread, its poller and its connections.
    struct EventLoop {
        index: usize,
        poller: Poller,
        /// Loop 0 only.
        listener: Option<TcpListener>,
        /// Out of descriptors: the listener is deregistered until a
        /// connection closes or the next sweep.
        listener_paused: bool,
        /// The loop the next accepted socket is dealt to (loop 0 only).
        next_loop: usize,
        conns: HashMap<u64, Conn>,
        next_token: u64,
        /// Flushed connections with frames left over the answer budget,
        /// served in the next pass.
        backlog: Vec<u64>,
        store: Arc<WorkflowStore>,
        shared: Arc<Shared>,
        gauges: Arc<ServerGauges>,
        read_timeout: Option<Duration>,
        write_timeout: Option<Duration>,
        max_connections: usize,
    }

    impl EventLoop {
        fn run(mut self) {
            let mut events = Vec::new();
            let mut held: Vec<Held> = Vec::new();
            let mut touched: Vec<u64> = Vec::new();
            let mut settled: Vec<u64> = Vec::new();
            let mut last_sweep = Instant::now();
            let sweep_ms = SWEEP_EVERY.as_millis() as u64;
            loop {
                // backlogged connections are served without waiting
                let timeout = if self.backlog.is_empty() { sweep_ms } else { 0 };
                if self.poller.wait(&mut events, Some(timeout)).is_err() {
                    break;
                }
                self.gauges.wakeup();
                if self.shared.is_shutdown() {
                    break;
                }
                // one readiness pass: frames are answered inline and every
                // write's durability wait folds into one barrier
                let mut barrier = DurabilityBarrier::default();
                let mut stop = false;
                for token in std::mem::take(&mut self.backlog) {
                    stop |= self.serve_readable(token, &mut barrier, &mut held);
                    touched.push(token);
                }
                for event in &events {
                    match event.token {
                        WAKER_TOKEN => {
                            let mailbox = &self.shared.loops[self.index];
                            mailbox.waker.drain();
                            let arrived = std::mem::take(&mut *mailbox.inbox.lock());
                            for stream in arrived {
                                self.adopt(stream);
                            }
                            // a fan-out may have queued watch events
                            touched.extend(
                                self.conns
                                    .iter()
                                    .filter(|(_, conn)| conn.watch.is_some())
                                    .map(|(&token, _)| token),
                            );
                        }
                        LISTENER_TOKEN => self.accept_ready(),
                        token => {
                            if event.readable || event.hangup {
                                stop |= self.serve_readable(token, &mut barrier, &mut held);
                            }
                            touched.push(token);
                        }
                    }
                }
                // answers that owe no durability wait leave before it
                for token in touched.drain(..) {
                    if self.conns.get(&token).is_some_and(|conn| conn.held > 0) {
                        settled.push(token);
                    } else {
                        self.drive(token);
                    }
                }
                let refused = settle(&self.store, &barrier);
                for answer in held.drain(..) {
                    if let Some(conn) = self.conns.get_mut(&answer.token) {
                        let frame = match &refused {
                            Some(error) if answer.write => error,
                            _ => &answer.frame,
                        };
                        conn.write_buf.push_str(frame);
                        conn.held = 0;
                    }
                }
                for token in settled.drain(..) {
                    self.drive(token);
                }
                if stop {
                    self.shared.begin_shutdown();
                    break;
                }
                if last_sweep.elapsed() >= SWEEP_EVERY {
                    last_sweep = Instant::now();
                    self.sweep();
                }
            }
            self.close_all();
        }

        /// Reads one flushed connection and answers its complete frames in
        /// order while its pending answers stay under [`ANSWER_BUDGET`].
        /// Answers owing no durability wait go straight to the write
        /// buffer; from the connection's first one that does, they are held
        /// in `held` for the pass's settle. `true` when a frame asked for
        /// server shutdown.
        fn serve_readable(
            &mut self,
            token: u64,
            barrier: &mut DurabilityBarrier,
            held: &mut Vec<Held>,
        ) -> bool {
            let Some(conn) = self.conns.get_mut(&token) else {
                return false;
            };
            if !conn.flushed() {
                // the client is heard again once it has read its answers
                return false;
            }
            if conn.fill() {
                conn.hung_up = true;
                if let Some(subscription) = conn.watch.take() {
                    self.store.unwatch(&subscription);
                }
            }
            conn.backlogged = false;
            let mut answered = 0;
            let stop = loop {
                if conn.pending() >= ANSWER_BUDGET {
                    conn.backlogged = true;
                    break false;
                }
                let Some(frame) = next_frame(&mut conn.input) else {
                    break false;
                };
                answered += 1;
                let parse_start = Instant::now();
                let parsed = frame.and_then(Request::from_frame);
                self.store
                    .telemetry()
                    .stage(Stage::Parse, duration_ns(parse_start.elapsed()));
                // any frame from a watching client ends its subscription
                if let Some(subscription) = conn.watch.take() {
                    self.store.unwatch(&subscription);
                }
                let folds = barrier.folds();
                let (reply, stop) = match parsed {
                    Ok(Request::Watch { workflow, mode }) => {
                        let waker = &self.shared.loops[self.index].waker;
                        match self.store.watch_waking(workflow, mode, Arc::clone(waker)) {
                            Ok(subscription) => {
                                let ack = Response::Watching(Watching {
                                    workflow: subscription.workflow(),
                                    seq: subscription.seq(),
                                    epoch: subscription.epoch(),
                                    payload: subscription.payload().map(str::to_owned),
                                });
                                conn.watch = Some(subscription);
                                (ack, false)
                            }
                            Err(e) => {
                                self.store.record_error(&e);
                                (Response::Error(e.to_wire()), false)
                            }
                        }
                    }
                    Ok(request) => respond(&self.store, request, barrier),
                    Err(e) => {
                        self.store.record_error(&e);
                        (Response::Error(e.to_wire()), false)
                    }
                };
                if conn.held == 0 && barrier.folds() == folds {
                    reply.encode(&mut conn.write_buf);
                } else {
                    let mut frame = String::new();
                    reply.encode(&mut frame);
                    conn.held += frame.len();
                    let write = matches!(
                        reply,
                        Response::Registered(_) | Response::Corrected(_) | Response::Mutated(_)
                    );
                    held.push(Held {
                        token,
                        frame,
                        write,
                    });
                }
                if stop {
                    break true;
                }
            };
            if answered > 1 {
                self.gauges.pipelined_batch();
            }
            if !conn.backlogged && conn.input.buffered() > MAX_FRAME_BYTES {
                // an unterminated frame past the bound
                self.close(token);
            }
            stop
        }

        /// Flushes a connection, tops its write buffer up with queued watch
        /// events whenever it drained, and re-arms its interest. A fatal
        /// socket error closes it, and so does a hang-up once every answer
        /// is out; a flushed connection with frames left over the budget
        /// joins the backlog.
        fn drive(&mut self, token: u64) {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let outcome = loop {
                if let Err(e) = conn.flush() {
                    break Err(e);
                }
                if !conn.flushed() || !conn.pump(&self.store) {
                    break conn.rearm(&self.poller, token);
                }
            };
            let done = conn.flushed() && !conn.backlogged;
            if outcome.is_err() || (conn.hung_up && done) {
                self.close(token);
            } else if conn.flushed() && conn.backlogged {
                self.backlog.push(token);
            }
        }

        /// Accepts every pending connection (level-triggered listener).
        fn accept_ready(&mut self) {
            let Some(listener) = self.listener.take() else {
                return;
            };
            loop {
                match listener.accept() {
                    Ok((stream, _)) => self.admit(stream),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted
                        ) => {}
                    Err(_) => {
                        // typically EMFILE/ENFILE: the level-triggered
                        // listener would fire again at once, so stop
                        // polling it until a connection closes or the next
                        // sweep
                        self.listener_paused = self.poller.deregister(raw_fd_of(&listener)).is_ok();
                        break;
                    }
                }
            }
            self.listener = Some(listener);
        }

        /// Admits one accepted socket — or sheds it past `max_connections`
        /// — and deals it to the next loop in round-robin order.
        fn admit(&mut self, stream: TcpStream) {
            if stream.set_nonblocking(true).is_err() {
                return;
            }
            if self.max_connections > 0
                && self.gauges.open_connections() >= self.max_connections as u64
            {
                // a best-effort typed error frame tells the client to back
                // off; the drop that follows closes the connection
                let error = ServiceError::Overloaded;
                self.store.record_error(&error);
                let mut frame = String::new();
                Reply::Error(error.to_wire()).encode(&mut frame);
                let _ = (&stream).write_all(frame.as_bytes());
                return;
            }
            let _ = stream.set_nodelay(true);
            self.gauges.connection_opened();
            let target = self.next_loop;
            self.next_loop = (target + 1) % self.shared.loops.len();
            if target == self.index {
                self.adopt(stream);
            } else {
                let mailbox = &self.shared.loops[target];
                mailbox.inbox.lock().push(stream);
                mailbox.waker.wake();
            }
        }

        /// Registers a dealt socket with this loop.
        fn adopt(&mut self, stream: TcpStream) {
            let token = self.next_token;
            self.next_token += 1;
            if self
                .poller
                .register(raw_fd_of(&stream), token, Interest::Read)
                .is_ok()
            {
                self.conns.insert(token, Conn::new(stream));
            } else {
                self.gauges.connection_closed();
            }
        }

        /// Drops a connection (closing the socket also removes it from the
        /// poller) and its subscription.
        fn close(&mut self, token: u64) {
            if let Some(conn) = self.conns.remove(&token) {
                if let Some(subscription) = &conn.watch {
                    self.store.unwatch(subscription);
                }
                self.gauges.connection_closed();
                self.resume_listener();
            }
        }

        fn resume_listener(&mut self) {
            if let (true, Some(listener)) = (self.listener_paused, &self.listener) {
                self.listener_paused = self
                    .poller
                    .register(raw_fd_of(listener), LISTENER_TOKEN, Interest::Read)
                    .is_err();
            }
        }

        /// Closes idle and write-stalled connections; re-arms a paused
        /// listener.
        fn sweep(&mut self) {
            self.resume_listener();
            let now = Instant::now();
            let expired: Vec<u64> = self
                .conns
                .iter()
                .filter(|(_, conn)| conn.expired(now, self.read_timeout, self.write_timeout))
                .map(|(&token, _)| token)
                .collect();
            for token in expired {
                self.close(token);
            }
        }

        /// Exit: one best-effort flush of the goodbye frames, then close
        /// everything, including sockets dealt here but never adopted.
        fn close_all(&mut self) {
            for (_, mut conn) in self.conns.drain() {
                let _ = conn.flush();
                if let Some(subscription) = &conn.watch {
                    self.store.unwatch(subscription);
                }
                self.gauges.connection_closed();
            }
            for _ in self.shared.loops[self.index].inbox.lock().drain(..) {
                self.gauges.connection_closed();
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::proto::Payload;

        /// Reads all of `bytes` into the input, as socket reads would.
        fn feed(input: &mut FrameDecoder, mut bytes: &[u8]) {
            while !bytes.is_empty() {
                input.read_from(&mut bytes, usize::MAX).unwrap();
            }
        }

        fn frames_of(input: &mut FrameDecoder) -> Vec<Taken> {
            std::iter::from_fn(|| next_frame(input)).collect()
        }

        #[test]
        fn frame_splitter_handles_partials_pipelining_and_bad_utf8() {
            // a partial frame stays buffered
            let mut input = FrameDecoder::default();
            feed(&mut input, b"validate\t1\n");
            assert!(frames_of(&mut input).is_empty());
            assert_eq!(input.buffered(), b"validate\t1\n".len());

            // it completes across a later read, then two more frames and a
            // partial fourth follow in one read
            feed(&mut input, b".\nvalidate\t2\n.\nstats\r\n.\r\nepo");
            let frames = frames_of(&mut input);
            assert_eq!(frames.len(), 3);
            let lines = |line: &str| Frame {
                header: line.to_owned(),
                payload: Payload::Lines(Vec::new()),
            };
            assert_eq!(frames[0].as_ref().unwrap(), &lines("validate\t1"));
            assert_eq!(frames[1].as_ref().unwrap(), &lines("validate\t2"));
            assert_eq!(frames[2].as_ref().unwrap(), &lines("stats"));
            assert_eq!(input.buffered(), b"epo".len());

            // dot-stuffed payload lines are un-escaped like a client's, and
            // do not count as terminators
            let mut input = FrameDecoder::default();
            feed(&mut input, b"register\n..hidden\n");
            assert!(next_frame(&mut input).is_none());
            feed(&mut input, b".\n");
            assert_eq!(
                next_frame(&mut input).unwrap().unwrap(),
                Frame {
                    header: "register".to_owned(),
                    payload: Payload::Text(".hidden".to_owned())
                }
            );

            // a frame with a non-UTF-8 line is a typed error in its slot,
            // never a lossy rename; the frame behind it is untouched
            let mut input = FrameDecoder::default();
            feed(&mut input, b"register\ntask\tA\xffB\n.\nstats\n.\n");
            let frames = frames_of(&mut input);
            assert!(matches!(frames[0], Err(ServiceError::Protocol(_))));
            assert_eq!(frames[1].as_ref().unwrap(), &lines("stats"));
            assert_eq!(input.buffered(), 0);
        }

        mod properties {
            use super::*;
            use crate::proto::wire_cases::{
                expected_frame, read_sizes, reference, wire, Chunked, Endless,
            };
            use proptest::prelude::*;
            use std::io::Read as _;

            /// What a readiness pass does with a connection's input: fill
            /// it as [`Conn::fill`] does, take every complete frame, and
            /// report whether an unterminated frame past the bound is left
            /// (the loop closes the connection then).
            fn pass(
                input: &mut FrameDecoder,
                source: &mut impl std::io::Read,
                frames: &mut Vec<Taken>,
            ) -> (bool, bool) {
                let mut ended = false;
                while input.buffered() <= MAX_FRAME_BYTES {
                    let limit = MAX_FRAME_BYTES + 1 - input.buffered();
                    if input.read_from(source, limit).unwrap() == 0 {
                        ended = true;
                        break;
                    }
                }
                assert!(
                    input.buffered() <= MAX_FRAME_BYTES + 1,
                    "read past the bound"
                );
                frames.extend(std::iter::from_fn(|| next_frame(input)));
                (ended, input.buffered() > MAX_FRAME_BYTES)
            }

            fn assert_matches(frames: &[Taken], expected: &[Option<Vec<String>>]) {
                assert_eq!(frames.len(), expected.len());
                for (frame, expected) in frames.iter().zip(expected) {
                    match (frame, expected) {
                        (Ok(frame), Some(lines)) => assert_eq!(frame, &expected_frame(lines)),
                        (Err(ServiceError::Protocol(_)), None) => {}
                        (frame, expected) => panic!("took {frame:?}, expected {expected:?}"),
                    }
                }
            }

            proptest! {
                #![proptest_config(ProptestConfig::with_cases(256))]

                /// The server's input, fed in any chunking, takes the frames
                /// the line policy splits off the same bytes; a frame that
                /// is not UTF-8 is a protocol error in its slot and the
                /// frames after it decode; bytes after the last terminator
                /// stay buffered.
                #[test]
                fn prop_the_server_input_decodes_like_the_line_policy(
                    wire in wire(),
                    sizes in read_sizes(),
                    (cut, at) in (0u8..3, 0usize..400)
                ) {
                    let wire = if cut == 0 { &wire[..at.min(wire.len())] } else { &wire[..] };
                    let expected = reference(wire);
                    let mut input = FrameDecoder::default();
                    let mut source = Chunked::new(wire, &sizes);
                    let mut frames = Vec::new();
                    // one read at a time, frames taken after each
                    while input.read_from(&mut source, usize::MAX).unwrap() > 0 {
                        frames.extend(std::iter::from_fn(|| next_frame(&mut input)));
                    }
                    assert_matches(&frames, &expected.frames);
                    prop_assert_eq!(input.buffered() > 0, expected.partial);
                }
            }

            proptest! {
                #![proptest_config(ProptestConfig::with_cases(3))]

                /// A frame that never ends fills the input to one byte past
                /// the bound, no further, after the frames before it were
                /// taken; the pass then reports it for closing.
                #[test]
                fn prop_an_oversized_frame_is_closed_at_the_bound(
                    wire in wire(),
                    line in wire()
                ) {
                    let expected = reference(&wire);
                    let mut input = FrameDecoder::default();
                    let mut source = wire.as_slice().chain(Endless::new(&line));
                    let mut frames = Vec::new();
                    loop {
                        let (ended, oversized) = pass(&mut input, &mut source, &mut frames);
                        prop_assert!(!ended);
                        if oversized {
                            break;
                        }
                    }
                    assert_matches(&frames, &expected.frames);
                    let (_, endless) = source.get_ref();
                    prop_assert_eq!(endless.sent, MAX_FRAME_BYTES + 1);
                }
            }
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use crate::proto::{FrameReader, MAX_FRAME_BYTES};
    use std::io::Write as _;
    use std::net::TcpListener;

    /// Writes `request`'s frame to `writer`.
    fn send(writer: &mut impl std::io::Write, request: &Request) {
        let mut frame = String::new();
        request.encode(&mut frame);
        writer.write_all(frame.as_bytes()).unwrap();
    }

    fn local_server() -> ServerHandle {
        serve(&ServerConfig {
            shards: 2,
            workers: 2,
            ..ServerConfig::default()
        })
        .expect("bind loopback")
    }

    fn connect(server: &ServerHandle) -> (FrameReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        (FrameReader::new(stream.try_clone().unwrap()), stream)
    }

    #[test]
    fn malformed_frames_get_an_error_response_and_keep_the_connection() {
        let server = local_server();
        let (mut reader, mut writer) = connect(&server);
        writer.write_all(b"frobnicate\n.\n").unwrap();
        let frame = reader.read_frame().unwrap().unwrap();
        assert!(frame[0].starts_with("err\t"));
        // a frame that is not UTF-8 is a typed protocol error, and the
        // connection survives it too
        writer.write_all(b"register\ntask\tA\xff\n.\n").unwrap();
        let frame = reader.read_frame().unwrap().unwrap();
        assert!(frame[0].starts_with("err\tprotocol\t"), "{frame:?}");
        // so is one in a pipelined write; the register behind it, its
        // payload CRLF-ended, decodes and registers
        writer
            .write_all(b"register\ntask\tA\xff\n.\nregister\r\ntask\tA\r\ntask\tB\n.\r\n")
            .unwrap();
        let frame = reader.read_frame().unwrap().unwrap();
        assert!(frame[0].starts_with("err\tprotocol\t"), "{frame:?}");
        let frame = reader.read_frame().unwrap().unwrap();
        assert!(frame[0].starts_with("ok\tregistered\t"), "{frame:?}");
        // there is no `batch` verb: pipelining is the one way to send many
        // requests, so a batch frame is an unknown verb like any other
        writer.write_all(b"batch\t1\nreq\t1\nstats\n.\n").unwrap();
        let frame = reader.read_frame().unwrap().unwrap();
        assert!(frame[0].starts_with("err\tprotocol\t"), "{frame:?}");
        assert!(frame[0].contains("unknown verb 'batch'"), "{frame:?}");
        send(&mut writer, &Request::Stats);
        let frame = reader.read_frame().unwrap().unwrap();
        assert!(frame[0].starts_with("ok\tstats"));
        // shutdown must not hang even though this client keeps its
        // connection open (reader still holds a cloned socket)
        server.shutdown();
    }

    #[test]
    fn pipelined_frames_are_answered_in_order() {
        let server = local_server();
        let (mut reader, mut writer) = connect(&server);
        // one write carrying three frames (one of them malformed) — the
        // responses must come back in request order
        writer
            .write_all(b"stats\n.\nfrobnicate\n.\nheal\n.\n")
            .unwrap();
        let first = reader.read_frame().unwrap().unwrap();
        assert!(first[0].starts_with("ok\tstats"));
        let second = reader.read_frame().unwrap().unwrap();
        assert!(second[0].starts_with("err\t"));
        let third = reader.read_frame().unwrap().unwrap();
        assert_eq!(third[0], "ok\thealed\t0\t0");
        server.shutdown();
    }

    #[test]
    fn a_half_closed_client_still_gets_its_answers() {
        let server = local_server();
        let spec = wolves_repo::layered_workflow(&wolves_repo::LayeredConfig::sized(2000), 7);
        let id = server.store().register(spec, None);
        let export = server.store().export(id).unwrap();
        // the exports' answers dwarf the socket buffers, so the server is
        // still writing them long after it read the end of the stream
        let copies = (32 << 20) / export.len() + 1;
        let mut requests = b"stats\n.\nheal\n.\n".to_vec();
        for _ in 0..copies {
            send(&mut requests, &Request::Export { workflow: id });
        }
        let (mut reader, writer) = connect(&server);
        (&writer).write_all(&requests).unwrap();
        writer.shutdown(std::net::Shutdown::Write).unwrap();
        let first = reader.read_frame().unwrap().unwrap();
        assert!(first[0].starts_with("ok\tstats"));
        let second = reader.read_frame().unwrap().unwrap();
        assert_eq!(second[0], "ok\thealed\t0\t0");
        let expected = Response::Exported(export).to_lines();
        for copy in 0..copies {
            let frame = reader.read_frame().unwrap().expect("every answer");
            assert!(frame == expected, "export {copy} of {copies} differs");
        }
        // then the server closes its side too
        assert!(reader.read_frame().unwrap().is_none());
        server.shutdown();
    }

    #[test]
    fn an_endless_line_drops_only_its_own_connection() {
        let server = local_server();
        let (mut reader, mut writer) = connect(&server);
        // the server stops reading at the frame bound and hangs up, so the
        // tail of this write may fail
        let _ = writer.write_all(&vec![b'x'; MAX_FRAME_BYTES + (1 << 20)]);
        assert!(!matches!(reader.read_frame(), Ok(Some(_))));
        let (mut reader, mut writer) = connect(&server);
        send(&mut writer, &Request::Stats);
        let frame = reader.read_frame().unwrap().unwrap();
        assert!(frame[0].starts_with("ok\tstats"));
        server.shutdown();
    }

    #[test]
    fn shutdown_request_stops_the_server() {
        let server = local_server();
        let addr = server.local_addr();
        let (mut reader, mut writer) = connect(&server);
        send(&mut writer, &Request::Shutdown);
        let frame = reader.read_frame().unwrap().unwrap();
        assert_eq!(frame[0], "ok\tshutdown");
        server.join();
        // the port is released: a fresh bind to the same address succeeds
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok());
    }
}
