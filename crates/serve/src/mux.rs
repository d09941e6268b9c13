//! Non-blocking multiplexed TCP front-end: one poller thread, many
//! connections, zero threads per socket.
//!
//! [`MuxServer`] is the crate's TCP front-end. A single poller thread
//! drives every accepted socket through a readiness loop (the crate's private
//! `readiness` module, a `poll(2)` wrapper with a portable fallback):
//! sockets are non-blocking,
//! each connection owns a small state machine — an incremental
//! [`FrameAssembler`] for partial reads and an outbox buffer for partial
//! writes — and inference work is handed to the shared
//! [`InferenceServer`] worker pool without ever blocking the poller.
//!
//! Three properties fall out of this shape:
//!
//! - **Pipelining.** A client may keep many requests in flight on one
//!   socket; workers complete them in any order and the poller writes each
//!   response frame as it lands (correlated by `request_id`, see the
//!   out-of-order completion rule in [`crate::frame`]).
//! - **Continuous cross-connection batching.** Every readable connection
//!   is drained into the bounded queue on the same tick, so one worker's
//!   next micro-batch coalesces requests from *different* clients instead
//!   of waiting on one client's lonely stream.
//! - **Admission control.** A queue high-water mark answers new infer
//!   requests with a typed [`ErrorCode::Overloaded`] frame *before* any
//!   payload decode, and the accept gate sheds whole connections (typed
//!   goodbye, then close) when the connection budget or the queue is
//!   exhausted. Both paths count into the `shed` metric.
//!
//! Workers finish a request by encoding the response frame and pushing the
//! bytes onto the mux's completion queue, then waking the poller through a
//! self-pipe — the poll tick (10 ms by default) is only a safety net, not
//! the latency floor.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mtlsplit_split::WirePayload;

use crate::error::{Result, ServeError};
use crate::frame::{ErrorCode, Frame, FrameAssembler, OpCode, Received};
use crate::readiness::{wait, Interest, PollEntry, WakeHandle, WakeReader};
use crate::server::{InferenceServer, Responder, SessionState};

/// Identifies one mux connection across threads: the slab index in the low
/// 32 bits, the slot's generation in the high 32. A completion carrying a
/// stale generation (its connection died and the slot was reused) is
/// dropped instead of being written to the wrong client.
pub(crate) type ConnToken = u64;

fn token(index: usize, generation: u32) -> ConnToken {
    ((generation as u64) << 32) | index as u64
}

fn untoken(token: ConnToken) -> (usize, u32) {
    ((token & u32::MAX as u64) as usize, (token >> 32) as u32)
}

/// One finished request travelling from a worker back to the poller: the
/// fully encoded response frame, addressed by connection token.
pub(crate) struct Completion {
    /// Destination connection (generation-tagged).
    pub(crate) conn: ConnToken,
    /// The encoded response frame, ready for the socket.
    pub(crate) bytes: Vec<u8>,
}

/// Configuration of a [`MuxServer`] front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MuxConfig {
    /// Connection budget: the accept gate sheds (typed goodbye, close)
    /// beyond this many live connections.
    pub max_connections: usize,
    /// Queue depth at which new infer requests are answered
    /// `Overloaded` before decode, and new connections are shed at accept.
    /// `None` uses the server's [`crate::ServerConfig::queue_depth`].
    pub queue_high_water: Option<usize>,
    /// Poll tick: the longest the poller sleeps when nothing is ready.
    /// Worker completions wake it early, so this bounds staleness of
    /// timers (eviction, shutdown), not response latency.
    pub tick: Duration,
}

impl Default for MuxConfig {
    fn default() -> Self {
        Self {
            max_connections: 1024,
            queue_high_water: None,
            tick: Duration::from_millis(10),
        }
    }
}

impl MuxConfig {
    /// Returns this configuration with the given connection budget.
    pub fn with_max_connections(mut self, max_connections: usize) -> Self {
        self.max_connections = max_connections.max(1);
        self
    }

    /// Returns this configuration with an explicit queue high-water mark.
    pub fn with_queue_high_water(mut self, high_water: usize) -> Self {
        self.queue_high_water = Some(high_water.max(1));
        self
    }

    /// Returns this configuration with the given poll tick.
    pub fn with_tick(mut self, tick: Duration) -> Self {
        self.tick = tick.max(Duration::from_millis(1));
        self
    }
}

/// The multiplexed TCP front-end for an [`InferenceServer`]: one poller
/// thread serves every connection.
pub struct MuxServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Arc<WakeHandle>,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for MuxServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MuxServer")
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

impl MuxServer {
    /// Serves `server` on `listener` with the default [`MuxConfig`] until
    /// [`MuxServer::stop`] is called.
    ///
    /// # Errors
    ///
    /// Returns an error if the listener cannot be made non-blocking, its
    /// local address cannot be read, or the wake pipe cannot be built.
    pub fn spawn(server: Arc<InferenceServer>, listener: TcpListener) -> Result<Self> {
        Self::spawn_with(server, listener, MuxConfig::default())
    }

    /// Serves `server` on `listener` under an explicit [`MuxConfig`].
    ///
    /// # Errors
    ///
    /// Same as [`MuxServer::spawn`].
    pub fn spawn_with(
        server: Arc<InferenceServer>,
        listener: TcpListener,
        config: MuxConfig,
    ) -> Result<Self> {
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let (wake_handle, wake_reader) = crate::readiness::wake_pair()?;
        let waker = Arc::new(wake_handle);
        let stop = Arc::new(AtomicBool::new(false));
        let (completions_tx, completions_rx) = mpsc::channel();
        let high_water = config
            .queue_high_water
            .unwrap_or(server.config().queue_depth)
            .max(1);
        let mut poller = MuxLoop {
            listener,
            server,
            config,
            high_water,
            stop: Arc::clone(&stop),
            waker: Arc::clone(&waker),
            wake_reader,
            completions_tx,
            completions_rx,
            slots: Vec::new(),
            generations: Vec::new(),
            free: Vec::new(),
            live: 0,
        };
        let thread = std::thread::Builder::new()
            .name("mtlsplit-serve-mux".to_string())
            .spawn(move || poller.run())
            .expect("spawn mux poller thread");
        Ok(Self {
            local_addr,
            stop,
            waker,
            thread: Some(thread),
        })
    }

    /// The address the server is listening on (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting connections, says goodbye to open connections
    /// (typed `Error { code: ShuttingDown }`, request id 0) and joins the
    /// poller thread.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for MuxServer {
    fn drop(&mut self) {
        if self.thread.is_some() {
            self.halt();
        }
    }
}

/// Per-connection state machine: incremental reader, pending writes,
/// session and liveness bookkeeping.
struct Conn {
    stream: TcpStream,
    session: SessionState,
    assembler: FrameAssembler,
    /// Bytes queued for the socket; `sent` of them are already written.
    outbox: Vec<u8>,
    sent: usize,
    /// Requests handed to the worker pool whose responses have not yet
    /// come back through the completion queue.
    in_flight: usize,
    last_read: Instant,
    /// Goodbye queued: stop reading, flush the outbox, then sever.
    closing: bool,
}

impl Conn {
    fn unsent(&self) -> usize {
        self.outbox.len() - self.sent
    }

    fn queue_frame(&mut self, frame: &Frame) {
        self.outbox.extend_from_slice(&frame.encode());
    }
}

/// Per-connection read budget per tick, in bytes: large enough to drain a
/// deep pipeline burst in one pass, small enough that one fast client
/// cannot starve the rest of the poll set.
const READ_BUDGET_PER_TICK: usize = 256 * 1024;

/// Compact the outbox once this many bytes are dead at its front.
const OUTBOX_COMPACT_BYTES: usize = 64 * 1024;

/// How long a stopping mux keeps flushing goodbyes and final responses
/// before severing whatever is left.
const SHUTDOWN_DRAIN: Duration = Duration::from_millis(250);

struct MuxLoop {
    listener: TcpListener,
    server: Arc<InferenceServer>,
    config: MuxConfig,
    high_water: usize,
    stop: Arc<AtomicBool>,
    waker: Arc<WakeHandle>,
    wake_reader: WakeReader,
    completions_tx: Sender<Completion>,
    completions_rx: Receiver<Completion>,
    /// Connection slab; freed slots are reused through `free`.
    slots: Vec<Option<Conn>>,
    /// Bumped on every slot free, so stale [`ConnToken`]s never resolve.
    generations: Vec<u32>,
    free: Vec<usize>,
    live: usize,
}

impl MuxLoop {
    fn run(&mut self) {
        loop {
            if self.stop.load(Ordering::SeqCst) {
                self.shutdown_drain();
                return;
            }
            self.tick();
        }
    }

    /// One pass of the readiness loop.
    fn tick(&mut self) {
        // Entries 0 and 1 are the listener and the wake pipe; the rest map
        // to live slab slots through `indices`.
        let mut entries = vec![
            PollEntry::new(&self.listener, Interest::READ),
            PollEntry::new(&self.wake_reader, Interest::READ),
        ];
        let mut indices = Vec::with_capacity(self.live);
        for (index, slot) in self.slots.iter().enumerate() {
            if let Some(conn) = slot {
                entries.push(PollEntry::new(
                    &conn.stream,
                    Interest {
                        readable: !conn.closing,
                        writable: conn.unsent() > 0,
                    },
                ));
                indices.push(index);
            }
        }
        if wait(&mut entries, self.config.tick).is_err() {
            // A failed poll leaves no readiness info; briefly yield so a
            // persistent failure cannot spin the core, then fall through —
            // completions and accepts are retried below regardless.
            std::thread::sleep(Duration::from_millis(1));
        }
        if entries[1].readable() {
            self.wake_reader.drain();
        }
        self.deliver_completions();
        if entries[0].readable() {
            self.accept_ready();
        }
        for (entry, &index) in entries[2..].iter().zip(&indices) {
            if entry.readable() || entry.hangup() {
                self.read_conn(index);
            }
        }
        self.flush_and_reap(&indices);
        self.evict_idle();
    }

    /// Moves every finished worker response into its connection's outbox.
    fn deliver_completions(&mut self) {
        while let Ok(completion) = self.completions_rx.try_recv() {
            let (index, generation) = untoken(completion.conn);
            if self.generations.get(index).copied() != Some(generation) {
                continue; // the connection died; drop the orphan response
            }
            if let Some(Some(conn)) = self.slots.get_mut(index) {
                conn.in_flight = conn.in_flight.saturating_sub(1);
                if !conn.closing {
                    conn.outbox.extend_from_slice(&completion.bytes);
                }
            }
        }
    }

    /// Accepts until the listener would block, shedding past the budget.
    fn accept_ready(&mut self) {
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(accepted) => accepted,
                Err(err) if err.kind() == ErrorKind::WouldBlock => return,
                Err(err) if err.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            if self.stop.load(Ordering::SeqCst) {
                let _ = stream.shutdown(Shutdown::Both);
                continue;
            }
            if self.live >= self.config.max_connections
                || self.server.pending_depth() >= self.high_water
            {
                // Pre-accept shed: one typed goodbye, then close. The
                // write is effectively non-blocking (fresh socket, empty
                // send buffer) and best-effort either way.
                self.server.recorder().misc().record_shed();
                let goodbye = Frame::error_coded(
                    0,
                    ErrorCode::Overloaded,
                    "connection shed: server at capacity",
                );
                let mut stream = stream;
                let _ = stream.write_all(&goodbye.encode());
                let _ = stream.shutdown(Shutdown::Both);
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                let _ = stream.shutdown(Shutdown::Both);
                continue;
            }
            let _ = stream.set_nodelay(true);
            let conn = Conn {
                stream,
                session: SessionState::default(),
                assembler: FrameAssembler::new(self.server.config().max_body_bytes),
                outbox: Vec::new(),
                sent: 0,
                in_flight: 0,
                last_read: Instant::now(),
                closing: false,
            };
            match self.free.pop() {
                Some(index) => self.slots[index] = Some(conn),
                None => {
                    self.slots.push(Some(conn));
                    self.generations.push(0);
                }
            }
            self.live += 1;
        }
    }

    /// Reads one connection until it would block (bounded per tick) and
    /// dispatches every complete frame the bytes yield.
    fn read_conn(&mut self, index: usize) {
        let mut scratch = [0u8; 64 * 1024];
        let mut taken = 0usize;
        loop {
            let Some(Some(conn)) = self.slots.get_mut(index) else {
                return;
            };
            if conn.closing {
                return;
            }
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    self.sever(index);
                    return;
                }
                Ok(n) => {
                    conn.last_read = Instant::now();
                    conn.assembler.push(&scratch[..n]);
                    taken += n;
                    if !self.dispatch_frames(index) {
                        return; // connection severed mid-parse
                    }
                    if taken >= READ_BUDGET_PER_TICK {
                        return; // fairness bound; the next tick continues
                    }
                }
                Err(err) if err.kind() == ErrorKind::WouldBlock => return,
                Err(err) if err.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.sever(index);
                    return;
                }
            }
        }
    }

    /// Cuts and handles every complete frame buffered on `index`. Returns
    /// `false` when the connection was severed (fatal stream desync).
    fn dispatch_frames(&mut self, index: usize) -> bool {
        loop {
            let Some(Some(conn)) = self.slots.get_mut(index) else {
                return false;
            };
            match conn.assembler.next_frame() {
                Ok(None) => return true,
                Ok(Some(Received::Frame(frame))) => self.handle_frame(index, frame),
                Ok(Some(Received::Rejected { request_id, error })) => {
                    // Recoverable rejections get a typed reply; the stream
                    // lives on.
                    self.server.recorder().misc().record_error();
                    let reply =
                        Frame::error_coded(request_id, ErrorCode::Protocol, &error.to_string());
                    if let Some(Some(conn)) = self.slots.get_mut(index) {
                        conn.queue_frame(&reply);
                    }
                }
                Err(_) => {
                    // Bad magic or an oversized length prefix: the byte
                    // stream cannot be trusted past this point.
                    self.server.recorder().misc().record_error();
                    self.sever(index);
                    return false;
                }
            }
        }
    }

    /// Routes one well-formed frame: infer requests go to the worker pool
    /// (or are shed), everything else is answered synchronously.
    fn handle_frame(&mut self, index: usize, frame: Frame) {
        if frame.op != OpCode::InferRequest {
            let server = Arc::clone(&self.server);
            if let Some(Some(conn)) = self.slots.get_mut(index) {
                let response = server.process_on(&frame, &mut conn.session);
                conn.queue_frame(&response);
            }
            return;
        }
        // Admission control *before* decode: under queue pressure the
        // server spends zero decode work on a request it cannot serve.
        if self.server.pending_depth() >= self.high_water {
            self.shed_request(index, frame.request_id);
            return;
        }
        let payload = match WirePayload::decode(&frame.body) {
            Ok(payload) => payload,
            Err(err) => {
                self.server.recorder().misc().record_error();
                let reply =
                    Frame::error_coded(frame.request_id, ErrorCode::Protocol, &err.to_string());
                if let Some(Some(conn)) = self.slots.get_mut(index) {
                    conn.queue_frame(&reply);
                }
                return;
            }
        };
        let Some(Some(conn)) = self.slots.get_mut(index) else {
            return;
        };
        let responder = Responder::Frame {
            conn: token(index, self.generations[index]),
            request_id: frame.request_id,
            completions: self.completions_tx.clone(),
            waker: Arc::clone(&self.waker),
        };
        match self
            .server
            .try_submit(payload, conn.session.variant(), responder)
        {
            Ok(()) => {
                if let Some(Some(conn)) = self.slots.get_mut(index) {
                    conn.in_flight += 1;
                }
            }
            Err(ServeError::QueueFull) => self.shed_request(index, frame.request_id),
            Err(_) => {
                let reply = Frame::error_coded(
                    frame.request_id,
                    ErrorCode::ShuttingDown,
                    "server shutting down",
                );
                if let Some(Some(conn)) = self.slots.get_mut(index) {
                    conn.queue_frame(&reply);
                }
            }
        }
    }

    /// Answers one infer request with a typed `Overloaded` error and
    /// counts the shed.
    fn shed_request(&mut self, index: usize, request_id: u64) {
        let reply = self.server.shed(request_id);
        if let Some(Some(conn)) = self.slots.get_mut(index) {
            conn.queue_frame(&reply);
        }
    }

    /// Flushes every connection with queued bytes and reaps the ones that
    /// finished closing (or died mid-write).
    fn flush_and_reap(&mut self, indices: &[usize]) {
        for &index in indices {
            let flushed = self.flush_conn(index);
            if flushed {
                if let Some(Some(conn)) = self.slots.get(index) {
                    if conn.closing && conn.unsent() == 0 {
                        self.sever(index);
                    }
                }
            }
        }
    }

    /// Writes until the socket would block. Returns `false` if the
    /// connection died (and was severed).
    fn flush_conn(&mut self, index: usize) -> bool {
        loop {
            let Some(Some(conn)) = self.slots.get_mut(index) else {
                return false;
            };
            if conn.unsent() == 0 {
                if conn.sent > 0 {
                    conn.outbox.clear();
                    conn.sent = 0;
                }
                return true;
            }
            match conn.stream.write(&conn.outbox[conn.sent..]) {
                Ok(0) => {
                    self.sever(index);
                    return false;
                }
                Ok(n) => {
                    conn.sent += n;
                    if conn.sent == conn.outbox.len() {
                        conn.outbox.clear();
                        conn.sent = 0;
                        return true;
                    }
                    if conn.sent >= OUTBOX_COMPACT_BYTES {
                        conn.outbox.drain(..conn.sent);
                        conn.sent = 0;
                    }
                }
                Err(err) if err.kind() == ErrorKind::WouldBlock => return true,
                Err(err) if err.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.sever(index);
                    return false;
                }
            }
        }
    }

    /// Queues a typed `Evicted` goodbye on connections silent past the
    /// server's read timeout (idle only: no request in flight, nothing
    /// left to write them).
    fn evict_idle(&mut self) {
        let Some(timeout) = self.server.config().client_read_timeout else {
            return;
        };
        for index in 0..self.slots.len() {
            let Some(Some(conn)) = self.slots.get_mut(index) else {
                continue;
            };
            if conn.closing
                || conn.in_flight > 0
                || conn.unsent() > 0
                || conn.last_read.elapsed() < timeout
            {
                continue;
            }
            self.server.recorder().misc().record_eviction();
            conn.queue_frame(&Frame::error_coded(
                0,
                ErrorCode::Evicted,
                "evicted: no frame within the server's read timeout",
            ));
            conn.closing = true;
        }
    }

    /// Frees a slot and bumps its generation so in-flight completions for
    /// the dead connection can never reach a future tenant.
    fn sever(&mut self, index: usize) {
        if let Some(slot) = self.slots.get_mut(index) {
            if let Some(conn) = slot.take() {
                let _ = conn.stream.shutdown(Shutdown::Both);
                self.generations[index] = self.generations[index].wrapping_add(1);
                self.free.push(index);
                self.live -= 1;
            }
        }
    }

    /// Announces shutdown on every open connection, gives the flush a
    /// bounded grace window, then severs whatever is left.
    fn shutdown_drain(&mut self) {
        // Deliver responses that already completed, then say goodbye.
        self.deliver_completions();
        let goodbye = Frame::error_coded(0, ErrorCode::ShuttingDown, "server shutting down");
        let indices: Vec<usize> = (0..self.slots.len())
            .filter(|&i| self.slots[i].is_some())
            .collect();
        for &index in &indices {
            if let Some(Some(conn)) = self.slots.get_mut(index) {
                if !conn.closing {
                    conn.queue_frame(&goodbye);
                    conn.closing = true;
                }
            }
        }
        let deadline = Instant::now() + SHUTDOWN_DRAIN;
        while self.live > 0 && Instant::now() < deadline {
            self.flush_and_reap(&indices);
            if self.live == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        for index in indices {
            self.sever(index);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServerConfig;
    use mtlsplit_nn::{Linear, Sequential};
    use mtlsplit_tensor::StdRng;

    fn tiny_server() -> Arc<InferenceServer> {
        let mut rng = StdRng::seed_from(11);
        let head: Box<dyn mtlsplit_nn::Layer> =
            Box::new(Sequential::new().push(Linear::new(8, 3, &mut rng)));
        Arc::new(InferenceServer::start(
            vec![head],
            ServerConfig::default().with_workers(1),
        ))
    }

    #[test]
    fn spawn_ping_stop_round_trip() {
        let server = tiny_server();
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let mux = MuxServer::spawn(Arc::clone(&server), listener).expect("spawn");
        let mut client = TcpStream::connect(mux.local_addr()).expect("connect");
        Frame::new(OpCode::Ping, 9, Vec::new())
            .write_to(&mut client)
            .expect("write ping");
        let pong = Frame::read_from(&mut client, crate::DEFAULT_MAX_BODY_BYTES)
            .expect("read")
            .expect("frame");
        assert_eq!(pong.op, OpCode::Pong);
        assert_eq!(pong.request_id, 9);
        mux.stop();
    }

    #[test]
    fn accept_gate_sheds_past_the_connection_budget() {
        let server = tiny_server();
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let mux = MuxServer::spawn_with(
            Arc::clone(&server),
            listener,
            MuxConfig::default().with_max_connections(1),
        )
        .expect("spawn");
        // First client registers (the ping round trip proves it).
        let mut first = TcpStream::connect(mux.local_addr()).expect("connect");
        Frame::new(OpCode::Ping, 1, Vec::new())
            .write_to(&mut first)
            .expect("write");
        let pong = Frame::read_from(&mut first, crate::DEFAULT_MAX_BODY_BYTES)
            .expect("read")
            .expect("frame");
        assert_eq!(pong.op, OpCode::Pong);
        // Second client is over budget: typed Overloaded goodbye, id 0.
        let mut second = TcpStream::connect(mux.local_addr()).expect("connect");
        second
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let goodbye = Frame::read_from(&mut second, crate::DEFAULT_MAX_BODY_BYTES)
            .expect("read")
            .expect("frame");
        assert_eq!(goodbye.op, OpCode::Error);
        assert_eq!(goodbye.request_id, 0);
        assert_eq!(goodbye.error_info().0, ErrorCode::Overloaded);
        assert!(server.metrics().shed >= 1, "shed counter must move");
        mux.stop();
    }

    #[test]
    fn shutdown_says_goodbye_to_open_connections() {
        let server = tiny_server();
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let mux = MuxServer::spawn(Arc::clone(&server), listener).expect("spawn");
        let mut client = TcpStream::connect(mux.local_addr()).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        // Make sure the connection is registered before stopping.
        Frame::new(OpCode::Ping, 2, Vec::new())
            .write_to(&mut client)
            .expect("write");
        let _ = Frame::read_from(&mut client, crate::DEFAULT_MAX_BODY_BYTES).expect("pong");
        mux.stop();
        let goodbye = Frame::read_from(&mut client, crate::DEFAULT_MAX_BODY_BYTES)
            .expect("read")
            .expect("frame");
        assert_eq!(goodbye.error_info().0, ErrorCode::ShuttingDown);
    }
}
