//! The server half of the deployment: frozen task heads shared by a pool of
//! worker threads behind a bounded request queue with adaptive
//! micro-batching.
//!
//! An [`InferenceServer`] holds the task heads in an `Arc` — they are frozen
//! at [`InferenceServer::start`] and only ever run through the immutable
//! [`Layer::infer`] path, so [`ServerConfig::workers`] threads serve from
//! the *same* head instances with no copies and no locks around the model.
//! Requests enter through one bounded queue (backpressure: a request that
//! finds it full is shed with a typed `Overloaded` error, never blocked);
//! whichever worker is idle steals the next request off the queue, drains
//! up to [`ServerConfig::max_batch`] more that are already pending,
//! coalesces the decoded `Z_b` tensors that share a feature shape
//! into one batched forward pass per head, then splits the outputs back out
//! per request. Under light load a request is served alone (no added
//! latency); under bursts each head runs once per micro-batch instead of
//! once per request, and independent micro-batches run on different cores
//! concurrently. Metrics are sharded per worker ([`crate::metrics`]): each
//! worker records into its own lock-free shard, so the request path takes
//! no global lock at all.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mtlsplit_nn::{InferPlan, Layer};
use mtlsplit_obs as obs;
use mtlsplit_split::{Precision, TensorCodec, WirePayload};
use mtlsplit_tensor::{Parallelism, Tensor};

use crate::error::{Result, ServeError};
use crate::frame::{ErrorCode, Frame, OpCode, DEFAULT_MAX_BODY_BYTES, HELLO_VERSION};
use crate::metrics::{MetricsRecorder, ServeMetrics, WorkerShard};
use crate::mux::{Completion, ConnToken};
use crate::readiness::WakeHandle;
use crate::wire::{
    decode_hello, encode_metrics, encode_response, encode_split_assignment, SplitAssignment,
};

/// One split depth a server can serve: the backbone suffix (`tail`) it must
/// run before its heads, plus the stage the matching edge prefix cuts at.
/// `tail: None` is the classic pre-head split — the client runs the whole
/// backbone and the server only runs heads.
pub struct SplitVariant {
    /// Backbone stage index the edge cuts at (indexes `Backbone::stages()`).
    pub stage: u8,
    /// Stage label, echoed in `HelloAck` and metrics.
    pub label: String,
    /// The backbone suffix `[stage boundary, end)`, or `None` at the
    /// deepest split.
    pub tail: Option<Box<dyn Layer>>,
}

impl SplitVariant {
    /// The classic deepest split: no tail on the server.
    pub fn default_split(stage: u8, label: impl Into<String>) -> Self {
        Self {
            stage,
            label: label.into(),
            tail: None,
        }
    }

    /// A mid-backbone split served through the given tail.
    pub fn with_tail(stage: u8, label: impl Into<String>, tail: Box<dyn Layer>) -> Self {
        Self {
            stage,
            label: label.into(),
            tail: Some(tail),
        }
    }
}

impl std::fmt::Debug for SplitVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SplitVariant")
            .field("stage", &self.stage)
            .field("label", &self.label)
            .field("has_tail", &self.tail.is_some())
            .finish()
    }
}

/// One negotiation rule: clients announcing `device_class` are assigned the
/// variant cutting at `stage`. Produced by the autotuner's deployment
/// profile; consumed by [`InferenceServer::start_with_splits`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitRule {
    /// Device class name matched against the `Hello` body.
    pub device_class: String,
    /// Stage assigned to that class; must name one of the server's variants.
    pub stage: u8,
}

/// Per-connection negotiation state: which split variant the connection's
/// infer requests are decoded under. Fresh connections start at the default
/// variant (index 0) until a `Hello` reassigns them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionState {
    variant: u8,
}

impl SessionState {
    /// The variant index currently assigned to this session.
    pub fn variant(&self) -> u8 {
        self.variant
    }
}

/// Configuration of an [`InferenceServer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConfig {
    /// Maximum number of pending requests coalesced into one forward pass.
    pub max_batch: usize,
    /// Capacity of the bounded request queue; an infer request arriving
    /// when it is full is shed with a typed `Overloaded` error.
    pub queue_depth: usize,
    /// Maximum accepted frame body, guarding against corrupt length prefixes.
    pub max_body_bytes: usize,
    /// Wire precision of response payloads. `Float32` keeps server outputs
    /// bit-exact with a monolithic forward pass.
    pub response_precision: Precision,
    /// Number of worker threads serving the shared heads concurrently.
    ///
    /// Every worker runs the same `Arc`-shared frozen heads through
    /// [`Layer::infer`], so outputs are identical whatever the worker count;
    /// more workers only add throughput on multi-core hosts. Defaults to
    /// [`ServerConfig::default_workers`] — one worker per available core,
    /// clamped to [`MAX_DEFAULT_WORKERS`].
    pub workers: usize,
    /// Thread budget each worker installs for its own compute kernels.
    ///
    /// Defaults to [`Parallelism::single`]: the worker pool already claims
    /// one thread per core, so letting every worker fan its GEMMs out again
    /// would oversubscribe the machine. Raise it for servers that run few
    /// workers over large heads. Kernel results are bit-identical whatever
    /// the value.
    pub parallelism: Parallelism,
    /// How long the mux keeps an idle connection that sends nothing before
    /// evicting it (typed `Error { code: Evicted }` frame, then sever).
    /// `None` waits forever — one stalled peer then holds its connection
    /// slot for good, so the default keeps a 30 s bound.
    pub client_read_timeout: Option<Duration>,
}

/// Upper bound on the default worker count; explicit
/// [`ServerConfig::with_workers`] settings may exceed it.
pub const MAX_DEFAULT_WORKERS: usize = 8;

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_batch: 8,
            queue_depth: 256,
            max_body_bytes: DEFAULT_MAX_BODY_BYTES,
            response_precision: Precision::Float32,
            workers: Self::default_workers(),
            parallelism: Parallelism::single(),
            client_read_timeout: Some(Duration::from_secs(30)),
        }
    }
}

impl ServerConfig {
    /// The default worker count: `available_parallelism`, clamped to
    /// `1..=`[`MAX_DEFAULT_WORKERS`].
    pub fn default_workers() -> usize {
        Parallelism::auto().resolve().clamp(1, MAX_DEFAULT_WORKERS)
    }

    /// Returns this configuration with the given batching limit.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Returns this configuration with the given worker-thread count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Returns this configuration with the given per-worker kernel
    /// parallelism.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Returns this configuration with the given slow-client read timeout
    /// (`None` disables eviction).
    pub fn with_client_read_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.client_read_timeout = timeout;
        self
    }
}

/// Requests that share a split variant and per-sample feature shape, keyed
/// by (variant, shape): only payloads cut at the same depth may be stacked
/// into one forward pass.
type ShapeGroup = (u8, Vec<usize>, Vec<(Request, Tensor)>);

/// Where a served request's outcome goes once a worker has it.
pub(crate) enum Responder {
    /// An in-process caller ([`InferenceServer::process_on`]) waiting on a
    /// rendezvous channel for its admitted request.
    Channel(Sender<std::result::Result<Vec<WirePayload>, String>>),
    /// A connection owned by the non-blocking mux: the worker encodes the
    /// response frame itself and hands the wire bytes back to the poller
    /// thread, waking it so the write happens this tick, not next.
    Frame {
        /// Which mux connection the response belongs to (generation-tagged,
        /// so a response for a dead connection is dropped, never misrouted).
        conn: ConnToken,
        /// The request id the response frame must echo.
        request_id: u64,
        /// The mux's completion queue.
        completions: Sender<Completion>,
        /// Self-pipe into the mux's poll loop.
        waker: Arc<WakeHandle>,
    },
}

impl Responder {
    /// Delivers the outcome. For frame responders this encodes the full
    /// response (or typed `App` error) frame on the worker thread — the
    /// poller only ever copies ready bytes into a socket.
    fn respond(self, result: std::result::Result<Vec<WirePayload>, String>) {
        match self {
            Responder::Channel(tx) => {
                let _ = tx.send(result);
            }
            Responder::Frame {
                conn,
                request_id,
                completions,
                waker,
            } => {
                let frame = match result {
                    Ok(outputs) => {
                        Frame::new(OpCode::InferResponse, request_id, encode_response(&outputs))
                    }
                    Err(message) => Frame::error_coded(request_id, ErrorCode::App, &message),
                };
                if completions
                    .send(Completion {
                        conn,
                        bytes: frame.encode(),
                    })
                    .is_ok()
                {
                    waker.wake();
                }
            }
        }
    }
}

/// One queued inference request.
struct Request {
    payload: WirePayload,
    variant: u8,
    enqueued: Instant,
    responder: Responder,
}

/// The server half of an MTL-Split deployment: frozen task heads plus the
/// worker pool that drives them.
///
/// The server is transport-agnostic: [`InferenceServer::process_on`] maps
/// one request [`Frame`] to one response [`Frame`]. The in-process
/// [`crate::LoopbackTransport`] calls it for every frame and the
/// [`crate::MuxServer`] for every frame but infer requests, which it submits
/// without waiting. Both admit infer work through the same non-blocking
/// submit under the same shed rule, so a simulated deployment and a socket
/// deployment queue, batch and shed identically.
pub struct InferenceServer {
    tx: Mutex<Option<SyncSender<Request>>>,
    /// Requests submitted but not yet drained by a worker — the queue
    /// depth admission control reads without touching the channel.
    pending: Arc<AtomicUsize>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    heads: Arc<Vec<Box<dyn Layer>>>,
    /// Split depths this server can serve; empty means the classic
    /// fixed-split server (implicit variant 0, no tail).
    variants: Arc<Vec<SplitVariant>>,
    /// Device class → variant index, resolved from [`SplitRule`]s at start.
    rules: Vec<(String, u8)>,
    metrics: Arc<MetricsRecorder>,
    config: ServerConfig,
}

impl std::fmt::Debug for InferenceServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferenceServer")
            .field("config", &self.config)
            .finish()
    }
}

impl InferenceServer {
    /// Starts a server over the given task heads.
    ///
    /// The heads are frozen into an `Arc` shared by
    /// [`ServerConfig::workers`] worker threads; they run exclusively
    /// through the immutable [`Layer::infer`] path.
    ///
    /// # Panics
    ///
    /// Panics if more than 255 heads are supplied — the wire protocol's
    /// response body carries the task count in one byte.
    pub fn start(heads: Vec<Box<dyn Layer>>, config: ServerConfig) -> Self {
        Self::start_with_splits(heads, Vec::new(), Vec::new(), config)
    }

    /// Starts a server that can serve several split depths.
    ///
    /// `variants[0]` is the default split every un-negotiated connection
    /// uses; each [`SplitRule`] maps a client device class to the variant
    /// cutting at the rule's stage. Requests carrying a variant with a tail
    /// run `tail → heads`; tail-less variants run the heads directly, so
    /// `start` is exactly `start_with_splits(heads, vec![], vec![], config)`.
    ///
    /// # Panics
    ///
    /// Panics if more than 255 heads or variants are supplied (the wire
    /// protocol carries both counts in one byte), or if a rule names a stage
    /// no variant serves.
    pub fn start_with_splits(
        heads: Vec<Box<dyn Layer>>,
        variants: Vec<SplitVariant>,
        rules: Vec<SplitRule>,
        config: ServerConfig,
    ) -> Self {
        assert!(
            heads.len() <= u8::MAX as usize,
            "the wire protocol supports at most 255 task heads, got {}",
            heads.len()
        );
        assert!(
            variants.len() <= u8::MAX as usize,
            "the wire protocol supports at most 255 split variants, got {}",
            variants.len()
        );
        let rules: Vec<(String, u8)> = rules
            .into_iter()
            .map(|rule| {
                let index = variants
                    .iter()
                    .position(|v| v.stage == rule.stage)
                    .unwrap_or_else(|| {
                        panic!(
                            "split rule for {:?} names stage {} but no variant serves it",
                            rule.device_class, rule.stage
                        )
                    });
                (rule.device_class, index as u8)
            })
            .collect();
        let (tx, rx) = mpsc::sync_channel::<Request>(config.queue_depth.max(1));
        let heads = Arc::new(heads);
        let variants = Arc::new(variants);
        // One lock-free metric shard per worker plus the misc shard for
        // the front-ends; the pool size is fixed at construction. Each
        // shard carries one request counter per split variant.
        let split_labels: Vec<(u8, String)> = variants
            .iter()
            .map(|v| (v.stage, v.label.clone()))
            .collect();
        let metrics = Arc::new(MetricsRecorder::with_splits(
            config.workers.max(1),
            split_labels,
        ));
        let max_batch = config.max_batch.max(1);
        let response_precision = config.response_precision;
        let worker_parallelism = config.parallelism;
        let pending = Arc::new(AtomicUsize::new(0));
        // All workers steal off one shared receiver: whichever worker is
        // idle takes the lock, grabs up to `max_batch` pending requests, and
        // releases the lock before running the heads.
        let shared_rx = Arc::new(Mutex::new(rx));
        let workers = (0..config.workers.max(1))
            .map(|index| {
                let worker_rx = Arc::clone(&shared_rx);
                let worker_heads = Arc::clone(&heads);
                let worker_variants = Arc::clone(&variants);
                let worker_metrics = Arc::clone(&metrics);
                let worker_pending = Arc::clone(&pending);
                std::thread::Builder::new()
                    .name(format!("mtlsplit-serve-worker-{index}"))
                    .spawn(move || {
                        // Pin this worker's kernel thread budget; the pool
                        // itself is the parallelism layer by default.
                        worker_parallelism.make_current();
                        worker_loop(
                            &worker_rx,
                            &worker_heads,
                            &worker_variants,
                            max_batch,
                            response_precision,
                            worker_metrics.shard(index),
                            &worker_pending,
                        )
                    })
                    .expect("spawn server worker thread")
            })
            .collect();
        Self {
            tx: Mutex::new(Some(tx)),
            pending,
            workers: Mutex::new(workers),
            heads,
            variants,
            rules,
            metrics,
            config,
        }
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Number of task heads being served.
    pub fn head_count(&self) -> usize {
        self.heads.len()
    }

    /// Number of split variants this server can serve. A classic fixed-split
    /// server reports 1 (the implicit default variant).
    pub fn variant_count(&self) -> usize {
        self.variants.len().max(1)
    }

    /// The split assignment a session on `variant` is served under.
    fn assignment_for(&self, variant: u8) -> SplitAssignment {
        match self.variants.get(variant as usize) {
            Some(v) => SplitAssignment {
                stage: v.stage,
                label: v.label.clone(),
            },
            None => SplitAssignment {
                stage: 0,
                label: "default".to_string(),
            },
        }
    }

    /// Resolves a client's announced device class to a variant index.
    fn variant_for_class(&self, device_class: &str) -> u8 {
        self.rules
            .iter()
            .find(|(class, _)| class == device_class)
            .map(|&(_, index)| index)
            .unwrap_or(0)
    }

    /// A point-in-time snapshot of the serving metrics.
    pub fn metrics(&self) -> ServeMetrics {
        // Shards are relaxed atomics: the merge runs while the workers keep
        // recording, no lock taken on either side.
        self.metrics.snapshot()
    }

    /// Maps one request frame to one response frame under a default
    /// (un-negotiated) session — the classic stateless entry point, serving
    /// every infer request at the default split.
    pub fn process(&self, frame: &Frame) -> Frame {
        self.process_on(frame, &mut SessionState::default())
    }

    /// Maps one request frame to one response frame under a per-connection
    /// session.
    ///
    /// This is the single entry point shared by every transport. It never
    /// fails: protocol or inference problems come back as [`OpCode::Error`]
    /// frames carrying a message, mirroring what a remote client would see.
    /// A `Hello` frame renegotiates `session`'s split variant; subsequent
    /// infer requests on the session are decoded at that depth.
    ///
    /// An infer request is admitted under the same rule the mux applies: a
    /// full queue answers a typed [`ErrorCode::Overloaded`] frame at once,
    /// counted in [`ServeMetrics::shed`]. An admitted request waits for its
    /// worker's answer.
    pub fn process_on(&self, frame: &Frame, session: &mut SessionState) -> Frame {
        match frame.op {
            OpCode::Ping => Frame::new(OpCode::Pong, frame.request_id, Vec::new()),
            OpCode::InferRequest => self.process_infer(frame, session.variant),
            OpCode::MetricsRequest => Frame::new(
                OpCode::MetricsResponse,
                frame.request_id,
                encode_metrics(&self.metrics()),
            ),
            OpCode::Hello => self.process_hello(frame, session),
            other => {
                self.metrics.misc().record_error();
                Frame::error_coded(
                    frame.request_id,
                    ErrorCode::Protocol,
                    &format!("server cannot handle a {other:?} frame"),
                )
            }
        }
    }

    /// Negotiates the session's split from a client `Hello`.
    ///
    /// A current-version client announces its device class and is assigned
    /// the variant the server's rules pick for it. An older-version client
    /// (or an undecodable hello body) falls back to the default variant —
    /// negotiation degrades, the connection keeps working.
    fn process_hello(&self, frame: &Frame, session: &mut SessionState) -> Frame {
        let variant = if frame.version < HELLO_VERSION {
            0
        } else {
            match decode_hello(&frame.body) {
                Ok(hello) => self.variant_for_class(&hello.device_class),
                Err(_) => 0,
            }
        };
        session.variant = variant;
        let assignment = self.assignment_for(variant);
        Frame::new(
            OpCode::HelloAck,
            frame.request_id,
            encode_split_assignment(&assignment),
        )
    }

    fn process_infer(&self, frame: &Frame, variant: u8) -> Frame {
        let payload = match WirePayload::decode(&frame.body) {
            Ok(payload) => payload,
            Err(err) => {
                self.metrics.misc().record_error();
                return Frame::error_coded(frame.request_id, ErrorCode::Protocol, &err.to_string());
            }
        };
        let (tx, rx) = mpsc::channel();
        if let Err(ServeError::QueueFull) =
            self.try_submit(payload, variant, Responder::Channel(tx))
        {
            return self.shed(frame.request_id);
        }
        // A refused submit drops the responder, so `recv` fails at once.
        match rx.recv() {
            Ok(Ok(outputs)) => Frame::new(
                OpCode::InferResponse,
                frame.request_id,
                encode_response(&outputs),
            ),
            Ok(Err(message)) => Frame::error_coded(frame.request_id, ErrorCode::App, &message),
            Err(_) => Frame::error_coded(
                frame.request_id,
                ErrorCode::ShuttingDown,
                "server shutting down",
            ),
        }
    }

    /// Counts one shed infer request and builds its typed `Overloaded`
    /// reply — the answer every front-end gives work the queue cannot take.
    pub(crate) fn shed(&self, request_id: u64) -> Frame {
        self.metrics.misc().record_shed();
        Frame::error_coded(
            request_id,
            ErrorCode::Overloaded,
            "request shed: queue at high water",
        )
    }

    /// Submits one request without ever blocking: a full queue comes back
    /// as [`ServeError::QueueFull`] immediately. This is the only way work
    /// enters the queue — the mux's poller must never sleep on the
    /// workers' backpressure, and [`InferenceServer::process_on`] sheds
    /// under the same rule.
    ///
    /// The sender is cloned out of the mutex per call so no long-lived
    /// clone can keep the worker pool alive past
    /// [`InferenceServer::shutdown`].
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`] when the bounded queue is at capacity,
    /// [`ServeError::ServerUnavailable`] after shutdown.
    pub(crate) fn try_submit(
        &self,
        payload: WirePayload,
        variant: u8,
        responder: Responder,
    ) -> Result<()> {
        let sender = {
            let guard = self.tx.lock().expect("queue lock");
            guard.clone().ok_or(ServeError::ServerUnavailable)?
        };
        let request = Request {
            payload,
            variant,
            enqueued: Instant::now(),
            responder,
        };
        // Count before sending so `pending_depth` can only over-report
        // pressure, never under-report it (and never underflows: workers
        // subtract only what was added before the send succeeded).
        self.pending.fetch_add(1, Ordering::Relaxed);
        sender.try_send(request).map_err(|err| {
            self.pending.fetch_sub(1, Ordering::Relaxed);
            match err {
                TrySendError::Full(_) => ServeError::QueueFull,
                TrySendError::Disconnected(_) => ServeError::ServerUnavailable,
            }
        })
    }

    /// Requests submitted but not yet drained by a worker — what admission
    /// control compares against the high-water mark.
    pub(crate) fn pending_depth(&self) -> usize {
        self.pending.load(Ordering::Relaxed)
    }

    /// The sharded recorder, for front-ends living outside this module.
    pub(crate) fn recorder(&self) -> &MetricsRecorder {
        &self.metrics
    }

    /// Stops accepting requests, drains the queue and joins every worker.
    pub fn shutdown(&self) {
        // Dropping the only sender ends the workers' recv loops.
        self.tx.lock().expect("queue lock").take();
        let workers: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.workers.lock().expect("worker lock"));
        for worker in workers {
            let _ = worker.join();
        }
    }
}

impl Drop for InferenceServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker: steal a batch off the shared queue, serve it, repeat until
/// every sender is gone.
fn worker_loop(
    rx: &Mutex<Receiver<Request>>,
    heads: &[Box<dyn Layer>],
    variants: &[SplitVariant],
    max_batch: usize,
    response_precision: Precision,
    shard: &WorkerShard,
    pending: &AtomicUsize,
) {
    // One inference plan per worker, reused across every request this
    // worker ever serves: after the first request warms its arena, the
    // head forward passes allocate nothing.
    let mut plan = InferPlan::new();
    loop {
        // Hold the receiver lock only while draining the queue, never while
        // running the heads — that is what lets N workers overlap compute.
        let batch = {
            let guard = rx.lock().expect("receiver lock");
            let first = match guard.recv() {
                Ok(request) => request,
                Err(_) => break,
            };
            let mut batch = vec![first];
            while batch.len() < max_batch {
                match guard.try_recv() {
                    Ok(request) => batch.push(request),
                    Err(_) => break,
                }
            }
            batch
        };
        pending.fetch_sub(batch.len(), Ordering::Relaxed);
        serve_batch(heads, variants, batch, response_precision, shard, &mut plan);
    }
}

/// Decodes a drained batch, coalesces compatible payloads, runs the heads
/// and answers every request.
fn serve_batch(
    heads: &[Box<dyn Layer>],
    variants: &[SplitVariant],
    batch: Vec<Request>,
    response_precision: Precision,
    shard: &WorkerShard,
    plan: &mut InferPlan,
) {
    let codec = TensorCodec::default();
    // Queue-wait ends the moment the worker drains the request. This is a
    // histogram-only phase: a span here would start before `decode` opens
    // and end inside it, breaking strict trace nesting.
    for request in &batch {
        shard.record_queue_wait(request.enqueued.elapsed().as_secs_f64());
    }
    // Decode every payload; answer undecodable ones immediately.
    let decode_span = obs::span_dims(
        "decode",
        obs::SpanKind::Serve,
        [batch.len() as u32, 0, 0, 0],
    );
    let decode_start = obs::now_ns();
    let mut decoded: Vec<(Request, Tensor)> = Vec::with_capacity(batch.len());
    for request in batch {
        match codec.decode(&request.payload) {
            Ok(tensor) => decoded.push((request, tensor)),
            Err(err) => {
                shard.record_error();
                shard.record_split_request(request.variant as usize);
                shard.record_request(
                    request.enqueued.elapsed().as_secs_f64(),
                    request.payload.wire_bytes(),
                    0,
                );
                request
                    .responder
                    .respond(Err(format!("bad payload: {err}")));
            }
        }
    }
    shard.record_decode(obs::now_ns() - decode_start);
    drop(decode_span);
    // Coalesce requests whose Z_b share the split variant and per-sample
    // feature shape — different variants run different tails, so they may
    // never stack. A request with a different key (or a rank-<2 tensor)
    // forms its own group, preserving arrival order within each group.
    let mut groups: Vec<ShapeGroup> = Vec::new();
    for (request, tensor) in decoded {
        let key: Vec<usize> = if tensor.rank() >= 2 {
            tensor.dims()[1..].to_vec()
        } else {
            Vec::new()
        };
        let variant = request.variant;
        let batchable = tensor.rank() >= 2;
        match groups
            .iter_mut()
            .find(|(v, k, _)| batchable && *v == variant && !k.is_empty() && *k == key)
        {
            Some((_, _, members)) => members.push((request, tensor)),
            None => groups.push((variant, key, vec![(request, tensor)])),
        }
    }
    for (variant, _, members) in groups {
        let tail = variants
            .get(variant as usize)
            .and_then(|v| v.tail.as_deref());
        serve_group(
            heads,
            tail,
            variant,
            members,
            response_precision,
            shard,
            plan,
        );
    }
}

/// Runs one coalesced inference pass on the worker's planned runtime and
/// distributes the outputs. When the group's variant carries a backbone
/// tail, the stacked features run `tail → heads`; otherwise the heads take
/// the decoded features directly.
fn serve_group(
    heads: &[Box<dyn Layer>],
    tail: Option<&dyn Layer>,
    variant: u8,
    members: Vec<(Request, Tensor)>,
    response_precision: Precision,
    shard: &WorkerShard,
    plan: &mut InferPlan,
) {
    let response_codec = TensorCodec::new(response_precision);
    let rows: Vec<usize> = members
        .iter()
        .map(|(_, t)| t.dims().first().copied().unwrap_or(1))
        .collect();
    let total_rows: usize = rows.iter().sum();
    // Head and tail outputs live outside the fallible closure so their
    // arena buffers are recycled on *every* exit path — a malformed request
    // must not leak buffers out of the worker's arena and quietly
    // re-introduce per-request allocations.
    let mut head_outputs: Vec<Tensor> = Vec::with_capacity(heads.len());
    let mut tail_output: Option<Tensor> = None;
    let outcome = (|| -> std::result::Result<Vec<Vec<WirePayload>>, String> {
        let forward_span = obs::span_dims(
            "forward",
            obs::SpanKind::Serve,
            [
                members.len() as u32,
                heads.len() as u32,
                total_rows as u32,
                variant as u32,
            ],
        );
        let forward_start = obs::now_ns();
        let tensors: Vec<&Tensor> = members.iter().map(|(_, t)| t).collect();
        let stacked;
        let mut input: &Tensor = if tensors.len() == 1 {
            tensors[0]
        } else {
            stacked = Tensor::concat_batch(&tensors).map_err(|e| e.to_string())?;
            &stacked
        };
        // A mid-backbone variant first completes the backbone on the
        // server; the tail output then feeds every head, exactly as the
        // monolithic model would.
        if let Some(tail) = tail {
            tail_output = Some(plan.run(tail, input).map_err(|e| e.to_string())?);
            input = tail_output.as_ref().expect("tail output just stored");
        }
        // One planned inference pass per head over the whole group: every
        // intermediate (and the head output itself) comes from this
        // worker's arena and goes back to it below, so the steady-state
        // compute path performs no heap allocation.
        for head in heads.iter() {
            head_outputs.push(plan.run(head.as_ref(), input).map_err(|e| e.to_string())?);
        }
        shard.record_forward();
        shard.record_forward_time(obs::now_ns() - forward_start);
        drop(forward_span);
        // Split each head's stacked output back into per-request payloads.
        // Single-request groups (the latency-critical light-load regime)
        // encode straight from the arena tensor — no output clone.
        let encode_span = obs::span_dims(
            "encode",
            obs::SpanKind::Serve,
            [members.len() as u32, heads.len() as u32, 0, 0],
        );
        let encode_start = obs::now_ns();
        let mut per_request: Vec<Vec<WirePayload>> = vec![Vec::new(); members.len()];
        let mut offset = 0usize;
        for (index, &request_rows) in rows.iter().enumerate() {
            for output in &head_outputs {
                if members.len() == 1 {
                    per_request[index].push(response_codec.encode(output));
                } else {
                    let slice = output
                        .slice_batch(offset, offset + request_rows)
                        .map_err(|e| e.to_string())?;
                    per_request[index].push(response_codec.encode(&slice));
                }
            }
            offset += request_rows;
        }
        shard.record_encode(obs::now_ns() - encode_start);
        drop(encode_span);
        Ok(per_request)
    })();
    // The responses (if any) are encoded; the output buffers rejoin the
    // arena regardless of the outcome.
    for output in head_outputs {
        plan.recycle(output);
    }
    if let Some(output) = tail_output {
        plan.recycle(output);
    }
    match outcome {
        Ok(per_request) => {
            for ((request, _), outputs) in members.into_iter().zip(per_request) {
                let bytes_out: usize = outputs.iter().map(WirePayload::wire_bytes).sum();
                shard.record_split_request(request.variant as usize);
                shard.record_request(
                    request.enqueued.elapsed().as_secs_f64(),
                    request.payload.wire_bytes(),
                    bytes_out,
                );
                request.responder.respond(Ok(outputs));
            }
        }
        Err(message) => {
            for (request, _) in members {
                shard.record_error();
                shard.record_split_request(request.variant as usize);
                shard.record_request(
                    request.enqueued.elapsed().as_secs_f64(),
                    request.payload.wire_bytes(),
                    0,
                );
                request.responder.respond(Err(message.clone()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_response, decode_split_assignment, encode_hello, HelloRequest};
    use mtlsplit_nn::{Linear, Parameter, Relu, RunMode, Sequential};
    use mtlsplit_tensor::StdRng;
    use std::sync::Condvar;

    fn head(features: usize, classes: usize, rng: &mut StdRng) -> Box<dyn Layer> {
        Box::new(Sequential::new().push(Linear::new(features, classes, rng)))
    }

    fn payload(rows: usize, features: usize, rng: &mut StdRng) -> WirePayload {
        TensorCodec::default().encode(&Tensor::randn(&[rows, features], 0.0, 1.0, rng))
    }

    /// Serves `payload` on `session` through the public frame entry point:
    /// the outputs, or the typed code of the error frame that came back.
    fn serve_on(
        server: &InferenceServer,
        session: &mut SessionState,
        payload: &WirePayload,
    ) -> std::result::Result<Vec<WirePayload>, ErrorCode> {
        let request = Frame::new(OpCode::InferRequest, 1, payload.encode());
        let response = server.process_on(&request, session);
        match response.op {
            OpCode::InferResponse => Ok(decode_response(&response.body).expect("response body")),
            _ => Err(response.error_info().0),
        }
    }

    fn serve(
        server: &InferenceServer,
        payload: &WirePayload,
    ) -> std::result::Result<Vec<WirePayload>, ErrorCode> {
        serve_on(server, &mut SessionState::default(), payload)
    }

    #[test]
    fn serves_one_request_through_the_queue() {
        let mut rng = StdRng::seed_from(1);
        let server = InferenceServer::start(
            vec![head(16, 4, &mut rng), head(16, 3, &mut rng)],
            ServerConfig::default(),
        );
        assert_eq!(server.head_count(), 2);
        assert_eq!(server.variant_count(), 1);
        let outputs = serve(&server, &payload(2, 16, &mut rng)).unwrap();
        assert_eq!(outputs.len(), 2);
        assert_eq!(outputs[0].dims, vec![2, 4]);
        assert_eq!(outputs[1].dims, vec![2, 3]);
        let metrics = server.metrics();
        assert_eq!(metrics.requests, 1);
        assert_eq!(metrics.batches, 1);
    }

    #[test]
    fn batched_outputs_match_individual_forward_passes() {
        let mut rng = StdRng::seed_from(2);
        let reference = Sequential::new().push(Linear::new(8, 5, &mut rng));
        let mut clone_rng = StdRng::seed_from(2);
        let server = InferenceServer::start(
            vec![head(8, 5, &mut clone_rng)],
            ServerConfig::default().with_max_batch(4),
        );
        let codec = TensorCodec::default();
        let inputs: Vec<Tensor> = (0..3)
            .map(|_| Tensor::randn(&[2, 8], 0.0, 1.0, &mut rng))
            .collect();
        // The server head was built from the same seed, so weights agree.
        for input in &inputs {
            let direct = reference.infer(input).unwrap();
            let outputs = serve(&server, &codec.encode(input)).unwrap();
            let served = codec.decode(&outputs[0]).unwrap();
            assert!(served.allclose(&direct, 1e-6));
        }
    }

    #[test]
    fn concurrent_requests_are_coalesced() {
        let mut rng = StdRng::seed_from(3);
        // One worker so every concurrent producer funnels into the same
        // drain — the deterministic way to observe coalescing.
        let server = Arc::new(InferenceServer::start(
            vec![head(8, 2, &mut rng)],
            ServerConfig::default().with_max_batch(32).with_workers(1),
        ));
        let clients: Vec<_> = (0..16)
            .map(|seed| {
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from(100 + seed);
                    let codec = TensorCodec::default();
                    for _ in 0..8 {
                        let z = Tensor::randn(&[1, 8], 0.0, 1.0, &mut rng);
                        let outputs = serve(&server, &codec.encode(&z)).unwrap();
                        assert_eq!(outputs[0].dims, vec![1, 2]);
                    }
                })
            })
            .collect();
        for client in clients {
            client.join().unwrap();
        }
        let metrics = server.metrics();
        assert_eq!(metrics.requests, 128);
        assert_eq!(metrics.errors, 0);
        // With 16 concurrent producers at least some coalescing must happen.
        assert!(
            metrics.batches < metrics.requests,
            "no batching at all: {} batches for {} requests",
            metrics.batches,
            metrics.requests
        );
    }

    #[test]
    fn multi_worker_server_answers_every_request_correctly() {
        // Four workers share one Arc'd head through &self inference; every
        // response must still be exactly the single-model answer.
        let mut rng = StdRng::seed_from(7);
        let reference = Sequential::new().push(Linear::new(8, 3, &mut rng));
        let mut clone_rng = StdRng::seed_from(7);
        let server = Arc::new(InferenceServer::start(
            vec![head(8, 3, &mut clone_rng)],
            ServerConfig::default().with_max_batch(4).with_workers(4),
        ));
        let clients: Vec<_> = (0..8)
            .map(|seed| {
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from(500 + seed);
                    let codec = TensorCodec::default();
                    let mut cases = Vec::new();
                    for _ in 0..16 {
                        let z = Tensor::randn(&[1, 8], 0.0, 1.0, &mut rng);
                        let outputs = serve(&server, &codec.encode(&z)).unwrap();
                        cases.push((z, codec.decode(&outputs[0]).unwrap()));
                    }
                    cases
                })
            })
            .collect();
        for client in clients {
            for (z, served) in client.join().unwrap() {
                let direct = reference.infer(&z).unwrap();
                assert_eq!(served, direct, "multi-worker output diverged");
            }
        }
        let metrics = server.metrics();
        assert_eq!(metrics.requests, 128);
        assert_eq!(metrics.errors, 0);
    }

    #[test]
    fn mismatched_feature_widths_are_not_coalesced_but_still_served() {
        let mut rng = StdRng::seed_from(4);
        // Head expects 8 features; a 7-feature request must fail alone
        // without poisoning the 8-feature requests sharing its drain.
        let server = Arc::new(InferenceServer::start(
            vec![head(8, 2, &mut rng)],
            ServerConfig::default().with_max_batch(8),
        ));
        let good = serve(&server, &payload(1, 8, &mut rng));
        let bad = serve(&server, &payload(1, 7, &mut rng));
        assert!(good.is_ok());
        assert_eq!(bad, Err(ErrorCode::App));
        assert_eq!(server.metrics().errors, 1);
    }

    #[test]
    fn process_maps_protocol_errors_to_error_frames() {
        let mut rng = StdRng::seed_from(5);
        let server = InferenceServer::start(vec![head(4, 2, &mut rng)], ServerConfig::default());
        // Garbage body.
        let garbage = Frame::new(OpCode::InferRequest, 9, vec![1, 2, 3]);
        let response = server.process(&garbage);
        assert_eq!(response.op, OpCode::Error);
        assert_eq!(response.request_id, 9);
        // Wrong direction op code.
        let backwards = Frame::new(OpCode::InferResponse, 10, Vec::new());
        assert_eq!(server.process(&backwards).op, OpCode::Error);
        // Ping still works.
        let pong = server.process(&Frame::new(OpCode::Ping, 11, Vec::new()));
        assert_eq!(pong.op, OpCode::Pong);
    }

    #[test]
    fn default_workers_track_available_parallelism_clamped() {
        let default = ServerConfig::default();
        assert_eq!(default.workers, ServerConfig::default_workers());
        assert!((1..=MAX_DEFAULT_WORKERS).contains(&default.workers));
        assert_eq!(default.parallelism, Parallelism::single());
    }

    #[test]
    fn metrics_record_the_effective_worker_count() {
        let mut rng = StdRng::seed_from(21);
        let server = InferenceServer::start(
            vec![head(4, 2, &mut rng)],
            ServerConfig::default().with_workers(3),
        );
        serve(&server, &payload(1, 4, &mut rng)).unwrap();
        let metrics = server.metrics();
        assert_eq!(metrics.workers, 3);
        assert!(metrics.summary().contains("on 3 workers"));
    }

    /// A backbone two splits of which the server can serve: variant 0 takes
    /// the full backbone output, variant 1 takes the cut after layer 1 and
    /// runs the tail server-side. Every half is built fresh from `seed`, so
    /// all copies carry identical weights.
    fn split_server(seed: u64) -> (Sequential, Sequential, Sequential, InferenceServer) {
        let backbone = |rng: &mut StdRng| {
            Sequential::new()
                .push(Linear::new(8, 6, rng))
                .push(Relu::new())
                .push(Linear::new(6, 6, rng))
        };
        let mut rng = StdRng::seed_from(seed);
        let full = backbone(&mut rng);
        let reference_head = Sequential::new().push(Linear::new(6, 3, &mut rng));
        let mut edge_rng = StdRng::seed_from(seed);
        let mut edge = backbone(&mut edge_rng);
        let _ = edge.split_off(1);
        let mut server_rng = StdRng::seed_from(seed);
        let tail = backbone(&mut server_rng).split_off(1);
        let server = InferenceServer::start_with_splits(
            vec![head(6, 3, &mut server_rng)],
            vec![
                SplitVariant::default_split(2, "gap"),
                SplitVariant::with_tail(1, "stem", Box::new(tail)),
            ],
            vec![SplitRule {
                device_class: "weak-edge".to_string(),
                stage: 1,
            }],
            ServerConfig::default().with_workers(2),
        );
        (full, edge, reference_head, server)
    }

    #[test]
    fn tail_variants_match_the_monolithic_forward_bitwise() {
        let (full, edge, reference_head, server) = split_server(31);
        assert_eq!(server.variant_count(), 2);
        let mut rng = StdRng::seed_from(99);
        let codec = TensorCodec::default();
        for _ in 0..4 {
            let x = Tensor::randn(&[2, 8], 0.0, 1.0, &mut rng);
            let expected = reference_head.infer(&full.infer(&x).unwrap()).unwrap();
            // Variant 0: the client ran the whole backbone.
            let deep = serve(&server, &codec.encode(&full.infer(&x).unwrap())).unwrap();
            assert_eq!(codec.decode(&deep[0]).unwrap(), expected);
            // Variant 1: the client stopped after the stem; the server's
            // tail must complete the backbone to the same bits.
            let z = edge.infer(&x).unwrap();
            let mut stem = SessionState { variant: 1 };
            let shallow = serve_on(&server, &mut stem, &codec.encode(&z)).unwrap();
            assert_eq!(codec.decode(&shallow[0]).unwrap(), expected);
        }
        let per_split = server.metrics().per_split;
        assert_eq!(per_split.len(), 2);
        assert_eq!(per_split[0].requests, 4);
        assert_eq!(per_split[1].requests, 4);
        assert_eq!(per_split[1].stage, 1);
        assert_eq!(per_split[1].label, "stem");
    }

    #[test]
    fn hello_negotiates_the_split_for_the_rest_of_the_session() {
        let (full, edge, reference_head, server) = split_server(32);
        let mut rng = StdRng::seed_from(77);
        let codec = TensorCodec::default();
        let mut session = SessionState::default();
        // Announce a weak edge device: the rules assign the stage-1 variant.
        let hello = encode_hello(&HelloRequest {
            device_class: "weak-edge".to_string(),
            latency_budget_ms: 30.0,
        });
        let ack = server.process_on(&Frame::new(OpCode::Hello, 1, hello), &mut session);
        assert_eq!(ack.op, OpCode::HelloAck);
        let assignment = decode_split_assignment(&ack.body).unwrap();
        assert_eq!(assignment.stage, 1);
        assert_eq!(assignment.label, "stem");
        assert_eq!(session.variant(), 1);
        // Infer requests on this session now ride the negotiated split.
        let x = Tensor::randn(&[1, 8], 0.0, 1.0, &mut rng);
        let z = edge.infer(&x).unwrap();
        let frame = Frame::new(OpCode::InferRequest, 2, codec.encode(&z).encode());
        let response = server.process_on(&frame, &mut session);
        assert_eq!(response.op, OpCode::InferResponse);
        let expected = reference_head.infer(&full.infer(&x).unwrap()).unwrap();
        let outputs = crate::wire::decode_response(&response.body).unwrap();
        assert_eq!(codec.decode(&outputs[0]).unwrap(), expected);
        // An unknown device class falls back to the default variant.
        let mut other = SessionState::default();
        let hello = encode_hello(&HelloRequest {
            device_class: "unheard-of".to_string(),
            latency_budget_ms: 1.0,
        });
        let ack = server.process_on(&Frame::new(OpCode::Hello, 3, hello), &mut other);
        assert_eq!(decode_split_assignment(&ack.body).unwrap().stage, 2);
        assert_eq!(other.variant(), 0);
    }

    #[test]
    fn a_v3_hello_falls_back_to_the_default_split() {
        let (_, _, _, server) = split_server(33);
        let mut session = SessionState {
            variant: 1, // a previous negotiation moved the session off default
        };
        let hello = encode_hello(&HelloRequest {
            device_class: "weak-edge".to_string(),
            latency_budget_ms: 30.0,
        });
        let frame = Frame::with_version(OpCode::Hello, 4, hello, 3);
        let ack = server.process_on(&frame, &mut session);
        assert_eq!(ack.op, OpCode::HelloAck);
        assert_eq!(session.variant(), 0);
        let assignment = decode_split_assignment(&ack.body).unwrap();
        assert_eq!(assignment.stage, 2, "v3 fallback must pick the default");
    }

    #[test]
    fn shutdown_rejects_further_requests() {
        let mut rng = StdRng::seed_from(6);
        let server = InferenceServer::start(
            vec![head(4, 2, &mut rng)],
            ServerConfig::default().with_workers(2),
        );
        server.shutdown();
        assert_eq!(
            serve(&server, &payload(1, 4, &mut rng)),
            Err(ErrorCode::ShuttingDown)
        );
        let response = server.process(&Frame::new(OpCode::InferRequest, 1, Vec::new()));
        assert_eq!(response.op, OpCode::Error);
    }

    /// Releases every [`GatedHead`] sharing it at once.
    #[derive(Default)]
    struct Gate {
        /// `infer` calls that reached the gate.
        entered: AtomicUsize,
        open: Mutex<bool>,
        opened: Condvar,
    }

    impl Gate {
        fn release(&self) {
            *self.open.lock().expect("gate lock") = true;
            self.opened.notify_all();
        }
    }

    /// A head that holds its worker inside `infer` until the test opens the
    /// gate, then answers exactly like the head it wraps.
    struct GatedHead {
        inner: Sequential,
        gate: Arc<Gate>,
    }

    impl Layer for GatedHead {
        fn forward(&mut self, input: &Tensor, mode: RunMode<'_>) -> mtlsplit_nn::Result<Tensor> {
            self.inner.forward(input, mode)
        }

        fn infer(&self, input: &Tensor) -> mtlsplit_nn::Result<Tensor> {
            self.gate.entered.fetch_add(1, Ordering::SeqCst);
            let mut open = self.gate.open.lock().expect("gate lock");
            while !*open {
                open = self.gate.opened.wait(open).expect("gate lock");
            }
            drop(open);
            self.inner.infer(input)
        }

        fn backward(&mut self, grad_output: &Tensor) -> mtlsplit_nn::Result<Tensor> {
            self.inner.backward(grad_output)
        }

        fn parameters_mut(&mut self) -> Vec<&mut Parameter> {
            self.inner.parameters_mut()
        }

        fn parameters(&self) -> Vec<&Parameter> {
            self.inner.parameters()
        }

        fn name(&self) -> &'static str {
            "gated"
        }
    }

    #[test]
    fn a_full_queue_sheds_in_process_requests_and_drops_no_admitted_work() {
        let reference = Sequential::new().push(Linear::new(8, 3, &mut StdRng::seed_from(35)));
        let gate = Arc::new(Gate::default());
        let gated = GatedHead {
            inner: Sequential::new().push(Linear::new(8, 3, &mut StdRng::seed_from(35))),
            gate: Arc::clone(&gate),
        };
        let server = Arc::new(InferenceServer::start(
            vec![Box::new(gated)],
            ServerConfig {
                queue_depth: 1,
                ..ServerConfig::default().with_workers(1)
            },
        ));
        let mut rng = StdRng::seed_from(36);
        let inputs: Vec<Tensor> = (0..3)
            .map(|_| Tensor::randn(&[1, 8], 0.0, 1.0, &mut rng))
            .collect();
        let request = |id: u64, x: &Tensor| {
            Frame::new(
                OpCode::InferRequest,
                id,
                TensorCodec::default().encode(x).encode(),
            )
        };
        let submit = |id: u64, x: &Tensor| {
            let server = Arc::clone(&server);
            let frame = request(id, x);
            std::thread::spawn(move || server.process(&frame))
        };
        // A occupies the only worker; B then fills the one queue slot.
        let a = submit(1, &inputs[0]);
        while gate.entered.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        let b = submit(2, &inputs[1]);
        while server.pending_depth() != 1 {
            std::thread::yield_now();
        }
        let shed = server.process(&request(3, &inputs[2]));
        assert_eq!(shed.op, OpCode::Error);
        assert_eq!(shed.request_id, 3);
        assert_eq!(shed.error_info().0, ErrorCode::Overloaded);
        assert_eq!(server.metrics().shed, 1);
        // Admitted work is never dropped: both answers equal the reference.
        gate.release();
        for (handle, x) in [a, b].into_iter().zip(&inputs) {
            let response = handle.join().expect("client thread");
            assert_eq!(response.op, OpCode::InferResponse);
            let outputs = decode_response(&response.body).unwrap();
            let served = TensorCodec::default().decode(&outputs[0]).unwrap();
            assert_eq!(served, reference.infer(x).unwrap());
        }
        assert_eq!(server.metrics().requests, 2);
    }
}
