//! The edge half of the deployment: backbone on-device, heads behind a
//! [`Transport`].
//!
//! Every wire interaction funnels through one retrying core: a request is
//! sent, and any *retryable* failure — a dead socket, a torn or corrupted
//! frame, a server that answered `Overloaded` or said goodbye with
//! `ShuttingDown` — triggers reconnect-and-resend under the client's
//! [`RetryPolicy`]: capped exponential backoff with deterministic jitter,
//! bounded by an optional per-request deadline budget enforced both between
//! attempts and as socket read/write timeouts within one. Resends reuse the
//! original `request_id`, and the server's inference path is pure, so a
//! duplicate delivery can only produce the identical response — resending is
//! idempotent by construction. When a response for an *older* request id
//! arrives (a retry raced its abandoned predecessor), the client
//! drains-and-resyncs: it keeps reading frames, skipping stale ids up to a
//! small bound, instead of poisoning every subsequent call. Non-retryable
//! failures (`App`/`Protocol` server errors, malformed payloads) surface
//! immediately; an exhausted budget surfaces as
//! [`ServeError::DeadlineExceeded`].

use std::time::{Duration, Instant};

use mtlsplit_nn::{InferPlan, Layer};
use mtlsplit_obs as obs;
use mtlsplit_split::{TensorCodec, WirePayload};
use mtlsplit_tensor::{StdRng, Tensor};

use crate::error::{Result, ServeError};
use crate::frame::{ErrorCode, Frame, OpCode};
use crate::metrics::ServeMetrics;
use crate::transport::Transport;
use crate::wire::{
    decode_metrics, decode_response, decode_split_assignment, encode_hello, HelloRequest,
    SplitAssignment,
};

/// Stale responses the drain-and-resync recovery will skip before declaring
/// the stream hopelessly out of sync.
const RESYNC_BOUND: usize = 8;

/// Smallest socket timeout the client will install — `Duration::ZERO` means
/// "no timeout" to the socket API, the opposite of an expiring budget.
const MIN_SOCKET_TIMEOUT: Duration = Duration::from_millis(1);

/// How an [`EdgeClient`] retries failed requests.
///
/// The default policy makes **one** attempt with no deadline — exactly the
/// pre-fault-tolerance behavior. [`RetryPolicy::resilient`] is the
/// batteries-included configuration for lossy links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum request attempts (first try included); clamped to ≥ 1.
    pub max_attempts: u32,
    /// Wall-clock budget for the whole request across all attempts. Also
    /// installed as per-attempt socket read/write timeouts so one stalled
    /// read cannot overshoot the budget. `None` waits forever.
    pub deadline: Option<Duration>,
    /// First retry pause; doubled per retry up to
    /// [`RetryPolicy::max_backoff`].
    pub base_backoff: Duration,
    /// Upper bound of the exponential backoff.
    pub max_backoff: Duration,
    /// Seed of the deterministic jitter applied to every pause (each pause
    /// is scaled by a factor in `[0.5, 1.0)`).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 1,
            deadline: None,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(100),
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy for lossy links: up to 5 attempts under a 2 s budget with
    /// 1 ms → 50 ms jittered exponential backoff.
    pub fn resilient(jitter_seed: u64) -> Self {
        Self {
            max_attempts: 5,
            deadline: Some(Duration::from_secs(2)),
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            jitter_seed,
        }
    }

    /// Returns this policy with the given attempt limit (clamped to ≥ 1).
    pub fn with_max_attempts(mut self, max_attempts: u32) -> Self {
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// Returns this policy with the given per-request deadline budget.
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Returns this policy with the given backoff range.
    pub fn with_backoff(mut self, base: Duration, max: Duration) -> Self {
        self.base_backoff = base;
        self.max_backoff = max;
        self
    }
}

/// Counters of everything the client's retry machinery has done.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClientStats {
    /// Request attempts sent (first tries and resends).
    pub attempts: u64,
    /// Resends after a retryable failure.
    pub retries: u64,
    /// Reconnect attempts after a dead or desynchronized connection.
    pub reconnects: u64,
    /// Stale frames skipped by drain-and-resync.
    pub resyncs: u64,
    /// Requests that exhausted their deadline budget.
    pub deadlines_exhausted: u64,
}

/// Per-request outcomes of one pipelined window, in input order.
///
/// Returned by [`EdgeClient::infer_pipelined`]: each entry is either the
/// decoded per-task outputs for that input or the typed error the server
/// answered for that specific request (e.g. an `Overloaded` shed).
pub type PipelinedOutcomes = Vec<Result<Vec<Tensor>>>;

/// Whether (and how) a failed attempt may be retried.
enum Retryability {
    /// Do not retry: the failure is semantic, not transient.
    Fatal,
    /// Resend on the existing connection (the stream is still in sync).
    Resend,
    /// Reconnect first, then resend.
    Reconnect,
}

/// The edge client: runs the shared backbone locally through its own
/// [`InferPlan`], ships the encoded `Z_b` through a [`Transport`], and
/// decodes the per-task outputs that come back.
///
/// The plan's arena is sized by the first request (there is no eager
/// warm-up); every later edge forward of the same shape reuses its buffers,
/// and `Z_b` rejoins the arena as soon as it is encoded. The planned forward
/// is bit-identical to the allocating [`Layer::infer`] chain.
///
/// See this module's source-level docs for the retry, deadline and resync behavior;
/// all of it is governed by the [`RetryPolicy`] installed via
/// [`EdgeClient::with_retry_policy`] (the default makes a single attempt).
pub struct EdgeClient {
    backbone: Box<dyn Layer>,
    plan: InferPlan,
    codec: TensorCodec,
    transport: Box<dyn Transport>,
    next_request_id: u64,
    policy: RetryPolicy,
    jitter: StdRng,
    stats: ClientStats,
}

impl std::fmt::Debug for EdgeClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeClient")
            .field("codec", &self.codec)
            .field("next_request_id", &self.next_request_id)
            .field("policy", &self.policy)
            .field("stats", &self.stats)
            .finish()
    }
}

impl EdgeClient {
    /// Creates a client from the edge-resident backbone, the uplink codec
    /// and a transport to the server.
    pub fn new(
        backbone: Box<dyn Layer>,
        codec: TensorCodec,
        transport: Box<dyn Transport>,
    ) -> Self {
        let policy = RetryPolicy::default();
        Self {
            backbone,
            plan: InferPlan::new(),
            codec,
            transport,
            next_request_id: 1,
            jitter: StdRng::seed_from(policy.jitter_seed),
            policy,
            stats: ClientStats::default(),
        }
    }

    /// Returns this client with the given retry policy (reseeding the
    /// deterministic backoff jitter from the policy's seed).
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.jitter = StdRng::seed_from(policy.jitter_seed);
        self.policy = policy;
        self
    }

    /// What the retry machinery has done so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// The retry policy in force.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Runs the backbone on `input` through the client's plan and
    /// round-trips the shared representation to the server, returning one
    /// output tensor per task head (in the server's head order).
    ///
    /// # Errors
    ///
    /// Propagates backbone failures, transport failures and server-reported
    /// errors ([`ServeError::Remote`]).
    pub fn infer(&mut self, input: &Tensor) -> Result<Vec<Tensor>> {
        let features = self.backbone_features(input)?;
        let payload = self.codec.encode(&features);
        self.recycle_features(features);
        self.serve_payload(&payload)
    }

    /// Runs just the edge-resident backbone on `input` through the client's
    /// plan, returning the shared representation `Z_b` without shipping it
    /// anywhere. Policy layers use this to compute the features once and
    /// then choose between the remote and the local path.
    ///
    /// The returned tensor belongs to the caller. Its buffer came out of
    /// the plan's arena, so a caller that drops it instead of handing it
    /// back makes the next forward allocate a replacement.
    ///
    /// # Errors
    ///
    /// Propagates backbone failures.
    pub fn backbone_features(&mut self, input: &Tensor) -> Result<Tensor> {
        Ok(self
            .plan
            .run(self.backbone.as_ref(), input)
            .map_err(mtlsplit_split::SplitError::from)?)
    }

    /// Hands a `Z_b` from [`EdgeClient::backbone_features`] back to the
    /// plan's arena once it is no longer needed.
    pub(crate) fn recycle_features(&mut self, features: Tensor) {
        self.plan.recycle(features);
    }

    /// Ships an already-computed shared representation `Z_b` to the server.
    ///
    /// # Errors
    ///
    /// Propagates transport failures and server-reported errors.
    pub fn infer_features(&mut self, features: &Tensor) -> Result<Vec<Tensor>> {
        let payload = self.codec.encode(features);
        self.serve_payload(&payload)
    }

    /// Round-trips an encoded `Z_b` and decodes the per-task outputs.
    fn serve_payload(&mut self, payload: &WirePayload) -> Result<Vec<Tensor>> {
        let outputs = self.roundtrip_payload(payload)?;
        outputs
            .iter()
            .map(|p| self.codec.decode(p).map_err(ServeError::from))
            .collect()
    }

    /// Serves a batch of inputs with up to `max_in_flight` requests
    /// pipelined on the transport's single connection, returning one
    /// outcome per input (in input order, whatever order the server
    /// completed them in — responses are correlated by request id, per the
    /// out-of-order completion rule in [`crate::frame`]).
    ///
    /// Unlike [`EdgeClient::infer`], pipelined mode applies **no retry
    /// machinery**: each request resolves to exactly one outcome, and
    /// server-side rejections (e.g. a typed `Overloaded` shed) come back
    /// as per-request [`ServeError::Remote`] entries instead of aborting
    /// the whole window — callers doing load sweeps can count them.
    ///
    /// # Errors
    ///
    /// A whole-call `Err` means the *connection* failed: the transport
    /// cannot send/receive, the server sent a connection-scoped goodbye
    /// (an error frame with request id 0), or a response matched no
    /// in-flight request.
    pub fn infer_pipelined(
        &mut self,
        inputs: &[Tensor],
        max_in_flight: usize,
    ) -> Result<PipelinedOutcomes> {
        let depth = max_in_flight.max(1);
        let mut frames = Vec::with_capacity(inputs.len());
        for input in inputs {
            let features = self.backbone_features(input)?;
            let payload = self.codec.encode(&features);
            self.recycle_features(features);
            let id = self.take_request_id();
            frames.push((id, Frame::new(OpCode::InferRequest, id, payload.encode())));
        }
        let mut outcomes: Vec<Option<Result<Vec<Tensor>>>> =
            (0..inputs.len()).map(|_| None).collect();
        let mut in_flight: Vec<(u64, usize)> = Vec::with_capacity(depth);
        let mut next = 0usize;
        while next < frames.len() || !in_flight.is_empty() {
            // Fill the window, then block on the next completion.
            while next < frames.len() && in_flight.len() < depth {
                let (id, frame) = &frames[next];
                self.stats.attempts += 1;
                self.transport.send(frame)?;
                in_flight.push((*id, next));
                next += 1;
            }
            let response = self.transport.receive()?;
            match in_flight
                .iter()
                .position(|&(id, _)| id == response.request_id)
            {
                Some(position) => {
                    let (_, index) = in_flight.swap_remove(position);
                    outcomes[index] = Some(self.decode_pipelined_response(&response));
                }
                None if response.op == OpCode::Error && response.request_id == 0 => {
                    // A connection-scoped goodbye (shutdown, eviction,
                    // accept-shed) addresses the connection, not one
                    // request: surface it for the whole call.
                    let (code, message) = response.error_info();
                    return Err(ServeError::Remote { code, message });
                }
                None => {
                    return Err(ServeError::MismatchedResponse {
                        sent: in_flight.first().map(|&(id, _)| id).unwrap_or_default(),
                        received: response.request_id,
                    });
                }
            }
        }
        Ok(outcomes
            .into_iter()
            .map(|outcome| outcome.expect("every in-flight request resolved"))
            .collect())
    }

    /// Decodes one pipelined completion into its per-request outcome.
    fn decode_pipelined_response(&self, response: &Frame) -> Result<Vec<Tensor>> {
        match response.op {
            OpCode::InferResponse => decode_response(&response.body)?
                .iter()
                .map(|p| self.codec.decode(p).map_err(ServeError::from))
                .collect(),
            OpCode::Error => {
                let (code, message) = response.error_info();
                Err(ServeError::Remote { code, message })
            }
            other => Err(ServeError::UnexpectedFrame {
                expected: "an InferResponse frame",
                got: other,
            }),
        }
    }

    /// Sends one encoded payload and returns the raw per-task payloads.
    ///
    /// # Errors
    ///
    /// Propagates transport failures and server-reported errors.
    pub fn roundtrip_payload(&mut self, payload: &WirePayload) -> Result<Vec<WirePayload>> {
        let id = self.take_request_id();
        let frame = Frame::new(OpCode::InferRequest, id, payload.encode());
        let response = self.transact(&frame)?;
        match response.op {
            OpCode::InferResponse => decode_response(&response.body),
            other => Err(ServeError::UnexpectedFrame {
                expected: "an InferResponse frame",
                got: other,
            }),
        }
    }

    /// Negotiates this connection's split point (protocol v4 `Hello`).
    ///
    /// Announces the client's device class and latency budget; the server
    /// answers with the [`SplitAssignment`] every subsequent infer request
    /// on this transport is served under. The caller is responsible for
    /// installing the matching backbone prefix via
    /// [`EdgeClient::set_backbone`] — the assignment says which stage the
    /// edge must cut at.
    ///
    /// # Errors
    ///
    /// Propagates transport failures and server-reported errors; an
    /// unexpected answer becomes [`ServeError::UnexpectedFrame`].
    pub fn hello(&mut self, device_class: &str, latency_budget_ms: f64) -> Result<SplitAssignment> {
        let id = self.take_request_id();
        let body = encode_hello(&HelloRequest {
            device_class: device_class.to_string(),
            latency_budget_ms,
        });
        let response = self.transact(&Frame::new(OpCode::Hello, id, body))?;
        match response.op {
            OpCode::HelloAck => decode_split_assignment(&response.body),
            other => Err(ServeError::UnexpectedFrame {
                expected: "a HelloAck frame",
                got: other,
            }),
        }
    }

    /// Replaces the edge-resident backbone, e.g. with the shallower prefix
    /// a [`EdgeClient::hello`] negotiation assigned. The plan goes with it:
    /// buffers sized for the old prefix are dropped, and the next request
    /// sizes the new plan.
    pub fn set_backbone(&mut self, backbone: Box<dyn Layer>) {
        self.backbone = backbone;
        self.plan = InferPlan::new();
    }

    /// Checks server liveness with a ping round-trip.
    ///
    /// # Errors
    ///
    /// Propagates transport failures; an unexpected answer becomes
    /// [`ServeError::UnexpectedFrame`].
    pub fn ping(&mut self) -> Result<()> {
        let id = self.take_request_id();
        let response = self.transact(&Frame::new(OpCode::Ping, id, Vec::new()))?;
        match response.op {
            OpCode::Pong => Ok(()),
            other => Err(ServeError::UnexpectedFrame {
                expected: "a Pong frame",
                got: other,
            }),
        }
    }

    /// Scrapes a live [`ServeMetrics`] snapshot from the server over the
    /// wire (protocol v3 `MetricsRequest`).
    ///
    /// # Errors
    ///
    /// Propagates transport failures and server-reported errors; an
    /// unexpected answer becomes [`ServeError::UnexpectedFrame`].
    pub fn metrics(&mut self) -> Result<ServeMetrics> {
        let id = self.take_request_id();
        let response = self.transact(&Frame::new(OpCode::MetricsRequest, id, Vec::new()))?;
        match response.op {
            OpCode::MetricsResponse => decode_metrics(&response.body),
            other => Err(ServeError::UnexpectedFrame {
                expected: "a MetricsResponse frame",
                got: other,
            }),
        }
    }

    /// The uplink codec in use.
    pub fn codec(&self) -> TensorCodec {
        self.codec
    }

    fn take_request_id(&mut self) -> u64 {
        let id = self.next_request_id;
        self.next_request_id = self.next_request_id.wrapping_add(1);
        id
    }

    /// The retrying round-trip every endpoint method funnels through.
    ///
    /// Resends `frame` (same bytes, same `request_id`) under the client's
    /// [`RetryPolicy`] until a response for that id arrives, a non-retryable
    /// error surfaces, the attempt limit is hit, or the deadline budget runs
    /// out ([`ServeError::DeadlineExceeded`]). Error frames are converted to
    /// [`ServeError::Remote`] before classification, so a `ShuttingDown`
    /// goodbye or an `Overloaded` pushback is retried while an `App` error
    /// is returned at once.
    fn transact(&mut self, frame: &Frame) -> Result<Frame> {
        let started = Instant::now();
        let max_attempts = self.policy.max_attempts.max(1);
        let mut attempts: u32 = 0;
        let mut backoff = self.policy.base_backoff;
        let mut needs_reconnect = false;
        loop {
            if attempts > 0 {
                let mut pause = self.next_backoff(&mut backoff);
                if let Some(limit) = self.policy.deadline {
                    let elapsed = started.elapsed();
                    if elapsed >= limit {
                        return Err(self.deadline_error(attempts, limit));
                    }
                    pause = pause.min(limit - elapsed);
                }
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
                self.stats.retries += 1;
                obs::metrics::SERVE_RETRIES.add(1);
            }
            if let Some(limit) = self.policy.deadline {
                let elapsed = started.elapsed();
                if elapsed >= limit {
                    return Err(self.deadline_error(attempts, limit));
                }
                // Bound each socket operation by what is left of the budget,
                // so one stalled read cannot overshoot the deadline.
                let per_attempt = (limit - elapsed).max(MIN_SOCKET_TIMEOUT);
                let _ = self
                    .transport
                    .set_timeouts(Some(per_attempt), Some(per_attempt));
            }
            attempts += 1;
            self.stats.attempts += 1;
            let outcome = if needs_reconnect {
                self.stats.reconnects += 1;
                obs::metrics::SERVE_RECONNECTS.add(1);
                match self.transport.reconnect() {
                    Ok(()) => {
                        needs_reconnect = false;
                        self.attempt(frame)
                    }
                    Err(err) => Err(err),
                }
            } else {
                self.attempt(frame)
            };
            let err = match outcome {
                Ok(response) => return Ok(response),
                Err(err) => err,
            };
            match Self::retryability(&err) {
                Retryability::Fatal => return Err(err),
                Retryability::Reconnect => needs_reconnect = true,
                Retryability::Resend => {}
            }
            if attempts >= max_attempts {
                return Err(err);
            }
        }
    }

    /// One send + settle pass, no retries.
    fn attempt(&mut self, frame: &Frame) -> Result<Frame> {
        let response = self.transport.request(frame)?;
        self.settle(frame.request_id, response)
    }

    /// Resolves one received frame against the request id in flight.
    ///
    /// A response for an *older* id is a relic of an abandoned attempt: the
    /// stream is intact, just behind. Rather than poisoning every subsequent
    /// call, the client drains further frames (up to [`RESYNC_BOUND`]) until
    /// the matching response appears. A *newer* id or an exhausted bound
    /// means the stream is hopelessly out of sync —
    /// [`ServeError::MismatchedResponse`], which the retry loop answers with
    /// a reconnect.
    fn settle(&mut self, sent: u64, response: Frame) -> Result<Frame> {
        let mut current = response;
        let mut drained = 0usize;
        loop {
            if current.op == OpCode::Error {
                let (code, message) = current.error_info();
                // An error for our request, or a connection-scoped goodbye
                // (eviction/shutdown frames carry request id 0).
                if current.request_id == sent || current.request_id == 0 {
                    return Err(ServeError::Remote { code, message });
                }
            } else if current.request_id == sent {
                return Ok(current);
            }
            if current.request_id > sent || drained >= RESYNC_BOUND {
                return Err(ServeError::MismatchedResponse {
                    sent,
                    received: current.request_id,
                });
            }
            drained += 1;
            self.stats.resyncs += 1;
            current = self.transport.receive()?;
        }
    }

    /// The next backoff pause: the current backoff scaled by a deterministic
    /// jitter factor in `[0.5, 1.0)`, doubling the stored backoff up to the
    /// policy's cap.
    fn next_backoff(&mut self, backoff: &mut Duration) -> Duration {
        let factor = 0.5 + 0.5 * f64::from(self.jitter.uniform());
        let pause = backoff.mul_f64(factor);
        *backoff = backoff
            .checked_mul(2)
            .unwrap_or(self.policy.max_backoff)
            .min(self.policy.max_backoff);
        pause
    }

    fn deadline_error(&mut self, attempts: u32, limit: Duration) -> ServeError {
        self.stats.deadlines_exhausted += 1;
        obs::metrics::SERVE_DEADLINES_EXHAUSTED.add(1);
        ServeError::DeadlineExceeded {
            attempts,
            budget_ms: limit.as_secs_f64() * 1e3,
        }
    }

    /// Classifies a failed attempt. Transport-level failures and torn or
    /// corrupted frames are transient; whether the connection must be redialed
    /// depends on whether the stream can still be in sync. Semantic errors
    /// (the server understood us and said no) are fatal.
    fn retryability(err: &ServeError) -> Retryability {
        match err {
            // The connection is dead or desynchronized: redial, then resend.
            ServeError::Io(_)
            | ServeError::Truncated { .. }
            | ServeError::BadMagic { .. }
            | ServeError::UnsupportedVersion { .. }
            | ServeError::UnknownOpCode { .. }
            | ServeError::Oversized { .. }
            | ServeError::MismatchedResponse { .. } => Retryability::Reconnect,
            // The frame was fully consumed before failing: still in sync.
            ServeError::ChecksumMismatch { .. } | ServeError::QueueFull => Retryability::Resend,
            ServeError::Remote { code, .. } => match code {
                // The peer is going away or threw us out: this connection is
                // done, but another (or the restarted server) may serve us.
                ErrorCode::ShuttingDown | ErrorCode::Evicted => Retryability::Reconnect,
                // Backpressure: same connection, try again after backoff.
                ErrorCode::Overloaded => Retryability::Resend,
                ErrorCode::App | ErrorCode::Protocol => Retryability::Fatal,
            },
            _ => Retryability::Fatal,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mux::MuxServer;
    use crate::server::{InferenceServer, ServerConfig};
    use crate::transport::{LoopbackTransport, TcpTransport};
    use mtlsplit_nn::{Flatten, Linear, Relu, Sequential};
    use mtlsplit_split::Precision;
    use mtlsplit_tensor::StdRng;
    use std::sync::Arc;

    /// Builds a backbone and two heads twice from one seed: a monolithic
    /// reference copy and a served copy with identical weights.
    fn split_fixture() -> (
        Sequential,
        Vec<Sequential>,
        Arc<InferenceServer>,
        Sequential,
    ) {
        let build = || {
            let mut rng = StdRng::seed_from(11);
            let backbone = Sequential::new()
                .push(Flatten::new())
                .push(Linear::new(3 * 6 * 6, 16, &mut rng))
                .push(Relu::new());
            let heads = vec![
                Sequential::new().push(Linear::new(16, 4, &mut rng)),
                Sequential::new().push(Linear::new(16, 3, &mut rng)),
            ];
            (backbone, heads)
        };
        let (reference_backbone, reference_heads) = build();
        let (served_backbone, served_heads) = build();
        let boxed: Vec<Box<dyn Layer>> = served_heads
            .into_iter()
            .map(|h| Box::new(h) as Box<dyn Layer>)
            .collect();
        let server = Arc::new(InferenceServer::start(boxed, ServerConfig::default()));
        (reference_backbone, reference_heads, server, served_backbone)
    }

    #[test]
    fn loopback_inference_matches_monolithic_forward_exactly() {
        let (ref_backbone, ref_heads, server, served_backbone) = split_fixture();
        let mut client = EdgeClient::new(
            Box::new(served_backbone),
            TensorCodec::new(Precision::Float32),
            Box::new(LoopbackTransport::new(server)),
        );
        let mut rng = StdRng::seed_from(12);
        let x = Tensor::randn(&[4, 3, 6, 6], 0.0, 1.0, &mut rng);
        let served = client.infer(&x).unwrap();
        let features = ref_backbone.infer(&x).unwrap();
        for (head, output) in ref_heads.iter().zip(&served) {
            let direct = head.infer(&features).unwrap();
            assert_eq!(output, &direct, "loopback inference diverged from monolith");
        }
    }

    /// The monolithic forward of the split fixture's reference copy.
    fn monolithic(backbone: &Sequential, heads: &[Sequential], x: &Tensor) -> Vec<Tensor> {
        let features = backbone.infer(x).unwrap();
        heads.iter().map(|h| h.infer(&features).unwrap()).collect()
    }

    #[test]
    fn planned_client_stops_allocating_after_the_first_infer() {
        let (ref_backbone, ref_heads, server, served_backbone) = split_fixture();
        let mut client = EdgeClient::new(
            Box::new(served_backbone),
            TensorCodec::new(Precision::Float32),
            Box::new(LoopbackTransport::new(server)),
        );
        assert_eq!(client.plan.fresh_allocations(), 0, "no eager warm-up");
        let mut rng = StdRng::seed_from(15);
        let inputs: Vec<Tensor> = (0..16)
            .map(|_| Tensor::randn(&[2, 3, 6, 6], 0.0, 1.0, &mut rng))
            .collect();
        client.infer(&inputs[0]).unwrap();
        let warmed = client.plan.fresh_allocations();
        assert!(warmed > 0, "the first infer sizes the plan");
        for x in &inputs {
            let served = client.infer(x).unwrap();
            assert_eq!(served, monolithic(&ref_backbone, &ref_heads, x));
        }
        assert_eq!(
            client.plan.fresh_allocations(),
            warmed,
            "steady-state infer must not take fresh memory"
        );
        let outcomes = client.infer_pipelined(&inputs, 4).unwrap();
        for (x, outcome) in inputs.iter().zip(outcomes) {
            assert_eq!(outcome.unwrap(), monolithic(&ref_backbone, &ref_heads, x));
        }
        assert_eq!(
            client.plan.fresh_allocations(),
            warmed,
            "pipelined edge forwards must not take fresh memory"
        );
    }

    #[test]
    fn quant8_uplink_stays_within_one_quantisation_step() {
        // Property test: for many random feature tensors, the decoded
        // representation the server sees is within one quantisation step of
        // the true Z_b, so head outputs stay close too.
        let (_, _, server, _) = split_fixture();
        let codec = TensorCodec::new(Precision::Quant8);
        let mut rng = StdRng::seed_from(13);
        for case in 0..32 {
            let rows = 1 + rng.below(4);
            let z = Tensor::randn(&[rows, 16], 0.0, 2.0, &mut rng);
            let step = (z.max().unwrap() - z.min().unwrap()) / 255.0 + 1e-6;
            let decoded = codec.decode(&codec.encode(&z)).unwrap();
            assert!(
                decoded.allclose(&z, step),
                "case {case}: quantisation error above one step"
            );
            // The server still serves the quantised payload.
            let mut client = EdgeClient::new(
                Box::new(Sequential::new()),
                codec,
                Box::new(LoopbackTransport::new(Arc::clone(&server))),
            );
            let outputs = client.infer_features(&z).unwrap();
            assert_eq!(outputs.len(), 2);
        }
    }

    #[test]
    fn tcp_round_trip_matches_loopback() {
        let (ref_backbone, ref_heads, server, served_backbone) = split_fixture();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mux = MuxServer::spawn(Arc::clone(&server), listener).unwrap();
        let transport = TcpTransport::connect(mux.local_addr()).unwrap();
        let mut client = EdgeClient::new(
            Box::new(served_backbone),
            TensorCodec::new(Precision::Float32),
            Box::new(transport),
        );
        client.ping().unwrap();
        let mut rng = StdRng::seed_from(14);
        let x = Tensor::randn(&[2, 3, 6, 6], 0.0, 1.0, &mut rng);
        let served = client.infer(&x).unwrap();
        let features = ref_backbone.infer(&x).unwrap();
        for (head, output) in ref_heads.iter().zip(&served) {
            let direct = head.infer(&features).unwrap();
            assert_eq!(output, &direct, "TCP inference diverged from monolith");
        }
        drop(client);
        mux.stop();
    }

    #[test]
    fn tcp_stop_returns_even_with_a_client_still_connected() {
        let (_, _, server, _) = split_fixture();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mux = MuxServer::spawn(Arc::clone(&server), listener).unwrap();
        let transport = TcpTransport::connect(mux.local_addr()).unwrap();
        let mut client = EdgeClient::new(Box::new(Sequential::new()), TensorCodec::default(), {
            Box::new(transport)
        });
        client.ping().unwrap();
        // Stop without dropping the client: the server severs the socket
        // instead of waiting for a disconnect that never comes.
        mux.stop();
        assert!(client.ping().is_err(), "socket must be closed after stop");
    }

    #[test]
    fn metrics_scrape_over_loopback_reflects_served_requests() {
        let (_, _, server, served_backbone) = split_fixture();
        let mut client = EdgeClient::new(
            Box::new(served_backbone),
            TensorCodec::new(Precision::Float32),
            Box::new(LoopbackTransport::new(server)),
        );
        let mut rng = StdRng::seed_from(21);
        let x = Tensor::randn(&[2, 3, 6, 6], 0.0, 1.0, &mut rng);
        for _ in 0..3 {
            client.infer(&x).unwrap();
        }
        let metrics = client.metrics().unwrap();
        assert_eq!(metrics.requests, 3);
        assert_eq!(metrics.errors, 0);
        assert!(metrics.batches >= 1);
        assert!(metrics.bytes_in > 0 && metrics.bytes_out > 0);
        assert_eq!(metrics.forward.count, metrics.batches);
        assert_eq!(metrics.encode.count, metrics.batches);
        assert_eq!(metrics.queue_wait.count, 3);
        assert!(metrics.forward.p95_s >= metrics.forward.p50_s);
    }

    #[test]
    fn metrics_scrape_over_tcp_matches_the_server_snapshot() {
        let (_, _, server, served_backbone) = split_fixture();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mux = MuxServer::spawn(Arc::clone(&server), listener).unwrap();
        let transport = TcpTransport::connect(mux.local_addr()).unwrap();
        let mut client = EdgeClient::new(
            Box::new(served_backbone),
            TensorCodec::new(Precision::Float32),
            Box::new(transport),
        );
        let mut rng = StdRng::seed_from(22);
        let x = Tensor::randn(&[1, 3, 6, 6], 0.0, 1.0, &mut rng);
        client.infer(&x).unwrap();
        let scraped = client.metrics().unwrap();
        let local = server.metrics();
        // Counters are quiescent once the request has completed; wall-clock
        // gauges keep ticking, so compare the stable fields only.
        assert_eq!(scraped.requests, 1);
        assert_eq!(scraped.requests, local.requests);
        assert_eq!(scraped.errors, local.errors);
        assert_eq!(scraped.batches, local.batches);
        assert_eq!(scraped.bytes_in, local.bytes_in);
        assert_eq!(scraped.bytes_out, local.bytes_out);
        assert_eq!(scraped.forward, local.forward);
        assert_eq!(scraped.encode, local.encode);
        assert_eq!(scraped.decode, local.decode);
        assert_eq!(scraped.queue_wait, local.queue_wait);
        drop(client);
        mux.stop();
    }

    /// Builds a split-capable server: variant 0 expects the full backbone
    /// output, variant 1 (assigned to the "constrained" class) expects the
    /// cut before the final activation and finishes the backbone with a
    /// server-side tail. Returns the monolithic reference plus the shallow
    /// edge prefix a negotiated client should install.
    fn negotiated_fixture() -> (
        Sequential,
        Sequential,
        Vec<Sequential>,
        Arc<InferenceServer>,
    ) {
        use crate::server::{SplitRule, SplitVariant};
        let build = || {
            let mut rng = StdRng::seed_from(41);
            let backbone = Sequential::new()
                .push(Flatten::new())
                .push(Linear::new(3 * 6 * 6, 16, &mut rng))
                .push(Relu::new());
            let heads = vec![
                Sequential::new().push(Linear::new(16, 4, &mut rng)),
                Sequential::new().push(Linear::new(16, 3, &mut rng)),
            ];
            (backbone, heads)
        };
        let (reference_backbone, reference_heads) = build();
        let (mut edge_prefix, _) = build();
        let _ = edge_prefix.split_off(2);
        let (server_backbone, server_heads) = build();
        let mut tail_copy = server_backbone;
        let tail = tail_copy.split_off(2);
        let boxed: Vec<Box<dyn Layer>> = server_heads
            .into_iter()
            .map(|h| Box::new(h) as Box<dyn Layer>)
            .collect();
        let server = Arc::new(InferenceServer::start_with_splits(
            boxed,
            vec![
                SplitVariant::default_split(3, "gap"),
                SplitVariant::with_tail(1, "stem", Box::new(tail)),
            ],
            vec![SplitRule {
                device_class: "constrained".to_string(),
                stage: 1,
            }],
            ServerConfig::default(),
        ));
        (reference_backbone, edge_prefix, reference_heads, server)
    }

    #[test]
    fn negotiated_split_over_loopback_is_bitwise_monolithic() {
        let (ref_backbone, edge_prefix, ref_heads, server) = negotiated_fixture();
        let mut client = EdgeClient::new(
            Box::new(Sequential::new()),
            TensorCodec::new(Precision::Float32),
            Box::new(LoopbackTransport::new(server)),
        );
        let assignment = client.hello("constrained", 25.0).unwrap();
        assert_eq!(assignment.stage, 1);
        assert_eq!(assignment.label, "stem");
        client.set_backbone(Box::new(edge_prefix));
        let mut rng = StdRng::seed_from(42);
        let x = Tensor::randn(&[3, 3, 6, 6], 0.0, 1.0, &mut rng);
        let served = client.infer(&x).unwrap();
        let features = ref_backbone.infer(&x).unwrap();
        for (head, output) in ref_heads.iter().zip(&served) {
            let direct = head.infer(&features).unwrap();
            assert_eq!(output, &direct, "negotiated split diverged from monolith");
        }
        let metrics = client.metrics().unwrap();
        let stem = metrics
            .per_split
            .iter()
            .find(|s| s.label == "stem")
            .unwrap();
        assert_eq!(stem.requests, 1);
    }

    #[test]
    fn set_backbone_replaces_the_plan_and_stays_monolithic() {
        let (ref_backbone, edge_prefix, ref_heads, server) = negotiated_fixture();
        let mut client = EdgeClient::new(
            Box::new(Sequential::new()),
            TensorCodec::new(Precision::Float32),
            Box::new(LoopbackTransport::new(server)),
        );
        // Default split with the identity backbone: Z_b is shipped as given,
        // and the plan is sized for it.
        let mut rng = StdRng::seed_from(44);
        let z = Tensor::randn(&[3, 16], 0.0, 1.0, &mut rng);
        let served = client.infer(&z).unwrap();
        let direct: Vec<Tensor> = ref_heads.iter().map(|h| h.infer(&z).unwrap()).collect();
        assert_eq!(served, direct);
        assert!(client.plan.fresh_allocations() > 0);

        assert_eq!(client.hello("constrained", 25.0).unwrap().stage, 1);
        client.set_backbone(Box::new(edge_prefix));
        assert_eq!(
            client.plan.fresh_allocations(),
            0,
            "the old prefix's pool must go with it"
        );
        let mut warmed = None;
        for round in 0..17 {
            let x = Tensor::randn(&[3, 3, 6, 6], 0.0, 1.0, &mut rng);
            let served = client.infer(&x).unwrap();
            assert_eq!(
                served,
                monolithic(&ref_backbone, &ref_heads, &x),
                "round {round}: shallow prefix diverged from monolith"
            );
            let fresh = client.plan.fresh_allocations();
            assert_eq!(*warmed.get_or_insert(fresh), fresh, "round {round}");
        }
    }

    #[test]
    fn negotiated_split_over_tcp_is_bitwise_monolithic() {
        let (ref_backbone, edge_prefix, ref_heads, server) = negotiated_fixture();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mux = MuxServer::spawn(Arc::clone(&server), listener).unwrap();
        let transport = TcpTransport::connect(mux.local_addr()).unwrap();
        let mut client = EdgeClient::new(
            Box::new(edge_prefix),
            TensorCodec::new(Precision::Float32),
            Box::new(transport),
        );
        let assignment = client.hello("constrained", 25.0).unwrap();
        assert_eq!(assignment.stage, 1);
        let mut rng = StdRng::seed_from(43);
        let x = Tensor::randn(&[2, 3, 6, 6], 0.0, 1.0, &mut rng);
        let served = client.infer(&x).unwrap();
        let features = ref_backbone.infer(&x).unwrap();
        for (head, output) in ref_heads.iter().zip(&served) {
            let direct = head.infer(&features).unwrap();
            assert_eq!(output, &direct, "negotiated TCP split diverged");
        }
        drop(client);
        mux.stop();
    }

    #[test]
    fn server_errors_surface_as_remote_errors() {
        let (_, _, server, _) = split_fixture();
        let mut client = EdgeClient::new(
            Box::new(Sequential::new()),
            TensorCodec::default(),
            Box::new(LoopbackTransport::new(server)),
        );
        // 5 features instead of 16: the heads must reject it.
        let bad = Tensor::ones(&[1, 5]);
        assert!(matches!(
            client.infer_features(&bad),
            Err(ServeError::Remote { .. })
        ));
    }

    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A scripted transport: fails the first `failures` requests with a
    /// connection reset, then answers every request with a matching `Pong`.
    struct FlakyTransport {
        failures_left: usize,
        requests: Arc<AtomicUsize>,
        reconnects: Arc<AtomicUsize>,
    }

    impl Transport for FlakyTransport {
        fn request(&mut self, frame: &Frame) -> Result<Frame> {
            self.requests.fetch_add(1, Ordering::SeqCst);
            if self.failures_left > 0 {
                self.failures_left -= 1;
                return Err(ServeError::Io(std::io::Error::new(
                    std::io::ErrorKind::ConnectionReset,
                    "scripted failure",
                )));
            }
            Ok(Frame::new(OpCode::Pong, frame.request_id, Vec::new()))
        }

        fn reconnect(&mut self) -> Result<()> {
            self.reconnects.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }
    }

    fn counted_client(
        failures: usize,
        policy: RetryPolicy,
    ) -> (EdgeClient, Arc<AtomicUsize>, Arc<AtomicUsize>) {
        let requests = Arc::new(AtomicUsize::new(0));
        let reconnects = Arc::new(AtomicUsize::new(0));
        let transport = FlakyTransport {
            failures_left: failures,
            requests: Arc::clone(&requests),
            reconnects: Arc::clone(&reconnects),
        };
        let client = EdgeClient::new(
            Box::new(Sequential::new()),
            TensorCodec::default(),
            Box::new(transport),
        )
        .with_retry_policy(policy);
        (client, requests, reconnects)
    }

    #[test]
    fn retries_reconnect_and_resend_until_success() {
        let policy = RetryPolicy::default()
            .with_max_attempts(5)
            .with_backoff(Duration::from_micros(10), Duration::from_micros(100));
        let (mut client, requests, reconnects) = counted_client(2, policy);
        client.ping().unwrap();
        assert_eq!(requests.load(Ordering::SeqCst), 3);
        assert_eq!(reconnects.load(Ordering::SeqCst), 2);
        assert_eq!(client.stats().retries, 2);
        assert_eq!(client.stats().attempts, 3);
    }

    #[test]
    fn attempt_limit_returns_the_last_error() {
        let policy = RetryPolicy::default()
            .with_max_attempts(3)
            .with_backoff(Duration::from_micros(10), Duration::from_micros(100));
        let (mut client, requests, _) = counted_client(usize::MAX, policy);
        assert!(matches!(client.ping(), Err(ServeError::Io(_))));
        assert_eq!(requests.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn deadline_budget_surfaces_as_a_typed_error() {
        let policy = RetryPolicy::default()
            .with_max_attempts(u32::MAX)
            .with_deadline(Some(Duration::from_millis(25)))
            .with_backoff(Duration::from_millis(2), Duration::from_millis(8));
        let (mut client, _, _) = counted_client(usize::MAX, policy);
        match client.ping() {
            Err(ServeError::DeadlineExceeded {
                attempts,
                budget_ms,
            }) => {
                assert!(attempts >= 1);
                assert!((budget_ms - 25.0).abs() < 1e-9);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(client.stats().deadlines_exhausted, 1);
    }

    /// Answers every request one response *behind* (the previous request's
    /// id), holding the current response for a subsequent `receive` — the
    /// exact stream state a timed-out-and-resent request leaves behind.
    struct LaggedTransport {
        pending: Option<u64>,
    }

    impl Transport for LaggedTransport {
        fn request(&mut self, frame: &Frame) -> Result<Frame> {
            let stale = self.pending.replace(frame.request_id);
            match stale {
                Some(id) => Ok(Frame::new(OpCode::Pong, id, Vec::new())),
                None => Ok(Frame::new(OpCode::Pong, frame.request_id, Vec::new())),
            }
        }

        fn receive(&mut self) -> Result<Frame> {
            let id = self.pending.take().expect("a frame is pending");
            Ok(Frame::new(OpCode::Pong, id, Vec::new()))
        }
    }

    #[test]
    fn stale_responses_are_drained_not_poisonous() {
        let mut client = EdgeClient::new(
            Box::new(Sequential::new()),
            TensorCodec::default(),
            Box::new(LaggedTransport { pending: None }),
        );
        // First call: in sync. The next call sees its stale predecessor
        // first and drains to its own response — which also consumes the
        // pending frame, so calls alternate between in-sync and resync.
        for _ in 0..5 {
            client.ping().unwrap();
        }
        assert_eq!(client.stats().resyncs, 2);
        assert_eq!(client.stats().retries, 0);
    }

    /// Replies with a typed error frame carrying the scripted code.
    struct ErrorTransport {
        code: ErrorCode,
        failures_left: usize,
        requests: Arc<AtomicUsize>,
    }

    impl Transport for ErrorTransport {
        fn request(&mut self, frame: &Frame) -> Result<Frame> {
            self.requests.fetch_add(1, Ordering::SeqCst);
            if self.failures_left > 0 {
                self.failures_left -= 1;
                return Ok(Frame::error_coded(frame.request_id, self.code, "scripted"));
            }
            Ok(Frame::new(OpCode::Pong, frame.request_id, Vec::new()))
        }
    }

    #[test]
    fn app_errors_are_not_retried_but_shutdown_goodbyes_are() {
        let policy = RetryPolicy::default()
            .with_max_attempts(5)
            .with_backoff(Duration::from_micros(10), Duration::from_micros(100));
        let requests = Arc::new(AtomicUsize::new(0));
        let mut client = EdgeClient::new(
            Box::new(Sequential::new()),
            TensorCodec::default(),
            Box::new(ErrorTransport {
                code: ErrorCode::App,
                failures_left: usize::MAX,
                requests: Arc::clone(&requests),
            }),
        )
        .with_retry_policy(policy);
        assert!(matches!(
            client.ping(),
            Err(ServeError::Remote {
                code: ErrorCode::App,
                ..
            })
        ));
        assert_eq!(requests.load(Ordering::SeqCst), 1, "App errors are fatal");

        let requests = Arc::new(AtomicUsize::new(0));
        let mut client = EdgeClient::new(
            Box::new(Sequential::new()),
            TensorCodec::default(),
            Box::new(ErrorTransport {
                code: ErrorCode::ShuttingDown,
                failures_left: 2,
                requests: Arc::clone(&requests),
            }),
        )
        .with_retry_policy(policy);
        client.ping().unwrap();
        assert_eq!(requests.load(Ordering::SeqCst), 3, "goodbyes are retried");
    }
}
