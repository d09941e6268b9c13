//! `mtlsplit-serve`: the deployable edge↔server serving subsystem for
//! MTL-Split.
//!
//! This crate runs the split deployment: an [`EdgeClient`] executes the
//! shared backbone on-device, encodes the compact representation `Z_b` with
//! [`mtlsplit_split::TensorCodec`], and ships it through a pluggable
//! [`Transport`] to an [`InferenceServer`] that owns the task heads,
//! coalesces concurrent requests into batched forward passes and streams the
//! per-task outputs back.
//!
//! The pieces, bottom-up:
//!
//! * [`frame`] — the length-prefixed binary wire protocol. One [`Frame`] =
//!   magic, version, op code, request id, body length, CRC-32, body.
//!   Request bodies carry the exact [`mtlsplit_split::WirePayload`]
//!   encoding, so the simulator's byte accounting and the real socket agree
//!   bit for bit, and the checksum rejects any corrupted frame with a typed
//!   error.
//! * [`Transport`] — one synchronous round-trip. [`TcpTransport`] speaks to
//!   a real socket; [`LoopbackTransport`] calls the server in-process and
//!   charges a [`mtlsplit_split::ChannelModel`] for every frame, keeping
//!   tests and benches hermetic and deterministic.
//! * [`InferenceServer`] — frozen task heads held in an `Arc` and shared by
//!   [`ServerConfig::workers`] worker threads, each running the immutable
//!   `Layer::infer` path; a bounded queue with adaptive micro-batching
//!   feeds them, plus [`ServeMetrics`] (throughput, p50/p95/p99 latency,
//!   wire bytes). [`MuxServer`] is its TCP front-end — one poller thread
//!   drives every connection through a readiness loop with per-connection
//!   pipelining, cross-connection batching and `Overloaded` admission
//!   control.
//! * [`EdgeClient`] — the on-device half. Every request runs under a
//!   [`RetryPolicy`]: optional per-request deadline budget (enforced as
//!   socket timeouts too), reconnect-and-resend with capped exponential
//!   backoff and deterministic jitter, and drain-and-resync recovery from
//!   stale responses.
//! * [`FaultyTransport`] — a seeded fault injector over any [`Transport`]
//!   (drops, delays, corruption, truncation, refused reconnects) driven by a
//!   [`FaultPlan`], so every failure path above is exercised reproducibly.
//! * [`ResilientClient`] — graceful degradation: a circuit breaker over an
//!   [`EdgeClient`] plus a locally held backbone tail and head replicas, so
//!   a request that cannot be served remotely within its budget is answered
//!   edge-locally, bit-identical to the monolithic forward.
//!
//! See the repository's top-level `README.md` for the crate map, an
//! edge↔server architecture sketch and a copy-paste quickstart for the
//! `serve_demo` example, which runs a real client/server round-trip over TCP
//! on localhost.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use mtlsplit_nn::{Layer, Linear, Sequential};
//! use mtlsplit_serve::{EdgeClient, InferenceServer, LoopbackTransport, ServerConfig};
//! use mtlsplit_split::{Precision, TensorCodec};
//! use mtlsplit_tensor::{StdRng, Tensor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = StdRng::seed_from(0);
//! // Server side: one frozen task head served by two worker threads via
//! // &self inference from Arc-shared state.
//! let head: Box<dyn Layer> =
//!     Box::new(Sequential::new().push(Linear::new(16, 4, &mut rng)));
//! let server = Arc::new(InferenceServer::start(
//!     vec![head],
//!     ServerConfig::default().with_workers(2),
//! ));
//!
//! // Edge side: a backbone plus a hermetic in-process transport.
//! let backbone: Box<dyn Layer> =
//!     Box::new(Sequential::new().push(Linear::new(8, 16, &mut rng)));
//! let mut client = EdgeClient::new(
//!     backbone,
//!     TensorCodec::new(Precision::Float32),
//!     Box::new(LoopbackTransport::new(Arc::clone(&server))),
//! );
//!
//! let x = Tensor::randn(&[2, 8], 0.0, 1.0, &mut rng);
//! let outputs = client.infer(&x)?;
//! assert_eq!(outputs[0].dims(), &[2, 4]);
//! println!("{}", server.metrics().summary());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod client;
mod error;
pub mod fault;
pub mod frame;
mod metrics;
pub mod mux;
pub mod policy;
mod readiness;
mod server;
mod transport;
pub mod wire;

pub use client::{ClientStats, EdgeClient, PipelinedOutcomes, RetryPolicy};
pub use error::{Result, ServeError};
pub use fault::{FaultPlan, FaultStats, FaultyTransport};
pub use frame::{
    ErrorCode, Frame, FrameAssembler, OpCode, Received, DEFAULT_MAX_BODY_BYTES, ERROR_CODE_VERSION,
    HEADER_BYTES, HELLO_VERSION, MAGIC, MIN_VERSION, VERSION,
};
pub use metrics::{PhaseStats, ResilienceCounters, ServeMetrics, SplitRequests};
pub use mux::{MuxConfig, MuxServer};
pub use policy::{BreakerConfig, BreakerState, ResilientClient, ResilientStats, Served, ServedVia};
pub use server::{
    InferenceServer, ServerConfig, SessionState, SplitRule, SplitVariant, MAX_DEFAULT_WORKERS,
};
pub use transport::{LoopbackTransport, TcpTransport, Transport};
pub use wire::{HelloRequest, SplitAssignment};
