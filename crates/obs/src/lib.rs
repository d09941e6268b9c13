//! Zero-allocation observability for the MTL-Split workspace.
//!
//! This crate is the dependency-free substrate every other crate
//! instruments itself with: tracing spans, log-linear histograms and
//! lock-free counters, plus a Chrome `trace_event` exporter. It exists so
//! the split-point autotuner and the serving stack can *measure* per-stage
//! latency without compromising the workspace's core invariant — **zero
//! heap allocations on the steady-state hot path**.
//!
//! # The two contracts
//!
//! **Zero allocation when enabled.** Recording a span writes one fixed-size
//! [`SpanRecord`] into a preallocated thread-local ring buffer
//! ([`RING_CAPACITY`] records per thread, oldest overwritten on wrap);
//! recording a histogram value or bumping a counter is a relaxed atomic
//! add into a fixed bucket array. After a thread's first span (which
//! allocates its ring once, during warm-up), the record path performs no
//! heap allocation — machine-checked by the counting allocator in
//! `tests/zero_alloc.rs`, which asserts 0 allocations per planned request
//! and training step with tracing **enabled**.
//!
//! **Single-branch overhead when disabled.** Span recording is off by
//! default and gated on one relaxed [`AtomicBool`]: a span site on the
//! disabled path costs exactly one atomic load and one branch — no clock
//! read, no thread-local access — cheap enough that kernels keep their
//! spans in release builds. (The repo benchmark reports what *enabled*
//! tracing costs as `trace.overhead_pct`.)
//! Counters and histograms are always on (one relaxed `fetch_add` each).
//!
//! # Using it
//!
//! ```
//! use mtlsplit_obs as obs;
//!
//! obs::set_enabled(true);
//! {
//!     let _span = obs::span_dims("my_kernel", obs::SpanKind::Kernel, [64, 64, 8, 0]);
//!     // ... work ...
//! } // span recorded here
//! obs::set_enabled(false);
//!
//! let json = obs::chrome_trace_json(); // open in chrome://tracing
//! obs::validate_chrome_trace(&json).unwrap();
//! assert!(obs::span_stats().iter().any(|s| s.name == "my_kernel"));
//! ```
//!
//! [`AtomicBool`]: std::sync::atomic::AtomicBool

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod chrome;
mod clock;
mod hist;
pub mod metrics;
mod trace;

pub use chrome::{chrome_trace_json, validate_chrome_trace, TraceSummary};
pub use clock::now_ns;
pub use hist::{LogHistogram, MAX_RELATIVE_ERROR, NUM_BUCKETS};
pub use metrics::{counters, Counter, CountersSnapshot, MaxGauge};
pub use trace::{
    enabled, export, layer_profile, reset, set_enabled, span, span_dims, span_stats, LayerProfile,
    Span, SpanKind, SpanRecord, SpanStats, ThreadTrace, RING_CAPACITY,
};
