//! Lock-free global counters for workload accounting.
//!
//! Unlike spans, these are **always on**: each is a single relaxed
//! `AtomicU64` update per event, cheap enough to leave unconditionally in
//! the kernels. They count *work* (FLOPs, bytes, arena traffic), so
//! dividing by span durations yields achieved throughput.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing lock-free counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero (usable in `static` position).
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds `n` (relaxed; wrapping on overflow).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A lock-free gauge tracking the maximum value ever observed.
#[derive(Debug, Default)]
pub struct MaxGauge(AtomicU64);

impl MaxGauge {
    /// Creates a gauge at zero (usable in `static` position).
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Raises the gauge to `value` if it is a new maximum (relaxed).
    #[inline]
    pub fn observe(&self, value: u64) {
        self.0.fetch_max(value, Ordering::Relaxed);
    }

    /// Largest value observed so far.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Multiply-accumulate work done by all GEMM kernels, counted as
/// `2 * m * n * k` FLOPs per call. Convolutions count their lowered
/// GEMM's FLOPs in both directions even where a direct kernel does the
/// work instead (depthwise), so the total tracks the model, not the route.
pub static GEMM_FLOPS: Counter = Counter::new();

/// Number of GEMM kernel invocations. Direct depthwise convolution
/// kernels, forward and backward, are not GEMM calls and are not counted.
pub static GEMM_CALLS: Counter = Counter::new();

/// Bytes materialised into im2col column buffers by the convolution
/// lowering (each element counted once per patch copy, 4 bytes per `f32`).
pub static IM2COL_BYTES: Counter = Counter::new();

/// `TensorArena::take` calls served from the pool (no allocation).
pub static ARENA_HITS: Counter = Counter::new();

/// `TensorArena::take` calls that had to allocate fresh memory.
pub static ARENA_MISSES: Counter = Counter::new();

/// High-water mark of pooled `f32` elements across every arena.
pub static ARENA_HIGH_WATER: MaxGauge = MaxGauge::new();

/// Optimiser steps completed by the trainer.
pub static TRAIN_STEPS: Counter = Counter::new();

/// Serving-client request attempts beyond the first (resends after a
/// retryable failure).
pub static SERVE_RETRIES: Counter = Counter::new();

/// Serving-client reconnect attempts after a dead or desynchronized
/// connection.
pub static SERVE_RECONNECTS: Counter = Counter::new();

/// Requests a resilient client answered edge-locally instead of remotely.
pub static SERVE_FALLBACKS: Counter = Counter::new();

/// Requests that exhausted their deadline budget without a response.
pub static SERVE_DEADLINES_EXHAUSTED: Counter = Counter::new();

/// Circuit-breaker transitions into the open state.
pub static SERVE_BREAKER_TRIPS: Counter = Counter::new();

/// Faults injected by a `FaultyTransport` (drops, delays, corruptions,
/// truncations and refused reconnects combined).
pub static SERVE_FAULTS_INJECTED: Counter = Counter::new();

/// A point-in-time copy of every global workload counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CountersSnapshot {
    /// See [`GEMM_FLOPS`].
    pub gemm_flops: u64,
    /// See [`GEMM_CALLS`].
    pub gemm_calls: u64,
    /// See [`IM2COL_BYTES`].
    pub im2col_bytes: u64,
    /// See [`ARENA_HITS`].
    pub arena_hits: u64,
    /// See [`ARENA_MISSES`].
    pub arena_misses: u64,
    /// See [`ARENA_HIGH_WATER`].
    pub arena_high_water: u64,
    /// See [`TRAIN_STEPS`].
    pub train_steps: u64,
    /// See [`SERVE_RETRIES`].
    pub serve_retries: u64,
    /// See [`SERVE_RECONNECTS`].
    pub serve_reconnects: u64,
    /// See [`SERVE_FALLBACKS`].
    pub serve_fallbacks: u64,
    /// See [`SERVE_DEADLINES_EXHAUSTED`].
    pub serve_deadlines_exhausted: u64,
    /// See [`SERVE_BREAKER_TRIPS`].
    pub serve_breaker_trips: u64,
    /// See [`SERVE_FAULTS_INJECTED`].
    pub serve_faults_injected: u64,
}

/// Reads every global counter at once.
pub fn counters() -> CountersSnapshot {
    CountersSnapshot {
        gemm_flops: GEMM_FLOPS.get(),
        gemm_calls: GEMM_CALLS.get(),
        im2col_bytes: IM2COL_BYTES.get(),
        arena_hits: ARENA_HITS.get(),
        arena_misses: ARENA_MISSES.get(),
        arena_high_water: ARENA_HIGH_WATER.get(),
        train_steps: TRAIN_STEPS.get(),
        serve_retries: SERVE_RETRIES.get(),
        serve_reconnects: SERVE_RECONNECTS.get(),
        serve_fallbacks: SERVE_FALLBACKS.get(),
        serve_deadlines_exhausted: SERVE_DEADLINES_EXHAUSTED.get(),
        serve_breaker_trips: SERVE_BREAKER_TRIPS.get(),
        serve_faults_injected: SERVE_FAULTS_INJECTED.get(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_adds_and_resets() {
        let c = Counter::new();
        c.add(3);
        c.add(4);
        assert_eq!(c.get(), 7);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn max_gauge_keeps_the_maximum() {
        let g = MaxGauge::new();
        g.observe(10);
        g.observe(3);
        assert_eq!(g.get(), 10);
        g.observe(12);
        assert_eq!(g.get(), 12);
    }

    #[test]
    fn global_counters_are_monotone_under_adds() {
        // Other tests may add concurrently; assert only the delta direction.
        let before = counters().gemm_calls;
        GEMM_CALLS.add(2);
        assert!(counters().gemm_calls >= before + 2);
    }
}
