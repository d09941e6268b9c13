//! Zero-allocation tracing spans in thread-local ring buffers.
//!
//! A [`Span`] is an RAII guard: [`span`] stamps a start tick, dropping the
//! guard stamps the end tick and pushes one fixed-size [`SpanRecord`] into
//! the calling thread's preallocated ring buffer. The steady-state record
//! path therefore performs **zero heap allocations** — the ring (one per
//! thread, [`RING_CAPACITY`] records) is allocated once when a thread
//! records its first span, and wraps by overwriting its oldest records.
//!
//! Tracing is off by default. The enable flag is a single relaxed
//! `AtomicBool`, so a span site on the disabled path costs exactly one
//! atomic load and one branch — cheap enough to leave in release kernels.
//!
//! [`export`] snapshots every thread's ring (including threads that have
//! since exited) for aggregation ([`span_stats`], [`layer_profile`]) or
//! Chrome trace-event export ([`crate::chrome_trace_json`]).

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::clock::now_ns;

/// Capacity of each thread's span ring buffer, in records.
///
/// Once full, new spans overwrite the oldest records ([`ThreadTrace::dropped`]
/// counts the overwritten ones); the buffer itself never grows.
pub const RING_CAPACITY: usize = 4096;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ORD: AtomicU64 = AtomicU64::new(0);
static REGISTRY: Mutex<Vec<Arc<ThreadRing>>> = Mutex::new(Vec::new());

/// Coarse classification of what a span measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// A compute kernel (GEMM, convolution, pooling).
    Kernel,
    /// One layer (or fused layer window) of a planned forward/backward pass.
    Layer,
    /// A whole planned pass (inference forward, training forward/backward).
    Plan,
    /// A serving phase (decode, forward, encode) inside a server worker.
    Serve,
    /// A training-loop unit (epoch, optimiser step).
    Train,
    /// Anything else.
    Custom,
}

impl SpanKind {
    /// Stable lowercase label, used as the Chrome trace `cat` field.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Kernel => "kernel",
            SpanKind::Layer => "layer",
            SpanKind::Plan => "plan",
            SpanKind::Serve => "serve",
            SpanKind::Train => "train",
            SpanKind::Custom => "custom",
        }
    }
}

/// One completed span, exactly as stored in the ring buffer.
#[derive(Clone, Copy, Debug)]
pub struct SpanRecord {
    /// Unique id: thread ordinal in the high bits, per-thread sequence below.
    pub id: u64,
    /// Static span name (no allocation on the record path).
    pub name: &'static str,
    /// What the span measures.
    pub kind: SpanKind,
    /// Start tick, nanoseconds from the process epoch ([`crate::now_ns`]).
    pub start_ns: u64,
    /// End tick, nanoseconds from the process epoch.
    pub end_ns: u64,
    /// Nesting depth on the recording thread (0 = outermost).
    pub depth: u16,
    /// Free-form dimensions, e.g. `[m, n, k, 0]` for a GEMM or
    /// `[layer_index, layers_fused, 0, 0]` for a layer span.
    pub dims: [u32; 4],
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct RingState {
    records: Vec<SpanRecord>,
    head: usize,
    written: u64,
    next_seq: u64,
}

struct ThreadRing {
    ord: u64,
    name: String,
    state: Mutex<RingState>,
}

impl ThreadRing {
    fn push(&self, data: SpanData, end_ns: u64) {
        let mut state = match self.state.lock() {
            Ok(state) => state,
            Err(poisoned) => poisoned.into_inner(),
        };
        let seq = state.next_seq;
        state.next_seq += 1;
        let record = SpanRecord {
            id: (self.ord << 40) | (seq & ((1 << 40) - 1)),
            name: data.name,
            kind: data.kind,
            start_ns: data.start_ns,
            end_ns,
            depth: data.depth,
            dims: data.dims,
        };
        if state.records.len() < RING_CAPACITY {
            // Within the preallocated capacity: never reallocates.
            state.records.push(record);
        } else {
            let head = state.head;
            state.records[head] = record;
            state.head = (head + 1) % RING_CAPACITY;
        }
        state.written += 1;
    }
}

thread_local! {
    static DEPTH: Cell<u16> = const { Cell::new(0) };
    static RING: Arc<ThreadRing> = register_current_thread();
}

fn register_current_thread() -> Arc<ThreadRing> {
    let ord = NEXT_ORD.fetch_add(1, Ordering::Relaxed);
    let name = std::thread::current()
        .name()
        .map(str::to_owned)
        .unwrap_or_else(|| format!("thread-{ord}"));
    let ring = Arc::new(ThreadRing {
        ord,
        name,
        state: Mutex::new(RingState {
            records: Vec::with_capacity(RING_CAPACITY),
            head: 0,
            written: 0,
            next_seq: 0,
        }),
    });
    let mut registry = match REGISTRY.lock() {
        Ok(registry) => registry,
        Err(poisoned) => poisoned.into_inner(),
    };
    registry.push(Arc::clone(&ring));
    ring
}

/// Turns span recording on or off, process-wide.
///
/// Counters and histograms are unaffected — they are always on.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span recording is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

struct SpanData {
    name: &'static str,
    kind: SpanKind,
    dims: [u32; 4],
    depth: u16,
    start_ns: u64,
}

/// RAII span guard: records a [`SpanRecord`] when dropped.
///
/// When tracing is disabled this is an inert empty struct and creating it
/// costs one relaxed atomic load plus a branch.
#[must_use = "a span measures the scope it lives in; bind it to a variable"]
pub struct Span {
    data: Option<SpanData>,
}

/// Opens a span. See [`span_dims`] for attaching dimensions.
#[inline]
pub fn span(name: &'static str, kind: SpanKind) -> Span {
    span_dims(name, kind, [0; 4])
}

/// Opens a span carrying four free-form `u32` dimensions.
///
/// The span closes (and the record is written to the thread-local ring)
/// when the returned guard drops. Nothing is recorded — and the clock is
/// never read — while tracing is disabled.
#[inline]
pub fn span_dims(name: &'static str, kind: SpanKind, dims: [u32; 4]) -> Span {
    if !ENABLED.load(Ordering::Relaxed) {
        return Span { data: None };
    }
    let depth = DEPTH
        .try_with(|d| {
            let depth = d.get();
            d.set(depth.saturating_add(1));
            depth
        })
        .unwrap_or(0);
    Span {
        data: Some(SpanData {
            name,
            kind,
            dims,
            depth,
            start_ns: now_ns(),
        }),
    }
}

impl Span {
    /// Overwrites one dimension of the span before it closes.
    ///
    /// Some dimensions are only known mid-scope — e.g. how many layers a
    /// planned inference window fused is decided while the span is already
    /// timing the window. No-op (and free) when tracing is disabled or
    /// `index` is out of range.
    #[inline]
    pub fn set_dim(&mut self, index: usize, value: u32) {
        if let Some(data) = self.data.as_mut() {
            if let Some(slot) = data.dims.get_mut(index) {
                *slot = value;
            }
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(data) = self.data.take() else {
            return;
        };
        let end_ns = now_ns();
        let _ = DEPTH.try_with(|d| d.set(d.get().saturating_sub(1)));
        // During thread teardown the TLS ring may already be gone; the
        // record is silently dropped rather than re-registering.
        let _ = RING.try_with(|ring| ring.push(data, end_ns));
    }
}

/// All spans recorded by one thread, in chronological (recording) order.
#[derive(Clone, Debug)]
pub struct ThreadTrace {
    /// Registration ordinal of the thread (stable for the process lifetime).
    pub thread_ord: u64,
    /// The thread's name at registration time.
    pub thread_name: String,
    /// Records overwritten by ring wraparound (oldest spans lost).
    pub dropped: u64,
    /// Surviving records, oldest first.
    pub spans: Vec<SpanRecord>,
}

/// Snapshots every thread's span ring, including exited threads' rings.
pub fn export() -> Vec<ThreadTrace> {
    let registry = match REGISTRY.lock() {
        Ok(registry) => registry,
        Err(poisoned) => poisoned.into_inner(),
    };
    registry
        .iter()
        .map(|ring| {
            let state = match ring.state.lock() {
                Ok(state) => state,
                Err(poisoned) => poisoned.into_inner(),
            };
            let mut spans = Vec::with_capacity(state.records.len());
            if state.written > state.records.len() as u64 {
                // Wrapped: oldest record sits at `head`.
                spans.extend_from_slice(&state.records[state.head..]);
                spans.extend_from_slice(&state.records[..state.head]);
            } else {
                spans.extend_from_slice(&state.records);
            }
            ThreadTrace {
                thread_ord: ring.ord,
                thread_name: ring.name.clone(),
                dropped: state.written - spans.len() as u64,
                spans,
            }
        })
        .collect()
}

/// Clears every thread's ring (registrations and capacities are kept).
pub fn reset() {
    let registry = match REGISTRY.lock() {
        Ok(registry) => registry,
        Err(poisoned) => poisoned.into_inner(),
    };
    for ring in registry.iter() {
        let mut state = match ring.state.lock() {
            Ok(state) => state,
            Err(poisoned) => poisoned.into_inner(),
        };
        state.records.clear();
        state.head = 0;
        state.written = 0;
    }
}

/// Aggregated duration statistics for one `(name, kind)` span site.
#[derive(Clone, Copy, Debug)]
pub struct SpanStats {
    /// Span name.
    pub name: &'static str,
    /// Span kind.
    pub kind: SpanKind,
    /// Number of recorded spans.
    pub count: u64,
    /// Sum of span durations, nanoseconds.
    pub total_ns: u64,
    /// Shortest span, nanoseconds.
    pub min_ns: u64,
    /// Longest span, nanoseconds.
    pub max_ns: u64,
}

impl SpanStats {
    /// Mean span duration in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Aggregates all recorded spans by `(kind, name)`, busiest first.
pub fn span_stats() -> Vec<SpanStats> {
    let mut stats: Vec<SpanStats> = Vec::new();
    for trace in export() {
        for span in &trace.spans {
            let duration = span.duration_ns();
            match stats
                .iter_mut()
                .find(|s| s.kind == span.kind && s.name == span.name)
            {
                Some(s) => {
                    s.count += 1;
                    s.total_ns += duration;
                    s.min_ns = s.min_ns.min(duration);
                    s.max_ns = s.max_ns.max(duration);
                }
                None => stats.push(SpanStats {
                    name: span.name,
                    kind: span.kind,
                    count: 1,
                    total_ns: duration,
                    min_ns: duration,
                    max_ns: duration,
                }),
            }
        }
    }
    stats.sort_by_key(|entry| std::cmp::Reverse(entry.total_ns));
    stats
}

/// Per-layer latency profile entry aggregated from [`SpanKind::Layer`] spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LayerProfile {
    /// Position of the layer (window start) in its sequential container.
    pub index: u32,
    /// Layer name (the first layer of a fused window).
    pub name: &'static str,
    /// Number of layers fused into this span (1 = unfused).
    pub fused: u32,
    /// Number of recorded executions.
    pub count: u64,
    /// Sum of execution durations, nanoseconds.
    pub total_ns: u64,
}

impl LayerProfile {
    /// Mean execution time in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Named per-layer latency profile: every [`SpanKind::Layer`] span grouped
/// by `(layer index, name)` and sorted by layer index.
///
/// Layer spans store their position in `dims[0]` and the fused-window width
/// in `dims[1]`, so a model whose plan ran under tracing reports one entry
/// per (possibly fused) layer window — the input the split-point autotuner
/// needs.
pub fn layer_profile() -> Vec<LayerProfile> {
    let mut profile: Vec<LayerProfile> = Vec::new();
    for trace in export() {
        for span in &trace.spans {
            if span.kind != SpanKind::Layer {
                continue;
            }
            let duration = span.duration_ns();
            match profile
                .iter_mut()
                .find(|p| p.index == span.dims[0] && p.name == span.name)
            {
                Some(p) => {
                    p.count += 1;
                    p.total_ns += duration;
                }
                None => profile.push(LayerProfile {
                    index: span.dims[0],
                    name: span.name,
                    fused: span.dims[1].max(1),
                    count: 1,
                    total_ns: duration,
                }),
            }
        }
    }
    profile.sort_by_key(|p| p.index);
    profile
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Serialises tests that flip the global enable flag or reset rings.
    pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

    pub(crate) fn lock() -> std::sync::MutexGuard<'static, ()> {
        match TEST_LOCK.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn spans_named(name: &str) -> Vec<SpanRecord> {
        export()
            .into_iter()
            .flat_map(|t| t.spans)
            .filter(|s| s.name == name)
            .collect()
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = lock();
        set_enabled(false);
        reset();
        {
            let _span = span("obs-test-disabled", SpanKind::Custom);
        }
        assert!(spans_named("obs-test-disabled").is_empty());
    }

    #[test]
    fn enabled_spans_record_name_kind_dims_and_times() {
        let _guard = lock();
        set_enabled(true);
        reset();
        {
            let _outer = span_dims("obs-test-outer", SpanKind::Plan, [7, 8, 9, 10]);
            let _inner = span("obs-test-inner", SpanKind::Kernel);
        }
        set_enabled(false);
        let outer = spans_named("obs-test-outer");
        let inner = spans_named("obs-test-inner");
        assert_eq!(outer.len(), 1);
        assert_eq!(inner.len(), 1);
        assert_eq!(outer[0].kind, SpanKind::Plan);
        assert_eq!(outer[0].dims, [7, 8, 9, 10]);
        assert!(outer[0].start_ns <= outer[0].end_ns);
        // The inner span nests strictly inside the outer one.
        assert!(inner[0].depth > outer[0].depth);
        assert!(inner[0].start_ns >= outer[0].start_ns);
        assert!(inner[0].end_ns <= outer[0].end_ns);
    }

    #[test]
    fn ring_wraps_around_keeping_the_newest_records() {
        let _guard = lock();
        set_enabled(true);
        reset();
        // Overflow the ring from a dedicated thread so other tests' spans
        // cannot interleave into the ring under test.
        let handle = std::thread::Builder::new()
            .name("obs-wrap-test".into())
            .spawn(|| {
                for _ in 0..(RING_CAPACITY + 100) {
                    let _span = span("obs-test-wrap", SpanKind::Custom);
                }
            })
            .unwrap();
        handle.join().unwrap();
        set_enabled(false);
        let trace = export()
            .into_iter()
            .find(|t| t.thread_name == "obs-wrap-test")
            .expect("the wrap thread registered a ring");
        assert_eq!(trace.spans.len(), RING_CAPACITY);
        assert_eq!(trace.dropped, 100);
        // Chronological order: ids are sequential per thread, the export
        // must splice the wrapped ring back into oldest-first order.
        for pair in trace.spans.windows(2) {
            assert_eq!(pair[1].id, pair[0].id + 1, "export must be oldest-first");
        }
        // The survivors are the newest records (seq 100..capacity+100).
        assert_eq!(trace.spans[0].id & ((1 << 40) - 1), 100);
    }

    #[test]
    fn layer_profile_groups_by_index_and_name() {
        let _guard = lock();
        set_enabled(true);
        reset();
        for _ in 0..3 {
            let _a = span_dims("obs-test-conv", SpanKind::Layer, [0, 2, 0, 0]);
        }
        {
            let _b = span_dims("obs-test-linear", SpanKind::Layer, [2, 1, 0, 0]);
        }
        set_enabled(false);
        let profile: Vec<LayerProfile> = layer_profile()
            .into_iter()
            .filter(|p| p.name.starts_with("obs-test-"))
            .collect();
        assert_eq!(profile.len(), 2);
        assert_eq!(profile[0].index, 0);
        assert_eq!(profile[0].name, "obs-test-conv");
        assert_eq!(profile[0].fused, 2);
        assert_eq!(profile[0].count, 3);
        assert_eq!(profile[1].index, 2);
        assert_eq!(profile[1].count, 1);
        assert!(profile[0].mean_ns() >= 0.0);
    }
}
