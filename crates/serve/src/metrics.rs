//! Per-request serving metrics: throughput, latency percentiles, wire bytes,
//! and the queue-wait / decode / forward / encode phase breakdown.
//!
//! The recorder is **sharded and lock-free**: every worker thread owns one
//! [`WorkerShard`] of relaxed `AtomicU64` counters plus log-linear
//! [`LogHistogram`]s (≤2% relative quantile error), and the front-ends
//! share one extra miscellaneous shard. The request path therefore never
//! takes a lock — recording is a handful of relaxed atomic adds — and
//! [`MetricsRecorder::snapshot`] merges the shards into one
//! [`ServeMetrics`] without stopping the workers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use mtlsplit_obs::LogHistogram;

/// One worker's private slice of the serving metrics.
///
/// All fields are relaxed atomics, so recording from the owning worker is
/// wait-free and snapshotting from another thread needs no coordination.
#[derive(Debug, Default)]
pub(crate) struct WorkerShard {
    requests: AtomicU64,
    errors: AtomicU64,
    evictions: AtomicU64,
    shed: AtomicU64,
    batches: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    /// Requests served per split variant, indexed like the server's variant
    /// table (empty when the server exposes no negotiated splits).
    split_requests: Vec<AtomicU64>,
    /// Full service latency per request (enqueue → response encoded), ns.
    latency_ns: LogHistogram,
    /// Time a request sat in the queue before a worker drained it, ns.
    queue_wait_ns: LogHistogram,
    /// Payload decode time per drained batch, ns.
    decode_ns: LogHistogram,
    /// Head forward-pass time per coalesced group, ns.
    forward_ns: LogHistogram,
    /// Response split + encode time per coalesced group, ns.
    encode_ns: LogHistogram,
}

impl WorkerShard {
    fn with_splits(splits: usize) -> Self {
        Self {
            split_requests: (0..splits).map(|_| AtomicU64::new(0)).collect(),
            ..Self::default()
        }
    }

    /// One head forward pass executed (over however many coalesced requests).
    pub(crate) fn record_forward(&self) {
        self.batches.fetch_add(1, Ordering::Relaxed);
    }

    /// One request served under split variant `variant`. A no-op when the
    /// server exposes no negotiated splits; out-of-range variants land on
    /// the last (defensive — the server validates variants at negotiation).
    pub(crate) fn record_split_request(&self, variant: usize) {
        if let Some(counter) = self
            .split_requests
            .get(variant.min(self.split_requests.len().saturating_sub(1)))
        {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One request answered (successfully or not).
    pub(crate) fn record_request(&self, latency_s: f64, bytes_in: usize, bytes_out: usize) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.bytes_in.fetch_add(bytes_in as u64, Ordering::Relaxed);
        self.bytes_out
            .fetch_add(bytes_out as u64, Ordering::Relaxed);
        self.latency_ns.record(seconds_to_ns(latency_s));
    }

    pub(crate) fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// One client severed for stalling past the server's read timeout.
    pub(crate) fn record_eviction(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// One request (or connection attempt) refused by admission control —
    /// answered [`crate::ErrorCode::Overloaded`] before any decode work.
    pub(crate) fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// How long one request waited in the queue before being drained.
    pub(crate) fn record_queue_wait(&self, seconds: f64) {
        self.queue_wait_ns.record(seconds_to_ns(seconds));
    }

    /// Decode time of one drained batch.
    pub(crate) fn record_decode(&self, ns: u64) {
        self.decode_ns.record(ns);
    }

    /// Forward-pass time of one coalesced group.
    pub(crate) fn record_forward_time(&self, ns: u64) {
        self.forward_ns.record(ns);
    }

    /// Split + encode time of one coalesced group.
    pub(crate) fn record_encode(&self, ns: u64) {
        self.encode_ns.record(ns);
    }
}

fn seconds_to_ns(seconds: f64) -> u64 {
    (seconds.max(0.0) * 1e9) as u64
}

/// The sharded metric accumulator owned by the server.
///
/// Holds one [`WorkerShard`] per worker thread plus a trailing
/// miscellaneous shard for the front-ends. Workers record
/// into their own shard with plain relaxed atomics — the request path
/// takes **no lock** — and [`MetricsRecorder::snapshot`] merges all
/// shards on demand.
#[derive(Debug)]
pub(crate) struct MetricsRecorder {
    started: Instant,
    workers: usize,
    /// `(stage, label)` of every split variant the server serves, in variant
    /// order; indexes the shards' `split_requests` counters.
    split_labels: Vec<(u8, String)>,
    /// `workers + 1` shards; the last one is the miscellaneous shard.
    shards: Vec<WorkerShard>,
}

impl MetricsRecorder {
    /// Creates a recorder for a pool of `workers` worker threads, with no
    /// per-split accounting.
    #[cfg(test)]
    pub(crate) fn new(workers: usize) -> Self {
        Self::with_splits(workers, Vec::new())
    }

    /// Creates a recorder that also counts requests per split variant; one
    /// counter per `(stage, label)` entry, in variant order.
    pub(crate) fn with_splits(workers: usize, split_labels: Vec<(u8, String)>) -> Self {
        let workers = workers.max(1);
        Self {
            started: Instant::now(),
            workers,
            shards: (0..=workers)
                .map(|_| WorkerShard::with_splits(split_labels.len()))
                .collect(),
            split_labels,
        }
    }

    /// The shard owned by worker `index`; out-of-range indices fall back to
    /// the miscellaneous shard.
    pub(crate) fn shard(&self, index: usize) -> &WorkerShard {
        &self.shards[index.min(self.workers)]
    }

    /// The shard shared by the front-ends (mux poller, in-process callers).
    pub(crate) fn misc(&self) -> &WorkerShard {
        &self.shards[self.workers]
    }

    /// Merges every shard into one point-in-time snapshot.
    pub(crate) fn snapshot(&self) -> ServeMetrics {
        let mut requests = 0u64;
        let mut errors = 0u64;
        let mut evictions = 0u64;
        let mut shed = 0u64;
        let mut batches = 0u64;
        let mut bytes_in = 0u64;
        let mut bytes_out = 0u64;
        let latency = LogHistogram::new();
        let queue_wait = LogHistogram::new();
        let decode = LogHistogram::new();
        let forward = LogHistogram::new();
        let encode = LogHistogram::new();
        for shard in &self.shards {
            requests += shard.requests.load(Ordering::Relaxed);
            errors += shard.errors.load(Ordering::Relaxed);
            evictions += shard.evictions.load(Ordering::Relaxed);
            shed += shard.shed.load(Ordering::Relaxed);
            batches += shard.batches.load(Ordering::Relaxed);
            bytes_in += shard.bytes_in.load(Ordering::Relaxed);
            bytes_out += shard.bytes_out.load(Ordering::Relaxed);
            latency.merge_from(&shard.latency_ns);
            queue_wait.merge_from(&shard.queue_wait_ns);
            decode.merge_from(&shard.decode_ns);
            forward.merge_from(&shard.forward_ns);
            encode.merge_from(&shard.encode_ns);
        }
        let per_split = self
            .split_labels
            .iter()
            .enumerate()
            .map(|(i, (stage, label))| SplitRequests {
                stage: *stage,
                label: label.clone(),
                requests: self
                    .shards
                    .iter()
                    .map(|s| s.split_requests[i].load(Ordering::Relaxed))
                    .sum(),
            })
            .collect();
        let wall = self.started.elapsed().as_secs_f64();
        ServeMetrics {
            workers: self.workers,
            requests,
            errors,
            evictions,
            shed,
            batches,
            bytes_in,
            bytes_out,
            wall_seconds: wall,
            requests_per_second: if wall > 0.0 {
                requests as f64 / wall
            } else {
                0.0
            },
            mean_batch_size: if batches == 0 {
                0.0
            } else {
                requests as f64 / batches as f64
            },
            p50_latency_s: ns_quantile_s(&latency, 0.50),
            p95_latency_s: ns_quantile_s(&latency, 0.95),
            p99_latency_s: ns_quantile_s(&latency, 0.99),
            queue_wait: PhaseStats::from_histogram(&queue_wait),
            decode: PhaseStats::from_histogram(&decode),
            forward: PhaseStats::from_histogram(&forward),
            encode: PhaseStats::from_histogram(&encode),
            per_split,
            resilience: ResilienceCounters::from_process(),
        }
    }
}

fn ns_quantile_s(hist: &LogHistogram, q: f64) -> f64 {
    if hist.count() == 0 {
        0.0
    } else {
        hist.value_at_quantile(q) as f64 / 1e9
    }
}

/// Latency statistics of one serving phase, in seconds.
///
/// Quantiles come from a log-linear histogram with ≤2% relative error.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseStats {
    /// Number of recorded samples.
    pub count: u64,
    /// Mean duration in seconds.
    pub mean_s: f64,
    /// Median duration in seconds.
    pub p50_s: f64,
    /// 95th-percentile duration in seconds.
    pub p95_s: f64,
    /// 99th-percentile duration in seconds.
    pub p99_s: f64,
}

impl PhaseStats {
    fn from_histogram(hist: &LogHistogram) -> Self {
        Self {
            count: hist.count(),
            mean_s: hist.mean() / 1e9,
            p50_s: ns_quantile_s(hist, 0.50),
            p95_s: ns_quantile_s(hist, 0.95),
            p99_s: ns_quantile_s(hist, 0.99),
        }
    }
}

/// Process-wide resilience counters surfaced alongside the server-side
/// serving metrics: retry/reconnect/fallback activity of [`crate::EdgeClient`]
/// and [`crate::ResilientClient`] instances plus fault-injection volume,
/// all sourced from the global [`mtlsplit_obs::metrics`] counters.
///
/// These are *process* totals (every client and breaker in the process, not
/// just one server), which is exactly what an operator scraping a node
/// wants: how much retry/fallback pressure the node is generating.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResilienceCounters {
    /// Same-connection retries after recoverable failures.
    pub retries: u64,
    /// Transport reconnects after desynchronizing failures.
    pub reconnects: u64,
    /// Requests answered by the edge-local fallback model.
    pub fallbacks: u64,
    /// Requests abandoned with an exhausted retry deadline.
    pub deadlines_exhausted: u64,
    /// Circuit-breaker open transitions.
    pub breaker_trips: u64,
    /// Faults injected by [`crate::FaultyTransport`] (test/chaos traffic).
    pub faults_injected: u64,
}

impl ResilienceCounters {
    /// Reads the live process-wide counters.
    pub(crate) fn from_process() -> Self {
        let counters = mtlsplit_obs::counters();
        Self {
            retries: counters.serve_retries,
            reconnects: counters.serve_reconnects,
            fallbacks: counters.serve_fallbacks,
            deadlines_exhausted: counters.serve_deadlines_exhausted,
            breaker_trips: counters.serve_breaker_trips,
            faults_injected: counters.serve_faults_injected,
        }
    }
}

/// Requests served under one split variant.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SplitRequests {
    /// Backbone stage index the variant cuts at.
    pub stage: u8,
    /// Stage label, e.g. `"sep2"`.
    pub label: String,
    /// Requests served at this split.
    pub requests: u64,
}

/// A point-in-time snapshot of a server's serving metrics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServeMetrics {
    /// Effective worker-thread count of the serving pool.
    pub workers: usize,
    /// Requests answered (including errored ones).
    pub requests: u64,
    /// Requests that ended in an application error.
    pub errors: u64,
    /// Clients severed for stalling past the server's read timeout.
    pub evictions: u64,
    /// Requests and connection attempts refused by admission control
    /// (answered `Overloaded` before decode, or shed at accept).
    pub shed: u64,
    /// Head forward passes executed; `requests / batches` is the achieved
    /// coalescing factor.
    pub batches: u64,
    /// Payload bytes received from clients.
    pub bytes_in: u64,
    /// Payload bytes sent back to clients.
    pub bytes_out: u64,
    /// Seconds since the server started.
    pub wall_seconds: f64,
    /// Requests per wall-clock second since startup.
    pub requests_per_second: f64,
    /// Mean number of requests coalesced into one head forward pass.
    pub mean_batch_size: f64,
    /// Median service latency in seconds (enqueue → response encoded).
    pub p50_latency_s: f64,
    /// 95th-percentile service latency in seconds.
    pub p95_latency_s: f64,
    /// 99th-percentile service latency in seconds.
    pub p99_latency_s: f64,
    /// Time requests waited in the queue before a worker drained them.
    pub queue_wait: PhaseStats,
    /// Payload decode time per drained batch.
    pub decode: PhaseStats,
    /// Head forward-pass time per coalesced group.
    pub forward: PhaseStats,
    /// Response split + encode time per coalesced group.
    pub encode: PhaseStats,
    /// Requests served per split variant, in the server's variant order;
    /// empty when the server exposes no negotiated splits.
    pub per_split: Vec<SplitRequests>,
    /// Process-wide client resilience counters (retries, fallbacks,
    /// breaker trips, injected faults) at snapshot time.
    pub resilience: ResilienceCounters,
}

impl ServeMetrics {
    /// Human-readable one-line summary.
    pub fn summary(&self) -> String {
        format!(
            "{} req in {:.2}s ({:.0} req/s) on {} workers, {} batches (mean {:.2} req/batch), \
             p50 {:.3}ms p95 {:.3}ms p99 {:.3}ms, {} B in / {} B out, {} errors, \
             {} evictions, {} shed",
            self.requests,
            self.wall_seconds,
            self.requests_per_second,
            self.workers,
            self.batches,
            self.mean_batch_size,
            self.p50_latency_s * 1e3,
            self.p95_latency_s * 1e3,
            self.p99_latency_s * 1e3,
            self.bytes_in,
            self.bytes_out,
            self.errors,
            self.evictions,
            self.shed
        )
    }

    /// Human-readable one-line phase breakdown (p50/p95 per phase, ms).
    pub fn phase_summary(&self) -> String {
        let phase = |name: &str, p: &PhaseStats| {
            format!(
                "{name} p50 {:.3}ms p95 {:.3}ms (n={})",
                p.p50_s * 1e3,
                p.p95_s * 1e3,
                p.count
            )
        };
        format!(
            "{}, {}, {}, {}",
            phase("queue-wait", &self.queue_wait),
            phase("decode", &self.decode),
            phase("forward", &self.forward),
            phase("encode", &self.encode)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_come_from_the_recorded_latencies() {
        let recorder = MetricsRecorder::new(1);
        let shard = recorder.shard(0);
        shard.record_forward();
        for i in 0..100 {
            shard.record_request((i + 1) as f64 / 1000.0, 10, 20);
        }
        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.requests, 100);
        assert_eq!(snapshot.batches, 1);
        assert_eq!(snapshot.bytes_in, 1000);
        assert_eq!(snapshot.bytes_out, 2000);
        assert!((snapshot.p50_latency_s - 0.050).abs() < 0.002);
        assert!((snapshot.p95_latency_s - 0.095).abs() < 0.002);
        assert!(snapshot.p99_latency_s >= snapshot.p95_latency_s);
        assert!(snapshot.p95_latency_s >= snapshot.p50_latency_s);
    }

    #[test]
    fn empty_recorder_reports_zeros() {
        let snapshot = MetricsRecorder::new(2).snapshot();
        assert_eq!(snapshot.workers, 2);
        assert_eq!(snapshot.requests, 0);
        assert_eq!(snapshot.p95_latency_s, 0.0);
        assert_eq!(snapshot.mean_batch_size, 0.0);
        assert_eq!(snapshot.queue_wait, PhaseStats::default());
    }

    #[test]
    fn mean_batch_size_reflects_coalescing() {
        let recorder = MetricsRecorder::new(1);
        let shard = recorder.shard(0);
        shard.record_forward();
        shard.record_forward();
        for _ in 0..12 {
            shard.record_request(0.001, 1, 1);
        }
        assert!((recorder.snapshot().mean_batch_size - 6.0).abs() < 1e-9);
    }

    #[test]
    fn per_split_counters_merge_across_shards() {
        let recorder =
            MetricsRecorder::with_splits(2, vec![(4, "gap".to_string()), (1, "sep1".to_string())]);
        recorder.shard(0).record_split_request(0);
        recorder.shard(1).record_split_request(1);
        recorder.shard(1).record_split_request(1);
        recorder.misc().record_split_request(0);
        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.per_split.len(), 2);
        assert_eq!(snapshot.per_split[0].stage, 4);
        assert_eq!(snapshot.per_split[0].label, "gap");
        assert_eq!(snapshot.per_split[0].requests, 2);
        assert_eq!(snapshot.per_split[1].requests, 2);
        // A recorder without splits ignores the calls entirely.
        let plain = MetricsRecorder::new(1);
        plain.shard(0).record_split_request(0);
        assert!(plain.snapshot().per_split.is_empty());
    }

    #[test]
    fn summary_is_printable() {
        let snapshot = MetricsRecorder::new(1).snapshot();
        assert!(snapshot.summary().contains("req/s"));
        assert!(snapshot.summary().contains("shed"));
        assert!(snapshot.phase_summary().contains("queue-wait"));
    }

    #[test]
    fn shed_counter_merges_across_shards() {
        let recorder = MetricsRecorder::new(2);
        recorder.shard(0).record_shed();
        recorder.shard(1).record_shed();
        recorder.misc().record_shed();
        assert_eq!(recorder.snapshot().shed, 3);
    }

    #[test]
    fn out_of_range_shards_fall_back_to_the_misc_shard() {
        let recorder = MetricsRecorder::new(2);
        recorder.shard(99).record_error();
        recorder.misc().record_error();
        assert_eq!(recorder.snapshot().errors, 2);
    }

    #[test]
    fn sharded_recording_merges_to_the_single_shard_equivalent() {
        // The same traffic recorded across 4 worker shards and into one
        // shard of a second recorder must produce identical snapshots
        // (up to wall-clock fields, which depend on elapsed time).
        let sharded = MetricsRecorder::new(4);
        let single = MetricsRecorder::new(4);
        for i in 0..200u64 {
            let latency = 1e-4 * (1.0 + (i % 37) as f64);
            let shard = sharded.shard((i % 4) as usize);
            shard.record_request(latency, 64, 128);
            shard.record_queue_wait(latency / 10.0);
            if i % 3 == 0 {
                shard.record_forward();
                shard.record_forward_time((i + 1) * 1_000);
                shard.record_decode((i + 1) * 500);
                shard.record_encode((i + 1) * 250);
            }
            let lone = single.shard(0);
            lone.record_request(latency, 64, 128);
            lone.record_queue_wait(latency / 10.0);
            if i % 3 == 0 {
                lone.record_forward();
                lone.record_forward_time((i + 1) * 1_000);
                lone.record_decode((i + 1) * 500);
                lone.record_encode((i + 1) * 250);
            }
        }
        let a = sharded.snapshot();
        let b = single.snapshot();
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.errors, b.errors);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.bytes_in, b.bytes_in);
        assert_eq!(a.bytes_out, b.bytes_out);
        assert_eq!(a.p50_latency_s, b.p50_latency_s);
        assert_eq!(a.p95_latency_s, b.p95_latency_s);
        assert_eq!(a.p99_latency_s, b.p99_latency_s);
        assert_eq!(a.queue_wait, b.queue_wait);
        assert_eq!(a.decode, b.decode);
        assert_eq!(a.forward, b.forward);
        assert_eq!(a.encode, b.encode);
    }

    #[test]
    fn histogram_latencies_track_recent_magnitudes_within_error() {
        let recorder = MetricsRecorder::new(1);
        let shard = recorder.shard(0);
        for _ in 0..1000 {
            shard.record_request(0.001, 1, 1);
        }
        let fast = recorder.snapshot();
        assert!((fast.p95_latency_s - 0.001).abs() / 0.001 < 0.02);
        for _ in 0..100_000 {
            shard.record_request(0.5, 1, 1);
        }
        let slow = recorder.snapshot();
        assert!((slow.p50_latency_s - 0.5).abs() / 0.5 < 0.02);
        assert_eq!(slow.requests, 101_000);
    }
}
