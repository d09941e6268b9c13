//! The benchmark's frozen constants: workloads, metric names, units,
//! directions, bounds, latency limits and the open-loop reference rate.
//!
//! `BENCHMARK.json` at the repo root carries the same workload and metric
//! tables for the driver; a unit test keeps the two in step. The constants
//! that file has no key for (latency limits, the reference rate, warm-up)
//! live only here.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "in_limit_share",
        unit: "share",
        better: Better::Higher,
        bound: 0.02,
    },
];

/// One per-layer metric of the traced run: `(name, unit, better)`.
pub type PerLayer = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 54] = [
    ("tensor.edge_gmacs_per_s", "GMAC/s", Higher),
    ("nn.head_fwd_us_b1", "us", Lower),
    ("nn.head_fwd_us_b8", "us", Lower),
    ("nn.batch_efficiency", "ratio", Higher),
    ("nn.plan_fresh_allocs", "count", Lower),
    ("models.edge_fwd_ms", "ms", Lower),
    ("models.tail_fwd_us", "us", Lower),
    ("split.encode_f32_us", "us", Lower),
    ("split.encode_q8_us", "us", Lower),
    ("split.decode_f32_us", "us", Lower),
    ("split.decode_q8_us", "us", Lower),
    ("split.payload_encode_us", "us", Lower),
    ("split.payload_decode_us", "us", Lower),
    ("serve.frame.encode_us", "us", Lower),
    ("serve.frame.decode_us", "us", Lower),
    ("serve.frame.assemble_us", "us", Lower),
    ("serve.frame.crc_mb_per_s", "MB/s", Higher),
    ("serve.wire.encode_response_us", "us", Lower),
    ("serve.wire.decode_response_us", "us", Lower),
    ("serve.server.process_us", "us", Lower),
    ("serve.server.queue_wait_p50_ms", "ms", Lower),
    ("serve.server.queue_wait_p95_ms", "ms", Lower),
    ("serve.server.decode_p50_ms", "ms", Lower),
    ("serve.server.forward_p50_ms", "ms", Lower),
    ("serve.server.encode_p50_ms", "ms", Lower),
    ("serve.server.service_p50_ms", "ms", Lower),
    ("serve.server.mean_batch_size", "req/batch", Higher),
    ("serve.server.shed", "count", Lower),
    ("serve.server.errors", "count", Lower),
    ("serve.server.evictions", "count", Lower),
    ("serve.mux.ping_rtt_us", "us", Lower),
    ("serve.mux.residual_p50_ms", "ms", Lower),
    ("serve.transport.send_us", "us", Lower),
    ("serve.transport.wait_ms", "ms", Lower),
    ("serve.client.closure_ratio", "ratio", Higher),
    ("serve.client.op_p90_ms", "ms", Lower),
    ("serve.client.op_p99_ms", "ms", Lower),
    ("serve.client.op_p999_ms", "ms", Lower),
    ("serve.client.op_p50_ms.deep", "ms", Lower),
    ("serve.client.op_p50_ms.shallow", "ms", Lower),
    ("serve.client.wire_bytes_per_op", "bytes", Lower),
    ("core.train_step_ms", "ms", Lower),
    ("core.infer_fwd_ms", "ms", Lower),
    ("core.bwd_opt_share", "share", Lower),
    ("core.final_loss", "loss", Lower),
    ("data.next_batch_us", "us", Lower),
    ("process.allocs_per_op", "count", Lower),
    ("process.alloc_bytes_per_op", "bytes", Lower),
    ("process.ctx_switches_per_op", "count", Lower),
    ("loadgen.offered_rps", "1/s", Higher),
    ("loadgen.send_lag_p95_ms", "ms", Lower),
    ("loadgen.backlog_end", "count", Lower),
    ("loadgen.samples", "count", Higher),
    ("trace.overhead_pct", "%", Lower),
];

/// How the fan-in generator offers its load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Open loop: arrivals on a schedule at this many requests per second.
    Open { rps: f64 },
    /// Closed loop with this many requests in flight over two connections.
    ClosedWindow { in_flight: usize },
}

/// Which driver runs a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Driver {
    /// One `EdgeClient` against a served model, one op at a time.
    Edge,
    /// Pre-encoded frames against the fan-in deployment.
    Fanin(Load),
    /// The training loop, one step at a time.
    Train,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub driver: Driver,
    /// An op that takes longer than this (from its due time) misses
    /// `in_limit_share`.
    pub limit_ms: f64,
}

/// The open-loop rate of `fanin_open`: a good third of `fanin_saturate`'s
/// `ops_per_s` (about 27 700) on the host that defined the benchmark. At half
/// of it `in_limit_share` swung between 0.96 and 1.00 from run to run.
pub const FANIN_OPEN_RPS: f64 = 10_000.0;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "edge_deep_f32",
        why: "closed loop, one edge client: EfficientStyle 64x64 backbone on the edge, Float32 Z_b to 3 heads behind a MuxServer; edge compute carries the op, serve barely moves it",
        driver: Driver::Edge,
        limit_ms: 3.0,
    },
    Workload {
        name: "fanin_open",
        why: "open loop at a frozen rate, pre-encoded 3:1 Float32-deep/Quant8-shallow frames over two sockets, no edge compute; shows what a serving change costs in latency",
        driver: Driver::Fanin(Load::Open { rps: FANIN_OPEN_RPS }),
        limit_ms: 5.0,
    },
    Workload {
        name: "fanin_saturate",
        why: "closed loop, same frames and server, 16 requests in flight over two sockets; same serve layers used for capacity: batching and per-request cost set ops_per_s",
        driver: Driver::Fanin(Load::ClosedWindow { in_flight: 16 }),
        limit_ms: 5.0,
    },
    Workload {
        name: "train_mtl_step",
        why: "no sockets: DataLoader batch of 16 plus one planned AdamW MTL step on MobileStyle 32x32 with 3 tasks; guards backward and optimiser, serve and split must not move it",
        driver: Driver::Train,
        limit_ms: 10.0,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Timed section of one run when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 25.0;
/// Warm-up before every timed section, excluded from all metrics.
pub const WARMUP_SECONDS: f64 = 3.0;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;
/// Length of one window of the windowed-percentile estimator.
pub const WINDOW_NS: u64 = 1_000_000_000;
/// A child that has printed no result this long after its timed sections
/// should have ended is killed and reported as hung.
pub const CHILD_GRACE_SECONDS: f64 = 60.0;
