//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it, the request
//! it belongs to and one count (bytes, rows or batch size) taken at the
//! same boundary. Closed spans go to a bounded ring (the last
//! [`RING_CAPACITY`] are written as a Chrome trace when the run ends) and
//! into per-name totals that never drop anything. A span's self time is its
//! duration minus the durations of its child spans.
//!
//! A disabled tracer makes `begin`/`end` no-ops that read no clock, so the
//! same driver code serves the untraced and the traced run.

use std::fmt::Write as _;
use std::time::Instant;

/// Closed spans kept for the Chrome trace.
pub const RING_CAPACITY: usize = 1 << 17;

/// Handle of an open span; `NONE` when the tracer is disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    pub const NONE: SpanId = SpanId(u32::MAX);
}

#[derive(Debug, Clone, Copy)]
struct Open {
    name: &'static str,
    start_ns: u64,
    parent: SpanId,
    request_id: u64,
    lane: u32,
    children_ns: u64,
}

/// One closed span as kept for the trace file.
#[derive(Debug, Clone, Copy)]
pub struct Closed {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub self_ns: u64,
    pub request_id: u64,
    /// Trace row: 0 for the calling thread's own work, `1 + slot` for spans
    /// of requests in flight, which overlap each other.
    pub lane: u32,
    pub count: u64,
}

/// Totals of every closed span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub spans: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub children_ns: u64,
    pub count: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    open: Vec<Option<Open>>,
    free: Vec<u32>,
    ring: Vec<Closed>,
    ring_next: usize,
    closed_total: u64,
    totals: Vec<(&'static str, NameTotals)>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            open: Vec::new(),
            free: Vec::new(),
            // Reserved up front so recording a span never allocates.
            ring: Vec::with_capacity(if enabled { RING_CAPACITY } else { 0 }),
            ring_next: 0,
            closed_total: 0,
            totals: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer was made.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, request_id: u64) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let now = self.now_ns();
        self.begin_at(name, parent, request_id, 0, now)
    }

    /// Opens a span with an explicit start and trace row — for spans whose
    /// start is a time already read (a request's due time).
    pub fn begin_at(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request_id: u64,
        lane: u32,
        start_ns: u64,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let open = Open {
            name,
            start_ns,
            parent,
            request_id,
            lane,
            children_ns: 0,
        };
        match self.free.pop() {
            Some(slot) => {
                self.open[slot as usize] = Some(open);
                SpanId(slot)
            }
            None => {
                self.open.push(Some(open));
                SpanId(self.open.len() as u32 - 1)
            }
        }
    }

    /// Closes a span now, attaching one count taken at the same boundary.
    pub fn end(&mut self, id: SpanId, count: u64) {
        if !self.enabled || id == SpanId::NONE {
            return;
        }
        let now = self.now_ns();
        self.end_at(id, count, now);
    }

    pub fn end_at(&mut self, id: SpanId, count: u64, end_ns: u64) {
        if !self.enabled || id == SpanId::NONE {
            return;
        }
        let span = self.open[id.0 as usize]
            .take()
            .expect("a span is closed once");
        self.free.push(id.0);
        let duration = end_ns.saturating_sub(span.start_ns);
        if span.parent != SpanId::NONE {
            if let Some(parent) = self.open[span.parent.0 as usize].as_mut() {
                parent.children_ns += duration;
            }
        }
        let closed = Closed {
            name: span.name,
            start_ns: span.start_ns,
            end_ns,
            self_ns: duration.saturating_sub(span.children_ns),
            request_id: span.request_id,
            lane: span.lane,
            count,
        };
        let totals = match self.totals.iter_mut().find(|(name, _)| *name == span.name) {
            Some((_, totals)) => totals,
            None => {
                self.totals.push((span.name, NameTotals::default()));
                &mut self.totals.last_mut().expect("just pushed").1
            }
        };
        totals.spans += 1;
        totals.total_ns += duration;
        totals.self_ns += closed.self_ns;
        totals.children_ns += span.children_ns.min(duration);
        totals.count += count;
        if self.ring.len() < RING_CAPACITY {
            self.ring.push(closed);
        } else {
            self.ring[self.ring_next] = closed;
        }
        self.ring_next = (self.ring_next + 1) % RING_CAPACITY;
        self.closed_total += 1;
    }

    pub fn totals(&self, name: &str) -> NameTotals {
        self.totals
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, totals)| *totals)
            .unwrap_or_default()
    }

    pub fn all_totals(&self) -> &[(&'static str, NameTotals)] {
        &self.totals
    }

    /// Spans closed so far, including those the ring has dropped.
    pub fn closed_total(&self) -> u64 {
        self.closed_total
    }

    /// Share of the `parent` spans' time that their child spans cover.
    pub fn closure_ratio(&self, parent: &str) -> f64 {
        let totals = self.totals(parent);
        if totals.total_ns == 0 {
            return 0.0;
        }
        totals.children_ns as f64 / totals.total_ns as f64
    }

    /// The ring as a Chrome trace (`chrome://tracing`, Perfetto): complete
    /// events with microsecond timestamps, one row per lane.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::with_capacity(self.ring.len() * 120 + 64);
        out.push_str("{\"traceEvents\":[");
        for (index, span) in self.ring.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"request_id\":{},\"count\":{},\"self_us\":{:.3}}}}}",
                span.name,
                span.lane,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns.min(span.end_ns)) as f64 / 1e3,
                span.request_id,
                span.count,
                span.self_ns as f64 / 1e3,
            );
        }
        let _ = write!(
            out,
            "],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"spans_closed\":{},\"spans_kept\":{}}}}}",
            self.closed_total,
            self.ring.len()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut tracer = Tracer::new(true);
        let op = tracer.begin_at("op", SpanId::NONE, 7, 0, 1_000);
        let first = tracer.begin_at("edge_fwd", op, 7, 0, 1_100);
        tracer.end_at(first, 1, 1_600);
        let second = tracer.begin_at("wait", op, 7, 0, 1_600);
        let inner = tracer.begin_at("decode", second, 7, 0, 1_700);
        tracer.end_at(inner, 3, 1_750);
        tracer.end_at(second, 0, 1_900);
        tracer.end_at(op, 0, 2_000);

        let op = tracer.totals("op");
        assert_eq!((op.total_ns, op.children_ns, op.self_ns), (1_000, 800, 200));
        let wait = tracer.totals("wait");
        assert_eq!((wait.total_ns, wait.self_ns), (300, 250));
        assert_eq!(tracer.totals("edge_fwd").self_ns, 500);
        assert_eq!(tracer.totals("decode").count, 3);
        assert_eq!(tracer.closure_ratio("op"), 0.8);
        assert_eq!(tracer.closed_total(), 4);
        assert_eq!(tracer.totals("missing"), NameTotals::default());
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let id = tracer.begin("op", SpanId::NONE, 1);
        assert_eq!(id, SpanId::NONE);
        tracer.end(id, 5);
        assert_eq!(tracer.closed_total(), 0);
        assert!(tracer.all_totals().is_empty());
    }

    #[test]
    fn the_ring_is_bounded_and_the_totals_are_not() {
        let mut tracer = Tracer::new(true);
        let spans = RING_CAPACITY as u64 + 10;
        for i in 0..spans {
            let id = tracer.begin_at("op", SpanId::NONE, i, 0, i * 10);
            tracer.end_at(id, 1, i * 10 + 5);
        }
        assert_eq!(tracer.closed_total(), spans);
        assert_eq!(tracer.totals("op").spans, spans);
        assert_eq!(tracer.totals("op").total_ns, spans * 5);
        let json = tracer.chrome_trace_json();
        let parsed = crate::json::parse(&json).expect("the trace is valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .unwrap();
        assert_eq!(events.len(), RING_CAPACITY);
    }
}
