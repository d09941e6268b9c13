//! Turning sections into named metrics, and metrics into the result line.

use std::fmt::Write as _;

use crate::fixtures::{CLASS_DEEP, CLASS_SHALLOW};
use crate::run::Section;
use crate::spans::Tracer;
use crate::spec::{self, Better};
use crate::stats;

/// Named values in the order they were produced; a later value for the same
/// name replaces an earlier one.
#[derive(Default, Debug, Clone)]
pub struct Rows(Vec<(&'static str, f64)>);

impl Rows {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(row) => row.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn extend(&mut self, rows: impl IntoIterator<Item = (&'static str, f64)>) {
        for (name, value) in rows {
            self.set(name, value);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

impl IntoIterator for Rows {
    type Item = (&'static str, f64);
    type IntoIter = std::vec::IntoIter<Self::Item>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

fn sorted_ms(values_ns: impl Iterator<Item = u64>) -> Vec<f64> {
    let mut sorted: Vec<f64> = values_ns.map(|ns| ns as f64 / 1e6).collect();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The per-layer rows one traced section can produce about the workload's
/// own load. Rows it cannot produce (a server's phases on a workload
/// without a server) are left out, for the caller to fill.
pub fn workload_rows(section: &Section, tracer: &Tracer, untraced_p50_ms: Option<f64>) -> Rows {
    let mut rows = Rows::default();
    let recorder = &section.recorder;
    let ops = recorder.completed.max(1) as f64;

    if let (Some(before), Some(after)) = (&section.server_before, &section.server_after) {
        // Counts are this section's; the phase histograms cannot be
        // subtracted, so their quantiles also cover the warm-up, which ran
        // the same load.
        let requests = after.requests - before.requests;
        let batches = (after.batches - before.batches).max(1);
        rows.set(
            "serve.server.queue_wait_p50_ms",
            after.queue_wait.p50_s * 1e3,
        );
        rows.set(
            "serve.server.queue_wait_p95_ms",
            after.queue_wait.p95_s * 1e3,
        );
        rows.set("serve.server.decode_p50_ms", after.decode.p50_s * 1e3);
        rows.set("serve.server.forward_p50_ms", after.forward.p50_s * 1e3);
        rows.set("serve.server.encode_p50_ms", after.encode.p50_s * 1e3);
        rows.set("serve.server.service_p50_ms", after.p50_latency_s * 1e3);
        rows.set(
            "serve.server.mean_batch_size",
            requests as f64 / batches as f64,
        );
        rows.set("serve.server.shed", (after.shed - before.shed) as f64);
        rows.set("serve.server.errors", (after.errors - before.errors) as f64);
        rows.set(
            "serve.server.evictions",
            (after.evictions - before.evictions) as f64,
        );
        if !recorder.round_trip_ns.is_empty() {
            // What the round trip (send and wait) costs beyond the server's
            // own service time (enqueue to response encoded, queue wait
            // included): sockets, poller, waker and completion hand-off,
            // both ways.
            let round_trips = sorted_ms(recorder.round_trip_ns.iter().copied());
            rows.set(
                "serve.mux.residual_p50_ms",
                stats::percentile_sorted(&round_trips, 0.5) - after.p50_latency_s * 1e3,
            );
        }
        for (class, name) in [
            (CLASS_DEEP, "serve.client.op_p50_ms.deep"),
            (CLASS_SHALLOW, "serve.client.op_p50_ms.shallow"),
        ] {
            let of_class = sorted_ms(
                recorder
                    .samples
                    .iter()
                    .filter(|s| s.class == class)
                    .map(|s| s.latency_ns),
            );
            if !of_class.is_empty() {
                rows.set(name, stats::percentile_sorted(&of_class, 0.5));
            }
        }
    }

    let mean = |name: &str| {
        let totals = tracer.totals(name);
        (totals.spans > 0).then(|| totals.total_ns as f64 / totals.spans as f64)
    };
    if let Some(send_ns) = mean("send") {
        rows.set("serve.transport.send_us", send_ns / 1e3);
    }
    if let Some(wait_ns) = mean("wait") {
        rows.set("serve.transport.wait_ms", wait_ns / 1e6);
    }

    rows.set("serve.client.closure_ratio", tracer.closure_ratio("op"));
    let latencies = sorted_ms(recorder.samples.iter().map(|s| s.latency_ns));
    if !latencies.is_empty() {
        // Where ten samples do not lie beyond a percentile, the highest one
        // that is supported stands in for it.
        let tail = stats::highest_supported_tail_ms(&latencies);
        for (q, name) in [
            (0.99, "serve.client.op_p99_ms"),
            (0.999, "serve.client.op_p999_ms"),
        ] {
            let value = if stats::tail_supported(latencies.len(), q) {
                stats::percentile_sorted(&latencies, q)
            } else {
                tail
            };
            rows.set(name, value);
        }
        // p90 per window like the end-to-end p50; it was demoted from the
        // end-to-end set because it does not repeat within any bound the
        // driver allows (see the README's evidence).
        let p90_ms = section
            .across_windows(Better::Lower, |w| w.p90_ms)
            .expect("samples exist");
        rows.set("serve.client.op_p90_ms", p90_ms);
        if let Some(untraced_p50_ms) = untraced_p50_ms {
            let traced_p50_ms = section
                .across_windows(Better::Lower, |w| w.p50_ms)
                .expect("samples exist");
            rows.set(
                "trace.overhead_pct",
                (traced_p50_ms - untraced_p50_ms) / untraced_p50_ms * 100.0,
            );
        }
    }
    rows.set(
        "serve.client.wire_bytes_per_op",
        recorder.wire_bytes as f64 / ops,
    );

    rows.set("process.allocs_per_op", section.allocations as f64 / ops);
    rows.set(
        "process.alloc_bytes_per_op",
        section.allocated_bytes as f64 / ops,
    );
    rows.set(
        "process.ctx_switches_per_op",
        section.context_switches as f64 / ops,
    );

    let offered = recorder.attempted + recorder.backlog_end;
    rows.set("loadgen.offered_rps", offered as f64 / section.elapsed_s);
    if !recorder.send_lag_ns.is_empty() {
        let lags = sorted_ms(recorder.send_lag_ns.iter().copied());
        rows.set(
            "loadgen.send_lag_p95_ms",
            stats::percentile_sorted(&lags, 0.95),
        );
    }
    rows.set("loadgen.backlog_end", recorder.backlog_end as f64);
    rows.set("loadgen.samples", recorder.completed as f64);
    rows
}

/// The run's last line of output: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`, the metrics being exactly
/// `names`, in that order.
///
/// # Errors
///
/// A metric that is missing or not a finite number is an error, not a gap.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[(&'static str, &'static str)],
    rows: &Rows,
) -> Result<String, String> {
    let mut line = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (index, (name, unit)) in names.iter().enumerate() {
        let value = rows
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        if index > 0 {
            line.push(',');
        }
        // `{}` prints the shortest text that reads back as the same f64:
        // the value as measured, with all its digits.
        let _ = write!(line, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
    }
    line.push_str("}}");
    Ok(line)
}

pub fn end_to_end_names() -> Vec<(&'static str, &'static str)> {
    spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
}

pub fn per_layer_names() -> Vec<(&'static str, &'static str)> {
    spec::PER_LAYER
        .iter()
        .map(|&(name, unit, _)| (name, unit))
        .collect()
}

/// One line per metric for people: name, value, unit, direction and, for
/// end-to-end metrics, the regression bound.
pub fn print_table(names: &[(&'static str, &'static str)], rows: &Rows) {
    for (name, unit) in names {
        let Some(value) = rows.get(name) else {
            continue;
        };
        let (better, bound) = match spec::END_TO_END.iter().find(|m| m.name == *name) {
            Some(m) => (m.better, format!("  bound {:.0}%", m.bound * 100.0)),
            None => (
                spec::PER_LAYER
                    .iter()
                    .find(|(n, _, _)| n == name)
                    .map_or(Better::Lower, |&(_, _, better)| better),
                String::new(),
            ),
        };
        println!(
            "  {name:<34} {value:>14.4} {unit:<10} {} is better{bound}",
            better.label()
        );
    }
}

/// Self time per span name: where the traced op's time goes.
pub fn print_self_times(tracer: &Tracer) {
    let ops = tracer.totals("op").spans.max(1) as f64;
    println!("  span          spans    mean_us    self_us/op   count/op");
    for (name, totals) in tracer.all_totals() {
        println!(
            "  {name:<12} {:>6} {:>10.2} {:>13.2} {:>10.1}",
            totals.spans,
            totals.total_ns as f64 / totals.spans.max(1) as f64 / 1e3,
            totals.self_ns as f64 / ops / 1e3,
            totals.count as f64 / ops,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn full_rows(names: &[(&'static str, &'static str)]) -> Rows {
        let mut rows = Rows::default();
        for (index, (name, _)) in names.iter().enumerate() {
            rows.set(name, 0.1 + index as f64);
        }
        rows
    }

    /// The contract between this crate and the driver: the names, units,
    /// directions and bounds in `BENCHMARK.json` are the ones in `spec`, and
    /// the result line carries exactly those names.
    #[test]
    fn result_lines_carry_exactly_the_metrics_of_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let benchmark = json::parse(&text).expect("BENCHMARK.json parses");

        let declared = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            benchmark
                .get(key)
                .and_then(|v| v.as_array())
                .unwrap_or_else(|| panic!("{key} is an array"))
                .iter()
                .map(|m| {
                    let text = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (
                        text("name"),
                        text("unit"),
                        text("better"),
                        m.get("bound").and_then(|b| b.as_f64()),
                    )
                })
                .collect()
        };
        let end_to_end: Vec<_> = spec::END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.label().to_string(),
                    Some(m.bound),
                )
            })
            .collect();
        assert_eq!(declared("end_to_end"), end_to_end);
        let per_layer: Vec<_> = spec::PER_LAYER
            .iter()
            .map(|&(name, unit, better)| {
                (
                    name.to_string(),
                    unit.to_string(),
                    better.label().to_string(),
                    None,
                )
            })
            .collect();
        assert_eq!(declared("per_layer"), per_layer);

        let workloads: Vec<(String, String)> = benchmark
            .get("workloads")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|w| {
                let text = |k: &str| w.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                (text("name"), text("why"))
            })
            .collect();
        let specified: Vec<(String, String)> = spec::WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, specified);
        assert_eq!(
            benchmark.get("run_seconds").and_then(|v| v.as_f64()),
            Some(spec::DEFAULT_SECONDS)
        );

        for names in [end_to_end_names(), per_layer_names()] {
            let line = result_line(true, 1000, 0, &names, &full_rows(&names)).unwrap();
            let result = json::parse(&line).expect("the result line parses");
            let keys: Vec<&str> = result
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct").unwrap().as_bool(), Some(true));
            assert_eq!(result.get("attempted").unwrap().as_f64(), Some(1000.0));
            let metrics = result.get("metrics").unwrap().as_object().unwrap();
            let printed: Vec<(&str, &str)> = metrics
                .iter()
                .map(|(name, m)| (name.as_str(), m.get("unit").unwrap().as_str().unwrap()))
                .collect();
            assert_eq!(printed, names);
            assert!(metrics
                .iter()
                .all(|(_, m)| m.get("value").unwrap().as_f64().is_some()));
        }
    }

    #[test]
    fn a_missing_or_non_finite_metric_is_an_error() {
        let names = end_to_end_names();
        let mut rows = full_rows(&names[1..]);
        assert!(result_line(true, 1, 0, &names, &rows)
            .unwrap_err()
            .contains("op_p50_ms"));
        rows.set("op_p50_ms", f64::NAN);
        assert!(result_line(true, 1, 0, &names, &rows).is_err());
    }
}
