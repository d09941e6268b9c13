//! What the four workloads share: the recorder an op reports into, the
//! workload interface, and the timed section that turns a recording into
//! the end-to-end metrics.

use std::time::{Duration, Instant};

use mtlsplit_serve::ServeMetrics;

use crate::spans::Tracer;
use crate::spec::{self, Better};
use crate::stats::{self, Sample};
use crate::{procfs, ALLOCATOR};

/// What one window of a section saw.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Position in the section: completion time / window length.
    pub index: u64,
    pub ops: u64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    /// Process CPU time spent while this window was open.
    pub cpu_ms: f64,
}

/// Everything the ops of one section report.
///
/// Latencies are folded into per-window percentiles as each window closes,
/// so an untraced run's memory does not grow with the number of ops — a
/// faster program must not read as a bigger one in `peak_rss_mb`. A
/// *detailed* recorder (traced runs) also keeps every sample.
pub struct Recorder {
    limit_ns: u64,
    detailed: bool,
    /// Latencies of the window being filled, in ns.
    open: Vec<u64>,
    open_index: u64,
    cpu_at_open_ms: f64,
    pub windows: Vec<Window>,
    /// Ops that completed with a correct response.
    pub completed: u64,
    /// Completed ops whose latency was inside the workload's limit.
    pub in_limit: u64,
    /// Ops started (sent, or begun in-process).
    pub attempted: u64,
    /// Ops that ended in an error, were shed, or were never answered.
    pub failed: u64,
    /// Ops whose output differed from the local reference.
    pub incorrect: u64,
    /// The first failure or wrong output, for the error message.
    pub first_problem: Option<String>,
    /// Open loop: arrivals that were due before the section ended and had
    /// not been sent by then.
    pub backlog_end: u64,
    /// Request plus response bytes on the wire, frames included.
    pub wire_bytes: u64,
    /// Detailed only: every completed op.
    pub samples: Vec<Sample>,
    /// Detailed only: how late after its due time each op was started.
    pub send_lag_ns: Vec<u64>,
    /// Detailed only: first byte written to response read, per op.
    pub round_trip_ns: Vec<u64>,
}

impl Recorder {
    pub fn new(limit_ms: f64, detailed: bool) -> Self {
        Self {
            limit_ns: (limit_ms * 1e6) as u64,
            detailed,
            open: Vec::new(),
            open_index: 0,
            cpu_at_open_ms: procfs::cpu_ms().unwrap_or(f64::NAN),
            windows: Vec::new(),
            completed: 0,
            in_limit: 0,
            attempted: 0,
            failed: 0,
            incorrect: 0,
            first_problem: None,
            backlog_end: 0,
            wire_bytes: 0,
            samples: Vec::new(),
            send_lag_ns: Vec::new(),
            round_trip_ns: Vec::new(),
        }
    }

    /// Records one op that completed correctly `done_ns` after the section
    /// started, `latency_ns` after it was due.
    pub fn complete(&mut self, done_ns: u64, latency_ns: u64, class: u8) {
        let index = done_ns / spec::WINDOW_NS;
        if index != self.open_index {
            self.close_window();
            self.open_index = index;
        }
        self.open.push(latency_ns);
        self.completed += 1;
        self.in_limit += u64::from(latency_ns <= self.limit_ns);
        if self.detailed {
            self.samples.push(Sample { latency_ns, class });
        }
    }

    /// Folds the open window into its percentiles; once a second, so the
    /// sort and the `/proc` read cost the op that triggers them about a
    /// millisecond.
    pub fn close_window(&mut self) {
        let cpu_ms = procfs::cpu_ms().unwrap_or(f64::NAN);
        if !self.open.is_empty() {
            self.open.sort_unstable();
            let at = |q: f64| {
                let rank = (q * self.open.len() as f64).ceil() as usize;
                self.open[rank.clamp(1, self.open.len()) - 1] as f64 / 1e6
            };
            self.windows.push(Window {
                index: self.open_index,
                ops: self.open.len() as u64,
                p50_ms: at(0.50),
                p90_ms: at(0.90),
                cpu_ms: cpu_ms - self.cpu_at_open_ms,
            });
            self.open.clear();
        }
        self.cpu_at_open_ms = cpu_ms;
    }

    pub fn lag(&mut self, lag_ns: u64) {
        if self.detailed {
            self.send_lag_ns.push(lag_ns);
        }
    }

    pub fn round_trip(&mut self, round_trip_ns: u64) {
        if self.detailed {
            self.round_trip_ns.push(round_trip_ns);
        }
    }

    pub fn fail(&mut self, problem: impl FnOnce() -> String) {
        self.failed += 1;
        self.first_problem.get_or_insert_with(problem);
    }

    pub fn wrong_output(&mut self, problem: impl FnOnce() -> String) {
        self.incorrect += 1;
        self.first_problem.get_or_insert_with(problem);
    }
}

/// One workload, set up and ready to run ops.
pub trait Workload {
    /// Runs ops for `duration`, reporting each into `recorder` and, when
    /// `tracer` is enabled, recording a span around every call into a layer.
    /// Sample times are relative to the start of this call.
    ///
    /// # Errors
    ///
    /// Only when the workload cannot go on (a connection died); a single
    /// failed op is reported through the recorder.
    fn run(
        &mut self,
        duration: Duration,
        tracer: &mut Tracer,
        recorder: &mut Recorder,
    ) -> Result<(), String>;

    /// A snapshot of the workload's server, if it has one.
    fn server_metrics(&self) -> Option<ServeMetrics> {
        None
    }

    /// Mean training loss over the most recent steps, if the workload trains.
    fn final_loss(&self) -> Option<f64> {
        None
    }

    /// Correctness that only shows over the whole run (the loss went down).
    fn verdict(&self) -> Result<(), String> {
        Ok(())
    }

    /// Stops every thread the workload started and waits for it.
    fn stop(self: Box<Self>);
}

/// One timed section: the recording plus the process accounting around it.
pub struct Section {
    pub recorder: Recorder,
    pub elapsed_s: f64,
    /// Windows that lay wholly inside the section's duration.
    full_windows: u64,
    pub allocations: u64,
    pub allocated_bytes: u64,
    pub context_switches: u64,
    pub server_before: Option<ServeMetrics>,
    pub server_after: Option<ServeMetrics>,
}

/// Runs the workload for `duration` and accounts for it.
pub fn timed_section(
    workload: &mut dyn Workload,
    duration: Duration,
    limit_ms: f64,
    tracer: &mut Tracer,
) -> Result<Section, String> {
    let mut recorder = Recorder::new(limit_ms, tracer.enabled());
    let server_before = workload.server_metrics();
    let switches_before = procfs::context_switches()?;
    let (allocations_before, bytes_before) = ALLOCATOR.counts();
    let start = Instant::now();
    workload.run(duration, tracer, &mut recorder)?;
    let elapsed_s = start.elapsed().as_secs_f64();
    recorder.close_window();
    let (allocations_after, bytes_after) = ALLOCATOR.counts();
    Ok(Section {
        recorder,
        elapsed_s,
        full_windows: duration.as_nanos() as u64 / spec::WINDOW_NS,
        allocations: allocations_after - allocations_before,
        allocated_bytes: bytes_after - bytes_before,
        context_switches: procfs::context_switches()?.saturating_sub(switches_before),
        server_before,
        server_after: workload.server_metrics(),
    })
}

impl Section {
    /// The quartile on the worse side, over the section's full windows, of
    /// `value`: three windows in four were at least this good.
    ///
    /// The reference host runs at two speeds — boosted for a few seconds at
    /// a time, a tenth faster, in anything up to half of a run's windows —
    /// so the median window lands on either level depending on the run,
    /// while the worse-side quartile holds the sustained level. A burst
    /// from a neighbour that fills fewer than a quarter of the windows does
    /// not move it; a real regression moves every window. (The trailing
    /// partial window counts only when the section is shorter than one
    /// window.) `None` when no op completed.
    pub fn across_windows(&self, better: Better, value: impl Fn(&Window) -> f64) -> Option<f64> {
        let windows = &self.recorder.windows;
        let mut values: Vec<f64> = windows
            .iter()
            .filter(|w| w.index < self.full_windows)
            .map(&value)
            .collect();
        if values.is_empty() {
            values = windows.iter().map(&value).collect();
        }
        values.sort_by(f64::total_cmp);
        let q = match better {
            Better::Lower => 0.75,
            Better::Higher => 0.25,
        };
        (!values.is_empty()).then(|| stats::percentile_sorted(&values, q))
    }

    /// Share of the ops *attempted* that completed inside the latency
    /// limit: a failed, shed or unanswered op misses it.
    pub fn in_limit_share(&self) -> f64 {
        self.recorder.in_limit as f64 / self.recorder.attempted.max(1) as f64
    }

    /// The four end-to-end metrics a section yields by itself (`setup_s`
    /// and `peak_rss_mb` belong to the whole process).
    pub fn end_to_end(&self) -> Result<Vec<(&'static str, f64)>, String> {
        let window_s = spec::WINDOW_NS as f64 / 1e9;
        let metric = |better: Better, value: &dyn Fn(&Window) -> f64| {
            self.across_windows(better, value)
                .ok_or_else(|| "the timed section completed no op".to_string())
        };
        Ok(vec![
            ("op_p50_ms", metric(Better::Lower, &|w| w.p50_ms)?),
            (
                "ops_per_s",
                metric(Better::Higher, &|w| w.ops as f64 / window_s)?,
            ),
            (
                "cpu_ms_per_op",
                metric(Better::Lower, &|w| w.cpu_ms / w.ops as f64)?,
            ),
            ("in_limit_share", self.in_limit_share()),
        ])
    }

    /// The first reason this section is not a clean pass, if any.
    pub fn problem(&self) -> Option<String> {
        let r = &self.recorder;
        if r.failed == 0 && r.incorrect == 0 && r.completed > 0 {
            return None;
        }
        Some(format!(
            "{} attempted, {} completed, {} failed, {} wrong: {}",
            r.attempted,
            r.completed,
            r.failed,
            r.incorrect,
            r.first_problem.as_deref().unwrap_or("no op completed")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn section_of(recorder: Recorder, full_windows: u64) -> Section {
        Section {
            recorder,
            elapsed_s: full_windows as f64,
            full_windows,
            allocations: 0,
            allocated_bytes: 0,
            context_switches: 0,
            server_before: None,
            server_after: None,
        }
    }

    /// Five windows of 100 ops at 1 ms; a burst makes every op of the third
    /// window take 50 ms. A whole-run p90 would report 50 ms; the windowed
    /// estimator reports the typical window.
    #[test]
    fn windowed_percentile_ignores_one_bad_window() {
        let mut recorder = Recorder::new(5.0, true);
        for window in 0..5u64 {
            for i in 0..100u64 {
                let latency_ns = if window == 2 { 50_000_000 } else { 1_000_000 };
                recorder.attempted += 1;
                recorder.complete(window * spec::WINDOW_NS + i, latency_ns, 0);
            }
        }
        recorder.close_window();
        let section = section_of(recorder, 5);
        assert_eq!(section.recorder.windows.len(), 5);
        assert_eq!(
            section.across_windows(Better::Lower, |w| w.p90_ms),
            Some(1.0)
        );
        assert_eq!(
            section.across_windows(Better::Higher, |w| w.ops as f64),
            Some(100.0)
        );
        let all: Vec<f64> = section
            .recorder
            .samples
            .iter()
            .map(|s| s.latency_ns as f64 / 1e6)
            .collect();
        assert_eq!(stats::percentile(&all, 0.90), 50.0);
        // The burst still counts where it should: 100 of 500 ops missed 5 ms.
        assert_eq!(section.in_limit_share(), 0.8);
    }

    /// A regression that is in every window moves the estimate, and the
    /// trailing partial window (ops that completed while draining) does not.
    #[test]
    fn windowed_percentile_sees_a_regression_in_every_window() {
        let mut recorder = Recorder::new(5.0, false);
        for i in 0..400u64 {
            let done_ns = i * (spec::WINDOW_NS / 100);
            recorder.complete(done_ns, 2_000_000 + (i % 10) * 100_000, 0);
        }
        recorder.complete(4 * spec::WINDOW_NS + 5, 900_000_000, 0);
        recorder.close_window();
        let section = section_of(recorder, 4);
        // Each full window holds ten ops of each latency 2.0 .. 2.9 ms.
        assert_eq!(
            section.across_windows(Better::Lower, |w| w.p50_ms),
            Some(2.4)
        );
        assert_eq!(
            section.across_windows(Better::Lower, |w| w.p90_ms),
            Some(2.8)
        );
        assert!(
            section.recorder.samples.is_empty(),
            "not detailed: no samples kept"
        );
        assert_eq!(section.recorder.completed, 401);
    }

    #[test]
    fn a_section_with_no_completed_op_is_a_problem() {
        let mut recorder = Recorder::new(5.0, false);
        recorder.attempted = 3;
        recorder.fail(|| "shed".to_string());
        recorder.close_window();
        let section = section_of(recorder, 1);
        assert!(section.end_to_end().is_err());
        assert!(section.problem().unwrap().contains("shed"));
        assert_eq!(section.in_limit_share(), 0.0);
    }
}
