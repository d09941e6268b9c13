//! `fanin_open` and `fanin_saturate`: many edges' pre-encoded frames
//! arriving at one server, from one generator thread over two non-blocking
//! sockets.
//!
//! Open loop: arrivals are due on a Poisson schedule drawn from the seed at
//! a fixed rate, whether or not earlier requests have been answered, and an
//! op's latency runs from its *due* time — a generator or server stall
//! shows as latency of every request that was due meanwhile, instead of
//! hiding as a lower offered rate. Closed loop: a fixed number of requests
//! is kept in flight, each new one due the moment an earlier one completed.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::time::Duration;

use mtlsplit_serve::{
    Frame, FrameAssembler, OpCode, Received, ServeMetrics, DEFAULT_MAX_BODY_BYTES,
};
use mtlsplit_tensor::StdRng;

use crate::fixtures::{self, CLASS_SHALLOW, FRAME_POOL};
use crate::run::{Recorder, Workload};
use crate::spans::{SpanId, Tracer};
use crate::spec::Load;
use crate::sys;

/// How long after the section ends in-flight requests may still complete.
const DRAIN_NS: u64 = 2_000_000_000;
/// Longest sleep when no arrival is scheduled (closed loop, draining).
const IDLE_WAIT: Duration = Duration::from_millis(5);

/// A request between being sent and being answered.
#[derive(Clone, Copy)]
struct InFlight {
    due_ns: u64,
    begun_ns: u64,
    op: SpanId,
    wait: SpanId,
}

pub struct FaninLoad {
    fixture: fixtures::Fanin,
    load: Load,
    /// Draws the open loop's exponential inter-arrival gaps.
    arrivals: StdRng,
    assemblers: [FrameAssembler; 2],
    read_buffer: Vec<u8>,
    /// Indexed like the frame pool: a frame's id is its slot.
    in_flight: Vec<Option<InFlight>>,
    next_frame: usize,
    /// Test hook: stall the generator once, at this offset, for this long.
    #[cfg(test)]
    pub stall: Option<(u64, Duration)>,
}

impl FaninLoad {
    pub fn setup(seed: u64, load: Load) -> Result<Self, String> {
        let fixture = fixtures::Fanin::start(seed)?;
        for connection in &fixture.connections {
            connection
                .set_nonblocking(true)
                .map_err(|e| format!("set_nonblocking: {e}"))?;
        }
        Ok(Self {
            fixture,
            load,
            arrivals: StdRng::seed_from(seed ^ 0x6172_7269_7661_6c73),
            assemblers: [
                FrameAssembler::new(DEFAULT_MAX_BODY_BYTES),
                FrameAssembler::new(DEFAULT_MAX_BODY_BYTES),
            ],
            read_buffer: vec![0; 64 * 1024],
            in_flight: vec![None; FRAME_POOL],
            next_frame: 0,
            #[cfg(test)]
            stall: None,
        })
    }

    pub fn fixture(&self) -> &fixtures::Fanin {
        &self.fixture
    }

    /// The next exponential inter-arrival gap at `rps`, in ns.
    fn arrival_gap_ns(&mut self, rps: f64) -> u64 {
        // 1 - uniform() lies in (0, 1], so the logarithm is finite.
        let u = 1.0 - f64::from(self.arrivals.uniform());
        (-u.ln() / rps * 1e9) as u64
    }

    /// Writes one whole frame to a non-blocking socket.
    fn write_frame(&self, connection: usize, bytes: &[u8]) -> Result<(), String> {
        let mut stream = &self.fixture.connections[connection];
        let mut written = 0;
        while written < bytes.len() {
            match stream.write(&bytes[written..]) {
                Ok(0) => return Err("the server closed the connection".to_string()),
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    let [a, b] = &self.fixture.connections;
                    sys::wait_ready([a, b], true, Duration::from_millis(1));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        Ok(())
    }

    /// Sends the next frame of the pool for an arrival that was due at
    /// `due_ns`. Returns `false` when the pool's next slot is still in
    /// flight (the arrival stays queued).
    fn send_next(
        &mut self,
        due_ns: u64,
        tracer: &mut Tracer,
        recorder: &mut Recorder,
    ) -> Result<bool, String> {
        let slot = self.next_frame;
        if self.in_flight[slot].is_some() {
            return Ok(false);
        }
        self.next_frame = (slot + 1) % FRAME_POOL;
        let id = slot as u64 + 1;
        let lane = slot as u32 + 1;
        let connection = usize::from(self.fixture.frames[slot].class == CLASS_SHALLOW);
        let bytes = self.fixture.frames[slot].bytes.len() as u64;

        let begun_ns = tracer.now_ns();
        let op = tracer.begin_at("op", SpanId::NONE, id, lane, due_ns);
        let lag = tracer.begin_at("lag", op, id, lane, due_ns);
        tracer.end_at(lag, 0, begun_ns);
        let send = tracer.begin_at("send", op, id, 0, begun_ns);
        self.write_frame(connection, &self.fixture.frames[slot].bytes)?;
        let sent_ns = tracer.now_ns();
        tracer.end_at(send, bytes, sent_ns);
        let wait = tracer.begin_at("wait", op, id, lane, sent_ns);

        recorder.attempted += 1;
        recorder.wire_bytes += bytes;
        recorder.lag(begun_ns.saturating_sub(due_ns));
        self.in_flight[slot] = Some(InFlight {
            due_ns,
            begun_ns,
            op,
            wait,
        });
        Ok(true)
    }

    /// Checks one response against the local reference and records the op.
    fn handle(
        &mut self,
        received: Received,
        read_ns: u64,
        start_ns: u64,
        tracer: &mut Tracer,
        recorder: &mut Recorder,
    ) -> Result<(), String> {
        let frame: Frame = match received {
            Received::Frame(frame) => frame,
            Received::Rejected { request_id, error } => {
                return Err(format!("response {request_id} was rejected: {error}"));
            }
        };
        let slot = (frame.request_id as usize).wrapping_sub(1);
        let Some(request) = self.in_flight.get_mut(slot).and_then(Option::take) else {
            return Err(format!(
                "{:?} frame for request {}, which is not in flight",
                frame.op, frame.request_id
            ));
        };
        tracer.end_at(request.wait, frame.encoded_len() as u64, read_ns);
        let check = tracer.begin_at("check", request.op, frame.request_id, 0, read_ns);
        let expected = &self.fixture.frames[slot];
        recorder.wire_bytes += frame.encoded_len() as u64;
        let served = frame.op == OpCode::InferResponse;
        let correct = served && frame.body == expected.expected_body;
        let done_ns = tracer.now_ns();
        if !served {
            // A shed or errored request: it got an answer, not a result.
            let (code, message) = frame.error_info();
            recorder.fail(|| format!("request {}: {code:?} {message}", frame.request_id));
        } else if !correct {
            recorder.wrong_output(|| {
                format!("frame {slot}: served outputs differ from the local reference")
            });
        } else {
            recorder.complete(done_ns - start_ns, done_ns - request.due_ns, expected.class);
            recorder.round_trip(read_ns - request.begun_ns);
        }
        tracer.end_at(check, 1, done_ns);
        tracer.end_at(request.op, 1, done_ns);
        Ok(())
    }

    /// Reads whatever both sockets hold and handles every complete frame.
    /// Returns how many responses were handled.
    fn read_responses(
        &mut self,
        start_ns: u64,
        tracer: &mut Tracer,
        recorder: &mut Recorder,
    ) -> Result<usize, String> {
        let mut handled = 0;
        for connection in 0..2 {
            loop {
                let mut stream = &self.fixture.connections[connection];
                let read = match stream.read(&mut self.read_buffer) {
                    Ok(0) => return Err("the server closed the connection".to_string()),
                    Ok(n) => n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) => return Err(format!("read: {e}")),
                };
                let read_ns = tracer.now_ns();
                self.assemblers[connection].push(&self.read_buffer[..read]);
                while let Some(received) = self.assemblers[connection]
                    .next_frame()
                    .map_err(|e| format!("response stream: {e}"))?
                {
                    self.handle(received, read_ns, start_ns, tracer, recorder)?;
                    handled += 1;
                }
                if read < self.read_buffer.len() {
                    break;
                }
            }
        }
        Ok(handled)
    }
}

impl Workload for FaninLoad {
    fn run(
        &mut self,
        duration: Duration,
        tracer: &mut Tracer,
        recorder: &mut Recorder,
    ) -> Result<(), String> {
        sys::tighten_timer_slack();
        let start_ns = tracer.now_ns();
        let end_ns = start_ns + duration.as_nanos() as u64;
        // Arrivals that are due and not yet sent, oldest first.
        let mut due: VecDeque<u64> = VecDeque::with_capacity(FRAME_POOL);
        let mut next_arrival_ns = start_ns;
        if let Load::ClosedWindow { in_flight } = self.load {
            due.extend(std::iter::repeat_n(start_ns, in_flight.min(FRAME_POOL)));
        }
        let mut outstanding = 0usize;
        let mut sending = true;

        loop {
            let now_ns = tracer.now_ns();
            #[cfg(test)]
            if let Some((at_ns, pause)) = self.stall {
                if now_ns - start_ns >= at_ns {
                    self.stall = None;
                    std::thread::sleep(pause);
                    continue;
                }
            }
            if sending && now_ns >= end_ns {
                // The offered load ends here; what was due and is unsent is
                // the backlog, what is in flight may still complete.
                sending = false;
                recorder.backlog_end = due.len() as u64;
                due.clear();
            }
            if sending {
                if let Load::Open { rps } = self.load {
                    while next_arrival_ns <= now_ns {
                        due.push_back(next_arrival_ns);
                        next_arrival_ns += self.arrival_gap_ns(rps);
                    }
                }
                while let Some(&due_ns) = due.front() {
                    if !self.send_next(due_ns, tracer, recorder)? {
                        break;
                    }
                    due.pop_front();
                    outstanding += 1;
                }
            }

            let handled = self.read_responses(start_ns, tracer, recorder)?;
            outstanding -= handled;
            if sending && matches!(self.load, Load::ClosedWindow { .. }) {
                let freed_ns = tracer.now_ns();
                due.extend(std::iter::repeat_n(freed_ns, handled));
            }

            if !sending {
                if outstanding == 0 {
                    return Ok(());
                }
                if now_ns > end_ns + DRAIN_NS {
                    for request in self.in_flight.iter_mut().filter_map(Option::take) {
                        recorder.fail(|| "no response within the drain time".to_string());
                        tracer.end(request.wait, 0);
                        tracer.end(request.op, 0);
                    }
                    return Ok(());
                }
            }
            if sending && !due.is_empty() && self.in_flight[self.next_frame].is_none() {
                continue;
            }
            // Sleep until a response arrives or the next arrival is due.
            let wait = if sending && matches!(self.load, Load::Open { .. }) {
                Duration::from_nanos(next_arrival_ns.min(end_ns).saturating_sub(tracer.now_ns()))
            } else {
                IDLE_WAIT
            };
            let [a, b] = &self.fixture.connections;
            sys::wait_ready([a, b], false, wait);
        }
    }

    fn server_metrics(&self) -> Option<ServeMetrics> {
        Some(self.fixture.served.server.metrics())
    }

    fn stop(self: Box<Self>) {
        self.fixture.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The open loop must not hide a stall: while the generator sleeps,
    /// arrivals keep falling due, and each one's latency runs from its due
    /// time, so the stall shows in the latencies and the offered count stays
    /// what the schedule says.
    #[test]
    fn open_loop_counts_latency_from_the_due_time_across_a_stall() {
        fixtures::pin_this_thread();
        let rps = 2_000.0;
        let mut load = FaninLoad::setup(11, Load::Open { rps }).unwrap();
        load.stall = Some((100_000_000, Duration::from_millis(60)));
        let mut tracer = Tracer::new(false);
        let mut recorder = Recorder::new(5.0, true);
        load.run(Duration::from_millis(400), &mut tracer, &mut recorder)
            .unwrap();
        Box::new(load).stop();

        assert_eq!(
            recorder.failed + recorder.incorrect,
            0,
            "{:?}",
            recorder.first_problem
        );
        // Poisson arrivals: 800 expected, standard deviation 28.
        let offered = recorder.attempted + recorder.backlog_end;
        assert!((650..=950).contains(&offered), "offered {offered}");
        // About 120 arrivals fell due during the 60 ms stall; the first of
        // them waited almost all of it, the average one half of it.
        let stalled: Vec<u64> = recorder
            .samples
            .iter()
            .map(|s| s.latency_ns)
            .filter(|&l| l >= 10_000_000)
            .collect();
        assert!(
            stalled.len() >= 60,
            "only {} ops saw the stall",
            stalled.len()
        );
        assert!(*stalled.iter().max().unwrap() >= 50_000_000);
        let lag_max = *recorder.send_lag_ns.iter().max().unwrap();
        assert!(
            lag_max >= 50_000_000,
            "send lag must report the stall, got {lag_max}"
        );
    }

    #[test]
    fn closed_window_keeps_the_mix_and_checks_every_response() {
        fixtures::pin_this_thread();
        let mut load = FaninLoad::setup(12, Load::ClosedWindow { in_flight: 16 }).unwrap();
        let mut tracer = Tracer::new(true);
        let mut recorder = Recorder::new(5.0, true);
        load.run(Duration::from_millis(300), &mut tracer, &mut recorder)
            .unwrap();
        let server = load.server_metrics().unwrap();
        Box::new(load).stop();

        assert_eq!(
            recorder.failed + recorder.incorrect,
            0,
            "{:?}",
            recorder.first_problem
        );
        assert_eq!(recorder.completed, recorder.attempted);
        let shallow = recorder
            .samples
            .iter()
            .filter(|s| s.class == CLASS_SHALLOW)
            .count();
        let share = shallow as f64 / recorder.samples.len() as f64;
        assert!((0.2..=0.3).contains(&share), "shallow share {share}");
        assert!(server.mean_batch_size > 1.0, "16 in flight must coalesce");
        // Every op's children cover it: lag, send, wait and check are
        // contiguous by construction.
        assert_eq!(tracer.totals("op").spans, recorder.attempted);
        assert!(tracer.closure_ratio("op") > 0.99);
    }
}
