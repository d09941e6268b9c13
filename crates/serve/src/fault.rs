//! Deterministic fault injection for the serving transport.
//!
//! A [`FaultyTransport`] wraps any [`Transport`] and perturbs it with the
//! failure modes a real wireless link exhibits — dropped connections,
//! injected latency, corrupted bytes, truncated frames and refused
//! reconnects — all driven by one seeded [`StdRng`], so a given
//! [`FaultPlan`] replays the *exact same* fault sequence on every run.
//! Tests and benches use this to exercise every client recovery path
//! reproducibly; a flaky-network bug becomes a fixed seed.
//!
//! Faults are injected at the frame boundary, mirroring where a real
//! network bites:
//!
//! * **Drop** — the "connection" dies before the request is sent. The
//!   request errors and every later call fails until
//!   [`Transport::reconnect`] succeeds.
//! * **Delay** — the response arrives intact but late (a real
//!   `thread::sleep`, so client-side deadlines genuinely fire).
//! * **Corrupt** — the response arrives with one flipped body/header byte;
//!   the CRC check turns that into a typed
//!   [`ChecksumMismatch`](crate::ServeError::ChecksumMismatch). The stream
//!   stays usable: corruption is a recoverable, in-sync failure.
//! * **Truncate** — the response is cut short mid-frame, which
//!   desynchronizes the stream; the connection is dropped with it, exactly
//!   like a peer vanishing mid-write.
//! * **Refuse** — a reconnect attempt is rejected, as a briefly
//!   unreachable server would.
//!
//! Plans are built directly or parsed from a spec string (see
//! [`FaultPlan::parse`]) such as `drop-heavy:17`, which CI uses to pin
//! three named fault seeds.

use std::time::Duration;

use mtlsplit_obs as obs;
use mtlsplit_tensor::StdRng;

use crate::error::{Result, ServeError};
use crate::frame::Frame;
use crate::transport::Transport;

/// Which faults to inject and how often, plus the seed that makes the
/// sequence reproducible.
///
/// Rates are probabilities in `[0, 1]` evaluated per request (drop, delay,
/// corrupt, truncate) or per reconnect attempt (refuse). All zero — see
/// [`FaultPlan::clean`] — makes the wrapper a transparent pass-through.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the deterministic fault sequence.
    pub seed: u64,
    /// Probability the connection dies before a request is sent.
    pub drop_rate: f32,
    /// Probability a response is delayed by [`FaultPlan::delay_ms`].
    pub delay_rate: f32,
    /// Injected delay in milliseconds (a real sleep).
    pub delay_ms: f32,
    /// Probability one response byte is flipped (CRC catches it).
    pub corrupt_rate: f32,
    /// Probability the response is truncated mid-frame (desynchronizing).
    pub truncate_rate: f32,
    /// Probability a reconnect attempt is refused.
    pub refuse_rate: f32,
}

impl FaultPlan {
    /// No faults at all: the wrapper forwards every request untouched.
    pub fn clean() -> Self {
        Self {
            seed: 0,
            drop_rate: 0.0,
            delay_rate: 0.0,
            delay_ms: 0.0,
            corrupt_rate: 0.0,
            truncate_rate: 0.0,
            refuse_rate: 0.0,
        }
    }

    /// Connections die often and sometimes refuse to come back — the
    /// handover/outage regime.
    pub fn drop_heavy(seed: u64) -> Self {
        Self {
            seed,
            drop_rate: 0.25,
            delay_rate: 0.05,
            delay_ms: 1.0,
            corrupt_rate: 0.02,
            truncate_rate: 0.05,
            refuse_rate: 0.2,
        }
    }

    /// Responses frequently stall — the congested-link regime that
    /// exercises deadlines and fallback.
    pub fn delay_heavy(seed: u64) -> Self {
        Self {
            seed,
            drop_rate: 0.02,
            delay_rate: 0.35,
            delay_ms: 4.0,
            corrupt_rate: 0.02,
            truncate_rate: 0.02,
            refuse_rate: 0.05,
        }
    }

    /// Bytes flip and frames tear often — the noisy-radio regime that
    /// exercises CRC rejection and resync.
    pub fn corrupt_heavy(seed: u64) -> Self {
        Self {
            seed,
            drop_rate: 0.02,
            delay_rate: 0.05,
            delay_ms: 1.0,
            corrupt_rate: 0.25,
            truncate_rate: 0.10,
            refuse_rate: 0.05,
        }
    }

    /// A mildly lossy link — roughly 1% corruption plus occasional 5 ms
    /// stalls.
    pub fn light(seed: u64) -> Self {
        Self {
            seed,
            drop_rate: 0.005,
            delay_rate: 0.05,
            delay_ms: 5.0,
            corrupt_rate: 0.01,
            truncate_rate: 0.005,
            refuse_rate: 0.05,
        }
    }

    /// Parses a plan spec of the form `name` or `name:seed`, where `name`
    /// is one of `clean`, `drop-heavy`, `delay-heavy`, `corrupt-heavy` or
    /// `light`. CI sets specs like `drop-heavy:17` through the
    /// `MTLSPLIT_FAULT_PLAN` environment variable.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Malformed`] on an unknown name or a
    /// non-numeric seed.
    pub fn parse(spec: &str) -> Result<Self> {
        let (name, seed) = match spec.split_once(':') {
            Some((name, seed_text)) => {
                let seed = seed_text
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| ServeError::Malformed {
                        what: format!("fault plan seed {seed_text:?} is not a u64"),
                    })?;
                (name.trim(), seed)
            }
            None => (spec.trim(), 0),
        };
        match name {
            "clean" => Ok(Self::clean()),
            "drop-heavy" => Ok(Self::drop_heavy(seed)),
            "delay-heavy" => Ok(Self::delay_heavy(seed)),
            "corrupt-heavy" => Ok(Self::corrupt_heavy(seed)),
            "light" => Ok(Self::light(seed)),
            other => Err(ServeError::Malformed {
                what: format!(
                    "unknown fault plan {other:?} (expected clean, drop-heavy, \
                     delay-heavy, corrupt-heavy or light)"
                ),
            }),
        }
    }

    /// Returns this plan reseeded — handy for running one preset under
    /// several seeds.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Counts of every fault a [`FaultyTransport`] has injected so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Requests that found or left the connection dead.
    pub drops: u64,
    /// Responses delivered late.
    pub delays: u64,
    /// Responses with a flipped byte.
    pub corruptions: u64,
    /// Responses cut short mid-frame.
    pub truncations: u64,
    /// Reconnect attempts refused.
    pub refusals: u64,
    /// Requests forwarded without any fault.
    pub clean: u64,
}

impl FaultStats {
    /// Total faults injected (everything except clean forwards).
    pub fn total_faults(&self) -> u64 {
        self.drops + self.delays + self.corruptions + self.truncations + self.refusals
    }
}

/// A [`Transport`] decorator that deterministically injects faults.
///
/// See the [module docs](self) for the fault model. The wrapper keeps its
/// own notion of connection liveness: a drop or truncation kills the
/// "connection" and every subsequent request fails fast with a
/// `NotConnected` I/O error until [`Transport::reconnect`] succeeds — the
/// same contract a real dead socket presents to the client's retry loop.
pub struct FaultyTransport<T: Transport> {
    inner: T,
    plan: FaultPlan,
    rng: StdRng,
    connected: bool,
    stats: FaultStats,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner` under `plan`. The fault sequence is fully determined
    /// by `plan.seed`.
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        let rng = StdRng::seed_from(plan.seed ^ 0xFA_07_FA_07_FA_07_FA_07);
        Self {
            inner,
            plan,
            rng,
            connected: true,
            stats: FaultStats::default(),
        }
    }

    /// What has been injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// The plan driving this wrapper.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether the simulated connection is currently alive.
    pub fn is_connected(&self) -> bool {
        self.connected
    }

    /// Consumes the wrapper, returning the transport underneath.
    pub fn into_inner(self) -> T {
        self.inner
    }

    fn dead_connection() -> ServeError {
        ServeError::Io(std::io::Error::new(
            std::io::ErrorKind::NotConnected,
            "fault injection: connection is down",
        ))
    }

    /// Flips one deterministic byte of `encoded`, avoiding the body-length
    /// field (bytes 14..18): corrupting the length would turn a recoverable
    /// CRC failure into a desynchronized stream, which is the *truncate*
    /// fault's job.
    fn corrupt_bytes(&mut self, encoded: &mut [u8]) {
        let skip = 14..18;
        let index = loop {
            let candidate = self.rng.below(encoded.len());
            if !skip.contains(&candidate) {
                break candidate;
            }
        };
        encoded[index] ^= 1 << self.rng.below(8) as u8;
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn request(&mut self, frame: &Frame) -> Result<Frame> {
        if !self.connected {
            return Err(Self::dead_connection());
        }
        if self.rng.chance(self.plan.drop_rate) {
            self.stats.drops += 1;
            obs::metrics::SERVE_FAULTS_INJECTED.add(1);
            self.connected = false;
            return Err(ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "fault injection: connection dropped",
            )));
        }
        if self.rng.chance(self.plan.delay_rate) && self.plan.delay_ms > 0.0 {
            self.stats.delays += 1;
            obs::metrics::SERVE_FAULTS_INJECTED.add(1);
            std::thread::sleep(Duration::from_micros((self.plan.delay_ms * 1_000.0) as u64));
        }
        let truncate = self.rng.chance(self.plan.truncate_rate);
        let corrupt = !truncate && self.rng.chance(self.plan.corrupt_rate);
        let response = self.inner.request(frame)?;
        if truncate {
            self.stats.truncations += 1;
            obs::metrics::SERVE_FAULTS_INJECTED.add(1);
            self.connected = false;
            let encoded = response.encode();
            // Cut somewhere strictly inside the frame: at least one byte
            // arrives, at least one is missing.
            let keep = 1 + self.rng.below(encoded.len() - 1);
            return Frame::decode(&encoded[..keep]).map(|_| {
                unreachable!("a truncated frame must not decode");
            });
        }
        if corrupt {
            self.stats.corruptions += 1;
            obs::metrics::SERVE_FAULTS_INJECTED.add(1);
            let mut encoded = response.encode();
            self.corrupt_bytes(&mut encoded);
            return Frame::decode(&encoded);
        }
        self.stats.clean += 1;
        Ok(response)
    }

    fn reconnect(&mut self) -> Result<()> {
        if self.rng.chance(self.plan.refuse_rate) {
            self.stats.refusals += 1;
            obs::metrics::SERVE_FAULTS_INJECTED.add(1);
            return Err(ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                "fault injection: reconnect refused",
            )));
        }
        self.inner.reconnect()?;
        self.connected = true;
        Ok(())
    }

    fn receive(&mut self) -> Result<Frame> {
        if !self.connected {
            return Err(Self::dead_connection());
        }
        // Drains are forwarded unperturbed: the interesting faults happen on
        // the request path, and a deterministic resync is what the client's
        // recovery is measured against.
        self.inner.receive()
    }

    fn set_timeouts(&mut self, read: Option<Duration>, write: Option<Duration>) -> Result<()> {
        self.inner.set_timeouts(read, write)
    }
}

impl<T: Transport> std::fmt::Debug for FaultyTransport<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyTransport")
            .field("plan", &self.plan)
            .field("connected", &self.connected)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::OpCode;
    use crate::server::{InferenceServer, ServerConfig};
    use crate::transport::LoopbackTransport;
    use mtlsplit_nn::{Layer, Linear, Sequential};
    use mtlsplit_tensor::StdRng;
    use std::sync::Arc;

    fn test_server() -> Arc<InferenceServer> {
        let mut rng = StdRng::seed_from(1);
        let heads: Vec<Box<dyn Layer>> = vec![Box::new(
            Sequential::new().push(Linear::new(8, 3, &mut rng)),
        )];
        Arc::new(InferenceServer::start(heads, ServerConfig::default()))
    }

    fn ping(id: u64) -> Frame {
        Frame::new(OpCode::Ping, id, Vec::new())
    }

    #[test]
    fn clean_plan_is_a_pass_through() {
        let mut transport =
            FaultyTransport::new(LoopbackTransport::new(test_server()), FaultPlan::clean());
        for id in 0..50 {
            let pong = transport.request(&ping(id)).unwrap();
            assert_eq!(pong.op, OpCode::Pong);
            assert_eq!(pong.request_id, id);
        }
        assert_eq!(transport.stats().clean, 50);
        assert_eq!(transport.stats().total_faults(), 0);
    }

    #[test]
    fn fault_sequences_replay_bit_identically() {
        let run = || {
            let mut transport = FaultyTransport::new(
                LoopbackTransport::new(test_server()),
                FaultPlan::corrupt_heavy(42),
            );
            let mut outcomes = Vec::new();
            for id in 0..200 {
                match transport.request(&ping(id)) {
                    Ok(frame) => outcomes.push(format!("ok:{}", frame.request_id)),
                    Err(err) => {
                        outcomes.push(format!("err:{err}"));
                        let _ = transport.reconnect();
                    }
                }
            }
            (outcomes, transport.stats())
        };
        let (a, stats_a) = run();
        let (b, stats_b) = run();
        assert_eq!(a, b);
        assert_eq!(stats_a, stats_b);
        assert!(stats_a.total_faults() > 0, "corrupt-heavy must inject");
    }

    #[test]
    fn dropped_connections_fail_fast_until_reconnect() {
        let plan = FaultPlan {
            drop_rate: 1.0,
            ..FaultPlan::clean()
        };
        let mut transport = FaultyTransport::new(LoopbackTransport::new(test_server()), plan);
        let err = transport.request(&ping(1)).unwrap_err();
        assert!(matches!(err, ServeError::Io(_)));
        assert!(!transport.is_connected());
        // Still down: fail fast without touching the inner transport.
        let err = transport.request(&ping(2)).unwrap_err();
        assert!(matches!(err, ServeError::Io(_)));
        transport.reconnect().unwrap();
        assert!(transport.is_connected());
    }

    #[test]
    fn corruption_surfaces_as_a_checksum_mismatch() {
        let plan = FaultPlan {
            corrupt_rate: 1.0,
            ..FaultPlan::clean()
        };
        let mut transport = FaultyTransport::new(LoopbackTransport::new(test_server()), plan);
        let mut saw_checksum = false;
        for id in 0..20 {
            match transport.request(&ping(id)) {
                Err(ServeError::ChecksumMismatch { .. }) => saw_checksum = true,
                // A flipped magic/version/op byte is caught even earlier.
                Err(
                    ServeError::BadMagic { .. }
                    | ServeError::UnsupportedVersion { .. }
                    | ServeError::UnknownOpCode { .. },
                ) => {}
                Ok(_) | Err(_) => panic!("corruption must yield a typed decode error"),
            }
            // Corruption is recoverable: the stream stays connected.
            assert!(transport.is_connected());
        }
        assert!(saw_checksum, "most flips must land in CRC-covered bytes");
        assert_eq!(transport.stats().corruptions, 20);
    }

    #[test]
    fn truncation_desynchronizes_and_disconnects() {
        let plan = FaultPlan {
            truncate_rate: 1.0,
            ..FaultPlan::clean()
        };
        let mut transport = FaultyTransport::new(LoopbackTransport::new(test_server()), plan);
        let err = transport.request(&ping(9)).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Truncated { .. } | ServeError::Io(_)
        ));
        assert!(!transport.is_connected());
    }

    #[test]
    fn refused_reconnects_are_counted_and_typed() {
        let plan = FaultPlan {
            drop_rate: 1.0,
            refuse_rate: 1.0,
            ..FaultPlan::clean()
        };
        let mut transport = FaultyTransport::new(LoopbackTransport::new(test_server()), plan);
        let _ = transport.request(&ping(1)).unwrap_err();
        let err = transport.reconnect().unwrap_err();
        assert!(matches!(err, ServeError::Io(_)));
        assert!(!transport.is_connected());
        assert_eq!(transport.stats().refusals, 1);
    }

    #[test]
    fn plan_specs_parse_and_reject() {
        assert_eq!(FaultPlan::parse("clean").unwrap(), FaultPlan::clean());
        assert_eq!(
            FaultPlan::parse("drop-heavy:17").unwrap(),
            FaultPlan::drop_heavy(17)
        );
        assert_eq!(
            FaultPlan::parse(" corrupt-heavy : 43 ").unwrap(),
            FaultPlan::corrupt_heavy(43)
        );
        assert!(matches!(
            FaultPlan::parse("tsunami"),
            Err(ServeError::Malformed { .. })
        ));
        assert!(matches!(
            FaultPlan::parse("light:not-a-seed"),
            Err(ServeError::Malformed { .. })
        ));
    }
}
