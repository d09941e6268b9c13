//! Pluggable request/response transports between edge and server.
//!
//! [`Transport`] is the tiny synchronous contract the [`crate::EdgeClient`]
//! speaks: send one frame, get one frame back. Two implementations ship:
//!
//! * [`TcpTransport`] — a real socket to a [`crate::MuxServer`], for actual
//!   deployments and the `serve_demo` example.
//! * [`LoopbackTransport`] — an in-process call into an
//!   [`InferenceServer`], optionally accounting a [`ChannelModel`]'s
//!   transfer time for every frame. It never sleeps, so tests and benches
//!   are hermetic and deterministic while still exercising the exact bytes
//!   a socket would carry.

use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use mtlsplit_split::ChannelModel;

use crate::error::{Result, ServeError};
use crate::frame::{Frame, DEFAULT_MAX_BODY_BYTES};
use crate::server::{InferenceServer, SessionState};

/// A synchronous frame round-trip to a server.
pub trait Transport: Send {
    /// Sends `frame` and waits for the single response frame.
    ///
    /// # Errors
    ///
    /// Implementation-specific: socket failures, protocol violations, or a
    /// shut-down server.
    fn request(&mut self, frame: &Frame) -> Result<Frame>;

    /// Re-establishes the underlying connection after a failure.
    ///
    /// In-process transports have nothing to re-establish, so the default is
    /// a no-op; [`TcpTransport`] redials its remembered endpoint.
    ///
    /// # Errors
    ///
    /// Returns a connect failure when the endpoint refuses or is unreachable.
    fn reconnect(&mut self) -> Result<()> {
        Ok(())
    }

    /// Sends one frame without waiting for its response — the sending half
    /// of the pipelined contract. Pair with [`Transport::receive`] to keep
    /// several requests in flight on one connection; responses come back in
    /// completion order, correlated by request id (see the out-of-order
    /// completion rule in [`crate::frame`]).
    ///
    /// # Errors
    ///
    /// The default returns an `Unsupported` I/O error: strict
    /// request/response transports cannot decouple the two halves.
    fn send(&mut self, frame: &Frame) -> Result<()> {
        let _ = frame;
        Err(ServeError::Io(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "transport cannot send without receiving",
        )))
    }

    /// Reads one more response frame without sending anything — used by the
    /// client's drain-and-resync recovery to skip responses to requests it
    /// has already given up on, and by the pipelined mode to collect
    /// in-flight completions.
    ///
    /// # Errors
    ///
    /// The default returns an `Unsupported` I/O error: strict
    /// request/response transports never have extra frames in flight.
    fn receive(&mut self) -> Result<Frame> {
        Err(ServeError::Io(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "transport cannot receive without sending",
        )))
    }

    /// Bounds how long one blocking read/write on the underlying connection
    /// may take. `None` waits forever. In-process transports never block, so
    /// the default accepts and ignores the bounds.
    ///
    /// # Errors
    ///
    /// Propagates socket-option failures.
    fn set_timeouts(&mut self, read: Option<Duration>, write: Option<Duration>) -> Result<()> {
        let _ = (read, write);
        Ok(())
    }
}

/// A [`Transport`] over a real TCP connection.
///
/// The transport remembers the endpoint it dialed plus any configured
/// timeouts, so [`Transport::reconnect`] can redial after a drop and
/// re-apply the same socket options to the fresh stream.
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
    peer: SocketAddr,
    max_body: usize,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
}

impl TcpTransport {
    /// Connects to a serving endpoint.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let peer = stream.peer_addr()?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            peer,
            max_body: DEFAULT_MAX_BODY_BYTES,
            read_timeout: None,
            write_timeout: None,
        })
    }

    /// Returns this transport with a custom response-size cap.
    pub fn with_max_body(mut self, max_body: usize) -> Self {
        self.max_body = max_body;
        self
    }

    fn read_response(&mut self) -> Result<Frame> {
        Frame::read_from(&mut self.stream, self.max_body)?.ok_or_else(|| {
            ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            ))
        })
    }
}

impl Transport for TcpTransport {
    fn request(&mut self, frame: &Frame) -> Result<Frame> {
        frame.write_to(&mut self.stream)?;
        self.read_response()
    }

    fn send(&mut self, frame: &Frame) -> Result<()> {
        frame.write_to(&mut self.stream)
    }

    fn reconnect(&mut self) -> Result<()> {
        let stream = TcpStream::connect(self.peer)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(self.read_timeout)?;
        stream.set_write_timeout(self.write_timeout)?;
        self.stream = stream;
        Ok(())
    }

    fn receive(&mut self) -> Result<Frame> {
        self.read_response()
    }

    fn set_timeouts(&mut self, read: Option<Duration>, write: Option<Duration>) -> Result<()> {
        self.stream.set_read_timeout(read)?;
        self.stream.set_write_timeout(write)?;
        self.read_timeout = read;
        self.write_timeout = write;
        Ok(())
    }
}

/// A deterministic in-process [`Transport`] that still pays for its bytes.
///
/// Every request encodes the frame exactly as TCP would, hands it to the
/// server's shared [`InferenceServer::process_on`] entry point, and charges
/// the configured [`ChannelModel`] for the encoded request and response
/// sizes.
/// The accumulated simulated transfer time is available from
/// [`LoopbackTransport::simulated_seconds`] — wall clocks never enter the
/// picture, so results are bit-for-bit reproducible.
pub struct LoopbackTransport {
    server: Arc<InferenceServer>,
    session: SessionState,
    channel: Option<ChannelModel>,
    simulated_seconds: f64,
    bytes_up: u64,
    bytes_down: u64,
    /// Responses produced by [`Transport::send`] but not yet collected by
    /// [`Transport::receive`] — the loopback model of an in-flight window.
    pending: std::collections::VecDeque<Frame>,
}

impl std::fmt::Debug for LoopbackTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopbackTransport")
            .field("channel", &self.channel)
            .field("simulated_seconds", &self.simulated_seconds)
            .finish()
    }
}

impl LoopbackTransport {
    /// Creates a loopback transport with no channel accounting.
    pub fn new(server: Arc<InferenceServer>) -> Self {
        Self {
            server,
            session: SessionState::default(),
            channel: None,
            simulated_seconds: 0.0,
            bytes_up: 0,
            bytes_down: 0,
            pending: std::collections::VecDeque::new(),
        }
    }

    /// Creates a loopback transport that charges `channel` for every frame.
    pub fn with_channel(server: Arc<InferenceServer>, channel: ChannelModel) -> Self {
        Self {
            server,
            session: SessionState::default(),
            channel: Some(channel),
            simulated_seconds: 0.0,
            bytes_up: 0,
            bytes_down: 0,
            pending: std::collections::VecDeque::new(),
        }
    }

    /// Serves one frame through the shared server entry point, charging the
    /// channel for both directions.
    fn round_trip(&mut self, frame: &Frame) -> Result<Frame> {
        let up = frame.encoded_len();
        // Round-trip the exact wire form so framing bugs cannot hide in the
        // in-process path.
        let decoded = Frame::decode(&frame.encode())?;
        let response = self.server.process_on(&decoded, &mut self.session);
        let down = response.encoded_len();
        self.bytes_up += up as u64;
        self.bytes_down += down as u64;
        if let Some(channel) = &self.channel {
            self.simulated_seconds +=
                channel.transfer_time_bytes(up) + channel.transfer_time_bytes(down);
        }
        Ok(response)
    }

    /// The negotiation state of this in-process "connection" — a loopback
    /// transport is one session, exactly like one TCP connection.
    pub fn session(&self) -> SessionState {
        self.session
    }

    /// Total simulated transfer time accumulated so far, in seconds.
    pub fn simulated_seconds(&self) -> f64 {
        self.simulated_seconds
    }

    /// Frame bytes sent edge → server so far.
    pub fn bytes_up(&self) -> u64 {
        self.bytes_up
    }

    /// Frame bytes received server → edge so far.
    pub fn bytes_down(&self) -> u64 {
        self.bytes_down
    }
}

impl Transport for LoopbackTransport {
    fn request(&mut self, frame: &Frame) -> Result<Frame> {
        self.round_trip(frame)
    }

    fn send(&mut self, frame: &Frame) -> Result<()> {
        // In-process there is no wire to decouple, so the response is
        // computed eagerly and parked until `receive` collects it — the
        // window bookkeeping a pipelined client exercises stays identical.
        let response = self.round_trip(frame)?;
        self.pending.push_back(response);
        Ok(())
    }

    fn receive(&mut self) -> Result<Frame> {
        self.pending.pop_front().ok_or_else(|| {
            ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "loopback has no pipelined response in flight",
            ))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::OpCode;
    use crate::server::ServerConfig;
    use mtlsplit_nn::{Layer, Linear, Sequential};
    use mtlsplit_split::TensorCodec;
    use mtlsplit_tensor::{StdRng, Tensor};

    fn test_server() -> Arc<InferenceServer> {
        let mut rng = StdRng::seed_from(1);
        let heads: Vec<Box<dyn Layer>> = vec![Box::new(
            Sequential::new().push(Linear::new(8, 3, &mut rng)),
        )];
        Arc::new(InferenceServer::start(heads, ServerConfig::default()))
    }

    #[test]
    fn loopback_round_trips_a_ping() {
        let mut transport = LoopbackTransport::new(test_server());
        let pong = transport
            .request(&Frame::new(OpCode::Ping, 5, Vec::new()))
            .unwrap();
        assert_eq!(pong.op, OpCode::Pong);
        assert_eq!(pong.request_id, 5);
    }

    #[test]
    fn loopback_charges_the_channel_for_both_directions() {
        let server = test_server();
        let channel = ChannelModel::gigabit();
        let mut transport = LoopbackTransport::with_channel(Arc::clone(&server), channel.clone());
        let mut rng = StdRng::seed_from(2);
        let payload = TensorCodec::default().encode(&Tensor::randn(&[1, 8], 0.0, 1.0, &mut rng));
        let frame = Frame::new(OpCode::InferRequest, 1, payload.encode());
        let up = frame.encoded_len();
        let response = transport.request(&frame).unwrap();
        assert_eq!(response.op, OpCode::InferResponse);
        let expected =
            channel.transfer_time_bytes(up) + channel.transfer_time_bytes(response.encoded_len());
        assert!((transport.simulated_seconds() - expected).abs() < 1e-12);
        assert_eq!(transport.bytes_up(), up as u64);
        assert_eq!(transport.bytes_down(), response.encoded_len() as u64);
    }

    #[test]
    fn loopback_is_deterministic() {
        let server = test_server();
        let mut rng = StdRng::seed_from(3);
        let payload = TensorCodec::default().encode(&Tensor::randn(&[2, 8], 0.0, 1.0, &mut rng));
        let frame = Frame::new(OpCode::InferRequest, 7, payload.encode());
        let mut a = LoopbackTransport::with_channel(Arc::clone(&server), ChannelModel::wifi());
        let mut b = LoopbackTransport::with_channel(Arc::clone(&server), ChannelModel::wifi());
        let ra = a.request(&frame).unwrap();
        let rb = b.request(&frame).unwrap();
        assert_eq!(ra, rb);
        assert_eq!(a.simulated_seconds(), b.simulated_seconds());
    }
}
