//! The length-prefixed binary frame that crosses the edge↔server link.
//!
//! Every message — in both directions — is one [`Frame`]:
//!
//! ```text
//! offset  size  field
//! 0       4     magic 0x4D544C53 ("MTLS"), little-endian
//! 4       1     protocol version ([`VERSION`])
//! 5       1     op code
//! 6       8     request id, u64 little-endian
//! 14      4     body length n, u32 little-endian
//! 18      4     CRC-32 (IEEE) over bytes [4, 18) and the body, little-endian
//! 22      n     body
//! ```
//!
//! The body of an [`OpCode::InferRequest`] is exactly one
//! [`mtlsplit_split::WirePayload`] in its binary form; the body of an
//! [`OpCode::InferResponse`] is the task-output list encoded by
//! [`crate::wire`]. [`OpCode::Error`] carries a UTF-8 message. Frames are
//! self-delimiting, so a stream of them needs no extra framing.
//!
//! Protocol version 2 added the CRC-32 checksum: it covers everything after
//! the magic/version prefix (op code, request id, length and body), so *any*
//! single corrupted byte in a frame is rejected with a typed error — a
//! flipped bit in a request id or a payload byte can no longer silently
//! deliver a wrong answer.
//!
//! Protocol version 3 added the metrics scrape: an empty-bodied
//! [`OpCode::MetricsRequest`] is answered with an
//! [`OpCode::MetricsResponse`] whose body is the snapshot codec defined in
//! [`crate::wire`], so an edge client can read a live server's throughput,
//! latency quantiles and phase breakdown over the same socket it infers on.
//!
//! Protocol version 4 added split negotiation: a client may open its
//! connection with an [`OpCode::Hello`] carrying its device class and
//! latency budget (encoded by [`crate::wire::encode_hello`]), and the server
//! answers with an [`OpCode::HelloAck`] naming the backbone stage the client
//! should cut at — chosen from the server's tuned deployment profile. The
//! header kept its exact v3 layout, so both versions interoperate: a v4
//! server accepts v3 frames (and answers a v3 `Hello` with its default
//! split), and every frame carries the version it was sent under in
//! [`Frame::version`].
//!
//! Protocol version 5 added typed error codes: the body of an
//! [`OpCode::Error`] frame sent at v5 starts with one [`ErrorCode`] byte
//! followed by the UTF-8 message, so a client can tell a retryable
//! infrastructure condition (the server is [`ErrorCode::ShuttingDown`], the
//! queue is [`ErrorCode::Overloaded`], the connection was
//! [`ErrorCode::Evicted`]) from a terminal application error without
//! parsing prose. [`Frame::error_info`] recovers the code and message from
//! any version: pre-v5 error bodies decode as [`ErrorCode::App`] with the
//! whole body as the message. The header layout is unchanged since v3.
//!
//! # Pipelining and out-of-order completion
//!
//! Frames are self-delimiting and every request carries a client-chosen
//! `request_id`, so one socket supports *pipelining*: a client may send N
//! requests before reading any response. The completion rule is that the
//! server answers each request **exactly once** but in **any order** —
//! responses are correlated by `request_id` alone, never by arrival
//! position. Two consequences for pipelined clients: (1) a client must
//! keep ids of in-flight requests unique, and (2) a response whose id
//! matches no in-flight request is a protocol violation. The single
//! exception is `request_id == 0` on an [`OpCode::Error`] frame, which the
//! server reserves for connection-scoped "goodbye" notices (shutdown,
//! eviction, overload at accept) that address the connection rather than
//! any one request. [`FrameAssembler`] is the incremental parser used by
//! the non-blocking server front-end to cut frames out of a byte stream
//! that arrives in arbitrary fragments.

use std::io::{Read, Write};

use crate::error::{Result, ServeError};

/// Protocol magic: `b"MTLS"` read as a little-endian u32.
pub const MAGIC: u32 = u32::from_le_bytes(*b"MTLS");

/// Protocol version this build speaks.
pub const VERSION: u8 = 5;

/// Oldest protocol version this build still accepts. Versions 3 through 5
/// share the header layout byte for byte; 4 added op codes and 5 added the
/// leading [`ErrorCode`] byte in [`OpCode::Error`] bodies.
pub const MIN_VERSION: u8 = 3;

/// First protocol version that speaks `Hello`/`HelloAck` split negotiation.
pub const HELLO_VERSION: u8 = 4;

/// First protocol version whose [`OpCode::Error`] bodies carry a leading
/// [`ErrorCode`] byte.
pub const ERROR_CODE_VERSION: u8 = 5;

/// Size of the fixed frame header in bytes.
pub const HEADER_BYTES: usize = 4 + 1 + 1 + 8 + 4 + 4;

/// Byte offset of the CRC-32 field inside the header.
const CRC_OFFSET: usize = 18;

/// Default cap on a frame body, protecting servers from corrupt or hostile
/// length prefixes (64 MiB).
pub const DEFAULT_MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) lookup table,
/// generated at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) over a sequence of byte slices, as if concatenated.
fn crc32(parts: &[&[u8]]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for part in parts {
        for &byte in *part {
            let index = ((crc ^ byte as u32) & 0xFF) as usize;
            crc = (crc >> 8) ^ CRC32_TABLE[index];
        }
    }
    !crc
}

/// Message kind carried by a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum OpCode {
    /// Edge → server: one encoded `Z_b` payload to run through the heads.
    InferRequest = 1,
    /// Server → edge: one output payload per task head.
    InferResponse = 2,
    /// Edge → server: liveness probe.
    Ping = 3,
    /// Server → edge: liveness answer.
    Pong = 4,
    /// Server → edge: the request failed; body is a UTF-8 message.
    Error = 5,
    /// Edge → server: scrape a live metrics snapshot; empty body.
    MetricsRequest = 6,
    /// Server → edge: one [`crate::ServeMetrics`] snapshot encoded by
    /// [`crate::wire::encode_metrics`].
    MetricsResponse = 7,
    /// Edge → server: split negotiation opener; body is the client's device
    /// class and latency budget, encoded by [`crate::wire::encode_hello`].
    Hello = 8,
    /// Server → edge: the negotiated split assignment, encoded by
    /// [`crate::wire::encode_split_assignment`].
    HelloAck = 9,
}

impl OpCode {
    /// Parses an op code byte.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownOpCode`] for bytes outside the protocol.
    pub fn from_byte(code: u8) -> Result<Self> {
        match code {
            1 => Ok(OpCode::InferRequest),
            2 => Ok(OpCode::InferResponse),
            3 => Ok(OpCode::Ping),
            4 => Ok(OpCode::Pong),
            5 => Ok(OpCode::Error),
            6 => Ok(OpCode::MetricsRequest),
            7 => Ok(OpCode::MetricsResponse),
            8 => Ok(OpCode::Hello),
            9 => Ok(OpCode::HelloAck),
            _ => Err(ServeError::UnknownOpCode { code }),
        }
    }
}

/// Machine-readable classification carried as the first body byte of an
/// [`OpCode::Error`] frame since protocol version 5.
///
/// The codes split errors the way a fault-tolerant client needs them split:
/// [`ErrorCode::App`] is terminal for the request (retrying the same payload
/// reproduces it), while the infrastructure codes describe conditions of the
/// *channel or server*, which retries, reconnects or a local fallback can
/// route around.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ErrorCode {
    /// The request itself failed (bad payload, shape mismatch, …); a resend
    /// of the same bytes will fail identically.
    App = 0,
    /// The frame violated the wire protocol (bad checksum, unknown op code,
    /// unsupported version); the offending frame was consumed and the
    /// connection keeps serving.
    Protocol = 1,
    /// The server is shutting down; the connection is about to close and the
    /// request was not (and will not be) served.
    ShuttingDown = 2,
    /// The server's request queue rejected the request under load; a retry
    /// after backoff may succeed.
    Overloaded = 3,
    /// The server evicted this connection (e.g. a read timeout fired on a
    /// stalled peer); the socket closes right after this frame.
    Evicted = 4,
}

impl ErrorCode {
    /// Parses an error-code byte; unknown bytes (from a newer peer) map to
    /// `None` and callers fall back to [`ErrorCode::App`].
    pub fn from_byte(code: u8) -> Option<Self> {
        match code {
            0 => Some(ErrorCode::App),
            1 => Some(ErrorCode::Protocol),
            2 => Some(ErrorCode::ShuttingDown),
            3 => Some(ErrorCode::Overloaded),
            4 => Some(ErrorCode::Evicted),
            _ => None,
        }
    }

    /// Whether a client may usefully retry after seeing this code.
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::ShuttingDown | ErrorCode::Overloaded | ErrorCode::Evicted
        )
    }
}

/// Header fields parsed from the wire but not yet version-validated,
/// checksum-verified or op-code-validated — the single definition of the
/// header layout shared by [`Frame::decode`] and [`Frame::read_from`].
struct RawHeader {
    version: u8,
    op_byte: u8,
    request_id: u64,
    body_len: usize,
    declared_crc: u32,
}

impl RawHeader {
    /// Validates the magic, then splits the fixed header fields out. The
    /// version is *not* validated here: the body length sits at a fixed
    /// offset in every version, so a reader can consume the body of a
    /// version it does not speak and keep the stream synchronized.
    fn parse(header: &[u8; HEADER_BYTES]) -> Result<Self> {
        let magic = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        if magic != MAGIC {
            return Err(ServeError::BadMagic { found: magic });
        }
        Ok(Self {
            version: header[4],
            op_byte: header[5],
            request_id: u64::from_le_bytes(header[6..14].try_into().expect("8 bytes")),
            body_len: u32::from_le_bytes(header[14..18].try_into().expect("4 bytes")) as usize,
            declared_crc: u32::from_le_bytes(
                header[CRC_OFFSET..CRC_OFFSET + 4]
                    .try_into()
                    .expect("4 bytes"),
            ),
        })
    }

    /// Validates the version range, verifies the declared CRC-32 against the
    /// checksummed region (version..length inside `header`, then `body`) and
    /// finishes building the frame, validating the op code last.
    fn into_frame(self, header: &[u8; HEADER_BYTES], body: Vec<u8>) -> Result<Frame> {
        if !(MIN_VERSION..=VERSION).contains(&self.version) {
            return Err(ServeError::UnsupportedVersion {
                found: self.version,
            });
        }
        let actual = crc32(&[&header[4..CRC_OFFSET], &body]);
        if self.declared_crc != actual {
            return Err(ServeError::ChecksumMismatch {
                declared: self.declared_crc,
                actual,
            });
        }
        Ok(Frame {
            request_id: self.request_id,
            version: self.version,
            op: OpCode::from_byte(self.op_byte)?,
            body,
        })
    }
}

/// One message cut from a stream by a [`FrameAssembler`]: either a valid
/// [`Frame`], or a rejected one whose bytes were fully consumed — the stream
/// is still synchronized, so a server can answer with a typed error frame
/// and keep the connection alive instead of severing it.
#[derive(Debug)]
pub enum Received {
    /// A well-formed frame.
    Frame(Frame),
    /// A frame-shaped message that failed validation (unsupported version,
    /// unknown op code, or checksum mismatch) after its body was consumed.
    Rejected {
        /// The request id claimed by the rejected header, for the error
        /// reply. (Under a checksum mismatch it may itself be corrupt —
        /// still the best correlation hint available.)
        request_id: u64,
        /// Why the frame was rejected.
        error: ServeError,
    },
}

/// One protocol message: header plus opaque body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Client-chosen id echoed back by the server, correlating requests with
    /// responses.
    pub request_id: u64,
    /// Protocol version the frame was sent under. [`Frame::new`] stamps the
    /// current [`VERSION`]; decoding preserves whatever the peer sent.
    pub version: u8,
    /// Message kind.
    pub op: OpCode,
    /// Message body; its meaning depends on `op`.
    pub body: Vec<u8>,
}

impl Frame {
    /// Creates a frame speaking the current protocol version.
    pub fn new(op: OpCode, request_id: u64, body: Vec<u8>) -> Self {
        Self {
            request_id,
            version: VERSION,
            op,
            body,
        }
    }

    /// Creates a frame stamped with an explicit (older) protocol version,
    /// e.g. to interoperate with — or impersonate, in tests — a v3 peer.
    pub fn with_version(op: OpCode, request_id: u64, body: Vec<u8>, version: u8) -> Self {
        Self {
            request_id,
            version,
            op,
            body,
        }
    }

    /// Creates an [`OpCode::Error`] frame carrying `message` under the
    /// generic [`ErrorCode::App`] classification.
    pub fn error(request_id: u64, message: &str) -> Self {
        Self::error_coded(request_id, ErrorCode::App, message)
    }

    /// Creates an [`OpCode::Error`] frame with an explicit [`ErrorCode`]
    /// (protocol v5 body layout: one code byte, then the UTF-8 message).
    pub fn error_coded(request_id: u64, code: ErrorCode, message: &str) -> Self {
        let mut body = Vec::with_capacity(1 + message.len());
        body.push(code as u8);
        body.extend_from_slice(message.as_bytes());
        Self::new(OpCode::Error, request_id, body)
    }

    /// Splits an [`OpCode::Error`] frame body into its code and message.
    ///
    /// Version-aware: bodies sent at [`ERROR_CODE_VERSION`] or later carry a
    /// leading code byte; earlier versions (and unknown code bytes from
    /// newer peers) decode as [`ErrorCode::App`] with the whole body as the
    /// message. Returns `(App, "")` for frames that are not errors.
    pub fn error_info(&self) -> (ErrorCode, String) {
        if self.op != OpCode::Error {
            return (ErrorCode::App, String::new());
        }
        if self.version >= ERROR_CODE_VERSION {
            if let Some((&byte, rest)) = self.body.split_first() {
                if let Some(code) = ErrorCode::from_byte(byte) {
                    return (code, String::from_utf8_lossy(rest).into_owned());
                }
            }
        }
        (
            ErrorCode::App,
            String::from_utf8_lossy(&self.body).into_owned(),
        )
    }

    /// Exact size of the encoded frame in bytes.
    pub fn encoded_len(&self) -> usize {
        HEADER_BYTES + self.body.len()
    }

    /// Encodes the frame into its binary form.
    ///
    /// The CRC-32 is computed over exactly the header bytes emitted after
    /// the magic (version, op, request id, body length) plus the body — the
    /// same region the (internal) `RawHeader::into_frame` verifies on
    /// receipt.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.push(self.version);
        out.push(self.op as u8);
        out.extend_from_slice(&self.request_id.to_le_bytes());
        out.extend_from_slice(&(self.body.len() as u32).to_le_bytes());
        let crc = crc32(&[&out[4..CRC_OFFSET], &self.body]);
        out.extend_from_slice(&crc.to_le_bytes());
        out.extend_from_slice(&self.body);
        out
    }

    /// Decodes a frame from a buffer that must contain exactly one frame.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ServeError`] on truncation, bad magic, an unknown
    /// version or op code, a checksum mismatch, or trailing bytes. Every
    /// single-byte corruption of a valid frame is rejected: corruption of
    /// the magic or version prefix hits [`ServeError::BadMagic`] /
    /// [`ServeError::UnsupportedVersion`], corruption of the length field
    /// hits [`ServeError::Truncated`], and everything else is caught by the
    /// CRC-32 as [`ServeError::ChecksumMismatch`].
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < HEADER_BYTES {
            return Err(ServeError::Truncated {
                needed: HEADER_BYTES,
                got: bytes.len(),
            });
        }
        let header: &[u8; HEADER_BYTES] = bytes[..HEADER_BYTES].try_into().expect("header");
        let raw = RawHeader::parse(header)?;
        let total = HEADER_BYTES.saturating_add(raw.body_len);
        if bytes.len() != total {
            return Err(ServeError::Truncated {
                needed: total,
                got: bytes.len(),
            });
        }
        raw.into_frame(header, bytes[HEADER_BYTES..].to_vec())
    }

    /// Writes the encoded frame to `writer` and flushes it.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_to<W: Write>(&self, writer: &mut W) -> Result<()> {
        writer.write_all(&self.encode())?;
        writer.flush()?;
        Ok(())
    }

    /// Reads one frame from `reader`, enforcing `max_body` on the declared
    /// body length before allocating and verifying the checksum once the
    /// body has arrived.
    ///
    /// Returns `Ok(None)` if the stream is cleanly closed before the first
    /// header byte — the peer hung up between frames.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ServeError`] on protocol violations (including
    /// [`ServeError::ChecksumMismatch`] for corrupted frames) and
    /// [`ServeError::Io`] on socket failures, including streams cut mid-frame.
    /// An unsupported version, an unknown op code or a checksum mismatch is
    /// reported only after the frame's body has been consumed, so the
    /// stream stays positioned at the next frame.
    pub fn read_from<R: Read>(reader: &mut R, max_body: usize) -> Result<Option<Self>> {
        let mut header = [0u8; HEADER_BYTES];
        let mut filled = 0usize;
        while filled < HEADER_BYTES {
            let n = reader.read(&mut header[filled..])?;
            if n == 0 {
                if filled == 0 {
                    return Ok(None);
                }
                return Err(ServeError::Truncated {
                    needed: HEADER_BYTES,
                    got: filled,
                });
            }
            filled += n;
        }
        let raw = RawHeader::parse(&header)?;
        if raw.body_len > max_body {
            return Err(ServeError::Oversized {
                len: raw.body_len,
                max: max_body,
            });
        }
        let mut body = vec![0u8; raw.body_len];
        reader.read_exact(&mut body)?;
        raw.into_frame(&header, body).map(Some)
    }
}

/// Incremental frame parser for non-blocking streams.
///
/// A non-blocking socket delivers bytes in arbitrary fragments — half a
/// header now, three frames at once later. The assembler buffers pushed
/// bytes and cuts complete frames out of them, applying exactly the same
/// validation as [`Frame::read_from`]: recoverable rejections
/// (unsupported version, unknown op code, checksum mismatch) surface as
/// [`Received::Rejected`] with the stream still synchronized, while
/// desynchronizing ones (bad magic, an oversized length prefix) surface as
/// `Err` and oblige the caller to sever the connection.
#[derive(Debug)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    consumed: usize,
    max_body: usize,
}

impl FrameAssembler {
    /// Creates an assembler enforcing `max_body` on declared body lengths.
    pub fn new(max_body: usize) -> Self {
        Self {
            buf: Vec::new(),
            consumed: 0,
            max_body,
        }
    }

    /// Appends freshly-read bytes, compacting already-consumed ones first.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.consumed > 0 {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet cut into a frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Cuts the next complete message out of the buffer.
    ///
    /// Returns `Ok(None)` when the buffered bytes do not yet hold a full
    /// frame (more `push`es needed); `Ok(Some(_))` for each complete frame
    /// or recoverable rejection, in arrival order.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadMagic`] or [`ServeError::Oversized`] when the
    /// stream is desynchronized beyond recovery; the connection must be
    /// closed.
    pub fn next_frame(&mut self) -> Result<Option<Received>> {
        let pending = &self.buf[self.consumed..];
        if pending.len() < HEADER_BYTES {
            return Ok(None);
        }
        let header: &[u8; HEADER_BYTES] = pending[..HEADER_BYTES].try_into().expect("header");
        let raw = RawHeader::parse(header)?;
        if raw.body_len > self.max_body {
            return Err(ServeError::Oversized {
                len: raw.body_len,
                max: self.max_body,
            });
        }
        let total = HEADER_BYTES + raw.body_len;
        if pending.len() < total {
            return Ok(None);
        }
        let header = *header;
        let body = pending[HEADER_BYTES..total].to_vec();
        self.consumed += total;
        let request_id = raw.request_id;
        match raw.into_frame(&header, body) {
            Ok(frame) => Ok(Some(Received::Frame(frame))),
            Err(error) => Ok(Some(Received::Rejected { request_id, error })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        Frame::new(OpCode::InferRequest, 42, vec![1, 2, 3, 4, 5])
    }

    #[test]
    fn encode_decode_round_trip() {
        for op in [
            OpCode::InferRequest,
            OpCode::InferResponse,
            OpCode::Ping,
            OpCode::Pong,
            OpCode::Error,
            OpCode::MetricsRequest,
            OpCode::MetricsResponse,
            OpCode::Hello,
            OpCode::HelloAck,
        ] {
            let frame = Frame::new(op, u64::MAX - 3, vec![9; 17]);
            let decoded = Frame::decode(&frame.encode()).unwrap();
            assert_eq!(decoded, frame);
            assert_eq!(decoded.version, VERSION);
        }
    }

    #[test]
    fn a_v3_frame_still_decodes_and_keeps_its_version() {
        let frame = Frame::with_version(OpCode::Ping, 11, Vec::new(), 3);
        let decoded = Frame::decode(&frame.encode()).unwrap();
        assert_eq!(decoded.version, 3);
        assert_eq!(decoded, frame);
        // Versions below MIN_VERSION are rejected.
        let ancient = Frame::with_version(OpCode::Ping, 11, Vec::new(), 2);
        assert!(matches!(
            Frame::decode(&ancient.encode()),
            Err(ServeError::UnsupportedVersion { found: 2 })
        ));
    }

    #[test]
    fn encoded_len_is_exact() {
        let frame = sample();
        assert_eq!(frame.encode().len(), frame.encoded_len());
    }

    #[test]
    fn crc32_matches_the_reference_check_value() {
        // The standard CRC-32 check value: crc32(b"123456789") = 0xCBF43926.
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[]), 0);
    }

    #[test]
    fn decode_rejects_truncation_and_corruption() {
        let good = sample().encode();
        for cut in [0, 4, HEADER_BYTES - 1, good.len() - 1] {
            assert!(matches!(
                Frame::decode(&good[..cut]),
                Err(ServeError::Truncated { .. })
            ));
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(matches!(
            Frame::decode(&trailing),
            Err(ServeError::Truncated { .. })
        ));
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            Frame::decode(&bad_magic),
            Err(ServeError::BadMagic { .. })
        ));
        let mut bad_version = good.clone();
        bad_version[4] = 9;
        assert!(matches!(
            Frame::decode(&bad_version),
            Err(ServeError::UnsupportedVersion { found: 9 })
        ));
        // A corrupted op code no longer parses as an op at all — the
        // checksum covers it and fails first.
        let mut bad_op = good.clone();
        bad_op[5] = 200;
        assert!(matches!(
            Frame::decode(&bad_op),
            Err(ServeError::ChecksumMismatch { .. })
        ));
        // A flipped body byte is caught by the checksum.
        let mut bad_body = good.clone();
        let last = bad_body.len() - 1;
        bad_body[last] ^= 0x01;
        assert!(matches!(
            Frame::decode(&bad_body),
            Err(ServeError::ChecksumMismatch { .. })
        ));
        // A flipped request-id byte is caught by the checksum too.
        let mut bad_id = good;
        bad_id[6] ^= 0x80;
        assert!(matches!(
            Frame::decode(&bad_id),
            Err(ServeError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn unknown_op_with_a_valid_checksum_is_still_rejected() {
        // Hand-build a frame whose op byte is outside the protocol but whose
        // checksum is consistent, to reach the UnknownOpCode path.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC.to_le_bytes());
        bytes.push(VERSION);
        bytes.push(200);
        bytes.extend_from_slice(&7u64.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let crc = crc32(&[&bytes[4..18]]);
        bytes.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(ServeError::UnknownOpCode { code: 200 })
        ));
    }

    #[test]
    fn stream_round_trip_and_clean_eof() {
        let mut buffer = Vec::new();
        sample().write_to(&mut buffer).unwrap();
        Frame::new(OpCode::Ping, 7, Vec::new())
            .write_to(&mut buffer)
            .unwrap();
        let mut cursor = std::io::Cursor::new(buffer);
        let first = Frame::read_from(&mut cursor, DEFAULT_MAX_BODY_BYTES)
            .unwrap()
            .unwrap();
        assert_eq!(first, sample());
        let second = Frame::read_from(&mut cursor, DEFAULT_MAX_BODY_BYTES)
            .unwrap()
            .unwrap();
        assert_eq!(second.op, OpCode::Ping);
        // Clean end-of-stream between frames is not an error.
        assert!(Frame::read_from(&mut cursor, DEFAULT_MAX_BODY_BYTES)
            .unwrap()
            .is_none());
    }

    #[test]
    fn read_rejects_oversized_bodies_before_allocating() {
        let mut bytes = sample().encode();
        // Rewrite the length prefix to claim a 1 GiB body.
        bytes[14..18].copy_from_slice(&(1u32 << 30).to_le_bytes());
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(matches!(
            Frame::read_from(&mut cursor, 1024),
            Err(ServeError::Oversized { .. })
        ));
    }

    #[test]
    fn read_rejects_corrupted_frames_with_a_checksum_error() {
        let mut bytes = sample().encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(matches!(
            Frame::read_from(&mut cursor, DEFAULT_MAX_BODY_BYTES),
            Err(ServeError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn read_reports_streams_cut_mid_frame() {
        let bytes = sample().encode();
        let mut cursor = std::io::Cursor::new(bytes[..HEADER_BYTES + 2].to_vec());
        assert!(matches!(
            Frame::read_from(&mut cursor, DEFAULT_MAX_BODY_BYTES),
            Err(ServeError::Io(_))
        ));
        let mut header_cut = std::io::Cursor::new(bytes[..7].to_vec());
        assert!(matches!(
            Frame::read_from(&mut header_cut, DEFAULT_MAX_BODY_BYTES),
            Err(ServeError::Truncated { .. })
        ));
    }

    #[test]
    fn magic_spells_mtls() {
        assert_eq!(&MAGIC.to_le_bytes(), b"MTLS");
    }

    #[test]
    fn error_codes_round_trip_through_the_body() {
        for code in [
            ErrorCode::App,
            ErrorCode::Protocol,
            ErrorCode::ShuttingDown,
            ErrorCode::Overloaded,
            ErrorCode::Evicted,
        ] {
            let frame = Frame::error_coded(9, code, "why");
            let decoded = Frame::decode(&frame.encode()).unwrap();
            assert_eq!(decoded.error_info(), (code, "why".to_string()));
        }
        // Retryability is a property of the code, not the message.
        assert!(ErrorCode::ShuttingDown.is_retryable());
        assert!(ErrorCode::Overloaded.is_retryable());
        assert!(ErrorCode::Evicted.is_retryable());
        assert!(!ErrorCode::App.is_retryable());
        assert!(!ErrorCode::Protocol.is_retryable());
    }

    #[test]
    fn legacy_error_bodies_without_a_code_byte_read_as_app_errors() {
        // A v4 peer sends the bare UTF-8 message with no leading code byte.
        let legacy = Frame::with_version(OpCode::Error, 3, b"boom".to_vec(), 4);
        let decoded = Frame::decode(&legacy.encode()).unwrap();
        assert_eq!(decoded.error_info(), (ErrorCode::App, "boom".to_string()));
        // A non-error frame has no error info at all.
        assert_eq!(sample().error_info(), (ErrorCode::App, String::new()));
    }

    #[test]
    fn adversarial_header_truncations_never_misread() {
        // Every possible header truncation point, streamed: cutting inside
        // the header is `Truncated`, cutting inside the body is `Io`.
        let good = sample().encode();
        for cut in 1..good.len() {
            let mut cursor = std::io::Cursor::new(good[..cut].to_vec());
            let result = Frame::read_from(&mut cursor, DEFAULT_MAX_BODY_BYTES);
            if cut < HEADER_BYTES {
                assert!(
                    matches!(result, Err(ServeError::Truncated { .. })),
                    "cut {cut}: {result:?}"
                );
            } else {
                assert!(
                    matches!(result, Err(ServeError::Io(_))),
                    "cut {cut}: {result:?}"
                );
            }
        }
    }

    #[test]
    fn a_bad_crc_mid_stream_does_not_poison_the_next_frame() {
        // Corrupt frame, then a valid frame, in one contiguous stream: the
        // reader must reject the first only after consuming its body, so
        // the second still arrives intact.
        let mut corrupt = Frame::new(OpCode::InferRequest, 5, vec![1, 2, 3]).encode();
        corrupt[HEADER_BYTES] ^= 0x40;
        let mut buffer = corrupt;
        buffer.extend_from_slice(&Frame::new(OpCode::Ping, 6, Vec::new()).encode());
        let mut cursor = std::io::Cursor::new(buffer);
        assert!(matches!(
            Frame::read_from(&mut cursor, DEFAULT_MAX_BODY_BYTES),
            Err(ServeError::ChecksumMismatch { .. })
        ));
        let next = Frame::read_from(&mut cursor, DEFAULT_MAX_BODY_BYTES)
            .unwrap()
            .unwrap();
        assert_eq!(next.request_id, 6);
        assert!(Frame::read_from(&mut cursor, DEFAULT_MAX_BODY_BYTES)
            .unwrap()
            .is_none());
    }

    #[test]
    fn ten_thousand_random_mutations_never_panic_the_decoder() {
        use mtlsplit_tensor::StdRng;
        let mut rng = StdRng::seed_from(0xF0_22);
        let templates = [
            Frame::new(OpCode::InferRequest, 1, vec![0xAB; 64]).encode(),
            Frame::error_coded(2, ErrorCode::Overloaded, "busy").encode(),
            Frame::new(OpCode::Ping, 3, Vec::new()).encode(),
        ];
        for round in 0..10_000u32 {
            let mut bytes = templates[rng.below(templates.len())].clone();
            // 1–3 independent mutations: flip a bit, overwrite a byte, or
            // truncate the tail.
            for _ in 0..=rng.below(3) {
                if bytes.is_empty() {
                    break;
                }
                match rng.below(3) {
                    0 => {
                        let index = rng.below(bytes.len());
                        bytes[index] ^= 1u8 << rng.below(8);
                    }
                    1 => {
                        let index = rng.below(bytes.len());
                        bytes[index] = rng.below(256) as u8;
                    }
                    _ => {
                        let keep = rng.below(bytes.len());
                        bytes.truncate(keep);
                    }
                }
            }
            // Every outcome must be a value, never a panic; when the frame
            // happens to still decode it must satisfy the protocol bounds.
            if let Ok(frame) = Frame::decode(&bytes) {
                assert!(frame.version >= MIN_VERSION, "round {round}");
                assert!(frame.body.len() <= DEFAULT_MAX_BODY_BYTES, "round {round}");
            }
        }
    }

    #[test]
    fn assembler_cuts_frames_from_one_byte_fragments() {
        let frames = [
            Frame::new(OpCode::InferRequest, 7, vec![1, 2, 3]),
            Frame::new(OpCode::Ping, 8, Vec::new()),
            Frame::error_coded(9, ErrorCode::Overloaded, "busy"),
        ];
        let mut wire = Vec::new();
        for frame in &frames {
            wire.extend_from_slice(&frame.encode());
        }
        let mut assembler = FrameAssembler::new(DEFAULT_MAX_BODY_BYTES);
        let mut out = Vec::new();
        for byte in wire {
            assembler.push(&[byte]);
            while let Some(received) = assembler.next_frame().unwrap() {
                match received {
                    Received::Frame(frame) => out.push(frame),
                    other => panic!("unexpected rejection: {other:?}"),
                }
            }
        }
        assert_eq!(out, frames);
        assert_eq!(assembler.buffered(), 0);
    }

    #[test]
    fn assembler_yields_multiple_frames_from_one_push() {
        let a = Frame::new(OpCode::Ping, 1, Vec::new());
        let b = Frame::new(OpCode::InferRequest, 2, vec![5; 10]);
        let mut wire = a.encode();
        wire.extend_from_slice(&b.encode());
        let mut assembler = FrameAssembler::new(DEFAULT_MAX_BODY_BYTES);
        assembler.push(&wire);
        assert!(matches!(
            assembler.next_frame().unwrap(),
            Some(Received::Frame(f)) if f == a
        ));
        assert!(matches!(
            assembler.next_frame().unwrap(),
            Some(Received::Frame(f)) if f == b
        ));
        assert!(assembler.next_frame().unwrap().is_none());
    }

    #[test]
    fn assembler_rejects_recoverably_and_stays_synchronized() {
        // Three recoverable rejections back to back — a version from the
        // future, a corrupted body byte, an unknown op code under a valid
        // checksum — then a good frame that must still parse.
        let future = Frame::with_version(OpCode::Ping, 4, Vec::new(), 9).encode();
        let mut bad_crc = Frame::new(OpCode::InferRequest, 5, vec![1, 2, 3]).encode();
        bad_crc[HEADER_BYTES + 1] ^= 0xFF;
        let mut unknown_op = Vec::new();
        unknown_op.extend_from_slice(&MAGIC.to_le_bytes());
        unknown_op.push(VERSION);
        unknown_op.push(200);
        unknown_op.extend_from_slice(&6u64.to_le_bytes());
        unknown_op.extend_from_slice(&0u32.to_le_bytes());
        let crc = crc32(&[&unknown_op[4..18]]);
        unknown_op.extend_from_slice(&crc.to_le_bytes());
        let good = Frame::new(OpCode::Ping, 7, Vec::new());
        let mut assembler = FrameAssembler::new(DEFAULT_MAX_BODY_BYTES);
        for bytes in [future, bad_crc, unknown_op, good.encode()] {
            assembler.push(&bytes);
        }
        assert!(matches!(
            assembler.next_frame().unwrap(),
            Some(Received::Rejected {
                request_id: 4,
                error: ServeError::UnsupportedVersion { found: 9 },
            })
        ));
        assert!(matches!(
            assembler.next_frame().unwrap(),
            Some(Received::Rejected {
                request_id: 5,
                error: ServeError::ChecksumMismatch { .. },
            })
        ));
        assert!(matches!(
            assembler.next_frame().unwrap(),
            Some(Received::Rejected {
                request_id: 6,
                error: ServeError::UnknownOpCode { code: 200 },
            })
        ));
        assert!(matches!(
            assembler.next_frame().unwrap(),
            Some(Received::Frame(f)) if f == good
        ));
        assert!(assembler.next_frame().unwrap().is_none());
        assert_eq!(assembler.buffered(), 0);
    }

    #[test]
    fn assembler_fails_fatally_on_bad_magic_and_oversize() {
        let mut assembler = FrameAssembler::new(DEFAULT_MAX_BODY_BYTES);
        let mut bytes = Frame::new(OpCode::Ping, 1, Vec::new()).encode();
        bytes[0] ^= 0xFF;
        assembler.push(&bytes);
        assert!(matches!(
            assembler.next_frame(),
            Err(ServeError::BadMagic { .. })
        ));

        let mut small = FrameAssembler::new(4);
        small.push(&Frame::new(OpCode::InferRequest, 2, vec![0; 16]).encode());
        assert!(matches!(
            small.next_frame(),
            Err(ServeError::Oversized { len: 16, max: 4 })
        ));
    }
}
