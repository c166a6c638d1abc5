//! The CWS wire protocol: CRC-framed request/response messages for
//! serving a compressed waveform library over a byte stream.
//!
//! This is the network half of the paper's deployment model: the host
//! keeps the *compressed* library (in a [`Store`](compaqt_core::store::Store))
//! and controllers fetch single gates over the wire, decompressing
//! locally — waveforms cross the network in exactly the CWL entry
//! encoding (the same codec behind [`Entry::payload`](crate::Entry::payload)),
//! so a served stream is byte-identical to the container's payload for
//! the same gate.
//!
//! # Frame layout (little endian)
//!
//! ```text
//! frame   := magic:u32 version:u16 kind:u16 len:u32 payload:len crc:u32
//! crc     := CRC-32 (IEEE) over every preceding byte of the frame
//! ```
//!
//! The 12-byte header is validated *before* the payload is read:
//! magic, version and kind gate garbage early, and `len` is checked
//! against the receiver's frame cap before a single payload byte is
//! buffered — a lying length field can never size an allocation. The
//! trailing CRC-32 covers header and payload, so a flipped bit
//! anywhere in the frame is a typed [`ProtocolError`], never a
//! mis-parse.
//!
//! # Messages
//!
//! | request | payload | response | payload |
//! |---|---|---|---|
//! | [`FrameKind::Ping`] | `nonce:u64` | [`FrameKind::Pong`] | echoed nonce |
//! | [`FrameKind::FetchGate`] | gate id | [`FrameKind::Gate`] | one plain stream |
//! | [`FrameKind::FetchMany`] | `count:u32` gate ids | [`FrameKind::GateBatch`] | `count:u32` streams, request order |
//! | [`FrameKind::ListGates`] | empty | [`FrameKind::GateList`] | `count:u32` gate ids, sorted |
//! | [`FrameKind::LibraryDigest`] | empty | [`FrameKind::Digest`] | [`LibraryDigest`] |
//! | [`FrameKind::Metrics`] | empty | [`FrameKind::MetricsReport`] | an encoded [`Snapshot`] |
//! | *(any)* | | [`FrameKind::Error`] | `code:u8 len:u16 detail:utf8` |
//!
//! The metrics report payload (all little endian):
//!
//! ```text
//! report    := n_samples:u32 sample* n_events:u32 event* dropped:u64
//! sample    := name_len:u16 name:utf8 tag:u8 value
//! value     := counter/gauge (tag 1/2): v:u64
//!            | histogram (tag 3): nonzero:u8 (bucket:u8 count:u64)*
//! event     := kind:u8 a:u64 b:u64 t_ns:u64
//! ```
//!
//! Histograms ship sparse (only non-empty log2 buckets, strictly
//! ascending — a canonical encoding, so equal snapshots encode to
//! identical bytes) and events carry the [`TraceKind`] tag byte.
//!
//! Gate ids and plain streams reuse the container codec, so the
//! parsing rules (bounds checks, covered-by-input counts, canonical
//! variants) are identical on disk and on the wire.

use crate::crc32::crc32;
use crate::format::{need, put_gate, take_gate, take_gate_into};
use crate::ContainerError;
use bytes::{Buf, BufMut, BytesMut};
use compaqt_obs::{HistogramSnapshot, Sample, Snapshot, TraceEvent, TraceKind, Value, BUCKETS};
use compaqt_pulse::library::GateId;
use std::fmt;
use std::io::Read;
use std::time::{Duration, Instant};

/// Magic number opening every CWS frame (`"CWS\0"` little-endian).
pub const WIRE_MAGIC: u32 = u32::from_le_bytes(*b"CWS\0");

/// Wire protocol version this crate speaks.
pub const WIRE_VERSION: u16 = 1;

/// Frame header size: magic + version + kind + payload length.
pub const FRAME_HEADER_BYTES: usize = 4 + 2 + 2 + 4;

/// Frame trailer size: the CRC-32 over header and payload.
pub const FRAME_TRAILER_BYTES: usize = 4;

/// Default cap on a frame's payload length (8 MiB): large enough for
/// any single compressed waveform, small enough that a hostile length
/// claim cannot balloon a connection's buffer.
pub const DEFAULT_MAX_FRAME_BYTES: u32 = 8 * 1024 * 1024;

/// Every message kind the protocol defines. Requests flow client →
/// server; responses (tags with the high bit set) flow back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Liveness probe carrying a `u64` nonce.
    Ping,
    /// Fetch one gate's compressed stream.
    FetchGate,
    /// Fetch a batch of gates' compressed streams in one round trip.
    FetchMany,
    /// List every gate the server holds.
    ListGates,
    /// Summarize the served library (count, bytes, fingerprint).
    LibraryDigest,
    /// Scrape the server's telemetry snapshot.
    Metrics,
    /// Response to [`FrameKind::Ping`]: the echoed nonce.
    Pong,
    /// Response to [`FrameKind::FetchGate`]: one plain stream.
    Gate,
    /// Response to [`FrameKind::FetchMany`]: streams in request order.
    GateBatch,
    /// Response to [`FrameKind::ListGates`]: sorted gate ids.
    GateList,
    /// Response to [`FrameKind::LibraryDigest`]: a [`LibraryDigest`].
    Digest,
    /// Response to [`FrameKind::Metrics`]: an encoded [`Snapshot`].
    MetricsReport,
    /// Typed failure response; payload is `code:u8 len:u16 detail`.
    Error,
}

impl FrameKind {
    /// The on-wire tag.
    pub fn tag(self) -> u16 {
        match self {
            FrameKind::Ping => 0x0001,
            FrameKind::FetchGate => 0x0002,
            FrameKind::FetchMany => 0x0003,
            FrameKind::ListGates => 0x0004,
            FrameKind::LibraryDigest => 0x0005,
            FrameKind::Metrics => 0x0006,
            FrameKind::Pong => 0x8001,
            FrameKind::Gate => 0x8002,
            FrameKind::GateBatch => 0x8003,
            FrameKind::GateList => 0x8004,
            FrameKind::Digest => 0x8005,
            FrameKind::MetricsReport => 0x8006,
            FrameKind::Error => 0x80FF,
        }
    }

    /// Decodes an on-wire tag.
    pub fn from_tag(tag: u16) -> Option<FrameKind> {
        match tag {
            0x0001 => Some(FrameKind::Ping),
            0x0002 => Some(FrameKind::FetchGate),
            0x0003 => Some(FrameKind::FetchMany),
            0x0004 => Some(FrameKind::ListGates),
            0x0005 => Some(FrameKind::LibraryDigest),
            0x0006 => Some(FrameKind::Metrics),
            0x8001 => Some(FrameKind::Pong),
            0x8002 => Some(FrameKind::Gate),
            0x8003 => Some(FrameKind::GateBatch),
            0x8004 => Some(FrameKind::GateList),
            0x8005 => Some(FrameKind::Digest),
            0x8006 => Some(FrameKind::MetricsReport),
            0x80FF => Some(FrameKind::Error),
            _ => None,
        }
    }

    /// `true` for request kinds (client → server).
    pub fn is_request(self) -> bool {
        self.tag() & 0x8000 == 0
    }
}

/// Application-level failure codes carried by [`FrameKind::Error`]
/// responses. Unlike a [`ProtocolError`] (broken framing, connection
/// closed), an error *response* answers a well-framed request and the
/// connection stays usable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The server holds no waveform for the requested gate.
    UnknownGate,
    /// The server is at its connection cap; retry later.
    Busy,
    /// The request frame was well-framed but its payload was malformed
    /// (reported best-effort before the server closes).
    Malformed,
    /// The server failed internally while encoding a response.
    Internal,
}

impl ErrorCode {
    /// The on-wire code byte.
    pub fn tag(self) -> u8 {
        match self {
            ErrorCode::UnknownGate => 1,
            ErrorCode::Busy => 2,
            ErrorCode::Malformed => 3,
            ErrorCode::Internal => 4,
        }
    }

    /// Decodes an on-wire code byte.
    pub fn from_tag(tag: u8) -> Option<ErrorCode> {
        match tag {
            1 => Some(ErrorCode::UnknownGate),
            2 => Some(ErrorCode::Busy),
            3 => Some(ErrorCode::Malformed),
            4 => Some(ErrorCode::Internal),
            _ => None,
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorCode::UnknownGate => write!(f, "unknown gate"),
            ErrorCode::Busy => write!(f, "server busy"),
            ErrorCode::Malformed => write!(f, "malformed request"),
            ErrorCode::Internal => write!(f, "internal server error"),
        }
    }
}

/// Typed rejection of a damaged or hostile frame. Any of these on a
/// connection means the byte stream can no longer be trusted: the
/// receiver reports best-effort and closes.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolError {
    /// The frame does not open with the CWS magic number.
    BadMagic,
    /// The peer speaks an incompatible protocol version.
    VersionSkew {
        /// The version the frame carried.
        found: u16,
    },
    /// The kind tag names no known message.
    UnknownKind(u16),
    /// The declared payload length exceeds the receiver's cap.
    FrameTooLarge {
        /// The length the header claimed.
        claimed: u32,
        /// The receiver's configured cap.
        max: u32,
    },
    /// The stream ended (or the buffer ran out) mid-frame.
    Truncated,
    /// The frame's CRC-32 does not match its bytes.
    CrcMismatch,
    /// The payload parsed but left unconsumed bytes behind.
    TrailingBytes,
    /// A payload field is malformed for the frame's kind.
    Malformed(&'static str),
    /// A gate id or stream inside the payload failed the container
    /// codec's validation.
    Payload(ContainerError),
    /// The peer answered with a kind the conversation didn't ask for.
    UnexpectedKind(u16),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::BadMagic => write!(f, "not a CWS frame"),
            ProtocolError::VersionSkew { found } => {
                write!(f, "wire version {found} is not the supported version {WIRE_VERSION}")
            }
            ProtocolError::UnknownKind(tag) => write!(f, "unknown frame kind {tag:#06x}"),
            ProtocolError::FrameTooLarge { claimed, max } => {
                write!(f, "frame claims {claimed} payload bytes, cap is {max}")
            }
            ProtocolError::Truncated => write!(f, "frame truncated"),
            ProtocolError::CrcMismatch => write!(f, "frame checksum mismatch"),
            ProtocolError::TrailingBytes => write!(f, "frame payload has trailing bytes"),
            ProtocolError::Malformed(what) => write!(f, "malformed frame payload: {what}"),
            ProtocolError::Payload(e) => write!(f, "malformed frame payload: {e}"),
            ProtocolError::UnexpectedKind(tag) => {
                write!(f, "unexpected frame kind {tag:#06x} for this conversation")
            }
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Payload(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ContainerError> for ProtocolError {
    fn from(e: ContainerError) -> Self {
        ProtocolError::Payload(e)
    }
}

/// A served library's summary: what a controller compares against its
/// cached copy to decide whether to refresh.
///
/// The fingerprint is an order-independent fold (wrapping sum of one
/// FNV-1a hash per entry over the gate id and its encoded stream), so
/// it is stable under the store's unspecified visit order and changes
/// whenever any gate is added, removed or recalibrated. It is a
/// change detector, **not** a cryptographic commitment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LibraryDigest {
    /// Number of gates served.
    pub gates: u32,
    /// Total encoded bytes across every served stream.
    pub payload_bytes: u64,
    /// Order-independent content fingerprint.
    pub fingerprint: u64,
}

/// FNV-1a over a byte slice; the digest's per-entry hash.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

// ------------------------------------------------------------- framing

/// Starts a frame of `kind` in `out` (cleared first): header with a
/// zero length field, to be patched by [`end_frame`].
pub fn begin_frame(out: &mut BytesMut, kind: FrameKind) {
    out.clear();
    out.put_u32_le(WIRE_MAGIC);
    out.put_u16_le(WIRE_VERSION);
    out.put_u16_le(kind.tag());
    out.put_u32_le(0); // payload length, patched by end_frame
}

/// Finishes the frame begun by [`begin_frame`]: back-patches the
/// payload length and appends the CRC-32 over everything before it.
///
/// # Panics
///
/// Panics if the payload exceeds `u32::MAX` bytes (no representable
/// waveform library comes within orders of magnitude of that).
pub fn end_frame(out: &mut BytesMut) {
    let len = u32::try_from(out.len() - FRAME_HEADER_BYTES)
        .expect("frame payload exceeds u32::MAX bytes");
    out[8..12].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&out[..]);
    out.put_u32_le(crc);
}

/// Validates and splits one complete in-memory frame into its kind and
/// payload. Total: every hostile input is a typed [`ProtocolError`],
/// never a panic, and nothing is allocated.
pub fn parse_frame(frame: &[u8], max_payload: u32) -> Result<(FrameKind, &[u8]), ProtocolError> {
    if frame.len() < FRAME_HEADER_BYTES + FRAME_TRAILER_BYTES {
        return Err(ProtocolError::Truncated);
    }
    let mut header = &frame[..FRAME_HEADER_BYTES];
    let (kind, len) = parse_header(&mut header, max_payload)?;
    let total = FRAME_HEADER_BYTES + len + FRAME_TRAILER_BYTES;
    if frame.len() < total {
        return Err(ProtocolError::Truncated);
    }
    if frame.len() > total {
        return Err(ProtocolError::TrailingBytes);
    }
    check_crc(frame)?;
    Ok((kind, &frame[FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + len]))
}

/// Validates a frame header, returning its kind and payload length.
/// Field order mirrors the wire: magic, version, kind, then length —
/// so garbage fails on the cheapest check first.
fn parse_header(header: &mut &[u8], max_payload: u32) -> Result<(FrameKind, usize), ProtocolError> {
    if header.get_u32_le() != WIRE_MAGIC {
        return Err(ProtocolError::BadMagic);
    }
    let version = header.get_u16_le();
    if version != WIRE_VERSION {
        return Err(ProtocolError::VersionSkew { found: version });
    }
    let tag = header.get_u16_le();
    let kind = FrameKind::from_tag(tag).ok_or(ProtocolError::UnknownKind(tag))?;
    let len = header.get_u32_le();
    if len > max_payload {
        return Err(ProtocolError::FrameTooLarge { claimed: len, max: max_payload });
    }
    Ok((kind, len as usize))
}

/// Checks a complete frame's trailing CRC-32.
fn check_crc(frame: &[u8]) -> Result<(), ProtocolError> {
    let body = frame.len() - FRAME_TRAILER_BYTES;
    let mut trailer = &frame[body..];
    if crc32(&frame[..body]) != trailer.get_u32_le() {
        return Err(ProtocolError::CrcMismatch);
    }
    Ok(())
}

/// What [`read_frame`] found on the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameRead {
    /// A complete validated frame now fills the buffer; its payload is
    /// `buf[FRAME_HEADER_BYTES .. buf.len() - FRAME_TRAILER_BYTES]`.
    Frame(FrameKind),
    /// The peer closed cleanly at a frame boundary (no bytes read).
    Eof,
}

/// A failure while reading one frame from a stream.
#[derive(Debug)]
pub enum ReadFrameError {
    /// The transport failed (including read timeouts and the
    /// per-frame deadline of [`read_frame`]).
    Io(std::io::Error),
    /// The bytes violated the framing rules.
    Protocol(ProtocolError),
}

impl fmt::Display for ReadFrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadFrameError::Io(e) => write!(f, "frame read failed: {e}"),
            ReadFrameError::Protocol(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ReadFrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadFrameError::Io(e) => Some(e),
            ReadFrameError::Protocol(e) => Some(e),
        }
    }
}

/// How far [`read_frame`] grows its buffer past the bytes that have
/// already landed, beyond the capacity it already holds.
const READ_GROW_STEP: usize = 64 * 1024;

/// Reads and validates one frame from a blocking stream into a
/// reusable buffer. The header is validated **before** the payload is
/// buffered, and the buffer then grows in steps of at most 64 KiB past
/// the bytes received, so a length claim up to `max_payload` commits
/// memory only as fast as the peer actually sends bytes. `buf` keeps its
/// capacity across calls, so a steady-state connection reads without
/// allocating. EOF cleanly at a frame boundary is [`FrameRead::Eof`];
/// EOF mid-frame is [`ProtocolError::Truncated`].
///
/// `frame_timeout` bounds a frame in flight (zero = unbounded). Once the
/// frame's first byte lands, any later read that returns more than
/// `frame_timeout` after it without completing the frame fails with
/// [`std::io::ErrorKind::TimedOut`]. Paired with a socket read timeout
/// of the same length, a peer trickling bytes loses the connection
/// within twice that, however short its gaps. Waiting for the first
/// byte is left to the socket's own read timeout. A frame that arrives
/// in whole chunks pays one clock read.
pub fn read_frame(
    stream: &mut impl Read,
    buf: &mut Vec<u8>,
    max_payload: u32,
    frame_timeout: Duration,
) -> Result<FrameRead, ReadFrameError> {
    let mut clock = FrameClock { limit: frame_timeout, first_byte: None };
    buf.clear();
    buf.resize(FRAME_HEADER_BYTES, 0);
    if !fill(stream, &mut buf[..], true, &mut clock, false)? {
        return Ok(FrameRead::Eof);
    }
    let mut header = &buf[..];
    let (kind, len) = parse_header(&mut header, max_payload).map_err(ReadFrameError::Protocol)?;
    let total = FRAME_HEADER_BYTES + len + FRAME_TRAILER_BYTES;
    let mut filled = FRAME_HEADER_BYTES;
    while filled < total {
        // Capacity already held is free to use; growth past it waits
        // for the bytes before it to arrive.
        let end = total.min(buf.capacity().max(filled + READ_GROW_STEP));
        buf.resize(end, 0);
        fill(stream, &mut buf[filled..end], false, &mut clock, end == total)?;
        filled = end;
    }
    check_crc(buf).map_err(ReadFrameError::Protocol)?;
    Ok(FrameRead::Frame(kind))
}

/// The per-frame deadline of [`read_frame`].
struct FrameClock {
    limit: Duration,
    /// When the frame's first byte landed; unset until then.
    first_byte: Option<Instant>,
}

impl FrameClock {
    /// Runs after every read that landed bytes. The first arms the
    /// clock; a later one fails once the limit has passed, unless it
    /// completed the frame.
    fn on_read(&mut self, completes_frame: bool) -> Result<(), ReadFrameError> {
        if self.limit.is_zero() {
            return Ok(());
        }
        match self.first_byte {
            None => self.first_byte = Some(Instant::now()),
            Some(t) if !completes_frame && t.elapsed() > self.limit => {
                return Err(ReadFrameError::Io(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "frame not completed within the read timeout",
                )));
            }
            Some(_) => {}
        }
        Ok(())
    }
}

/// Fills `chunk` from the stream. Returns `Ok(false)` only when
/// `eof_ok` and the stream ended before the first byte; EOF anywhere
/// else is [`ProtocolError::Truncated`]. `last_chunk` marks the chunk
/// that ends the frame.
fn fill(
    stream: &mut impl Read,
    chunk: &mut [u8],
    eof_ok: bool,
    clock: &mut FrameClock,
    last_chunk: bool,
) -> Result<bool, ReadFrameError> {
    let mut filled = 0usize;
    while filled < chunk.len() {
        match stream.read(&mut chunk[filled..]) {
            Ok(0) => {
                return if eof_ok && filled == 0 {
                    Ok(false)
                } else {
                    Err(ReadFrameError::Protocol(ProtocolError::Truncated))
                };
            }
            Ok(n) => {
                filled += n;
                clock.on_read(last_chunk && filled == chunk.len())?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ReadFrameError::Io(e)),
        }
    }
    Ok(true)
}

// ----------------------------------------------------------- requests

/// Encodes a complete [`FrameKind::Ping`] frame.
pub fn encode_ping(out: &mut BytesMut, nonce: u64) {
    begin_frame(out, FrameKind::Ping);
    out.put_u64_le(nonce);
    end_frame(out);
}

/// Encodes a complete [`FrameKind::FetchGate`] frame.
///
/// # Errors
///
/// [`ContainerError::Unrepresentable`] if the gate id exceeds the
/// codec's field widths.
pub fn encode_fetch_gate(out: &mut BytesMut, gate: &GateId) -> Result<(), ContainerError> {
    begin_frame(out, FrameKind::FetchGate);
    put_gate(out, gate)?;
    end_frame(out);
    Ok(())
}

/// Encodes a complete [`FrameKind::FetchMany`] frame.
///
/// # Errors
///
/// [`ContainerError::Unrepresentable`] if the batch exceeds `u32`
/// gates or a gate id exceeds the codec's field widths.
pub fn encode_fetch_many(out: &mut BytesMut, gates: &[GateId]) -> Result<(), ContainerError> {
    begin_frame(out, FrameKind::FetchMany);
    out.put_u32_le(crate::format::checked_u32(gates.len(), "more than 2^32 gates in one batch")?);
    for gate in gates {
        put_gate(out, gate)?;
    }
    end_frame(out);
    Ok(())
}

/// Encodes a complete [`FrameKind::ListGates`] frame (empty payload).
pub fn encode_list_gates(out: &mut BytesMut) {
    begin_frame(out, FrameKind::ListGates);
    end_frame(out);
}

/// Encodes a complete [`FrameKind::LibraryDigest`] frame (empty
/// payload).
pub fn encode_library_digest(out: &mut BytesMut) {
    begin_frame(out, FrameKind::LibraryDigest);
    end_frame(out);
}

/// Encodes a complete [`FrameKind::Metrics`] frame (empty payload).
pub fn encode_metrics(out: &mut BytesMut) {
    begin_frame(out, FrameKind::Metrics);
    end_frame(out);
}

// ---------------------------------------------------------- responses

/// Encodes a complete [`FrameKind::Error`] frame. Detail strings
/// longer than `u16::MAX` bytes are truncated at a character boundary.
pub fn encode_error(out: &mut BytesMut, code: ErrorCode, detail: &str) {
    let mut cut = detail.len().min(usize::from(u16::MAX));
    while !detail.is_char_boundary(cut) {
        cut -= 1;
    }
    begin_frame(out, FrameKind::Error);
    out.put_u8(code.tag());
    out.put_u16_le(cut as u16);
    out.put_slice(&detail.as_bytes()[..cut]);
    end_frame(out);
}

/// Encodes a complete [`FrameKind::MetricsReport`] frame carrying a
/// telemetry [`Snapshot`] in the sparse layout of the [module
/// docs](self). The encoding is canonical — equal snapshots produce
/// identical bytes — which is what lets tests bit-check a scraped
/// report against a locally rendered one.
///
/// # Errors
///
/// [`ContainerError::Unrepresentable`] if a metric name exceeds
/// `u16::MAX` bytes or a count exceeds `u32::MAX`.
pub fn encode_metrics_report(out: &mut BytesMut, snap: &Snapshot) -> Result<(), ContainerError> {
    begin_frame(out, FrameKind::MetricsReport);
    out.put_u32_le(crate::format::checked_u32(
        snap.samples.len(),
        "more than 2^32 metric samples in one report",
    )?);
    for sample in &snap.samples {
        let name = sample.name.as_bytes();
        if name.len() > usize::from(u16::MAX) {
            return Err(ContainerError::Unrepresentable("metric name exceeds u16::MAX bytes"));
        }
        out.put_u16_le(name.len() as u16);
        out.put_slice(name);
        match &sample.value {
            Value::Counter(v) => {
                out.put_u8(1);
                out.put_u64_le(*v);
            }
            Value::Gauge(v) => {
                out.put_u8(2);
                out.put_u64_le(*v);
            }
            Value::Histogram(h) => {
                out.put_u8(3);
                // At most BUCKETS (= 64) non-empty buckets: fits u8.
                let nonzero = h.buckets.iter().filter(|&&c| c != 0).count() as u8;
                out.put_u8(nonzero);
                for (b, &count) in h.buckets.iter().enumerate() {
                    if count != 0 {
                        out.put_u8(b as u8);
                        out.put_u64_le(count);
                    }
                }
            }
        }
    }
    out.put_u32_le(crate::format::checked_u32(
        snap.events.len(),
        "more than 2^32 trace events in one report",
    )?);
    for e in &snap.events {
        out.put_u8(e.kind.tag());
        out.put_u64_le(e.a);
        out.put_u64_le(e.b);
        out.put_u64_le(e.t_ns);
    }
    out.put_u64_le(snap.dropped_events);
    end_frame(out);
    Ok(())
}

/// Parses a [`FrameKind::MetricsReport`] payload back into a
/// [`Snapshot`]. Total: every count is covered by input before it
/// sizes an allocation, bucket indexes must be in range and strictly
/// ascending (the canonical encoding), and unknown sample/event tags
/// are typed errors.
///
/// # Errors
///
/// [`ProtocolError::Malformed`] / [`ProtocolError::Truncated`] /
/// [`ProtocolError::TrailingBytes`] naming the first violation.
pub fn parse_metrics_report(mut payload: &[u8]) -> Result<Snapshot, ProtocolError> {
    let mut snap = Snapshot::new();
    need(&payload, 4).map_err(|_| ProtocolError::Malformed("report shorter than sample count"))?;
    let n_samples = payload.get_u32_le() as usize;
    // Minimum sample is 4 bytes (empty name, empty histogram): the
    // count is covered by input before anything is reserved.
    need(&payload, n_samples.checked_mul(4).ok_or(ProtocolError::Truncated)?)
        .map_err(|_| ProtocolError::Truncated)?;
    snap.samples.reserve(n_samples);
    for _ in 0..n_samples {
        need(&payload, 2).map_err(|_| ProtocolError::Truncated)?;
        let name_len = usize::from(payload.get_u16_le());
        need(&payload, name_len + 1).map_err(|_| ProtocolError::Truncated)?;
        let name = std::str::from_utf8(&payload[..name_len])
            .map_err(|_| ProtocolError::Malformed("metric name is not UTF-8"))?
            .to_string();
        payload.advance(name_len);
        let value = match payload.get_u8() {
            1 => {
                need(&payload, 8).map_err(|_| ProtocolError::Truncated)?;
                Value::Counter(payload.get_u64_le())
            }
            2 => {
                need(&payload, 8).map_err(|_| ProtocolError::Truncated)?;
                Value::Gauge(payload.get_u64_le())
            }
            3 => {
                need(&payload, 1).map_err(|_| ProtocolError::Truncated)?;
                let nonzero = usize::from(payload.get_u8());
                need(&payload, nonzero.checked_mul(9).ok_or(ProtocolError::Truncated)?)
                    .map_err(|_| ProtocolError::Truncated)?;
                let mut h = HistogramSnapshot::empty();
                let mut prev: Option<usize> = None;
                for _ in 0..nonzero {
                    let b = usize::from(payload.get_u8());
                    if b >= BUCKETS {
                        return Err(ProtocolError::Malformed("histogram bucket out of range"));
                    }
                    if prev.is_some_and(|p| p >= b) {
                        return Err(ProtocolError::Malformed(
                            "histogram buckets are not strictly ascending",
                        ));
                    }
                    prev = Some(b);
                    let count = payload.get_u64_le();
                    if count == 0 {
                        return Err(ProtocolError::Malformed("histogram encodes an empty bucket"));
                    }
                    h.buckets[b] = count;
                }
                Value::Histogram(h)
            }
            _ => return Err(ProtocolError::Malformed("unknown metric sample tag")),
        };
        snap.samples.push(Sample { name, value });
    }
    need(&payload, 4).map_err(|_| ProtocolError::Malformed("report shorter than event count"))?;
    let n_events = payload.get_u32_le() as usize;
    need(&payload, n_events.checked_mul(25).ok_or(ProtocolError::Truncated)?)
        .map_err(|_| ProtocolError::Truncated)?;
    snap.events.reserve(n_events);
    for _ in 0..n_events {
        let kind = TraceKind::from_tag(payload.get_u8())
            .ok_or(ProtocolError::Malformed("unknown trace event tag"))?;
        let a = payload.get_u64_le();
        let b = payload.get_u64_le();
        let t_ns = payload.get_u64_le();
        snap.events.push(TraceEvent { kind, a, b, t_ns });
    }
    need(&payload, 8).map_err(|_| ProtocolError::Malformed("report missing dropped count"))?;
    snap.dropped_events = payload.get_u64_le();
    if !payload.is_empty() {
        return Err(ProtocolError::TrailingBytes);
    }
    Ok(snap)
}

/// Parses a [`FrameKind::Pong`] payload into its nonce.
///
/// # Errors
///
/// [`ProtocolError::Malformed`] unless the payload is exactly 8 bytes.
pub fn parse_pong(mut payload: &[u8]) -> Result<u64, ProtocolError> {
    if payload.len() != 8 {
        return Err(ProtocolError::Malformed("pong payload is not exactly one u64 nonce"));
    }
    Ok(payload.get_u64_le())
}

/// Parses a [`FrameKind::Digest`] payload.
///
/// # Errors
///
/// [`ProtocolError::Malformed`] unless the payload is exactly the
/// digest's 20 bytes.
pub fn parse_digest(mut payload: &[u8]) -> Result<LibraryDigest, ProtocolError> {
    if payload.len() != 4 + 8 + 8 {
        return Err(ProtocolError::Malformed("digest payload is not exactly 20 bytes"));
    }
    Ok(LibraryDigest {
        gates: payload.get_u32_le(),
        payload_bytes: payload.get_u64_le(),
        fingerprint: payload.get_u64_le(),
    })
}

/// Parses a [`FrameKind::Error`] payload into its code and detail.
///
/// # Errors
///
/// [`ProtocolError::Malformed`] on unknown codes, short payloads or
/// non-UTF-8 detail text.
pub fn parse_error(mut payload: &[u8]) -> Result<(ErrorCode, String), ProtocolError> {
    need(&payload, 3).map_err(|_| ProtocolError::Malformed("error payload shorter than header"))?;
    let code = ErrorCode::from_tag(payload.get_u8())
        .ok_or(ProtocolError::Malformed("unknown error code"))?;
    let len = usize::from(payload.get_u16_le());
    if payload.len() != len {
        return Err(ProtocolError::Malformed("error detail length lies"));
    }
    let detail = std::str::from_utf8(payload)
        .map_err(|_| ProtocolError::Malformed("error detail is not UTF-8"))?
        .to_string();
    Ok((code, detail))
}

/// Parses a [`FrameKind::GateList`] payload into owned gate ids.
///
/// # Errors
///
/// [`ProtocolError`] on count lies, malformed gates or trailing bytes.
pub fn parse_gate_list(mut payload: &[u8]) -> Result<Vec<GateId>, ProtocolError> {
    need(&payload, 4).map_err(|_| ProtocolError::Malformed("gate list shorter than its count"))?;
    let count = payload.get_u32_le() as usize;
    // A gate id is at least 2 bytes (kind + qubit count), so the claim
    // is covered by input before it sizes the list.
    need(&payload, count.checked_mul(2).ok_or(ProtocolError::Truncated)?)
        .map_err(|_| ProtocolError::Truncated)?;
    let mut gates = Vec::with_capacity(count);
    for _ in 0..count {
        gates.push(take_gate(&mut payload)?);
    }
    if !payload.is_empty() {
        return Err(ProtocolError::TrailingBytes);
    }
    Ok(gates)
}

/// Parses a [`FrameKind::FetchMany`] payload's gate list into reused
/// slots, growing `gates` only when the batch is larger than any seen
/// before, and returning the batch size.
///
/// # Errors
///
/// [`ProtocolError`] on count lies, malformed gates or trailing bytes.
pub fn parse_fetch_many(
    payload: &mut &[u8],
    gates: &mut Vec<GateId>,
) -> Result<usize, ProtocolError> {
    need(payload, 4).map_err(|_| ProtocolError::Malformed("batch shorter than its count"))?;
    let count = payload.get_u32_le() as usize;
    need(payload, count.checked_mul(2).ok_or(ProtocolError::Truncated)?)
        .map_err(|_| ProtocolError::Truncated)?;
    for k in 0..count {
        if gates.len() <= k {
            gates.push(GateId { kind: compaqt_pulse::library::GateKind::X, qubits: Vec::new() });
        }
        take_gate_into(payload, &mut gates[k])?;
    }
    if !payload.is_empty() {
        return Err(ProtocolError::TrailingBytes);
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use compaqt_pulse::library::GateKind;

    #[test]
    fn frame_round_trip_all_request_kinds() {
        let mut out = BytesMut::new();
        encode_ping(&mut out, 0xDEAD_BEEF_1234_5678);
        let (kind, payload) = parse_frame(&out, DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(kind, FrameKind::Ping);
        assert_eq!(parse_pong(payload).unwrap(), 0xDEAD_BEEF_1234_5678);

        let gate = GateId::pair(GateKind::Cx, 3, 7);
        encode_fetch_gate(&mut out, &gate).unwrap();
        let (kind, mut payload) = parse_frame(&out, DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(kind, FrameKind::FetchGate);
        assert_eq!(take_gate(&mut payload).unwrap(), gate);
        assert!(payload.is_empty());

        let batch =
            vec![GateId::single(GateKind::X, 0), GateId::single(GateKind::Custom("ccz".into()), 4)];
        encode_fetch_many(&mut out, &batch).unwrap();
        let (kind, mut payload) = parse_frame(&out, DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(kind, FrameKind::FetchMany);
        let mut slots = Vec::new();
        assert_eq!(parse_fetch_many(&mut payload, &mut slots).unwrap(), 2);
        assert_eq!(&slots[..2], &batch[..]);

        encode_list_gates(&mut out);
        assert_eq!(parse_frame(&out, 64).unwrap(), (FrameKind::ListGates, &[][..]));
        encode_library_digest(&mut out);
        assert_eq!(parse_frame(&out, 64).unwrap(), (FrameKind::LibraryDigest, &[][..]));
    }

    #[test]
    fn every_tag_round_trips_and_classifies() {
        for kind in [
            FrameKind::Ping,
            FrameKind::FetchGate,
            FrameKind::FetchMany,
            FrameKind::ListGates,
            FrameKind::LibraryDigest,
            FrameKind::Metrics,
            FrameKind::Pong,
            FrameKind::Gate,
            FrameKind::GateBatch,
            FrameKind::GateList,
            FrameKind::Digest,
            FrameKind::MetricsReport,
            FrameKind::Error,
        ] {
            assert_eq!(FrameKind::from_tag(kind.tag()), Some(kind));
            assert_eq!(kind.is_request(), kind.tag() & 0x8000 == 0, "{kind:?}");
        }
        assert_eq!(FrameKind::from_tag(0x7777), None);
    }

    #[test]
    fn framing_damage_is_typed() {
        let mut out = BytesMut::new();
        encode_ping(&mut out, 7);
        let good = out.to_vec();

        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert_eq!(parse_frame(&bad, 1024), Err(ProtocolError::BadMagic));

        let mut bad = good.clone();
        bad[4] = 99;
        assert_eq!(parse_frame(&bad, 1024), Err(ProtocolError::VersionSkew { found: 99 }));

        let mut bad = good.clone();
        bad[6] = 0x77;
        bad[7] = 0x77;
        assert_eq!(parse_frame(&bad, 1024), Err(ProtocolError::UnknownKind(0x7777)));

        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            parse_frame(&bad, 1024),
            Err(ProtocolError::FrameTooLarge { claimed: u32::MAX, max: 1024 })
        );

        let mut bad = good.clone();
        *bad.last_mut().unwrap() ^= 1;
        assert_eq!(parse_frame(&bad, 1024), Err(ProtocolError::CrcMismatch));

        assert_eq!(parse_frame(&good[..good.len() - 1], 1024), Err(ProtocolError::Truncated));
        let mut long = good.clone();
        long.push(0);
        assert_eq!(parse_frame(&long, 1024), Err(ProtocolError::TrailingBytes));
        assert_eq!(parse_frame(&[], 1024), Err(ProtocolError::Truncated));
    }

    #[test]
    fn read_frame_streams_and_distinguishes_eof() {
        let mut out = BytesMut::new();
        encode_ping(&mut out, 41);
        let mut wire = out.to_vec();
        encode_list_gates(&mut out);
        wire.extend_from_slice(&out);

        let mut stream = &wire[..];
        let mut buf = Vec::new();
        assert_eq!(
            read_frame(&mut stream, &mut buf, 1024, Duration::ZERO).unwrap(),
            FrameRead::Frame(FrameKind::Ping)
        );
        assert_eq!(
            parse_pong(&buf[FRAME_HEADER_BYTES..buf.len() - FRAME_TRAILER_BYTES]).unwrap(),
            41
        );
        assert_eq!(
            read_frame(&mut stream, &mut buf, 1024, Duration::ZERO).unwrap(),
            FrameRead::Frame(FrameKind::ListGates)
        );
        assert_eq!(
            read_frame(&mut stream, &mut buf, 1024, Duration::ZERO).unwrap(),
            FrameRead::Eof
        );

        // EOF mid-frame is truncation, not a clean close.
        let mut stream = &wire[..5];
        assert!(matches!(
            read_frame(&mut stream, &mut buf, 1024, Duration::ZERO),
            Err(ReadFrameError::Protocol(ProtocolError::Truncated))
        ));
    }

    #[test]
    fn a_claimed_length_commits_memory_only_as_bytes_arrive() {
        let max = DEFAULT_MAX_FRAME_BYTES;
        let mut wire = Vec::new();
        wire.extend_from_slice(&WIRE_MAGIC.to_le_bytes());
        wire.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        wire.extend_from_slice(&FrameKind::Pong.tag().to_le_bytes());
        wire.extend_from_slice(&max.to_le_bytes());
        wire.extend_from_slice(&[0xAB; 5]);
        let mut stream = &wire[..];
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut stream, &mut buf, max, Duration::ZERO),
            Err(ReadFrameError::Protocol(ProtocolError::Truncated))
        ));
        assert!(
            buf.capacity() <= 2 * (FRAME_HEADER_BYTES + READ_GROW_STEP),
            "a {max}-byte claim followed by 5 bytes grew the buffer to {}",
            buf.capacity()
        );

        // A frame larger than one step still arrives whole, and a warm
        // buffer reads it again without growing.
        let mut out = BytesMut::new();
        begin_frame(&mut out, FrameKind::Pong);
        out.put_slice(&vec![7u8; 3 * READ_GROW_STEP + 11]);
        end_frame(&mut out);
        let mut buf = Vec::new();
        for _ in 0..2 {
            let mut stream = &out[..];
            assert_eq!(
                read_frame(&mut stream, &mut buf, max, Duration::ZERO).unwrap(),
                FrameRead::Frame(FrameKind::Pong)
            );
            assert_eq!(buf, out[..]);
        }
        let warm = buf.capacity();
        let mut stream = &out[..];
        read_frame(&mut stream, &mut buf, max, Duration::ZERO).unwrap();
        assert_eq!(buf.capacity(), warm);
    }

    #[test]
    fn error_frames_round_trip_and_truncate_detail() {
        let mut out = BytesMut::new();
        encode_error(&mut out, ErrorCode::UnknownGate, "no such gate: X q3");
        let (kind, payload) = parse_frame(&out, 1024).unwrap();
        assert_eq!(kind, FrameKind::Error);
        let (code, detail) = parse_error(payload).unwrap();
        assert_eq!(code, ErrorCode::UnknownGate);
        assert_eq!(detail, "no such gate: X q3");

        // A multi-byte character straddling the cap is dropped whole.
        let mut long = "x".repeat(usize::from(u16::MAX) - 1);
        long.push('é');
        encode_error(&mut out, ErrorCode::Internal, &long);
        let (_, payload) = parse_frame(&out, u32::MAX).unwrap();
        let (_, detail) = parse_error(payload).unwrap();
        assert_eq!(detail.len(), usize::from(u16::MAX) - 1);

        for code in
            [ErrorCode::UnknownGate, ErrorCode::Busy, ErrorCode::Malformed, ErrorCode::Internal]
        {
            assert_eq!(ErrorCode::from_tag(code.tag()), Some(code));
        }
        assert_eq!(ErrorCode::from_tag(0), None);
    }

    #[test]
    fn metrics_report_round_trips_and_is_canonical() {
        let mut snap = Snapshot::new();
        snap.push_counter("requests", 41);
        snap.push_gauge("connections", 3);
        let hist = compaqt_obs::Histogram::new();
        for v in [0, 1, 90, 90, 4000] {
            hist.record(v);
        }
        snap.push_histogram("lat_ns", hist.snapshot());
        snap.events.push(TraceEvent { kind: TraceKind::SlowRequest, a: 2, b: 9000, t_ns: 77 });
        snap.dropped_events = 5;

        let mut out = BytesMut::new();
        encode_metrics_report(&mut out, &snap).unwrap();
        let (kind, payload) = parse_frame(&out, DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(kind, FrameKind::MetricsReport);
        let back = parse_metrics_report(payload).unwrap();
        assert_eq!(back.samples, snap.samples);
        assert_eq!(back.events, snap.events);
        assert_eq!(back.dropped_events, 5);

        // Canonical: re-encoding the parsed snapshot is bit-identical.
        let mut again = BytesMut::new();
        encode_metrics_report(&mut again, &back).unwrap();
        assert_eq!(&out[..], &again[..]);

        // The empty request frame pairs with it.
        encode_metrics(&mut out);
        assert_eq!(parse_frame(&out, 64).unwrap(), (FrameKind::Metrics, &[][..]));
    }

    #[test]
    fn hostile_metrics_reports_are_typed_errors() {
        // An empty snapshot still carries its three section footers.
        let mut out = BytesMut::new();
        encode_metrics_report(&mut out, &Snapshot::new()).unwrap();
        let (_, payload) = parse_frame(&out, 1024).unwrap();
        assert_eq!(parse_metrics_report(payload).unwrap(), Snapshot::new());

        // Lying sample count: covered-by-input before allocation.
        let mut lying = Snapshot::new();
        let mut raw = BytesMut::new();
        encode_metrics_report(&mut raw, &lying).unwrap();
        let mut bytes = raw[FRAME_HEADER_BYTES..raw.len() - FRAME_TRAILER_BYTES].to_vec();
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(parse_metrics_report(&bytes), Err(ProtocolError::Truncated));

        // Out-of-range bucket index.
        lying.push_histogram("h", HistogramSnapshot::empty());
        let mut raw = BytesMut::new();
        encode_metrics_report(&mut raw, &lying).unwrap();
        let mut bytes = raw[FRAME_HEADER_BYTES..raw.len() - FRAME_TRAILER_BYTES].to_vec();
        // sample: count(4) name_len(2) "h"(1) tag(1) -> nonzero at 8
        bytes[8] = 1;
        bytes.splice(9..9, [200u8, 1, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(
            parse_metrics_report(&bytes),
            Err(ProtocolError::Malformed("histogram bucket out of range"))
        );

        // Unknown trace tag.
        let mut evs = Snapshot::new();
        evs.events.push(TraceEvent { kind: TraceKind::ConnOpen, a: 0, b: 0, t_ns: 0 });
        let mut raw = BytesMut::new();
        encode_metrics_report(&mut raw, &evs).unwrap();
        let mut bytes = raw[FRAME_HEADER_BYTES..raw.len() - FRAME_TRAILER_BYTES].to_vec();
        bytes[8] = 0xEE; // the event's kind byte (after two u32 counts)
        assert_eq!(
            parse_metrics_report(&bytes),
            Err(ProtocolError::Malformed("unknown trace event tag"))
        );

        // Trailing bytes after the dropped count.
        let mut raw = BytesMut::new();
        encode_metrics_report(&mut raw, &Snapshot::new()).unwrap();
        let mut bytes = raw[FRAME_HEADER_BYTES..raw.len() - FRAME_TRAILER_BYTES].to_vec();
        bytes.push(0);
        assert_eq!(parse_metrics_report(&bytes), Err(ProtocolError::TrailingBytes));
    }

    #[test]
    fn gate_list_round_trips() {
        let gates = vec![
            GateId::single(GateKind::X, 0),
            GateId::single(GateKind::Sx, 1),
            GateId::pair(GateKind::Cx, 0, 1),
        ];
        let mut out = BytesMut::new();
        begin_frame(&mut out, FrameKind::GateList);
        out.put_u32_le(gates.len() as u32);
        for g in &gates {
            put_gate(&mut out, g).unwrap();
        }
        end_frame(&mut out);
        let (kind, payload) = parse_frame(&out, 1024).unwrap();
        assert_eq!(kind, FrameKind::GateList);
        assert_eq!(parse_gate_list(payload).unwrap(), gates);

        // A lying count is covered-by-input checked before allocation.
        let mut lying = BytesMut::new();
        begin_frame(&mut lying, FrameKind::GateList);
        lying.put_u32_le(u32::MAX);
        end_frame(&mut lying);
        let (_, payload) = parse_frame(&lying, 1024).unwrap();
        assert_eq!(parse_gate_list(payload), Err(ProtocolError::Truncated));
    }
}
