//! `compaqt-serve`: a waveform service daemon and its blocking client.
//!
//! The deployment tier between a CWL container on disk and a fleet of
//! controllers: any [`FetchSource`] — a decoded [`Store`], or a
//! [`Reader`](crate::Reader) serving straight from container bytes
//! (including a lazily-validated memory map of a larger-than-RAM
//! library, via [`serve_source`]) — is shared behind a TCP listener,
//! and many concurrent controller clients fetch gates over the
//! [`crate::wire`] protocol. Waveforms travel **compressed** (the
//! paper's model: the controller decompresses locally), so the
//! server's per-request work is a lookup and a straight serialization
//! of the stored stream — no decode, no clone; for a reader-backed
//! source the payload bytes *are* the wire bytes, so serving is
//! zero-parse as well.
//!
//! # Architecture
//!
//! No async runtime is available offline, so the transport is
//! deliberately boring: `std::net::TcpListener`, one blocking thread
//! per connection, explicit read/write timeouts, and a connection cap
//! with graceful [`ErrorCode::Busy`] rejection. The protocol is the
//! contract — [`Responder`] is a pure request→response state machine
//! with no transport inside it, so an async transport can replace the
//! thread-per-connection loop later without touching the wire format
//! (and the `alloc_regression` suite drives [`Responder`] directly to
//! pin the fetch path's zero-steady-state-allocation guarantee).
//!
//! Per connection, the server keeps one reusable read buffer, one
//! reusable response buffer and reusable gate-id slots: after warm-up,
//! serving `FetchGate` / `FetchMany` / `Ping` performs **zero heap
//! allocations** end to end, mirroring the `_into` convention
//! everywhere else in the workspace.
//!
//! Hostile bytes — bit flips, truncations, length lies, CRC damage,
//! oversized claims — come back as typed [`ProtocolError`]s: the
//! connection reports best-effort and closes, the server thread
//! survives to serve the next client, and nothing panics and nothing
//! allocates from a lying length field.
//!
//! # Example
//!
//! ```
//! use compaqt_core::compress::{Compressor, Variant};
//! use compaqt_core::store::Store;
//! use compaqt_io::serve::{serve, Client};
//! use compaqt_pulse::device::Device;
//! use compaqt_pulse::vendor::Vendor;
//! use std::sync::Arc;
//!
//! let lib = Device::synthesize(Vendor::Ibm, 2, 0x5E21E).pulse_library();
//! let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
//! let store = Arc::new(Store::from_library(&lib, &compressor)?);
//!
//! let handle = serve(Arc::clone(&store), "127.0.0.1:0")?;
//! let mut client = Client::connect(handle.local_addr())?;
//! client.ping()?;
//! let (gate, wf) = lib.iter().next().unwrap();
//! let (mut i, mut q) = (Vec::new(), Vec::new());
//! client.fetch_into(gate, &mut i, &mut q)?;
//! assert_eq!(i.len(), wf.len());
//! drop(client);
//! handle.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::fetch::{FetchError, FetchSource};
use crate::format::{checked_u32, put_gate, take_gate_into, take_plain_into, SlotSpares};
use crate::wire::{
    begin_frame, encode_error, encode_fetch_gate, encode_fetch_many, encode_library_digest,
    encode_list_gates, encode_metrics, encode_metrics_report, encode_ping, end_frame, fnv1a64,
    parse_digest, parse_error, parse_fetch_many, parse_frame, parse_gate_list,
    parse_metrics_report, ErrorCode, FrameKind, FrameRead, LibraryDigest, ProtocolError,
    ReadFrameError, DEFAULT_MAX_FRAME_BYTES, FRAME_HEADER_BYTES, FRAME_TRAILER_BYTES,
};
use bytes::{Buf, BufMut, BytesMut};
use compaqt_core::compress::CompressedWaveform;
use compaqt_core::engine::{DecodeScratch, DecompressionEngine, EngineStats};
use compaqt_core::store::Store;
use compaqt_core::CompressError;
use compaqt_obs::{Gauge, Histogram, Snapshot, TraceKind, TraceRing};
use compaqt_pulse::library::{GateId, GateKind};
use std::fmt;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sizing and safety knobs for a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Concurrent connections served before new ones are rejected with
    /// a graceful [`ErrorCode::Busy`] frame.
    pub max_connections: usize,
    /// Per-connection read timeout (zero = wait forever). An idle or
    /// stalled client is disconnected when it fires, freeing its slot.
    /// It also bounds each request frame once its first byte lands: a
    /// client trickling a frame is disconnected within twice this.
    pub read_timeout: Duration,
    /// Per-connection write timeout (zero = wait forever); bounds how
    /// long a slow-draining client can pin a server thread.
    pub write_timeout: Duration,
    /// Cap on accepted request payload sizes; a frame claiming more is
    /// rejected before any payload byte is buffered.
    pub max_frame_bytes: u32,
    /// Requests slower than this (handle + response write) are pushed
    /// to the trace ring as [`TraceKind::SlowRequest`] events. Zero
    /// (the default) disables slow-request tracing; per-kind latency
    /// histograms are recorded regardless.
    pub slow_request: Duration,
    /// Capacity of the server's trace ring (rounded up to a power of
    /// two, minimum 2): the last N connection/rejection/slow-request
    /// events kept for scraping, oldest dropped first.
    pub trace_events: usize,
}

impl Default for ServeConfig {
    /// 64 connections, 30 s read / 10 s write timeouts, 8 MiB frames,
    /// slow-request tracing off, 256 trace events.
    fn default() -> Self {
        ServeConfig {
            max_connections: 64,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            slow_request: Duration::ZERO,
            trace_events: 256,
        }
    }
}

/// A point-in-time snapshot of a server's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Connections accepted into service.
    pub connections_accepted: u64,
    /// Connections rejected at the cap with a Busy frame.
    pub connections_rejected_busy: u64,
    /// Well-formed requests answered (any kind, including app-level
    /// error responses).
    pub requests_served: u64,
    /// Waveform streams served (one per `FetchGate`, one per gate of a
    /// `FetchMany` — the same per-gate accounting the store's
    /// [`StoreStats`](compaqt_core::store::StoreStats) uses).
    pub fetches_served: u64,
    /// Frames rejected as hostile or damaged ([`ProtocolError`]s).
    pub protocol_errors: u64,
    /// Connections dropped by a read/write timeout firing (the
    /// transport reported `TimedOut` / `WouldBlock`, or a request frame
    /// outlived the read timeout; other I/O failures — resets, broken
    /// pipes — are not timeouts and are not counted).
    pub timeouts: u64,
}

/// Shared atomic counters behind [`ServeStats`].
#[derive(Debug, Default)]
struct ServeCounters {
    accepted: AtomicU64,
    busy_rejected: AtomicU64,
    requests: AtomicU64,
    fetches: AtomicU64,
    protocol_errors: AtomicU64,
    timeouts: AtomicU64,
}

impl ServeCounters {
    fn snapshot(&self) -> ServeStats {
        ServeStats {
            connections_accepted: self.accepted.load(Ordering::Relaxed),
            connections_rejected_busy: self.busy_rejected.load(Ordering::Relaxed),
            requests_served: self.requests.load(Ordering::Relaxed),
            fetches_served: self.fetches.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
        }
    }
}

/// The serve tier's shared telemetry hub: the [`ServeStats`] counters,
/// a live-connection gauge, one log2 latency histogram per request
/// kind (handle + response write, recorded by the connection loop) and
/// the trace ring carrying connection, rejection, slow-request and
/// protocol-error events — plus whatever events the served source
/// pushes, since [`serve_source`] attaches this ring to the source.
///
/// One `Arc<ServeObs>` is shared by the accept loop, every connection
/// thread and the [`Responder`] (which renders it into
/// [`FrameKind::Metrics`] responses). Recording is relaxed-atomic and
/// allocation-free; reading happens only when scraped.
#[derive(Debug)]
pub struct ServeObs {
    counters: ServeCounters,
    connections: Gauge,
    request_ns: [Histogram; REQUEST_KINDS.len()],
    ring: Arc<TraceRing>,
    slow_ns: u64,
}

/// Request kinds with a per-kind latency histogram, index-aligned with
/// [`ServeObs::request_ns`] and the exposition names below.
const REQUEST_KINDS: [FrameKind; 6] = [
    FrameKind::Ping,
    FrameKind::FetchGate,
    FrameKind::FetchMany,
    FrameKind::ListGates,
    FrameKind::LibraryDigest,
    FrameKind::Metrics,
];

/// Exposition names for [`REQUEST_KINDS`], same order.
const REQUEST_HIST_NAMES: [&str; 6] = [
    "serve_ping_ns",
    "serve_fetch_gate_ns",
    "serve_fetch_many_ns",
    "serve_list_gates_ns",
    "serve_library_digest_ns",
    "serve_metrics_ns",
];

impl ServeObs {
    /// A fresh hub sized by `config` (`trace_events` ring slots,
    /// `slow_request` threshold).
    pub fn new(config: &ServeConfig) -> Self {
        ServeObs {
            counters: ServeCounters::default(),
            connections: Gauge::new(),
            request_ns: [(); REQUEST_KINDS.len()].map(|()| Histogram::new()),
            ring: Arc::new(TraceRing::new(config.trace_events)),
            slow_ns: u64::try_from(config.slow_request.as_nanos()).unwrap_or(u64::MAX),
        }
    }

    /// The trace ring (shared with the served source by
    /// [`serve_source`]).
    pub fn ring(&self) -> &Arc<TraceRing> {
        &self.ring
    }

    /// Connections currently in service.
    pub fn connections(&self) -> u64 {
        self.connections.get()
    }

    /// Records one served request's wall time and, past the configured
    /// threshold, a [`TraceKind::SlowRequest`] event (`a` = the request
    /// kind's wire tag, `b` = elapsed ns). The serve loop calls this
    /// per request; custom transport loops feeding the same hub call it
    /// themselves. Relaxed-atomic, allocation-free.
    pub fn record_request(&self, kind: FrameKind, elapsed_ns: u64) {
        if let Some(k) = REQUEST_KINDS.iter().position(|&r| r == kind) {
            self.request_ns[k].record(elapsed_ns);
        }
        if self.slow_ns > 0 && elapsed_ns >= self.slow_ns {
            self.ring.push(TraceKind::SlowRequest, u64::from(kind.tag()), elapsed_ns);
        }
    }

    /// Contributes the serve tier's counters, connection gauge,
    /// per-kind latency histograms and ring events to a snapshot. Cold
    /// path.
    pub fn collect_obs(&self, out: &mut Snapshot) {
        let s = self.counters.snapshot();
        out.push_counter("serve_connections_accepted", s.connections_accepted);
        out.push_counter("serve_busy_rejections", s.connections_rejected_busy);
        out.push_counter("serve_requests", s.requests_served);
        out.push_counter("serve_fetches", s.fetches_served);
        out.push_counter("serve_protocol_errors", s.protocol_errors);
        out.push_counter("serve_timeouts", s.timeouts);
        out.push_gauge("serve_connections", self.connections.get());
        for (name, hist) in REQUEST_HIST_NAMES.iter().zip(&self.request_ns) {
            out.push_histogram(*name, hist.snapshot());
        }
        self.ring.snapshot_into(&mut out.events);
        out.dropped_events = self.ring.dropped();
    }
}

/// Errors from the client side of a serve conversation.
#[derive(Debug)]
pub enum ServeError {
    /// The transport failed (connect, timeout, reset).
    Io(std::io::Error),
    /// The peer violated the wire protocol.
    Protocol(ProtocolError),
    /// The server answered with a typed error response.
    Remote {
        /// The failure class the server reported.
        code: ErrorCode,
        /// The server's human-readable detail (possibly empty).
        detail: String,
    },
    /// A served stream failed to decode locally.
    Codec(CompressError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve transport failed: {e}"),
            ServeError::Protocol(e) => write!(f, "wire protocol violation: {e}"),
            ServeError::Remote { code, detail } if detail.is_empty() => {
                write!(f, "server rejected the request: {code}")
            }
            ServeError::Remote { code, detail } => {
                write!(f, "server rejected the request: {code} ({detail})")
            }
            ServeError::Codec(e) => write!(f, "served stream failed to decode: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Protocol(e) => Some(e),
            ServeError::Codec(e) => Some(e),
            ServeError::Remote { .. } => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<ProtocolError> for ServeError {
    fn from(e: ProtocolError) -> Self {
        ServeError::Protocol(e)
    }
}

impl From<ReadFrameError> for ServeError {
    fn from(e: ReadFrameError) -> Self {
        match e {
            ReadFrameError::Io(e) => ServeError::Io(e),
            ReadFrameError::Protocol(e) => ServeError::Protocol(e),
        }
    }
}

// ---------------------------------------------------------- responder

/// The transport-free request→response state machine: one per
/// connection, owning every reusable buffer the response path needs.
///
/// Feeding a validated frame to [`Responder::respond`] (or a
/// pre-parsed kind/payload to [`Responder::handle`]) yields either the
/// encoded response frame to write back, or a [`ProtocolError`] after
/// which the transport should report best-effort (via
/// [`Responder::error_frame`]) and close. In steady state — repeated
/// `Ping` / `FetchGate` / same-shape `FetchMany` — a responder
/// performs **zero heap allocations** per request.
#[derive(Debug)]
pub struct Responder {
    /// Response frame under construction (reused).
    out: BytesMut,
    /// Reused single-gate parse slot.
    gate: GateId,
    /// Reused batch parse slots (grows to the largest batch seen).
    gates: Vec<GateId>,
    /// Reused digest entry-encode buffer.
    digest_buf: BytesMut,
    /// Streams encoded into responses so far (per-gate granularity).
    fetches: u64,
    max_frame_bytes: u32,
    /// Serve-tier telemetry rendered into `Metrics` responses; absent
    /// for standalone responders, whose reports carry source-only data.
    obs: Option<Arc<ServeObs>>,
}

impl Responder {
    /// A fresh responder honoring `config`'s frame cap.
    pub fn new(config: &ServeConfig) -> Self {
        Responder {
            out: BytesMut::new(),
            gate: GateId { kind: GateKind::X, qubits: Vec::new() },
            gates: Vec::new(),
            digest_buf: BytesMut::new(),
            fetches: 0,
            max_frame_bytes: config.max_frame_bytes,
            obs: None,
        }
    }

    /// Includes a serve tier's telemetry (counters, connection gauge,
    /// request histograms, trace events) in this responder's `Metrics`
    /// reports, alongside whatever the source contributes. The serve
    /// loop attaches its shared [`ServeObs`]; a standalone responder
    /// reports source telemetry only.
    pub fn attach_obs(&mut self, obs: Arc<ServeObs>) {
        self.obs = Some(obs);
    }

    /// Waveform streams encoded into responses so far — one per
    /// `FetchGate`, one per gate of a `FetchMany` batch.
    pub fn fetches_encoded(&self) -> u64 {
        self.fetches
    }

    /// Validates a complete request frame and produces the response
    /// frame. The `source` is any [`FetchSource`] — a [`Store`] or a
    /// [`Reader`](crate::Reader); existing `&Store` callers compile
    /// unchanged.
    ///
    /// # Errors
    ///
    /// Any [`ProtocolError`]: the frame (or its payload) cannot be
    /// trusted and the connection should close after a best-effort
    /// [`Responder::error_frame`].
    pub fn respond<S: FetchSource + ?Sized>(
        &mut self,
        source: &S,
        frame: &[u8],
    ) -> Result<&[u8], ProtocolError> {
        let (kind, payload) = parse_frame(frame, self.max_frame_bytes)?;
        // Lifetime juggling: `payload` borrows `frame`, not `self`, so
        // handing both to `handle` is fine.
        self.handle_inner(source, kind, payload)
    }

    /// Produces the response frame for an already-validated frame kind
    /// and payload (the transport loop path, where
    /// [`crate::wire::read_frame`] did the framing checks).
    ///
    /// # Errors
    ///
    /// Any [`ProtocolError`] in the payload; close after reporting.
    pub fn handle<S: FetchSource + ?Sized>(
        &mut self,
        source: &S,
        kind: FrameKind,
        payload: &[u8],
    ) -> Result<&[u8], ProtocolError> {
        self.handle_inner(source, kind, payload)
    }

    fn handle_inner<S: FetchSource + ?Sized>(
        &mut self,
        source: &S,
        kind: FrameKind,
        payload: &[u8],
    ) -> Result<&[u8], ProtocolError> {
        match kind {
            FrameKind::Ping => {
                if payload.len() != 8 {
                    return Err(ProtocolError::Malformed("ping payload is not one u64 nonce"));
                }
                let nonce = u64::from_le_bytes(payload.try_into().expect("length checked"));
                begin_frame(&mut self.out, FrameKind::Pong);
                self.out.put_u64_le(nonce);
                end_frame(&mut self.out);
                Ok(&self.out)
            }
            FrameKind::FetchGate => {
                let Responder { out, gate, fetches, .. } = self;
                let mut p = payload;
                take_gate_into(&mut p, gate)?;
                if !p.is_empty() {
                    return Err(ProtocolError::TrailingBytes);
                }
                begin_frame(out, FrameKind::Gate);
                match source.put_stream(gate, out) {
                    Ok(()) => {
                        end_frame(out);
                        *fetches += 1;
                        Ok(&*out)
                    }
                    Err(e) => {
                        encode_fetch_failure(out, &e, "no waveform for that gate");
                        Ok(&*out)
                    }
                }
            }
            FrameKind::FetchMany => {
                let Responder { out, gates, fetches, .. } = self;
                let mut p = payload;
                let count = parse_fetch_many(&mut p, gates)?;
                begin_frame(out, FrameKind::GateBatch);
                out.put_u32_le(count as u32);
                for gate in &gates[..count] {
                    match source.put_stream(gate, out) {
                        Ok(()) => *fetches += 1,
                        Err(e) => {
                            // All-or-nothing: a batch naming an absent
                            // (or damaged) gate gets one typed error,
                            // not a partial body the client must
                            // detect.
                            encode_fetch_failure(out, &e, "batch names an absent gate");
                            return Ok(&*out);
                        }
                    }
                }
                end_frame(out);
                Ok(&*out)
            }
            FrameKind::ListGates => {
                if !payload.is_empty() {
                    return Err(ProtocolError::Malformed("list request carries a payload"));
                }
                let ids = source.gate_list();
                let Responder { out, .. } = self;
                begin_frame(out, FrameKind::GateList);
                let count = match checked_u32(ids.len(), "more than 2^32 gates") {
                    Ok(count) => count,
                    Err(_) => {
                        encode_error(out, ErrorCode::Internal, "library exceeds the wire format");
                        return Ok(&*out);
                    }
                };
                out.put_u32_le(count);
                for id in &ids {
                    if put_gate(out, id).is_err() {
                        encode_error(out, ErrorCode::Internal, "gate id exceeds the wire format");
                        return Ok(&*out);
                    }
                }
                end_frame(out);
                Ok(&*out)
            }
            FrameKind::LibraryDigest => {
                if !payload.is_empty() {
                    return Err(ProtocolError::Malformed("digest request carries a payload"));
                }
                let ids = source.gate_list();
                let Responder { out, digest_buf, .. } = self;
                let mut count = 0u64;
                let mut payload_bytes = 0u64;
                let mut fingerprint = 0u64;
                let mut broken = false;
                // Per-entry digest bytes are the gate's wire encoding
                // followed by its wire stream; the fingerprint is an
                // order-independent wrapping sum, so a store and a
                // reader over the same library digest identically.
                for gate in &ids {
                    digest_buf.clear();
                    if put_gate(digest_buf, gate).is_err() {
                        broken = true;
                        break;
                    }
                    let gate_bytes = digest_buf.len() as u64;
                    if source.put_stream(gate, digest_buf).is_err() {
                        broken = true;
                        break;
                    }
                    payload_bytes += digest_buf.len() as u64 - gate_bytes;
                    fingerprint = fingerprint.wrapping_add(fnv1a64(digest_buf));
                    count += 1;
                }
                let gates = u32::try_from(count).ok().filter(|_| !broken);
                match gates {
                    Some(gates) => {
                        begin_frame(out, FrameKind::Digest);
                        out.put_u32_le(gates);
                        out.put_u64_le(payload_bytes);
                        out.put_u64_le(fingerprint);
                        end_frame(out);
                    }
                    None => {
                        encode_error(out, ErrorCode::Internal, "library exceeds the wire format")
                    }
                }
                Ok(&*out)
            }
            FrameKind::Metrics => {
                if !payload.is_empty() {
                    return Err(ProtocolError::Malformed("metrics request carries a payload"));
                }
                // Cold scrape path: building and encoding the snapshot
                // allocates freely; nothing here runs per fetch.
                let mut snap = Snapshot::new();
                source.collect_obs(&mut snap);
                if let Some(obs) = &self.obs {
                    obs.collect_obs(&mut snap);
                }
                let Responder { out, .. } = self;
                match encode_metrics_report(out, &snap) {
                    Ok(()) => Ok(&*out),
                    Err(_) => {
                        encode_error(out, ErrorCode::Internal, "snapshot exceeds the wire format");
                        Ok(&*out)
                    }
                }
            }
            // A response kind arriving as a request is a confused or
            // hostile peer; the framing can't be trusted.
            _ => Err(ProtocolError::UnexpectedKind(kind.tag())),
        }
    }

    /// Encodes a best-effort error frame (for the transport to write
    /// before closing on a [`ProtocolError`]).
    pub fn error_frame(&mut self, code: ErrorCode, detail: &str) -> &[u8] {
        encode_error(&mut self.out, code, detail);
        &self.out
    }
}

/// Maps a source fetch failure onto a wire error frame (restarting
/// `out`, which may hold a half-built response). An unknown gate is
/// the one client-actionable code and carries the call site's detail;
/// everything else is a server-side defect reported as `Internal`.
fn encode_fetch_failure(out: &mut BytesMut, e: &FetchError, unknown_detail: &str) {
    match e {
        FetchError::UnknownGate(_) => encode_error(out, ErrorCode::UnknownGate, unknown_detail),
        FetchError::Unservable(_) => {
            encode_error(out, ErrorCode::Internal, "entry is not a plain servable stream")
        }
        FetchError::Crc(_) => {
            encode_error(out, ErrorCode::Internal, "stored payload failed its checksum")
        }
        FetchError::Codec(_) => encode_error(out, ErrorCode::Internal, "stored stream failed"),
        FetchError::Malformed(_) => {
            encode_error(out, ErrorCode::Internal, "stored stream is unencodable")
        }
    }
}

// ------------------------------------------------------------- server

/// A running server: the handle owning its accept thread.
///
/// Dropping the handle shuts the server down (idempotently); call
/// [`ServerHandle::shutdown`] to do it explicitly. In-flight
/// connections drain on their own — they end when their client
/// disconnects or their read timeout fires.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    obs: Arc<ServeObs>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on (with the OS-assigned
    /// port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the server's counters.
    pub fn stats(&self) -> ServeStats {
        self.obs.counters.snapshot()
    }

    /// The server's telemetry hub — the same [`ServeObs`] its
    /// connection threads record into and its `Metrics` responses
    /// render, for in-process inspection without a wire round trip.
    pub fn obs(&self) -> &Arc<ServeObs> {
        &self.obs
    }

    /// Stops accepting connections and joins the accept thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let Some(accept) = self.accept.take() else { return };
        self.shutdown.store(true, Ordering::Release);
        // Poke the blocking accept() awake so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        let _ = accept.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Binds and starts a server over `store` with [`ServeConfig`]
/// defaults. Bind to port 0 for an OS-assigned port
/// ([`ServerHandle::local_addr`] reports it).
///
/// # Errors
///
/// Any bind failure.
pub fn serve(store: Arc<Store>, addr: impl ToSocketAddrs) -> std::io::Result<ServerHandle> {
    serve_source(store, addr, ServeConfig::default())
}

/// Binds and starts a server over any shared [`FetchSource`] with
/// explicit sizing, timeout and cap knobs — the entry point behind
/// [`serve`].
///
/// This is the larger-than-RAM deployment path: hand it an
/// `Arc<Reader<'static>>` opened with
/// [`ValidationMode::LazyCrc`](crate::ValidationMode::LazyCrc) over a
/// mapped container and the daemon serves multi-GB libraries without
/// decoding them into a resident [`Store`] — each response appends the
/// container's own validated payload bytes to the frame.
///
/// ```
/// use compaqt_core::compress::{Compressor, Variant};
/// use compaqt_io::serve::{serve_source, Client, ServeConfig};
/// use compaqt_io::{write_library, Reader, ReaderOptions};
/// use compaqt_pulse::device::Device;
/// use compaqt_pulse::vendor::Vendor;
/// use std::sync::Arc;
///
/// let lib = Device::synthesize(Vendor::Ibm, 2, 0x5E21E).pulse_library();
/// let bytes = write_library(&lib, &Compressor::new(Variant::IntDctW { ws: 16 }))?;
/// let reader = Arc::new(Reader::open(bytes, ReaderOptions::lazy_crc())?);
///
/// let handle = serve_source(reader, "127.0.0.1:0", ServeConfig::default())?;
/// let mut client = Client::connect(handle.local_addr())?;
/// let (gate, wf) = lib.iter().next().unwrap();
/// let (mut i, mut q) = (Vec::new(), Vec::new());
/// client.fetch_into(gate, &mut i, &mut q)?;
/// assert_eq!(i.len(), wf.len());
/// drop(client);
/// handle.shutdown();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// Any bind failure.
pub fn serve_source<S: FetchSource + Send + Sync + 'static>(
    source: Arc<S>,
    addr: impl ToSocketAddrs,
    config: ServeConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let obs = Arc::new(ServeObs::new(&config));
    // Share one ring across tiers: source events (evictions, CRC
    // failures, recalibration publishes) land next to connection events
    // in the same scrape. First attach wins, so a source already traced
    // elsewhere keeps its ring.
    let _ = source.attach_trace(Arc::clone(&obs.ring));
    let accept = {
        let shutdown = Arc::clone(&shutdown);
        let obs = Arc::clone(&obs);
        std::thread::Builder::new()
            .name("compaqt-serve-accept".into())
            .spawn(move || accept_loop(listener, source, config, shutdown, obs))?
    };
    Ok(ServerHandle { addr, shutdown, obs, accept: Some(accept) })
}

/// Decrements the live-connection count when a connection thread ends,
/// however it ends.
struct ConnGuard(Arc<AtomicUsize>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

fn accept_loop<S: FetchSource + Send + Sync + 'static>(
    listener: TcpListener,
    source: Arc<S>,
    config: ServeConfig,
    shutdown: Arc<AtomicBool>,
    obs: Arc<ServeObs>,
) {
    let active = Arc::new(AtomicUsize::new(0));
    for conn in listener.incoming() {
        if shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = conn else { continue };
        if active.fetch_add(1, Ordering::AcqRel) >= config.max_connections {
            active.fetch_sub(1, Ordering::AcqRel);
            obs.counters.busy_rejected.fetch_add(1, Ordering::Relaxed);
            obs.ring.push(TraceKind::BusyRejected, config.max_connections as u64, 0);
            reject_busy(stream, &config);
            continue;
        }
        obs.counters.accepted.fetch_add(1, Ordering::Relaxed);
        let guard = ConnGuard(Arc::clone(&active));
        let source = Arc::clone(&source);
        let shutdown = Arc::clone(&shutdown);
        let obs = Arc::clone(&obs);
        let spawned =
            std::thread::Builder::new().name("compaqt-serve-conn".into()).spawn(move || {
                let _guard = guard;
                serve_conn(stream, &*source, &config, &shutdown, &obs);
            });
        // Spawn failure (thread exhaustion) just drops the connection;
        // the guard moved into the closure only on success, so drop it
        // here explicitly on failure.
        drop(spawned);
    }
}

/// Tells an over-cap client why it is being turned away, best-effort.
fn reject_busy(mut stream: TcpStream, config: &ServeConfig) {
    let _ = stream.set_write_timeout(timeout(config.write_timeout));
    let mut out = BytesMut::new();
    encode_error(&mut out, ErrorCode::Busy, "connection cap reached, retry later");
    let _ = stream.write_all(&out);
    let _ = stream.shutdown(Shutdown::Both);
}

/// `Duration::ZERO` means "wait forever", which std spells `None`.
fn timeout(d: Duration) -> Option<Duration> {
    if d.is_zero() {
        None
    } else {
        Some(d)
    }
}

/// One connection's serve loop: read a frame, respond, repeat until
/// the client leaves, a timeout fires, framing breaks, or the server
/// shuts down.
fn serve_conn<S: FetchSource + ?Sized>(
    mut stream: TcpStream,
    source: &S,
    config: &ServeConfig,
    shutdown: &AtomicBool,
    obs: &Arc<ServeObs>,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(timeout(config.read_timeout));
    let _ = stream.set_write_timeout(timeout(config.write_timeout));
    let mut read_buf = Vec::new();
    let mut responder = Responder::new(config);
    responder.attach_obs(Arc::clone(obs));
    let mut fetches_reported = 0u64;
    let counters = &obs.counters;
    obs.connections.add(1);
    obs.ring.push(TraceKind::ConnOpen, obs.connections.get(), 0);
    while !shutdown.load(Ordering::Acquire) {
        match crate::wire::read_frame(
            &mut stream,
            &mut read_buf,
            config.max_frame_bytes,
            config.read_timeout,
        ) {
            Ok(FrameRead::Eof) => break,
            Ok(FrameRead::Frame(kind)) => {
                let payload = &read_buf[FRAME_HEADER_BYTES..read_buf.len() - FRAME_TRAILER_BYTES];
                // The histogram covers handling plus the response
                // write — what the peer actually waits for after its
                // request frame lands.
                let started = Instant::now();
                match responder.handle(source, kind, payload) {
                    Ok(frame) => {
                        if stream.write_all(frame).is_err() {
                            break;
                        }
                        obs.record_request(kind, started.elapsed().as_nanos() as u64);
                        counters.requests.fetch_add(1, Ordering::Relaxed);
                        let fetched = responder.fetches_encoded();
                        counters.fetches.fetch_add(fetched - fetches_reported, Ordering::Relaxed);
                        fetches_reported = fetched;
                    }
                    Err(e) => {
                        // Well-framed but untrustworthy payload: report
                        // the typed rejection best-effort and close.
                        counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        obs.ring.push(TraceKind::ProtocolError, u64::from(kind.tag()), 0);
                        let detail = e.to_string();
                        let _ =
                            stream.write_all(responder.error_frame(ErrorCode::Malformed, &detail));
                        break;
                    }
                }
            }
            Err(ReadFrameError::Protocol(e)) => {
                // Hostile or damaged framing: same report-and-close.
                counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                obs.ring.push(TraceKind::ProtocolError, 0, 0);
                let detail = e.to_string();
                let _ = stream.write_all(responder.error_frame(ErrorCode::Malformed, &detail));
                break;
            }
            Err(ReadFrameError::Io(e)) => {
                // Nothing to say to the peer either way, but a fired
                // deadline (idle client) is ledgered apart from resets
                // and broken pipes. Unix spells a fired SO_RCVTIMEO
                // `WouldBlock`; Windows spells it `TimedOut`.
                if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
                {
                    counters.timeouts.fetch_add(1, Ordering::Relaxed);
                }
                break;
            }
        }
    }
    obs.connections.sub(1);
    obs.ring.push(TraceKind::ConnClose, obs.connections.get(), 0);
    let _ = stream.shutdown(Shutdown::Both);
}

// ------------------------------------------------------------- client

/// Connection knobs for a [`Client`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// How long to wait for a response frame (zero = forever).
    pub read_timeout: Duration,
    /// How long to wait for a request write (zero = forever).
    pub write_timeout: Duration,
    /// Cap on accepted response payload sizes. Larger than the
    /// server-side default because one `FetchMany` response carries a
    /// whole batch of streams.
    pub max_frame_bytes: u32,
}

impl Default for ClientConfig {
    /// 10 s timeouts, 64 MiB response frames.
    fn default() -> Self {
        ClientConfig {
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_frame_bytes: 64 * 1024 * 1024,
        }
    }
}

/// A blocking controller-side client: one TCP connection plus every
/// reusable buffer the fetch-and-decode path needs, so steady-state
/// [`Client::fetch_into`] allocates nothing on the client either.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    read_buf: Vec<u8>,
    out: BytesMut,
    /// Reused parse slot for served streams.
    slot: CompressedWaveform,
    spares: SlotSpares,
    scratch: DecodeScratch,
    max_frame_bytes: u32,
    next_nonce: u64,
}

impl Client {
    /// Connects with [`ClientConfig`] defaults.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on connect/configure failure.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ServeError> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit timeouts and frame cap.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on connect/configure failure.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> Result<Client, ServeError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(timeout(config.read_timeout))?;
        stream.set_write_timeout(timeout(config.write_timeout))?;
        Ok(Client {
            stream,
            read_buf: Vec::new(),
            out: BytesMut::new(),
            slot: CompressedWaveform::empty(),
            spares: SlotSpares::default(),
            scratch: DecodeScratch::default(),
            max_frame_bytes: config.max_frame_bytes,
            next_nonce: 1,
        })
    }

    /// Writes the request staged in `self.out` and reads the response
    /// into `self.read_buf`, unwrapping error responses and checking
    /// the kind.
    fn roundtrip(&mut self, expect: FrameKind) -> Result<(), ServeError> {
        self.stream.write_all(&self.out)?;
        let kind = match crate::wire::read_frame(
            &mut self.stream,
            &mut self.read_buf,
            self.max_frame_bytes,
            // Responses may be large; the socket's per-read timeout is
            // the client's only bound.
            Duration::ZERO,
        )? {
            FrameRead::Frame(kind) => kind,
            FrameRead::Eof => {
                return Err(ServeError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )))
            }
        };
        if kind == FrameKind::Error {
            let (code, detail) = parse_error(self.payload())?;
            return Err(ServeError::Remote { code, detail });
        }
        if kind != expect {
            return Err(ServeError::Protocol(ProtocolError::UnexpectedKind(kind.tag())));
        }
        Ok(())
    }

    /// The last response's payload bytes.
    fn payload(&self) -> &[u8] {
        &self.read_buf[FRAME_HEADER_BYTES..self.read_buf.len() - FRAME_TRAILER_BYTES]
    }

    /// Round-trips a nonce, verifying liveness and protocol agreement.
    ///
    /// # Errors
    ///
    /// Transport, protocol or server-reported failures.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        let nonce = self.next_nonce;
        self.next_nonce = self.next_nonce.wrapping_add(0x9E37_79B9_7F4A_7C15);
        encode_ping(&mut self.out, nonce);
        self.roundtrip(FrameKind::Pong)?;
        let mut payload = self.payload();
        if payload.len() != 8 || payload.get_u64_le() != nonce {
            return Err(ServeError::Protocol(ProtocolError::Malformed(
                "pong did not echo the ping nonce",
            )));
        }
        Ok(())
    }

    /// Fetches one gate's stream and decodes it into caller-owned
    /// buffers (cleared and refilled) — the wire twin of
    /// [`Store::fetch_into`], bit-identical to it, and zero-allocation
    /// in steady state on both ends.
    ///
    /// # Errors
    ///
    /// Transport, protocol, server-reported (unknown gate) or local
    /// decode failures.
    pub fn fetch_into(
        &mut self,
        gate: &GateId,
        i_out: &mut Vec<f64>,
        q_out: &mut Vec<f64>,
    ) -> Result<EngineStats, ServeError> {
        encode_fetch_gate(&mut self.out, gate).map_err(ProtocolError::from)?;
        self.roundtrip(FrameKind::Gate)?;
        let Client { read_buf, slot, spares, scratch, .. } = self;
        let mut payload = &read_buf[FRAME_HEADER_BYTES..read_buf.len() - FRAME_TRAILER_BYTES];
        take_plain_into(&mut payload, slot, spares).map_err(ProtocolError::from)?;
        if !payload.is_empty() {
            return Err(ServeError::Protocol(ProtocolError::TrailingBytes));
        }
        let engine = DecompressionEngine::shared(slot.variant).map_err(ServeError::Codec)?;
        engine.decompress_into(slot, scratch, i_out, q_out).map_err(ServeError::Codec)
    }

    /// Fetches one gate's **compressed** stream, owned — for callers
    /// that want to stage or re-serve it rather than decode now.
    ///
    /// # Errors
    ///
    /// Transport, protocol or server-reported failures.
    pub fn fetch(&mut self, gate: &GateId) -> Result<CompressedWaveform, ServeError> {
        encode_fetch_gate(&mut self.out, gate).map_err(ProtocolError::from)?;
        self.roundtrip(FrameKind::Gate)?;
        let Client { read_buf, slot, spares, .. } = self;
        let mut payload = &read_buf[FRAME_HEADER_BYTES..read_buf.len() - FRAME_TRAILER_BYTES];
        take_plain_into(&mut payload, slot, spares).map_err(ProtocolError::from)?;
        if !payload.is_empty() {
            return Err(ServeError::Protocol(ProtocolError::TrailingBytes));
        }
        Ok(slot.clone())
    }

    /// Fetches a batch of gates in one round trip, decoding each into
    /// its caller-owned buffer pair (`outs[k]` receives `gates[k]`) —
    /// the wire twin of [`Store::fetch_many`], with the same merged
    /// stats and the same per-gate accounting.
    ///
    /// # Errors
    ///
    /// Transport, protocol, server-reported or local decode failures;
    /// on error `outs` is unspecified.
    ///
    /// # Panics
    ///
    /// Panics if `gates` and `outs` have different lengths.
    pub fn fetch_many_into(
        &mut self,
        gates: &[GateId],
        outs: &mut [(Vec<f64>, Vec<f64>)],
    ) -> Result<EngineStats, ServeError> {
        assert_eq!(gates.len(), outs.len(), "one output buffer pair per requested gate");
        encode_fetch_many(&mut self.out, gates).map_err(ProtocolError::from)?;
        self.roundtrip(FrameKind::GateBatch)?;
        let Client { read_buf, slot, spares, scratch, .. } = self;
        let mut payload = &read_buf[FRAME_HEADER_BYTES..read_buf.len() - FRAME_TRAILER_BYTES];
        if payload.remaining() < 4 {
            return Err(ServeError::Protocol(ProtocolError::Truncated));
        }
        let count = payload.get_u32_le() as usize;
        if count != gates.len() {
            return Err(ServeError::Protocol(ProtocolError::Malformed(
                "batch response count does not match the request",
            )));
        }
        let mut merged = EngineStats::default();
        for (i_out, q_out) in outs.iter_mut() {
            take_plain_into(&mut payload, slot, spares).map_err(ProtocolError::from)?;
            let engine = DecompressionEngine::shared(slot.variant).map_err(ServeError::Codec)?;
            let stats =
                engine.decompress_into(slot, scratch, i_out, q_out).map_err(ServeError::Codec)?;
            merged.merge(&stats);
        }
        if !payload.is_empty() {
            return Err(ServeError::Protocol(ProtocolError::TrailingBytes));
        }
        Ok(merged)
    }

    /// Lists every gate the server holds, sorted.
    ///
    /// # Errors
    ///
    /// Transport, protocol or server-reported failures.
    pub fn gates(&mut self) -> Result<Vec<GateId>, ServeError> {
        encode_list_gates(&mut self.out);
        self.roundtrip(FrameKind::GateList)?;
        Ok(parse_gate_list(self.payload())?)
    }

    /// Fetches the served library's [`LibraryDigest`].
    ///
    /// # Errors
    ///
    /// Transport, protocol or server-reported failures.
    pub fn digest(&mut self) -> Result<LibraryDigest, ServeError> {
        encode_library_digest(&mut self.out);
        self.roundtrip(FrameKind::Digest)?;
        Ok(parse_digest(self.payload())?)
    }

    /// Scrapes the server's telemetry: source counters, gauges and
    /// latency histograms, the serve tier's own ledger, and the last N
    /// trace events. Render the result with
    /// [`render_text`](compaqt_obs::render_text) for a Prometheus-style
    /// exposition.
    ///
    /// # Errors
    ///
    /// Transport, protocol or server-reported failures.
    pub fn metrics(&mut self) -> Result<Snapshot, ServeError> {
        encode_metrics(&mut self.out);
        self.roundtrip(FrameKind::MetricsReport)?;
        Ok(parse_metrics_report(self.payload())?)
    }
}
