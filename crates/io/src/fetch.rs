//! The unified fetch surface: one trait over every gate-serving
//! source.
//!
//! The serve loop, the scenario harness and the fleet tooling all ask
//! the same four questions of whatever holds the library — *decode
//! this gate into my buffers*, *which gates do you hold*, *do you hold
//! this one*, *append this gate's wire-encoded stream to my frame* —
//! but historically only [`Store`] could answer them, so serving a
//! container meant decoding every payload into a resident store
//! first. [`FetchSource`] makes the answers source-generic:
//!
//! - [`Store`] answers from its decoded hot set and compressed shards
//!   (its per-thread decode scratch makes the `scratch` argument
//!   unused).
//! - [`Reader`] answers straight from the container bytes — including
//!   a memory-mapped, lazily-CRC-checked multi-GB library that is
//!   never resident. Its [`FetchSource::put_stream`] is **zero-parse**:
//!   the container payload encoding and the wire stream encoding are
//!   the same layout, so serving a gate appends validated raw bytes.
//!
//! Errors converge on one canonical [`FetchError`] with single-site
//! conversions from [`StoreError`] and [`ContainerError`], replacing
//! the per-call-site mappings the responder and scenario code used to
//! carry.

use crate::format::put_plain;
use crate::reader::{ContainerScratch, Reader};
use crate::ContainerError;
use bytes::{BufMut, BytesMut};
use compaqt_core::engine::EngineStats;
use compaqt_core::store::{Store, StoreError};
use compaqt_core::CompressError;
use compaqt_obs::{Snapshot, TraceRing};
use compaqt_pulse::library::GateId;
use std::fmt;
use std::sync::Arc;

/// The canonical error for source-generic fetching — every
/// [`FetchSource`] implementation funnels its native error type
/// through one conversion into this enum.
#[derive(Debug, Clone, PartialEq)]
pub enum FetchError {
    /// The source holds no entry for the gate.
    UnknownGate(GateId),
    /// The entry exists but is not a plain stream the fetch path can
    /// serve (lapped/adaptive container entries).
    Unservable(GateId),
    /// The entry's payload bytes are damaged (lazy-CRC first touch or
    /// cached verdict).
    Crc(GateId),
    /// The codec layer rejected the stream.
    Codec(CompressError),
    /// The source's backing bytes are structurally malformed.
    Malformed(&'static str),
}

impl fmt::Display for FetchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FetchError::UnknownGate(gate) => write!(f, "source holds no entry for gate {gate}"),
            FetchError::Unservable(gate) => {
                write!(f, "entry for gate {gate} is not a plain servable stream")
            }
            FetchError::Crc(gate) => write!(f, "payload checksum mismatch for gate {gate}"),
            FetchError::Codec(e) => write!(f, "codec rejected a stream: {e}"),
            FetchError::Malformed(reason) => write!(f, "malformed source bytes: {reason}"),
        }
    }
}

impl std::error::Error for FetchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FetchError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for FetchError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::UnknownGate(gate) => FetchError::UnknownGate(gate),
            StoreError::Codec(e) => FetchError::Codec(e),
        }
    }
}

impl From<ContainerError> for FetchError {
    fn from(e: ContainerError) -> Self {
        match e {
            ContainerError::UnknownGate(gate) => FetchError::UnknownGate(gate),
            ContainerError::Unservable { gate } => FetchError::Unservable(gate),
            ContainerError::DuplicateGate(gate) => {
                // Unreachable from a validated reader (strict index
                // ordering proves uniqueness); mapped for totality.
                FetchError::Unservable(gate)
            }
            ContainerError::CrcMismatch { gate } => FetchError::Crc(gate),
            ContainerError::Codec(e) => FetchError::Codec(e),
            ContainerError::BadMagic => FetchError::Malformed("not a CWL container"),
            ContainerError::VersionSkew { .. } => FetchError::Malformed("container version skew"),
            ContainerError::Truncated => FetchError::Malformed("container truncated"),
            ContainerError::IndexInvalid(reason) => FetchError::Malformed(reason),
            ContainerError::IndexCrcMismatch => FetchError::Malformed("index checksum mismatch"),
            ContainerError::PayloadInvalid(reason) => FetchError::Malformed(reason),
            ContainerError::Unrepresentable(reason) => FetchError::Malformed(reason),
        }
    }
}

impl From<CompressError> for FetchError {
    fn from(e: CompressError) -> Self {
        FetchError::Codec(e)
    }
}

/// A source of servable gate streams: anything the serve loop or the
/// scenario harness can answer fetches from. See the [module
/// docs](self).
pub trait FetchSource {
    /// Decodes one gate's waveform into the caller's buffers.
    ///
    /// `scratch` is caller-owned working memory for sources that parse
    /// on the fly ([`Reader`]); sources with internal pooling
    /// ([`Store`]) ignore it. With warm buffers this is
    /// zero-allocation for both implementations.
    ///
    /// # Errors
    ///
    /// [`FetchError::UnknownGate`] for an absent gate; source-specific
    /// integrity/codec failures otherwise.
    fn fetch_gate(
        &self,
        gate: &GateId,
        scratch: &mut ContainerScratch,
        i_out: &mut Vec<f64>,
        q_out: &mut Vec<f64>,
    ) -> Result<EngineStats, FetchError>;

    /// All gates this source holds, sorted.
    fn gate_list(&self) -> Vec<GateId>;

    /// Whether the source holds an entry for the gate.
    fn contains_gate(&self, gate: &GateId) -> bool;

    /// Appends the gate's wire-encoded plain stream to `out` — the
    /// exact bytes a serve-loop response frame carries.
    ///
    /// # Errors
    ///
    /// [`FetchError::UnknownGate`] for an absent gate;
    /// [`FetchError::Unservable`] for non-plain entries;
    /// [`FetchError::Crc`] for damaged payload bytes in lazy mode.
    fn put_stream(&self, gate: &GateId, out: &mut BytesMut) -> Result<(), FetchError>;

    /// Contributes this source's telemetry (counters, gauges, latency
    /// histograms) to an observability snapshot. Cold path — scrape
    /// handlers only. The default contributes nothing, so sources
    /// without instrumentation need no code; [`Store`] and [`Reader`]
    /// override it with their native `collect_obs`.
    fn collect_obs(&self, out: &mut Snapshot) {
        let _ = out;
    }

    /// Attaches an event trace ring to the source. First attach wins:
    /// returns `false` (ring dropped) when the source already has one
    /// — or, the default, when the source does not support tracing.
    fn attach_trace(&self, ring: Arc<TraceRing>) -> bool {
        let _ = ring;
        false
    }
}

/// Forwarding impl: a shared handle serves exactly like the source it
/// wraps, so callers holding `Arc<Store>` / `Arc<Reader>` (the serve
/// loop's natural shape) pass `&handle` without a deref dance.
impl<S: FetchSource + ?Sized> FetchSource for std::sync::Arc<S> {
    fn fetch_gate(
        &self,
        gate: &GateId,
        scratch: &mut ContainerScratch,
        i_out: &mut Vec<f64>,
        q_out: &mut Vec<f64>,
    ) -> Result<EngineStats, FetchError> {
        (**self).fetch_gate(gate, scratch, i_out, q_out)
    }

    fn gate_list(&self) -> Vec<GateId> {
        (**self).gate_list()
    }

    fn contains_gate(&self, gate: &GateId) -> bool {
        (**self).contains_gate(gate)
    }

    fn put_stream(&self, gate: &GateId, out: &mut BytesMut) -> Result<(), FetchError> {
        (**self).put_stream(gate, out)
    }

    fn collect_obs(&self, out: &mut Snapshot) {
        (**self).collect_obs(out)
    }

    fn attach_trace(&self, ring: Arc<TraceRing>) -> bool {
        (**self).attach_trace(ring)
    }
}

impl FetchSource for Store {
    fn fetch_gate(
        &self,
        gate: &GateId,
        _scratch: &mut ContainerScratch,
        i_out: &mut Vec<f64>,
        q_out: &mut Vec<f64>,
    ) -> Result<EngineStats, FetchError> {
        self.fetch_into(gate, i_out, q_out).map_err(FetchError::from)
    }

    fn gate_list(&self) -> Vec<GateId> {
        self.gates()
    }

    fn contains_gate(&self, gate: &GateId) -> bool {
        self.contains(gate)
    }

    fn put_stream(&self, gate: &GateId, out: &mut BytesMut) -> Result<(), FetchError> {
        // Outer `?`: unknown gate; inner `?`: a stream too large for
        // the wire encoding (unrepresentable length fields).
        self.with_stream(gate, |z| put_plain(out, z))??;
        Ok(())
    }

    fn collect_obs(&self, out: &mut Snapshot) {
        Store::collect_obs(self, out)
    }

    fn attach_trace(&self, ring: Arc<TraceRing>) -> bool {
        Store::attach_trace(self, ring)
    }
}

impl FetchSource for Reader<'_> {
    fn fetch_gate(
        &self,
        gate: &GateId,
        scratch: &mut ContainerScratch,
        i_out: &mut Vec<f64>,
        q_out: &mut Vec<f64>,
    ) -> Result<EngineStats, FetchError> {
        self.fetch_into(gate, scratch, i_out, q_out).map_err(FetchError::from)
    }

    fn gate_list(&self) -> Vec<GateId> {
        self.gates().cloned().collect()
    }

    fn contains_gate(&self, gate: &GateId) -> bool {
        self.contains(gate)
    }

    fn put_stream(&self, gate: &GateId, out: &mut BytesMut) -> Result<(), FetchError> {
        // Zero-parse: container payload bytes *are* wire stream bytes
        // (both sides of the bridge write the same `put_plain` layout),
        // so a validated payload is appended without touching a codec.
        let bytes = self.stream_bytes(gate)?;
        out.put_slice(bytes);
        Ok(())
    }

    fn collect_obs(&self, out: &mut Snapshot) {
        Reader::collect_obs(self, out)
    }

    fn attach_trace(&self, ring: Arc<TraceRing>) -> bool {
        Reader::attach_trace(self, ring)
    }
}
