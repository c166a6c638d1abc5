//! # compaqt-io
//!
//! The persistence and wire layer: a versioned, checksummed,
//! little-endian binary container ("CWL" — Compressed Waveform Library)
//! for whole compressed pulse libraries.
//!
//! The paper's deployment model ends with the host shipping the
//! compressed library into controller memory (Figure 6). The in-process
//! side of that flow lives in `compaqt-core`
//! ([`Store`](compaqt_core::store::Store) serves single-gate fetches).
//! This crate holds the one stored format for that hand-off: a
//! random-access container a serving process can load mmap-style — one
//! backing buffer, a validated per-gate index, payload bytes borrowed
//! (never copied) until the moment they are decoded.
//!
//! # On-disk layout (little endian)
//!
//! ```text
//! file    := header index payload
//! header  := magic:u32 version:u16 reserved:u16 rate_bits:u64
//!            count:u32 index_bytes:u64 payload_bytes:u64 index_crc:u32
//! index   := entry*count                (strictly ascending by gate)
//! entry   := gate codec:u8 vtag:u8 ws:u16 offset:u64 len:u32 crc32:u32
//! gate    := kind:u8 [name_len:u16 name:utf8] nq:u8 qubit:u16*nq
//! payload := one byte range per entry, contiguous from offset 0,
//!            in index order
//! ```
//!
//! `rate_bits` is the f64 bit pattern of the library-wide DAC sample
//! rate (0 when entries mix rates). Each payload carries one compressed
//! stream — a plain
//! [`CompressedWaveform`](compaqt_core::compress::CompressedWaveform), an
//! [`OverlapCompressed`](compaqt_core::overlap::OverlapCompressed)
//! lapped stream, or an
//! [`AdaptiveCompressed`](compaqt_core::adaptive::AdaptiveCompressed)
//! segment list — channels stored as packed 16-bit window words (or
//! delta / raw samples), with its CRC-32 recorded in the index.
//!
//! # The validate-then-borrow contract
//!
//! [`Reader::open`] accepts any [`ContainerSource`] — owned bytes, a
//! caller-borrowed region, or a read-only memory map of a container
//! file — and validates the *entire* index before any payload is
//! parsed: magic, version, section sizes, the header's CRC-32 over the
//! index bytes (so a flipped bit in a gate field can never silently
//! remap a waveform to the wrong qubit), strict gate ordering (which
//! also proves uniqueness), offset contiguity (which also proves
//! bounds and non-overlap), and decodability of every declared
//! variant. Per-entry payload CRC-32 verification is eager by default
//! ([`ValidationMode::Eager`], `ReaderOptions::default()`) or deferred
//! to first touch with a cached per-entry
//! verdict ([`ValidationMode::LazyCrc`]), which makes opening a
//! larger-than-RAM mapped library O(index) instead of O(payload). A
//! container that survives construction can then
//! hand out zero-copy payload views ([`Entry::payload`]) and decode
//! straight through a pooled
//! [`DecodeScratch`](compaqt_core::engine::DecodeScratch)
//! ([`Reader::fetch_into`]), or bulk-load a serving
//! [`Store`](compaqt_core::store::Store) ([`Reader::into_store`] / [`FromContainer::from_reader`])
//! whose steady-state `fetch_into` performs zero heap allocations.
//! Hostile bytes — truncations, length lies, overlapping offsets, CRC
//! damage, version skew — come back as typed [`ContainerError`]s, never
//! as a panic and never as an allocation sized from a lying claim.
//!
//! # Example
//!
//! ```
//! use compaqt_core::compress::{Compressor, Variant};
//! use compaqt_core::store::StoreConfig;
//! use compaqt_io::{write_library, Reader, ReaderOptions};
//! use compaqt_pulse::device::Device;
//! use compaqt_pulse::vendor::Vendor;
//!
//! let lib = Device::synthesize(Vendor::Ibm, 2, 0xCA1).pulse_library();
//! let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
//!
//! // Host side: serialize the compressed library to container bytes.
//! let bytes = write_library(&lib, &compressor)?;
//!
//! // Controller side: validate once, then serve with zero copies.
//! let reader = Reader::open(bytes, ReaderOptions::default())?;
//! assert_eq!(reader.len(), lib.len());
//! let store = reader.into_store(StoreConfig::default())?;
//! let (gate, wf) = lib.iter().next().unwrap();
//! let (mut i, mut q) = (Vec::new(), Vec::new());
//! store.fetch_into(gate, &mut i, &mut q)?;
//! assert_eq!(i.len(), wf.len());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod crc32;
pub mod fetch;
mod format;
pub mod reader;
pub mod scenario;
pub mod serve;
pub mod source;
pub mod wire;
pub mod writer;

pub use fetch::{FetchError, FetchSource};
pub use format::PayloadKind;
pub use reader::{ContainerScratch, Entry, FromContainer, Reader, StreamPayload};
pub use scenario::{run_device, run_fleet, ScenarioError, ScenarioRow, ScenarioVariant};
pub use serve::{
    serve, serve_source, Client, ClientConfig, Responder, ServeConfig, ServeError, ServeObs,
    ServeStats, ServerHandle,
};
pub use source::{ContainerSource, ReaderOptions, ValidationMode};
pub use wire::{ErrorCode, FrameKind, LibraryDigest, ProtocolError};
pub use writer::{write_library, write_report, write_store, Writer};

use compaqt_core::CompressError;
use compaqt_pulse::library::GateId;
use std::fmt;

/// Magic number opening every CWL container (`"CWL\0"` little-endian).
pub const MAGIC: u32 = u32::from_le_bytes(*b"CWL\0");

/// Container format version this crate writes and accepts.
pub const VERSION: u16 = 1;

/// Errors from writing, validating or serving a container.
#[derive(Debug, Clone, PartialEq)]
pub enum ContainerError {
    /// The buffer does not open with the CWL magic number.
    BadMagic,
    /// The container was written by an incompatible format version.
    VersionSkew {
        /// The version recorded in the header.
        found: u16,
    },
    /// The buffer ends before the structure it declares.
    Truncated,
    /// The index lies about its own structure (section sizes, sort
    /// order, offset layout, field values).
    IndexInvalid(&'static str),
    /// The index bytes do not match the header's index CRC-32 — a
    /// damaged index could otherwise still validate structurally and
    /// silently remap payloads to the wrong gates.
    IndexCrcMismatch,
    /// An entry's payload bytes do not match the CRC-32 its index
    /// records.
    CrcMismatch {
        /// The gate whose payload is damaged.
        gate: GateId,
    },
    /// A payload's own encoding is malformed (even though its CRC
    /// matched — i.e. the container was *written* wrong or forged
    /// consistently).
    PayloadInvalid(&'static str),
    /// The container holds no entry for the requested gate.
    UnknownGate(GateId),
    /// The entry exists but its payload kind cannot be served through
    /// the store path (lapped and adaptive streams have no
    /// [`Store`](compaqt_core::store::Store) decoder; read them via [`Entry::read`]).
    Unservable {
        /// The gate whose entry is not a plain stream.
        gate: GateId,
    },
    /// Two entries were added for the same gate.
    DuplicateGate(GateId),
    /// A gate or waveform field exceeds what the format can record
    /// (name beyond `u16` bytes, more than 255 qubits).
    Unrepresentable(&'static str),
    /// The codec layer rejected a stream (undecodable variant at load,
    /// malformed coefficient stream at decode).
    Codec(CompressError),
}

impl fmt::Display for ContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainerError::BadMagic => write!(f, "not a CWL container"),
            ContainerError::VersionSkew { found } => {
                write!(f, "container version {found} is not the supported version {VERSION}")
            }
            ContainerError::Truncated => write!(f, "container truncated"),
            ContainerError::IndexInvalid(reason) => write!(f, "invalid container index: {reason}"),
            ContainerError::IndexCrcMismatch => {
                write!(f, "index checksum mismatch (damaged or forged index section)")
            }
            ContainerError::CrcMismatch { gate } => {
                write!(f, "payload checksum mismatch for gate {gate}")
            }
            ContainerError::PayloadInvalid(reason) => {
                write!(f, "malformed container payload: {reason}")
            }
            ContainerError::UnknownGate(gate) => {
                write!(f, "container holds no entry for gate {gate}")
            }
            ContainerError::Unservable { gate } => {
                write!(f, "entry for gate {gate} is not a plain stream the store can serve")
            }
            ContainerError::DuplicateGate(gate) => {
                write!(f, "two entries were added for gate {gate}")
            }
            ContainerError::Unrepresentable(what) => {
                write!(f, "field exceeds the container format: {what}")
            }
            ContainerError::Codec(e) => write!(f, "codec rejected a contained stream: {e}"),
        }
    }
}

impl std::error::Error for ContainerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ContainerError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CompressError> for ContainerError {
    fn from(e: CompressError) -> Self {
        ContainerError::Codec(e)
    }
}
