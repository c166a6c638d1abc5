//! # compaqt-core
//!
//! The COMPAQT core: compile-time waveform compression, the compressed
//! banked waveform memory, and a bit-exact model of the hardware
//! decompression engine (Maurya & Tannu, MICRO 2022, Sections IV-V).
//!
//! Waveform memory is read-only during execution — it is (re)written only
//! at the end of a calibration cycle. COMPAQT exploits this: compression
//! runs in software with no hardware cost, while decompression is a small
//! fixed-function pipeline (run-length decoder + integer IDCT) between the
//! memory and the DAC. Expanding a handful of stored words into a full
//! window of DAC samples multiplies the effective memory bandwidth.
//!
//! * [`compress`] — the compression pipelines: `Delta`, `DCT-N`, `DCT-W`
//!   and `int-DCT-W` variants, plus fidelity-aware thresholding
//!   (Algorithm 1). Allocating and zero-allocation (`compress_into`)
//!   paths, bit-exact with each other.
//! * [`engine`] — the two-stage decompression pipeline model (Figure 10)
//!   with cycle and operation accounting, plus the caller-owned
//!   `EncodeScratch`/`DecodeScratch` working memory both codec
//!   directions reuse.
//! * [`memory`] — banked compressed waveform memory with uniform
//!   worst-case window width (Figure 12).
//! * [`adaptive`] — IDCT-bypass compression of flat-top waveforms
//!   (Figure 13).
//! * [`stats`] — library-level compression statistics (Figures 7/11/14,
//!   Tables VII/IX).
//! * [`batch`] — parallel whole-library compile and the sequential
//!   whole-library decode.
//! * [`store`] — the serving path: a sharded concurrent compressed
//!   waveform store with per-thread decode scratch and a hot set of
//!   decoded waveforms (runtime single-gate fetches, the deployment model of
//!   Section IV-A).
//!
//! The stored and transferred form of a compressed library is the CWL
//! container of `compaqt-io`; this crate defines the streams it holds.
//!
//! # Example
//!
//! ```
//! use compaqt_core::compress::{Compressor, Variant};
//! use compaqt_pulse::shapes::{Drag, PulseShape};
//!
//! let pulse = Drag::new(136, 0.5, 34.0, 0.2).to_waveform("X(q0)", 4.54);
//! let compressed = Compressor::new(Variant::IntDctW { ws: 16 }).compress(&pulse)?;
//! let restored = compressed.decompress()?;
//! assert!(pulse.mse(&restored) < 5e-5);
//! assert!(compressed.ratio().ratio() > 4.0);
//! # Ok::<(), compaqt_core::CompressError>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod adaptive;
pub mod batch;
pub mod calibration;
pub mod compress;
pub mod engine;
pub mod memory;
pub mod overlap;
pub mod sequencer;
pub mod stats;
pub mod store;

pub use compress::{CompressedWaveform, Compressor, Variant};
pub use engine::{DecodeScratch, DecompressionEngine, EngineStats};
pub use store::{Store, StoreConfig, StoreError, StoreStats};

use std::fmt;

/// Errors produced by the compression/decompression pipelines.
#[derive(Debug, Clone, PartialEq)]
pub enum CompressError {
    /// The requested window size is not supported by the transform.
    UnsupportedWindow(usize),
    /// Algorithm 1 could not reach the target error before the threshold
    /// floor (the pulse must be stored uncompressed).
    TargetUnreachable {
        /// The requested maximum MSE.
        target_mse: f64,
    },
    /// A run-length stream was malformed.
    Rle(compaqt_dsp::rle::RleError),
    /// A compressed stream's metadata is inconsistent with its payload —
    /// hostile or corrupted input that would otherwise drive oversized
    /// allocations or impossible decodes.
    MalformedStream {
        /// What the consistency check found.
        reason: &'static str,
    },
    /// A shared engine was handed a stream compressed with a different
    /// variant (segmented decodes require an exact match).
    EngineMismatch {
        /// The stream's variant.
        expected: Variant,
        /// The engine's variant.
        got: Variant,
    },
    /// The waveform has no flat-top plateau long enough for adaptive
    /// compression.
    NoPlateau,
    /// A whole-library compile was handed a library with no waveforms
    /// (a report needs at least one to state an overall ratio).
    EmptyLibrary,
    /// A controller was asked to play a gate whose waveform it never
    /// loaded.
    NotResident(compaqt_pulse::library::GateId),
    /// A controller was loaded with a variant that has no fixed
    /// transform window (`Delta`, `DCT-N`); its streaming model needs
    /// one.
    NotWindowed(Variant),
}

impl fmt::Display for CompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressError::UnsupportedWindow(ws) => {
                write!(f, "window size {ws} is not supported (use 4, 8, 16, 32 or 64)")
            }
            CompressError::TargetUnreachable { target_mse } => {
                write!(f, "fidelity-aware compression could not reach target MSE {target_mse:e}")
            }
            CompressError::Rle(e) => write!(f, "run-length stream error: {e}"),
            CompressError::MalformedStream { reason } => {
                write!(f, "malformed compressed stream: {reason}")
            }
            CompressError::EngineMismatch { expected, got } => {
                write!(
                    f,
                    "engine decodes {} but the stream was compressed with {}",
                    got.label(),
                    expected.label()
                )
            }
            CompressError::NoPlateau => {
                write!(f, "waveform has no flat-top plateau for adaptive compression")
            }
            CompressError::EmptyLibrary => write!(f, "cannot compile an empty pulse library"),
            CompressError::NotResident(gate) => {
                write!(f, "gate {gate} is not resident in the controller")
            }
            CompressError::NotWindowed(variant) => write!(
                f,
                "the controller needs a windowed variant (DCT-W or int-DCT-W), not {}",
                variant.label()
            ),
        }
    }
}

impl std::error::Error for CompressError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompressError::Rle(e) => Some(e),
            _ => None,
        }
    }
}

impl From<compaqt_dsp::rle::RleError> for CompressError {
    fn from(e: compaqt_dsp::rle::RleError) -> Self {
        CompressError::Rle(e)
    }
}
