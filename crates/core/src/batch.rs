//! Batch compilation and decode of whole pulse libraries.
//!
//! A calibration cycle ends with every waveform of a 100+ qubit machine
//! being recompressed and packed into the controller's container
//! (Figure 6; the CWL container lives in `compaqt-io`). Both sides run
//! one sequential loop:
//!
//! * [`compress_library_par`] — the compile side, an alias of
//!   [`crate::stats::compress_library`] kept for its existing callers.
//!   A fan-out of one contiguous slice per core on scoped `std` threads
//!   produced the identical report but measured no faster on a 2-vCPU
//!   host: over 20 alternating process pairs compiling the
//!   663-waveform `washington` library, it won 10 and lost 10.
//! * [`decompress_library`] — the decode side, one sequential loop over
//!   the zero-allocation engine path: one engine per variant, one
//!   [`DecodeScratch`] and reusable output buffers, so only the final
//!   sample vectors are allocated. It is sequential because a
//!   per-waveform x per-channel parallel decoder measured slower than
//!   this loop on both a 1-vCPU and a 2-vCPU host.

use crate::compress::{CompressedWaveform, Compressor};
use crate::engine::{DecodeScratch, DecompressionEngine, EngineStats};
use crate::stats::LibraryReport;
use crate::CompressError;
use compaqt_pulse::library::PulseLibrary;
use compaqt_pulse::waveform::Waveform;

/// The library compile under its historical name: runs
/// [`crate::stats::compress_library`] and returns its report unchanged.
///
/// # Errors
///
/// Returns [`CompressError::EmptyLibrary`] for a library with no
/// waveforms, and otherwise propagates the first compression or decode
/// error.
pub fn compress_library_par(
    library: &PulseLibrary,
    compressor: &Compressor,
) -> Result<LibraryReport, CompressError> {
    crate::stats::compress_library(library, compressor)
}

/// Sequentially decodes a batch of compressed waveforms through one
/// reused scratch (the steady-state zero-allocation loop: after the
/// first waveform, only the returned sample vectors are allocated).
/// Returns the waveforms plus aggregate engine stats.
///
/// # Errors
///
/// Returns the first malformed-stream error.
pub fn decompress_library(
    compressed: &[CompressedWaveform],
) -> Result<(Vec<Waveform>, EngineStats), CompressError> {
    let mut scratch = DecodeScratch::new();
    let (mut i_buf, mut q_buf) = (Vec::new(), Vec::new());
    let mut stats = EngineStats::default();
    let mut out = Vec::with_capacity(compressed.len());
    for z in compressed {
        let engine = DecompressionEngine::shared(z.variant)?;
        let s = engine.decompress_into(z, &mut scratch, &mut i_buf, &mut q_buf)?;
        stats.merge(&s);
        out.push(crate::engine::checked_waveform(
            &z.name,
            i_buf.clone(),
            q_buf.clone(),
            z.sample_rate_gs,
        )?);
    }
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::Variant;
    use crate::stats::compress_library;
    use compaqt_pulse::device::Device;
    use compaqt_pulse::vendor::Vendor;

    fn library() -> std::sync::Arc<PulseLibrary> {
        Device::synthesize(Vendor::Ibm, 4, 0xBA7C4).pulse_library()
    }

    #[test]
    fn parallel_report_matches_sequential_exactly() {
        let lib = library();
        let c = Compressor::new(Variant::IntDctW { ws: 16 });
        let seq = compress_library(&lib, &c).unwrap();
        let par = compress_library_par(&lib, &c).unwrap();
        assert_eq!(seq.waveforms.len(), par.waveforms.len());
        assert_eq!(seq.overall.ratio(), par.overall.ratio());
        for (a, b) in seq.waveforms.iter().zip(&par.waveforms) {
            assert_eq!(a.gate, b.gate, "library order must be preserved");
            assert_eq!(a.compressed, b.compressed);
            assert_eq!(a.mse, b.mse, "{}: mse must be bit-identical", a.gate);
        }
    }

    #[test]
    fn mixed_variant_batches_decode() {
        let lib = library();
        let mut zs = Vec::new();
        for (k, (_, wf)) in lib.iter().enumerate() {
            let variant = if k % 2 == 0 { Variant::IntDctW { ws: 16 } } else { Variant::DctN };
            zs.push(Compressor::new(variant).compress(wf).unwrap());
        }
        let (out, stats) = decompress_library(&zs).unwrap();
        assert_eq!(out.len(), zs.len());
        assert!(stats.output_samples > 0);
        for (z, wf) in zs.iter().zip(&out) {
            assert_eq!(wf.len(), z.n_samples);
        }
    }

    #[test]
    fn unsupported_variant_errors_cleanly() {
        let lib = library();
        let c = Compressor::new(Variant::IntDctW { ws: 12 });
        assert!(compress_library_par(&lib, &c).is_err());
    }

    #[test]
    fn empty_library_is_a_typed_error() {
        let empty = PulseLibrary::new();
        let c = Compressor::new(Variant::IntDctW { ws: 16 });
        assert_eq!(compress_library(&empty, &c).unwrap_err(), CompressError::EmptyLibrary);
        assert_eq!(compress_library_par(&empty, &c).unwrap_err(), CompressError::EmptyLibrary);
    }
}
