//! Batch decode of whole pulse libraries.
//!
//! A calibration cycle ends with every waveform of a 100+ qubit machine
//! being recompressed and packed into the controller's container
//! (Figure 6; the CWL container lives in `compaqt-io`). Both sides run
//! one sequential loop:
//!
//! * the compile side is [`crate::stats::compress_library`]. A fan-out
//!   of one contiguous slice per core on scoped `std` threads produced
//!   the identical report but measured no faster on a 2-vCPU host: over
//!   20 alternating process pairs compiling the 663-waveform
//!   `washington` library, it won 10 and lost 10.
//! * [`decompress_library`] — the decode side, one sequential loop over
//!   the zero-allocation engine path: one engine per variant, one
//!   [`DecodeScratch`] and reusable output buffers, so only the final
//!   sample vectors are allocated. It is sequential because a
//!   per-waveform x per-channel parallel decoder measured slower than
//!   this loop on both a 1-vCPU and a 2-vCPU host.

use crate::compress::CompressedWaveform;
use crate::engine::{DecodeScratch, DecompressionEngine, EngineStats};
use crate::CompressError;
use compaqt_pulse::waveform::Waveform;

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
    use crate::compress::{Compressor, Variant};
    use compaqt_pulse::device::Device;
    use compaqt_pulse::vendor::Vendor;

    #[test]
    fn mixed_variant_batches_decode() {
        let lib = Device::synthesize(Vendor::Ibm, 4, 0xBA7C4).pulse_library();
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
}
