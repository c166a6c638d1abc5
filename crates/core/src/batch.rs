//! Batch compilation and decode of whole pulse libraries.
//!
//! A calibration cycle ends with every waveform of a 100+ qubit machine
//! being recompressed and packed into the controller's container
//! (Figure 6; the CWL container lives in `compaqt-io`). The per-waveform
//! codec is embarrassingly parallel — each waveform compresses
//! independently — so the compile side fans the library out across a
//! rayon thread pool:
//!
//! * [`compress_waveforms`] / [`compress_library_par`] — the compile
//!   side; `compress_library_par` is the drop-in parallel twin of
//!   [`crate::stats::compress_library`], producing an identical
//!   [`LibraryReport`] (same order, same numbers — the codec is
//!   deterministic, so parallelism cannot change results). Workers carry
//!   a private [`EncodeScratch`] (cached transform plans + staging), so
//!   per-window compression work allocates nothing; only the compressed
//!   streams each worker returns are allocated.
//! * [`decompress_library`] — the decode side, one sequential loop over
//!   the zero-allocation engine path: one engine per variant, one
//!   [`DecodeScratch`] and reusable output buffers, so only the final
//!   sample vectors are allocated. It is sequential because a
//!   per-waveform x per-channel parallel decoder measured slower than
//!   this loop on both a 1-vCPU and a 2-vCPU host.
//!
//! # `_par` on small machines: the sequential fallback
//!
//! Every `_par` entry point degrades to its sequential twin when only
//! one worker would run (`available_parallelism() == 1`, or
//! `RAYON_NUM_THREADS=1`): spawning "parallel" workers that time-slice a
//! single core only adds thread spawn/join overhead and per-item buffer
//! churn on top of identical arithmetic. The fallback is observable only
//! in timing — the codec is deterministic, so both paths produce
//! bit-identical results (the round-trip suites assert `==`).

use crate::compress::{CompressedWaveform, Compressor};
use crate::engine::{DecodeScratch, DecompressionEngine, EncodeScratch, EngineStats};
use crate::stats::{LibraryReport, WaveformReport};
use crate::CompressError;
use compaqt_pulse::library::PulseLibrary;
use compaqt_pulse::waveform::Waveform;
use rayon::prelude::*;

/// `true` when a `_par` entry point should skip the thread fan-out and
/// run its sequential twin instead: with a single worker, parallelism
/// buys nothing and the spawn/join overhead is a pure regression.
fn fan_out_is_useless(workers: usize) -> bool {
    workers <= 1
}

/// Compresses a batch of waveforms in parallel, preserving order.
///
/// On a single-worker host this degrades to the sequential
/// scratch-reuse loop (see the module docs); results are bit-identical
/// either way.
///
/// # Errors
///
/// Returns the first compression error (none occur for supported window
/// sizes).
pub fn compress_waveforms(
    waveforms: &[Waveform],
    compressor: &Compressor,
) -> Result<Vec<CompressedWaveform>, CompressError> {
    if fan_out_is_useless(rayon::current_num_threads()) {
        let mut enc = EncodeScratch::new();
        let mut out = Vec::with_capacity(waveforms.len());
        for wf in waveforms {
            let mut z = CompressedWaveform::empty();
            compressor.compress_into(wf, &mut enc, &mut z)?;
            out.push(z);
        }
        return Ok(out);
    }
    waveforms
        .par_iter()
        .map_init(EncodeScratch::new, |enc, wf| {
            let mut z = CompressedWaveform::empty();
            compressor.compress_into(wf, enc, &mut z)?;
            Ok(z)
        })
        .collect()
}

/// Parallel twin of [`crate::stats::compress_library`]: compresses every
/// waveform of a library across worker threads and aggregates the same
/// [`LibraryReport`] (library order, identical numbers).
///
/// Each worker verifies its own streams through the zero-allocation
/// decode path with a thread-private scratch, so the reconstruction-MSE
/// accounting adds no per-window allocations. On a single-worker host
/// this is literally [`crate::stats::compress_library`] (sequential
/// fallback, identical report).
///
/// # Errors
///
/// Propagates the first compression or decode error.
pub fn compress_library_par(
    library: &PulseLibrary,
    compressor: &Compressor,
) -> Result<LibraryReport, CompressError> {
    if fan_out_is_useless(rayon::current_num_threads()) {
        return crate::stats::compress_library(library, compressor);
    }
    let engine = DecompressionEngine::shared(compressor.variant())?;
    let entries: Vec<_> = library.iter().collect();
    let reports: Result<Vec<WaveformReport>, CompressError> = entries
        .par_iter()
        .map_init(
            || (EncodeScratch::new(), DecodeScratch::new(), Vec::new(), Vec::new()),
            |(enc, scratch, i_buf, q_buf), &(gate, wf)| {
                let mut compressed = CompressedWaveform::empty();
                compressor.compress_into(wf, enc, &mut compressed)?;
                engine.decompress_into(&compressed, scratch, i_buf, q_buf)?;
                let mse = (compaqt_dsp::metrics::mse(wf.i(), i_buf)
                    + compaqt_dsp::metrics::mse(wf.q(), q_buf))
                    / 2.0;
                Ok(WaveformReport {
                    gate: gate.clone(),
                    ratio: compressed.ratio().ratio(),
                    mse,
                    worst_case_window_words: compressed.worst_case_window_words(),
                    compressed,
                })
            },
        )
        .collect();
    let waveforms = reports?;
    let overall = waveforms
        .iter()
        .map(|w| w.compressed.ratio())
        .reduce(|acc, r| acc.combine(&r))
        .expect("library must be non-empty");
    Ok(LibraryReport { waveforms, overall })
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
    fn compress_waveforms_preserves_order() {
        let lib = library();
        let wfs: Vec<Waveform> = lib.iter().map(|(_, wf)| wf.clone()).collect();
        let c = Compressor::new(Variant::IntDctW { ws: 8 });
        let batch = compress_waveforms(&wfs, &c).unwrap();
        for (wf, z) in wfs.iter().zip(&batch) {
            assert_eq!(&c.compress(wf).unwrap(), z);
        }
    }

    #[test]
    fn unsupported_variant_errors_cleanly() {
        let lib = library();
        let c = Compressor::new(Variant::IntDctW { ws: 12 });
        assert!(compress_library_par(&lib, &c).is_err());
    }

    #[test]
    fn fan_out_guard_trips_only_on_a_single_worker() {
        // The sequential fallback must engage exactly when one worker
        // would run — the case where thread spawn/join is pure overhead.
        assert!(fan_out_is_useless(0));
        assert!(fan_out_is_useless(1));
        assert!(!fan_out_is_useless(2));
        assert!(!fan_out_is_useless(64));
    }
}
