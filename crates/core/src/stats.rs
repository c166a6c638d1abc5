//! Library-level compression statistics.
//!
//! The paper's compressibility results aggregate over whole pulse
//! libraries: per-waveform ratios (Figure 7a, Figure 14), overall ratios
//! (Figure 7b, Table VII), distortion (Figure 7c) and the
//! samples-per-window histogram that sizes the uniform-width memory
//! (Figure 11).

use crate::compress::{CompressedWaveform, Compressor};
use crate::engine::{DecodeScratch, DecompressionEngine, EncodeScratch};
use crate::store::Store;
use crate::CompressError;
use compaqt_dsp::metrics::{CompressionRatio, Summary};
use compaqt_pulse::library::{GateId, GateKind, PulseLibrary};
use std::collections::BTreeMap;

/// Compression outcome for one waveform.
#[derive(Debug, Clone)]
pub struct WaveformReport {
    /// Which gate the waveform implements.
    pub gate: GateId,
    /// Compression ratio.
    pub ratio: f64,
    /// Reconstruction MSE.
    pub mse: f64,
    /// Worst-case stored words in any window.
    pub worst_case_window_words: usize,
    /// The compressed stream.
    pub compressed: CompressedWaveform,
}

/// Compression outcome for a whole pulse library.
#[derive(Debug, Clone)]
pub struct LibraryReport {
    /// Per-waveform outcomes (library order).
    pub waveforms: Vec<WaveformReport>,
    /// Overall ratio (total old size / total new size).
    pub overall: CompressionRatio,
}

impl LibraryReport {
    /// Min/avg/max summary of per-waveform ratios (Table VII rows).
    pub fn ratio_summary(&self) -> Summary {
        Summary::of(self.waveforms.iter().map(|w| w.ratio)).expect("library reports are non-empty")
    }

    /// Mean reconstruction MSE over all waveforms (Figure 7c).
    pub fn mean_mse(&self) -> f64 {
        let n = self.waveforms.len().max(1);
        self.waveforms.iter().map(|w| w.mse).sum::<f64>() / n as f64
    }

    /// Histogram of stored words per window across all waveforms
    /// (Figure 11): `words -> window count`.
    pub fn samples_per_window_histogram(&self) -> BTreeMap<usize, usize> {
        let mut hist = BTreeMap::new();
        for report in &self.waveforms {
            for count in report
                .compressed
                .i
                .window_word_counts()
                .into_iter()
                .chain(report.compressed.q.window_word_counts())
            {
                *hist.entry(count).or_insert(0) += 1;
            }
        }
        hist
    }

    /// Mean ratio over waveforms of one gate kind (the per-gate bars of
    /// Figure 14).
    pub fn mean_ratio_of_kind(&self, kind: &GateKind) -> Option<f64> {
        let values: Vec<f64> =
            self.waveforms.iter().filter(|w| &w.gate.kind == kind).map(|w| w.ratio).collect();
        if values.is_empty() {
            None
        } else {
            Some(values.iter().sum::<f64>() / values.len() as f64)
        }
    }

    /// Consumes the report into a serving-path [`Store`], moving each
    /// compressed stream in without re-encoding or cloning — the bridge
    /// from the compile side (this report) to runtime single-gate
    /// fetches ([`Store::fetch_into`] / [`Store::fetch_cached`]).
    ///
    /// # Errors
    ///
    /// Returns [`CompressError`] if a stream carries a variant no
    /// decompression engine can be built for (never the case for
    /// reports produced by [`compress_library`]).
    pub fn into_store(self, config: crate::store::StoreConfig) -> Result<Store, CompressError> {
        Store::from_entries(self.waveforms.into_iter().map(|w| (w.gate, w.compressed)), config)
    }

    /// Mean ratio over waveforms of one gate kind touching qubit `q`
    /// (Figure 14 averages CX ratios over all CNOTs a qubit participates
    /// in).
    pub fn mean_ratio_of_kind_on_qubit(&self, kind: &GateKind, q: u16) -> Option<f64> {
        let values: Vec<f64> = self
            .waveforms
            .iter()
            .filter(|w| &w.gate.kind == kind && w.gate.qubits.contains(&q))
            .map(|w| w.ratio)
            .collect();
        if values.is_empty() {
            None
        } else {
            Some(values.iter().sum::<f64>() / values.len() as f64)
        }
    }
}

/// Compresses every waveform of a library and aggregates the results.
///
/// Each waveform is compressed, verify-decoded through the shared
/// engine and scored for reconstruction MSE. The loop reuses one
/// [`EncodeScratch`], one [`DecodeScratch`] and one pair of sample
/// buffers across the whole library (cached transform plans, staging
/// buffers), so per-window work allocates nothing; only the
/// per-waveform compressed streams the report owns are allocated.
///
/// # Errors
///
/// Returns [`CompressError::EmptyLibrary`] for a library with no
/// waveforms, and otherwise propagates the first compression error
/// (none occur for supported window sizes).
pub fn compress_library(
    library: &PulseLibrary,
    compressor: &Compressor,
) -> Result<LibraryReport, CompressError> {
    let engine = DecompressionEngine::shared(compressor.variant())?;
    let mut enc = EncodeScratch::new();
    let mut dec = DecodeScratch::new();
    let (mut i_buf, mut q_buf) = (Vec::new(), Vec::new());
    let waveforms = library
        .iter()
        .map(|(gate, wf)| {
            let mut compressed = CompressedWaveform::empty();
            compressor.compress_into(wf, &mut enc, &mut compressed)?;
            engine.decompress_into(&compressed, &mut dec, &mut i_buf, &mut q_buf)?;
            let mse = (compaqt_dsp::metrics::mse(wf.i(), &i_buf)
                + compaqt_dsp::metrics::mse(wf.q(), &q_buf))
                / 2.0;
            Ok(WaveformReport {
                gate: gate.clone(),
                ratio: compressed.ratio().ratio(),
                mse,
                worst_case_window_words: compressed.worst_case_window_words(),
                compressed,
            })
        })
        .collect::<Result<Vec<_>, CompressError>>()?;
    let overall = waveforms
        .iter()
        .map(|w| w.compressed.ratio())
        .reduce(|acc, r| acc.combine(&r))
        .ok_or(CompressError::EmptyLibrary)?;
    Ok(LibraryReport { waveforms, overall })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::Variant;
    use compaqt_pulse::device::Device;
    use compaqt_pulse::vendor::Vendor;

    fn report(ws: usize) -> LibraryReport {
        let device = Device::synthesize(Vendor::Ibm, 5, 0xBEEF);
        let lib = device.pulse_library();
        compress_library(&lib, &Compressor::new(Variant::IntDctW { ws })).unwrap()
    }

    #[test]
    fn unsupported_variant_errors_cleanly() {
        let lib = Device::synthesize(Vendor::Ibm, 4, 0xBA7C4).pulse_library();
        let c = Compressor::new(Variant::IntDctW { ws: 12 });
        assert!(compress_library(&lib, &c).is_err());
    }

    #[test]
    fn empty_library_is_a_typed_error() {
        let empty = PulseLibrary::new();
        let c = Compressor::new(Variant::IntDctW { ws: 16 });
        assert_eq!(compress_library(&empty, &c).unwrap_err(), CompressError::EmptyLibrary);
    }

    #[test]
    fn overall_ratio_exceeds_4x() {
        // Table VII: int-DCT-W (WS=16) averages ~6.5x; even small devices
        // should clear 4x.
        let r = report(16);
        assert!(r.overall.ratio() > 4.0, "got {}", r.overall.ratio());
    }

    #[test]
    fn two_qubit_gates_compress_better_than_single() {
        // "measurement and 2Q gates are longer and more compressible than
        // 1Q gates" (Section IV-D).
        let r = report(16);
        let sx = r.mean_ratio_of_kind(&GateKind::Sx).unwrap();
        let cx = r.mean_ratio_of_kind(&GateKind::Cx).unwrap();
        assert!(cx > sx, "CX {cx} vs SX {sx}");
    }

    #[test]
    fn mse_is_in_paper_band() {
        // Figure 7c: MSE between 1e-7 and 1e-5.
        let r = report(16);
        let mse = r.mean_mse();
        assert!(mse < 5e-5, "got {mse:e}");
        assert!(mse > 1e-12, "suspiciously perfect: {mse:e}");
    }

    #[test]
    fn histogram_is_dominated_by_small_windows() {
        // Figure 11: the overwhelming majority of windows store <= 3
        // words including the codeword.
        let r = report(16);
        let hist = r.samples_per_window_histogram();
        let total: usize = hist.values().sum();
        let small: usize = hist.iter().filter(|(&k, _)| k <= 3).map(|(_, &v)| v).sum();
        assert!(
            small as f64 / total as f64 > 0.85,
            "small-window fraction {}",
            small as f64 / total as f64
        );
    }

    #[test]
    fn per_qubit_kind_filter_works() {
        let r = report(16);
        assert!(r.mean_ratio_of_kind_on_qubit(&GateKind::X, 0).is_some());
        assert!(r.mean_ratio_of_kind_on_qubit(&GateKind::X, 99).is_none());
    }

    #[test]
    fn summary_spans_are_sane() {
        let r = report(16);
        let s = r.ratio_summary();
        assert!(s.min <= s.avg && s.avg <= s.max);
        assert!(s.min > 1.0, "everything compresses at least a little");
    }
}
