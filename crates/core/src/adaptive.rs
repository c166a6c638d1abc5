//! Adaptive decompression for flat-top waveforms (Section V-D, Figure 13).
//!
//! Flat-top pulses (cross-resonance drives, readout) spend most of their
//! duration at a constant amplitude. The constant segment needs neither
//! the IDCT nor repeated memory reads: a single repeat-run codeword is
//! decoded straight into the buffer in front of the DAC, so both the
//! memory and the IDCT engine idle for the whole plateau — the extra
//! power savings of Figure 19.
//!
//! **When it wins:** any waveform whose plateau dominates its duration —
//! the longer the flat top relative to the ramps, the more the ratio and
//! the bypass fraction improve over the plain windowed codec. It loses
//! (returns [`CompressError::NoPlateau`]) on pulses without a
//! window-aligned constant run of at least the configured minimum, so
//! callers typically try adaptive first and fall back to
//! [`Compressor::compress`].
//!
//! The encoder follows the allocating-vs-reuse convention:
//! [`AdaptiveCompressor::compress`] wraps
//! [`AdaptiveCompressor::compress_with`], which wraps
//! [`AdaptiveCompressor::compress_into`] — the innermost form threads a
//! caller-owned [`crate::engine::EncodeScratch`] through the ramp
//! segments, encodes them from sub-slices without intermediate waveform
//! copies, and refills a reused [`AdaptiveCompressed`] slot segment by
//! segment so a warm re-encode allocates nothing;
//! [`AdaptiveCompressed::decompress_with`] is the decode twin.

use crate::compress::{CompressedWaveform, Compressor, Variant};
use crate::engine::{DecodeScratch, DecompressionEngine, EngineStats};
use crate::CompressError;
use compaqt_dsp::fixed::Q15;
use compaqt_dsp::metrics::CompressionRatio;
use compaqt_dsp::rle::{CodedWord, RleEncoder};
use compaqt_pulse::waveform::Waveform;

/// One segment of an adaptively compressed waveform.
#[derive(Debug, Clone, PartialEq)]
pub enum Segment {
    /// A DCT-compressed region (rise or fall ramp).
    Windows(CompressedWaveform),
    /// A constant plateau: per-channel literal value + repeat run, decoded
    /// with the IDCT bypassed.
    Constant {
        /// Plateau I value.
        i_value: Q15,
        /// Plateau Q value.
        q_value: Q15,
        /// Plateau length in samples.
        len: usize,
    },
}

/// An adaptively compressed flat-top waveform.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveCompressed {
    /// Waveform name.
    pub name: String,
    /// Original sample count.
    pub n_samples: usize,
    /// DAC sampling rate in GS/s.
    pub sample_rate_gs: f64,
    /// The variant used for the ramp segments.
    pub variant: Variant,
    /// The segments in playback order.
    pub segments: Vec<Segment>,
}

impl AdaptiveCompressed {
    /// An empty slot for [`AdaptiveCompressor::compress_into`] to fill.
    /// The variant placeholder is overwritten on the first fill.
    pub fn empty() -> Self {
        AdaptiveCompressed {
            name: String::new(),
            n_samples: 0,
            sample_rate_gs: 0.0,
            variant: Variant::Delta,
            segments: Vec::new(),
        }
    }

    /// Compression ratio including the plateau codewords. Saturating,
    /// so hostile sample-count claims cannot overflow the accounting.
    pub fn ratio(&self) -> CompressionRatio {
        let old = self.n_samples.saturating_mul(crate::compress::SAMPLE_BYTES);
        let new_bits: usize = self
            .segments
            .iter()
            .map(|s| match s {
                Segment::Windows(z) => z.i.size_bits().saturating_add(z.q.size_bits()),
                Segment::Constant { len, .. } => {
                    // Per channel: one literal + ceil(run/MAX_RUN) codewords.
                    let cws = plateau_codewords(*len);
                    2 * (1 + cws) * 16
                }
            })
            .sum();
        CompressionRatio::new(old, new_bits.div_ceil(8).max(1))
    }

    /// Fraction of output samples produced with the IDCT bypassed.
    pub fn bypass_fraction(&self) -> f64 {
        let bypassed: usize = self
            .segments
            .iter()
            .map(|s| match s {
                Segment::Constant { len, .. } => *len,
                _ => 0,
            })
            .sum();
        bypassed as f64 / self.n_samples as f64
    }

    /// Decompresses, returning the waveform and engine stats (plateau
    /// samples are accounted as bypassed):
    /// [`AdaptiveCompressed::decompress_with`] through the shared engine,
    /// a fresh scratch and fresh buffers.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed streams.
    pub fn decompress(&self) -> Result<(Waveform, EngineStats), CompressError> {
        let engine = DecompressionEngine::shared(self.variant)?;
        let (mut i, mut q) = (Vec::new(), Vec::new());
        let stats = self.decompress_with(engine, &mut DecodeScratch::new(), &mut i, &mut q)?;
        Ok((Waveform::new(self.name.clone(), i, q, self.sample_rate_gs), stats))
    }

    /// Decompresses into caller-provided buffers through a shared engine
    /// and scratch, allocation-free once they are warm. Windowed
    /// segments chain through
    /// [`DecompressionEngine::decode_channel_into`]'s append semantics;
    /// plateau runs are expanded straight into the output buffers with
    /// the IDCT (and the scratch) idle, exactly like the hardware bypass.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed streams or an engine whose variant
    /// does not match.
    pub fn decompress_with(
        &self,
        engine: &DecompressionEngine,
        scratch: &mut DecodeScratch,
        i_out: &mut Vec<f64>,
        q_out: &mut Vec<f64>,
    ) -> Result<EngineStats, CompressError> {
        if engine.variant() != self.variant {
            return Err(CompressError::EngineMismatch {
                expected: self.variant,
                got: engine.variant(),
            });
        }
        let mut stats = EngineStats::default();
        i_out.clear();
        q_out.clear();
        for seg in &self.segments {
            match seg {
                Segment::Windows(z) => {
                    let mut s = EngineStats::default();
                    engine.decode_channel_into(&z.i, z.n_samples, scratch, i_out, &mut s)?;
                    engine.decode_channel_into(&z.q, z.n_samples, scratch, q_out, &mut s)?;
                    stats.merge(&s);
                }
                Segment::Constant { i_value, q_value, len } => {
                    check_plateau_claim(*len, self.n_samples.saturating_sub(i_out.len()))?;
                    let cws = plateau_codewords(*len);
                    stats.memory_words_read += 2 * (1 + cws);
                    stats.rle_codewords += 2 * cws;
                    stats.bypassed_samples += 2 * len;
                    stats.output_samples += 2 * len;
                    stats.cycles += *len as u64;
                    i_out.extend(std::iter::repeat_n(i_value.to_f64(), *len));
                    q_out.extend(std::iter::repeat_n(q_value.to_f64(), *len));
                }
            }
        }
        i_out.truncate(self.n_samples);
        q_out.truncate(self.n_samples);
        crate::engine::check_channel_shapes(i_out.len(), q_out.len())?;
        crate::engine::check_sample_rate(self.sample_rate_gs)?;
        Ok(stats)
    }

    /// The plateau as raw coded words (what actually sits in memory for
    /// the constant segment). Segments whose length claim decode would
    /// reject (zero, or beyond the representable run ceiling) contribute
    /// no words — materializing a hostile multi-petabyte claim here
    /// would be the very amplification the decode guards exist to block.
    pub fn plateau_words(&self) -> Vec<CodedWord> {
        let enc = RleEncoder::new();
        self.segments
            .iter()
            .filter_map(|s| match s {
                Segment::Constant { i_value, len, .. } if (1..=MAX_PLATEAU_RUN).contains(len) => {
                    Some(enc.encode_constant_run(i_value.raw(), *len))
                }
                _ => None,
            })
            .flatten()
            .collect()
    }
}

/// Hard ceiling on a single plateau claim: 256 maximal repeat codewords
/// (~4.2M samples, ~0.9 ms at 4.54 GS/s — three orders of magnitude
/// beyond any control pulse's flat top). Bounds the memory a hostile
/// `Segment::Constant` length field can demand before decode rejects it.
const MAX_PLATEAU_RUN: usize = 256 * compaqt_dsp::rle::MAX_RUN as usize;

/// Per-channel run-length codewords a plateau of `len` samples occupies:
/// one literal plus `ceil((len-1)/MAX_RUN)` repeat codewords (saturating
/// for hostile zero-length claims, which decode rejects anyway).
fn plateau_codewords(len: usize) -> usize {
    len.saturating_sub(1).div_ceil(compaqt_dsp::rle::MAX_RUN as usize).max(1)
}

/// Validates a `Segment::Constant` length claim before any sample is
/// produced from it — the IDCT-bypass twin of the engine's
/// window-claim guard: plateau expansion is driven purely by a metadata
/// field, so it must be bounded by the waveform's remaining sample
/// budget and an absolute sanity ceiling, never trusted raw.
fn check_plateau_claim(len: usize, remaining: usize) -> Result<(), CompressError> {
    if len == 0 {
        return Err(CompressError::MalformedStream { reason: "zero-length plateau segment" });
    }
    if len > remaining {
        return Err(CompressError::MalformedStream {
            reason: "plateau segment claims more samples than the waveform",
        });
    }
    if len > MAX_PLATEAU_RUN {
        return Err(CompressError::MalformedStream {
            reason: "plateau segment exceeds the maximum representable run",
        });
    }
    Ok(())
}

/// Compresses flat-top waveforms with the adaptive scheme.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveCompressor {
    inner: Compressor,
    /// Minimum plateau length (in samples) worth bypassing.
    min_plateau: usize,
}

impl AdaptiveCompressor {
    /// Creates an adaptive compressor around a windowed variant.
    ///
    /// # Panics
    ///
    /// Panics if the variant is not windowed (adaptive mode segments the
    /// waveform at window granularity).
    pub fn new(variant: Variant) -> Self {
        assert!(
            variant.window_size().is_some(),
            "adaptive compression requires a windowed variant"
        );
        AdaptiveCompressor { inner: Compressor::new(variant), min_plateau: 64 }
    }

    /// Sets the minimum plateau length worth bypassing.
    pub fn with_min_plateau(mut self, samples: usize) -> Self {
        self.min_plateau = samples;
        self
    }

    /// Sets the ramp-segment threshold.
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.inner = self.inner.with_threshold(threshold);
        self
    }

    /// Compresses a flat-top waveform: DCT windows for the ramps, a single
    /// repeat-run for the plateau.
    ///
    /// Allocating wrapper over [`AdaptiveCompressor::compress_with`].
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::NoPlateau`] if the waveform has no plateau
    /// of at least the configured minimum length.
    pub fn compress(&self, wf: &Waveform) -> Result<AdaptiveCompressed, CompressError> {
        self.compress_with(wf, &mut crate::engine::EncodeScratch::new())
    }

    /// Compresses a flat-top waveform, threading all ramp-segment working
    /// memory through a caller-owned scratch — bit-exact with
    /// [`AdaptiveCompressor::compress`] (which wraps this). Ramp segments
    /// are encoded straight from sample sub-slices, so no intermediate
    /// sub-waveform copies are made; only the returned segment list and
    /// its compressed streams are allocated.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::NoPlateau`] if the waveform has no plateau
    /// of at least the configured minimum length.
    pub fn compress_with(
        &self,
        wf: &Waveform,
        scratch: &mut crate::engine::EncodeScratch,
    ) -> Result<AdaptiveCompressed, CompressError> {
        let mut out = AdaptiveCompressed::empty();
        self.compress_into(wf, scratch, &mut out)?;
        Ok(out)
    }

    /// Compresses a flat-top waveform into a reused output slot — the
    /// fully buffer-reusing form that [`AdaptiveCompressor::compress_with`]
    /// wraps, bit-exact with it. Segment slots are matched in playback
    /// order: a ramp reuses the [`Segment::Windows`] stream already
    /// sitting at its index (via the windowed encoder's slot reuse),
    /// the plateau overwrites its slot in place, and stale trailing
    /// segments are
    /// truncated. Re-encoding waveforms of a stable segment layout
    /// (e.g. a calibration loop re-fitting the same flat-top pulses)
    /// therefore allocates nothing once `out` and `scratch` are warm.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::NoPlateau`] if the waveform has no plateau
    /// of at least the configured minimum length (in which case `out` is
    /// left untouched). On mid-encode errors `out` holds a valid but
    /// unspecified mixture of old and new segments.
    pub fn compress_into(
        &self,
        wf: &Waveform,
        scratch: &mut crate::engine::EncodeScratch,
        out: &mut AdaptiveCompressed,
    ) -> Result<(), CompressError> {
        let ws = self.inner.variant().window_size().expect("validated in new()");
        let (start, len) = wf.flat_top_plateau(self.min_plateau).ok_or(CompressError::NoPlateau)?;
        // Align the plateau cut points to window boundaries so the ramp
        // segments are whole windows (the algorithm "treats the constant
        // period as a single window").
        let head_end = start.next_multiple_of(ws).min(wf.len());
        let plateau_end = ((start + len) / ws) * ws;
        if plateau_end <= head_end {
            return Err(CompressError::NoPlateau);
        }
        out.name.clear();
        out.name.push_str(wf.name());
        out.n_samples = wf.len();
        out.sample_rate_gs = wf.sample_rate_gs();
        out.variant = self.inner.variant();
        let mut idx = 0;
        if head_end > 0 {
            let z = windows_slot(&mut out.segments, idx);
            self.inner.compress_slices_into(
                "head",
                &wf.i()[..head_end],
                &wf.q()[..head_end],
                wf.sample_rate_gs(),
                scratch,
                z,
            )?;
            idx += 1;
        }
        let plateau = Segment::Constant {
            i_value: Q15::from_f64(wf.i()[head_end]),
            q_value: Q15::from_f64(wf.q()[head_end]),
            len: plateau_end - head_end,
        };
        if let Some(slot) = out.segments.get_mut(idx) {
            *slot = plateau;
        } else {
            out.segments.push(plateau);
        }
        idx += 1;
        if plateau_end < wf.len() {
            let z = windows_slot(&mut out.segments, idx);
            self.inner.compress_slices_into(
                "tail",
                &wf.i()[plateau_end..],
                &wf.q()[plateau_end..],
                wf.sample_rate_gs(),
                scratch,
                z,
            )?;
            idx += 1;
        }
        out.segments.truncate(idx);
        Ok(())
    }
}

/// Returns the [`Segment::Windows`] stream at `idx`, converting or
/// growing the slot as needed so an existing compressed stream's buffers
/// are reused whenever the segment layout is stable across fills.
fn windows_slot(segments: &mut Vec<Segment>, idx: usize) -> &mut CompressedWaveform {
    if idx >= segments.len() {
        segments.push(Segment::Windows(CompressedWaveform::empty()));
    } else if !matches!(segments[idx], Segment::Windows(_)) {
        segments[idx] = Segment::Windows(CompressedWaveform::empty());
    }
    match &mut segments[idx] {
        Segment::Windows(z) => z,
        Segment::Constant { .. } => unreachable!("slot converted to Windows above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compaqt_pulse::shapes::{GaussianSquare, PulseShape};

    fn flat_top() -> Waveform {
        // 100 ns flat-top at 4.54 GS/s (the Figure 19 experiment).
        GaussianSquare::new(454, 0.35, 12.0, 360).to_waveform("flat", 4.54)
    }

    #[test]
    fn adaptive_round_trip_is_accurate() {
        let wf = flat_top();
        let z = AdaptiveCompressor::new(Variant::IntDctW { ws: 16 }).compress(&wf).unwrap();
        let (restored, _) = z.decompress().unwrap();
        assert!(wf.mse(&restored) < 1e-4, "mse {:e}", wf.mse(&restored));
    }

    #[test]
    fn most_samples_bypass_the_idct() {
        let wf = flat_top();
        let z = AdaptiveCompressor::new(Variant::IntDctW { ws: 16 }).compress(&wf).unwrap();
        assert!(z.bypass_fraction() > 0.6, "bypass {}", z.bypass_fraction());
        let (_, stats) = z.decompress().unwrap();
        assert!(stats.bypassed_samples > stats.output_samples / 2);
    }

    #[test]
    fn adaptive_compresses_better_than_plain() {
        let wf = flat_top();
        let plain = Compressor::new(Variant::IntDctW { ws: 16 }).compress(&wf).unwrap();
        let adaptive = AdaptiveCompressor::new(Variant::IntDctW { ws: 16 }).compress(&wf).unwrap();
        assert!(
            adaptive.ratio().ratio() > plain.ratio().ratio(),
            "adaptive {} vs plain {}",
            adaptive.ratio(),
            plain.ratio()
        );
    }

    #[test]
    fn gaussian_has_no_plateau() {
        let wf = compaqt_pulse::shapes::Gaussian::new(160, 0.5, 40.0).to_waveform("G", 4.54);
        let err = AdaptiveCompressor::new(Variant::IntDctW { ws: 16 }).compress(&wf).unwrap_err();
        assert_eq!(err, CompressError::NoPlateau);
    }

    #[test]
    fn compress_into_reused_slot_matches_allocating_path() {
        let wf = flat_top();
        let zc = AdaptiveCompressor::new(Variant::IntDctW { ws: 16 });
        let fresh = zc.compress(&wf).unwrap();
        let mut scratch = crate::engine::EncodeScratch::new();
        let mut slot = AdaptiveCompressed::empty();
        // Dirty the slot with a different layout first, then refill: the
        // stale trailing segments must be truncated and the result must be
        // identical to the allocating path.
        let small = AdaptiveCompressor::new(Variant::IntDctW { ws: 8 });
        small.compress_into(&wf, &mut scratch, &mut slot).unwrap();
        for _ in 0..3 {
            zc.compress_into(&wf, &mut scratch, &mut slot).unwrap();
            assert_eq!(fresh, slot);
        }
    }

    #[test]
    fn compress_into_leaves_slot_untouched_on_no_plateau() {
        let wf = flat_top();
        let zc = AdaptiveCompressor::new(Variant::IntDctW { ws: 16 });
        let mut scratch = crate::engine::EncodeScratch::new();
        let mut slot = AdaptiveCompressed::empty();
        zc.compress_into(&wf, &mut scratch, &mut slot).unwrap();
        let before = slot.clone();
        let gauss = compaqt_pulse::shapes::Gaussian::new(160, 0.5, 40.0).to_waveform("G", 4.54);
        let err = zc.compress_into(&gauss, &mut scratch, &mut slot).unwrap_err();
        assert_eq!(err, CompressError::NoPlateau);
        assert_eq!(before, slot);
    }

    #[test]
    fn decompress_with_rejects_mismatched_engine() {
        let wf = flat_top();
        let z = AdaptiveCompressor::new(Variant::IntDctW { ws: 8 }).compress(&wf).unwrap();
        let wrong = DecompressionEngine::for_variant(Variant::DctW { ws: 8 }).unwrap();
        let mut scratch = DecodeScratch::new();
        let (mut i, mut q) = (Vec::new(), Vec::new());
        let err = z.decompress_with(&wrong, &mut scratch, &mut i, &mut q).unwrap_err();
        assert!(matches!(err, CompressError::EngineMismatch { .. }), "got {err}");
    }

    #[test]
    fn plateau_words_are_two() {
        let wf = flat_top();
        let z = AdaptiveCompressor::new(Variant::IntDctW { ws: 16 }).compress(&wf).unwrap();
        // One literal + one repeat codeword for a sub-16k plateau.
        assert_eq!(z.plateau_words().len(), 2);
    }

    #[test]
    #[should_panic(expected = "windowed")]
    fn non_windowed_variant_rejected() {
        AdaptiveCompressor::new(Variant::DctN);
    }

    #[test]
    fn segments_cover_all_samples() {
        let wf = flat_top();
        let z = AdaptiveCompressor::new(Variant::IntDctW { ws: 8 }).compress(&wf).unwrap();
        let total: usize = z
            .segments
            .iter()
            .map(|s| match s {
                Segment::Windows(w) => w.n_samples,
                Segment::Constant { len, .. } => *len,
            })
            .sum();
        assert_eq!(total, wf.len());
    }
}
