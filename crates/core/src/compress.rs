//! The COMPAQT compiler module: compile-time waveform compression.
//!
//! Four variants are implemented, matching Table II plus the delta
//! baseline of Section IV-B:
//!
//! | variant | transform | hardware complexity |
//! |---|---|---|
//! | `Delta` | sample differences | trivial, but poor on zero crossings |
//! | `DCT-N` | one DCT over the whole waveform | high (N varies, N can be 1000+) |
//! | `DCT-W` | windowed float DCT (WS=8/16) | moderate (11/26 multipliers) |
//! | `int-DCT-W` | windowed HEVC integer DCT | low (shift-add only) |
//!
//! # The window/threshold encode model
//!
//! The pipeline per channel is: transform each window -> zero coefficients
//! below a threshold -> run-length encode the trailing zeros (Figure 8).
//! Per the paper, I and Q keep the same number of stored words per window
//! so the hardware decoder stays simple. Everything lossy happens in the
//! threshold (and, for the integer variants, coefficient rounding): a
//! smaller threshold keeps more coefficients per window, trading
//! compression ratio for reconstruction MSE. The optional window-word cap
//! ([`Compressor::with_max_window_words`]) additionally zeroes
//! coefficients past a fixed per-window budget so the banked memory can
//! be sized for a uniform worst case (Section V-A).
//!
//! For `int-DCT-W` the encoder does only the work that varies between
//! windows. Most windows of a real pulse library are constant once
//! staged to Q1.15 (all zero, or one flat-top value): 83-84% of the
//! WS=16 windows of the `hex-433` and `surface-d5` fleet libraries. Each
//! window is classified once, as it is staged. Row 0 of the transform
//! is the constant 64 and every other row sums to zero, so a constant
//! window `x` is DC-only: the encoder writes its one coefficient,
//! `(64 * ws * x + rnd) >> forward_shift`, thresholded and
//! store-quantized, and nothing else. Only the varying windows go
//! through the batched butterfly
//! ([`compaqt_dsp::batched::BatchedIntDctPlan::forward_batched_into`])
//! and the fused threshold + store-quantize pass. I/Q equalization
//! reads the class too: a constant window keeps 0 or 1 words without a
//! trailing-zero scan. The stored words are bit-identical to the
//! per-window matrix oracle's.
//!
//! # When each variant wins
//!
//! * **`int-DCT-W`** is the paper's design point: decompression hardware
//!   needs no multipliers, so it wins whenever the stream will be decoded
//!   by the modelled engine — use WS=16 by default, WS=8 only when the
//!   decoder's input buffer must be minimal (and see [`crate::overlap`]
//!   for its boundary-distortion fix).
//! * **`DCT-W`** is the float reference for the same window structure:
//!   marginally better MSE at the same threshold, but each hardware
//!   multiply is a real multiplier (Table IV) — use it to isolate how
//!   much fidelity the integer approximation costs.
//! * **`DCT-N`** achieves the highest ratios on long smooth waveforms
//!   (one giant window, one RLE tail) but its decoder must buffer and
//!   transform the whole waveform, and its plan depends on the waveform
//!   length — the keyed plan cache in
//!   [`EncodeScratch`]/[`crate::engine::DecodeScratch`] exists for
//!   mixed-length `DCT-N` libraries. Use it for capacity studies, not
//!   for the streaming engine.
//! * **`Delta`** is the Section IV-B baseline: cheap, lossless up to
//!   Q1.15, but defeated by any zero crossing (raw fallback). It wins
//!   only on monotone envelopes — in practice it exists to be compared
//!   against.
//!
//! # Allocating vs `_into`
//!
//! Like the decode side, every encoder has two bit-exact forms: the
//! allocating [`Compressor::compress`] (fresh buffers per call, the
//! historical API) and [`Compressor::compress_into`], which threads all
//! working memory through a caller-owned
//! [`EncodeScratch`] and rebuilds a reusable output
//! stream in place. Steady-state recompression of a warm library
//! performs zero heap allocations (see `tests/alloc_regression.rs`).

use crate::engine::{DecompressionEngine, EncodeScratch};
use crate::CompressError;
use compaqt_dsp::batched::BatchedIntDctPlan;
use compaqt_dsp::fixed::Q15;
use compaqt_dsp::metrics::CompressionRatio;
use compaqt_dsp::rle::{CodedWord, RleCodeword, MAX_COEFF, MIN_COEFF};
use compaqt_dsp::threshold::ThresholdSchedule;
use compaqt_pulse::waveform::Waveform;

/// Bytes per stored word (all streams use 16-bit words).
pub const WORD_BYTES: usize = 2;

/// Bytes per uncompressed packed I+Q sample (two 16-bit channels).
pub const SAMPLE_BYTES: usize = 4;

/// A compression variant (Table II plus the delta baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Base-delta compression of raw samples.
    Delta,
    /// Full-length DCT (window = entire waveform).
    DctN,
    /// Windowed floating-point DCT.
    DctW {
        /// Window size (4, 8, 16, 32 or 64).
        ws: usize,
    },
    /// Windowed HEVC-style integer DCT (the COMPAQT design point).
    IntDctW {
        /// Window size (4, 8, 16, 32 or 64).
        ws: usize,
    },
}

impl Variant {
    /// Short display name matching the paper's figures.
    pub fn label(&self) -> String {
        match self {
            Variant::Delta => "Delta".to_string(),
            Variant::DctN => "DCT-N".to_string(),
            Variant::DctW { ws } => format!("DCT-W (WS={ws})"),
            Variant::IntDctW { ws } => format!("int-DCT-W (WS={ws})"),
        }
    }

    /// The transform window size, if the variant is windowed.
    pub fn window_size(&self) -> Option<usize> {
        match self {
            Variant::DctW { ws } | Variant::IntDctW { ws } => Some(*ws),
            _ => None,
        }
    }

    fn validate(&self) -> Result<(), CompressError> {
        if let Some(ws) = self.window_size() {
            if !compaqt_dsp::intdct::SUPPORTED_SIZES.contains(&ws) {
                return Err(CompressError::UnsupportedWindow(ws));
            }
        }
        Ok(())
    }
}

/// Fixed-point scale (in bits) used to store *float* DCT coefficients in
/// 15-bit words: the largest scale such that the worst-case coefficient
/// magnitude `sqrt(n)` (a full-scale DC window) still fits.
pub(crate) fn float_coeff_scale_bits(n: usize) -> u32 {
    ((f64::from(MAX_COEFF) / (n as f64).sqrt()).log2().floor() as u32).min(14)
}

/// Extra right-shift applied to integer-DCT coefficients before storage so
/// a full-scale DC window fits the 15-bit word (the tag bit of the RLE
/// format costs one bit, the DC headroom another).
pub(crate) const INT_STORE_SHIFT: u32 = 2;

/// Rounding right-shift by [`INT_STORE_SHIFT`].
pub(crate) fn int_store_quantize(c: i32) -> i32 {
    (c + (1 << (INT_STORE_SHIFT - 1))) >> INT_STORE_SHIFT
}

/// Integer threshold equivalent to an orthonormal-domain `threshold` for
/// the int-DCT's native coefficient scale `2^(15 - log2(ws)/2)`.
pub(crate) fn int_threshold(threshold: f64, ws: usize) -> i32 {
    let scale = 2f64.powf(15.0 - (ws as f64).log2() / 2.0);
    (threshold * scale).round().max(1.0) as i32
}

/// One compressed channel (I or Q).
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelData {
    /// Windowed coded streams: one word list per transform window.
    Windows(Vec<Vec<CodedWord>>),
    /// Base + reduced-width deltas.
    Delta {
        /// First sample at full width.
        base: i16,
        /// Bit width of each stored delta (including sign).
        bits: u32,
        /// Deltas between consecutive samples, each within `bits` bits.
        deltas: Vec<i16>,
    },
    /// Uncompressed Q1.15 samples (delta fallback for zero-crossing
    /// waveforms).
    Raw(Vec<i16>),
}

impl ChannelData {
    /// Storage footprint in bits (saturating, so hostile `Delta` headers
    /// with absurd bit widths cannot overflow the accounting).
    pub fn size_bits(&self) -> usize {
        match self {
            ChannelData::Windows(windows) => windows.iter().map(|w| w.len() * 16).sum(),
            ChannelData::Delta { bits, deltas, .. } => {
                deltas.len().saturating_mul(*bits as usize).saturating_add(16 + 8)
            }
            ChannelData::Raw(samples) => samples.len() * 16,
        }
    }

    /// Number of 16-bit memory words occupied (delta bytes round up).
    pub fn words(&self) -> usize {
        self.size_bits().div_ceil(16)
    }

    /// Word counts per window (empty for non-windowed channels).
    pub fn window_word_counts(&self) -> Vec<usize> {
        match self {
            ChannelData::Windows(windows) => windows.iter().map(Vec::len).collect(),
            _ => Vec::new(),
        }
    }
}

/// A compressed waveform: both channels plus enough metadata to
/// reconstruct and to account storage.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedWaveform {
    /// Waveform name (copied from the source).
    pub name: String,
    /// The variant that produced this stream.
    pub variant: Variant,
    /// Original sample count per channel.
    pub n_samples: usize,
    /// DAC sampling rate in GS/s.
    pub sample_rate_gs: f64,
    /// Compressed I channel.
    pub i: ChannelData,
    /// Compressed Q channel.
    pub q: ChannelData,
}

impl CompressedWaveform {
    /// An empty placeholder stream, intended as the reusable output slot
    /// of [`Compressor::compress_into`] (which overwrites every field).
    /// The placeholder itself is not a valid stream — decompressing it is
    /// meaningless until a compressor has filled it.
    pub fn empty() -> Self {
        CompressedWaveform {
            name: String::new(),
            variant: Variant::Delta,
            n_samples: 0,
            sample_rate_gs: 0.0,
            i: ChannelData::Raw(Vec::new()),
            q: ChannelData::Raw(Vec::new()),
        }
    }

    /// Compression ratio `R = old size / new size` (Figure 7's metric).
    /// Saturating, so hostile sample-count claims cannot overflow it.
    pub fn ratio(&self) -> CompressionRatio {
        let old = self.n_samples.saturating_mul(SAMPLE_BYTES);
        let new = (self.i.size_bits().saturating_add(self.q.size_bits())).div_ceil(8);
        CompressionRatio::new(old, new.max(1))
    }

    /// Total stored 16-bit words across both channels.
    pub fn words(&self) -> usize {
        self.i.words() + self.q.words()
    }

    /// The worst-case number of stored words in any window (both
    /// channels) — what sizes the uniform-width compressed memory
    /// (Section V-A) and the Figure 11 histogram.
    pub fn worst_case_window_words(&self) -> usize {
        self.i
            .window_word_counts()
            .into_iter()
            .chain(self.q.window_word_counts())
            .max()
            .unwrap_or(0)
    }

    /// Decompresses through the bit-exact hardware-engine model.
    ///
    /// # Errors
    ///
    /// Returns an error if a run-length stream is malformed (cannot happen
    /// for streams produced by [`Compressor::compress`]).
    pub fn decompress(&self) -> Result<Waveform, CompressError> {
        let (wf, _) = DecompressionEngine::shared(self.variant)?.decompress(self)?;
        Ok(wf)
    }
}

/// The compile-time compressor.
///
/// # Example
///
/// ```
/// use compaqt_core::compress::{Compressor, Variant};
/// use compaqt_pulse::shapes::{GaussianSquare, PulseShape};
///
/// // A 300 ns cross-resonance flat-top at 4.54 GS/s.
/// let cr = GaussianSquare::new(1362, 0.3, 40.0, 1000).to_waveform("CX(q0,q1)", 4.54);
/// let z = Compressor::new(Variant::IntDctW { ws: 16 }).compress(&cr)?;
/// assert!(z.ratio().ratio() > 5.0, "flat-tops compress well: {}", z.ratio());
/// # Ok::<(), compaqt_core::CompressError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Compressor {
    variant: Variant,
    threshold: f64,
    max_window_words: Option<usize>,
}

/// Default coefficient threshold (orthonormal domain). Chosen so the
/// reconstruction MSE lands in the paper's 1e-6..1e-5 band (Figure 7c)
/// while keeping 5x-class compression and a worst-case window of ~3
/// stored words (Figure 11).
pub const DEFAULT_THRESHOLD: f64 = 0.025;

impl Compressor {
    /// Creates a compressor with the default threshold.
    pub fn new(variant: Variant) -> Self {
        Compressor { variant, threshold: DEFAULT_THRESHOLD, max_window_words: None }
    }

    /// Sets the coefficient threshold (orthonormal-coefficient domain).
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.threshold = threshold;
        self
    }

    /// Caps the stored words per window to `cap`, zeroing higher-order
    /// coefficients in windows that exceed it.
    ///
    /// This is the uniform input-buffer constraint of Section V-A: the
    /// banked memory and decompression pipeline are sized for a fixed
    /// worst case (3 words in the paper), "sacrificing compressibility to
    /// enable a significant performance boost". The extra distortion this
    /// introduces is part of the measured MSE.
    ///
    /// # Panics
    ///
    /// Panics if `cap < 2` (a window needs at least one coefficient and
    /// the run-length codeword).
    pub fn with_max_window_words(mut self, cap: usize) -> Self {
        assert!(cap >= 2, "window cap must allow a coefficient plus a codeword");
        self.max_window_words = Some(cap);
        self
    }

    /// The variant this compressor implements.
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// The active threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Compresses a waveform.
    ///
    /// Allocating wrapper over [`Compressor::compress_into`] (fresh
    /// scratch, fresh output), kept for convenience and as the baseline
    /// the `codec_throughput` bench measures the reuse path against.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::UnsupportedWindow`] for window sizes the
    /// integer transform does not support.
    pub fn compress(&self, wf: &Waveform) -> Result<CompressedWaveform, CompressError> {
        let mut scratch = EncodeScratch::new();
        let mut out = CompressedWaveform::empty();
        self.compress_into(wf, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Compresses a waveform into a caller-owned output stream, threading
    /// all working memory through `scratch` — the encode twin of
    /// [`crate::engine::DecompressionEngine::decompress_into`], bit-exact
    /// with [`Compressor::compress`].
    ///
    /// Every field of `out` is overwritten; its existing heap buffers
    /// (name, window word lists, delta/raw vectors) are reused in place.
    /// Once a scratch and an output slot have been warmed by one pass
    /// over a waveform, recompressing the same shape performs **zero
    /// heap allocations** (the `alloc_regression` integration test
    /// enforces this across a whole pulse library).
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::UnsupportedWindow`] for window sizes the
    /// integer transform does not support.
    pub fn compress_into(
        &self,
        wf: &Waveform,
        scratch: &mut EncodeScratch,
        out: &mut CompressedWaveform,
    ) -> Result<(), CompressError> {
        self.compress_slices_into(wf.name(), wf.i(), wf.q(), wf.sample_rate_gs(), scratch, out)
    }

    /// Slice-level core of [`Compressor::compress_into`]: lets segment
    /// compressors (the adaptive encoder) compress sub-ranges without
    /// materializing intermediate [`Waveform`]s.
    pub(crate) fn compress_slices_into(
        &self,
        name: &str,
        i: &[f64],
        q: &[f64],
        sample_rate_gs: f64,
        scratch: &mut EncodeScratch,
        out: &mut CompressedWaveform,
    ) -> Result<(), CompressError> {
        self.variant.validate()?;
        debug_assert_eq!(i.len(), q.len(), "I and Q channels must have equal length");
        out.name.clear();
        out.name.push_str(name);
        out.variant = self.variant;
        out.n_samples = i.len();
        out.sample_rate_gs = sample_rate_gs;
        if self.variant == Variant::Delta {
            delta_channel_into(i, &mut scratch.qsamples, &mut out.i);
            delta_channel_into(q, &mut scratch.qsamples, &mut out.q);
            return Ok(());
        }
        // Transform variants: encode each channel to quantized coefficient
        // windows, then I/Q-equalize and run-length encode.
        let window = self.variant.window_size().unwrap_or(i.len());
        let mut i_coeffs = std::mem::take(&mut scratch.i_coeffs);
        let mut q_coeffs = std::mem::take(&mut scratch.q_coeffs);
        let mut i_const = std::mem::take(&mut scratch.i_const);
        let mut q_const = std::mem::take(&mut scratch.q_const);
        let result = self
            .encode_classified_into(i, scratch, &mut i_coeffs, &mut i_const)
            .and_then(|()| self.encode_classified_into(q, scratch, &mut q_coeffs, &mut q_const));
        if result.is_ok() {
            equalize_into(
                [&i_coeffs, &q_coeffs],
                [&i_const, &q_const],
                window,
                self.max_window_words,
                &mut out.i,
                &mut out.q,
                &mut scratch.spare_windows,
            );
        }
        scratch.i_coeffs = i_coeffs;
        scratch.q_coeffs = q_coeffs;
        scratch.i_const = i_const;
        scratch.q_const = q_const;
        result
    }

    /// Transforms, thresholds and quantizes one channel into flat
    /// `coeffs` — one window-sized chunk per transform window (a single
    /// full-length chunk for `DCT-N`). This is the per-channel front half
    /// of [`Compressor::compress_into`]; the back half
    /// (I/Q equalization + run-length encoding) needs both channels.
    ///
    /// `coeffs` is cleared and refilled; all staging and the cached
    /// transform plans live in `scratch`.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::UnsupportedWindow`] for window sizes the
    /// integer transform does not support.
    ///
    /// # Panics
    ///
    /// Panics for [`Variant::Delta`], which stores sample differences and
    /// has no coefficient windows (use [`Compressor::compress_into`]).
    pub fn encode_channel_into(
        &self,
        samples: &[f64],
        scratch: &mut EncodeScratch,
        coeffs: &mut Vec<i32>,
    ) -> Result<(), CompressError> {
        let mut constant = std::mem::take(&mut scratch.i_const);
        let result = self.encode_classified_into(samples, scratch, coeffs, &mut constant);
        scratch.i_const = constant;
        result
    }

    /// [`Compressor::encode_channel_into`], also returning one flag per
    /// window in `constant`: whether the window was constant in Q1.15,
    /// and so holds at most its DC coefficient. Only `int-DCT-W`
    /// classifies; the other variants leave `constant` empty.
    fn encode_classified_into(
        &self,
        samples: &[f64],
        scratch: &mut EncodeScratch,
        coeffs: &mut Vec<i32>,
        constant: &mut Vec<bool>,
    ) -> Result<(), CompressError> {
        self.variant.validate()?;
        coeffs.clear();
        constant.clear();
        match self.variant {
            Variant::Delta => {
                panic!("Delta channels carry sample deltas, not coefficient windows")
            }
            Variant::DctN => float_full_into(samples, self.threshold, scratch, coeffs),
            Variant::DctW { ws } => {
                float_windows_into(samples, ws, self.threshold, scratch, coeffs)?;
            }
            Variant::IntDctW { ws } => {
                let thr = int_threshold(self.threshold, ws);
                int_windows_into(samples, ws, thr, scratch, coeffs, constant)?;
            }
        }
        Ok(())
    }

    /// Fidelity-aware compression (Algorithm 1): halve the threshold until
    /// the reconstruction MSE meets `target_mse`, failing below the 1e-6
    /// threshold floor.
    ///
    /// Returns the compressed waveform and the threshold that met the
    /// target.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::TargetUnreachable`] if no threshold above
    /// the floor meets the target.
    pub fn compress_with_target(
        &self,
        wf: &Waveform,
        target_mse: f64,
    ) -> Result<(CompressedWaveform, f64), CompressError> {
        for threshold in ThresholdSchedule::new(self.threshold) {
            let candidate = self.with_threshold(threshold).compress(wf)?;
            let restored = candidate.decompress()?;
            if wf.mse(&restored) <= target_mse {
                return Ok((candidate, threshold));
            }
        }
        Err(CompressError::TargetUnreachable { target_mse })
    }
}

/// Reshapes a channel slot into `Windows` with exactly `n_windows` empty
/// word lists, reusing every inner `Vec`'s capacity. Word lists trimmed
/// when the slot shrinks are parked in `spare` (and pulled back when it
/// grows again), so a single output slot reused across waveforms of
/// different window counts keeps all its capacity. Growth beyond
/// everything previously seen allocates; steady-state reuse does not.
pub(crate) fn windows_buf<'a>(
    ch: &'a mut ChannelData,
    n_windows: usize,
    spare: &mut Vec<Vec<CodedWord>>,
) -> &'a mut Vec<Vec<CodedWord>> {
    if !matches!(ch, ChannelData::Windows(_)) {
        *ch = ChannelData::Windows(Vec::new());
    }
    let ChannelData::Windows(windows) = ch else { unreachable!("just normalized to Windows") };
    while windows.len() > n_windows {
        spare.push(windows.pop().expect("len checked"));
    }
    while windows.len() < n_windows {
        windows.push(spare.pop().unwrap_or_default());
    }
    for w in windows.iter_mut() {
        w.clear();
    }
    windows
}

/// Reshapes a channel slot into `Raw`, returning its cleared sample
/// buffer for refilling.
fn raw_buf(ch: &mut ChannelData) -> &mut Vec<i16> {
    if !matches!(ch, ChannelData::Raw(_)) {
        *ch = ChannelData::Raw(Vec::new());
    }
    let ChannelData::Raw(samples) = ch else { unreachable!("just normalized to Raw") };
    samples.clear();
    samples
}

/// Reshapes a channel slot into `Delta`, setting the header fields and
/// returning its cleared delta buffer for refilling.
fn delta_buf(ch: &mut ChannelData, base: i16, bits: u32) -> &mut Vec<i16> {
    if !matches!(ch, ChannelData::Delta { .. }) {
        *ch = ChannelData::Delta { base, bits, deltas: Vec::new() };
    }
    let ChannelData::Delta { base: b, bits: w, deltas } = ch else {
        unreachable!("just normalized to Delta")
    };
    *b = base;
    *w = bits;
    deltas.clear();
    deltas
}

/// Full-length (`DCT-N`) transform of one channel through the scratch's
/// keyed plan cache, appending one quantized full-length window to
/// `coeffs`.
fn float_full_into(
    samples: &[f64],
    threshold: f64,
    scratch: &mut EncodeScratch,
    out: &mut Vec<i32>,
) {
    let n = samples.len();
    let scale = f64::from(1u32 << float_coeff_scale_bits(n));
    scratch.fcoeffs.resize(n, 0.0);
    scratch.plans.plan(n).forward_into(samples, &mut scratch.fcoeffs);
    compaqt_dsp::threshold::apply_threshold(&mut scratch.fcoeffs, threshold);
    out.extend(
        scratch.fcoeffs.iter().map(|&c| ((c * scale).round() as i32).clamp(MIN_COEFF, MAX_COEFF)),
    );
}

/// Windowed float transform of one channel, appending one quantized
/// `ws`-chunk per window to `coeffs`. The tail window is zero-padded,
/// matching [`compaqt_dsp::window::split`] with [`PadMode::Zero`].
///
/// The channel is staged flat, zero-padded tail included, and each
/// window runs [`compaqt_dsp::dct::Dct::forward_into`]; thresholding and
/// quantization are elementwise, so they run over the flat coefficient
/// buffer. (Staging one window at a time through
/// [`EncodeScratch::float_buffers`] costs three resizes and an extend
/// per window, which dominate at small window sizes.) The transform is the shared decode engine's for this
/// variant, so encode and decode hold one basis per window size.
///
/// # Errors
///
/// Returns [`CompressError::UnsupportedWindow`] for window sizes the
/// float windowed codec does not support.
///
/// [`PadMode::Zero`]: compaqt_dsp::window::PadMode::Zero
fn float_windows_into(
    samples: &[f64],
    ws: usize,
    threshold: f64,
    scratch: &mut EncodeScratch,
    out: &mut Vec<i32>,
) -> Result<(), CompressError> {
    let dct = DecompressionEngine::shared(Variant::DctW { ws })?
        .float_dct()
        .expect("a DCT-W engine has a float stage");
    let scale = f64::from(1u32 << float_coeff_scale_bits(ws));
    let padded = samples.len().div_ceil(ws) * ws;
    let (stage, fcoeffs) = (&mut scratch.window, &mut scratch.fcoeffs);
    stage.clear();
    stage.extend_from_slice(samples);
    stage.resize(padded, 0.0);
    fcoeffs.resize(padded, 0.0);
    let fcoeffs = &mut fcoeffs[..padded];
    for (x, y) in stage.chunks_exact(ws).zip(fcoeffs.chunks_exact_mut(ws)) {
        dct.forward_into(x, y);
    }
    compaqt_dsp::threshold::apply_threshold(fcoeffs, threshold);
    out.extend(fcoeffs.iter().map(|&c| ((c * scale).round() as i32).clamp(MIN_COEFF, MAX_COEFF)));
    Ok(())
}

/// Windowed integer transform of one channel, appending one quantized
/// `ws`-chunk per window to `coeffs` and one class flag per window to
/// `constant`.
///
/// The whole channel is staged as flat Q1.15 windows (through the
/// dispatched [`compaqt_dsp::fixed::quantize_into`]). Each staged window
/// is then classified once: a constant window gets its DC word in closed
/// form, and only the varying windows are transformed, by one batched
/// forward call ([`compaqt_dsp::batched::BatchedIntDctPlan`]: the AVX2
/// SoA butterfly, or the per-window kernel on the scalar tier),
/// bit-identical to the per-window
/// [`compaqt_dsp::intdct::IntDct::forward_into`].
fn int_windows_into(
    samples: &[f64],
    ws: usize,
    thr: i32,
    scratch: &mut EncodeScratch,
    coeffs: &mut Vec<i32>,
    constant: &mut Vec<bool>,
) -> Result<(), CompressError> {
    // Take the staging buffers so the cached batched plan can stay
    // borrowed across the transform (one lookup per channel).
    let mut q_stage = std::mem::take(&mut scratch.q_stage);
    let mut varying = std::mem::take(&mut scratch.varying);
    let result = scratch.batched_int_plan(ws).map(|plan| {
        classify_and_transform(plan, samples, thr, &mut q_stage, &mut varying, coeffs, constant)
    });
    scratch.q_stage = q_stage;
    scratch.varying = varying;
    result
}

/// The body of [`int_windows_into`]. `stage` and `varying` are working
/// memory: the staged windows, then the varying ones gathered to the
/// front of `stage` and their transformed coefficients in `varying`.
fn classify_and_transform(
    plan: &mut BatchedIntDctPlan,
    samples: &[f64],
    thr: i32,
    stage: &mut Vec<Q15>,
    varying: &mut Vec<i32>,
    coeffs: &mut Vec<i32>,
    constant: &mut Vec<bool>,
) {
    let ws = plan.len();
    let padded = samples.len().div_ceil(ws) * ws;
    stage.clear();
    stage.resize(padded, Q15::ZERO);
    compaqt_dsp::fixed::quantize_into(samples, &mut stage[..samples.len()]);
    // Threshold and quantize to the 15-bit storage word (tag bit + DC
    // headroom). The threshold predicate is `apply_threshold_int`'s; a
    // zero coefficient quantizes to zero either way.
    let limit = u32::try_from(thr).unwrap_or(0);
    let store = |c: i32| {
        if c.unsigned_abs() < limit {
            0
        } else {
            int_store_quantize(c).clamp(MIN_COEFF, MAX_COEFF)
        }
    };
    // Row 0 of the transform is the constant 64 and every other row sums
    // to zero, so a constant window `x` transforms to
    // `(64 * ws * x + rnd) >> shift` at DC and zero elsewhere.
    let t = plan.transform();
    let shift = t.forward_shift();
    let dc_gain = t.row(0)[0] * i32::try_from(ws).expect("window sizes are at most 64");
    let rnd = 1i32 << (shift - 1);
    let (start, first_class) = (coeffs.len(), constant.len());
    coeffs.resize(start + padded, 0);
    let mut gathered = 0;
    for (w, out) in coeffs[start..].chunks_exact_mut(ws).enumerate() {
        let first = stage[w * ws];
        let is_constant = stage[w * ws..(w + 1) * ws].iter().all(|&s| s == first);
        constant.push(is_constant);
        if is_constant {
            let dc = (i32::from(first.raw()) * dc_gain + rnd) >> shift;
            out[0] = store(dc.clamp(i32::from(i16::MIN), i32::from(i16::MAX)));
        } else {
            stage.copy_within(w * ws..(w + 1) * ws, gathered);
            gathered += ws;
        }
    }
    varying.resize(gathered, 0);
    plan.forward_batched_into(&stage[..gathered], varying);
    let varying_out = coeffs[start..]
        .chunks_exact_mut(ws)
        .zip(&constant[first_class..])
        .filter_map(|(out, &c)| (!c).then_some(out));
    for (out, y) in varying_out.zip(varying.chunks_exact(ws)) {
        for (o, &c) in out.iter_mut().zip(y) {
            *o = store(c);
        }
    }
}

/// Applies the paper's I/Q equalization: both channels keep the same
/// number of stored words per window, then run-length encodes. A window
/// cap (the uniform-width constraint) zeroes coefficients past the cap.
/// Inputs are flat quantized coefficients, one `ws`-chunk per window,
/// with each channel's per-window constant flags (empty when the
/// variant does not classify); output word lists are rebuilt in place
/// (capacities reused).
fn equalize_into(
    [ci, cq]: [&[i32]; 2],
    [const_i, const_q]: [&[bool]; 2],
    ws: usize,
    cap: Option<usize>,
    i_ch: &mut ChannelData,
    q_ch: &mut ChannelData,
    spare: &mut Vec<Vec<CodedWord>>,
) {
    fn encode(coeffs: &[i32], keep: usize, ws: usize, words: &mut Vec<CodedWord>) {
        words.extend(coeffs[..keep].iter().map(|&c| CodedWord::Coeff(CodedWord::clamp_coeff(c))));
        let mut remaining = ws - keep;
        while remaining > 0 {
            let run = remaining.min(compaqt_dsp::rle::MAX_RUN as usize);
            words.push(CodedWord::Rle(RleCodeword { run: run as u16, repeat_previous: false }));
            remaining -= run;
        }
    }
    // A constant window holds at most its DC word: no trailing-zero scan.
    let kept = |coeffs: &[i32], constant: Option<&bool>| {
        if constant == Some(&true) {
            usize::from(coeffs[0] != 0)
        } else {
            ws - compaqt_dsp::threshold::trailing_zeros(coeffs)
        }
    };
    debug_assert_eq!(ci.len(), cq.len(), "channels must have equal window counts");
    let n_windows = ci.len() / ws;
    let i_out = windows_buf(i_ch, n_windows, spare);
    let q_out = windows_buf(q_ch, n_windows, spare);
    let windows = ci.chunks_exact(ws).zip(cq.chunks_exact(ws));
    for (w, ((wi, wq), (iw, qw))) in windows.zip(i_out.iter_mut().zip(q_out.iter_mut())).enumerate()
    {
        let mut keep = kept(wi, const_i.get(w)).max(kept(wq, const_q.get(w)));
        if let Some(cap) = cap {
            // Reserve one slot for the codeword unless the window fills.
            let max_keep = if cap >= ws { ws } else { cap - 1 };
            keep = keep.min(max_keep);
        }
        encode(wi, keep, ws, iw);
        encode(wq, keep, ws, qw);
    }
}

/// Delta-compresses one channel, or falls back to raw storage when the
/// channel has zero crossings (Section IV-B's limitation: sign changes
/// force full-width difference fields). Deltas are stored at the minimal
/// uniform bit width that holds the largest step. Q1.15 staging runs
/// through `qsamples`; the output slot's buffers are reused in place.
fn delta_channel_into(samples: &[f64], qsamples: &mut Vec<i16>, out: &mut ChannelData) {
    qsamples.clear();
    qsamples.extend(samples.iter().map(|&v| Q15::from_f64(v).raw()));
    let q = &qsamples[..];
    // Zero crossing: consecutive samples with strictly opposite signs.
    let crossing = q.windows(2).any(|w| (w[0] > 0 && w[1] < 0) || (w[0] < 0 && w[1] > 0));
    let mut max_abs: i32 = 0;
    if !crossing {
        for w in q.windows(2) {
            max_abs = max_abs.max((i32::from(w[1]) - i32::from(w[0])).abs());
        }
    }
    if crossing || max_abs > i32::from(i16::MAX) / 2 {
        // Deltas as wide as the samples: nothing gained; store raw.
        raw_buf(out).extend_from_slice(q);
        return;
    }
    // Signed width for the largest delta, at least 4 bits.
    let bits = (33 - (max_abs.max(1) as u32).leading_zeros()).max(4);
    let deltas = delta_buf(out, q[0], bits);
    deltas.extend(q.windows(2).map(|w| (i32::from(w[1]) - i32::from(w[0])) as i16));
}

#[cfg(test)]
mod tests {
    use super::*;
    use compaqt_pulse::shapes::{Drag, Gaussian, GaussianSquare, PulseShape};

    fn x_pulse() -> Waveform {
        Drag::new(136, 0.5, 34.0, 0.2).to_waveform("X(q0)", 4.54)
    }

    fn cr_pulse() -> Waveform {
        GaussianSquare::new(1362, 0.3, 40.0, 1020).to_waveform("CX(q0,q1)", 4.54)
    }

    #[test]
    fn int_dct_round_trip_is_accurate() {
        for ws in [8, 16] {
            let wf = x_pulse();
            let z = Compressor::new(Variant::IntDctW { ws }).compress(&wf).unwrap();
            let back = z.decompress().unwrap();
            let mse = wf.mse(&back);
            assert!(mse < 1e-4, "ws={ws}: mse={mse:e}");
        }
    }

    #[test]
    fn all_variants_round_trip_below_threshold_bound() {
        let wf = x_pulse();
        for variant in [
            Variant::DctN,
            Variant::DctW { ws: 8 },
            Variant::DctW { ws: 16 },
            Variant::IntDctW { ws: 8 },
            Variant::IntDctW { ws: 16 },
        ] {
            let z = Compressor::new(variant).compress(&wf).unwrap();
            let back = z.decompress().unwrap();
            let mse = wf.mse(&back);
            // Zeroed coefficients are each below the threshold, so MSE is
            // bounded by threshold^2 (plus integer rounding).
            assert!(
                mse < DEFAULT_THRESHOLD * DEFAULT_THRESHOLD + 1e-6,
                "{}: mse={mse:e}",
                variant.label()
            );
        }
    }

    #[test]
    fn delta_round_trips_exactly() {
        let wf = Gaussian::new(136, 0.5, 34.0).to_waveform("G", 4.54);
        let z = Compressor::new(Variant::Delta).compress(&wf).unwrap();
        let back = z.decompress().unwrap();
        // Delta is lossless up to Q1.15 quantization.
        assert!(wf.mse(&back) < 1e-9);
    }

    #[test]
    fn delta_compresses_monotone_channel_about_2x() {
        let wf = Gaussian::new(136, 0.5, 34.0).to_waveform("G", 4.54);
        let z = Compressor::new(Variant::Delta).compress(&wf).unwrap();
        let r = z.ratio().ratio();
        assert!((1.5..2.5).contains(&r), "got {r}");
    }

    #[test]
    fn delta_does_not_compress_zero_crossing_channel() {
        // DRAG Q channel crosses zero -> raw fallback for that channel.
        let wf = x_pulse();
        let z = Compressor::new(Variant::Delta).compress(&wf).unwrap();
        assert!(matches!(z.q, ChannelData::Raw(_)));
        assert!(matches!(z.i, ChannelData::Delta { .. }));
    }

    #[test]
    fn smooth_pulse_compresses_over_4x_with_ws16() {
        let wf = x_pulse();
        let z = Compressor::new(Variant::IntDctW { ws: 16 }).compress(&wf).unwrap();
        let r = z.ratio().ratio();
        assert!(r > 4.0, "got {r}");
    }

    #[test]
    fn flat_top_compresses_better_than_short_gaussian() {
        let c = Compressor::new(Variant::IntDctW { ws: 16 });
        let r_x = c.compress(&x_pulse()).unwrap().ratio().ratio();
        let r_cr = c.compress(&cr_pulse()).unwrap().ratio().ratio();
        assert!(r_cr > r_x, "CR {r_cr} vs X {r_x}");
    }

    #[test]
    fn dct_n_compresses_flat_top_most() {
        // Figure 7a: DCT-N achieves the highest per-waveform ratios on
        // long waveforms (one giant window, one RLE codeword).
        let wf = cr_pulse();
        let rn = Compressor::new(Variant::DctN).compress(&wf).unwrap().ratio().ratio();
        let rw = Compressor::new(Variant::DctW { ws: 16 }).compress(&wf).unwrap().ratio().ratio();
        assert!(rn > rw, "DCT-N {rn} vs DCT-W {rw}");
        assert!(rn > 20.0, "DCT-N on a flat-top should be dramatic: {rn}");
    }

    #[test]
    fn larger_windows_compress_better() {
        // Figure 7b: WS=8 has the least reduction because RLE is limited
        // to 8 samples at a time.
        let wf = cr_pulse();
        let r8 = Compressor::new(Variant::IntDctW { ws: 8 }).compress(&wf).unwrap().ratio().ratio();
        let r16 =
            Compressor::new(Variant::IntDctW { ws: 16 }).compress(&wf).unwrap().ratio().ratio();
        assert!(r16 > r8, "WS16 {r16} vs WS8 {r8}");
        assert!(r8 <= 8.0 + 0.1, "WS=8 ratio is bounded near 8x by the window");
    }

    #[test]
    fn channels_have_equal_words_per_window() {
        let wf = x_pulse();
        let z = Compressor::new(Variant::IntDctW { ws: 16 }).compress(&wf).unwrap();
        assert_eq!(z.i.window_word_counts(), z.q.window_word_counts());
    }

    #[test]
    fn worst_case_window_is_small_for_smooth_pulses() {
        // Figure 11: <= 3 words per window for int-DCT-W on real pulses.
        let z = Compressor::new(Variant::IntDctW { ws: 16 }).compress(&cr_pulse()).unwrap();
        assert!(z.worst_case_window_words() <= 5, "got {}", z.worst_case_window_words());
    }

    #[test]
    fn unsupported_window_is_rejected() {
        let err = Compressor::new(Variant::IntDctW { ws: 12 }).compress(&x_pulse()).unwrap_err();
        assert_eq!(err, CompressError::UnsupportedWindow(12));
        let err = Compressor::new(Variant::DctW { ws: 7 }).compress(&x_pulse()).unwrap_err();
        assert_eq!(err, CompressError::UnsupportedWindow(7));
    }

    #[test]
    fn lower_threshold_means_lower_mse_and_ratio() {
        let wf = x_pulse();
        let hi = Compressor::new(Variant::IntDctW { ws: 16 }).with_threshold(0.02);
        let lo = Compressor::new(Variant::IntDctW { ws: 16 }).with_threshold(0.0005);
        let z_hi = hi.compress(&wf).unwrap();
        let z_lo = lo.compress(&wf).unwrap();
        let mse_hi = wf.mse(&z_hi.decompress().unwrap());
        let mse_lo = wf.mse(&z_lo.decompress().unwrap());
        assert!(mse_lo <= mse_hi, "mse {mse_lo:e} vs {mse_hi:e}");
        assert!(z_lo.ratio().ratio() <= z_hi.ratio().ratio());
    }

    #[test]
    fn fidelity_aware_meets_target() {
        let wf = x_pulse();
        let c = Compressor::new(Variant::IntDctW { ws: 16 }).with_threshold(0.05);
        let target = 1e-6;
        let (z, used) = c.compress_with_target(&wf, target).unwrap();
        let mse = wf.mse(&z.decompress().unwrap());
        assert!(mse <= target, "mse {mse:e}");
        assert!(used <= 0.05);
    }

    #[test]
    fn fidelity_aware_fails_for_impossible_target() {
        let wf = x_pulse();
        let c = Compressor::new(Variant::IntDctW { ws: 8 });
        // int-DCT rounding alone exceeds this target.
        let err = c.compress_with_target(&wf, 1e-18).unwrap_err();
        assert!(matches!(err, CompressError::TargetUnreachable { .. }));
    }

    #[test]
    fn ratio_accounts_packed_iq_samples() {
        let wf = x_pulse();
        let z = Compressor::new(Variant::IntDctW { ws: 16 }).compress(&wf).unwrap();
        assert_eq!(z.ratio().old_size(), 136 * 4);
    }

    #[test]
    fn window_cap_bounds_worst_case() {
        let wf = x_pulse();
        let uncapped = Compressor::new(Variant::IntDctW { ws: 16 })
            .with_threshold(0.001)
            .compress(&wf)
            .unwrap();
        assert!(uncapped.worst_case_window_words() > 3);
        let capped = Compressor::new(Variant::IntDctW { ws: 16 })
            .with_threshold(0.001)
            .with_max_window_words(3)
            .compress(&wf)
            .unwrap();
        assert!(capped.worst_case_window_words() <= 3);
        // The cap is lossy but bounded: reconstruction still works.
        let mse = wf.mse(&capped.decompress().unwrap());
        assert!(mse < 1e-3, "mse {mse:e}");
    }

    #[test]
    fn window_cap_of_full_window_changes_nothing() {
        let wf = x_pulse();
        let a = Compressor::new(Variant::IntDctW { ws: 16 }).compress(&wf).unwrap();
        let b = Compressor::new(Variant::IntDctW { ws: 16 })
            .with_max_window_words(16)
            .compress(&wf)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "codeword")]
    fn window_cap_below_two_rejected() {
        Compressor::new(Variant::IntDctW { ws: 16 }).with_max_window_words(1);
    }

    /// Encodes one channel whose windows hold each of `values` in turn,
    /// and checks every window against the matrix forward followed by
    /// threshold and store-quantize.
    fn assert_constant_windows_match_oracle(values: &[i16]) {
        for ws in compaqt_dsp::intdct::SUPPORTED_SIZES {
            let mut samples = vec![0.0; values.len() * ws];
            for (window, &v) in samples.chunks_exact_mut(ws).zip(values) {
                window.fill(f64::from(v) / 32768.0);
            }
            let mut coeffs = Vec::new();
            let compressor = Compressor::new(Variant::IntDctW { ws });
            compressor
                .encode_channel_into(&samples, &mut EncodeScratch::new(), &mut coeffs)
                .unwrap();
            let t = compaqt_dsp::intdct::IntDct::new(ws).unwrap();
            let thr = int_threshold(DEFAULT_THRESHOLD, ws);
            let mut oracle = vec![0i32; ws];
            for (&v, got) in values.iter().zip(coeffs.chunks_exact(ws)) {
                t.forward_matrix_into(&vec![Q15::from_raw(v); ws], &mut oracle);
                for c in &mut oracle {
                    *c = if c.abs() < thr {
                        0
                    } else {
                        int_store_quantize(*c).clamp(MIN_COEFF, MAX_COEFF)
                    };
                }
                assert_eq!(got, &oracle[..], "ws={ws} v={v}");
            }
        }
    }

    #[test]
    fn every_constant_window_stores_the_oracle_dc_word() {
        // Exhaustive over the classifier's closed form: every i16 value at
        // every size. The O(ws^2) matrix oracle dominates, so the value
        // range is split across threads.
        let values: Vec<i16> = (i16::MIN..=i16::MAX).collect();
        std::thread::scope(|s| {
            for part in values.chunks(values.len() / 4) {
                s.spawn(move || assert_constant_windows_match_oracle(part));
            }
        });
    }

    #[test]
    fn variant_labels_match_paper() {
        assert_eq!(Variant::IntDctW { ws: 16 }.label(), "int-DCT-W (WS=16)");
        assert_eq!(Variant::DctN.label(), "DCT-N");
    }
}
