//! The hardware decompression engine model (Figure 10).
//!
//! Decompression is a two-stage pipeline: (1) the RLE decoder expands
//! codewords into the RLE buffer, then (2) the IDCT produces a full window
//! of DAC samples. For `int-DCT-W` every constant multiply is a shift-add
//! network, so the IDCT has a constant one-cycle latency (Section V-B).
//!
//! This model is bit-exact with the software compressor's expectations and
//! additionally accounts memory reads, engine invocations and cycles — the
//! numbers the bandwidth-expansion and power analyses are built on.
//!
//! # The production decoder and its reference
//!
//! A hardware engine has no allocator: its RLE buffer and sample buffer
//! are fixed SRAMs. The software model has exactly one decoder per
//! stream kind:
//!
//! * [`DecompressionEngine::decompress_into`] /
//!   [`DecompressionEngine::decode_channel_into`] thread every stage
//!   through a caller-owned [`DecodeScratch`] plus caller output `Vec`s.
//!   After the first decode warms the buffers, steady-state decoding of a
//!   whole pulse library performs **zero heap allocations per window**
//!   (the `alloc_regression` integration test enforces this). An
//!   int-DCT-W channel decodes in one pass: after the pre-pass that
//!   rejects windows claiming more samples than their words can expand
//!   to, the output is reserved once and each window is appended to it
//!   and counted in [`EngineStats`] as it is decoded. Windows stored as
//!   a constant shape (zero, DC-only, or DC-only padded by I/Q
//!   equalization; [`compaqt_dsp::sparse::constant_window_sample`]) are
//!   filled in closed form; every other integer window, sparse or
//!   dense, takes the fused RLE + sparse inverse
//!   ([`compaqt_dsp::sparse::inverse_rle_f64_into`]), whose cost scales
//!   with the stored words and which validates the window.
//! * [`DecompressionEngine::decompress`] is a convenience wrapper: a
//!   fresh scratch and fresh buffers through the same path.
//!
//! The reference these are proven against lives in test code
//! (`tests/common`): it expands each window with
//! [`RleDecoder::decode_window`] and runs the per-window matrix inverse
//! ([`IntDct::inverse_f64_into`], the float [`Dct`] or the full-length
//! [`compaqt_dsp::plan::DctPlan`]), tallying its own [`EngineStats`].
//! The round-trip and hostile-stream suites compare the two with `==` on
//! every sample, on the stats, and on every accept/reject verdict.
//!
//! The engine itself stays `&self` and `Sync`: all mutable state lives
//! in the scratch, so one engine can be shared across decoder threads
//! with one scratch per thread.
//!
//! The compile direction mirrors the same architecture: [`EncodeScratch`]
//! (defined here, consumed by [`crate::compress::Compressor::compress_into`]
//! and the overlapped/adaptive encoders) owns the compressor's working
//! memory, so a calibration cycle's recompression loop is just as
//! allocation-free as the decode loop. Both scratches share the bounded
//! keyed [`compaqt_dsp::plan::DctPlanCache`] for full-length `DCT-N`
//! plans.

use crate::compress::{ChannelData, CompressedWaveform, Variant, INT_STORE_SHIFT};
use crate::CompressError;
use compaqt_dsp::batched::BatchedIntDctPlan;
use compaqt_dsp::dct::Dct;
use compaqt_dsp::fixed::Q15;
use compaqt_dsp::intdct::{IntDct, SUPPORTED_SIZES};
use compaqt_dsp::plan::DctPlanCache;
use compaqt_dsp::rle::{CodedWord, RleDecoder, RleError};
use compaqt_dsp::sparse::{constant_window_sample, inverse_rle_f64_into};
use compaqt_pulse::waveform::Waveform;
use std::sync::OnceLock;

/// Operation counts observed while decompressing (per waveform, both
/// channels).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// 16-bit words fetched from compressed waveform memory.
    pub memory_words_read: usize,
    /// RLE codewords decoded.
    pub rle_codewords: usize,
    /// IDCT window evaluations.
    pub idct_windows: usize,
    /// Samples produced without touching the IDCT (adaptive bypass runs).
    pub bypassed_samples: usize,
    /// Total DAC samples produced.
    pub output_samples: usize,
    /// Engine cycles: one per memory word plus one per IDCT window (the
    /// unpipelined int-DCT-W engine completes a window per cycle after its
    /// inputs arrive).
    pub cycles: u64,
}

impl EngineStats {
    /// The waveform-memory bandwidth expansion factor: DAC samples
    /// delivered per memory word fetched (Figure 2b's "5x" is this
    /// number for typical pulse libraries).
    ///
    /// Returns `f64::INFINITY` when no memory reads occurred (pure bypass).
    pub fn bandwidth_expansion(&self) -> f64 {
        if self.memory_words_read == 0 {
            f64::INFINITY
        } else {
            self.output_samples as f64 / self.memory_words_read as f64
        }
    }

    /// Merges stats from another channel/segment.
    pub fn merge(&mut self, other: &EngineStats) {
        self.memory_words_read += other.memory_words_read;
        self.rle_codewords += other.rle_codewords;
        self.idct_windows += other.idct_windows;
        self.bypassed_samples += other.bypassed_samples;
        self.output_samples += other.output_samples;
        self.cycles += other.cycles;
    }

    /// Accounts one stored window of `words` words, `rle` of them
    /// run-length codewords: its words are read from memory, its
    /// codewords decoded, and one IDCT evaluated (one cycle per word
    /// plus one for the IDCT).
    fn tally_window(&mut self, words: usize, rle: usize) {
        self.memory_words_read += words;
        self.rle_codewords += rle;
        self.idct_windows += 1;
        self.cycles += words as u64 + 1;
    }
}

/// Caller-owned working memory for the zero-allocation decode path.
///
/// Models the fixed buffers of the hardware pipeline (Figure 10): the
/// RLE buffer feeding the IDCT and the dequantized-coefficient staging.
/// One scratch serves any window size and any variant — buffers grow to
/// the largest window seen and are reused thereafter. For `DCT-N` the
/// scratch caches inverse plans in a bounded keyed [`DctPlanCache`], so
/// a library mixing several waveform durations rebuilds each twiddle
/// table once instead of on every length change.
///
/// Scratches are cheap to create and intended to be per-thread: the
/// engine is shared (`&self`), the scratch is not.
///
/// # Example: decode a library through one scratch
///
/// ```
/// use compaqt_core::compress::{Compressor, Variant};
/// use compaqt_core::engine::{DecodeScratch, DecompressionEngine};
/// use compaqt_pulse::shapes::{Gaussian, PulseShape};
///
/// let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
/// let engine = DecompressionEngine::for_variant(compressor.variant())?;
/// let mut scratch = DecodeScratch::new();
/// let (mut i, mut q) = (Vec::new(), Vec::new());
/// for n in [136usize, 160, 136, 160] {
///     let wf = Gaussian::new(n, 0.5, n as f64 / 4.0).to_waveform("G", 4.54);
///     let z = compressor.compress(&wf)?;
///     // After the first pass warms the buffers, repeat decodes of the
///     // same shapes perform zero heap allocations.
///     engine.decompress_into(&z, &mut scratch, &mut i, &mut q)?;
///     assert_eq!(i.len(), n);
/// }
/// # Ok::<(), compaqt_core::CompressError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct DecodeScratch {
    /// RLE-expanded integer coefficients for the current window.
    coeffs: Vec<i32>,
    /// Dequantized float coefficients (float and `DCT-N` variants).
    fcoeffs: Vec<f64>,
    /// Windowed IDCT output staging (overlap-add decoding).
    time: Vec<f64>,
    /// Bounded `DCT-N` inverse plans, keyed by transform length.
    plans: DctPlanCache,
}

impl DecodeScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        DecodeScratch::default()
    }

    /// The cached `DCT-N` plans (keyed by transform length, bounded).
    pub fn plan_cache(&self) -> &DctPlanCache {
        &self.plans
    }

    /// Expands one float window's codewords into `coeffs` and divides
    /// them by `scale` into `fcoeffs`, both `window` long.
    fn dequantize(
        &mut self,
        words: &[CodedWord],
        window: usize,
        scale: f64,
    ) -> Result<(), RleError> {
        self.coeffs.resize(window, 0);
        RleDecoder::new().decode_window_into(words, &mut self.coeffs)?;
        self.fcoeffs.resize(window, 0.0);
        for (f, &c) in self.fcoeffs.iter_mut().zip(&self.coeffs) {
            *f = f64::from(c) / scale;
        }
        Ok(())
    }

    /// Splits out the (coeff, float-coeff, time) staging buffers at one
    /// window size — the stages of a lapped-transform decode.
    pub(crate) fn lapped_buffers(&mut self, ws: usize) -> (&mut [i32], &mut [f64], &mut [f64]) {
        self.coeffs.resize(ws, 0);
        self.fcoeffs.resize(ws, 0.0);
        self.time.resize(ws, 0.0);
        (&mut self.coeffs[..], &mut self.fcoeffs[..], &mut self.time[..])
    }
}

/// Caller-owned working memory for the zero-allocation *compress* path —
/// the encode twin of [`DecodeScratch`].
///
/// The compile side runs under the same cryogenic-controller budget it
/// decodes with: a calibration cycle recompresses every waveform of the
/// machine, and the original compressor allocated fresh `Vec`s per
/// window for sample staging, transform output and quantized
/// coefficients. This scratch owns all of that working memory instead:
///
/// * window staging for the float and integer transforms (zero-padded
///   tail windows included),
/// * per-window transform/threshold output,
/// * the flat per-channel quantized coefficient windows that I/Q
///   equalization consumes,
/// * cached transforms — a bounded keyed [`DctPlanCache`] for full-length
///   `DCT-N` forwards plus one cached [`BatchedIntDctPlan`] per
///   int-DCT-W window size (at most the five supported sizes, so no
///   eviction is needed). The float `DCT-W` encode needs no cache of its
///   own: it runs the per-window [`Dct`] of the shared decode engine for
///   its window size ([`DecompressionEngine::shared`]).
///
/// With a reused scratch and a reused output stream
/// ([`crate::compress::Compressor::compress_into`]), steady-state
/// library compression performs zero heap allocations — enforced by the
/// `alloc_regression` integration test alongside the decode guarantee.
///
/// # Example: recompress into reused buffers
///
/// ```
/// use compaqt_core::compress::{CompressedWaveform, Compressor, Variant};
/// use compaqt_core::engine::EncodeScratch;
/// use compaqt_pulse::shapes::{Drag, PulseShape};
///
/// let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
/// let wf = Drag::new(136, 0.5, 34.0, 0.2).to_waveform("X(q0)", 4.54);
/// let mut scratch = EncodeScratch::new();
/// let mut z = CompressedWaveform::empty();
/// for _ in 0..3 {
///     // First pass sizes every buffer; later passes reuse them all.
///     compressor.compress_into(&wf, &mut scratch, &mut z)?;
/// }
/// assert_eq!(z, compressor.compress(&wf)?, "paths are bit-identical");
/// # Ok::<(), compaqt_core::CompressError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct EncodeScratch {
    /// Float transform input, zero-padded tail included: a whole DCT-W
    /// channel, or one lapped frame.
    pub(crate) window: Vec<f64>,
    /// Float transform/threshold output for the staged input.
    pub(crate) fcoeffs: Vec<f64>,
    /// Integer transform/threshold output for the current window.
    pub(crate) icoeffs: Vec<i32>,
    /// Flat quantized coefficient windows for the I channel.
    pub(crate) i_coeffs: Vec<i32>,
    /// Flat quantized coefficient windows for the Q channel.
    pub(crate) q_coeffs: Vec<i32>,
    /// Q1.15 sample staging for the delta encoder.
    pub(crate) qsamples: Vec<i16>,
    /// Spare per-window word lists, parked here when a reused output
    /// slot shrinks so their capacity survives mixed-size libraries.
    pub(crate) spare_windows: Vec<Vec<CodedWord>>,
    /// Per-window constant flags of the I channel (int-DCT-W only).
    pub(crate) i_const: Vec<bool>,
    /// Per-window constant flags of the Q channel (int-DCT-W only).
    pub(crate) q_const: Vec<bool>,
    /// Flat Q1.15 staging for the integer encoder: every window of one
    /// channel, zero-padded tail included; after classification, the
    /// varying windows gathered to the front for the batched forward.
    pub(crate) q_stage: Vec<Q15>,
    /// The batched forward's coefficients for the gathered varying
    /// windows.
    pub(crate) varying: Vec<i32>,
    /// Bounded `DCT-N` forward plans, keyed by waveform length.
    pub(crate) plans: DctPlanCache,
    /// Cached batched integer forward plans, one per window size.
    pub(crate) batched_int: Vec<BatchedIntDctPlan>,
}

impl EncodeScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        EncodeScratch::default()
    }

    /// The cached `DCT-N` forward plans (keyed by length, bounded).
    pub fn plan_cache(&self) -> &DctPlanCache {
        &self.plans
    }

    /// The cached batched integer forward plan for window size `ws`.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::UnsupportedWindow`] for unsupported sizes.
    pub(crate) fn batched_int_plan(
        &mut self,
        ws: usize,
    ) -> Result<&mut BatchedIntDctPlan, CompressError> {
        if let Some(idx) = self.batched_int.iter().position(|p| p.len() == ws) {
            Ok(&mut self.batched_int[idx])
        } else {
            let plan =
                BatchedIntDctPlan::new(ws).map_err(|e| CompressError::UnsupportedWindow(e.size))?;
            self.batched_int.push(plan);
            Ok(self.batched_int.last_mut().expect("just pushed"))
        }
    }

    /// Splits out the (window, float-coeff, int-coeff) staging buffers at
    /// one window size — the stages of a windowed float encode.
    pub(crate) fn float_buffers(&mut self, ws: usize) -> (&mut [f64], &mut [f64], &mut [i32]) {
        self.window.resize(ws, 0.0);
        self.fcoeffs.resize(ws, 0.0);
        self.icoeffs.resize(ws, 0);
        (&mut self.window[..], &mut self.fcoeffs[..], &mut self.icoeffs[..])
    }
}

/// The inverse transform stage of the engine.
#[derive(Debug, Clone)]
enum InverseStage {
    /// Delta / raw channels need no transform.
    None,
    /// Float IDCT with the stored-coefficient dequantization scale.
    Float { dct: Dct, scale: f64 },
    /// Integer IDCT (shift-add hardware).
    Integer(IntDct),
}

/// Number of valid variants: Delta, DCT-N, and one DCT-W and one
/// int-DCT-W per supported window size.
pub(crate) const VARIANT_SLOTS: usize = 2 + 2 * SUPPORTED_SIZES.len();

/// The dense index of a valid variant in `0..VARIANT_SLOTS` — the one
/// variant numbering behind every per-variant table (the shared engine
/// table here, the store's per-variant decode histograms).
///
/// # Errors
///
/// Returns [`CompressError::UnsupportedWindow`] for bad window sizes.
pub(crate) fn variant_slot(variant: Variant) -> Result<usize, CompressError> {
    let size_slot = |ws: usize| {
        SUPPORTED_SIZES.iter().position(|&s| s == ws).ok_or(CompressError::UnsupportedWindow(ws))
    };
    Ok(match variant {
        Variant::Delta => 0,
        Variant::DctN => 1,
        Variant::DctW { ws } => 2 + size_slot(ws)?,
        Variant::IntDctW { ws } => 2 + SUPPORTED_SIZES.len() + size_slot(ws)?,
    })
}

/// Every valid variant, in [`variant_slot`] order.
pub(crate) fn valid_variants() -> impl Iterator<Item = Variant> {
    [Variant::Delta, Variant::DctN]
        .into_iter()
        .chain(SUPPORTED_SIZES.into_iter().map(|ws| Variant::DctW { ws }))
        .chain(SUPPORTED_SIZES.into_iter().map(|ws| Variant::IntDctW { ws }))
}

/// A modelled decompression engine for one variant.
#[derive(Debug, Clone)]
pub struct DecompressionEngine {
    variant: Variant,
    window: usize,
    stage: InverseStage,
}

impl DecompressionEngine {
    /// Builds the engine matching a compression variant.
    ///
    /// For `DCT-N` the engine is built lazily per waveform (the window is
    /// the waveform length); this constructor accepts it and defers.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::UnsupportedWindow`] for bad window sizes.
    pub fn for_variant(variant: Variant) -> Result<Self, CompressError> {
        let (window, stage) = match variant {
            Variant::Delta => (0, InverseStage::None),
            Variant::DctN => (0, InverseStage::None), // built per waveform
            Variant::DctW { ws } => {
                if !SUPPORTED_SIZES.contains(&ws) {
                    return Err(CompressError::UnsupportedWindow(ws));
                }
                let scale = f64::from(1u32 << crate::compress::float_coeff_scale_bits(ws));
                (ws, InverseStage::Float { dct: Dct::new(ws), scale })
            }
            Variant::IntDctW { ws } => {
                let t = IntDct::new(ws).map_err(|e| CompressError::UnsupportedWindow(e.size))?;
                (ws, InverseStage::Integer(t))
            }
        };
        Ok(DecompressionEngine { variant, window, stage })
    }

    /// The process-wide engine for `variant`: the one place the
    /// workspace maps a variant to the engine that decodes it. The
    /// table has a fixed slot per valid variant (Delta, DCT-N, and one
    /// DCT-W and one int-DCT-W slot per supported window size); a slot
    /// is built on first use and shared `&'static` from then on, so a
    /// lookup after warm-up is an index computation and one atomic
    /// load. An engine is `&self`-only, so every thread may decode
    /// through the same one.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::UnsupportedWindow`] for bad window sizes
    /// (the table is left untouched).
    pub fn shared(variant: Variant) -> Result<&'static DecompressionEngine, CompressError> {
        static TABLE: [OnceLock<DecompressionEngine>; VARIANT_SLOTS] =
            [const { OnceLock::new() }; VARIANT_SLOTS];
        let slot = &TABLE[variant_slot(variant)?];
        if let Some(engine) = slot.get() {
            return Ok(engine);
        }
        // Built outside the cell so a construction error leaves the slot
        // empty; a racing first use builds twice and keeps one.
        let engine = DecompressionEngine::for_variant(variant)?;
        Ok(slot.get_or_init(|| engine))
    }

    /// The variant this engine decodes.
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// The float transform of a `DCT-W` engine (`None` for every other
    /// variant) — the one [`Dct`] per window size that both directions
    /// of the float windowed codec run.
    pub(crate) fn float_dct(&self) -> Option<&Dct> {
        match &self.stage {
            InverseStage::Float { dct, .. } => Some(dct),
            _ => None,
        }
    }

    /// Decompresses a waveform, returning the reconstruction and the
    /// operation counts: [`DecompressionEngine::decompress_into`] through
    /// a fresh scratch and fresh buffers.
    ///
    /// # Errors
    ///
    /// Returns an error if a stream is malformed or the waveform's variant
    /// does not match the engine.
    pub fn decompress(
        &self,
        z: &CompressedWaveform,
    ) -> Result<(Waveform, EngineStats), CompressError> {
        let (mut i, mut q) = (Vec::new(), Vec::new());
        let stats = self.decompress_into(z, &mut DecodeScratch::new(), &mut i, &mut q)?;
        Ok((Waveform::new(z.name.clone(), i, q, z.sample_rate_gs), stats))
    }

    /// Decompresses into caller-provided buffers, returning the operation
    /// counts. `i_out`/`q_out` are cleared and refilled; with a reused
    /// scratch and output buffers, steady-state decoding allocates
    /// nothing.
    ///
    /// # Errors
    ///
    /// Returns an error if a stream is malformed.
    pub fn decompress_into(
        &self,
        z: &CompressedWaveform,
        scratch: &mut DecodeScratch,
        i_out: &mut Vec<f64>,
        q_out: &mut Vec<f64>,
    ) -> Result<EngineStats, CompressError> {
        let mut stats = EngineStats::default();
        i_out.clear();
        q_out.clear();
        self.decode_channel_into(&z.i, z.n_samples, scratch, i_out, &mut stats)?;
        self.decode_channel_into(&z.q, z.n_samples, scratch, q_out, &mut stats)?;
        check_channel_shapes(i_out.len(), q_out.len())?;
        check_sample_rate(z.sample_rate_gs)?;
        Ok(stats)
    }

    /// Decodes one channel, *appending* `n_samples` DAC samples to `out`
    /// and accumulating stats.
    ///
    /// Appending (rather than overwriting) lets segment decoders like the
    /// adaptive IDCT-bypass path chain calls into one output buffer. All
    /// intermediate stages run through `scratch`; after warm-up the only
    /// heap activity is `out`'s own amortized growth, which a caller
    /// reusing its buffers never pays again.
    ///
    /// # Errors
    ///
    /// Returns an error if a run-length stream is malformed or the
    /// channel's shape does not match the engine.
    pub fn decode_channel_into(
        &self,
        channel: &ChannelData,
        n_samples: usize,
        scratch: &mut DecodeScratch,
        out: &mut Vec<f64>,
        stats: &mut EngineStats,
    ) -> Result<(), CompressError> {
        match channel {
            ChannelData::Raw(samples) => {
                stats.memory_words_read += samples.len();
                stats.output_samples += samples.len();
                stats.cycles += samples.len() as u64;
                out.extend(samples.iter().map(|&s| f64::from(s) / 32768.0));
                Ok(())
            }
            ChannelData::Delta { base, bits, deltas } => {
                let words = channel.size_bits().div_ceil(16);
                let _ = bits;
                stats.memory_words_read += words;
                stats.output_samples += deltas.len() + 1;
                stats.cycles += (deltas.len() + 1) as u64;
                // Wrapping i16 accumulation: bit-identical to the exact
                // sum for every stream the encoder emits, and well
                // defined (no debug-overflow panic) for hostile delta
                // chains that walk past the i32 range.
                let mut acc = *base;
                out.reserve(deltas.len() + 1);
                out.push(f64::from(acc) / 32768.0);
                for &d in deltas {
                    acc = acc.wrapping_add(d);
                    out.push(f64::from(acc) / 32768.0);
                }
                Ok(())
            }
            ChannelData::Windows(windows) => {
                let window = self.effective_window(windows.len(), n_samples)?;
                check_window_claims(windows, window)?;
                let base = out.len();
                let produced = windows
                    .len()
                    .checked_mul(window)
                    .filter(|&p| base.checked_add(p).is_some())
                    .ok_or(CompressError::MalformedStream {
                        reason: "window layout overflows the address space",
                    })?;
                out.reserve(produced);
                match &self.stage {
                    InverseStage::Integer(t) => {
                        append_int_windows(t, windows, &mut scratch.coeffs, out, stats)?;
                    }
                    InverseStage::Float { dct, scale } => {
                        for words in windows {
                            stats.tally_window(words.len(), rle_codewords(words));
                            scratch.dequantize(words, window, *scale)?;
                            dct.inverse_into(&scratch.fcoeffs, append_zeros(out, window));
                        }
                    }
                    InverseStage::None => {
                        // DCT-N: full-length inverse through the cached plan.
                        let scale =
                            f64::from(1u32 << crate::compress::float_coeff_scale_bits(window));
                        for words in windows {
                            stats.tally_window(words.len(), rle_codewords(words));
                            scratch.dequantize(words, window, scale)?;
                            let plan = scratch.plans.plan(window);
                            plan.inverse_into(&scratch.fcoeffs, append_zeros(out, window));
                        }
                    }
                }
                stats.output_samples += n_samples.min(produced);
                out.truncate(base + n_samples.min(produced));
                Ok(())
            }
        }
    }

    /// Window length for this stream: fixed for windowed variants, the
    /// padded waveform length for `DCT-N`.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::MalformedStream`] for a `DCT-N` stream
    /// that does not store exactly one window (the compressor never
    /// emits one; a corrupted or hostile stream can claim anything).
    fn effective_window(&self, n_windows: usize, n_samples: usize) -> Result<usize, CompressError> {
        if self.window > 0 {
            Ok(self.window)
        } else if n_windows == 1 {
            Ok(n_samples)
        } else {
            Err(CompressError::MalformedStream { reason: "DCT-N streams store exactly one window" })
        }
    }
}

/// Decodes int-DCT-W windows, appending `t.len()` samples per window to
/// `out` and accounting each window in `stats` before it is decoded.
/// Windows stored as a constant shape (zero, DC-only, or DC-only padded
/// by I/Q equalization; see [`constant_window_sample`]) are filled in
/// closed form and counted from the shape; every other window takes
/// the fused RLE + sparse inverse, which validates it.
///
/// Kept out of line: inlined into [`DecompressionEngine::decode_channel_into`],
/// the closed-form fill became a call to `Vec::resize` per window.
#[inline(never)]
fn append_int_windows(
    t: &IntDct,
    windows: &[Vec<CodedWord>],
    coeffs: &mut Vec<i32>,
    out: &mut Vec<f64>,
    stats: &mut EngineStats,
) -> Result<(), RleError> {
    let window = t.len();
    for words in windows {
        if let Some(sample) = constant_window_sample(t, words, INT_STORE_SHIFT) {
            // Each constant shape holds one run codeword.
            stats.tally_window(words.len(), 1);
            out.resize(out.len() + window, sample);
        } else {
            stats.tally_window(words.len(), rle_codewords(words));
            inverse_rle_f64_into(t, words, INT_STORE_SHIFT, coeffs, append_zeros(out, window))?;
        }
    }
    Ok(())
}

/// The run-length codewords among one window's words.
fn rle_codewords(words: &[CodedWord]) -> usize {
    words.iter().filter(|w| matches!(w, CodedWord::Rle(_))).count()
}

/// Appends `window` zeros to `out` and returns them, for a kernel that
/// writes a window in place.
fn append_zeros(out: &mut Vec<f64>, window: usize) -> &mut [f64] {
    let pos = out.len();
    out.resize(pos + window, 0.0);
    &mut out[pos..]
}

/// Post-decode consistency check shared by every whole-waveform decode
/// path (engine, batch, adaptive): a stream whose channels expand to
/// different sample counts (or to none at all) cannot have come from
/// the compressor — reject it instead of letting `Waveform::new`'s
/// invariants panic on hostile input.
pub(crate) fn check_channel_shapes(i_len: usize, q_len: usize) -> Result<(), CompressError> {
    if i_len != q_len {
        return Err(CompressError::MalformedStream {
            reason: "I and Q channels decode to different sample counts",
        });
    }
    if i_len == 0 {
        return Err(CompressError::MalformedStream { reason: "stream decodes to no samples" });
    }
    Ok(())
}

/// Metadata check for the stored sample rate: `Waveform::new` (and all
/// timing math downstream) requires a finite positive rate, so a hostile
/// header is rejected as malformed — never clamped to a fabricated rate
/// and never allowed to reach the constructor's panic.
pub(crate) fn check_sample_rate(sample_rate_gs: f64) -> Result<(), CompressError> {
    if sample_rate_gs.is_finite() && sample_rate_gs > 0.0 {
        Ok(())
    } else {
        Err(CompressError::MalformedStream { reason: "sample rate is not a positive finite value" })
    }
}

/// Validating [`Waveform`] constructor shared by every decode path that
/// materializes one from untrusted stream fields.
pub(crate) fn checked_waveform(
    name: &str,
    i: Vec<f64>,
    q: Vec<f64>,
    sample_rate_gs: f64,
) -> Result<Waveform, CompressError> {
    check_channel_shapes(i.len(), q.len())?;
    check_sample_rate(sample_rate_gs)?;
    Ok(Waveform::new(name.to_string(), i, q, sample_rate_gs))
}

/// Pre-decode guard against length-lying streams: a window claiming more
/// samples than its codewords could possibly expand to (at most
/// [`compaqt_dsp::rle::MAX_RUN`] per word) is mathematically guaranteed
/// to underflow, so it is rejected *before* any buffer is sized from the
/// claim — output allocation stays linear in the attacker-supplied
/// stream, never in its metadata.
fn check_window_claims(windows: &[Vec<CodedWord>], window: usize) -> Result<(), CompressError> {
    let max_run = usize::from(compaqt_dsp::rle::MAX_RUN);
    for words in windows {
        if window > words.len().saturating_mul(max_run) {
            return Err(CompressError::MalformedStream {
                reason: "window claims more samples than its codewords can expand to",
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::Compressor;
    use compaqt_pulse::shapes::{Drag, GaussianSquare, PulseShape};

    fn x_pulse() -> Waveform {
        Drag::new(136, 0.5, 34.0, 0.2).to_waveform("X(q0)", 4.54)
    }

    #[test]
    fn engine_matches_compressor_expectation() {
        let wf = x_pulse();
        let z = Compressor::new(Variant::IntDctW { ws: 16 }).compress(&wf).unwrap();
        let engine = DecompressionEngine::for_variant(z.variant).unwrap();
        let (restored, stats) = engine.decompress(&z).unwrap();
        assert!(wf.mse(&restored) < 1e-4);
        assert_eq!(stats.output_samples, 136 * 2);
        assert_eq!(stats.memory_words_read, z.words());
    }

    #[test]
    fn bandwidth_expansion_exceeds_4x_for_smooth_pulses() {
        let wf = GaussianSquare::new(1362, 0.3, 40.0, 1020).to_waveform("CR", 4.54);
        let z = Compressor::new(Variant::IntDctW { ws: 16 }).compress(&wf).unwrap();
        let engine = DecompressionEngine::for_variant(z.variant).unwrap();
        let (_, stats) = engine.decompress(&z).unwrap();
        assert!(stats.bandwidth_expansion() > 4.0, "expansion {}", stats.bandwidth_expansion());
    }

    #[test]
    fn idct_invocations_match_window_count() {
        let wf = x_pulse(); // 136 samples -> 9 windows of 16 per channel
        let z = Compressor::new(Variant::IntDctW { ws: 16 }).compress(&wf).unwrap();
        let engine = DecompressionEngine::for_variant(z.variant).unwrap();
        let (_, stats) = engine.decompress(&z).unwrap();
        assert_eq!(stats.idct_windows, 9 * 2);
    }

    #[test]
    fn delta_channel_decodes_without_idct() {
        let wf = compaqt_pulse::shapes::Gaussian::new(100, 0.5, 25.0).to_waveform("G", 4.54);
        let z = Compressor::new(Variant::Delta).compress(&wf).unwrap();
        let engine = DecompressionEngine::for_variant(Variant::Delta).unwrap();
        let (restored, stats) = engine.decompress(&z).unwrap();
        assert_eq!(stats.idct_windows, 0);
        assert!(wf.mse(&restored) < 1e-9);
    }

    #[test]
    fn stats_merge_adds_fields() {
        let mut a = EngineStats {
            memory_words_read: 1,
            rle_codewords: 2,
            idct_windows: 3,
            bypassed_samples: 4,
            output_samples: 5,
            cycles: 6,
        };
        a.merge(&a.clone());
        assert_eq!(a.memory_words_read, 2);
        assert_eq!(a.cycles, 12);
    }

    #[test]
    fn rejects_unsupported_window() {
        assert!(DecompressionEngine::for_variant(Variant::IntDctW { ws: 10 }).is_err());
        for (bad, ws) in [(Variant::IntDctW { ws: 12 }, 12), (Variant::DctW { ws: 0 }, 0)] {
            let err = DecompressionEngine::shared(bad).unwrap_err();
            assert_eq!(err, CompressError::UnsupportedWindow(ws), "{bad:?}");
            // A failed lookup leaves the table usable.
            let good = DecompressionEngine::shared(Variant::IntDctW { ws: 16 }).unwrap();
            assert_eq!(good.variant(), Variant::IntDctW { ws: 16 });
        }
    }

    #[test]
    fn variant_slots_are_dense_and_match_the_enumeration() {
        let slots: Vec<usize> = valid_variants().map(|v| variant_slot(v).unwrap()).collect();
        assert_eq!(slots, (0..VARIANT_SLOTS).collect::<Vec<_>>());
    }

    #[test]
    fn shared_table_holds_one_engine_per_variant_and_decodes_identically() {
        // Two threads race the first lookups; every lookup of a variant,
        // from either thread, must land on the same engine.
        let per_thread: Vec<Vec<&'static DecompressionEngine>> = std::thread::scope(|scope| {
            let lookups =
                || valid_variants().map(|v| DecompressionEngine::shared(v).unwrap()).collect();
            let a = scope.spawn(lookups);
            let b = scope.spawn(lookups);
            vec![a.join().unwrap(), b.join().unwrap()]
        });
        let wf = x_pulse();
        for (k, variant) in valid_variants().enumerate() {
            let engine = DecompressionEngine::shared(variant).unwrap();
            assert_eq!(engine.variant(), variant);
            for engines in &per_thread {
                assert!(std::ptr::eq(engine, engines[k]), "{variant:?}: one engine per variant");
            }
            let z = Compressor::new(variant).compress(&wf).unwrap();
            let reference = DecompressionEngine::for_variant(variant).unwrap();
            let mut scratch = DecodeScratch::new();
            let (mut i, mut q) = (Vec::new(), Vec::new());
            let (mut ri, mut rq) = (Vec::new(), Vec::new());
            let stats = engine.decompress_into(&z, &mut scratch, &mut i, &mut q).unwrap();
            let expect = reference.decompress_into(&z, &mut scratch, &mut ri, &mut rq).unwrap();
            assert_eq!(ri, i, "{variant:?} I channel");
            assert_eq!(rq, q, "{variant:?} Q channel");
            assert_eq!(expect, stats, "{variant:?} stats");
        }
    }

    #[test]
    fn scratch_and_buffers_are_reusable_across_waveforms() {
        let engine = DecompressionEngine::for_variant(Variant::IntDctW { ws: 16 }).unwrap();
        let mut scratch = DecodeScratch::new();
        let (mut i, mut q) = (Vec::new(), Vec::new());
        for n in [136usize, 1362, 454] {
            let wf = GaussianSquare::new(n, 0.3, 30.0, n / 2).to_waveform("w", 4.54);
            let z = Compressor::new(Variant::IntDctW { ws: 16 }).compress(&wf).unwrap();
            engine.decompress_into(&z, &mut scratch, &mut i, &mut q).unwrap();
            assert_eq!(i.len(), n);
            let (expect, _) = engine.decompress(&z).unwrap();
            assert_eq!(expect.i(), &i[..]);
        }
    }

    #[test]
    fn into_path_rejects_malformed_streams() {
        use compaqt_dsp::rle::{CodedWord, RleCodeword};
        let bogus = crate::compress::ChannelData::Windows(vec![vec![
            CodedWord::Coeff(5),
            CodedWord::Rle(RleCodeword { run: 100, repeat_previous: false }),
        ]]);
        let engine = DecompressionEngine::for_variant(Variant::IntDctW { ws: 16 }).unwrap();
        let mut scratch = DecodeScratch::new();
        let mut out = Vec::new();
        let mut stats = EngineStats::default();
        let err =
            engine.decode_channel_into(&bogus, 16, &mut scratch, &mut out, &mut stats).unwrap_err();
        assert!(matches!(err, crate::CompressError::Rle(_)));
    }

    #[test]
    fn dct_n_engine_round_trips_long_waveforms() {
        let wf = GaussianSquare::new(1362, 0.3, 40.0, 1020).to_waveform("CR", 4.54);
        let z = Compressor::new(Variant::DctN).compress(&wf).unwrap();
        let engine = DecompressionEngine::for_variant(Variant::DctN).unwrap();
        let (restored, stats) = engine.decompress(&z).unwrap();
        assert!(wf.mse(&restored) < 1e-4, "mse {:e}", wf.mse(&restored));
        assert_eq!(stats.idct_windows, 2, "one full-length window per channel");
        assert!(stats.bandwidth_expansion() > 10.0);
    }
}
