//! Overlapped-window compression (the paper's proposed fix for WS=8
//! boundary distortion).
//!
//! Section VII-B observes that WS=8 loses fidelity on some benchmarks
//! because of "distortions introduced at the boundaries of consecutive
//! windows. These distortions can be reduced by using overlapping
//! windows". This module implements that extension: 50%-overlapped
//! windows under a sqrt-Hann analysis/synthesis pair (a lapped transform
//! in the MDCT spirit). Perfect reconstruction holds by the
//! constant-overlap-add property; thresholding error no longer lands on a
//! hard window edge but is cross-faded between neighbours.
//!
//! The cost: ~2x the window count, so roughly half the compression ratio
//! — exactly the trade the ablation bench quantifies.
//!
//! **When it wins:** reach for the overlapped encoder only when WS=8-class
//! boundary distortion is the dominant error term — short windows on
//! fast-varying envelopes (DRAG derivatives, steep ramps) where the
//! plain windowed codec shows visible seams at window edges. For WS=16
//! on typical control pulses the plain codec's boundary error is already
//! below the threshold-induced error, and the 2x window overhead buys
//! nothing. Channels are encoded independently here (no I/Q
//! equalization): each frame keeps its own coefficient count, because
//! the synthesis window cross-fades reconstruction error anyway.
//!
//! Both codec directions follow the workspace's allocating-vs-`_into`
//! convention: [`OverlapCompressor::compress`] /
//! [`OverlapCompressed::decompress`] allocate per call and wrap
//! [`OverlapCompressor::compress_into`] /
//! [`OverlapCompressor::decode_channel_into`], which thread
//! caller-owned scratches and reuse output buffers.

use crate::compress::ChannelData;
use crate::CompressError;
use compaqt_dsp::dct::Dct;
use compaqt_dsp::metrics::CompressionRatio;
use compaqt_dsp::rle::{CodedWord, RleCodeword, RleDecoder};
use compaqt_pulse::waveform::Waveform;
use std::f64::consts::PI;

/// An overlapped-window compressed waveform.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlapCompressed {
    /// Waveform name.
    pub name: String,
    /// Window size (hop is `ws / 2`).
    pub ws: usize,
    /// Original sample count.
    pub n_samples: usize,
    /// DAC sampling rate.
    pub sample_rate_gs: f64,
    /// Coded windows for I.
    pub i: ChannelData,
    /// Coded windows for Q.
    pub q: ChannelData,
}

impl OverlapCompressed {
    /// An empty placeholder, intended as the reusable output slot of
    /// [`OverlapCompressor::compress_into`] (which overwrites every
    /// field).
    pub fn empty() -> Self {
        OverlapCompressed {
            name: String::new(),
            ws: 0,
            n_samples: 0,
            sample_rate_gs: 0.0,
            i: ChannelData::Windows(Vec::new()),
            q: ChannelData::Windows(Vec::new()),
        }
    }

    /// Compression ratio (paper convention). Saturating, so hostile
    /// sample-count claims cannot overflow the accounting.
    pub fn ratio(&self) -> CompressionRatio {
        let old = self.n_samples.saturating_mul(crate::compress::SAMPLE_BYTES);
        let new = (self.i.size_bits().saturating_add(self.q.size_bits())).div_ceil(8);
        CompressionRatio::new(old, new.max(1))
    }

    /// Decompresses by windowed IDCT + overlap-add.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed run-length streams or metadata
    /// (mismatched channel expansions, bogus sample rate).
    pub fn decompress(&self) -> Result<Waveform, CompressError> {
        let compressor = OverlapCompressor::new(self.ws)?;
        let mut scratch = crate::engine::DecodeScratch::new();
        let (mut i, mut q) = (Vec::new(), Vec::new());
        compressor.decode_channel_into(&self.i, self.n_samples, &mut scratch, &mut i)?;
        compressor.decode_channel_into(&self.q, self.n_samples, &mut scratch, &mut q)?;
        crate::engine::checked_waveform(&self.name, i, q, self.sample_rate_gs)
    }
}

/// Compressor with 50%-overlapped sqrt-Hann windows.
#[derive(Debug, Clone)]
pub struct OverlapCompressor {
    ws: usize,
    hop: usize,
    dct: Dct,
    window: Vec<f64>,
    threshold: f64,
    scale: f64,
}

impl OverlapCompressor {
    /// Creates an overlapped compressor for window size `ws` (even,
    /// supported by the windowed transforms).
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::UnsupportedWindow`] for unsupported sizes.
    pub fn new(ws: usize) -> Result<Self, CompressError> {
        if !compaqt_dsp::intdct::SUPPORTED_SIZES.contains(&ws) {
            return Err(CompressError::UnsupportedWindow(ws));
        }
        // sqrt-Hann: w[n] = sin(pi (n + 0.5) / ws); w^2 overlap-adds to 1
        // at 50% hop.
        let window: Vec<f64> = (0..ws).map(|n| (PI * (n as f64 + 0.5) / ws as f64).sin()).collect();
        let scale = f64::from(1u32 << crate::compress::float_coeff_scale_bits(ws));
        Ok(OverlapCompressor {
            ws,
            hop: ws / 2,
            dct: Dct::new(ws),
            window,
            threshold: crate::compress::DEFAULT_THRESHOLD,
            scale,
        })
    }

    /// Sets the coefficient threshold.
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.threshold = threshold;
        self
    }

    /// Compresses a waveform.
    ///
    /// Allocating wrapper over [`OverlapCompressor::compress_into`].
    ///
    /// # Errors
    ///
    /// Currently infallible after construction; kept fallible for parity
    /// with [`crate::compress::Compressor::compress`].
    pub fn compress(&self, wf: &Waveform) -> Result<OverlapCompressed, CompressError> {
        let mut scratch = crate::engine::EncodeScratch::new();
        let mut out = OverlapCompressed::empty();
        self.compress_into(wf, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Compresses into a caller-owned output, threading the per-frame
    /// analysis staging through `scratch` — bit-exact with
    /// [`OverlapCompressor::compress`] (which wraps this). With warmed
    /// buffers, recompressing the same shape allocates nothing.
    ///
    /// # Errors
    ///
    /// Currently infallible after construction; kept fallible for parity
    /// with [`crate::compress::Compressor::compress_into`].
    pub fn compress_into(
        &self,
        wf: &Waveform,
        scratch: &mut crate::engine::EncodeScratch,
        out: &mut OverlapCompressed,
    ) -> Result<(), CompressError> {
        out.name.clear();
        out.name.push_str(wf.name());
        out.ws = self.ws;
        out.n_samples = wf.len();
        out.sample_rate_gs = wf.sample_rate_gs();
        self.encode_channel_into(wf.i(), scratch, &mut out.i);
        self.encode_channel_into(wf.q(), scratch, &mut out.q);
        Ok(())
    }

    fn n_frames(&self, n_samples: usize) -> usize {
        // Frames cover [k*hop, k*hop + ws); pad one hop at each end.
        n_samples.div_ceil(self.hop) + 1
    }

    /// Analysis-windows, transforms and run-length encodes one channel
    /// into a reused channel slot. Overlapped channels are independent
    /// (no I/Q equalization: each frame keeps its own coefficient
    /// count), so this is a complete per-channel encoder.
    pub fn encode_channel_into(
        &self,
        samples: &[f64],
        scratch: &mut crate::engine::EncodeScratch,
        out: &mut ChannelData,
    ) {
        let n_frames = self.n_frames(samples.len());
        let windows = crate::compress::windows_buf(out, n_frames, &mut scratch.spare_windows);
        for (frame, words) in windows.iter_mut().enumerate() {
            let start = frame as isize * self.hop as isize - self.hop as isize;
            let (buf, fcoeffs, quant) = scratch.float_buffers(self.ws);
            for (k, b) in buf.iter_mut().enumerate() {
                let idx = start + k as isize;
                *b = if idx >= 0 && (idx as usize) < samples.len() {
                    samples[idx as usize] * self.window[k]
                } else {
                    0.0
                };
            }
            self.dct.forward_into(buf, fcoeffs);
            compaqt_dsp::threshold::apply_threshold(fcoeffs, self.threshold);
            for (qc, &c) in quant.iter_mut().zip(fcoeffs.iter()) {
                *qc = ((c * self.scale).round() as i32)
                    .clamp(compaqt_dsp::rle::MIN_COEFF, compaqt_dsp::rle::MAX_COEFF);
            }
            let keep = self.ws - compaqt_dsp::threshold::trailing_zeros(quant);
            words
                .extend(quant[..keep].iter().map(|&c| CodedWord::Coeff(CodedWord::clamp_coeff(c))));
            if keep < self.ws {
                words.push(CodedWord::Rle(RleCodeword {
                    run: (self.ws - keep) as u16,
                    repeat_previous: false,
                }));
            }
        }
    }

    /// Zero-allocation overlap-add decode into caller buffers: `out` is
    /// cleared, zero-filled to `n_samples` and accumulated in place, with
    /// per-frame staging running through `scratch`.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed run-length streams, or for a
    /// sample-count claim no lapped frame layout could produce (hostile
    /// metadata must not size the output buffer).
    pub fn decode_channel_into(
        &self,
        channel: &ChannelData,
        n_samples: usize,
        scratch: &mut crate::engine::DecodeScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), CompressError> {
        let windows = match channel {
            ChannelData::Windows(w) => w,
            _ => {
                return Err(CompressError::MalformedStream {
                    reason: "lapped channel is not a window stream",
                })
            }
        };
        // Every valid 50%-hop stream stores n_frames(n) > n/hop frames,
        // so a claim beyond windows*hop is impossible; reject it before
        // the claim sizes any allocation.
        if n_samples > windows.len().saturating_mul(self.hop) {
            return Err(CompressError::MalformedStream {
                reason: "lapped stream claims more samples than its frames cover",
            });
        }
        let decoder = RleDecoder::new();
        out.clear();
        out.resize(n_samples, 0.0);
        for (frame, words) in windows.iter().enumerate() {
            let (coeffs, fcoeffs, time) = scratch.lapped_buffers(self.ws);
            decoder.decode_window_into(words, coeffs)?;
            for (f, &c) in fcoeffs.iter_mut().zip(coeffs.iter()) {
                *f = f64::from(c) / self.scale;
            }
            self.dct.inverse_into(fcoeffs, time);
            let start = frame as isize * self.hop as isize - self.hop as isize;
            for (k, &v) in time.iter().enumerate() {
                let idx = start + k as isize;
                if idx >= 0 && (idx as usize) < n_samples {
                    out[idx as usize] += v * self.window[k];
                }
            }
        }
        Ok(())
    }
}

/// Measures the boundary-localized error of a codec: the mean squared
/// error restricted to samples within `margin` of a window boundary.
pub fn boundary_mse(original: &Waveform, restored: &Waveform, ws: usize, margin: usize) -> f64 {
    let mut acc = 0.0;
    let mut count = 0usize;
    for (k, (a, b)) in original.i().iter().zip(restored.i()).enumerate() {
        let pos = k % ws;
        let near = pos < margin || pos + margin >= ws;
        if near {
            acc += (a - b) * (a - b);
            count += 1;
        }
    }
    acc / count.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{Compressor, Variant};
    use compaqt_pulse::shapes::{Drag, PulseShape};

    fn pulse() -> Waveform {
        Drag::new(136, 0.5, 34.0, 0.2).to_waveform("X", 4.54)
    }

    #[test]
    fn sqrt_hann_satisfies_cola() {
        // The squared window must overlap-add to exactly 1 at 50% hop.
        let c = OverlapCompressor::new(8).unwrap();
        for n in 0..4 {
            let sum = c.window[n] * c.window[n] + c.window[n + 4] * c.window[n + 4];
            assert!((sum - 1.0).abs() < 1e-12, "position {n}: {sum}");
        }
    }

    #[test]
    fn zero_threshold_reconstructs_perfectly() {
        let wf = pulse();
        let c = OverlapCompressor::new(8).unwrap().with_threshold(0.0);
        let z = c.compress(&wf).unwrap();
        let back = z.decompress().unwrap();
        // Only coefficient quantization remains.
        assert!(wf.mse(&back) < 1e-6, "mse {:e}", wf.mse(&back));
    }

    #[test]
    fn overlap_reduces_boundary_error_at_ws8() {
        let wf = pulse();
        let plain = Compressor::new(Variant::DctW { ws: 8 }).with_threshold(0.04);
        let lapped = OverlapCompressor::new(8).unwrap().with_threshold(0.04);
        let plain_back = plain.compress(&wf).unwrap().decompress().unwrap();
        let lapped_back = lapped.compress(&wf).unwrap().decompress().unwrap();
        let b_plain = boundary_mse(&wf, &plain_back, 8, 1);
        let b_lapped = boundary_mse(&wf, &lapped_back, 8, 1);
        assert!(b_lapped < b_plain, "lapped boundary MSE {b_lapped:e} vs plain {b_plain:e}");
    }

    #[test]
    fn overlap_costs_compression_ratio() {
        let wf = pulse();
        let plain = Compressor::new(Variant::DctW { ws: 8 }).compress(&wf).unwrap();
        let lapped = OverlapCompressor::new(8).unwrap().compress(&wf).unwrap();
        assert!(lapped.ratio().ratio() < plain.ratio().ratio());
    }

    #[test]
    fn rejects_unsupported_window() {
        assert!(OverlapCompressor::new(10).is_err());
    }

    #[test]
    fn scratch_and_buffer_survive_reuse_across_channels() {
        let wf = pulse();
        let c = OverlapCompressor::new(8).unwrap();
        let z = c.compress(&wf).unwrap();
        let fresh = z.decompress().unwrap();
        let mut scratch = crate::engine::DecodeScratch::new();
        let mut out = Vec::new();
        for _ in 0..2 {
            c.decode_channel_into(&z.i, z.n_samples, &mut scratch, &mut out).unwrap();
            assert_eq!(fresh.i(), &out[..]);
            c.decode_channel_into(&z.q, z.n_samples, &mut scratch, &mut out).unwrap();
            assert_eq!(fresh.q(), &out[..]);
        }
    }

    #[test]
    fn non_window_channel_is_a_malformed_stream() {
        let c = OverlapCompressor::new(8).unwrap();
        let raw = ChannelData::Raw(vec![0; 16]);
        let mut scratch = crate::engine::DecodeScratch::new();
        let err = c.decode_channel_into(&raw, 16, &mut scratch, &mut Vec::new()).unwrap_err();
        assert!(matches!(err, CompressError::MalformedStream { .. }), "{err:?}");
    }

    #[test]
    fn long_flat_tops_still_compress() {
        use compaqt_pulse::shapes::GaussianSquare;
        let wf = GaussianSquare::new(1362, 0.3, 40.0, 1020).to_waveform("CR", 4.54);
        let z = OverlapCompressor::new(16).unwrap().compress(&wf).unwrap();
        assert!(z.ratio().ratio() > 2.0, "got {}", z.ratio());
        assert!(wf.mse(&z.decompress().unwrap()) < 1e-4);
    }
}
