//! The I/Q waveform type streamed from waveform memory to the DACs.
//!
//! A pulse envelope has two channels: in-phase (I) rotates the qubit about
//! the Bloch-sphere X axis, quadrature (Q) about the Y axis (Section II-B).
//! The waveform memory stores both; the sample size `Ns` of Table I counts
//! the packed I+Q word (e.g. 32 bits = two 16-bit channels on IBM systems).

use compaqt_dsp::fixed::Q15;
use std::fmt;

/// A named, sampled I/Q pulse envelope.
///
/// Samples are real values in `[-1, 1)` (full scale of the DAC). The
/// waveform also records the DAC sampling rate so durations can be
/// recovered.
#[derive(Debug, Clone, PartialEq)]
pub struct Waveform {
    name: String,
    i: Vec<f64>,
    q: Vec<f64>,
    sample_rate_gs: f64,
}

impl Waveform {
    /// Creates a waveform from I and Q channel samples.
    ///
    /// # Panics
    ///
    /// Panics if the channels differ in length, are empty, or the sample
    /// rate is not positive.
    pub fn new(name: impl Into<String>, i: Vec<f64>, q: Vec<f64>, sample_rate_gs: f64) -> Self {
        assert_eq!(i.len(), q.len(), "I and Q channels must have equal length");
        assert!(!i.is_empty(), "waveform must contain samples");
        assert!(sample_rate_gs > 0.0, "sample rate must be positive");
        Waveform { name: name.into(), i, q, sample_rate_gs }
    }

    /// Creates a purely in-phase waveform (Q channel zero).
    pub fn from_real(name: impl Into<String>, i: Vec<f64>, sample_rate_gs: f64) -> Self {
        let q = vec![0.0; i.len()];
        Waveform::new(name, i, q, sample_rate_gs)
    }

    /// The waveform's name (gate + qubit, e.g. `"X(q3)"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of samples per channel.
    pub fn len(&self) -> usize {
        self.i.len()
    }

    /// `true` if the waveform holds no samples (never; construction forbids it).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// In-phase channel samples.
    pub fn i(&self) -> &[f64] {
        &self.i
    }

    /// Quadrature channel samples.
    pub fn q(&self) -> &[f64] {
        &self.q
    }

    /// DAC sampling rate in gigasamples per second.
    pub fn sample_rate_gs(&self) -> f64 {
        self.sample_rate_gs
    }

    /// Pulse duration in nanoseconds.
    pub fn duration_ns(&self) -> f64 {
        self.len() as f64 / self.sample_rate_gs
    }

    /// Peak envelope magnitude `max |I + iQ|`.
    pub fn peak_amplitude(&self) -> f64 {
        self.i.iter().zip(&self.q).map(|(a, b)| (a * a + b * b).sqrt()).fold(0.0, f64::max)
    }

    /// Uncompressed storage footprint in bytes for a packed I+Q sample of
    /// `sample_bits` bits (Table I's `Ns`).
    pub fn storage_bytes(&self, sample_bits: u32) -> usize {
        (self.len() * sample_bits as usize).div_ceil(8)
    }

    /// Mean squared error against another waveform, averaged over both
    /// channels — the distortion metric of Figure 7(c).
    ///
    /// # Panics
    ///
    /// Panics if the waveforms have different lengths.
    pub fn mse(&self, other: &Waveform) -> f64 {
        assert_eq!(self.len(), other.len(), "waveform lengths must match");
        let ei = compaqt_dsp::metrics::mse(&self.i, &other.i);
        let eq = compaqt_dsp::metrics::mse(&self.q, &other.q);
        (ei + eq) / 2.0
    }

    /// Quantizes the I channel to Q1.15 DAC samples.
    pub fn i_q15(&self) -> Vec<Q15> {
        compaqt_dsp::fixed::quantize(&self.i)
    }

    /// Quantizes the Q channel to Q1.15 DAC samples.
    pub fn q_q15(&self) -> Vec<Q15> {
        compaqt_dsp::fixed::quantize(&self.q)
    }

    /// Rebuilds a waveform from quantized channels (used after the
    /// decompression pipeline).
    ///
    /// # Panics
    ///
    /// Panics if the channels differ in length or are empty.
    pub fn from_q15(name: impl Into<String>, i: &[Q15], q: &[Q15], sample_rate_gs: f64) -> Self {
        Waveform::new(
            name,
            compaqt_dsp::fixed::dequantize(i),
            compaqt_dsp::fixed::dequantize(q),
            sample_rate_gs,
        )
    }

    /// Returns `(plateau_start, plateau_len)` if the waveform has a
    /// constant flat-top plateau of at least `min_len` samples (within
    /// one Q1.15 LSB), as the adaptive decompression path of Section V-D
    /// looks for. Detection runs on the I channel.
    pub fn flat_top_plateau(&self, min_len: usize) -> Option<(usize, usize)> {
        let lsb = 2.0 / 65536.0;
        let mut best: Option<(usize, usize)> = None;
        let mut start = 0;
        let mut run = 1;
        for idx in 1..self.i.len() {
            if (self.i[idx] - self.i[idx - 1]).abs() <= lsb && self.i[start].abs() > lsb {
                run += 1;
            } else {
                if run >= min_len && best.is_none_or(|(_, l)| run > l) {
                    best = Some((start, run));
                }
                start = idx;
                run = 1;
            }
        }
        if run >= min_len && best.is_none_or(|(_, l)| run > l) {
            best = Some((start, run));
        }
        best
    }
}

impl fmt::Display for Waveform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} samples @ {} GS/s = {:.1} ns]",
            self.name,
            self.len(),
            self.sample_rate_gs,
            self.duration_ns()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wf(i: Vec<f64>) -> Waveform {
        Waveform::from_real("test", i, 4.54)
    }

    #[test]
    fn duration_follows_sample_rate() {
        let w = Waveform::from_real("x", vec![0.0; 454], 4.54);
        assert!((w.duration_ns() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn storage_matches_table_i_sample_size() {
        // IBM: 136 samples of a 30ns 1Q gate at 32 bits -> 544 bytes.
        let w = Waveform::from_real("x", vec![0.0; 136], 4.54);
        assert_eq!(w.storage_bytes(32), 544);
        // Google: 28-bit samples.
        let g = Waveform::from_real("g", vec![0.0; 25], 1.0);
        assert_eq!(g.storage_bytes(28), 88); // ceil(700/8)
    }

    #[test]
    fn mse_is_zero_for_identical() {
        let w = wf(vec![0.1, 0.2, 0.3]);
        assert_eq!(w.mse(&w.clone()), 0.0);
    }

    #[test]
    fn mse_averages_channels() {
        let a = Waveform::new("a", vec![0.0, 0.0], vec![0.0, 0.0], 1.0);
        let b = Waveform::new("b", vec![0.2, 0.2], vec![0.0, 0.0], 1.0);
        // I-channel MSE = 0.04, Q = 0 -> mean 0.02.
        assert!((a.mse(&b) - 0.02).abs() < 1e-12);
    }

    #[test]
    fn peak_amplitude_combines_iq() {
        let w = Waveform::new("a", vec![0.3, 0.0], vec![0.4, 0.0], 1.0);
        assert!((w.peak_amplitude() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn q15_round_trip() {
        let w = wf(vec![0.25, -0.5, 0.75]);
        let back = Waveform::from_q15("back", &w.i_q15(), &w.q_q15(), w.sample_rate_gs());
        assert!(w.mse(&back) < 1e-9);
    }

    #[test]
    fn flat_top_detected() {
        let mut i = vec![0.0, 0.2, 0.4];
        i.extend(vec![0.5; 100]);
        i.extend(vec![0.4, 0.2, 0.0]);
        let w = wf(i);
        let (start, len) = w.flat_top_plateau(50).unwrap();
        assert_eq!(start, 3);
        assert_eq!(len, 100);
    }

    #[test]
    fn no_plateau_in_gaussian() {
        let i: Vec<f64> = (0..160)
            .map(|n| {
                let t = (n as f64 - 80.0) / 25.0;
                0.6 * (-0.5 * t * t).exp()
            })
            .collect();
        assert!(wf(i).flat_top_plateau(16).is_none());
    }

    #[test]
    fn zero_plateau_is_not_flat_top() {
        // Leading/trailing zeros must not count as a plateau.
        let mut i = vec![0.0; 64];
        i.push(0.5);
        i.extend(vec![0.0; 64]);
        assert!(wf(i).flat_top_plateau(16).is_none());
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_channels_rejected() {
        Waveform::new("bad", vec![0.0], vec![0.0, 1.0], 1.0);
    }

    #[test]
    fn display_mentions_name_and_duration() {
        let w = wf(vec![0.0; 454]);
        let s = format!("{w}");
        assert!(s.contains("test") && s.contains("100.0 ns"));
    }
}
