//! Parametric pulse shapes used on superconducting quantum hardware.
//!
//! Single-qubit gates use DRAG (Derivative Removal by Adiabatic Gate)
//! envelopes — a Gaussian I channel plus a scaled-derivative Q channel that
//! suppresses leakage to the second excited state. Two-qubit
//! cross-resonance gates and readout use flat-top (Gaussian-square)
//! envelopes (Sections II-A, V-D). All shapes are *lifted* so the envelope
//! starts and ends exactly at zero, like Qiskit Pulse's implementations.

use crate::waveform::Waveform;

/// A parametric pulse shape that can be sampled into I/Q channels.
pub trait PulseShape: std::fmt::Debug {
    /// Number of samples the shape spans.
    fn samples(&self) -> usize;

    /// Samples the envelope, returning the `(I, Q)` channels.
    fn envelope(&self) -> (Vec<f64>, Vec<f64>);

    /// Samples the shape into a named [`Waveform`] at the given DAC rate.
    fn to_waveform(&self, name: &str, sample_rate_gs: f64) -> Waveform {
        let (i, q) = self.envelope();
        Waveform::new(name, i, q, sample_rate_gs)
    }
}

/// Evaluates a lifted Gaussian: a Gaussian with its boundary value
/// subtracted and rescaled so the endpoints are exactly zero and the peak
/// is exactly `amp` (Qiskit's `LiftedGaussian`).
fn lifted_gaussian(n: usize, amp: f64, sigma: f64) -> Vec<f64> {
    assert!(n > 1, "shape needs at least two samples");
    assert!(sigma > 0.0, "sigma must be positive");
    let center = (n - 1) as f64 / 2.0;
    let g = |t: f64| (-0.5 * ((t - center) / sigma).powi(2)).exp();
    let edge = g(-1.0);
    (0..n).map(|k| amp * ((g(k as f64) - edge) / (1.0 - edge)).max(0.0)).collect()
}

/// A plain (lifted) Gaussian envelope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian {
    /// Sample count.
    pub samples: usize,
    /// Peak amplitude (full scale = 1).
    pub amp: f64,
    /// Standard deviation in samples.
    pub sigma: f64,
}

impl Gaussian {
    /// Creates a Gaussian envelope.
    pub fn new(samples: usize, amp: f64, sigma: f64) -> Self {
        Gaussian { samples, amp, sigma }
    }
}

impl PulseShape for Gaussian {
    fn samples(&self) -> usize {
        self.samples
    }

    fn envelope(&self) -> (Vec<f64>, Vec<f64>) {
        let i = lifted_gaussian(self.samples, self.amp, self.sigma);
        let q = vec![0.0; self.samples];
        (i, q)
    }
}

/// A DRAG envelope: Gaussian I channel, derivative Q channel.
///
/// `q[t] = beta * d(i[t])/dt`, the standard first-order DRAG correction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Drag {
    /// Sample count.
    pub samples: usize,
    /// Peak amplitude.
    pub amp: f64,
    /// Standard deviation in samples.
    pub sigma: f64,
    /// DRAG coefficient (dimensionless; Q channel is `beta * dI/dt * sigma`).
    pub beta: f64,
}

impl Drag {
    /// Creates a DRAG envelope.
    pub fn new(samples: usize, amp: f64, sigma: f64, beta: f64) -> Self {
        Drag { samples, amp, sigma, beta }
    }
}

impl PulseShape for Drag {
    fn samples(&self) -> usize {
        self.samples
    }

    fn envelope(&self) -> (Vec<f64>, Vec<f64>) {
        let i = lifted_gaussian(self.samples, self.amp, self.sigma);
        // Central-difference derivative, scaled by sigma to keep the DRAG
        // channel dimensionless and well below full scale.
        let n = self.samples;
        let mut q = vec![0.0; n];
        for k in 0..n {
            let prev = if k == 0 { 0.0 } else { i[k - 1] };
            let next = if k == n - 1 { 0.0 } else { i[k + 1] };
            q[k] = self.beta * self.sigma * (next - prev) / 2.0 / self.sigma;
        }
        (i, q)
    }
}

/// A flat-top envelope: Gaussian rise, constant plateau, Gaussian fall
/// (Qiskit's `GaussianSquare`). Used for cross-resonance two-qubit gates
/// and readout pulses, and the target of adaptive decompression
/// (Figure 13).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianSquare {
    /// Total sample count.
    pub samples: usize,
    /// Plateau amplitude.
    pub amp: f64,
    /// Rise/fall standard deviation in samples.
    pub sigma: f64,
    /// Plateau width in samples (must leave room for the ramps).
    pub width: usize,
}

impl GaussianSquare {
    /// Creates a flat-top envelope.
    ///
    /// # Panics
    ///
    /// Panics if `width >= samples`.
    pub fn new(samples: usize, amp: f64, sigma: f64, width: usize) -> Self {
        assert!(width < samples, "plateau must be shorter than the pulse");
        GaussianSquare { samples, amp, sigma, width }
    }

    /// Number of samples in each ramp.
    pub fn ramp_samples(&self) -> usize {
        (self.samples - self.width) / 2
    }
}

impl PulseShape for GaussianSquare {
    fn samples(&self) -> usize {
        self.samples
    }

    fn envelope(&self) -> (Vec<f64>, Vec<f64>) {
        let n = self.samples;
        let ramp = self.ramp_samples();
        let plateau_start = ramp;
        let plateau_end = n - ramp;
        let g = |dist: f64| (-0.5 * (dist / self.sigma).powi(2)).exp();
        let edge = g(ramp as f64 + 1.0);
        let lift = |v: f64| ((v - edge) / (1.0 - edge)).max(0.0);
        let mut i = vec![0.0; n];
        for (k, v) in i.iter_mut().enumerate().take(plateau_start) {
            *v = self.amp * lift(g((plateau_start - k) as f64));
        }
        for v in i.iter_mut().take(plateau_end).skip(plateau_start) {
            *v = self.amp;
        }
        for (k, v) in i.iter_mut().enumerate().skip(plateau_end) {
            *v = self.amp * lift(g((k + 1 - plateau_end) as f64));
        }
        let q = vec![0.0; n];
        (i, q)
    }
}

/// A constant (square) envelope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constant {
    /// Sample count.
    pub samples: usize,
    /// Amplitude.
    pub amp: f64,
}

impl Constant {
    /// Creates a constant envelope.
    pub fn new(samples: usize, amp: f64) -> Self {
        Constant { samples, amp }
    }
}

impl PulseShape for Constant {
    fn samples(&self) -> usize {
        self.samples
    }

    fn envelope(&self) -> (Vec<f64>, Vec<f64>) {
        (vec![self.amp; self.samples], vec![0.0; self.samples])
    }
}

/// A cosine-tapered (Tukey) envelope: raised-cosine ramps around a flat
/// plateau. Common for fluxonium and tunable-coupler drives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CosineTapered {
    /// Sample count.
    pub samples: usize,
    /// Plateau amplitude.
    pub amp: f64,
    /// Fraction of the pulse spent ramping (0..1, split between both ends).
    pub taper: f64,
}

impl CosineTapered {
    /// Creates a cosine-tapered envelope.
    ///
    /// # Panics
    ///
    /// Panics if `taper` is outside `(0, 1]`.
    pub fn new(samples: usize, amp: f64, taper: f64) -> Self {
        assert!(taper > 0.0 && taper <= 1.0, "taper fraction must be in (0, 1]");
        CosineTapered { samples, amp, taper }
    }
}

impl PulseShape for CosineTapered {
    fn samples(&self) -> usize {
        self.samples
    }

    fn envelope(&self) -> (Vec<f64>, Vec<f64>) {
        let n = self.samples;
        let ramp = ((n as f64 * self.taper) / 2.0).round() as usize;
        let mut i = vec![self.amp; n];
        for k in 0..ramp.min(n) {
            let w =
                0.5 * (1.0 - (std::f64::consts::PI * (k as f64 + 1.0) / (ramp as f64 + 1.0)).cos());
            i[k] = self.amp * w;
            i[n - 1 - k] = self.amp * w;
        }
        (i, vec![0.0; n])
    }
}

/// A smooth band-limited envelope built from half-sine harmonics:
/// `x[t] = amp * sum_k c_k sin(pi (k+1) t / T)`.
///
/// This models numerically optimized ("machine-learned") gate pulses such
/// as the Toffoli/CCZ drives of Table IX: smooth, zero at the endpoints,
/// with energy spread over the first few harmonics. More harmonics means
/// less compressible.
#[derive(Debug, Clone, PartialEq)]
pub struct BandLimited {
    /// Sample count.
    pub samples: usize,
    /// Overall amplitude scale.
    pub amp: f64,
    /// Harmonic coefficients for the I channel (`c_0` is the fundamental).
    pub i_harmonics: Vec<f64>,
    /// Harmonic coefficients for the Q channel.
    pub q_harmonics: Vec<f64>,
}

impl BandLimited {
    /// Creates a band-limited envelope from harmonic coefficients.
    pub fn new(samples: usize, amp: f64, i_harmonics: Vec<f64>, q_harmonics: Vec<f64>) -> Self {
        BandLimited { samples, amp, i_harmonics, q_harmonics }
    }

    fn synth(&self, harmonics: &[f64]) -> Vec<f64> {
        let n = self.samples;
        let mut out = vec![0.0; n];
        // Normalize so the peak stays at `amp` regardless of coefficients.
        let norm: f64 = harmonics.iter().map(|c| c.abs()).sum::<f64>().max(1e-12);
        for (k, &c) in harmonics.iter().enumerate() {
            let f = (k + 1) as f64 * std::f64::consts::PI / n as f64;
            for (t, o) in out.iter_mut().enumerate() {
                *o += self.amp * c / norm * (f * (t as f64 + 0.5)).sin();
            }
        }
        out
    }
}

impl PulseShape for BandLimited {
    fn samples(&self) -> usize {
        self.samples
    }

    fn envelope(&self) -> (Vec<f64>, Vec<f64>) {
        (self.synth(&self.i_harmonics), self.synth(&self.q_harmonics))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_is_lifted_and_peaks_at_amp() {
        let (i, q) = Gaussian::new(161, 0.6, 30.0).envelope();
        // Lifted against the sample one step outside the window, so the
        // endpoints are within one quantization step of zero.
        assert!(i[0].abs() < 0.01 * 0.6, "starts near zero: {}", i[0]);
        assert!(i[160].abs() < 0.01 * 0.6, "ends near zero: {}", i[160]);
        assert!((i[80] - 0.6).abs() < 1e-12, "peaks at amp");
        assert!(q.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn gaussian_is_symmetric() {
        let (i, _) = Gaussian::new(160, 0.5, 25.0).envelope();
        for k in 0..80 {
            assert!((i[k] - i[159 - k]).abs() < 1e-12, "sample {k}");
        }
    }

    #[test]
    fn drag_q_channel_is_antisymmetric_derivative() {
        let (i, q) = Drag::new(161, 0.5, 30.0, 0.2).envelope();
        // Q is the scaled derivative: zero at the peak, antisymmetric.
        assert!(q[80].abs() < 1e-9);
        for k in 1..80 {
            assert!((q[k] + q[160 - k]).abs() < 1e-9, "sample {k}");
        }
        // Q leads I on the rise (positive derivative, positive beta).
        assert!(q[40] > 0.0);
        assert!(i[40] > 0.0);
    }

    #[test]
    fn drag_q_is_much_smaller_than_i() {
        let (i, q) = Drag::new(160, 0.8, 40.0, 0.2).envelope();
        let imax = i.iter().cloned().fold(0.0, f64::max);
        let qmax = q.iter().map(|v| v.abs()).fold(0.0, f64::max);
        assert!(qmax < imax / 5.0);
    }

    #[test]
    fn gaussian_square_has_exact_plateau() {
        let gs = GaussianSquare::new(1362, 0.35, 64.0, 1000);
        let (i, _) = gs.envelope();
        let ramp = gs.ramp_samples();
        for (k, &v) in i.iter().enumerate().take(1362 - ramp).skip(ramp) {
            assert_eq!(v, 0.35, "plateau sample {k}");
        }
        assert!(i[0] < 0.01, "rise starts near zero");
        assert!(i[1361] < 0.01, "fall ends near zero");
    }

    #[test]
    fn gaussian_square_ramps_are_monotone() {
        let gs = GaussianSquare::new(200, 0.5, 12.0, 120);
        let (i, _) = gs.envelope();
        let ramp = gs.ramp_samples();
        for k in 1..ramp {
            assert!(i[k] >= i[k - 1], "rise sample {k}");
        }
        for k in (200 - ramp + 1)..200 {
            assert!(i[k] <= i[k - 1], "fall sample {k}");
        }
    }

    #[test]
    #[should_panic(expected = "plateau")]
    fn gaussian_square_rejects_oversize_plateau() {
        GaussianSquare::new(100, 0.5, 10.0, 100);
    }

    #[test]
    fn constant_is_constant() {
        let (i, _) = Constant::new(10, 0.3).envelope();
        assert!(i.iter().all(|&v| v == 0.3));
    }

    #[test]
    fn cosine_taper_endpoints_are_low() {
        let (i, _) = CosineTapered::new(100, 0.7, 0.4).envelope();
        assert!(i[0] < 0.1);
        assert!(i[99] < 0.1);
        assert_eq!(i[50], 0.7);
    }

    #[test]
    fn band_limited_peaks_at_most_amp() {
        let bl = BandLimited::new(300, 0.6, vec![1.0, 0.4, -0.2, 0.1], vec![0.3, -0.1]);
        let (i, q) = bl.envelope();
        let peak = i.iter().chain(q.iter()).map(|v| v.abs()).fold(0.0, f64::max);
        assert!(peak <= 0.6 + 1e-9);
        assert!(i[0].abs() < 0.05, "starts near zero");
    }

    #[test]
    fn to_waveform_carries_rate_and_name() {
        let w = Drag::new(136, 0.5, 34.0, 0.18).to_waveform("X(q0)", 4.54);
        assert_eq!(w.name(), "X(q0)");
        assert_eq!(w.len(), 136);
        assert!((w.duration_ns() - 29.95).abs() < 0.1);
    }
}
