//! Frequency-division multiplexing (FDM) of qubit drives.
//!
//! RFSoC platforms can drive 100+ qubits per board by mixing several
//! qubits' waveforms onto one wideband DAC channel at different
//! intermediate frequencies (Sections I and III-B). The catch the paper
//! leans on: *before* the waveforms are mixed, each must be stored and
//! generated individually — so FDM multiplies the waveform-memory
//! bandwidth demand per DAC rather than reducing it, which is exactly the
//! bottleneck COMPAQT removes.

use crate::waveform::Waveform;

/// An FDM group: several qubit envelopes sharing one DAC at distinct
/// intermediate-frequency offsets.
#[derive(Debug, Clone)]
pub struct MuxGroup {
    /// Intermediate-frequency offsets in MHz, one per multiplexed drive.
    pub offsets_mhz: Vec<f64>,
}

impl MuxGroup {
    /// Creates a group with evenly spaced offsets covering `span_mhz`.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn evenly_spaced(lanes: usize, span_mhz: f64) -> Self {
        assert!(lanes > 0, "a mux group needs at least one lane");
        let step = if lanes > 1 { span_mhz / (lanes - 1) as f64 } else { 0.0 };
        MuxGroup { offsets_mhz: (0..lanes).map(|k| -span_mhz / 2.0 + step * k as f64).collect() }
    }

    /// Number of multiplexed drives.
    pub fn lanes(&self) -> usize {
        self.offsets_mhz.len()
    }

    /// Digitally up-converts and sums the envelopes onto one DAC stream:
    /// `out(t) = sum_k (I_k + iQ_k)(t) * e^{i 2 pi f_k t} / sqrt(lanes)`.
    ///
    /// All inputs must share a sample rate; shorter waveforms are treated
    /// as zero-padded. The `1/sqrt(lanes)` scaling keeps typical peaks in
    /// range (a real system would crest-factor optimize the phases).
    ///
    /// # Panics
    ///
    /// Panics if the waveform count differs from the lane count, the list
    /// is empty, or sample rates differ.
    pub fn multiplex(&self, waveforms: &[&Waveform]) -> Waveform {
        assert_eq!(waveforms.len(), self.lanes(), "one waveform per lane");
        assert!(!waveforms.is_empty(), "mux group cannot be empty");
        let rate = waveforms[0].sample_rate_gs();
        assert!(
            waveforms.iter().all(|w| (w.sample_rate_gs() - rate).abs() < 1e-12),
            "all lanes must share a sample rate"
        );
        let len = waveforms.iter().map(|w| w.len()).max().expect("non-empty");
        let norm = 1.0 / (self.lanes() as f64).sqrt();
        let mut i_out = vec![0.0; len];
        let mut q_out = vec![0.0; len];
        for (wf, &f_mhz) in waveforms.iter().zip(&self.offsets_mhz) {
            // Phase advance per sample: 2 pi f / fs (f in GHz-compatible units).
            let w = 2.0 * std::f64::consts::PI * (f_mhz * 1e-3) / rate;
            for t in 0..wf.len() {
                let (s, c) = (w * t as f64).sin_cos();
                let (iv, qv) = (wf.i()[t], wf.q()[t]);
                i_out[t] += norm * (iv * c - qv * s);
                q_out[t] += norm * (iv * s + qv * c);
            }
        }
        Waveform::new(format!("fdm[{}]", self.lanes()), i_out, q_out, rate)
    }

    /// Waveform-memory read bandwidth this group demands while all lanes
    /// play concurrently, in GB/s: each lane streams its own envelope
    /// before mixing (`lanes * fs * Ns`).
    pub fn memory_bandwidth_gb(&self, sample_rate_gs: f64, sample_bits: u32) -> f64 {
        self.lanes() as f64 * sample_rate_gs * f64::from(sample_bits) / 8.0
    }

    /// DAC output bandwidth (one channel regardless of lane count).
    pub fn dac_bandwidth_gb(&self, sample_rate_gs: f64, sample_bits: u32) -> f64 {
        sample_rate_gs * f64::from(sample_bits) / 8.0
    }
}

/// Single-bin DFT magnitude (Goertzel-style) used to verify lane
/// placement in tests and examples.
pub fn tone_magnitude(waveform: &Waveform, freq_mhz: f64) -> f64 {
    let w = 2.0 * std::f64::consts::PI * (freq_mhz * 1e-3) / waveform.sample_rate_gs();
    let (mut re, mut im) = (0.0f64, 0.0f64);
    for t in 0..waveform.len() {
        let (s, c) = (w * t as f64).sin_cos();
        // Project the complex envelope onto e^{i w t}.
        re += waveform.i()[t] * c + waveform.q()[t] * s;
        im += waveform.q()[t] * c - waveform.i()[t] * s;
    }
    (re * re + im * im).sqrt() / waveform.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapes::{Gaussian, PulseShape};

    fn envelope(amp: f64) -> Waveform {
        Gaussian::new(454, amp, 80.0).to_waveform("g", 4.54)
    }

    #[test]
    fn single_lane_zero_offset_is_identity_up_to_norm() {
        let wf = envelope(0.5);
        let group = MuxGroup { offsets_mhz: vec![0.0] };
        let muxed = group.multiplex(&[&wf]);
        assert!(wf.mse(&muxed) < 1e-20);
    }

    #[test]
    fn lanes_land_on_their_carriers() {
        let a = envelope(0.5);
        let b = envelope(0.5);
        let group = MuxGroup { offsets_mhz: vec![-150.0, 150.0] };
        let muxed = group.multiplex(&[&a, &b]);
        let on_carrier = tone_magnitude(&muxed, 150.0);
        let off_carrier = tone_magnitude(&muxed, 450.0);
        assert!(on_carrier > 10.0 * off_carrier, "carrier {on_carrier} vs off {off_carrier}");
    }

    #[test]
    fn evenly_spaced_offsets_are_symmetric() {
        let g = MuxGroup::evenly_spaced(5, 400.0);
        assert_eq!(g.lanes(), 5);
        assert!((g.offsets_mhz[0] + 200.0).abs() < 1e-12);
        assert!((g.offsets_mhz[4] - 200.0).abs() < 1e-12);
        assert!((g.offsets_mhz[2]).abs() < 1e-12);
    }

    #[test]
    fn memory_bandwidth_scales_with_lanes_but_dac_does_not() {
        let g = MuxGroup::evenly_spaced(8, 800.0);
        let mem = g.memory_bandwidth_gb(6.0, 32);
        let dac = g.dac_bandwidth_gb(6.0, 32);
        assert!((mem / dac - 8.0).abs() < 1e-12);
    }

    #[test]
    fn mux_peak_stays_in_range() {
        let wfs: Vec<Waveform> = (0..4).map(|k| envelope(0.4 + 0.05 * k as f64)).collect();
        let refs: Vec<&Waveform> = wfs.iter().collect();
        let g = MuxGroup::evenly_spaced(4, 600.0);
        let muxed = g.multiplex(&refs);
        assert!(muxed.peak_amplitude() < 1.0, "got {}", muxed.peak_amplitude());
    }

    #[test]
    #[should_panic(expected = "one waveform per lane")]
    fn lane_count_mismatch_panics() {
        let wf = envelope(0.3);
        MuxGroup::evenly_spaced(2, 100.0).multiplex(&[&wf]);
    }
}
