//! Gate-error model for circuit and RB simulation.
//!
//! The paper evaluates fidelity on real IBM machines; we substitute a
//! standard noise model whose parameters are anchored to the paper's
//! baseline numbers (2Q RB fidelity ~0.978 -> EPC ~1.65e-2) and whose
//! *compression-dependent* part is derived from the actual waveform
//! distortion via [`crate::transmon::distortion_infidelity`] — so the
//! experiment logic is the paper's: compression can only hurt through
//! waveform distortion.

use compaqt_core::compress::Compressor;
use compaqt_pulse::library::GateKind;
use compaqt_pulse::PulseLibrary;

/// Stochastic + coherent gate-error parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Depolarizing error per single-qubit gate.
    pub epg_1q: f64,
    /// Depolarizing error per two-qubit gate.
    pub epg_2q: f64,
    /// Per-qubit readout bit-flip probability.
    pub readout_error: f64,
    /// Coherent over/under-rotation per 1Q gate (radians) caused by
    /// waveform distortion; zero for the uncompressed baseline.
    pub coherent_1q_angle: f64,
    /// Coherent error per 2Q gate (radians on the target qubit).
    pub coherent_2q_angle: f64,
}

impl NoiseModel {
    /// Baseline parameters for an IBM Falcon-class machine: 1Q EPG ~3e-4,
    /// 2Q EPG ~9e-3, readout ~1.5e-2. A two-qubit Clifford averages ~1.5
    /// CX plus several 1Q gates, reproducing the paper's ~1.65e-2 EPC.
    pub fn ibm_baseline() -> Self {
        NoiseModel {
            epg_1q: 3e-4,
            epg_2q: 9e-3,
            readout_error: 1.5e-2,
            coherent_1q_angle: 0.0,
            coherent_2q_angle: 0.0,
        }
    }

    /// A noiseless model (for ideal-distribution reference runs).
    pub fn noiseless() -> Self {
        NoiseModel {
            epg_1q: 0.0,
            epg_2q: 0.0,
            readout_error: 0.0,
            coherent_1q_angle: 0.0,
            coherent_2q_angle: 0.0,
        }
    }

    /// Adds the coherent distortion contribution of compressed waveforms.
    ///
    /// `infid_1q` / `infid_2q` are average distortion infidelities from
    /// [`crate::transmon::distortion_infidelity`]; the equivalent coherent
    /// rotation angle satisfies `infid = (2/3) sin^2(theta/2)`.
    pub fn with_distortion(mut self, infid_1q: f64, infid_2q: f64) -> Self {
        self.coherent_1q_angle = infidelity_to_angle(infid_1q);
        self.coherent_2q_angle = infidelity_to_angle(infid_2q);
        self
    }

    /// Builds the compressed-waveform noise model for a pulse library by
    /// compressing every 1Q/2Q gate waveform and averaging the
    /// distortion infidelity per class.
    ///
    /// # Errors
    ///
    /// Propagates compression errors.
    pub fn from_compression(
        baseline: NoiseModel,
        library: &PulseLibrary,
        compressor: &Compressor,
    ) -> Result<NoiseModel, compaqt_core::CompressError> {
        let mut one_q = Vec::new();
        let mut two_q = Vec::new();
        for (gate, wf) in library.iter() {
            let z = compressor.compress(wf)?;
            let back = z.decompress()?;
            match gate.kind {
                GateKind::X | GateKind::Sx | GateKind::PhasedXz => {
                    one_q.push(crate::transmon::distortion_infidelity(wf, &back));
                }
                GateKind::Cx | GateKind::Fsim | GateKind::ISwap => {
                    // Two-qubit drives evolve the effective CR Hamiltonian.
                    two_q.push(crate::transmon::distortion_infidelity_cr(wf, &back));
                }
                _ => {}
            }
        }
        let avg =
            |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };
        Ok(baseline.with_distortion(avg(&one_q), avg(&two_q)))
    }
}

/// Converts an average-gate-infidelity to the equivalent coherent
/// rotation angle: `infid = (2/3) sin^2(theta/2)`.
pub fn infidelity_to_angle(infid: f64) -> f64 {
    if infid <= 0.0 {
        return 0.0;
    }
    2.0 * (1.5 * infid).min(1.0).sqrt().asin()
}

#[cfg(test)]
mod tests {
    use super::*;
    use compaqt_core::compress::Variant;
    use compaqt_pulse::device::Device;
    use compaqt_pulse::vendor::Vendor;

    #[test]
    fn angle_conversion_round_trips() {
        for theta in [0.001, 0.01, 0.1] {
            let infid = 2.0 / 3.0 * (theta / 2.0f64).sin().powi(2);
            let back = infidelity_to_angle(infid);
            assert!((back - theta).abs() < 1e-12, "theta {theta}");
        }
        assert_eq!(infidelity_to_angle(0.0), 0.0);
    }

    #[test]
    fn baseline_has_no_coherent_error() {
        let m = NoiseModel::ibm_baseline();
        assert_eq!(m.coherent_1q_angle, 0.0);
        assert_eq!(m.coherent_2q_angle, 0.0);
        assert!(m.epg_2q > m.epg_1q);
    }

    #[test]
    fn compression_adds_small_coherent_error() {
        let device = Device::synthesize(Vendor::Ibm, 3, 0xAB);
        let lib = device.pulse_library();
        let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
        let m =
            NoiseModel::from_compression(NoiseModel::ibm_baseline(), &lib, &compressor).unwrap();
        assert!(m.coherent_1q_angle > 0.0, "distortion should be nonzero");
        // "< 0.1% fidelity degradation": angle stays well below 0.1 rad.
        assert!(m.coherent_1q_angle < 0.1, "got {}", m.coherent_1q_angle);
        // Stochastic part is untouched.
        assert_eq!(m.epg_2q, NoiseModel::ibm_baseline().epg_2q);
    }

    #[test]
    fn tighter_threshold_means_smaller_coherent_error() {
        let device = Device::synthesize(Vendor::Ibm, 2, 0xCD);
        let lib = device.pulse_library();
        let loose = Compressor::new(Variant::IntDctW { ws: 16 }).with_threshold(0.05);
        let tight = Compressor::new(Variant::IntDctW { ws: 16 }).with_threshold(0.002);
        let ml = NoiseModel::from_compression(NoiseModel::ibm_baseline(), &lib, &loose).unwrap();
        let mt = NoiseModel::from_compression(NoiseModel::ibm_baseline(), &lib, &tight).unwrap();
        assert!(
            mt.coherent_1q_angle <= ml.coherent_1q_angle,
            "tight {} vs loose {}",
            mt.coherent_1q_angle,
            ml.coherent_1q_angle
        );
    }
}
