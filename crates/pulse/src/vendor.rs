//! Control-hardware parameter sets (Table I).
//!
//! These are the per-vendor constants the paper uses to estimate waveform
//! memory capacity and bandwidth: DAC sampling rate, packed I+Q sample
//! size, gate set and latencies, and connectivity.

use crate::topology::Topology;

/// A control-hardware vendor archetype.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vendor {
    /// IBM-style fixed-frequency transmons: X/SX/CX (cross-resonance) on a
    /// heavy-hexagonal lattice, 4.54 GS/s DACs, 32-bit I+Q samples.
    Ibm,
    /// Google-style tunable transmons: fsim/iSWAP/phased-XZ on a grid,
    /// 1 GS/s DACs, 28-bit samples.
    Google,
}

impl Vendor {
    /// The Table I parameters for this vendor.
    pub fn params(&self) -> VendorParams {
        match self {
            Vendor::Ibm => VendorParams {
                vendor: *self,
                name: "IBM",
                sampling_rate_gs: 4.54,
                sample_bits: 32,
                single_qubit_gate_types: 2, // X, SX
                two_qubit_gate_types: 1,    // CX
                tau_1q_ns: 30.0,
                tau_2q_ns: 300.0,
                tau_readout_ns: 300.0,
                topology: Topology::HeavyHex,
            },
            Vendor::Google => VendorParams {
                vendor: *self,
                name: "Google",
                sampling_rate_gs: 1.0,
                sample_bits: 28,
                single_qubit_gate_types: 1, // phased XZ
                two_qubit_gate_types: 2,    // fsim, iSWAP
                tau_1q_ns: 25.0,
                tau_2q_ns: 30.0,
                tau_readout_ns: 500.0,
                topology: Topology::Grid,
            },
        }
    }
}

/// The Table I parameter set used by the capacity/bandwidth models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VendorParams {
    /// Which vendor archetype this is.
    pub vendor: Vendor,
    /// Human-readable vendor name.
    pub name: &'static str,
    /// DAC sampling rate `fs` in GS/s.
    pub sampling_rate_gs: f64,
    /// Packed I+Q sample size `Ns` in bits.
    pub sample_bits: u32,
    /// Number of distinct single-qubit gate waveforms per qubit (`nsq`).
    pub single_qubit_gate_types: usize,
    /// Number of distinct two-qubit gate waveforms per coupled pair (`ntq`).
    pub two_qubit_gate_types: usize,
    /// Single-qubit gate latency in ns.
    pub tau_1q_ns: f64,
    /// Two-qubit gate latency in ns.
    pub tau_2q_ns: f64,
    /// Readout latency in ns.
    pub tau_readout_ns: f64,
    /// Connectivity family.
    pub topology: Topology,
}

impl VendorParams {
    /// Number of DAC samples spanned by a gate of `tau_ns` nanoseconds.
    pub fn samples_for(&self, tau_ns: f64) -> usize {
        (self.sampling_rate_gs * tau_ns).round() as usize
    }

    /// Bytes needed to store one waveform of `tau_ns` nanoseconds at this
    /// vendor's sample size (`fs * Ns * tau`, the Section III MC term).
    pub fn waveform_bytes(&self, tau_ns: f64) -> f64 {
        self.samples_for(tau_ns) as f64 * f64::from(self.sample_bits) / 8.0
    }

    /// Required waveform-memory read bandwidth per driven qubit, in GB/s
    /// (`BW = fs * Ns`, Section III).
    pub fn bandwidth_per_qubit_gb(&self) -> f64 {
        self.sampling_rate_gs * f64::from(self.sample_bits) / 8.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ibm_bandwidth_exceeds_16_gb_per_qubit() {
        // Section III: "more than 16 GB/s" per qubit on IBM systems.
        let bw = Vendor::Ibm.params().bandwidth_per_qubit_gb();
        assert!(bw > 16.0 && bw < 20.0, "got {bw}");
    }

    #[test]
    fn ibm_sample_counts() {
        let p = Vendor::Ibm.params();
        assert_eq!(p.samples_for(30.0), 136);
        assert_eq!(p.samples_for(300.0), 1362);
    }

    #[test]
    fn google_params_match_table_i() {
        let p = Vendor::Google.params();
        assert_eq!(p.sample_bits, 28);
        assert_eq!(p.samples_for(25.0), 25);
        assert_eq!(p.topology, Topology::Grid);
    }

    #[test]
    fn waveform_bytes_scale_with_duration() {
        let p = Vendor::Ibm.params();
        let b1 = p.waveform_bytes(30.0);
        let b2 = p.waveform_bytes(300.0);
        assert!((b2 / b1 - 10.0).abs() < 0.2);
        // 1362 samples * 4 bytes = 5448.
        assert!((b2 - 5448.0).abs() < 1.0);
    }
}
