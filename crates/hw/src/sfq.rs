//! SFQ controller memory study (Section IX / Discussion).
//!
//! Single-flux-quantum control chips (e.g. DigiQ) run at 4 K with on-chip
//! memory limited to tens of kilobytes — far below even one qubit's 18 KB
//! waveform library at IBM-class sample rates. The paper's closing
//! insight: compressed waveform storage is what makes waveform-table
//! control plausible in that regime. This module quantifies it.

/// An SFQ control chip's waveform-memory budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SfqController {
    /// On-chip memory available for waveform storage, in KB.
    pub memory_kb: f64,
    /// Fraction of that memory usable by the waveform table (the rest
    /// holds instruction sequences).
    pub waveform_fraction: f64,
}

impl Default for SfqController {
    fn default() -> Self {
        // "tens of kilobytes": a 64 KB chip with half for waveforms.
        SfqController { memory_kb: 64.0, waveform_fraction: 0.5 }
    }
}

impl SfqController {
    /// Waveform-table bytes available.
    pub fn waveform_bytes(&self) -> f64 {
        self.memory_kb * 1024.0 * self.waveform_fraction
    }

    /// Qubits whose libraries fit, given a per-qubit library size and a
    /// compression ratio (1.0 = uncompressed).
    pub fn qubits_supported(&self, library_bytes_per_qubit: f64, compression_ratio: f64) -> usize {
        assert!(compression_ratio >= 1.0, "ratio below 1 would be expansion");
        (self.waveform_bytes() * compression_ratio / library_bytes_per_qubit).floor() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IBM_LIBRARY_BYTES: f64 = 18.0 * 1024.0;

    #[test]
    fn uncompressed_sfq_barely_fits_one_qubit() {
        let chip = SfqController::default();
        assert_eq!(chip.qubits_supported(IBM_LIBRARY_BYTES, 1.0), 1);
    }

    #[test]
    fn compression_makes_sfq_control_plausible() {
        // Table VII average ratio ~6.5 turns 1 qubit into 11.
        let chip = SfqController::default();
        let n = chip.qubits_supported(IBM_LIBRARY_BYTES, 6.5);
        assert!(n >= 10, "got {n}");
    }

    #[test]
    fn qubits_scale_linearly_with_ratio() {
        let chip = SfqController::default();
        let base = chip.qubits_supported(IBM_LIBRARY_BYTES, 1.0);
        let comp = chip.qubits_supported(IBM_LIBRARY_BYTES, 5.0);
        assert!(comp >= 5 * base);
    }

    #[test]
    #[should_panic(expected = "expansion")]
    fn sub_unity_ratio_rejected() {
        SfqController::default().qubits_supported(IBM_LIBRARY_BYTES, 0.5);
    }
}
