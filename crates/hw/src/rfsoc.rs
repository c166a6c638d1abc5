//! RFSoC qubit-capacity model (Section V-C, Table V, Figures 5d and 17b).
//!
//! FPGA BRAMs are the scarce resource: driving one qubit channel at the
//! DAC rate needs `clock_ratio` BRAM banks uncompressed (the fabric is
//! 16x slower than the DACs on QICK). Compression shrinks the words per
//! window to a small worst case, cutting banks per channel and
//! multiplying the number of qubits one board can drive.

use compaqt_core::memory::banks_per_channel;
use compaqt_pulse::memory_model;
use compaqt_pulse::vendor::VendorParams;

/// An RFSoC platform description (defaults model QICK on a Xilinx
/// UltraScale+ RFSoC).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RfsocModel {
    /// Total BRAM blocks on the device.
    pub bram_count: usize,
    /// BRAMs consumed by non-waveform system logic (AXI, sequencer...).
    pub system_brams: usize,
    /// DAC-to-fabric clock ratio (16 on QICK).
    pub clock_ratio: usize,
    /// Channels per qubit (I and Q).
    pub channels_per_qubit: usize,
    /// Baseline fabric clock in MHz.
    pub fabric_clock_mhz: f64,
}

impl Default for RfsocModel {
    fn default() -> Self {
        RfsocModel {
            bram_count: 1260,
            system_brams: 108,
            clock_ratio: 16,
            channels_per_qubit: 2,
            fabric_clock_mhz: 294.0,
        }
    }
}

impl RfsocModel {
    /// BRAM banks needed per qubit for a memory storing `words_per_window`
    /// words per `ws`-sample window (uncompressed: `words == ws`).
    pub fn banks_per_qubit(&self, words_per_window: usize, ws: usize) -> usize {
        self.channels_per_qubit * banks_per_channel(self.clock_ratio, words_per_window, ws)
    }

    /// Number of qubits the board can drive concurrently at full DAC rate.
    pub fn qubits_supported(&self, words_per_window: usize, ws: usize) -> usize {
        let available = self.bram_count.saturating_sub(self.system_brams);
        available / self.banks_per_qubit(words_per_window, ws).max(1)
    }

    /// Qubits supported with uncompressed waveform memory (the QICK
    /// baseline: ~36 on the reference device).
    pub fn qubits_uncompressed(&self) -> usize {
        self.qubits_supported(16, 16)
    }

    /// Qubit-count gain over the uncompressed baseline for a compressed
    /// design (Table V: 2.66x for WS=8, 5.33x for WS=16 at the Figure 11
    /// worst case of 3 words/window).
    pub fn gain(&self, words_per_window: usize, ws: usize) -> f64 {
        self.qubits_supported(words_per_window, ws) as f64
            / self.qubits_uncompressed().max(1) as f64
    }

    /// Figure 5d: maximum qubits if only *capacity* constrained.
    pub fn qubits_by_capacity(&self, params: &VendorParams) -> usize {
        memory_model::rfsoc_qubits_by_capacity(params)
    }

    /// Figure 5d: maximum qubits if *bandwidth* constrained (the binding
    /// constraint; < 40 on the reference RFSoC).
    pub fn qubits_by_bandwidth(&self) -> usize {
        memory_model::rfsoc_qubits_by_bandwidth()
    }

    /// Figure 17b: logical qubits supported, given the physical qubits of
    /// one code patch.
    pub fn logical_qubits(&self, words_per_window: usize, ws: usize, patch_qubits: usize) -> usize {
        self.qubits_supported(words_per_window, ws) / patch_qubits.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compaqt_pulse::vendor::Vendor;

    #[test]
    fn baseline_matches_qick_36_qubits() {
        let m = RfsocModel::default();
        assert_eq!(m.qubits_uncompressed(), 36);
    }

    #[test]
    fn compressed_counts_match_section_v() {
        // "Using COMPAQT with WS=8, number of qubits can be increased to
        // about 95 qubits, and for WS=16, we can drive 191 qubits".
        let m = RfsocModel::default();
        let q8 = m.qubits_supported(3, 8);
        let q16 = m.qubits_supported(3, 16);
        assert!((90..=100).contains(&q8), "WS=8 got {q8}");
        assert!((185..=200).contains(&q16), "WS=16 got {q16}");
    }

    #[test]
    fn gains_match_table_v() {
        let m = RfsocModel::default();
        assert!((m.gain(3, 8) - 2.66).abs() < 0.1, "got {}", m.gain(3, 8));
        assert!((m.gain(3, 16) - 5.33).abs() < 0.1, "got {}", m.gain(3, 16));
    }

    #[test]
    fn non_multiple_ratio_gains_less() {
        // Section V-C's example: ratio 6 with WS=8 gives only 2x.
        let m = RfsocModel { clock_ratio: 6, ..RfsocModel::default() };
        let gain = m.gain(3, 8);
        assert!((1.8..=2.2).contains(&gain), "got {gain}");
    }

    #[test]
    fn figure_5d_shapes() {
        let m = RfsocModel::default();
        let by_cap = m.qubits_by_capacity(&Vendor::Ibm.params());
        let by_bw = m.qubits_by_bandwidth();
        assert!(by_cap > 200, "capacity allows >200, got {by_cap}");
        assert!(by_bw < 40, "bandwidth limits to <40, got {by_bw}");
        // The "5x drop" headline.
        let drop = by_cap as f64 / by_bw as f64;
        assert!(drop > 4.0, "got {drop}");
    }

    #[test]
    fn logical_qubit_scaling_matches_figure_17b() {
        let m = RfsocModel::default();
        // distance-3 rotated patches (17 qubits each).
        let base = m.logical_qubits(16, 16, 17);
        let ws16 = m.logical_qubits(3, 16, 17);
        assert_eq!(base, 2);
        assert!(ws16 >= 10, "got {ws16}");
        // "COMPAQT can control 5x more logical qubits".
        assert!(ws16 / base.max(1) >= 5);
    }

    #[test]
    fn system_brams_reduce_capacity() {
        let lean = RfsocModel { system_brams: 0, ..RfsocModel::default() };
        assert!(lean.qubits_uncompressed() > RfsocModel::default().qubits_uncompressed());
    }
}
