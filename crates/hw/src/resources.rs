//! FPGA resource estimation (Table VIII).
//!
//! Substitutes Vivado synthesis with a first-order LUT/FF model over the
//! engine's operator counts, calibrated to the paper's synthesized
//! design points on the Xilinx ZU7EV.

use compaqt_dsp::csd::EngineResources;

/// Total LUTs on the Xilinx ZU7EV used for the paper's evaluation.
pub const ZU7EV_LUTS: usize = 230_400;
/// Total flip-flops on the Xilinx ZU7EV.
pub const ZU7EV_FFS: usize = 460_800;

/// Datapath width of the decompression engine in bits.
pub const DATAPATH_BITS: usize = 16;

/// LUT/FF usage of one design block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FpgaUsage {
    /// Look-up tables.
    pub luts: usize,
    /// Flip-flops.
    pub ffs: usize,
}

impl FpgaUsage {
    /// LUT utilization as a percentage of the ZU7EV.
    pub fn lut_percent(&self) -> f64 {
        100.0 * self.luts as f64 / ZU7EV_LUTS as f64
    }

    /// FF utilization as a percentage of the ZU7EV.
    pub fn ff_percent(&self) -> f64 {
        100.0 * self.ffs as f64 / ZU7EV_FFS as f64
    }
}

/// The QICK baseline controller (one qubit, including AXI plumbing) as
/// synthesized in the paper.
pub fn baseline_qick() -> FpgaUsage {
    FpgaUsage { luts: 3386, ffs: 6448 }
}

/// Table VIII's synthesized IDCT engine numbers.
///
/// # Panics
///
/// Panics for window sizes the paper did not synthesize (8/16/32).
pub fn int_dct_paper(ws: usize) -> FpgaUsage {
    match ws {
        8 => FpgaUsage { luts: 601, ffs: 266 },
        16 => FpgaUsage { luts: 1954, ffs: 671 },
        32 => FpgaUsage { luts: 9063, ffs: 1197 },
        _ => panic!("Table VIII covers WS=8/16/32, got {ws}"),
    }
}

/// First-order LUT/FF estimate from operator counts: an n-bit
/// adder/subtractor costs ~n LUTs (carry chains pack 1 bit/LUT), constant
/// shifters are wiring, and the window buffer plus output registers
/// dominate FFs. The 0.7 LUT packing factor is calibrated against the
/// WS=8 design point.
pub fn estimate(res: &EngineResources, ws: usize) -> FpgaUsage {
    let adder_luts = (res.adders as f64 * DATAPATH_BITS as f64 * 0.7) as usize;
    // A hardware multiplier in fabric costs ~n^2/2 LUTs.
    let mult_luts = res.multipliers * DATAPATH_BITS * DATAPATH_BITS / 2;
    // Input + output window registers plus a modest control overhead.
    let ffs = 2 * ws * DATAPATH_BITS + res.adders / 2;
    FpgaUsage { luts: adder_luts + mult_luts, ffs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compaqt_dsp::csd::engine_resources;

    #[test]
    fn paper_utilization_percentages_match_table_viii() {
        // Table VIII quotes 1.4% LUT for the baseline and 0.26%/0.85%/3.93%
        // for WS=8/16/32.
        assert!((baseline_qick().lut_percent() - 1.4).abs() < 0.1);
        assert!((int_dct_paper(8).lut_percent() - 0.26).abs() < 0.02);
        assert!((int_dct_paper(16).lut_percent() - 0.85).abs() < 0.02);
        assert!((int_dct_paper(32).lut_percent() - 3.93).abs() < 0.02);
    }

    #[test]
    fn estimates_land_within_2x_of_synthesis() {
        for ws in [8, 16] {
            let est = estimate(&engine_resources(ws, false), ws);
            let paper = int_dct_paper(ws);
            let rel = est.luts as f64 / paper.luts as f64;
            assert!((0.5..2.5).contains(&rel), "ws={ws}: est {} vs paper {}", est.luts, paper.luts);
        }
    }

    #[test]
    fn ws32_is_disproportionately_expensive() {
        // The paper's conclusion: WS=32 is a sub-optimal design point
        // (>4x the LUTs of WS=16).
        let r16 = int_dct_paper(16);
        let r32 = int_dct_paper(32);
        assert!(r32.luts as f64 / r16.luts as f64 > 4.0);
    }

    #[test]
    fn engine_is_small_next_to_baseline() {
        // WS=8/16 engines use fewer LUTs than the one-qubit baseline
        // itself — the compression trade is cheap.
        assert!(int_dct_paper(8).luts < baseline_qick().luts);
        assert!(int_dct_paper(16).luts < baseline_qick().luts);
    }

    #[test]
    fn estimate_scales_with_window() {
        let e8 = estimate(&engine_resources(8, false), 8);
        let e16 = estimate(&engine_resources(16, false), 16);
        assert!(e16.luts > e8.luts);
        assert!(e16.ffs > e8.ffs);
    }
}
