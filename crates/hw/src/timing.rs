//! Clock-frequency degradation model (Figure 16).
//!
//! Inserting the decompression engine into the waveform path lengthens
//! the critical path. The multiplier-based `DCT-W` engine costs ~33% of
//! the baseline frequency even pipelined; the shift-add `int-DCT-W`
//! engines cost 8-17% unpipelined (and can be pipelined to zero cost,
//! Section VII-C).

use compaqt_core::compress::Variant;

/// Structural delay model in nanoseconds (40nm-class FPGA fabric,
/// calibrated to the paper's 294 MHz QICK baseline).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingModel {
    /// Baseline critical path (1 / 294 MHz).
    pub base_path_ns: f64,
    /// Delay of one carry-chain adder level.
    pub adder_level_ns: f64,
    /// Delay of a 16-bit fabric multiplier.
    pub multiplier_ns: f64,
}

impl Default for TimingModel {
    fn default() -> Self {
        TimingModel { base_path_ns: 3.4, adder_level_ns: 0.105, multiplier_ns: 1.7 }
    }
}

/// A decompression-engine design point for timing analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineDesign {
    /// Which transform the engine implements.
    pub variant: Variant,
    /// Whether the engine is pipelined (registers between stages).
    pub pipelined: bool,
}

impl TimingModel {
    /// Baseline fabric frequency in MHz.
    pub fn baseline_mhz(&self) -> f64 {
        1000.0 / self.base_path_ns
    }

    /// Extra combinational delay the engine inserts into the clock path.
    pub fn engine_delay_ns(&self, design: &EngineDesign) -> f64 {
        let ws = design.variant.window_size().unwrap_or(8);
        // Adder-tree depth of an N-point partial butterfly: one CSD
        // shift-add chain (~2 levels) plus the accumulation tree.
        let tree_levels = 2 + (ws as f64 / 2.0).log2().ceil() as usize;
        match design.variant {
            Variant::DctW { .. } => {
                // One multiplier plus the accumulation tree dominates.
                let full = self.multiplier_ns + tree_levels as f64 * self.adder_level_ns;
                if design.pipelined {
                    // Pipelining splits it, but the multiplier stage still
                    // limits the clock.
                    self.multiplier_ns
                } else {
                    full
                }
            }
            Variant::IntDctW { .. } => {
                let full = tree_levels as f64 * self.adder_level_ns;
                if design.pipelined {
                    0.0
                } else {
                    full
                }
            }
            _ => 0.0,
        }
    }

    /// Maximum clock frequency with the engine inserted, in MHz.
    pub fn max_frequency_mhz(&self, design: &EngineDesign) -> f64 {
        1000.0 / (self.base_path_ns + self.engine_delay_ns(design))
    }

    /// Frequency normalized to the baseline (the Figure 16 bars).
    pub fn normalized_frequency(&self, design: &EngineDesign) -> f64 {
        self.max_frequency_mhz(design) / self.baseline_mhz()
    }
}

/// The paper's Figure 16 normalized frequencies.
pub fn figure_16_paper(variant: Variant, pipelined: bool) -> f64 {
    match (variant, pipelined) {
        (Variant::DctW { ws: 8 }, true) => 0.67,
        (Variant::IntDctW { ws: 8 }, false) => 0.92,
        (Variant::IntDctW { ws: 16 }, false) => 0.90,
        (Variant::IntDctW { ws: 32 }, false) => 0.83,
        _ => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_design(ws: usize) -> EngineDesign {
        EngineDesign { variant: Variant::IntDctW { ws }, pipelined: false }
    }

    #[test]
    fn baseline_is_294_mhz() {
        let m = TimingModel::default();
        assert!((m.baseline_mhz() - 294.0).abs() < 1.0);
    }

    #[test]
    fn int_dct_degradation_is_at_most_17_percent() {
        // Section VII-C: "worst-case degradation of 10%" for WS=8/16;
        // WS=32 drops to 0.83.
        let m = TimingModel::default();
        for ws in [8, 16] {
            let nf = m.normalized_frequency(&int_design(ws));
            assert!((0.85..1.0).contains(&nf), "ws={ws}: {nf}");
        }
        let nf32 = m.normalized_frequency(&int_design(32));
        assert!((0.78..0.92).contains(&nf32), "ws=32: {nf32}");
    }

    #[test]
    fn dct_w_multiplier_is_much_worse() {
        let m = TimingModel::default();
        let dct_w = m.normalized_frequency(&EngineDesign {
            variant: Variant::DctW { ws: 8 },
            pipelined: true,
        });
        // Figure 16: 0.67 for the pipelined DCT-W engine.
        assert!((0.6..0.75).contains(&dct_w), "got {dct_w}");
        assert!(dct_w < m.normalized_frequency(&int_design(8)));
    }

    #[test]
    fn pipelined_int_engine_has_no_degradation() {
        let m = TimingModel::default();
        let nf = m.normalized_frequency(&EngineDesign {
            variant: Variant::IntDctW { ws: 16 },
            pipelined: true,
        });
        assert!((nf - 1.0).abs() < 1e-12);
    }

    #[test]
    fn model_tracks_paper_within_8_percent() {
        let m = TimingModel::default();
        let cases = [
            (int_design(8), figure_16_paper(Variant::IntDctW { ws: 8 }, false)),
            (int_design(16), figure_16_paper(Variant::IntDctW { ws: 16 }, false)),
            (int_design(32), figure_16_paper(Variant::IntDctW { ws: 32 }, false)),
            (
                EngineDesign { variant: Variant::DctW { ws: 8 }, pipelined: true },
                figure_16_paper(Variant::DctW { ws: 8 }, true),
            ),
        ];
        for (design, paper) in cases {
            let ours = m.normalized_frequency(&design);
            assert!(
                (ours - paper).abs() / paper < 0.08,
                "{design:?}: ours {ours} vs paper {paper}"
            );
        }
    }

    #[test]
    fn larger_windows_are_slower() {
        let m = TimingModel::default();
        assert!(m.max_frequency_mhz(&int_design(32)) < m.max_frequency_mhz(&int_design(8)));
    }
}
