//! Cryogenic ASIC power model (Section VII-D, Figures 18 and 19).
//!
//! Substitutes Destiny/CACTI + Synopsys DC with an analytical model:
//! SRAM dynamic energy per access grows with the square root of capacity
//! (wordline/bitline scaling) over a fixed periphery floor, leakage grows
//! linearly with capacity, and engine power follows its operator counts.
//! Calibrated so the uncompressed one-qubit controller dissipates the
//! paper's ~14 mW of memory power next to a 2 mW DAC.

use compaqt_dsp::csd::EngineResources;

/// Reference capacity: the 18 KB per-qubit library of Table I.
pub const REFERENCE_CAPACITY_BYTES: f64 = 18.0 * 1024.0;

/// The cryogenic controller power model (one qubit's control slice).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CryoPowerModel {
    /// DAC power in mW (the paper adds 2 mW as a reference).
    pub dac_mw: f64,
    /// Capacity-independent memory periphery power (clocking, address
    /// generation, sense-amp bias) in mW while the memory is active.
    pub periphery_mw: f64,
    /// SRAM periphery energy floor per 16-bit access, in pJ.
    pub sram_floor_pj: f64,
    /// SRAM array energy per access at the reference capacity, in pJ.
    pub sram_array_pj: f64,
    /// SRAM leakage in mW per KB.
    pub leakage_mw_per_kb: f64,
    /// Energy per 16-bit adder operation, in pJ (40nm class).
    pub adder_pj: f64,
    /// Energy per shifter operation (wiring + mux), in pJ.
    pub shifter_pj: f64,
    /// Energy per 16-bit multiplier operation, in pJ.
    pub multiplier_pj: f64,
    /// DAC sample rate in GS/s (word rate per channel).
    pub sample_rate_gs: f64,
    /// Channels per qubit.
    pub channels: usize,
}

impl Default for CryoPowerModel {
    fn default() -> Self {
        CryoPowerModel {
            dac_mw: 2.0,
            periphery_mw: 2.2,
            sram_floor_pj: 0.40,
            sram_array_pj: 0.85,
            leakage_mw_per_kb: 0.035,
            adder_pj: 0.010,
            shifter_pj: 0.001,
            multiplier_pj: 0.15,
            sample_rate_gs: 4.54,
            channels: 2,
        }
    }
}

/// A power breakdown for one controller design (one Figure 18/19 bar).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBreakdown {
    /// DAC power in mW.
    pub dac_mw: f64,
    /// Waveform-memory power in mW.
    pub memory_mw: f64,
    /// IDCT engine power in mW.
    pub idct_mw: f64,
}

impl PowerBreakdown {
    /// Total power.
    pub fn total_mw(&self) -> f64 {
        self.dac_mw + self.memory_mw + self.idct_mw
    }
}

/// A controller design point for the power sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CryoDesign {
    /// Uncompressed waveform memory at the reference capacity.
    Uncompressed,
    /// COMPAQT with a windowed integer DCT.
    Compressed {
        /// Window size.
        ws: usize,
        /// Average stored words per window (from compression stats; the
        /// ASIC fetches sequentially so the average, not the worst case,
        /// sets the access rate — Section VII-D).
        avg_words_per_window: f64,
        /// Capacity compression ratio of the library.
        capacity_ratio: f64,
    },
    /// COMPAQT with adaptive (IDCT-bypass) decompression of flat-tops.
    Adaptive {
        /// Window size.
        ws: usize,
        /// Average stored words per window in the DCT-coded ramps.
        avg_words_per_window: f64,
        /// Capacity compression ratio.
        capacity_ratio: f64,
        /// Fraction of output samples produced by the bypass path.
        bypass_fraction: f64,
    },
}

impl CryoPowerModel {
    /// Dynamic SRAM energy per 16-bit access for a given capacity.
    pub fn sram_access_pj(&self, capacity_bytes: f64) -> f64 {
        self.sram_floor_pj + self.sram_array_pj * (capacity_bytes / REFERENCE_CAPACITY_BYTES).sqrt()
    }

    /// Memory power for a given capacity and access rate (16-bit words
    /// per second, in GHz). `active_fraction` scales the dynamic and
    /// periphery components for duty-cycled memories (the adaptive
    /// bypass idles both; leakage never sleeps).
    pub fn memory_power_mw(
        &self,
        capacity_bytes: f64,
        access_rate_ghz: f64,
        active_fraction: f64,
    ) -> f64 {
        let dynamic = access_rate_ghz * self.sram_access_pj(capacity_bytes);
        let leakage = self.leakage_mw_per_kb * capacity_bytes / 1024.0;
        (dynamic + self.periphery_mw) * active_fraction.clamp(0.0, 1.0) + leakage
    }

    /// IDCT engine power at a given window rate (window evaluations per
    /// second, in GHz).
    pub fn idct_power_mw(&self, res: &EngineResources, window_rate_ghz: f64) -> f64 {
        let per_window = res.adders as f64 * self.adder_pj
            + res.shifters as f64 * self.shifter_pj
            + res.multipliers as f64 * self.multiplier_pj;
        window_rate_ghz * per_window
    }

    /// Full breakdown for a design point (one bar of Figures 18/19).
    pub fn breakdown(&self, design: &CryoDesign) -> PowerBreakdown {
        let word_rate_ghz = self.sample_rate_gs * self.channels as f64;
        match *design {
            CryoDesign::Uncompressed => PowerBreakdown {
                dac_mw: self.dac_mw,
                memory_mw: self.memory_power_mw(REFERENCE_CAPACITY_BYTES, word_rate_ghz, 1.0),
                idct_mw: 0.0,
            },
            CryoDesign::Compressed { ws, avg_words_per_window, capacity_ratio } => {
                let capacity = REFERENCE_CAPACITY_BYTES / capacity_ratio.max(1.0);
                let access_rate = word_rate_ghz * avg_words_per_window / ws as f64;
                let window_rate = word_rate_ghz / ws as f64;
                PowerBreakdown {
                    dac_mw: self.dac_mw,
                    memory_mw: self.memory_power_mw(capacity, access_rate, 1.0),
                    idct_mw: self.idct_power_mw(&EngineResources::int_dct_w(ws), window_rate),
                }
            }
            CryoDesign::Adaptive { ws, avg_words_per_window, capacity_ratio, bypass_fraction } => {
                let active = 1.0 - bypass_fraction;
                let capacity = REFERENCE_CAPACITY_BYTES / capacity_ratio.max(1.0);
                let access_rate = word_rate_ghz * avg_words_per_window / ws as f64;
                let window_rate = word_rate_ghz / ws as f64 * active;
                PowerBreakdown {
                    dac_mw: self.dac_mw,
                    memory_mw: self.memory_power_mw(capacity, access_rate, active),
                    idct_mw: self.idct_power_mw(&EngineResources::int_dct_w(ws), window_rate),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compressed(ws: usize) -> CryoDesign {
        // Typical library stats: ~2.3 stored words per window, ~6x capacity.
        CryoDesign::Compressed { ws, avg_words_per_window: 2.3, capacity_ratio: 6.0 }
    }

    #[test]
    fn uncompressed_memory_dominates() {
        // Figure 18: memory is ~14 mW next to the 2 mW DAC.
        let m = CryoPowerModel::default();
        let b = m.breakdown(&CryoDesign::Uncompressed);
        assert!((10.0..18.0).contains(&b.memory_mw), "got {}", b.memory_mw);
        assert_eq!(b.dac_mw, 2.0);
        assert_eq!(b.idct_mw, 0.0);
    }

    #[test]
    fn compression_reduces_memory_power_at_least_2_5x() {
        let m = CryoPowerModel::default();
        let base = m.breakdown(&CryoDesign::Uncompressed);
        for ws in [8, 16] {
            let comp = m.breakdown(&compressed(ws));
            let reduction = base.memory_mw / comp.memory_mw;
            assert!(reduction > 2.5, "ws={ws}: memory reduction {reduction}");
        }
    }

    #[test]
    fn idct_overhead_does_not_eat_the_savings() {
        // "the overhead of using the IDCT engine does not overshadow the
        // decrease in memory power".
        let m = CryoPowerModel::default();
        let base = m.breakdown(&CryoDesign::Uncompressed);
        let comp = m.breakdown(&compressed(16));
        assert!(comp.idct_mw < base.memory_mw / 4.0);
        assert!(comp.total_mw() < base.total_mw() / 1.8, "total {}", comp.total_mw());
    }

    #[test]
    fn adaptive_gives_further_savings() {
        // Figure 19: a 100ns flat-top with ~80% plateau bypass yields ~4x
        // total reduction.
        let m = CryoPowerModel::default();
        let base = m.breakdown(&CryoDesign::Uncompressed);
        let adaptive = m.breakdown(&CryoDesign::Adaptive {
            ws: 8,
            avg_words_per_window: 2.3,
            capacity_ratio: 6.0,
            bypass_fraction: 0.8,
        });
        let plain = m.breakdown(&compressed(8));
        assert!(adaptive.total_mw() < plain.total_mw());
        let reduction = base.total_mw() / adaptive.total_mw();
        assert!(reduction > 3.0, "got {reduction}");
    }

    #[test]
    fn access_energy_grows_with_capacity() {
        let m = CryoPowerModel::default();
        assert!(m.sram_access_pj(32.0 * 1024.0) > m.sram_access_pj(2.0 * 1024.0));
    }

    #[test]
    fn larger_windows_need_fewer_accesses() {
        let m = CryoPowerModel::default();
        let p8 = m.breakdown(&compressed(8));
        let p16 = m.breakdown(&compressed(16));
        assert!(p16.memory_mw < p8.memory_mw);
    }

    #[test]
    fn bypass_scales_memory_power_down() {
        let m = CryoPowerModel::default();
        let no_bypass = m.breakdown(&CryoDesign::Adaptive {
            ws: 8,
            avg_words_per_window: 2.3,
            capacity_ratio: 6.0,
            bypass_fraction: 0.0,
        });
        let plain = m.breakdown(&compressed(8));
        assert!((no_bypass.memory_mw - plain.memory_mw).abs() < 1e-12);
    }
}
