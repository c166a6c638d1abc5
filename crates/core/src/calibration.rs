//! Fidelity-aware compression inside the calibration loop.
//!
//! Section IV-C: "We can take a step further and integrate the
//! Fidelity-Aware compression within the gate calibration loop." Machines
//! recalibrate every few hours; after each cycle the waveform library
//! changes and must be recompressed before it is loaded into the
//! controller. This module models that loop: apply parameter drift,
//! regenerate the library, run Algorithm 1 per waveform against a target
//! MSE, and report the outcome — demonstrating that compression adds
//! negligible time to a calibration cycle (Figure 20's conclusion).

use crate::compress::{CompressedWaveform, Compressor};
use crate::CompressError;
use compaqt_dsp::metrics::Summary;
use compaqt_pulse::device::Device;
use compaqt_pulse::library::GateId;
use std::time::Instant;

/// A fully compressed pulse library: one coded stream per gate.
pub type CompressedLibrary = Vec<(GateId, CompressedWaveform)>;

/// Result of recompressing one calibration cycle's library.
#[derive(Debug, Clone)]
pub struct CycleReport {
    /// Cycle index.
    pub cycle: usize,
    /// Waveforms recompressed.
    pub waveforms: usize,
    /// Waveforms that met the target at the default threshold.
    pub met_at_default: usize,
    /// Waveforms that needed Algorithm 1 to lower the threshold.
    pub tuned: usize,
    /// Waveforms that could not meet the target (stored uncompressed).
    pub fallback_uncompressed: usize,
    /// Min/avg/max compression ratio achieved.
    pub ratio: Summary,
    /// Wall-clock seconds spent compressing.
    pub compression_seconds: f64,
}

/// The calibration-loop model.
#[derive(Debug, Clone)]
pub struct CalibrationLoop {
    device: Device,
    compressor: Compressor,
    target_mse: f64,
    drift_magnitude: f64,
}

impl CalibrationLoop {
    /// Creates a loop around a device with a per-waveform MSE target.
    pub fn new(device: Device, compressor: Compressor, target_mse: f64) -> Self {
        CalibrationLoop { device, compressor, target_mse, drift_magnitude: 0.02 }
    }

    /// Sets the relative drift applied between cycles (default 2%).
    pub fn with_drift(mut self, magnitude: f64) -> Self {
        self.drift_magnitude = magnitude;
        self
    }

    /// Runs `cycles` calibration cycles, returning one report per cycle
    /// and the final compressed library.
    ///
    /// # Errors
    ///
    /// Propagates structural compression errors (bad window sizes); pulses
    /// that merely miss the MSE target are counted as fallbacks, not
    /// errors — the controller stores those uncompressed, as Algorithm 1
    /// prescribes (`return -1`).
    pub fn run(
        &self,
        cycles: usize,
    ) -> Result<(Vec<CycleReport>, CompressedLibrary), CompressError> {
        let mut reports = Vec::with_capacity(cycles);
        let mut final_library = Vec::new();
        let mut device = self.device.clone();
        for cycle in 0..cycles {
            device = device.with_drift(cycle as u64 + 1, self.drift_magnitude);
            let lib = device.pulse_library();
            let start = Instant::now();
            let mut met = 0usize;
            let mut tuned = 0usize;
            let mut fallback = 0usize;
            let mut ratios = Vec::with_capacity(lib.len());
            let mut compressed = Vec::with_capacity(lib.len());
            for (gate, wf) in lib.iter() {
                match self.compressor.compress_with_target(wf, self.target_mse) {
                    Ok((z, threshold)) => {
                        if (threshold - self.compressor.threshold()).abs() < f64::EPSILON {
                            met += 1;
                        } else {
                            tuned += 1;
                        }
                        ratios.push(z.ratio().ratio());
                        compressed.push((gate.clone(), z));
                    }
                    Err(CompressError::TargetUnreachable { .. }) => {
                        fallback += 1;
                        ratios.push(1.0);
                    }
                    Err(other) => return Err(other),
                }
            }
            reports.push(CycleReport {
                cycle,
                waveforms: lib.len(),
                met_at_default: met,
                tuned,
                fallback_uncompressed: fallback,
                ratio: Summary::of(ratios).expect("library is non-empty"),
                compression_seconds: start.elapsed().as_secs_f64(),
            });
            final_library = compressed;
        }
        Ok((reports, final_library))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::Variant;
    use compaqt_pulse::vendor::Vendor;

    fn small_loop(target: f64) -> CalibrationLoop {
        let device = Device::synthesize(Vendor::Ibm, 3, 0xCA1);
        let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
        CalibrationLoop::new(device, compressor, target)
    }

    #[test]
    fn cycles_produce_reports_and_library() {
        let (reports, library) = small_loop(1e-4).run(3).unwrap();
        assert_eq!(reports.len(), 3);
        assert!(!library.is_empty());
        for r in &reports {
            assert_eq!(r.waveforms, r.met_at_default + r.tuned + r.fallback_uncompressed);
            assert!(r.compression_seconds < 5.0, "compression must be fast");
        }
    }

    #[test]
    fn loose_target_needs_no_tuning() {
        let (reports, _) = small_loop(1e-3).run(1).unwrap();
        assert_eq!(reports[0].tuned, 0, "default threshold already meets 1e-3");
        assert_eq!(reports[0].fallback_uncompressed, 0);
    }

    #[test]
    fn tight_target_invokes_algorithm_1() {
        let (reports, library) = small_loop(5e-7).run(1).unwrap();
        assert!(reports[0].tuned > 0, "5e-7 forces threshold halving");
        // All compressed pulses genuinely meet the target.
        for (gate, z) in &library {
            let restored = z.decompress().unwrap();
            let lib_dev = Device::synthesize(Vendor::Ibm, 3, 0xCA1)
                .with_drift(1, 0.02)
                .pulse_library()
                .get(gate)
                .cloned();
            if let Some(orig) = lib_dev {
                assert!(orig.mse(&restored) <= 5e-7, "{gate}");
            }
        }
    }

    #[test]
    fn drift_changes_the_library_each_cycle() {
        let device = Device::synthesize(Vendor::Ibm, 2, 0xD1);
        let d1 = device.with_drift(1, 0.02);
        let d2 = d1.with_drift(2, 0.02);
        assert_ne!(d1.qubit(0).x_amp, d2.qubit(0).x_amp);
        assert_ne!(device.qubit(0).x_amp, d1.qubit(0).x_amp);
    }

    #[test]
    fn tuned_cycles_still_compress_well() {
        let (reports, _) = small_loop(1e-5).run(2).unwrap();
        for r in &reports {
            assert!(r.ratio.avg > 3.0, "cycle {}: avg ratio {}", r.cycle, r.ratio.avg);
        }
    }
}
