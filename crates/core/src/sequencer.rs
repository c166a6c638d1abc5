//! The COMPAQT controller: pulse sequencer, instruction buffer, waveform
//! table and per-channel decompression engines (Figure 6).
//!
//! The sequencer triggers gates at scheduled times; each active gate
//! streams its waveform's windows from the banked compressed memory
//! through a decompression engine to the DAC. The controller has a finite
//! bank budget, so only so many channels can stream concurrently — this
//! module turns the static Table V arithmetic into a dynamic simulation:
//! load a real library, play a real schedule, and observe whether the
//! memory system keeps up (Figure 2c's "5x more concurrent gates").

use crate::compress::{CompressedWaveform, Compressor};
use crate::engine::{DecodeScratch, DecompressionEngine};
use crate::memory::{banks_per_channel, BankedMemory, ChannelHandle};
use crate::CompressError;
use compaqt_pulse::library::{GateId, PulseLibrary};
use std::collections::HashMap;
use std::fmt;

/// Static configuration of a controller's waveform-memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControllerConfig {
    /// Total memory banks available for waveform streaming.
    pub total_banks: usize,
    /// DAC-to-fabric clock ratio (16 on QICK).
    pub clock_ratio: usize,
    /// Transform window size (= samples produced per engine fire).
    pub window: usize,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        // QICK-class: 1260 BRAMs minus system overhead.
        ControllerConfig { total_banks: 1152, clock_ratio: 16, window: 16 }
    }
}

/// One sequencer instruction: fire a gate's waveform at a start time.
#[derive(Debug, Clone, PartialEq)]
pub struct Instruction {
    /// Which waveform to play.
    pub gate: GateId,
    /// Start time in nanoseconds.
    pub start_ns: f64,
}

/// A waveform's residency in the controller: its two channel handles,
/// stream metadata and the compressed stream the engine decodes.
#[derive(Debug, Clone, PartialEq)]
struct Residency {
    i: ChannelHandle,
    q: ChannelHandle,
    n_samples: usize,
    duration_ns: f64,
    banks_needed: usize,
    stream: CompressedWaveform,
}

/// Outcome of playing a schedule on the controller.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunReport {
    /// Gates issued.
    pub instructions: usize,
    /// Peak banks demanded by concurrently streaming channels.
    pub peak_banks_demanded: usize,
    /// Peak concurrent gates.
    pub peak_concurrent_gates: usize,
    /// Time (ns) during which demand exceeded the bank budget.
    pub oversubscribed_ns: f64,
    /// Total schedule duration in ns.
    pub makespan_ns: f64,
    /// DAC samples streamed (both channels).
    pub samples_streamed: usize,
    /// Memory words fetched.
    pub words_fetched: usize,
}

impl RunReport {
    /// True if the memory system sustained the schedule with no
    /// oversubscription.
    pub fn sustained(&self) -> bool {
        self.oversubscribed_ns == 0.0
    }

    /// Effective bandwidth expansion achieved (samples per word).
    pub fn bandwidth_expansion(&self) -> f64 {
        if self.words_fetched == 0 {
            f64::INFINITY
        } else {
            self.samples_streamed as f64 / self.words_fetched as f64
        }
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} instr, peak {} gates / {} banks, oversubscribed {:.0} ns of {:.0} ns, {:.2}x expansion",
            self.instructions,
            self.peak_concurrent_gates,
            self.peak_banks_demanded,
            self.oversubscribed_ns,
            self.makespan_ns,
            self.bandwidth_expansion()
        )
    }
}

/// A loaded controller: compressed waveform memory plus the waveform
/// table mapping gates to bank groups.
#[derive(Debug)]
pub struct Controller {
    config: ControllerConfig,
    memory: BankedMemory,
    table: HashMap<GateId, Residency>,
    engine: &'static DecompressionEngine,
}

impl Controller {
    /// Compresses and loads a whole pulse library.
    ///
    /// # Errors
    ///
    /// Propagates compression errors; returns
    /// [`CompressError::NotWindowed`] if the compressor's variant is not
    /// windowed (the streaming model needs fixed windows).
    pub fn load(
        config: ControllerConfig,
        library: &PulseLibrary,
        compressor: &Compressor,
    ) -> Result<Self, CompressError> {
        let variant = compressor.variant();
        let ws = variant.window_size().ok_or(CompressError::NotWindowed(variant))?;
        let engine = DecompressionEngine::shared(variant)?;
        let mut memory = BankedMemory::new();
        let mut table = HashMap::new();
        for (gate, wf) in library.iter() {
            let z = compressor.compress(wf)?;
            let (hi, hq) = memory.store(&z);
            let words = hi.banks.max(hq.banks);
            table.insert(
                gate.clone(),
                Residency {
                    i: hi,
                    q: hq,
                    n_samples: z.n_samples,
                    duration_ns: z.n_samples as f64 / z.sample_rate_gs,
                    banks_needed: 2 * banks_per_channel(config.clock_ratio, words, ws),
                    stream: z,
                },
            );
        }
        Ok(Controller { config, memory, table, engine })
    }

    /// The configuration.
    pub fn config(&self) -> ControllerConfig {
        self.config
    }

    /// Number of waveforms resident.
    pub fn waveform_count(&self) -> usize {
        self.table.len()
    }

    /// Total stored bits in the banked memory.
    pub fn stored_bits(&self) -> usize {
        self.memory.stored_bits()
    }

    /// Banks a gate's streaming occupies while active.
    ///
    /// # Panics
    ///
    /// Panics if the gate is not resident.
    pub fn banks_for(&self, gate: &GateId) -> usize {
        self.table[gate].banks_needed
    }

    /// Maximum gates of uniform bank cost `b` the controller can stream
    /// concurrently.
    pub fn concurrency_limit(&self, banks_per_gate: usize) -> usize {
        self.config.total_banks / banks_per_gate.max(1)
    }

    /// Plays an instruction stream: checks bank occupancy over time and
    /// streams every waveform through the decompression engine
    /// (bit-exactness is asserted upstream; here we account traffic).
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::NotResident`] if an instruction references
    /// a gate that was never loaded, or a decode error if a stream is
    /// malformed.
    pub fn play(&self, instructions: &[Instruction]) -> Result<RunReport, CompressError> {
        // Bank-occupancy sweep.
        let mut events: Vec<(f64, i64, i64)> = Vec::new();
        let mut report = RunReport { instructions: instructions.len(), ..RunReport::default() };
        // One engine's buffers, reused by every instruction.
        let mut scratch = DecodeScratch::new();
        let (mut i, mut q) = (Vec::new(), Vec::new());
        for instr in instructions {
            let res = self
                .table
                .get(&instr.gate)
                .ok_or_else(|| CompressError::NotResident(instr.gate.clone()))?;
            events.push((instr.start_ns, res.banks_needed as i64, 1));
            events.push((instr.start_ns + res.duration_ns, -(res.banks_needed as i64), -1));
            report.makespan_ns = report.makespan_ns.max(instr.start_ns + res.duration_ns);

            // Stream the waveform through the engine (traffic accounting).
            let stats = self.engine.decompress_into(&res.stream, &mut scratch, &mut i, &mut q)?;
            report.samples_streamed += stats.output_samples;
            report.words_fetched += stats.memory_words_read;
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut banks = 0i64;
        let mut gates = 0i64;
        let mut last_t = 0.0;
        for (t, db, dg) in events {
            if banks > self.config.total_banks as i64 {
                report.oversubscribed_ns += t - last_t;
            }
            last_t = t;
            banks += db;
            gates += dg;
            report.peak_banks_demanded = report.peak_banks_demanded.max(banks.max(0) as usize);
            report.peak_concurrent_gates = report.peak_concurrent_gates.max(gates.max(0) as usize);
        }
        Ok(report)
    }
}

/// Converts a scheduled circuit (from `compaqt-quantum`'s ASAP scheduler,
/// or any `(gate, start)` list) into sequencer instructions against a
/// device's gate naming.
pub fn instructions_from_pairs(pairs: impl IntoIterator<Item = (GateId, f64)>) -> Vec<Instruction> {
    pairs.into_iter().map(|(gate, start_ns)| Instruction { gate, start_ns }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::Variant;
    use compaqt_pulse::device::Device;
    use compaqt_pulse::library::GateKind;
    use compaqt_pulse::vendor::Vendor;

    fn controller(ws: usize, cap: usize) -> (Controller, PulseLibrary) {
        let device = Device::synthesize(Vendor::Ibm, 5, 0x5EC);
        let lib = (*device.pulse_library()).clone();
        let compressor = Compressor::new(Variant::IntDctW { ws }).with_max_window_words(cap);
        let c = Controller::load(
            ControllerConfig { total_banks: 1152, clock_ratio: 16, window: ws },
            &lib,
            &compressor,
        )
        .unwrap();
        (c, lib)
    }

    #[test]
    fn library_loads_and_is_resident() {
        let (c, lib) = controller(16, 3);
        assert_eq!(c.waveform_count(), lib.len());
        assert!(c.stored_bits() > 0);
    }

    #[test]
    fn compressed_gates_need_three_banks_per_channel() {
        let (c, lib) = controller(16, 3);
        let (gate, _) = lib.iter().next().unwrap();
        // WS=16, worst 3 words, ratio 16 -> 3 banks per channel, 2 channels.
        assert_eq!(c.banks_for(gate), 6);
    }

    #[test]
    fn concurrent_x_gates_fit_within_budget() {
        let (c, lib) = controller(16, 3);
        // Fire X on every qubit simultaneously.
        let instrs: Vec<Instruction> = lib
            .of_kind(&GateKind::X)
            .map(|(gate, _)| Instruction { gate: gate.clone(), start_ns: 0.0 })
            .collect();
        let report = c.play(&instrs).unwrap();
        assert_eq!(report.peak_concurrent_gates, 5);
        assert!(report.sustained());
        assert!(report.bandwidth_expansion() > 3.0);
    }

    #[test]
    fn oversubscription_is_detected() {
        // A tiny controller that can stream only one gate at a time.
        let device = Device::synthesize(Vendor::Ibm, 3, 0x0B5);
        let lib = (*device.pulse_library()).clone();
        let compressor = Compressor::new(Variant::IntDctW { ws: 16 }).with_max_window_words(3);
        let c = Controller::load(
            ControllerConfig { total_banks: 6, clock_ratio: 16, window: 16 },
            &lib,
            &compressor,
        )
        .unwrap();
        let instrs: Vec<Instruction> = lib
            .of_kind(&GateKind::X)
            .map(|(gate, _)| Instruction { gate: gate.clone(), start_ns: 0.0 })
            .collect();
        let report = c.play(&instrs).unwrap();
        assert!(!report.sustained(), "3 concurrent gates cannot fit in 6 banks");
        assert!(report.oversubscribed_ns > 0.0);
    }

    #[test]
    fn serial_gates_never_oversubscribe() {
        let (c, lib) = controller(16, 3);
        let mut t = 0.0;
        let mut instrs = Vec::new();
        for (gate, wf) in lib.of_kind(&GateKind::X) {
            instrs.push(Instruction { gate: gate.clone(), start_ns: t });
            t += wf.duration_ns() + 1.0;
        }
        let report = c.play(&instrs).unwrap();
        assert_eq!(report.peak_concurrent_gates, 1);
        assert!(report.sustained());
    }

    #[test]
    fn unknown_gate_is_an_error() {
        let (c, _) = controller(16, 3);
        let bogus = Instruction {
            gate: GateId::single(GateKind::Custom("nope".into()), 99),
            start_ns: 0.0,
        };
        let err = c.play(std::slice::from_ref(&bogus)).unwrap_err();
        assert_eq!(err, CompressError::NotResident(bogus.gate));
        assert!(err.to_string().contains("not resident"), "{err}");
    }

    #[test]
    fn non_windowed_variants_are_rejected_by_name() {
        let lib = (*Device::synthesize(Vendor::Ibm, 2, 0x5EC).pulse_library()).clone();
        let config = ControllerConfig { total_banks: 1152, clock_ratio: 16, window: 16 };
        for variant in [Variant::Delta, Variant::DctN] {
            let err = Controller::load(config, &lib, &Compressor::new(variant)).unwrap_err();
            assert_eq!(err, CompressError::NotWindowed(variant));
            let msg = err.to_string();
            assert!(msg.contains("windowed variant") && msg.contains(&variant.label()), "{msg}");
        }
    }

    #[test]
    fn instructions_from_pairs_preserves_order_and_times() {
        let pairs =
            vec![(GateId::single(GateKind::X, 0), 0.0), (GateId::single(GateKind::Sx, 1), 30.0)];
        let instrs = instructions_from_pairs(pairs);
        assert_eq!(instrs.len(), 2);
        assert_eq!(instrs[0].start_ns, 0.0);
        assert_eq!(instrs[1].start_ns, 30.0);
        assert_eq!(instrs[1].gate, GateId::single(GateKind::Sx, 1));
    }

    #[test]
    fn play_reports_traffic_for_every_instruction() {
        let (c, lib) = controller(16, 3);
        let (gate, wf) = lib.iter().next().unwrap();
        let instrs = vec![
            Instruction { gate: gate.clone(), start_ns: 0.0 },
            Instruction { gate: gate.clone(), start_ns: 1000.0 },
        ];
        let report = c.play(&instrs).unwrap();
        assert_eq!(report.instructions, 2);
        assert_eq!(report.samples_streamed, 2 * 2 * wf.len());
        assert!(report.words_fetched > 0);
    }

    #[test]
    fn concurrency_limit_matches_table_v() {
        let (c, _) = controller(16, 3);
        // 1152 banks / 6 banks-per-gate = 192 concurrent 1Q gates.
        assert_eq!(c.concurrency_limit(6), 192);
        // Uncompressed: 32 banks per gate -> 36.
        assert_eq!(c.concurrency_limit(32), 36);
    }
}
