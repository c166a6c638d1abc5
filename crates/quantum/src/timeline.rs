//! Pulse timelines: lowering a scheduled circuit to per-qubit sample
//! streams.
//!
//! This is the last stage of the control stack (Qiskit Pulse's schedule
//! rendering): each qubit's drive channel is a timeline of waveform
//! playbacks separated by idle gaps. Rendering it validates the whole
//! chain — library waveforms, gate durations and the ASAP schedule agree
//! sample-for-sample — and gives an exact count of the samples the
//! waveform memory must deliver, cross-checking the analytic bandwidth
//! profile of [`crate::schedule`].

use crate::circuits::Op;
use crate::schedule::Schedule;
use compaqt_pulse::library::{GateId, GateKind, PulseLibrary};
use compaqt_pulse::waveform::Waveform;

/// One playback on a channel.
#[derive(Debug, Clone, PartialEq)]
pub struct Playback {
    /// Which gate's waveform plays.
    pub gate: GateId,
    /// Start sample index on the channel.
    pub start_sample: usize,
    /// Number of samples.
    pub samples: usize,
}

/// A rendered pulse timeline for every qubit drive channel.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Sample rate in GS/s.
    pub sample_rate_gs: f64,
    /// Total samples per channel (the schedule makespan).
    pub length: usize,
    /// Playbacks per qubit channel.
    pub channels: Vec<Vec<Playback>>,
}

/// Errors while rendering a timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimelineError {
    /// A scheduled gate has no waveform in the library.
    MissingWaveform(GateId),
    /// Two playbacks overlap on one channel (scheduler bug or wrong
    /// durations).
    Overlap {
        /// The channel (qubit index).
        qubit: usize,
    },
}

impl std::fmt::Display for TimelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimelineError::MissingWaveform(g) => write!(f, "no waveform for {g}"),
            TimelineError::Overlap { qubit } => write!(f, "overlapping playbacks on qubit {qubit}"),
        }
    }
}

impl std::error::Error for TimelineError {}

/// Maps a basis-circuit op to its library gate (virtual RZ -> None).
pub fn library_gate(op: Op) -> Option<GateId> {
    match op {
        Op::X(q) => Some(GateId::single(GateKind::X, q as u16)),
        Op::Sx(q) => Some(GateId::single(GateKind::Sx, q as u16)),
        Op::Cx(c, t) => Some(GateId::pair(GateKind::Cx, c as u16, t as u16)),
        Op::Measure(q) => Some(GateId::single(GateKind::Measure, q as u16)),
        _ => None,
    }
}

/// Renders a schedule into per-channel playbacks using a device library.
///
/// Multi-qubit gates are attributed to their first (drive) qubit's
/// channel, matching how CR pulses drive the control qubit.
///
/// # Errors
///
/// Returns [`TimelineError`] if a waveform is missing or playbacks
/// overlap.
pub fn render(
    schedule: &Schedule,
    library: &PulseLibrary,
    sample_rate_gs: f64,
) -> Result<Timeline, TimelineError> {
    let mut channels: Vec<Vec<Playback>> = vec![Vec::new(); schedule.n_qubits];
    let mut length = 0usize;
    for sop in &schedule.ops {
        let Some(gate) = library_gate(sop.op) else { continue };
        let wf = library.get(&gate).ok_or_else(|| TimelineError::MissingWaveform(gate.clone()))?;
        let channel = gate.qubits[0] as usize;
        let start_sample = (sop.start_ns * sample_rate_gs).round() as usize;
        let playback = Playback { gate, start_sample, samples: wf.len() };
        length = length.max(start_sample + wf.len());
        channels[channel].push(playback);
    }
    // Overlap check per channel.
    for (qubit, plays) in channels.iter_mut().enumerate() {
        plays.sort_by_key(|p| p.start_sample);
        for w in plays.windows(2) {
            if w[0].start_sample + w[0].samples > w[1].start_sample {
                return Err(TimelineError::Overlap { qubit });
            }
        }
    }
    Ok(Timeline { sample_rate_gs, length, channels })
}

impl Timeline {
    /// Total samples the waveform memory streams over the schedule (all
    /// channels, per I/Q pair counted once).
    pub fn total_samples(&self) -> usize {
        self.channels.iter().flatten().map(|p| p.samples).sum()
    }

    /// Duty cycle of channel `q`: fraction of the makespan it is driven.
    pub fn duty_cycle(&self, q: usize) -> f64 {
        if self.length == 0 {
            return 0.0;
        }
        let busy: usize = self.channels[q].iter().map(|p| p.samples).sum();
        busy as f64 / self.length as f64
    }

    /// Renders channel `q`'s concatenated I-channel samples (idle = 0) —
    /// the stream the DAC actually sees.
    pub fn channel_samples(&self, q: usize, library: &PulseLibrary) -> Vec<f64> {
        let mut out = vec![0.0; self.length];
        for p in &self.channels[q] {
            if let Some(wf) = library.get(&p.gate) {
                for (k, &v) in wf.i().iter().enumerate() {
                    if p.start_sample + k < out.len() {
                        out[p.start_sample + k] = v;
                    }
                }
            }
        }
        out
    }

    /// Average memory bandwidth implied by the rendered samples, in GB/s
    /// at `bytes_per_sample` — the exact counterpart of the analytic
    /// profile from [`crate::schedule::profile`].
    pub fn average_bandwidth_gb(&self, bytes_per_sample: f64) -> f64 {
        if self.length == 0 {
            return 0.0;
        }
        // samples * bytes / (length / rate) seconds.
        let seconds = self.length as f64 / (self.sample_rate_gs * 1e9);
        self.total_samples() as f64 * bytes_per_sample / seconds / 1e9
    }
}

/// Reconstructs a single composite waveform for one channel (useful for
/// plotting and for compressing whole-channel streams).
pub fn channel_waveform(timeline: &Timeline, q: usize, library: &PulseLibrary) -> Waveform {
    Waveform::from_real(
        format!("channel-q{q}"),
        timeline.channel_samples(q, library),
        timeline.sample_rate_gs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuits::{self, Circuit};
    use crate::schedule::{asap, profile};
    use crate::transpile::transpile;
    use compaqt_pulse::device::Device;
    use compaqt_pulse::vendor::Vendor;

    fn star_device() -> Device {
        let edges = [(0usize, 4usize), (1, 4), (2, 4), (3, 4)];
        Device::synthesize_with_edges(Vendor::Ibm, 5, 0x71E, &edges)
    }

    fn rendered(circuit: &Circuit) -> (Timeline, std::sync::Arc<PulseLibrary>) {
        let device = star_device();
        let lib = device.pulse_library();
        let t = transpile(circuit);
        let sched = asap(&t, device.params());
        let timeline = render(&sched, &lib, device.params().sampling_rate_gs).unwrap();
        (timeline, lib)
    }

    #[test]
    fn bv_renders_without_overlap() {
        let (timeline, _) = rendered(&circuits::bernstein_vazirani(4, 0b1011));
        assert!(timeline.length > 0);
        assert!(timeline.total_samples() > 0);
    }

    #[test]
    fn duty_cycle_is_bounded() {
        let (timeline, _) = rendered(&circuits::bernstein_vazirani(4, 0b1011));
        for q in 0..5 {
            let d = timeline.duty_cycle(q);
            assert!((0.0..=1.0).contains(&d), "q{q}: {d}");
        }
    }

    #[test]
    fn channel_samples_match_playback_content() {
        let (timeline, lib) = rendered(&circuits::bernstein_vazirani(4, 0b0001));
        let samples = timeline.channel_samples(0, &lib);
        assert_eq!(samples.len(), timeline.length);
        // The channel is non-trivial where playbacks exist.
        let energy: f64 = samples.iter().map(|v| v * v).sum();
        assert!(energy > 0.0);
    }

    #[test]
    fn rendered_bandwidth_is_close_to_analytic_average() {
        let device = star_device();
        let lib = device.pulse_library();
        let t = transpile(&circuits::bernstein_vazirani(4, 0b1111));
        let sched = asap(&t, device.params());
        let timeline = render(&sched, &lib, device.params().sampling_rate_gs).unwrap();
        // Analytic profile counts every qubit of a 2Q gate as a channel;
        // the timeline attributes the CR pulse to the drive qubit only,
        // so the rendered number is lower but within 2.5x.
        let analytic = profile(&sched, device.params().bandwidth_per_qubit_gb());
        let rendered_bw = timeline.average_bandwidth_gb(4.0);
        let ratio = analytic.average_bandwidth_gb / rendered_bw;
        assert!((1.0..2.5).contains(&ratio), "analytic/rendered = {ratio}");
    }

    #[test]
    fn missing_waveform_is_reported() {
        let device = star_device();
        let lib = device.pulse_library();
        // A CX on an uncoupled pair is not in the library.
        let mut c = Circuit::new("bad", 5);
        c.push(crate::circuits::Op::Cx(0, 1));
        let sched = asap(&c, device.params());
        let err = render(&sched, &lib, 4.54).unwrap_err();
        assert!(matches!(err, TimelineError::MissingWaveform(_)));
    }

    #[test]
    fn composite_channel_waveform_compresses() {
        // Whole-channel streams (pulses + idle gaps) are even more
        // compressible than isolated pulses: the idle zeros RLE away.
        use compaqt_core::compress::{Compressor, Variant};
        let (timeline, lib) = rendered(&circuits::bernstein_vazirani(4, 0b1010));
        let wf = channel_waveform(&timeline, 4, &lib);
        let z = Compressor::new(Variant::IntDctW { ws: 16 }).compress(&wf).unwrap();
        assert!(z.ratio().ratio() > 4.0, "got {}", z.ratio());
    }
}
