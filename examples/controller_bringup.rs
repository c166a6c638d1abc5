//! Full controller bring-up: the complete Figure 6 flow.
//!
//! calibration cycle (with drift) -> fidelity-aware compression
//! (Algorithm 1) -> CWL container (host -> controller transfer) ->
//! controller load -> sequencer playback of a scheduled circuit.
//!
//! ```sh
//! cargo run --release --example controller_bringup
//! ```

use compaqt::core::calibration::CalibrationLoop;
use compaqt::core::compress::{Compressor, Variant};
use compaqt::core::sequencer::{Controller, ControllerConfig, Instruction};
use compaqt::io::{Reader, ReaderOptions, Writer};
use compaqt::pulse::device::Device;
use compaqt::pulse::library::{GateId, GateKind, PulseLibrary};
use compaqt::pulse::vendor::Vendor;
use compaqt::quantum::circuits::{self, Op};
use compaqt::quantum::schedule::asap;
use compaqt::quantum::transpile::transpile;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A freshly calibrated 5-qubit machine (star coupling: all data
    //    qubits talk to the ancilla q4, matching the Bernstein-Vazirani
    //    circuit we will run) drifts; run two calibration cycles with
    //    fidelity-aware recompression.
    //
    //    Note the target: the uniform 3-word window cap bounds the
    //    achievable MSE near 1e-4 for the widest pulses, so asking for
    //    much less makes Algorithm 1 fall back to uncompressed storage —
    //    the capacity/fidelity trade is real.
    let edges = [(0usize, 4usize), (1, 4), (2, 4), (3, 4)];
    let device = Device::synthesize_with_edges(Vendor::Ibm, 5, 0xB0B, &edges);
    let compressor = Compressor::new(Variant::IntDctW { ws: 16 }).with_max_window_words(3);
    let cal = CalibrationLoop::new(device.clone(), compressor, 1e-4);
    let (reports, compressed_library) = cal.run(2)?;
    for r in &reports {
        println!(
            "cycle {}: {} waveforms, {} met target at default threshold, {} tuned, {} fallback; avg R {:.2} in {:.1} ms",
            r.cycle,
            r.waveforms,
            r.met_at_default,
            r.tuned,
            r.fallback_uncompressed,
            r.ratio.avg,
            r.compression_seconds * 1e3
        );
    }

    // 2. Pack the compressed library into a CWL container and validate
    //    it on the way in (host -> controller transfer).
    let mut writer = Writer::new();
    for (gate, z) in &compressed_library {
        writer.add(gate, z)?;
    }
    let container = writer.finish()?;
    println!("\ncontainer: {} bytes for {} waveforms", container.len(), compressed_library.len());
    let reader = Reader::open(container, ReaderOptions::default())?;
    assert_eq!(reader.len(), compressed_library.len());

    // 3. Load the drifted device's library into a QICK-class controller.
    let drifted = device.with_drift(1, 0.02).with_drift(2, 0.02);
    let lib: PulseLibrary = (*drifted.pulse_library()).clone();
    let controller = Controller::load(ControllerConfig::default(), &lib, &compressor)?;
    println!(
        "controller: {} waveforms resident, {} KB stored",
        controller.waveform_count(),
        controller.stored_bits() / 8192
    );

    // 4. Schedule a Bernstein-Vazirani run and play it on the sequencer.
    let circuit = transpile(&circuits::bernstein_vazirani(4, 0b1011));
    let sched = asap(&circuit, drifted.params());
    let instructions: Vec<Instruction> = sched
        .ops
        .iter()
        .filter_map(|sop| {
            let gate = match sop.op {
                Op::X(q) => Some(GateId::single(GateKind::X, q as u16)),
                Op::Sx(q) => Some(GateId::single(GateKind::Sx, q as u16)),
                Op::Cx(c, t) => Some(GateId::pair(GateKind::Cx, c as u16, t as u16)),
                Op::Measure(q) => Some(GateId::single(GateKind::Measure, q as u16)),
                _ => None,
            }?;
            Some(Instruction { gate, start_ns: sop.start_ns })
        })
        .collect();
    let report = controller.play(&instructions)?;
    println!("\nsequencer: {report}");
    assert!(report.sustained(), "the compressed memory must sustain the circuit");
    println!("\nbring-up complete: compressed memory sustained the whole schedule.");
    Ok(())
}
