//! ASAP pulse scheduling and bandwidth-demand profiling (Figure 5c).
//!
//! Peak waveform-memory bandwidth is set by the maximum number of qubits
//! driven concurrently; average bandwidth by the mean concurrency over
//! the circuit. NISQ circuits are bursty (low average, full-width peak at
//! the final measurement); surface-code cycles run near-constant
//! concurrency — which is why QEC makes bandwidth the binding constraint.

use crate::circuits::{Circuit, Op};
use compaqt_pulse::vendor::VendorParams;

/// One scheduled operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledOp {
    /// The operation.
    pub op: Op,
    /// Start time in ns.
    pub start_ns: f64,
    /// Duration in ns (0 for virtual gates).
    pub duration_ns: f64,
}

/// An ASAP schedule of a circuit.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Scheduled operations.
    pub ops: Vec<ScheduledOp>,
    /// Total duration in ns.
    pub makespan_ns: f64,
    /// Number of qubits.
    pub n_qubits: usize,
}

/// Schedules a circuit as-soon-as-possible with the vendor's gate
/// latencies. Virtual RZ gates take zero time; measurements of different
/// qubits run concurrently (serializing readout degrades fidelity,
/// Section III-A).
pub fn asap(circuit: &Circuit, params: &VendorParams) -> Schedule {
    let mut qubit_free = vec![0.0f64; circuit.n_qubits];
    let mut ops = Vec::with_capacity(circuit.ops.len());
    for &op in &circuit.ops {
        let duration = duration_ns(op, params);
        let qs = op.qubits();
        let start = qs.iter().map(|&q| qubit_free[q]).fold(0.0, f64::max);
        for &q in &qs {
            qubit_free[q] = start + duration;
        }
        ops.push(ScheduledOp { op, start_ns: start, duration_ns: duration });
    }
    let makespan_ns = qubit_free.iter().cloned().fold(0.0, f64::max);
    Schedule { ops, makespan_ns, n_qubits: circuit.n_qubits }
}

/// Pulse duration of an operation under a vendor parameter set.
pub fn duration_ns(op: Op, params: &VendorParams) -> f64 {
    match op {
        Op::Rz(..) => 0.0,
        Op::Measure(_) => params.tau_readout_ns,
        Op::X(_) | Op::Sx(_) | Op::H(_) => params.tau_1q_ns,
        // Composite ops count one 2Q latency per entangler here; lower to
        // the basis first for exact budgets.
        Op::Cx(..) | Op::Cz(..) | Op::Cp(..) | Op::Swap(..) | Op::Ccx(..) => params.tau_2q_ns,
    }
}

/// Concurrency and bandwidth profile of a schedule.
#[derive(Debug, Clone)]
pub struct BandwidthProfile {
    /// Peak number of concurrently driven qubit channels.
    pub peak_channels: usize,
    /// Time-averaged driven channels (over the makespan).
    pub average_channels: f64,
    /// Peak number of concurrent gates.
    pub peak_gates: usize,
    /// Peak memory bandwidth in GB/s.
    pub peak_bandwidth_gb: f64,
    /// Average memory bandwidth in GB/s.
    pub average_bandwidth_gb: f64,
}

/// Profiles a schedule: sweeps time events, counting driven qubit
/// channels (every qubit of an active non-virtual gate streams a
/// waveform) and converting to bandwidth at `bw_per_channel_gb`.
pub fn profile(schedule: &Schedule, bw_per_channel_gb: f64) -> BandwidthProfile {
    let mut events: Vec<(f64, i64, i64)> = Vec::new(); // (time, d_channels, d_gates)
    for sop in &schedule.ops {
        if sop.op.is_virtual() || sop.duration_ns == 0.0 {
            continue;
        }
        let ch = sop.op.qubits().len() as i64;
        events.push((sop.start_ns, ch, 1));
        events.push((sop.start_ns + sop.duration_ns, -ch, -1));
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut channels = 0i64;
    let mut gates = 0i64;
    let mut peak_channels = 0i64;
    let mut peak_gates = 0i64;
    let mut weighted = 0.0;
    let mut last_t = 0.0;
    for (t, dc, dg) in events {
        weighted += channels as f64 * (t - last_t);
        last_t = t;
        channels += dc;
        gates += dg;
        peak_channels = peak_channels.max(channels);
        peak_gates = peak_gates.max(gates);
    }
    let average_channels =
        if schedule.makespan_ns > 0.0 { weighted / schedule.makespan_ns } else { 0.0 };
    BandwidthProfile {
        peak_channels: peak_channels as usize,
        average_channels,
        peak_gates: peak_gates as usize,
        peak_bandwidth_gb: peak_channels as f64 * bw_per_channel_gb,
        average_bandwidth_gb: average_channels * bw_per_channel_gb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuits;
    use crate::transpile::transpile;
    use compaqt_pulse::vendor::Vendor;

    #[test]
    fn serial_ops_do_not_overlap() {
        let mut c = Circuit::new("serial", 1);
        c.push(Op::X(0));
        c.push(Op::X(0));
        let s = asap(&c, &Vendor::Ibm.params());
        assert_eq!(s.ops[1].start_ns, s.ops[0].duration_ns);
        assert_eq!(s.makespan_ns, 60.0);
    }

    #[test]
    fn independent_ops_run_concurrently() {
        let mut c = Circuit::new("par", 2);
        c.push(Op::X(0));
        c.push(Op::X(1));
        let s = asap(&c, &Vendor::Ibm.params());
        assert_eq!(s.ops[0].start_ns, s.ops[1].start_ns);
        let p = profile(&s, 1.0);
        assert_eq!(p.peak_channels, 2);
    }

    #[test]
    fn virtual_rz_takes_no_time() {
        let mut c = Circuit::new("rz", 1);
        c.push(Op::Rz(0, 1.0));
        c.push(Op::X(0));
        let s = asap(&c, &Vendor::Ibm.params());
        assert_eq!(s.ops[1].start_ns, 0.0);
    }

    #[test]
    fn final_measurement_peaks_at_all_qubits() {
        // Section III-A: "the last step of all NISQ circuits involves the
        // concurrent measurement of all qubits".
        let c = transpile(&circuits::qaoa(10, 2, 1));
        let s = asap(&c, &Vendor::Ibm.params());
        let p = profile(&s, 1.0);
        assert_eq!(p.peak_channels, 10);
    }

    #[test]
    fn qaoa_average_is_far_below_peak() {
        // Figure 5c: QAOA is not bandwidth intensive on average.
        let c = transpile(&circuits::qaoa(10, 3, 2));
        let s = asap(&c, &Vendor::Ibm.params());
        let p = profile(&s, 24.0);
        assert!(
            p.average_bandwidth_gb < 0.6 * p.peak_bandwidth_gb,
            "avg {} peak {}",
            p.average_bandwidth_gb,
            p.peak_bandwidth_gb
        );
    }

    #[test]
    fn bandwidth_scales_with_channel_rate() {
        let c = transpile(&circuits::qft(4));
        let s = asap(&c, &Vendor::Ibm.params());
        let p1 = profile(&s, 1.0);
        let p24 = profile(&s, 24.0);
        assert!((p24.peak_bandwidth_gb - 24.0 * p1.peak_bandwidth_gb).abs() < 1e-9);
    }

    #[test]
    fn makespan_covers_all_ops() {
        let c = transpile(&circuits::qft(4));
        let s = asap(&c, &Vendor::Ibm.params());
        for op in &s.ops {
            assert!(op.start_ns + op.duration_ns <= s.makespan_ns + 1e-9);
        }
    }
}
