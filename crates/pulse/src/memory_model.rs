//! Waveform-memory capacity and bandwidth demand (Section III).
//!
//! The paper's demand model:
//!
//! ```text
//! MC = sum_i fs*Ns*tau_i  (1Q gates)
//!    + sum_j fs*Ns*tau_j  (d * ntq two-qubit gates)
//!    + fs*Ns*tau_readout
//! BW = fs * Ns            (per concurrently driven qubit)
//! ```
//!
//! plus the RFSoC reference lines of Figure 5: on-chip BRAM+URAM capacity
//! of 7.56 MB and a peak internal memory bandwidth of 866 GB/s.

use crate::vendor::VendorParams;

/// Total on-chip memory capacity of the reference RFSoC (BRAM + URAM),
/// the horizontal line of Figure 5(a).
pub const RFSOC_CAPACITY_BYTES: f64 = 7.56e6;

/// Peak internal BRAM bandwidth of the reference RFSoC in GB/s, the
/// horizontal line of Figure 5(b) (1260 BRAMs behind an FPGA fabric clock
/// 16x slower than the DACs).
pub const RFSOC_MAX_BANDWIDTH_GB: f64 = 866.0;

/// Sampling rate of the RFSoC's integrated DACs in GS/s.
pub const RFSOC_DAC_RATE_GS: f64 = 6.0;

/// Packed I+Q sample size of the RFSoC DACs: two 16-bit sample words
/// (the 14-bit DAC codes are stored left-justified in 16-bit memory words).
pub const RFSOC_SAMPLE_BITS: u32 = 32;

/// Memory bandwidth one qubit demands from the RFSoC waveform memory, in
/// GB/s (6 GS/s * 32-bit samples = 24 GB/s).
pub fn rfsoc_bandwidth_per_qubit_gb() -> f64 {
    RFSOC_DAC_RATE_GS * f64::from(RFSOC_SAMPLE_BITS) / 8.0
}

/// Waveform-memory capacity one qubit of degree `degree` requires, in
/// bytes (the Section III `MC` equation).
pub fn capacity_per_qubit_bytes(p: &VendorParams, degree: f64) -> f64 {
    let one_q = p.single_qubit_gate_types as f64 * p.waveform_bytes(p.tau_1q_ns);
    let two_q = degree * p.two_qubit_gate_types as f64 * p.waveform_bytes(p.tau_2q_ns);
    let readout = p.waveform_bytes(p.tau_readout_ns);
    one_q + two_q + readout
}

/// Total waveform-memory capacity for an `n`-qubit machine, in bytes,
/// using the vendor topology's per-qubit degrees.
pub fn total_capacity_bytes(p: &VendorParams, n: usize) -> f64 {
    p.topology.degrees(n).iter().map(|&d| capacity_per_qubit_bytes(p, d as f64)).sum()
}

/// Total memory bandwidth to drive all `n` qubits concurrently, in GB/s.
pub fn total_bandwidth_gb(p: &VendorParams, n: usize) -> f64 {
    n as f64 * p.bandwidth_per_qubit_gb()
}

/// Bandwidth to drive `n` qubits concurrently from an RFSoC's 6 GS/s
/// DACs, in GB/s — the demand curve of Figure 5(b).
pub fn rfsoc_total_bandwidth_gb(n: usize) -> f64 {
    n as f64 * rfsoc_bandwidth_per_qubit_gb()
}

/// One point of a capacity/bandwidth scaling curve (Figure 5a/5b).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemandPoint {
    /// Qubit count.
    pub qubits: usize,
    /// Required capacity in MB.
    pub capacity_mb: f64,
    /// Required bandwidth in GB/s.
    pub bandwidth_gb: f64,
}

/// Sweeps the demand model over qubit counts (Figure 5a/5b series).
pub fn demand_sweep(p: &VendorParams, counts: impl IntoIterator<Item = usize>) -> Vec<DemandPoint> {
    counts
        .into_iter()
        .map(|n| DemandPoint {
            qubits: n,
            capacity_mb: total_capacity_bytes(p, n) / 1e6,
            bandwidth_gb: total_bandwidth_gb(p, n),
        })
        .collect()
}

/// Maximum qubits supportable under the RFSoC *capacity* constraint alone
/// (Figure 5d, left bar).
pub fn rfsoc_qubits_by_capacity(p: &VendorParams) -> usize {
    let mut n = 1usize;
    while total_capacity_bytes(p, n + 1) <= RFSOC_CAPACITY_BYTES {
        n += 1;
        if n > 10_000 {
            break;
        }
    }
    n
}

/// Maximum qubits supportable under the RFSoC *bandwidth* constraint alone
/// (Figure 5d, right bar): internal BRAM bandwidth divided by per-qubit
/// DAC demand.
pub fn rfsoc_qubits_by_bandwidth() -> usize {
    (RFSOC_MAX_BANDWIDTH_GB / rfsoc_bandwidth_per_qubit_gb()).floor() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vendor::Vendor;

    #[test]
    fn ibm_capacity_per_qubit_is_about_18kb() {
        let p = Vendor::Ibm.params();
        let mc = capacity_per_qubit_bytes(&p, 2.0);
        assert!((16_000.0..20_000.0).contains(&mc), "got {mc}");
    }

    #[test]
    fn google_capacity_per_qubit_is_about_3kb() {
        let p = Vendor::Google.params();
        let mc = capacity_per_qubit_bytes(&p, 4.0);
        assert!((2_000.0..3_500.0).contains(&mc), "got {mc}");
    }

    #[test]
    fn capacity_scales_linearly() {
        let p = Vendor::Ibm.params();
        let c100 = total_capacity_bytes(&p, 100);
        let c200 = total_capacity_bytes(&p, 200);
        let ratio = c200 / c100;
        assert!((1.8..2.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn hundred_qubit_machine_needs_megabytes() {
        // Section I: "a hundred-qubit quantum computer would require up to
        // 5MB of memory for pulse shapes of basic gates".
        let p = Vendor::Ibm.params();
        let mb = total_capacity_bytes(&p, 100) / 1e6;
        assert!((1.0..6.0).contains(&mb), "got {mb} MB");
    }

    #[test]
    fn rfsoc_per_qubit_bandwidth_is_24_gb() {
        assert!((rfsoc_bandwidth_per_qubit_gb() - 24.0).abs() < 1e-9);
    }

    #[test]
    fn rfsoc_bandwidth_limits_to_under_40_qubits() {
        // Figure 5(d): bandwidth constraint -> fewer than 40 qubits; the
        // QICK baseline works out to ~36.
        let n = rfsoc_qubits_by_bandwidth();
        assert!(n < 40, "got {n}");
        assert!(n >= 30, "got {n}");
    }

    #[test]
    fn rfsoc_capacity_supports_over_200_qubits() {
        // Figure 5(d): capacity alone supports > 200 qubits.
        let n = rfsoc_qubits_by_capacity(&Vendor::Ibm.params());
        assert!(n > 200, "got {n}");
    }

    #[test]
    fn two_hundred_qubits_demand_terabytes_per_second() {
        // Figure 5(b): the demand curve reaches multiple TB/s by 200 qubits.
        let bw = rfsoc_total_bandwidth_gb(200);
        assert!(bw > 3_000.0, "got {bw} GB/s");
    }

    #[test]
    fn demand_sweep_is_monotone() {
        let pts = demand_sweep(&Vendor::Ibm.params(), [10, 50, 100, 150]);
        for w in pts.windows(2) {
            assert!(w[1].capacity_mb > w[0].capacity_mb);
            assert!(w[1].bandwidth_gb > w[0].bandwidth_gb);
        }
    }
}
