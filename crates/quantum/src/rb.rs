//! Randomized benchmarking (RB) simulation.
//!
//! Reproduces the paper's Figure 9 / Table III experiment: two-qubit RB
//! with the uncompressed baseline pulses versus decompressed pulses.
//! Random Clifford sequences are applied with a recovery inverse at the
//! end; each Clifford suffers (a) depolarizing noise matching the machine
//! baseline, and (b) — when compression is enabled — the coherent
//! distortion rotation derived from the waveform pipeline. The survival
//! probability decays as `A p^m + B`; the decay constant `p` is what the
//! paper reports as "RB fidelity", with `EPC = (d-1)/d * (1-p)`.

use crate::errors::NoiseModel;
use crate::gates;
use crate::linalg::CMatrix;
use crate::state::StateVector;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// RB experiment configuration.
#[derive(Debug, Clone)]
pub struct RbConfig {
    /// Clifford sequence lengths to measure.
    pub lengths: Vec<usize>,
    /// Random sequences sampled per length.
    pub sequences_per_length: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RbConfig {
    fn default() -> Self {
        RbConfig {
            lengths: vec![1, 5, 10, 20, 35, 50, 75, 100],
            sequences_per_length: 12,
            seed: 0x5EED,
        }
    }
}

/// The outcome of an RB experiment.
#[derive(Debug, Clone)]
pub struct RbResult {
    /// Sequence lengths.
    pub lengths: Vec<usize>,
    /// Mean survival probability at each length.
    pub survival: Vec<f64>,
    /// Fitted decay amplitude `A`.
    pub a: f64,
    /// Fitted decay constant `p` — the paper's "RB fidelity".
    pub p: f64,
    /// Fit floor `B` (1/2^n).
    pub b: f64,
    /// Error per Clifford: `(d-1)/d * (1-p)`.
    pub epc: f64,
}

/// Number of qubits benchmarked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RbQubits {
    /// Single-qubit RB.
    One,
    /// Two-qubit RB (the paper's experiment).
    Two,
}

/// Runs randomized benchmarking under a noise model.
///
/// The average number of physical gates per two-qubit Clifford is ~1.5 CX
/// and ~9 single-qubit gates; the depolarizing strength per Clifford is
/// composed accordingly from the model's per-gate errors.
pub fn run_rb(qubits: RbQubits, noise: &NoiseModel, config: &RbConfig) -> RbResult {
    let n = match qubits {
        RbQubits::One => 1,
        RbQubits::Two => 2,
    };
    let dim = 1usize << n;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut survival = Vec::with_capacity(config.lengths.len());
    for &m in &config.lengths {
        let mut acc = 0.0;
        for _ in 0..config.sequences_per_length {
            acc += simulate_sequence(n, m, noise, &mut rng);
        }
        survival.push(acc / config.sequences_per_length as f64);
    }
    let b = 1.0 / dim as f64;
    let (a, p) = fit_decay(&config.lengths, &survival, b);
    let d = dim as f64;
    RbResult { lengths: config.lengths.clone(), survival, a, p, b, epc: (d - 1.0) / d * (1.0 - p) }
}

/// One random sequence: m Cliffords + recovery, with noise; returns the
/// ground-state survival probability.
fn simulate_sequence(n: usize, m: usize, noise: &NoiseModel, rng: &mut StdRng) -> f64 {
    let mut sv = StateVector::zero(n);
    let mut total = CMatrix::identity(1 << n);
    for _ in 0..m {
        let cl = random_clifford(n, rng);
        apply_unitary(&mut sv, &cl);
        total = cl.matmul(&total);
        apply_clifford_noise(&mut sv, n, noise, rng);
    }
    // Recovery: the exact inverse, also noisy.
    let recovery = total.adjoint();
    apply_unitary(&mut sv, &recovery);
    apply_clifford_noise(&mut sv, n, noise, rng);
    // Readout error: mix the survival with bit-flipped outcomes.
    let p0 = sv.ground_population();
    let eps = noise.readout_error;
    p0 * (1.0 - eps).powi(n as i32)
        + (1.0 - p0) * (1.0 - (1.0 - eps).powi(n as i32)) / ((1 << n) - 1) as f64
}

fn apply_unitary(sv: &mut StateVector, u: &CMatrix) {
    match u.dim() {
        2 => sv.apply_1q(0, u),
        4 => sv.apply_2q(1, 0, u),
        _ => unreachable!("RB uses 1- or 2-qubit Cliffords"),
    }
}

/// Samples an (approximately Haar-random) Clifford as a product of
/// generators; the exact group element is tracked so the recovery is the
/// true inverse.
fn random_clifford(n: usize, rng: &mut StdRng) -> CMatrix {
    let h = gates::h();
    let s = gates::s();
    if n == 1 {
        let mut u = CMatrix::identity(2);
        for _ in 0..8 {
            u = if rng.random_bool(0.5) { h.matmul(&u) } else { s.matmul(&u) };
        }
        u
    } else {
        let mut u = CMatrix::identity(4);
        let id2 = CMatrix::identity(2);
        for _ in 0..12 {
            let g = match rng.random_range(0..5) {
                0 => h.kron(&id2),
                1 => id2.kron(&h),
                2 => s.kron(&id2),
                3 => id2.kron(&s),
                _ => gates::cx(),
            };
            u = g.matmul(&u);
        }
        u
    }
}

/// Depolarizing + coherent noise for one Clifford application.
///
/// Random draws are consumed identically regardless of the noise
/// strength (common-random-numbers coupling), so two models compared at
/// the same seed see nested error events: more noise always means more
/// errors on the same sequences.
fn apply_clifford_noise(sv: &mut StateVector, n: usize, noise: &NoiseModel, rng: &mut StdRng) {
    // Gate content of an average Clifford (Barends et al. style counts).
    let (n_1q, n_2q) = if n == 1 { (1.875, 0.0) } else { (9.0, 1.5) };
    let p_dep = (n_1q * noise.epg_1q + n_2q * noise.epg_2q).min(1.0);
    let trigger: f64 = rng.random();
    let choices: Vec<usize> = (0..n).map(|_| rng.random_range(0..4)).collect();
    if trigger < p_dep {
        let paulis = [gates::x(), gates::y(), gates::z()];
        let mut any = false;
        for (q, &choice) in choices.iter().enumerate() {
            if choice < 3 {
                sv.apply_1q(q, &paulis[choice]);
                any = true;
            }
        }
        if !any {
            // All-identity draw: fall back to an X on qubit 0 so the
            // event always injects an error.
            sv.apply_1q(0, &gates::x());
        }
    }
    // Coherent distortion: per-gate coherent errors are twirled by the
    // interleaved random Cliffords, so their infidelities add
    // incoherently over the Clifford's gate content; apply the single
    // equivalent rotation.
    let infid = |theta: f64| 2.0 / 3.0 * (theta / 2.0).sin().powi(2);
    let total_infid = n_1q * infid(noise.coherent_1q_angle) + n_2q * infid(noise.coherent_2q_angle);
    if total_infid > 0.0 {
        let theta = crate::errors::infidelity_to_angle(total_infid);
        sv.apply_1q(0, &gates::rx(theta));
    }
}

/// Least-squares fit of `y = A p^m + B` with fixed `B`, by linear
/// regression of `log(y - B)` against `m`.
pub fn fit_decay(lengths: &[usize], survival: &[f64], b: f64) -> (f64, f64) {
    let pts: Vec<(f64, f64)> = lengths
        .iter()
        .zip(survival)
        .filter(|&(_, &y)| y > b + 1e-6)
        .map(|(&m, &y)| (m as f64, (y - b).ln()))
        .collect();
    if pts.len() < 2 {
        return (1.0 - b, 1.0);
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let intercept = (sy - slope * sx) / n;
    (intercept.exp(), slope.exp().clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(seed: u64) -> RbConfig {
        RbConfig { lengths: vec![1, 5, 10, 20, 40, 60], sequences_per_length: 16, seed }
    }

    #[test]
    fn noiseless_rb_has_unit_decay() {
        let r = run_rb(RbQubits::Two, &NoiseModel::noiseless(), &quick_config(1));
        assert!(r.p > 0.999, "p = {}", r.p);
        assert!(r.epc < 1e-3);
        assert!(r.survival.iter().all(|&s| s > 0.999));
    }

    #[test]
    fn baseline_2q_rb_matches_paper_regime() {
        // Paper Figure 9: baseline fidelity ~0.978, EPC ~1.65e-2.
        let r = run_rb(RbQubits::Two, &NoiseModel::ibm_baseline(), &quick_config(2));
        assert!((0.96..0.995).contains(&r.p), "p = {}", r.p);
        assert!((5e-3..3e-2).contains(&r.epc), "epc = {}", r.epc);
    }

    #[test]
    fn survival_decays_with_length() {
        let r = run_rb(RbQubits::Two, &NoiseModel::ibm_baseline(), &quick_config(3));
        assert!(r.survival.first().unwrap() > r.survival.last().unwrap());
    }

    #[test]
    fn more_noise_means_lower_p() {
        let mut noisy = NoiseModel::ibm_baseline();
        noisy.epg_2q *= 3.0;
        let base = run_rb(RbQubits::Two, &NoiseModel::ibm_baseline(), &quick_config(4));
        let worse = run_rb(RbQubits::Two, &noisy, &quick_config(4));
        assert!(worse.p < base.p, "worse {} vs base {}", worse.p, base.p);
    }

    #[test]
    fn coherent_distortion_lowers_p_slightly() {
        // The compressed-pulse experiment: small coherent angle on top of
        // the baseline lowers p by a fraction of a percent (Table III).
        let base = run_rb(RbQubits::Two, &NoiseModel::ibm_baseline(), &quick_config(5));
        let compressed_model = NoiseModel::ibm_baseline().with_distortion(5e-5, 5e-5);
        let comp = run_rb(RbQubits::Two, &compressed_model, &quick_config(5));
        assert!(comp.p <= base.p + 0.005, "comp {} vs base {}", comp.p, base.p);
        assert!(base.p - comp.p < 0.02, "degradation should be small");
    }

    #[test]
    fn one_qubit_rb_is_gentler() {
        let r1 = run_rb(RbQubits::One, &NoiseModel::ibm_baseline(), &quick_config(6));
        let r2 = run_rb(RbQubits::Two, &NoiseModel::ibm_baseline(), &quick_config(6));
        assert!(r1.epc < r2.epc);
    }

    #[test]
    fn fit_recovers_known_decay() {
        let lengths: Vec<usize> = vec![1, 2, 5, 10, 20, 50];
        let survival: Vec<f64> =
            lengths.iter().map(|&m| 0.75 * 0.98f64.powi(m as i32) + 0.25).collect();
        let (a, p) = fit_decay(&lengths, &survival, 0.25);
        assert!((a - 0.75).abs() < 1e-6);
        assert!((p - 0.98).abs() < 1e-6);
    }
}
