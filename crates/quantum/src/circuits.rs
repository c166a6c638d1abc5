//! Benchmark circuits (Table VI).
//!
//! The fidelity benchmarks: swap, toffoli, qft-4, adder-4, bv-5, and the
//! qaoa family; plus builders used by the scalability experiments.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::f64::consts::PI;
use std::fmt;

/// A circuit operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Pauli X.
    X(usize),
    /// sqrt(X) (IBM basis gate).
    Sx(usize),
    /// Hadamard.
    H(usize),
    /// Z rotation (virtual on hardware).
    Rz(usize, f64),
    /// CNOT (control, target).
    Cx(usize, usize),
    /// Controlled-Z.
    Cz(usize, usize),
    /// Controlled phase.
    Cp(usize, usize, f64),
    /// SWAP.
    Swap(usize, usize),
    /// Toffoli (c1, c2, target).
    Ccx(usize, usize, usize),
    /// Readout.
    Measure(usize),
}

impl Op {
    /// Qubits the operation touches.
    pub fn qubits(&self) -> Vec<usize> {
        match *self {
            Op::X(q) | Op::Sx(q) | Op::H(q) | Op::Rz(q, _) | Op::Measure(q) => vec![q],
            Op::Cx(a, b) | Op::Cz(a, b) | Op::Cp(a, b, _) | Op::Swap(a, b) => vec![a, b],
            Op::Ccx(a, b, c) => vec![a, b, c],
        }
    }

    /// True for gates that need no waveform (virtual Z).
    pub fn is_virtual(&self) -> bool {
        matches!(self, Op::Rz(..))
    }
}

/// A gate-level quantum circuit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    /// Number of qubits.
    pub n_qubits: usize,
    /// Circuit name.
    pub name: String,
    /// Operations in program order.
    pub ops: Vec<Op>,
}

impl Circuit {
    /// Creates an empty circuit.
    pub fn new(name: impl Into<String>, n_qubits: usize) -> Self {
        Circuit { n_qubits, name: name.into(), ops: Vec::new() }
    }

    /// Appends an operation.
    ///
    /// # Panics
    ///
    /// Panics if the op references a qubit out of range.
    pub fn push(&mut self, op: Op) {
        assert!(
            op.qubits().iter().all(|&q| q < self.n_qubits),
            "op {op:?} out of range for {} qubits",
            self.n_qubits
        );
        self.ops.push(op);
    }

    /// Appends measurement of every qubit (the concurrent final readout
    /// every NISQ circuit ends with — Section III-A).
    pub fn measure_all(&mut self) {
        for q in 0..self.n_qubits {
            self.ops.push(Op::Measure(q));
        }
    }

    /// Number of CNOTs (after no decomposition; see
    /// [`crate::transpile::transpile`] for basis counts).
    pub fn cx_count(&self) -> usize {
        self.ops.iter().filter(|o| matches!(o, Op::Cx(..))).count()
    }

    /// Number of non-virtual operations.
    pub fn gate_count(&self) -> usize {
        self.ops.iter().filter(|o| !o.is_virtual()).count()
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} qubits, {} ops)", self.name, self.n_qubits, self.ops.len())
    }
}

/// The 2-qubit swap benchmark (3 CNOTs).
pub fn swap() -> Circuit {
    let mut c = Circuit::new("swap", 2);
    c.push(Op::X(0));
    c.push(Op::Swap(0, 1));
    c.measure_all();
    c
}

/// The 3-qubit Toffoli benchmark.
pub fn toffoli() -> Circuit {
    let mut c = Circuit::new("toffoli", 3);
    c.push(Op::X(0));
    c.push(Op::X(1));
    c.push(Op::Ccx(0, 1, 2));
    c.measure_all();
    c
}

/// n-qubit Quantum Fourier Transform echo benchmark (qft-4 in Table VI):
/// prepares a basis state, applies QFT then its inverse, and measures.
///
/// The echo makes the ideal output a single basis state, so the TVD
/// fidelity metric is sensitive to gate noise (a bare QFT ends in a
/// uniform distribution that TVD cannot distinguish from noise).
pub fn qft(n: usize) -> Circuit {
    let mut c = Circuit::new(format!("qft-{n}"), n);
    c.push(Op::X(0));
    if n > 2 {
        c.push(Op::X(n - 2));
    }
    let mut body: Vec<Op> = Vec::new();
    for q in (0..n).rev() {
        body.push(Op::H(q));
        for t in (0..q).rev() {
            body.push(Op::Cp(t, q, PI / f64::from(1u32 << (q - t))));
        }
    }
    for q in 0..n / 2 {
        body.push(Op::Swap(q, n - 1 - q));
    }
    for &op in &body {
        c.push(op);
    }
    for &op in body.iter().rev() {
        let inv = match op {
            Op::Cp(a, b, theta) => Op::Cp(a, b, -theta),
            other => other, // H and SWAP are self-inverse
        };
        c.push(inv);
    }
    c.measure_all();
    c
}

/// 4-bit ripple-carry adder fragment (adder-4 in Table VI): adds |a=11>
/// to |b=01> using Toffoli/CNOT majority logic.
pub fn adder4() -> Circuit {
    let mut c = Circuit::new("adder-4", 4);
    // a = q0,q1 ; b = q2,q3 (little endian)
    c.push(Op::X(0));
    c.push(Op::X(1));
    c.push(Op::X(2));
    // bit 0: sum and carry
    c.push(Op::Ccx(0, 2, 3));
    c.push(Op::Cx(0, 2));
    // carry into bit 1
    c.push(Op::Ccx(1, 3, 2));
    c.push(Op::Cx(1, 3));
    // propagate
    c.push(Op::Cx(3, 1));
    c.push(Op::Ccx(0, 1, 3));
    c.push(Op::Cx(0, 1));
    c.measure_all();
    c
}

/// Bernstein-Vazirani with an `n-1`-bit secret (bv-5 uses 6 qubits in
/// Table VI: 5 data + 1 ancilla).
pub fn bernstein_vazirani(n_data: usize, secret: u64) -> Circuit {
    let n = n_data + 1;
    let anc = n_data;
    let mut c = Circuit::new(format!("bv-{n_data}"), n);
    c.push(Op::X(anc));
    c.push(Op::H(anc));
    for q in 0..n_data {
        c.push(Op::H(q));
    }
    for q in 0..n_data {
        if secret >> q & 1 == 1 {
            c.push(Op::Cx(q, anc));
        }
    }
    for q in 0..n_data {
        c.push(Op::H(q));
    }
    for q in 0..n_data {
        c.push(Op::Measure(q));
    }
    c
}

/// QAOA on a random 3-regular-ish graph with `layers` alternating
/// cost/mixer layers (the qaoa-6/8a/8b/10/40 family).
pub fn qaoa(n: usize, layers: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(format!("qaoa-{n}"), n);
    // Random graph: each qubit connects to ~3 neighbours.
    let mut edges = Vec::new();
    for a in 0..n {
        for _ in 0..2 {
            let b = rng.random_range(0..n);
            if a != b {
                let e = (a.min(b), a.max(b));
                if !edges.contains(&e) {
                    edges.push(e);
                }
            }
        }
    }
    for q in 0..n {
        c.push(Op::H(q));
    }
    for layer in 0..layers {
        let gamma = 0.4 + 0.15 * layer as f64;
        let beta = 0.7 - 0.1 * layer as f64;
        for &(a, b) in &edges {
            // ZZ interaction: CX - RZ - CX.
            c.push(Op::Cx(a, b));
            c.push(Op::Rz(b, 2.0 * gamma));
            c.push(Op::Cx(a, b));
        }
        for q in 0..n {
            // Mixer RX = H RZ H.
            c.push(Op::H(q));
            c.push(Op::Rz(q, 2.0 * beta));
            c.push(Op::H(q));
        }
    }
    c.measure_all();
    c
}

/// The Table VI fidelity-benchmark suite with qubit counts and CNOT
/// budgets in the paper's regime.
pub fn table_vi_suite() -> Vec<Circuit> {
    let mut qaoa_8a = qaoa(8, 2, 81);
    qaoa_8a.name = "qaoa-8a".to_string();
    let mut qaoa_8b = qaoa(8, 3, 82);
    qaoa_8b.name = "qaoa-8b".to_string();
    vec![
        swap(),
        toffoli(),
        qft(4),
        adder4(),
        bernstein_vazirani(5, 0b10110),
        qaoa(6, 4, 60),
        qaoa_8a,
        qaoa_8b,
        qaoa(10, 3, 100),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swap_has_expected_shape() {
        let c = swap();
        assert_eq!(c.n_qubits, 2);
        assert!(c.ops.iter().any(|o| matches!(o, Op::Swap(..))));
    }

    #[test]
    fn qft4_matches_table_vi_qubits() {
        let c = qft(4);
        assert_eq!(c.n_qubits, 4);
        // 6 controlled-phases each way (echo) decompose to ~27+ CNOTs.
        assert_eq!(c.ops.iter().filter(|o| matches!(o, Op::Cp(..))).count(), 12);
    }

    #[test]
    fn bv_measures_only_data_qubits() {
        let c = bernstein_vazirani(5, 0b10110);
        assert_eq!(c.n_qubits, 6);
        assert_eq!(c.ops.iter().filter(|o| matches!(o, Op::Measure(_))).count(), 5);
        // CNOT count equals secret weight (paper lists 2-3 CNOTs for bv-5).
        assert_eq!(c.cx_count(), 3);
    }

    #[test]
    fn qaoa_is_deterministic_per_seed() {
        assert_eq!(qaoa(8, 2, 81), qaoa(8, 2, 81));
        assert_ne!(qaoa(8, 2, 81), qaoa(8, 2, 82));
    }

    #[test]
    fn qaoa_cx_count_grows_with_layers() {
        assert!(qaoa(6, 4, 1).cx_count() > qaoa(6, 2, 1).cx_count());
    }

    #[test]
    fn suite_matches_table_vi_sizes() {
        let suite = table_vi_suite();
        let sizes: Vec<usize> = suite.iter().map(|c| c.n_qubits).collect();
        assert_eq!(sizes, vec![2, 3, 4, 4, 6, 6, 8, 8, 10]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_validates_qubits() {
        Circuit::new("bad", 2).push(Op::Cx(0, 5));
    }

    #[test]
    fn measure_all_is_concurrent_tail() {
        let c = qft(4);
        let tail: Vec<_> = c.ops.iter().rev().take(4).collect();
        assert!(tail.iter().all(|o| matches!(o, Op::Measure(_))));
    }
}
