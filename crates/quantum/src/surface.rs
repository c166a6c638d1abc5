//! Surface-code patches and syndrome-extraction schedules.
//!
//! The scalability benchmarks (Table VI: surface-17, surface-25; Figure
//! 5c: surface-81) are syndrome-measurement cycles of surface-code
//! patches. QEC cycles drive >80% of the patch's qubits concurrently
//! (Figure 17a), which is what makes waveform-memory bandwidth the
//! binding constraint for fault tolerance.
//!
//! * surface-17: rotated distance-3 patch (9 data + 8 ancilla).
//! * surface-25 / surface-81: unrotated distance-3/5 patches
//!   (`(2d-1)^2` qubits).

use crate::circuits::{Circuit, Op};

/// A surface-code stabilizer: its ancilla qubit and data-qubit supports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stabilizer {
    /// Ancilla qubit index.
    pub ancilla: usize,
    /// Data qubits in interaction order (N/E/W/S style ordering).
    pub data: Vec<usize>,
    /// X-type (true) or Z-type (false).
    pub is_x: bool,
}

/// A surface-code patch.
#[derive(Debug, Clone, PartialEq)]
pub struct SurfacePatch {
    /// Human-readable name (e.g. `surface-25`).
    pub name: String,
    /// Code distance.
    pub distance: usize,
    /// Total qubits (data + ancilla).
    pub n_qubits: usize,
    /// Data-qubit count.
    pub n_data: usize,
    /// The stabilizers.
    pub stabilizers: Vec<Stabilizer>,
}

impl SurfacePatch {
    /// The rotated distance-3 patch: 9 data qubits (indices 0-8, row
    /// major 3x3) and 8 ancillas (indices 9-16) — the paper's surface-17.
    pub fn rotated_d3() -> Self {
        // Standard rotated-d3 stabilizer supports.
        let z_supports: [&[usize]; 4] = [&[0, 1, 3, 4], &[4, 5, 7, 8], &[2, 5], &[3, 6]];
        let x_supports: [&[usize]; 4] = [&[1, 2, 4, 5], &[3, 4, 6, 7], &[0, 1], &[7, 8]];
        let mut stabilizers = Vec::new();
        let mut anc = 9;
        for s in z_supports {
            stabilizers.push(Stabilizer { ancilla: anc, data: s.to_vec(), is_x: false });
            anc += 1;
        }
        for s in x_supports {
            stabilizers.push(Stabilizer { ancilla: anc, data: s.to_vec(), is_x: true });
            anc += 1;
        }
        SurfacePatch {
            name: "surface-17".to_string(),
            distance: 3,
            n_qubits: 17,
            n_data: 9,
            stabilizers,
        }
    }

    /// An unrotated distance-`d` patch on a `(2d-1) x (2d-1)` lattice:
    /// data qubits on even-parity sites, ancillas on odd-parity sites
    /// (25 qubits for d=3, 81 for d=5).
    ///
    /// # Panics
    ///
    /// Panics if `d < 2`.
    pub fn unrotated(d: usize) -> Self {
        assert!(d >= 2, "distance must be at least 2");
        let side = 2 * d - 1;
        let n = side * side;
        let idx = |r: usize, c_: usize| r * side + c_;
        let mut n_data = 0;
        for r in 0..side {
            for c_ in 0..side {
                if (r + c_) % 2 == 0 {
                    n_data += 1;
                }
            }
        }
        let mut stabilizers = Vec::new();
        for r in 0..side {
            for c_ in 0..side {
                if (r + c_) % 2 == 1 {
                    // Ancilla site: neighbours N/E/W/S within the lattice.
                    let mut data = Vec::new();
                    if r > 0 {
                        data.push(idx(r - 1, c_));
                    }
                    if c_ + 1 < side {
                        data.push(idx(r, c_ + 1));
                    }
                    if c_ > 0 {
                        data.push(idx(r, c_ - 1));
                    }
                    if r + 1 < side {
                        data.push(idx(r + 1, c_));
                    }
                    // Ancillas on odd rows measure Z, even rows X (the
                    // two interleaved sublattices).
                    stabilizers.push(Stabilizer { ancilla: idx(r, c_), data, is_x: r % 2 == 0 });
                }
            }
        }
        SurfacePatch { name: format!("surface-{n}"), distance: d, n_qubits: n, n_data, stabilizers }
    }

    /// One syndrome-extraction cycle as a gate circuit: H on X ancillas,
    /// four interleaved CX rounds, H, then concurrent ancilla readout.
    pub fn syndrome_cycle(&self) -> Circuit {
        let mut c = Circuit::new(format!("{}-cycle", self.name), self.n_qubits);
        for s in &self.stabilizers {
            if s.is_x {
                c.push(Op::H(s.ancilla));
            }
        }
        let rounds = self.stabilizers.iter().map(|s| s.data.len()).max().unwrap_or(0);
        for round in 0..rounds {
            for s in &self.stabilizers {
                if let Some(&d) = s.data.get(round) {
                    if s.is_x {
                        c.push(Op::Cx(s.ancilla, d));
                    } else {
                        c.push(Op::Cx(d, s.ancilla));
                    }
                }
            }
        }
        for s in &self.stabilizers {
            if s.is_x {
                c.push(Op::H(s.ancilla));
            }
        }
        for s in &self.stabilizers {
            c.push(Op::Measure(s.ancilla));
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{asap, profile};
    use crate::transpile::transpile;
    use compaqt_pulse::vendor::Vendor;

    #[test]
    fn rotated_d3_has_17_qubits_and_8_stabilizers() {
        let p = SurfacePatch::rotated_d3();
        assert_eq!(p.n_qubits, 17);
        assert_eq!(p.n_data, 9);
        assert_eq!(p.stabilizers.len(), 8);
        // Weight-4 interior + weight-2 boundary stabilizers.
        let w4 = p.stabilizers.iter().filter(|s| s.data.len() == 4).count();
        let w2 = p.stabilizers.iter().filter(|s| s.data.len() == 2).count();
        assert_eq!((w4, w2), (4, 4));
    }

    #[test]
    fn unrotated_sizes_match_paper() {
        assert_eq!(SurfacePatch::unrotated(3).n_qubits, 25);
        assert_eq!(SurfacePatch::unrotated(5).n_qubits, 81);
        assert_eq!(SurfacePatch::unrotated(3).stabilizers.len(), 12);
    }

    #[test]
    fn every_data_qubit_is_checked() {
        let p = SurfacePatch::unrotated(3);
        let mut covered = vec![false; p.n_qubits];
        for s in &p.stabilizers {
            for &d in &s.data {
                covered[d] = true;
            }
        }
        let data_sites = (0..p.n_qubits).filter(|&k| {
            let side = 5;
            (k / side + k % side) % 2 == 0
        });
        for k in data_sites {
            assert!(covered[k], "data qubit {k} unchecked");
        }
    }

    #[test]
    fn syndrome_cycle_drives_most_qubits_concurrently() {
        // Figure 17a: >80% of physical qubits driven concurrently.
        for patch in [SurfacePatch::rotated_d3(), SurfacePatch::unrotated(3)] {
            let cycle = transpile(&patch.syndrome_cycle());
            let sched = asap(&cycle, &Vendor::Ibm.params());
            let prof = profile(&sched, 1.0);
            let frac = prof.peak_channels as f64 / patch.n_qubits as f64;
            assert!(frac > 0.7, "{}: peak fraction {frac}", patch.name);
        }
    }

    #[test]
    fn surface_average_is_close_to_peak() {
        // Figure 5c: surface codes have avg close to peak (unlike QAOA).
        let cycle = transpile(&SurfacePatch::unrotated(3).syndrome_cycle());
        let sched = asap(&cycle, &Vendor::Ibm.params());
        let prof = profile(&sched, 24.0);
        assert!(
            prof.average_bandwidth_gb > 0.4 * prof.peak_bandwidth_gb,
            "avg {} peak {}",
            prof.average_bandwidth_gb,
            prof.peak_bandwidth_gb
        );
    }

    #[test]
    fn cx_rounds_alternate_direction_by_type() {
        let p = SurfacePatch::rotated_d3();
        let cycle = p.syndrome_cycle();
        // X-stabilizer CXs have the ancilla as control; Z-type as target.
        let mut x_ctrl = 0;
        let mut z_tgt = 0;
        for op in &cycle.ops {
            if let Op::Cx(ctrl, tgt) = op {
                if *ctrl >= 9 {
                    x_ctrl += 1;
                }
                if *tgt >= 9 {
                    z_tgt += 1;
                }
            }
        }
        assert!(x_ctrl > 0 && z_tgt > 0);
    }
}
