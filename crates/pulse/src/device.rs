//! Synthetic device models with per-qubit calibrated pulses.
//!
//! The paper reads calibration data from real IBM backends. We substitute a
//! seeded synthetic model: every qubit gets unique gate-pulse parameters
//! drawn from realistic ranges, reproducing the per-qubit pulse diversity
//! of Figure 4 (every π pulse on a machine is different). The *shape class*
//! — smooth, band-limited envelopes — is what determines compressibility,
//! and that is preserved exactly.

use crate::library::{GateId, GateKind, PulseLibrary};
use crate::shapes::{Drag, GaussianSquare, PulseShape};
use crate::topology::Topology;
use crate::vendor::{Vendor, VendorParams};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// Per-qubit calibration constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QubitCalibration {
    /// Qubit transition frequency in GHz.
    pub frequency_ghz: f64,
    /// Anharmonicity in GHz (negative for transmons).
    pub anharmonicity_ghz: f64,
    /// π-pulse (X) peak amplitude.
    pub x_amp: f64,
    /// π/2-pulse (SX) peak amplitude.
    pub sx_amp: f64,
    /// Gaussian sigma as a fraction of the 1Q gate duration.
    pub sigma_frac: f64,
    /// DRAG coefficient.
    pub beta: f64,
    /// Readout pulse amplitude.
    pub readout_amp: f64,
}

/// Per-coupled-pair calibration constants (cross-resonance drive).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairCalibration {
    /// CR plateau amplitude.
    pub cr_amp: f64,
    /// Plateau width as a fraction of the 2Q gate duration.
    pub width_frac: f64,
    /// Ramp sigma as a fraction of the ramp length.
    pub sigma_frac: f64,
}

/// A synthetic superconducting machine: vendor parameters, topology, and
/// unique per-qubit / per-pair calibrations.
#[derive(Debug)]
pub struct Device {
    name: String,
    params: VendorParams,
    n_qubits: usize,
    qubits: Vec<QubitCalibration>,
    /// Directed pair calibrations, one per (control, target) ordering.
    pairs: Vec<((usize, usize), PairCalibration)>,
    library_cache: Mutex<Option<Arc<PulseLibrary>>>,
}

impl Clone for Device {
    fn clone(&self) -> Self {
        Device {
            name: self.name.clone(),
            params: self.params,
            n_qubits: self.n_qubits,
            qubits: self.qubits.clone(),
            pairs: self.pairs.clone(),
            library_cache: Mutex::new(None),
        }
    }
}

impl Device {
    /// Synthesizes an `n`-qubit machine for a vendor archetype from a
    /// deterministic seed.
    ///
    /// The same `(vendor, n, seed)` triple always produces the same device,
    /// so experiments are reproducible. Seeds play the role of distinct
    /// physical machines: the paper's IBM Bogota / Guadalupe / Hanoi / ...
    /// become distinct seeds at their qubit counts (see
    /// [`Device::named_machine`]).
    pub fn synthesize(vendor: Vendor, n: usize, seed: u64) -> Self {
        let edges = vendor.params().topology.edges(n);
        Device::synthesize_with_edges(vendor, n, seed, &edges)
    }

    /// Synthesizes a machine with an explicit coupling map instead of the
    /// vendor's default topology — used to build devices matching a
    /// surface-code patch or any experimental layout.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or an edge references a qubit out of range.
    pub fn synthesize_with_edges(
        vendor: Vendor,
        n: usize,
        seed: u64,
        edges: &[(usize, usize)],
    ) -> Self {
        Device::synthesize_configured(vendor.params(), n, seed, edges)
    }

    /// Synthesizes a machine from an explicit parameter set and coupling
    /// map — the fully configured entry point the declarative
    /// [`crate::registry`] builds through. `params` may differ from a
    /// stock [`Vendor::params`] set (e.g. a `sample-rate` override);
    /// calibration draws depend only on `(params, n, seed, edges)`, so a
    /// stock parameter set reproduces [`Device::synthesize_with_edges`]
    /// bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or an edge references a qubit out of range.
    pub fn synthesize_configured(
        params: VendorParams,
        n: usize,
        seed: u64,
        edges: &[(usize, usize)],
    ) -> Self {
        assert!(n > 0, "device needs at least one qubit");
        assert!(
            edges.iter().all(|&(a, b)| a < n && b < n),
            "coupling edge references a qubit out of range"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let qubits: Vec<QubitCalibration> = (0..n)
            .map(|q| {
                // Frequencies staggered around 5 GHz like IBM devices.
                let frequency_ghz = 4.8 + 0.4 * rng.random::<f64>() + 0.01 * (q % 7) as f64;
                QubitCalibration {
                    frequency_ghz,
                    anharmonicity_ghz: -0.34 + 0.02 * (rng.random::<f64>() - 0.5),
                    x_amp: rng.random_range(0.35..0.65),
                    sx_amp: rng.random_range(0.17..0.33),
                    sigma_frac: rng.random_range(0.22..0.28),
                    beta: rng.random_range(0.10..0.30),
                    readout_amp: rng.random_range(0.20..0.40),
                }
            })
            .collect();
        let mut pairs = Vec::new();
        for &(a, b) in edges {
            for (c, t) in [(a, b), (b, a)] {
                pairs.push((
                    (c, t),
                    PairCalibration {
                        cr_amp: rng.random_range(0.20..0.45),
                        width_frac: rng.random_range(0.70..0.85),
                        sigma_frac: rng.random_range(0.30..0.45),
                    },
                ));
            }
        }
        Device {
            name: format!("{}-{}q-{:08x}", params.name, n, seed & 0xFFFF_FFFF),
            params,
            n_qubits: n,
            qubits,
            pairs,
            library_cache: Mutex::new(None),
        }
    }

    /// Synthesizes the stand-in for one of the paper's named IBM machines.
    ///
    /// | name | qubits |
    /// |------|--------|
    /// | `bogota` | 5 | `guadalupe` | 16 | `toronto`/`montreal`/`mumbai`/`hanoi` | 27 |
    /// | `lima` | 5 | `brooklyn` | 65 | `washington` | 127 |
    ///
    /// # Panics
    ///
    /// Panics for unknown machine names.
    pub fn named_machine(name: &str) -> Self {
        // Named lookups and declarative descriptions share one code path:
        // the builtin registry carries the historical (qubits, seed)
        // pairs, so this route is bit-compatible with the old hand-built
        // table.
        let spec = crate::registry::Registry::builtin()
            .get(&format!("ibm_{name}"))
            .unwrap_or_else(|| panic!("unknown machine name: {name}"));
        spec.build_device().expect("named machines are transmon specs")
    }

    /// Renames the device (registry-built devices carry their spec name).
    pub(crate) fn set_name(&mut self, name: &str) {
        self.name = name.to_string();
    }

    /// Device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns a drifted copy of this device: every calibration constant
    /// is perturbed by up to `magnitude` (relative), modelling parameter
    /// drift between calibration cycles. The pulse-library cache is
    /// invalidated so the drifted pulses regenerate.
    pub fn with_drift(&self, seed: u64, magnitude: f64) -> Device {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD21F7);
        let mut drifted = self.clone();
        let mut jitter = |v: &mut f64| {
            *v *= 1.0 + magnitude * (rng.random::<f64>() * 2.0 - 1.0);
        };
        for cal in &mut drifted.qubits {
            jitter(&mut cal.x_amp);
            jitter(&mut cal.sx_amp);
            jitter(&mut cal.beta);
            jitter(&mut cal.readout_amp);
        }
        for (_, cal) in &mut drifted.pairs {
            jitter(&mut cal.cr_amp);
        }
        drifted.name = format!("{}*", self.name);
        drifted
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The vendor parameter set.
    pub fn params(&self) -> &VendorParams {
        &self.params
    }

    /// The connectivity family.
    pub fn topology(&self) -> Topology {
        self.params.topology
    }

    /// Calibration of qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn qubit(&self, q: usize) -> &QubitCalibration {
        &self.qubits[q]
    }

    /// Directed coupled pairs and their calibrations.
    pub fn pairs(&self) -> &[((usize, usize), PairCalibration)] {
        &self.pairs
    }

    /// The π-pulse (X gate) waveform of qubit `q` — what Figure 4 plots
    /// for every qubit of a machine.
    pub fn pi_pulse(&self, q: usize) -> crate::waveform::Waveform {
        let cal = &self.qubits[q];
        let p = &self.params;
        let n = p.samples_for(p.tau_1q_ns);
        let drag = Drag::new(n, cal.x_amp, cal.sigma_frac * n as f64, cal.beta);
        drag.to_waveform(&format!("X(q{q})"), p.sampling_rate_gs)
    }

    /// Builds (and caches) the full pulse library: every 1Q gate per qubit,
    /// every directed 2Q gate per coupled pair, and a readout pulse per
    /// qubit — the waveform-memory image of Section III.
    pub fn pulse_library(&self) -> Arc<PulseLibrary> {
        let mut cache = self.library_cache.lock();
        if let Some(lib) = cache.as_ref() {
            return Arc::clone(lib);
        }
        let lib = Arc::new(self.build_library());
        *cache = Some(Arc::clone(&lib));
        lib
    }

    fn build_library(&self) -> PulseLibrary {
        let p = &self.params;
        let mut lib = PulseLibrary::new();
        let n1 = p.samples_for(p.tau_1q_ns);
        let nr = p.samples_for(p.tau_readout_ns);
        for (q, cal) in self.qubits.iter().enumerate() {
            let qi = q as u16;
            match p.vendor {
                Vendor::Ibm => {
                    let x = Drag::new(n1, cal.x_amp, cal.sigma_frac * n1 as f64, cal.beta);
                    lib.insert(
                        GateId::single(GateKind::X, qi),
                        x.to_waveform(&format!("X(q{q})"), p.sampling_rate_gs),
                    );
                    let sx = Drag::new(n1, cal.sx_amp, cal.sigma_frac * n1 as f64, cal.beta);
                    lib.insert(
                        GateId::single(GateKind::Sx, qi),
                        sx.to_waveform(&format!("SX(q{q})"), p.sampling_rate_gs),
                    );
                }
                Vendor::Google => {
                    let px = Drag::new(n1, cal.x_amp, cal.sigma_frac * n1 as f64, cal.beta);
                    lib.insert(
                        GateId::single(GateKind::PhasedXz, qi),
                        px.to_waveform(&format!("PhXZ(q{q})"), p.sampling_rate_gs),
                    );
                }
            }
            // Readout: flat-top with ~80% plateau.
            let meas =
                GaussianSquare::new(nr, cal.readout_amp, 0.35 * (nr / 10) as f64, nr * 8 / 10);
            lib.insert(
                GateId::single(GateKind::Measure, qi),
                meas.to_waveform(&format!("Meas(q{q})"), p.sampling_rate_gs),
            );
        }
        let n2 = p.samples_for(p.tau_2q_ns);
        for ((c, t), cal) in &self.pairs {
            let width = (cal.width_frac * n2 as f64) as usize;
            let ramp = (n2 - width) / 2;
            let gs =
                GaussianSquare::new(n2, cal.cr_amp, cal.sigma_frac * ramp.max(2) as f64, width);
            match p.vendor {
                Vendor::Ibm => {
                    lib.insert(
                        GateId::pair(GateKind::Cx, *c as u16, *t as u16),
                        gs.to_waveform(&format!("CX(q{c},q{t})"), p.sampling_rate_gs),
                    );
                }
                Vendor::Google => {
                    // fsim and iSWAP drives per directed pair.
                    lib.insert(
                        GateId::pair(GateKind::Fsim, *c as u16, *t as u16),
                        gs.to_waveform(&format!("fsim(q{c},q{t})"), p.sampling_rate_gs),
                    );
                    let iswap = GaussianSquare::new(
                        n2,
                        cal.cr_amp * 0.9,
                        cal.sigma_frac * ramp.max(2) as f64,
                        width,
                    );
                    lib.insert(
                        GateId::pair(GateKind::ISwap, *c as u16, *t as u16),
                        iswap.to_waveform(&format!("iSWAP(q{c},q{t})"), p.sampling_rate_gs),
                    );
                }
            }
        }
        lib
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesis_is_deterministic() {
        let a = Device::synthesize(Vendor::Ibm, 5, 42);
        let b = Device::synthesize(Vendor::Ibm, 5, 42);
        assert_eq!(a.qubit(3).x_amp, b.qubit(3).x_amp);
        assert_eq!(a.pairs().len(), b.pairs().len());
    }

    #[test]
    fn different_seeds_differ() {
        let a = Device::synthesize(Vendor::Ibm, 5, 1);
        let b = Device::synthesize(Vendor::Ibm, 5, 2);
        assert_ne!(a.qubit(0).x_amp, b.qubit(0).x_amp);
    }

    #[test]
    fn every_qubit_has_unique_pi_pulse() {
        // Figure 4: all pi pulses on a machine differ.
        let d = Device::synthesize(Vendor::Ibm, 27, 7);
        let mut amps: Vec<f64> = (0..27).map(|q| d.qubit(q).x_amp).collect();
        amps.sort_by(f64::total_cmp);
        amps.dedup();
        assert_eq!(amps.len(), 27);
    }

    #[test]
    fn library_contains_all_gates() {
        let d = Device::synthesize(Vendor::Ibm, 16, 3);
        let lib = d.pulse_library();
        let edges = d.topology().edges(16).len();
        // X + SX + Measure per qubit, CX per directed pair.
        assert_eq!(lib.len(), 16 * 3 + edges * 2);
    }

    #[test]
    fn library_is_cached() {
        let d = Device::synthesize(Vendor::Ibm, 5, 3);
        let a = d.pulse_library();
        let b = d.pulse_library();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn ibm_guadalupe_library_is_dozens_of_waveforms() {
        // Figure 11 uses 132 waveforms from IBM Guadalupe; Qiskit counts
        // each echoed-CR sub-pulse separately, we store one CR waveform per
        // directed pair, so our count is lower but the same order.
        let d = Device::named_machine("guadalupe");
        let lib = d.pulse_library();
        assert!((60..=140).contains(&lib.len()), "got {} waveforms", lib.len());
    }

    #[test]
    fn per_qubit_memory_close_to_table_i() {
        // Table I: ~18KB per qubit on IBM machines.
        let d = Device::named_machine("guadalupe");
        let lib = d.pulse_library();
        let per_qubit = lib.total_storage_bytes(32) as f64 / 16.0;
        assert!((14_000.0..22_000.0).contains(&per_qubit), "got {per_qubit} bytes/qubit");
    }

    #[test]
    fn google_library_uses_google_gates() {
        let d = Device::synthesize(Vendor::Google, 9, 11);
        let lib = d.pulse_library();
        assert!(lib.of_kind(&GateKind::PhasedXz).count() == 9);
        assert!(lib.of_kind(&GateKind::Fsim).count() > 0);
        assert!(lib.of_kind(&GateKind::X).count() == 0);
    }

    #[test]
    fn cx_pulses_are_flat_top() {
        let d = Device::synthesize(Vendor::Ibm, 5, 9);
        let lib = d.pulse_library();
        let (_, wf) = lib.of_kind(&GateKind::Cx).next().unwrap();
        assert!(wf.flat_top_plateau(200).is_some(), "CR pulse has a plateau");
    }

    #[test]
    fn named_machines_have_expected_sizes() {
        assert_eq!(Device::named_machine("bogota").n_qubits(), 5);
        assert_eq!(Device::named_machine("guadalupe").n_qubits(), 16);
        assert_eq!(Device::named_machine("hanoi").n_qubits(), 27);
        assert_eq!(Device::named_machine("washington").n_qubits(), 127);
    }

    #[test]
    #[should_panic(expected = "unknown machine")]
    fn unknown_machine_panics() {
        Device::named_machine("osaka");
    }

    #[test]
    fn clone_preserves_calibrations() {
        let d = Device::synthesize(Vendor::Ibm, 5, 123);
        let c = d.clone();
        assert_eq!(d.qubit(2).beta, c.qubit(2).beta);
        assert_eq!(d.name(), c.name());
    }
}
