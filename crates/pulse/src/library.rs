//! Pulse libraries: the contents of waveform memory.
//!
//! A pulse library maps each physical gate (on specific qubits) to its
//! calibrated waveform. It is built by the calibration flow, loaded into
//! the controller's waveform memory, and is read-only during execution —
//! the property COMPAQT exploits to compress it offline (Section IV-A).

use crate::waveform::Waveform;
use std::collections::HashMap;
use std::fmt;

/// The kind of physical gate a waveform implements.
///
/// Ordered (`Ord`) so gate collections can be listed deterministically:
/// built-in kinds sort in declaration order, custom kinds last by name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GateKind {
    /// IBM π rotation (X gate).
    X,
    /// IBM π/2 rotation (SX gate).
    Sx,
    /// IBM cross-resonance CNOT drive (directed: control -> target).
    Cx,
    /// Google single-qubit phased-XZ drive.
    PhasedXz,
    /// Google fSim two-qubit drive.
    Fsim,
    /// Google iSWAP two-qubit drive.
    ISwap,
    /// Readout (measurement) pulse.
    Measure,
    /// A named custom pulse (Toffoli, iToffoli, CCZ, fluxonium gates...).
    Custom(String),
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateKind::X => write!(f, "X"),
            GateKind::Sx => write!(f, "SX"),
            GateKind::Cx => write!(f, "CX"),
            GateKind::PhasedXz => write!(f, "PhXZ"),
            GateKind::Fsim => write!(f, "fsim"),
            GateKind::ISwap => write!(f, "iSWAP"),
            GateKind::Measure => write!(f, "Meas"),
            GateKind::Custom(name) => write!(f, "{name}"),
        }
    }
}

/// Identifies one waveform in the library: a gate kind applied to specific
/// qubits (order matters for directed gates such as CX).
///
/// Ordered (`Ord`) by kind then qubit list, so sorted gate listings are
/// stable across runs and machines.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId {
    /// The gate kind.
    pub kind: GateKind,
    /// The qubits the pulse drives, in gate order.
    pub qubits: Vec<u16>,
}

impl GateId {
    /// Creates a single-qubit gate id.
    pub fn single(kind: GateKind, qubit: u16) -> Self {
        GateId { kind, qubits: vec![qubit] }
    }

    /// Creates a two-qubit gate id.
    pub fn pair(kind: GateKind, a: u16, b: u16) -> Self {
        GateId { kind, qubits: vec![a, b] }
    }

    /// A stable 64-bit hash of the id (FNV-1a over the kind and qubit
    /// list), independent of the process's `HashMap` seeding.
    ///
    /// Consumers that partition gates across fixed buckets — the sharded
    /// waveform store, or any persisted layout — need the same gate to
    /// land in the same bucket on every run; `std::hash` makes no such
    /// cross-process promise, so this method is the contract instead.
    pub fn stable_hash(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |byte: u8| {
            h ^= u64::from(byte);
            h = h.wrapping_mul(FNV_PRIME);
        };
        let tag: u8 = match &self.kind {
            GateKind::X => 0,
            GateKind::Sx => 1,
            GateKind::Cx => 2,
            GateKind::PhasedXz => 3,
            GateKind::Fsim => 4,
            GateKind::ISwap => 5,
            GateKind::Measure => 6,
            GateKind::Custom(_) => 7,
        };
        eat(tag);
        if let GateKind::Custom(name) = &self.kind {
            for &b in name.as_bytes() {
                eat(b);
            }
            eat(0xFF); // terminator: "ab"+[1] never collides with "a"+[0xFF01]
        }
        for &q in &self.qubits {
            let [lo, hi] = q.to_le_bytes();
            eat(lo);
            eat(hi);
        }
        h
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.kind)?;
        for (i, q) in self.qubits.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "q{q}")?;
        }
        write!(f, ")")
    }
}

/// A device's pulse library: the image loaded into waveform memory.
#[derive(Debug, Clone, Default)]
pub struct PulseLibrary {
    entries: Vec<(GateId, Waveform)>,
    index: HashMap<GateId, usize>,
}

impl PulseLibrary {
    /// Creates an empty library.
    pub fn new() -> Self {
        PulseLibrary::default()
    }

    /// Adds (or replaces) the waveform for a gate.
    pub fn insert(&mut self, id: GateId, waveform: Waveform) {
        if let Some(&slot) = self.index.get(&id) {
            self.entries[slot].1 = waveform;
        } else {
            self.index.insert(id.clone(), self.entries.len());
            self.entries.push((id, waveform));
        }
    }

    /// Looks up a gate's waveform.
    pub fn get(&self, id: &GateId) -> Option<&Waveform> {
        self.index.get(id).map(|&slot| &self.entries[slot].1)
    }

    /// Number of waveforms stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the library holds no waveforms.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(gate, waveform)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&GateId, &Waveform)> {
        self.entries.iter().map(|(id, wf)| (id, wf))
    }

    /// Iterates over `(gate, waveform)` pairs in sorted gate order
    /// ([`GateId`]'s `Ord`: kind, then qubit list) — the deterministic
    /// listing persisted formats and cross-process tooling key on,
    /// independent of the library's insertion history.
    pub fn iter_sorted(&self) -> impl Iterator<Item = (&GateId, &Waveform)> {
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        order.sort_by(|&a, &b| self.entries[a].0.cmp(&self.entries[b].0));
        order.into_iter().map(|k| {
            let (id, wf) = &self.entries[k];
            (id, wf)
        })
    }

    /// The DAC sample rate shared by every waveform, if the library is
    /// rate-uniform (`None` when empty or mixed-rate). Persisted
    /// container headers record this library-level rate so a loader can
    /// size DAC staging before parsing a single entry.
    pub fn uniform_sample_rate_gs(&self) -> Option<f64> {
        let mut rates = self.entries.iter().map(|(_, wf)| wf.sample_rate_gs());
        let first = rates.next()?;
        rates.all(|r| r == first).then_some(first)
    }

    /// Total uncompressed storage in bytes at the given packed sample size.
    pub fn total_storage_bytes(&self, sample_bits: u32) -> usize {
        self.entries.iter().map(|(_, wf)| wf.storage_bytes(sample_bits)).sum()
    }

    /// Total sample count over all waveforms (per channel).
    pub fn total_samples(&self) -> usize {
        self.entries.iter().map(|(_, wf)| wf.len()).sum()
    }

    /// All waveforms for gates of the given kind.
    pub fn of_kind<'a>(
        &'a self,
        kind: &'a GateKind,
    ) -> impl Iterator<Item = (&'a GateId, &'a Waveform)> {
        self.iter().filter(move |(id, _)| &id.kind == kind)
    }
}

impl FromIterator<(GateId, Waveform)> for PulseLibrary {
    fn from_iter<T: IntoIterator<Item = (GateId, Waveform)>>(iter: T) -> Self {
        let mut lib = PulseLibrary::new();
        for (id, wf) in iter {
            lib.insert(id, wf);
        }
        lib
    }
}

impl Extend<(GateId, Waveform)> for PulseLibrary {
    fn extend<T: IntoIterator<Item = (GateId, Waveform)>>(&mut self, iter: T) {
        for (id, wf) in iter {
            self.insert(id, wf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wf(n: usize) -> Waveform {
        Waveform::from_real("w", vec![0.1; n], 4.54)
    }

    #[test]
    fn insert_and_get() {
        let mut lib = PulseLibrary::new();
        let id = GateId::single(GateKind::X, 3);
        lib.insert(id.clone(), wf(136));
        assert_eq!(lib.len(), 1);
        assert_eq!(lib.get(&id).unwrap().len(), 136);
        assert!(lib.get(&GateId::single(GateKind::X, 4)).is_none());
    }

    #[test]
    fn insert_replaces_existing() {
        let mut lib = PulseLibrary::new();
        let id = GateId::single(GateKind::Sx, 0);
        lib.insert(id.clone(), wf(10));
        lib.insert(id.clone(), wf(20));
        assert_eq!(lib.len(), 1);
        assert_eq!(lib.get(&id).unwrap().len(), 20);
    }

    #[test]
    fn directed_cx_ids_are_distinct() {
        let a = GateId::pair(GateKind::Cx, 0, 1);
        let b = GateId::pair(GateKind::Cx, 1, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn storage_sums_over_entries() {
        let mut lib = PulseLibrary::new();
        lib.insert(GateId::single(GateKind::X, 0), wf(100));
        lib.insert(GateId::single(GateKind::Measure, 0), wf(200));
        assert_eq!(lib.total_storage_bytes(32), 1200);
        assert_eq!(lib.total_samples(), 300);
    }

    #[test]
    fn of_kind_filters() {
        let mut lib = PulseLibrary::new();
        lib.insert(GateId::single(GateKind::X, 0), wf(10));
        lib.insert(GateId::single(GateKind::X, 1), wf(10));
        lib.insert(GateId::single(GateKind::Sx, 0), wf(10));
        assert_eq!(lib.of_kind(&GateKind::X).count(), 2);
        assert_eq!(lib.of_kind(&GateKind::Measure).count(), 0);
    }

    #[test]
    fn iter_sorted_is_insertion_order_independent() {
        let mut a = PulseLibrary::new();
        let mut b = PulseLibrary::new();
        let ids = [
            GateId::pair(GateKind::Cx, 1, 0),
            GateId::single(GateKind::X, 2),
            GateId::single(GateKind::X, 0),
        ];
        for id in &ids {
            a.insert(id.clone(), wf(8));
        }
        for id in ids.iter().rev() {
            b.insert(id.clone(), wf(8));
        }
        let la: Vec<&GateId> = a.iter_sorted().map(|(id, _)| id).collect();
        let lb: Vec<&GateId> = b.iter_sorted().map(|(id, _)| id).collect();
        assert_eq!(la, lb);
        assert!(la.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
    }

    #[test]
    fn uniform_sample_rate_detection() {
        let mut lib = PulseLibrary::new();
        assert_eq!(lib.uniform_sample_rate_gs(), None, "empty library has no rate");
        lib.insert(GateId::single(GateKind::X, 0), wf(8));
        lib.insert(GateId::single(GateKind::X, 1), wf(16));
        assert_eq!(lib.uniform_sample_rate_gs(), Some(4.54));
        lib.insert(
            GateId::single(GateKind::Measure, 0),
            Waveform::from_real("m", vec![0.1; 8], 2.0),
        );
        assert_eq!(lib.uniform_sample_rate_gs(), None, "mixed rates");
    }

    #[test]
    fn from_iterator_collects() {
        let lib: PulseLibrary =
            (0..4u16).map(|q| (GateId::single(GateKind::X, q), wf(8))).collect();
        assert_eq!(lib.len(), 4);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", GateId::pair(GateKind::Cx, 2, 5)), "CX(q2,q5)");
        assert_eq!(
            format!("{}", GateId::single(GateKind::Custom("toffoli".into()), 1)),
            "toffoli(q1)"
        );
    }
}
