//! Store traffic replay: drives a serving [`Store`] with the gate
//! traffic of real scheduled circuits on registry fleet devices — a
//! surface-code syndrome cycle on `surface-d3` and a GHZ-style chain on
//! `hex-27` — and checks that every served waveform is bit-identical to
//! a direct decompression of the same stream, with exact hot-set
//! hit/miss accounting.
//!
//! This is the serving-side complement of `tests/scenario_matrix.rs`:
//! the matrix proves every (device, variant) cell round-trips; the
//! replay proves the store behaves under *circuit-shaped* traffic —
//! skewed, repeated fetches in schedule order, not one sweep per gate.

use std::collections::HashMap;
use std::sync::Arc;

use compaqt::core::compress::{Compressor, Variant};
use compaqt::core::stats::compress_library;
use compaqt::core::store::{Store, StoreConfig};
use compaqt::io::{write_report, Reader, ReaderOptions};
use compaqt::pulse::library::{GateId, GateKind};
use compaqt::pulse::registry::{DeviceSpec, Registry};
use compaqt::pulse::vendor::Vendor;
use compaqt::pulse::waveform::Waveform;
use compaqt::quantum::circuits::{Circuit, Op};
use compaqt::quantum::schedule::asap;
use compaqt::quantum::surface::SurfacePatch;
use compaqt::quantum::transpile::transpile;

/// The design-point compressor used for every replay store.
fn compressor() -> Compressor {
    Compressor::new(Variant::IntDctW { ws: 16 })
}

fn builtin(name: &str) -> &'static DeviceSpec {
    Registry::builtin().get(name).unwrap_or_else(|| panic!("no builtin device {name}"))
}

/// Maps a scheduled circuit op onto the gate id its waveform lives
/// under in an IBM-style library (`None` for virtual gates). CX edges
/// are normalized to the undirected (low, high) order the topology
/// generators emit.
fn gate_of(op: Op) -> Option<GateId> {
    match op {
        Op::X(q) => Some(GateId::single(GateKind::X, q as u16)),
        Op::Sx(q) => Some(GateId::single(GateKind::Sx, q as u16)),
        Op::Measure(q) => Some(GateId::single(GateKind::Measure, q as u16)),
        Op::Cx(a, b) => Some(GateId::pair(GateKind::Cx, a.min(b) as u16, a.max(b) as u16)),
        Op::Rz(..) => None,
        other => panic!("op {other:?} survived transpilation"),
    }
}

/// The replayable gate trace of a circuit: transpile to the IBM basis,
/// ASAP-schedule with the vendor latencies, then list gate ids in
/// schedule order (virtual RZs drop out — they own no waveform).
fn trace(circuit: &Circuit) -> Vec<GateId> {
    let lowered = transpile(circuit);
    let sched = asap(&lowered, &Vendor::Ibm.params());
    let mut timed: Vec<(f64, usize, Op)> =
        sched.ops.iter().enumerate().map(|(k, s)| (s.start_ns, k, s.op)).collect();
    timed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    timed.into_iter().filter_map(|(_, _, op)| gate_of(op)).collect()
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Replays a trace against a store, comparing every fetch (both the
/// zero-allocation `fetch_into` path and the hot-set `fetch_cached`
/// path) against the pre-snapshotted direct decodes, then checks the
/// exact hit/miss ledger the trace implies.
fn replay(device: &str, store: &Store, reference: &HashMap<GateId, Waveform>, plays: &[GateId]) {
    assert!(!plays.is_empty());
    let (mut i_buf, mut q_buf) = (Vec::new(), Vec::new());
    let mut seen: Vec<&GateId> = Vec::new();
    for gate in plays {
        let wf = &reference
            .get(gate)
            .unwrap_or_else(|| panic!("{device}: trace gate {gate} not in the library"));
        store
            .fetch_into(gate, &mut i_buf, &mut q_buf)
            .unwrap_or_else(|e| panic!("{device}: fetch_into {gate}: {e}"));
        assert!(
            bits_equal(&i_buf, wf.i()) && bits_equal(&q_buf, wf.q()),
            "{device}: fetch_into({gate}) is not bit-identical to the direct decode"
        );
        let cached: Arc<Waveform> = store
            .fetch_cached(gate)
            .unwrap_or_else(|e| panic!("{device}: fetch_cached {gate}: {e}"));
        assert!(
            bits_equal(cached.i(), wf.i()) && bits_equal(cached.q(), wf.q()),
            "{device}: fetch_cached({gate}) is not bit-identical to the direct decode"
        );
        if !seen.contains(&gate) {
            seen.push(gate);
        }
    }

    // Exact ledger: every play fetched twice; fetch_into always decodes;
    // fetch_cached decodes only on each gate's first appearance (the hot
    // set is sized so circuit traffic can never evict).
    let distinct = seen.len() as u64;
    let total = plays.len() as u64;
    let stats = store.stats();
    assert_eq!(stats.fetches, 2 * total, "{device}: fetch count");
    assert_eq!(stats.decodes, total + distinct, "{device}: decode count");
    assert_eq!(stats.hot_misses, distinct, "{device}: every distinct gate misses once");
    assert_eq!(stats.hot_hits, total - distinct, "{device}: every repeat must hit");
    assert!(
        stats.hit_rate() > 0.5,
        "{device}: circuit traffic should be repeat-heavy, got {}",
        stats.hit_rate()
    );

    // Batched leg: one `fetch_many` over the distinct working set must
    // book exactly one fetch and one decode per requested gate — the
    // per-gate ledger the wire server's FetchMany path also relies on —
    // while leaving the hot-set counters untouched.
    let batch: Vec<GateId> = seen.iter().map(|g| (*g).clone()).collect();
    let mut outs: Vec<(Vec<f64>, Vec<f64>)> = batch.iter().map(|_| Default::default()).collect();
    store
        .fetch_many(&batch, &mut outs)
        .unwrap_or_else(|e| panic!("{device}: fetch_many over the working set: {e}"));
    for (gate, (bi, bq)) in batch.iter().zip(&outs) {
        let wf = &reference[gate];
        assert!(
            bits_equal(bi, wf.i()) && bits_equal(bq, wf.q()),
            "{device}: fetch_many({gate}) is not bit-identical to the direct decode"
        );
    }
    let after = store.stats();
    assert_eq!(after.fetches, stats.fetches + distinct, "{device}: batched fetch count");
    assert_eq!(after.decodes, stats.decodes + distinct, "{device}: batched decode count");
    assert_eq!(after.hot_hits, stats.hot_hits, "{device}: a batch never touches the hot set");
    assert_eq!(after.hot_misses, stats.hot_misses, "{device}: a batch never touches the hot set");
}

/// A store that can never evict under a whole-library working set:
/// `hot_capacity` is an honest global bound, so the library's own size
/// is exactly enough — no per-shard headroom multiplier.
fn roomy_config(library_len: usize) -> StoreConfig {
    StoreConfig { shards: 4, hot_capacity: library_len }
}

#[test]
fn surface_d3_syndrome_cycle_replays_through_the_container_store() {
    // Three rounds of syndrome extraction on the registry's distance-3
    // patch, served from a store loaded *through the CWL container* —
    // the full deployment path.
    let spec = builtin("surface-d3");
    let library = spec.build_library();
    let report = compress_library(&library, &compressor()).unwrap();
    let reference: HashMap<GateId, Waveform> = report
        .waveforms
        .iter()
        .map(|w| (w.gate.clone(), w.compressed.decompress().unwrap()))
        .collect();

    let bytes = write_report(&report).unwrap();
    let reader = Reader::open(bytes, ReaderOptions::default()).unwrap();
    let store = reader.into_store(roomy_config(library.len())).unwrap();

    let patch = SurfacePatch::unrotated(3);
    assert_eq!(patch.n_qubits, spec.n_qubits());
    let cycle = trace(&patch.syndrome_cycle());
    let plays: Vec<GateId> = (0..3).flat_map(|_| cycle.iter().cloned()).collect();
    assert!(plays.len() > 150, "syndrome traffic should be substantial, got {}", plays.len());
    replay(&spec.name, &store, &reference, &plays);
}

#[test]
fn hex_27_ghz_chain_replays_through_the_direct_store() {
    // A GHZ-style nearest-neighbour chain across all 27 qubits of the
    // heavy-hex device (chain edges are part of the heavy-hex coupling
    // graph), served from a report-loaded store.
    let spec = builtin("hex-27");
    let library = spec.build_library();
    let report = compress_library(&library, &compressor()).unwrap();
    let reference: HashMap<GateId, Waveform> = report
        .waveforms
        .iter()
        .map(|w| (w.gate.clone(), w.compressed.decompress().unwrap()))
        .collect();
    let store = report.into_store(roomy_config(library.len())).unwrap();

    let n = spec.n_qubits();
    let mut ghz = Circuit::new("ghz-chain", n);
    ghz.push(Op::H(0));
    for q in 1..n {
        ghz.push(Op::Cx(q - 1, q));
    }
    for q in 0..n {
        ghz.push(Op::Measure(q));
    }
    // Three shots: everything after the first is pure hot-set traffic.
    let shot = trace(&ghz);
    let plays: Vec<GateId> = (0..3).flat_map(|_| shot.iter().cloned()).collect();
    assert!(plays.len() > 100, "chain traffic should be substantial, got {}", plays.len());
    replay(&spec.name, &store, &reference, &plays);
}

#[test]
fn replay_covers_two_distinct_registry_devices() {
    // The acceptance floor for this suite: the two replayed devices are
    // distinct registry entries with different topologies.
    let a = builtin("surface-d3");
    let b = builtin("hex-27");
    assert_ne!(a.name, b.name);
    assert_ne!(a.topology, b.topology);
    assert_ne!(a.n_qubits(), b.n_qubits());
}
