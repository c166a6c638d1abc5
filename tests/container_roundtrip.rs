//! Container round-trip properties: write → read → decode must be
//! bit-identical to the in-memory decode for every stream kind the
//! format can hold, and the bytes themselves must be a pure function of
//! the library contents (same library ⇒ identical file, whatever order
//! it was staged in).
//!
//! Three layers are pinned:
//!
//! 1. **stream round-trip** — the parsed payload `==` the original
//!    compressed value (field-exact, not just sample-exact), for plain
//!    variants across WS 8–64, `DCT-N`, `Delta`, overlapped and
//!    adaptive streams;
//! 2. **decode agreement** — `Reader::fetch_into` and a
//!    `Store::from_reader`-loaded store produce the same samples as
//!    decoding the never-serialized stream;
//! 3. **determinism** — container bytes are identical across add
//!    orders, across writer entry points (`Writer` vs
//!    `write_library` vs `write_store`), and across SIMD kernel tiers
//!    (`COMPAQT_FORCE_SCALAR`).

use compaqt::core::adaptive::AdaptiveCompressor;
use compaqt::core::compress::{CompressedWaveform, Compressor, Variant};
use compaqt::core::engine::{DecodeScratch, DecompressionEngine};
use compaqt::core::overlap::OverlapCompressor;
use compaqt::core::store::{Store, StoreConfig};
use compaqt::io::{
    write_library, write_report, write_store, ContainerScratch, FromContainer, Reader,
    ReaderOptions, StreamPayload, Writer,
};
use compaqt::pulse::device::Device;
use compaqt::pulse::library::{GateId, GateKind};
use compaqt::pulse::shapes::{Drag, GaussianSquare, PulseShape};
use compaqt::pulse::vendor::Vendor;
use compaqt::pulse::waveform::Waveform;
use proptest::prelude::*;

mod common;

/// The plain variants the container must carry losslessly.
fn plain_variants() -> [Variant; 10] {
    [
        Variant::Delta,
        Variant::DctN,
        Variant::DctW { ws: 8 },
        Variant::DctW { ws: 16 },
        Variant::DctW { ws: 32 },
        Variant::DctW { ws: 64 },
        Variant::IntDctW { ws: 8 },
        Variant::IntDctW { ws: 16 },
        Variant::IntDctW { ws: 32 },
        Variant::IntDctW { ws: 64 },
    ]
}

fn ramp_pulse(n: usize, amp: f64) -> Waveform {
    Drag::new(n, amp, n as f64 / 4.0, 0.2).to_waveform("X(q0)", 4.54)
}

fn flat_pulse(n: usize, amp: f64) -> Waveform {
    GaussianSquare::new(n, amp, 40.0, (3 * n) / 4).to_waveform("CX(q0,q1)", 4.54)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Plain streams of every variant survive the container bit-exactly
    /// and decode to the same samples through every serving path.
    #[test]
    fn plain_streams_round_trip_bit_exactly(
        variant_idx in 0usize..10,
        n in 70usize..420,
        amp in 0.15f64..0.85,
    ) {
        let variant = plain_variants()[variant_idx];
        let wf = ramp_pulse(n, amp);
        let z = Compressor::new(variant).compress(&wf).unwrap();
        let gate = GateId::single(GateKind::X, 0);
        let mut writer = Writer::new();
        writer.add(&gate, &z).unwrap();
        let reader = Reader::open(writer.finish().unwrap(), ReaderOptions::default()).unwrap();

        // Field-exact stream round-trip.
        let StreamPayload::Plain(back) = reader.find(&gate).unwrap().read().unwrap() else {
            panic!("plain entry read back as a different kind");
        };
        prop_assert_eq!(&back, &z, "stream must round-trip field-exactly");

        // Decode agreement: in-memory engine vs container fetch vs store.
        let engine = DecompressionEngine::for_variant(variant).unwrap();
        let mut scratch = DecodeScratch::new();
        let (mut i0, mut q0) = (Vec::new(), Vec::new());
        engine.decompress_into(&z, &mut scratch, &mut i0, &mut q0).unwrap();

        let mut cscratch = ContainerScratch::new();
        let (mut i1, mut q1) = (Vec::new(), Vec::new());
        reader.fetch_into(&gate, &mut cscratch, &mut i1, &mut q1).unwrap();
        prop_assert_eq!(&i0, &i1, "reader I decode must be bit-identical");
        prop_assert_eq!(&q0, &q1, "reader Q decode must be bit-identical");

        let store = Store::from_reader(&reader, StoreConfig::default()).unwrap();
        let (mut i2, mut q2) = (Vec::new(), Vec::new());
        store.fetch_into(&gate, &mut i2, &mut q2).unwrap();
        prop_assert_eq!(&i0, &i2, "store I decode must be bit-identical");
        prop_assert_eq!(&q0, &q2, "store Q decode must be bit-identical");
    }

    /// Overlapped and adaptive streams round-trip field-exactly and
    /// decode identically to the never-serialized value.
    #[test]
    fn overlap_and_adaptive_round_trip(
        ws_idx in 0usize..4,
        n in 300usize..900,
        amp in 0.2f64..0.8,
    ) {
        let ws = [8usize, 16, 32, 64][ws_idx];
        let ramp = ramp_pulse(n / 2, amp);
        let flat = flat_pulse(n, amp);
        let lapped = OverlapCompressor::new(ws).unwrap().compress(&ramp).unwrap();
        let adaptive = AdaptiveCompressor::new(Variant::IntDctW { ws: 16 })
            .compress(&flat)
            .unwrap();

        let mut writer = Writer::new();
        let g_overlap = GateId::single(GateKind::X, 1);
        let g_adaptive = GateId::pair(GateKind::Cx, 0, 1);
        writer.add_overlap(&g_overlap, &lapped).unwrap();
        writer.add_adaptive(&g_adaptive, &adaptive).unwrap();
        let reader = Reader::open(writer.finish().unwrap(), ReaderOptions::default()).unwrap();

        let StreamPayload::Overlap(back) = reader.find(&g_overlap).unwrap().read().unwrap() else {
            panic!("overlap entry read back as a different kind");
        };
        prop_assert_eq!(&back, &lapped);
        let direct = lapped.decompress().unwrap();
        let roundtrip = back.decompress().unwrap();
        prop_assert_eq!(direct.i(), roundtrip.i(), "lapped decode must be bit-identical");
        prop_assert_eq!(direct.q(), roundtrip.q());

        let StreamPayload::Adaptive(back) = reader.find(&g_adaptive).unwrap().read().unwrap()
        else {
            panic!("adaptive entry read back as a different kind");
        };
        prop_assert_eq!(&back, &adaptive);
        let (direct, direct_stats) = adaptive.decompress().unwrap();
        let (roundtrip, roundtrip_stats) = back.decompress().unwrap();
        prop_assert_eq!(direct.i(), roundtrip.i(), "adaptive decode must be bit-identical");
        prop_assert_eq!(direct.q(), roundtrip.q());
        prop_assert_eq!(direct_stats, roundtrip_stats, "engine accounting agrees");
    }
}

/// The same library produces identical container bytes through every
/// writer entry point and every staging order.
#[test]
fn container_bytes_are_deterministic() {
    let lib = Device::synthesize(Vendor::Google, 4, 0xD17E).pulse_library();
    let compressor = Compressor::new(Variant::IntDctW { ws: 16 });

    let direct = write_library(&lib, &compressor).unwrap();

    // Same streams staged in reverse order.
    let entries: Vec<(GateId, CompressedWaveform)> =
        lib.iter().map(|(g, wf)| (g.clone(), compressor.compress(wf).unwrap())).collect();
    let mut reversed = Writer::new();
    for (g, z) in entries.iter().rev() {
        reversed.add(g, z).unwrap();
    }
    assert_eq!(direct.as_ref(), reversed.finish().unwrap().as_ref(), "order independence");

    // Through the compile-side report.
    let report = compaqt::core::stats::compress_library(&lib, &compressor).unwrap();
    assert_eq!(direct.as_ref(), write_report(&report).unwrap().as_ref(), "report path");

    // Through a serving store (hash-map iteration order is arbitrary —
    // the canonical sort must erase it).
    let store = Store::from_library(&lib, &compressor).unwrap();
    assert_eq!(direct.as_ref(), write_store(&store).unwrap().as_ref(), "store path");

    // And a full write → load → write cycle is a fixed point.
    let reader = Reader::open(direct.clone(), ReaderOptions::default()).unwrap();
    let reloaded = reader.into_store(StoreConfig::default()).unwrap();
    assert_eq!(direct.as_ref(), write_store(&reloaded).unwrap().as_ref(), "reload fixed point");
}

/// Names the file a re-executed copy of this test binary writes its
/// result to (see [`kernel_tier_child`]).
const TIER_CHILD_OUT: &str = "COMPAQT_TIER_CHILD_OUT";

/// The 433-qubit fleet's container at the paper's design point, plus an
/// FNV-1a digest of every sample `Reader::fetch_into` decodes from it.
/// The fleet's pulses decode to no negative sample, so the digest also
/// covers negative-amplitude pulses encoded and decoded in memory.
fn hex_433_container_and_decode_digest() -> (Vec<u8>, u64) {
    let spec = compaqt::pulse::registry::Registry::builtin()
        .get("hex-433")
        .expect("hex-433 is a builtin device")
        .clone();
    let lib = spec.build_library();
    let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
    let bytes = write_library(&lib, &compressor).unwrap();
    let reader = Reader::open(bytes.clone(), ReaderOptions::default()).unwrap();
    let mut scratch = ContainerScratch::new();
    let (mut i, mut q) = (Vec::new(), Vec::new());
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |i: &[f64], q: &[f64]| {
        for v in i.iter().chain(q) {
            for b in v.to_bits().to_le_bytes() {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    };
    for (gate, _) in lib.iter_sorted() {
        reader.fetch_into(gate, &mut scratch, &mut i, &mut q).unwrap();
        fold(&i, &q);
    }
    let engine = DecompressionEngine::for_variant(compressor.variant()).unwrap();
    let mut decode = DecodeScratch::new();
    for amp in [-0.95, -0.4, 0.7] {
        for wf in [ramp_pulse(136, amp), flat_pulse(1362, amp)] {
            let z = compressor.compress(&wf).unwrap();
            engine.decompress_into(&z, &mut decode, &mut i, &mut q).unwrap();
            assert!(amp > 0.0 || i.iter().any(|&v| v < 0.0), "a negative pulse decodes negative");
            fold(&i, &q);
        }
    }
    (bytes.to_vec(), digest)
}

/// The child half of [`container_bytes_are_identical_across_kernel_tiers`]:
/// when [`TIER_CHILD_OUT`] is set, writes the container followed by the
/// decode digest there. A no-op otherwise.
#[test]
fn kernel_tier_child() {
    if let Some(path) = std::env::var_os(TIER_CHILD_OUT) {
        let (mut bytes, digest) = hex_433_container_and_decode_digest();
        bytes.extend_from_slice(&digest.to_le_bytes());
        std::fs::write(path, bytes).unwrap();
    }
}

/// The container a compile writes, and the samples a fetch decodes from
/// it, are the same bits whichever kernel tier ran: this process uses
/// the detected tier, and a copy of this test binary re-run with
/// `COMPAQT_FORCE_SCALAR=1` uses the scalar fallback (the tier is
/// chosen once per process, so pinning it needs a fresh one).
#[test]
fn container_bytes_are_identical_across_kernel_tiers() {
    let (here, here_digest) = hex_433_container_and_decode_digest();
    let out = std::env::temp_dir().join(format!("compaqt-tier-child-{}.bin", std::process::id()));
    let run = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--exact", "kernel_tier_child"])
        .env("COMPAQT_FORCE_SCALAR", "1")
        .env(TIER_CHILD_OUT, &out)
        .output()
        .unwrap();
    assert!(run.status.success(), "the forced-scalar child failed: {run:?}");
    let child = std::fs::read(&out).unwrap();
    std::fs::remove_file(&out).unwrap();
    let (scalar, digest) = child.split_at(child.len() - 8);
    assert!(here.as_slice() == scalar, "hex-433 container bytes differ between kernel tiers");
    assert_eq!(here_digest.to_le_bytes(), digest, "decoded samples differ between kernel tiers");
}

/// One container opened through every [`ContainerSource`] kind — owned
/// bytes, a caller-borrowed region, a memory-mapped file — and both
/// validation modes must serve **bit-identical** results across every
/// stream kind the format holds: same payload bytes, same field-exact
/// stream round-trip, same decoded samples as the owned eager reader.
/// The source is a transport detail; the contract is invariant.
#[test]
fn every_source_kind_serves_bit_identically() {
    // A container with every payload kind: all ten plain variants plus
    // an overlapped and an adaptive stream.
    let mut writer = Writer::new();
    let mut plain_gates = Vec::new();
    for (k, variant) in plain_variants().into_iter().enumerate() {
        let wf = ramp_pulse(180 + 16 * k, 0.2 + 0.05 * k as f64);
        let gate = GateId::single(GateKind::Custom(format!("plain{k}")), k as u16);
        writer.add(&gate, &Compressor::new(variant).compress(&wf).unwrap()).unwrap();
        plain_gates.push(gate);
    }
    let g_overlap = GateId::single(GateKind::X, 40);
    let lapped = OverlapCompressor::new(16).unwrap().compress(&ramp_pulse(260, 0.5)).unwrap();
    writer.add_overlap(&g_overlap, &lapped).unwrap();
    let g_adaptive = GateId::pair(GateKind::Cx, 40, 41);
    let adaptive = AdaptiveCompressor::new(Variant::IntDctW { ws: 16 })
        .compress(&flat_pulse(600, 0.4))
        .unwrap();
    writer.add_adaptive(&g_adaptive, &adaptive).unwrap();
    let bytes = writer.finish().unwrap();

    // Owned + eager (the default options) is the reference every other (kind, mode) pair must match bit-for-bit.
    let reference = Reader::open(bytes.clone(), ReaderOptions::default()).unwrap();
    let mut rscratch = ContainerScratch::new();
    let (mut ri, mut rq) = (Vec::new(), Vec::new());

    for kind in common::selected_kinds() {
        for options in [ReaderOptions::new(), ReaderOptions::lazy_crc()] {
            common::with_source(kind, bytes.as_ref(), options, |r| {
                let reader = r.expect("a clean container must open from every source");
                let mode = format!("{kind}/{:?}", reader.validation());
                assert_eq!(reader.len(), reference.len(), "{mode}");
                assert_eq!(
                    reader.gates().collect::<Vec<_>>(),
                    reference.gates().collect::<Vec<_>>(),
                    "{mode}: gate listing"
                );

                // Raw payload bytes are identical regardless of backing.
                for entry in reference.entries() {
                    let other = reader.find(entry.gate()).unwrap();
                    assert_eq!(
                        entry.payload_slice(),
                        other.payload_slice(),
                        "{mode} {}: payload bytes",
                        entry.gate()
                    );
                    assert_eq!(entry.crc32(), other.crc32(), "{mode}: index CRC field");
                }

                // Plain gates: decoded samples and zero-parse stream
                // bytes match the reference exactly.
                let mut scratch = ContainerScratch::new();
                let (mut i, mut q) = (Vec::new(), Vec::new());
                for gate in &plain_gates {
                    reference.fetch_into(gate, &mut rscratch, &mut ri, &mut rq).unwrap();
                    reader.fetch_into(gate, &mut scratch, &mut i, &mut q).unwrap();
                    assert_eq!(ri, i, "{mode} {gate}: I channel");
                    assert_eq!(rq, q, "{mode} {gate}: Q channel");
                    assert_eq!(
                        reference.stream_bytes(gate).unwrap(),
                        reader.stream_bytes(gate).unwrap(),
                        "{mode} {gate}: wire stream bytes"
                    );
                }

                // Lapped and adaptive streams round-trip field-exactly
                // from every backing.
                let StreamPayload::Overlap(back) = reader.find(&g_overlap).unwrap().read().unwrap()
                else {
                    panic!("{mode}: overlap entry read back as a different kind");
                };
                assert_eq!(back, lapped, "{mode}: lapped stream");
                let StreamPayload::Adaptive(back) =
                    reader.find(&g_adaptive).unwrap().read().unwrap()
                else {
                    panic!("{mode}: adaptive entry read back as a different kind");
                };
                assert_eq!(back, adaptive, "{mode}: adaptive stream");
            });
        }
    }
}

/// A store loaded from a container serves every gate of a full device
/// library with samples identical to a store that never left memory.
#[test]
fn container_loaded_store_matches_in_memory_store() {
    let lib = Device::synthesize(Vendor::Ibm, 5, 0x10AD).pulse_library();
    let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
    let in_memory = Store::from_library(&lib, &compressor).unwrap();
    let bytes = write_store(&in_memory).unwrap();
    let loaded = Reader::open(bytes, ReaderOptions::default())
        .unwrap()
        .into_store(StoreConfig::default())
        .unwrap();
    assert_eq!(loaded.len(), in_memory.len());

    let ids = in_memory.gates();
    let mut outs: Vec<(Vec<f64>, Vec<f64>)> = ids.iter().map(|_| Default::default()).collect();
    loaded.fetch_many(&ids, &mut outs).unwrap();
    let (mut i, mut q) = (Vec::new(), Vec::new());
    for (gate, (li, lq)) in ids.iter().zip(&outs) {
        in_memory.fetch_into(gate, &mut i, &mut q).unwrap();
        assert_eq!(&i, li, "{gate}: I channel");
        assert_eq!(&q, lq, "{gate}: Q channel");
    }
}

/// The encoded bytes of two fleet libraries, pinned by length and
/// CRC-32: both at the paper's design point (int-DCT-W, WS=16), plus
/// `surface-d5` at int-DCT-W WS=8 and at float DCT-W over every window
/// size from 8 to 64. Any change to a stored word fails here, on the
/// detected kernel tier and (CI's forced-scalar leg) on the scalar
/// fallback. The WS=16 constants come from the encoder without the
/// constant-window shortcut and the fused threshold pass, so they hold
/// both to the plain butterfly-then-threshold bytes. The other rows were
/// recorded when every tier encoded through structure-of-arrays forward
/// kernels (integer and float), so they hold the per-window forwards
/// that replaced those kernels to the same bytes.
#[test]
fn fleet_container_bytes_are_pinned() {
    let registry = compaqt::pulse::registry::Registry::builtin();
    let pinned = [
        ("hex-433", Variant::IntDctW { ws: 16 }, 1_765_704, 0x5bbf_682c),
        ("surface-d5", Variant::IntDctW { ws: 16 }, 450_689, 0x1846_9f8c),
        ("surface-d5", Variant::IntDctW { ws: 8 }, 828_549, 0x12fe_a8ef),
        ("surface-d5", Variant::DctW { ws: 8 }, 828_533, 0x6b12_478c),
        ("surface-d5", Variant::DctW { ws: 16 }, 450_665, 0x8db6_c37f),
        ("surface-d5", Variant::DctW { ws: 32 }, 252_273, 0xff27_4972),
        ("surface-d5", Variant::DctW { ws: 64 }, 157_877, 0xfad1_903c),
    ];
    for (device, variant, len, crc) in pinned {
        let lib = registry.get(device).expect("a builtin device").build_library();
        let bytes = write_library(&lib, &Compressor::new(variant)).unwrap();
        let got = (bytes.len(), compaqt::io::crc32::crc32(&bytes));
        assert_eq!(got, (len, crc), "{device} {variant:?}: container length and CRC-32");
    }
}
