//! End-to-end integration: synthetic device -> pulse library -> software
//! compression -> banked compressed memory -> hardware decompression
//! engine -> transmon evolution. Spans all five crates.

use compaqt::core::compress::{CompressedWaveform, Compressor, Variant};
use compaqt::core::engine::{DecodeScratch, DecompressionEngine};
use compaqt::core::memory::BankedMemory;
use compaqt::pulse::device::Device;
use compaqt::pulse::vendor::Vendor;
use compaqt::quantum::transmon;

mod common;

#[test]
fn whole_library_survives_the_full_pipeline() {
    let device = Device::synthesize(Vendor::Ibm, 5, 0xE2E);
    let lib = device.pulse_library();
    let compressor = Compressor::new(Variant::IntDctW { ws: 16 }).with_max_window_words(3);
    let engine = DecompressionEngine::for_variant(Variant::IntDctW { ws: 16 }).unwrap();
    let mut memory = BankedMemory::new();
    let mut scratch = DecodeScratch::new();
    let (mut i, mut q) = (Vec::new(), Vec::new());

    for (gate, wf) in lib.iter() {
        let z = compressor.compress(wf).unwrap_or_else(|e| panic!("{gate}: {e}"));
        // Through the banked memory and back.
        let (hi, hq) = memory.store(&z);
        let banked =
            CompressedWaveform { i: memory.load_channel(hi), q: memory.load_channel(hq), ..z };
        let stats = engine.decompress_into(&banked, &mut scratch, &mut i, &mut q).unwrap();
        let (restored, oracle_stats) = common::oracle_decompress(&banked).unwrap();
        assert_eq!((restored.i(), restored.q()), (&i[..], &q[..]), "{gate}: decoders diverge");
        assert_eq!(oracle_stats, stats, "{gate}: stats diverge");
        let mse = wf.mse(&restored);
        assert!(mse < 1e-4, "{gate}: mse {mse:e}");
        // Bandwidth expansion is the whole point.
        assert!(
            stats.bandwidth_expansion() > 3.0,
            "{gate}: expansion {}",
            stats.bandwidth_expansion()
        );
    }
}

#[test]
fn banked_memory_is_bit_exact_with_direct_decode() {
    let device = Device::synthesize(Vendor::Ibm, 3, 0xBEE);
    let lib = device.pulse_library();
    let compressor = Compressor::new(Variant::IntDctW { ws: 8 });
    let engine = DecompressionEngine::for_variant(Variant::IntDctW { ws: 8 }).unwrap();
    let mut memory = BankedMemory::new();
    let mut scratch = DecodeScratch::new();
    let (mut direct, mut banked) = (Vec::new(), Vec::new());
    let mut stats = compaqt::core::EngineStats::default(); // not compared here
    for (_, wf) in lib.iter() {
        let z = compressor.compress(wf).unwrap();
        let (hi, _) = memory.store(&z);
        let li = memory.load_channel(hi);
        direct.clear();
        banked.clear();
        engine
            .decode_channel_into(&z.i, z.n_samples, &mut scratch, &mut direct, &mut stats)
            .unwrap();
        engine
            .decode_channel_into(&li, z.n_samples, &mut scratch, &mut banked, &mut stats)
            .unwrap();
        assert_eq!(direct, banked, "banked path must be bit-exact");
        let oracle =
            common::oracle_decode_channel(z.variant, &li, z.n_samples, &mut stats).unwrap();
        assert_eq!(oracle, banked, "banked decode must match the oracle");
    }
}

#[test]
fn every_gate_keeps_fidelity_after_compression() {
    // The abstract's claim: < 0.1% fidelity degradation.
    let device = Device::synthesize(Vendor::Ibm, 4, 0xF1D);
    let lib = device.pulse_library();
    let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
    for (gate, wf) in lib.iter() {
        let z = compressor.compress(wf).unwrap();
        let restored = z.decompress().unwrap();
        let infid = transmon::distortion_infidelity(wf, &restored);
        assert!(infid < 1e-3, "{gate}: infidelity {infid:e}");
    }
}

#[test]
fn fidelity_aware_compression_trades_ratio_for_error() {
    let device = Device::synthesize(Vendor::Ibm, 2, 0xA1);
    let wf = device.pi_pulse(0);
    let c = Compressor::new(Variant::IntDctW { ws: 16 }).with_threshold(0.1);
    let (loose, _) = c.compress_with_target(&wf, 1e-4).unwrap();
    let (tight, _) = c.compress_with_target(&wf, 1e-7).unwrap();
    assert!(loose.ratio().ratio() >= tight.ratio().ratio());
    let mse_tight = wf.mse(&tight.decompress().unwrap());
    assert!(mse_tight <= 1e-7, "got {mse_tight:e}");
}

#[test]
fn google_style_devices_also_compress() {
    let device = Device::synthesize(Vendor::Google, 9, 0x600613);
    let lib = device.pulse_library();
    let report =
        compaqt::core::stats::compress_library(&lib, &Compressor::new(Variant::IntDctW { ws: 16 }))
            .unwrap();
    assert!(report.overall.ratio() > 3.0, "got {}", report.overall.ratio());
}

#[test]
fn adaptive_pipeline_round_trips_cr_pulses() {
    use compaqt::core::adaptive::AdaptiveCompressor;
    let device = Device::synthesize(Vendor::Ibm, 3, 0xADA);
    let lib = device.pulse_library();
    let adaptive = AdaptiveCompressor::new(Variant::IntDctW { ws: 16 });
    let mut bypassed_any = false;
    for (gate, wf) in lib.iter() {
        if let Ok(z) = adaptive.compress(wf) {
            let (restored, stats) = z.decompress().unwrap();
            assert!(wf.mse(&restored) < 1e-4, "{gate}");
            if stats.bypassed_samples > 0 {
                bypassed_any = true;
            }
        }
    }
    assert!(bypassed_any, "flat-top CR/readout pulses should hit the bypass path");
}
