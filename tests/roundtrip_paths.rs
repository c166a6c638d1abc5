//! Round-trip property tests over both codec directions.
//!
//! Every compression variant is decoded by the engine's one decoder
//! (`decompress_into`) and by the reference decoder in `tests/common`
//! (per-window RLE expansion + allocating matrix inverse), and the two
//! reconstructions must agree **bit-exactly** (f64 `==`, not a
//! tolerance): the fused sparse kernel computes the same integer
//! arithmetic as the matrix inverse, so any ULP of drift is a bug.
//! Engine stats must agree exactly as well. The encode side is held to
//! the same contract: a reused [`EncodeScratch`] + output slot must
//! produce streams `==` to the allocating compressor's, for every
//! variant, window size, and encoder (plain, overlapped, adaptive).

mod common;

use compaqt::core::batch;
use compaqt::core::compress::{ChannelData, CompressedWaveform, Compressor, Variant};
use compaqt::core::engine::{DecodeScratch, DecompressionEngine, EncodeScratch};
use compaqt::dsp::intdct::SUPPORTED_SIZES;
use compaqt::pulse::waveform::Waveform;
use proptest::prelude::*;

/// All variants the codec supports, across every window size.
fn all_variants() -> Vec<Variant> {
    let mut v = vec![Variant::Delta, Variant::DctN];
    for ws in SUPPORTED_SIZES {
        v.push(Variant::DctW { ws });
        v.push(Variant::IntDctW { ws });
    }
    v
}

/// Random low-harmonic mixtures: the smooth band-limited waveform class.
fn smooth_signal(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1.0f64..1.0, 6).prop_map(move |coeffs| {
        (0..len)
            .map(|t| {
                let x = t as f64 / len as f64;
                let mut v = 0.0;
                for (k, c) in coeffs.iter().enumerate() {
                    v += c * (std::f64::consts::PI * (k + 1) as f64 * x).sin();
                }
                0.9 * v / coeffs.len() as f64
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_variant_agrees_across_paths(
        xs in smooth_signal(160),
        noise in proptest::collection::vec(-1.0f64..1.0, 2 * 160),
    ) {
        let wf = Waveform::from_real("prop", xs, 4.54);
        let mut streams: Vec<CompressedWaveform> =
            all_variants().into_iter().map(|v| Compressor::new(v).compress(&wf).unwrap()).collect();
        // White noise on both channels with nothing thresholded away: every
        // int-DCT channel stores at least half a word per sample, the
        // densest streams the decoder sees.
        let (ni, nq) = noise.split_at(160);
        let dense = Waveform::new("noise", ni.to_vec(), nq.to_vec(), 4.54);
        for ws in SUPPORTED_SIZES {
            let z = Compressor::new(Variant::IntDctW { ws }).with_threshold(0.0).compress(&dense).unwrap();
            for channel in [&z.i, &z.q] {
                let ChannelData::Windows(windows) = channel else {
                    panic!("ws={ws}: int-DCT channel is not windowed");
                };
                let words: usize = windows.iter().map(Vec::len).sum();
                let samples = windows.len() * ws;
                prop_assert!(2 * words >= samples, "ws={}: fill {}/{} below 1/2", ws, words, samples);
            }
            streams.push(z);
        }
        let mut scratch = DecodeScratch::new();
        let (mut i, mut q) = (Vec::new(), Vec::new());
        for z in &streams {
            let variant = z.variant;
            let engine = DecompressionEngine::for_variant(variant).unwrap();
            let (oracle, oracle_stats) = common::oracle_decompress(z).unwrap();
            let stats = engine.decompress_into(z, &mut scratch, &mut i, &mut q).unwrap();
            prop_assert_eq!(oracle.i(), &i[..], "{:?}: I channel must be bit-exact", variant);
            prop_assert_eq!(oracle.q(), &q[..], "{:?}: Q channel must be bit-exact", variant);
            prop_assert_eq!(oracle_stats, stats);
        }
    }

    #[test]
    fn odd_lengths_agree_across_paths(
        xs in smooth_signal(137),
        ws_idx in 0usize..5,
    ) {
        // Padding paths: waveform length not a multiple of the window.
        let ws = SUPPORTED_SIZES[ws_idx];
        let wf = Waveform::from_real("prop", xs, 4.54);
        let mut scratch = DecodeScratch::new();
        let (mut i, mut q) = (Vec::new(), Vec::new());
        for variant in [Variant::DctW { ws }, Variant::IntDctW { ws }] {
            let z = Compressor::new(variant).compress(&wf).unwrap();
            let engine = DecompressionEngine::for_variant(variant).unwrap();
            let (oracle, _) = common::oracle_decompress(&z).unwrap();
            engine.decompress_into(&z, &mut scratch, &mut i, &mut q).unwrap();
            prop_assert_eq!(oracle.i(), &i[..]);
            prop_assert_eq!(oracle.q(), &q[..]);
        }
    }

    #[test]
    fn batch_decoders_agree_with_single_path(xs in smooth_signal(96)) {
        let wf = Waveform::from_real("prop", xs, 4.54);
        let zs: Vec<_> = all_variants()
            .into_iter()
            .map(|v| Compressor::new(v).compress(&wf).unwrap())
            .collect();
        let (seq, _) = batch::decompress_library(&zs).unwrap();
        for (z, a) in zs.iter().zip(&seq) {
            let (oracle, _) = common::oracle_decompress(z).unwrap();
            prop_assert_eq!(oracle.i(), a.i());
            prop_assert_eq!(oracle.q(), a.q());
        }
    }

    #[test]
    fn every_variant_compresses_identically_across_paths(xs in smooth_signal(160)) {
        // The reuse encoder must be a pure refactor: one scratch and one
        // output slot shared across all variants (worst case for stale
        // state) still produce streams identical to the allocating path.
        let wf = Waveform::from_real("prop", xs, 4.54);
        let mut scratch = EncodeScratch::new();
        let mut out = CompressedWaveform::empty();
        for variant in all_variants() {
            let compressor = Compressor::new(variant);
            compressor.compress_into(&wf, &mut scratch, &mut out).unwrap();
            prop_assert_eq!(&out, &compressor.compress(&wf).unwrap(),
                "{:?}: compress_into must be bit-exact", variant);
        }
    }

    #[test]
    fn capped_and_thresholded_encodes_agree_across_paths(
        xs in smooth_signal(200),
        cap in 2usize..5,
        thr_millis in 1u32..60,
    ) {
        let wf = Waveform::from_real("prop", xs, 4.54);
        let compressor = Compressor::new(Variant::IntDctW { ws: 16 })
            .with_threshold(f64::from(thr_millis) / 1000.0)
            .with_max_window_words(cap);
        let mut scratch = EncodeScratch::new();
        let mut out = CompressedWaveform::empty();
        compressor.compress_into(&wf, &mut scratch, &mut out).unwrap();
        prop_assert_eq!(&out, &compressor.compress(&wf).unwrap());
    }

    #[test]
    fn overlap_and_adaptive_encoders_agree_across_paths(xs in smooth_signal(454)) {
        use compaqt::core::adaptive::AdaptiveCompressor;
        use compaqt::core::overlap::{OverlapCompressed, OverlapCompressor};
        use compaqt::pulse::shapes::{GaussianSquare, PulseShape};
        let wf = Waveform::from_real("prop", xs, 4.54);
        let mut scratch = EncodeScratch::new();
        let lapped = OverlapCompressor::new(8).unwrap();
        let mut out = OverlapCompressed::empty();
        lapped.compress_into(&wf, &mut scratch, &mut out).unwrap();
        prop_assert_eq!(&out, &lapped.compress(&wf).unwrap());
        // Flat-top for the adaptive encoder (synthetic plateau).
        let flat = GaussianSquare::new(454, 0.35, 12.0, 360).to_waveform("flat", 4.54);
        let adaptive = AdaptiveCompressor::new(Variant::IntDctW { ws: 16 });
        prop_assert_eq!(
            adaptive.compress_with(&flat, &mut scratch).unwrap(),
            adaptive.compress(&flat).unwrap()
        );
    }

    #[test]
    fn window_cap_streams_agree_across_paths(xs in smooth_signal(200), cap in 2usize..5) {
        let wf = Waveform::from_real("prop", xs, 4.54);
        let z = Compressor::new(Variant::IntDctW { ws: 16 })
            .with_max_window_words(cap)
            .compress(&wf)
            .unwrap();
        let engine = DecompressionEngine::for_variant(z.variant).unwrap();
        let (oracle, _) = common::oracle_decompress(&z).unwrap();
        let mut scratch = DecodeScratch::new();
        let (mut i, mut q) = (Vec::new(), Vec::new());
        engine.decompress_into(&z, &mut scratch, &mut i, &mut q).unwrap();
        prop_assert_eq!(oracle.i(), &i[..]);
        prop_assert_eq!(oracle.q(), &q[..]);
    }
}

/// A mixed-length `DCT-N` library exercises the keyed plan cache: every
/// waveform length needs its own full-length transform plan, and before
/// the cache a single cached slot was rebuilt on every length change.
#[test]
fn mixed_length_dct_n_library_round_trips_through_shared_scratches() {
    use compaqt::pulse::shapes::{GaussianSquare, PulseShape};
    // More distinct lengths than fit in one plan slot, revisited in an
    // alternating order that would thrash a single-entry cache.
    let lengths = [136usize, 1362, 454, 160, 320, 136, 1362, 454, 160, 320, 136, 1362];
    let compressor = Compressor::new(Variant::DctN);
    let engine = DecompressionEngine::for_variant(Variant::DctN).unwrap();
    let mut enc = EncodeScratch::new();
    let mut dec = DecodeScratch::new();
    let mut z = CompressedWaveform::empty();
    let (mut i, mut q) = (Vec::new(), Vec::new());
    for &n in &lengths {
        let wf = GaussianSquare::new(n, 0.3, n as f64 / 30.0, n / 2).to_waveform("w", 4.54);
        // Encode through the shared scratch == allocating encode.
        compressor.compress_into(&wf, &mut enc, &mut z).unwrap();
        assert_eq!(z, compressor.compress(&wf).unwrap(), "n={n}: encode paths diverge");
        // Decode through the shared scratch == reference decode.
        let (oracle, _) = common::oracle_decompress(&z).unwrap();
        engine.decompress_into(&z, &mut dec, &mut i, &mut q).unwrap();
        assert_eq!(oracle.i(), &i[..], "n={n}: decode diverges from the oracle");
        assert_eq!(oracle.q(), &q[..], "n={n}: decode diverges from the oracle");
    }
    // Five distinct lengths -> five cached plans on each side, within the
    // bound; revisits were cache hits, not rebuilds.
    assert_eq!(enc.plan_cache().len(), 5);
    assert_eq!(dec.plan_cache().len(), 5);
    assert!(enc.plan_cache().len() <= enc.plan_cache().capacity());
    assert!(dec.plan_cache().len() <= dec.plan_cache().capacity());
}

/// Adversarial length sequences must never grow the cache past its
/// bound, and evicted-then-revisited lengths must still decode exactly.
#[test]
fn plan_cache_stays_bounded_under_adversarial_length_sequences() {
    use compaqt::dsp::plan::DctPlanCache;
    use compaqt::pulse::shapes::{Gaussian, PulseShape};
    let cap = DctPlanCache::DEFAULT_CAPACITY;
    // A sweep of more distinct lengths than the bound, then a revisit of
    // the oldest (guaranteed-evicted) length.
    let lengths: Vec<usize> = (0..cap + 4).map(|k| 96 + 16 * k).collect();
    let compressor = Compressor::new(Variant::DctN);
    let engine = DecompressionEngine::for_variant(Variant::DctN).unwrap();
    let mut dec = DecodeScratch::new();
    let (mut i, mut q) = (Vec::new(), Vec::new());
    for &n in lengths.iter().chain([lengths[0]].iter()) {
        let wf = Gaussian::new(n, 0.5, n as f64 / 5.0).to_waveform("g", 4.54);
        let z = compressor.compress(&wf).unwrap();
        let (oracle, _) = common::oracle_decompress(&z).unwrap();
        engine.decompress_into(&z, &mut dec, &mut i, &mut q).unwrap();
        assert_eq!(oracle.i(), &i[..], "n={n}");
        assert!(dec.plan_cache().len() <= cap, "n={n}: cache exceeded its bound");
    }
    assert_eq!(dec.plan_cache().len(), cap, "sweep should fill the cache exactly");
    assert!(dec.plan_cache().contains(lengths[0]), "revisited length must be re-cached");
}

/// The adaptive decoder chains window segments through the engine and
/// expands plateaus with the IDCT bypassed; samples and stats must match
/// the reference decode of the same segments.
#[test]
fn adaptive_decode_matches_the_oracle() {
    use compaqt::core::adaptive::AdaptiveCompressor;
    use compaqt::pulse::shapes::{GaussianSquare, PulseShape};
    let flat = GaussianSquare::new(454, 0.35, 12.0, 360).to_waveform("flat", 4.54);
    for variant in
        [Variant::IntDctW { ws: 16 }, Variant::IntDctW { ws: 8 }, Variant::DctW { ws: 16 }]
    {
        let z = AdaptiveCompressor::new(variant).compress(&flat).unwrap();
        let (i, q, stats) = common::oracle_decompress_adaptive(&z);
        let (wf, engine_stats) = z.decompress().unwrap();
        assert_eq!((wf.i(), wf.q()), (&i[..], &q[..]), "{variant:?}");
        assert_eq!(engine_stats, stats, "{variant:?}");
        assert!(stats.bypassed_samples > 0, "{variant:?}: the plateau must bypass the IDCT");
    }
}
