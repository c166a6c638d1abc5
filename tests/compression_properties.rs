//! Property-based tests of the codec invariants (proptest).

use compaqt::core::compress::{Compressor, Variant, DEFAULT_THRESHOLD};
use compaqt::dsp::dct::{dct2, dct3};
use compaqt::dsp::fixed::Q15;
use compaqt::dsp::intdct::IntDct;
use compaqt::dsp::rle::{CodedWord, RleDecoder, RleEncoder};
use compaqt::pulse::waveform::Waveform;
use proptest::prelude::*;

mod common;

/// A strategy for smooth band-limited signals (the waveform class):
/// random low-harmonic mixtures, bounded amplitude.
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dct_round_trips_arbitrary_signals(xs in proptest::collection::vec(-1.0f64..1.0, 1..80)) {
        let back = dct3(&dct2(&xs));
        for (a, b) in xs.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn int_dct_round_trip_error_is_bounded(xs in smooth_signal(16)) {
        let t = IntDct::new(16).unwrap();
        let q: Vec<Q15> = xs.iter().map(|&v| Q15::from_f64(v)).collect();
        let back = t.inverse(&t.forward(&q));
        for (a, b) in q.iter().zip(&back) {
            prop_assert!((a.to_f64() - b.to_f64()).abs() < 5e-3,
                "{} vs {}", a.to_f64(), b.to_f64());
        }
    }

    #[test]
    fn rle_round_trips_arbitrary_sparse_windows(
        head in proptest::collection::vec(-16384i32..16383, 0..16),
        zeros in 0usize..16,
    ) {
        let mut coeffs = head.clone();
        coeffs.extend(std::iter::repeat_n(0, zeros));
        if coeffs.is_empty() { coeffs.push(0); }
        let words = RleEncoder::new().encode_window(&coeffs);
        let back = RleDecoder::new().decode_window(&words, coeffs.len()).unwrap();
        prop_assert_eq!(back, coeffs);
    }

    #[test]
    fn packed_words_round_trip(raw in proptest::num::u16::ANY) {
        // Any 16-bit pattern decodes to a word that re-encodes identically.
        let word = CodedWord::unpack(raw);
        prop_assert_eq!(CodedWord::unpack(word.pack()), word);
    }

    #[test]
    fn compression_error_is_bounded_by_threshold(xs in smooth_signal(160)) {
        let wf = Waveform::from_real("prop", xs, 4.54);
        let z = Compressor::new(Variant::IntDctW { ws: 16 }).compress(&wf).unwrap();
        let restored = z.decompress().unwrap();
        // Each zeroed coefficient is below the threshold; MSE is bounded
        // by threshold^2 plus integer rounding.
        prop_assert!(wf.mse(&restored) < DEFAULT_THRESHOLD * DEFAULT_THRESHOLD + 1e-6);
    }

    #[test]
    fn compression_never_expands_smooth_signals(xs in smooth_signal(256)) {
        let wf = Waveform::from_real("prop", xs, 4.54);
        let z = Compressor::new(Variant::IntDctW { ws: 16 }).compress(&wf).unwrap();
        prop_assert!(z.ratio().ratio() >= 1.0, "ratio {}", z.ratio());
    }

    #[test]
    fn window_cap_is_always_respected(xs in smooth_signal(200), cap in 2usize..6) {
        let wf = Waveform::from_real("prop", xs, 4.54);
        let z = Compressor::new(Variant::IntDctW { ws: 16 })
            .with_max_window_words(cap)
            .compress(&wf)
            .unwrap();
        prop_assert!(z.worst_case_window_words() <= cap);
        // Still decodable.
        prop_assert!(z.decompress().is_ok());
    }

    #[test]
    fn channels_always_have_equal_window_words(
        i in smooth_signal(120),
        q in smooth_signal(120),
    ) {
        let wf = Waveform::new("prop", i, q, 4.54);
        let z = Compressor::new(Variant::IntDctW { ws: 8 }).compress(&wf).unwrap();
        prop_assert_eq!(z.i.window_word_counts(), z.q.window_word_counts());
    }

    #[test]
    fn delta_is_lossless_when_it_applies(xs in smooth_signal(100)) {
        // Shift positive so there are no zero crossings.
        let shifted: Vec<f64> = xs.iter().map(|v| 0.45 + v * 0.2).collect();
        let wf = Waveform::from_real("prop", shifted, 4.54);
        let z = Compressor::new(Variant::Delta).compress(&wf).unwrap();
        let restored = z.decompress().unwrap();
        prop_assert!(wf.mse(&restored) < 1e-9, "delta must be lossless: {:e}", wf.mse(&restored));
    }

    #[test]
    fn engine_stats_account_every_sample(xs in smooth_signal(96)) {
        use compaqt::core::engine::{DecodeScratch, DecompressionEngine, EngineStats};
        let wf = Waveform::from_real("prop", xs, 4.54);
        let z = Compressor::new(Variant::IntDctW { ws: 8 }).compress(&wf).unwrap();
        let engine = DecompressionEngine::for_variant(z.variant).unwrap();
        let (mut scratch, mut i) = (DecodeScratch::new(), Vec::new());
        let mut stats = EngineStats::default();
        engine.decode_channel_into(&z.i, z.n_samples, &mut scratch, &mut i, &mut stats).unwrap();
        prop_assert_eq!(i.len(), 96);
        prop_assert_eq!(stats.memory_words_read, z.i.words());
        let mut oracle_stats = EngineStats::default();
        let oracle =
            common::oracle_decode_channel(z.variant, &z.i, z.n_samples, &mut oracle_stats).unwrap();
        prop_assert_eq!(oracle, i);
        prop_assert_eq!(oracle_stats, stats);
    }
}
