//! Hostile-bitstream robustness: truncated, length-lying and bit-flipped
//! streams must come back as errors (or clamped output) — never as a
//! panic, an arithmetic overflow, or an out-of-bounds access.
//!
//! The decompression engine models hardware that sits between untrusted
//! waveform memory and a DAC; the software model holds itself to the
//! same standard. Three layers are attacked here:
//!
//! 1. the raw [`RleDecoder`] over arbitrary 16-bit words (every `u16`
//!    unpacks to *some* codeword, so the byte-mangler explores the whole
//!    wire alphabet),
//! 2. [`decompress_into`], checked against the reference decoder in
//!    `tests/common`, over compressor-produced streams whose words were
//!    bit-flipped or truncated,
//! 3. stream *metadata* lies: wrong window counts, absurd `n_samples`
//!    claims (which must be rejected before any buffer is sized from
//!    them), hostile delta headers and delta chains that would overflow
//!    a naive accumulator.
//!
//! [`decompress_into`]: DecompressionEngine::decompress_into

use compaqt::core::compress::{ChannelData, CompressedWaveform, Compressor, Variant};
use compaqt::core::engine::{DecodeScratch, DecompressionEngine, EngineStats};
use compaqt::core::CompressError;
use compaqt::dsp::rle::{CodedWord, RleCodeword, RleDecoder, MAX_RUN};
use compaqt::pulse::shapes::{Drag, PulseShape};
use proptest::prelude::*;

mod common;

/// Decodes a mangled waveform through the engine and the reference
/// decoder: neither may panic, both must accept or reject alike, and
/// on accepted streams samples and stats must agree exactly.
fn decode_both_paths(z: &CompressedWaveform) {
    let oracle = common::oracle_decompress(z);
    let Ok(engine) = DecompressionEngine::for_variant(z.variant) else {
        assert!(oracle.is_err(), "the oracle accepted a variant the engine rejects");
        return; // hostile variant header: rejected, done.
    };
    let mut scratch = DecodeScratch::new();
    let (mut i, mut q) = (Vec::new(), Vec::new());
    let engine_result = engine.decompress_into(z, &mut scratch, &mut i, &mut q);
    match (&oracle, &engine_result) {
        (Ok((wf, oracle_stats)), Ok(stats)) => {
            assert_eq!(wf.i(), &i[..], "decoders must agree on accepted streams");
            assert_eq!(wf.q(), &q[..], "decoders must agree on accepted streams");
            assert_eq!(oracle_stats, stats, "decoders must agree on the stats");
            assert!(i.len() <= z.n_samples, "output clamped to the sample claim");
        }
        (Err(_), Err(_)) => {}
        _ => {
            panic!("one decoder accepted what the other rejected: {oracle:?} vs {engine_result:?}")
        }
    }
}

fn x_pulse_stream(variant: Variant) -> CompressedWaveform {
    let wf = Drag::new(136, 0.5, 34.0, 0.2).to_waveform("X(q0)", 4.54);
    Compressor::new(variant).compress(&wf).unwrap()
}

fn mangle_variants() -> [Variant; 5] {
    [
        Variant::IntDctW { ws: 16 },
        Variant::IntDctW { ws: 8 },
        Variant::DctW { ws: 16 },
        Variant::DctN,
        Variant::Delta,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_words_never_panic_the_rle_decoder(
        raw in proptest::collection::vec(proptest::num::u16::ANY, 0..48),
        window in 0usize..70,
    ) {
        // Every u16 unpacks to a valid codeword, so this sweeps the whole
        // wire alphabet, tag bits included.
        let words: Vec<CodedWord> = raw.iter().map(|&w| CodedWord::unpack(w)).collect();
        let dec = RleDecoder::new();
        let mut buf = vec![0i32; window];
        let into = dec.decode_window_into(&words, &mut buf);
        let alloc = dec.decode_window(&words, window);
        // The two entry points agree; success means an exact fill.
        prop_assert_eq!(into.is_ok(), alloc.is_ok());
        if let Ok(v) = alloc {
            prop_assert_eq!(v.len(), window);
            prop_assert_eq!(v, buf);
        }
        // The unbounded stream decoder is total over repeat-safe input.
        match dec.decode_stream(&words) {
            Ok(out) => prop_assert!(out.len() <= raw.len() * usize::from(MAX_RUN)),
            Err(e) => prop_assert_eq!(e, compaqt::dsp::rle::RleError::RepeatWithoutSample),
        }
    }

    #[test]
    fn bit_flipped_streams_never_panic(
        variant_idx in 0usize..5,
        w_idx in proptest::num::usize::ANY,
        word_idx in proptest::num::usize::ANY,
        bit in 0u32..16,
    ) {
        let mut z = x_pulse_stream(mangle_variants()[variant_idx]);
        for ch in [&mut z.i, &mut z.q] {
            match ch {
                ChannelData::Windows(windows) if !windows.is_empty() => {
                    let wi = w_idx % windows.len();
                    if !windows[wi].is_empty() {
                        let pi = word_idx % windows[wi].len();
                        let flipped = windows[wi][pi].pack() ^ (1 << bit);
                        windows[wi][pi] = CodedWord::unpack(flipped);
                    }
                }
                ChannelData::Delta { deltas, .. } if !deltas.is_empty() => {
                    let pi = word_idx % deltas.len();
                    deltas[pi] = (deltas[pi] as u16 ^ (1u16 << bit)) as i16;
                }
                ChannelData::Raw(samples) if !samples.is_empty() => {
                    let pi = word_idx % samples.len();
                    samples[pi] = (samples[pi] as u16 ^ (1u16 << bit)) as i16;
                }
                _ => {}
            }
        }
        decode_both_paths(&z);
    }

    #[test]
    fn truncated_streams_never_panic(
        variant_idx in 0usize..5,
        w_idx in proptest::num::usize::ANY,
        keep in proptest::num::usize::ANY,
    ) {
        let mut z = x_pulse_stream(mangle_variants()[variant_idx]);
        match &mut z.i {
            ChannelData::Windows(windows) if !windows.is_empty() => {
                // Truncate one window's words, then drop trailing windows.
                let wi = w_idx % windows.len();
                let len = windows[wi].len();
                windows[wi].truncate(keep % (len + 1));
                let n = windows.len();
                windows.truncate(1 + w_idx % n);
            }
            ChannelData::Delta { deltas, .. } => {
                let len = deltas.len();
                deltas.truncate(keep % (len + 1));
            }
            ChannelData::Raw(samples) => {
                let len = samples.len();
                samples.truncate(keep % (len + 1));
            }
            _ => {}
        }
        decode_both_paths(&z);
    }

    #[test]
    fn length_lying_streams_never_panic_or_overallocate(
        variant_idx in 0usize..5,
        lie in proptest::num::usize::ANY,
    ) {
        // n_samples is pure metadata; claims up to usize::MAX must be
        // rejected (or clamped) before any buffer is sized from them.
        let mut z = x_pulse_stream(mangle_variants()[variant_idx]);
        z.n_samples = lie;
        decode_both_paths(&z);
        let _ = z.ratio();
        let _ = z.words();
    }

    #[test]
    fn hostile_run_codewords_never_panic_the_engine(
        run in 0u16..=MAX_RUN,
        repeat in proptest::num::usize::ANY,
        coeff in proptest::num::i16::ANY,
    ) {
        // Hand-built window lists with adversarial run lengths and
        // repeat-previous codewords (which the windowed compressor never
        // emits, forcing the fused kernel's fallback).
        let window = vec![
            CodedWord::Coeff(((coeff as u16) & 0x7FFF) as i16),
            CodedWord::Rle(RleCodeword { run, repeat_previous: repeat % 2 == 1 }),
        ];
        let z = CompressedWaveform {
            name: "hostile".into(),
            variant: Variant::IntDctW { ws: 16 },
            n_samples: 16,
            sample_rate_gs: 4.54,
            i: ChannelData::Windows(vec![window.clone()]),
            q: ChannelData::Windows(vec![window]),
        };
        decode_both_paths(&z);
    }
}

#[test]
fn dct_n_stream_with_extra_windows_is_rejected() {
    let mut z = x_pulse_stream(Variant::DctN);
    if let ChannelData::Windows(windows) = &mut z.i {
        let dup = windows[0].clone();
        windows.push(dup);
    }
    let engine = DecompressionEngine::for_variant(Variant::DctN).unwrap();
    let (mut scratch, mut out) = (DecodeScratch::new(), Vec::new());
    let mut stats = EngineStats::default();
    let err = engine
        .decode_channel_into(&z.i, z.n_samples, &mut scratch, &mut out, &mut stats)
        .unwrap_err();
    assert!(matches!(err, CompressError::MalformedStream { .. }), "got {err:?}");
    let err = common::oracle_decode_channel(z.variant, &z.i, z.n_samples, &mut stats).unwrap_err();
    assert!(matches!(err, CompressError::MalformedStream { .. }), "oracle got {err:?}");
}

#[test]
fn dct_n_sample_claim_beyond_rle_expansion_is_rejected_before_allocation() {
    // A 1-word DCT-N stream claiming billions of samples must error out
    // without ever allocating the claimed buffer.
    let z = CompressedWaveform {
        name: "liar".into(),
        variant: Variant::DctN,
        n_samples: usize::MAX,
        sample_rate_gs: 4.54,
        i: ChannelData::Windows(vec![vec![CodedWord::Coeff(5)]]),
        q: ChannelData::Windows(vec![vec![CodedWord::Coeff(5)]]),
    };
    let engine = DecompressionEngine::for_variant(Variant::DctN).unwrap();
    let err = common::oracle_decompress(&z).unwrap_err();
    assert!(matches!(err, CompressError::MalformedStream { .. }), "oracle got {err:?}");
    let mut scratch = DecodeScratch::new();
    let (mut i, mut q) = (Vec::new(), Vec::new());
    let err = engine.decompress_into(&z, &mut scratch, &mut i, &mut q).unwrap_err();
    assert!(matches!(err, CompressError::MalformedStream { .. }), "got {err:?}");
}

#[test]
fn sibling_decode_paths_reject_hostile_streams_too() {
    // The hardening must not stop at the engine: batch, overlap and
    // adaptive decoders share the same pub attacker-controlled structs.
    use compaqt::core::adaptive::{AdaptiveCompressed, Segment};
    use compaqt::core::batch;
    use compaqt::core::overlap::{OverlapCompressed, OverlapCompressor};

    // Batch decode over a stream whose channels diverge (Raw decode
    // ignores n_samples) and whose rate is zero: error, not a panic.
    let shape_lie = CompressedWaveform {
        name: "lie".into(),
        variant: Variant::Delta,
        n_samples: 10,
        sample_rate_gs: 0.0,
        i: ChannelData::Raw(vec![0; 10]),
        q: ChannelData::Raw(vec![]),
    };
    assert!(matches!(
        batch::decompress_library(std::slice::from_ref(&shape_lie)),
        Err(CompressError::MalformedStream { .. })
    ));

    // Overlap twin: hostile sample-count claims must not overflow the
    // accounting, and a bogus rate must not reach Waveform::new.
    let mut o = OverlapCompressed::empty();
    o.ws = 16;
    o.n_samples = usize::MAX;
    let _ = o.ratio();
    assert!(o.decompress().is_err());
    let wf = Drag::new(136, 0.5, 34.0, 0.2).to_waveform("X(q0)", 4.54);
    let mut good = OverlapCompressor::new(16).unwrap().compress(&wf).unwrap();
    good.sample_rate_gs = f64::NAN;
    assert!(matches!(good.decompress(), Err(CompressError::MalformedStream { .. })));

    // Adaptive twin: zero-length and absurd plateau claims are rejected
    // before any sample is produced from the metadata.
    for len in [0usize, usize::MAX] {
        let a = AdaptiveCompressed {
            name: "plateau".into(),
            n_samples: usize::MAX,
            sample_rate_gs: 4.54,
            variant: Variant::IntDctW { ws: 16 },
            segments: vec![Segment::Constant {
                i_value: compaqt::dsp::fixed::Q15::from_f64(0.5),
                q_value: compaqt::dsp::fixed::Q15::ZERO,
                len,
            }],
        };
        let _ = a.ratio();
        let _ = a.plateau_words();
        assert!(matches!(a.decompress(), Err(CompressError::MalformedStream { .. })), "len={len}");
        let engine = DecompressionEngine::for_variant(a.variant).unwrap();
        let mut scratch = DecodeScratch::new();
        let (mut i, mut q) = (Vec::new(), Vec::new());
        assert!(
            matches!(
                a.decompress_with(&engine, &mut scratch, &mut i, &mut q),
                Err(CompressError::MalformedStream { .. })
            ),
            "len={len}"
        );
    }
}

#[test]
fn saturating_delta_chains_decode_without_overflow() {
    // 100k max-magnitude deltas would overflow an i32 accumulator by
    // ~50x; the wrapping i16 accumulator (matching the DAC register the
    // hardware would wrap in) must survive and stay in range.
    let z = CompressedWaveform {
        name: "walker".into(),
        variant: Variant::Delta,
        n_samples: 100_001,
        sample_rate_gs: 4.54,
        i: ChannelData::Delta { base: 0, bits: 16, deltas: vec![i16::MAX; 100_000] },
        q: ChannelData::Delta { base: 0, bits: u32::MAX, deltas: vec![i16::MIN; 100_000] },
    };
    let engine = DecompressionEngine::for_variant(Variant::Delta).unwrap();
    let (wf, _) = engine.decompress(&z).unwrap();
    assert!(wf.i().iter().chain(wf.q()).all(|v| (-1.0..1.0).contains(v)));
    let _ = z.ratio(); // saturating size accounting on the absurd header
}
