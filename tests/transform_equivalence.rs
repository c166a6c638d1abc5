//! Factorized-vs-matrix equivalence suite for the integer DCT.
//!
//! The factorized Loeffler-style butterfly kernel is the *default*
//! forward transform of the codec (`IntDct::forward_into`), so its
//! contract with the dense matrix oracle is the strongest one possible:
//! **bit-exactness**, on every supported window size, for every input —
//! the factorization only reorders exact integer additions, so there is
//! no max-ulp bound to manage. This suite drives both kernels over
//! hostile deterministic patterns (full-scale DC, all-min, alternating
//! sign, impulses) and proptest-generated random windows, asserts `==`
//! on the coefficient streams, and closes the loop with a round trip
//! through the production decoder: factorized forward, run-length
//! coding, then the fused RLE + sparse inverse
//! (`sparse::inverse_rle_f64_into`), held bit-for-bit to the matrix
//! forward and the sparse matrix inverse (`IntDct::inverse_f64_into`).
//!
//! The batched forward ([`BatchedIntDctPlan`]: the AVX2
//! structure-of-arrays butterfly, or the per-window kernel on the scalar
//! tier) extends the same contract across windows: transforming N
//! concatenated windows in one call must be bit-identical to N
//! per-window calls and to the matrix oracle, on every tier the machine
//! can run, for every batch size including ragged tails past the
//! internal chunk width. Constant windows run through the butterfly here
//! like any other. The int-DCT-W encoder classifies windows as it stages
//! them, writes the constant ones' DC word in closed form and batches
//! only the varying ones, so its channel encode
//! (`Compressor::encode_channel_into`) is held to the per-window matrix
//! oracle, threshold and store-quantize on mixed channels of both kinds.
//! The inverse is not batched: decode runs one window at a time through
//! the fused kernel, whose own tier suite (closed-form DC windows
//! included) lives in `compaqt_dsp::sparse`.

use compaqt::core::compress::{Compressor, Variant, DEFAULT_THRESHOLD};
use compaqt::core::engine::EncodeScratch;
use compaqt::dsp::batched::{BatchedIntDctPlan, KernelTier, MAX_BATCH_CHUNK};
use compaqt::dsp::fixed::Q15;
use compaqt::dsp::intdct::{IntDct, SUPPORTED_SIZES};
use compaqt::dsp::rle::{CodedWord, RleEncoder, MAX_COEFF, MIN_COEFF};
use compaqt::dsp::sparse::inverse_rle_f64_into;
use proptest::prelude::*;

/// The window sizes the issue calls out explicitly, plus the rest of the
/// supported family (4 rides along for free).
const EQUIV_SIZES: [usize; 5] = SUPPORTED_SIZES;

/// Named hostile windows: the saturation and sign-flip patterns most
/// likely to expose reassociation overflow or sign bugs in a fixed-point
/// butterfly.
fn hostile_windows(ws: usize) -> Vec<(&'static str, Vec<Q15>)> {
    let mut cases: Vec<(&'static str, Vec<Q15>)> = vec![
        ("all-max", vec![Q15::MAX; ws]),
        ("all-min", vec![Q15::MIN; ws]),
        ("alternating", (0..ws).map(|i| if i % 2 == 0 { Q15::MAX } else { Q15::MIN }).collect()),
        ("dc-half", vec![Q15::from_f64(0.5); ws]),
        ("dc-neg", vec![Q15::from_f64(-0.75); ws]),
        ("zero", vec![Q15::ZERO; ws]),
    ];
    for pos in [0, ws / 2, ws - 1] {
        let mut imp = vec![Q15::ZERO; ws];
        imp[pos] = Q15::MAX;
        cases.push(("impulse-max", imp));
        let mut imp = vec![Q15::ZERO; ws];
        imp[pos] = Q15::MIN;
        cases.push(("impulse-min", imp));
    }
    cases
}

#[test]
fn factorized_forward_is_default_and_bit_exact_on_hostile_windows() {
    for ws in EQUIV_SIZES {
        let plan = IntDct::new(ws).unwrap();
        let mut fast = vec![0i32; ws];
        let mut oracle = vec![0i32; ws];
        for (name, x) in hostile_windows(ws) {
            plan.forward_into(&x, &mut fast);
            plan.forward_matrix_into(&x, &mut oracle);
            assert_eq!(fast, oracle, "ws={ws} case {name}");
        }
    }
}

/// Every kernel tier the running machine can execute, scalar first.
/// Under `COMPAQT_FORCE_SCALAR` (the CI fallback leg) this collapses to
/// just `Scalar`, so the suite exercises exactly the kernels dispatch
/// could pick — never a tier the CPU would fault on.
fn runnable_tiers() -> Vec<KernelTier> {
    let mut tiers = vec![KernelTier::Scalar];
    if KernelTier::detected() == KernelTier::Avx2 {
        tiers.push(KernelTier::Avx2);
    }
    tiers
}

/// Batch sizes that hit the interesting internal shapes: a single
/// window, a partial chunk, exactly one full chunk, and a ragged tail
/// past the chunk width.
const BATCH_SIZES: [usize; 4] = [1, 3, MAX_BATCH_CHUNK, MAX_BATCH_CHUNK + 5];

#[test]
fn batched_forward_is_bit_exact_on_hostile_windows_across_tiers() {
    for ws in EQUIV_SIZES {
        let plan = IntDct::new(ws).unwrap();
        let mut expected = vec![0i32; ws];
        for (name, x) in hostile_windows(ws) {
            plan.forward_matrix_into(&x, &mut expected);
            for batch in BATCH_SIZES {
                let windows: Vec<Q15> = x.iter().copied().cycle().take(ws * batch).collect();
                let mut out = vec![0i32; ws * batch];
                for tier in runnable_tiers() {
                    let mut bp = BatchedIntDctPlan::with_tier(IntDct::new(ws).unwrap(), tier);
                    bp.forward_batched_into(&windows, &mut out);
                    for (w, got) in out.chunks_exact(ws).enumerate() {
                        assert_eq!(
                            got, expected,
                            "ws={ws} case {name} batch={batch} tier={tier:?} window={w}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn force_scalar_plan_agrees_with_detected_dispatch() {
    // `from_transform` picks up whatever `KernelTier::detected()` chose
    // for this process (honoring COMPAQT_FORCE_SCALAR); pinning Scalar
    // explicitly must produce the same bits — the dispatch decision can
    // never change results, only speed.
    for ws in EQUIV_SIZES {
        let t = IntDct::new(ws).unwrap();
        let batch = MAX_BATCH_CHUNK + 1;
        let windows: Vec<Q15> =
            (0..ws * batch).map(|i| Q15::from_f64(0.8 * ((i as f64) * 0.61).sin())).collect();
        let mut scalar_out = vec![0i32; ws * batch];
        let mut dispatch_out = vec![0i32; ws * batch];
        BatchedIntDctPlan::with_tier(t.clone(), KernelTier::Scalar)
            .forward_batched_into(&windows, &mut scalar_out);
        let mut dispatched = BatchedIntDctPlan::from_transform(t);
        assert_eq!(dispatched.tier(), KernelTier::detected());
        dispatched.forward_batched_into(&windows, &mut dispatch_out);
        assert_eq!(scalar_out, dispatch_out, "ws={ws}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_forward_matches_per_window_and_oracle_on_random_batches(
        raw in proptest::collection::vec(proptest::num::i16::ANY, 64 * (MAX_BATCH_CHUNK + 5)),
        batch in 1usize..=MAX_BATCH_CHUNK + 5,
    ) {
        for ws in EQUIV_SIZES {
            let windows: Vec<Q15> =
                raw[..ws * batch].iter().map(|&r| Q15::from_raw(r)).collect();
            let plan = IntDct::new(ws).unwrap();
            let mut per_window = vec![0i32; ws * batch];
            let mut oracle = vec![0i32; ws * batch];
            for (x, (f, o)) in windows.chunks_exact(ws).zip(
                per_window.chunks_exact_mut(ws).zip(oracle.chunks_exact_mut(ws)),
            ) {
                plan.forward_into(x, f);
                plan.forward_matrix_into(x, o);
            }
            prop_assert_eq!(&per_window, &oracle, "ws={} per-window vs oracle", ws);
            let mut batched = vec![0i32; ws * batch];
            for tier in runnable_tiers() {
                let mut bp = BatchedIntDctPlan::with_tier(IntDct::new(ws).unwrap(), tier);
                bp.forward_batched_into(&windows, &mut batched);
                prop_assert_eq!(&batched, &per_window, "ws={} batch={} tier={:?}", ws, batch, tier);
            }
        }
    }

    #[test]
    fn forward_kernels_agree_on_random_windows(raw in proptest::collection::vec(proptest::num::i16::ANY, 64)) {
        for ws in EQUIV_SIZES {
            let x: Vec<Q15> = raw[..ws].iter().map(|&r| Q15::from_raw(r)).collect();
            let plan = IntDct::new(ws).unwrap();
            let mut fast = vec![0i32; ws];
            let mut oracle = vec![0i32; ws];
            plan.forward_into(&x, &mut fast);
            plan.forward_matrix_into(&x, &mut oracle);
            prop_assert_eq!(fast, oracle, "ws={}", ws);
        }
    }

    #[test]
    fn round_trip_composition_is_kernel_independent(raw in proptest::collection::vec(proptest::num::i16::ANY, 64)) {
        // Factorized forward -> run-length coding -> fused sparse inverse
        // (the production decode kernel) must land on the same bits as
        // matrix forward -> sparse matrix inverse of the same stored
        // (15-bit clamped) coefficients: with identical coefficient
        // streams and bit-exact inverses, the composition cannot
        // diverge — this closes the loop on the production round trip.
        for ws in EQUIV_SIZES {
            let x: Vec<Q15> = raw[..ws].iter().map(|&r| Q15::from_raw(r)).collect();
            let t = IntDct::new(ws).unwrap();
            let mut y_fast = vec![0i32; ws];
            let mut y_oracle = vec![0i32; ws];
            t.forward_into(&x, &mut y_fast);
            t.forward_matrix_into(&x, &mut y_oracle);
            prop_assert_eq!(&y_fast, &y_oracle, "ws={} coefficients", ws);
            let words = RleEncoder::new().encode_window(&y_fast);
            let stored: Vec<i32> =
                y_oracle.iter().map(|&c| i32::from(CodedWord::clamp_coeff(c))).collect();
            let mut back_fused = vec![0.0f64; ws];
            let mut back_oracle = vec![0.0f64; ws];
            inverse_rle_f64_into(&t, &words, 2, &mut Vec::new(), &mut back_fused).unwrap();
            t.inverse_f64_into(&stored, 2, &mut back_oracle);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            prop_assert_eq!(bits(&back_fused), bits(&back_oracle), "ws={} reconstruction", ws);
        }
    }

    #[test]
    fn round_trip_error_stays_bounded_for_smooth_windows(
        amp in 0.05f64..0.95,
        freq in 1usize..4,
    ) {
        // Sanity on top of equivalence: the factorized default still
        // reconstructs smooth windows to codec accuracy.
        for ws in EQUIV_SIZES {
            let x: Vec<Q15> = (0..ws)
                .map(|i| {
                    let ph = std::f64::consts::PI * freq as f64 * (i as f64 + 0.5) / ws as f64;
                    Q15::from_f64(amp * ph.sin())
                })
                .collect();
            let t = IntDct::new(ws).unwrap();
            let mut y = vec![0i32; ws];
            t.forward_into(&x, &mut y);
            let mut back = vec![Q15::ZERO; ws];
            t.inverse_into(&y, &mut back);
            // Rounding plus the HEVC matrix's documented ~1% row
            // non-orthogonality (see `transform_properties`): the bound
            // scales with amplitude at the large window sizes.
            let bound = 6e-3 + 0.015 * amp;
            for (a, b) in x.iter().zip(&back) {
                prop_assert!((a.to_f64() - b.to_f64()).abs() < bound, "ws={}", ws);
            }
        }
    }
}

/// Dense-window counts around the chunk width: one short of a full
/// chunk, exactly one chunk, and one window past it.
const CHUNK_EDGE_DENSE_COUNTS: [usize; 3] =
    [MAX_BATCH_CHUNK - 1, MAX_BATCH_CHUNK, MAX_BATCH_CHUNK + 1];

/// Deterministic stream for laying out one shortcut test case.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A batch of `constant + dense` windows of size `ws` at shuffled
/// positions. Constant windows repeat 0, ±1, `i16::MIN`, `i16::MAX` or a
/// random value; dense windows are random and never constant.
fn mixed_windows(ws: usize, constant: usize, dense: usize, seed: u64) -> Vec<Q15> {
    let mut state = seed ^ (ws as u64) << 48;
    let mut dense_flags: Vec<bool> = (0..constant + dense).map(|w| w >= constant).collect();
    for w in (1..dense_flags.len()).rev() {
        dense_flags.swap(w, splitmix(&mut state) as usize % (w + 1));
    }
    let mut windows = Vec::with_capacity(ws * dense_flags.len());
    for is_dense in dense_flags {
        if is_dense {
            let start = windows.len();
            windows.extend((0..ws).map(|_| Q15::from_raw(splitmix(&mut state) as i16)));
            if windows[start..].iter().all(|&s| s == windows[start]) {
                windows[start + 1] = Q15::from_raw(windows[start].raw() ^ 1);
            }
        } else {
            let r = splitmix(&mut state);
            let value = [0, 1, -1, i16::MIN, i16::MAX, r as i16][(r >> 32) as usize % 6];
            windows.extend(std::iter::repeat_n(Q15::from_raw(value), ws));
        }
    }
    windows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn constant_window_shortcut_matches_oracle_in_mixed_batches(
        seed in proptest::num::u64::ANY,
        shape in 0usize..6,
        constant in 0usize..=MAX_BATCH_CHUNK + 5,
        random_dense in 1usize..=3 * MAX_BATCH_CHUNK,
    ) {
        // The encoder writes constant windows' DC word in closed form and
        // batches only the varying ones, so its channel output must agree
        // with the per-window oracle pipeline wherever the two kinds sit
        // and however the varying windows split into chunks. A threshold
        // of 0 keeps every nonzero coefficient; the default zeroes some.
        let (constant, dense) = match shape {
            0 => (constant, 0),
            1..=3 => (constant, CHUNK_EDGE_DENSE_COUNTS[shape - 1]),
            4 => (0, random_dense),
            _ => (constant, random_dense),
        };
        let mut scratch = EncodeScratch::new();
        let mut coeffs = Vec::new();
        for ws in EQUIV_SIZES {
            let windows = mixed_windows(ws, constant, dense, seed);
            let samples: Vec<f64> = windows.iter().map(|s| f64::from(s.raw()) / 32768.0).collect();
            let t = IntDct::new(ws).unwrap();
            for threshold in [0.0, DEFAULT_THRESHOLD] {
                // The codec's integer threshold and 2-bit store shift.
                let scale = 2f64.powf(15.0 - (ws as f64).log2() / 2.0);
                let thr = (threshold * scale).round().max(1.0) as i32;
                let mut oracle = vec![0i32; windows.len()];
                for (x, o) in windows.chunks_exact(ws).zip(oracle.chunks_exact_mut(ws)) {
                    t.forward_matrix_into(x, o);
                    for c in o {
                        *c = if c.abs() < thr { 0 } else { ((*c + 2) >> 2).clamp(MIN_COEFF, MAX_COEFF) };
                    }
                }
                Compressor::new(Variant::IntDctW { ws })
                    .with_threshold(threshold)
                    .encode_channel_into(&samples, &mut scratch, &mut coeffs)
                    .unwrap();
                prop_assert_eq!(
                    &coeffs, &oracle,
                    "ws={} constant={} dense={} threshold={}", ws, constant, dense, threshold
                );
            }
        }
    }
}
