//! Fused run-length decode + sparse integer inverse DCT, one window per
//! call — the inner loop of the sparse int-DCT-W decode path.
//!
//! Coefficient words accumulate their basis row directly; zero-run
//! codewords only advance the position, so the RLE buffer stage of the
//! paper's Figure 10 collapses away and the cost scales with the stored
//! words, not the window. Real pulses keep about three stored words per
//! 16-sample window.
//!
//! Most stored windows of a real pulse library come from windows that
//! were constant in Q1.15 (all zero, or one flat-top value), and the
//! encoder stores those in one of three shapes: a bare zero run
//! `[Rle(ws)]`, a DC word and a zero run `[Coeff(v), Rle(ws - 1)]`, or
//! the same DC word padded with zero coefficient words by I/Q
//! equalization, `[Coeff(v), Coeff(0), …, Rle(run)]` with
//! `1 + zeros + run == ws`. [`constant_window_sample`] matches those
//! shapes (runs that repeat the previous value excluded) and decodes
//! them in closed form, the way HEVC decoders special-case DC-only
//! blocks: row 0 of the transform is the constant `T[0][i] = 64`, so
//! every output sample is the same
//! `clamp((((64 * v) << pre_shift) + rnd) >> inverse_shift)`. A
//! well-formed shape cannot fail, so no error is skipped.
//!
//! Every other window, including every malformed one, takes one walk
//! over the words that checks the run lengths and collects the
//! nonzero `(row, coefficient)` terms; every [`RleError`] comes from
//! that walk, before any arithmetic, so hostile windows fail with the
//! same typed error on every tier. The terms then go to one of two
//! arithmetic kernels, selected by [`KernelTier::detected`]:
//!
//! * **Scalar** — `i32` multiply-accumulate over the row, then round,
//!   saturate and convert one lane at a time. The fallback tier and the
//!   reference the SIMD kernel is tested against.
//! * **Avx2** — the accumulators live in 8-lane `i32` registers
//!   (`vpmulld` + `vpaddd` per row chunk), and the output is shifted,
//!   rounded, clamped and converted to `f64` eight lanes at a time.
//!   4-sample windows, narrower than one register, stay scalar.
//!
//! The closed form and both kernels are bit-identical with
//! [`IntDct::inverse_f64_into`]:
//! the worst case `sum_k |T[k][i]| * |coeff| * 2^pre_shift` is
//! `5760 * 32768 * 4 < 2^30` at WS=64 for `pre_shift <=`
//! [`MAX_PRE_SHIFT`], so the `i32` accumulators never overflow and
//! equal the `i64` reference's. The final `/ 32768` is exact, so it is
//! the same as the SIMD kernel's multiply by `2^-15`.

use crate::batched::KernelTier;
use crate::intdct::IntDct;
use crate::rle::{CodedWord, RleCodeword, RleDecoder, RleError};

/// The largest dequantization shift the `i32` accumulators hold exactly.
pub const MAX_PRE_SHIFT: u32 = 2;

/// Decodes one window of run-length coded words and inverse-transforms
/// it: `dst` receives the same bits as [`RleDecoder::decode_window_into`]
/// followed by [`IntDct::inverse_f64_into`] with the same `pre_shift`.
///
/// Windows carrying repeat-previous codewords (possible in hand-built
/// streams, never emitted by the windowed compressor) take exactly that
/// materializing route, through the caller's `coeffs` staging buffer.
///
/// # Errors
///
/// Returns [`RleError`] if the words expand to more or fewer samples
/// than the window, or a repeat codeword has no preceding sample.
///
/// # Panics
///
/// Panics if `dst.len() != t.len()` or `pre_shift > MAX_PRE_SHIFT`.
///
/// # Example
///
/// ```
/// use compaqt_dsp::intdct::IntDct;
/// use compaqt_dsp::rle::{CodedWord, RleCodeword};
/// use compaqt_dsp::sparse::inverse_rle_f64_into;
///
/// let t = IntDct::new(8)?;
/// // DC coefficient, then a 7-sample zero run.
/// let words = [CodedWord::Coeff(512), CodedWord::Rle(RleCodeword { run: 7, repeat_previous: false })];
/// let mut fused = [0.0; 8];
/// inverse_rle_f64_into(&t, &words, 2, &mut Vec::new(), &mut fused)?;
///
/// let mut coeffs = [0i32; 8];
/// coeffs[0] = 512;
/// let mut reference = [0.0; 8];
/// t.inverse_f64_into(&coeffs, 2, &mut reference);
/// assert_eq!(fused, reference);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn inverse_rle_f64_into(
    t: &IntDct,
    words: &[CodedWord],
    pre_shift: u32,
    coeffs: &mut Vec<i32>,
    dst: &mut [f64],
) -> Result<(), RleError> {
    inverse_rle_f64_on(KernelTier::detected(), t, words, pre_shift, coeffs, dst)
}

/// [`inverse_rle_f64_into`] with the kernel tier pinned; `tier` must be
/// [`KernelTier::Scalar`] or what [`KernelTier::detected`] reports.
fn inverse_rle_f64_on(
    tier: KernelTier,
    t: &IntDct,
    words: &[CodedWord],
    pre_shift: u32,
    coeffs: &mut Vec<i32>,
    dst: &mut [f64],
) -> Result<(), RleError> {
    let window = dst.len();
    assert_eq!(window, t.len(), "output must be one window");
    assert!(pre_shift <= MAX_PRE_SHIFT, "pre_shift {pre_shift} overflows the i32 accumulators");
    if let Some(sample) = constant_window_sample(t, words, pre_shift) {
        dst.fill(sample);
        return Ok(());
    }
    let mut terms = [(0u16, 0i16); 64];
    let Some(n) = collect_terms(words, window, &mut terms)? else {
        // Rare general case: materialize the coefficient window.
        coeffs.resize(window, 0);
        RleDecoder::new().decode_window_into(words, coeffs)?;
        t.inverse_f64_into(coeffs, pre_shift, dst);
        return Ok(());
    };
    if n == 0 {
        // Most stored windows hold no nonzero coefficient, and a zero
        // accumulator rounds to exactly zero on every tier.
        dst.fill(0.0);
        return Ok(());
    }
    let terms = &terms[..n];
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: every caller passes `KernelTier::detected()` (tests:
        // Avx2 only when that is what it reports), which reports Avx2
        // only after runtime detection of `avx2`; `dst.len() == t.len()`
        // was asserted above.
        KernelTier::Avx2 if window >= 8 => unsafe { x86::sparse_avx2(t, terms, pre_shift, dst) },
        _ => sparse_scalar(t, terms, pre_shift, dst),
    }
    Ok(())
}

/// The one sample value of a window stored as a constant shape, or
/// `None` for any other window. The shapes are a bare zero run
/// `[Rle(ws)]` and a DC word, any number of zero coefficient words and
/// one closing zero run, `[Coeff(v), Coeff(0), …, Rle(run)]` with
/// `1 + zeros + run == t.len()`; a run that repeats the previous value
/// never matches. A matched window is well formed, and decoding it
/// through [`inverse_rle_f64_into`] fills every sample with this value.
/// Each shape holds exactly one run-length codeword.
///
/// # Panics
///
/// Panics if `pre_shift > MAX_PRE_SHIFT`.
///
/// # Example
///
/// ```
/// use compaqt_dsp::intdct::IntDct;
/// use compaqt_dsp::rle::{CodedWord, RleCodeword};
/// use compaqt_dsp::sparse::constant_window_sample;
///
/// let t = IntDct::new(8)?;
/// let run = |run| CodedWord::Rle(RleCodeword { run, repeat_previous: false });
/// // DC word, two zero words kept by I/Q equalization, a 5-sample run.
/// let padded = [CodedWord::Coeff(512), CodedWord::Coeff(0), CodedWord::Coeff(0), run(5)];
/// let dc_only = [CodedWord::Coeff(512), run(7)];
/// assert!(constant_window_sample(&t, &padded, 2).is_some());
/// assert_eq!(constant_window_sample(&t, &padded, 2), constant_window_sample(&t, &dc_only, 2));
/// assert_eq!(constant_window_sample(&t, &[run(8)], 2), Some(0.0));
/// // An AC coefficient makes the window vary.
/// assert_eq!(constant_window_sample(&t, &[CodedWord::Coeff(512), CodedWord::Coeff(1), run(6)], 2), None);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[inline]
pub fn constant_window_sample(t: &IntDct, words: &[CodedWord], pre_shift: u32) -> Option<f64> {
    assert!(pre_shift <= MAX_PRE_SHIFT, "pre_shift {pre_shift} overflows the i32 accumulators");
    let window = t.len();
    match *words {
        [CodedWord::Rle(RleCodeword { run, repeat_previous: false })]
            if usize::from(run) == window =>
        {
            Some(0.0)
        }
        [CodedWord::Coeff(v), ref zeros @ .., CodedWord::Rle(RleCodeword { run, repeat_previous: false })]
            if 1 + zeros.len() + usize::from(run) == window
                && zeros.iter().all(|&w| w == CodedWord::Coeff(0)) =>
        {
            Some(dc_sample(t, v, pre_shift))
        }
        _ => None,
    }
}

/// Walks one window's words, storing each nonzero coefficient as
/// `(row, value)` in `terms` and checking every run against the window.
/// Returns the number of terms, or `None` at the first repeat-previous
/// codeword (whose fill value depends on the expanded window). Errors
/// match [`RleDecoder::decode_window_into`] word for word, and the
/// materializing route re-walks from the start, so a window fails with
/// the same error on either route.
fn collect_terms(
    words: &[CodedWord],
    window: usize,
    terms: &mut [(u16, i16); 64],
) -> Result<Option<usize>, RleError> {
    let mut pos = 0usize;
    let mut n = 0usize;
    for &w in words {
        match w {
            CodedWord::Coeff(v) => {
                if pos >= window {
                    return Err(RleError::Overflow { produced: pos + 1, window });
                }
                if v != 0 {
                    // `pos < window <= 64`, so both the row index and
                    // the term count fit.
                    terms[n] = (pos as u16, v);
                    n += 1;
                }
                pos += 1;
            }
            CodedWord::Rle(RleCodeword { repeat_previous: true, .. }) => return Ok(None),
            CodedWord::Rle(RleCodeword { run, .. }) => {
                // Zero run: nothing reaches the accumulators.
                let run = usize::from(run);
                if run > window - pos {
                    return Err(RleError::Overflow { produced: pos + run, window });
                }
                pos += run;
            }
        }
    }
    if pos != window {
        return Err(RleError::Underflow { produced: pos, window });
    }
    Ok(Some(n))
}

/// The one sample value of a DC-only window: the scalar kernel's
/// round-saturate-convert step applied to `T[0][0] * v`, which is every
/// lane's accumulator because row 0 is constant.
fn dc_sample(t: &IntDct, v: i16, pre_shift: u32) -> f64 {
    let shift = t.inverse_shift();
    let acc = t.row(0)[0] * i32::from(v);
    let raw = (((acc << pre_shift) + (1 << (shift - 1))) >> shift)
        .clamp(i32::from(i16::MIN), i32::from(i16::MAX));
    f64::from(raw) / 32768.0
}

/// The reference kernel: `i32` row multiply-accumulate, then round,
/// saturate to Q1.15 and convert, one lane at a time.
fn sparse_scalar(t: &IntDct, terms: &[(u16, i16)], pre_shift: u32, dst: &mut [f64]) {
    let mut acc = [0i32; 64];
    let acc = &mut acc[..dst.len()];
    for &(k, v) in terms {
        let v = i32::from(v);
        for (a, &row) in acc.iter_mut().zip(t.row(usize::from(k))) {
            *a += row * v;
        }
    }
    let shift = t.inverse_shift();
    let rnd = 1i32 << (shift - 1);
    for (o, &a) in dst.iter_mut().zip(acc.iter()) {
        let v = ((a << pre_shift) + rnd) >> shift;
        let raw = v.clamp(i32::from(i16::MIN), i32::from(i16::MAX)) as i16;
        *o = f64::from(raw) / 32768.0;
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The AVX2 arithmetic kernel. Rows and outputs are loaded and
    //! stored unaligned.

    use super::IntDct;
    use std::arch::x86_64::*;

    /// # Safety
    /// The caller must have verified AVX2 support at runtime, and
    /// `dst.len() == t.len()` must be 8, 16, 32 or 64.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sparse_avx2(
        t: &IntDct,
        terms: &[(u16, i16)],
        pre_shift: u32,
        dst: &mut [f64],
    ) {
        match dst.len() {
            8 => body::<1>(t, terms, pre_shift, dst),
            16 => body::<2>(t, terms, pre_shift, dst),
            32 => body::<4>(t, terms, pre_shift, dst),
            64 => body::<8>(t, terms, pre_shift, dst),
            n => unreachable!("no {n}-sample integer DCT"),
        }
    }

    /// `R` registers of eight `i32` accumulators cover the window.
    ///
    /// # Safety
    /// AVX2 must be enabled on the calling path, and
    /// `dst.len() == t.len() == 8 * R`.
    #[inline(always)]
    unsafe fn body<const R: usize>(
        t: &IntDct,
        terms: &[(u16, i16)],
        pre_shift: u32,
        dst: &mut [f64],
    ) {
        let mut acc = [_mm256_setzero_si256(); R];
        for &(k, v) in terms {
            let row = t.row(usize::from(k)).as_ptr();
            let v = _mm256_set1_epi32(i32::from(v));
            for (r, a) in acc.iter_mut().enumerate() {
                // In bounds: a row holds `t.len() == 8 * R` entries.
                let c = _mm256_loadu_si256(row.add(8 * r).cast());
                *a = _mm256_add_epi32(*a, _mm256_mullo_epi32(c, v));
            }
        }
        let shift = t.inverse_shift();
        let shl = _mm_cvtsi32_si128(pre_shift as i32);
        let shr = _mm_cvtsi32_si128(shift as i32);
        let rnd = _mm256_set1_epi32(1 << (shift - 1));
        let (lo, hi) =
            (_mm256_set1_epi32(i32::from(i16::MIN)), _mm256_set1_epi32(i32::from(i16::MAX)));
        let scale = _mm256_set1_pd(1.0 / 32768.0);
        let out = dst.as_mut_ptr();
        for (r, &a) in acc.iter().enumerate() {
            let v = _mm256_sra_epi32(_mm256_add_epi32(_mm256_sll_epi32(a, shl), rnd), shr);
            let v = _mm256_min_epi32(_mm256_max_epi32(v, lo), hi);
            let f0 = _mm256_mul_pd(_mm256_cvtepi32_pd(_mm256_castsi256_si128(v)), scale);
            let f1 = _mm256_mul_pd(_mm256_cvtepi32_pd(_mm256_extracti128_si256::<1>(v)), scale);
            // In bounds: `dst` holds `8 * R` lanes.
            _mm256_storeu_pd(out.add(8 * r), f0);
            _mm256_storeu_pd(out.add(8 * r + 4), f1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intdct::SUPPORTED_SIZES;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Scalar, plus AVX2 when this CPU runs it.
    fn tiers() -> Vec<KernelTier> {
        let mut tiers = vec![KernelTier::Scalar];
        if KernelTier::detected() == KernelTier::Avx2 {
            tiers.push(KernelTier::Avx2);
        }
        tiers
    }

    fn zeros(run: u16) -> CodedWord {
        CodedWord::Rle(RleCodeword { run, repeat_previous: false })
    }

    /// The materializing reference at [`MAX_PRE_SHIFT`].
    fn reference(t: &IntDct, words: &[CodedWord]) -> Result<Vec<u64>, RleError> {
        reference_at(t, words, MAX_PRE_SHIFT)
    }

    fn fused(tier: KernelTier, t: &IntDct, words: &[CodedWord]) -> Result<Vec<u64>, RleError> {
        fused_at(tier, t, words, MAX_PRE_SHIFT)
    }

    /// A random sparse window: coefficients (often extreme) at random
    /// positions, zero runs between them; optionally a repeat word.
    fn random_window(state: &mut u64, ws: usize, repeat: bool) -> Vec<CodedWord> {
        let mut words = Vec::new();
        let mut pos = 0usize;
        while pos < ws {
            let r = xorshift(state);
            if r.is_multiple_of(3) && pos + 1 < ws {
                let run = 1 + (r >> 8) as usize % (ws - pos - 1).max(1);
                let repeat_previous = repeat && pos > 0 && (r >> 20).is_multiple_of(2);
                words.push(CodedWord::Rle(RleCodeword { run: run as u16, repeat_previous }));
                pos += run;
            } else {
                let v = match (r >> 4) % 5 {
                    0 => i16::MAX,
                    1 => i16::MIN,
                    2 => 0,
                    _ => (r >> 32) as i16 >> (r % 8),
                };
                words.push(CodedWord::Coeff(v));
                pos += 1;
            }
        }
        words
    }

    #[test]
    fn every_tier_matches_the_materializing_reference() {
        for ws in SUPPORTED_SIZES {
            let t = IntDct::new(ws).unwrap();
            let mut state = 0x5EED_0000_0000_0001 ^ ws as u64;
            for case in 0..2000 {
                let words = random_window(&mut state, ws, case % 4 == 0);
                let expect = reference(&t, &words);
                for tier in tiers() {
                    assert_eq!(fused(tier, &t, &words), expect, "ws={ws} {tier:?} {words:?}");
                }
            }
        }
    }

    #[test]
    fn dc_only_and_zero_windows_match_the_reference_for_every_word() {
        // Exhaustive over the closed-form shapes: every i16 DC word, every
        // size and every dequantization shift, on every runnable tier.
        for ws in SUPPORTED_SIZES {
            let t = IntDct::new(ws).unwrap();
            let run = u16::try_from(ws - 1).unwrap();
            let mut coeffs = vec![0i32; ws];
            let (mut expect, mut got) = (vec![0.0; ws], vec![f64::NAN; ws]);
            for tier in tiers() {
                inverse_rle_f64_on(tier, &t, &[zeros(run + 1)], 0, &mut Vec::new(), &mut got)
                    .unwrap();
                assert!(got.iter().all(|v| v.to_bits() == 0), "ws={ws} {tier:?} zero window");
            }
            for pre_shift in 0..=MAX_PRE_SHIFT {
                for v in i16::MIN..=i16::MAX {
                    coeffs[0] = i32::from(v);
                    t.inverse_f64_into(&coeffs, pre_shift, &mut expect);
                    let words = [CodedWord::Coeff(v), zeros(run)];
                    for tier in tiers() {
                        got.fill(f64::NAN);
                        inverse_rle_f64_on(tier, &t, &words, pre_shift, &mut Vec::new(), &mut got)
                            .unwrap();
                        // Neither side makes NaN or -0.0, so `==` is bitwise.
                        assert!(got == expect, "ws={ws} {tier:?} pre_shift={pre_shift} v={v}");
                    }
                }
            }
        }
    }

    /// The materializing reference at `pre_shift`: expand with
    /// [`RleDecoder::decode_window_into`], then the i64 inverse; samples
    /// as bits, or the error.
    fn reference_at(t: &IntDct, words: &[CodedWord], pre_shift: u32) -> Result<Vec<u64>, RleError> {
        let mut coeffs = vec![0i32; t.len()];
        RleDecoder::new().decode_window_into(words, &mut coeffs)?;
        let mut out = vec![0.0; t.len()];
        t.inverse_f64_into(&coeffs, pre_shift, &mut out);
        Ok(out.iter().map(|v| v.to_bits()).collect())
    }

    fn fused_at(
        tier: KernelTier,
        t: &IntDct,
        words: &[CodedWord],
        pre_shift: u32,
    ) -> Result<Vec<u64>, RleError> {
        let mut out = vec![f64::NAN; t.len()];
        inverse_rle_f64_on(tier, t, words, pre_shift, &mut Vec::new(), &mut out)?;
        Ok(out.iter().map(|v| v.to_bits()).collect())
    }

    /// `[Coeff(v), Coeff(0) x zeros, Rle(ws - 1 - zeros)]`: a DC-only
    /// window as I/Q equalization pads it.
    fn padded_dc(v: i16, zeros: usize, ws: usize) -> Vec<CodedWord> {
        let mut words = vec![CodedWord::Coeff(v)];
        words.extend(std::iter::repeat_n(CodedWord::Coeff(0), zeros));
        words.push(self::zeros(u16::try_from(ws - 1 - zeros).unwrap()));
        words
    }

    /// Every i16 DC word at every padding length through every runnable
    /// tier, for one size and shift. The coefficient window is the same
    /// for every padding, so one reference inverse serves them all.
    fn check_padded_dc(ws: usize, pre_shift: u32) {
        let (t, tiers) = (IntDct::new(ws).unwrap(), tiers());
        let mut coeffs = vec![0i32; ws];
        let (mut expect, mut got) = (vec![0.0; ws], vec![0.0; ws]);
        let mut shapes: Vec<Vec<CodedWord>> =
            (0..ws).map(|zeros| padded_dc(0, zeros, ws)).collect();
        for v in i16::MIN..=i16::MAX {
            coeffs[0] = i32::from(v);
            t.inverse_f64_into(&coeffs, pre_shift, &mut expect);
            for words in &mut shapes {
                words[0] = CodedWord::Coeff(v);
                let sample = constant_window_sample(&t, words, pre_shift);
                assert_eq!(sample, Some(expect[0]), "ws={ws} pre_shift={pre_shift} {words:?}");
                for &tier in &tiers {
                    got.fill(f64::NAN);
                    inverse_rle_f64_on(tier, &t, words, pre_shift, &mut Vec::new(), &mut got)
                        .unwrap();
                    // Neither side makes NaN or -0.0, so `==` is bitwise.
                    assert!(got == expect, "ws={ws} {tier:?} pre_shift={pre_shift} {words:?}");
                }
            }
        }
    }

    #[test]
    fn padded_dc_only_windows_match_the_reference_for_every_word() {
        // Exhaustive over the padded closed-form shape: every i16 DC
        // word, every padding length, every size and every
        // dequantization shift, on every runnable tier; one thread per
        // (size, shift).
        std::thread::scope(|scope| {
            for ws in SUPPORTED_SIZES {
                for pre_shift in 0..=MAX_PRE_SHIFT {
                    scope.spawn(move || check_padded_dc(ws, pre_shift));
                }
            }
        });
    }

    #[test]
    fn near_miss_constant_shapes_decode_like_the_reference() {
        // Shapes one step away from a constant shape: a nonzero word
        // after the DC, a closing run that repeats the previous value,
        // and a closing run one short or one long. None is a constant
        // shape; each must give the materializing route's samples or
        // error on every tier and at every shift.
        let repeat = |run: u16| CodedWord::Rle(RleCodeword { run, repeat_previous: true });
        for ws in SUPPORTED_SIZES {
            let t = IntDct::new(ws).unwrap();
            for v in [i16::MIN, -1, 0, 1, 2047, i16::MAX] {
                for zeros in 0..ws {
                    let base = padded_dc(v, zeros, ws);
                    let run = u16::try_from(ws - 1 - zeros).unwrap();
                    let mut cases = Vec::new();
                    for (at, ac) in [(1, 1), (zeros, -3), (zeros, i16::MIN)] {
                        if at >= 1 && at <= zeros {
                            let mut words = base.clone();
                            words[at] = CodedWord::Coeff(ac);
                            cases.push(words);
                        }
                    }
                    let mut words = base.clone();
                    *words.last_mut().unwrap() = repeat(run);
                    cases.push(words);
                    for run in [run.wrapping_sub(1), run + 1] {
                        let mut words = base.clone();
                        *words.last_mut().unwrap() = self::zeros(run);
                        cases.push(words);
                    }
                    for words in &cases {
                        for pre_shift in 0..=MAX_PRE_SHIFT {
                            assert_eq!(constant_window_sample(&t, words, pre_shift), None);
                            let expect = reference_at(&t, words, pre_shift);
                            for tier in tiers() {
                                assert_eq!(
                                    fused_at(tier, &t, words, pre_shift),
                                    expect,
                                    "ws={ws} {tier:?} pre_shift={pre_shift} {words:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn full_scale_windows_saturate_identically() {
        for ws in SUPPORTED_SIZES {
            let t = IntDct::new(ws).unwrap();
            for v in [i16::MAX, i16::MIN] {
                let dense = vec![CodedWord::Coeff(v); ws];
                let alternating: Vec<CodedWord> = (0..ws)
                    .map(|i| CodedWord::Coeff(if i % 2 == 0 { v } else { v.wrapping_neg() }))
                    .collect();
                for words in [dense, alternating] {
                    let expect = reference(&t, &words);
                    for tier in tiers() {
                        assert_eq!(fused(tier, &t, &words), expect, "ws={ws} {tier:?} v={v}");
                    }
                }
            }
        }
    }

    #[test]
    fn hostile_windows_fail_with_the_same_typed_error_on_every_tier() {
        let ws = 16;
        let t = IntDct::new(ws).unwrap();
        let repeat = |run| CodedWord::Rle(RleCodeword { run, repeat_previous: true });
        let cases: Vec<(Vec<CodedWord>, RleError)> = vec![
            (
                vec![CodedWord::Coeff(5), zeros(100)],
                RleError::Overflow { produced: 101, window: 16 },
            ),
            (vec![CodedWord::Coeff(1); 17], RleError::Overflow { produced: 17, window: 16 }),
            (vec![zeros(16), CodedWord::Coeff(0)], RleError::Overflow { produced: 17, window: 16 }),
            (vec![CodedWord::Coeff(3), zeros(4)], RleError::Underflow { produced: 5, window: 16 }),
            (vec![], RleError::Underflow { produced: 0, window: 16 }),
            (vec![repeat(4), CodedWord::Coeff(1)], RleError::RepeatWithoutSample),
            (
                vec![CodedWord::Coeff(1), repeat(20)],
                RleError::Overflow { produced: 21, window: 16 },
            ),
            (vec![zeros(20), repeat(1)], RleError::Overflow { produced: 20, window: 16 }),
            (vec![zeros(u16::MAX)], RleError::Overflow { produced: 65535, window: 16 }),
        ];
        for (words, err) in &cases {
            assert_eq!(reference(&t, words), Err(*err), "reference on {words:?}");
            for tier in tiers() {
                assert_eq!(fused(tier, &t, words), Err(*err), "{tier:?} on {words:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "overflows the i32 accumulators")]
    fn oversized_pre_shift_is_refused() {
        let t = IntDct::new(8).unwrap();
        let _ = inverse_rle_f64_into(
            &t,
            &[zeros(8)],
            MAX_PRE_SHIFT + 1,
            &mut Vec::new(),
            &mut [0.0; 8],
        );
    }
}
