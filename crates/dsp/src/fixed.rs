//! Saturating fixed-point sample types.
//!
//! Qubit-control DACs consume signed fixed-point samples; the IBM systems
//! modelled by the paper use 32-bit samples that pack the in-phase (I) and
//! quadrature (Q) channels as two 16-bit values (Table I). [`Q15`] is that
//! 16-bit channel format: a signed Q1.15 value in `[-1.0, 1.0)`.

use crate::batched::KernelTier;
use std::fmt;
use std::ops::{Add, Neg, Sub};

/// A signed Q1.15 fixed-point sample in the range `[-1.0, 1.0)`.
///
/// This is the per-channel DAC sample format. Conversions from `f64`
/// saturate instead of wrapping, mirroring the saturating behaviour of the
/// DAC front-end.
///
/// # Example
///
/// ```
/// use compaqt_dsp::fixed::Q15;
///
/// let half = Q15::from_f64(0.5);
/// assert!((half.to_f64() - 0.5).abs() < 1e-4);
/// assert_eq!(Q15::from_f64(2.0), Q15::MAX); // saturates
/// assert_eq!(Q15::from_f64(-2.0), Q15::MIN);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct Q15(i16);

/// Number of fractional bits in [`Q15`].
pub const Q15_FRAC_BITS: u32 = 15;

/// The scale factor `2^15` relating [`Q15`] raw values to real values.
pub const Q15_ONE: f64 = (1i32 << Q15_FRAC_BITS) as f64;

impl Q15 {
    /// The largest representable value, `32767 / 32768`.
    pub const MAX: Q15 = Q15(i16::MAX);
    /// The smallest representable value, `-1.0`.
    pub const MIN: Q15 = Q15(i16::MIN);
    /// Zero.
    pub const ZERO: Q15 = Q15(0);

    /// Creates a sample from a raw two's-complement bit pattern.
    pub const fn from_raw(raw: i16) -> Self {
        Q15(raw)
    }

    /// Returns the raw two's-complement bit pattern.
    pub const fn raw(self) -> i16 {
        self.0
    }

    /// Converts a real value to Q1.15, saturating outside `[-1.0, 1.0)`.
    pub fn from_f64(value: f64) -> Self {
        let scaled = (value * Q15_ONE).round();
        if scaled >= i16::MAX as f64 {
            Q15::MAX
        } else if scaled <= i16::MIN as f64 {
            Q15::MIN
        } else {
            Q15(scaled as i16)
        }
    }

    /// Converts the sample back to a real value.
    pub fn to_f64(self) -> f64 {
        f64::from(self.0) / Q15_ONE
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: Self) -> Self {
        Q15(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Self) -> Self {
        Q15(self.0.saturating_sub(rhs.0))
    }

    /// Returns the absolute value, saturating `-1.0` to `MAX`.
    pub fn saturating_abs(self) -> Self {
        Q15(self.0.checked_abs().unwrap_or(i16::MAX))
    }

    /// True if the sample is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Q15 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:+.6}", self.to_f64())
    }
}

impl From<i16> for Q15 {
    fn from(raw: i16) -> Self {
        Q15(raw)
    }
}

impl From<Q15> for i16 {
    fn from(q: Q15) -> Self {
        q.0
    }
}

impl From<Q15> for f64 {
    fn from(q: Q15) -> Self {
        q.to_f64()
    }
}

impl Add for Q15 {
    type Output = Q15;
    fn add(self, rhs: Self) -> Self::Output {
        self.saturating_add(rhs)
    }
}

impl Sub for Q15 {
    type Output = Q15;
    fn sub(self, rhs: Self) -> Self::Output {
        self.saturating_sub(rhs)
    }
}

impl Neg for Q15 {
    type Output = Q15;
    fn neg(self) -> Self::Output {
        Q15(self.0.checked_neg().unwrap_or(i16::MAX))
    }
}

/// Quantizes a slice of real-valued samples to Q1.15.
///
/// # Example
///
/// ```
/// let q = compaqt_dsp::fixed::quantize(&[0.0, 0.25, -0.25]);
/// assert_eq!(q.len(), 3);
/// ```
pub fn quantize(samples: &[f64]) -> Vec<Q15> {
    let mut out = vec![Q15::ZERO; samples.len()];
    quantize_into(samples, &mut out);
    out
}

/// Quantizes `samples` into `out`, each element bit-identical to
/// [`Q15::from_f64`]: round half away from zero, saturate, NaN to zero.
///
/// This is the encoder's staging loop. On the
/// [`KernelTier::Avx2`] tier it converts eight samples per step (round
/// toward zero, then add the sign where the dropped fraction is at least
/// one half — both steps exact); elsewhere it calls [`Q15::from_f64`]
/// per sample, the reference the AVX2 kernel is tested against.
///
/// # Panics
///
/// Panics if `samples.len() != out.len()`.
///
/// # Example
///
/// ```
/// use compaqt_dsp::fixed::{quantize_into, Q15};
///
/// let samples = [0.5, -2.0, f64::NAN, 1.5 / 32768.0];
/// let mut out = [Q15::ZERO; 4];
/// quantize_into(&samples, &mut out);
/// assert_eq!(out.map(Q15::raw), [16384, -32768, 0, 2]);
/// ```
pub fn quantize_into(samples: &[f64], out: &mut [Q15]) {
    quantize_into_on(KernelTier::detected(), samples, out);
}

/// [`quantize_into`] with the kernel tier pinned; `tier` must be
/// [`KernelTier::Scalar`] or what [`KernelTier::detected`] reports.
fn quantize_into_on(tier: KernelTier, samples: &[f64], out: &mut [Q15]) {
    assert_eq!(samples.len(), out.len(), "output length must match input length");
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: every caller passes `KernelTier::detected()` (tests:
        // Avx2 only when that is what it reports), which reports Avx2
        // only after runtime detection of `avx2`; the lengths were
        // checked equal above.
        KernelTier::Avx2 => unsafe { x86::quantize_avx2(samples, out) },
        _ => {
            for (o, &v) in out.iter_mut().zip(samples) {
                *o = Q15::from_f64(v);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The AVX2 staging kernel: eight samples per step, unaligned loads
    //! and stores, [`Q15::from_f64`] for the tail.

    use super::{Q15, Q15_ONE};
    use std::arch::x86_64::*;

    /// # Safety
    /// The caller must have verified AVX2 support at runtime, and
    /// `samples.len() == out.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn quantize_avx2(samples: &[f64], out: &mut [Q15]) {
        let n = samples.len();
        let mut i = 0;
        while i + 8 <= n {
            let a = round_saturate(_mm256_loadu_pd(samples.as_ptr().add(i)));
            let b = round_saturate(_mm256_loadu_pd(samples.as_ptr().add(i + 4)));
            // Integral and within i16, so the conversions and the
            // saturating pack are exact.
            let packed = _mm_packs_epi32(_mm256_cvttpd_epi32(a), _mm256_cvttpd_epi32(b));
            // `Q15` is `repr(transparent)` over `i16`, and `i + 8 <= n`.
            _mm_storeu_si128(out.as_mut_ptr().add(i).cast(), packed);
            i += 8;
        }
        for (o, &v) in out[i..].iter_mut().zip(&samples[i..]) {
            *o = Q15::from_f64(v);
        }
    }

    /// `v * 2^15` rounded half away from zero and clamped to the i16
    /// range, NaN lanes zero, as integral `f64`s. Clamping before
    /// rounding gives the same result as after: the bounds are integers
    /// and rounding is monotonic.
    ///
    /// # Safety
    /// AVX2 must be enabled on the calling path.
    #[inline(always)]
    unsafe fn round_saturate(v: __m256d) -> __m256d {
        let sign = _mm256_set1_pd(-0.0);
        let x = _mm256_mul_pd(v, _mm256_set1_pd(Q15_ONE));
        let x = _mm256_and_pd(x, _mm256_cmp_pd::<_CMP_ORD_Q>(x, x));
        let x = _mm256_min_pd(
            _mm256_max_pd(x, _mm256_set1_pd(f64::from(i16::MIN))),
            _mm256_set1_pd(f64::from(i16::MAX)),
        );
        let t = _mm256_round_pd::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(x);
        // Exact: `t` and `x` share a sign and `|x - t| < 1`.
        let frac = _mm256_sub_pd(x, t);
        let away = _mm256_cmp_pd::<_CMP_GE_OQ>(_mm256_andnot_pd(sign, frac), _mm256_set1_pd(0.5));
        let step = _mm256_or_pd(_mm256_and_pd(x, sign), _mm256_set1_pd(1.0));
        _mm256_add_pd(t, _mm256_and_pd(away, step))
    }
}

/// Converts a slice of Q1.15 samples back to real values.
pub fn dequantize(samples: &[Q15]) -> Vec<f64> {
    samples.iter().map(|s| s.to_f64()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_default() {
        assert_eq!(Q15::default(), Q15::ZERO);
        assert!(Q15::ZERO.is_zero());
    }

    #[test]
    fn round_trip_is_tight() {
        for &v in &[0.0, 0.5, -0.5, 0.999, -1.0, 0.123456, -0.654321] {
            let q = Q15::from_f64(v);
            assert!((q.to_f64() - v).abs() <= 1.0 / Q15_ONE, "value {v}");
        }
    }

    #[test]
    fn saturates_at_extremes() {
        assert_eq!(Q15::from_f64(1.0), Q15::MAX);
        assert_eq!(Q15::from_f64(1e9), Q15::MAX);
        assert_eq!(Q15::from_f64(-1.0), Q15::MIN);
        assert_eq!(Q15::from_f64(-1e9), Q15::MIN);
    }

    #[test]
    fn saturating_arithmetic() {
        assert_eq!(Q15::MAX + Q15::MAX, Q15::MAX);
        assert_eq!(Q15::MIN + Q15::MIN, Q15::MIN);
        assert_eq!(Q15::MIN - Q15::MAX, Q15::MIN);
        let a = Q15::from_f64(0.25);
        let b = Q15::from_f64(0.5);
        assert!(((a + b).to_f64() - 0.75).abs() < 1e-4);
    }

    #[test]
    fn neg_of_min_saturates() {
        assert_eq!(-Q15::MIN, Q15::MAX);
        assert_eq!(Q15::MIN.saturating_abs(), Q15::MAX);
    }

    #[test]
    fn ordering_matches_real_values() {
        let values = [-1.0, -0.7, -0.1, 0.0, 0.2, 0.9];
        let qs: Vec<Q15> = values.iter().map(|&v| Q15::from_f64(v)).collect();
        let mut sorted = qs.clone();
        sorted.sort();
        assert_eq!(qs, sorted);
    }

    #[test]
    fn quantize_dequantize_round_trip() {
        let signal: Vec<f64> = (0..64).map(|i| (i as f64 * 0.1).sin() * 0.8).collect();
        let restored = dequantize(&quantize(&signal));
        for (a, b) in signal.iter().zip(restored.iter()) {
            assert!((a - b).abs() <= 1.0 / Q15_ONE);
        }
    }

    /// Scalar, plus AVX2 when this CPU runs it.
    fn tiers() -> Vec<KernelTier> {
        let mut tiers = vec![KernelTier::Scalar];
        if KernelTier::detected() == KernelTier::Avx2 {
            tiers.push(KernelTier::Avx2);
        }
        tiers
    }

    /// Every tier against `Q15::from_f64`, from nine start offsets so
    /// every ragged tail length past the 8-sample SIMD step occurs.
    fn assert_tiers_match(values: &[f64]) {
        let expect: Vec<Q15> = values.iter().map(|&v| Q15::from_f64(v)).collect();
        for tier in tiers() {
            for start in 0..values.len().min(9) {
                let mut out = vec![Q15::MIN; values.len() - start];
                quantize_into_on(tier, &values[start..], &mut out);
                for (k, (o, e)) in out.iter().zip(&expect[start..]).enumerate() {
                    let v = values[start + k];
                    assert_eq!(o, e, "{tier:?}: {v:e} (bits {:#x})", v.to_bits());
                }
            }
        }
    }

    #[test]
    fn quantize_into_matches_from_f64_on_special_values() {
        let mut values = vec![
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::from_bits(0x000F_FFFF_FFFF_FFFF),
            f64::MAX,
            f64::MIN,
            1.0,
            -1.0,
            2.0,
            -2.0,
            1e300,
            -1e300,
            32767.0 / 32768.0,
            32767.49 / 32768.0,
            -32768.49 / 32768.0,
            0.5 / 32768.0,
            -0.5 / 32768.0,
            0.49999999999999994 / 32768.0,
            -0.49999999999999994 / 32768.0,
        ];
        // Exact halves k + 0.5 across the whole range and past both ends,
        // and their neighbours one ulp either side.
        for k in -32770i32..32770 {
            let half = (f64::from(k) + 0.5) / Q15_ONE;
            values.extend([
                half,
                f64::from_bits(half.to_bits() + 1),
                f64::from_bits(half.to_bits() - 1),
            ]);
        }
        assert_tiers_match(&values);
    }

    #[test]
    fn quantize_into_matches_from_f64_on_random_bit_patterns() {
        let mut state = 0xC0FF_EE00_D15E_A5E5u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Raw bit patterns (any exponent, NaN payloads, infinities) and
        // values near the Q1.15 range.
        let values: Vec<f64> = (0..20_000)
            .map(|k| {
                let r = next();
                if k % 2 == 0 {
                    f64::from_bits(r)
                } else {
                    (r >> 11) as f64 / (1u64 << 53) as f64 * 2.2 - 1.1
                }
            })
            .collect();
        assert_tiers_match(&values);
    }

    #[test]
    #[should_panic(expected = "output length")]
    fn quantize_into_rejects_mismatched_lengths() {
        quantize_into(&[0.0; 4], &mut [Q15::ZERO; 3]);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Q15::ZERO).is_empty());
        assert!(!format!("{:?}", Q15::ZERO).is_empty());
    }
}
