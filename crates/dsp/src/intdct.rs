//! HEVC-style integer DCT/IDCT (`int-DCT-W`).
//!
//! The paper makes waveform decompression hardware-efficient by replacing
//! the floating-point DCT with the integer transform of the HEVC video
//! standard: matrix entries are small integers, so the inverse transform in
//! hardware needs no multipliers at all — every constant multiplication
//! lowers to a short shift-and-add network (see [`crate::csd`]).
//!
//! The N-point integer matrix approximates `S * D` where `D` is the
//! orthonormal DCT-II matrix and `S = 2^(6 + log2(N)/2)` is the constant
//! scaling factor quoted in Section IV-C. Because `T ≈ S*D` and `D` is
//! orthogonal, `T^t * T ≈ S^2 * I = 2^(12 + log2 N) * I`, so the inverse is
//! the transposed matrix followed by a pure right-shift — no division.
//!
//! The matrices are generated from the normative 33-entry magnitude table of
//! the HEVC 32-point transform with the cosine sign-folding rule; the N-point
//! matrix is the standard row-subsampling `T_N[k][n] = T_32[k*32/N][n]`.
//! The 64-point matrix extends the family the way VVC (H.266) does: even
//! angle indices reuse the normative HEVC table unchanged — so the even
//! rows of `T_64` are *exactly* `T_32`, and every committed 4..32-point
//! stream is untouched — while odd indices are pure roundings of
//! `64*sqrt(2)*cos(m*pi/128)`.
//!
//! # Forward kernels and the scale-folding contract
//!
//! Every `IntDct` carries two forward kernels with one arithmetic
//! contract:
//!
//! * the **factorized butterfly** ([`crate::loeffler::IntButterflyPlan`],
//!   the production kernel behind [`IntDct::forward_into`]) — Loeffler
//!   reflection butterflies recursing through the even rows, dense
//!   integer rotator banks for the odd rows; roughly a third of the
//!   dense multiply count; and
//! * the **dense matrix oracle** ([`IntDct::forward_matrix_into`]) — the
//!   historical row-by-row multiply, kept as the reference the butterfly
//!   is proptested against.
//!
//! Both compute the *identical* integer accumulator
//! `sum_i T[k][i] * x[i]` (the factorization only reorders exact integer
//! additions), then apply the same `(acc + rnd) >> forward_shift`
//! rounding. The flowgraph's uniform scale `S = 2^(6 + log2(N)/2)` thus
//! stays folded into [`IntDct::forward_shift`] and the quantization
//! constants exactly as before — selecting a kernel never changes a
//! stored stream, and `forward_shift + inverse_shift = 12 + log2 N`
//! keeps cancelling `S^2`. Every built-in matrix factorizes
//! ([`IntDct::new`] checks it), so the butterfly is the one production
//! forward kernel.

use crate::fixed::Q15;
use crate::loeffler::IntButterflyPlan;
use std::fmt;

/// Magnitudes of the HEVC 32-point transform basis, indexed by angle index
/// `m` where the basis value is `cosfold(m) ~ 64*sqrt(2)*cos(m*pi/64)`.
///
/// These are normative constants of the HEVC core transform (a handful of
/// entries are hand-tuned away from pure rounding for near-orthogonality,
/// e.g. `g[8] = 83`, not 84).
const HEVC_MAGNITUDE: [i32; 33] = [
    64, 90, 90, 90, 89, 88, 87, 85, 83, 82, 80, 78, 75, 73, 70, 67, 64, 61, 57, 54, 50, 46, 43, 38,
    36, 31, 25, 22, 18, 13, 9, 4, 0,
];

/// Evaluates the signed HEVC basis value for angle index `m` (mod 128),
/// i.e. the integer approximation of `64*sqrt(2)*cos(m*pi/64)`.
fn cos_fold(m: usize) -> i32 {
    let m = m % 128;
    match m {
        0..=32 => HEVC_MAGNITUDE[m],
        33..=64 => -HEVC_MAGNITUDE[64 - m],
        65..=96 => -HEVC_MAGNITUDE[m - 64],
        _ => HEVC_MAGNITUDE[128 - m],
    }
}

/// Odd-index magnitudes of the 64-point extension, `round(64*sqrt(2) *
/// cos(m*pi/128))` for `m = 1, 3, ..., 63` (the VVC-style construction).
/// Even indices reuse [`HEVC_MAGNITUDE`], which makes the even rows of
/// `T_64` exactly `T_32` — the identity both the butterfly factorization
/// and backward bit-compatibility rest on.
const EXT64_ODD_MAGNITUDE: [i32; 32] = [
    90, 90, 90, 89, 88, 87, 86, 84, 83, 81, 79, 76, 74, 71, 69, 66, 62, 59, 56, 52, 48, 45, 41, 37,
    33, 28, 24, 20, 15, 11, 7, 2,
];

/// Magnitude for 64-point angle index `m` in `0..=64`: normative HEVC
/// entries at even indices, the rounded extension at odd indices.
fn magnitude64(m: usize) -> i32 {
    if m.is_multiple_of(2) {
        HEVC_MAGNITUDE[m / 2]
    } else {
        EXT64_ODD_MAGNITUDE[(m - 1) / 2]
    }
}

/// Signed 64-point basis value for angle index `m` (mod 256), the
/// integer approximation of `64*sqrt(2)*cos(m*pi/128)`.
fn cos_fold64(m: usize) -> i32 {
    let m = m % 256;
    match m {
        0..=64 => magnitude64(m),
        65..=128 => -magnitude64(128 - m),
        129..=192 => -magnitude64(m - 128),
        _ => magnitude64(256 - m),
    }
}

/// Window sizes supported by the integer transform.
pub const SUPPORTED_SIZES: [usize; 5] = [4, 8, 16, 32, 64];

/// Error returned when constructing an [`IntDct`] with an unsupported size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsupportedSizeError {
    /// The rejected transform length.
    pub size: usize,
}

impl fmt::Display for UnsupportedSizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "integer DCT size {} is not supported (expected one of {:?})",
            self.size, SUPPORTED_SIZES
        )
    }
}

impl std::error::Error for UnsupportedSizeError {}

/// An N-point HEVC-style integer DCT/IDCT pair (N in 4/8/16/32/64).
///
/// Forward transforms map Q1.15 samples to integer coefficients; the
/// inverse maps coefficients back to Q1.15 with only adds and shifts, which
/// is what makes the hardware decompression engine cheap (Table IV).
/// The forward runs the factorized Loeffler-style butterfly kernel
/// (bit-exact with the matrix, ~3x fewer multiplies; see the module
/// docs), with [`IntDct::forward_matrix_into`] kept as the dense oracle.
///
/// # Example
///
/// ```
/// use compaqt_dsp::intdct::IntDct;
/// use compaqt_dsp::fixed::Q15;
///
/// let t = IntDct::new(16)?;
/// let x: Vec<Q15> = (0..16)
///     .map(|i| Q15::from_f64(0.6 * (std::f64::consts::PI * i as f64 / 16.0).sin()))
///     .collect();
/// let coeffs = t.forward(&x);
/// let back = t.inverse(&coeffs);
/// for (a, b) in x.iter().zip(&back) {
///     assert!((a.to_f64() - b.to_f64()).abs() < 2e-3);
/// }
/// # Ok::<(), compaqt_dsp::intdct::UnsupportedSizeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct IntDct {
    n: usize,
    log2n: u32,
    /// Row-major `n x n` integer basis matrix.
    matrix: Vec<i32>,
    /// Factorized forward kernel.
    butterfly: IntButterflyPlan,
}

impl IntDct {
    /// Creates an N-point integer transform.
    ///
    /// # Errors
    ///
    /// Returns [`UnsupportedSizeError`] unless `n` is 4, 8, 16, 32 or 64.
    pub fn new(n: usize) -> Result<Self, UnsupportedSizeError> {
        if !SUPPORTED_SIZES.contains(&n) {
            return Err(UnsupportedSizeError { size: n });
        }
        let log2n = n.trailing_zeros();
        let mut matrix = vec![0i32; n * n];
        for k in 0..n {
            for (i, e) in matrix[k * n..(k + 1) * n].iter_mut().enumerate() {
                *e = if n == 64 {
                    cos_fold64((2 * i + 1) * k)
                } else {
                    cos_fold((2 * i + 1) * k * (32 / n))
                };
            }
        }
        let butterfly =
            IntButterflyPlan::from_matrix(n, &matrix).expect("built-in matrices always factorize");
        Ok(IntDct { n, log2n, matrix, butterfly })
    }

    /// Transform length (the window size `WS`).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always `false`; the transform length is at least 4.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The constant scaling factor `S = 2^(6 + log2(N)/2)` relating the
    /// integer matrix to the orthonormal DCT (Section IV-C).
    pub fn scale(&self) -> f64 {
        2f64.powf(6.0 + self.log2n as f64 / 2.0)
    }

    /// The forward right-shift applied after the matrix multiply so that
    /// full-scale Q1.15 inputs produce coefficients that fit in 16 bits.
    pub fn forward_shift(&self) -> u32 {
        6 + self.log2n
    }

    /// The inverse right-shift; `forward_shift + inverse_shift`
    /// equals `12 + log2 N`, cancelling `S^2` exactly.
    pub fn inverse_shift(&self) -> u32 {
        6
    }

    /// Integer basis matrix entry `T[k][i]`.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `i` is out of range.
    pub fn coefficient(&self, k: usize, i: usize) -> i32 {
        assert!(k < self.n && i < self.n, "matrix index out of range");
        self.matrix[k * self.n + i]
    }

    /// Basis matrix row `T[k]` (the shift-add network constants one
    /// coefficient drives). Lets fused decoder kernels accumulate rows
    /// straight off the coded stream.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn row(&self, k: usize) -> &[i32] {
        &self.matrix[k * self.n..(k + 1) * self.n]
    }

    /// The distinct positive constants of the matrix — the multiplier
    /// constants a hardware engine must realize with shift-add networks.
    pub fn distinct_constants(&self) -> Vec<i32> {
        let mut v: Vec<i32> = self.matrix.iter().map(|c| c.abs()).filter(|&c| c != 0).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Forward integer DCT of one window of Q1.15 samples.
    ///
    /// The result is rounded and shifted by [`IntDct::forward_shift`];
    /// coefficients are saturated to the 16-bit range so they can be stored
    /// in one compressed-memory word.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.len()`.
    pub fn forward(&self, x: &[Q15]) -> Vec<i32> {
        let mut y = vec![0i32; self.n];
        self.forward_into(x, &mut y);
        y
    }

    /// [`IntDct::forward`] into a caller-provided buffer — the
    /// zero-allocation entry point used by plan-based codec loops.
    ///
    /// Runs the factorized butterfly kernel, bit-identical to
    /// [`IntDct::forward_matrix_into`] (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` or `out.len()` differs from the transform size.
    pub fn forward_into(&self, x: &[Q15], out: &mut [i32]) {
        assert_eq!(x.len(), self.n, "window length must match transform size");
        assert_eq!(out.len(), self.n, "output length must match transform size");
        // Widen Q1.15 to i32 for the kernel. All arithmetic fits i32:
        // the accumulator bound max|T| * n * max|x| = 90 * 64 * 2^15 is
        // under 2^28, so the reassociated sums equal the i64 oracle's.
        let mut wide = [0i32; crate::loeffler::MAX_BUTTERFLY_LEN];
        let wide = &mut wide[..self.n];
        for (w, s) in wide.iter_mut().zip(x) {
            *w = i32::from(s.raw());
        }
        self.butterfly.forward_accumulate(wide, out);
        let shift = self.forward_shift();
        let rnd = 1i32 << (shift - 1);
        for o in out.iter_mut() {
            let v = (*o + rnd) >> shift;
            *o = v.clamp(i32::from(i16::MIN), i32::from(i16::MAX));
        }
    }

    /// The dense matrix-multiply forward — the historical kernel, kept
    /// as the bit-exact oracle the factorized path is verified against
    /// (`tests/transform_equivalence.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` or `out.len()` differs from the transform size.
    pub fn forward_matrix_into(&self, x: &[Q15], out: &mut [i32]) {
        assert_eq!(x.len(), self.n, "window length must match transform size");
        assert_eq!(out.len(), self.n, "output length must match transform size");
        let shift = self.forward_shift();
        let rnd = 1i64 << (shift - 1);
        for (row, o) in self.matrix.chunks_exact(self.n).zip(out.iter_mut()) {
            let mut acc = 0i64;
            for (&t, &s) in row.iter().zip(x) {
                acc += i64::from(t) * i64::from(s.raw());
            }
            let v = (acc + rnd) >> shift;
            *o = v.clamp(i64::from(i16::MIN), i64::from(i16::MAX)) as i32;
        }
    }

    /// The factorized kernel — shared with the batched SoA plan in
    /// [`crate::batched`] so both drive the identical flowgraph
    /// constants.
    pub(crate) fn butterfly(&self) -> &IntButterflyPlan {
        &self.butterfly
    }

    /// Inverse integer DCT: transposed matrix multiply plus a right shift.
    ///
    /// This is the arithmetic the hardware IDCT engine performs (Figure 10,
    /// stage 2); in silicon every `T[k][i] * y[k]` product is a shift-add
    /// network, see [`crate::csd::Csd`].
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != self.len()`.
    pub fn inverse(&self, y: &[i32]) -> Vec<Q15> {
        let mut x = vec![Q15::ZERO; self.n];
        self.inverse_into(y, &mut x);
        x
    }

    /// [`IntDct::inverse`] into a caller-provided buffer, allocation-free.
    ///
    /// The accumulation loops are column-major and skip zero coefficients
    /// — after thresholding, a typical codec window carries 2-3 nonzero
    /// coefficients out of 16, so this does ~5x less multiply-add work
    /// than the dense transform while producing bit-identical results
    /// (skipped terms contribute exactly zero to the integer
    /// accumulators; accumulator state lives on the stack).
    ///
    /// # Panics
    ///
    /// Panics if `y.len()` or `out.len()` differs from the transform size.
    pub fn inverse_into(&self, y: &[i32], out: &mut [Q15]) {
        let mut acc = [0i64; 64];
        self.accumulate_inverse(y, out.len(), &mut acc);
        let shift = self.inverse_shift();
        let rnd = 1i64 << (shift - 1);
        for (o, &a) in out.iter_mut().zip(acc.iter()) {
            let v = (a + rnd) >> shift;
            *o = Q15::from_raw(v.clamp(i64::from(i16::MIN), i64::from(i16::MAX)) as i16);
        }
    }

    /// Fused dequantize + inverse + Q1.15-to-`f64`, allocation-free: the
    /// stored coefficients are shifted left by `pre_shift` (undoing a
    /// storage quantization such as the codec's 2-bit headroom shift)
    /// inside the accumulator, and the reconstructed samples land
    /// directly in a caller `f64` buffer. Bit-exact with
    /// `inverse(&coeffs.map(|c| c << pre_shift)).to_f64()` — the shift
    /// distributes over the exact i64 accumulation.
    ///
    /// # Panics
    ///
    /// Panics if `y.len()` or `out.len()` differs from the transform size.
    pub fn inverse_f64_into(&self, y: &[i32], pre_shift: u32, out: &mut [f64]) {
        let mut acc = [0i64; 64];
        self.accumulate_inverse(y, out.len(), &mut acc);
        let shift = self.inverse_shift();
        let rnd = 1i64 << (shift - 1);
        for (o, &a) in out.iter_mut().zip(acc.iter()) {
            let v = ((a << pre_shift) + rnd) >> shift;
            let raw = v.clamp(i64::from(i16::MIN), i64::from(i16::MAX)) as i16;
            *o = f64::from(raw) / 32768.0;
        }
    }

    /// Shared sparse transposed-matrix accumulation for the inverse
    /// kernels (`acc[i] = sum_k T[k][i] * y[k]` over nonzero `y[k]`).
    fn accumulate_inverse(&self, y: &[i32], out_len: usize, acc: &mut [i64; 64]) {
        assert_eq!(y.len(), self.n, "coefficient count must match transform size");
        assert_eq!(out_len, self.n, "output length must match transform size");
        let acc = &mut acc[..self.n];
        for (k, &c) in y.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let c = i64::from(c);
            let row = &self.matrix[k * self.n..(k + 1) * self.n];
            for (a, &t) in acc.iter_mut().zip(row) {
                *a += i64::from(t) * c;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dct::Dct;

    #[test]
    fn rejects_unsupported_sizes() {
        for n in [0, 1, 2, 3, 5, 7, 9, 12, 24, 48, 128] {
            assert_eq!(IntDct::new(n).unwrap_err().size, n);
        }
        for n in SUPPORTED_SIZES {
            assert!(IntDct::new(n).is_ok());
        }
    }

    #[test]
    fn matrix_64pt_even_rows_are_exactly_the_32pt_matrix() {
        // The backward-compatibility and butterfly-recursion identity of
        // the VVC-style extension: T64[2k][i] == T32[k][i].
        let t64 = IntDct::new(64).unwrap();
        let t32 = IntDct::new(32).unwrap();
        for k in 0..32 {
            for i in 0..32 {
                assert_eq!(t64.coefficient(2 * k, i), t32.coefficient(k, i), "k={k} i={i}");
            }
        }
    }

    #[test]
    fn matrix_64pt_odd_rows_use_extension_constants() {
        let t = IntDct::new(64).unwrap();
        // First column of odd rows walks the odd-index magnitudes.
        let expect = [90, 90, 90, 89, 88, 87, 86, 84, 83, 81, 79, 76, 74, 71, 69, 66];
        for (j, &e) in expect.iter().enumerate() {
            assert_eq!(t.coefficient(2 * j + 1, 0), e, "row {}", 2 * j + 1);
        }
        assert_eq!(t.scale(), 512.0);
        assert_eq!(t.forward_shift(), 12);
    }

    #[test]
    fn forward_matches_matrix_oracle_on_extremes() {
        for n in SUPPORTED_SIZES {
            let t = IntDct::new(n).unwrap();
            let cases: [Vec<Q15>; 4] = [
                vec![Q15::MAX; n],
                vec![Q15::MIN; n],
                (0..n).map(|i| if i % 2 == 0 { Q15::MAX } else { Q15::MIN }).collect(),
                (0..n).map(|i| if i == 0 { Q15::MAX } else { Q15::ZERO }).collect(),
            ];
            for x in &cases {
                let mut fast = vec![0i32; n];
                let mut oracle = vec![0i32; n];
                t.forward_into(x, &mut fast);
                t.forward_matrix_into(x, &mut oracle);
                assert_eq!(fast, oracle, "n={n}");
            }
        }
    }

    #[test]
    fn matrix_matches_hevc_4pt() {
        let t = IntDct::new(4).unwrap();
        let expect = [[64, 64, 64, 64], [83, 36, -36, -83], [64, -64, -64, 64], [36, -83, 83, -36]];
        for (k, row) in expect.iter().enumerate() {
            for (i, &e) in row.iter().enumerate() {
                assert_eq!(t.coefficient(k, i), e, "T4[{k}][{i}]");
            }
        }
    }

    #[test]
    fn matrix_matches_hevc_8pt() {
        let t = IntDct::new(8).unwrap();
        let expect: [[i32; 8]; 8] = [
            [64, 64, 64, 64, 64, 64, 64, 64],
            [89, 75, 50, 18, -18, -50, -75, -89],
            [83, 36, -36, -83, -83, -36, 36, 83],
            [75, -18, -89, -50, 50, 89, 18, -75],
            [64, -64, -64, 64, 64, -64, -64, 64],
            [50, -89, 18, 75, -75, -18, 89, -50],
            [36, -83, 83, -36, -36, 83, -83, 36],
            [18, -50, 75, -89, 89, -75, 50, -18],
        ];
        for (k, row) in expect.iter().enumerate() {
            for (i, &e) in row.iter().enumerate() {
                assert_eq!(t.coefficient(k, i), e, "T8[{k}][{i}]");
            }
        }
    }

    #[test]
    fn matrix_16pt_odd_rows_use_standard_constants() {
        let t = IntDct::new(16).unwrap();
        // First column of odd rows: the normative 16-point odd set.
        let expect = [90, 87, 80, 70, 57, 43, 25, 9];
        for (j, &e) in expect.iter().enumerate() {
            assert_eq!(t.coefficient(2 * j + 1, 0), e);
        }
    }

    #[test]
    fn matrix_32pt_odd_rows_use_standard_constants() {
        let t = IntDct::new(32).unwrap();
        let expect = [90, 90, 88, 85, 82, 78, 73, 67, 61, 54, 46, 38, 31, 22, 13, 4];
        for (j, &e) in expect.iter().enumerate() {
            assert_eq!(t.coefficient(2 * j + 1, 0), e);
        }
    }

    #[test]
    fn rows_are_nearly_orthogonal() {
        for n in SUPPORTED_SIZES {
            let t = IntDct::new(n).unwrap();
            let s2 = t.scale() * t.scale();
            for k1 in 0..n {
                for k2 in 0..n {
                    let dot: i64 = (0..n)
                        .map(|i| i64::from(t.coefficient(k1, i)) * i64::from(t.coefficient(k2, i)))
                        .sum();
                    if k1 == k2 {
                        let rel = (dot as f64 - s2).abs() / s2;
                        assert!(rel < 0.01, "n={n} row {k1} norm off by {rel}");
                    } else {
                        // Cross-terms are tiny relative to the diagonal.
                        assert!((dot as f64).abs() / s2 < 0.01, "n={n} rows {k1},{k2} dot {dot}");
                    }
                }
            }
        }
    }

    #[test]
    fn matrix_approximates_scaled_orthonormal_dct() {
        for n in SUPPORTED_SIZES {
            let t = IntDct::new(n).unwrap();
            let exact = Dct::new(n);
            let s = t.scale();
            // Entries differ from s*D by < 1.5 (the standard hand-tunes a
            // few entries away from pure rounding, e.g. T4[1][1]=36 vs 34.6,
            // to improve orthogonality).
            for k in 0..n {
                for i in 0..n {
                    let mut probe = vec![0.0; n];
                    probe[i] = 1.0;
                    let d_ki = exact.forward(&probe)[k];
                    assert!(
                        (f64::from(t.coefficient(k, i)) - s * d_ki).abs() < 1.5,
                        "n={n} entry [{k}][{i}]"
                    );
                }
            }
        }
    }

    #[test]
    fn round_trip_error_is_small() {
        for n in SUPPORTED_SIZES {
            let t = IntDct::new(n).unwrap();
            let x: Vec<Q15> = (0..n)
                .map(|i| {
                    let ph = std::f64::consts::PI * (i as f64 + 0.5) / n as f64;
                    Q15::from_f64(0.7 * ph.sin() + 0.1 * (3.0 * ph).cos())
                })
                .collect();
            let back = t.inverse(&t.forward(&x));
            // Forward rounding noise accumulates ~sqrt(N) per sample;
            // 4e-3 is the calibrated bound at N <= 32.
            let bound = 4e-3 * (n as f64 / 32.0).sqrt().max(1.0);
            for (a, b) in x.iter().zip(&back) {
                assert!(
                    (a.to_f64() - b.to_f64()).abs() < bound,
                    "n={n}: {} vs {}",
                    a.to_f64(),
                    b.to_f64()
                );
            }
        }
    }

    #[test]
    fn constant_windows_are_dc_only_at_every_size() {
        // The premise of the codec's constant-window shortcuts: row 0 is
        // the constant 64, and every other row sums to zero.
        for n in SUPPORTED_SIZES {
            let t = IntDct::new(n).unwrap();
            assert!(t.row(0).iter().all(|&c| c == 64), "n={n} row 0 = {:?}", t.row(0));
            for k in 1..n {
                assert_eq!(t.row(k).iter().sum::<i32>(), 0, "n={n} row {k}");
            }
        }
    }

    #[test]
    fn dc_window_compacts_to_single_coefficient() {
        let t = IntDct::new(8).unwrap();
        let x = vec![Q15::from_f64(0.5); 8];
        let y = t.forward(&x);
        assert!(y[0] > 0);
        assert!(y[1..].iter().all(|&c| c == 0), "AC leakage: {y:?}");
    }

    #[test]
    fn full_scale_dc_does_not_overflow() {
        let t = IntDct::new(16).unwrap();
        let x = vec![Q15::MAX; 16];
        let y = t.forward(&x);
        assert_eq!(y[0], i32::from(i16::MAX));
        let back = t.inverse(&y);
        for b in back {
            assert!((b.to_f64() - Q15::MAX.to_f64()).abs() < 2e-3);
        }
    }

    #[test]
    fn scale_matches_paper_formula() {
        // S = 2^((6 + log2 N) / ... ) printed as 2^(6 + log2(N)/2).
        assert!((IntDct::new(8).unwrap().scale() - 181.019_335_983_756_2).abs() < 1e-9);
        assert!((IntDct::new(16).unwrap().scale() - 256.0).abs() < 1e-12);
    }
}
