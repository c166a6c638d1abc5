//! Loeffler-style fast DCT factorizations: the classic 8-point f64
//! flowgraph plus a generic power-of-two *integer* butterfly kernel.
//!
//! The first half of this module is the minimal-multiplier DCT
//! factorization [Loeffler, Ligtenberg, Moschytz, ICASSP 1989] that the
//! paper's `DCT-W` hardware engine is based on (Table IV: 11 multipliers,
//! 29 adders for WS=8). The flowgraph computes a *uniformly scaled* DCT:
//! every output equals `sqrt(8)` times the orthonormal DCT-II
//! coefficient, so the scale can be folded into quantization with no
//! extra hardware. The inverse runs the transposed flowgraph (rotations
//! negated, stages reversed) followed by a single shift-by-8
//! normalization, which is why "IDCT circuits are simply the reverse of
//! DCT circuits" (Section V-B).
//!
//! The second half, [`IntButterflyPlan`], generalizes the *first stage*
//! of that flowgraph — the reflection butterflies `x[i] ± x[N-1-i]` — to
//! any power-of-two length and to integer arithmetic, which is what the
//! codec's forward [`crate::intdct::IntDct`] runs on. The even half of a
//! symmetric integer DCT matrix recurses into the half-size matrix; the
//! odd half stays a dense rotator bank (the Q15/i32 rotations of the
//! Loeffler graph, one constant multiply per matrix entry). Keeping the
//! odd half dense instead of factoring it all the way down to 11
//! multipliers is a deliberate trade: integer additions reassociate
//! *exactly*, so the butterfly kernel is **bit-identical** to the full
//! matrix multiply it replaces — no max-ulp bound to document, the
//! matrix path stays available as the oracle — while still cutting the
//! multiply count roughly threefold (22 vs 64 at N=8, 342 vs 1024 at
//! N=32). A fully reduced Loeffler graph would need irrational rotation
//! pairs that cannot reproduce the hand-tuned HEVC integers bit-for-bit.

use std::f64::consts::PI;

/// Number of multipliers in the 8-point Loeffler DCT/IDCT flowgraph.
pub const LOEFFLER_8_MULTIPLIERS: usize = 11;
/// Number of adders in the 8-point Loeffler DCT/IDCT flowgraph.
pub const LOEFFLER_8_ADDERS: usize = 29;
/// Multipliers for the minimal known 16-point factorization (Table IV).
pub const LOEFFLER_16_MULTIPLIERS: usize = 26;
/// Adders for the minimal known 16-point factorization (Table IV).
pub const LOEFFLER_16_ADDERS: usize = 81;

/// The uniform output scale of the flowgraph relative to the orthonormal
/// DCT: `sqrt(8)`.
pub const LOEFFLER_8_SCALE: f64 = 2.828_427_124_746_190_3;

#[inline]
fn rot(a: f64, b: f64, theta: f64) -> (f64, f64) {
    let (s, c) = theta.sin_cos();
    (a * c + b * s, -a * s + b * c)
}

/// Forward 8-point Loeffler DCT.
///
/// Returns `sqrt(8)` times the orthonormal DCT-II of `x`.
///
/// # Example
///
/// ```
/// use compaqt_dsp::loeffler::{loeffler_dct8, LOEFFLER_8_SCALE};
/// use compaqt_dsp::dct::dct2;
///
/// let x = [0.1, 0.3, 0.5, 0.7, 0.7, 0.5, 0.3, 0.1];
/// let fast = loeffler_dct8(&x);
/// let exact = dct2(&x);
/// for k in 0..8 {
///     assert!((fast[k] / LOEFFLER_8_SCALE - exact[k]).abs() < 1e-12);
/// }
/// ```
pub fn loeffler_dct8(x: &[f64; 8]) -> [f64; 8] {
    // Stage 1: reflection butterflies.
    let a0 = x[0] + x[7];
    let a1 = x[1] + x[6];
    let a2 = x[2] + x[5];
    let a3 = x[3] + x[4];
    let a4 = x[3] - x[4];
    let a5 = x[2] - x[5];
    let a6 = x[1] - x[6];
    let a7 = x[0] - x[7];

    // Stage 2, even half: 4-point butterflies.
    let b0 = a0 + a3;
    let b1 = a1 + a2;
    let b2 = a1 - a2;
    let b3 = a0 - a3;
    // Stage 2, odd half: two rotators (3 multipliers each in hardware).
    let (b4, b7) = rot(a4, a7, 3.0 * PI / 16.0);
    let (b5, b6) = rot(a5, a6, PI / 16.0);

    // Stage 3, even: DC/Nyquist butterfly plus the sqrt(2)*c(pi/8) rotator.
    let y0 = b0 + b1;
    let y4 = b0 - b1;
    let (c, s) = ((PI / 8.0).cos(), (PI / 8.0).sin());
    let r2 = std::f64::consts::SQRT_2;
    let y2 = r2 * (c * b3 + s * b2);
    let y6 = r2 * (s * b3 - c * b2);

    // Stage 3, odd: butterflies.
    let c4 = b4 + b6;
    let c5 = b7 - b5;
    let c6 = b4 - b6;
    let c7 = b7 + b5;

    // Stage 4, odd: output butterflies and two sqrt(2) scalings.
    let y1 = c7 + c4;
    let y7 = c7 - c4;
    let y3 = r2 * c5;
    let y5 = r2 * c6;

    [y0, y1, y2, y3, y4, y5, y6, y7]
}

/// Inverse 8-point Loeffler IDCT: the transposed flowgraph followed by a
/// divide-by-8, the exact inverse of [`loeffler_dct8`].
///
/// # Example
///
/// ```
/// use compaqt_dsp::loeffler::{loeffler_dct8, loeffler_idct8};
///
/// let x = [0.0, 0.2, 0.4, 0.2, -0.1, -0.4, -0.2, 0.0];
/// let y = loeffler_dct8(&x);
/// let x_hat = loeffler_idct8(&y);
/// for k in 0..8 {
///     assert!((x[k] - x_hat[k]).abs() < 1e-12);
/// }
/// ```
pub fn loeffler_idct8(y: &[f64; 8]) -> [f64; 8] {
    let r2 = std::f64::consts::SQRT_2;

    // Transposed stage 4 (odd).
    let c7 = y[1] + y[7];
    let c4 = y[1] - y[7];
    let c5 = r2 * y[3];
    let c6 = r2 * y[5];

    // Transposed stage 3 (odd butterflies).
    let b4 = c4 + c6;
    let b6 = c4 - c6;
    let b5 = c7 - c5;
    let b7 = c7 + c5;

    // Transposed stage 3 (even).
    let b0 = y[0] + y[4];
    let b1 = y[0] - y[4];
    let (c, s) = ((PI / 8.0).cos(), (PI / 8.0).sin());
    let b2 = r2 * (s * y[2] - c * y[6]);
    let b3 = r2 * (c * y[2] + s * y[6]);

    // Transposed stage 2: even butterflies and negated rotators.
    let a0 = b0 + b3;
    let a3 = b0 - b3;
    let a1 = b1 + b2;
    let a2 = b1 - b2;
    let (a4, a7) = rot(b4, b7, -3.0 * PI / 16.0);
    let (a5, a6) = rot(b5, b6, -PI / 16.0);

    // Transposed stage 1 and final 1/8 normalization.
    [
        (a0 + a7) / 8.0,
        (a1 + a6) / 8.0,
        (a2 + a5) / 8.0,
        (a3 + a4) / 8.0,
        (a3 - a4) / 8.0,
        (a2 - a5) / 8.0,
        (a1 - a6) / 8.0,
        (a0 - a7) / 8.0,
    ]
}

/// Largest transform length the stack-allocated butterfly kernel
/// supports. Longer power-of-two matrices fall back to the dense matrix
/// path in [`crate::intdct::IntDct`].
pub const MAX_BUTTERFLY_LEN: usize = 64;

/// A factorized fixed-point forward DCT kernel for one power-of-two
/// length: the Loeffler reflection-butterfly stages applied recursively
/// to the even half of an integer DCT matrix, with each odd half kept as
/// a dense bank of integer rotators.
///
/// # Exactness contract
///
/// [`IntButterflyPlan::forward_accumulate`] computes *exactly*
/// `out[k] = sum_i T[k][i] * x[i]` for the matrix `T` the plan was built
/// from, and the batched SoA forward in [`crate::batched`] replays the
/// same flowgraph across a window batch — the factorization only
/// reorders integer additions, which are associative, so both are
/// bit-identical to the dense matrix multiply (the
/// `transform_equivalence` suite proptests this against the matrix
/// oracle for every supported window size). The uniform flowgraph scale
/// therefore stays folded wherever the matrix's scale already lives:
/// the caller's `forward_shift`/quantization constants are untouched.
///
/// # Construction
///
/// [`IntButterflyPlan::from_matrix`] accepts any row-major `n x n`
/// integer matrix whose rows are recursively reflection-symmetric (even
/// rows `T[2k][i] == T[2k][n-1-i]`, odd rows antisymmetric) — the
/// defining property of every DCT-II-family matrix, including the
/// hand-tuned HEVC/VVC integer transforms — and returns `None` for
/// matrices without the symmetry or lengths outside
/// `1..=`[`MAX_BUTTERFLY_LEN`], letting callers fall back to the dense
/// path.
///
/// # Example
///
/// ```
/// use compaqt_dsp::loeffler::IntButterflyPlan;
///
/// // The 4-point HEVC core transform.
/// let t = [64, 64, 64, 64, 83, 36, -36, -83, 64, -64, -64, 64, 36, -83, 83, -36];
/// let plan = IntButterflyPlan::from_matrix(4, &t).expect("symmetric");
/// let x = [100, -3000, 1234, 32767];
/// let mut fast = [0i32; 4];
/// plan.forward_accumulate(&x, &mut fast);
/// for k in 0..4 {
///     let dense: i32 = (0..4).map(|i| t[k * 4 + i] * x[i]).sum();
///     assert_eq!(fast[k], dense, "bit-exact by construction");
/// }
/// assert_eq!(plan.multiplies(), 6); // vs 16 for the dense multiply
/// ```
#[derive(Debug, Clone)]
pub struct IntButterflyPlan {
    n: usize,
    /// Flattened odd-row half-matrices, outermost level first: level `L`
    /// (segment length `n >> L`, half `h = n >> (L + 1)`) contributes
    /// `h * h` entries `T_{n>>L}[2k+1][i]` for `i < h`, where
    /// `T_{n>>L}` is the `L`-fold even-row subsampling of the matrix.
    odd: Vec<i32>,
    /// Start of each level's rows inside `odd`.
    level_off: Vec<usize>,
    /// The 1x1 base case `T[0][0]` (64 for the HEVC family).
    dc: i32,
}

impl IntButterflyPlan {
    /// Builds the butterfly factorization of a row-major `n x n` integer
    /// matrix, or `None` if `n` is not a power of two in
    /// `1..=`[`MAX_BUTTERFLY_LEN`] or the matrix lacks the recursive
    /// even-symmetric / odd-antisymmetric row structure.
    ///
    /// # Panics
    ///
    /// Panics if `matrix.len() != n * n`.
    pub fn from_matrix(n: usize, matrix: &[i32]) -> Option<Self> {
        assert_eq!(matrix.len(), n * n, "matrix must be n x n row-major");
        if n == 0 || !n.is_power_of_two() || n > MAX_BUTTERFLY_LEN {
            return None;
        }
        let mut cur = matrix.to_vec();
        let mut odd = Vec::new();
        let mut level_off = Vec::new();
        let mut len = n;
        while len > 1 {
            let half = len / 2;
            for (k, row) in cur.chunks_exact(len).enumerate() {
                let sign: i64 = if k % 2 == 0 { 1 } else { -1 };
                for i in 0..half {
                    if i64::from(row[i]) != sign * i64::from(row[len - 1 - i]) {
                        return None;
                    }
                }
            }
            level_off.push(odd.len());
            for k in 0..half {
                let row = (2 * k + 1) * len;
                odd.extend_from_slice(&cur[row..row + half]);
            }
            let mut next = vec![0i32; half * half];
            for k in 0..half {
                next[k * half..(k + 1) * half]
                    .copy_from_slice(&cur[2 * k * len..2 * k * len + half]);
            }
            cur = next;
            len = half;
        }
        Some(IntButterflyPlan { n, odd, level_off, dc: cur[0] })
    }

    /// The planned transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// The dense odd-rotator bank of recursion level `level`: a row-major
    /// `half x half` block with `half = n >> (level + 1)`, row `k` holding
    /// the first half of matrix row `2k+1` at that level. Exposed for the
    /// batched SoA kernels in [`crate::batched`], which replay the exact
    /// flowgraph across a whole window batch.
    pub(crate) fn rows_at(&self, level: usize) -> &[i32] {
        let half = self.n >> (level + 1);
        &self.odd[self.level_off[level]..self.level_off[level] + half * half]
    }

    /// The 1x1 base-case gain `T[0][0]`.
    pub(crate) fn dc_gain(&self) -> i32 {
        self.dc
    }

    /// Always `false`: zero-length plans are rejected at construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Constant multiplies one forward (or inverse) evaluation performs:
    /// every odd-bank entry plus the 1x1 base case. Compare `n * n` for
    /// the dense multiply (22 vs 64 at N=8, 86 vs 256 at N=16).
    pub fn multiplies(&self) -> usize {
        self.odd.len() + 1
    }

    /// Integer additions per evaluation: `len/2` butterflies (one add,
    /// one subtract) per level plus the odd-bank dot-product
    /// accumulations.
    pub fn adds(&self) -> usize {
        let mut total = 0;
        let mut len = self.n;
        while len > 1 {
            let half = len / 2;
            total += len + half * (half - 1);
            len = half;
        }
        total
    }

    /// Forward factorized transform: `out[k] = sum_i T[k][i] * x[i]`,
    /// exactly, with no rounding or shifting (the caller owns the scale
    /// folding). All intermediates live on the stack.
    ///
    /// Arithmetic is `i32`; the caller must guarantee
    /// `max|T| * n * max|x| < 2^31` (every butterfly level satisfies the
    /// same bound, see the inline proof). Q1.15 samples through the
    /// HEVC-family matrices satisfy it with 11x headroom at N=64.
    ///
    /// Dispatches to a monomorphized kernel per length so the butterfly
    /// and rotator-bank loops unroll with compile-time trip counts —
    /// without this, the dense matrix multiply's perfectly regular loops
    /// out-vectorize the factorization at small N.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` or `out.len()` differs from the plan length.
    pub fn forward_accumulate(&self, x: &[i32], out: &mut [i32]) {
        assert_eq!(x.len(), self.n, "input length must match plan length");
        assert_eq!(out.len(), self.n, "output length must match plan length");
        match self.n {
            1 => out[0] = self.dc * x[0],
            2 => self.forward_impl::<2>(x, out),
            4 => self.forward_impl::<4>(x, out),
            8 => self.forward_impl::<8>(x, out),
            16 => self.forward_impl::<16>(x, out),
            32 => self.forward_impl::<32>(x, out),
            64 => self.forward_impl::<64>(x, out),
            _ => unreachable!("construction admits only powers of two up to MAX_BUTTERFLY_LEN"),
        }
    }

    /// Monomorphized forward kernel body; `N == self.n` by dispatch.
    fn forward_impl<const N: usize>(&self, x: &[i32], out: &mut [i32]) {
        let mut buf = [0i32; N];
        buf.copy_from_slice(x);
        let mut len = N;
        let mut level = 0usize;
        let mut step = 1usize;
        while len > 1 {
            let half = len / 2;
            // Loeffler stage-1 reflection butterflies: the sums continue
            // into the even recursion in place, the differences feed the
            // odd rotator bank. After L levels |buf| <= 2^L * max|x|, and
            // each dot product has n >> (L+1) terms, so every accumulator
            // is bounded by max|T| * n/2 * 2 * max|x| independent of L.
            let mut diff = [0i32; N];
            for i in 0..half {
                let a = buf[i];
                let b = buf[len - 1 - i];
                diff[i] = a - b;
                buf[i] = a + b;
            }
            let rows = &self.odd[self.level_off[level]..self.level_off[level] + half * half];
            for (k, row) in rows.chunks_exact(half).enumerate() {
                let acc: i32 = row.iter().zip(&diff[..half]).map(|(&t, &d)| t * d).sum();
                out[step * (2 * k + 1)] = acc;
            }
            len = half;
            level += 1;
            step *= 2;
        }
        out[0] = self.dc * buf[0];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dct::dct2;

    #[test]
    fn matches_exact_dct_up_to_scale() {
        let x = [0.9, -0.3, 0.25, 0.6, -0.75, 0.1, 0.0, 0.45];
        let fast = loeffler_dct8(&x);
        let exact = dct2(&x);
        for k in 0..8 {
            assert!(
                (fast[k] / LOEFFLER_8_SCALE - exact[k]).abs() < 1e-12,
                "coefficient {k}: {} vs {}",
                fast[k] / LOEFFLER_8_SCALE,
                exact[k]
            );
        }
    }

    #[test]
    fn inverse_round_trips() {
        let x = [0.11, 0.22, 0.33, 0.44, -0.44, -0.33, -0.22, -0.11];
        let x_hat = loeffler_idct8(&loeffler_dct8(&x));
        for k in 0..8 {
            assert!((x[k] - x_hat[k]).abs() < 1e-12);
        }
    }

    #[test]
    fn impulse_round_trips() {
        for pos in 0..8 {
            let mut x = [0.0; 8];
            x[pos] = 1.0;
            let x_hat = loeffler_idct8(&loeffler_dct8(&x));
            for (k, &v) in x_hat.iter().enumerate() {
                let expect = if k == pos { 1.0 } else { 0.0 };
                assert!((v - expect).abs() < 1e-12, "impulse at {pos}, sample {k}");
            }
        }
    }

    #[test]
    fn scale_constant_is_sqrt8() {
        assert!((LOEFFLER_8_SCALE - 8f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn resource_counts_match_table_iv() {
        // Table IV, DCT-W rows.
        assert_eq!(LOEFFLER_8_MULTIPLIERS, 11);
        assert_eq!(LOEFFLER_8_ADDERS, 29);
        assert_eq!(LOEFFLER_16_MULTIPLIERS, 26);
        assert_eq!(LOEFFLER_16_ADDERS, 81);
    }

    /// Deterministic pseudo-random i32 stream for kernel cross-checks.
    fn xorshift(state: &mut u64) -> i32 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state >> 32) as i32
    }

    /// A scaled integer DCT-II matrix built through a shared quarter-wave
    /// magnitude table, so the reflection symmetry is exact at every
    /// recursion level (mirrored entries reuse the same table value; no
    /// independent float roundings that could differ by an ulp).
    fn scaled_cos_matrix(n: usize, scale: f64) -> Vec<i32> {
        let quarter: Vec<i32> = (0..=n)
            .map(|m| (scale * (PI * m as f64 / (2 * n) as f64).cos()).round() as i32)
            .collect();
        let fold = |m: usize| -> i32 {
            let m = m % (4 * n);
            match m {
                m if m <= n => quarter[m],
                m if m <= 2 * n => -quarter[2 * n - m],
                m if m <= 3 * n => -quarter[m - 2 * n],
                m => quarter[4 * n - m],
            }
        };
        let mut mat = vec![0i32; n * n];
        for k in 0..n {
            for (i, e) in mat[k * n..(k + 1) * n].iter_mut().enumerate() {
                *e = fold((2 * i + 1) * k);
            }
        }
        mat
    }

    #[test]
    fn butterfly_matches_dense_multiply() {
        for n in [1usize, 2, 4, 8, 16, 32, 64] {
            let m = scaled_cos_matrix(n, 181.0);
            let plan = IntButterflyPlan::from_matrix(n, &m)
                .unwrap_or_else(|| panic!("n={n} should factorize"));
            let mut state = 0x5EED_0000_1234_5678 ^ n as u64;
            let x: Vec<i32> = (0..n).map(|_| xorshift(&mut state) >> 16).collect();
            let mut fwd = vec![0i32; n];
            plan.forward_accumulate(&x, &mut fwd);
            for k in 0..n {
                let dense: i64 = (0..n).map(|i| i64::from(m[k * n + i]) * i64::from(x[i])).sum();
                assert_eq!(i64::from(fwd[k]), dense, "n={n} forward k={k}");
            }
        }
    }

    #[test]
    fn butterfly_rejects_unfactorizable_matrices() {
        // Not a power of two.
        assert!(IntButterflyPlan::from_matrix(3, &[1; 9]).is_none());
        assert!(IntButterflyPlan::from_matrix(0, &[]).is_none());
        // Power of two but no reflection symmetry.
        let asym = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16];
        assert!(IntButterflyPlan::from_matrix(4, &asym).is_none());
        // Symmetric at the top level but broken in the even recursion:
        // rows 0/2 symmetric, rows 1/3 antisymmetric, yet the half
        // matrix [[1, 2], [5, 5]] has an asymmetric even row.
        let deep = [1, 2, 2, 1, 7, 3, -3, -7, 5, 5, 5, 5, 2, -9, 9, -2];
        assert!(IntButterflyPlan::from_matrix(4, &deep).is_none());
    }

    #[test]
    fn butterfly_cost_model_counts() {
        let t4 = [64, 64, 64, 64, 83, 36, -36, -83, 64, -64, -64, 64, 36, -83, 83, -36];
        let p = IntButterflyPlan::from_matrix(4, &t4).unwrap();
        // Odd banks: 2x2 at the top level + 1x1 at len 2, plus the base.
        assert_eq!(p.multiplies(), 4 + 1 + 1);
        // Butterflies: 4 + 2 adds; dot products: 2*(2-1) + 0.
        assert_eq!(p.adds(), 4 + 2 + 2);
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
    }

    #[test]
    fn butterfly_multiply_count_beats_dense() {
        // The whole point of the factorization: fewer constant multiplies
        // than the n^2 dense product at every codec window size.
        for n in [4usize, 8, 16, 32, 64] {
            let m = scaled_cos_matrix(n, 256.0);
            let p = IntButterflyPlan::from_matrix(n, &m).unwrap();
            assert!(
                2 * p.multiplies() <= n * n,
                "n={n}: {} multiplies vs dense {}",
                p.multiplies(),
                n * n
            );
        }
    }
}
