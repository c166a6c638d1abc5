//! Orthonormal discrete cosine transforms (DCT-II and DCT-III).
//!
//! These are the floating-point reference transforms behind the paper's
//! `DCT-N` (window = whole waveform) and `DCT-W` (fixed window) variants,
//! equivalent to `scipy.fftpack.dct(..., norm="ortho")` which the authors
//! used for compression.
//!
//! The paper's Eq. (1) prints the forward transform with a uniform
//! `1/sqrt(N)` factor; the orthonormal convention actually used by SciPy
//! (and required for Eq. (2) to be its inverse) scales the `k = 0` term by
//! `sqrt(1/N)` and the remaining terms by `sqrt(2/N)`. We implement the
//! orthonormal pair so that `dct3(dct2(x)) == x`.

use std::f64::consts::PI;

/// A precomputed N-point orthonormal DCT-II/DCT-III transform pair.
///
/// Precomputing the cosine basis makes repeated windowed transforms cheap
/// and keeps forward/inverse numerically consistent.
///
/// # Example
///
/// ```
/// use compaqt_dsp::dct::Dct;
///
/// let dct = Dct::new(16);
/// let x: Vec<f64> = (0..16).map(|i| (i as f64 / 16.0).cos()).collect();
/// let y = dct.forward(&x);
/// let x_hat = dct.inverse(&y);
/// for (a, b) in x.iter().zip(&x_hat) {
///     assert!((a - b).abs() < 1e-12);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Dct {
    n: usize,
    /// Row-major basis matrix: `basis[k * n + i] = s(k) * cos(pi (2i+1) k / 2N)`.
    basis: Vec<f64>,
}

impl Dct {
    /// Creates an N-point transform pair.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "DCT length must be positive");
        let mut basis = vec![0.0; n * n];
        let norm0 = (1.0 / n as f64).sqrt();
        let norm = (2.0 / n as f64).sqrt();
        for k in 0..n {
            let s = if k == 0 { norm0 } else { norm };
            for i in 0..n {
                basis[k * n + i] = s * (PI * (2 * i + 1) as f64 * k as f64 / (2 * n) as f64).cos();
            }
        }
        Dct { n, basis }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if this is the (degenerate) 0-point transform.
    ///
    /// Always `false`: construction requires `n > 0`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Forward orthonormal DCT-II.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the transform length.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n];
        self.forward_into(x, &mut y);
        y
    }

    /// [`Dct::forward`] into a caller-provided buffer, allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` or `out.len()` differs from the transform
    /// length.
    pub fn forward_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.n, "input length must match transform length");
        assert_eq!(out.len(), self.n, "output length must match transform length");
        for (k, o) in out.iter_mut().enumerate() {
            let row = &self.basis[k * self.n..(k + 1) * self.n];
            *o = row.iter().zip(x).map(|(b, v)| b * v).sum();
        }
    }

    /// Inverse transform (orthonormal DCT-III), the exact inverse of
    /// [`Dct::forward`].
    ///
    /// # Panics
    ///
    /// Panics if `y.len()` differs from the transform length.
    pub fn inverse(&self, y: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        self.inverse_into(y, &mut x);
        x
    }

    /// [`Dct::inverse`] into a caller-provided buffer, allocation-free.
    ///
    /// Zero coefficients are skipped (thresholded codec windows are
    /// sparse), identically to [`Dct::inverse`], so both paths produce
    /// bit-identical output.
    ///
    /// # Panics
    ///
    /// Panics if `y.len()` or `out.len()` differs from the transform
    /// length.
    pub fn inverse_into(&self, y: &[f64], out: &mut [f64]) {
        assert_eq!(y.len(), self.n, "input length must match transform length");
        assert_eq!(out.len(), self.n, "output length must match transform length");
        out.fill(0.0);
        for (k, &c) in y.iter().enumerate() {
            if c != 0.0 {
                let row = &self.basis[k * self.n..(k + 1) * self.n];
                for (xi, b) in out.iter_mut().zip(row) {
                    *xi += c * b;
                }
            }
        }
    }
}

/// One-shot forward orthonormal DCT-II of an arbitrary-length signal.
///
/// Prefer [`Dct`] when transforming many windows of the same size.
///
/// # Example
///
/// ```
/// let y = compaqt_dsp::dct::dct2(&[1.0, 1.0, 1.0, 1.0]);
/// // A constant signal compacts all energy into coefficient 0.
/// assert!((y[0] - 2.0).abs() < 1e-12);
/// assert!(y[1..].iter().all(|c| c.abs() < 1e-12));
/// ```
pub fn dct2(x: &[f64]) -> Vec<f64> {
    Dct::new(x.len()).forward(x)
}

/// One-shot inverse (orthonormal DCT-III); the inverse of [`dct2`].
pub fn dct3(y: &[f64]) -> Vec<f64> {
    Dct::new(y.len()).inverse(y)
}

/// Fraction of total signal energy captured by the first `k` DCT
/// coefficients — the "energy compaction" property that makes smooth
/// waveforms compressible (Section IV-B of the paper).
///
/// Returns 1.0 for an all-zero signal.
///
/// # Example
///
/// ```
/// use compaqt_dsp::dct::{dct2, energy_compaction};
/// // A slowly varying signal concentrates energy in low frequencies.
/// let x: Vec<f64> = (0..64).map(|i| (i as f64 / 64.0 * 3.14).sin()).collect();
/// let y = dct2(&x);
/// assert!(energy_compaction(&y, 8) > 0.99);
/// ```
pub fn energy_compaction(coeffs: &[f64], k: usize) -> f64 {
    let total: f64 = coeffs.iter().map(|c| c * c).sum();
    if total == 0.0 {
        return 1.0;
    }
    let head: f64 = coeffs.iter().take(k).map(|c| c * c).sum();
    head / total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64 / n as f64 - 0.5).collect()
    }

    #[test]
    fn forward_inverse_round_trip() {
        for n in [1, 2, 3, 8, 16, 17, 64, 160] {
            let x = ramp(n);
            let x_hat = dct3(&dct2(&x));
            for (a, b) in x.iter().zip(&x_hat) {
                assert!((a - b).abs() < 1e-10, "n={n}");
            }
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let x: Vec<f64> = (0..32).map(|i| ((i * i) as f64 * 0.01).sin()).collect();
        let y = dct2(&x);
        let ex: f64 = x.iter().map(|v| v * v).sum();
        let ey: f64 = y.iter().map(|v| v * v).sum();
        assert!((ex - ey).abs() < 1e-10);
    }

    #[test]
    fn dc_signal_compacts_to_first_coefficient() {
        let x = vec![0.7; 16];
        let y = dct2(&x);
        assert!((y[0] - 0.7 * 4.0).abs() < 1e-12);
        assert!(y[1..].iter().all(|c| c.abs() < 1e-12));
    }

    #[test]
    fn basis_matrix_rows_are_orthonormal() {
        let dct = Dct::new(12);
        for k1 in 0..12 {
            for k2 in 0..12 {
                let dot: f64 =
                    (0..12).map(|i| dct.basis[k1 * 12 + i] * dct.basis[k2 * 12 + i]).sum();
                let expect = if k1 == k2 { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-12, "rows {k1},{k2}");
            }
        }
    }

    #[test]
    fn smooth_signal_has_high_compaction() {
        // Gaussian-like envelope, the typical single-qubit pulse shape.
        let n = 160;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let t = (i as f64 - n as f64 / 2.0) / (n as f64 / 6.0);
                0.8 * (-0.5 * t * t).exp()
            })
            .collect();
        let y = dct2(&x);
        assert!(energy_compaction(&y, 10) > 0.9999);
    }

    #[test]
    fn energy_compaction_of_zero_signal_is_one() {
        assert_eq!(energy_compaction(&[0.0; 8], 4), 1.0);
    }

    #[test]
    #[should_panic(expected = "input length")]
    fn forward_rejects_wrong_length() {
        Dct::new(8).forward(&[0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_length_rejected() {
        Dct::new(0);
    }
}
