//! Minimal complex linear algebra for quantum simulation.
//!
//! The quantum substrate needs only small dense complex matrices (2x2 to
//! 8x8 gate unitaries, 3x3 transmon Hamiltonians) and state vectors, so we
//! implement exactly that rather than pulling in a linear-algebra crate.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// A complex number (f64 components).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// Shorthand constructor for a complex number.
pub const fn c(re: f64, im: f64) -> Complex {
    Complex { re, im }
}

/// The complex zero.
pub const C_ZERO: Complex = c(0.0, 0.0);
/// The complex one.
pub const C_ONE: Complex = c(1.0, 0.0);
/// The imaginary unit.
pub const C_I: Complex = c(0.0, 1.0);

impl Complex {
    /// Complex conjugate.
    pub fn conj(self) -> Complex {
        c(self.re, -self.im)
    }

    /// Squared magnitude `|z|^2`.
    pub fn abs2(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    pub fn abs(self) -> f64 {
        self.abs2().sqrt()
    }

    /// `e^{i theta}`.
    pub fn from_phase(theta: f64) -> Complex {
        let (s, co) = theta.sin_cos();
        c(co, s)
    }

    /// Whether both components are finite.
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        c(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        c(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        c(self.re * rhs.re - self.im * rhs.im, self.re * rhs.im + self.im * rhs.re)
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    fn mul(self, rhs: f64) -> Complex {
        c(self.re * rhs, self.im * rhs)
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    fn div(self, rhs: f64) -> Complex {
        c(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        c(-self.re, -self.im)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:+.4}{:+.4}i", self.re, self.im)
    }
}

/// A dense square complex matrix (row major).
#[derive(Debug, Clone, PartialEq)]
pub struct CMatrix {
    n: usize,
    data: Vec<Complex>,
}

impl CMatrix {
    /// The `n x n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        CMatrix { n, data: vec![C_ZERO; n * n] }
    }

    /// The `n x n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = CMatrix::zeros(n);
        for k in 0..n {
            m[(k, k)] = C_ONE;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows are not square.
    pub fn from_rows(rows: &[&[Complex]]) -> Self {
        let n = rows.len();
        let mut m = CMatrix::zeros(n);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), n, "matrix must be square");
            for (col, &v) in row.iter().enumerate() {
                m[(r, col)] = v;
            }
        }
        m
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matmul(&self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.n, rhs.n, "dimension mismatch");
        let n = self.n;
        let mut out = CMatrix::zeros(n);
        for i in 0..n {
            for k in 0..n {
                let a = self[(i, k)];
                if a.abs2() == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }

    /// Conjugate transpose.
    pub fn adjoint(&self) -> CMatrix {
        let n = self.n;
        let mut out = CMatrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                out[(j, i)] = self[(i, j)].conj();
            }
        }
        out
    }

    /// Scales every entry.
    pub fn scale(&self, s: Complex) -> CMatrix {
        CMatrix { n: self.n, data: self.data.iter().map(|&v| v * s).collect() }
    }

    /// Entry-wise sum.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn add(&self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.n, rhs.n, "dimension mismatch");
        CMatrix { n: self.n, data: self.data.iter().zip(&rhs.data).map(|(&a, &b)| a + b).collect() }
    }

    /// Trace.
    pub fn trace(&self) -> Complex {
        (0..self.n).fold(C_ZERO, |acc, k| acc + self[(k, k)])
    }

    /// Kronecker (tensor) product `self (x) rhs`.
    pub fn kron(&self, rhs: &CMatrix) -> CMatrix {
        let (a, b) = (self.n, rhs.n);
        let n = a * b;
        let mut out = CMatrix::zeros(n);
        for i in 0..a {
            for j in 0..a {
                let v = self[(i, j)];
                if v.abs2() == 0.0 {
                    continue;
                }
                for p in 0..b {
                    for q in 0..b {
                        out[(i * b + p, j * b + q)] = v * rhs[(p, q)];
                    }
                }
            }
        }
        out
    }

    /// Largest absolute row sum (induced infinity norm), used to scale the
    /// matrix exponential.
    pub fn norm_inf(&self) -> f64 {
        (0..self.n)
            .map(|i| (0..self.n).map(|j| self[(i, j)].abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Matrix exponential `exp(self)` by scaling-and-squaring with a
    /// Taylor series — accurate for the small anti-Hermitian matrices the
    /// simulator produces (`-i H dt`).
    pub fn expm(&self) -> CMatrix {
        let norm = self.norm_inf();
        let s = if norm > 0.5 { (norm / 0.5).log2().ceil() as u32 } else { 0 };
        let scaled = self.scale(c(1.0 / 2f64.powi(s as i32), 0.0));
        // Taylor to machine precision for ||A|| <= 0.5 (~20 terms).
        let mut result = CMatrix::identity(self.n);
        let mut term = CMatrix::identity(self.n);
        for k in 1..=24 {
            term = term.matmul(&scaled).scale(c(1.0 / k as f64, 0.0));
            result = result.add(&term);
            if term.norm_inf() < 1e-18 {
                break;
            }
        }
        for _ in 0..s {
            result = result.matmul(&result);
        }
        result
    }

    /// Frobenius distance to another matrix.
    pub fn distance(&self, rhs: &CMatrix) -> f64 {
        assert_eq!(self.n, rhs.n, "dimension mismatch");
        self.data.iter().zip(&rhs.data).map(|(&a, &b)| (a - b).abs2()).sum::<f64>().sqrt()
    }

    /// Checks unitarity within `tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        self.adjoint().matmul(self).distance(&CMatrix::identity(self.n)) < tol
    }
}

impl std::ops::Index<(usize, usize)> for CMatrix {
    type Output = Complex;
    fn index(&self, (i, j): (usize, usize)) -> &Complex {
        &self.data[i * self.n + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for CMatrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex {
        &mut self.data[i * self.n + j]
    }
}

/// Average gate fidelity between two unitaries of dimension `d`:
/// `F = (|Tr(U^dag V)|^2 + d) / (d^2 + d)`.
///
/// # Panics
///
/// Panics on dimension mismatch.
pub fn average_gate_fidelity(u: &CMatrix, v: &CMatrix) -> f64 {
    assert_eq!(u.dim(), v.dim(), "dimension mismatch");
    let d = u.dim() as f64;
    let tr = u.adjoint().matmul(v).trace();
    (tr.abs2() + d) / (d * d + d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complex_arithmetic() {
        let a = c(1.0, 2.0);
        let b = c(3.0, -1.0);
        assert_eq!(a + b, c(4.0, 1.0));
        assert_eq!(a * b, c(5.0, 5.0));
        assert_eq!(a.conj(), c(1.0, -2.0));
        assert!((a.abs2() - 5.0).abs() < 1e-15);
        assert!((Complex::from_phase(std::f64::consts::PI).re + 1.0).abs() < 1e-15);
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let m = CMatrix::from_rows(&[&[c(1.0, 1.0), c(0.5, 0.0)], &[c(0.0, -1.0), c(2.0, 0.0)]]);
        let i = CMatrix::identity(2);
        assert_eq!(m.matmul(&i), m);
        assert_eq!(i.matmul(&m), m);
    }

    #[test]
    fn adjoint_squares_to_identity_for_unitaries() {
        // Hadamard.
        let s = 1.0 / 2f64.sqrt();
        let h = CMatrix::from_rows(&[&[c(s, 0.0), c(s, 0.0)], &[c(s, 0.0), c(-s, 0.0)]]);
        assert!(h.is_unitary(1e-12));
        assert!(h.matmul(&h).distance(&CMatrix::identity(2)) < 1e-12);
    }

    #[test]
    fn expm_of_zero_is_identity() {
        assert!(CMatrix::zeros(3).expm().distance(&CMatrix::identity(3)) < 1e-15);
    }

    #[test]
    fn expm_matches_rotation_formula() {
        // exp(-i theta X / 2) = cos(t/2) I - i sin(t/2) X.
        let theta = 1.234;
        let x = CMatrix::from_rows(&[&[C_ZERO, C_ONE], &[C_ONE, C_ZERO]]);
        let gen = x.scale(c(0.0, -theta / 2.0));
        let u = gen.expm();
        let expect = CMatrix::from_rows(&[
            &[c((theta / 2.0).cos(), 0.0), c(0.0, -(theta / 2.0).sin())],
            &[c(0.0, -(theta / 2.0).sin()), c((theta / 2.0).cos(), 0.0)],
        ]);
        assert!(u.distance(&expect) < 1e-12, "distance {}", u.distance(&expect));
    }

    #[test]
    fn expm_is_unitary_for_anti_hermitian_input() {
        // -i H for Hermitian H with a large norm (exercises squaring).
        let h = CMatrix::from_rows(&[
            &[c(3.0, 0.0), c(1.0, 2.0), c(0.0, 0.5)],
            &[c(1.0, -2.0), c(-1.0, 0.0), c(0.3, 0.0)],
            &[c(0.0, -0.5), c(0.3, 0.0), c(2.0, 0.0)],
        ]);
        let u = h.scale(c(0.0, -1.0)).expm();
        assert!(u.is_unitary(1e-10));
    }

    #[test]
    fn kron_dimensions_and_values() {
        let x = CMatrix::from_rows(&[&[C_ZERO, C_ONE], &[C_ONE, C_ZERO]]);
        let i = CMatrix::identity(2);
        let xi = x.kron(&i);
        assert_eq!(xi.dim(), 4);
        assert_eq!(xi[(0, 2)], C_ONE);
        assert_eq!(xi[(1, 3)], C_ONE);
        assert_eq!(xi[(0, 1)], C_ZERO);
    }

    #[test]
    fn fidelity_of_identical_unitaries_is_one() {
        let s = 1.0 / 2f64.sqrt();
        let h = CMatrix::from_rows(&[&[c(s, 0.0), c(s, 0.0)], &[c(s, 0.0), c(-s, 0.0)]]);
        assert!((average_gate_fidelity(&h, &h) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn fidelity_is_phase_invariant() {
        let u = CMatrix::identity(2);
        let v = CMatrix::identity(2).scale(Complex::from_phase(0.7));
        assert!((average_gate_fidelity(&u, &v) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn fidelity_of_orthogonal_gates() {
        // I vs X: F = (0 + 2) / 6 = 1/3.
        let x = CMatrix::from_rows(&[&[C_ZERO, C_ONE], &[C_ONE, C_ZERO]]);
        let f = average_gate_fidelity(&CMatrix::identity(2), &x);
        assert!((f - 1.0 / 3.0).abs() < 1e-14);
    }

    #[test]
    fn small_rotation_fidelity_matches_second_order() {
        // F ~ 1 - theta^2 * d/(2(d+1)) ... for small rotations about X:
        // |Tr(U)|^2 = 4 cos^2(t/2) -> F = (4cos^2 + 2)/6.
        let theta = 0.01;
        let x = CMatrix::from_rows(&[&[C_ZERO, C_ONE], &[C_ONE, C_ZERO]]);
        let u = x.scale(c(0.0, -theta / 2.0)).expm();
        let f = average_gate_fidelity(&CMatrix::identity(2), &u);
        let expect = (4.0 * (theta / 2.0f64).cos().powi(2) + 2.0) / 6.0;
        assert!((f - expect).abs() < 1e-10);
    }
}
