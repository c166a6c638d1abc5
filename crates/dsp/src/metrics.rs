//! Distortion and size metrics: MSE, PSNR, compression ratio.
//!
//! The paper uses mean-squared error between the original and decompressed
//! waveform as the compile-time proxy for gate fidelity (Section IV-C:
//! "MSE between decompressed and uncompressed pulses are highly correlated
//! to the gate fidelity"), and compression ratio `R = old size / new size`
//! as the capacity/bandwidth gain.

use std::fmt;

/// Mean squared error between two equal-length signals.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
///
/// # Example
///
/// ```
/// let mse = compaqt_dsp::metrics::mse(&[1.0, 0.0], &[1.0, 0.2]);
/// assert!((mse - 0.02).abs() < 1e-12);
/// ```
pub fn mse(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "signals must have equal length");
    assert!(!a.is_empty(), "signals must be non-empty");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>() / a.len() as f64
}

/// Root-mean-squared error.
pub fn rmse(a: &[f64], b: &[f64]) -> f64 {
    mse(a, b).sqrt()
}

/// Largest absolute sample error.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn max_abs_error(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "signals must have equal length");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

/// Peak signal-to-noise ratio in dB against a unit full scale.
///
/// Returns `f64::INFINITY` for identical signals.
pub fn psnr(a: &[f64], b: &[f64]) -> f64 {
    let e = mse(a, b);
    if e == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (1.0 / e).log10()
    }
}

/// A compression ratio `R = old size / new size` (paper convention:
/// `R > 1` means the data shrank).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionRatio {
    old_size: usize,
    new_size: usize,
}

impl CompressionRatio {
    /// Builds a ratio from byte (or word) counts.
    ///
    /// # Panics
    ///
    /// Panics if `new_size` is zero.
    pub fn new(old_size: usize, new_size: usize) -> Self {
        assert!(new_size > 0, "compressed size must be positive");
        CompressionRatio { old_size, new_size }
    }

    /// Original size.
    pub fn old_size(&self) -> usize {
        self.old_size
    }

    /// Compressed size.
    pub fn new_size(&self) -> usize {
        self.new_size
    }

    /// The ratio as a float.
    pub fn ratio(&self) -> f64 {
        self.old_size as f64 / self.new_size as f64
    }

    /// Combines two ratios by summing sizes (e.g. I and Q channels, or all
    /// waveforms of a benchmark).
    pub fn combine(&self, other: &CompressionRatio) -> CompressionRatio {
        CompressionRatio {
            old_size: self.old_size + other.old_size,
            new_size: self.new_size + other.new_size,
        }
    }
}

impl fmt::Display for CompressionRatio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}x ({} -> {})", self.ratio(), self.old_size, self.new_size)
    }
}

/// Aggregates min/avg/max statistics over a set of per-waveform values
/// (used for Table VII's min/max/average compression-ratio rows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Smallest observed value.
    pub min: f64,
    /// Mean value.
    pub avg: f64,
    /// Largest observed value.
    pub max: f64,
    /// Number of samples aggregated.
    pub count: usize,
}

impl Summary {
    /// Summarizes a non-empty iterator of values.
    ///
    /// Returns `None` for an empty iterator.
    pub fn of(values: impl IntoIterator<Item = f64>) -> Option<Summary> {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        let mut count = 0usize;
        for v in values {
            min = min.min(v);
            max = max.max(v);
            sum += v;
            count += 1;
        }
        if count == 0 {
            None
        } else {
            Some(Summary { min, avg: sum / count as f64, max, count })
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "min {:.2} / avg {:.2} / max {:.2} (n={})",
            self.min, self.avg, self.max, self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_of_identical_signals_is_zero() {
        let x = [0.5, -0.25, 0.1];
        assert_eq!(mse(&x, &x), 0.0);
        assert_eq!(psnr(&x, &x), f64::INFINITY);
    }

    #[test]
    fn mse_matches_hand_computation() {
        let e = mse(&[0.0, 0.0, 0.0, 0.0], &[0.1, -0.1, 0.1, -0.1]);
        assert!((e - 0.01).abs() < 1e-14);
        assert!((rmse(&[0.0; 4], &[0.1, -0.1, 0.1, -0.1]) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn psnr_decreases_with_noise() {
        let clean = [0.3; 64];
        let light: Vec<f64> = clean.iter().map(|v| v + 1e-4).collect();
        let heavy: Vec<f64> = clean.iter().map(|v| v + 1e-2).collect();
        assert!(psnr(&clean, &light) > psnr(&clean, &heavy));
    }

    #[test]
    fn max_error_finds_peak() {
        assert_eq!(max_abs_error(&[0.0, 0.0], &[0.5, -0.9]), 0.9);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mse_rejects_mismatched_lengths() {
        mse(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn ratio_behaviour() {
        let r = CompressionRatio::new(1600, 200);
        assert_eq!(r.ratio(), 8.0);
        let c = r.combine(&CompressionRatio::new(400, 400));
        assert_eq!(c.ratio(), 2000.0 / 600.0);
        assert!(format!("{r}").contains("8.00x"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn ratio_rejects_zero_compressed_size() {
        CompressionRatio::new(10, 0);
    }

    #[test]
    fn summary_aggregates() {
        let s = Summary::of([2.0, 4.0, 6.0]).unwrap();
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 6.0);
        assert!((s.avg - 4.0).abs() < 1e-12);
        assert_eq!(s.count, 3);
        assert!(Summary::of(std::iter::empty()).is_none());
    }
}
