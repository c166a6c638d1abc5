//! Magnitude thresholding of transform coefficients.
//!
//! Compression is lossy only through this step (plus integer rounding):
//! coefficients with magnitude below a threshold are zeroed so the
//! run-length stage can collapse the tail of each window. The
//! fidelity-aware compression loop (Algorithm 1) repeatedly halves the
//! threshold until the reconstruction error meets the target.

/// Zeroes every coefficient with `|c| < threshold`; returns how many were
/// zeroed.
///
/// # Example
///
/// ```
/// let mut c = [0.9, 0.04, -0.03, 0.5];
/// let zeroed = compaqt_dsp::threshold::apply_threshold(&mut c, 0.05);
/// assert_eq!(zeroed, 2);
/// assert_eq!(c, [0.9, 0.0, 0.0, 0.5]);
/// ```
pub fn apply_threshold(coeffs: &mut [f64], threshold: f64) -> usize {
    let mut zeroed = 0;
    for c in coeffs.iter_mut() {
        if c.abs() < threshold && *c != 0.0 {
            *c = 0.0;
            zeroed += 1;
        }
    }
    zeroed
}

/// Integer-coefficient variant of [`apply_threshold`]. Magnitudes are
/// compared unsigned, so `i32::MIN` counts as the largest magnitude; a
/// non-positive threshold zeroes nothing.
pub fn apply_threshold_int(coeffs: &mut [i32], threshold: i32) -> usize {
    let limit = u32::try_from(threshold).unwrap_or(0);
    let mut zeroed = 0;
    for c in coeffs.iter_mut() {
        if c.unsigned_abs() < limit && *c != 0 {
            *c = 0;
            zeroed += 1;
        }
    }
    zeroed
}

/// Number of trailing zeros in a window — the run the RLE stage collapses.
pub fn trailing_zeros(coeffs: &[i32]) -> usize {
    coeffs.iter().rev().take_while(|&&c| c == 0).count()
}

/// Number of non-zero coefficients in a window.
pub fn nonzero_count(coeffs: &[i32]) -> usize {
    coeffs.iter().filter(|&&c| c != 0).count()
}

/// The threshold schedule of Algorithm 1: starts at `initial` and halves on
/// every retry until dropping below `floor` (at which point compression
/// gives up and the pulse is stored uncompressed).
#[derive(Debug, Clone, Copy)]
pub struct ThresholdSchedule {
    next: f64,
    floor: f64,
}

impl ThresholdSchedule {
    /// Creates the schedule used by the paper: halving from `initial`,
    /// failing below `1e-6`.
    pub fn new(initial: f64) -> Self {
        ThresholdSchedule { next: initial, floor: 1e-6 }
    }

    /// Creates a schedule with an explicit floor.
    pub fn with_floor(initial: f64, floor: f64) -> Self {
        ThresholdSchedule { next: initial, floor }
    }

    /// The failure floor.
    pub fn floor(&self) -> f64 {
        self.floor
    }
}

impl Iterator for ThresholdSchedule {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        if self.next < self.floor {
            return None;
        }
        let t = self.next;
        self.next /= 2.0;
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_zeroes_small_magnitudes_only() {
        let mut c = [1.0, -1.0, 0.01, -0.01, 0.0];
        let n = apply_threshold(&mut c, 0.05);
        assert_eq!(n, 2);
        assert_eq!(c, [1.0, -1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn threshold_boundary_is_exclusive() {
        let mut c = [0.05, 0.049_999];
        apply_threshold(&mut c, 0.05);
        assert_eq!(c[0], 0.05, "values exactly at the threshold survive");
        assert_eq!(c[1], 0.0);
    }

    #[test]
    fn int_threshold_behaviour_matches() {
        let mut c = [100, -100, 3, -3, 0];
        let n = apply_threshold_int(&mut c, 4);
        assert_eq!(n, 2);
        assert_eq!(c, [100, -100, 0, 0, 0]);
    }

    #[test]
    fn int_threshold_handles_extreme_magnitudes() {
        let mut c = [i32::MIN, i32::MIN + 1, i32::MAX, 1];
        let n = apply_threshold_int(&mut c, i32::MAX);
        assert_eq!(n, 1, "only |1| is below the threshold");
        assert_eq!(c, [i32::MIN, i32::MIN + 1, i32::MAX, 0]);
        for threshold in [0, -1, i32::MIN] {
            let mut c = [i32::MIN, i32::MIN + 1, i32::MAX, 1, 0];
            assert_eq!(apply_threshold_int(&mut c, threshold), 0, "threshold {threshold}");
            assert_eq!(c, [i32::MIN, i32::MIN + 1, i32::MAX, 1, 0]);
        }
    }

    #[test]
    fn trailing_zero_and_nonzero_counts() {
        let c = [5, 0, 3, 0, 0, 0];
        assert_eq!(trailing_zeros(&c), 3);
        assert_eq!(nonzero_count(&c), 2);
        assert_eq!(trailing_zeros(&[0; 4]), 4);
        assert_eq!(nonzero_count(&[0; 4]), 0);
    }

    #[test]
    fn schedule_halves_until_floor() {
        let steps: Vec<f64> = ThresholdSchedule::with_floor(1.0, 0.2).collect();
        assert_eq!(steps, vec![1.0, 0.5, 0.25]);
    }

    #[test]
    fn schedule_matches_algorithm_one_floor() {
        let s = ThresholdSchedule::new(1e-2);
        let count = s.count();
        // 1e-2 / 2^k >= 1e-6  =>  k <= log2(1e4) ~ 13.28 -> 14 thresholds.
        assert_eq!(count, 14);
    }
}
