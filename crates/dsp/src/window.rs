//! Splitting waveforms into fixed-size transform windows.
//!
//! The windowed DCT (`DCT-W`) breaks a waveform into windows of a fixed
//! size (`WS`, typically 8 or 16) so the hardware IDCT is a small
//! fixed-size block (Section IV-C). The final window is padded; for
//! qubit-control envelopes that decay to zero, zero padding is natural, but
//! edge padding is also provided because flat-top pulses may end a window
//! mid-plateau.

/// How the final partial window is filled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PadMode {
    /// Pad with zeros (default; correct for envelopes that end at zero).
    #[default]
    Zero,
    /// Repeat the last sample (avoids an artificial step for pulses that
    /// end off zero).
    Edge,
}

/// Splits `signal` into windows of `ws` samples, padding the last window.
///
/// Returns the windows and the number of valid samples in the final window
/// (equal to `ws` when the signal length is a multiple of `ws`).
///
/// # Panics
///
/// Panics if `ws == 0` or the signal is empty.
///
/// # Example
///
/// ```
/// use compaqt_dsp::window::{split, PadMode};
///
/// let (wins, tail) = split(&[1.0, 2.0, 3.0, 4.0, 5.0], 4, PadMode::Edge);
/// assert_eq!(wins.len(), 2);
/// assert_eq!(wins[1], vec![5.0, 5.0, 5.0, 5.0]);
/// assert_eq!(tail, 1);
/// ```
pub fn split(signal: &[f64], ws: usize, pad: PadMode) -> (Vec<Vec<f64>>, usize) {
    assert!(ws > 0, "window size must be positive");
    assert!(!signal.is_empty(), "signal must be non-empty");
    let mut windows = Vec::with_capacity(signal.len().div_ceil(ws));
    for chunk in signal.chunks(ws) {
        let mut w = chunk.to_vec();
        if w.len() < ws {
            let fill = match pad {
                PadMode::Zero => 0.0,
                PadMode::Edge => *w.last().expect("chunk is non-empty"),
            };
            w.resize(ws, fill);
        }
        windows.push(w);
    }
    let tail = signal.len() - (windows.len() - 1) * ws;
    (windows, tail)
}

/// Reassembles windows into a signal of `len` samples, dropping padding.
///
/// # Panics
///
/// Panics if the windows cannot cover `len` samples.
pub fn join(windows: &[Vec<f64>], len: usize) -> Vec<f64> {
    let total: usize = windows.iter().map(Vec::len).sum();
    assert!(total >= len, "windows cover {total} samples, need {len}");
    let mut out = Vec::with_capacity(len);
    for w in windows {
        for &v in w {
            if out.len() == len {
                return out;
            }
            out.push(v);
        }
    }
    out
}

/// Number of windows of size `ws` needed to cover `len` samples.
pub fn window_count(len: usize, ws: usize) -> usize {
    assert!(ws > 0, "window size must be positive");
    len.div_ceil(ws)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_multiple_needs_no_padding() {
        let sig: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let (wins, tail) = split(&sig, 8, PadMode::Zero);
        assert_eq!(wins.len(), 2);
        assert_eq!(tail, 8);
        assert_eq!(join(&wins, 16), sig);
    }

    #[test]
    fn zero_padding_fills_tail() {
        let (wins, tail) = split(&[1.0, 2.0, 3.0], 8, PadMode::Zero);
        assert_eq!(wins.len(), 1);
        assert_eq!(tail, 3);
        assert_eq!(wins[0][3..], [0.0; 5]);
    }

    #[test]
    fn edge_padding_repeats_last_sample() {
        let (wins, _) = split(&[1.0, 2.0, 7.0], 5, PadMode::Edge);
        assert_eq!(wins[0], vec![1.0, 2.0, 7.0, 7.0, 7.0]);
    }

    #[test]
    fn join_drops_padding() {
        let sig = vec![0.5; 13];
        let (wins, _) = split(&sig, 8, PadMode::Zero);
        assert_eq!(join(&wins, 13), sig);
    }

    #[test]
    fn window_count_rounds_up() {
        assert_eq!(window_count(16, 8), 2);
        assert_eq!(window_count(17, 8), 3);
        assert_eq!(window_count(1, 8), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_rejected() {
        split(&[1.0], 0, PadMode::Zero);
    }
}
