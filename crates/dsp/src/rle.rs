//! Run-length codewords for thresholded transform windows.
//!
//! After thresholding, the tail of a DCT window is all zeros; COMPAQT
//! replaces the run with a single codeword carrying (1) a signature that
//! identifies it as a codeword and (2) the run length (Section IV-C).
//! Adaptive decompression (Section V-D) adds a second codeword kind that
//! repeats the *previous* sample, used to encode the constant segment of
//! flat-top waveforms without touching the IDCT.
//!
//! # Wire format
//!
//! Each stored word is 16 bits:
//!
//! | bits 15..14 | meaning                         | payload             |
//! |-------------|---------------------------------|---------------------|
//! | `0b0x`      | transform coefficient           | 15-bit signed value |
//! | `0b10`      | zero run (feeds zeros to IDCT)  | 14-bit run length   |
//! | `0b11`      | repeat previous output sample   | 14-bit run length   |
//!
//! Reserving one tag bit narrows coefficients to 15 bits; the compressor
//! accounts for that by clamping (the fidelity impact is part of the
//! measured int-DCT MSE).

use std::fmt;

/// Maximum run length representable in one codeword (14-bit field).
pub const MAX_RUN: u16 = (1 << 14) - 1;

/// Maximum coefficient magnitude storable in a value word (15-bit signed).
pub const MAX_COEFF: i32 = (1 << 14) - 1;

/// Minimum coefficient value storable in a value word.
pub const MIN_COEFF: i32 = -(1 << 14);

/// A run-length codeword (the paper's "RLE codeword").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RleCodeword {
    /// How many samples the codeword expands to.
    pub run: u16,
    /// Whether the run repeats the previous sample instead of zeros.
    pub repeat_previous: bool,
}

/// One 16-bit word of the compressed stream: either a coefficient or a
/// run-length codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodedWord {
    /// A (15-bit) transform coefficient or literal sample.
    Coeff(i16),
    /// A run-length codeword.
    Rle(RleCodeword),
}

impl CodedWord {
    /// Packs the word into its 16-bit wire representation.
    ///
    /// # Panics
    ///
    /// Panics if a coefficient exceeds the 15-bit range or a run exceeds
    /// [`MAX_RUN`]; encoders are responsible for clamping first.
    pub fn pack(self) -> u16 {
        match self {
            CodedWord::Coeff(v) => {
                assert!(
                    (MIN_COEFF..=MAX_COEFF).contains(&i32::from(v)),
                    "coefficient {v} exceeds 15-bit storage"
                );
                (v as u16) & 0x7FFF
            }
            CodedWord::Rle(cw) => {
                assert!(cw.run <= MAX_RUN, "run {} exceeds codeword field", cw.run);
                let tag = if cw.repeat_previous { 0xC000 } else { 0x8000 };
                tag | cw.run
            }
        }
    }

    /// Decodes a 16-bit wire word.
    pub fn unpack(word: u16) -> Self {
        if word & 0x8000 == 0 {
            // Sign-extend the 15-bit payload.
            let v = ((word << 1) as i16) >> 1;
            CodedWord::Coeff(v)
        } else {
            CodedWord::Rle(RleCodeword { run: word & 0x3FFF, repeat_previous: word & 0x4000 != 0 })
        }
    }

    /// Clamps an i32 coefficient into the storable 15-bit range.
    pub fn clamp_coeff(v: i32) -> i16 {
        v.clamp(MIN_COEFF, MAX_COEFF) as i16
    }
}

impl fmt::Display for CodedWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodedWord::Coeff(v) => write!(f, "C({v})"),
            CodedWord::Rle(r) if r.repeat_previous => write!(f, "REP({})", r.run),
            CodedWord::Rle(r) => write!(f, "Z({})", r.run),
        }
    }
}

/// Encodes thresholded transform windows into coded words.
///
/// Per the paper, run-length encoding starts only once the remaining tail
/// of the window is consistently zero; interior zeros are stored literally
/// so the hardware decoder never reorders coefficients.
#[derive(Debug, Clone, Copy, Default)]
pub struct RleEncoder;

impl RleEncoder {
    /// Creates an encoder.
    pub fn new() -> Self {
        RleEncoder
    }

    /// Encodes one window of coefficients.
    ///
    /// Trailing zeros are replaced by a single zero-run codeword. A window
    /// of all zeros becomes exactly one codeword. Coefficients are clamped
    /// into the 15-bit storable range.
    ///
    /// # Example
    ///
    /// ```
    /// use compaqt_dsp::rle::{RleEncoder, CodedWord};
    ///
    /// let words = RleEncoder::new().encode_window(&[900, -42, 0, 0, 0, 0, 0, 0]);
    /// assert_eq!(words.len(), 3); // 2 coefficients + 1 RLE codeword
    /// assert!(matches!(words[2], CodedWord::Rle(_)));
    /// ```
    pub fn encode_window(&self, coeffs: &[i32]) -> Vec<CodedWord> {
        let tail_zeros = coeffs.iter().rev().take_while(|&&c| c == 0).count();
        let head = coeffs.len() - tail_zeros;
        let mut out: Vec<CodedWord> =
            coeffs[..head].iter().map(|&c| CodedWord::Coeff(CodedWord::clamp_coeff(c))).collect();
        if tail_zeros > 0 {
            let mut remaining = tail_zeros;
            while remaining > 0 {
                let run = remaining.min(MAX_RUN as usize);
                out.push(CodedWord::Rle(RleCodeword { run: run as u16, repeat_previous: false }));
                remaining -= run;
            }
        }
        out
    }

    /// Encodes a constant run of `len` samples of value `value` for the
    /// adaptive (IDCT-bypass) path: one literal sample followed by a
    /// repeat-previous codeword chain.
    pub fn encode_constant_run(&self, value: i16, len: usize) -> Vec<CodedWord> {
        assert!(len > 0, "constant run must be non-empty");
        let mut out = vec![CodedWord::Coeff(CodedWord::clamp_coeff(i32::from(value)))];
        let mut remaining = len - 1;
        while remaining > 0 {
            let run = remaining.min(MAX_RUN as usize);
            out.push(CodedWord::Rle(RleCodeword { run: run as u16, repeat_previous: true }));
            remaining -= run;
        }
        out
    }
}

/// Decodes coded words back into fixed-length coefficient windows.
///
/// This mirrors stage 1 of the hardware decompression pipeline (Figure 10):
/// the RLE decoder expands codewords into the RLE buffer that feeds the
/// IDCT.
#[derive(Debug, Clone, Copy, Default)]
pub struct RleDecoder;

impl RleDecoder {
    /// Creates a decoder.
    pub fn new() -> Self {
        RleDecoder
    }

    /// Decodes one window worth of words into exactly `window` coefficients.
    ///
    /// Allocating wrapper over [`RleDecoder::decode_window_into`].
    ///
    /// # Errors
    ///
    /// Returns [`RleError`] if the words expand to more or fewer samples
    /// than `window`, or if a repeat codeword appears with no preceding
    /// sample.
    pub fn decode_window(&self, words: &[CodedWord], window: usize) -> Result<Vec<i32>, RleError> {
        let mut out = vec![0i32; window];
        self.decode_window_into(words, &mut out)?;
        Ok(out)
    }

    /// Decodes one window of words into a caller-provided buffer,
    /// allocation-free; the buffer length *is* the window length.
    ///
    /// This is also the hardened entry point for untrusted streams: run
    /// lengths are checked against the remaining buffer space *before*
    /// any sample is written, so a hostile codeword claiming a 16k-sample
    /// run inside a 16-sample window errors out without expanding (the
    /// historical `Vec`-growing decoder materialized the whole bogus run
    /// beyond its reserved capacity before noticing).
    ///
    /// # Errors
    ///
    /// Returns [`RleError`] if the words would expand to more or fewer
    /// samples than `out.len()`, or if a repeat codeword appears with no
    /// preceding sample. The buffer contents are unspecified on error.
    pub fn decode_window_into(&self, words: &[CodedWord], out: &mut [i32]) -> Result<(), RleError> {
        let window = out.len();
        let mut pos = 0usize;
        for &w in words {
            match w {
                CodedWord::Coeff(v) => {
                    if pos >= window {
                        return Err(RleError::Overflow { produced: pos + 1, window });
                    }
                    out[pos] = i32::from(v);
                    pos += 1;
                }
                CodedWord::Rle(RleCodeword { run, repeat_previous }) => {
                    let fill = if repeat_previous {
                        if pos == 0 {
                            return Err(RleError::RepeatWithoutSample);
                        }
                        out[pos - 1]
                    } else {
                        0
                    };
                    let run = usize::from(run);
                    if run > window - pos {
                        return Err(RleError::Overflow { produced: pos + run, window });
                    }
                    out[pos..pos + run].fill(fill);
                    pos += run;
                }
            }
        }
        if pos != window {
            return Err(RleError::Underflow { produced: pos, window });
        }
        Ok(())
    }

    /// Decodes an unbounded stream (used by the adaptive bypass path where
    /// a single codeword may expand to an entire flat-top plateau).
    ///
    /// # Errors
    ///
    /// Returns [`RleError::RepeatWithoutSample`] if a repeat codeword has no
    /// preceding sample.
    pub fn decode_stream(&self, words: &[CodedWord]) -> Result<Vec<i32>, RleError> {
        let mut out = Vec::new();
        for &w in words {
            match w {
                CodedWord::Coeff(v) => out.push(i32::from(v)),
                CodedWord::Rle(RleCodeword { run, repeat_previous }) => {
                    let fill = if repeat_previous {
                        *out.last().ok_or(RleError::RepeatWithoutSample)?
                    } else {
                        0
                    };
                    for _ in 0..run {
                        out.push(fill);
                    }
                }
            }
        }
        Ok(out)
    }
}

/// Errors produced while decoding run-length streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RleError {
    /// The words expanded past the window length.
    Overflow {
        /// Samples produced so far.
        produced: usize,
        /// Expected window length.
        window: usize,
    },
    /// The words expanded to fewer samples than the window length.
    Underflow {
        /// Samples produced.
        produced: usize,
        /// Expected window length.
        window: usize,
    },
    /// A repeat-previous codeword appeared before any sample.
    RepeatWithoutSample,
}

impl fmt::Display for RleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RleError::Overflow { produced, window } => {
                write!(
                    f,
                    "run-length stream produced {produced} samples for a {window}-sample window"
                )
            }
            RleError::Underflow { produced, window } => {
                write!(f, "run-length stream produced only {produced} of {window} samples")
            }
            RleError::RepeatWithoutSample => {
                write!(f, "repeat codeword with no preceding sample")
            }
        }
    }
}

impl std::error::Error for RleError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_round_trips_coefficients() {
        for v in [-16384i16, -1, 0, 1, 42, 16383, -9000] {
            let w = CodedWord::Coeff(v);
            assert_eq!(CodedWord::unpack(w.pack()), w, "value {v}");
        }
    }

    #[test]
    fn pack_unpack_round_trips_codewords() {
        for run in [0u16, 1, 5, 100, MAX_RUN] {
            for repeat in [false, true] {
                let w = CodedWord::Rle(RleCodeword { run, repeat_previous: repeat });
                assert_eq!(CodedWord::unpack(w.pack()), w);
            }
        }
    }

    #[test]
    #[should_panic(expected = "15-bit")]
    fn pack_rejects_oversized_coefficient() {
        CodedWord::Coeff(i16::MAX).pack();
    }

    #[test]
    fn encode_replaces_trailing_zeros_only() {
        let enc = RleEncoder::new();
        // Interior zero is kept literal; trailing run collapses.
        let words = enc.encode_window(&[5, 0, 7, 0, 0, 0, 0, 0]);
        assert_eq!(words.len(), 4);
        assert_eq!(words[0], CodedWord::Coeff(5));
        assert_eq!(words[1], CodedWord::Coeff(0));
        assert_eq!(words[2], CodedWord::Coeff(7));
        assert_eq!(words[3], CodedWord::Rle(RleCodeword { run: 5, repeat_previous: false }));
    }

    #[test]
    fn all_zero_window_is_one_codeword() {
        let words = RleEncoder::new().encode_window(&[0; 16]);
        assert_eq!(words.len(), 1);
        assert_eq!(words[0], CodedWord::Rle(RleCodeword { run: 16, repeat_previous: false }));
    }

    #[test]
    fn dense_window_has_no_codeword() {
        let coeffs: Vec<i32> = (1..=8).collect();
        let words = RleEncoder::new().encode_window(&coeffs);
        assert_eq!(words.len(), 8);
        assert!(words.iter().all(|w| matches!(w, CodedWord::Coeff(_))));
    }

    #[test]
    fn encode_decode_round_trip() {
        let enc = RleEncoder::new();
        let dec = RleDecoder::new();
        let cases: [&[i32]; 5] = [
            &[1, 2, 3, 0, 0, 0, 0, 0],
            &[0, 0, 0, 0, 0, 0, 0, 0],
            &[-7, 0, 0, 9, 0, 0, 0, 0],
            &[1, 2, 3, 4, 5, 6, 7, 8],
            &[16383, -16384, 0, 0, 0, 0, 0, 0],
        ];
        for coeffs in cases {
            let words = enc.encode_window(coeffs);
            let back = dec.decode_window(&words, coeffs.len()).unwrap();
            assert_eq!(&back, coeffs);
        }
    }

    #[test]
    fn oversized_coefficients_are_clamped() {
        let words = RleEncoder::new().encode_window(&[100_000, -100_000, 0, 0]);
        assert_eq!(words[0], CodedWord::Coeff(MAX_COEFF as i16));
        assert_eq!(words[1], CodedWord::Coeff(MIN_COEFF as i16));
    }

    #[test]
    fn constant_run_round_trips() {
        let enc = RleEncoder::new();
        let dec = RleDecoder::new();
        let words = enc.encode_constant_run(1200, 454);
        assert_eq!(words.len(), 2, "value + one repeat codeword");
        let back = dec.decode_stream(&words).unwrap();
        assert_eq!(back.len(), 454);
        assert!(back.iter().all(|&v| v == 1200));
    }

    #[test]
    fn long_runs_chain_codewords() {
        let enc = RleEncoder::new();
        let n = MAX_RUN as usize * 2 + 10;
        let words = enc.encode_constant_run(5, n + 1);
        let back = RleDecoder::new().decode_stream(&words).unwrap();
        assert_eq!(back.len(), n + 1);
    }

    #[test]
    fn decode_detects_length_mismatch() {
        let dec = RleDecoder::new();
        let words = [CodedWord::Coeff(1), CodedWord::Coeff(2)];
        assert!(matches!(dec.decode_window(&words, 8), Err(RleError::Underflow { .. })));
        let words = RleEncoder::new().encode_window(&[0; 16]);
        assert!(matches!(dec.decode_window(&words, 8), Err(RleError::Overflow { .. })));
    }

    #[test]
    fn decode_into_matches_allocating_decoder() {
        let enc = RleEncoder::new();
        let dec = RleDecoder::new();
        let cases: [&[i32]; 4] = [
            &[1, 2, 3, 0, 0, 0, 0, 0],
            &[0; 8],
            &[-7, 0, 0, 9, 0, 0, 0, 0],
            &[1, 2, 3, 4, 5, 6, 7, 8],
        ];
        for coeffs in cases {
            let words = enc.encode_window(coeffs);
            let alloc = dec.decode_window(&words, coeffs.len()).unwrap();
            let mut buf = [0i32; 8];
            dec.decode_window_into(&words, &mut buf).unwrap();
            assert_eq!(alloc, buf);
        }
    }

    #[test]
    fn hostile_run_is_rejected_without_expansion() {
        // A corrupted stream claiming a MAX_RUN-length zero run inside a
        // 16-sample window must error before any fill happens.
        let dec = RleDecoder::new();
        let words = [
            CodedWord::Coeff(3),
            CodedWord::Rle(RleCodeword { run: MAX_RUN, repeat_previous: false }),
        ];
        let mut buf = [7i32; 16];
        let err = dec.decode_window_into(&words, &mut buf).unwrap_err();
        assert_eq!(err, RleError::Overflow { produced: 1 + MAX_RUN as usize, window: 16 });
        // Nothing past the literal was touched.
        assert_eq!(&buf[1..], &[7i32; 15]);
        // The allocating wrapper inherits the same early rejection.
        assert!(matches!(dec.decode_window(&words, 16), Err(RleError::Overflow { .. })));
    }

    #[test]
    fn repeat_without_sample_is_an_error() {
        let dec = RleDecoder::new();
        let words = [CodedWord::Rle(RleCodeword { run: 3, repeat_previous: true })];
        assert_eq!(dec.decode_stream(&words), Err(RleError::RepeatWithoutSample));
    }

    #[test]
    fn display_is_nonempty() {
        for w in [
            CodedWord::Coeff(5),
            CodedWord::Rle(RleCodeword { run: 2, repeat_previous: false }),
            CodedWord::Rle(RleCodeword { run: 2, repeat_previous: true }),
        ] {
            assert!(!format!("{w}").is_empty());
        }
    }
}
