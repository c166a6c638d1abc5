//! Shared helpers for the integration suites:
//!
//! * the container suites open the same bytes through every
//!   [`ContainerSource`] kind, routed by the `COMPAQT_SOURCE_KIND` env
//!   var so CI can run each suite once per kind (owned | borrowed |
//!   mapped) while a plain `cargo test` covers all three in one run;
//! * the codec suites compare the engine against the reference decoder
//!   [`oracle_decompress`]: a per-window RLE expansion followed by the
//!   allocating matrix inverse, with its own stats tally and stream
//!   validation, so every `==` compares two independent computations.
#![allow(dead_code)] // each test binary uses a subset of these helpers

use compaqt::core::adaptive::{AdaptiveCompressed, Segment};
use compaqt::core::compress::{ChannelData, CompressedWaveform, Variant};
use compaqt::core::engine::EngineStats;
use compaqt::core::CompressError;
use compaqt::dsp::dct::Dct;
use compaqt::dsp::intdct::{IntDct, SUPPORTED_SIZES};
use compaqt::dsp::plan::DctPlan;
use compaqt::dsp::rle::{CodedWord, RleDecoder, RleEncoder, MAX_COEFF, MAX_RUN};
use compaqt::io::{ContainerError, ContainerSource, Reader, ReaderOptions};
use compaqt::pulse::waveform::Waveform;
use std::sync::atomic::{AtomicU64, Ordering};

/// Every source kind a [`Reader`] can open, by its
/// [`Reader::source_kind`] name.
pub const KINDS: [&str; 3] = ["owned", "borrowed", "mapped"];

/// The source kinds this run must cover: the one named by
/// `COMPAQT_SOURCE_KIND` if set (unknown names panic rather than
/// silently testing nothing), all three otherwise.
pub fn selected_kinds() -> Vec<&'static str> {
    match std::env::var("COMPAQT_SOURCE_KIND") {
        Ok(v) => {
            let kind = KINDS.iter().find(|k| **k == v).unwrap_or_else(|| {
                panic!("unknown COMPAQT_SOURCE_KIND {v:?} (want one of {KINDS:?})")
            });
            vec![*kind]
        }
        Err(_) => KINDS.to_vec(),
    }
}

/// Opens `bytes` as a reader backed by `kind` and hands the open result
/// to `f`. The mapped kind round-trips through a unique temp file,
/// removed before returning, so hostile-byte proptests can hammer it
/// without littering the filesystem.
pub fn with_source<R>(
    kind: &str,
    bytes: &[u8],
    options: ReaderOptions,
    f: impl FnOnce(Result<Reader<'_>, ContainerError>) -> R,
) -> R {
    match kind {
        "owned" => f(Reader::open(bytes::Bytes::copy_from_slice(bytes), options)),
        "borrowed" => f(Reader::open(bytes, options)),
        "mapped" => {
            static UNIQUE: AtomicU64 = AtomicU64::new(0);
            let path = std::env::temp_dir().join(format!(
                "compaqt-source-{}-{}.cwl",
                std::process::id(),
                UNIQUE.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::write(&path, bytes).expect("write temp container for mmap");
            let source = ContainerSource::map_path(&path).expect("map temp container");
            let out = f(Reader::open(source, options));
            let _ = std::fs::remove_file(&path);
            out
        }
        other => panic!("unknown source kind {other:?}"),
    }
}

/// The stored format's integer-coefficient shift: int-DCT coefficients
/// are stored two bits down so a full-scale DC word fits 15 bits.
const INT_STORE_SHIFT: u32 = 2;

/// Float coefficients from one stored window of length `n`: the words
/// hold `coefficient * 2^bits`, where `2^bits` (at most 2^14) is the
/// largest power of two that keeps a full-scale DC coefficient,
/// `sqrt(n)`, within a 15-bit word.
fn dequantize(coeffs: &[i32]) -> Vec<f64> {
    let n = coeffs.len() as f64;
    let bits = ((f64::from(MAX_COEFF) / n.sqrt()).log2().floor() as u32).min(14);
    coeffs.iter().map(|&c| f64::from(c) / f64::from(1u32 << bits)).collect()
}

fn malformed(reason: &'static str) -> CompressError {
    CompressError::MalformedStream { reason }
}

/// Reference decode of a whole waveform: both channels through
/// [`oracle_decode_channel`], then the engine's accept rules (equal,
/// non-empty channels and a positive finite sample rate).
pub fn oracle_decompress(z: &CompressedWaveform) -> Result<(Waveform, EngineStats), CompressError> {
    let mut stats = EngineStats::default();
    let i = oracle_decode_channel(z.variant, &z.i, z.n_samples, &mut stats)?;
    let q = oracle_decode_channel(z.variant, &z.q, z.n_samples, &mut stats)?;
    let rate = z.sample_rate_gs;
    if i.len() != q.len() || i.is_empty() || !(rate.is_finite() && rate > 0.0) {
        return Err(malformed("channel shapes or sample rate cannot form a waveform"));
    }
    Ok((Waveform::new(z.name.clone(), i, q, rate), stats))
}

/// Reference decode of one channel, adding the engine's operation
/// counts to `stats`. Window streams expand each window with
/// [`RleDecoder::decode_window`] and invert it with a fresh matrix
/// transform: [`IntDct::inverse_f64_into`] after the storage shift,
/// [`Dct::inverse`], or a full-length [`DctPlan::inverse`] for `DCT-N`.
/// Rejects what the engine rejects: an unsupported window size, a
/// `DCT-N` stream with other than one window, a window claiming more
/// samples than its words can expand to, a malformed run-length window.
pub fn oracle_decode_channel(
    variant: Variant,
    channel: &ChannelData,
    n_samples: usize,
    stats: &mut EngineStats,
) -> Result<Vec<f64>, CompressError> {
    if let Some(ws) = variant.window_size() {
        if !SUPPORTED_SIZES.contains(&ws) {
            return Err(CompressError::UnsupportedWindow(ws));
        }
    }
    let windows = match channel {
        ChannelData::Raw(samples) => {
            stats.memory_words_read += samples.len();
            stats.output_samples += samples.len();
            stats.cycles += samples.len() as u64;
            return Ok(samples.iter().map(|&s| f64::from(s) / 32768.0).collect());
        }
        ChannelData::Delta { base, deltas, .. } => {
            stats.memory_words_read += channel.size_bits().div_ceil(16);
            stats.output_samples += deltas.len() + 1;
            stats.cycles += (deltas.len() + 1) as u64;
            let mut acc = *base;
            let mut out = vec![f64::from(acc) / 32768.0];
            for &d in deltas {
                acc = acc.wrapping_add(d);
                out.push(f64::from(acc) / 32768.0);
            }
            return Ok(out);
        }
        ChannelData::Windows(windows) => windows,
    };
    let window = match variant.window_size() {
        Some(ws) => ws,
        None if windows.len() == 1 => n_samples,
        None => return Err(malformed("DCT-N streams store exactly one window")),
    };
    if windows.iter().any(|words| window > words.len().saturating_mul(usize::from(MAX_RUN))) {
        return Err(malformed("window claims more samples than its codewords can expand to"));
    }
    let mut out = Vec::new();
    for words in windows {
        stats.memory_words_read += words.len();
        stats.rle_codewords += words.iter().filter(|w| matches!(w, CodedWord::Rle(_))).count();
        stats.idct_windows += 1;
        stats.cycles += words.len() as u64 + 1;
        let coeffs = RleDecoder::new().decode_window(words, window)?;
        match variant {
            Variant::IntDctW { ws } => {
                let native: Vec<i32> = coeffs.iter().map(|&c| c << INT_STORE_SHIFT).collect();
                let (t, mut samples) = (IntDct::new(ws).expect("size checked"), vec![0.0; ws]);
                t.inverse_f64_into(&native, 0, &mut samples);
                out.extend(samples);
            }
            Variant::DctW { ws } => out.extend(Dct::new(ws).inverse(&dequantize(&coeffs))),
            Variant::Delta | Variant::DctN => {
                out.extend(DctPlan::new(window).inverse(&dequantize(&coeffs)));
            }
        }
    }
    stats.output_samples += n_samples.min(out.len());
    out.truncate(n_samples);
    Ok(out)
}

/// Reference decode of a compressor-produced adaptive stream, as
/// `(i, q, stats)`: window segments through [`oracle_decode_channel`],
/// each plateau as its stored literal and repeat codewords expanded
/// with the IDCT bypassed.
pub fn oracle_decompress_adaptive(a: &AdaptiveCompressed) -> (Vec<f64>, Vec<f64>, EngineStats) {
    let mut stats = EngineStats::default();
    let (mut i, mut q) = (Vec::new(), Vec::new());
    for segment in &a.segments {
        match segment {
            Segment::Windows(z) => {
                let mut channel = |c| oracle_decode_channel(a.variant, c, z.n_samples, &mut stats);
                i.extend(channel(&z.i).expect("well-formed segment"));
                q.extend(channel(&z.q).expect("well-formed segment"));
            }
            &Segment::Constant { i_value, q_value, len } => {
                let words = RleEncoder::new().encode_constant_run(i_value.raw(), len).len();
                stats.memory_words_read += 2 * words;
                stats.rle_codewords += 2 * (words - 1);
                stats.bypassed_samples += 2 * len;
                stats.output_samples += 2 * len;
                stats.cycles += len as u64;
                i.extend(std::iter::repeat_n(i_value.to_f64(), len));
                q.extend(std::iter::repeat_n(q_value.to_f64(), len));
            }
        }
    }
    (i, q, stats)
}
