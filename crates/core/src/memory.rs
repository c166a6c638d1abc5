//! Banked compressed waveform memory (Section V-C, Figure 12).
//!
//! FPGA block RAMs are clocked far slower than the DACs (16x on QICK), so
//! waveform samples must be interleaved across multiple BRAMs to sustain
//! the DAC rate. Compression shrinks the number of words needed per window
//! to a small worst case (<= 3 for `int-DCT-W`, Figure 11), so far fewer
//! banks are needed per qubit — which is exactly where the 2.66x/5.33x
//! qubit-count gains of Table V come from.
//!
//! For hardware simplicity the compressed memory is uniform-width: every
//! window occupies the worst-case word count, sacrificing a little
//! compressibility for a simple address generator (Section V-A).

use crate::compress::{ChannelData, CompressedWaveform};
use compaqt_dsp::rle::CodedWord;

/// Capacity of one BRAM in bits (Xilinx RAMB36).
pub const BRAM_BITS: usize = 36 * 1024;

/// A handle to one stored channel inside the banked memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelHandle {
    /// Index of the first bank of this channel's bank group.
    pub first_bank: usize,
    /// Number of banks the channel is striped across (= uniform window
    /// width in words).
    pub banks: usize,
    /// Starting row within the bank group.
    pub first_row: usize,
    /// Number of windows stored.
    pub windows: usize,
}

/// A banked, uniform-width compressed waveform memory.
///
/// Words of window `w` are striped across the bank group one word per
/// bank, so a whole window is fetched in a single FPGA cycle
/// (Figure 12b/c).
#[derive(Debug, Clone, Default)]
pub struct BankedMemory {
    banks: Vec<Vec<u16>>,
}

impl BankedMemory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        BankedMemory::default()
    }

    /// Number of banks allocated so far.
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Total stored bits.
    pub fn stored_bits(&self) -> usize {
        self.banks.iter().map(|b| b.len() * 16).sum()
    }

    /// Number of physical BRAMs this memory maps onto (each bank uses at
    /// least one BRAM; deep banks use several).
    pub fn brams_used(&self) -> usize {
        self.banks.iter().map(|b| (b.len() * 16).div_ceil(BRAM_BITS).max(1)).sum()
    }

    /// Stores one compressed channel at uniform (worst-case) window width.
    ///
    /// Returns the handle for streaming. Windows shorter than the uniform
    /// width are padded with zero-run codewords of length 0, which the
    /// decoder treats as no-ops (the Figure 12c "zero" inputs).
    ///
    /// # Panics
    ///
    /// Panics if the channel is not window-structured (delta/raw channels
    /// use the plain sequential memory path, not the banked layout).
    pub fn store_channel(&mut self, channel: &ChannelData) -> ChannelHandle {
        let windows = match channel {
            ChannelData::Windows(w) => w,
            _ => panic!("banked memory stores windowed channels"),
        };
        let width = windows.iter().map(Vec::len).max().unwrap_or(1).max(1);
        let first_bank = self.banks.len();
        self.banks.extend(std::iter::repeat_with(Vec::new).take(width));
        let first_row = 0;
        for win in windows {
            for k in 0..width {
                let word = win
                    .get(k)
                    .copied()
                    .unwrap_or(CodedWord::Rle(compaqt_dsp::rle::RleCodeword {
                        run: 0,
                        repeat_previous: false,
                    }))
                    .pack();
                self.banks[first_bank + k].push(word);
            }
        }
        ChannelHandle { first_bank, banks: width, first_row, windows: windows.len() }
    }

    /// Stores both channels of a compressed waveform, returning
    /// `(i_handle, q_handle)`.
    pub fn store(&mut self, z: &CompressedWaveform) -> (ChannelHandle, ChannelHandle) {
        (self.store_channel(&z.i), self.store_channel(&z.q))
    }

    /// Fetches one whole window (all banks in parallel — one FPGA cycle).
    ///
    /// # Panics
    ///
    /// Panics if the handle or window index is out of range.
    pub fn read_window(&self, handle: ChannelHandle, window: usize) -> Vec<CodedWord> {
        assert!(window < handle.windows, "window index out of range");
        (0..handle.banks)
            .map(|k| {
                CodedWord::unpack(self.banks[handle.first_bank + k][handle.first_row + window])
            })
            .collect()
    }

    /// Reconstructs the coded word lists for a stored channel (dropping
    /// the uniform-width padding no-ops).
    pub fn load_channel(&self, handle: ChannelHandle) -> ChannelData {
        let mut windows = Vec::with_capacity(handle.windows);
        for w in 0..handle.windows {
            let mut words = self.read_window(handle, w);
            // Drop trailing zero-length run pads.
            while let Some(CodedWord::Rle(cw)) = words.last() {
                if cw.run == 0 && !cw.repeat_previous {
                    words.pop();
                } else {
                    break;
                }
            }
            windows.push(words);
        }
        ChannelData::Windows(windows)
    }
}

/// Number of memory banks a qubit's channel needs so the FPGA can feed the
/// DAC at full rate: `ceil(clock_ratio * words_per_window / window)`
/// (Section V-C). The uncompressed case is `words_per_window == window`,
/// giving `clock_ratio` banks.
pub fn banks_per_channel(clock_ratio: usize, words_per_window: usize, window: usize) -> usize {
    assert!(window > 0, "window must be positive");
    (clock_ratio * words_per_window).div_ceil(window)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{Compressor, Variant};
    use compaqt_pulse::shapes::{Drag, PulseShape};

    fn compressed() -> CompressedWaveform {
        let wf = Drag::new(136, 0.5, 34.0, 0.2).to_waveform("X(q0)", 4.54);
        Compressor::new(Variant::IntDctW { ws: 16 }).compress(&wf).unwrap()
    }

    #[test]
    fn store_load_round_trips_stream() {
        let z = compressed();
        let mut mem = BankedMemory::new();
        let (hi, hq) = mem.store(&z);
        let banked =
            CompressedWaveform { i: mem.load_channel(hi), q: mem.load_channel(hq), ..z.clone() };
        // Loading drops uniform-width padding; decoding must still agree.
        let (direct, banked) = (z.decompress().unwrap(), banked.decompress().unwrap());
        assert_eq!(direct.i(), banked.i());
        assert_eq!(direct.q(), banked.q());
    }

    #[test]
    fn uniform_width_equals_worst_case() {
        let z = compressed();
        let mut mem = BankedMemory::new();
        let (hi, _) = mem.store(&z);
        let worst = z.i.window_word_counts().into_iter().max().unwrap();
        assert_eq!(hi.banks, worst);
    }

    #[test]
    fn window_fetch_is_one_word_per_bank() {
        let z = compressed();
        let mut mem = BankedMemory::new();
        let (hi, _) = mem.store(&z);
        let words = mem.read_window(hi, 0);
        assert_eq!(words.len(), hi.banks);
    }

    #[test]
    fn banks_formula_matches_table_v() {
        // QICK ratio 16: uncompressed needs 16 banks/channel; WS=8 with a
        // 3-word worst case needs 6; WS=16 needs 3 (Section V-C).
        assert_eq!(banks_per_channel(16, 8, 8), 16);
        assert_eq!(banks_per_channel(16, 16, 16), 16);
        assert_eq!(banks_per_channel(16, 3, 8), 6);
        assert_eq!(banks_per_channel(16, 3, 16), 3);
        // Non-multiple ratios lose a little (Section V-C's 6x example:
        // 2x gain instead of 2.66x).
        assert_eq!(banks_per_channel(6, 3, 8), 3);
    }

    #[test]
    fn stored_bits_track_uniform_width() {
        let z = compressed();
        let mut mem = BankedMemory::new();
        let _hi = mem.store_channel(&z.i);
        let windows = z.i.window_word_counts().len();
        let worst: usize = z.i.window_word_counts().into_iter().max().unwrap();
        assert_eq!(mem.stored_bits(), windows * worst * 16);
    }

    #[test]
    #[should_panic(expected = "windowed")]
    fn raw_channels_are_rejected() {
        let mut mem = BankedMemory::new();
        mem.store_channel(&ChannelData::Raw(vec![0, 1, 2]));
    }

    #[test]
    fn brams_used_is_at_least_bank_count() {
        let z = compressed();
        let mut mem = BankedMemory::new();
        mem.store(&z);
        assert!(mem.brams_used() >= mem.bank_count());
    }
}
