//! The batched structure-of-arrays (SoA) integer forward transform, the
//! int-DCT-W encode kernel, with runtime SIMD dispatch.
//!
//! The per-window kernel [`IntDct::forward_into`] transforms one window
//! per call, so the compiler cannot vectorize *across* windows — yet a
//! codec stream is nothing but a long run of independent same-size
//! windows. [`BatchedIntDctPlan`] accepts N concatenated windows per
//! call. On the AVX2 tier it transposes them into structure-of-arrays
//! layout — lane `j` of every window contiguous, `soa[j * batch + b]` —
//! and replays the exact butterfly flowgraph with every arithmetic step
//! applied to a whole batch row at once, eight windows per instruction.
//!
//! Only the integer forward (encode) direction is batched. The float
//! `DCT-W` encode runs [`crate::dct::Dct::forward_into`] per window.
//! Decode reads run-length coded windows that are mostly zero, and the
//! fused RLE + sparse inverse in [`crate::sparse`] beats a dense batched
//! inverse even on the device fleet's densest streams (`sycamore-53`).
//!
//! # Kernel tiers and runtime dispatch
//!
//! [`KernelTier::detected`] picks one of two tiers, once per process:
//!
//! * **Avx2** — the SoA butterfly in explicit AVX2 intrinsics (256-bit,
//!   8 x i32 per op), used only when `is_x86_feature_detected!("avx2")`
//!   reports support at runtime.
//! * **Scalar** — [`IntDct::forward_into`] window by window; the
//!   mandatory fallback on every platform. A scalar SoA body measured
//!   no faster than the per-window kernel, so there is none.
//!
//! Setting the environment variable `COMPAQT_FORCE_SCALAR` to any value
//! other than `0` or the empty string forces the scalar tier for the
//! whole process (read once, at first dispatch) — the debugging and CI
//! knob that keeps the fallback path from rotting. Tests can also pin a
//! tier explicitly with [`BatchedIntDctPlan::with_tier`].
//!
//! # Bit-exactness contract
//!
//! Batched output is **bit-identical** to [`IntDct::forward_into`] on
//! every tier: the SoA kernel computes exact (overflow-free, see
//! [`crate::loeffler::IntButterflyPlan`]) integer accumulators, where
//! addition is associative, so reordering across the batch cannot change
//! a single bit.
//!
//! The `transform_equivalence` suite proptests batched == per-window ==
//! matrix-oracle across all supported window sizes, every batch size
//! including ragged tails, and every tier the CPU runs.
//!
//! # Example
//!
//! ```
//! use compaqt_dsp::batched::BatchedIntDctPlan;
//! use compaqt_dsp::fixed::Q15;
//!
//! let mut plan = BatchedIntDctPlan::new(8)?;
//! // Three concatenated 8-sample windows.
//! let windows: Vec<Q15> =
//!     (0..24).map(|i| Q15::from_f64(0.7 * (i as f64 / 5.0).sin())).collect();
//! let mut batched = vec![0i32; 24];
//! plan.forward_batched_into(&windows, &mut batched);
//!
//! // Bit-identical to transforming each window on its own.
//! let mut per_window = vec![0i32; 24];
//! for (w, o) in windows.chunks(8).zip(per_window.chunks_mut(8)) {
//!     plan.transform().forward_into(w, o);
//! }
//! assert_eq!(batched, per_window);
//! # Ok::<(), compaqt_dsp::intdct::UnsupportedSizeError>(())
//! ```

use crate::fixed::Q15;
use crate::intdct::{IntDct, UnsupportedSizeError};
use std::sync::OnceLock;

/// Upper bound on the number of windows a single SoA kernel invocation
/// processes; longer batches are split into chunks of this many windows
/// so the working set (the i32 SoA rows, at most 20 KiB at WS=64) stays
/// cache-resident.
pub const MAX_BATCH_CHUNK: usize = 32;

/// The SIMD capability tier driving the dispatched kernels.
///
/// Every tier computes bit-identical results (see the module docs); the
/// tiers differ only in how many lanes one instruction touches. The
/// same tier also selects the [`crate::sparse`] window kernel and the
/// [`crate::fixed::quantize_into`] staging kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTier {
    /// Plain scalar code — the mandatory fallback on every platform.
    Scalar,
    /// 256-bit `core::arch` x86_64 AVX2 intrinsics (runtime-detected).
    Avx2,
}

impl KernelTier {
    /// The best tier the running CPU supports, detected once per process
    /// with `is_x86_feature_detected!` and cached.
    ///
    /// When [`KernelTier::scalar_pinned`] holds, the result is
    /// [`KernelTier::Scalar`]. Non-x86_64 platforms always report
    /// [`KernelTier::Scalar`].
    pub fn detected() -> KernelTier {
        static TIER: OnceLock<KernelTier> = OnceLock::new();
        *TIER.get_or_init(|| {
            if KernelTier::scalar_pinned() {
                KernelTier::Scalar
            } else {
                KernelTier::Avx2.supported()
            }
        })
    }

    /// Whether `COMPAQT_FORCE_SCALAR` is set to anything but `0` or the
    /// empty string, pinning every dispatched kernel of the process to
    /// its scalar form. Read once, at first call. Kernels that dispatch
    /// on a CPU feature of their own (`compaqt-io`'s CRC-32 folding)
    /// honor the same pin through this function.
    pub fn scalar_pinned() -> bool {
        static PINNED: OnceLock<bool> = OnceLock::new();
        *PINNED.get_or_init(|| {
            std::env::var_os("COMPAQT_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0")
        })
    }

    /// Clamps a requested tier to what the running CPU can execute:
    /// [`KernelTier::Avx2`] degrades to [`KernelTier::Scalar`] without
    /// runtime AVX2 support (and on every non-x86_64 target).
    pub fn supported(self) -> KernelTier {
        #[cfg(target_arch = "x86_64")]
        if self == KernelTier::Avx2 && std::arch::is_x86_feature_detected!("avx2") {
            return KernelTier::Avx2;
        }
        KernelTier::Scalar
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The AVX2 SoA forward kernel and its row helpers. Each helper
    //! processes one full batch row (`batch` contiguous lanes, one per
    //! window). All loads/stores are unaligned (`loadu`/`storeu`) — the
    //! SoA scratch rows carry no alignment guarantee — with scalar tails
    //! for `batch % 8` remainders.

    use crate::loeffler::IntButterflyPlan;
    use std::arch::x86_64::*;

    /// Forward reflection butterfly: `diff = top - bot; top = top + bot`.
    ///
    /// # Safety
    /// AVX2 must be enabled on the calling path.
    #[inline(always)]
    unsafe fn butterfly_i32(top: &mut [i32], bot: &mut [i32], diff: &mut [i32]) {
        let n = top.len();
        let mut i = 0;
        while i + 8 <= n {
            let a = _mm256_loadu_si256(top.as_ptr().add(i).cast());
            let b = _mm256_loadu_si256(bot.as_ptr().add(i).cast());
            _mm256_storeu_si256(diff.as_mut_ptr().add(i).cast(), _mm256_sub_epi32(a, b));
            _mm256_storeu_si256(top.as_mut_ptr().add(i).cast(), _mm256_add_epi32(a, b));
            i += 8;
        }
        while i < n {
            let a = top[i];
            let b = bot[i];
            diff[i] = a - b;
            top[i] = a + b;
            i += 1;
        }
    }

    /// `out[b] = t * v[b]` (exact low-32 product; overflow-free by the
    /// butterfly bound).
    ///
    /// # Safety
    /// AVX2 must be enabled on the calling path.
    #[inline(always)]
    unsafe fn mul_i32(out: &mut [i32], t: i32, v: &[i32]) {
        let n = out.len();
        let tv = _mm256_set1_epi32(t);
        let mut i = 0;
        while i + 8 <= n {
            let x = _mm256_loadu_si256(v.as_ptr().add(i).cast());
            _mm256_storeu_si256(out.as_mut_ptr().add(i).cast(), _mm256_mullo_epi32(tv, x));
            i += 8;
        }
        while i < n {
            out[i] = t * v[i];
            i += 1;
        }
    }

    /// `acc[b] += t * v[b]`.
    ///
    /// # Safety
    /// AVX2 must be enabled on the calling path.
    #[inline(always)]
    unsafe fn mul_acc_i32(acc: &mut [i32], t: i32, v: &[i32]) {
        let n = acc.len();
        let tv = _mm256_set1_epi32(t);
        let mut i = 0;
        while i + 8 <= n {
            let x = _mm256_loadu_si256(v.as_ptr().add(i).cast());
            let a = _mm256_loadu_si256(acc.as_ptr().add(i).cast());
            let sum = _mm256_add_epi32(a, _mm256_mullo_epi32(tv, x));
            _mm256_storeu_si256(acc.as_mut_ptr().add(i).cast(), sum);
            i += 8;
        }
        while i < n {
            acc[i] += t * v[i];
            i += 1;
        }
    }

    /// Raw batched forward accumulators: on entry `buf[i * batch + b]`
    /// holds lane `i` of window `b` (widened Q1.15); on return
    /// `out[k * batch + b] = sum_i T[k][i] * x_b[i]`, exactly — the same
    /// flowgraph as [`IntButterflyPlan::forward_accumulate`], with each
    /// step applied to a whole batch row.
    ///
    /// # Safety
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn forward_soa_avx2(
        plan: &IntButterflyPlan,
        buf: &mut [i32],
        diff: &mut [i32],
        out: &mut [i32],
        batch: usize,
    ) {
        let n = plan.len();
        let mut len = n;
        let mut level = 0usize;
        let mut step = 1usize;
        while len > 1 {
            let half = len / 2;
            // Reflection butterflies: row i pairs with row len-1-i, which
            // always lives in the upper half, so a split borrows both.
            let (lo, hi) = buf[..len * batch].split_at_mut(half * batch);
            for i in 0..half {
                let top = &mut lo[i * batch..(i + 1) * batch];
                let bot = &mut hi[(half - 1 - i) * batch..(half - i) * batch];
                let d = &mut diff[i * batch..(i + 1) * batch];
                butterfly_i32(top, bot, d);
            }
            // Odd rotator bank: every output row is a dot product of the
            // difference rows with constant weights.
            let rows = plan.rows_at(level);
            for (k, row) in rows.chunks_exact(half).enumerate() {
                let o = &mut out[step * (2 * k + 1) * batch..][..batch];
                mul_i32(o, row[0], &diff[..batch]);
                for (i, &t) in row.iter().enumerate().skip(1) {
                    mul_acc_i32(o, t, &diff[i * batch..(i + 1) * batch]);
                }
            }
            len = half;
            level += 1;
            step *= 2;
        }
        mul_i32(&mut out[..batch], plan.dc_gain(), &buf[..batch]);
    }
}

/// A batched integer forward DCT plan, the encode kernel: transforms N
/// concatenated windows per call, bit-identically to per-window
/// [`IntDct::forward_into`] calls — through the SoA butterfly on the
/// [`KernelTier::Avx2`] tier, window by window on
/// [`KernelTier::Scalar`]. Every window it is given is transformed; the
/// int-DCT-W encoder keeps constant windows, which are DC-only, away
/// from it. The inverse stays per window ([`IntDct::inverse_into`] and
/// the fused [`crate::sparse`] decoder).
///
/// The plan owns its SoA staging buffers, which is why
/// [`Self::forward_batched_into`] takes `&mut self`; steady-state reuse
/// performs zero heap allocations once the buffers have grown to the
/// chunk size.
///
/// # Example
///
/// ```
/// use compaqt_dsp::batched::BatchedIntDctPlan;
/// use compaqt_dsp::fixed::Q15;
///
/// let mut plan = BatchedIntDctPlan::new(16)?;
/// let windows = vec![Q15::from_f64(0.25); 16 * 5]; // five constant windows
/// let mut coeffs = vec![0i32; 16 * 5];
/// plan.forward_batched_into(&windows, &mut coeffs);
///
/// let mut back = vec![Q15::ZERO; 16];
/// for (y, w) in coeffs.chunks_exact(16).zip(windows.chunks_exact(16)) {
///     plan.transform().inverse_into(y, &mut back);
///     for (a, b) in w.iter().zip(&back) {
///         assert!((a.to_f64() - b.to_f64()).abs() < 2e-3);
///     }
/// }
/// # Ok::<(), compaqt_dsp::intdct::UnsupportedSizeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BatchedIntDctPlan {
    dct: IntDct,
    tier: KernelTier,
    /// SoA input/working rows (i32), `n * chunk` lanes.
    soa: Vec<i32>,
    /// Forward butterfly difference rows, `(n/2) * chunk` lanes.
    diff: Vec<i32>,
    /// Forward SoA output rows, `n * chunk` lanes.
    out_soa: Vec<i32>,
}

impl BatchedIntDctPlan {
    /// Creates a batched plan for window size `ws`, selecting the kernel
    /// tier with [`KernelTier::detected`].
    ///
    /// # Errors
    ///
    /// Returns [`UnsupportedSizeError`] unless `ws` is 4, 8, 16, 32
    /// or 64.
    pub fn new(ws: usize) -> Result<Self, UnsupportedSizeError> {
        Ok(Self::from_transform(IntDct::new(ws)?))
    }

    /// Wraps an existing transform, selecting the kernel tier with
    /// [`KernelTier::detected`].
    pub fn from_transform(dct: IntDct) -> Self {
        Self::with_tier(dct, KernelTier::detected())
    }

    /// Wraps an existing transform with an explicitly pinned kernel tier
    /// (clamped to what the CPU can run) — the testing hook behind
    /// the forced-scalar vs detected-tier agreement suites.
    pub fn with_tier(dct: IntDct, tier: KernelTier) -> Self {
        BatchedIntDctPlan {
            dct,
            tier: tier.supported(),
            soa: Vec::new(),
            diff: Vec::new(),
            out_soa: Vec::new(),
        }
    }

    /// The window size this plan transforms.
    pub fn len(&self) -> usize {
        self.dct.len()
    }

    /// Always `false`; the window size is at least 4.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The kernel tier this plan dispatches to.
    pub fn tier(&self) -> KernelTier {
        self.tier
    }

    /// The wrapped per-window transform (shared constants; useful for
    /// oracle comparisons).
    pub fn transform(&self) -> &IntDct {
        &self.dct
    }

    /// Batched [`IntDct::forward_into`]: transforms
    /// `windows.len() / ws` concatenated Q1.15 windows into rounded,
    /// 16-bit-saturated coefficients, bit-identically to calling the
    /// per-window kernel on each window.
    ///
    /// Every window is transformed; the kernel has no per-window special
    /// case. The int-DCT-W encoder classifies windows while it stages
    /// them and sends only the varying ones here (constant windows are
    /// DC-only and written in closed form there).
    ///
    /// # Panics
    ///
    /// Panics if `windows.len()` is not a multiple of the window size or
    /// `out.len() != windows.len()`.
    pub fn forward_batched_into(&mut self, windows: &[Q15], out: &mut [i32]) {
        let n = self.dct.len();
        assert!(windows.len().is_multiple_of(n), "input must be whole windows");
        assert_eq!(out.len(), windows.len(), "output length must match input length");
        #[cfg(target_arch = "x86_64")]
        if self.tier == KernelTier::Avx2 {
            self.forward_soa(windows, out);
            return;
        }
        for (w, o) in windows.chunks_exact(n).zip(out.chunks_exact_mut(n)) {
            self.dct.forward_into(w, o);
        }
    }

    /// The [`KernelTier::Avx2`] body of [`Self::forward_batched_into`]:
    /// chunks of at most [`MAX_BATCH_CHUNK`] windows through the SoA
    /// butterfly.
    #[cfg(target_arch = "x86_64")]
    fn forward_soa(&mut self, windows: &[Q15], out: &mut [i32]) {
        let n = self.dct.len();
        let bf = self.dct.butterfly();
        let shift = self.dct.forward_shift();
        let rnd = 1i32 << (shift - 1);
        let max_batch = (windows.len() / n).min(MAX_BATCH_CHUNK);
        self.soa.resize(n * max_batch, 0);
        self.diff.resize(n / 2 * max_batch, 0);
        self.out_soa.resize(n * max_batch, 0);
        for (wchunk, ochunk) in
            windows.chunks(n * MAX_BATCH_CHUNK).zip(out.chunks_mut(n * MAX_BATCH_CHUNK))
        {
            let batch = wchunk.len() / n;
            // Transpose in: lane `i` of window `b` lands at
            // `soa[i * batch + b]` (bounds-check-free via `step_by`).
            for (b, x) in wchunk.chunks_exact(n).enumerate() {
                for (o, s) in self.soa[b..n * batch].iter_mut().step_by(batch).zip(x) {
                    *o = i32::from(s.raw());
                }
            }
            // SAFETY: the Avx2 tier is only constructed after runtime
            // detection (`KernelTier::supported`).
            unsafe {
                x86::forward_soa_avx2(
                    bf,
                    &mut self.soa[..n * batch],
                    &mut self.diff[..n / 2 * batch],
                    &mut self.out_soa[..n * batch],
                    batch,
                );
            }
            // Round + saturate contiguously (autovectorizable), then
            // transpose each window back to its own position.
            for v in &mut self.out_soa[..n * batch] {
                *v = ((*v + rnd) >> shift).clamp(i32::from(i16::MIN), i32::from(i16::MAX));
            }
            for (b, dst) in ochunk.chunks_exact_mut(n).enumerate() {
                for (o, &v) in dst.iter_mut().zip(self.out_soa[b..].iter().step_by(batch)) {
                    *o = v;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intdct::SUPPORTED_SIZES;

    /// Deterministic pseudo-random stream (mirrors the loeffler tests).
    fn xorshift(state: &mut u64) -> i32 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state >> 32) as i32
    }

    fn tiers_to_test() -> Vec<KernelTier> {
        let mut tiers = vec![KernelTier::Scalar];
        if KernelTier::detected() == KernelTier::Avx2 {
            tiers.push(KernelTier::Avx2);
        }
        tiers
    }

    /// Batched output against the per-window kernel and the dense
    /// matrix oracle, window by window.
    fn assert_batched_matches(tier: KernelTier, ws: usize, windows: &[Q15], case: &str) {
        let mut plan = BatchedIntDctPlan::with_tier(IntDct::new(ws).unwrap(), tier);
        let mut batched = vec![0i32; windows.len()];
        plan.forward_batched_into(windows, &mut batched);
        let (mut per, mut oracle) = (vec![0i32; ws], vec![0i32; ws]);
        for (w, b) in windows.chunks_exact(ws).zip(batched.chunks_exact(ws)) {
            plan.transform().forward_into(w, &mut per);
            plan.transform().forward_matrix_into(w, &mut oracle);
            assert_eq!(b, per, "ws={ws} tier={tier:?} {case}: per-window");
            assert_eq!(b, oracle, "ws={ws} tier={tier:?} {case}: matrix oracle");
        }
    }

    #[test]
    fn forward_batched_matches_per_window_on_all_tiers() {
        for ws in SUPPORTED_SIZES {
            for tier in tiers_to_test() {
                for batch in [1usize, 2, 3, 7, MAX_BATCH_CHUNK, MAX_BATCH_CHUNK + 5] {
                    let mut state = 0xD1CE_0000_0000_0001 ^ (ws as u64) << 8 ^ batch as u64;
                    let windows: Vec<Q15> = (0..ws * batch)
                        .map(|_| Q15::from_raw((xorshift(&mut state) >> 16) as i16))
                        .collect();
                    assert_batched_matches(tier, ws, &windows, &format!("batch={batch}"));
                }
            }
        }
    }

    #[test]
    fn forward_batched_handles_hostile_saturation_windows() {
        for ws in SUPPORTED_SIZES {
            for tier in tiers_to_test() {
                let patterns: [Vec<Q15>; 3] = [
                    vec![Q15::MAX; ws * 4],
                    vec![Q15::MIN; ws * 4],
                    (0..ws * 4).map(|i| if i % 2 == 0 { Q15::MAX } else { Q15::MIN }).collect(),
                ];
                for windows in &patterns {
                    assert_batched_matches(tier, ws, windows, "saturation");
                }
            }
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut plan = BatchedIntDctPlan::new(8).unwrap();
        plan.forward_batched_into(&[], &mut []);
    }

    #[test]
    #[should_panic(expected = "whole windows")]
    fn forward_rejects_ragged_input() {
        let mut plan = BatchedIntDctPlan::new(8).unwrap();
        let mut out = vec![0i32; 12];
        plan.forward_batched_into(&[Q15::ZERO; 12], &mut out);
    }

    #[test]
    fn detected_tier_is_stable_and_supported() {
        let t = KernelTier::detected();
        assert_eq!(t, KernelTier::detected());
        assert_eq!(t, t.supported());
        if !cfg!(target_arch = "x86_64") {
            assert_eq!(t, KernelTier::Scalar);
        }
    }

    #[test]
    fn plan_reports_len_and_tier() {
        let plan = BatchedIntDctPlan::with_tier(IntDct::new(32).unwrap(), KernelTier::Scalar);
        assert_eq!(plan.len(), 32);
        assert!(!plan.is_empty());
        assert_eq!(plan.tier(), KernelTier::Scalar);
    }
}
