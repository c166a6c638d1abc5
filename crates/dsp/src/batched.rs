//! Batched structure-of-arrays (SoA) forward transform kernels with
//! runtime SIMD dispatch.
//!
//! The per-window kernels in [`crate::intdct`] and [`crate::dct`]
//! transform one window per call, so the compiler cannot vectorize
//! *across* windows — yet a codec stream is nothing but a long run of
//! independent same-size windows. This module restructures the encode
//! transforms around **window batches**: [`BatchedIntDctPlan`] (and its
//! float twin [`BatchedDct`]) accept N concatenated windows per call,
//! transpose them into structure-of-arrays layout — lane `j` of every
//! window contiguous, `soa[j * batch + b]` — and replay the exact
//! butterfly flowgraph with every arithmetic step applied to a whole
//! batch row at once. The batch dimension is purely data-parallel, so
//! the inner loops are straight-line add/sub/mul over contiguous memory:
//! prime SIMD material.
//!
//! Only the forward (encode) direction is batched. Decode reads
//! run-length coded windows that are mostly zero, and the fused
//! RLE + sparse inverse in [`crate::sparse`] beats a dense batched
//! inverse even on the device fleet's densest streams (`sycamore-53`).
//!
//! # Kernel tiers and runtime dispatch
//!
//! Three implementations of the row primitives exist, selected once per
//! process by [`KernelTier::detected`]:
//!
//! * **Scalar** — plain slice loops, fixed-width chunk friendly; the
//!   mandatory fallback on every platform and the autovectorization
//!   baseline.
//! * **Sse2** — explicit `core::arch` x86_64 SSE2 intrinsics (128-bit,
//!   4 x i32 / 2 x f64 per op). SSE2 is part of the x86_64
//!   baseline, so this tier needs no feature check.
//! * **Avx2** — explicit AVX2 intrinsics (256-bit, 8 x i32 / 4 x f64 per
//!   op), used only when `is_x86_feature_detected!("avx2")`
//!   reports support at runtime.
//!
//! Setting the environment variable `COMPAQT_FORCE_SCALAR` to any value
//! other than `0` or the empty string forces the scalar tier for the
//! whole process (read once, at first dispatch) — the debugging and CI
//! knob that keeps the fallback path from rotting. Tests can also pin a
//! tier explicitly with [`BatchedIntDctPlan::with_tier`].
//!
//! # Bit-exactness contract
//!
//! Batched output is **bit-identical** to the per-window kernels
//! ([`IntDct::forward_into`], [`Dct::forward_into`]) on every tier:
//!
//! * the integer kernel computes exact (overflow-free, see
//!   [`crate::loeffler::IntButterflyPlan`]) integer accumulators, where
//!   addition is associative, so reordering across the batch cannot
//!   change a single bit;
//! * the float forward applies the *same* multiply and add sequence to
//!   each window (one window per SIMD lane, no FMA contraction), so
//!   every per-window rounding step is reproduced exactly.
//!
//! The `transform_equivalence` suite proptests batched == per-window ==
//! matrix-oracle across all supported window sizes, every batch size
//! including ragged tails, and forced-scalar vs detected-tier pairs.
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

use crate::dct::Dct;
use crate::fixed::Q15;
use crate::intdct::{IntDct, UnsupportedSizeError};
use crate::loeffler::IntButterflyPlan;
use std::sync::OnceLock;

/// Upper bound on the number of windows a single SoA kernel invocation
/// processes; longer batches are split into chunks of this many windows
/// so the working set (at most `64 * 32` f64 rows, 16 KiB) stays
/// cache-resident.
pub const MAX_BATCH_CHUNK: usize = 32;

/// The SIMD capability tier driving the batched row primitives.
///
/// Every tier computes bit-identical results (see the module docs); the
/// tiers differ only in how many lanes one instruction touches. The
/// same tier also selects the [`crate::sparse`] window kernel, the
/// [`crate::fixed::quantize_into`] staging kernel and `compaqt-io`'s
/// CRC-32 folding kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTier {
    /// Plain slice loops — the mandatory fallback on every platform.
    Scalar,
    /// 128-bit `core::arch` x86_64 SSE2 intrinsics (baseline on x86_64).
    Sse2,
    /// 256-bit `core::arch` x86_64 AVX2 intrinsics (runtime-detected).
    Avx2,
}

impl KernelTier {
    /// The best tier the running CPU supports, detected once per process
    /// with `is_x86_feature_detected!` and cached.
    ///
    /// Setting `COMPAQT_FORCE_SCALAR` (to anything but `0` or empty)
    /// pins the result to [`KernelTier::Scalar`]; the variable is read
    /// at first call only. Non-x86_64 platforms always report
    /// [`KernelTier::Scalar`].
    pub fn detected() -> KernelTier {
        static TIER: OnceLock<KernelTier> = OnceLock::new();
        *TIER.get_or_init(|| {
            if std::env::var_os("COMPAQT_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0") {
                return KernelTier::Scalar;
            }
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx2") {
                    KernelTier::Avx2
                } else {
                    KernelTier::Sse2
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            KernelTier::Scalar
        })
    }

    /// Clamps a requested tier to what the compilation target can run:
    /// the x86 tiers degrade to [`KernelTier::Scalar`] elsewhere.
    pub fn supported(self) -> KernelTier {
        if cfg!(target_arch = "x86_64") {
            self
        } else {
            KernelTier::Scalar
        }
    }
}

/// Row primitives the SoA kernel bodies are generic over. Each method
/// processes one full batch row (`batch` contiguous lanes, one per
/// window).
///
/// # Safety
///
/// Implementations may use target-specific intrinsics; callers must
/// guarantee the corresponding CPU features are present (enforced by
/// routing all calls through the `#[target_feature]` wrappers selected
/// by [`KernelTier`]).
trait Backend {
    /// Forward reflection butterfly: `diff = top - bot; top = top + bot`.
    unsafe fn butterfly_i32(top: &mut [i32], bot: &mut [i32], diff: &mut [i32]);
    /// `out[b] = t * v[b]` (exact low-32 product; overflow-free by the
    /// butterfly bound).
    unsafe fn mul_i32(out: &mut [i32], t: i32, v: &[i32]);
    /// `acc[b] += t * v[b]`.
    unsafe fn mul_acc_i32(acc: &mut [i32], t: i32, v: &[i32]);
    /// `acc[b] += t * v[b]` with separate multiply and add roundings
    /// (no FMA), matching the scalar kernel's op sequence per lane.
    unsafe fn mul_acc_f64(acc: &mut [f64], t: f64, v: &[f64]);
}

/// Plain slice loops; written over full rows so the autovectorizer can
/// chunk them at the target's native width.
struct ScalarBackend;

impl Backend for ScalarBackend {
    #[inline(always)]
    unsafe fn butterfly_i32(top: &mut [i32], bot: &mut [i32], diff: &mut [i32]) {
        for ((t, bo), d) in top.iter_mut().zip(bot.iter()).zip(diff.iter_mut()) {
            let a = *t;
            let b = *bo;
            *d = a - b;
            *t = a + b;
        }
    }

    #[inline(always)]
    unsafe fn mul_i32(out: &mut [i32], t: i32, v: &[i32]) {
        for (o, &x) in out.iter_mut().zip(v) {
            *o = t * x;
        }
    }

    #[inline(always)]
    unsafe fn mul_acc_i32(acc: &mut [i32], t: i32, v: &[i32]) {
        for (a, &x) in acc.iter_mut().zip(v) {
            *a += t * x;
        }
    }

    #[inline(always)]
    unsafe fn mul_acc_f64(acc: &mut [f64], t: f64, v: &[f64]) {
        for (a, &x) in acc.iter_mut().zip(v) {
            *a += t * x;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! Explicit SSE2/AVX2 row primitives plus the `#[target_feature]`
    //! kernel wrappers. All loads/stores are unaligned (`loadu`/`storeu`)
    //! — the SoA scratch rows carry no alignment guarantee — with scalar
    //! tails for `batch % lanes` remainders.

    use super::{dct_forward_soa_body, forward_soa_body, Backend, Dct, IntButterflyPlan};
    use std::arch::x86_64::*;

    /// Exact low-32 product per lane on SSE2, which lacks
    /// `_mm_mullo_epi32` (SSE4.1): split into even/odd 32x32->64
    /// unsigned products (`pmuludq` — the low 32 bits of the unsigned
    /// product equal the signed one's) and recombine the low halves.
    #[inline(always)]
    unsafe fn mullo_epi32_sse2(a: __m128i, b: __m128i) -> __m128i {
        let even = _mm_mul_epu32(a, b);
        let odd = _mm_mul_epu32(_mm_srli_si128::<4>(a), _mm_srli_si128::<4>(b));
        // Gather the low dwords of the two 64-bit products in each
        // register, then interleave back to lane order 0,1,2,3.
        let even_lo = _mm_shuffle_epi32::<0b10_00_10_00>(even);
        let odd_lo = _mm_shuffle_epi32::<0b10_00_10_00>(odd);
        _mm_unpacklo_epi32(even_lo, odd_lo)
    }

    pub(super) struct Sse2Backend;

    impl Backend for Sse2Backend {
        #[inline(always)]
        unsafe fn butterfly_i32(top: &mut [i32], bot: &mut [i32], diff: &mut [i32]) {
            let n = top.len();
            let mut i = 0;
            while i + 4 <= n {
                let a = _mm_loadu_si128(top.as_ptr().add(i).cast());
                let b = _mm_loadu_si128(bot.as_ptr().add(i).cast());
                _mm_storeu_si128(diff.as_mut_ptr().add(i).cast(), _mm_sub_epi32(a, b));
                _mm_storeu_si128(top.as_mut_ptr().add(i).cast(), _mm_add_epi32(a, b));
                i += 4;
            }
            while i < n {
                let a = top[i];
                let b = bot[i];
                diff[i] = a - b;
                top[i] = a + b;
                i += 1;
            }
        }

        #[inline(always)]
        unsafe fn mul_i32(out: &mut [i32], t: i32, v: &[i32]) {
            let n = out.len();
            let tv = _mm_set1_epi32(t);
            let mut i = 0;
            while i + 4 <= n {
                let x = _mm_loadu_si128(v.as_ptr().add(i).cast());
                _mm_storeu_si128(out.as_mut_ptr().add(i).cast(), mullo_epi32_sse2(tv, x));
                i += 4;
            }
            while i < n {
                out[i] = t * v[i];
                i += 1;
            }
        }

        #[inline(always)]
        unsafe fn mul_acc_i32(acc: &mut [i32], t: i32, v: &[i32]) {
            let n = acc.len();
            let tv = _mm_set1_epi32(t);
            let mut i = 0;
            while i + 4 <= n {
                let x = _mm_loadu_si128(v.as_ptr().add(i).cast());
                let a = _mm_loadu_si128(acc.as_ptr().add(i).cast());
                let sum = _mm_add_epi32(a, mullo_epi32_sse2(tv, x));
                _mm_storeu_si128(acc.as_mut_ptr().add(i).cast(), sum);
                i += 4;
            }
            while i < n {
                acc[i] += t * v[i];
                i += 1;
            }
        }

        #[inline(always)]
        unsafe fn mul_acc_f64(acc: &mut [f64], t: f64, v: &[f64]) {
            let n = acc.len();
            let tv = _mm_set1_pd(t);
            let mut i = 0;
            while i + 2 <= n {
                let x = _mm_loadu_pd(v.as_ptr().add(i));
                let a = _mm_loadu_pd(acc.as_ptr().add(i));
                _mm_storeu_pd(acc.as_mut_ptr().add(i), _mm_add_pd(a, _mm_mul_pd(tv, x)));
                i += 2;
            }
            while i < n {
                acc[i] += t * v[i];
                i += 1;
            }
        }
    }

    pub(super) struct Avx2Backend;

    impl Backend for Avx2Backend {
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

        #[inline(always)]
        unsafe fn mul_acc_f64(acc: &mut [f64], t: f64, v: &[f64]) {
            let n = acc.len();
            let tv = _mm256_set1_pd(t);
            let mut i = 0;
            while i + 4 <= n {
                let x = _mm256_loadu_pd(v.as_ptr().add(i));
                let a = _mm256_loadu_pd(acc.as_ptr().add(i));
                _mm256_storeu_pd(acc.as_mut_ptr().add(i), _mm256_add_pd(a, _mm256_mul_pd(tv, x)));
                i += 4;
            }
            while i < n {
                acc[i] += t * v[i];
                i += 1;
            }
        }
    }

    // ---- `#[target_feature]` kernel wrappers ------------------------
    //
    // The generic bodies are `#[inline(always)]`, so inside these
    // wrappers every backend primitive compiles with the enabled
    // feature set. SSE2 is unconditionally available on x86_64; the
    // AVX2 wrappers are only reached when runtime detection succeeded.

    /// # Safety
    /// SSE2 is part of the x86_64 baseline; always safe to call there.
    pub(super) unsafe fn forward_soa_sse2(
        plan: &IntButterflyPlan,
        buf: &mut [i32],
        diff: &mut [i32],
        out: &mut [i32],
        batch: usize,
    ) {
        forward_soa_body::<Sse2Backend>(plan, buf, diff, out, batch);
    }

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
        forward_soa_body::<Avx2Backend>(plan, buf, diff, out, batch);
    }

    /// # Safety
    /// SSE2 is part of the x86_64 baseline; always safe to call there.
    pub(super) unsafe fn dct_forward_soa_sse2(
        dct: &Dct,
        soa: &[f64],
        out: &mut [f64],
        batch: usize,
    ) {
        dct_forward_soa_body::<Sse2Backend>(dct, soa, out, batch);
    }

    /// # Safety
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dct_forward_soa_avx2(
        dct: &Dct,
        soa: &[f64],
        out: &mut [f64],
        batch: usize,
    ) {
        dct_forward_soa_body::<Avx2Backend>(dct, soa, out, batch);
    }
}

// ---- Generic SoA kernel bodies --------------------------------------

/// Raw batched forward accumulators: on entry `buf[i * batch + b]` holds
/// lane `i` of window `b` (widened Q1.15); on return
/// `out[k * batch + b] = sum_i T[k][i] * x_b[i]`, exactly — the same
/// flowgraph as [`IntButterflyPlan::forward_accumulate`], with each step
/// applied to a whole batch row.
///
/// # Safety
/// `B`'s target features must be enabled on the calling path.
#[inline(always)]
unsafe fn forward_soa_body<B: Backend>(
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
            B::butterfly_i32(top, bot, d);
        }
        // Odd rotator bank: every output row is a dot product of the
        // difference rows with constant weights.
        let rows = plan.rows_at(level);
        for (k, row) in rows.chunks_exact(half).enumerate() {
            let o = &mut out[step * (2 * k + 1) * batch..][..batch];
            B::mul_i32(o, row[0], &diff[..batch]);
            for (i, &t) in row.iter().enumerate().skip(1) {
                B::mul_acc_i32(o, t, &diff[i * batch..(i + 1) * batch]);
            }
        }
        len = half;
        level += 1;
        step *= 2;
    }
    B::mul_i32(&mut out[..batch], plan.dc_gain(), &buf[..batch]);
}

/// Batched float forward: `out[k * batch + b] = sum_i basis[k][i] *
/// x_b[i]`, accumulated in the same `i` order (from an explicit `0.0`)
/// as [`Dct::forward_into`]'s per-window sum, so each lane reproduces
/// the scalar rounding sequence bit-for-bit.
///
/// # Safety
/// `B`'s target features must be enabled on the calling path.
#[inline(always)]
unsafe fn dct_forward_soa_body<B: Backend>(dct: &Dct, soa: &[f64], out: &mut [f64], batch: usize) {
    let n = dct.len();
    out[..n * batch].fill(0.0);
    for k in 0..n {
        let row = dct.basis_row(k);
        let o = &mut out[k * batch..(k + 1) * batch];
        for (i, &b) in row.iter().enumerate() {
            B::mul_acc_f64(o, b, &soa[i * batch..(i + 1) * batch]);
        }
    }
}

// ---- Tier dispatch --------------------------------------------------

fn forward_dispatch(
    tier: KernelTier,
    plan: &IntButterflyPlan,
    buf: &mut [i32],
    diff: &mut [i32],
    out: &mut [i32],
    batch: usize,
) {
    match tier {
        // SAFETY: the scalar backend uses no target-specific intrinsics.
        KernelTier::Scalar => unsafe {
            forward_soa_body::<ScalarBackend>(plan, buf, diff, out, batch)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86_64 baseline.
        KernelTier::Sse2 => unsafe { x86::forward_soa_sse2(plan, buf, diff, out, batch) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the Avx2 tier is only constructed after runtime detection.
        KernelTier::Avx2 => unsafe { x86::forward_soa_avx2(plan, buf, diff, out, batch) },
        #[cfg(not(target_arch = "x86_64"))]
        // SAFETY: scalar fallback, no intrinsics.
        _ => unsafe { forward_soa_body::<ScalarBackend>(plan, buf, diff, out, batch) },
    }
}

fn dct_forward_dispatch(tier: KernelTier, dct: &Dct, soa: &[f64], out: &mut [f64], batch: usize) {
    match tier {
        // SAFETY: the scalar backend uses no target-specific intrinsics.
        KernelTier::Scalar => unsafe {
            dct_forward_soa_body::<ScalarBackend>(dct, soa, out, batch)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86_64 baseline.
        KernelTier::Sse2 => unsafe { x86::dct_forward_soa_sse2(dct, soa, out, batch) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the Avx2 tier is only constructed after runtime detection.
        KernelTier::Avx2 => unsafe { x86::dct_forward_soa_avx2(dct, soa, out, batch) },
        #[cfg(not(target_arch = "x86_64"))]
        // SAFETY: scalar fallback, no intrinsics.
        _ => unsafe { dct_forward_soa_body::<ScalarBackend>(dct, soa, out, batch) },
    }
}

// ---- Public plan types ----------------------------------------------

/// A batched integer forward DCT plan, the encode kernel: transforms N
/// concatenated windows per call through the SoA butterfly kernel,
/// bit-identically to per-window [`IntDct::forward_into`] calls. Every
/// window it is given runs the butterfly; the int-DCT-W encoder keeps
/// constant windows, which are DC-only, away from it. The inverse stays
/// per window ([`IntDct::inverse_into`] and the fused [`crate::sparse`]
/// decoder).
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
    /// (clamped to what the platform can run) — the testing hook behind
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
    /// oracle comparisons and scalar tails).
    pub fn transform(&self) -> &IntDct {
        &self.dct
    }

    /// Batched [`IntDct::forward_into`]: transforms
    /// `windows.len() / ws` concatenated Q1.15 windows into rounded,
    /// 16-bit-saturated coefficients, bit-identically to calling the
    /// per-window kernel on each window.
    ///
    /// Every window runs the butterfly; the kernel has no per-window
    /// special case. The int-DCT-W encoder classifies windows while it
    /// stages them and sends only the varying ones here (constant
    /// windows are DC-only and written in closed form there).
    ///
    /// # Panics
    ///
    /// Panics if `windows.len()` is not a multiple of the window size or
    /// `out.len() != windows.len()`.
    pub fn forward_batched_into(&mut self, windows: &[Q15], out: &mut [i32]) {
        let n = self.dct.len();
        assert!(windows.len().is_multiple_of(n), "input must be whole windows");
        assert_eq!(out.len(), windows.len(), "output length must match input length");
        let Some(bf) = self.dct.butterfly() else {
            // No factorization (never the built-in sizes): per-window
            // dense fallback, still bit-exact.
            for (w, o) in windows.chunks_exact(n).zip(out.chunks_exact_mut(n)) {
                self.dct.forward_into(w, o);
            }
            return;
        };
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
            forward_dispatch(
                self.tier,
                bf,
                &mut self.soa[..n * batch],
                &mut self.diff[..n / 2 * batch],
                &mut self.out_soa[..n * batch],
                batch,
            );
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

/// The float twin of [`BatchedIntDctPlan`]: a batched forward
/// orthonormal DCT-II over concatenated `f64` windows, bit-identical to
/// per-window [`Dct::forward_into`] calls (each window occupies one
/// SIMD lane, so its multiply/add rounding sequence is unchanged; no
/// FMA contraction).
///
/// # Example
///
/// ```
/// use compaqt_dsp::batched::BatchedDct;
///
/// let mut plan = BatchedDct::new(8);
/// let windows: Vec<f64> = (0..32).map(|i| (i as f64 / 7.0).cos()).collect();
/// let mut batched = vec![0.0; 32];
/// plan.forward_batched_into(&windows, &mut batched);
///
/// let mut per_window = vec![0.0; 32];
/// for (w, o) in windows.chunks(8).zip(per_window.chunks_mut(8)) {
///     plan.transform().forward_into(w, o);
/// }
/// assert_eq!(batched, per_window); // bit-identical, not just close
/// ```
#[derive(Debug, Clone)]
pub struct BatchedDct {
    dct: Dct,
    tier: KernelTier,
    soa: Vec<f64>,
    out_soa: Vec<f64>,
}

impl BatchedDct {
    /// Creates a batched N-point float forward plan, selecting the
    /// kernel tier with [`KernelTier::detected`].
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        Self::from_transform(Dct::new(n))
    }

    /// Wraps an existing transform, selecting the kernel tier with
    /// [`KernelTier::detected`].
    pub fn from_transform(dct: Dct) -> Self {
        Self::with_tier(dct, KernelTier::detected())
    }

    /// Wraps an existing transform with an explicitly pinned kernel tier
    /// (clamped to what the platform can run).
    pub fn with_tier(dct: Dct, tier: KernelTier) -> Self {
        BatchedDct { dct, tier: tier.supported(), soa: Vec::new(), out_soa: Vec::new() }
    }

    /// The window size this plan transforms.
    pub fn len(&self) -> usize {
        self.dct.len()
    }

    /// Always `false`; construction requires a positive length.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The kernel tier this plan dispatches to.
    pub fn tier(&self) -> KernelTier {
        self.tier
    }

    /// The wrapped per-window transform.
    pub fn transform(&self) -> &Dct {
        &self.dct
    }

    /// Batched [`Dct::forward_into`] over `samples.len() / n`
    /// concatenated windows, bit-identical to the per-window kernel.
    ///
    /// # Panics
    ///
    /// Panics if `samples.len()` is not a multiple of the window size or
    /// `out.len() != samples.len()`.
    pub fn forward_batched_into(&mut self, samples: &[f64], out: &mut [f64]) {
        let n = self.dct.len();
        assert!(samples.len().is_multiple_of(n), "input must be whole windows");
        assert_eq!(out.len(), samples.len(), "output length must match input length");
        let max_batch = (samples.len() / n).min(MAX_BATCH_CHUNK);
        self.soa.resize(n * max_batch, 0.0);
        self.out_soa.resize(n * max_batch, 0.0);
        for (schunk, ochunk) in
            samples.chunks(n * MAX_BATCH_CHUNK).zip(out.chunks_mut(n * MAX_BATCH_CHUNK))
        {
            let batch = schunk.len() / n;
            for (w, win) in schunk.chunks_exact(n).enumerate() {
                for (i, &s) in win.iter().enumerate() {
                    self.soa[i * batch + w] = s;
                }
            }
            dct_forward_dispatch(
                self.tier,
                &self.dct,
                &self.soa[..n * batch],
                &mut self.out_soa[..n * batch],
                batch,
            );
            for (w, dst) in ochunk.chunks_exact_mut(n).enumerate() {
                for (k, o) in dst.iter_mut().enumerate() {
                    *o = self.out_soa[k * batch + w];
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
        if cfg!(target_arch = "x86_64") {
            tiers.push(KernelTier::Sse2);
            if KernelTier::detected() == KernelTier::Avx2 {
                tiers.push(KernelTier::Avx2);
            }
        }
        tiers
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
                    let mut plan = BatchedIntDctPlan::with_tier(IntDct::new(ws).unwrap(), tier);
                    let mut batched = vec![0i32; ws * batch];
                    plan.forward_batched_into(&windows, &mut batched);
                    let mut per = vec![0i32; ws * batch];
                    for (w, o) in windows.chunks_exact(ws).zip(per.chunks_exact_mut(ws)) {
                        plan.transform().forward_into(w, o);
                    }
                    assert_eq!(batched, per, "ws={ws} tier={tier:?} batch={batch}");
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
                    let mut plan = BatchedIntDctPlan::with_tier(IntDct::new(ws).unwrap(), tier);
                    let mut batched = vec![0i32; ws * 4];
                    plan.forward_batched_into(windows, &mut batched);
                    let mut per = vec![0i32; ws * 4];
                    for (w, o) in windows.chunks_exact(ws).zip(per.chunks_exact_mut(ws)) {
                        plan.transform().forward_into(w, o);
                    }
                    assert_eq!(batched, per, "ws={ws} tier={tier:?}");
                }
            }
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut plan = BatchedIntDctPlan::new(8).unwrap();
        plan.forward_batched_into(&[], &mut []);
        let mut fplan = BatchedDct::new(8);
        fplan.forward_batched_into(&[], &mut []);
    }

    #[test]
    #[should_panic(expected = "whole windows")]
    fn forward_rejects_ragged_input() {
        let mut plan = BatchedIntDctPlan::new(8).unwrap();
        let mut out = vec![0i32; 12];
        plan.forward_batched_into(&[Q15::ZERO; 12], &mut out);
    }

    #[test]
    fn float_forward_batched_is_bit_identical() {
        for n in [4usize, 8, 16, 32, 64] {
            for tier in tiers_to_test() {
                for batch in [1usize, 5, MAX_BATCH_CHUNK + 3] {
                    let mut state = 0xF10A_0000_0000_0003 ^ (n as u64) << 8 ^ batch as u64;
                    let samples: Vec<f64> = (0..n * batch)
                        .map(|_| f64::from(xorshift(&mut state)) / f64::from(i32::MAX))
                        .collect();
                    let mut plan = BatchedDct::with_tier(Dct::new(n), tier);
                    let mut batched = vec![0.0; n * batch];
                    plan.forward_batched_into(&samples, &mut batched);
                    let mut per = vec![0.0; n * batch];
                    for (w, o) in samples.chunks_exact(n).zip(per.chunks_exact_mut(n)) {
                        plan.transform().forward_into(w, o);
                    }
                    // Bitwise equality, including signed zeros.
                    for (a, b) in batched.iter().zip(&per) {
                        assert_eq!(a.to_bits(), b.to_bits(), "n={n} tier={tier:?} batch={batch}");
                    }
                }
            }
        }
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
        let f = BatchedDct::with_tier(Dct::new(12), KernelTier::Scalar);
        assert_eq!(f.len(), 12);
        assert!(!f.is_empty());
        assert_eq!(f.tier(), KernelTier::Scalar);
    }
}
