//! Reusable transform plans with caller-provided output buffers.
//!
//! The codec hot loop transforms millions of windows per pulse-library
//! compile, and the modelled hardware engine inverse-transforms every
//! window streamed to a DAC. The original kernels allocated fresh `Vec`s
//! at every call (and, for the recursive fast DCT, at every even/odd
//! split level). A *plan* hoists all of that out of the loop, FFTW-style:
//!
//! * [`DctPlan`] — arbitrary-length fast DCT-II/III. Construction
//!   precomputes the per-level butterfly twiddles `2cos(pi(2i+1)/2L)` and
//!   the base-case cosine basis once; `forward_into`/`inverse_into` then
//!   run an iterative, in-place kernel over one internal scratch buffer —
//!   zero heap allocations per transform.
//!
//! The windowed HEVC integer transform needs no plan: [`crate::intdct::IntDct`]
//! precomputes its matrix and butterfly at construction and exposes the
//! same `_into` entry points directly. [`DctPlan::forward`] /
//! [`DctPlan::inverse`] are the allocating wrappers over the `_into`
//! kernels.
//!
//! For workloads that mix transform *lengths* — a pulse library whose
//! `DCT-N` waveforms span many durations — [`DctPlanCache`] keeps a small
//! bounded set of plans keyed by length, so revisiting a length reuses its
//! twiddle tables instead of rebuilding them per waveform.
//!
//! # Example
//!
//! ```
//! use compaqt_dsp::plan::DctPlan;
//!
//! let x: Vec<f64> = (0..1362).map(|i| (i as f64 * 0.01).sin()).collect();
//! let mut plan = DctPlan::new(x.len());
//! let mut coeffs = vec![0.0; x.len()];
//! let mut back = vec![0.0; x.len()];
//! plan.forward_into(&x, &mut coeffs);
//! plan.inverse_into(&coeffs, &mut back);
//! for (a, b) in x.iter().zip(&back) {
//!     assert!((a - b).abs() < 1e-9);
//! }
//! ```

use std::f64::consts::PI;

/// A reusable fast-DCT plan for one transform length.
///
/// Holds the precomputed butterfly twiddles for every even/odd split
/// level, the dense cosine basis for the odd/short base case, and an
/// internal scratch buffer, so repeated transforms perform no heap
/// allocation. Methods take `&mut self` because they use the internal
/// scratch; clone the plan (or build one per worker) for parallel use.
///
/// # Example: plan once, transform many times
///
/// ```
/// use compaqt_dsp::plan::DctPlan;
///
/// let mut plan = DctPlan::new(64);
/// let mut coeffs = vec![0.0; 64];
/// for phase in 0..100 {
///     let x: Vec<f64> = (0..64).map(|i| ((i + phase) as f64 * 0.1).sin()).collect();
///     // Steady state: no allocation — the plan's tables and scratch,
///     // and the caller's output buffer, are all reused.
///     plan.forward_into(&x, &mut coeffs);
/// }
/// assert_eq!(plan.len(), 64);
/// ```
#[derive(Debug, Clone)]
pub struct DctPlan {
    n: usize,
    /// `twiddles[d][i] = 2cos(pi(2i+1)/2L)` with `L = n >> d`.
    twiddles: Vec<Vec<f64>>,
    /// Base-case transform length (`n >> levels`; odd or `< 8`).
    base_len: usize,
    /// Row-major unnormalized cosine basis
    /// `base[k*m + i] = cos(pi(2i+1)k/2m)` for the base length `m`.
    base_basis: Vec<f64>,
    scratch: Vec<f64>,
}

impl DctPlan {
    /// Plans an `n`-point orthonormal DCT-II/DCT-III pair.
    ///
    /// Any `n` is accepted: even lengths are halved recursively while the
    /// half is still `>= 4` (matching the recursive kernel this replaces),
    /// the remainder is handled by a precomputed dense basis.
    pub fn new(n: usize) -> Self {
        let mut twiddles = Vec::new();
        let mut len = n;
        while len.is_multiple_of(2) && len >= 8 {
            let tw: Vec<f64> = (0..len / 2)
                .map(|i| 2.0 * (PI * (2 * i + 1) as f64 / (2 * len) as f64).cos())
                .collect();
            twiddles.push(tw);
            len /= 2;
        }
        let base_len = len;
        let mut base_basis = vec![0.0; base_len * base_len];
        for k in 0..base_len {
            for i in 0..base_len {
                base_basis[k * base_len + i] =
                    (PI * (2 * i + 1) as f64 * k as f64 / (2 * base_len) as f64).cos();
            }
        }
        DctPlan { n, twiddles, base_len, base_basis, scratch: vec![0.0; n] }
    }

    /// The planned transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether this is the degenerate zero-length plan.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Forward orthonormal DCT-II of `x` into `out`, allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` or `out.len()` differs from the plan length.
    pub fn forward_into(&mut self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.n, "input length must match plan length");
        assert_eq!(out.len(), self.n, "output length must match plan length");
        if self.n == 0 {
            return;
        }
        out.copy_from_slice(x);
        self.forward_unnorm_inplace(out);
        let s0 = (1.0 / self.n as f64).sqrt();
        let s = (2.0 / self.n as f64).sqrt();
        for (k, v) in out.iter_mut().enumerate() {
            *v *= if k == 0 { s0 } else { s };
        }
    }

    /// Inverse transform (orthonormal DCT-III) of `y` into `out`,
    /// allocation-free. Exact inverse of [`DctPlan::forward_into`].
    ///
    /// # Panics
    ///
    /// Panics if `y.len()` or `out.len()` differs from the plan length.
    pub fn inverse_into(&mut self, y: &[f64], out: &mut [f64]) {
        assert_eq!(y.len(), self.n, "input length must match plan length");
        assert_eq!(out.len(), self.n, "output length must match plan length");
        if self.n == 0 {
            return;
        }
        let s0 = (1.0 / self.n as f64).sqrt();
        let s = (2.0 / self.n as f64).sqrt();
        for (k, v) in out.iter_mut().enumerate() {
            *v = y[k] * if k == 0 { s0 } else { s };
        }
        self.inverse_unnorm_inplace(out);
    }

    /// Allocating convenience wrapper over [`DctPlan::forward_into`].
    pub fn forward(&mut self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n];
        self.forward_into(x, &mut out);
        out
    }

    /// Allocating convenience wrapper over [`DctPlan::inverse_into`].
    pub fn inverse(&mut self, y: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n];
        self.inverse_into(y, &mut out);
        out
    }

    /// Iterative unnormalized DCT-II over `buf`, replacing the recursive
    /// even/odd split. Level `d` holds `2^d` contiguous segments of
    /// length `n >> d`; the butterfly runs in place, segment odd halves
    /// are reversed into natural order, base cases use the precomputed
    /// dense basis, and the interleave recurrence unwinds bottom-up
    /// through the single scratch buffer.
    fn forward_unnorm_inplace(&mut self, buf: &mut [f64]) {
        let n = self.n;
        // Split passes (top-down).
        for (d, tw) in self.twiddles.iter().enumerate() {
            let seg_len = n >> d;
            let h = seg_len / 2;
            for seg in buf.chunks_exact_mut(seg_len) {
                for i in 0..h {
                    let a = seg[i];
                    let b = seg[seg_len - 1 - i];
                    seg[i] = a + b;
                    seg[seg_len - 1 - i] = (a - b) * tw[i];
                }
                // The in-place butterfly leaves the odd half reversed.
                seg[h..].reverse();
            }
        }
        // Base transforms.
        let m = self.base_len;
        if m > 1 {
            let basis = &self.base_basis;
            let tmp = &mut self.scratch[..m];
            for seg in buf.chunks_exact_mut(m) {
                for (k, t) in tmp.iter_mut().enumerate() {
                    *t = basis[k * m..(k + 1) * m].iter().zip(seg.iter()).map(|(b, v)| b * v).sum();
                }
                seg.copy_from_slice(tmp);
            }
        }
        // Interleave/recurrence passes (bottom-up).
        for d in (0..self.twiddles.len()).rev() {
            let seg_len = n >> d;
            let h = seg_len / 2;
            let tmp = &mut self.scratch[..seg_len];
            for seg in buf.chunks_exact_mut(seg_len) {
                for k in 0..h {
                    tmp[2 * k] = seg[k];
                }
                // y[1] = yo[0]/2;  y[2k+1] = yo[k] - y[2k-1].
                tmp[1] = seg[h] / 2.0;
                for k in 1..h {
                    tmp[2 * k + 1] = seg[h + k] - tmp[2 * k - 1];
                }
                seg.copy_from_slice(tmp);
            }
        }
    }

    /// Iterative unnormalized DCT-III (exact transpose of
    /// [`DctPlan::forward_unnorm_inplace`]): de-interleave passes
    /// top-down, transposed base transform, butterflies bottom-up.
    fn inverse_unnorm_inplace(&mut self, buf: &mut [f64]) {
        let n = self.n;
        // De-interleave passes (top-down): transpose of the recurrence.
        for d in 0..self.twiddles.len() {
            let seg_len = n >> d;
            let h = seg_len / 2;
            let tmp = &mut self.scratch[..seg_len];
            for seg in buf.chunks_exact_mut(seg_len) {
                for k in 0..h {
                    tmp[k] = seg[2 * k];
                }
                // Backward alternating suffix sum, halving the j=0 term.
                let mut suffix = 0.0;
                for j in (0..h).rev() {
                    suffix = seg[2 * j + 1] - suffix;
                    tmp[h + j] = suffix;
                }
                tmp[h] /= 2.0;
                seg.copy_from_slice(tmp);
            }
        }
        // Transposed base transforms.
        let m = self.base_len;
        if m > 1 {
            let basis = &self.base_basis;
            let tmp = &mut self.scratch[..m];
            for seg in buf.chunks_exact_mut(m) {
                for (i, t) in tmp.iter_mut().enumerate() {
                    *t = (0..m).map(|k| seg[k] * basis[k * m + i]).sum();
                }
                seg.copy_from_slice(tmp);
            }
        }
        // Butterfly passes (bottom-up): transpose of the input butterfly.
        for d in (0..self.twiddles.len()).rev() {
            let seg_len = n >> d;
            let h = seg_len / 2;
            let tw = &self.twiddles[d];
            let tmp = &mut self.scratch[..seg_len];
            for seg in buf.chunks_exact_mut(seg_len) {
                for i in 0..h {
                    let o = seg[h + i] * tw[i];
                    tmp[i] = seg[i] + o;
                    tmp[seg_len - 1 - i] = seg[i] - o;
                }
                seg.copy_from_slice(tmp);
            }
        }
    }
}

/// A small bounded cache of [`DctPlan`]s keyed by transform length.
///
/// A single cached plan thrashes as soon as a workload alternates between
/// two lengths — every `DCT-N` waveform of a mixed-duration pulse library
/// would rebuild its twiddle tables. The cache keeps the
/// most-recently-used plans (up to [`DctPlanCache::capacity`]); looking up
/// a cached length costs a linear scan over at most `capacity` entries
/// and no allocation, while a miss builds the plan once and evicts the
/// least-recently-used entry. Both the encode and decode scratches are
/// built on this type, so a host compiling and a model decoding the same
/// mixed-length library each pay each twiddle table once.
///
/// # Example
///
/// ```
/// use compaqt_dsp::plan::DctPlanCache;
///
/// let mut cache = DctPlanCache::new();
/// let mut a = vec![0.0; 136];
/// let mut b = vec![0.0; 1362];
/// for _ in 0..10 {
///     // Alternating lengths no longer rebuild plans: each length is
///     // planned exactly once and found in cache thereafter.
///     cache.plan(136).forward_into(&vec![0.5; 136], &mut a);
///     cache.plan(1362).forward_into(&vec![0.5; 1362], &mut b);
/// }
/// assert_eq!(cache.len(), 2);
/// assert!(cache.len() <= cache.capacity());
/// ```
#[derive(Debug, Clone)]
pub struct DctPlanCache {
    /// Cached plans, most recently used first.
    plans: Vec<DctPlan>,
    capacity: usize,
}

impl DctPlanCache {
    /// Default number of cached plans — covers the handful of distinct
    /// waveform durations a typical pulse library replays while keeping
    /// the linear lookup scan trivially cheap.
    pub const DEFAULT_CAPACITY: usize = 8;

    /// Creates an empty cache with [`DctPlanCache::DEFAULT_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates an empty cache bounded to `capacity` plans.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` (a cache that can hold nothing would
    /// silently rebuild every plan).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "plan cache capacity must be positive");
        DctPlanCache { plans: Vec::new(), capacity }
    }

    /// The maximum number of plans the cache retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of plans currently cached (at most [`DctPlanCache::capacity`]).
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Whether the cache holds no plans yet.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Whether a plan for length `n` is currently cached.
    pub fn contains(&self, n: usize) -> bool {
        self.plans.iter().any(|p| p.len() == n)
    }

    /// Returns the plan for transform length `n`, building (and caching)
    /// it on first use. The returned plan is moved to the front of the
    /// LRU order; on a full cache the least-recently-used plan is evicted.
    pub fn plan(&mut self, n: usize) -> &mut DctPlan {
        if let Some(idx) = self.plans.iter().position(|p| p.len() == n) {
            // Move-to-front keeps LRU order without touching the heap.
            self.plans[..=idx].rotate_right(1);
        } else {
            if self.plans.len() == self.capacity {
                self.plans.pop();
            }
            self.plans.insert(0, DctPlan::new(n));
        }
        &mut self.plans[0]
    }
}

impl Default for DctPlanCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dct::{dct2, dct3};

    #[test]
    fn plan_matches_direct_for_many_lengths() {
        for n in [1usize, 2, 4, 7, 8, 16, 17, 64, 136, 160, 454, 1362] {
            let x: Vec<f64> = (0..n).map(|i| ((i * i) as f64 * 0.013).sin() * 0.7).collect();
            let mut plan = DctPlan::new(n);
            let fast = plan.forward(&x);
            let direct = dct2(&x);
            for (k, (a, b)) in fast.iter().zip(&direct).enumerate() {
                assert!((a - b).abs() < 1e-9, "n={n} k={k}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn plan_inverse_matches_direct_inverse() {
        for n in [8usize, 32, 136, 1362] {
            let y: Vec<f64> = (0..n).map(|k| (k as f64 * 0.37).cos() / (1.0 + k as f64)).collect();
            let mut plan = DctPlan::new(n);
            let fast = plan.inverse(&y);
            let direct = dct3(&y);
            for (a, b) in fast.iter().zip(&direct) {
                assert!((a - b).abs() < 1e-9, "n={n}");
            }
        }
    }

    #[test]
    fn plan_is_reusable_without_drift() {
        let n = 320;
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.05).sin()).collect();
        let mut plan = DctPlan::new(n);
        let first = plan.forward(&x);
        let mut out = vec![0.0; n];
        for _ in 0..10 {
            plan.forward_into(&x, &mut out);
            assert_eq!(out, first, "repeated plan use must be bit-identical");
        }
    }

    #[test]
    fn degenerate_lengths_are_handled() {
        let mut p0 = DctPlan::new(0);
        p0.forward_into(&[], &mut []);
        assert!(p0.is_empty());
        let mut p1 = DctPlan::new(1);
        let y = p1.forward(&[0.5]);
        assert!((y[0] - 0.5).abs() < 1e-15);
        assert_eq!(p1.len(), 1);
    }

    #[test]
    fn cache_reuses_plans_across_mixed_lengths() {
        let mut cache = DctPlanCache::new();
        let lengths = [136usize, 1362, 454, 136, 1362, 454, 136];
        for &n in &lengths {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin()).collect();
            let mut out = vec![0.0; n];
            cache.plan(n).forward_into(&x, &mut out);
            let direct = dct2(&x);
            for (a, b) in out.iter().zip(&direct) {
                assert!((a - b).abs() < 1e-9, "n={n}");
            }
        }
        assert_eq!(cache.len(), 3, "three distinct lengths -> three plans");
    }

    #[test]
    fn cache_results_are_bit_identical_to_fresh_plans() {
        let mut cache = DctPlanCache::with_capacity(2);
        // Adversarial: cycle more lengths than the capacity, forcing
        // evictions; rebuilt plans must still match fresh ones exactly.
        for &n in &[64usize, 136, 454, 64, 136, 454] {
            let x: Vec<f64> = (0..n).map(|i| ((i * 3) as f64 * 0.017).cos()).collect();
            let mut cached = vec![0.0; n];
            cache.plan(n).forward_into(&x, &mut cached);
            assert_eq!(cached, DctPlan::new(n).forward(&x), "n={n}");
            assert!(cache.len() <= cache.capacity());
        }
    }

    #[test]
    fn cache_stays_within_bound_under_adversarial_sequences() {
        let mut cache = DctPlanCache::with_capacity(4);
        // Monotone sweep (never repeats): worst case for any LRU.
        for n in 1..200 {
            let _ = cache.plan(n);
            assert!(cache.len() <= 4, "length {n} overflowed the bound");
        }
        // The most recent lengths survive; ancient ones were evicted.
        assert!(cache.contains(199) && cache.contains(196));
        assert!(!cache.contains(1));
    }

    #[test]
    fn cache_hit_moves_plan_to_front() {
        let mut cache = DctPlanCache::with_capacity(2);
        cache.plan(8);
        cache.plan(16);
        // Touch 8 so it becomes most-recent; inserting 32 must evict 16.
        cache.plan(8);
        cache.plan(32);
        assert!(cache.contains(8) && cache.contains(32));
        assert!(!cache.contains(16));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_cache_rejected() {
        DctPlanCache::with_capacity(0);
    }
}
