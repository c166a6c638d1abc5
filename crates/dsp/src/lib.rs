//! # compaqt-dsp
//!
//! Signal-processing substrate for the COMPAQT compressed waveform memory
//! architecture (Maurya & Tannu, MICRO 2022).
//!
//! This crate provides the numerical kernels that both the software
//! compressor (compile-time) and the modelled hardware decompression engine
//! (runtime) are built from:
//!
//! * [`fixed`] — saturating fixed-point sample types (`Q15`) matching the
//!   16-bit DAC sample format used by qubit controllers.
//! * [`dct`] — exact orthonormal DCT-II / DCT-III (the paper's Eq. 1/2),
//!   both full-length (`DCT-N`) and windowed (`DCT-W`).
//! * [`loeffler`] — Loeffler's fast 8-point DCT factorization (11 multiplies,
//!   29 adds), the minimal-multiplier floating-point engine of Table IV,
//!   plus the generic power-of-two integer butterfly kernel
//!   ([`loeffler::IntButterflyPlan`]) behind the factorized forward
//!   integer DCT.
//! * [`intdct`] — HEVC-style integer DCT/IDCT for window sizes
//!   4/8/16/32/64 (64 is the VVC-style extension whose even rows are
//!   exactly the normative 32-point matrix), multiplierless when lowered
//!   through [`csd`]. The forward defaults to the factorized butterfly
//!   kernel, bit-exact with the dense matrix oracle it keeps alongside;
//!   the sparse matrix inverse is the oracle for the fused [`sparse`]
//!   decoder and its fallback for repeat-previous windows.
//! * [`csd`] — canonical-signed-digit decomposition used to replace constant
//!   multipliers with shift-and-add networks, plus the resource-count model
//!   behind Table IV.
//! * [`rle`] — the run-length codeword scheme used after thresholding.
//! * [`sparse`] — fused run-length decode + sparse integer inverse for
//!   one window, with a runtime-dispatched AVX2 kernel.
//! * [`threshold`] — magnitude thresholding of transform coefficients.
//! * [`metrics`] — MSE / PSNR / compression-ratio measurements.
//! * [`window`] — splitting waveforms into fixed-size transform windows.
//! * [`plan`] — the reusable fast-DCT plan ([`plan::DctPlan`], the one
//!   `DCT-N` kernel) with caller-provided output buffers, plus the
//!   bounded keyed [`plan::DctPlanCache`] for mixed-length workloads.
//! * [`batched`] — the int-DCT-W encode kernel
//!   ([`batched::BatchedIntDctPlan`]), which transforms many windows per
//!   call through a runtime-dispatched AVX2 structure-of-arrays
//!   butterfly, with the per-window kernel as the mandatory scalar
//!   fallback; bit-identical either way. Decode stays per window, in
//!   [`sparse`].
//!
//! # Plans and buffer reuse
//!
//! Every transform and the run-length decoder exist in two forms with one
//! contract:
//!
//! * **Allocating** (`forward`, `inverse`, `decode_window`, ...) —
//!   returns a fresh `Vec` per call. Convenient for analysis code and
//!   tests; its numerics are frozen.
//! * **Buffer-reuse** (`forward_into(&input, &mut out)`,
//!   `inverse_into`, `decode_window_into`, ...) — writes into a
//!   caller-provided buffer whose length must equal the transform/window
//!   length (checked; length mismatches panic for transforms and return
//!   `RleError` for untrusted codec streams). Steady-state loops that
//!   reuse their buffers perform **zero heap allocations per window**.
//!
//! Both forms are *bit-exact* with each other: the allocating wrappers
//! are thin shims over the `_into` kernels, so a stream decoded through
//! either path produces identical samples. Internal scratch (the fast
//! DCT's split/interleave workspace) lives inside [`plan::DctPlan`],
//! which is why its methods take `&mut self`; the table-driven
//! [`Dct`]/[`IntDct`] kernels need no scratch and stay `&self`, making
//! them shareable across decoder threads.
//!
//! # Example
//!
//! Round-trip a smooth signal through the windowed integer DCT:
//!
//! ```
//! use compaqt_dsp::fixed::Q15;
//! use compaqt_dsp::intdct::IntDct;
//!
//! let dct = IntDct::new(8).expect("8 is a supported window size");
//! let x: Vec<Q15> = (0..8).map(|i| Q15::from_f64(0.5 * (i as f64 / 8.0))).collect();
//! let y = dct.forward(&x);
//! let x_hat = dct.inverse(&y);
//! for (a, b) in x.iter().zip(x_hat.iter()) {
//!     assert!((a.to_f64() - b.to_f64()).abs() < 1e-3);
//! }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod batched;
pub mod csd;
pub mod dct;
pub mod fixed;
pub mod intdct;
pub mod loeffler;
pub mod metrics;
pub mod plan;
pub mod rle;
pub mod sparse;
pub mod threshold;
pub mod window;

pub use batched::{BatchedIntDctPlan, KernelTier};
pub use dct::{dct2, dct3, Dct};
pub use fixed::Q15;
pub use intdct::IntDct;
pub use plan::DctPlan;
pub use rle::{RleCodeword, RleDecoder, RleEncoder};
