//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the
//! checksum every container index entry and every wire frame records.
//!
//! The polynomial, bit order, initial value and final xor match
//! zlib/PNG/`crc32fast`, so containers and frames can be verified by
//! standard tooling. Zlib compatibility does not depend on the kernel
//! tier: both kernels below compute that same function, and a unit test
//! checks them against zlib's values and against each other.
//!
//! # Kernel tiers
//!
//! * **Table** — one byte per step through a 256-entry table built at
//!   compile time. It runs on every platform, handles short inputs and
//!   tails, and is the reference the folding kernel is tested against.
//! * **Carry-less folding** — on x86_64, when the CPU reports
//!   `pclmulqdq` and `sse4.1` and the process is not pinned to scalar
//!   kernels ([`KernelTier::scalar_pinned`], `COMPAQT_FORCE_SCALAR`),
//!   inputs of at least 64 bytes are folded
//!   64 bytes per step with `pclmulqdq` (Gopal et al., "Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ Instruction",
//!   Intel, 2009).
//!
//! # Where the folding constants come from
//!
//! Read as a polynomial over GF(2), a 16-byte block loaded little-endian
//! holds its first bit in the highest-degree coefficient, the same
//! reflected order the table kernel uses. Folding a 128-bit remainder
//! `X = H·x^64 + L` forward over `D` bits of later data only needs a
//! value congruent to `X·x^D` modulo `P(x)`, so each half is multiplied
//! by a 32-bit constant instead of being shifted:
//! `H·(x^(D+32) mod P)` and `L·(x^(D-32) mod P)`. The `±32` and the one-
//! bit left shift of each reflected constant account for where a 64 x 33
//! bit carry-less product lands in the 128-bit register. Folding by four
//! registers uses `D = 512`, by one register `D = 128`; the final
//! 128 → 64-bit steps use `x^96 mod P` and `x^64 mod P`. The last
//! 64 → 32-bit step is a Barrett reduction with `μ = ⌊x^64 / P(x)⌋` and
//! `P(x)` itself. Every constant is derived at compile time from the
//! polynomial by the `const fn`s in this module, never typed in; a unit
//! test pins them to the values published in that paper.

use compaqt_dsp::KernelTier;

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// The shortest input the folding kernel takes; shorter inputs go
/// through the table (folding needs four 16-byte registers to start).
const FOLD_MIN_BYTES: usize = 64;

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[n] = c;
        n += 1;
    }
    table
}

static TABLE: [u32; 256] = build_table();

/// The CRC-32 of `data` (init `0xFFFFFFFF`, final xor `0xFFFFFFFF`),
/// through the fastest kernel the running CPU supports.
///
/// # Example
///
/// ```
/// // The standard check vector.
/// assert_eq!(compaqt_io::crc32::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    crc32_on(!KernelTier::scalar_pinned(), data)
}

/// [`crc32`] with the kernel choice made by the caller: `fold` lets
/// long inputs take the folding kernel where the CPU has it; `false`
/// always takes the table.
fn crc32_on(fold: bool, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if fold && data.len() >= FOLD_MIN_BYTES && clmul::available() {
        // SAFETY: `clmul::available` detected `pclmulqdq` and `sse4.1`
        // at runtime, and the length check meets `update`'s minimum.
        return !unsafe { clmul::update(!0, data) };
    }
    let _ = fold;
    !table_update(!0, data)
}

/// Advances a raw (un-inverted) CRC register over `data`, one byte per
/// table lookup.
fn table_update(mut c: u32, data: &[u8]) -> u32 {
    for &b in data {
        c = TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// `x^n mod P(x)` in reflected order, shifted left one bit: the 33-bit
/// operand form a carry-less multiply by a 64-bit register half takes.
const fn xpow_mod(n: u32) -> u64 {
    let mut r: u32 = 0x8000_0000; // x^0 in reflected order
    let mut i = 0;
    while i < n {
        // Multiplying by x shifts toward bit 0; x^32 reduces to POLY.
        r = if r & 1 != 0 { (r >> 1) ^ POLY } else { r >> 1 };
        i += 1;
    }
    (r as u64) << 1
}

/// `P(x)` itself as a 33-bit reflected operand (the `x^32` term is bit 0).
const P_REFLECTED: u64 = ((POLY as u64) << 1) | 1;

/// The Barrett constant `μ = ⌊x^64 / P(x)⌋` as a 33-bit reflected
/// operand: long division in MSB-first order, then reflected.
const fn barrett_mu() -> u64 {
    let p = (1u128 << 32) | POLY.reverse_bits() as u128;
    let mut rem = 1u128 << 64;
    let mut q = 0u64;
    let mut d = 33;
    while d > 0 {
        d -= 1;
        if rem & (1u128 << (d + 32)) != 0 {
            rem ^= p << d;
            q |= 1 << d;
        }
    }
    q.reverse_bits() >> 31
}

/// Fold-by-4 constants (`D = 512`): multipliers for a register's low
/// and high halves.
const K_FOLD4: (u64, u64) = (xpow_mod(512 + 32), xpow_mod(512 - 32));
/// Fold-by-1 constants (`D = 128`).
const K_FOLD1: (u64, u64) = (xpow_mod(128 + 32), xpow_mod(128 - 32));
/// 128 → 96 and 96 → 64-bit reduction constants.
const K_96: u64 = xpow_mod(96);
const K_64: u64 = xpow_mod(64);
const MU: u64 = barrett_mu();

#[cfg(target_arch = "x86_64")]
mod clmul {
    //! The `pclmulqdq` folding kernel. Loads are unaligned; the table
    //! finishes the tail of fewer than 16 bytes.

    use super::{table_update, FOLD_MIN_BYTES, K_64, K_96, K_FOLD1, K_FOLD4, MU, P_REFLECTED};
    use std::arch::x86_64::*;

    /// Whether the running CPU has the instructions [`update`] uses.
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// The 16 bytes of `bytes` at `at` as a 128-bit register.
    #[inline(always)]
    fn load(bytes: &[u8], at: usize) -> __m128i {
        let block: &[u8; 16] = bytes[at..at + 16].try_into().expect("a 16-byte block");
        // SAFETY: `block` is 16 readable bytes and `loadu` has no
        // alignment requirement; SSE2 is part of the x86_64 baseline.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `(lo, hi)` multipliers as one register, `lo` in the low half.
    #[inline(always)]
    fn consts((lo, hi): (u64, u64)) -> __m128i {
        // SAFETY: SSE2 is part of the x86_64 baseline.
        unsafe { _mm_set_epi64x(hi as i64, lo as i64) }
    }

    /// `x·x^D + next` modulo `P`, as a 128-bit value congruent to it.
    ///
    /// # Safety
    /// Requires `pclmulqdq`; only inlined into [`update`].
    #[inline(always)]
    unsafe fn fold(x: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Advances a raw CRC register over `data`.
    ///
    /// # Safety
    /// The caller must have checked [`available`], and
    /// `data.len() >= FOLD_MIN_BYTES`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn update(crc: u32, data: &[u8]) -> u32 {
        let (head, rest) = data.split_at(FOLD_MIN_BYTES);
        let mut x = [load(head, 0), load(head, 16), load(head, 32), load(head, 48)];
        // The initial register is xor-ed into the first 32 message bits.
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(crc as i32));

        let k4 = consts(K_FOLD4);
        let mut quads = rest.chunks_exact(64);
        for q in &mut quads {
            for (i, xi) in x.iter_mut().enumerate() {
                *xi = fold(*xi, load(q, 16 * i), k4);
            }
        }
        let k1 = consts(K_FOLD1);
        let mut acc = fold(fold(fold(x[0], x[1], k1), x[2], k1), x[3], k1);
        let mut singles = quads.remainder().chunks_exact(16);
        for b in &mut singles {
            acc = fold(acc, load(b, 0), k1);
        }

        // 128 → 96 bits: the high-degree half times x^96 mod P, plus the
        // low-degree half.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(acc, _mm_cvtsi64_si128(K_96 as i64)),
            _mm_srli_si128::<8>(acc),
        );
        // 96 → 64 bits: the top 32 coefficients times x^64 mod P.
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_cvtsi64_si128(K_64 as i64)),
            _mm_srli_si128::<4>(x),
        );
        // 64 → 32 bits, Barrett: q = ⌊R / x^32⌋·μ / x^32, R ^= q·P.
        let q = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_cvtsi64_si128(MU as i64));
        let qp = _mm_clmulepi64_si128::<0x00>(
            _mm_and_si128(q, low32),
            _mm_cvtsi64_si128(P_REFLECTED as i64),
        );
        let reg = _mm_extract_epi32::<1>(_mm_xor_si128(x, qp)) as u32;
        table_update(reg, singles.remainder())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both kernel choices, the forced table first; folding degrades to
    /// the table on a CPU without `pclmulqdq`.
    const FOLDS: [bool; 2] = [false, true];

    #[test]
    fn known_vectors() {
        for fold in FOLDS {
            assert_eq!(crc32_on(fold, b""), 0);
            assert_eq!(crc32_on(fold, b"123456789"), 0xCBF4_3926);
            assert_eq!(crc32_on(fold, b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
            // Long enough to fold: 64 and 1000 zero bytes, 256 x 0xFF
            // and one of every byte value (zlib's `crc32`).
            assert_eq!(crc32_on(fold, &[0u8; 64]), 0x758D_6336, "fold={fold}");
            assert_eq!(crc32_on(fold, &[0u8; 1000]), 0x060B_1780, "fold={fold}");
            assert_eq!(crc32_on(fold, &[0xFFu8; 256]), 0xFEA8_A821, "fold={fold}");
            let ramp: Vec<u8> = (0..=255).collect();
            assert_eq!(crc32_on(fold, &ramp), 0x2905_8C73, "fold={fold}");
        }
    }

    #[test]
    fn folding_constants_match_the_published_values() {
        assert_eq!(K_FOLD4, (0x1_5444_2BD4, 0x1_C6E4_1596));
        assert_eq!(K_FOLD1, (0x1_7519_97D0, 0x0_CCAA_009E));
        assert_eq!(K_64, 0x1_63CD_6124);
        assert_eq!(P_REFLECTED, 0x1_DB71_0641);
        assert_eq!(MU, 0x1_F701_1641);
    }

    #[test]
    fn every_tier_matches_the_table_at_every_length_and_offset() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..4096 + 16)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 56) as u8
            })
            .collect();
        for fold in FOLDS {
            for start in 0..16 {
                for len in 0..=4096 {
                    let s = &data[start..start + len];
                    assert_eq!(
                        crc32_on(fold, s),
                        !table_update(!0, s),
                        "fold={fold} start={start} len={len}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_bit_damage_changes_the_sum() {
        for fold in FOLDS {
            for len in [64usize, 200] {
                let data = vec![0xA5u8; len];
                let clean = crc32_on(fold, &data);
                for k in 0..data.len() {
                    for bit in 0..8 {
                        let mut mangled = data.clone();
                        mangled[k] ^= 1 << bit;
                        assert_ne!(
                            crc32_on(fold, &mangled),
                            clean,
                            "fold={fold}: flip at byte {k} bit {bit} of {len} undetected"
                        );
                    }
                }
            }
        }
    }
}
