//! Canonical-signed-digit (CSD) lowering of constant multipliers.
//!
//! The integer IDCT engine replaces every constant multiplication with a
//! shift-and-add network (Section V-B: "the multiplications are converted to
//! shift-and-add operations"). CSD is the standard minimal-adder recoding: a
//! constant is expressed as a sum of signed powers of two with no two
//! adjacent non-zero digits, so multiplying by it costs
//! `(nonzero digits - 1)` adders/subtractors and up to `nonzero digits`
//! shifters.
//!
//! [`engine_resources`] aggregates these costs over a whole N-point
//! partial-butterfly IDCT, which is how the Table IV resource rows for
//! `int-DCT-W` are produced.

/// A single signed-power-of-two term of a CSD decomposition:
/// `sign * 2^shift` with `sign` in `{-1, +1}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsdTerm {
    /// +1 or -1.
    pub sign: i8,
    /// Power of two.
    pub shift: u32,
}

/// The canonical-signed-digit decomposition of a non-negative constant.
///
/// # Example
///
/// ```
/// use compaqt_dsp::csd::Csd;
///
/// // 83 = 64 + 16 + 2 + 1 in binary, but CSD finds 83 = 64 + 16 + 4 - 1.
/// let csd = Csd::of(83);
/// assert_eq!(csd.reconstruct(), 83);
/// assert!(csd.adder_count() <= 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csd {
    value: u32,
    terms: Vec<CsdTerm>,
}

impl Csd {
    /// Computes the CSD form of `value`.
    pub fn of(value: u32) -> Self {
        let mut terms = Vec::new();
        // Classic recoding: scan bits of 3v and v; digit = bit(3v) - bit(v).
        let v = u64::from(value);
        let v3 = 3 * v;
        let bits = 64 - v3.leading_zeros();
        for i in 1..bits {
            let b3 = (v3 >> i) & 1;
            let b1 = (v >> i) & 1;
            match b3 as i64 - b1 as i64 {
                1 => terms.push(CsdTerm { sign: 1, shift: i - 1 }),
                -1 => terms.push(CsdTerm { sign: -1, shift: i - 1 }),
                _ => {}
            }
        }
        Csd { value, terms }
    }

    /// The constant this decomposition represents.
    pub fn value(&self) -> u32 {
        self.value
    }

    /// The signed power-of-two terms.
    pub fn terms(&self) -> &[CsdTerm] {
        &self.terms
    }

    /// Re-evaluates the decomposition (used by tests and verification).
    pub fn reconstruct(&self) -> u32 {
        let sum: i64 = self.terms.iter().map(|t| i64::from(t.sign) * (1i64 << t.shift)).sum();
        sum as u32
    }

    /// Number of adders/subtractors needed to multiply by this constant:
    /// one fewer than the number of non-zero digits (zero for powers of two
    /// and for zero itself).
    pub fn adder_count(&self) -> usize {
        self.terms.len().saturating_sub(1)
    }

    /// Number of non-trivial shifters (terms with `shift > 0`).
    ///
    /// In silicon a fixed shift is just wiring, but following the paper we
    /// report shifter *instances* as Table IV does.
    pub fn shifter_count(&self) -> usize {
        self.terms.iter().filter(|t| t.shift > 0).count()
    }
}

/// Hardware resource totals for a transform engine (one Table IV row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineResources {
    /// Hardware multiplier instances.
    pub multipliers: usize,
    /// Adder/subtractor instances.
    pub adders: usize,
    /// Shifter instances.
    pub shifters: usize,
}

impl EngineResources {
    /// Resources of the floating/fixed-point `DCT-W` IDCT engine for the
    /// given window size (Loeffler-style minimal-multiplier factorization;
    /// Table IV rows 1 and 3).
    ///
    /// # Panics
    ///
    /// Panics if `ws` is not 8 or 16 (the window sizes the paper evaluates
    /// for the multiplier-based engine).
    pub fn dct_w(ws: usize) -> Self {
        match ws {
            8 => EngineResources { multipliers: 11, adders: 29, shifters: 0 },
            16 => EngineResources { multipliers: 26, adders: 81, shifters: 0 },
            _ => panic!("DCT-W engine resources are defined for WS=8/16, got {ws}"),
        }
    }

    /// Resources reported by the paper for the multiplierless
    /// `int-DCT-W` IDCT engine (Table IV rows 2 and 4).
    ///
    /// # Panics
    ///
    /// Panics if `ws` is not 8 or 16.
    pub fn int_dct_w_paper(ws: usize) -> Self {
        match ws {
            8 => EngineResources { multipliers: 0, adders: 50, shifters: 26 },
            16 => EngineResources { multipliers: 0, adders: 186, shifters: 128 },
            _ => panic!("int-DCT-W paper resources are defined for WS=8/16, got {ws}"),
        }
    }

    /// Best available resource numbers for an `int-DCT-W` engine: the
    /// paper's synthesized counts for WS=8/16, our CSD derivation for the
    /// other supported sizes.
    ///
    /// # Panics
    ///
    /// Panics for window sizes outside 4/8/16/32/64.
    pub fn int_dct_w(ws: usize) -> Self {
        match ws {
            8 | 16 => EngineResources::int_dct_w_paper(ws),
            4 | 32 | 64 => engine_resources(ws, false),
            _ => panic!("int-DCT-W engines exist for WS in 4/8/16/32/64, got {ws}"),
        }
    }
}

/// Derives the shift-add resource totals of an N-point partial-butterfly
/// integer IDCT from first principles.
///
/// The engine follows the HEVC even/odd decomposition: the odd half is an
/// `N/2 x N/2` constant-matrix multiply whose constants are lowered through
/// CSD; the even half recurses down to the trivial 2-point butterfly; each
/// decomposition level adds `N` reconstruction adders. Constant multiplies
/// by identical constants within one output column share hardware only when
/// `share_constants` is set (a common optimization in published designs).
///
/// The result lands in the same regime as the paper's Table IV counts; the
/// exact numbers depend on subexpression-sharing choices, so
/// [`EngineResources::int_dct_w_paper`] is what the Table IV harness prints
/// alongside this derivation.
pub fn engine_resources(n: usize, share_constants: bool) -> EngineResources {
    assert!(
        crate::intdct::SUPPORTED_SIZES.contains(&n),
        "engine resources defined for N in {:?}",
        crate::intdct::SUPPORTED_SIZES
    );
    let t = crate::intdct::IntDct::new(n).expect("size validated above");
    let mut res = EngineResources::default();
    resources_rec(&t, n, share_constants, &mut res);
    res
}

fn resources_rec(t: &crate::intdct::IntDct, n: usize, share: bool, res: &mut EngineResources) {
    if n == 2 {
        // 2-point butterfly: two adders, no constants beyond +/-64 (wiring).
        res.adders += 2;
        return;
    }
    let full = t.len();
    let stride = full / n;
    // Odd half: rows 1,3,5,.. of the n-point matrix, columns 0..n/2.
    let half = n / 2;
    for j in 0..half {
        let k = (2 * j + 1) * stride;
        let mut seen: Vec<u32> = Vec::new();
        for i in 0..half {
            let c = t.coefficient(k, i).unsigned_abs();
            if c == 0 {
                continue;
            }
            let is_new = !seen.contains(&c);
            if is_new {
                seen.push(c);
            }
            if share && !is_new {
                // Shared network: reuse the product, no new resources.
                continue;
            }
            let csd = Csd::of(c);
            res.adders += csd.adder_count();
            res.shifters += csd.shifter_count();
        }
        // Accumulating half products into one output needs half-1 adders.
        res.adders += half - 1;
    }
    // Butterfly reconstruction stage: n adders (n/2 sums + n/2 differences).
    res.adders += n;
    resources_rec(t, half, share, res);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csd_reconstructs_all_hevc_constants() {
        // 64 covers the full constant family: its even rows are exactly
        // the 32-point (normative HEVC) matrix, its odd rows add the
        // VVC-style extension constants.
        for c in crate::intdct::IntDct::new(64).unwrap().distinct_constants() {
            let csd = Csd::of(c as u32);
            assert_eq!(csd.reconstruct(), c as u32, "constant {c}");
        }
    }

    #[test]
    fn csd_has_no_adjacent_nonzero_digits() {
        for v in 1u32..=1024 {
            let csd = Csd::of(v);
            let mut shifts: Vec<u32> = csd.terms().iter().map(|t| t.shift).collect();
            shifts.sort_unstable();
            for w in shifts.windows(2) {
                assert!(w[1] > w[0] + 1, "value {v}: adjacent digits {shifts:?}");
            }
        }
    }

    #[test]
    fn csd_of_power_of_two_needs_no_adders() {
        for p in 0..12 {
            let csd = Csd::of(1 << p);
            assert_eq!(csd.adder_count(), 0);
            assert_eq!(csd.reconstruct(), 1 << p);
        }
    }

    #[test]
    fn csd_is_minimal_for_known_cases() {
        // 83 = 64+16+4-1 -> 4 digits, 3 adders (binary would also need 3).
        assert_eq!(Csd::of(83).adder_count(), 3);
        // 90 = 64+32-8+2 -> 3 adders; binary 1011010 has 4 ones -> 3 adds too.
        assert_eq!(Csd::of(90).adder_count(), 3);
        // 64 is a pure shift.
        assert_eq!(Csd::of(64).adder_count(), 0);
    }

    #[test]
    fn derived_resources_are_multiplierless() {
        for n in [4, 8, 16, 32, 64] {
            let res = engine_resources(n, true);
            assert_eq!(res.multipliers, 0);
            assert!(res.adders > 0);
        }
    }

    #[test]
    fn derived_resources_scale_with_window() {
        let r8 = engine_resources(8, true);
        let r16 = engine_resources(16, true);
        let r32 = engine_resources(32, true);
        assert!(r16.adders > r8.adders);
        assert!(r32.adders > 2 * r16.adders);
    }

    #[test]
    fn derived_ws8_brackets_paper_count() {
        // Paper: 50 adders / 26 shifters for WS=8, from the hand-optimized
        // shift-add design of its reference [68] which shares common
        // subexpressions across outputs. Our naive per-product CSD lowering
        // is an upper bound; it must sit above the paper count but within
        // the same small-engine regime (< 2x).
        let r = engine_resources(8, false);
        let paper = EngineResources::int_dct_w_paper(8);
        assert!(r.adders >= paper.adders, "derived {} vs paper {}", r.adders, paper.adders);
        assert!(r.adders < 2 * paper.adders, "derived {} vs paper {}", r.adders, paper.adders);
    }

    #[test]
    fn paper_table_iv_constants() {
        let d8 = EngineResources::dct_w(8);
        assert_eq!((d8.multipliers, d8.adders, d8.shifters), (11, 29, 0));
        let i16 = EngineResources::int_dct_w_paper(16);
        assert_eq!((i16.multipliers, i16.adders, i16.shifters), (0, 186, 128));
    }
}
