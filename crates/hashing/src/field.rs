//! Arithmetic in the prime field GF(2^61 - 1).
//!
//! Every hash family and fingerprint in this workspace is built on polynomial
//! evaluation over a fixed prime field. We use the Mersenne prime
//! `P = 2^61 - 1` because reduction modulo a Mersenne prime needs only shifts
//! and adds, and because 61-bit residues multiply safely inside `u128`.
//!
//! The field size comfortably exceeds every domain we hash from (coordinate
//! indices are at most `2^40` in all experiments), which is what the k-wise
//! independence arguments require: a polynomial hash family is only k-wise
//! independent on domains no larger than the field.

/// The Mersenne prime 2^61 - 1.
pub const MERSENNE_P: u64 = (1u64 << 61) - 1;

/// An element of GF(2^61 - 1), kept in canonical reduced form `0 <= v < P`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Fp(u64);

impl Fp {
    /// The additive identity.
    pub const ZERO: Fp = Fp(0);
    /// The multiplicative identity.
    pub const ONE: Fp = Fp(1);

    /// Construct a field element, reducing the input modulo P.
    #[inline]
    pub fn new(v: u64) -> Self {
        Fp(reduce_u64(v))
    }

    /// Construct a field element from a value that is **already** a canonical
    /// residue in `[0, P)`, skipping the reduction of [`Fp::new`].
    ///
    /// Every stream coordinate index in this workspace is far below `P`
    /// (indices are at most `2^40` in all experiments), so the hot update
    /// paths use this constructor instead of re-reducing on every hash
    /// evaluation. The precondition is debug-asserted; in release builds a
    /// violating input would silently produce a non-canonical element, so
    /// callers must only pass values they can prove reduced.
    #[inline]
    pub fn from_reduced(v: u64) -> Self {
        debug_assert!(v < MERSENNE_P, "from_reduced requires a canonical residue, got {v}");
        Fp(v)
    }

    /// Construct from an arbitrary 128-bit value, reducing modulo P.
    #[inline]
    pub fn from_u128(v: u128) -> Self {
        Fp(reduce_u128(v))
    }

    /// The canonical representative in `[0, P)`.
    #[inline]
    pub fn value(self) -> u64 {
        self.0
    }

    /// Field addition.
    #[inline]
    #[allow(clippy::should_implement_trait)] // the `std::ops` impls below delegate here
    pub fn add(self, rhs: Fp) -> Fp {
        let mut s = self.0 + rhs.0; // < 2^62, no overflow
        if s >= MERSENNE_P {
            s -= MERSENNE_P;
        }
        Fp(s)
    }

    /// Field subtraction.
    #[inline]
    #[allow(clippy::should_implement_trait)] // the `std::ops` impls below delegate here
    pub fn sub(self, rhs: Fp) -> Fp {
        if self.0 >= rhs.0 {
            Fp(self.0 - rhs.0)
        } else {
            Fp(self.0 + MERSENNE_P - rhs.0)
        }
    }

    /// Field negation.
    #[inline]
    #[allow(clippy::should_implement_trait)] // the `std::ops` impls below delegate here
    pub fn neg(self) -> Fp {
        if self.0 == 0 {
            Fp(0)
        } else {
            Fp(MERSENNE_P - self.0)
        }
    }

    /// Field multiplication via u128 widening and Mersenne reduction.
    #[inline]
    #[allow(clippy::should_implement_trait)] // the `std::ops` impls below delegate here
    pub fn mul(self, rhs: Fp) -> Fp {
        Fp(mul_mod(self.0, rhs.0))
    }

    /// Fused multiply-add: `self · b + c` with a **single** Mersenne
    /// reduction, instead of the two reductions `mul` followed by `add`
    /// would perform.
    ///
    /// Safe because the unreduced sum is bounded: for canonical operands the
    /// product is at most `(P−1)²` and the addend at most `P−1`, so the
    /// `u128` accumulator stays below `2^122 + 2^61` (no overflow), and
    /// `reduce_u128` is exact on every `u128`. The result is the
    /// same canonical residue the unfused sequence produces — canonical
    /// representatives are unique, so the two are bit-identical (pinned by
    /// `mul_add_matches_mul_then_add` below). This is the inner step of
    /// [`horner`], the single hottest scalar kernel in the workspace.
    #[inline]
    pub fn mul_add(self, b: Fp, c: Fp) -> Fp {
        Fp(reduce_u128(self.0 as u128 * b.0 as u128 + c.0 as u128))
    }

    /// Exponentiation by squaring.
    pub fn pow(self, mut e: u64) -> Fp {
        let mut base = self;
        let mut acc = Fp::ONE;
        while e > 0 {
            if e & 1 == 1 {
                acc = acc.mul(base);
            }
            base = base.mul(base);
            e >>= 1;
        }
        acc
    }

    /// Exponentiation using a precomputed [`PowTable`] for this base.
    ///
    /// `self` must be the base the table was built from (debug-asserted);
    /// the cost is one field multiplication per non-zero 4-bit digit of the
    /// exponent instead of the ~61 squarings of [`Fp::pow`].
    #[inline]
    pub fn pow_with_table(self, table: &PowTable, e: u64) -> Fp {
        debug_assert_eq!(self, table.base(), "pow_with_table used with a mismatched table");
        table.pow(e)
    }

    /// Multiplicative inverse via Fermat's little theorem (`a^(P-2)`).
    ///
    /// Returns `None` for zero, which has no inverse.
    pub fn inv(self) -> Option<Fp> {
        if self.0 == 0 {
            None
        } else {
            Some(self.pow(MERSENNE_P - 2))
        }
    }

    /// True iff this is the additive identity.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl From<u64> for Fp {
    fn from(v: u64) -> Self {
        Fp::new(v)
    }
}

impl From<u32> for Fp {
    fn from(v: u32) -> Self {
        Fp::new(v as u64)
    }
}

impl std::ops::Add for Fp {
    type Output = Fp;
    fn add(self, rhs: Fp) -> Fp {
        Fp::add(self, rhs)
    }
}

impl std::ops::Sub for Fp {
    type Output = Fp;
    fn sub(self, rhs: Fp) -> Fp {
        Fp::sub(self, rhs)
    }
}

impl std::ops::Mul for Fp {
    type Output = Fp;
    fn mul(self, rhs: Fp) -> Fp {
        Fp::mul(self, rhs)
    }
}

impl std::ops::Neg for Fp {
    type Output = Fp;
    fn neg(self) -> Fp {
        Fp::neg(self)
    }
}

impl std::ops::AddAssign for Fp {
    fn add_assign(&mut self, rhs: Fp) {
        *self = Fp::add(*self, rhs);
    }
}

impl std::ops::MulAssign for Fp {
    fn mul_assign(&mut self, rhs: Fp) {
        *self = Fp::mul(*self, rhs);
    }
}

/// Number of 4-bit windows covering a full 64-bit exponent.
const POW_WINDOWS: usize = 16;
/// Number of digit values per 4-bit window.
const POW_DIGITS: usize = 16;

/// Precomputed powers of a fixed base `r`, supporting `r^e` in at most 15
/// field multiplications for any 64-bit exponent `e`.
///
/// The table stores `table[w][d] = r^(d · 16^w)` for every window
/// `w ∈ [0, 16)` and digit `d ∈ [0, 16)`. Writing the exponent in base 16 as
/// `e = Σ_w d_w · 16^w`, the law of exponents gives
/// `r^e = Π_w r^(d_w · 16^w) = Π_w table[w][d_w]`, so evaluating `r^e` costs
/// one multiplication per **non-zero** digit (≤ 15 after the first factor).
///
/// **Correctness argument.** Each row is built by induction:
/// `table[w][0] = 1 = r^0` and `table[w][d] = table[w][d-1] · step_w` where
/// `step_w = r^(16^w)`, so `table[w][d] = r^(d·16^w)` exactly; the next
/// window's step is `step_{w+1} = table[w][15] · step_w = r^(15·16^w + 16^w)
/// = r^(16^{w+1})`. All arithmetic is exact modular arithmetic in canonical
/// reduced form, so the windowed product equals [`Fp::pow`] bit for bit —
/// pinned by the `pow_table_matches_square_and_multiply` test below.
///
/// This is the hot-path replacement for the per-cell `r.pow(index)` in the
/// sparse-recovery fingerprint `Σ x_i · r^i`: sketches build one table per
/// fingerprint base at construction time (2 KiB, derived — not charged as
/// stored randomness) and amortise it over every stream update.
#[derive(Debug, Clone)]
pub struct PowTable {
    base: Fp,
    table: [[Fp; POW_DIGITS]; POW_WINDOWS],
}

impl PowTable {
    /// Precompute the windowed power table of `base`.
    pub fn new(base: Fp) -> Self {
        let mut table = [[Fp::ONE; POW_DIGITS]; POW_WINDOWS];
        let mut step = base; // r^(16^w), starting at w = 0
        for row in table.iter_mut() {
            for d in 1..POW_DIGITS {
                row[d] = row[d - 1].mul(step);
            }
            step = row[POW_DIGITS - 1].mul(step);
        }
        PowTable { base, table }
    }

    /// The base `r` this table was built from.
    #[inline]
    pub fn base(&self) -> Fp {
        self.base
    }

    /// Compute `base^e` from the table: one multiplication per non-zero
    /// 4-bit digit of `e`.
    #[inline]
    pub fn pow(&self, mut e: u64) -> Fp {
        let mut acc = Fp::ONE;
        let mut w = 0usize;
        while e != 0 {
            let d = (e & 0xF) as usize;
            if d != 0 {
                acc = acc.mul(self.table[w][d]);
            }
            e >>= 4;
            w += 1;
        }
        acc
    }

    /// The table entry `base^(d · 16^w)` — the per-window factor the lane
    /// kernels in [`crate::simd`] gather when evaluating several exponents at
    /// once (`d = 0` yields [`Fp::ONE`], so uniform lanes can multiply
    /// unconditionally without changing the result).
    #[inline]
    pub(crate) fn entry(&self, w: usize, d: usize) -> Fp {
        self.table[w][d]
    }
}

/// Reduce a `u64` modulo the Mersenne prime using shift-and-add.
#[inline]
fn reduce_u64(v: u64) -> u64 {
    // v = hi * 2^61 + lo, and 2^61 == 1 (mod P)
    let mut r = (v & MERSENNE_P) + (v >> 61);
    if r >= MERSENNE_P {
        r -= MERSENNE_P;
    }
    r
}

/// Reduce a `u128` modulo the Mersenne prime, exact on every `u128`, in
/// 64-bit arithmetic only (no `u128` compares or subtractions).
///
/// Split `v = a + 2^61·b + 2^122·c` with `a, b < 2^61` and `c < 2^6`; since
/// `2^61 ≡ 1`, `v ≡ a + b + c`, and `s = a + b + c < 2^62 + 2^6` fits a
/// `u64`. One more fold `r = (s mod 2^61) + ⌊s/2^61⌋ ≤ P + 2`, and one
/// conditional subtraction reaches `[0, P)`. That covers a full product of
/// canonical residues, a fused product-plus-addend (see [`Fp::mul_add`])
/// and the power-basis dot products of [`crate::simd::PolyBank`]. Shared
/// with the lane kernels in [`crate::simd`].
#[inline]
pub(crate) fn reduce_u128(v: u128) -> u64 {
    let (lo, hi) = (v as u64, (v >> 64) as u64);
    let s = (lo & MERSENNE_P) + (((lo >> 61) | (hi << 3)) & MERSENNE_P) + (hi >> 58);
    let r = (s & MERSENNE_P) + (s >> 61);
    if r >= MERSENNE_P {
        r - MERSENNE_P
    } else {
        r
    }
}

/// Multiply two reduced residues modulo the Mersenne prime.
#[inline]
pub fn mul_mod(a: u64, b: u64) -> u64 {
    reduce_u128((a as u128) * (b as u128))
}

/// Evaluate the polynomial with the given coefficients (constant term first)
/// at point `x`, using Horner's rule. This is the work-horse of every k-wise
/// independent hash family in this crate. Each step is the fused
/// [`Fp::mul_add`] — one reduction per coefficient instead of the two the
/// unfused `mul` + `add` sequence paid.
#[inline]
pub fn horner(coeffs: &[Fp], x: Fp) -> Fp {
    let mut acc = Fp::ZERO;
    for &c in coeffs.iter().rev() {
        acc = acc.mul_add(x, c);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slow_mul(a: u64, b: u64) -> u64 {
        ((a as u128 * b as u128) % (MERSENNE_P as u128)) as u64
    }

    #[test]
    fn constants() {
        assert_eq!(MERSENNE_P, 2305843009213693951);
        assert_eq!(Fp::ZERO.value(), 0);
        assert_eq!(Fp::ONE.value(), 1);
    }

    #[test]
    fn reduction_of_large_inputs() {
        assert_eq!(Fp::new(MERSENNE_P).value(), 0);
        assert_eq!(Fp::new(MERSENNE_P + 1).value(), 1);
        assert_eq!(Fp::new(u64::MAX).value(), u64::MAX % MERSENNE_P);
        assert_eq!(Fp::from_u128(u128::MAX).value(), (u128::MAX % MERSENNE_P as u128) as u64);
    }

    #[test]
    fn reduce_u128_matches_plain_remainder_on_edges_and_random_sweep() {
        let p = MERSENNE_P as u128;
        let edge = [
            0,
            1,
            p - 1,
            p,
            p + 1,
            2 * p,
            2 * p + 63,
            (1 << 64) - 1,
            1 << 64,
            (p - 1) * (p - 1) + (p - 1),
            p * p,
            (1 << 122) - 1,
            1 << 122,
            (p - 1) + 64 * (p - 1) * (p - 1),
            u128::MAX - 1,
            u128::MAX,
        ];
        for &v in &edge {
            assert_eq!(reduce_u128(v) as u128, v % p, "v={v:#x}");
        }
        let mut s = crate::seeds::SeedSequence::new(0xF01D);
        for _ in 0..5000 {
            let v = (s.next_u64() as u128) << 64 | s.next_u64() as u128;
            assert_eq!(reduce_u128(v) as u128, v % p, "v={v:#x}");
            // and the narrower inputs the kernels produce
            let w = v >> (s.next_u64() % 128);
            assert_eq!(reduce_u128(w) as u128, w % p, "w={w:#x}");
        }
    }

    #[test]
    fn add_sub_neg_roundtrip() {
        let a = Fp::new(123456789012345678);
        let b = Fp::new(987654321098765432);
        assert_eq!((a + b - b).value(), a.value());
        assert_eq!((a + (-a)).value(), 0);
        assert_eq!((Fp::ZERO - a).value(), a.neg().value());
    }

    #[test]
    fn mul_matches_reference() {
        let cases = [
            (0u64, 0u64),
            (1, MERSENNE_P - 1),
            (MERSENNE_P - 1, MERSENNE_P - 1),
            (123456789, 987654321),
            (1 << 60, (1 << 60) + 12345),
        ];
        for (a, b) in cases {
            assert_eq!(mul_mod(a, b), slow_mul(a, b), "a={a} b={b}");
        }
    }

    #[test]
    fn mul_add_matches_mul_then_add() {
        // The fused kernel must be bit-identical to the unfused reference on
        // the whole canonical range, including the P−1 edge residues where
        // the unreduced accumulator peaks at (P−1)² + (P−1).
        let edge = [0u64, 1, 2, MERSENNE_P - 2, MERSENNE_P - 1, 123456789, 1 << 60];
        for &a in &edge {
            for &b in &edge {
                for &c in &edge {
                    let (a, b, c) = (Fp::new(a), Fp::new(b), Fp::new(c));
                    assert_eq!(
                        a.mul_add(b, c),
                        a.mul(b).add(c),
                        "fused mul-add diverged at a={} b={} c={}",
                        a.value(),
                        b.value(),
                        c.value()
                    );
                }
            }
        }
        // a pseudo-random sweep on top of the edge lattice
        let mut state = 0x5EEDu64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state % MERSENNE_P
        };
        for _ in 0..2000 {
            let (a, b, c) = (Fp::new(next()), Fp::new(next()), Fp::new(next()));
            assert_eq!(a.mul_add(b, c), a.mul(b).add(c));
        }
    }

    #[test]
    fn pow_and_inverse() {
        let a = Fp::new(1234567891011);
        let inv = a.inv().expect("nonzero has inverse");
        assert_eq!((a * inv).value(), 1);
        assert!(Fp::ZERO.inv().is_none());
        // Fermat: a^(P-1) = 1
        assert_eq!(a.pow(MERSENNE_P - 1).value(), 1);
        assert_eq!(a.pow(0).value(), 1);
    }

    #[test]
    fn horner_matches_direct_evaluation() {
        // f(x) = 3 + 5x + 7x^2
        let coeffs = [Fp::new(3), Fp::new(5), Fp::new(7)];
        let x = Fp::new(11);
        let direct = Fp::new(3) + Fp::new(5) * x + Fp::new(7) * x * x;
        assert_eq!(horner(&coeffs, x), direct);
        // empty polynomial is identically zero
        assert_eq!(horner(&[], x), Fp::ZERO);
    }

    #[test]
    fn from_reduced_is_identity_on_canonical_residues() {
        for v in [0u64, 1, 12345, MERSENNE_P - 1] {
            assert_eq!(Fp::from_reduced(v), Fp::new(v));
        }
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn from_reduced_rejects_unreduced_input_in_debug() {
        let _ = Fp::from_reduced(MERSENNE_P);
    }

    #[test]
    fn pow_table_matches_square_and_multiply() {
        let bases = [Fp::new(2), Fp::new(123456789012345), Fp::new(MERSENNE_P - 1)];
        for base in bases {
            let table = PowTable::new(base);
            assert_eq!(table.base(), base);
            let exponents = [
                0u64,
                1,
                2,
                15,
                16,
                17,
                (1 << 40) - 1,
                1 << 40,
                0xDEAD_BEEF_CAFE_F00D,
                u64::MAX,
                MERSENNE_P - 1,
                MERSENNE_P - 2,
            ];
            for e in exponents {
                assert_eq!(
                    table.pow(e),
                    base.pow(e),
                    "windowed pow diverged at base {} exponent {e}",
                    base.value()
                );
                assert_eq!(base.pow_with_table(&table, e), base.pow(e));
            }
        }
    }

    #[test]
    fn pow_table_handles_zero_and_one_bases() {
        let zero = PowTable::new(Fp::ZERO);
        assert_eq!(zero.pow(0), Fp::ONE);
        assert_eq!(zero.pow(7), Fp::ZERO);
        let one = PowTable::new(Fp::ONE);
        assert_eq!(one.pow(u64::MAX), Fp::ONE);
    }

    #[test]
    fn distributivity_spot_check() {
        let a = Fp::new(999999999999);
        let b = Fp::new(888888888888);
        let c = Fp::new(777777777777);
        assert_eq!(a * (b + c), a * b + a * c);
    }
}
