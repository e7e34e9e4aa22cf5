//! Lane-parallel Mersenne-61 field kernels for the batched update path.
//!
//! Every structure in the workspace bottoms out in the same scalar kernels —
//! k-wise polynomial hashing ([`crate::field::horner`]) and windowed
//! fingerprint powers ([`PowTable::pow`]) over GF(2^61 − 1). The batched
//! walks already present updates in arrays, so this module evaluates them
//! [`LANES`] at a time:
//!
//! * fixed-width kernels on [`Lanes`] — [`reduce_lanes`], [`mul_mod_lanes`],
//!   [`mul_add_mod_lanes`], [`horner_lanes`], [`pow_lanes`];
//! * slice-level drivers with a scalar tail — [`horner_many`], [`pow_many`],
//!   [`mul_mod_many`] — which is what [`crate::KWiseHash::hash_keys`] and the
//!   sketch crates call;
//! * [`PolyBank`], the transposed rows×keys variant: many polynomials (the
//!   AMS sign hashes, the CountSketch bucket and sign rows) evaluated at one
//!   key, lanes running across *polynomials* instead of keys. It evaluates
//!   in the power basis — the key's powers once per key, then one `u128`
//!   dot product and one Mersenne fold per polynomial — instead of one
//!   reduction per Horner step.
//!
//! # Backends, and why both are bit-identical
//!
//! The default backend is portable: each lane is an independent
//! `u128`-widening multiply followed by the same Mersenne reduction the
//! scalar path uses (`field::reduce_u128`, 64-bit operations only). Eight
//! independent dependency chains break the serial multiply→reduce latency
//! chain that bounds scalar Horner, so this already speeds up the kernel on
//! any out-of-order core, and the fixed-trip-count inner loops are written
//! so LLVM can unroll (and, where profitable, auto-vectorize) them.
//!
//! The `simd` cargo feature adds an explicitly multiversioned x86-64
//! backend: the same kernels in a 32-bit-limb formulation (no `u128`
//! carries, so the compiler lowers the lane multiplies to packed `vpmuludq`
//! under AVX2), compiled inside `#[target_feature(enable = "avx2")]`
//! wrappers and selected once per slice-level call by runtime CPU
//! detection. [`PolyBank`] has no AVX2 variant: its power basis pays one
//! reduction per polynomial, and an AVX2 Horner bank (one limb reduction
//! per coefficient, four lanes per packed multiply) did not beat it end to
//! end. The public API is identical with or without the feature.
//!
//! Correctness is differential, not analytical trust: every kernel produces
//! the **canonical** residue in `[0, P)`, and canonical representatives are
//! unique — so portable lanes, AVX2 lanes, the power basis and the scalar
//! path must agree bit for bit. The 32-bit-limb derivation (with overflow
//! bounds) is documented at `mul_add_lane_limb` and the power-basis `u128`
//! accumulation bound at `FOLD_EVERY` (both private, in this file); the
//! property tests in this module and in `tests/properties.rs` pin
//! lane-vs-scalar equality over the full canonical range including the
//! `P − 1` edge residues and every remainder tail length.

use crate::field::{reduce_u128, Fp, PowTable, MERSENNE_P};

/// Number of field elements a lane kernel processes per step.
///
/// Eight 64-bit lanes fill one AVX-512 register or two AVX2 registers, and —
/// just as importantly for the portable backend — give the scheduler eight
/// independent multiply→reduce chains to overlap.
pub const LANES: usize = 8;

/// A register-shaped group of [`LANES`] canonical residues (each `< P`).
pub type Lanes = [u64; LANES];

/// The scalar fused multiply-add each portable lane runs:
/// `(a·b + c) mod P` via `u128` widening, exactly as [`Fp::mul_add`].
#[inline(always)]
fn mul_add_lane_u128(a: u64, b: u64, c: u64) -> u64 {
    reduce_u128(a as u128 * b as u128 + c as u128)
}

/// The 32-bit-limb fused multiply-add: `(a·b + c) mod P` for canonical
/// `a, b, c < P`, computed without any `u128` arithmetic so the lane loops
/// vectorize to packed 32×32→64 multiplies (`vpmuludq`) under AVX2.
///
/// Derivation and bounds. Split `a = a_lo + 2^32·a_hi` (so `a_hi < 2^29`)
/// and likewise `b`; then `a·b = ll + 2^32·(lh + hl) + 2^64·hh` with
/// `ll < 2^64`, `m = lh + hl < 2^62`, `hh < 2^58` — every partial fits `u64`.
/// Using `2^61 ≡ 1` (so `2^64 ≡ 8` and `2^32·m ≡ ((m mod 2^29)·2^32 +
/// ⌊m/2^29⌋)` because `2^32·2^29 = 2^61`):
///
/// ```text
/// s = (ll mod 2^61) + ⌊ll/2^61⌋ + (m mod 2^29)·2^32 + ⌊m/2^29⌋ + 8·hh + c
///   < 2^61 + 8 + 2^61 + 2^33 + 2^61 + 2^61  <  2^64   (no overflow)
/// ```
///
/// One fold `r = (s mod 2^61) + ⌊s/2^61⌋ ≤ (P−1) + 7 < 2P`, so a single
/// conditional subtraction lands in canonical `[0, P)` — the same residue
/// [`mul_add_lane_u128`] computes, hence bit-identical.
#[cfg_attr(not(all(feature = "simd", target_arch = "x86_64")), allow(dead_code))]
#[inline(always)]
fn mul_add_lane_limb(a: u64, b: u64, c: u64) -> u64 {
    const LO32: u64 = 0xFFFF_FFFF;
    let (a_lo, a_hi) = (a & LO32, a >> 32);
    let (b_lo, b_hi) = (b & LO32, b >> 32);
    let ll = a_lo * b_lo;
    let m = a_lo * b_hi + a_hi * b_lo;
    let hh = a_hi * b_hi;
    let s = (ll & MERSENNE_P) + (ll >> 61) + ((m & 0x1FFF_FFFF) << 32) + (m >> 29) + (hh << 3) + c;
    let r = (s & MERSENNE_P) + (s >> 61);
    if r >= MERSENNE_P {
        r - MERSENNE_P
    } else {
        r
    }
}

/// Reduce each lane of arbitrary `u64` values to its canonical residue,
/// using the same shift-and-add fold as the scalar [`Fp::new`].
#[inline]
pub fn reduce_lanes(v: &Lanes) -> Lanes {
    let mut out = [0u64; LANES];
    for l in 0..LANES {
        let r = (v[l] & MERSENNE_P) + (v[l] >> 61);
        out[l] = if r >= MERSENNE_P { r - MERSENNE_P } else { r };
    }
    out
}

/// Lane-wise field multiplication of canonical residues: `out[l] = a[l]·b[l]
/// mod P`. Portable reference kernel (the `simd` backend runs the same math
/// in 32-bit limbs — see the module docs).
#[inline]
pub fn mul_mod_lanes(a: &Lanes, b: &Lanes) -> Lanes {
    let mut out = [0u64; LANES];
    for l in 0..LANES {
        out[l] = mul_add_lane_u128(a[l], b[l], 0);
    }
    out
}

/// Lane-wise fused multiply-add of canonical residues:
/// `out[l] = (a[l]·b[l] + c[l]) mod P`, one reduction per lane.
#[inline]
pub fn mul_add_mod_lanes(a: &Lanes, b: &Lanes, c: &Lanes) -> Lanes {
    let mut out = [0u64; LANES];
    for l in 0..LANES {
        out[l] = mul_add_lane_u128(a[l], b[l], c[l]);
    }
    out
}

/// Evaluate one polynomial (constant term first, as in
/// [`crate::field::horner`]) at [`LANES`] points simultaneously. Each lane
/// runs the identical fused Horner recurrence, so every lane equals the
/// scalar `horner(coeffs, x)` bit for bit.
#[inline]
pub fn horner_lanes(coeffs: &[Fp], x: &Lanes) -> Lanes {
    let mut acc = [0u64; LANES];
    for &c in coeffs.iter().rev() {
        let cv = c.value();
        for l in 0..LANES {
            acc[l] = mul_add_lane_u128(acc[l], x[l], cv);
        }
    }
    acc
}

/// Windowed exponentiation of the table's base at [`LANES`] exponents
/// simultaneously: `out[l] = base^(e[l])`.
///
/// Unlike the scalar [`PowTable::pow`], which skips zero digits, the lanes
/// multiply unconditionally by the gathered window factor (`table[w][0]` is
/// exactly `1`, so the product is unchanged) — uniform control flow across
/// lanes, identical canonical results. The window count is driven by the OR
/// of all lane exponents, so no lane terminates early.
#[inline]
pub fn pow_lanes(table: &PowTable, e: &Lanes) -> Lanes {
    let mut acc = [1u64; LANES];
    let mut all = e.iter().fold(0u64, |a, &v| a | v);
    let mut w = 0usize;
    while all != 0 {
        let mut factors = [0u64; LANES];
        for l in 0..LANES {
            let d = ((e[l] >> (4 * w)) & 0xF) as usize;
            factors[l] = table.entry(w, d).value();
        }
        for l in 0..LANES {
            acc[l] = mul_add_lane_u128(acc[l], factors[l], 0);
        }
        all >>= 4;
        w += 1;
    }
    acc
}

// ---------------------------------------------------------------------------
// Slice-level drivers: LANES-wide main loop + scalar tail, behind one
// dispatch point per call. These are what the sketch/core batch paths use.
// ---------------------------------------------------------------------------

#[inline(always)]
fn horner_many_with(
    mul_add: impl Fn(u64, u64, u64) -> u64 + Copy,
    coeffs: &[Fp],
    keys: &[u64],
    out: &mut [u64],
) {
    let whole = keys.len() - keys.len() % LANES;
    for (xs, os) in keys[..whole].chunks_exact(LANES).zip(out[..whole].chunks_exact_mut(LANES)) {
        let mut acc = [0u64; LANES];
        for &c in coeffs.iter().rev() {
            let cv = c.value();
            for l in 0..LANES {
                debug_assert!(xs[l] < MERSENNE_P, "horner_many requires canonical keys");
                acc[l] = mul_add(acc[l], xs[l], cv);
            }
        }
        os.copy_from_slice(&acc);
    }
    for (&x, o) in keys[whole..].iter().zip(out[whole..].iter_mut()) {
        *o = crate::field::horner(coeffs, Fp::from_reduced(x)).value();
    }
}

#[inline(always)]
fn pow_many_with(
    mul: impl Fn(u64, u64, u64) -> u64 + Copy,
    table: &PowTable,
    exps: &[u64],
    out: &mut [u64],
) {
    let whole = exps.len() - exps.len() % LANES;
    for (es, os) in exps[..whole].chunks_exact(LANES).zip(out[..whole].chunks_exact_mut(LANES)) {
        let mut acc = [1u64; LANES];
        let mut all = es.iter().fold(0u64, |a, &v| a | v);
        let mut w = 0usize;
        while all != 0 {
            for l in 0..LANES {
                let d = ((es[l] >> (4 * w)) & 0xF) as usize;
                acc[l] = mul(acc[l], table.entry(w, d).value(), 0);
            }
            all >>= 4;
            w += 1;
        }
        os.copy_from_slice(&acc);
    }
    for (&e, o) in exps[whole..].iter().zip(out[whole..].iter_mut()) {
        *o = table.pow(e).value();
    }
}

#[inline(always)]
fn mul_mod_many_with(
    mul: impl Fn(u64, u64, u64) -> u64 + Copy,
    a: &[u64],
    b: &[u64],
    out: &mut [u64],
) {
    for ((&x, &y), o) in a.iter().zip(b.iter()).zip(out.iter_mut()) {
        *o = mul(x, y, 0);
    }
}

/// Explicitly multiversioned x86-64 wrappers: the same generic drivers,
/// instantiated with the 32-bit-limb lane kernel and compiled with AVX2
/// enabled so the fixed-width inner loops lower to packed `vpmuludq`
/// multiplies. Selected at runtime by [`avx2_available`]; never compiled
/// without the `simd` feature, which keeps the default build `unsafe`-free.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx2 {
    #![allow(unsafe_code)]

    use super::*;

    /// # Safety
    /// Caller must have verified AVX2 support (see [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn horner_many(coeffs: &[Fp], keys: &[u64], out: &mut [u64]) {
        horner_many_with(mul_add_lane_limb, coeffs, keys, out);
    }

    /// # Safety
    /// Caller must have verified AVX2 support (see [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn pow_many(table: &PowTable, exps: &[u64], out: &mut [u64]) {
        pow_many_with(mul_add_lane_limb, table, exps, out);
    }

    /// # Safety
    /// Caller must have verified AVX2 support (see [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mul_mod_many(a: &[u64], b: &[u64], out: &mut [u64]) {
        mul_mod_many_with(mul_add_lane_limb, a, b, out);
    }
}

/// Runtime AVX2 detection (cached by `std` behind an atomic load), checked
/// once per slice-level batch call, not per lane group.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[inline]
fn avx2_available() -> bool {
    std::is_x86_feature_detected!("avx2")
}

/// Evaluate the polynomial at every key in `keys` (all canonical residues),
/// writing canonical hash values into `out`. Bit-identical to calling
/// `horner(coeffs, Fp::from_reduced(key))` per key; `keys.len()` need not be
/// a multiple of [`LANES`] — the remainder runs through the scalar kernel.
#[cfg_attr(feature = "simd", allow(unsafe_code))]
pub fn horner_many(coeffs: &[Fp], keys: &[u64], out: &mut [u64]) {
    assert_eq!(keys.len(), out.len(), "horner_many output length mismatch");
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if avx2_available() {
        // SAFETY: dispatch is guarded by runtime AVX2 detection.
        unsafe { avx2::horner_many(coeffs, keys, out) };
        return;
    }
    horner_many_with(mul_add_lane_u128, coeffs, keys, out);
}

/// Compute `base^e` for every exponent in `exps` from the windowed table,
/// writing canonical residues into `out`. Bit-identical to [`PowTable::pow`]
/// per exponent, any slice length.
#[cfg_attr(feature = "simd", allow(unsafe_code))]
pub fn pow_many(table: &PowTable, exps: &[u64], out: &mut [u64]) {
    assert_eq!(exps.len(), out.len(), "pow_many output length mismatch");
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if avx2_available() {
        // SAFETY: dispatch is guarded by runtime AVX2 detection.
        unsafe { avx2::pow_many(table, exps, out) };
        return;
    }
    pow_many_with(mul_add_lane_u128, table, exps, out);
}

/// Element-wise field products of canonical residues:
/// `out[i] = a[i]·b[i] mod P`. Used to fold per-update signed deltas into
/// batched fingerprint powers.
#[cfg_attr(feature = "simd", allow(unsafe_code))]
pub fn mul_mod_many(a: &[u64], b: &[u64], out: &mut [u64]) {
    assert!(a.len() == b.len() && a.len() == out.len(), "mul_mod_many length mismatch");
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if avx2_available() {
        // SAFETY: dispatch is guarded by runtime AVX2 detection.
        unsafe { avx2::mul_mod_many(a, b, out) };
        return;
    }
    mul_mod_many_with(mul_add_lane_u128, a, b, out);
}

/// Products of canonical residues one `u128` accumulator takes on top of a
/// canonical residue before [`PolyBank::eval_key`] must fold it.
///
/// Bound. A product of canonical residues is at most
/// `(P−1)² = 2^122 − 2^63 + 4`, so an accumulator holding a residue `≤ P−1`
/// plus 64 products is at most
///
/// ```text
/// (P−1) + 64·(P−1)² = (2^61 − 2) + 2^128 − 2^69 + 2^8  <  2^128
/// ```
///
/// while 65 products can pass `2^128` (`65·(P−1)² > 2^128`).
/// `field::reduce_u128` is exact on every `u128`, so one fold per 64
/// products lands on the canonical residue.
const FOLD_EVERY: usize = 64;

/// `acc[l] + Σ_t c_t[l]·p_t` over at most [`FOLD_EVERY`] terms, widened to
/// `u128` and folded once to the canonical residue per lane.
#[inline(always)]
fn fold_terms<'a>(acc: &Lanes, terms: impl ExactSizeIterator<Item = (&'a Lanes, u64)>) -> Lanes {
    debug_assert!(terms.len() <= FOLD_EVERY, "u128 accumulator bound exceeded");
    let mut wide = acc.map(u128::from);
    for (c, p) in terms {
        for l in 0..LANES {
            wide[l] += c[l] as u128 * p as u128;
        }
    }
    wide.map(reduce_u128)
}

/// The rows×keys variant, transposed: a bank of same-degree polynomials laid
/// out coefficient-major so one key can be evaluated against **all** of them
/// with lanes running across polynomials.
///
/// This is the shape of the AMS table walk — `groups × group_size` 4-wise
/// sign polynomials all evaluated at each update's coordinate — and of the
/// CountSketch bucket and sign rows, where the per-key loop over hash
/// functions, not the per-hash loop over keys, is the hot axis. Building a
/// bank costs one pass over the coefficient vectors (`degree × count`
/// copies), amortised over every key in a batch.
///
/// A bank evaluates in the power basis, not Horner's: the key's powers
/// `x^j` are computed once per key and shared by every polynomial, and each
/// polynomial is then one `u128` dot product `c_0 + Σ_j c_j·x^j` with a
/// single Mersenne fold (one more per 64 products beyond the first 64, a
/// degree no caller uses; the `u128` bound is proved at the private
/// `FOLD_EVERY`). A `k`-coefficient Horner pays `k` reductions per
/// polynomial; the power basis pays one, plus `k − 1` per key. Canonical
/// residues are unique, so a bank equals scalar Horner bit for bit, with or
/// without the `simd` feature.
#[derive(Debug, Clone)]
pub struct PolyBank {
    count: usize,
    degree: usize,
    /// Lane groups per coefficient row: `count / LANES` rounded up, at
    /// least 1.
    chunks: usize,
    /// `coeffs[j * chunks + c][l]` = coefficient `j` of polynomial
    /// `c·LANES + l` (constant term first); the pad lanes hold zero
    /// polynomials.
    coeffs: Vec<Lanes>,
}

impl PolyBank {
    /// Build a bank from polynomials' coefficient slices (constant term
    /// first, as [`crate::KWiseHash::coefficients`] exposes them). All
    /// polynomials must share one degree; the bank may be empty.
    pub fn new<'a, I>(polys: I) -> Self
    where
        I: IntoIterator<Item = &'a [Fp]>,
    {
        let polys: Vec<&[Fp]> = polys.into_iter().collect();
        let count = polys.len();
        let degree = polys.first().map_or(0, |p| p.len());
        let chunks = count.div_ceil(LANES).max(1);
        let mut coeffs = vec![[0u64; LANES]; degree * chunks];
        for (h, poly) in polys.iter().enumerate() {
            assert_eq!(poly.len(), degree, "PolyBank polynomials must share a degree");
            for (j, c) in poly.iter().enumerate() {
                coeffs[j * chunks + h / LANES][h % LANES] = c.value();
            }
        }
        PolyBank { count, degree, chunks, coeffs }
    }

    /// Number of polynomials in the bank.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Coefficients per polynomial (the independence parameter k).
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Evaluate every polynomial at `key` (a canonical residue), writing one
    /// canonical hash value per polynomial into `out` (length ≥
    /// [`PolyBank::count`]). Bit-identical to running scalar Horner per
    /// polynomial.
    pub fn eval_key(&self, key: u64, out: &mut [u64]) {
        assert!(out.len() >= self.count, "PolyBank output buffer too small");
        debug_assert!(key < MERSENNE_P, "PolyBank requires canonical keys");
        // x^j for j in [0, degree), shared by every polynomial; on the stack
        // for the degrees the sketches use
        let mut stack = [0u64; 16];
        let mut heap = Vec::new();
        let powers: &mut [u64] = if self.degree <= stack.len() {
            &mut stack[..self.degree]
        } else {
            heap.resize(self.degree, 0);
            &mut heap
        };
        let mut power = 1;
        for p in powers.iter_mut() {
            *p = power;
            power = crate::field::mul_mod(power, key);
        }
        for chunk in 0..self.chunks {
            let row = |j: usize| &self.coeffs[j * self.chunks + chunk];
            let mut acc = if self.degree == 0 { [0; LANES] } else { *row(0) };
            let mut first = 1;
            while first < self.degree {
                let last = (first + FOLD_EVERY).min(self.degree);
                acc = fold_terms(&acc, (first..last).map(|j| (row(j), powers[j])));
                first = last;
            }
            // whole lane groups copy at a constant length; only the last
            // group of a count that LANES does not divide is partial
            let base = chunk * LANES;
            match self.count.saturating_sub(base) {
                take if take >= LANES => out[base..base + LANES].copy_from_slice(&acc),
                take => out[base..base + take].copy_from_slice(&acc[..take]),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::{horner, mul_mod};
    use crate::seeds::SeedSequence;

    const P1: u64 = MERSENNE_P - 1;

    fn edge_and_random_values(n: usize, seed: u64) -> Vec<u64> {
        let mut vals = vec![0u64, 1, 2, 0xFFFF_FFFF, 1 << 32, P1 - 1, P1];
        let mut s = SeedSequence::new(seed);
        while vals.len() < n {
            vals.push(s.next_below(MERSENNE_P));
        }
        vals.truncate(n);
        vals
    }

    #[test]
    fn limb_kernel_matches_u128_kernel_on_edges_and_random_sweep() {
        let edge = [0u64, 1, 2, 0xFFFF_FFFF, 1 << 32, (1 << 61) - 3, P1];
        for &a in &edge {
            for &b in &edge {
                for &c in &edge {
                    assert_eq!(
                        mul_add_lane_limb(a, b, c),
                        mul_add_lane_u128(a, b, c),
                        "limb kernel diverged at a={a} b={b} c={c}"
                    );
                }
            }
        }
        let mut s = SeedSequence::new(0x11B);
        for _ in 0..5000 {
            let (a, b, c) =
                (s.next_below(MERSENNE_P), s.next_below(MERSENNE_P), s.next_below(MERSENNE_P));
            assert_eq!(mul_add_lane_limb(a, b, c), mul_add_lane_u128(a, b, c));
        }
    }

    #[test]
    fn reduce_lanes_matches_scalar_reduction() {
        let v: Lanes = [0, 1, MERSENNE_P, MERSENNE_P + 1, u64::MAX, P1, 1 << 62, 42];
        let reduced = reduce_lanes(&v);
        for l in 0..LANES {
            assert_eq!(reduced[l], Fp::new(v[l]).value());
        }
    }

    #[test]
    fn mul_lanes_match_scalar_mul_mod() {
        let a: Lanes = [0, 1, P1, P1, 123456789, 1 << 60, P1 - 1, 7];
        let b: Lanes = [P1, P1, P1, 2, 987654321, (1 << 60) + 12345, P1 - 1, 11];
        let prod = mul_mod_lanes(&a, &b);
        for l in 0..LANES {
            assert_eq!(prod[l], mul_mod(a[l], b[l]), "lane {l}");
        }
        let c: Lanes = [P1, 0, P1, 1, 5, P1, P1 - 1, 13];
        let fused = mul_add_mod_lanes(&a, &b, &c);
        for l in 0..LANES {
            assert_eq!(
                fused[l],
                Fp::from_reduced(a[l])
                    .mul_add(Fp::from_reduced(b[l]), Fp::from_reduced(c[l]))
                    .value(),
                "fused lane {l}"
            );
        }
    }

    #[test]
    fn horner_lanes_and_many_match_scalar_for_every_tail_length() {
        let mut s = SeedSequence::new(7);
        for k in [1usize, 2, 4, 16, 32] {
            let coeffs: Vec<Fp> = (0..k).map(|_| Fp::new(s.next_below(MERSENNE_P))).collect();
            for len in 0..(3 * LANES + 1) {
                let keys = edge_and_random_values(len, 0xABC + len as u64);
                let mut out = vec![0u64; len];
                horner_many(&coeffs, &keys, &mut out);
                for (i, &key) in keys.iter().enumerate() {
                    assert_eq!(
                        out[i],
                        horner(&coeffs, Fp::from_reduced(key)).value(),
                        "k={k} len={len} i={i}"
                    );
                }
            }
            let x: Lanes = edge_and_random_values(LANES, 99).try_into().unwrap();
            let lanes = horner_lanes(&coeffs, &x);
            for l in 0..LANES {
                assert_eq!(lanes[l], horner(&coeffs, Fp::from_reduced(x[l])).value());
            }
        }
    }

    #[test]
    fn pow_lanes_and_many_match_windowed_scalar() {
        for base in [Fp::new(2), Fp::new(123456789012345), Fp::new(P1), Fp::ZERO, Fp::ONE] {
            let table = PowTable::new(base);
            let e: Lanes = [0, 1, 15, 16, (1 << 40) - 1, 0xDEAD_BEEF_CAFE_F00D, u64::MAX, P1 - 1];
            let lanes = pow_lanes(&table, &e);
            for l in 0..LANES {
                assert_eq!(lanes[l], table.pow(e[l]).value(), "base {} lane {l}", base.value());
            }
            for len in 0..(2 * LANES + 3) {
                let exps: Vec<u64> =
                    (0..len as u64).map(|i| i.wrapping_mul(0x9E37_79B9) ^ e[0]).collect();
                let mut out = vec![0u64; len];
                pow_many(&table, &exps, &mut out);
                for (i, &exp) in exps.iter().enumerate() {
                    assert_eq!(out[i], table.pow(exp).value(), "len={len} i={i}");
                }
            }
        }
    }

    #[test]
    fn mul_mod_many_matches_scalar_elementwise() {
        let a = edge_and_random_values(LANES * 2 + 5, 1);
        let b = edge_and_random_values(LANES * 2 + 5, 2);
        let mut out = vec![0u64; a.len()];
        mul_mod_many(&a, &b, &mut out);
        for i in 0..a.len() {
            assert_eq!(out[i], mul_mod(a[i], b[i]), "i={i}");
        }
    }

    #[test]
    fn fold_terms_holds_the_largest_sum_at_the_bound() {
        // every operand at P−1: the accumulator peaks at (P−1) + 64·(P−1)²,
        // and (P−1)² ≡ 1, so the residue is 64 − 1
        let row = [P1; LANES];
        let terms = std::iter::repeat_n((&row, P1), FOLD_EVERY);
        assert_eq!(fold_terms(&row, terms), [FOLD_EVERY as u64 - 1; LANES]);
    }

    #[test]
    fn poly_bank_matches_per_polynomial_horner() {
        let mut s = SeedSequence::new(0xBA4C);
        // counts straddling the lane width, including a remainder tail
        for count in [0usize, 1, 7, 8, 9, 27] {
            let polys: Vec<Vec<Fp>> = (0..count)
                .map(|_| (0..4).map(|_| Fp::new(s.next_below(MERSENNE_P))).collect())
                .collect();
            let bank = PolyBank::new(polys.iter().map(|p| p.as_slice()));
            assert_eq!(bank.count(), count);
            let mut out = vec![0u64; count];
            for key in [0u64, 1, 123456, P1, (1 << 40) - 1] {
                bank.eval_key(key, &mut out);
                for (h, poly) in polys.iter().enumerate() {
                    assert_eq!(
                        out[h],
                        horner(poly, Fp::from_reduced(key)).value(),
                        "count={count} key={key} poly={h}"
                    );
                }
            }
        }
    }
}
