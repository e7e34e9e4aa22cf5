//! Property-based tests for the field arithmetic and hash families.

use lps_hash::field::horner;
use lps_hash::simd::{
    self, horner_lanes, mul_add_mod_lanes, mul_mod_lanes, pow_lanes, reduce_lanes, Lanes, PolyBank,
    LANES,
};
use lps_hash::{Fp, KWiseHash, PowTable, SeedSequence, TabulationHash, MERSENNE_P};
use proptest::prelude::*;

fn ref_add(a: u64, b: u64) -> u64 {
    (((a as u128 % MERSENNE_P as u128) + (b as u128 % MERSENNE_P as u128)) % MERSENNE_P as u128)
        as u64
}

fn ref_mul(a: u64, b: u64) -> u64 {
    (((a as u128 % MERSENNE_P as u128) * (b as u128 % MERSENNE_P as u128)) % MERSENNE_P as u128)
        as u64
}

proptest! {
    #[test]
    fn field_add_matches_reference(a in any::<u64>(), b in any::<u64>()) {
        prop_assert_eq!((Fp::new(a) + Fp::new(b)).value(), ref_add(a, b));
    }

    #[test]
    fn field_mul_matches_reference(a in any::<u64>(), b in any::<u64>()) {
        prop_assert_eq!((Fp::new(a) * Fp::new(b)).value(), ref_mul(a, b));
    }

    #[test]
    fn field_sub_is_inverse_of_add(a in any::<u64>(), b in any::<u64>()) {
        let x = Fp::new(a);
        let y = Fp::new(b);
        prop_assert_eq!((x + y - y).value(), x.value());
    }

    #[test]
    fn field_mul_is_commutative_and_associative(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (x, y, z) = (Fp::new(a), Fp::new(b), Fp::new(c));
        prop_assert_eq!((x * y).value(), (y * x).value());
        prop_assert_eq!(((x * y) * z).value(), (x * (y * z)).value());
    }

    #[test]
    fn field_distributivity(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (x, y, z) = (Fp::new(a), Fp::new(b), Fp::new(c));
        prop_assert_eq!((x * (y + z)).value(), (x * y + x * z).value());
    }

    #[test]
    fn nonzero_elements_have_inverses(a in 1u64..MERSENNE_P) {
        let x = Fp::new(a);
        let inv = x.inv().unwrap();
        prop_assert_eq!((x * inv).value(), 1);
    }

    #[test]
    fn pow_agrees_with_repeated_multiplication(a in any::<u64>(), e in 0u64..64) {
        let x = Fp::new(a);
        let mut expected = Fp::ONE;
        for _ in 0..e {
            expected *= x;
        }
        prop_assert_eq!(x.pow(e).value(), expected.value());
    }

    #[test]
    // hash keys are field residues (stream indices in practice), so the
    // strategies draw from [0, P) — the domain the fast constructor asserts
    fn kwise_hash_outputs_are_in_field_and_deterministic(seed in any::<u64>(), key in 0..MERSENNE_P, k in 1usize..8) {
        let mut s1 = SeedSequence::new(seed);
        let mut s2 = SeedSequence::new(seed);
        let h1 = KWiseHash::new(k, &mut s1);
        let h2 = KWiseHash::new(k, &mut s2);
        let v = h1.hash(key);
        prop_assert!(v < MERSENNE_P);
        prop_assert_eq!(v, h2.hash(key));
    }

    #[test]
    fn kwise_bucket_and_unit_interval_ranges(seed in any::<u64>(), key in 0..MERSENNE_P, m in 1usize..10_000) {
        let mut s = SeedSequence::new(seed);
        let h = KWiseHash::new(4, &mut s);
        prop_assert!(h.bucket(key, m) < m);
        let u = h.unit_interval(key);
        prop_assert!(u > 0.0 && u <= 1.0);
        let sign = h.sign(key);
        prop_assert!(sign == 1 || sign == -1);
    }

    #[test]
    fn seed_sequence_next_below_is_in_range(seed in any::<u64>(), bound in 1u64..u64::MAX) {
        let mut s = SeedSequence::new(seed);
        prop_assert!(s.next_below(bound) < bound);
    }
}

/// Lanes mixing random residues with the edge values the Mersenne reduction
/// is most likely to get wrong: 0, 1, P−1, and the 32-bit limb boundary.
fn lanes_with_edges(seed: u64) -> Lanes {
    let mut s = SeedSequence::new(seed);
    let mut lanes = [0u64; LANES];
    for lane in lanes.iter_mut() {
        *lane = s.next_below(MERSENNE_P);
    }
    lanes[0] = MERSENNE_P - 1;
    lanes[1] = 0;
    lanes[2] = 1;
    lanes[3] = 0xFFFF_FFFF;
    lanes
}

proptest! {
    #[test]
    fn lane_mul_and_fused_mul_add_match_scalar(sa in any::<u64>(), sb in any::<u64>(), sc in any::<u64>()) {
        let a = lanes_with_edges(sa);
        let b = lanes_with_edges(sb);
        let c = lanes_with_edges(sc);
        let prod = mul_mod_lanes(&a, &b);
        let fused = mul_add_mod_lanes(&a, &b, &c);
        for l in 0..LANES {
            let (x, y, z) = (Fp::from_reduced(a[l]), Fp::from_reduced(b[l]), Fp::from_reduced(c[l]));
            prop_assert_eq!(prod[l], x.mul(y).value());
            prop_assert_eq!(fused[l], x.mul(y).add(z).value());
        }
    }

    #[test]
    fn lane_reduce_matches_scalar_over_full_u64_range(seed in any::<u64>()) {
        let mut s = SeedSequence::new(seed);
        let mut v = [0u64; LANES];
        for lane in v.iter_mut() {
            *lane = s.next_u64();
        }
        v[0] = u64::MAX;
        v[1] = MERSENNE_P;
        let reduced = reduce_lanes(&v);
        for l in 0..LANES {
            prop_assert_eq!(reduced[l], Fp::new(v[l]).value());
        }
    }

    #[test]
    fn lane_horner_matches_scalar_horner(seed in any::<u64>(), xs in any::<u64>(), k in 1usize..8) {
        let mut s = SeedSequence::new(seed);
        let coeffs: Vec<Fp> = (0..k).map(|_| Fp::new(s.next_u64())).collect();
        let x = lanes_with_edges(xs);
        let got = horner_lanes(&coeffs, &x);
        for l in 0..LANES {
            prop_assert_eq!(got[l], horner(&coeffs, Fp::from_reduced(x[l])).value());
        }
    }

    #[test]
    fn horner_many_matches_per_key_hash_for_remainder_tails(seed in any::<u64>(), len in 0usize..40, k in 1usize..8) {
        let mut s = SeedSequence::new(seed);
        let h = KWiseHash::new(k, &mut s);
        let mut keys: Vec<u64> = (0..len).map(|_| s.next_below(MERSENNE_P)).collect();
        if len > 0 {
            keys[0] = MERSENNE_P - 1;
        }
        let mut out = vec![0u64; len];
        h.hash_keys(&keys, &mut out);
        for (i, &key) in keys.iter().enumerate() {
            prop_assert_eq!(out[i], h.hash(key));
        }
    }

    #[test]
    fn pow_lanes_and_many_match_windowed_scalar(base in any::<u64>(), es in any::<u64>(), len in 0usize..20) {
        let table = PowTable::new(Fp::new(base));
        let mut e = lanes_with_edges(es);
        e[4] = u64::MAX;
        let got = pow_lanes(&table, &e);
        for l in 0..LANES {
            prop_assert_eq!(got[l], table.pow(e[l]).value());
        }
        let mut s = SeedSequence::new(es);
        let exps: Vec<u64> = (0..len).map(|_| s.next_u64()).collect();
        let mut out = vec![0u64; len];
        simd::pow_many(&table, &exps, &mut out);
        for (i, &exp) in exps.iter().enumerate() {
            prop_assert_eq!(out[i], table.pow(exp).value());
        }
    }

    #[test]
    fn poly_bank_matches_scalar_horner_per_polynomial(seed in any::<u64>(), count in 0usize..20, degree in 1usize..=131, key in 0..MERSENNE_P) {
        let mut s = SeedSequence::new(seed);
        let polys: Vec<Vec<Fp>> = (0..count)
            .map(|_| (0..degree).map(|_| Fp::new(s.next_u64())).collect())
            .collect();
        let bank = PolyBank::new(polys.iter().map(|p| p.as_slice()));
        let mut out = vec![0u64; count];
        bank.eval_key(key, &mut out);
        for (h, poly) in polys.iter().enumerate() {
            prop_assert_eq!(out[h], horner(poly, Fp::from_reduced(key)).value());
        }
    }

    #[test]
    fn tabulation_hash_many_matches_hash_per_key(seed in any::<u64>(), width in 0u32..=8, len in 0usize..24) {
        let h = TabulationHash::new(&mut SeedSequence::new(seed));
        let keys = keys_of_width(width, len, seed);
        let mut out = vec![0u64; keys.len()];
        h.hash_many(&keys, &mut out);
        for (&key, &got) in keys.iter().zip(&out) {
            prop_assert_eq!(got, h.hash(key));
        }
    }
}

/// The power-basis `PolyBank` kernel widens its dot products to `u128` and
/// folds once per 64 products. All-(P−1) coefficients make every term as
/// large as its power allows, and at the key P−1 every odd power is P−1 as
/// well, so half the terms reach (P−1)². Sweep every degree from 1 past two
/// folds (130 products), at lane counts with and without a partial group.
#[test]
fn poly_bank_matches_horner_at_every_degree_past_the_fold_bound() {
    let p1 = Fp::new(MERSENNE_P - 1);
    let mut s = SeedSequence::new(0xF01D);
    for degree in 1..=131 {
        for count in [1usize, 8, 11] {
            let polys = vec![vec![p1; degree]; count];
            let bank = PolyBank::new(polys.iter().map(|p| p.as_slice()));
            let mut out = vec![0u64; count];
            for key in [MERSENNE_P - 1, MERSENNE_P - 2, 0, 1, s.next_below(MERSENNE_P)] {
                bank.eval_key(key, &mut out);
                let expected = horner(&polys[0], Fp::from_reduced(key)).value();
                assert!(
                    out.iter().all(|&v| v == expected),
                    "degree {degree}, count {count}, key {key}: {out:?} != {expected}"
                );
            }
        }
    }
}

/// `len` keys plus one whose top set bit lies in byte `width − 1`, so the
/// widest key in the slice is exactly `width` bytes (0..=8); the others are
/// drawn at every narrower width, mixing widths in one slice.
fn keys_of_width(width: u32, len: usize, seed: u64) -> Vec<u64> {
    let mut s = SeedSequence::new(seed ^ 0x7AB7);
    let below =
        |s: &mut SeedSequence, w: u32| if w == 0 { 0 } else { s.next_u64() >> (64 - 8 * w) };
    let mut keys: Vec<u64> = (0..len)
        .map(|_| {
            let w = s.next_below(width as u64 + 1) as u32;
            below(&mut s, w)
        })
        .collect();
    let widest = if width == 0 { 0 } else { below(&mut s, width) | 1 << (8 * width - 1) };
    let at = s.next_below(len as u64 + 1) as usize;
    keys.insert(at, widest);
    keys
}

/// `hash_many` folds the zero high bytes into one constant; every key must
/// still hash exactly as `hash` does, at every widest-key width and on the
/// edge slices: empty, all zeros, `u64::MAX` alone and mixed with narrow
/// keys.
#[test]
fn tabulation_hash_many_matches_hash_on_every_width_and_edge_slice() {
    let h = TabulationHash::new(&mut SeedSequence::new(0x7AB));
    let mut slices: Vec<Vec<u64>> =
        vec![vec![], vec![0; 9], vec![u64::MAX], vec![0, 1, 0xFF, 0x1_0000, 1 << 40, u64::MAX, 7]];
    slices.extend((0..=8).map(|width| keys_of_width(width, 16, width as u64)));
    for keys in &slices {
        let mut out = vec![0u64; keys.len()];
        h.hash_many(keys, &mut out);
        for (&key, &got) in keys.iter().zip(&out) {
            assert_eq!(got, h.hash(key), "key {key:#x} in {keys:x?}");
        }
    }
}
