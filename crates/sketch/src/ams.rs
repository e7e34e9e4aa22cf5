//! The AMS (Alon–Matias–Szegedy) "tug-of-war" sketch for L2 / F2 estimation.
//!
//! The precision sampler's recovery stage needs a constant-factor
//! approximation `s` of `‖z − ẑ‖₂` computed from a linear sketch
//! (`L'(z − ẑ) = L'(z) − L'(ẑ)`, step 3 of the Recovery Stage in Figure 1).
//! The AMS sketch provides exactly this: each counter is `Σ_i σ(i)·x_i` for a
//! 4-wise independent sign function σ, the square of a counter is an unbiased
//! estimator of `‖x‖₂²`, and a median-of-means over `groups × group_size`
//! counters gives a constant-factor approximation with high probability using
//! `O(log n)` counters.

use lps_hash::{FourWiseHash, SeedSequence};
use lps_stream::{counter_bits_for, SpaceBreakdown, SpaceUsage};

use crate::compensated::kahan_add;
use crate::linear::LinearSketch;
use crate::mergeable::{Mergeable, StateDigest};
use crate::persist::{tags, DecodeError, Persist, WireReader, WireWriter};

/// An AMS sketch with `groups × group_size` sign counters.
#[derive(Debug, Clone)]
pub struct AmsSketch {
    dimension: u64,
    groups: usize,
    group_size: usize,
    counters: Vec<f64>,
    /// Kahan compensation terms, parallel to `counters`. Identically zero
    /// for integer workloads (see [`crate::compensated`]).
    comp: Vec<f64>,
    signs: Vec<FourWiseHash>,
}

impl AmsSketch {
    /// Create a sketch with `groups` median groups of `group_size` averaged
    /// counters each.
    pub fn new(dimension: u64, groups: usize, group_size: usize, seeds: &mut SeedSequence) -> Self {
        assert!(dimension > 0 && groups >= 1 && group_size >= 1);
        let total = groups * group_size;
        let signs = (0..total).map(|_| FourWiseHash::new(seeds)).collect();
        AmsSketch {
            dimension,
            groups,
            group_size,
            counters: vec![0.0; total],
            comp: vec![0.0; total],
            signs,
        }
    }

    /// A default shape giving a ≤ 2-factor approximation with high
    /// probability for dimensions up to `n`: `O(log n)` groups of 6 counters.
    pub fn with_default_shape(dimension: u64, seeds: &mut SeedSequence) -> Self {
        let groups = (((dimension.max(4) as f64).log2()).ceil() as usize).max(7) | 1;
        AmsSketch::new(dimension, groups, 6, seeds)
    }

    /// Number of median groups.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Counters per group.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Unbiased estimate of `‖x‖₂²` by median-of-means over counter squares.
    pub fn f2_estimate(&self) -> f64 {
        let mut group_means: Vec<f64> = Vec::with_capacity(self.groups);
        for g in 0..self.groups {
            let start = g * self.group_size;
            let mean: f64 =
                self.counters[start..start + self.group_size].iter().map(|c| c * c).sum::<f64>()
                    / self.group_size as f64;
            group_means.push(mean);
        }
        crate::count_sketch::median(&mut group_means)
    }

    /// Estimate of the L2 norm `‖x‖₂`.
    pub fn l2_estimate(&self) -> f64 {
        self.f2_estimate().max(0.0).sqrt()
    }

    /// A value `s` with `‖x‖₂ ≤ s ≤ 2‖x‖₂` with high probability (the form
    /// needed by step 3 of the Recovery Stage): the raw estimate inflated by
    /// √2, so a (1 ± 1/3) estimate lands inside [1, 2]·‖x‖₂.
    pub fn l2_upper_estimate(&self) -> f64 {
        self.l2_estimate() * std::f64::consts::SQRT_2
    }

    /// Apply this sketch's linear map to an explicit sparse vector (same
    /// seeds, fresh counters) — used to form `L'(ẑ)` in the recovery stage.
    pub fn sketch_of_sparse(&self, entries: &[(u64, f64)]) -> AmsSketch {
        let mut fresh = AmsSketch {
            dimension: self.dimension,
            groups: self.groups,
            group_size: self.group_size,
            counters: vec![0.0; self.counters.len()],
            comp: vec![0.0; self.counters.len()],
            signs: self.signs.clone(),
        };
        for &(i, v) in entries {
            fresh.update(i, v);
        }
        fresh
    }

    /// Apply already-coalesced `(index, delta)` entries (distinct indices,
    /// as [`lps_stream::coalesce_updates`] returns them), so each distinct
    /// index walks the `groups × group_size` sign hashes exactly once per
    /// batch. Signed-unit counters stay exact integers in f64 for integer
    /// workloads, so coalescing matches the sequential loop.
    ///
    /// This is the rows×keys shape: *many* sign polynomials evaluated at
    /// *one* key per entry. The batch path transposes the coefficient
    /// vectors into a [`lps_hash::simd::PolyBank`] once per batch (a few
    /// hundred word copies, amortised over every entry). The bank computes
    /// the key's powers once and then each 4-wise sign hash as one `u128`
    /// dot product with one Mersenne fold, where Horner pays 4 reductions
    /// per hash.
    /// The Kahan accumulation then replays in the exact counter order of
    /// [`AmsSketch::update`] — float state stays bit-identical to the
    /// sequential walk.
    pub fn apply_coalesced(&mut self, entries: &[(u64, i64)]) {
        if entries.is_empty() {
            return;
        }
        let bank =
            lps_hash::simd::PolyBank::new(self.signs.iter().map(|h| h.kwise().coefficients()));
        let mut hashes = vec![0u64; self.counters.len()];
        for &(index, delta) in entries {
            debug_assert!(index < self.dimension);
            bank.eval_key(index, &mut hashes);
            let delta = delta as f64;
            for ((counter, comp), &h) in
                self.counters.iter_mut().zip(self.comp.iter_mut()).zip(hashes.iter())
            {
                let sign = if h & 1 == 1 { 1.0 } else { -1.0 };
                kahan_add(counter, comp, sign * delta);
            }
        }
    }
}

impl LinearSketch for AmsSketch {
    fn update(&mut self, index: u64, delta: f64) {
        debug_assert!(index < self.dimension);
        for ((counter, comp), sign) in
            self.counters.iter_mut().zip(self.comp.iter_mut()).zip(self.signs.iter())
        {
            kahan_add(counter, comp, sign.sign(index) as f64 * delta);
        }
    }

    /// Batched fast path: coalesce repeated indices, then
    /// [`AmsSketch::apply_coalesced`].
    fn process_batch(&mut self, updates: &[lps_stream::Update]) {
        self.apply_coalesced(&lps_stream::coalesce_updates(updates));
    }

    fn merge(&mut self, other: &Self) {
        assert_eq!(self.counters.len(), other.counters.len());
        // Plain elementwise addition of both vectors keeps merge
        // bitwise-commutative, as Mergeable requires.
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a += b;
        }
        for (a, b) in self.comp.iter_mut().zip(other.comp.iter()) {
            *a += b;
        }
    }

    fn subtract(&mut self, other: &Self) {
        assert_eq!(self.counters.len(), other.counters.len());
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a -= b;
        }
        for (a, b) in self.comp.iter_mut().zip(other.comp.iter()) {
            *a -= b;
        }
    }

    fn dimension(&self) -> u64 {
        self.dimension
    }
}

impl Mergeable for AmsSketch {
    fn merge_from(&mut self, other: &Self) {
        LinearSketch::merge(self, other);
    }

    fn state_digest(&self) -> u64 {
        let mut d = StateDigest::new();
        for &v in &self.counters {
            d.write_f64(v);
        }
        for &v in &self.comp {
            d.write_f64(v);
        }
        d.finish()
    }
}

impl Persist for AmsSketch {
    const TAG: u16 = tags::AMS;

    fn encode_seeds(&self, w: &mut WireWriter<'_>) {
        w.write_u64(self.dimension);
        w.write_len(self.groups);
        w.write_len(self.group_size);
        for h in &self.signs {
            h.encode_seeds(w);
        }
    }

    fn encode_counters(&self, w: &mut WireWriter<'_>) {
        for &v in &self.counters {
            w.write_f64(v);
        }
        for &v in &self.comp {
            w.write_f64(v);
        }
    }

    fn decode_parts(
        seeds: &mut WireReader<'_>,
        counters: &mut WireReader<'_>,
    ) -> Result<Self, DecodeError> {
        let dimension = seeds.read_u64()?;
        let groups = seeds.read_count(1)?;
        let group_size = seeds.read_count(0)?;
        if dimension == 0 || groups == 0 || group_size == 0 {
            return Err(DecodeError::Corrupt { context: "AMS shape must be non-zero" });
        }
        let total = groups
            .checked_mul(group_size)
            .ok_or(DecodeError::Corrupt { context: "AMS counter count overflows" })?;
        let signs = (0..total)
            .map(|_| FourWiseHash::decode_parts(seeds, counters))
            .collect::<Result<Vec<_>, _>>()?;
        let values = counters.read_f64s(total)?;
        let comp = counters.read_f64s(total)?;
        Ok(AmsSketch { dimension, groups, group_size, counters: values, comp, signs })
    }
}

impl SpaceUsage for AmsSketch {
    fn space(&self) -> SpaceBreakdown {
        let counters = self.counters.len() as u64;
        let counter_bits = counter_bits_for(self.dimension, self.dimension);
        let randomness = self.signs.iter().map(|h| h.random_bits()).sum();
        SpaceBreakdown::new(counters, counter_bits, randomness)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeds(seed: u64) -> SeedSequence {
        SeedSequence::new(seed)
    }

    #[test]
    fn single_coordinate_is_exact() {
        let mut s = seeds(1);
        let mut ams = AmsSketch::with_default_shape(1024, &mut s);
        ams.update(17, 5.0);
        // every counter is ±5, so every square is 25 and the estimate exact
        assert!((ams.f2_estimate() - 25.0).abs() < 1e-9);
        assert!((ams.l2_estimate() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn l2_estimate_within_constant_factor() {
        let n = 1 << 12;
        let mut s = seeds(2);
        let mut ams = AmsSketch::new(n, 15, 8, &mut s);
        let mut truth_sq = 0.0;
        for i in 0..n {
            let v = ((i % 11) as f64) - 5.0;
            if v != 0.0 {
                ams.update(i, v);
                truth_sq += v * v;
            }
        }
        let truth = truth_sq.sqrt();
        let est = ams.l2_estimate();
        assert!(
            est > 0.6 * truth && est < 1.6 * truth,
            "AMS estimate {est} too far from truth {truth}"
        );
        let upper = ams.l2_upper_estimate();
        assert!(upper >= truth * 0.85, "upper estimate should rarely fall below the norm");
        assert!(upper <= 2.5 * truth);
    }

    #[test]
    fn zero_vector_estimates_zero() {
        let mut s = seeds(3);
        let ams = AmsSketch::with_default_shape(64, &mut s);
        assert_eq!(ams.f2_estimate(), 0.0);
        assert_eq!(ams.l2_estimate(), 0.0);
    }

    #[test]
    fn linearity_and_difference_norm() {
        // ‖x - y‖₂ via subtracting sketches — exactly how the sampler uses it.
        let n = 2048u64;
        let mut s = seeds(4);
        let proto = AmsSketch::new(n, 15, 8, &mut s);
        let mut sx = proto.clone();
        let mut sy = proto.clone();
        let x = [(3u64, 10.0), (700, -4.0), (1999, 2.0)];
        let y = [(3u64, 10.0), (700, -4.0)];
        for (i, v) in x {
            sx.update(i, v);
        }
        for (i, v) in y {
            sy.update(i, v);
        }
        let mut diff = sx.clone();
        diff.subtract(&sy);
        // x - y has a single coordinate of value 2 at index 1999
        assert!((diff.l2_estimate() - 2.0).abs() < 1e-9);
        // merge is the inverse of subtract
        let mut back = diff.clone();
        back.merge(&sy);
        assert!((back.l2_estimate() - sx.l2_estimate()).abs() < 1e-9);
    }

    #[test]
    fn sketch_of_sparse_matches_direct() {
        let mut s = seeds(5);
        let mut direct = AmsSketch::with_default_shape(256, &mut s);
        let entries = [(1u64, 2.0), (90, -3.5)];
        for (i, v) in entries {
            direct.update(i, v);
        }
        let derived = direct.sketch_of_sparse(&entries);
        assert_eq!(direct.counters, derived.counters);
    }

    #[test]
    fn space_accounting() {
        let mut s = seeds(6);
        let ams = AmsSketch::new(1024, 9, 6, &mut s);
        assert_eq!(ams.space().counters, 54);
        assert!(ams.space().randomness_bits >= 54 * 4 * 61);
    }
}
