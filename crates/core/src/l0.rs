//! The zero-relative-error L0 sampler of Theorem 2.
//!
//! Precision sampling breaks down as `p → 0` (the scaling factors
//! `t_i^{−1/p}` blow up), so the paper gives a different algorithm for p = 0:
//!
//! 1. For `k = 0, 1, …, ⌊log n⌋` pick a random subset `I_k ⊆ [n]`, where
//!    `I_k` contains each coordinate with probability `2^k/n` and the top
//!    level is all of `[n]` (the paper picks subsets of size exactly `2^k`;
//!    per-coordinate inclusion with the same expectation is the
//!    streaming-friendly variant and preserves the Chernoff argument — see
//!    DESIGN.md, substitutions). The subsets are *nested*: a single
//!    Θ(s)-wise independent hash maps each coordinate to a slot in `[n]`,
//!    and `I_k = {i : slot(i) < 2^k}`. Theorem 2's analysis only needs
//!    within-level concentration of `|I_k ∩ J|` — which k-wise independence
//!    of the one shared hash provides at every level — not independence
//!    across levels, and nesting makes the update path evaluate one
//!    membership hash per update instead of one per level (the single
//!    hottest cost in the seed implementation).
//! 2. Run the exact s-sparse recovery of Lemma 5 with `s = ⌈4·log(1/δ)⌉` on
//!    the restriction of `x` to each `I_k`.
//! 3. Return a uniformly random non-zero coordinate of the first recovery
//!    that produces a non-zero s-sparse vector; fail if all levels return
//!    zero or DENSE.
//!
//! For `|J| ≤ s` (J the support) level 0 recovers the whole vector and the
//! sampler cannot fail; for larger supports some level has
//! `E|I_k ∩ J| ∈ [s/3, 2s/3]` and succeeds with probability ≥ 1 − δ.
//! Conditioned on success each support element is returned with equal
//! probability: the sampler has **zero** relative error.
//!
//! The random bits describing the subsets can come either from the seed
//! store ([`L0Randomness::Seeded`]) or from the Nisan-style PRG
//! ([`L0Randomness::Nisan`]), which is the derandomization step that brings
//! the stored randomness down to O(log² n) bits (Theorem 2's accounting).

use lps_hash::{KWiseHash, NisanPrg, NisanStream, SeedSequence};
use lps_sketch::persist::tags;
use lps_sketch::{
    DecodeError, Mergeable, Persist, RecoveryOutput, SparseRecovery, StateDigest, WireReader,
    WireWriter,
};
use lps_stream::{SpaceBreakdown, SpaceUsage, Update};

use crate::traits::{LpSampler, Sample};

/// Where the L0 sampler's subset-defining randomness comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L0Randomness {
    /// Hash seeds are stored explicitly (the "random oracle" version).
    Seeded,
    /// Hash seeds are expanded from a Nisan-style PRG seed of O(log² n) bits;
    /// only the PRG seed is charged as stored randomness.
    Nisan,
}

/// Independence used by the per-level membership hashes. The Chernoff-style
/// concentration in Theorem 2 needs more than pairwise independence; Θ(s)-wise
/// is ample and still cheap to evaluate.
fn membership_independence(s: usize) -> usize {
    (2 * s + 2).clamp(4, 32)
}

#[derive(Debug, Clone)]
struct Level {
    /// Inclusion threshold: coordinate i belongs to the level if its shared
    /// membership slot satisfies `slot(i) < threshold` (threshold = 2^k,
    /// capped at n).
    threshold: u64,
    recovery: SparseRecovery,
}

/// The zero-relative-error L0 sampler (Theorem 2).
#[derive(Debug, Clone)]
pub struct L0Sampler {
    dimension: u64,
    delta: f64,
    s: usize,
    /// One shared Θ(s)-wise membership hash defining the nested subsets
    /// `I_k = {i : slot(i) < 2^k}` — evaluated once per update for all levels.
    membership: KWiseHash,
    levels: Vec<Level>,
    choice_seed: u64,
    randomness: L0Randomness,
    /// PRG seed bits when running in Nisan mode (what the space model charges).
    nisan_seed_bits: u64,
}

impl L0Sampler {
    /// Create a sampler with failure probability at most `delta` (plus the
    /// usual low-probability terms).
    pub fn new(dimension: u64, delta: f64, seeds: &mut SeedSequence) -> Self {
        Self::with_randomness(dimension, delta, L0Randomness::Seeded, seeds)
    }

    /// Create a sampler choosing where its subset randomness comes from.
    pub fn with_randomness(
        dimension: u64,
        delta: f64,
        randomness: L0Randomness,
        seeds: &mut SeedSequence,
    ) -> Self {
        assert!(dimension > 0);
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
        let s = (4.0 * (1.0 / delta).log2()).ceil().max(1.0) as usize;
        let max_level = (dimension as f64).log2().floor() as u32;
        let independence = membership_independence(s);

        // In Nisan mode the membership-hash coefficients and the final random
        // choice are drawn from the PRG output; the PRG itself is seeded from
        // the seed sequence, and only its seed length is charged.
        let (mut nisan_stream, nisan_seed_bits) = match randomness {
            L0Randomness::Seeded => (None, 0),
            L0Randomness::Nisan => {
                // Enough output words for the shared membership polynomial's
                // coefficients plus the final choice.
                let words_needed = independence + 2;
                let depth = (words_needed.next_power_of_two().trailing_zeros() as usize).max(4);
                let prg = NisanPrg::new(depth, seeds);
                let bits = prg.seed_bits();
                (Some(NisanStream::new(prg)), bits)
            }
        };

        let mut draw = |seeds: &mut SeedSequence| -> u64 {
            match nisan_stream.as_mut() {
                Some(st) => st.next_u64(),
                None => seeds.next_u64(),
            }
        };

        // One shared membership hash for the nested subsets I_0 ⊆ I_1 ⊆ …
        let coeffs: Vec<lps_hash::Fp> =
            (0..independence).map(|_| lps_hash::Fp::new(draw(seeds))).collect();
        let membership = KWiseHash::from_coefficients(coeffs);

        let mut levels = Vec::with_capacity(max_level as usize + 1);
        for k in 0..=max_level {
            let threshold = (1u64 << k).min(dimension);
            // The recovery structures' own hash seeds are not the randomness
            // the PRG needs to supply (they are part of Lemma 5's O(k log n)
            // bits); keep them seed-driven in both modes.
            let recovery = SparseRecovery::new(dimension, s, seeds);
            levels.push(Level { threshold, recovery });
        }
        let choice_seed = draw(seeds);
        L0Sampler {
            dimension,
            delta,
            s,
            membership,
            levels,
            choice_seed,
            randomness,
            nisan_seed_bits,
        }
    }

    /// The per-level sparsity `s = ⌈4 log(1/δ)⌉`.
    pub fn sparsity(&self) -> usize {
        self.s
    }

    /// Number of subsampling levels (⌊log n⌋ + 1).
    pub fn levels(&self) -> usize {
        self.levels.len()
    }

    /// The configured failure probability δ.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The randomness mode in use.
    pub fn randomness(&self) -> L0Randomness {
        self.randomness
    }

    /// The shared membership slot of a coordinate: the hash mapped uniformly
    /// onto `[0, n)`. Level `k` contains the coordinate iff the slot is below
    /// the level's threshold, so one evaluation decides every level.
    #[inline]
    fn membership_slot(&self, index: u64) -> u64 {
        let h = self.membership.hash(index);
        ((h as u128 * self.dimension as u128) >> 61) as u64
    }

    /// Whether coordinate `index` belongs to level `k`'s subset `I_k`.
    /// The top level (`2^k ≥ n`) is always the full coordinate set.
    pub fn in_level(&self, k: usize, index: u64) -> bool {
        let level = &self.levels[k];
        level.threshold >= self.dimension || self.membership_slot(index) < level.threshold
    }

    /// The pre-optimization update path, retained solely so the throughput
    /// benchmarks can report the speedup against a cost-faithful baseline:
    /// the seed implementation evaluated one membership polynomial per level
    /// (re-evaluated here) and recomputed the fingerprint power `r^index` by
    /// square-and-multiply in every touched cell. Production callers use
    /// `process_update` / `process_batch`.
    pub fn process_update_reference(&mut self, update: Update) {
        debug_assert!(update.index < self.dimension);
        if update.delta == 0 {
            return;
        }
        for k in 0..self.levels.len() {
            // one full hash evaluation per level, as the seed's independent
            // per-level membership hashes cost
            let included = self.levels[k].threshold >= self.dimension
                || self.membership_slot(update.index) < self.levels[k].threshold;
            if included {
                self.levels[k].recovery.update_reference(update.index, update.delta);
            }
        }
    }

    /// Run the peeling decoder level by level and return the first level
    /// that recovers a non-zero sparse vector, together with its entries.
    ///
    /// This is the single decode pass shared by [`L0Sampler::sample`] and
    /// [`L0Sampler::successful_level`]: each level is decoded at most once
    /// per query, and callers wanting both the sample and the diagnostic
    /// level call this once instead of paying two full decodes.
    pub fn recover_first_nonzero(&self) -> Option<(usize, Vec<(u64, i64)>)> {
        for (k, level) in self.levels.iter().enumerate() {
            match level.recovery.recover() {
                RecoveryOutput::Recovered(entries) if !entries.is_empty() => {
                    return Some((k, entries))
                }
                _ => continue,
            }
        }
        None
    }

    /// The level index whose recovery succeeded, for diagnostics.
    pub fn successful_level(&self) -> Option<usize> {
        self.recover_first_nonzero().map(|(k, _)| k)
    }

    /// Apply already-coalesced `(index, delta)` entries (distinct indices,
    /// as [`lps_stream::coalesce_updates`] returns them): evaluate the shared
    /// membership hash once per distinct index, and feed every level's
    /// recovery structure its surviving entries through the row-major
    /// coalesced path (fingerprint term computed once per entry per level
    /// instead of once per cell). Because the levels are nested, the
    /// entries surviving at level `k` are a prefix-filtered subset reusable
    /// across levels.
    pub fn apply_coalesced(&mut self, entries: &[(u64, i64)]) {
        if entries.is_empty() {
            return;
        }
        // lane-parallel membership evaluation: batch-hash every distinct
        // index, then apply the same multiply-shift slot mapping as
        // `membership_slot` — identical values, LANES keys at a time
        let keys: Vec<u64> = entries
            .iter()
            .map(|&(index, _)| {
                debug_assert!(index < self.dimension);
                index
            })
            .collect();
        let mut hashes = vec![0u64; keys.len()];
        self.membership.hash_keys(&keys, &mut hashes);
        let slots: Vec<u64> =
            hashes.iter().map(|&h| ((h as u128 * self.dimension as u128) >> 61) as u64).collect();
        let mut surviving: Vec<(u64, i64)> = Vec::with_capacity(entries.len());
        for k in 0..self.levels.len() {
            let threshold = self.levels[k].threshold;
            if threshold >= self.dimension {
                self.levels[k].recovery.apply_coalesced(entries);
                continue;
            }
            surviving.clear();
            surviving.extend(
                entries
                    .iter()
                    .zip(slots.iter())
                    .filter(|&(_, &slot)| slot < threshold)
                    .map(|(&entry, _)| entry),
            );
            self.levels[k].recovery.apply_coalesced(&surviving);
        }
    }
}

impl Mergeable for L0Sampler {
    /// Merge an identically-seeded sampler level by level. All per-level
    /// state is field/integer arithmetic, so the merged state is bit-identical
    /// to ingesting the concatenated streams sequentially.
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(self.dimension, other.dimension, "dimension mismatch");
        assert_eq!(self.levels.len(), other.levels.len(), "level-count mismatch");
        for (a, b) in self.levels.iter_mut().zip(other.levels.iter()) {
            assert_eq!(a.threshold, b.threshold, "level threshold mismatch");
            a.recovery.merge_from(&b.recovery);
        }
    }

    fn state_digest(&self) -> u64 {
        let mut d = StateDigest::new();
        for level in &self.levels {
            d.write_u64(level.threshold).write_u64(level.recovery.state_digest());
        }
        d.finish()
    }
}

impl Persist for L0Sampler {
    const TAG: u16 = tags::L0_SAMPLER;

    fn encode_seeds(&self, w: &mut WireWriter<'_>) {
        w.write_u64(self.dimension);
        w.write_f64(self.delta);
        w.write_len(self.s);
        w.write_u8(match self.randomness {
            L0Randomness::Seeded => 0,
            L0Randomness::Nisan => 1,
        });
        w.write_u64(self.nisan_seed_bits);
        w.write_u64(self.choice_seed);
        self.membership.encode_seeds(w);
        w.write_len(self.levels.len());
        for level in &self.levels {
            w.write_u64(level.threshold);
            level.recovery.encode_seeds(w);
        }
    }

    fn encode_counters(&self, w: &mut WireWriter<'_>) {
        for level in &self.levels {
            level.recovery.encode_counters(w);
        }
    }

    fn decode_parts(
        seeds: &mut WireReader<'_>,
        counters: &mut WireReader<'_>,
    ) -> Result<Self, DecodeError> {
        let dimension = seeds.read_u64()?;
        let delta = seeds.read_finite_f64("L0 sampler delta must be finite")?;
        if dimension == 0 || !(delta > 0.0 && delta < 1.0) {
            return Err(DecodeError::Corrupt { context: "L0 sampler needs delta in (0, 1)" });
        }
        let s = seeds.read_count(0)?;
        let randomness = match seeds.read_u8()? {
            0 => L0Randomness::Seeded,
            1 => L0Randomness::Nisan,
            _ => return Err(DecodeError::Corrupt { context: "unknown L0 randomness mode" }),
        };
        let nisan_seed_bits = seeds.read_u64()?;
        let choice_seed = seeds.read_u64()?;
        let membership = KWiseHash::decode_parts(seeds, counters)?;
        let level_count = seeds.read_count(1)?;
        if level_count == 0 {
            return Err(DecodeError::Corrupt { context: "L0 sampler needs at least one level" });
        }
        let levels = (0..level_count)
            .map(|_| {
                let threshold = seeds.read_u64()?;
                let recovery = SparseRecovery::decode_parts(seeds, counters)?;
                Ok(Level { threshold, recovery })
            })
            .collect::<Result<Vec<_>, DecodeError>>()?;
        Ok(L0Sampler {
            dimension,
            delta,
            s,
            membership,
            levels,
            choice_seed,
            randomness,
            nisan_seed_bits,
        })
    }
}

impl LpSampler for L0Sampler {
    fn process_update(&mut self, update: Update) {
        debug_assert!(update.index < self.dimension);
        if update.delta == 0 {
            return;
        }
        // one membership evaluation decides every nested level
        let slot = self.membership_slot(update.index);
        for k in 0..self.levels.len() {
            let level = &mut self.levels[k];
            if level.threshold >= self.dimension || slot < level.threshold {
                level.recovery.update(update.index, update.delta);
            }
        }
    }

    /// Batched fast path: coalesce the batch once, then
    /// [`L0Sampler::apply_coalesced`].
    fn process_batch(&mut self, updates: &[Update]) {
        self.apply_coalesced(&lps_stream::coalesce_updates(updates));
    }

    fn sample(&self) -> Option<Sample> {
        let (_, entries) = self.recover_first_nonzero()?;
        // uniform random choice among the recovered support, derived
        // deterministically from the stored choice seed
        let mut chooser = SeedSequence::new(self.choice_seed);
        let pick = chooser.next_below(entries.len() as u64) as usize;
        let (index, value) = entries[pick];
        Some(Sample { index, estimate: value as f64 })
    }

    fn p(&self) -> f64 {
        0.0
    }

    fn dimension(&self) -> u64 {
        self.dimension
    }

    fn name(&self) -> &'static str {
        match self.randomness {
            L0Randomness::Seeded => "l0-seeded",
            L0Randomness::Nisan => "l0-nisan",
        }
    }
}

impl SpaceUsage for L0Sampler {
    fn space(&self) -> SpaceBreakdown {
        let mut total = SpaceBreakdown::default();
        for level in &self.levels {
            total = total.combine(&level.recovery.space());
        }
        let membership_bits: u64 = match self.randomness {
            // the shared membership polynomial's coefficients + choice seed
            L0Randomness::Seeded => self.membership.random_bits() + 64,
            // only the PRG seed is stored
            L0Randomness::Nisan => self.nisan_seed_bits,
        };
        total.combine(&SpaceBreakdown::new(0, 0, membership_bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lps_stream::{
        sparse_vector_stream, EmpiricalDistribution, TruthVector, TurnstileModel, UpdateStream,
    };

    fn seeds(seed: u64) -> SeedSequence {
        SeedSequence::new(seed)
    }

    #[test]
    fn parameters() {
        let mut s = seeds(1);
        let sampler = L0Sampler::new(1 << 10, 0.25, &mut s);
        assert_eq!(sampler.sparsity(), 8); // ceil(4 * log2(4))
        assert_eq!(sampler.levels(), 11);
        assert_eq!(sampler.p(), 0.0);
        assert_eq!(sampler.delta(), 0.25);
    }

    #[test]
    fn zero_vector_fails() {
        let mut s = seeds(2);
        let sampler = L0Sampler::new(256, 0.5, &mut s);
        assert!(sampler.sample().is_none());
    }

    #[test]
    fn sparse_support_never_fails_and_returns_support_elements() {
        // |J| <= s means level 0 recovers exactly; failure is impossible.
        let n = 1024u64;
        let mut gen = seeds(3);
        let stream = sparse_vector_stream(n, 5, 9, &mut gen);
        let truth = TruthVector::from_stream(&stream);
        let support = truth.support();
        for seed in 0..40u64 {
            let mut s = seeds(100 + seed);
            let mut sampler = L0Sampler::new(n, 0.25, &mut s);
            sampler.process_stream(&stream);
            let sample = sampler.sample().expect("sparse vectors cannot fail");
            assert!(support.contains(&sample.index));
            // zero relative error: the estimate is the exact value
            assert_eq!(sample.estimate, truth.get(sample.index) as f64);
        }
    }

    #[test]
    fn large_support_succeeds_with_good_probability() {
        let n = 4096u64;
        let mut gen = seeds(4);
        let stream = sparse_vector_stream(n, 700, 20, &mut gen);
        let truth = TruthVector::from_stream(&stream);
        let support = truth.support();
        let trials = 60u64;
        let mut successes = 0;
        for seed in 0..trials {
            let mut s = seeds(300 + seed);
            let mut sampler = L0Sampler::new(n, 0.2, &mut s);
            sampler.process_stream(&stream);
            if let Some(sample) = sampler.sample() {
                successes += 1;
                assert!(support.contains(&sample.index), "sampled outside the support");
                assert_eq!(sample.estimate, truth.get(sample.index) as f64);
            }
        }
        assert!(
            successes as f64 >= 0.7 * trials as f64,
            "success rate too low: {successes}/{trials}"
        );
    }

    #[test]
    fn deletions_are_respected() {
        // insert a block then delete it; only the survivor may be sampled
        let n = 512u64;
        let mut stream = UpdateStream::new(n, TurnstileModel::General);
        for i in 0..100u64 {
            stream.push_insert(i);
        }
        for i in 0..100u64 {
            stream.push_delete(i);
        }
        stream.push(Update::new(400, 7));
        for seed in 0..20u64 {
            let mut s = seeds(700 + seed);
            let mut sampler = L0Sampler::new(n, 0.25, &mut s);
            sampler.process_stream(&stream);
            let sample = sampler.sample().expect("1-sparse vector cannot fail");
            assert_eq!(sample.index, 400);
            assert_eq!(sample.estimate, 7.0);
        }
    }

    #[test]
    fn output_is_roughly_uniform_over_support() {
        // moderate support, many independent samplers: empirical distribution
        // should be close to uniform (zero relative error claim).
        let n = 256u64;
        let mut gen = seeds(5);
        let stream = sparse_vector_stream(n, 16, 5, &mut gen);
        let truth = TruthVector::from_stream(&stream);
        let reference = truth.lp_distribution(0.0).unwrap();
        let mut empirical = EmpiricalDistribution::new(n);
        let trials = 1200u64;
        for seed in 0..trials {
            let mut s = seeds(10_000 + seed);
            let mut sampler = L0Sampler::new(n, 0.2, &mut s);
            sampler.process_stream(&stream);
            if let Some(sample) = sampler.sample() {
                empirical.record(sample.index);
            }
        }
        assert!(empirical.total() as f64 > 0.8 * trials as f64);
        let tv = empirical.total_variation(&reference);
        assert!(tv < 0.12, "total variation from uniform too large: {tv}");
    }

    #[test]
    fn nisan_mode_matches_seeded_behaviour() {
        let n = 512u64;
        let mut gen = seeds(6);
        let stream = sparse_vector_stream(n, 40, 10, &mut gen);
        let truth = TruthVector::from_stream(&stream);
        let support = truth.support();
        let mut successes = 0;
        for seed in 0..40u64 {
            let mut s = seeds(20_000 + seed);
            let mut sampler = L0Sampler::with_randomness(n, 0.25, L0Randomness::Nisan, &mut s);
            sampler.process_stream(&stream);
            if let Some(sample) = sampler.sample() {
                successes += 1;
                assert!(support.contains(&sample.index));
                assert_eq!(sample.estimate, truth.get(sample.index) as f64);
            }
        }
        assert!(successes >= 30, "Nisan-mode success rate too low: {successes}/40");
    }

    #[test]
    fn nisan_mode_stores_fewer_randomness_bits() {
        let mut s1 = seeds(7);
        let mut s2 = seeds(7);
        let seeded = L0Sampler::with_randomness(1 << 14, 0.1, L0Randomness::Seeded, &mut s1);
        let nisan = L0Sampler::with_randomness(1 << 14, 0.1, L0Randomness::Nisan, &mut s2);
        assert!(
            nisan.space().randomness_bits < seeded.space().randomness_bits,
            "the PRG seed should be smaller than the explicit membership seeds"
        );
        assert_eq!(seeded.space().counters, nisan.space().counters);
    }

    #[test]
    fn level_membership_probabilities_grow_geometrically() {
        let n = 1 << 12;
        let mut s = seeds(8);
        let sampler = L0Sampler::new(n, 0.25, &mut s);
        // level 0 contains a ~1/n fraction... no: level 0 has threshold 1,
        // level log n has threshold n (everything).
        let top = sampler.levels() - 1;
        let mut full = 0u64;
        for i in 0..n {
            if sampler.in_level(top, i) {
                full += 1;
            }
        }
        assert_eq!(full, n, "top level must contain every coordinate");
        // a middle level contains roughly 2^k coordinates
        let k = 6usize;
        let mut count = 0u64;
        for i in 0..n {
            if sampler.in_level(k, i) {
                count += 1;
            }
        }
        let expected = 1u64 << k;
        assert!(
            count > expected / 4 && count < expected * 4,
            "level {k} holds {count} coordinates, expected about {expected}"
        );
    }
}
