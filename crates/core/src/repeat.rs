//! Independent repetition: boosting a constant-success sampler to success
//! probability `1 − δ` (Theorem 1 / Theorem 2 outer loop).
//!
//! The Figure 1 sampler succeeds with probability Θ(ε) per instance, so
//! Theorem 1 runs `v = O(log(1/δ)/ε)` independent copies *in parallel over
//! the same pass* and returns the first non-failing output. Because every
//! copy is a linear sketch this costs a factor `v` in space and keeps the
//! single-pass property. [`RepeatedSampler`] implements exactly that wrapper,
//! generically over any [`LpSampler`].

use lps_hash::SeedSequence;
use lps_sketch::persist::tags;
use lps_sketch::{DecodeError, Mergeable, Persist, StateDigest, WireReader, WireWriter};
use lps_stream::{SpaceBreakdown, SpaceUsage, Update};

use crate::traits::{LpSampler, Sample};

/// `v = ⌈c · 2^p · ln(1/δ)/ε⌉` repetitions, the Theorem 1 prescription with a
/// small safety constant. The per-instance success probability of the
/// Figure 1 sampler is at least `ε/2^p` (proof of Theorem 1), so this many
/// independent copies fail simultaneously with probability at most δ.
pub fn repetitions_for(p: f64, epsilon: f64, delta: f64) -> usize {
    assert!(epsilon > 0.0 && epsilon < 1.0);
    assert!(delta > 0.0 && delta < 1.0);
    let c = 1.5;
    ((c * 2f64.powf(p) * (1.0 / delta).ln() / epsilon).ceil() as usize).max(1)
}

/// A sampler made of `v` independent copies of an inner sampler; the sample
/// is the first non-failing inner sample.
#[derive(Debug, Clone)]
pub struct RepeatedSampler<S> {
    copies: Vec<S>,
}

impl<S: LpSampler> RepeatedSampler<S> {
    /// Build `copies` independent samplers with the provided constructor.
    /// Each copy receives a split-off, independent seed sequence.
    pub fn new<F>(copies: usize, seeds: &mut SeedSequence, mut make: F) -> Self
    where
        F: FnMut(&mut SeedSequence) -> S,
    {
        assert!(copies >= 1);
        let instances = (0..copies)
            .map(|_| {
                let mut child = seeds.split();
                make(&mut child)
            })
            .collect();
        RepeatedSampler { copies: instances }
    }

    /// Number of parallel copies.
    pub fn copies(&self) -> usize {
        self.copies.len()
    }

    /// Access the inner copies (used by experiments to inspect per-copy state).
    pub fn inner(&self) -> &[S] {
        &self.copies
    }

    /// Fraction of copies that currently produce a sample (diagnostic).
    pub fn success_fraction(&self) -> f64 {
        let ok = self.copies.iter().filter(|c| c.sample().is_some()).count();
        ok as f64 / self.copies.len() as f64
    }
}

impl<S: LpSampler> LpSampler for RepeatedSampler<S> {
    fn process_update(&mut self, update: Update) {
        for c in self.copies.iter_mut() {
            c.process_update(update);
        }
    }

    /// Forward the batch to every copy so each inner sampler's own batched
    /// path (the L0 samplers' coalescing, for instance) runs.
    fn process_batch(&mut self, updates: &[Update]) {
        for c in self.copies.iter_mut() {
            c.process_batch(updates);
        }
    }

    fn sample(&self) -> Option<Sample> {
        self.copies.iter().find_map(|c| c.sample())
    }

    fn p(&self) -> f64 {
        self.copies[0].p()
    }

    fn dimension(&self) -> u64 {
        self.copies[0].dimension()
    }

    fn name(&self) -> &'static str {
        "repeated"
    }
}

impl<S: Mergeable> Mergeable for RepeatedSampler<S> {
    /// Merge copy by copy — every inner sampler absorbs its identically-seeded
    /// counterpart.
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(self.copies.len(), other.copies.len(), "copy-count mismatch");
        for (a, b) in self.copies.iter_mut().zip(other.copies.iter()) {
            a.merge_from(b);
        }
    }

    fn state_digest(&self) -> u64 {
        let mut d = StateDigest::new();
        for c in &self.copies {
            d.write_u64(c.state_digest());
        }
        d.finish()
    }
}

impl<S: Persist> Persist for RepeatedSampler<S> {
    /// The wrapper's tag composes the repetition marker with the inner
    /// sampler's tag, so `RepeatedSampler<PrecisionLpSampler>` and
    /// `RepeatedSampler<L0Sampler>` encode distinguishably. The const
    /// assertion rejects inner tags that already carry the repetition bit
    /// (i.e. nesting `RepeatedSampler<RepeatedSampler<_>>`) at compile
    /// time: OR-ing the bit twice would collide with the single wrapper's
    /// tag and break the "tags are never reused" wire-format guarantee.
    const TAG: u16 = {
        assert!(
            S::TAG & tags::REPEATED_BASE == 0,
            "RepeatedSampler cannot wrap a structure whose tag already carries REPEATED_BASE"
        );
        tags::REPEATED_BASE | S::TAG
    };

    fn encode_seeds(&self, w: &mut WireWriter<'_>) {
        w.write_len(self.copies.len());
        for c in &self.copies {
            c.encode_seeds(w);
        }
    }

    fn encode_counters(&self, w: &mut WireWriter<'_>) {
        for c in &self.copies {
            c.encode_counters(w);
        }
    }

    fn decode_parts(
        seeds: &mut WireReader<'_>,
        counters: &mut WireReader<'_>,
    ) -> Result<Self, DecodeError> {
        let count = seeds.read_count(1)?;
        if count == 0 {
            return Err(DecodeError::Corrupt { context: "repeated sampler needs >= 1 copy" });
        }
        let copies =
            (0..count).map(|_| S::decode_parts(seeds, counters)).collect::<Result<Vec<_>, _>>()?;
        Ok(RepeatedSampler { copies })
    }
}

impl<S: LpSampler> SpaceUsage for RepeatedSampler<S> {
    fn space(&self) -> SpaceBreakdown {
        self.copies
            .iter()
            .map(|c| c.space())
            .fold(SpaceBreakdown::default(), |acc, s| acc.combine(&s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precision::PrecisionLpSampler;
    use lps_stream::{sparse_vector_stream, TruthVector};

    #[test]
    fn repetition_count_grows_with_precision_and_confidence() {
        let base = repetitions_for(1.0, 0.5, 0.5);
        assert!(repetitions_for(1.0, 0.1, 0.5) > base);
        assert!(repetitions_for(1.0, 0.5, 0.01) > base);
        assert!(repetitions_for(1.0, 0.5, 0.5) >= 1);
    }

    #[test]
    fn repeated_sampler_rarely_fails() {
        let n = 256u64;
        let mut gen = SeedSequence::new(1);
        let stream = sparse_vector_stream(n, 10, 20, &mut gen);
        let truth = TruthVector::from_stream(&stream);
        let support = truth.support();

        let epsilon = 0.4;
        let delta = 0.1;
        let v = repetitions_for(1.0, epsilon, delta);
        let trials = 25u64;
        let mut failures = 0;
        for seed in 0..trials {
            let mut seeds = SeedSequence::new(1000 + seed);
            let mut sampler = RepeatedSampler::new(v, &mut seeds, |s| {
                PrecisionLpSampler::new(n, 1.0, epsilon, s)
            });
            sampler.process_stream(&stream);
            match sampler.sample() {
                Some(sample) => assert!(support.contains(&sample.index)),
                None => failures += 1,
            }
        }
        assert!(
            (failures as f64 / trials as f64) <= 2.5 * delta + 0.1,
            "failure rate {failures}/{trials} exceeds the δ = {delta} target by too much"
        );
    }

    #[test]
    fn space_scales_linearly_with_copies() {
        let mut seeds = SeedSequence::new(2);
        let one =
            RepeatedSampler::new(1, &mut seeds, |s| PrecisionLpSampler::new(512, 1.0, 0.5, s));
        let mut seeds = SeedSequence::new(2);
        let four =
            RepeatedSampler::new(4, &mut seeds, |s| PrecisionLpSampler::new(512, 1.0, 0.5, s));
        assert_eq!(four.copies(), 4);
        let ratio = four.bits_used() as f64 / one.bits_used() as f64;
        assert!((ratio - 4.0).abs() < 0.2, "space ratio {ratio} should be ~4");
    }

    #[test]
    fn first_success_wins() {
        // With many copies the wrapper must return some copy's result and the
        // p/dimension accessors must delegate.
        let mut seeds = SeedSequence::new(3);
        let mut sampler =
            RepeatedSampler::new(3, &mut seeds, |s| PrecisionLpSampler::new(64, 1.0, 0.5, s));
        assert_eq!(sampler.p(), 1.0);
        assert_eq!(sampler.dimension(), 64);
        sampler.process_update(Update::new(5, 10));
        if let Some(s) = sampler.sample() {
            assert_eq!(s.index, 5);
        }
        assert!(sampler.success_fraction() >= 0.0);
    }
}
