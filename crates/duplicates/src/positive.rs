//! Finding a positive coordinate of a turnstile vector via L1 sampling.
//!
//! This is the engine behind both duplicate-finding theorems. The paper
//! remarks (end of Section 3) that Theorems 3 and 4 generalise to: given an
//! update stream for `x ∈ Z^n`, find an index with `x_i > 0`. The reduction
//! from duplicates sets `x_i = (#occurrences of i) − 1`, so duplicates are
//! exactly the positive coordinates.
//!
//! The finder runs `v = O(log(1/δ))` independent copies of the paper's
//! 1/2-relative-error L1 sampler in parallel over the same pass; a copy
//! "votes" for an index when it returns a sample whose estimate is positive.
//! When `Σ x_i ≥ 1` a perfect L1 sample is positive with probability > 1/2,
//! so each copy produces a vote with constant probability and the first vote
//! is a true positive coordinate except with low probability (the estimate
//! would need the wrong sign).

use lps_core::{LpSampler, Mergeable, PrecisionLpSampler, StateDigest};
use lps_hash::SeedSequence;
use lps_sketch::persist::tags;
use lps_sketch::{DecodeError, Persist, WireReader, WireWriter};
use lps_stream::{SpaceBreakdown, SpaceUsage, Update, UpdateStream};

/// Relative error / success scale of each internal L1 sampler copy
/// (Theorem 3 sets both the relative error and the failure rate to 1/2).
pub const INNER_EPSILON: f64 = 0.5;

/// Number of independent L1-sampler copies needed so that the probability
/// that *no* copy produces a positive vote is at most δ, given that each copy
/// votes with probability at least ~1/8 (Theorem 3's accounting: success
/// probability ≥ ε/2 = 1/4, positive conditioned on success > 1/2).
pub fn copies_for(delta: f64) -> usize {
    assert!(delta > 0.0 && delta < 1.0);
    // per-copy vote probability lower bound
    let q: f64 = 1.0 / 8.0;
    ((delta.ln() / (1.0 - q).ln()).ceil() as usize).max(1)
}

/// A one-pass finder of an index with `x_i > 0`.
#[derive(Debug, Clone)]
pub struct PositiveCoordinateFinder {
    dimension: u64,
    delta: f64,
    copies: Vec<PrecisionLpSampler>,
}

impl PositiveCoordinateFinder {
    /// Create a finder with failure probability at most `delta` (given that a
    /// positive coordinate exists and carries the L1 mass the theorems give it).
    pub fn new(dimension: u64, delta: f64, seeds: &mut SeedSequence) -> Self {
        let v = copies_for(delta);
        let copies = (0..v)
            .map(|_| {
                let mut child = seeds.split();
                PrecisionLpSampler::new(dimension, 1.0, INNER_EPSILON, &mut child)
            })
            .collect();
        PositiveCoordinateFinder { dimension, delta, copies }
    }

    /// Number of parallel sampler copies.
    pub fn copies(&self) -> usize {
        self.copies.len()
    }

    /// The configured failure probability δ.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Dimension of the underlying vector.
    pub fn dimension(&self) -> u64 {
        self.dimension
    }

    /// Process a single update.
    pub fn process_update(&mut self, update: Update) {
        for c in self.copies.iter_mut() {
            c.process_update(update);
        }
    }

    /// Process a batch of updates through every sampler copy's
    /// `process_batch`.
    pub fn process_batch(&mut self, updates: &[Update]) {
        for c in self.copies.iter_mut() {
            c.process_batch(updates);
        }
    }

    /// Process a whole stream through the batched path.
    pub fn process_stream(&mut self, stream: &UpdateStream) {
        for chunk in stream.chunks(lps_stream::DEFAULT_BATCH_SIZE) {
            self.process_batch(chunk);
        }
    }

    /// Report an index with a positive estimate, if any copy produced one.
    pub fn find_positive(&self) -> Option<u64> {
        for copy in &self.copies {
            if let Some(sample) = copy.sample() {
                if sample.estimate > 0.0 {
                    return Some(sample.index);
                }
            }
        }
        None
    }

    /// Diagnostic: number of copies that produced any (positive or negative) sample.
    pub fn successful_copies(&self) -> usize {
        self.copies.iter().filter(|c| c.sample().is_some()).count()
    }
}

impl Mergeable for PositiveCoordinateFinder {
    /// Merge an identically-seeded finder copy by copy. The finder starts
    /// from zero state, so plain additive composition carries the usual
    /// linear-sketch semantics (concatenated streams).
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(self.dimension, other.dimension, "dimension mismatch");
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

impl Persist for PositiveCoordinateFinder {
    const TAG: u16 = tags::POSITIVE_FINDER;

    fn encode_seeds(&self, w: &mut WireWriter<'_>) {
        w.write_u64(self.dimension);
        w.write_f64(self.delta);
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
        let dimension = seeds.read_u64()?;
        let delta = seeds.read_finite_f64("positive finder delta must be finite")?;
        if dimension == 0 || !(delta > 0.0 && delta < 1.0) {
            return Err(DecodeError::Corrupt { context: "positive finder needs delta in (0, 1)" });
        }
        let count = seeds.read_count(1)?;
        if count == 0 {
            return Err(DecodeError::Corrupt { context: "positive finder needs >= 1 copy" });
        }
        let copies = (0..count)
            .map(|_| PrecisionLpSampler::decode_parts(seeds, counters))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(PositiveCoordinateFinder { dimension, delta, copies })
    }
}

impl SpaceUsage for PositiveCoordinateFinder {
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
    use lps_stream::{TurnstileModel, UpdateStream};

    #[test]
    fn copies_for_shrinks_with_larger_delta() {
        assert!(copies_for(0.01) > copies_for(0.3));
        assert!(copies_for(0.9) >= 1);
    }

    #[test]
    fn finds_the_unique_positive_coordinate() {
        // x has one +1 coordinate and many -1 coordinates: exactly the
        // Theorem 3 situation after the duplicates reduction.
        let n = 128u64;
        let mut stream = UpdateStream::new(n, TurnstileModel::General);
        for i in 0..60u64 {
            stream.push(Update::new(i, -1));
        }
        stream.push(Update::new(100, 61)); // sum = +1
        let mut found = 0;
        let mut wrong = 0;
        let trials = 30u64;
        for seed in 0..trials {
            let mut seeds = SeedSequence::new(500 + seed);
            let mut finder = PositiveCoordinateFinder::new(n, 0.2, &mut seeds);
            finder.process_stream(&stream);
            match finder.find_positive() {
                Some(100) => found += 1,
                Some(_) => wrong += 1,
                None => {}
            }
        }
        assert_eq!(wrong, 0, "a negative coordinate was reported as positive");
        assert!(found as f64 >= 0.6 * trials as f64, "found only {found}/{trials}");
    }

    #[test]
    fn zero_vector_reports_nothing() {
        let mut seeds = SeedSequence::new(1);
        let finder = PositiveCoordinateFinder::new(64, 0.25, &mut seeds);
        assert!(finder.find_positive().is_none());
        assert_eq!(finder.successful_copies(), 0);
    }

    #[test]
    fn space_scales_with_copies() {
        let mut s1 = SeedSequence::new(2);
        let mut s2 = SeedSequence::new(2);
        let loose = PositiveCoordinateFinder::new(1024, 0.5, &mut s1);
        let tight = PositiveCoordinateFinder::new(1024, 0.01, &mut s2);
        assert!(tight.copies() > loose.copies());
        assert!(tight.bits_used() > loose.bits_used());
    }
}
