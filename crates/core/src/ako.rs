//! The Andoni–Krauthgamer–Onak precision-sampling baseline.
//!
//! AKO ("Streaming algorithms via precision sampling", 2010) introduced the
//! scheme the paper refines: scale `x` by pairwise-independent `1/t_i`
//! factors and find the maximum of the scaled vector with a count-sketch.
//! Their analysis needs the count-sketch to localise a coordinate that is an
//! `Ω(1/log n)` fraction of `‖z‖₁`, which forces the sketch width to grow by
//! an extra `O(log n)` factor: total space `O(ε^{−p} log³ n)` bits versus the
//! paper's `O(ε^{−p} log² n)`.
//!
//! We reproduce that baseline faithfully *in its space usage and structure*:
//! pairwise-independent scaling factors, a count-sketch whose width carries
//! the extra `O(log n)` factor, and a recovery rule that only checks the
//! magnitude threshold (no tail-error guard — that guard is exactly the
//! paper's innovation). Experiment E2 compares the measured bits of the two
//! samplers as n grows, which is where the `log³` vs `log²` gap shows.

use lps_hash::{KWiseHash, SeedSequence};
use lps_sketch::persist::tags;
use lps_sketch::{
    rows_for_dimension, CountSketch, DecodeError, LinearSketch, Mergeable, PStableSketch, Persist,
    StateDigest, WireReader, WireWriter,
};
use lps_stream::{SpaceBreakdown, SpaceUsage, Update};

use crate::traits::{LpSampler, Sample};

/// Constant factor on the AKO count-sketch parameter.
const AKO_M_CONSTANT: f64 = 12.0;

/// The AKO-style precision sampler baseline (p ∈ [1, 2)).
#[derive(Debug, Clone)]
pub struct AkoSampler {
    p: f64,
    epsilon: f64,
    dimension: u64,
    scaling: KWiseHash,
    count_sketch: CountSketch,
    norm_sketch: PStableSketch,
}

impl AkoSampler {
    /// Create an AKO baseline sampler.
    pub fn new(dimension: u64, p: f64, epsilon: f64, seeds: &mut SeedSequence) -> Self {
        assert!((1.0..2.0).contains(&p), "the AKO baseline covers p in [1, 2), got {p}");
        assert!(epsilon > 0.0 && epsilon < 1.0);
        // Pairwise-independent scaling factors (the paper strengthens this to
        // k-wise; AKO's analysis only uses pairwise).
        let scaling = KWiseHash::new(2, seeds);
        // The extra log n width factor relative to the paper's sampler.
        let log_n = (dimension.max(4) as f64).log2().ceil() as usize;
        let m = ((AKO_M_CONSTANT * epsilon.powf(-p)).ceil() as usize).max(2) * log_n.max(1);
        let rows = rows_for_dimension(dimension);
        let count_sketch = CountSketch::new(dimension, m, rows, seeds);
        let norm_sketch = PStableSketch::with_default_rows(dimension, p, seeds);
        AkoSampler { p, epsilon, dimension, scaling, count_sketch, norm_sketch }
    }

    /// The width parameter of the internal count-sketch (exposed so the space
    /// experiment can report it).
    pub fn sketch_m(&self) -> usize {
        self.count_sketch.m()
    }

    fn scaling_factor(&self, index: u64) -> f64 {
        self.scaling.unit_interval(index)
    }
}

impl LpSampler for AkoSampler {
    fn process_update(&mut self, update: Update) {
        let i = update.index;
        debug_assert!(i < self.dimension);
        let delta = update.delta as f64;
        let scaled = delta * self.scaling_factor(i).powf(-1.0 / self.p);
        self.count_sketch.update(i, scaled);
        self.norm_sketch.update(i, delta);
    }

    fn sample(&self) -> Option<Sample> {
        let r = self.norm_sketch.upper_estimate();
        if r.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return None;
        }
        let (index, zstar) = self.count_sketch.argmax_estimate();
        // AKO accepts when the maximum scaled coordinate crosses the
        // magnitude threshold; there is no tail-error guard.
        if zstar.abs() < self.epsilon.powf(-1.0 / self.p) * r {
            return None;
        }
        let t = self.scaling_factor(index);
        Some(Sample { index, estimate: zstar * t.powf(1.0 / self.p) })
    }

    fn p(&self) -> f64 {
        self.p
    }

    fn dimension(&self) -> u64 {
        self.dimension
    }

    fn name(&self) -> &'static str {
        "ako-baseline"
    }
}

impl Mergeable for AkoSampler {
    /// Merge an identically-seeded baseline by composing its inner sketch
    /// merges (real-valued counters: linear up to floating-point rounding).
    ///
    /// Sharded ingestion drifts from sequential by at most `~2kε` relative
    /// per counter (`k` = shard count, `ε = 2⁻⁵³`, modulo cancellation;
    /// Kahan compensation keeps each shard's sums exact to `O(ε)`) — see
    /// `PrecisionLpSampler::merge_from` for the bound's
    /// derivation and `tests/float_drift.rs` for the measurement.
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(self.dimension, other.dimension, "dimension mismatch");
        assert_eq!(self.p, other.p, "exponent mismatch");
        assert_eq!(self.epsilon, other.epsilon, "epsilon mismatch");
        self.count_sketch.merge_from(&other.count_sketch);
        self.norm_sketch.merge_from(&other.norm_sketch);
    }

    fn state_digest(&self) -> u64 {
        let mut d = StateDigest::new();
        d.write_u64(self.count_sketch.state_digest()).write_u64(self.norm_sketch.state_digest());
        d.finish()
    }
}

impl Persist for AkoSampler {
    const TAG: u16 = tags::AKO_SAMPLER;

    fn encode_seeds(&self, w: &mut WireWriter<'_>) {
        w.write_u64(self.dimension);
        w.write_f64(self.p);
        w.write_f64(self.epsilon);
        self.scaling.encode_seeds(w);
        self.count_sketch.encode_seeds(w);
        self.norm_sketch.encode_seeds(w);
    }

    fn encode_counters(&self, w: &mut WireWriter<'_>) {
        self.count_sketch.encode_counters(w);
        self.norm_sketch.encode_counters(w);
    }

    fn decode_parts(
        seeds: &mut WireReader<'_>,
        counters: &mut WireReader<'_>,
    ) -> Result<Self, DecodeError> {
        let dimension = seeds.read_u64()?;
        let p = seeds.read_finite_f64("AKO sampler p must be finite")?;
        let epsilon = seeds.read_finite_f64("AKO sampler epsilon must be finite")?;
        if dimension == 0 || !(1.0..2.0).contains(&p) || !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(DecodeError::Corrupt {
                context: "AKO sampler needs p in [1, 2) and epsilon in (0, 1)",
            });
        }
        let scaling = KWiseHash::decode_parts(seeds, counters)?;
        let count_sketch = CountSketch::decode_parts(seeds, counters)?;
        let norm_sketch = PStableSketch::decode_parts(seeds, counters)?;
        Ok(AkoSampler { p, epsilon, dimension, scaling, count_sketch, norm_sketch })
    }
}

impl SpaceUsage for AkoSampler {
    fn space(&self) -> SpaceBreakdown {
        let scaling_bits = SpaceBreakdown::new(0, 0, self.scaling.random_bits());
        self.count_sketch.space().combine(&self.norm_sketch.space()).combine(&scaling_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precision::PrecisionLpSampler;
    use lps_stream::{sparse_vector_stream, TruthVector, TurnstileModel, UpdateStream};

    fn seeds(seed: u64) -> SeedSequence {
        SeedSequence::new(seed)
    }

    #[test]
    #[should_panic]
    fn p_below_one_rejected() {
        let mut s = seeds(1);
        let _ = AkoSampler::new(64, 0.5, 0.5, &mut s);
    }

    #[test]
    fn zero_vector_fails() {
        let mut s = seeds(2);
        let sampler = AkoSampler::new(128, 1.0, 0.5, &mut s);
        assert!(sampler.sample().is_none());
    }

    #[test]
    fn samples_come_from_support() {
        let n = 512u64;
        let mut gen = seeds(3);
        let stream = sparse_vector_stream(n, 12, 30, &mut gen);
        let truth = TruthVector::from_stream(&stream);
        let support = truth.support();
        let mut successes = 0;
        for seed in 0..60u64 {
            let mut s = seeds(100 + seed);
            let mut sampler = AkoSampler::new(n, 1.0, 0.5, &mut s);
            sampler.process_stream(&stream);
            if let Some(sample) = sampler.sample() {
                successes += 1;
                assert!(support.contains(&sample.index));
            }
        }
        assert!(successes > 0);
    }

    #[test]
    fn uses_more_space_than_the_papers_sampler() {
        // The whole point of the paper: AKO carries an extra O(log n) factor.
        let n = 1 << 14;
        let mut s1 = seeds(4);
        let mut s2 = seeds(4);
        let ako = AkoSampler::new(n, 1.0, 0.25, &mut s1);
        let ours = PrecisionLpSampler::new(n, 1.0, 0.25, &mut s2);
        assert!(
            ako.bits_used() > 3 * ours.bits_used(),
            "AKO ({}) should be much larger than the paper's sampler ({})",
            ako.bits_used(),
            ours.bits_used()
        );
    }

    #[test]
    fn space_gap_grows_with_dimension() {
        let mut ratio_small = 0.0;
        let mut ratio_large = 0.0;
        for (n, out) in [(1u64 << 10, &mut ratio_small), (1u64 << 18, &mut ratio_large)] {
            let mut s1 = seeds(5);
            let mut s2 = seeds(5);
            let ako = AkoSampler::new(n, 1.5, 0.5, &mut s1);
            let ours = PrecisionLpSampler::new(n, 1.5, 0.5, &mut s2);
            *out = ako.bits_used() as f64 / ours.bits_used() as f64;
        }
        assert!(
            ratio_large > ratio_small,
            "the log-factor gap should widen with n (small {ratio_small:.2}, large {ratio_large:.2})"
        );
    }

    #[test]
    fn heavy_coordinate_dominates_output() {
        let n = 128u64;
        let mut stream = UpdateStream::new(n, TurnstileModel::General);
        stream.push(Update::new(7, 90));
        stream.push(Update::new(80, 3));
        let mut heavy = 0;
        let mut other = 0;
        for seed in 0..200u64 {
            let mut s = seeds(700 + seed);
            let mut sampler = AkoSampler::new(n, 1.0, 0.4, &mut s);
            sampler.process_stream(&stream);
            if let Some(sample) = sampler.sample() {
                if sample.index == 7 {
                    heavy += 1;
                } else {
                    other += 1;
                }
            }
        }
        assert!(heavy > 3 * other.max(1), "heavy {heavy} vs other {other}");
    }
}
