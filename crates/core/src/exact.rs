//! An exact (full-memory) Lp sampler used as ground truth in experiments.
//!
//! This sampler stores the entire frequency vector, computes the exact Lp
//! distribution of Definition 1 and samples from it. It is *not* a streaming
//! algorithm (Θ(n log n) bits); its only purpose is to provide the reference
//! distribution and reference estimates the sketched samplers are compared
//! against in the experiments (see the README's Experiments section).

use lps_hash::SeedSequence;
use lps_sketch::persist::tags;
use lps_sketch::{DecodeError, Mergeable, Persist, StateDigest, WireReader, WireWriter};
use lps_stream::{SpaceBreakdown, SpaceUsage, TruthVector, Update};

use crate::traits::{LpSampler, Sample};

/// A full-memory exact Lp sampler (ground truth only).
#[derive(Debug, Clone)]
pub struct ExactSampler {
    p: f64,
    vector: TruthVector,
    rng_seed: u64,
    draws: std::cell::Cell<u64>,
}

impl ExactSampler {
    /// Create an exact sampler for the given exponent (`p ≥ 0`).
    pub fn new(dimension: u64, p: f64, seeds: &mut SeedSequence) -> Self {
        assert!(p >= 0.0);
        ExactSampler {
            p,
            vector: TruthVector::zeros(dimension),
            rng_seed: seeds.next_u64(),
            draws: std::cell::Cell::new(0),
        }
    }

    /// Access the exact aggregated vector.
    pub fn vector(&self) -> &TruthVector {
        &self.vector
    }

    /// Draw an independent sample (unlike sketched samplers, the exact
    /// sampler can produce as many independent samples as desired).
    pub fn draw(&self) -> Option<Sample> {
        let dist = self.vector.lp_distribution(self.p)?;
        let draw_index = self.draws.get();
        self.draws.set(draw_index + 1);
        let mut rng =
            SeedSequence::new(self.rng_seed ^ draw_index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let mut acc = 0.0;
        for (i, &pmass) in dist.iter().enumerate() {
            acc += pmass;
            if u < acc {
                return Some(Sample {
                    index: i as u64,
                    estimate: self.vector.get(i as u64) as f64,
                });
            }
        }
        // numerical slack: return the last non-zero coordinate
        dist.iter()
            .rposition(|&v| v > 0.0)
            .map(|i| Sample { index: i as u64, estimate: self.vector.get(i as u64) as f64 })
    }
}

impl Mergeable for ExactSampler {
    /// The identity map is trivially linear: merging adds the exact vectors
    /// coordinate by coordinate.
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(self.vector.dimension(), other.vector.dimension(), "dimension mismatch");
        for i in 0..other.vector.dimension() {
            let v = other.vector.get(i);
            if v != 0 {
                self.vector.apply(Update::new(i, v));
            }
        }
    }

    fn state_digest(&self) -> u64 {
        let mut d = StateDigest::new();
        for &v in self.vector.values() {
            d.write_i64(v);
        }
        d.finish()
    }
}

impl Persist for ExactSampler {
    const TAG: u16 = tags::EXACT_SAMPLER;

    fn encode_seeds(&self, w: &mut WireWriter<'_>) {
        w.write_u64(self.vector.dimension());
        w.write_f64(self.p);
        w.write_u64(self.rng_seed);
    }

    fn encode_counters(&self, w: &mut WireWriter<'_>) {
        for &v in self.vector.values() {
            w.write_i64(v);
        }
        // the draw counter is query state, but it determines the next sample,
        // so a checkpointed sampler resumes its draw stream where it left off
        w.write_u64(self.draws.get());
    }

    fn decode_parts(
        seeds: &mut WireReader<'_>,
        counters: &mut WireReader<'_>,
    ) -> Result<Self, DecodeError> {
        let dimension = seeds.read_u64()?;
        let p = seeds.read_finite_f64("exact sampler p must be finite")?;
        if dimension == 0 || p < 0.0 {
            return Err(DecodeError::Corrupt { context: "exact sampler needs p >= 0" });
        }
        let rng_seed = seeds.read_u64()?;
        let count = usize::try_from(dimension)
            .map_err(|_| DecodeError::Corrupt { context: "exact sampler dimension too large" })?;
        let values = counters.read_i64s(count)?;
        let draws = counters.read_u64()?;
        Ok(ExactSampler {
            p,
            vector: TruthVector::from_values(values),
            rng_seed,
            draws: std::cell::Cell::new(draws),
        })
    }
}

impl LpSampler for ExactSampler {
    fn process_update(&mut self, update: Update) {
        self.vector.apply(update);
    }

    fn sample(&self) -> Option<Sample> {
        self.draw()
    }

    fn p(&self) -> f64 {
        self.p
    }

    fn dimension(&self) -> u64 {
        self.vector.dimension()
    }

    fn name(&self) -> &'static str {
        "exact"
    }
}

impl SpaceUsage for ExactSampler {
    fn space(&self) -> SpaceBreakdown {
        let n = self.vector.dimension();
        SpaceBreakdown::new(
            n,
            lps_stream::counter_bits_for(n, self.vector.max_abs().unsigned_abs().max(2)),
            64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lps_stream::{EmpiricalDistribution, TurnstileModel, UpdateStream};

    #[test]
    fn exact_sampler_matches_lp_distribution() {
        let n = 16u64;
        let mut stream = UpdateStream::new(n, TurnstileModel::General);
        stream.push(Update::new(0, 1));
        stream.push(Update::new(1, -3));
        stream.push(Update::new(5, 6));
        let mut seeds = SeedSequence::new(1);
        let mut sampler = ExactSampler::new(n, 1.0, &mut seeds);
        sampler.process_stream(&stream);
        let reference = sampler.vector().lp_distribution(1.0).unwrap();
        let mut empirical = EmpiricalDistribution::new(n);
        for _ in 0..20_000 {
            empirical.record(sampler.draw().unwrap().index);
        }
        assert!(empirical.total_variation(&reference) < 0.02);
    }

    #[test]
    fn zero_vector_fails() {
        let mut seeds = SeedSequence::new(2);
        let sampler = ExactSampler::new(8, 1.0, &mut seeds);
        assert!(sampler.sample().is_none());
    }

    #[test]
    fn l0_mode_uniform_over_support() {
        let n = 8u64;
        let mut stream = UpdateStream::new(n, TurnstileModel::General);
        stream.push(Update::new(0, 100));
        stream.push(Update::new(3, 1));
        let mut seeds = SeedSequence::new(3);
        let mut sampler = ExactSampler::new(n, 0.0, &mut seeds);
        sampler.process_stream(&stream);
        let mut counts = [0u64; 2];
        for _ in 0..4000 {
            match sampler.draw().unwrap().index {
                0 => counts[0] += 1,
                3 => counts[1] += 1,
                other => panic!("sampled {other}, not in support"),
            }
        }
        let frac = counts[0] as f64 / 4000.0;
        assert!((frac - 0.5).abs() < 0.05, "L0 sampling should ignore magnitudes, got {frac}");
    }

    #[test]
    fn estimates_are_exact() {
        let mut seeds = SeedSequence::new(4);
        let mut sampler = ExactSampler::new(8, 1.0, &mut seeds);
        sampler.process_update(Update::new(2, -9));
        let s = sampler.sample().unwrap();
        assert_eq!(s.index, 2);
        assert_eq!(s.estimate, -9.0);
    }
}
