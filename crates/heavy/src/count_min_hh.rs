//! Count-min / count-median heavy hitters — the prior baseline the paper's
//! Section 4.4 compares against (Cormode–Muthukrishnan, the p = 1 case).
//!
//! The count-min sketch with width `O(1/φ)` overestimates every coordinate by
//! at most `φ/4·‖x‖₁` (strict turnstile), so thresholding point queries at
//! `(3/4)φ·‖x‖₁` yields a valid heavy hitter set for p = 1. For general
//! update streams the same table is queried by medians (count-median). Either
//! way the space is `O(φ^{-1} log² n)` bits — the paper's contribution is
//! extending the φ^{-p} trade-off to every `p ∈ (0, 2]` via count-sketch.

use lps_hash::SeedSequence;
use lps_sketch::linear::LinearSketch;
use lps_sketch::persist::tags;
use lps_sketch::{
    CountMinSketch, DecodeError, Mergeable, PStableSketch, Persist, StateDigest, WireReader,
    WireWriter,
};
use lps_stream::{SpaceBreakdown, SpaceUsage, Update, UpdateStream};

/// Count-min based heavy hitters for the strict turnstile model, p = 1.
#[derive(Debug, Clone)]
pub struct CountMinHeavyHitters {
    dimension: u64,
    phi: f64,
    sketch: CountMinSketch,
    norm: PStableSketch,
}

impl CountMinHeavyHitters {
    /// Create a heavy hitter structure for threshold φ under the L1 norm.
    pub fn new(dimension: u64, phi: f64, seeds: &mut SeedSequence) -> Self {
        assert!(phi > 0.0 && phi < 1.0);
        let width = ((4.0 / phi).ceil() as usize).max(2);
        let rows = (((dimension.max(4) as f64).log2()).ceil() as usize).max(5) | 1;
        let sketch = CountMinSketch::new(dimension, width, rows, seeds);
        let norm = PStableSketch::with_default_rows(dimension, 1.0, seeds);
        CountMinHeavyHitters { dimension, phi, sketch, norm }
    }

    /// The heaviness threshold φ.
    pub fn phi(&self) -> f64 {
        self.phi
    }

    /// Width of the underlying count-min table.
    pub fn width(&self) -> usize {
        self.sketch.width()
    }

    /// Process a single update.
    pub fn update(&mut self, index: u64, delta: i64) {
        self.sketch.update(index, delta);
        self.norm.update(index, delta as f64);
    }

    /// Process a batch of updates through both internal sketches' batched
    /// fast paths.
    pub fn process_batch(&mut self, updates: &[Update]) {
        self.sketch.process_batch(updates);
        self.norm.process_batch(updates);
    }

    /// Process a whole stream through the batched path.
    pub fn process(&mut self, stream: &UpdateStream) {
        for chunk in stream.chunks(lps_stream::DEFAULT_BATCH_SIZE) {
            self.process_batch(chunk);
        }
    }

    /// Report the heavy hitter set using the internal L1 norm estimate.
    pub fn report(&self) -> Vec<u64> {
        let r = self.norm.upper_estimate();
        if r.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Vec::new();
        }
        self.report_with_norm(0.75 * r)
    }

    /// Report using an externally supplied (e.g. exact) value of `‖x‖₁`.
    pub fn report_with_norm(&self, norm: f64) -> Vec<u64> {
        let threshold = 0.75 * self.phi * norm;
        (0..self.dimension).filter(|&i| self.sketch.estimate(i) as f64 >= threshold).collect()
    }
}

impl Mergeable for CountMinHeavyHitters {
    /// Merge an identically-seeded driver by composing its inner merges
    /// (exact integer count-min table, float p-stable norm counters).
    ///
    /// Under sharded ingestion the count-min table is bit-exact and only the
    /// p-stable norm counters drift, by at most `~2kε` relative per counter
    /// (`k` = shard count, `ε = 2⁻⁵³`, modulo cancellation; Kahan
    /// compensation keeps each shard's sums exact to `O(ε)`) — far
    /// below the φ-threshold margins, so non-marginal reports are unchanged
    /// (measured in `tests/float_drift.rs`).
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(self.dimension, other.dimension, "dimension mismatch");
        assert_eq!(self.phi, other.phi, "threshold mismatch");
        self.sketch.merge(&other.sketch);
        self.norm.merge_from(&other.norm);
    }

    fn state_digest(&self) -> u64 {
        let mut d = StateDigest::new();
        d.write_u64(self.sketch.state_digest()).write_u64(self.norm.state_digest());
        d.finish()
    }
}

impl Persist for CountMinHeavyHitters {
    const TAG: u16 = tags::CM_HEAVY_HITTERS;

    fn encode_seeds(&self, w: &mut WireWriter<'_>) {
        w.write_u64(self.dimension);
        w.write_f64(self.phi);
        self.sketch.encode_seeds(w);
        self.norm.encode_seeds(w);
    }

    fn encode_counters(&self, w: &mut WireWriter<'_>) {
        self.sketch.encode_counters(w);
        self.norm.encode_counters(w);
    }

    fn decode_parts(
        seeds: &mut WireReader<'_>,
        counters: &mut WireReader<'_>,
    ) -> Result<Self, DecodeError> {
        let dimension = seeds.read_u64()?;
        let phi = seeds.read_finite_f64("heavy hitter phi must be finite")?;
        if dimension == 0 || !(phi > 0.0 && phi < 1.0) {
            return Err(DecodeError::Corrupt {
                context: "count-min heavy hitters need phi in (0, 1)",
            });
        }
        let sketch = CountMinSketch::decode_parts(seeds, counters)?;
        let norm = PStableSketch::decode_parts(seeds, counters)?;
        Ok(CountMinHeavyHitters { dimension, phi, sketch, norm })
    }
}

impl SpaceUsage for CountMinHeavyHitters {
    fn space(&self) -> SpaceBreakdown {
        self.sketch.space().combine(&self.norm.space())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact_hh::is_valid_heavy_hitter_set;
    use lps_stream::{zipf_stream, TruthVector, TurnstileModel, UpdateStream};

    fn seeds(seed: u64) -> SeedSequence {
        SeedSequence::new(seed)
    }

    #[test]
    fn finds_planted_heavy_hitters() {
        let n = 2048u64;
        let mut stream = UpdateStream::new(n, TurnstileModel::Strict);
        stream.push(Update::new(42, 5000));
        for i in 0..n {
            stream.push(Update::new(i, 2));
        }
        let truth = TruthVector::from_stream(&stream);
        let phi = 0.25;
        let mut s = seeds(1);
        let mut hh = CountMinHeavyHitters::new(n, phi, &mut s);
        hh.process(&stream);
        let reported = hh.report_with_norm(truth.lp_norm(1.0));
        assert!(reported.contains(&42));
        assert!(is_valid_heavy_hitter_set(&truth, 1.0, phi, &reported).is_valid());
    }

    #[test]
    fn zipfian_stream_valid_set() {
        let n = 1024u64;
        let mut gen = seeds(2);
        let stream = zipf_stream(n, 20_000, 1.4, &mut gen);
        let truth = TruthVector::from_stream(&stream);
        let phi = 0.0625;
        let mut s = seeds(3);
        let mut hh = CountMinHeavyHitters::new(n, phi, &mut s);
        hh.process(&stream);
        let reported = hh.report_with_norm(truth.lp_norm(1.0));
        assert!(is_valid_heavy_hitter_set(&truth, 1.0, phi, &reported).is_valid());
    }

    #[test]
    fn empty_stream_reports_nothing() {
        let mut s = seeds(4);
        let hh = CountMinHeavyHitters::new(128, 0.25, &mut s);
        assert!(hh.report().is_empty());
    }

    #[test]
    fn width_scales_with_inverse_phi() {
        let mut s = seeds(5);
        let coarse = CountMinHeavyHitters::new(1024, 0.25, &mut s);
        let fine = CountMinHeavyHitters::new(1024, 0.025, &mut s);
        assert!(fine.width() > 5 * coarse.width());
        assert!(fine.bits_used() > coarse.bits_used());
    }
}
