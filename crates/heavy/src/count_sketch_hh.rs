//! The paper's heavy hitter upper bound: count-sketch with `m = 1/φ^p`
//! (Section 4.4).
//!
//! The argument in the paper: with count-sketch parameter `m`, every point
//! estimate errs by at most `d = Err^m_2(x)/√m`, and for any `p ∈ (0, 2]`
//! one has `d ≤ ‖x‖_p / m^{1/p}`. Setting `m = ⌈1/φ^p⌉` makes the error at
//! most `φ‖x‖_p` up to the constant absorbed by the gap between the φ and
//! φ/2 thresholds; reporting every coordinate whose estimate clears
//! `(3/4)φ·r̂` (with `r̂` a 2-approximation of `‖x‖_p` from the p-stable
//! sketch) therefore yields a valid heavy hitter set with high probability in
//! `O(φ^{-p} log² n)` bits — matching the Theorem 9 lower bound.

use lps_hash::SeedSequence;
use lps_sketch::persist::tags;
use lps_sketch::{
    CountSketch, DecodeError, LinearSketch, Mergeable, PStableSketch, Persist, StateDigest,
    WireReader, WireWriter,
};
use lps_stream::{SpaceBreakdown, SpaceUsage, Update, UpdateStream};

use crate::exact_hh::exact_heavy_hitters;

/// Count-sketch based heavy hitters for general update streams, any `p ∈ (0, 2]`.
#[derive(Debug, Clone)]
pub struct CountSketchHeavyHitters {
    dimension: u64,
    p: f64,
    phi: f64,
    sketch: CountSketch,
    norm: PStableSketch,
}

impl CountSketchHeavyHitters {
    /// Create a heavy hitter structure for threshold φ under the Lp norm.
    pub fn new(dimension: u64, p: f64, phi: f64, seeds: &mut SeedSequence) -> Self {
        assert!(p > 0.0 && p <= 2.0, "the count-sketch bound covers p in (0, 2]");
        assert!(phi > 0.0 && phi < 1.0);
        // m = ceil(1/phi^p), with a small constant for the norm-estimate slack
        let m = ((2.0 / phi.powf(p)).ceil() as usize).max(2);
        let sketch = CountSketch::with_default_rows(dimension, m, seeds);
        let norm = PStableSketch::with_default_rows(dimension, p, seeds);
        CountSketchHeavyHitters { dimension, p, phi, sketch, norm }
    }

    /// The count-sketch parameter m in use.
    pub fn m(&self) -> usize {
        self.sketch.m()
    }

    /// The heaviness threshold φ.
    pub fn phi(&self) -> f64 {
        self.phi
    }

    /// The norm exponent p.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Process a single update.
    pub fn update(&mut self, index: u64, delta: i64) {
        self.sketch.update(index, delta as f64);
        self.norm.update(index, delta as f64);
    }

    /// Process a batch of updates: the count-sketch coalesces and walks its
    /// table row-major, the norm sketch caches its p-stable coefficients.
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

    /// Report the heavy hitter set: every coordinate whose count-sketch
    /// estimate reaches `(3/4)·φ·r̂`, where `r̂ ≈ ‖x‖_p`.
    pub fn report(&self) -> Vec<u64> {
        // upper_estimate() is in [‖x‖_p, 2‖x‖_p]; halve it to centre the
        // threshold between the φ and φ/2 validity boundaries.
        let r = self.norm.upper_estimate();
        if r.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Vec::new();
        }
        let norm_guess = 0.75 * r; // in [0.75, 1.5]·‖x‖_p w.h.p.
        let threshold = 0.75 * self.phi * norm_guess;
        let mut out = Vec::new();
        for i in 0..self.dimension {
            if self.sketch.estimate(i).abs() >= threshold {
                out.push(i);
            }
        }
        out
    }

    /// Report using the *exact* norm (used by experiments to isolate the
    /// count-sketch error from the norm-estimation error).
    pub fn report_with_norm(&self, exact_norm: f64) -> Vec<u64> {
        let threshold = 0.75 * self.phi * exact_norm;
        (0..self.dimension).filter(|&i| self.sketch.estimate(i).abs() >= threshold).collect()
    }

    /// Convenience for tests: the exact heavy hitters of a ground-truth vector.
    pub fn exact(x: &lps_stream::TruthVector, p: f64, phi: f64) -> Vec<u64> {
        exact_heavy_hitters(x, p, phi)
    }
}

impl Mergeable for CountSketchHeavyHitters {
    /// Merge an identically-seeded driver by composing its inner merges:
    /// the count-sketch merge is exact for integer workloads, the p-stable
    /// norm merge is linear up to floating-point rounding.
    ///
    /// Under sharded ingestion only the p-stable norm counters drift, and by
    /// at most `~2kε` relative per counter (`k` = shard count, `ε = 2⁻⁵³`,
    /// modulo cancellation; Kahan compensation keeps each shard's sums
    /// exact to `O(ε)`) — orders of magnitude below the
    /// driver's φ-threshold margins, so the reported heavy-hitter set of a
    /// sharded run matches the sequential one except for coordinates sitting
    /// exactly on the threshold (measured in `tests/float_drift.rs`).
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(self.dimension, other.dimension, "dimension mismatch");
        assert_eq!(self.phi, other.phi, "threshold mismatch");
        assert_eq!(self.p, other.p, "exponent mismatch");
        self.sketch.merge_from(&other.sketch);
        self.norm.merge_from(&other.norm);
    }

    fn state_digest(&self) -> u64 {
        let mut d = StateDigest::new();
        d.write_u64(self.sketch.state_digest()).write_u64(self.norm.state_digest());
        d.finish()
    }
}

impl Persist for CountSketchHeavyHitters {
    const TAG: u16 = tags::CS_HEAVY_HITTERS;

    fn encode_seeds(&self, w: &mut WireWriter<'_>) {
        w.write_u64(self.dimension);
        w.write_f64(self.p);
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
        let p = seeds.read_finite_f64("heavy hitter p must be finite")?;
        let phi = seeds.read_finite_f64("heavy hitter phi must be finite")?;
        if dimension == 0 || !(p > 0.0 && p <= 2.0) || !(phi > 0.0 && phi < 1.0) {
            return Err(DecodeError::Corrupt {
                context: "count-sketch heavy hitters need p in (0, 2] and phi in (0, 1)",
            });
        }
        let sketch = CountSketch::decode_parts(seeds, counters)?;
        let norm = PStableSketch::decode_parts(seeds, counters)?;
        Ok(CountSketchHeavyHitters { dimension, p, phi, sketch, norm })
    }
}

impl SpaceUsage for CountSketchHeavyHitters {
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
    fn m_scales_with_phi_and_p() {
        let mut s = seeds(1);
        let a = CountSketchHeavyHitters::new(1024, 1.0, 0.125, &mut s);
        let b = CountSketchHeavyHitters::new(1024, 1.0, 0.03125, &mut s);
        assert!(b.m() > a.m());
        let c = CountSketchHeavyHitters::new(1024, 2.0, 0.125, &mut s);
        assert!(c.m() > a.m(), "for phi < 1, 1/phi^p grows with p, so p=2 needs more buckets");
    }

    #[test]
    fn finds_planted_heavy_hitters_l1() {
        let n = 4096u64;
        let mut stream = UpdateStream::new(n, TurnstileModel::General);
        // two heavy coordinates on top of a light signed tail
        stream.push(Update::new(100, 4000));
        stream.push(Update::new(3000, -3500));
        for i in 0..n {
            stream.push(Update::new(i, if i % 2 == 0 { 1 } else { -1 }));
        }
        let truth = TruthVector::from_stream(&stream);
        let phi = 0.25;
        let mut s = seeds(2);
        let mut hh = CountSketchHeavyHitters::new(n, 1.0, phi, &mut s);
        hh.process(&stream);
        let reported = hh.report();
        assert!(reported.contains(&100));
        assert!(reported.contains(&3000));
        assert!(is_valid_heavy_hitter_set(&truth, 1.0, phi, &reported).is_valid());
    }

    #[test]
    fn valid_sets_on_zipfian_streams_for_various_p() {
        let n = 2048u64;
        let mut gen = seeds(3);
        let stream = zipf_stream(n, 30_000, 1.3, &mut gen);
        let truth = TruthVector::from_stream(&stream);
        for (p, phi) in [(1.0, 0.125), (2.0, 0.25), (0.5, 0.0625), (1.5, 0.125)] {
            let mut s = seeds(100 + (p * 10.0) as u64);
            let mut hh = CountSketchHeavyHitters::new(n, p, phi, &mut s);
            hh.process(&stream);
            let reported = hh.report_with_norm(truth.lp_norm(p));
            let verdict = is_valid_heavy_hitter_set(&truth, p, phi, &reported);
            assert!(
                verdict.is_valid(),
                "invalid heavy hitter set for p={p}, phi={phi}: {verdict:?}"
            );
        }
    }

    #[test]
    fn empty_stream_reports_nothing() {
        let mut s = seeds(4);
        let hh = CountSketchHeavyHitters::new(128, 1.0, 0.25, &mut s);
        assert!(hh.report().is_empty());
    }

    #[test]
    fn strict_turnstile_deletions_respected() {
        let n = 512u64;
        let mut stream = UpdateStream::new(n, TurnstileModel::Strict);
        // coordinate 7 is briefly heavy then mostly deleted
        stream.push(Update::new(7, 1000));
        stream.push(Update::new(9, 800));
        stream.push(Update::new(7, -995));
        for i in 0..200u64 {
            stream.push(Update::new(i + 200, 1));
        }
        let truth = TruthVector::from_stream(&stream);
        let phi = 0.3;
        let mut s = seeds(5);
        let mut hh = CountSketchHeavyHitters::new(n, 1.0, phi, &mut s);
        hh.process(&stream);
        let reported = hh.report_with_norm(truth.lp_norm(1.0));
        assert!(reported.contains(&9));
        assert!(!reported.contains(&7), "deleted coordinate must not be reported");
    }

    #[test]
    fn space_scales_with_inverse_phi_to_the_p() {
        let mut s = seeds(6);
        let coarse = CountSketchHeavyHitters::new(1 << 12, 1.0, 0.25, &mut s);
        let fine = CountSketchHeavyHitters::new(1 << 12, 1.0, 0.0625, &mut s);
        let ratio = fine.bits_used() as f64 / coarse.bits_used() as f64;
        assert!(ratio > 2.0, "phi shrank 4x, counters should grow accordingly (ratio {ratio:.2})");
    }
}
