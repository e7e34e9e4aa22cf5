//! The paper's precision-sampling Lp sampler (Figure 1, Section 2) for
//! `p ∈ (0, 2)`.
//!
//! The algorithm, verbatim from Figure 1:
//!
//! * **Initialization.** For `p ≠ 1` set `k = 10⌈1/|p−1|⌉` and
//!   `m = O(ε^{−max(0,p−1)})`; for `p = 1` set `k = m = O(log(1/ε))`. Set
//!   `β = ε^{1−1/p}` and `l = O(log n)`. Draw k-wise independent uniform
//!   scaling factors `t_i ∈ [0, 1]`.
//! * **Processing.** Maintain a count-sketch (parameter `m`, `l` rows) of the
//!   scaled vector `z_i = x_i / t_i^{1/p}`, a linear sketch for a
//!   2-approximation of `‖x‖_p`, and a linear L2 sketch of `z`.
//! * **Recovery.** Decode `z*` from the count-sketch and its best m-sparse
//!   approximation `ẑ`; compute `r ∈ [‖x‖_p, 2‖x‖_p]` and
//!   `s ∈ [‖z−ẑ‖₂, 2‖z−ẑ‖₂]` (the latter via `L'(z) − L'(ẑ)`); find the
//!   coordinate `i` maximising `|z*_i|`. **FAIL** if `s > β√m·r` or
//!   `|z*_i| < ε^{−1/p}·r`; otherwise output `i` and the estimate
//!   `z*_i · t_i^{1/p}` of `x_i`.
//!
//! Lemma 4 shows that conditioned on any fixed `r ≥ ‖x‖_p` the output index
//! is `i` with probability `(ε + O(ε²))|x_i|^p/r^p + O(n^{−c})` and that the
//! estimate has relative error at most ε w.h.p.; Theorem 1 wraps
//! `O(log(1/δ)/ε)` independent repetitions around it to push the failure
//! probability below δ (see [`crate::repeat`]).

use lps_hash::{KWiseHash, SeedSequence};
use lps_sketch::persist::tags;
use lps_sketch::{
    AmsSketch, CountSketch, DecodeError, LinearSketch, Mergeable, PStableSketch, Persist,
    StateDigest, WireReader, WireWriter,
};
use lps_stream::{SpaceBreakdown, SpaceUsage, Update};

use crate::traits::{LpSampler, Sample};

/// Constant factor applied to the `m = O(ε^{−max(0,p−1)})` parameter for
/// `p ≠ 1` ("with a large enough constant factor", Figure 1 step 1).
const M_CONSTANT: f64 = 12.0;
/// Constant factor applied to `k = m = O(log(1/ε))` for `p = 1`.
const M_CONSTANT_P1: f64 = 6.0;

/// The parameters of Figure 1, derived from `(p, ε)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionParams {
    /// Norm exponent, `p ∈ (0, 2)`.
    pub p: f64,
    /// Target relative error / success scale ε.
    pub epsilon: f64,
    /// Independence of the scaling factors.
    pub k: usize,
    /// Count-sketch parameter m.
    pub m: usize,
    /// The guard threshold exponent β = ε^{1−1/p}.
    pub beta: f64,
}

impl PrecisionParams {
    /// Derive the Figure 1 parameters for a given `(p, ε)`.
    pub fn derive(p: f64, epsilon: f64) -> Self {
        assert!(p > 0.0 && p < 2.0, "the precision sampler requires p ∈ (0, 2), got {p}");
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must lie in (0, 1), got {epsilon}");
        let (k, m) = if (p - 1.0).abs() < 1e-9 {
            let v = (M_CONSTANT_P1 * (1.0 / epsilon).ln()).ceil().max(2.0) as usize;
            (v, v)
        } else {
            let k = 10 * (1.0 / (p - 1.0).abs()).ceil() as usize;
            let m = (M_CONSTANT * epsilon.powf(-(0.0f64).max(p - 1.0))).ceil().max(2.0) as usize;
            (k, m)
        };
        let beta = epsilon.powf(1.0 - 1.0 / p);
        PrecisionParams { p, epsilon, k, m, beta }
    }

    /// The magnitude threshold `ε^{−1/p}` that `|z*_i|/r` must reach.
    pub fn magnitude_threshold(&self) -> f64 {
        self.epsilon.powf(-1.0 / self.p)
    }
}

/// The precision Lp sampler of Figure 1 (single instance; constant success
/// probability Θ(ε) — wrap in [`crate::repeat::RepeatedSampler`] for 1 − δ).
#[derive(Debug, Clone)]
pub struct PrecisionLpSampler {
    params: PrecisionParams,
    dimension: u64,
    /// k-wise independent source of the scaling factors `t_i`.
    scaling: KWiseHash,
    /// Count-sketch of the scaled vector z.
    count_sketch: CountSketch,
    /// Lp-norm sketch of x (Lemma 2's 2-approximation r).
    norm_sketch: PStableSketch,
    /// L2 sketch of z, used for `s ≈ ‖z − ẑ‖₂` via linearity.
    l2_sketch: AmsSketch,
}

impl PrecisionLpSampler {
    /// Create a sampler for vectors over `[0, dimension)` with the given
    /// exponent `p ∈ (0,2)` and relative-error/success scale ε.
    pub fn new(dimension: u64, p: f64, epsilon: f64, seeds: &mut SeedSequence) -> Self {
        let params = PrecisionParams::derive(p, epsilon);
        let scaling = KWiseHash::new(params.k, seeds);
        let count_sketch = CountSketch::with_default_rows(dimension, params.m, seeds);
        let norm_sketch = PStableSketch::with_default_rows(dimension, p, seeds);
        let l2_sketch = AmsSketch::with_default_shape(dimension, seeds);
        PrecisionLpSampler { params, dimension, scaling, count_sketch, norm_sketch, l2_sketch }
    }

    /// The derived Figure 1 parameters.
    pub fn params(&self) -> PrecisionParams {
        self.params
    }

    /// The scaling factor `t_i ∈ (0, 1]` of a coordinate.
    pub fn scaling_factor(&self, index: u64) -> f64 {
        self.scaling.unit_interval(index)
    }

    /// The multiplier `t_i^{−1/p}` applied to coordinate `i`.
    fn scale_multiplier(&self, index: u64) -> f64 {
        self.scaling_factor(index).powf(-1.0 / self.params.p)
    }

    /// Internal recovery-stage computation, exposed for white-box tests and
    /// the experiment harness: returns `(argmax index, z* at argmax, r, s)`.
    pub fn recovery_state(&self) -> RecoveryState {
        let zstar = self.count_sketch.decode_all();
        let mut best_i = 0u64;
        let mut best_abs = -1.0f64;
        for (i, &v) in zstar.iter().enumerate() {
            if v.abs() > best_abs {
                best_abs = v.abs();
                best_i = i as u64;
            }
        }
        // best m-sparse approximation ẑ of z*
        let mut order: Vec<usize> = (0..zstar.len()).collect();
        order.sort_by(|&a, &b| zstar[b].abs().partial_cmp(&zstar[a].abs()).unwrap());
        let zhat: Vec<(u64, f64)> = order
            .iter()
            .take(self.params.m)
            .filter(|&&i| zstar[i] != 0.0)
            .map(|&i| (i as u64, zstar[i]))
            .collect();
        let r = self.norm_sketch.upper_estimate();
        // s ≈ ‖z − ẑ‖₂ from L'(z) − L'(ẑ)
        let mut diff = self.l2_sketch.clone();
        diff.subtract(&self.l2_sketch.sketch_of_sparse(&zhat));
        let s = diff.l2_upper_estimate();
        RecoveryState { best_index: best_i, best_zstar: zstar[best_i as usize], r, s }
    }
}

/// The intermediate quantities of the recovery stage (step 1–4 of Figure 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryState {
    /// Index maximising `|z*_i|`.
    pub best_index: u64,
    /// The count-sketch estimate `z*` at that index.
    pub best_zstar: f64,
    /// The norm estimate `r ∈ [‖x‖_p, 2‖x‖_p]` (w.h.p.).
    pub r: f64,
    /// The tail estimate `s ∈ [‖z−ẑ‖₂, 2‖z−ẑ‖₂]` (w.h.p.).
    pub s: f64,
}

impl LpSampler for PrecisionLpSampler {
    fn process_update(&mut self, update: Update) {
        let i = update.index;
        debug_assert!(i < self.dimension);
        let delta = update.delta as f64;
        let scaled = delta * self.scale_multiplier(i);
        self.count_sketch.update(i, scaled);
        self.l2_sketch.update(i, scaled);
        self.norm_sketch.update(i, delta);
    }

    fn sample(&self) -> Option<Sample> {
        let state = self.recovery_state();
        if state.r.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            // zero (or un-estimable) vector: a perfect sampler may only fail here
            return None;
        }
        // Step 5: FAIL if s > β·√m·r or |z*_i| < ε^{−1/p}·r.
        let tail_guard = self.params.beta * (self.params.m as f64).sqrt() * state.r;
        if state.s > tail_guard {
            return None;
        }
        if state.best_zstar.abs() < self.params.magnitude_threshold() * state.r {
            return None;
        }
        // Step 6: output i and z*_i · t_i^{1/p} as the estimate of x_i.
        let t = self.scaling_factor(state.best_index);
        let estimate = state.best_zstar * t.powf(1.0 / self.params.p);
        Some(Sample { index: state.best_index, estimate })
    }

    fn p(&self) -> f64 {
        self.params.p
    }

    fn dimension(&self) -> u64 {
        self.dimension
    }

    fn name(&self) -> &'static str {
        "precision-lp"
    }
}

impl Mergeable for PrecisionLpSampler {
    /// Merge an identically-seeded sampler by composing the merges of its
    /// three internal linear sketches. Counter contents are real-valued
    /// (scaled by `t_i^{−1/p}`), so merging is linear up to floating-point
    /// rounding: commutative bitwise, associative approximately.
    ///
    /// **Sharded-ingestion error bound.** Relative to sequential ingestion,
    /// a k-shard merge only *reassociates* each counter's sum, so for a
    /// counter accumulating `m` update terms the drift obeys the standard
    /// summation bound `|sharded − sequential| ≤ 2(m−1)·ε·Σ|terms| + O(ε²)`
    /// with `ε = 2⁻⁵³` — a relative error ≲ `2mε` times the cancellation
    /// ratio `Σ|terms| / |Σ terms|`. Kahan compensation in the underlying
    /// sketches (`lps_sketch::compensated`) keeps each shard's per-counter
    /// sum exact to `O(ε)` independent of `m`, so only the k-way merge
    /// reassociates and the effective bound tightens to `~2kε` — ~10⁻¹² at
    /// the shard counts here, many orders below the sampler's Θ(ε_sampler)
    /// estimator noise, so sharding cannot flip non-marginal accept/FAIL
    /// decisions (pinned quantitatively by `tests/float_drift.rs`).
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(self.dimension, other.dimension, "dimension mismatch");
        assert_eq!(self.params, other.params, "parameter mismatch");
        self.count_sketch.merge_from(&other.count_sketch);
        self.norm_sketch.merge_from(&other.norm_sketch);
        self.l2_sketch.merge_from(&other.l2_sketch);
    }

    fn state_digest(&self) -> u64 {
        let mut d = StateDigest::new();
        d.write_u64(self.count_sketch.state_digest())
            .write_u64(self.norm_sketch.state_digest())
            .write_u64(self.l2_sketch.state_digest());
        d.finish()
    }
}

impl Persist for PrecisionLpSampler {
    const TAG: u16 = tags::PRECISION_SAMPLER;

    fn encode_seeds(&self, w: &mut WireWriter<'_>) {
        w.write_u64(self.dimension);
        // (p, ε) determine every derived parameter in `params`; the rest of
        // the seed material is the scaling hash plus the three sub-sketches.
        w.write_f64(self.params.p);
        w.write_f64(self.params.epsilon);
        self.scaling.encode_seeds(w);
        self.count_sketch.encode_seeds(w);
        self.norm_sketch.encode_seeds(w);
        self.l2_sketch.encode_seeds(w);
    }

    fn encode_counters(&self, w: &mut WireWriter<'_>) {
        self.count_sketch.encode_counters(w);
        self.norm_sketch.encode_counters(w);
        self.l2_sketch.encode_counters(w);
    }

    fn decode_parts(
        seeds: &mut WireReader<'_>,
        counters: &mut WireReader<'_>,
    ) -> Result<Self, DecodeError> {
        let dimension = seeds.read_u64()?;
        let p = seeds.read_finite_f64("precision sampler p must be finite")?;
        let epsilon = seeds.read_finite_f64("precision sampler epsilon must be finite")?;
        if dimension == 0 || !(p > 0.0 && p < 2.0) || !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(DecodeError::Corrupt {
                context: "precision sampler needs p in (0, 2) and epsilon in (0, 1)",
            });
        }
        let params = PrecisionParams::derive(p, epsilon);
        let scaling = KWiseHash::decode_parts(seeds, counters)?;
        let count_sketch = CountSketch::decode_parts(seeds, counters)?;
        let norm_sketch = PStableSketch::decode_parts(seeds, counters)?;
        let l2_sketch = AmsSketch::decode_parts(seeds, counters)?;
        Ok(PrecisionLpSampler { params, dimension, scaling, count_sketch, norm_sketch, l2_sketch })
    }
}

impl SpaceUsage for PrecisionLpSampler {
    fn space(&self) -> SpaceBreakdown {
        let scaling_bits = SpaceBreakdown::new(0, 0, self.scaling.random_bits());
        self.count_sketch
            .space()
            .combine(&self.norm_sketch.space())
            .combine(&self.l2_sketch.space())
            .combine(&scaling_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lps_stream::{sparse_vector_stream, TruthVector, TurnstileModel, UpdateStream};

    fn seeds(seed: u64) -> SeedSequence {
        SeedSequence::new(seed)
    }

    #[test]
    fn parameter_derivation_matches_figure_1() {
        // p ≠ 1: k = 10⌈1/|p−1|⌉
        let p15 = PrecisionParams::derive(1.5, 0.25);
        assert_eq!(p15.k, 20);
        assert!(p15.m >= (12.0 * 0.25f64.powf(-0.5)) as usize);
        // p < 1: m = O(ε^0) = O(1)
        let p05 = PrecisionParams::derive(0.5, 0.1);
        assert_eq!(p05.k, 20);
        assert!(p05.m <= 13);
        // p = 1: k = m = O(log 1/ε)
        let p1 = PrecisionParams::derive(1.0, 0.1);
        assert_eq!(p1.k, p1.m);
        assert!(p1.k >= 2);
        // β = ε^{1−1/p}
        assert!((p15.beta - 0.25f64.powf(1.0 - 1.0 / 1.5)).abs() < 1e-12);
        assert!((p1.beta - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn p_equal_two_rejected() {
        PrecisionParams::derive(2.0, 0.5);
    }

    #[test]
    #[should_panic]
    fn p_zero_rejected() {
        PrecisionParams::derive(0.0, 0.5);
    }

    #[test]
    fn scaling_factors_are_deterministic_and_in_range() {
        let mut s = seeds(1);
        let sampler = PrecisionLpSampler::new(1024, 1.0, 0.5, &mut s);
        for i in 0..200u64 {
            let t = sampler.scaling_factor(i);
            assert!(t > 0.0 && t <= 1.0);
            assert_eq!(t, sampler.scaling_factor(i));
        }
    }

    #[test]
    fn zero_vector_always_fails() {
        let mut s = seeds(2);
        let sampler = PrecisionLpSampler::new(256, 1.0, 0.5, &mut s);
        assert!(sampler.sample().is_none());
    }

    #[test]
    fn single_coordinate_vector_is_sampled_when_not_failing() {
        // With a single non-zero coordinate, any non-FAIL output must return
        // that coordinate with a near-exact estimate.
        let n = 256u64;
        let mut stream = UpdateStream::new(n, TurnstileModel::General);
        stream.push(Update::new(77, 42));
        let mut successes = 0;
        for seed in 0..120u64 {
            let mut s = seeds(1000 + seed);
            let mut sampler = PrecisionLpSampler::new(n, 1.0, 0.5, &mut s);
            sampler.process_stream(&stream);
            if let Some(sample) = sampler.sample() {
                successes += 1;
                assert_eq!(sample.index, 77, "only non-zero coordinate must be returned");
                assert!(
                    (sample.estimate - 42.0).abs() / 42.0 < 0.6,
                    "estimate {} too far from 42",
                    sample.estimate
                );
            }
        }
        assert!(successes > 0, "sampler should succeed at least occasionally");
    }

    #[test]
    fn samples_come_from_support_and_estimates_track_truth() {
        let n = 512u64;
        let mut gen_seeds = seeds(77);
        let stream = sparse_vector_stream(n, 20, 50, &mut gen_seeds);
        let truth = TruthVector::from_stream(&stream);
        let support = truth.support();
        let mut successes = 0u32;
        for seed in 0..150u64 {
            let mut s = seeds(5000 + seed);
            let mut sampler = PrecisionLpSampler::new(n, 1.0, 0.5, &mut s);
            sampler.process_stream(&stream);
            if let Some(sample) = sampler.sample() {
                successes += 1;
                assert!(
                    support.contains(&sample.index),
                    "sampled index {} is not in the support",
                    sample.index
                );
                let x = truth.get(sample.index) as f64;
                assert!(
                    (sample.estimate - x).abs() / x.abs() < 0.75,
                    "estimate {} too far from x_i = {x}",
                    sample.estimate
                );
            }
        }
        assert!(successes >= 5, "expected a reasonable number of successes, got {successes}");
    }

    #[test]
    fn heavier_coordinates_are_sampled_more_often() {
        // one dominant coordinate should be returned far more often than a
        // light one under L1 sampling
        let n = 128u64;
        let mut stream = UpdateStream::new(n, TurnstileModel::General);
        stream.push(Update::new(10, 80));
        stream.push(Update::new(20, 2));
        stream.push(Update::new(30, -2));
        let mut heavy = 0u32;
        let mut light = 0u32;
        for seed in 0..400u64 {
            let mut s = seeds(9000 + seed);
            let mut sampler = PrecisionLpSampler::new(n, 1.0, 0.4, &mut s);
            sampler.process_stream(&stream);
            if let Some(sample) = sampler.sample() {
                if sample.index == 10 {
                    heavy += 1;
                } else {
                    light += 1;
                }
            }
        }
        assert!(heavy > 5, "heavy coordinate rarely sampled ({heavy})");
        assert!(heavy > 4 * light, "heavy {heavy} should dominate light {light}");
    }

    #[test]
    fn space_scales_with_epsilon_for_p_above_one() {
        let mut s = seeds(3);
        let coarse = PrecisionLpSampler::new(1 << 12, 1.5, 0.5, &mut s);
        let fine = PrecisionLpSampler::new(1 << 12, 1.5, 0.05, &mut s);
        assert!(fine.bits_used() > coarse.bits_used());
        // m should grow roughly like ε^{-1/2} for p = 1.5
        assert!(fine.params().m > coarse.params().m);
    }

    #[test]
    fn recovery_state_is_consistent_with_sampling_decision() {
        let n = 256u64;
        let mut stream = UpdateStream::new(n, TurnstileModel::General);
        for i in 0..n {
            stream.push(Update::new(i, (i % 3) as i64 + 1));
        }
        let mut s = seeds(4);
        let mut sampler = PrecisionLpSampler::new(n, 1.2, 0.3, &mut s);
        sampler.process_stream(&stream);
        let st = sampler.recovery_state();
        assert!(st.r > 0.0);
        assert!(st.s >= 0.0);
        let params = sampler.params();
        let expected_fail = st.s > params.beta * (params.m as f64).sqrt() * st.r
            || st.best_zstar.abs() < params.magnitude_threshold() * st.r;
        assert_eq!(sampler.sample().is_none(), expected_fail);
    }
}
