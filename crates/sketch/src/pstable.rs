//! Indyk's p-stable sketch for Lp norm estimation, `p ∈ (0, 2]`.
//!
//! Lemma 2 of the paper (quoting Kane–Nelson–Woodruff) needs a streaming
//! algorithm based on a random linear map `L : R^n → R^l`, `l = O(log n)`,
//! that outputs `r` with `‖x‖_p ≤ r ≤ 2‖x‖_p` with high probability. The
//! classic construction is Indyk's p-stable sketch: every counter is
//! `y_j = Σ_i c_{ij}·x_i` with i.i.d. p-stable coefficients `c_{ij}`, so
//! `y_j` is itself p-stable with scale `‖x‖_p`, and `median_j |y_j|` divided
//! by the median of the absolute standard p-stable distribution estimates the
//! norm.
//!
//! The coefficients are generated pseudorandomly from per-row hash functions
//! (Chambers–Mallows–Stuck transform of two uniforms derived from the hashed
//! index), so the sketch stores only `O(l)` counters plus hash seeds — the
//! space the paper charges. The normalising constant `median|S(p)|` is
//! calibrated once per instance by a deterministic Monte Carlo pass.

use lps_hash::{KWiseHash, SeedSequence};
use lps_stream::{counter_bits_for, SpaceBreakdown, SpaceUsage};

use crate::compensated::kahan_add;
use crate::count_sketch::median;
use crate::linear::LinearSketch;
use crate::mergeable::{Mergeable, StateDigest};
use crate::persist::{tags, DecodeError, Persist, WireReader, WireWriter};

/// Number of Monte Carlo samples used to calibrate `median |S(p)|`.
const CALIBRATION_SAMPLES: usize = 50_001;

/// A p-stable Lp-norm sketch.
#[derive(Debug, Clone)]
pub struct PStableSketch {
    dimension: u64,
    p: f64,
    rows: usize,
    counters: Vec<f64>,
    /// Kahan compensation terms, parallel to `counters` (see
    /// [`crate::compensated`]). Unlike the signed-unit sketches these
    /// counters sum arbitrary reals, so the compensation genuinely tightens
    /// the sequential-vs-sharded drift bound.
    comp: Vec<f64>,
    /// One hash per row; the hashed index supplies the uniforms that the CMS
    /// transform turns into that row's p-stable coefficient for the index.
    row_hashes: Vec<KWiseHash>,
    /// median of |S(p)| for the standard p-stable distribution.
    median_abs: f64,
}

impl PStableSketch {
    /// Create a sketch with the given number of rows (counters).
    pub fn new(dimension: u64, p: f64, rows: usize, seeds: &mut SeedSequence) -> Self {
        assert!(dimension > 0);
        assert!(p > 0.0 && p <= 2.0, "p-stable sketches require p in (0, 2]");
        assert!(rows >= 1);
        // Use an independence high enough that the per-coefficient uniforms
        // behave independently across the coordinates that matter; full
        // independence is emulated by a wide polynomial hash.
        let row_hashes = (0..rows).map(|_| KWiseHash::new(8, seeds)).collect();
        let median_abs = calibrate_median_abs(p);
        PStableSketch {
            dimension,
            p,
            rows,
            counters: vec![0.0; rows],
            comp: vec![0.0; rows],
            row_hashes,
            median_abs,
        }
    }

    /// Default shape: `O(log n)` rows, enough for a 2-approximation w.h.p.
    pub fn with_default_rows(dimension: u64, p: f64, seeds: &mut SeedSequence) -> Self {
        let rows = (((dimension.max(4) as f64).log2() * 3.0).ceil() as usize).max(21) | 1;
        PStableSketch::new(dimension, p, rows, seeds)
    }

    /// The norm exponent p.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Number of rows (counters).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The p-stable coefficient `c_{ij}` for row `j` and index `i`.
    fn coefficient(&self, row: usize, index: u64) -> f64 {
        let h = self.row_hashes[row].hash(index);
        // split the 61-bit hash into two uniforms
        let u1 = ((h & 0x3FFF_FFFF) as f64 + 0.5) / (1u64 << 30) as f64;
        let u2 = (((h >> 30) & 0x7FFF_FFFF) as f64 + 0.5) / (1u64 << 31) as f64;
        stable_sample(self.p, u1, u2)
    }

    /// The median-based estimate of `‖x‖_p`.
    pub fn estimate(&self) -> f64 {
        let mut mags: Vec<f64> = self.counters.iter().map(|c| c.abs()).collect();
        median(&mut mags) / self.median_abs
    }

    /// A value `r` with `‖x‖_p ≤ r ≤ 2‖x‖_p` with high probability (Lemma 2
    /// interface): the median estimate inflated by a factor 1.4, so that a
    /// (1 ± 0.3)-accurate estimate lands in the required window.
    pub fn upper_estimate(&self) -> f64 {
        self.estimate() * 1.4
    }
}

impl LinearSketch for PStableSketch {
    fn update(&mut self, index: u64, delta: f64) {
        debug_assert!(index < self.dimension);
        for row in 0..self.rows {
            let v = self.coefficient(row, index) * delta;
            kahan_add(&mut self.counters[row], &mut self.comp[row], v);
        }
    }

    /// Batched fast path: cache the p-stable coefficient vector per distinct
    /// index (a pure function of the index whose CMS transform — `sin`,
    /// `cos`, `powf`, `ln` — dominates the update cost), but apply the
    /// updates in stream order so the floating-point accumulation in each
    /// counter matches the sequential path bit for bit. Unlike the integer
    /// sketches, the coefficients are arbitrary reals, so coalescing deltas
    /// would change rounding; caching does not.
    fn process_batch(&mut self, updates: &[lps_stream::Update]) {
        let mut cache: std::collections::HashMap<u64, Vec<f64>> = std::collections::HashMap::new();
        for u in updates {
            debug_assert!(u.index < self.dimension);
            let rows = self.rows;
            let coeffs = match cache.entry(u.index) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    let coeffs: Vec<f64> =
                        (0..rows).map(|row| self.coefficient(row, u.index)).collect();
                    e.insert(coeffs)
                }
            };
            let delta = u.delta as f64;
            for ((counter, comp), c) in
                self.counters.iter_mut().zip(self.comp.iter_mut()).zip(coeffs.iter())
            {
                kahan_add(counter, comp, c * delta);
            }
        }
    }

    fn merge(&mut self, other: &Self) {
        assert_eq!(self.rows, other.rows);
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
        assert_eq!(self.rows, other.rows);
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

impl Mergeable for PStableSketch {
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

impl Persist for PStableSketch {
    const TAG: u16 = tags::PSTABLE;

    fn encode_seeds(&self, w: &mut WireWriter<'_>) {
        w.write_u64(self.dimension);
        w.write_f64(self.p);
        w.write_len(self.rows);
        for h in &self.row_hashes {
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
        let p = seeds.read_finite_f64("p-stable exponent must be finite")?;
        if dimension == 0 || !(p > 0.0 && p <= 2.0) {
            return Err(DecodeError::Corrupt { context: "p-stable sketch needs p in (0, 2]" });
        }
        let rows = seeds.read_count(1)?;
        if rows == 0 {
            return Err(DecodeError::Corrupt { context: "p-stable sketch needs rows >= 1" });
        }
        let row_hashes = (0..rows)
            .map(|_| KWiseHash::decode_parts(seeds, counters))
            .collect::<Result<Vec<_>, _>>()?;
        let values = counters.read_f64s(rows)?;
        let comp = counters.read_f64s(rows)?;
        // The normalising constant is derived deterministically from p, not
        // stored: recompute it exactly as the constructor does.
        let median_abs = calibrate_median_abs(p);
        Ok(PStableSketch { dimension, p, rows, counters: values, comp, row_hashes, median_abs })
    }
}

impl SpaceUsage for PStableSketch {
    fn space(&self) -> SpaceBreakdown {
        let counters = self.rows as u64;
        let counter_bits = counter_bits_for(self.dimension, self.dimension);
        let randomness = self.row_hashes.iter().map(|h| h.random_bits()).sum();
        SpaceBreakdown::new(counters, counter_bits, randomness)
    }
}

/// Sample a standard symmetric p-stable random variable from two uniforms in
/// (0, 1) via the Chambers–Mallows–Stuck transform. For `p = 2` the result is
/// a Gaussian scaled so that the stability parameter matches `‖·‖₂`
/// (`N(0, 2)` under the CMS convention reduced to `N(0,1)·√2`; the
/// calibration constant absorbs scaling, so only consistency matters).
pub fn stable_sample(p: f64, u1: f64, u2: f64) -> f64 {
    debug_assert!(p > 0.0 && p <= 2.0);
    let theta = std::f64::consts::PI * (u1 - 0.5); // Uniform(-pi/2, pi/2)
    let w = -(u2.max(1e-300)).ln(); // Exp(1)
    if (p - 1.0).abs() < 1e-9 {
        // Cauchy
        return theta.tan();
    }
    let a = (p * theta).sin() / theta.cos().powf(1.0 / p);
    let b = ((theta * (1.0 - p)).cos() / w).powf((1.0 - p) / p);
    a * b
}

/// Deterministically estimate the median of |S(p)| for the standard p-stable
/// distribution, used as the normalising constant of the median estimator.
fn calibrate_median_abs(p: f64) -> f64 {
    if (p - 1.0).abs() < 1e-9 {
        return 1.0; // median |Cauchy| = tan(pi/4) = 1
    }
    let mut seq = SeedSequence::new(0xCA11_B0B0 ^ (p.to_bits()));
    let mut mags: Vec<f64> = Vec::with_capacity(CALIBRATION_SAMPLES);
    for _ in 0..CALIBRATION_SAMPLES {
        let u1 = (seq.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let u2 = ((seq.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        mags.push(stable_sample(p, u1, u2).abs());
    }
    median(&mut mags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lps_stream::TruthVector;

    fn seeds(seed: u64) -> SeedSequence {
        SeedSequence::new(seed)
    }

    #[test]
    fn cauchy_median_is_one() {
        assert!((calibrate_median_abs(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gaussian_median_close_to_known_value() {
        // For the CMS convention at p=2 the output is sqrt(2)·N(0,1), whose
        // absolute median is sqrt(2)·0.67449 ≈ 0.9539.
        let m = calibrate_median_abs(2.0);
        assert!((m - 0.9539).abs() < 0.02, "calibrated median {m}");
    }

    #[test]
    fn stable_sample_p1_is_tan_theta() {
        let v = stable_sample(1.0, 0.75, 0.3);
        assert!((v - (std::f64::consts::PI * 0.25).tan()).abs() < 1e-12);
    }

    fn norm_estimate_test(p: f64, seed: u64) {
        let n: u64 = 4096;
        let mut s = seeds(seed);
        let mut sk = PStableSketch::with_default_rows(n, p, &mut s);
        let mut values = vec![0i64; n as usize];
        for i in 0..n {
            let v = ((i * 37 + 11) % 23) as i64 - 11;
            values[i as usize] = v;
            if v != 0 {
                sk.update(i, v as f64);
            }
        }
        let truth = TruthVector::from_values(values).lp_norm(p);
        let est = sk.estimate();
        assert!(
            est > 0.55 * truth && est < 1.8 * truth,
            "p={p}: estimate {est} too far from ‖x‖_p = {truth}"
        );
        let r = sk.upper_estimate();
        assert!(r >= 0.8 * truth && r <= 2.6 * truth, "p={p}: upper estimate {r} vs {truth}");
    }

    #[test]
    fn l1_norm_estimate_within_factor() {
        norm_estimate_test(1.0, 10);
    }

    #[test]
    fn l2_norm_estimate_within_factor() {
        norm_estimate_test(2.0, 11);
    }

    #[test]
    fn fractional_p_norm_estimate_within_factor() {
        norm_estimate_test(0.5, 12);
        norm_estimate_test(1.5, 13);
    }

    #[test]
    fn linearity() {
        let n = 512u64;
        let mut s = seeds(3);
        let proto = PStableSketch::new(n, 1.0, 31, &mut s);
        let mut a = proto.clone();
        let mut b = proto.clone();
        let mut ab = proto.clone();
        for (i, v) in [(3u64, 4.0), (100, -2.0)] {
            a.update(i, v);
            ab.update(i, v);
        }
        for (i, v) in [(100u64, 2.0), (200, 9.0)] {
            b.update(i, v);
            ab.update(i, v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        for (x, y) in merged.counters.iter().zip(ab.counters.iter()) {
            assert!((x - y).abs() < 1e-9);
        }
        let mut diff = ab;
        diff.subtract(&b);
        for (x, y) in diff.counters.iter().zip(a.counters.iter()) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_vector_estimates_zero() {
        let mut s = seeds(4);
        let sk = PStableSketch::with_default_rows(128, 1.0, &mut s);
        assert_eq!(sk.estimate(), 0.0);
    }

    #[test]
    fn space_is_logarithmic_in_dimension() {
        let mut s = seeds(5);
        let small = PStableSketch::with_default_rows(1 << 10, 1.0, &mut s);
        let large = PStableSketch::with_default_rows(1 << 20, 1.0, &mut s);
        assert!(large.space().counters <= 2 * small.space().counters + 64);
        assert!(large.bits_used() < 4 * small.bits_used());
    }

    #[test]
    #[should_panic]
    fn p_out_of_range_rejected() {
        let mut s = seeds(6);
        let _ = PStableSketch::new(16, 2.5, 5, &mut s);
    }
}
