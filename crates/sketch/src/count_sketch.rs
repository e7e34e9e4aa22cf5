//! The count-sketch of Charikar, Chen and Farach-Colton, as used by the
//! precision Lp sampler (Section 2 of the paper).
//!
//! For a parameter `m`, the sketch keeps `l = O(log n)` rows of `6m` buckets.
//! Row `j` uses a pairwise-independent bucket hash `h_j : [n] → [6m]` and a
//! pairwise-independent sign hash `g_j : [n] → {±1}` and maintains
//! `y_{k,j} = Σ_{i : h_j(i) = k} g_j(i)·x_i`. The point estimate of `x_i` is
//! the median over rows of `g_j(i)·y_{h_j(i),j}`.
//!
//! Lemma 1 of the paper summarises the guarantee: with high probability every
//! coordinate satisfies `|x_i − x*_i| ≤ Err^m_2(x)/√m`, and the best m-sparse
//! approximation `x̂` of the output satisfies
//! `Err^m_2(x) ≤ ‖x − x̂‖₂ ≤ 10·Err^m_2(x)`. Both quantities are exposed here
//! ([`CountSketch::estimate`], [`CountSketch::best_m_sparse`]) because the
//! sampler's recovery stage needs exactly them.

use lps_hash::{PairwiseHash, SeedSequence};
use lps_stream::{counter_bits_for, SpaceBreakdown, SpaceUsage};

use crate::compensated::kahan_add;
use crate::linear::LinearSketch;
use crate::mergeable::{Mergeable, StateDigest};
use crate::persist::{tags, DecodeError, Persist, WireReader, WireWriter};

/// Width multiplier: the paper's count-sketch uses `6m` buckets per row.
pub const WIDTH_FACTOR: usize = 6;

/// A count-sketch over vectors indexed by `[0, n)` with real-valued entries.
#[derive(Debug, Clone)]
pub struct CountSketch {
    dimension: u64,
    m: usize,
    rows: usize,
    width: usize,
    /// Row-major bucket counters: `table[j * width + k]`.
    table: Vec<f64>,
    /// Kahan compensation terms, parallel to `table`. Identically zero for
    /// integer workloads (see [`crate::compensated`]).
    comp: Vec<f64>,
    bucket_hashes: Vec<PairwiseHash>,
    sign_hashes: Vec<PairwiseHash>,
}

/// A sparse approximation produced by [`CountSketch::best_m_sparse`]:
/// the `m` coordinates with the largest estimated magnitude.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseApprox {
    /// `(index, estimated value)` pairs, sorted by decreasing |value|.
    pub entries: Vec<(u64, f64)>,
}

impl SparseApprox {
    /// The estimated value at `index` (zero if not among the kept entries).
    pub fn get(&self, index: u64) -> f64 {
        self.entries.iter().find(|(i, _)| *i == index).map(|(_, v)| *v).unwrap_or(0.0)
    }

    /// Indices of the kept entries.
    pub fn indices(&self) -> Vec<u64> {
        self.entries.iter().map(|(i, _)| *i).collect()
    }
}

/// The number of rows `l = O(log n)` the paper's analysis asks for: we use
/// `max(5, ⌈1.5·log2 n⌉)` rounded up to the next odd number so the median is
/// a single row value.
pub fn rows_for_dimension(n: u64) -> usize {
    let l = ((n.max(2) as f64).log2() * 1.5).ceil() as usize;
    let l = l.max(5);
    if l.is_multiple_of(2) {
        l + 1
    } else {
        l
    }
}

impl CountSketch {
    /// Create a count-sketch with the paper's shape: `rows` rows of `6m`
    /// buckets each, over vectors of the given dimension.
    pub fn new(dimension: u64, m: usize, rows: usize, seeds: &mut SeedSequence) -> Self {
        assert!(dimension > 0);
        assert!(m >= 1, "sketch parameter m must be at least 1");
        assert!(rows >= 1, "need at least one row");
        let width = WIDTH_FACTOR * m;
        let mut bucket_hashes = Vec::with_capacity(rows);
        let mut sign_hashes = Vec::with_capacity(rows);
        for _ in 0..rows {
            bucket_hashes.push(PairwiseHash::new(seeds));
            sign_hashes.push(PairwiseHash::new(seeds));
        }
        CountSketch {
            dimension,
            m,
            rows,
            width,
            table: vec![0.0; rows * width],
            comp: vec![0.0; rows * width],
            bucket_hashes,
            sign_hashes,
        }
    }

    /// Create a count-sketch with the default `O(log n)` number of rows.
    pub fn with_default_rows(dimension: u64, m: usize, seeds: &mut SeedSequence) -> Self {
        let rows = rows_for_dimension(dimension);
        CountSketch::new(dimension, m, rows, seeds)
    }

    /// The sketch parameter `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of rows `l`.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of buckets per row (`6m`).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Point estimate `x*_i`: median over rows of the signed bucket value.
    pub fn estimate(&self, index: u64) -> f64 {
        debug_assert!(index < self.dimension);
        let mut row_values: Vec<f64> = Vec::with_capacity(self.rows);
        for j in 0..self.rows {
            let k = self.bucket_hashes[j].bucket(index, self.width);
            let sign = self.sign_hashes[j].sign(index) as f64;
            row_values.push(sign * self.table[j * self.width + k]);
        }
        median(&mut row_values)
    }

    /// Decode estimates for every coordinate (`O(n·l)` time). This is the
    /// offline recovery step of the sampler; the streaming space bound is not
    /// affected because decoding happens after the stream ends.
    pub fn decode_all(&self) -> Vec<f64> {
        (0..self.dimension).map(|i| self.estimate(i)).collect()
    }

    /// The index with the largest estimated magnitude and its estimate
    /// (step 4 of the recovery stage in Figure 1).
    pub fn argmax_estimate(&self) -> (u64, f64) {
        let mut best_i = 0u64;
        let mut best_v = 0.0f64;
        for i in 0..self.dimension {
            let v = self.estimate(i);
            if v.abs() > best_v.abs() {
                best_i = i;
                best_v = v;
            }
        }
        (best_i, best_v)
    }

    /// The best m-sparse approximation `x̂` of the decoded output `x*`:
    /// the `count` coordinates with largest |x*_i| (Lemma 1). By default the
    /// sampler uses `count = self.m()`.
    pub fn best_m_sparse(&self, count: usize) -> SparseApprox {
        let mut all: Vec<(u64, f64)> =
            (0..self.dimension).map(|i| (i, self.estimate(i))).filter(|(_, v)| *v != 0.0).collect();
        all.sort_by(|a, b| b.1.abs().partial_cmp(&a.1.abs()).unwrap());
        all.truncate(count);
        SparseApprox { entries: all }
    }

    /// Apply this sketch's linear map to an explicit sparse vector, returning
    /// the resulting sketch (same seeds, fresh counters). Used by the
    /// sampler's recovery stage to compute `L'(ẑ)` for the already-recovered
    /// sparse approximation ẑ.
    pub fn sketch_of_sparse(&self, entries: &[(u64, f64)]) -> CountSketch {
        let mut fresh = CountSketch {
            dimension: self.dimension,
            m: self.m,
            rows: self.rows,
            width: self.width,
            table: vec![0.0; self.rows * self.width],
            comp: vec![0.0; self.rows * self.width],
            bucket_hashes: self.bucket_hashes.clone(),
            sign_hashes: self.sign_hashes.clone(),
        };
        for &(i, v) in entries {
            fresh.update(i, v);
        }
        fresh
    }

    fn assert_same_shape(&self, other: &Self) {
        assert_eq!(self.dimension, other.dimension, "dimension mismatch");
        assert_eq!(self.rows, other.rows, "row-count mismatch");
        assert_eq!(self.width, other.width, "width mismatch");
    }

    /// Apply already-coalesced `(index, delta)` entries (distinct indices,
    /// as [`lps_stream::coalesce_updates`] returns them), walking the bucket
    /// table in row-major order, so each pass touches one row's `6m`
    /// contiguous counters instead of striding across the whole table per
    /// update. Signed-unit buckets keep every counter an exact integer in
    /// f64 for integer workloads, so coalescing is state-identical to the
    /// sequential loop.
    ///
    /// This is the same rows×keys shape as the AMS sign walk: *many* degree-1
    /// polynomials evaluated at *one* key per entry. The bucket and sign
    /// hashes of every row go into one [`lps_hash::simd::PolyBank`] per
    /// batch, so each key is one bank evaluation over all `2 × rows`
    /// polynomials (one `u128` dot product and one Mersenne fold each,
    /// where Horner pays two reductions). The Kahan
    /// accumulation below then replays row-major in exactly the original
    /// entry order, so the float state is bit-identical to the scalar walk
    /// (the multiply-shift bucket reduction is the one from
    /// [`lps_hash::KWiseHash::bucket`]).
    pub fn apply_coalesced(&mut self, entries: &[(u64, i64)]) {
        if entries.is_empty() {
            return;
        }
        let rows = self.rows;
        let bank = lps_hash::simd::PolyBank::new(
            self.bucket_hashes.iter().chain(&self.sign_hashes).map(|h| h.kwise().coefficients()),
        );
        // Entry-major hash matrix: entry `e`'s row-`j` bucket hash lives at
        // `e * 2 * rows + j` and its sign hash `rows` further on. Batches are
        // chunked upstream (DEFAULT_BATCH_SIZE, the engine dispatch batch,
        // or the service's worker chunk of at most DEFAULT_BATCH_SIZE
        // entries of a sealed window), so the scratch stays chunk-bounded.
        let mut hashes = vec![0u64; entries.len() * 2 * rows];
        for (&(index, _), entry) in entries.iter().zip(hashes.chunks_exact_mut(2 * rows)) {
            debug_assert!(index < self.dimension, "index out of range");
            bank.eval_key(index, entry);
        }
        for j in 0..rows {
            let row = &mut self.table[j * self.width..(j + 1) * self.width];
            let comp_row = &mut self.comp[j * self.width..(j + 1) * self.width];
            for (&(_, delta), entry) in entries.iter().zip(hashes.chunks_exact(2 * rows)) {
                let k = ((entry[j] as u128 * self.width as u128) >> 61) as usize;
                let sign = if entry[rows + j] & 1 == 1 { 1.0 } else { -1.0 };
                kahan_add(&mut row[k], &mut comp_row[k], sign * delta as f64);
            }
        }
    }
}

impl LinearSketch for CountSketch {
    fn update(&mut self, index: u64, delta: f64) {
        debug_assert!(index < self.dimension, "index out of range");
        for j in 0..self.rows {
            let k = self.bucket_hashes[j].bucket(index, self.width);
            let sign = self.sign_hashes[j].sign(index) as f64;
            let cell = j * self.width + k;
            kahan_add(&mut self.table[cell], &mut self.comp[cell], sign * delta);
        }
    }

    /// Batched fast path: coalesce repeated indices (exact integer sums),
    /// then [`CountSketch::apply_coalesced`].
    fn process_batch(&mut self, updates: &[lps_stream::Update]) {
        self.apply_coalesced(&lps_stream::coalesce_updates(updates));
    }

    fn merge(&mut self, other: &Self) {
        self.assert_same_shape(other);
        // Plain elementwise addition of both vectors: Mergeable requires a
        // bitwise-commutative merge, which a compensated add would break.
        for (a, b) in self.table.iter_mut().zip(other.table.iter()) {
            *a += b;
        }
        for (a, b) in self.comp.iter_mut().zip(other.comp.iter()) {
            *a += b;
        }
    }

    fn subtract(&mut self, other: &Self) {
        self.assert_same_shape(other);
        for (a, b) in self.table.iter_mut().zip(other.table.iter()) {
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

impl Mergeable for CountSketch {
    fn merge_from(&mut self, other: &Self) {
        LinearSketch::merge(self, other);
    }

    fn state_digest(&self) -> u64 {
        let mut d = StateDigest::new();
        for &v in &self.table {
            d.write_f64(v);
        }
        for &v in &self.comp {
            d.write_f64(v);
        }
        d.finish()
    }
}

impl Persist for CountSketch {
    const TAG: u16 = tags::COUNT_SKETCH;

    fn encode_seeds(&self, w: &mut WireWriter<'_>) {
        w.write_u64(self.dimension);
        w.write_len(self.m);
        w.write_len(self.rows);
        for h in self.bucket_hashes.iter().chain(self.sign_hashes.iter()) {
            h.encode_seeds(w);
        }
    }

    fn encode_counters(&self, w: &mut WireWriter<'_>) {
        for &v in &self.table {
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
        let m = seeds.read_count(0)?;
        let rows = seeds.read_count(1)?;
        if dimension == 0 || m == 0 || rows == 0 {
            return Err(DecodeError::Corrupt { context: "count-sketch shape must be non-zero" });
        }
        let mut bucket_hashes = Vec::with_capacity(rows);
        let mut sign_hashes = Vec::with_capacity(rows);
        for _ in 0..rows {
            bucket_hashes.push(PairwiseHash::decode_parts(seeds, counters)?);
        }
        for _ in 0..rows {
            sign_hashes.push(PairwiseHash::decode_parts(seeds, counters)?);
        }
        let width = m
            .checked_mul(WIDTH_FACTOR)
            .ok_or(DecodeError::Corrupt { context: "count-sketch width overflows" })?;
        let cells = rows
            .checked_mul(width)
            .ok_or(DecodeError::Corrupt { context: "count-sketch table overflows" })?;
        let table = counters.read_f64s(cells)?;
        let comp = counters.read_f64s(cells)?;
        Ok(CountSketch { dimension, m, rows, width, table, comp, bucket_hashes, sign_hashes })
    }
}

impl SpaceUsage for CountSketch {
    fn space(&self) -> SpaceBreakdown {
        let counters = (self.rows * self.width) as u64;
        // Each counter holds a signed sum of at most n values bounded by
        // poly(n); charge the standard O(log n) counter width.
        let counter_bits = counter_bits_for(self.dimension, self.dimension);
        let randomness: u64 = self
            .bucket_hashes
            .iter()
            .map(|h| h.random_bits())
            .chain(self.sign_hashes.iter().map(|h| h.random_bits()))
            .sum();
        SpaceBreakdown::new(counters, counter_bits, randomness)
    }
}

/// Median of a slice (averaging the two central elements for even lengths).
/// The slice is sorted in place.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty());
    values.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lps_stream::{TruthVector, TurnstileModel, UpdateStream};

    fn seeds(seed: u64) -> SeedSequence {
        SeedSequence::new(seed)
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn rows_for_dimension_is_odd_and_grows() {
        let a = rows_for_dimension(1 << 10);
        let b = rows_for_dimension(1 << 20);
        assert!(a % 2 == 1 && b % 2 == 1);
        assert!(b > a);
        assert!(rows_for_dimension(2) >= 5);
    }

    #[test]
    fn exact_recovery_of_sparse_vector() {
        // With m >= support size, the estimates of a sparse vector are exact
        // with overwhelming probability (collisions with other non-zeros are
        // the only error source and there are none beyond the support).
        let mut s = seeds(1);
        let mut cs = CountSketch::new(1 << 12, 8, 9, &mut s);
        let entries = [(5u64, 100.0), (77, -40.0), (1000, 3.0), (4095, 7.0)];
        for (i, v) in entries {
            cs.update(i, v);
        }
        for (i, v) in entries {
            let est = cs.estimate(i);
            assert!((est - v).abs() < 1e-9, "estimate {est} for coordinate {i} should equal {v}");
        }
    }

    #[test]
    fn estimate_error_bounded_by_lemma_1() {
        // Dense-ish vector: error per coordinate must be <= Err_m_2 / sqrt(m)
        // with high probability; we check the bound with a small slack factor
        // since "high probability" in Lemma 1 allows rare exceptions.
        let n: u64 = 4096;
        let m = 16usize;
        let mut s = seeds(2);
        let mut cs = CountSketch::with_default_rows(n, m, &mut s);
        let mut stream = UpdateStream::new(n, TurnstileModel::General);
        // a few heavy coordinates + light tail
        for i in 0..n {
            let v = if i % 500 == 0 { 1000 } else { (i % 7) as i64 - 3 };
            if v != 0 {
                stream.push(lps_stream::Update::new(i, v));
            }
        }
        cs.process(&stream);
        let truth = TruthVector::from_stream(&stream);
        let bound = truth.err_m_2(m) / (m as f64).sqrt();
        let mut violations = 0u64;
        for i in 0..n {
            let err = (cs.estimate(i) - truth.get(i) as f64).abs();
            if err > bound + 1e-9 {
                violations += 1;
            }
        }
        // Lemma 1 holds for all coordinates w.h.p.; tolerate a tiny number of
        // exceptions to keep the test robust across seeds.
        assert!(
            violations <= n / 200,
            "too many coordinates ({violations}) violate the Lemma 1 error bound {bound}"
        );
    }

    #[test]
    fn best_m_sparse_finds_heavy_coordinates() {
        let n: u64 = 2048;
        let mut s = seeds(3);
        let mut cs = CountSketch::with_default_rows(n, 10, &mut s);
        let heavy = [(3u64, 500.0), (700, -450.0), (1999, 600.0)];
        for (i, v) in heavy {
            cs.update(i, v);
        }
        for i in 0..n {
            cs.update(i, if i % 2 == 0 { 1.0 } else { -1.0 });
        }
        let approx = cs.best_m_sparse(3);
        let idx = approx.indices();
        for (i, _) in heavy {
            assert!(idx.contains(&i), "heavy coordinate {i} missing from top-3");
        }
        assert!(approx.get(3) > 400.0 && approx.get(700) < -350.0);
        assert_eq!(approx.get(12345 % n), 0.0);
    }

    #[test]
    fn argmax_matches_best_1_sparse() {
        let n: u64 = 512;
        let mut s = seeds(4);
        let mut cs = CountSketch::with_default_rows(n, 4, &mut s);
        cs.update(77, -300.0);
        cs.update(12, 50.0);
        let (i, v) = cs.argmax_estimate();
        assert_eq!(i, 77);
        assert!((v + 300.0).abs() < 1e-9);
        let top = cs.best_m_sparse(1);
        assert_eq!(top.entries[0].0, 77);
    }

    #[test]
    fn linearity_merge_and_subtract() {
        let n: u64 = 1024;
        let mut s = seeds(5);
        let proto = CountSketch::with_default_rows(n, 6, &mut s);
        let mut a = proto.clone();
        let mut b = proto.clone();
        let mut ab = proto.clone();
        let ups_a = [(1u64, 5.0), (2, -3.0), (512, 9.0)];
        let ups_b = [(2u64, 4.0), (700, -8.0)];
        for (i, v) in ups_a {
            a.update(i, v);
            ab.update(i, v);
        }
        for (i, v) in ups_b {
            b.update(i, v);
            ab.update(i, v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.table, ab.table, "merge must equal sketching the concatenation");

        let mut diff = ab.clone();
        diff.subtract(&b);
        assert_eq!(diff.table, a.table, "subtract must invert merge");
    }

    #[test]
    fn sketch_of_sparse_matches_direct_updates() {
        let n: u64 = 256;
        let mut s = seeds(6);
        let mut direct = CountSketch::with_default_rows(n, 4, &mut s);
        let entries = [(10u64, 2.5), (100, -7.25)];
        for (i, v) in entries {
            direct.update(i, v);
        }
        let derived = direct.sketch_of_sparse(&entries);
        assert_eq!(direct.table, derived.table);
    }

    #[test]
    fn space_accounting_scales_with_m_and_rows() {
        let mut s = seeds(7);
        let small = CountSketch::new(1 << 10, 4, 5, &mut s);
        let big = CountSketch::new(1 << 10, 8, 5, &mut s);
        assert_eq!(small.space().counters, (5 * 6 * 4) as u64);
        assert_eq!(big.space().counters, (5 * 6 * 8) as u64);
        assert!(big.bits_used() > small.bits_used());
        assert!(small.space().randomness_bits > 0);
    }

    #[test]
    fn zero_vector_estimates_zero() {
        let mut s = seeds(8);
        let cs = CountSketch::with_default_rows(128, 4, &mut s);
        for i in 0..128u64 {
            assert_eq!(cs.estimate(i), 0.0);
        }
    }
}
