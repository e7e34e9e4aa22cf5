//! Count-min and count-median sketches (Cormode–Muthukrishnan).
//!
//! These are the classic alternatives to count-sketch referenced in Section
//! 4.4 of the paper: the count-median algorithm of \[8\] gives the
//! `O(φ^{-1} log² n)` heavy hitter bound for `p = 1`, and the paper's point is
//! that count-sketch matches/generalises it to all `p ∈ (0, 2]`. We implement
//! both as comparison baselines for the heavy hitter experiments:
//!
//! * [`CountMinSketch`] — rows of non-negative counters, point query by
//!   minimum; only valid in the strict turnstile model (estimates are
//!   one-sided: never below the true value).
//! * [`CountMedianSketch`] — same table but point query by median, valid in
//!   the general update model, with two-sided error `‖x‖₁/width` per row.

use lps_hash::{PairwiseHash, SeedSequence};
use lps_stream::{counter_bits_for, SpaceBreakdown, SpaceUsage, Update, UpdateStream};

use crate::count_sketch::median;
use crate::linear::LinearSketch;
use crate::mergeable::{Mergeable, StateDigest};
use crate::persist::{tags, DecodeError, Persist, WireReader, WireWriter};

/// Shared decode of the `(dimension, rows, width, hashes)` shape both table
/// sketches in this module serialize identically.
#[allow(clippy::type_complexity)]
fn decode_table_shape(
    seeds: &mut WireReader<'_>,
    counters: &mut WireReader<'_>,
    context: &'static str,
) -> Result<(u64, usize, usize, Vec<PairwiseHash>, usize), DecodeError> {
    let dimension = seeds.read_u64()?;
    let rows = seeds.read_count(1)?;
    let width = seeds.read_count(0)?;
    if dimension == 0 || rows == 0 || width == 0 {
        return Err(DecodeError::Corrupt { context });
    }
    let hashes = (0..rows)
        .map(|_| PairwiseHash::decode_parts(seeds, counters))
        .collect::<Result<Vec<_>, _>>()?;
    let cells = rows.checked_mul(width).ok_or(DecodeError::Corrupt { context })?;
    Ok((dimension, rows, width, hashes, cells))
}

/// A count-min sketch over integer-valued strict-turnstile streams.
#[derive(Debug, Clone)]
pub struct CountMinSketch {
    dimension: u64,
    rows: usize,
    width: usize,
    table: Vec<i64>,
    hashes: Vec<PairwiseHash>,
}

impl CountMinSketch {
    /// Create a sketch with `rows` rows of `width` counters.
    pub fn new(dimension: u64, width: usize, rows: usize, seeds: &mut SeedSequence) -> Self {
        assert!(dimension > 0 && width >= 1 && rows >= 1);
        let hashes = (0..rows).map(|_| PairwiseHash::new(seeds)).collect();
        CountMinSketch { dimension, rows, width, table: vec![0; rows * width], hashes }
    }

    /// Width per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Apply an integer update.
    pub fn update(&mut self, index: u64, delta: i64) {
        debug_assert!(index < self.dimension);
        for j in 0..self.rows {
            let k = self.hashes[j].bucket(index, self.width);
            self.table[j * self.width + k] += delta;
        }
    }

    /// Batched fast path: coalesce repeated indices, then
    /// [`CountMinSketch::apply_coalesced`]. Pure integer counters, so the
    /// final state is identical to the sequential loop for any batch.
    pub fn process_batch(&mut self, updates: &[Update]) {
        self.apply_coalesced(&lps_stream::coalesce_updates(updates));
    }

    /// Apply already-coalesced `(index, delta)` entries (distinct indices,
    /// as [`lps_stream::coalesce_updates`] returns them), walking the table
    /// in row-major order.
    pub fn apply_coalesced(&mut self, entries: &[(u64, i64)]) {
        let keys: Vec<u64> = entries.iter().map(|&(i, _)| i).collect();
        let mut hash_scratch = vec![0u64; keys.len()];
        let mut buckets = vec![0usize; keys.len()];
        for j in 0..self.rows {
            let row = &mut self.table[j * self.width..(j + 1) * self.width];
            self.hashes[j].kwise().buckets_into(&keys, self.width, &mut hash_scratch, &mut buckets);
            for (&(index, delta), &b) in entries.iter().zip(buckets.iter()) {
                debug_assert!(index < self.dimension);
                row[b] += delta;
            }
        }
    }

    /// Process a whole stream through the batched fast path.
    pub fn process(&mut self, stream: &UpdateStream) {
        for chunk in stream.chunks(lps_stream::DEFAULT_BATCH_SIZE) {
            self.process_batch(chunk);
        }
    }

    /// Point query: the minimum over rows. In the strict turnstile model this
    /// never underestimates the true value.
    pub fn estimate(&self, index: u64) -> i64 {
        debug_assert!(index < self.dimension);
        (0..self.rows)
            .map(|j| {
                let k = self.hashes[j].bucket(index, self.width);
                self.table[j * self.width + k]
            })
            .min()
            .expect("at least one row")
    }

    /// Dimension of the underlying vector.
    pub fn dimension(&self) -> u64 {
        self.dimension
    }

    /// Add another sketch of the same shape and seeds (sketch of the
    /// concatenated streams). Integer counters, so merging is exact.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.dimension, other.dimension, "dimension mismatch");
        assert_eq!(self.table.len(), other.table.len(), "shape mismatch");
        for (a, b) in self.table.iter_mut().zip(other.table.iter()) {
            *a += b;
        }
    }

    /// Subtract another sketch of the same shape and seeds (sketch of the
    /// difference vector).
    pub fn subtract(&mut self, other: &Self) {
        assert_eq!(self.dimension, other.dimension, "dimension mismatch");
        assert_eq!(self.table.len(), other.table.len(), "shape mismatch");
        for (a, b) in self.table.iter_mut().zip(other.table.iter()) {
            *a -= b;
        }
    }

    /// Build the shard structure that owns the key range `range` under
    /// key-range partitioned ingestion: an identically-seeded zero-state
    /// clone (table shape is `(rows, width)`, independent of `n`; exact
    /// recombination needs the same row hashes over global coordinates).
    pub fn restrict_domain(&self, range: std::ops::Range<u64>) -> Self {
        crate::check_shard_range(&range, self.dimension);
        self.clone()
    }

    /// Disjoint-union merge: absorb a sibling shard whose ingested key range
    /// was disjoint from ours. Counters are integers shared across ranges by
    /// hashing, so the union is exactly [`CountMinSketch::merge`].
    pub fn merge_disjoint(&mut self, other: &Self) {
        self.merge(other);
    }
}

impl Mergeable for CountMinSketch {
    fn merge_from(&mut self, other: &Self) {
        self.merge(other);
    }

    fn state_digest(&self) -> u64 {
        let mut d = StateDigest::new();
        for &v in &self.table {
            d.write_i64(v);
        }
        d.finish()
    }
}

impl Persist for CountMinSketch {
    const TAG: u16 = tags::COUNT_MIN;

    fn encode_seeds(&self, w: &mut WireWriter<'_>) {
        w.write_u64(self.dimension);
        w.write_len(self.rows);
        w.write_len(self.width);
        for h in &self.hashes {
            h.encode_seeds(w);
        }
    }

    fn encode_counters(&self, w: &mut WireWriter<'_>) {
        for &v in &self.table {
            w.write_i64(v);
        }
    }

    fn decode_parts(
        seeds: &mut WireReader<'_>,
        counters: &mut WireReader<'_>,
    ) -> Result<Self, DecodeError> {
        let (dimension, rows, width, hashes, cells) =
            decode_table_shape(seeds, counters, "count-min shape invalid")?;
        let table = counters.read_i64s(cells)?;
        Ok(CountMinSketch { dimension, rows, width, table, hashes })
    }
}

impl SpaceUsage for CountMinSketch {
    fn space(&self) -> SpaceBreakdown {
        let counters = (self.rows * self.width) as u64;
        let counter_bits = counter_bits_for(self.dimension, self.dimension);
        let randomness = self.hashes.iter().map(|h| h.random_bits()).sum();
        SpaceBreakdown::new(counters, counter_bits, randomness)
    }
}

/// A count-median sketch: the same bucketed table, but point queries take the
/// median over rows, which tolerates general (possibly negative) updates.
#[derive(Debug, Clone)]
pub struct CountMedianSketch {
    dimension: u64,
    rows: usize,
    width: usize,
    table: Vec<f64>,
    hashes: Vec<PairwiseHash>,
}

impl CountMedianSketch {
    /// Create a sketch with `rows` rows of `width` counters. Rows should be
    /// odd so the median is a single bucket value.
    pub fn new(dimension: u64, width: usize, rows: usize, seeds: &mut SeedSequence) -> Self {
        assert!(dimension > 0 && width >= 1 && rows >= 1);
        let hashes = (0..rows).map(|_| PairwiseHash::new(seeds)).collect();
        CountMedianSketch { dimension, rows, width, table: vec![0.0; rows * width], hashes }
    }

    /// Width per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Point query: the median over rows of the containing bucket.
    pub fn estimate(&self, index: u64) -> f64 {
        debug_assert!(index < self.dimension);
        let mut vals: Vec<f64> = (0..self.rows)
            .map(|j| {
                let k = self.hashes[j].bucket(index, self.width);
                self.table[j * self.width + k]
            })
            .collect();
        median(&mut vals)
    }

    /// Process an integer update stream.
    pub fn process_stream(&mut self, stream: &UpdateStream) {
        for u in stream {
            self.update_int(*u);
        }
    }

    /// Apply an integer update (convenience mirroring [`CountMinSketch`]).
    pub fn update_signed(&mut self, u: Update) {
        self.update(u.index, u.delta as f64);
    }

    /// Build the shard structure that owns the key range `range` under
    /// key-range partitioned ingestion: an identically-seeded zero-state
    /// clone (see [`CountMinSketch::restrict_domain`]).
    pub fn restrict_domain(&self, range: std::ops::Range<u64>) -> Self {
        crate::check_shard_range(&range, self.dimension);
        self.clone()
    }

    /// Disjoint-union merge of a sibling shard with a disjoint key range;
    /// coincides with [`Mergeable::merge_from`] (bucketed counter addition).
    pub fn merge_disjoint(&mut self, other: &Self) {
        Mergeable::merge_from(self, other);
    }

    /// Apply already-coalesced `(index, delta)` entries (distinct indices,
    /// as [`lps_stream::coalesce_updates`] returns them), walking the table
    /// row-major.
    pub fn apply_coalesced(&mut self, entries: &[(u64, i64)]) {
        let keys: Vec<u64> = entries.iter().map(|&(i, _)| i).collect();
        let mut hash_scratch = vec![0u64; keys.len()];
        let mut buckets = vec![0usize; keys.len()];
        for j in 0..self.rows {
            let row = &mut self.table[j * self.width..(j + 1) * self.width];
            self.hashes[j].kwise().buckets_into(&keys, self.width, &mut hash_scratch, &mut buckets);
            for (&(index, delta), &b) in entries.iter().zip(buckets.iter()) {
                debug_assert!(index < self.dimension);
                row[b] += delta as f64;
            }
        }
    }
}

impl LinearSketch for CountMedianSketch {
    fn update(&mut self, index: u64, delta: f64) {
        debug_assert!(index < self.dimension);
        for j in 0..self.rows {
            let k = self.hashes[j].bucket(index, self.width);
            self.table[j * self.width + k] += delta;
        }
    }

    /// Batched fast path: coalesce repeated indices (exact integer sums),
    /// then [`CountMedianSketch::apply_coalesced`]; identical to the
    /// sequential loop for integer workloads (counters remain exact
    /// integers in f64).
    fn process_batch(&mut self, updates: &[Update]) {
        self.apply_coalesced(&lps_stream::coalesce_updates(updates));
    }

    fn merge(&mut self, other: &Self) {
        assert_eq!(self.dimension, other.dimension);
        assert_eq!(self.table.len(), other.table.len());
        for (a, b) in self.table.iter_mut().zip(other.table.iter()) {
            *a += b;
        }
    }

    fn subtract(&mut self, other: &Self) {
        assert_eq!(self.dimension, other.dimension);
        assert_eq!(self.table.len(), other.table.len());
        for (a, b) in self.table.iter_mut().zip(other.table.iter()) {
            *a -= b;
        }
    }

    fn dimension(&self) -> u64 {
        self.dimension
    }
}

impl Mergeable for CountMedianSketch {
    fn merge_from(&mut self, other: &Self) {
        LinearSketch::merge(self, other);
    }

    fn state_digest(&self) -> u64 {
        let mut d = StateDigest::new();
        for &v in &self.table {
            d.write_f64(v);
        }
        d.finish()
    }
}

impl Persist for CountMedianSketch {
    const TAG: u16 = tags::COUNT_MEDIAN;

    fn encode_seeds(&self, w: &mut WireWriter<'_>) {
        w.write_u64(self.dimension);
        w.write_len(self.rows);
        w.write_len(self.width);
        for h in &self.hashes {
            h.encode_seeds(w);
        }
    }

    fn encode_counters(&self, w: &mut WireWriter<'_>) {
        for &v in &self.table {
            w.write_f64(v);
        }
    }

    fn decode_parts(
        seeds: &mut WireReader<'_>,
        counters: &mut WireReader<'_>,
    ) -> Result<Self, DecodeError> {
        let (dimension, rows, width, hashes, cells) =
            decode_table_shape(seeds, counters, "count-median shape invalid")?;
        let table = counters.read_f64s(cells)?;
        Ok(CountMedianSketch { dimension, rows, width, table, hashes })
    }
}

impl SpaceUsage for CountMedianSketch {
    fn space(&self) -> SpaceBreakdown {
        let counters = (self.rows * self.width) as u64;
        let counter_bits = counter_bits_for(self.dimension, self.dimension);
        let randomness = self.hashes.iter().map(|h| h.random_bits()).sum();
        SpaceBreakdown::new(counters, counter_bits, randomness)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lps_stream::{TurnstileModel, UpdateStream};

    fn seeds(seed: u64) -> SeedSequence {
        SeedSequence::new(seed)
    }

    #[test]
    fn count_min_never_underestimates() {
        let n = 1024u64;
        let mut s = seeds(1);
        let mut cm = CountMinSketch::new(n, 64, 5, &mut s);
        let mut stream = UpdateStream::new(n, TurnstileModel::InsertionOnly);
        for i in 0..n {
            for _ in 0..(i % 5) {
                stream.push_insert(i);
            }
        }
        cm.process(&stream);
        for i in 0..n {
            let truth = (i % 5) as i64;
            assert!(cm.estimate(i) >= truth, "count-min underestimated coordinate {i}");
        }
    }

    #[test]
    fn count_min_error_bounded_by_l1_over_width() {
        let n = 1 << 12;
        let width = 256usize;
        let mut s = seeds(2);
        let mut cm = CountMinSketch::new(n, width, 7, &mut s);
        let mut stream = UpdateStream::new(n, TurnstileModel::InsertionOnly);
        let mut l1 = 0i64;
        for i in 0..n {
            let c = (i % 3) as i64;
            for _ in 0..c {
                stream.push_insert(i);
            }
            l1 += c;
        }
        cm.process(&stream);
        // Expected overestimate per row is L1/width; the min over 7 rows is
        // below 2*L1/width except with tiny probability. Allow a few misses.
        let bound = 2 * l1 / width as i64;
        let mut violations = 0;
        for i in 0..n {
            let truth = (i % 3) as i64;
            if cm.estimate(i) - truth > bound {
                violations += 1;
            }
        }
        assert!(violations < (n / 100) as i32, "too many large overestimates: {violations}");
    }

    #[test]
    fn count_median_handles_negative_updates() {
        let n = 2048u64;
        let mut s = seeds(3);
        let mut cmed = CountMedianSketch::new(n, 128, 7, &mut s);
        cmed.update(5, 100.0);
        cmed.update(5, -40.0);
        cmed.update(9, -25.0);
        let e5 = cmed.estimate(5);
        let e9 = cmed.estimate(9);
        assert!((e5 - 60.0).abs() < 1e-9);
        assert!((e9 + 25.0).abs() < 1e-9);
    }

    #[test]
    fn count_median_linearity() {
        let n = 512u64;
        let mut s = seeds(4);
        let proto = CountMedianSketch::new(n, 32, 5, &mut s);
        let mut a = proto.clone();
        let mut b = proto.clone();
        let mut ab = proto.clone();
        for (i, v) in [(1u64, 3.0), (2, -1.0)] {
            a.update(i, v);
            ab.update(i, v);
        }
        for (i, v) in [(2u64, 5.0), (100, 7.0)] {
            b.update(i, v);
            ab.update(i, v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.table, ab.table);
        let mut diff = ab;
        diff.subtract(&b);
        assert_eq!(diff.table, a.table);
    }

    #[test]
    fn space_scales_with_width() {
        let mut s = seeds(5);
        let a = CountMinSketch::new(1024, 32, 5, &mut s);
        let b = CountMinSketch::new(1024, 64, 5, &mut s);
        assert!(b.bits_used() > a.bits_used());
        let c = CountMedianSketch::new(1024, 32, 5, &mut s);
        assert_eq!(c.space().counters, 32 * 5);
    }
}
