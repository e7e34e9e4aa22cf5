//! Exact recovery of s-sparse vectors from a small linear sketch (Lemma 5).
//!
//! Lemma 5 of the paper asserts: for `1 ≤ s ≤ n` there is a random linear
//! function `L : R^n → R^k` with `k = O(s)`, generated from `O(k log n)`
//! random bits, and a recovery procedure that outputs `x` exactly whenever
//! `x` is s-sparse and reports `DENSE` with high probability otherwise.
//!
//! We implement the standard construction used in practice (and in the
//! dynamic-graph-sketching literature): a table of *1-sparse detection cells*
//! — each cell keeps the sum of values, the index-weighted sum of values, and
//! a field fingerprint `Σ x_i·r^i` — bucketed by pairwise-independent hashes
//! over several rows, decoded by peeling. A cell containing exactly one
//! non-zero coordinate reveals it (index = weighted sum / sum, verified by
//! the fingerprint); peeling subtracts it everywhere and repeats. If peeling
//! gets stuck before the structure empties, the vector was not sparse enough
//! and we report [`RecoveryOutput::Dense`].
//!
//! False acceptance requires a fingerprint collision in GF(2^61 − 1) and has
//! probability `O(n/2^61)` per cell — the "low probability" regime the paper
//! works in.

use lps_hash::{Fp, PairwiseHash, PowTable, SeedSequence};
use lps_stream::{
    coalesce_updates, counter_bits_for, SpaceBreakdown, SpaceUsage, Update, UpdateStream,
};

use crate::mergeable::{Mergeable, StateDigest};
use crate::persist::{tags, DecodeError, Persist, WireReader, WireWriter};

/// What a single 1-sparse detection cell currently contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellState {
    /// No mass at all (all counters zero).
    Zero,
    /// Exactly one non-zero coordinate `(index, value)` — verified by fingerprint.
    OneSparse(u64, i64),
    /// More than one non-zero coordinate (or a fingerprint mismatch).
    Multiple,
}

/// A 1-sparse detection cell: `(Σ x_i, Σ i·x_i, Σ x_i·r^i)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OneSparseCell {
    sum: i64,
    index_sum: i128,
    fingerprint: Fp,
}

impl OneSparseCell {
    /// An empty cell.
    pub fn new() -> Self {
        OneSparseCell { sum: 0, index_sum: 0, fingerprint: Fp::ZERO }
    }

    /// Apply `x[index] += delta` to the cell, where `r` is the shared
    /// fingerprint base.
    ///
    /// This recomputes `r^index` by square-and-multiply on every call (~61
    /// field multiplications). The hot paths instead compute the fingerprint
    /// term once per sketch update with [`fingerprint_term`] and fold it into
    /// every touched cell via [`OneSparseCell::apply`]; this method remains
    /// as the simple reference (and is what the throughput benchmarks use to
    /// quantify the speedup of the hoisted path).
    pub fn update(&mut self, index: u64, delta: i64, r: Fp) {
        self.apply(index, delta, signed_field(delta).mul(r.pow(index)));
    }

    /// Apply `x[index] += delta` given the precomputed fingerprint term
    /// `signed_field(delta) · r^index`.
    ///
    /// The term depends only on `(index, delta, r)`, not on the cell, so a
    /// sketch touching many cells per update (rows × levels in the L0
    /// sampler) computes it once and reuses it everywhere.
    #[inline]
    pub fn apply(&mut self, index: u64, delta: i64, term: Fp) {
        self.sum += delta;
        self.index_sum += index as i128 * delta as i128;
        self.fingerprint = self.fingerprint.add(term);
    }

    /// Merge another cell (same fingerprint base).
    pub fn merge(&mut self, other: &OneSparseCell) {
        self.sum += other.sum;
        self.index_sum += other.index_sum;
        self.fingerprint = self.fingerprint.add(other.fingerprint);
    }

    /// Subtract another cell (same fingerprint base).
    pub fn subtract(&mut self, other: &OneSparseCell) {
        self.sum -= other.sum;
        self.index_sum -= other.index_sum;
        self.fingerprint = self.fingerprint.sub(other.fingerprint);
    }

    /// Classify the cell contents, verifying candidates with the fingerprint.
    pub fn state(&self, dimension: u64, r: Fp) -> CellState {
        self.classify(dimension, |idx| r.pow(idx))
    }

    /// Classify the cell using a precomputed [`PowTable`] for the fingerprint
    /// base — the fast path the peeling decoder uses.
    pub fn state_with(&self, dimension: u64, table: &PowTable) -> CellState {
        self.classify(dimension, |idx| table.pow(idx))
    }

    fn classify(&self, dimension: u64, pow: impl Fn(u64) -> Fp) -> CellState {
        if self.sum == 0 && self.index_sum == 0 && self.fingerprint.is_zero() {
            return CellState::Zero;
        }
        if self.sum != 0 && self.index_sum % self.sum as i128 == 0 {
            let idx = self.index_sum / self.sum as i128;
            if idx >= 0 && (idx as u64) < dimension {
                let idx = idx as u64;
                let expected = signed_field(self.sum).mul(pow(idx));
                if expected == self.fingerprint {
                    return CellState::OneSparse(idx, self.sum);
                }
            }
        }
        CellState::Multiple
    }

    /// True if all counters are zero.
    pub fn is_zero(&self) -> bool {
        self.sum == 0 && self.index_sum == 0 && self.fingerprint.is_zero()
    }
}

impl Default for OneSparseCell {
    fn default() -> Self {
        OneSparseCell::new()
    }
}

impl Mergeable for OneSparseCell {
    fn merge_from(&mut self, other: &Self) {
        self.merge(other);
    }

    fn state_digest(&self) -> u64 {
        let mut d = StateDigest::new();
        d.write_i64(self.sum).write_i128(self.index_sum).write_u64(self.fingerprint.value());
        d.finish()
    }
}

impl Persist for OneSparseCell {
    const TAG: u16 = tags::ONE_SPARSE_CELL;

    /// A bare cell carries no seed material of its own: the fingerprint base
    /// `r` lives in the enclosing structure (which verifies compatibility at
    /// its own level).
    fn encode_seeds(&self, _w: &mut WireWriter<'_>) {}

    fn encode_counters(&self, w: &mut WireWriter<'_>) {
        w.write_i64(self.sum);
        w.write_i128(self.index_sum);
        w.write_fp(self.fingerprint);
    }

    fn decode_parts(
        _seeds: &mut WireReader<'_>,
        counters: &mut WireReader<'_>,
    ) -> Result<Self, DecodeError> {
        let sum = counters.read_i64()?;
        let index_sum = counters.read_i128()?;
        let fingerprint = counters.read_fp()?;
        Ok(OneSparseCell { sum, index_sum, fingerprint })
    }
}

/// Map a signed integer into the field (negative values wrap to `P - |v|`).
pub fn signed_field(v: i64) -> Fp {
    if v >= 0 {
        Fp::new(v as u64)
    } else {
        Fp::new(v.unsigned_abs()).neg()
    }
}

/// The fingerprint contribution `signed_field(delta) · r^index` of a single
/// update, with `r^index` served from the precomputed power table — computed
/// once per sketch update and shared by every cell the update touches.
#[inline]
pub fn fingerprint_term(index: u64, delta: i64, table: &PowTable) -> Fp {
    signed_field(delta).mul(table.pow(index))
}

/// Lane-parallel batch form of [`fingerprint_term`]: the fingerprint
/// contributions of every coalesced `(index, delta)` entry, computed by
/// walking the power table [`lps_hash::simd::LANES`] exponents at a time
/// ([`lps_hash::simd::pow_many`]) and folding in the signed deltas
/// element-wise. Bit-identical to calling [`fingerprint_term`] per entry;
/// shared by [`SparseRecovery`] and the FIS-L0 sampler in `lps-core`.
pub fn fingerprint_terms(entries: &[(u64, i64)], table: &PowTable) -> Vec<Fp> {
    let indices: Vec<u64> = entries.iter().map(|&(i, _)| i).collect();
    let mut pows = vec![0u64; entries.len()];
    lps_hash::simd::pow_many(table, &indices, &mut pows);
    let deltas: Vec<u64> = entries.iter().map(|&(_, d)| signed_field(d).value()).collect();
    let mut terms = vec![0u64; entries.len()];
    lps_hash::simd::mul_mod_many(&deltas, &pows, &mut terms);
    terms.into_iter().map(Fp::from_reduced).collect()
}

/// Result of attempting sparse recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryOutput {
    /// The exact non-zero entries `(index, value)`, sorted by index.
    /// An empty list means the sketched vector is (whp) the zero vector.
    Recovered(Vec<(u64, i64)>),
    /// The vector has (whp) more than `capacity` non-zero coordinates.
    Dense,
}

impl RecoveryOutput {
    /// Convenience: the recovered entries, or `None` for `Dense`.
    pub fn entries(&self) -> Option<&[(u64, i64)]> {
        match self {
            RecoveryOutput::Recovered(e) => Some(e),
            RecoveryOutput::Dense => None,
        }
    }
}

/// An exact s-sparse recovery sketch (Lemma 5): `rows × buckets` 1-sparse
/// cells with pairwise-independent bucket hashes and peeling decoder.
#[derive(Debug, Clone)]
pub struct SparseRecovery {
    dimension: u64,
    capacity: usize,
    rows: usize,
    buckets: usize,
    cells: Vec<OneSparseCell>,
    hashes: Vec<PairwiseHash>,
    fingerprint_base: Fp,
    /// Precomputed powers of the fingerprint base; derived from it (no extra
    /// stored randomness), shared by the update path and the peeling decoder.
    pow: PowTable,
}

impl SparseRecovery {
    /// Create a recovery structure able to recover any vector with at most
    /// `capacity` non-zero coordinates (with high probability the peeling
    /// succeeds; failure is reported as `Dense`, never as a wrong vector,
    /// except for negligible fingerprint collisions).
    pub fn new(dimension: u64, capacity: usize, seeds: &mut SeedSequence) -> Self {
        assert!(dimension > 0);
        let capacity = capacity.max(1);
        // 2·capacity buckets per row and O(log capacity) + constant rows make
        // peeling succeed with high probability; k = rows · buckets = O(s).
        let buckets = (2 * capacity).max(2);
        let rows = (((capacity as f64).log2().ceil() as usize).max(1) + 3).max(4);
        let hashes = (0..rows).map(|_| PairwiseHash::new(seeds)).collect();
        let fingerprint_base = Fp::new(
            SeedSequence::new(seeds.next_u64()).next_u64() % (lps_hash::MERSENNE_P - 2) + 1,
        );
        SparseRecovery {
            dimension,
            capacity,
            rows,
            buckets,
            cells: vec![OneSparseCell::new(); rows * buckets],
            hashes,
            fingerprint_base,
            pow: PowTable::new(fingerprint_base),
        }
    }

    /// The sparsity capacity `s`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Buckets per row.
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    /// Dimension of the underlying vector.
    pub fn dimension(&self) -> u64 {
        self.dimension
    }

    /// Apply `x[index] += delta`.
    ///
    /// The fingerprint term `signed_field(delta) · r^index` is computed once
    /// (≤ 15 field multiplications via the power table) and folded into every
    /// row's cell, instead of re-deriving `r^index` per cell.
    pub fn update(&mut self, index: u64, delta: i64) {
        debug_assert!(index < self.dimension);
        if delta == 0 {
            return;
        }
        let term = fingerprint_term(index, delta, &self.pow);
        for j in 0..self.rows {
            let b = self.hashes[j].bucket(index, self.buckets);
            self.cells[j * self.buckets + b].apply(index, delta, term);
        }
    }

    /// The pre-optimization update path: square-and-multiply `r^index` in
    /// every cell, exactly as the seed implementation did. Retained solely so
    /// the throughput benchmarks can report the speedup of the hoisted /
    /// table-driven fast path against a faithful baseline; production callers
    /// should use [`SparseRecovery::update`].
    pub fn update_reference(&mut self, index: u64, delta: i64) {
        debug_assert!(index < self.dimension);
        if delta == 0 {
            return;
        }
        for j in 0..self.rows {
            let b = self.hashes[j].bucket(index, self.buckets);
            self.cells[j * self.buckets + b].update(index, delta, self.fingerprint_base);
        }
    }

    /// Apply a batch of updates: coalesce repeated indices, compute each
    /// fingerprint term once, and walk the cell table in row-major order for
    /// cache locality. The resulting state is identical to applying the
    /// updates one at a time (all cell arithmetic is exact, so coalescing
    /// and reordering across cells commute).
    pub fn process_batch(&mut self, updates: &[Update]) {
        self.apply_coalesced(&coalesce_updates(updates));
    }

    /// Apply already-coalesced `(index, delta)` entries (deltas non-zero).
    /// Shared with the L0 sampler, which coalesces once and feeds every
    /// level's recovery structure from the same entry list.
    ///
    /// All field math runs through the lane kernels: fingerprint terms via
    /// [`fingerprint_terms`], per-row bucket hashes via the batch polynomial
    /// evaluator. The cell mutations then replay in exactly the original
    /// row-major order, so the resulting state is bit-identical to the
    /// scalar walk.
    pub fn apply_coalesced(&mut self, entries: &[(u64, i64)]) {
        let terms = fingerprint_terms(entries, &self.pow);
        let keys: Vec<u64> = entries.iter().map(|&(i, _)| i).collect();
        let mut hash_scratch = vec![0u64; entries.len()];
        let mut buckets = vec![0usize; entries.len()];
        for j in 0..self.rows {
            let row = &mut self.cells[j * self.buckets..(j + 1) * self.buckets];
            self.hashes[j].kwise().buckets_into(
                &keys,
                self.buckets,
                &mut hash_scratch,
                &mut buckets,
            );
            for ((&(index, delta), &term), &b) in
                entries.iter().zip(terms.iter()).zip(buckets.iter())
            {
                debug_assert!(index < self.dimension);
                row[b].apply(index, delta, term);
            }
        }
    }

    /// Process a whole integer update stream through the batched fast path.
    pub fn process(&mut self, stream: &UpdateStream) {
        for chunk in stream.chunks(lps_stream::DEFAULT_BATCH_SIZE) {
            self.process_batch(chunk);
        }
    }

    /// Merge another structure built with the same seeds.
    pub fn merge(&mut self, other: &SparseRecovery) {
        assert_eq!(self.cells.len(), other.cells.len(), "shape mismatch");
        for (a, b) in self.cells.iter_mut().zip(other.cells.iter()) {
            a.merge(b);
        }
    }

    /// Subtract another structure built with the same seeds (sketch of the
    /// difference vector) — used by the universal-relation protocol.
    pub fn subtract(&mut self, other: &SparseRecovery) {
        assert_eq!(self.cells.len(), other.cells.len(), "shape mismatch");
        for (a, b) in self.cells.iter_mut().zip(other.cells.iter()) {
            a.subtract(b);
        }
    }

    /// Attempt to recover the sketched vector by peeling. Does not modify the
    /// structure (works on a scratch copy).
    pub fn recover(&self) -> RecoveryOutput {
        let mut scratch = self.cells.clone();
        let mut recovered: Vec<(u64, i64)> = Vec::new();
        // Upper bound on useful peeling steps: every step removes one distinct
        // coordinate; more steps than cells means something is wrong.
        let max_steps = self.cells.len() + 1;
        for _ in 0..max_steps {
            if scratch.iter().all(|c| c.is_zero()) {
                let mut out = recovered;
                out.sort_unstable_by_key(|&(i, _)| i);
                // A coordinate may be recovered only once; duplicates would
                // indicate an internal inconsistency.
                out.dedup_by_key(|&mut (i, _)| i);
                return RecoveryOutput::Recovered(out);
            }
            // find a decodable cell
            let mut found: Option<(u64, i64)> = None;
            for cell in scratch.iter() {
                if let CellState::OneSparse(i, v) = cell.state_with(self.dimension, &self.pow) {
                    found = Some((i, v));
                    break;
                }
            }
            match found {
                None => return RecoveryOutput::Dense,
                Some((i, v)) => {
                    recovered.push((i, v));
                    // hoist the subtraction term across the rows, exactly as
                    // the update path does
                    let term = fingerprint_term(i, -v, &self.pow);
                    for j in 0..self.rows {
                        let b = self.hashes[j].bucket(i, self.buckets);
                        scratch[j * self.buckets + b].apply(i, -v, term);
                    }
                }
            }
        }
        RecoveryOutput::Dense
    }
}

impl Mergeable for SparseRecovery {
    fn merge_from(&mut self, other: &Self) {
        self.merge(other);
    }

    fn state_digest(&self) -> u64 {
        let mut d = StateDigest::new();
        for cell in &self.cells {
            d.write_u64(cell.state_digest());
        }
        d.finish()
    }
}

impl Persist for SparseRecovery {
    const TAG: u16 = tags::SPARSE_RECOVERY;

    fn encode_seeds(&self, w: &mut WireWriter<'_>) {
        w.write_u64(self.dimension);
        w.write_len(self.capacity);
        w.write_len(self.rows);
        w.write_len(self.buckets);
        for h in &self.hashes {
            h.encode_seeds(w);
        }
        w.write_fp(self.fingerprint_base);
    }

    fn encode_counters(&self, w: &mut WireWriter<'_>) {
        for cell in &self.cells {
            cell.encode_counters(w);
        }
    }

    fn decode_parts(
        seeds: &mut WireReader<'_>,
        counters: &mut WireReader<'_>,
    ) -> Result<Self, DecodeError> {
        let dimension = seeds.read_u64()?;
        if dimension == 0 {
            return Err(DecodeError::Corrupt { context: "sparse recovery dimension must be > 0" });
        }
        let capacity = seeds.read_count(0)?;
        let rows = seeds.read_count(1)?;
        let buckets = seeds.read_count(1)?;
        if capacity == 0 || rows == 0 || buckets == 0 {
            return Err(DecodeError::Corrupt { context: "sparse recovery shape must be non-zero" });
        }
        let hashes = (0..rows)
            .map(|_| PairwiseHash::decode_parts(seeds, counters))
            .collect::<Result<Vec<_>, _>>()?;
        let fingerprint_base = seeds.read_fp()?;
        let cell_count = rows
            .checked_mul(buckets)
            .ok_or(DecodeError::Corrupt { context: "sparse recovery shape overflows" })?;
        counters.claim(cell_count, 8 + 16 + 8)?;
        let cells = (0..cell_count)
            .map(|_| OneSparseCell::decode_parts(seeds, counters))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SparseRecovery {
            dimension,
            capacity,
            rows,
            buckets,
            cells,
            hashes,
            fingerprint_base,
            pow: PowTable::new(fingerprint_base),
        })
    }
}

impl SpaceUsage for SparseRecovery {
    fn space(&self) -> SpaceBreakdown {
        // Each cell stores three counters (sum, index-weighted sum, fingerprint).
        let counters = (self.rows * self.buckets * 3) as u64;
        let counter_bits = counter_bits_for(self.dimension, self.dimension).max(61);
        let randomness: u64 = self.hashes.iter().map(|h| h.random_bits()).sum::<u64>() + 61;
        SpaceBreakdown::new(counters, counter_bits, randomness)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lps_stream::{TurnstileModel, Update};

    fn seeds(seed: u64) -> SeedSequence {
        SeedSequence::new(seed)
    }

    #[test]
    fn signed_field_wraps_negatives() {
        assert_eq!(signed_field(5).value(), 5);
        assert_eq!(signed_field(-5), Fp::new(5).neg());
        assert_eq!(signed_field(0), Fp::ZERO);
    }

    #[test]
    fn one_sparse_cell_detects_single_coordinate() {
        let r = Fp::new(123456789);
        let mut cell = OneSparseCell::new();
        assert_eq!(cell.state(1000, r), CellState::Zero);
        cell.update(42, 7, r);
        assert_eq!(cell.state(1000, r), CellState::OneSparse(42, 7));
        cell.update(42, -3, r);
        assert_eq!(cell.state(1000, r), CellState::OneSparse(42, 4));
        cell.update(42, -4, r);
        assert_eq!(cell.state(1000, r), CellState::Zero);
    }

    #[test]
    fn one_sparse_cell_detects_multiple_coordinates() {
        let r = Fp::new(987654321);
        let mut cell = OneSparseCell::new();
        cell.update(1, 1, r);
        cell.update(5, 1, r);
        assert_eq!(cell.state(1000, r), CellState::Multiple);
        // the naive index estimate (1+5)/2 = 3 must be rejected by the fingerprint
        cell.update(7, 1, r);
        assert_eq!(cell.state(1000, r), CellState::Multiple);
    }

    #[test]
    fn one_sparse_cell_negative_value() {
        let r = Fp::new(31337);
        let mut cell = OneSparseCell::new();
        cell.update(9, -6, r);
        assert_eq!(cell.state(100, r), CellState::OneSparse(9, -6));
    }

    #[test]
    fn apply_with_hoisted_term_matches_reference_update() {
        let r = Fp::new(424242);
        let table = lps_hash::PowTable::new(r);
        let mut reference = OneSparseCell::new();
        let mut hoisted = OneSparseCell::new();
        for (i, d) in [(7u64, 5i64), (1000, -3), (7, -5), (123456, 40)] {
            reference.update(i, d, r);
            hoisted.apply(i, d, fingerprint_term(i, d, &table));
            assert_eq!(reference, hoisted);
            assert_eq!(reference.state(1 << 20, r), hoisted.state_with(1 << 20, &table));
        }
    }

    #[test]
    fn batched_updates_match_sequential_state() {
        let mut s = seeds(40);
        let proto = SparseRecovery::new(1 << 12, 8, &mut s);
        let updates: Vec<Update> = vec![
            Update::new(3, 5),
            Update::new(70, -2),
            Update::new(3, 4),
            Update::new(999, 1),
            Update::new(70, 2),
            Update::new(5, 0),
        ];
        let mut sequential = proto.clone();
        for u in &updates {
            sequential.update(u.index, u.delta);
        }
        let mut reference = proto.clone();
        for u in &updates {
            reference.update_reference(u.index, u.delta);
        }
        let mut batched = proto.clone();
        batched.process_batch(&updates);
        assert_eq!(sequential.cells, batched.cells, "batched state diverged");
        assert_eq!(sequential.cells, reference.cells, "hoisted path diverged from reference");
        assert_eq!(sequential.recover(), batched.recover());
    }

    #[test]
    fn recovers_exactly_a_sparse_vector() {
        let mut s = seeds(1);
        let mut rec = SparseRecovery::new(1 << 17, 8, &mut s);
        let entries = [(3u64, 5i64), (70_000, -2), (123, 1), (65_535, 40)];
        for (i, v) in entries {
            rec.update(i, v);
        }
        match rec.recover() {
            RecoveryOutput::Recovered(out) => {
                let mut expected: Vec<(u64, i64)> = entries.to_vec();
                expected.sort_unstable_by_key(|&(i, _)| i);
                assert_eq!(out, expected);
            }
            RecoveryOutput::Dense => panic!("sparse vector reported dense"),
        }
    }

    #[test]
    fn recovers_after_cancellations() {
        let mut s = seeds(2);
        let mut rec = SparseRecovery::new(1024, 4, &mut s);
        // heavy churn that cancels except for two survivors
        for i in 0..200u64 {
            rec.update(i, 3);
            rec.update(i, -3);
        }
        rec.update(11, 9);
        rec.update(77, -1);
        match rec.recover() {
            RecoveryOutput::Recovered(out) => assert_eq!(out, vec![(11, 9), (77, -1)]),
            RecoveryOutput::Dense => panic!("should recover after cancellation"),
        }
    }

    #[test]
    fn zero_vector_recovers_empty() {
        let mut s = seeds(3);
        let rec = SparseRecovery::new(256, 4, &mut s);
        assert_eq!(rec.recover(), RecoveryOutput::Recovered(vec![]));
    }

    #[test]
    fn dense_vector_reported_dense() {
        let mut s = seeds(4);
        let mut rec = SparseRecovery::new(1 << 14, 4, &mut s);
        for i in 0..2000u64 {
            rec.update(i * 7 % (1 << 14), 1);
        }
        assert_eq!(rec.recover(), RecoveryOutput::Dense);
    }

    #[test]
    fn capacity_boundary() {
        // exactly `capacity` coordinates must still be recoverable
        let mut s = seeds(5);
        let cap = 12usize;
        let mut rec = SparseRecovery::new(1 << 12, cap, &mut s);
        let entries: Vec<(u64, i64)> =
            (0..cap as u64).map(|i| (i * 300 + 7, i as i64 + 1)).collect();
        for &(i, v) in &entries {
            rec.update(i, v);
        }
        match rec.recover() {
            RecoveryOutput::Recovered(out) => assert_eq!(out.len(), cap),
            RecoveryOutput::Dense => panic!("capacity-sized vector reported dense"),
        }
    }

    #[test]
    fn subtract_recovers_difference() {
        // The universal-relation protocol sketches x and y separately and
        // recovers x - y from the subtracted sketches.
        let mut s = seeds(6);
        let proto = SparseRecovery::new(4096, 6, &mut s);
        let mut sx = proto.clone();
        let mut sy = proto.clone();
        for i in 0..500u64 {
            sx.update(i, 1);
            sy.update(i, 1); // identical mass cancels in the difference
        }
        sx.update(1000, 5);
        sy.update(2000, 3);
        let mut diff = sx.clone();
        diff.subtract(&sy);
        match diff.recover() {
            RecoveryOutput::Recovered(out) => assert_eq!(out, vec![(1000, 5), (2000, -3)]),
            RecoveryOutput::Dense => panic!("difference should be 2-sparse"),
        }
    }

    #[test]
    fn merge_is_additive() {
        let mut s = seeds(7);
        let proto = SparseRecovery::new(512, 4, &mut s);
        let mut a = proto.clone();
        let mut b = proto.clone();
        a.update(10, 2);
        b.update(10, 3);
        b.update(20, -1);
        a.merge(&b);
        match a.recover() {
            RecoveryOutput::Recovered(out) => assert_eq!(out, vec![(10, 5), (20, -1)]),
            RecoveryOutput::Dense => panic!("merged sparse vectors should recover"),
        }
    }

    #[test]
    fn process_stream() {
        let mut s = seeds(8);
        let mut rec = SparseRecovery::new(64, 4, &mut s);
        let stream = UpdateStream::from_updates(
            64,
            TurnstileModel::General,
            vec![Update::new(1, 4), Update::new(2, -4), Update::new(1, -4)],
        );
        rec.process(&stream);
        assert_eq!(rec.recover(), RecoveryOutput::Recovered(vec![(2, -4)]));
    }

    #[test]
    fn space_is_linear_in_capacity() {
        let mut s = seeds(9);
        let small = SparseRecovery::new(1 << 20, 4, &mut s);
        let large = SparseRecovery::new(1 << 20, 64, &mut s);
        assert!(large.space().counters > 8 * small.space().counters);
        assert!(small.bits_used() > 0);
    }
}
