//! # lps-engine
//!
//! A multi-threaded sharded ingestion engine built on sketch mergeability,
//! with pluggable shard partitioning.
//!
//! Every structure in this workspace maintains `L(x)` for a linear map `L`,
//! so `sketch(A ++ B) == merge(sketch(A), sketch(B))` whenever both sides
//! use the same seeds. The engine exploits exactly that identity for
//! multi-core scaling, and decomposes it into two orthogonal choices:
//!
//! * **How the stream is partitioned** — a [`ShardPlan`] strategy.
//!   [`RoundRobin`] deals dispatch batches to identically-seeded replicas
//!   in rotation and recombines by addition; [`KeyRange`] gives each shard
//!   a contiguous slice of the coordinate space (via
//!   [`ShardIngest::restrict_domain`]), routes updates by coordinate, and
//!   recombines by disjoint union ([`ShardIngest::merge_disjoint`]). For
//!   the exact-arithmetic structures **both** strategies reproduce the
//!   sequential state bit for bit.
//! * **How updates reach the workers** — an [`IngestSession`] built by
//!   [`EngineBuilder`]: [`IngestSession::ingest_blocking`] stages updates
//!   and hands each full batch to its worker's bounded channel, parking
//!   while that channel is full; an in-memory [`IngestSession::snapshot`]
//!   reads the live state, and a terminal [`IngestSession::seal`] returns
//!   the merged structure. Linearity means each shard only needs its own
//!   batches in order, so that one blocking path is all delivery takes.
//!
//! ```
//! use lps_engine::{EngineBuilder, KeyRange, RoundRobin};
//! use lps_hash::SeedSequence;
//! use lps_sketch::{Mergeable, SparseRecovery};
//! use lps_stream::Update;
//!
//! let mut seeds = SeedSequence::new(7);
//! let proto = SparseRecovery::new(1 << 12, 8, &mut seeds);
//! let updates: Vec<Update> = (0..1000).map(|i| Update::new(i % 100, 1)).collect();
//!
//! let mut sequential = proto.clone();
//! sequential.process_batch(&updates);
//!
//! // replicated shards, additive merge …
//! let mut rr = EngineBuilder::new(&proto).shards(4).session();
//! rr.ingest_blocking(&updates);
//! assert_eq!(rr.seal().unwrap().state_digest(), sequential.state_digest());
//!
//! // … or partitioned coordinate space, disjoint-union merge: same bits
//! let mut kr = EngineBuilder::new(&proto).plan(KeyRange::new(1 << 12, 4)).session();
//! kr.ingest_blocking(&updates);
//! assert_eq!(kr.seal().unwrap().state_digest(), sequential.state_digest());
//! ```
//!
//! ## Exact and approximate sharding
//!
//! The structures whose counters use integer or field arithmetic (sparse
//! recovery, both L0 samplers, count-sketch, count-min, count-median, AMS)
//! merge **exactly**: any partition of the stream recombines to the
//! sequential state bit for bit, under either plan, pinned by the
//! equivalence tests via [`Mergeable::state_digest`].
//!
//! Floating-point structures (the p-stable sketch, the precision/AKO
//! samplers and both heavy-hitter drivers) are linear only up to rounding:
//! their shard merges reassociate `f64` sums, drifting by at most the
//! `~2kε` per-counter bound (`k` = shard count; Kahan compensation inside
//! each shard leaves only the k-way merge reassociation) documented on
//! their `merge_from` impls. They
//! are shardable too, but only behind an explicit opt-in: the plan must
//! carry [`Tolerance::Approximate`] ([`RoundRobin::approximate`] /
//! [`KeyRange::approximate`]), otherwise the session refuses to build.
//!
//! ## Checkpoint / restore and cross-process merging
//!
//! [`IngestSession::checkpoint`] serializes each shard behind a plan
//! envelope (strategy, tolerance, shard index/count, owned key range) ahead
//! of the versioned `Persist` payload; [`EngineBuilder::resume`] re-animates
//! a session after validating the envelope against the resuming plan — a
//! key-range checkpoint offered to a round-robin resume is rejected with
//! [`DecodeError::PlanMismatch`] before any counter is decoded.
//! [`merge_checkpointed`] recombines shard buffers produced by *different OS
//! processes* under the strategy stamped in their envelopes. Bytes are for
//! crossing a process boundary: to read a live session's merged state in
//! the same process, [`IngestSession::snapshot`] merges clones of the
//! shards in memory.
//!
//! ## When parallel beats batched
//!
//! Sharding pays when the per-update sketch work dominates the per-update
//! distribution overhead (one staging copy + channel handoff per update,
//! amortised over `batch_size`-sized batches). Sparse recovery and the L0
//! sampler touch `O(rows)` / `O(rows · levels)` cells per update, so they
//! scale; a bare count-min row update is so cheap that single-threaded
//! batching stays competitive until batches get large. Round robin balances
//! load for free but replicates every shard's working set; key-range shards
//! touch only the cells their own range hashes to (smaller effective cache
//! footprint) but inherit the stream's key skew. Experiment E14 measures
//! both per structure and stamps the winner into `BENCH_samplers.json`.
//! Throughput scales with *physical* cores either way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod plan;
mod session;

pub use plan::{
    read_envelope, KeyRange, PlanEnvelope, PlanStrategy, RoundRobin, ShardPlan, Tolerance,
    ENVELOPE_HEADER_LEN, ENVELOPE_MAGIC, ENVELOPE_VERSION,
};
pub use session::{EngineBuilder, IngestSession};

/// Errors an engine session can surface at its terminal operations.
///
/// A worker panic (a bug in a structure's `ingest_batch`, or a poisoned
/// update) is contained to its shard: the session keeps running, and
/// [`IngestSession::snapshot`] / [`IngestSession::seal`] /
/// [`IngestSession::checkpoint`] report the panicked shard here instead of
/// propagating the panic — so a caller can
/// fall back to [`IngestSession::checkpoint_surviving`] and persist every
/// shard that is still healthy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The worker thread driving `shard` panicked; its partial state is
    /// lost, every other shard's state is intact.
    WorkerPanicked {
        /// Index of the shard whose worker panicked.
        shard: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::WorkerPanicked { shard } => {
                write!(f, "engine worker for shard {shard} panicked")
            }
        }
    }
}

impl std::error::Error for EngineError {}

use lps_core::{AkoSampler, FisL0Sampler, L0Sampler, LpSampler, PrecisionLpSampler};
use lps_heavy::{CountMinHeavyHitters, CountSketchHeavyHitters};
use lps_sketch::{
    read_header, seed_section, AmsSketch, CountMedianSketch, CountMinSketch, CountSketch,
    DecodeError, LinearSketch, Mergeable, PStableSketch, Persist, SparseRecovery,
};
use lps_stream::Update;

use plan::tree_merge_with;

/// A structure the sharded engine can drive: cloneable (identically-seeded
/// clones), mergeable, batch-ingestible, and partitionable by key range.
///
/// [`ShardIngest::TOLERANCE`] declares the structure's merge-fidelity class.
/// `Exact` implementors guarantee that batch ingestion plus
/// [`Mergeable::merge_from`] (equivalently [`ShardIngest::merge_disjoint`]
/// under disjoint supports) is **bit-exact**: for any partition of an
/// integer update stream across identically-seeded clones, merging the shard
/// states reproduces, bit for bit, the state of one clone ingesting the
/// whole stream sequentially. `Approximate` implementors (dense `f64`
/// counters) merge up to floating-point reassociation and may only be
/// driven by a plan carrying [`Tolerance::Approximate`].
pub trait ShardIngest: Mergeable + Clone + Send {
    /// The structure's merge-fidelity class ([`Tolerance::Exact`] unless
    /// declared otherwise).
    const TOLERANCE: Tolerance = Tolerance::Exact;

    /// Ingest a batch of updates through the structure's fast path.
    fn ingest_batch(&mut self, updates: &[Update]);

    /// Build the shard structure owning the key range `range` for key-range
    /// partitioned ingestion. Implementations validate the range against
    /// their dimension and return an identically-seeded zero-state clone —
    /// the hash-compressed state shape is domain-independent, and exact
    /// recombination requires evaluating the same random functions at
    /// global coordinates; the restriction constrains which updates the
    /// shard sees (and with it the shard's working set).
    fn restrict_domain(&self, range: std::ops::Range<u64>) -> Self {
        let _ = range;
        self.clone()
    }

    /// Absorb a sibling shard whose ingested key range was disjoint from
    /// ours. For linear structures the disjoint union coincides with
    /// addition, so the default delegates to [`Mergeable::merge_from`];
    /// implementors override it to skip state the sibling never touched
    /// (bit-identical either way).
    fn merge_disjoint(&mut self, other: &Self) {
        self.merge_from(other);
    }
}

macro_rules! shard_ingest {
    ($ty:ty, $tolerance:expr, $ingest:expr) => {
        impl ShardIngest for $ty {
            const TOLERANCE: Tolerance = $tolerance;

            fn ingest_batch(&mut self, updates: &[Update]) {
                let ingest: fn(&mut $ty, &[Update]) = $ingest;
                ingest(self, updates);
            }

            fn restrict_domain(&self, range: std::ops::Range<u64>) -> Self {
                <$ty>::restrict_domain(self, range)
            }

            fn merge_disjoint(&mut self, other: &Self) {
                <$ty>::merge_disjoint(self, other);
            }
        }
    };
}

// The exact-arithmetic structures: integer/field counters, bit-exact merges.
shard_ingest!(SparseRecovery, Tolerance::Exact, |s, u| s.process_batch(u));
shard_ingest!(CountSketch, Tolerance::Exact, |s, u| LinearSketch::process_batch(s, u));
shard_ingest!(CountMinSketch, Tolerance::Exact, |s, u| s.process_batch(u));
shard_ingest!(CountMedianSketch, Tolerance::Exact, |s, u| LinearSketch::process_batch(s, u));
shard_ingest!(AmsSketch, Tolerance::Exact, |s, u| LinearSketch::process_batch(s, u));
shard_ingest!(L0Sampler, Tolerance::Exact, |s, u| LpSampler::process_batch(s, u));
shard_ingest!(FisL0Sampler, Tolerance::Exact, |s, u| LpSampler::process_batch(s, u));

// The float structures: dense f64 counters, estimator-level merge fidelity
// (see the ~2kε drift bound on their merge_from docs). Shardable only
// behind an explicitly approximate plan.
shard_ingest!(PStableSketch, Tolerance::Approximate, |s, u| LinearSketch::process_batch(s, u));
shard_ingest!(PrecisionLpSampler, Tolerance::Approximate, |s, u| LpSampler::process_batch(s, u));
shard_ingest!(AkoSampler, Tolerance::Approximate, |s, u| LpSampler::process_batch(s, u));
shard_ingest!(CountSketchHeavyHitters, Tolerance::Approximate, |s, u| s.process_batch(u));
shard_ingest!(CountMinHeavyHitters, Tolerance::Approximate, |s, u| s.process_batch(u));

/// Decode a set of bare `Persist` shard buffers, first validating that they
/// are merge-compatible: every buffer must parse under the current wire
/// format, carry `T`'s structure tag, and hold a seed section byte-identical
/// to the first buffer's (same shape, same random functions). The seed
/// comparison happens *before* any counter decoding, so incompatible shards
/// are rejected cheaply and typed ([`DecodeError::SeedMismatch`]).
pub(crate) fn decode_compatible_shards<T: Persist, B: AsRef<[u8]>>(
    encoded: &[B],
) -> Result<Vec<T>, DecodeError> {
    if encoded.is_empty() {
        return Err(DecodeError::Corrupt { context: "need at least one encoded shard" });
    }
    // Validate the reference shard's own tag before adopting its seed
    // section as the compatibility yardstick — otherwise a wrong file at
    // index 0 would be misreported as a seed mismatch on shard 1.
    let reference = encoded[0].as_ref();
    let reference_header = read_header(reference)?;
    if reference_header.tag != T::TAG {
        return Err(DecodeError::WrongStructure { expected: T::TAG, found: reference_header.tag });
    }
    let reference_seeds = seed_section(reference)?;
    for (shard, bytes) in encoded.iter().enumerate().skip(1) {
        let bytes = bytes.as_ref();
        let header = read_header(bytes)?;
        if header.tag != T::TAG {
            return Err(DecodeError::WrongStructure { expected: T::TAG, found: header.tag });
        }
        if &bytes[header.seed_range] != reference_seeds {
            return Err(DecodeError::SeedMismatch { shard });
        }
    }
    encoded.iter().map(|bytes| T::decode_state(bytes.as_ref())).collect()
}

/// Merge plan-aware checkpoint buffers produced in this or **any other OS
/// process** ([`IngestSession::checkpoint`]) into the structure sketching
/// the concatenation of every shard's stream: the cross-process counterpart
/// of [`IngestSession::seal`].
///
/// The strategy stamped in the envelopes decides the combine operation —
/// additive tree merge for round-robin checkpoints, disjoint union for
/// key-range checkpoints — after validating that all buffers agree on
/// strategy and shard count, arrive in shard order, and (for key ranges)
/// tile the space with their stamped bounds. Seed compatibility is
/// byte-compared across payloads before any counter decodes. For the
/// exact-arithmetic structures the result is bit-identical — digest for
/// digest — to sequential single-process ingestion of the whole stream.
pub fn merge_checkpointed<T: ShardIngest + Persist>(encoded: &[Vec<u8>]) -> Result<T, DecodeError> {
    if encoded.is_empty() {
        return Err(DecodeError::Corrupt { context: "need at least one encoded shard" });
    }
    let (reference, _) = read_envelope(&encoded[0])?;
    let mut payloads = Vec::with_capacity(encoded.len());
    let mut previous_end = None;
    for (i, bytes) in encoded.iter().enumerate() {
        let (envelope, payload) = read_envelope(bytes)?;
        plan::check_envelope(&envelope, reference.strategy, reference.tolerance, i, encoded.len())?;
        if let Some(range) = &envelope.range {
            // key-range shards must tile the space contiguously
            if previous_end.is_some_and(|end| end != range.start) {
                return Err(DecodeError::Corrupt {
                    context: "key-range shards do not tile the coordinate space",
                });
            }
            previous_end = Some(range.end);
        }
        payloads.push(payload);
    }
    let states = decode_compatible_shards::<T, _>(&payloads)?;
    Ok(match reference.strategy {
        PlanStrategy::RoundRobin => tree_merge_with(states, Mergeable::merge_from),
        PlanStrategy::KeyRange => tree_merge_with(states, T::merge_disjoint),
    })
}

/// One-shot convenience: shard `updates` across `shards` identically-seeded
/// clones of `prototype` under a round-robin plan and return the
/// tree-merged result.
///
/// For exact [`ShardIngest`] structures the result is bit-identical to
/// `prototype.clone()` ingesting `updates` sequentially.
///
/// # Panics
///
/// If a worker panics mid-ingest — the one-shot has no degraded mode; use
/// an [`IngestSession`] and [`IngestSession::checkpoint_surviving`] when
/// containment matters.
pub fn parallel_ingest<T: ShardIngest + 'static>(
    prototype: &T,
    updates: &[Update],
    shards: usize,
) -> T {
    let mut session = EngineBuilder::new(prototype).shards(shards).session();
    session.ingest_blocking(updates);
    session.seal().unwrap_or_else(|e| panic!("{e}"))
}

/// One-shot convenience: shard `updates` under an explicit plan and return
/// the merged result. The plan decides partitioning *and* recombination.
///
/// # Panics
///
/// If a worker panics mid-ingest (see [`parallel_ingest`]).
pub fn partitioned_ingest<T: ShardIngest + 'static, P: ShardPlan>(
    prototype: &T,
    updates: &[Update],
    plan: P,
) -> T {
    let mut session = EngineBuilder::new(prototype).plan(plan).session();
    session.ingest_blocking(updates);
    session.seal().unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lps_hash::SeedSequence;

    fn workload(n: u64, len: usize, seed: u64) -> Vec<Update> {
        let mut s = SeedSequence::new(seed);
        (0..len)
            .map(|_| {
                let delta = (s.next_below(9) as i64) - 4;
                Update::new(s.next_below(n), if delta == 0 { 1 } else { delta })
            })
            .collect()
    }

    #[test]
    fn sparse_recovery_sharded_matches_sequential_bitwise() {
        let mut seeds = SeedSequence::new(1);
        let proto = SparseRecovery::new(1 << 12, 8, &mut seeds);
        let updates = workload(1 << 12, 5000, 2);
        let mut sequential = proto.clone();
        sequential.process_batch(&updates);
        for shards in [1, 2, 3, 4, 8] {
            let merged = parallel_ingest(&proto, &updates, shards);
            assert_eq!(
                merged.state_digest(),
                sequential.state_digest(),
                "digest mismatch at {shards} shards"
            );
            assert_eq!(merged.recover(), sequential.recover());
            let partitioned = partitioned_ingest(&proto, &updates, KeyRange::new(1 << 12, shards));
            assert_eq!(
                partitioned.state_digest(),
                sequential.state_digest(),
                "key-range digest mismatch at {shards} shards"
            );
        }
    }

    #[test]
    fn l0_sampler_sharded_matches_sequential_bitwise() {
        let mut seeds = SeedSequence::new(3);
        let proto = L0Sampler::new(1 << 10, 0.25, &mut seeds);
        let updates = workload(1 << 10, 4000, 4);
        let mut sequential = proto.clone();
        LpSampler::process_batch(&mut sequential, &updates);
        let merged = parallel_ingest(&proto, &updates, 4);
        assert_eq!(merged.state_digest(), sequential.state_digest());
        assert_eq!(merged.sample(), sequential.sample());
    }

    #[test]
    fn incremental_ingestion_across_many_calls() {
        let mut seeds = SeedSequence::new(5);
        let proto = CountMinSketch::new(1 << 10, 64, 5, &mut seeds);
        let updates = workload(1 << 10, 3000, 6);
        let mut session = EngineBuilder::new(&proto).shards(3).batch_size(128).session();
        // feed in ragged pieces to exercise batch boundaries
        for piece in updates.chunks(701) {
            session.ingest_blocking(piece);
        }
        let merged = session.seal().unwrap();
        let mut sequential = proto.clone();
        sequential.process_batch(&updates);
        assert_eq!(merged.state_digest(), sequential.state_digest());
    }

    #[test]
    fn empty_stream_yields_prototype_state() {
        let mut seeds = SeedSequence::new(7);
        let proto = AmsSketch::with_default_shape(256, &mut seeds);
        let merged = parallel_ingest(&proto, &[], 4);
        assert_eq!(merged.state_digest(), proto.state_digest());
        let partitioned = partitioned_ingest(&proto, &[], KeyRange::new(256, 4));
        assert_eq!(partitioned.state_digest(), proto.state_digest());
    }

    #[test]
    #[should_panic]
    fn zero_shards_rejected() {
        let mut seeds = SeedSequence::new(8);
        let proto = CountSketch::with_default_rows(64, 4, &mut seeds);
        let _ = EngineBuilder::new(&proto).shards(0).session();
    }
}
