//! # lps-engine
//!
//! A multi-threaded sharded ingestion engine built on sketch mergeability.
//!
//! Every structure in this workspace maintains `L(x)` for a linear map `L`,
//! so `sketch(A ++ B) == merge(sketch(A), sketch(B))` whenever both sides
//! use the same seeds. The engine exploits exactly that identity for
//! multi-core scaling: an [`IngestSession`] built by [`EngineBuilder`]
//! runs the engine's one [`WorkerPool`] (the service's catalog runs it too)
//! over identically-seeded replicas: [`IngestSession::ingest_blocking`]
//! folds updates into one coalesced window and deals each sealed window to
//! the next replica's bounded channel in rotation (the [`RoundRobin`] plan),
//! parking while it is full. An in-memory [`IngestSession::snapshot`] reads
//! the live state, and a terminal [`IngestSession::seal`] returns the
//! replicas recombined by addition in a fixed binary tree. Linearity means
//! each replica only needs its own windows in order, and since any
//! partition of a stream merges to the same state, dealing windows in
//! rotation is as good a partition as any.
//!
//! ```
//! use lps_engine::EngineBuilder;
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
//! // replicated shards, additive merge: the same bits
//! let mut session = EngineBuilder::new(&proto).shards(4).session();
//! session.ingest_blocking(&updates);
//! assert_eq!(session.seal().unwrap().state_digest(), sequential.state_digest());
//! ```
//!
//! ## Exact and approximate sharding
//!
//! The structures whose counters use integer or field arithmetic (sparse
//! recovery, both L0 samplers, count-sketch, count-min, count-median, AMS)
//! merge **exactly**: any partition of the stream recombines to the
//! sequential state bit for bit, pinned by the equivalence tests via
//! [`Mergeable::state_digest`].
//!
//! Floating-point structures (the p-stable sketch, the precision/AKO
//! samplers and both heavy-hitter drivers) are linear only up to rounding:
//! their shard merges reassociate `f64` sums, drifting by at most the
//! `~2kε` per-counter bound (`k` = shard count; Kahan compensation inside
//! each shard leaves only the k-way merge reassociation) documented on
//! their `merge_from` impls. They
//! are shardable too, but only behind an explicit opt-in: the plan must
//! carry [`Tolerance::Approximate`] ([`RoundRobin::approximate`]),
//! otherwise the session refuses to build.
//!
//! ## Checkpoint / restore and cross-process merging
//!
//! [`IngestSession::checkpoint`] serializes each shard behind a plan
//! envelope (strategy, tolerance, shard index/count) ahead of the
//! versioned `Persist` payload; [`EngineBuilder::resume`] re-animates a
//! session after validating the envelope against the resuming plan, and
//! [`merge_checkpointed`] recombines shard buffers produced by *different
//! OS processes*. Checkpoints of the retired key-range plan are refused by
//! both (and by [`read_envelope`]) with [`DecodeError::PlanMismatch`]
//! before any counter is decoded. Bytes are for crossing a process
//! boundary: to read a live session's merged state in the same process,
//! [`IngestSession::snapshot`] merges clones of the shards in memory.
//!
//! ## When parallel beats batched
//!
//! Sharding pays when the per-coordinate sketch work dominates the
//! per-update cost on the caller's thread (a staging copy, one
//! `coalesce_updates` per piece, the merge into the window, and a copy of
//! each sealed window into `Arc` chunks). Sparse recovery and the L0
//! sampler touch `O(rows)` / `O(rows · levels)` cells per coordinate, so
//! they scale; a bare count-min row update is so cheap that single-threaded
//! batching stays competitive. Experiment E14 measures the scaling per
//! shard count and stamps it into `BENCH_samplers.json`. Throughput scales
//! with *physical* cores.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod plan;
mod pool;
mod session;

pub use plan::{
    read_envelope, PlanEnvelope, RoundRobin, Tolerance, ENVELOPE_HEADER_LEN, ENVELOPE_MAGIC,
    ENVELOPE_VERSION,
};
pub use pool::{PoolUnit, WorkerPool};
pub use session::{EngineBuilder, IngestSession};

/// Errors an engine session can surface at its terminal operations.
///
/// A worker panic (a bug in a structure's `ingest_batch`, or a poisoned
/// update) is contained to its worker: the session keeps running, and
/// [`IngestSession::snapshot`] / [`IngestSession::seal`] /
/// [`IngestSession::checkpoint`] report the panicked shard here instead of
/// propagating the panic — so a caller can
/// fall back to [`IngestSession::checkpoint_surviving`] and persist every
/// shard that is still healthy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The worker thread driving `shard` panicked; its partial state is
    /// lost, every other worker's state is intact.
    WorkerPanicked {
        /// Index of the worker that panicked. A session runs one replica
        /// per worker, so there it is the shard (replica) index.
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

use plan::{checkpoint_payloads, tree_merge};

/// A structure the sharded engine can drive: cloneable (identically-seeded
/// clones), mergeable, and batch-ingestible.
///
/// [`ShardIngest::TOLERANCE`] declares the structure's merge-fidelity class.
/// `Exact` implementors guarantee that batch ingestion plus
/// [`Mergeable::merge_from`] is **bit-exact**: for any partition of an
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

    /// Apply one chunk of a [`WorkerPool`] window: for an `Exact` structure,
    /// entries as `coalesce_updates` returns them, whose effect must equal
    /// `ingest_batch` of the updates they sum; for an `Approximate` one,
    /// its updates in stream order. The default ingests the entries as
    /// updates; the exact structures forward to their inherent fast path.
    fn apply_coalesced(&mut self, entries: &[(u64, i64)]) {
        let updates: Vec<Update> = entries.iter().map(|&(i, d)| Update::new(i, d)).collect();
        self.ingest_batch(&updates);
    }
}

macro_rules! shard_ingest {
    ($ty:ty, $tolerance:expr, $ingest:expr $(, $coalesced:expr)?) => {
        impl ShardIngest for $ty {
            const TOLERANCE: Tolerance = $tolerance;

            fn ingest_batch(&mut self, updates: &[Update]) {
                let ingest: fn(&mut $ty, &[Update]) = $ingest;
                ingest(self, updates);
            }
            $(
                fn apply_coalesced(&mut self, entries: &[(u64, i64)]) {
                    let apply: fn(&mut $ty, &[(u64, i64)]) = $coalesced;
                    apply(self, entries);
                }
            )?
        }
    };
}

// The exact-arithmetic structures: integer/field counters, bit-exact merges,
// and an inherent `apply_coalesced` the worker pool feeds.
shard_ingest!(SparseRecovery, Tolerance::Exact, |s, u| s.process_batch(u), Self::apply_coalesced);
shard_ingest!(CountSketch, Tolerance::Exact, LinearSketch::process_batch, Self::apply_coalesced);
shard_ingest!(CountMinSketch, Tolerance::Exact, |s, u| s.process_batch(u), Self::apply_coalesced);
shard_ingest!(
    CountMedianSketch,
    Tolerance::Exact,
    LinearSketch::process_batch,
    Self::apply_coalesced
);
shard_ingest!(AmsSketch, Tolerance::Exact, LinearSketch::process_batch, Self::apply_coalesced);
shard_ingest!(L0Sampler, Tolerance::Exact, LpSampler::process_batch, Self::apply_coalesced);
shard_ingest!(FisL0Sampler, Tolerance::Exact, LpSampler::process_batch, Self::apply_coalesced);

// The float structures: dense f64 counters, estimator-level merge fidelity
// (see the ~2kε drift bound on their merge_from docs). Shardable only
// behind an explicitly approximate plan, and fed in stream order.
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
/// Validates that all buffers carry the round-robin strategy and one
/// tolerance marker and arrive complete and in shard order; seed
/// compatibility is byte-compared across payloads before any counter
/// decodes. The states then tree-merge in the same association as
/// [`IngestSession::seal`]. For the exact-arithmetic structures the result
/// is bit-identical — digest for digest — to sequential single-process
/// ingestion of the whole stream.
pub fn merge_checkpointed<T: ShardIngest + Persist>(encoded: &[Vec<u8>]) -> Result<T, DecodeError> {
    let payloads = checkpoint_payloads(encoded, None)?;
    Ok(tree_merge(decode_compatible_shards::<T, _>(&payloads)?))
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
    }

    #[test]
    #[should_panic]
    fn zero_shards_rejected() {
        let mut seeds = SeedSequence::new(8);
        let proto = CountSketch::with_default_rows(64, 4, &mut seeds);
        let _ = EngineBuilder::new(&proto).shards(0).session();
    }
}
