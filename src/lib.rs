//! # lp-samplers
//!
//! A Rust reproduction of *"Tight Bounds for Lp Samplers, Finding Duplicates
//! in Streams, and Related Problems"* (Hossein Jowhari, Mert Sağlam, Gábor
//! Tardos; PODS 2011).
//!
//! This facade crate re-exports the whole workspace so applications can pull
//! in one dependency:
//!
//! * [`hash`] — k-wise independent hashing, Mersenne-prime field, Nisan PRG.
//! * [`stream`] — turnstile update streams, workload generators, ground
//!   truth, statistics, space accounting.
//! * [`sketch`] — count-sketch, count-min/median, AMS, p-stable norm
//!   estimation, exact sparse recovery.
//! * [`sampler`] — the paper's precision Lp sampler and zero-error L0
//!   sampler, repetition wrappers, reservoir sampling, AKO and FIS baselines.
//! * [`duplicates`] — finding duplicates in streams of length n+1, n−s, n+s.
//! * [`heavy`] — count-sketch heavy hitters for all `p ∈ (0, 2]`.
//! * [`engine`] — the parallel sharded ingestion engine built on sketch
//!   mergeability (shard across threads, tree-merge at the end), plus
//!   checkpoint/restore and cross-process merging over the versioned
//!   `Persist` wire format.
//! * [`registry`] — the multi-tenant sketch registry: fleets of keyed
//!   sketches sharing one seed pool, with lazy sparse tenants, LRU eviction
//!   to a spill backend, and transparent restore.
//! * [`service`] — the streaming sketch service: a framed `LPSW` wire
//!   protocol with a sans-io codec, a blocking socket server that merges
//!   shard checkpoint uploads and answers live queries from published
//!   snapshots, and the matching client.
//! * [`commgames`] — augmented indexing, the universal relation, and the
//!   executable lower-bound reductions.
//!
//! ## Quick start
//!
//! ```
//! use lp_samplers::prelude::*;
//!
//! // A turnstile stream: insertions and deletions over 1024 coordinates.
//! let mut stream = UpdateStream::new(1024, TurnstileModel::General);
//! stream.push(Update::new(3, 10));
//! stream.push(Update::new(700, -4));
//! stream.push(Update::new(3, -2));
//!
//! // Sample a coordinate approximately proportionally to |x_i| (p = 1).
//! let mut seeds = SeedSequence::new(7);
//! let copies = repetitions_for(1.0, 0.3, 0.1);
//! let mut sampler = RepeatedSampler::new(copies, &mut seeds, |s| {
//!     PrecisionLpSampler::new(1024, 1.0, 0.3, s)
//! });
//! sampler.process_stream(&stream);
//! if let Some(sample) = sampler.sample() {
//!     assert!(sample.index == 3 || sample.index == 700);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lps_commgames as commgames;
pub use lps_core as sampler;
pub use lps_duplicates as duplicates;
pub use lps_engine as engine;
pub use lps_hash as hash;
pub use lps_heavy as heavy;
pub use lps_registry as registry;
pub use lps_service as service;
pub use lps_sketch as sketch;
pub use lps_stream as stream;

/// Convenient glob-import surface covering the most common types.
pub mod prelude {
    pub use lps_commgames::{
        AugmentedIndexingInstance, DuplicatesToUr, HeavyHittersToAugmentedIndexing, UrInstance,
        UrSketchProtocol, UrToAugmentedIndexing,
    };
    pub use lps_core::{
        repetitions_for, AkoSampler, ExactSampler, FisL0Sampler, L0Randomness, L0Sampler,
        LpSampler, PrecisionLpSampler, RepeatedSampler, ReservoirSampler, Sample,
    };
    pub use lps_duplicates::{
        DuplicateFinder, DuplicateResult, LongStreamDuplicateFinder, NaiveDuplicateFinder,
        PriorWorkDuplicateFinder, ShortStreamDuplicateFinder,
    };
    pub use lps_engine::{
        merge_checkpointed, parallel_ingest, partitioned_ingest, EngineBuilder, IngestSession,
        KeyRange, RoundRobin, ShardIngest, ShardPlan, Tolerance,
    };
    pub use lps_hash::SeedSequence;
    pub use lps_heavy::{
        exact_heavy_hitters, is_valid_heavy_hitter_set, CountMinHeavyHitters,
        CountSketchHeavyHitters,
    };
    pub use lps_registry::{
        LazySketch, MemorySpill, RegistryConfig, ShardedRegistry, SketchRegistry, SpillBackend,
    };
    pub use lps_service::{
        CatalogPrototypes, Frame, FrameCodec, ProtoError, Query, Reply, RunningServer,
        ServiceClient, ServiceConfig, ServiceError,
    };
    pub use lps_sketch::{
        AmsSketch, CountMedianSketch, CountMinSketch, CountSketch, DecodeError, LinearSketch,
        Mergeable, PStableSketch, Persist, RecoveryOutput, SparseRecovery, StateDigest,
    };
    pub use lps_stream::{
        EmpiricalDistribution, SpaceUsage, TruthVector, TurnstileModel, Update, UpdateStream,
    };
}
