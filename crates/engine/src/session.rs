//! The ingestion front-end: [`EngineBuilder`] → [`IngestSession`].
//!
//! ## Lifecycle
//!
//! ```text
//! EngineBuilder::new(&proto).shards(...).batch_size(...)
//!     └─ session() ──► ingest_blocking(&updates) (parks while a worker's channel is full)
//!                      snapshot() ──► Ok(merged copy so far) (blocking, session stays live)
//!                      seal()  ──► Ok(final merged structure) (blocking, terminal)
//!                                  Err(WorkerPanicked) if a shard died
//! ```
//!
//! A session is the engine's [`WorkerPool`] over `shards` replicas of one
//! structure, one per worker, so a reported shard is the replica index.
//! [`IngestSession::ingest_blocking`] stages each update once and folds
//! every full piece of `min(batch_size, DEFAULT_BATCH_SIZE)` updates into
//! the pool's one window before it returns. The window seals at
//! `batch_size` distinct coordinates and goes to the next replica, so it
//! may gather updates from several calls, and updates that cancel within it
//! reach no replica. A float structure ([`Tolerance::Approximate`]) is not
//! coalesced: its window holds its updates in stream order. Each replica
//! applies its own windows in order, and by linearity the replicas merge to
//! the sequential state however the windows fall.
//!
//! [`IngestSession::snapshot`] is the in-memory read of a live session: it
//! seals the partial piece and the window, each worker answers a request
//! queued behind its chunks with a clone of its replica, and the clones
//! recombine under the plan's merge. Nothing is encoded and no thread is
//! respawned; [`IngestSession::checkpoint`] and [`EngineBuilder::resume`]
//! are the path for state that must leave the process as bytes.
//!
//! A full worker channel is the one backpressure point: the caller parks
//! until that worker frees a slot. Peak buffered memory, for `batch_size`
//! = `b` and [`DEFAULT_BATCH_SIZE`] = `B`: under `2B` staged updates, the
//! window and its merge buffer under `b + B` entries each, and per worker
//! at most `WORKER_BACKLOG` (10) queued chunks plus the one it applies,
//! each of at most `B` entries.
//!
//! ## Worker panic containment
//!
//! A panic inside a worker (a structure bug, a poisoned update) is contained
//! to its shard: the pool marks the shard dead and keeps accepting work,
//! dropping the windows dealt to the dead shard, instead of propagating the
//! panic into the caller. [`IngestSession::snapshot`] and the terminal
//! operations surface it as a typed [`EngineError::WorkerPanicked`], and
//! [`IngestSession::checkpoint_surviving`] persists every healthy shard's
//! state so a degraded fleet can still checkpoint what it has. A session
//! never respawns a worker: a shard lost to a panic stays reported.

use std::any::Any;
use std::marker::PhantomData;

use lps_sketch::{DecodeError, Persist};
use lps_stream::{Update, DEFAULT_BATCH_SIZE};

use crate::plan::{encode_envelope_header, tree_merge, validate_envelopes, RoundRobin, Tolerance};
use crate::{decode_compatible_shards, EngineError, PoolUnit, ShardIngest, WorkerPool};

/// Configures and spawns an [`IngestSession`] (or resumes one from a
/// checkpoint). This is the front door of the engine:
///
/// ```
/// use lps_engine::EngineBuilder;
/// use lps_hash::SeedSequence;
/// use lps_sketch::{Mergeable, SparseRecovery};
/// use lps_stream::Update;
///
/// let mut seeds = SeedSequence::new(7);
/// let proto = SparseRecovery::new(1 << 12, 8, &mut seeds);
/// let updates: Vec<Update> = (0..1000).map(|i| Update::new(i % 100, 1)).collect();
///
/// // four identically-seeded replicas, sealed windows dealt in rotation
/// let mut session = EngineBuilder::new(&proto).shards(4).batch_size(64).session();
/// session.ingest_blocking(&updates);
/// let merged = session.seal().unwrap();
///
/// // bit-identical to sequential ingestion
/// let mut sequential = proto.clone();
/// sequential.process_batch(&updates);
/// assert_eq!(merged.state_digest(), sequential.state_digest());
/// ```
#[derive(Debug, Clone)]
pub struct EngineBuilder<T: ShardIngest + 'static> {
    prototype: T,
    plan: RoundRobin,
    batch_size: usize,
}

impl<T: ShardIngest + 'static> EngineBuilder<T> {
    /// Start configuring an engine around a zero-state prototype. Defaults:
    /// a single-shard exact [`RoundRobin`] plan and windows that seal at
    /// [`DEFAULT_BATCH_SIZE`] distinct coordinates.
    pub fn new(prototype: &T) -> Self {
        EngineBuilder {
            prototype: prototype.clone(),
            plan: RoundRobin::new(1),
            batch_size: DEFAULT_BATCH_SIZE,
        }
    }

    /// Deal to `shards` workers (preserving a previously set tolerance).
    pub fn shards(mut self, shards: usize) -> Self {
        self.plan = RoundRobin::new(shards).with_tolerance(self.plan.tolerance());
        self
    }

    /// Use an explicit plan, e.g. [`RoundRobin::approximate`] to shard a
    /// floating-point structure.
    pub fn plan(mut self, plan: RoundRobin) -> Self {
        self.plan = plan;
        self
    }

    /// The distinct coordinates at which the open window seals and goes to
    /// the next replica — the same meaning as the service's
    /// `ServiceConfig::batch_size`. Staged updates fold into the window
    /// `min(batch_size, DEFAULT_BATCH_SIZE)` at a time, and every
    /// `snapshot`, `seal` and `checkpoint` also seals it. A float structure
    /// is not coalesced, so its window seals at `batch_size` updates.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size >= 1, "batch size must be positive");
        self.batch_size = batch_size;
        self
    }

    /// Spawn the worker threads and return the live session.
    ///
    /// # Panics
    ///
    /// If `T` merges only approximately (the float structures) and the plan
    /// does not carry [`Tolerance::Approximate`] — sharding them must be an
    /// explicit opt-in.
    pub fn session(self) -> IngestSession<T> {
        let states = vec![self.prototype; self.plan.shards()];
        IngestSession::from_states(self.plan, states, self.batch_size)
    }

    /// Re-animate a session from a plan-aware checkpoint
    /// ([`IngestSession::checkpoint`]): validates the envelope of every
    /// shard buffer against this builder's plan (strategy, tolerance, shard
    /// count), then seed-compatibility across the payloads, before any
    /// thread spawns. The builder's prototype is not consulted — state comes
    /// entirely from the checkpoint.
    pub fn resume(self, encoded: &[Vec<u8>]) -> Result<IngestSession<T>, DecodeError>
    where
        T: Persist,
    {
        let payloads = validate_envelopes(&self.plan, encoded)?;
        let states = decode_compatible_shards::<T, _>(&payloads)?;
        Ok(IngestSession::from_states(self.plan, states, self.batch_size))
    }
}

/// A live sharded ingestion pipeline: [`IngestSession::ingest_blocking`]
/// takes updates, [`IngestSession::snapshot`] reads the merged state so
/// far, and [`IngestSession::seal`] / [`IngestSession::checkpoint`] end it.
/// Built by [`EngineBuilder`].
pub struct IngestSession<T: ShardIngest + 'static> {
    plan: RoundRobin,
    /// One structure, one replica per worker.
    pool: WorkerPool,
    accepted: u64,
    structure: PhantomData<T>,
}

/// A replica state the pool handed back, as the session's structure.
fn downcast<T: 'static>(state: Box<dyn Any + Send>) -> T {
    *state.downcast::<T>().expect("a session's workers hold its own structure")
}

impl<T: ShardIngest + 'static> IngestSession<T> {
    /// Spawn one worker per state. The common core of fresh construction
    /// (prototype clones) and resume (decoded checkpoint states).
    fn from_states(plan: RoundRobin, states: Vec<T>, batch_size: usize) -> Self {
        assert!(
            T::TOLERANCE == Tolerance::Exact || plan.tolerance() == Tolerance::Approximate,
            "this structure's shard merges reassociate floating-point sums; sharding it \
             requires explicitly opting in with an approximate-tolerance plan \
             (RoundRobin::approximate)"
        );
        let shards = states.len();
        let replicas = states.into_iter().map(|s| Box::new(s) as Box<dyn PoolUnit>).collect();
        // one structure on `shards` workers: worker r owns replica r
        let pool = WorkerPool::new(vec![replicas], &[1.0], batch_size, shards);
        IngestSession { plan, pool, accepted: 0, structure: PhantomData }
    }

    /// Number of shards (worker threads).
    pub fn shards(&self) -> usize {
        self.plan.shards()
    }

    /// The plan dealing windows and merging shards.
    pub fn plan(&self) -> &RoundRobin {
        &self.plan
    }

    /// Updates accepted so far (staged, in the open window, in flight, or
    /// already ingested).
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Ingest `updates`: stage them, copied once, and fold every full piece
    /// into the open window, sending the window to the next replica's worker
    /// whenever it reaches the batch size. Blocks while that worker's
    /// channel is full — the session's one backpressure point, which parks
    /// the caller and leaves the cores to the workers it waits on. Fewer
    /// than one piece of updates stays staged for the next call.
    pub fn ingest_blocking(&mut self, updates: &[Update]) {
        for part in updates.chunks(self.pool.piece()) {
            self.pool.stage(part);
            self.pool.fan_out();
        }
        self.accepted += updates.len() as u64;
    }

    /// A merged copy of everything accepted so far, taken **without ending
    /// the session**: folds the staged updates and seals the open window
    /// (blocking on channel capacity as needed), queues a snapshot request
    /// behind each worker's chunks, and tree-merges the cloned shard states
    /// — the same result [`IngestSession::seal`] would return at this point
    /// in the stream, bit for bit for the exact structures. Ingestion
    /// continues on the same workers afterwards; nothing is encoded or
    /// decoded and no thread is respawned.
    ///
    /// A panicked worker is reported as [`EngineError::WorkerPanicked`]
    /// (lowest-indexed dead shard), as at `seal`; the session stays usable
    /// in its degraded state.
    pub fn snapshot(&mut self) -> Result<T, EngineError> {
        let replicas = self.pool.snapshot()?.pop().expect("one structure");
        Ok(tree_merge(replicas.into_iter().map(downcast).collect()))
    }

    /// Seal the partial piece and the open window, stop the workers and
    /// collect the surviving shard states with their shard indices, plus
    /// the indices of shards whose worker panicked. The panic payloads are
    /// swallowed — containment, not propagation.
    fn join_shards(self) -> (Vec<(usize, T)>, Vec<usize>) {
        let mut survivors = Vec::new();
        let mut panicked = Vec::new();
        for (shard, states) in self.pool.finish().into_iter().enumerate() {
            match states {
                Some(states) => survivors.extend(states.into_iter().map(|s| (shard, downcast(s)))),
                None => panicked.push(shard),
            }
        }
        (survivors, panicked)
    }

    /// End the session: flush every buffered update (blocking as needed —
    /// this call is terminal), join the workers, and tree-merge the shard
    /// states into the sketch of everything accepted.
    ///
    /// If any worker panicked, returns
    /// [`EngineError::WorkerPanicked`] for the lowest-indexed dead shard
    /// instead of propagating the panic — a merged result that silently
    /// missed a shard's stream would violate the linearity contract. Use
    /// [`IngestSession::checkpoint_surviving`] when the healthy shards'
    /// state must be persisted anyway.
    pub fn seal(self) -> Result<T, EngineError> {
        let (survivors, panicked) = self.join_shards();
        if let Some(&shard) = panicked.first() {
            return Err(EngineError::WorkerPanicked { shard });
        }
        Ok(tree_merge(survivors.into_iter().map(|(_, state)| state).collect()))
    }

    /// Stop ingestion and serialize every shard's state **without** merging,
    /// each buffer prefixed with the plan envelope (strategy, tolerance,
    /// shard index/count) ahead of the `Persist` payload.
    ///
    /// The stamped plan makes checkpoints self-describing:
    /// [`EngineBuilder::resume`] (and [`crate::merge_checkpointed`]) refuse
    /// buffers taken under a different tolerance or shard count.
    ///
    /// Like [`IngestSession::seal`], reports a panicked worker as
    /// [`EngineError::WorkerPanicked`] rather than checkpointing a stream
    /// with a hole in it; [`IngestSession::checkpoint_surviving`] is the
    /// explicitly-degraded variant.
    pub fn checkpoint(self) -> Result<Vec<Vec<u8>>, EngineError>
    where
        T: Persist,
    {
        let (buffers, panicked) = self.checkpoint_surviving();
        if let Some(&shard) = panicked.first() {
            return Err(EngineError::WorkerPanicked { shard });
        }
        Ok(buffers.into_iter().map(|(_, buffer)| buffer).collect())
    }

    /// Degraded-mode checkpoint: serialize **every surviving shard** behind
    /// its plan envelope (stamped with the shard's true index), and report
    /// which shards' workers panicked. Unlike
    /// [`IngestSession::checkpoint`], this never fails — a fleet that lost
    /// a shard can still persist the healthy ones and re-ingest only the
    /// dead shard's slice of the stream.
    pub fn checkpoint_surviving(self) -> (Vec<(usize, Vec<u8>)>, Vec<usize>)
    where
        T: Persist,
    {
        let plan = self.plan.clone();
        let (survivors, panicked) = self.join_shards();
        let buffers = survivors
            .into_iter()
            .map(|(shard, state)| {
                let mut out = encode_envelope_header(&plan, shard);
                state.encode_state(&mut out);
                (shard, out)
            })
            .collect();
        (buffers, panicked)
    }
}

impl<T: ShardIngest + 'static> std::fmt::Debug for IngestSession<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestSession")
            .field("plan", &self.plan)
            .field("accepted", &self.accepted)
            .finish()
    }
}
