//! The ingestion front-end: [`EngineBuilder`] → [`IngestSession`].
//!
//! ## Lifecycle
//!
//! ```text
//! EngineBuilder::new(&proto).plan(...).batch_size(...)
//!     └─ session() ──► ingest_blocking(&updates) (parks while a worker's channel is full)
//!                      snapshot() ──► Ok(merged copy so far) (blocking, session stays live)
//!                      seal()  ──► Ok(final merged structure) (blocking, terminal)
//!                                  Err(WorkerPanicked) if a shard died
//! ```
//!
//! [`IngestSession::snapshot`] is the in-memory read of a live session:
//! every worker answers a snapshot request, queued behind its batches on
//! the same channel, with a clone of its shard, and the clones recombine
//! under the plan's merge. Nothing is encoded and no thread is respawned;
//! [`IngestSession::checkpoint`] and [`EngineBuilder::resume`] remain the
//! path for state that must leave the process as bytes.
//!
//! ## Worker panic containment
//!
//! A panic inside a worker (a structure bug, a poisoned update) is contained
//! to its shard: the session marks the shard dead and keeps accepting and
//! routing work for the others instead of propagating the panic into the
//! dispatcher. [`IngestSession::snapshot`] and the terminal operations
//! surface it as a typed [`EngineError::WorkerPanicked`], and
//! [`IngestSession::checkpoint_surviving`] persists every healthy shard's
//! state so a degraded fleet can still checkpoint what it has.
//!
//! Internally the session stages routed updates per shard (one copy, into
//! the staging buffer), seals a staging buffer into a dispatch batch when it
//! reaches the batch size, and moves the batch — never clones it — into its
//! worker's bounded channel with a blocking `send`. Every structure the
//! engine shards is linear, so that is all delivery has to guarantee: each
//! shard ingests its own batches in stream order, and the shards merge to
//! the sequential state however their batches interleave. A full channel is
//! the one backpressure point: the caller parks until that worker frees a
//! slot. Peak buffered memory is bounded by `shards × (WORKER_BACKLOG + 2) ×
//! batch_size` updates: one staging buffer, the channel's backlog, and the
//! batch each worker is ingesting.

use std::sync::mpsc::{sync_channel, SyncSender};
use std::thread::JoinHandle;

use lps_sketch::{DecodeError, Persist};
use lps_stream::{Update, DEFAULT_BATCH_SIZE};

use crate::plan::{encode_envelope_header, validate_envelopes, RoundRobin, ShardPlan, Tolerance};
use crate::{decode_compatible_shards, EngineError, ShardIngest};

/// How many sealed batches may wait unprocessed in each worker's channel
/// before the dispatcher parks. Ten keeps the per-shard in-flight bound of
/// the earlier dispatcher, whose channels held 8 batches and whose outbox
/// held 2 more per shard, so peak buffered memory and the point where the
/// caller blocks are unchanged.
const WORKER_BACKLOG: usize = 10;

/// What travels down a worker's channel: a dispatch batch to ingest, or a
/// request for a clone of the shard state as of every batch queued before
/// it.
enum Message<T> {
    Batch(Vec<Update>),
    Snapshot(SyncSender<T>),
}

struct Worker<T> {
    sender: SyncSender<Message<T>>,
    handle: JoinHandle<T>,
}

/// Configures and spawns an [`IngestSession`] (or resumes one from a
/// checkpoint). This is the front door of the engine:
///
/// ```
/// use lps_engine::{EngineBuilder, KeyRange};
/// use lps_hash::SeedSequence;
/// use lps_sketch::{Mergeable, SparseRecovery};
/// use lps_stream::Update;
///
/// let mut seeds = SeedSequence::new(7);
/// let proto = SparseRecovery::new(1 << 12, 8, &mut seeds);
/// let updates: Vec<Update> = (0..1000).map(|i| Update::new(i % 100, 1)).collect();
///
/// // four shards, each owning a quarter of the coordinate space
/// let mut session =
///     EngineBuilder::new(&proto).plan(KeyRange::new(1 << 12, 4)).session();
/// session.ingest_blocking(&updates);
/// let merged = session.seal().unwrap();
///
/// // bit-identical to sequential ingestion
/// let mut sequential = proto.clone();
/// sequential.process_batch(&updates);
/// assert_eq!(merged.state_digest(), sequential.state_digest());
/// ```
#[derive(Debug, Clone)]
pub struct EngineBuilder<T: ShardIngest + 'static, P: ShardPlan = RoundRobin> {
    prototype: T,
    plan: P,
    batch_size: usize,
}

impl<T: ShardIngest + 'static> EngineBuilder<T, RoundRobin> {
    /// Start configuring an engine around a zero-state prototype. Defaults:
    /// a single-shard [`RoundRobin`] plan and [`DEFAULT_BATCH_SIZE`]
    /// dispatch batches.
    pub fn new(prototype: &T) -> Self {
        EngineBuilder {
            prototype: prototype.clone(),
            plan: RoundRobin::new(1),
            batch_size: DEFAULT_BATCH_SIZE,
        }
    }

    /// Convenience for the default plan: round-robin over `shards` workers
    /// (preserving a previously set tolerance).
    pub fn shards(mut self, shards: usize) -> Self {
        self.plan = RoundRobin::new(shards).with_tolerance(self.plan.tolerance());
        self
    }
}

impl<T: ShardIngest + 'static, P: ShardPlan> EngineBuilder<T, P> {
    /// Use a different partitioning strategy (e.g. [`crate::KeyRange`]).
    pub fn plan<Q: ShardPlan>(self, plan: Q) -> EngineBuilder<T, Q> {
        EngineBuilder { prototype: self.prototype, plan, batch_size: self.batch_size }
    }

    /// Dispatch batch size: updates staged per shard before a batch is
    /// sealed and handed to the worker.
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
    pub fn session(self) -> IngestSession<T, P> {
        let states = self.plan.build_states(&self.prototype);
        IngestSession::from_states(self.plan, states, self.batch_size)
    }

    /// Re-animate a session from a plan-aware checkpoint
    /// ([`IngestSession::checkpoint`]): validates the envelope of every
    /// shard buffer against this builder's plan (strategy, shard count, key
    /// ranges), then seed-compatibility across the payloads, before any
    /// thread spawns. The builder's prototype is not consulted — state comes
    /// entirely from the checkpoint.
    pub fn resume(self, encoded: &[Vec<u8>]) -> Result<IngestSession<T, P>, DecodeError>
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
pub struct IngestSession<T: ShardIngest + 'static, P: ShardPlan> {
    plan: P,
    workers: Vec<Worker<T>>,
    /// Per-shard staging buffer (< `batch_size` routed updates each).
    staging: Vec<Vec<Update>>,
    /// Shards whose worker was observed dead (disconnected channel) before
    /// join time. Batches routed to a dead shard are dropped — the state
    /// they would have updated is already lost to the panic.
    dead: Vec<bool>,
    batch_size: usize,
    accepted: u64,
}

impl<T: ShardIngest + 'static, P: ShardPlan> IngestSession<T, P> {
    /// Spawn one worker per state. The common core of fresh construction
    /// (plan-built states) and resume (decoded checkpoint states).
    pub(crate) fn from_states(plan: P, states: Vec<T>, batch_size: usize) -> Self {
        assert!(batch_size >= 1, "batch size must be positive");
        assert_eq!(states.len(), plan.shards(), "plan shard count must match states");
        assert!(
            T::TOLERANCE == Tolerance::Exact || plan.tolerance() == Tolerance::Approximate,
            "this structure's shard merges reassociate floating-point sums; sharding it \
             requires explicitly opting in with an approximate-tolerance plan \
             (RoundRobin::approximate / KeyRange::approximate)"
        );
        let shards = states.len();
        let workers = states
            .into_iter()
            .map(|mut shard| {
                let (sender, receiver) = sync_channel::<Message<T>>(WORKER_BACKLOG);
                let handle = std::thread::spawn(move || {
                    while let Ok(message) = receiver.recv() {
                        match message {
                            Message::Batch(batch) => shard.ingest_batch(&batch),
                            // a requester that gave up is not an error
                            Message::Snapshot(reply) => drop(reply.send(shard.clone())),
                        }
                    }
                    shard
                });
                Worker { sender, handle }
            })
            .collect();
        IngestSession {
            plan,
            workers,
            staging: (0..shards).map(|_| Vec::with_capacity(batch_size)).collect(),
            dead: vec![false; shards],
            batch_size,
            accepted: 0,
        }
    }

    /// Number of shards (worker threads).
    pub fn shards(&self) -> usize {
        self.workers.len()
    }

    /// The plan driving routing and merging.
    pub fn plan(&self) -> &P {
        &self.plan
    }

    /// Updates accepted so far (staged, in flight, or already ingested).
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Seal shard `shard`'s staging buffer into a dispatch batch and hand it
    /// to the worker with a blocking `send`: the batch `Vec` is moved, never
    /// cloned, and a full channel parks the caller until the worker frees a
    /// slot. A send to a panicked worker fails at once, so the shard is
    /// marked dead and the batch dropped (its state is already lost to the
    /// panic).
    fn seal_shard(&mut self, shard: usize) {
        if self.staging[shard].is_empty() {
            return;
        }
        self.plan.batch_sealed(shard);
        let batch =
            std::mem::replace(&mut self.staging[shard], Vec::with_capacity(self.batch_size));
        if !self.dead[shard] && self.workers[shard].sender.send(Message::Batch(batch)).is_err() {
            self.dead[shard] = true;
        }
    }

    /// Ingest `updates`: route each to its shard's staging buffer, and hand
    /// each buffer that reaches the batch size to its worker. Blocks while
    /// that worker's channel is full — the session's one backpressure point,
    /// which parks the caller and leaves the cores to the workers it waits
    /// on. Updates are copied once, into the staging buffer.
    pub fn ingest_blocking(&mut self, updates: &[Update]) {
        for u in updates {
            let shard = self.plan.route(u);
            debug_assert!(shard < self.staging.len(), "plan routed to nonexistent shard");
            self.staging[shard].push(*u);
            if self.staging[shard].len() >= self.batch_size {
                self.seal_shard(shard);
            }
        }
        self.accepted += updates.len() as u64;
    }

    /// Seal every staging buffer, partial ones included, and hand the
    /// batches to the workers.
    fn flush(&mut self) {
        for shard in 0..self.staging.len() {
            self.seal_shard(shard);
        }
    }

    /// A merged copy of everything accepted so far, taken **without ending
    /// the session**: flushes every buffered update (blocking on channel
    /// capacity as needed), queues a snapshot request behind each worker's
    /// batches, and recombines the cloned shard states under the plan's
    /// merge — the same result [`IngestSession::seal`] would return at this
    /// point in the stream, bit for bit for the exact structures. Ingestion
    /// continues on the same workers afterwards; nothing is encoded or
    /// decoded and no thread is respawned.
    ///
    /// A panicked worker is reported as [`EngineError::WorkerPanicked`]
    /// (lowest-indexed dead shard), as at `seal`; the session stays usable
    /// in its degraded state.
    pub fn snapshot(&mut self) -> Result<T, EngineError> {
        self.flush();
        // request every clone before awaiting any, so the shards copy in
        // parallel
        let replies: Vec<_> = self
            .workers
            .iter()
            .map(|w| {
                let (reply, clone) = sync_channel(1);
                w.sender.send(Message::Snapshot(reply)).ok().map(|()| clone)
            })
            .collect();
        let mut states = Vec::with_capacity(replies.len());
        for (shard, clone) in replies.into_iter().enumerate() {
            // a worker that panics drops its queued request, and with it
            // the reply sender, so `recv` fails instead of hanging
            match clone.and_then(|c| c.recv().ok()) {
                Some(state) => states.push(state),
                None => self.dead[shard] = true,
            }
        }
        if let Some(shard) = self.dead.iter().position(|&dead| dead) {
            return Err(EngineError::WorkerPanicked { shard });
        }
        Ok(self.plan.merge_states(states))
    }

    /// Close the channels and join the workers: surviving shard states with
    /// their shard indices, plus the indices of shards whose worker
    /// panicked. The panic payloads are swallowed — containment, not
    /// propagation.
    fn join_shards(&mut self) -> (Vec<(usize, T)>, Vec<usize>) {
        let mut survivors = Vec::new();
        let mut panicked = Vec::new();
        for (shard, w) in std::mem::take(&mut self.workers).into_iter().enumerate() {
            drop(w.sender);
            match w.handle.join() {
                Ok(state) => survivors.push((shard, state)),
                Err(_) => panicked.push(shard),
            }
        }
        (survivors, panicked)
    }

    /// End the session: flush every buffered update (blocking as needed —
    /// this call is terminal), join the workers, and recombine the shard
    /// states under the plan's merge (additive tree for round robin,
    /// disjoint union for key ranges) into the sketch of everything
    /// accepted.
    ///
    /// If any worker panicked, returns
    /// [`EngineError::WorkerPanicked`] for the lowest-indexed dead shard
    /// instead of propagating the panic — a merged result that silently
    /// missed a shard's stream would violate the linearity contract. Use
    /// [`IngestSession::checkpoint_surviving`] when the healthy shards'
    /// state must be persisted anyway.
    pub fn seal(mut self) -> Result<T, EngineError> {
        self.flush();
        let (survivors, panicked) = self.join_shards();
        if let Some(&shard) = panicked.first() {
            return Err(EngineError::WorkerPanicked { shard });
        }
        Ok(self.plan.merge_states(survivors.into_iter().map(|(_, state)| state).collect()))
    }

    /// Stop ingestion and serialize every shard's state **without** merging,
    /// each buffer prefixed with the plan envelope (strategy, tolerance,
    /// shard index/count, owned key range) ahead of the `Persist` payload.
    ///
    /// The stamped plan makes checkpoints self-describing:
    /// [`EngineBuilder::resume`] (and [`crate::merge_checkpointed`]) refuse
    /// buffers taken under a different strategy, so a key-range checkpoint
    /// cannot be silently recombined as round-robin.
    ///
    /// Like [`IngestSession::seal`], reports a panicked worker as
    /// [`EngineError::WorkerPanicked`] rather than checkpointing a stream
    /// with a hole in it; [`IngestSession::checkpoint_surviving`] is the
    /// explicitly-degraded variant.
    pub fn checkpoint(mut self) -> Result<Vec<Vec<u8>>, EngineError>
    where
        T: Persist,
    {
        self.flush();
        let plan = self.plan.clone();
        let (survivors, panicked) = self.join_shards();
        if let Some(&shard) = panicked.first() {
            return Err(EngineError::WorkerPanicked { shard });
        }
        Ok(survivors
            .into_iter()
            .map(|(shard, state)| {
                let mut out = encode_envelope_header(&plan, shard);
                state.encode_state(&mut out);
                out
            })
            .collect())
    }

    /// Degraded-mode checkpoint: serialize **every surviving shard** behind
    /// its plan envelope (stamped with the shard's true index), and report
    /// which shards' workers panicked. Unlike
    /// [`IngestSession::checkpoint`], this never fails — a fleet that lost
    /// a shard can still persist the healthy ones and re-ingest only the
    /// dead shard's slice of the stream.
    pub fn checkpoint_surviving(mut self) -> (Vec<(usize, Vec<u8>)>, Vec<usize>)
    where
        T: Persist,
    {
        self.flush();
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

impl<T: ShardIngest + 'static, P: ShardPlan + std::fmt::Debug> std::fmt::Debug
    for IngestSession<T, P>
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestSession")
            .field("plan", &self.plan)
            .field("shards", &self.workers.len())
            .field("batch_size", &self.batch_size)
            .field("accepted", &self.accepted)
            .finish()
    }
}
