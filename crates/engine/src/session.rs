//! The sans-io ingestion front-end: [`EngineBuilder`] → [`IngestSession`].
//!
//! A session owns the worker threads but exposes a **non-blocking,
//! poll-driven** surface: [`IngestSession::offer`] accepts as many updates
//! as current capacity allows and returns [`Poll::Pending`] instead of ever
//! blocking the caller on a full worker channel. That makes the engine
//! embeddable behind a socket loop, an async executor, or any other
//! event-driven driver without new runtime dependencies — the caller decides
//! what "wait" means.
//!
//! ## Lifecycle
//!
//! ```text
//! EngineBuilder::new(&proto).plan(...).batch_size(...)
//!     └─ session() ──► offer(&updates) ─┬─► Poll::Ready(accepted)
//!                      ▲                └─► Poll::Pending (backpressure)
//!                      └──── caller retries / drains ◄┘
//!                      drain() ──► Poll::Ready when all buffers handed off
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
//! reaches the batch size, and hands sealed batches to worker channels with
//! `try_send` — the batch `Vec` is **moved** on handoff, never cloned, and a
//! batch that finds its channel full simply waits in the bounded outbox
//! until a later poll. Peak buffered memory is bounded by
//! `shards × batch_size` staged updates plus `2 × shards` outbox batches on
//! top of the worker channels' own backlog.

use std::collections::VecDeque;
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::task::Poll;
use std::thread::JoinHandle;

use lps_sketch::{DecodeError, Persist};
use lps_stream::{Update, UpdateStream, DEFAULT_BATCH_SIZE};

use crate::plan::{encode_envelope_header, validate_envelopes, RoundRobin, ShardPlan, Tolerance};
use crate::{decode_compatible_shards, EngineError, ShardIngest};

/// How many dispatch batches may sit unprocessed in each worker's channel.
/// Together with the outbox cap this bounds peak buffered memory at roughly
/// `shards × (WORKER_BACKLOG + 2) × batch_size` updates.
const WORKER_BACKLOG: usize = 8;

/// Sealed batches the outbox may hold before [`IngestSession::offer`]
/// reports backpressure, per shard.
const OUTBOX_BATCHES_PER_SHARD: usize = 2;

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

impl<T> Worker<T> {
    /// Non-blocking handoff of a batch; a full channel hands it back.
    fn try_send(&self, batch: Vec<Update>) -> Result<(), TrySendError<Vec<Update>>> {
        self.sender.try_send(Message::Batch(batch)).map_err(|e| match e {
            TrySendError::Full(Message::Batch(b)) => TrySendError::Full(b),
            TrySendError::Disconnected(Message::Batch(b)) => TrySendError::Disconnected(b),
            TrySendError::Full(Message::Snapshot(_))
            | TrySendError::Disconnected(Message::Snapshot(_)) => unreachable!("sent a batch"),
        })
    }
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

/// A live sharded ingestion pipeline with a sans-io surface: non-blocking
/// [`IngestSession::offer`] / [`IngestSession::drain`], terminal
/// [`IngestSession::seal`]. Built by [`EngineBuilder`].
pub struct IngestSession<T: ShardIngest + 'static, P: ShardPlan> {
    plan: P,
    workers: Vec<Worker<T>>,
    /// Per-shard staging buffer (< `batch_size` routed updates each).
    staging: Vec<Vec<Update>>,
    /// Sealed batches awaiting channel capacity, global FIFO (per-shard
    /// order is preserved; batches for different shards may overtake).
    outbox: VecDeque<(usize, Vec<Update>)>,
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
            outbox: VecDeque::new(),
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

    /// Updates currently buffered inside the session (staged or in the
    /// outbox) — i.e. accepted but not yet handed to a worker channel.
    pub fn buffered(&self) -> usize {
        self.staging.iter().map(Vec::len).sum::<usize>()
            + self.outbox.iter().map(|(_, b)| b.len()).sum::<usize>()
    }

    fn outbox_cap(&self) -> usize {
        self.workers.len() * OUTBOX_BATCHES_PER_SHARD
    }

    /// Try to move queued batches from the outbox into worker channels.
    /// Never blocks; preserves per-shard FIFO order.
    fn pump(&mut self) {
        if self.outbox.is_empty() {
            return;
        }
        let mut stuck = vec![false; self.workers.len()];
        let mut remaining = VecDeque::with_capacity(self.outbox.len());
        while let Some((shard, batch)) = self.outbox.pop_front() {
            if stuck[shard] {
                remaining.push_back((shard, batch));
                continue;
            }
            match self.workers[shard].try_send(batch) {
                Ok(()) => {}
                Err(TrySendError::Full(batch)) => {
                    stuck[shard] = true;
                    remaining.push_back((shard, batch));
                }
                // worker panicked: contain it — mark the shard dead and
                // drop the batch (its state is already lost to the panic)
                Err(TrySendError::Disconnected(_)) => self.dead[shard] = true,
            }
        }
        self.outbox = remaining;
    }

    /// Hand a sealed batch to its worker, or queue it. The batch `Vec` is
    /// moved, never cloned — a full channel costs nothing but queue position.
    fn dispatch(&mut self, shard: usize, batch: Vec<Update>) {
        debug_assert!(!batch.is_empty());
        if self.dead[shard] {
            return;
        }
        // per-shard FIFO: an earlier batch for this shard queued in the
        // outbox must reach the worker first
        if self.outbox.iter().any(|(s, _)| *s == shard) {
            self.outbox.push_back((shard, batch));
            return;
        }
        match self.workers[shard].try_send(batch) {
            Ok(()) => {}
            Err(TrySendError::Full(batch)) => self.outbox.push_back((shard, batch)),
            Err(TrySendError::Disconnected(_)) => self.dead[shard] = true,
        }
    }

    /// Seal shard `shard`'s staging buffer into a dispatch batch.
    fn seal_shard(&mut self, shard: usize) {
        if self.staging[shard].is_empty() {
            return;
        }
        self.plan.batch_sealed(shard);
        let batch =
            std::mem::replace(&mut self.staging[shard], Vec::with_capacity(self.batch_size));
        self.dispatch(shard, batch);
    }

    /// Offer updates to the engine **without blocking**.
    ///
    /// Returns `Poll::Ready(accepted)` with how many updates from the front
    /// of `updates` were accepted (the caller re-offers the rest later), or
    /// `Poll::Pending` when backpressure from the workers prevents accepting
    /// any right now — retry after the workers make progress (or call
    /// [`IngestSession::drain`] from your event loop). `offer(&[])` is a
    /// pure progress poll: it flushes queued batches opportunistically and
    /// returns `Poll::Ready(0)`.
    ///
    /// Accepted updates are copied exactly once (into the staging buffer);
    /// sealed batches are moved to the workers, never cloned.
    pub fn offer(&mut self, updates: &[Update]) -> Poll<usize> {
        self.pump();
        let mut taken = 0;
        for u in updates {
            if self.outbox.len() >= self.outbox_cap() {
                self.pump();
                if self.outbox.len() >= self.outbox_cap() {
                    break;
                }
            }
            let shard = self.plan.route(u);
            debug_assert!(shard < self.staging.len(), "plan routed to nonexistent shard");
            self.staging[shard].push(*u);
            taken += 1;
            if self.staging[shard].len() >= self.batch_size {
                self.seal_shard(shard);
            }
        }
        self.accepted += taken as u64;
        if taken == 0 && !updates.is_empty() {
            Poll::Pending
        } else {
            Poll::Ready(taken)
        }
    }

    /// Flush everything buffered in the session toward the workers without
    /// blocking: seals all partial staging buffers and pumps the outbox.
    /// `Poll::Ready(())` once every accepted update has been handed to a
    /// worker channel (workers may still be ingesting); `Poll::Pending` if
    /// batches remain queued behind full channels — poll again later.
    pub fn drain(&mut self) -> Poll<()> {
        for shard in 0..self.staging.len() {
            self.seal_shard(shard);
        }
        self.pump();
        if self.outbox.is_empty() {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }

    /// Blocking convenience over [`IngestSession::offer`] for callers
    /// without an event loop: ingest the whole slice, applying backpressure
    /// by parking on the oldest queued batch's worker channel (no spin).
    pub fn ingest_blocking(&mut self, updates: &[Update]) {
        let mut rest = updates;
        while !rest.is_empty() {
            match self.offer(rest) {
                Poll::Ready(n) => rest = &rest[n..],
                Poll::Pending => self.block_on_capacity(),
            }
        }
    }

    /// Blocking convenience: ingest a whole stream.
    pub fn ingest_stream_blocking(&mut self, stream: &UpdateStream) {
        self.ingest_blocking(stream.updates());
    }

    /// Send the oldest queued batch with a blocking `send`, waiting for its
    /// worker to free channel capacity. A dead worker's batch is dropped
    /// (panic containment), so this always makes progress.
    fn block_on_capacity(&mut self) {
        if let Some((shard, batch)) = self.outbox.pop_front() {
            if self.workers[shard].sender.send(Message::Batch(batch)).is_err() {
                self.dead[shard] = true;
            }
        }
    }

    /// Seal every staging buffer and push the whole outbox down to the
    /// workers, blocking on channel capacity as needed.
    fn flush_blocking(&mut self) {
        for shard in 0..self.staging.len() {
            self.seal_shard(shard);
        }
        while !self.outbox.is_empty() {
            self.block_on_capacity();
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
        self.flush_blocking();
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
        self.flush_blocking();
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
        self.flush_blocking();
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
        self.flush_blocking();
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
            .field("buffered", &self.buffered())
            .finish()
    }
}
