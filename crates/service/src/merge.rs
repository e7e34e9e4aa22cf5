//! The merge service: live ingestion, shard-checkpoint absorption, and
//! snapshot-published queries — the application layer behind the socket.
//!
//! ## Consistency model
//!
//! Two read paths with different guarantees:
//!
//! * **Live queries** (sample / point-estimate / duplicates) answer from
//!   the latest *published snapshot* — an immutable structure behind an
//!   `Arc` that connection threads clone out of [`SnapshotHandle`] under a
//!   brief map lock. Reads never touch the ingest path, never wait on it,
//!   and are stale by at most one publish interval
//!   ([`ServiceConfig::publish_interval`] accepted updates): a publish
//!   covers every update accepted before it, whether staged, folded into
//!   the open window, or queued at a worker.
//! * **Digest queries** (structure or tenant) are applied under the core
//!   lock like writes, forcing a fresh publish first — so they are
//!   linearized with ingestion: a digest answered after the service
//!   accepted updates `1..k` covers exactly those updates. The CI loopback
//!   harness leans on this for its bit-identity assertions.
//!
//! ## Publishing without pausing ingestion
//!
//! Every catalog structure is a linear sketch of the frequency vector, so
//! one coalesced `(index, Δ)` list is a correct input for all of them, an
//! insertion that a later deletion cancels can be summed away before any
//! structure sees it, and when a list reaches the workers changes no answer
//! as long as each publish sends it first. The core's one dispatcher works
//! in three steps:
//!
//! * **Stage.** Accepting a frame (`ServiceCore::accept`) only appends its
//!   tenant-0 updates to a staging buffer: it sorts nothing and never waits
//!   on a worker.
//! * **Fold.** The fan-out (`ServiceCore::fan_out`) cuts the staged updates
//!   into pieces of [`DEFAULT_BATCH_SIZE`], runs `coalesce_updates` once per
//!   piece, and merges the result into the open *window*: the coalesced sum
//!   of every update folded since the window last sealed, sorted by index,
//!   with every sum of zero dropped. A partial piece stays staged.
//! * **Seal.** Once the window holds [`ServiceConfig::batch_size`] distinct
//!   coordinates, and at every publish, it is sent in chunks of at most
//!   `DEFAULT_BATCH_SIZE` entries, each one `Arc`, to a worker pool sized to
//!   the host: `min(available_parallelism, 7 × shards)` workers, each owning
//!   a fixed share of the catalog's (structure, replica) units, placed
//!   longest-first by per-update cost. Replica `r` of a structure takes sent
//!   windows `r, r + shards, …`; a window whose updates all cancelled sends
//!   nothing and takes no replica's turn.
//!
//! [`ServiceCore::apply`] runs the first step, then the other two; the
//! server acknowledges a write after the first and folds after the ack is
//! written. A chunk of a sorted coalesced list is itself one, and every
//! catalog structure is exact, so the states are bit-identical to
//! sequential ingestion wherever the window and chunk boundaries fall.
//!
//! A publish first folds every staged update and seals the window, then
//! sends one snapshot request per worker, queued behind its chunks, and
//! each worker answers with clones of its units. Per structure, the
//! replica clones merge, absorbed shard uploads merge in, and the snapshot
//! `Arc` swaps. Nothing is serialized and no worker restarts — the catalog
//! structures are linear sketches, so the in-memory merge is already
//! bit-exact and the published digest equals sequential ingestion of
//! everything the service has accepted, however it arrived (streamed
//! batches, shard uploads, or both). Bytes are only for crossing a process
//! boundary: uploads and [`merge_checkpointed`]. The publish interval,
//! `Digest`, `CheckpointUpload` and `Shutdown` all take this one path, and
//! each refreshes all seven snapshots.
//!
//! A worker that panics loses **all** of its units: the publish that finds
//! it returns `Engine(WorkerPanicked)`, and the worker is respawned with
//! zero-state clones of its units, so the service keeps serving.

use std::any::Any;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use lps_engine::{merge_checkpointed, read_envelope, EngineError, Tolerance};
use lps_registry::{MemorySpill, RegistryConfig, SketchRegistry};
use lps_sketch::persist::read_header;
use lps_sketch::{DecodeError, Mergeable};
use lps_stream::{coalesce_updates, Update, DEFAULT_BATCH_SIZE};

use crate::catalog::{CatalogPrototypes, ServeQuery};
use crate::proto::{Frame, Query, Reply};
use crate::ServiceError;

/// Configuration of a service instance, fluent like `EngineBuilder` and
/// [`RegistryConfig`]:
///
/// ```
/// use lps_service::ServiceConfig;
///
/// let config = ServiceConfig::new(1 << 14, 0xC0FE).publish_interval(20_000);
/// assert_eq!(config.dimension, 1 << 14);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServiceConfig {
    /// Coordinate-space dimension of every catalog structure.
    pub dimension: u64,
    /// Master seed the catalog prototypes are drawn from (clients must use
    /// the same seed to upload compatible checkpoints).
    pub seed: u64,
    /// Replicas per catalog structure; the dispatcher deals sealed windows
    /// to them in rotation. Read as at least 1.
    pub shards: usize,
    /// Distinct coordinates the catalog dispatcher's open window holds
    /// before it seals and sends it to the workers; it folds staged
    /// updates into the window [`DEFAULT_BATCH_SIZE`] at a time, and also
    /// seals at every publish. Read as at least 1.
    pub batch_size: usize,
    /// Accepted-update count between automatic snapshot publishes.
    pub publish_interval: u64,
    /// `max_resident` of the tenant registry. Read as at least 1.
    pub max_resident: usize,
    /// Authentication token connections must present in their `Hello`
    /// frame. `None` (the default) leaves the server open.
    pub auth_token: Option<String>,
}

impl ServiceConfig {
    /// A service over `[0, dimension)` seeded with `seed`; other knobs at
    /// their defaults (1 replica per structure — the catalog's workers
    /// already split the seven structures between the host's cores, and a
    /// second replica only doubles memory — dispatch windows of 4096
    /// distinct coordinates, folded every [`DEFAULT_BATCH_SIZE`] updates,
    /// publish every 25 000 accepted updates, 1024 resident tenants).
    pub fn new(dimension: u64, seed: u64) -> Self {
        ServiceConfig {
            dimension,
            seed,
            shards: 1,
            batch_size: 4096,
            publish_interval: 25_000,
            max_resident: 1024,
            auth_token: None,
        }
    }

    /// Set the replica count per catalog structure (0 is taken as 1).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Set the distinct coordinates at which the catalog dispatcher seals
    /// its window (0 is taken as 1).
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Set the accepted-update count between automatic publishes.
    pub fn publish_interval(mut self, interval: u64) -> Self {
        self.publish_interval = interval.max(1);
        self
    }

    /// Set the tenant registry's resident cap.
    pub fn max_resident(mut self, max_resident: usize) -> Self {
        self.max_resident = max_resident.max(1);
        self
    }

    /// Require connections to authenticate with `token` in their `Hello`
    /// frame before any other frame is served.
    pub fn auth_token(mut self, token: impl Into<String>) -> Self {
        self.auth_token = Some(token.into());
        self
    }
}

/// One catalog structure's merge service: the merge of completed
/// shard-checkpoint uploads, folded into every publish of the structure.
pub struct MergeService<T: ServeQuery> {
    /// Merged state of every *completed* upload set.
    absorbed: Option<T>,
    /// Incomplete upload sets, keyed by their envelope shard count; a slot
    /// per shard index, filled as buffers arrive in any order.
    pending: HashMap<usize, Vec<Option<Vec<u8>>>>,
}

impl<T: ServeQuery> Default for MergeService<T> {
    fn default() -> Self {
        MergeService { absorbed: None, pending: HashMap::new() }
    }
}

impl<T: ServeQuery> MergeService<T> {
    /// Accept one shard's enveloped checkpoint buffer. The envelope is
    /// validated against this service's plan *before* anything decodes: a
    /// key-range checkpoint (refused by `read_envelope`) or an
    /// approximate-tolerance one is rejected with
    /// `DecodeError::PlanMismatch` (which the server answers as a protocol
    /// `Error` frame — the connection survives). Once every shard of a set
    /// has arrived, the set is merged into the absorbed state and the next
    /// publish folds it into the snapshot. A buffer for a shard index that
    /// is already pending is refused with `DecodeError::Corrupt`; the one
    /// that arrived first stays in the set.
    pub fn upload(&mut self, buffer: Vec<u8>) -> Result<(), ServiceError> {
        let (envelope, payload) = read_envelope(&buffer)?;
        if envelope.tolerance != Tolerance::Exact {
            return Err(DecodeError::PlanMismatch {
                expected: Tolerance::Exact.name(),
                found: envelope.tolerance.name(),
            }
            .into());
        }
        let header = read_header(payload)?;
        if header.tag != T::TAG {
            return Err(DecodeError::WrongStructure { expected: T::TAG, found: header.tag }.into());
        }
        // `read_envelope` has checked that the index lies below the count
        let count = envelope.shard_count as usize;
        let set = self.pending.entry(count).or_insert_with(|| vec![None; count]);
        let slot = &mut set[envelope.shard as usize];
        if slot.is_some() {
            return Err(DecodeError::Corrupt {
                context: "upload repeats a shard index already pending in its set",
            }
            .into());
        }
        *slot = Some(buffer);
        if set.iter().all(Option::is_some) {
            let set = self.pending.remove(&count).expect("set present");
            let buffers: Vec<Vec<u8>> =
                set.into_iter().map(|b| b.expect("all slots full")).collect();
            let merged: T = merge_checkpointed(&buffers)?;
            match &mut self.absorbed {
                Some(a) => a.merge_from(&merged),
                None => self.absorbed = Some(merged),
            }
        }
        Ok(())
    }
}

/// Object-safe query surface of a published snapshot.
trait SnapshotQuery: Send + Sync {
    fn serve(&self, query: &Query) -> Result<Reply, ServiceError>;
}

impl<T: ServeQuery> SnapshotQuery for T {
    fn serve(&self, query: &Query) -> Result<Reply, ServiceError> {
        ServeQuery::serve(self, query)
    }
}

/// The published snapshots, one per catalog structure, keyed by `Persist`
/// tag. Connection threads hold a [`SnapshotHandle`]; whichever of them
/// publishes, under the core lock, swaps fresh `Arc`s in.
#[derive(Default)]
struct SnapshotStore {
    map: Mutex<HashMap<u16, Arc<dyn SnapshotQuery>>>,
}

/// A cloneable, lock-light read handle over the published snapshots: the
/// surface connection threads answer live queries from. `serve` takes the
/// store lock only long enough to clone one `Arc` — never the core lock, so
/// it contends with ingestion only for the moment a publish swaps the
/// `Arc`s in.
#[derive(Clone)]
pub struct SnapshotHandle {
    store: Arc<SnapshotStore>,
}

impl SnapshotHandle {
    /// Answer a live query from the latest published snapshot of the
    /// structure it names. Digest kinds are *not* answered here — they
    /// need linearization with ingestion, so the server applies them under
    /// the core lock ([`ServiceCore::apply`]).
    pub fn serve(&self, query: &Query) -> Result<Reply, ServiceError> {
        let tag = match query {
            Query::Sample { structure }
            | Query::PointEstimate { structure, .. }
            | Query::Duplicates { structure }
            | Query::Digest { structure } => *structure,
            Query::TenantDigest { .. } => {
                return Err(ServiceError::Unsupported {
                    structure: "registry",
                    query: "tenant-digest outside the core lock",
                })
            }
        };
        let snapshot = {
            let map = self.store.map.lock().expect("snapshot map lock");
            map.get(&tag).cloned()
        };
        match snapshot {
            Some(s) => s.serve(query),
            None => Err(ServiceError::UnknownStructure { tag }),
        }
    }
}

/// Object-safe view of one structure's [`MergeService`], so the core
/// can hold the whole catalog in a single `Vec`.
trait Slot: Send {
    fn tag(&self) -> u16;
    fn name(&self) -> &'static str;
    fn upload(&mut self, buffer: Vec<u8>) -> Result<(), ServiceError>;
    /// Merge one publish's replica clones (from [`Unit::clone_state`]) and
    /// the absorbed uploads into the snapshot to serve.
    fn publish(&self, replicas: Vec<Box<dyn Any + Send>>) -> Arc<dyn SnapshotQuery>;
}

impl<T: ServeQuery> Slot for MergeService<T> {
    fn tag(&self) -> u16 {
        T::TAG
    }

    fn name(&self) -> &'static str {
        T::NAME
    }

    fn upload(&mut self, buffer: Vec<u8>) -> Result<(), ServiceError> {
        MergeService::upload(self, buffer)
    }

    fn publish(&self, replicas: Vec<Box<dyn Any + Send>>) -> Arc<dyn SnapshotQuery> {
        let mut replicas = replicas
            .into_iter()
            .map(|state| state.downcast::<T>().expect("a catalog unit clones its own structure"));
        let mut snapshot = *replicas.next().expect("every structure has a replica");
        for replica in replicas {
            snapshot.merge_from(&replica);
        }
        if let Some(absorbed) = &self.absorbed {
            snapshot.merge_from(absorbed);
        }
        Arc::new(snapshot)
    }
}

/// One (structure, replica) state a dispatcher worker owns.
trait Unit: Send {
    /// Apply one chunk of a sealed window: coalesced, at most
    /// [`DEFAULT_BATCH_SIZE`] entries.
    fn apply(&mut self, entries: &[(u64, i64)]);
    /// A clone of the state, for a publish to merge.
    fn clone_state(&self) -> Box<dyn Any + Send>;
    /// A clone as a unit: how workers are (re)spawned from the prototypes.
    fn boxed_clone(&self) -> Box<dyn Unit>;
}

impl<T: ServeQuery> Unit for T {
    fn apply(&mut self, entries: &[(u64, i64)]) {
        ServeQuery::apply_coalesced(self, entries);
    }

    fn clone_state(&self) -> Box<dyn Any + Send> {
        Box::new(self.clone())
    }

    fn boxed_clone(&self) -> Box<dyn Unit> {
        Box::new(self.clone())
    }
}

/// Per-update cost of each catalog structure in ns, in
/// [`crate::CATALOG_STRUCTURES`] order: the traced
/// `sketch.*.ns_per_update` of perfbench's `ingest_churn` workload at
/// commit `8f6970b` (seed 1, 2-vCPU host). Only the ratios matter: they
/// place the units.
const CATALOG_COST_NS: [f64; 7] = [113.0, 263.0, 777.0, 427.0, 68.0, 71.0, 389.0];

/// How many chunks may wait unprocessed in each worker's channel before
/// the dispatcher parks. A chunk holds at most [`DEFAULT_BATCH_SIZE`]
/// coordinates, so a publish finds at most `WORKER_BACKLOG ×
/// DEFAULT_BATCH_SIZE` coordinates queued ahead of its snapshot request,
/// whatever `ServiceConfig::batch_size` is.
const WORKER_BACKLOG: usize = 10;

/// Place the `costs.len() × replicas` (structure, replica) units on
/// `min(workers, units)` workers, longest first: each unit, costliest
/// first, goes to the least-loaded worker (ties to the lowest index). A
/// unit costs its structure's cost ÷ `replicas`. Returns each worker's
/// units.
fn place(costs: &[f64], replicas: usize, workers: usize) -> Vec<Vec<(usize, usize)>> {
    let mut units: Vec<(usize, usize)> =
        (0..costs.len()).flat_map(|s| (0..replicas).map(move |r| (s, r))).collect();
    // stable: equal costs keep (structure, replica) order
    units.sort_by(|a, b| costs[b.0].total_cmp(&costs[a.0]));
    let workers = workers.min(units.len()).max(1);
    let mut placed = vec![Vec::new(); workers];
    let mut load = vec![0.0f64; workers];
    for unit in units {
        let w = (0..workers).min_by(|&a, &b| load[a].total_cmp(&load[b])).expect("a worker");
        load[w] += costs[unit.0] / replicas as f64;
        placed[w].push(unit);
    }
    placed
}

/// What travels down a dispatcher worker's channel.
enum Message {
    /// One chunk of a sealed window, at most [`DEFAULT_BATCH_SIZE`]
    /// entries, for every unit of replica `replica`.
    Chunk { replica: usize, entries: Arc<[(u64, i64)]> },
    /// A request for clones of the worker's units, in its placement order,
    /// as of every chunk queued before it.
    Snapshot(SyncSender<Vec<Box<dyn Any + Send>>>),
}

/// One pool thread of the dispatcher.
struct Worker {
    /// The (structure, replica) units this worker owns.
    units: Vec<(usize, usize)>,
    sender: SyncSender<Message>,
    handle: JoinHandle<()>,
}

impl Worker {
    /// Spawn a worker owning zero-state clones of `units`' prototypes.
    fn spawn(units: Vec<(usize, usize)>, protos: &[Box<dyn Unit>]) -> Self {
        let mut states: Vec<(usize, Box<dyn Unit>)> =
            units.iter().map(|&(s, r)| (r, protos[s].boxed_clone())).collect();
        let (sender, receiver) = sync_channel::<Message>(WORKER_BACKLOG);
        let handle = std::thread::spawn(move || {
            while let Ok(message) = receiver.recv() {
                match message {
                    Message::Chunk { replica, entries } => {
                        for (_, unit) in states.iter_mut().filter(|(r, _)| *r == replica) {
                            unit.apply(&entries);
                        }
                    }
                    // a requester that gave up is not an error
                    Message::Snapshot(reply) => {
                        drop(reply.send(states.iter().map(|(_, u)| u.clone_state()).collect()))
                    }
                }
            }
        });
        Worker { units, sender, handle }
    }
}

/// The open window of tenant-0 updates: the coalesced sum of every update
/// folded since it last sealed, sorted by index, distinct, with every sum
/// of zero dropped — what `coalesce_updates` of those updates returns.
#[derive(Default)]
struct Window {
    entries: Vec<(u64, i64)>,
    /// The merge's output, swapped with `entries` after each fold; both
    /// buffers keep their capacity from one window to the next.
    merged: Vec<(u64, i64)>,
}

impl Window {
    /// Fold `updates` in: one `coalesce_updates`, then one linear merge
    /// with the window, in which the indices whose sums reach zero drop out.
    fn fold(&mut self, updates: &[Update]) {
        let piece = coalesce_updates(updates);
        let (window, merged) = (&self.entries, &mut self.merged);
        merged.clear();
        let (mut i, mut j) = (0, 0);
        while let (Some(&(a, da)), Some(&(b, db))) = (window.get(i), piece.get(j)) {
            match a.cmp(&b) {
                Ordering::Less => {
                    merged.push((a, da));
                    i += 1;
                }
                Ordering::Greater => {
                    merged.push((b, db));
                    j += 1;
                }
                Ordering::Equal => {
                    if da + db != 0 {
                        merged.push((a, da + db));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&window[i..]);
        merged.extend_from_slice(&piece[j..]);
        std::mem::swap(&mut self.entries, &mut self.merged);
    }
}

/// The tenant-0 catalog's ingest path: a staging buffer of accepted
/// updates, the open [`Window`] they fold into [`DEFAULT_BATCH_SIZE`] at a
/// time, and the worker pool each sealed window is sent to, one `Arc` per
/// chunk shared by every worker that owns a unit of the window's replica.
///
/// Bounds, for `batch_size` = `b` and `DEFAULT_BATCH_SIZE` = `B`:
///
/// * the window holds fewer than `b + B` coordinates: it seals once it
///   holds `b`, and one fold adds at most `B`;
/// * `staging` holds fewer than `B` updates plus one frame per connection:
///   a fan-out leaves fewer than `B`, and the server fans out after each
///   frame that leaves a full piece, before its connection reads another;
/// * a kernel call sees at most `B` entries: a window travels in chunks;
/// * a worker channel holds at most `WORKER_BACKLOG × B` queued
///   coordinates: [`WORKER_BACKLOG`] chunks.
struct Dispatcher {
    /// Zero-state prototype of each structure, for (re)spawning workers.
    protos: Vec<Box<dyn Unit>>,
    replicas: usize,
    /// Distinct coordinates at which the window seals.
    batch_size: usize,
    /// Accepted updates not folded yet, oldest first.
    staging: Vec<Update>,
    window: Window,
    /// Windows sent so far: window `i` goes to replica `i % replicas`.
    sent: u64,
    workers: Vec<Worker>,
}

impl Dispatcher {
    /// Spawn the workers for `replicas` replicas of each prototype, placed
    /// by `costs` on at most `workers` threads.
    fn new(
        protos: Vec<Box<dyn Unit>>,
        costs: &[f64],
        replicas: usize,
        batch_size: usize,
        workers: usize,
    ) -> Self {
        let workers = place(costs, replicas, workers)
            .into_iter()
            .map(|units| Worker::spawn(units, &protos))
            .collect();
        Dispatcher {
            protos,
            replicas,
            batch_size,
            staging: Vec::with_capacity(DEFAULT_BATCH_SIZE),
            window: Window::default(),
            sent: 0,
            workers,
        }
    }

    /// Stage `updates`, copied once: sorts nothing, never waits on a worker.
    fn ingest(&mut self, updates: &[Update]) {
        self.staging.extend_from_slice(updates);
    }

    /// Fold every full [`DEFAULT_BATCH_SIZE`]-update piece of the staged
    /// updates into the window, oldest first; fewer than
    /// `DEFAULT_BATCH_SIZE` stay staged.
    fn fan_out(&mut self) {
        self.fold(self.staging.len() / DEFAULT_BATCH_SIZE * DEFAULT_BATCH_SIZE);
    }

    /// Fold the oldest `count` staged updates into the window, one
    /// [`DEFAULT_BATCH_SIZE`]-update piece at a time, sealing the window
    /// whenever it reaches `batch_size` coordinates.
    fn fold(&mut self, count: usize) {
        let mut staging = std::mem::take(&mut self.staging);
        for piece in staging[..count].chunks(DEFAULT_BATCH_SIZE) {
            self.window.fold(piece);
            if self.window.entries.len() >= self.batch_size {
                self.seal();
            }
        }
        staging.drain(..count);
        self.staging = staging;
    }

    /// Send the window to every worker owning a unit of the next replica,
    /// in chunks of at most [`DEFAULT_BATCH_SIZE`] entries, and empty it;
    /// an empty window sends nothing and takes no replica's turn. Parks on
    /// a full worker channel: the backpressure point, which leaves the
    /// cores to the workers it waits on. A send to a panicked worker fails
    /// at once; its state is already lost, and the next publish reports it.
    fn seal(&mut self) {
        if self.window.entries.is_empty() {
            return;
        }
        let replica = (self.sent % self.replicas as u64) as usize;
        self.sent += 1;
        for chunk in self.window.entries.chunks(DEFAULT_BATCH_SIZE) {
            let entries: Arc<[(u64, i64)]> = chunk.into();
            let owners = self.workers.iter().filter(|w| w.units.iter().any(|&(_, r)| r == replica));
            for worker in owners {
                let _ =
                    worker.sender.send(Message::Chunk { replica, entries: Arc::clone(&entries) });
            }
        }
        self.window.entries.clear();
    }

    /// Fold every staged update and seal the window, then collect a clone
    /// of every unit, grouped by structure (the replicas of a structure
    /// merge exactly, in any order). A panicked worker fails the call with
    /// `Engine(WorkerPanicked)` (lowest worker index) and is respawned with
    /// zero-state units.
    fn snapshot(&mut self) -> Result<Vec<Vec<Box<dyn Any + Send>>>, ServiceError> {
        self.fold(self.staging.len());
        self.seal();
        // request every worker's clones before awaiting any, so they copy
        // in parallel
        let replies: Vec<_> = self
            .workers
            .iter()
            .map(|w| {
                let (reply, clones) = sync_channel(1);
                w.sender.send(Message::Snapshot(reply)).ok().map(|()| clones)
            })
            .collect();
        let mut states: Vec<Vec<Box<dyn Any + Send>>> =
            std::iter::repeat_with(Vec::new).take(self.protos.len()).collect();
        let mut panicked = None;
        for (w, clones) in replies.into_iter().enumerate() {
            // a worker that panics drops its queued request, and with it
            // the reply sender, so `recv` fails instead of hanging
            match clones.and_then(|c| c.recv().ok()) {
                Some(clones) => {
                    for (&(s, _), clone) in self.workers[w].units.iter().zip(clones) {
                        states[s].push(clone);
                    }
                }
                None => {
                    panicked.get_or_insert(w);
                    self.respawn(w);
                }
            }
        }
        match panicked {
            Some(shard) => Err(EngineError::WorkerPanicked { shard }.into()),
            None => Ok(states),
        }
    }

    /// Replace dead worker `w` with a fresh one owning the same units.
    fn respawn(&mut self, w: usize) {
        let fresh = Worker::spawn(self.workers[w].units.clone(), &self.protos);
        let dead = std::mem::replace(&mut self.workers[w], fresh);
        drop(dead.sender);
        // its panic is what `snapshot` reports
        let _ = dead.handle.join();
    }
}

impl Drop for Dispatcher {
    /// Close every channel, then join the workers once they have drained
    /// their queued chunks.
    fn drop(&mut self) {
        let (senders, handles): (Vec<_>, Vec<_>) =
            self.workers.drain(..).map(|w| (w.sender, w.handle)).unzip();
        drop(senders);
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// The single-threaded heart of the server: the catalog's dispatcher and
/// merge services plus the multi-tenant registry, applied to frames in
/// arrival order by the connection threads, one at a time under one mutex.
/// Everything here is sans-io — the socket layer lives in
/// [`crate::server`].
pub struct ServiceCore {
    /// One per catalog structure, in [`crate::CATALOG_STRUCTURES`] order —
    /// the dispatcher's structure indices.
    slots: Vec<Box<dyn Slot>>,
    dispatcher: Dispatcher,
    registry: SketchRegistry<lps_sketch::CountMinSketch, MemorySpill>,
    snapshots: Arc<SnapshotStore>,
    /// Every structure's coordinate space is `[0, dimension)`.
    dimension: u64,
    accepted: u64,
    since_publish: u64,
    publish_interval: u64,
}

impl ServiceCore {
    /// Build the standard catalog (see [`CatalogPrototypes::standard`]),
    /// its dispatcher, and the tenant registry from `config`, with every
    /// structure's initial snapshot published (the zero state), so queries
    /// are answerable before the first update arrives. Panics on a
    /// dimension the catalog refuses (0, or above `2^61 − 1`).
    pub fn new(config: &ServiceConfig) -> Self {
        let protos = CatalogPrototypes::standard(config.dimension, config.seed);
        fn slot<T: ServeQuery>(proto: T) -> (Box<dyn Slot>, Box<dyn Unit>) {
            (Box::new(MergeService::<T>::default()), Box::new(proto))
        }
        let (slots, units): (Vec<_>, Vec<_>) = [
            slot(protos.sparse_recovery),
            slot(protos.l0_sampler),
            slot(protos.fis_l0),
            slot(protos.count_sketch),
            slot(protos.count_min),
            slot(protos.count_median),
            slot(protos.ams),
        ]
        .into_iter()
        .unzip();
        let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let dispatcher = Dispatcher::new(
            units,
            &CATALOG_COST_NS,
            config.shards.max(1),
            config.batch_size.max(1),
            workers,
        );
        let registry = SketchRegistry::new(
            protos.tenant_proto,
            RegistryConfig::new().max_resident(config.max_resident.max(1)),
            MemorySpill::new(),
        );
        let mut core = ServiceCore {
            slots,
            dispatcher,
            registry,
            snapshots: Arc::new(SnapshotStore::default()),
            dimension: config.dimension,
            accepted: 0,
            since_publish: 0,
            publish_interval: config.publish_interval.max(1),
        };
        core.publish_all().expect("fresh workers hold zero states and answer");
        core
    }

    /// The read handle connection threads answer live queries from.
    pub fn snapshot_handle(&self) -> SnapshotHandle {
        SnapshotHandle { store: Arc::clone(&self.snapshots) }
    }

    /// Total updates accepted over this core's lifetime.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Apply one frame in arrival order and produce the frame to send
    /// back: validate, stage and count it, then fold every full staged
    /// piece into the catalog's window, sending the window to the workers
    /// if it fills. Only ingest-ordered frames route here (update batches,
    /// checkpoint uploads, digest queries, shutdown's final ack) — the
    /// server answers live queries from the [`SnapshotHandle`] without
    /// entering this method. The server runs the two steps in two lock
    /// holds and writes the reply between them, so its ack means "staged
    /// and counted": the fold runs right after the ack, and every publish
    /// folds whatever is staged and sends the open window first.
    pub fn apply(&mut self, frame: Frame) -> Result<Frame, ServiceError> {
        let reply = self.accept(frame);
        self.fan_out();
        reply
    }

    /// Whether a full [`DEFAULT_BATCH_SIZE`]-update piece of tenant-0
    /// updates is staged for [`fan_out`](Self::fan_out) to fold.
    pub(crate) fn needs_fan_out(&self) -> bool {
        self.dispatcher.staging.len() >= DEFAULT_BATCH_SIZE
    }

    /// Fold every full staged piece of tenant-0 updates into the catalog's
    /// window, oldest first, one `coalesce_updates` and one merge each;
    /// a window that reaches [`ServiceConfig::batch_size`] coordinates is
    /// sent to the workers, which parks on a full worker channel.
    pub(crate) fn fan_out(&mut self) {
        self.dispatcher.fan_out();
    }

    /// Validate, stage and count one frame and produce the frame to send
    /// back, without sorting a staged update or waiting on a catalog worker
    /// unless the frame publishes: every publish first folds what is staged
    /// and sends the open window, so a reply (digests included) covers
    /// every update accepted before it. Otherwise the frame's tenant-0
    /// updates wait, staged, for [`fan_out`](Self::fan_out).
    pub(crate) fn accept(&mut self, frame: Frame) -> Result<Frame, ServiceError> {
        match frame {
            // The structures only debug-assert their domain, and the hash
            // kernels assume keys below 2^61 − 1 (which `dimension` never
            // exceeds, see `CatalogPrototypes::standard`): a batch with any
            // index outside [0, dimension) is refused whole, before any of
            // it is applied to the catalog or a tenant.
            Frame::UpdateBatch { updates, .. }
                if updates.iter().any(|u| u.index >= self.dimension) =>
            {
                Err(ServiceError::Proto(crate::ProtoError::Malformed {
                    context: "update index is outside the service's dimension",
                }))
            }
            Frame::UpdateBatch { tenant: 0, updates } => {
                self.dispatcher.ingest(&updates);
                self.accepted += updates.len() as u64;
                self.since_publish += updates.len() as u64;
                if self.since_publish >= self.publish_interval {
                    self.publish_all()?;
                }
                Ok(Frame::Reply(Reply::Ack { accepted: self.accepted }))
            }
            Frame::UpdateBatch { tenant, updates } => {
                self.registry.route_blocking(tenant, &updates)?;
                self.accepted += updates.len() as u64;
                Ok(Frame::Reply(Reply::Ack { accepted: self.accepted }))
            }
            Frame::CheckpointUpload { buffer } => {
                let (_, payload) = read_envelope(&buffer)?;
                let tag = read_header(payload)?.tag;
                self.slots
                    .iter_mut()
                    .find(|s| s.tag() == tag)
                    .ok_or(ServiceError::UnknownStructure { tag })?
                    .upload(buffer)?;
                // Fold the (possibly completed) upload set into the
                // published snapshot right away, so live queries see it.
                self.publish_all()?;
                Ok(Frame::Reply(Reply::Ack { accepted: self.accepted }))
            }
            Frame::Query(query @ Query::Digest { structure }) => {
                if self.structure_name(structure).is_none() {
                    return Err(ServiceError::UnknownStructure { tag: structure });
                }
                self.publish_all()?;
                Ok(Frame::Reply(self.snapshot_handle().serve(&query)?))
            }
            Frame::Query(Query::TenantDigest { tenant }) => {
                // Materialized-view digest (not the lazy wrapper's
                // representation digest), so it matches a plain sequential
                // sketch fed the same updates.
                let digest = self.registry.query(tenant, |s| s.state_digest())?;
                Ok(Frame::Reply(Reply::TenantDigest { digest }))
            }
            Frame::Shutdown => Ok(Frame::Reply(Reply::Ack { accepted: self.accepted })),
            _ => Err(ServiceError::Proto(crate::ProtoError::Malformed {
                context: "frame is not routable through the ingest core",
            })),
        }
    }

    /// Publish every catalog structure's snapshot: one snapshot request
    /// per worker, then per structure the replica clones and the absorbed
    /// uploads merge and the `Arc`s swap, all seven under one store lock.
    /// Called on the publish interval, for digests and uploads, and before
    /// shutdown.
    pub fn publish_all(&mut self) -> Result<(), ServiceError> {
        let states = self.dispatcher.snapshot()?;
        let fresh: Vec<(u16, Arc<dyn SnapshotQuery>)> = self
            .slots
            .iter()
            .zip(states)
            .map(|(slot, replicas)| (slot.tag(), slot.publish(replicas)))
            .collect();
        self.snapshots.map.lock().expect("snapshot map lock").extend(fresh);
        self.since_publish = 0;
        Ok(())
    }

    /// Name of the catalog structure with `tag`, if hosted.
    pub fn structure_name(&self, tag: u16) -> Option<&'static str> {
        self.slots.iter().find(|s| s.tag() == tag).map(|s| s.name())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc::{channel, Receiver};
    use std::time::Duration;

    use proptest::prelude::*;

    use super::*;

    #[test]
    fn placement_puts_every_unit_once_within_one_unit_of_balance() {
        for replicas in [1, 2] {
            let cost = |&(s, _): &(usize, usize)| CATALOG_COST_NS[s] / replicas as f64;
            let every: Vec<(usize, usize)> =
                (0..7).flat_map(|s| (0..replicas).map(move |r| (s, r))).collect();
            let total: f64 = every.iter().map(cost).sum();
            let largest = every.iter().map(cost).fold(0.0, f64::max);
            for requested in [1, 2, 3, 7, 8] {
                let placed = place(&CATALOG_COST_NS, replicas, requested);
                assert_eq!(placed.len(), requested.min(every.len()), "{requested} requested");
                assert!(placed.iter().all(|w| !w.is_empty()), "an empty worker: {placed:?}");
                let mut units = placed.concat();
                units.sort_unstable();
                assert_eq!(units, every, "each unit placed exactly once");
                if placed.len() == every.len() {
                    assert!(placed.iter().all(|w| w.len() == 1), "one unit per worker");
                }
                let heaviest =
                    placed.iter().map(|w| w.iter().map(cost).sum::<f64>()).fold(0.0, f64::max);
                assert!(heaviest <= total / placed.len() as f64 + largest, "{placed:?}");
            }
        }
        // two workers, one replica: 1068 ns against the bound max(2108 / 2, 777)
        let placed = place(&CATALOG_COST_NS, 1, 2);
        let heaviest = placed
            .iter()
            .map(|w| w.iter().map(|&(s, _)| CATALOG_COST_NS[s]).sum::<f64>())
            .fold(0.0, f64::max);
        let total: f64 = CATALOG_COST_NS.iter().sum();
        let bound = (total / 2.0).max(777.0);
        assert!(heaviest <= 1.02 * bound, "heaviest worker {heaviest} ns against {bound} ns");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Indices from a range of 16 make collisions and exact
        /// cancellations common.
        #[test]
        fn folding_two_lists_equals_coalescing_their_concatenation(
            first in prop::collection::vec((0..16u64, -3i64..4), 0..64),
            second in prop::collection::vec((0..16u64, -3i64..4), 0..64),
        ) {
            let first: Vec<Update> = first.iter().map(|&(i, d)| Update::new(i, d)).collect();
            let second: Vec<Update> = second.iter().map(|&(i, d)| Update::new(i, d)).collect();
            let mut window = Window::default();
            window.fold(&first);
            window.fold(&second);
            prop_assert_eq!(&window.entries, &coalesce_updates(&[first, second].concat()));
            prop_assert!(window.entries.windows(2).all(|w| w[0].0 < w[1].0), "sorted, distinct");
            prop_assert!(window.entries.iter().all(|&(_, d)| d != 0), "no zero sums");
        }
    }

    /// Records every entry it applies, and panics on a marked delta.
    #[derive(Clone)]
    struct Recorder {
        applied: Vec<(u64, i64)>,
        panics_on: Option<i64>,
    }

    impl Unit for Recorder {
        fn apply(&mut self, entries: &[(u64, i64)]) {
            let marked = self.panics_on;
            assert!(entries.iter().all(|&(_, d)| Some(d) != marked), "marked delta");
            self.applied.extend_from_slice(entries);
        }

        fn clone_state(&self) -> Box<dyn Any + Send> {
            Box::new(self.applied.clone())
        }

        fn boxed_clone(&self) -> Box<dyn Unit> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn a_worker_panic_fails_one_publish_and_respawns_the_worker_empty() {
        const MARKED: i64 = 99;
        let protos: Vec<Box<dyn Unit>> = vec![
            Box::new(Recorder { applied: Vec::new(), panics_on: Some(MARKED) }),
            Box::new(Recorder { applied: Vec::new(), panics_on: None }),
        ];
        // costs 2:1 on two workers: structure 0 alone on worker 0
        let mut dispatcher = Dispatcher::new(protos, &[2.0, 1.0], 1, 4, 2);
        assert_eq!(dispatcher.workers[0].units, [(0, 0)]);
        assert_eq!(dispatcher.workers[1].units, [(1, 0)]);

        let before: Vec<Update> = (0..8).map(|i| Update::new(i % 5, 1)).collect();
        // an index nothing else writes, so the window keeps the delta whole
        let marked = [Update::new(7, MARKED)];
        let after: Vec<Update> = (0..6).map(|i| Update::new(i % 3, -2)).collect();
        dispatcher.ingest(&before);
        dispatcher.ingest(&marked);
        match dispatcher.snapshot() {
            Err(ServiceError::Engine(EngineError::WorkerPanicked { shard: 0 })) => {}
            Err(e) => panic!("expected worker 0 to be reported panicked, got {e}"),
            Ok(_) => panic!("a publish after a worker panic must fail"),
        }

        dispatcher.ingest(&after);
        let states = dispatcher.snapshot().expect("the respawned worker serves the next publish");
        let applied = |s: usize| {
            states[s][0].downcast_ref::<Vec<(u64, i64)>>().expect("recorder state").clone()
        };
        let first = coalesce_updates(&[&before[..], &marked].concat());
        let second = coalesce_updates(&after);
        assert_eq!(applied(1), [&first[..], &second].concat(), "the surviving worker saw both");
        assert_eq!(applied(0), second, "the respawned worker starts empty");
    }

    /// Records each chunk it applies, after waiting in `apply` until its
    /// gate channel sends or closes.
    #[derive(Clone)]
    struct Gated {
        chunks: Vec<Vec<(u64, i64)>>,
        gate: Arc<Mutex<Receiver<()>>>,
    }

    impl Unit for Gated {
        fn apply(&mut self, entries: &[(u64, i64)]) {
            let _ = self.gate.lock().expect("gate lock").recv();
            self.chunks.push(entries.to_vec());
        }

        fn clone_state(&self) -> Box<dyn Any + Send> {
            Box::new(self.chunks.clone())
        }

        fn boxed_clone(&self) -> Box<dyn Unit> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn staging_never_waits_on_a_blocked_worker() {
        let (release, gate) = channel::<()>();
        let proto = Gated { chunks: Vec::new(), gate: Arc::new(Mutex::new(gate)) };
        let mut dispatcher = Dispatcher::new(vec![Box::new(proto)], &[1.0], 1, 4, 1);
        // each piece sums to 7 coordinates, so each fold seals a window:
        // one for the worker to block on, then one more than its channel
        // holds, the last of which would park if staging sent it
        let updates: Vec<Update> = (0..(WORKER_BACKLOG + 2) * DEFAULT_BATCH_SIZE)
            .map(|i| Update::new(i as u64 % 7, 1 + i as i64 % 3))
            .collect();
        dispatcher.ingest(&updates[..DEFAULT_BATCH_SIZE]);
        dispatcher.fan_out();
        assert_eq!(dispatcher.sent, 1, "the first piece sealed a window");
        let (done, staged) = channel();
        let staging = {
            let updates = updates[DEFAULT_BATCH_SIZE..].to_vec();
            std::thread::spawn(move || {
                dispatcher.ingest(&updates);
                let _ = done.send(dispatcher);
            })
        };
        let staged = staged.recv_timeout(Duration::from_secs(5));
        // open the gate for good, whether or not staging returned
        drop(release);
        let mut dispatcher = staged.expect("staging returned while the worker was blocked");
        staging.join().expect("staging thread");

        assert_eq!(dispatcher.staging.len(), (WORKER_BACKLOG + 1) * DEFAULT_BATCH_SIZE);
        assert!(dispatcher.window.entries.is_empty(), "staging folds nothing");
        dispatcher.fan_out();
        assert!(dispatcher.staging.is_empty());
        let states = dispatcher.snapshot().expect("the released worker answers");
        let chunks = states[0][0].downcast_ref::<Vec<Vec<(u64, i64)>>>().expect("gated state");
        let sealed: Vec<Vec<(u64, i64)>> =
            updates.chunks(DEFAULT_BATCH_SIZE).map(coalesce_updates).collect();
        assert_eq!(*chunks, sealed, "every coordinate, coalesced once, in seal order");
    }

    #[test]
    fn a_sealed_window_reaches_the_workers_in_chunks() {
        // a closed gate never blocks
        let gate = Arc::new(Mutex::new(channel::<()>().1));
        let proto = Gated { chunks: Vec::new(), gate };
        let mut dispatcher = Dispatcher::new(vec![Box::new(proto)], &[1.0], 1, 1 << 20, 1);
        let updates: Vec<Update> = (0..2500).map(|i| Update::new(i, 1)).collect();
        dispatcher.ingest(&updates);
        dispatcher.fan_out();
        assert_eq!(dispatcher.window.entries.len(), 2 * DEFAULT_BATCH_SIZE, "two pieces folded");
        let states = dispatcher.snapshot().expect("the worker answers");
        let chunks = states[0][0].downcast_ref::<Vec<Vec<(u64, i64)>>>().expect("gated state");
        let lengths: Vec<usize> = chunks.iter().map(Vec::len).collect();
        assert_eq!(
            lengths,
            [DEFAULT_BATCH_SIZE, DEFAULT_BATCH_SIZE, 2500 - 2 * DEFAULT_BATCH_SIZE]
        );
        assert_eq!(chunks.concat(), coalesce_updates(&updates), "one window, in order");
    }

    const DIM: u64 = 1 << 14;
    const SEED: u64 = 0xAC4;

    /// Every catalog structure's digest after sequential ingestion of
    /// `updates`, in [`crate::CATALOG_STRUCTURES`] order.
    fn sequential_digests(updates: &[Update]) -> [u64; 7] {
        fn digest<T: ServeQuery>(mut structure: T, updates: &[Update]) -> u64 {
            structure.ingest_batch(updates);
            structure.state_digest()
        }
        let p = CatalogPrototypes::standard(DIM, SEED);
        [
            digest(p.sparse_recovery, updates),
            digest(p.l0_sampler, updates),
            digest(p.fis_l0, updates),
            digest(p.count_sketch, updates),
            digest(p.count_min, updates),
            digest(p.count_median, updates),
            digest(p.ams, updates),
        ]
    }

    /// Ask `core` for every structure's digest and compare it to `expected`.
    fn assert_digests(core: &mut ServiceCore, expected: [u64; 7]) {
        for ((name, structure), digest) in crate::CATALOG_STRUCTURES.into_iter().zip(expected) {
            match core.apply(Frame::Query(Query::Digest { structure })) {
                Ok(Frame::Reply(Reply::Digest { digest: served })) => {
                    assert_eq!(served, digest, "{name} diverged from sequential ingestion")
                }
                other => panic!("{name}: expected a digest, got {other:?}"),
            }
        }
    }

    /// Send `updates` to tenant 0 in frames of `frame` updates.
    fn ingest(core: &mut ServiceCore, updates: &[Update], frame: usize) {
        for updates in updates.chunks(frame) {
            let ack = core.apply(Frame::UpdateBatch { tenant: 0, updates: updates.to_vec() });
            assert!(matches!(ack, Ok(Frame::Reply(Reply::Ack { .. }))), "{ack:?}");
        }
    }

    #[test]
    fn a_digest_covers_acked_but_unsent_updates() {
        let mut core = ServiceCore::new(&ServiceConfig::new(DIM, SEED));
        let updates: Vec<Update> = (0..DEFAULT_BATCH_SIZE as u64)
            .map(|i| Update::new(i * 37 % DIM, if i % 3 == 0 { -1 } else { 2 }))
            .collect();
        match core.accept(Frame::UpdateBatch { tenant: 0, updates: updates.clone() }) {
            Ok(Frame::Reply(Reply::Ack { accepted })) => {
                assert_eq!(accepted, DEFAULT_BATCH_SIZE as u64)
            }
            other => panic!("expected an ack, got {other:?}"),
        }
        assert!(core.needs_fan_out(), "a full piece waits for the fan-out after its ack");
        assert_eq!(core.dispatcher.staging, updates, "the ack sorted nothing");
        assert!(core.dispatcher.window.entries.is_empty(), "the ack folded nothing");

        assert_digests(&mut core, sequential_digests(&updates));
        assert!(core.dispatcher.staging.is_empty(), "the digest's publish folded every update");
        assert!(core.dispatcher.window.entries.is_empty(), "and sent the window");
    }

    #[test]
    fn a_window_spanning_many_frames_is_applied_in_chunks_like_sequential_ingestion() {
        let mut core = ServiceCore::new(&ServiceConfig::new(DIM, SEED));
        // 3000 insertions at distinct coordinates, then 3000 updates that
        // alternately cancel one of them exactly and insert a new one
        let insert = |k: u64| Update::new(k * 7919 % DIM, 1 + (k % 3) as i64);
        let updates: Vec<Update> = (0..3000)
            .map(insert)
            .chain((0..3000).map(|k| {
                let u = insert(k);
                if k % 2 == 0 {
                    Update::new(u.index, -u.delta)
                } else {
                    insert(3000 + k)
                }
            }))
            .collect();
        ingest(&mut core, &updates, 250);
        let window = core.dispatcher.window.entries.len();
        assert!(window > DEFAULT_BATCH_SIZE, "a window of {window} coordinates spans chunks");
        assert!(core.dispatcher.staging.len() < DEFAULT_BATCH_SIZE, "every full piece folded");
        assert_eq!(core.dispatcher.sent, 0, "the window stays open below its 4096 coordinates");

        assert_digests(&mut core, sequential_digests(&updates));
        assert_eq!(core.dispatcher.sent, 1, "the first digest sent one window");
    }

    #[test]
    fn a_window_whose_updates_all_cancel_sends_nothing_and_keeps_the_rotation() {
        let mut core = ServiceCore::new(&ServiceConfig::new(DIM, SEED).shards(2));
        let inserts: Vec<Update> =
            (0..1500u64).map(|k| Update::new(k * 7919 % DIM, 1 + (k % 3) as i64)).collect();
        let deletes: Vec<Update> =
            inserts.iter().rev().map(|u| Update::new(u.index, -u.delta)).collect();
        let cancelling = [inserts.clone(), deletes].concat();
        ingest(&mut core, &cancelling, 300);
        assert_digests(&mut core, sequential_digests(&cancelling));
        assert_eq!(core.dispatcher.sent, 0, "the publish sent no empty window");

        // the next window is the first sent, so replica 0 takes it
        ingest(&mut core, &inserts, 300);
        assert_digests(&mut core, sequential_digests(&[cancelling, inserts].concat()));
        assert_eq!(core.dispatcher.sent, 1);
    }
}
