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
//! The core feeds the catalog through lps-engine's one worker pool
//! (`lps_engine::WorkerPool`, whose docs describe the staging buffer, the
//! coalesced window and its sealed `Arc` chunks) over the seven structures,
//! on `min(available_parallelism, 7 × shards)` workers placed by
//! `CATALOG_COST_NS`. [`ServiceConfig::batch_size`] is where the window
//! seals. What the core adds is its policy:
//!
//! * **Stage on accept.** Accepting a frame (`ServiceCore::accept`) only
//!   stages its tenant-0 updates: it sorts nothing and never waits on a
//!   worker.
//! * **Fold after the ack.** The fan-out (`ServiceCore::fan_out`) folds every
//!   full staged piece into the window; the server runs it after writing
//!   the ack, [`ServiceCore::apply`] right after the accept.
//! * **Publish.** Every [`ServiceConfig::publish_interval`] accepted
//!   updates, and for `Digest`, `CheckpointUpload` and `Shutdown`, the pool
//!   seals everything staged and each worker answers a snapshot request,
//!   queued behind its chunks, with clones of its units. Per structure the
//!   replica clones and the absorbed shard uploads merge, and the snapshot
//!   `Arc` swaps; each publish refreshes all seven snapshots.
//! * **Respawn.** A worker that panics loses **all** of its units: the
//!   publish that finds it returns `Engine(WorkerPanicked)`, and the worker
//!   is respawned with zero-state clones of its units.
//!
//! Nothing is serialized and no worker restarts on a publish: the catalog
//! structures are exact linear sketches, so the published digest equals
//! sequential ingestion of everything the service has accepted, however it
//! arrived (streamed batches, shard uploads, or both) and wherever the
//! window and chunk boundaries fell. Bytes are only for crossing a process
//! boundary: uploads and [`merge_checkpointed`].

use std::any::Any;
use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::sync::{Arc, Mutex};

use lps_engine::{merge_checkpointed, read_envelope, PoolUnit, Tolerance, WorkerPool};
use lps_registry::{MemorySpill, RegistryConfig, SketchRegistry};
use lps_sketch::persist::read_header;
use lps_sketch::{DecodeError, Mergeable};

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
    /// Replicas per catalog structure; the worker pool deals sealed
    /// windows to them in rotation. Read as at least 1.
    pub shards: usize,
    /// The distinct coordinates at which the catalog's open window seals
    /// and goes to the workers — the same meaning as
    /// `lps_engine::EngineBuilder::batch_size`. Staged updates fold into
    /// the window `min(batch_size, DEFAULT_BATCH_SIZE)` at a time, and
    /// every publish also seals it. Read as at least 1.
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
    /// second replica only doubles memory — windows that seal at 4096
    /// distinct coordinates, folded 1024 updates at a time, publish every
    /// 25 000 accepted updates, 1024 resident tenants).
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

    /// Set the distinct coordinates at which the catalog's window seals
    /// (0 is taken as 1).
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
    /// Merge one publish's replica clones (from the worker pool's
    /// snapshot) and the absorbed uploads into the snapshot to serve.
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

/// Per-update cost of each catalog structure in ns, in
/// [`crate::CATALOG_STRUCTURES`] order: the traced
/// `sketch.*.ns_per_update` of perfbench's `ingest_churn` workload at
/// commit `8f6970b` (seed 1, 2-vCPU host). Only the ratios matter: they
/// place the units on the pool's workers.
const CATALOG_COST_NS: [f64; 7] = [113.0, 263.0, 777.0, 427.0, 68.0, 71.0, 389.0];

/// The single-threaded heart of the server: the catalog's worker pool and
/// merge services plus the multi-tenant registry, applied to frames in
/// arrival order by the connection threads, one at a time under one mutex.
/// Everything here is sans-io — the socket layer lives in
/// [`crate::server`].
pub struct ServiceCore {
    /// One per catalog structure, in [`crate::CATALOG_STRUCTURES`] order —
    /// the pool's structure indices.
    slots: Vec<Box<dyn Slot>>,
    /// Zero-state prototype of each structure, in the same order: what a
    /// dead worker's units are respawned from.
    protos: Vec<Box<dyn PoolUnit>>,
    pool: WorkerPool,
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
    /// its worker pool, and the tenant registry from `config`, with every
    /// structure's initial snapshot published (the zero state), so queries
    /// are answerable before the first update arrives. Panics on a
    /// dimension the catalog refuses (0, or above `2^61 − 1`).
    pub fn new(config: &ServiceConfig) -> Self {
        let protos = CatalogPrototypes::standard(config.dimension, config.seed);
        fn slot<T: ServeQuery>(proto: T) -> (Box<dyn Slot>, Box<dyn PoolUnit>) {
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
        let replicas = config.shards.max(1);
        let replicated = units.iter().map(|u| (0..replicas).map(|_| u.boxed_clone()).collect());
        let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let batch_size = config.batch_size.max(1);
        let pool = WorkerPool::new(replicated.collect(), &CATALOG_COST_NS, batch_size, workers);
        let registry = SketchRegistry::new(
            protos.tenant_proto,
            RegistryConfig::new().max_resident(config.max_resident.max(1)),
            MemorySpill::new(),
        );
        let mut core = ServiceCore {
            slots,
            protos: units,
            pool,
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

    /// Whether a full piece of tenant-0 updates is staged for
    /// [`fan_out`](Self::fan_out) to fold.
    pub(crate) fn needs_fan_out(&self) -> bool {
        self.pool.staged().len() >= self.pool.piece()
    }

    /// Fold every full staged piece of tenant-0 updates into the catalog's
    /// window, oldest first, one `coalesce_updates` and one merge each;
    /// a window that reaches [`ServiceConfig::batch_size`] coordinates is
    /// sent to the workers, which parks on a full worker channel.
    pub(crate) fn fan_out(&mut self) {
        self.pool.fan_out();
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
                self.pool.stage(&updates);
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
    /// shutdown. A dead worker fails the publish with `Engine(WorkerPanicked)`
    /// (lowest worker index) and is respawned with zero-state units.
    pub fn publish_all(&mut self) -> Result<(), ServiceError> {
        let states = match self.pool.snapshot() {
            Ok(states) => states,
            Err(e) => {
                self.pool.respawn_dead(&self.protos);
                return Err(e.into());
            }
        };
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
    use lps_stream::{Update, DEFAULT_BATCH_SIZE};

    use super::*;

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
        assert_eq!(core.pool.staged(), updates, "the ack sorted nothing");
        assert_eq!(core.pool.open_window(), 0, "the ack folded nothing");

        assert_digests(&mut core, sequential_digests(&updates));
        assert!(core.pool.staged().is_empty(), "the digest's publish folded every update");
        assert_eq!(core.pool.open_window(), 0, "and sent the window");
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
        let window = core.pool.open_window();
        assert!(window > DEFAULT_BATCH_SIZE, "a window of {window} coordinates spans chunks");
        assert!(core.pool.staged().len() < DEFAULT_BATCH_SIZE, "every full piece folded");
        assert_eq!(core.pool.sent(), 0, "the window stays open below its 4096 coordinates");

        assert_digests(&mut core, sequential_digests(&updates));
        assert_eq!(core.pool.sent(), 1, "the first digest sent one window");
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
        assert_eq!(core.pool.sent(), 0, "the publish sent no empty window");

        // the next window is the first sent, so replica 0 takes it
        ingest(&mut core, &inserts, 300);
        assert_digests(&mut core, sequential_digests(&[cancelling, inserts].concat()));
        assert_eq!(core.pool.sent(), 1);
    }
}
