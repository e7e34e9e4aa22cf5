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
//!   ([`ServiceConfig::publish_interval`] accepted updates) plus whatever
//!   is in flight inside the ingest sessions.
//! * **Digest queries** (structure or tenant) are applied under the core
//!   lock like writes, forcing a fresh publish first — so they are
//!   linearized with ingestion: a digest answered after the service
//!   accepted updates `1..k` covers exactly those updates. The CI loopback
//!   harness leans on this for its bit-identity assertions.
//!
//! ## Publishing without pausing ingestion
//!
//! A publish is an in-memory [`IngestSession::snapshot`]: each worker of
//! the live session answers a snapshot request, queued behind its batches,
//! with a clone of its shard; the clones merge under the session's plan,
//! then absorbed shard uploads merge in. Nothing is serialized and no
//! worker restarts — the catalog structures are linear sketches, so the
//! in-memory merge is already bit-exact and the published digest equals
//! sequential ingestion of everything the service has accepted, however
//! it arrived (streamed batches, shard uploads, or both). Bytes are only
//! for crossing a process boundary: uploads and [`merge_checkpointed`].

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::task::Poll;

use lps_engine::{
    merge_checkpointed, read_envelope, EngineBuilder, IngestSession, PlanStrategy, RoundRobin,
    Tolerance,
};
use lps_registry::{MemorySpill, RegistryConfig, SketchRegistry};
use lps_sketch::persist::read_header;
use lps_sketch::{DecodeError, Mergeable};
use lps_stream::Update;

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
    /// Worker shards per catalog structure's ingest session.
    pub shards: usize,
    /// Dispatch batch size of the ingest sessions.
    pub batch_size: usize,
    /// Accepted-update count between automatic snapshot publishes.
    pub publish_interval: u64,
    /// `max_resident` of the tenant registry.
    pub max_resident: usize,
    /// Authentication token connections must present in their `Hello`
    /// frame. `None` (the default) leaves the server open.
    pub auth_token: Option<String>,
}

impl ServiceConfig {
    /// A service over `[0, dimension)` seeded with `seed`; other knobs at
    /// their defaults (1 shard per structure — the seven structures already
    /// ingest in parallel, and a second replica only doubles memory and
    /// threads — 1024-update dispatch batches, publish every 25 000
    /// accepted updates, 1024 resident tenants).
    pub fn new(dimension: u64, seed: u64) -> Self {
        ServiceConfig {
            dimension,
            seed,
            shards: 1,
            batch_size: 1024,
            publish_interval: 25_000,
            max_resident: 1024,
            auth_token: None,
        }
    }

    /// Set the worker shard count per structure.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Set the ingest sessions' dispatch batch size.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
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

/// One catalog structure's merge service: a live ingest session, the merge
/// of completed shard-checkpoint uploads, and snapshot publication.
pub struct MergeService<T: ServeQuery> {
    proto: T,
    shards: usize,
    batch_size: usize,
    session: IngestSession<T, RoundRobin>,
    /// Merged state of every *completed* upload set.
    absorbed: Option<T>,
    /// Incomplete upload sets, keyed by their envelope shard count; a slot
    /// per shard index, filled as buffers arrive in any order.
    pending: HashMap<usize, Vec<Option<Vec<u8>>>>,
}

impl<T: ServeQuery> MergeService<T> {
    /// A merge service for `proto`'s structure with a round-robin live
    /// session of `shards` workers.
    pub fn new(proto: T, shards: usize, batch_size: usize) -> Self {
        let session = EngineBuilder::new(&proto).shards(shards).batch_size(batch_size).session();
        MergeService { proto, shards, batch_size, session, absorbed: None, pending: HashMap::new() }
    }

    /// Route a run of updates into the live session. Under backpressure
    /// the calling connection thread parks, holding the core lock, on the
    /// full channel of the worker its next batch goes to: blocking here is
    /// the intended backpressure point, and parking leaves the cores to the
    /// workers it waits on.
    pub fn ingest(&mut self, updates: &[Update]) {
        self.session.ingest_blocking(updates);
    }

    /// Accept one shard's enveloped checkpoint buffer. The envelope is
    /// validated against this service's plan *before* anything decodes: a
    /// key-range or approximate-tolerance checkpoint is rejected with
    /// `DecodeError::PlanMismatch` (which the server answers as a protocol
    /// `Error` frame — the connection survives). Once every shard of a set
    /// has arrived, the set is merged into the absorbed state and the next
    /// publish folds it into the snapshot. A buffer for a shard index that
    /// is already pending is refused with `DecodeError::Corrupt`; the one
    /// that arrived first stays in the set.
    pub fn upload(&mut self, buffer: Vec<u8>) -> Result<(), ServiceError> {
        let (envelope, payload) = read_envelope(&buffer)?;
        if envelope.strategy != PlanStrategy::RoundRobin {
            return Err(DecodeError::PlanMismatch {
                expected: PlanStrategy::RoundRobin.name(),
                found: envelope.strategy.name(),
            }
            .into());
        }
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
        let count = envelope.shard_count as usize;
        if count == 0 || envelope.shard as usize >= count {
            return Err(DecodeError::Corrupt {
                context: "envelope shard index outside its shard count",
            }
            .into());
        }
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

    /// Publish the current merged state: an in-memory
    /// [`IngestSession::snapshot`] of the live session (which keeps
    /// ingesting on the same workers) ⊕ the absorbed uploads. Bit-exact for
    /// the catalog structures.
    ///
    /// If the snapshot fails (a worker panicked), the panicked shard's
    /// state is lost: a **fresh** live session replaces the dead one so
    /// the service keeps serving, and the error propagates to the caller.
    pub fn publish(&mut self) -> Result<T, ServiceError> {
        let mut snapshot = match self.session.snapshot() {
            Ok(snapshot) => snapshot,
            Err(e) => {
                let fresh = EngineBuilder::new(&self.proto)
                    .shards(self.shards)
                    .batch_size(self.batch_size)
                    .session();
                // join the broken session's workers; its error is `e` again
                let _ = std::mem::replace(&mut self.session, fresh).seal();
                return Err(e.into());
            }
        };
        if let Some(absorbed) = &self.absorbed {
            snapshot.merge_from(absorbed);
        }
        Ok(snapshot)
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
/// it contends with ingestion only for the moment a publish swaps an `Arc`
/// in.
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
    fn ingest(&mut self, updates: &[Update]);
    fn upload(&mut self, buffer: Vec<u8>) -> Result<(), ServiceError>;
    /// Publish and return the fresh snapshot as a query object.
    fn publish(&mut self) -> Result<Arc<dyn SnapshotQuery>, ServiceError>;
    /// The prototype's zero state, for the initial snapshot.
    fn empty_snapshot(&self) -> Arc<dyn SnapshotQuery>;
}

impl<T: ServeQuery> Slot for MergeService<T> {
    fn tag(&self) -> u16 {
        T::TAG
    }

    fn name(&self) -> &'static str {
        T::NAME
    }

    fn ingest(&mut self, updates: &[Update]) {
        MergeService::ingest(self, updates);
    }

    fn upload(&mut self, buffer: Vec<u8>) -> Result<(), ServiceError> {
        MergeService::upload(self, buffer)
    }

    fn publish(&mut self) -> Result<Arc<dyn SnapshotQuery>, ServiceError> {
        Ok(Arc::new(MergeService::publish(self)?))
    }

    fn empty_snapshot(&self) -> Arc<dyn SnapshotQuery> {
        Arc::new(self.proto.clone())
    }
}

/// The single-threaded heart of the server: the catalog's merge services
/// plus the multi-tenant registry, applied to frames in arrival order by
/// the connection threads, one at a time under one mutex. Everything here
/// is sans-io — the socket layer lives in [`crate::server`].
pub struct ServiceCore {
    slots: Vec<Box<dyn Slot>>,
    registry: SketchRegistry<lps_sketch::CountMinSketch, MemorySpill>,
    snapshots: Arc<SnapshotStore>,
    /// Every structure's coordinate space is `[0, dimension)`.
    dimension: u64,
    accepted: u64,
    since_publish: u64,
    publish_interval: u64,
}

impl ServiceCore {
    /// Build the standard catalog (see [`CatalogPrototypes::standard`])
    /// and the tenant registry from `config`, with every structure's
    /// initial snapshot published (the zero state), so queries are
    /// answerable before the first update arrives. Panics on a dimension
    /// the catalog refuses (0, or above `2^61 − 1`).
    pub fn new(config: &ServiceConfig) -> Self {
        let protos = CatalogPrototypes::standard(config.dimension, config.seed);
        let (shards, batch) = (config.shards, config.batch_size);
        fn slot<T: ServeQuery>(proto: T, shards: usize, batch: usize) -> Box<dyn Slot> {
            Box::new(MergeService::new(proto, shards, batch))
        }
        let slots: Vec<Box<dyn Slot>> = vec![
            slot(protos.sparse_recovery, shards, batch),
            slot(protos.l0_sampler, shards, batch),
            slot(protos.fis_l0, shards, batch),
            slot(protos.count_sketch, shards, batch),
            slot(protos.count_min, shards, batch),
            slot(protos.count_median, shards, batch),
            slot(protos.ams, shards, batch),
        ];
        let registry = SketchRegistry::new(
            protos.tenant_proto,
            RegistryConfig::new().max_resident(config.max_resident),
            MemorySpill::new(),
        );
        let snapshots = Arc::new(SnapshotStore::default());
        {
            let mut map = snapshots.map.lock().expect("snapshot map lock");
            for s in &slots {
                map.insert(s.tag(), s.empty_snapshot());
            }
        }
        ServiceCore {
            slots,
            registry,
            snapshots,
            dimension: config.dimension,
            accepted: 0,
            since_publish: 0,
            publish_interval: config.publish_interval.max(1),
        }
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
    /// back. Only ingest-ordered frames route here (update batches,
    /// checkpoint uploads, digest queries, shutdown's final ack) — the
    /// server answers live queries from the [`SnapshotHandle`] without
    /// entering this method.
    pub fn apply(&mut self, frame: Frame) -> Result<Frame, ServiceError> {
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
                for slot in &mut self.slots {
                    slot.ingest(&updates);
                }
                self.accepted += updates.len() as u64;
                self.since_publish += updates.len() as u64;
                if self.since_publish >= self.publish_interval {
                    self.publish_all()?;
                }
                Ok(Frame::Reply(Reply::Ack { accepted: self.accepted }))
            }
            Frame::UpdateBatch { tenant, updates } => {
                loop {
                    match self.registry.route(tenant, &updates)? {
                        Poll::Ready(_) => break,
                        Poll::Pending => {
                            self.registry.drain()?;
                        }
                    }
                }
                self.accepted += updates.len() as u64;
                Ok(Frame::Reply(Reply::Ack { accepted: self.accepted }))
            }
            Frame::CheckpointUpload { buffer } => {
                let (_, payload) = read_envelope(&buffer)?;
                let tag = read_header(payload)?.tag;
                let slot = self
                    .slots
                    .iter_mut()
                    .find(|s| s.tag() == tag)
                    .ok_or(ServiceError::UnknownStructure { tag })?;
                slot.upload(buffer)?;
                // Fold the (possibly completed) upload set into the
                // published snapshot right away, so live queries see it.
                let snapshot = slot.publish()?;
                self.snapshots.map.lock().expect("snapshot map lock").insert(tag, snapshot);
                Ok(Frame::Reply(Reply::Ack { accepted: self.accepted }))
            }
            Frame::Query(Query::Digest { structure }) => {
                let slot = self
                    .slots
                    .iter_mut()
                    .find(|s| s.tag() == structure)
                    .ok_or(ServiceError::UnknownStructure { tag: structure })?;
                let snapshot = slot.publish()?;
                let reply = snapshot.serve(&Query::Digest { structure })?;
                self.snapshots.map.lock().expect("snapshot map lock").insert(structure, snapshot);
                Ok(Frame::Reply(reply))
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

    /// Publish every catalog structure's snapshot (called on the publish
    /// interval and before shutdown).
    pub fn publish_all(&mut self) -> Result<(), ServiceError> {
        for slot in &mut self.slots {
            let tag = slot.tag();
            let snapshot = slot.publish()?;
            self.snapshots.map.lock().expect("snapshot map lock").insert(tag, snapshot);
        }
        self.since_publish = 0;
        Ok(())
    }

    /// Name of the catalog structure with `tag`, if hosted.
    pub fn structure_name(&self, tag: u16) -> Option<&'static str> {
        self.slots.iter().find(|s| s.tag() == tag).map(|s| s.name())
    }
}
