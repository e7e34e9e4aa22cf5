//! The multi-tenant sketch registry: millions of keyed sketches behind one
//! ingest surface.
//!
//! A [`SketchRegistry`] owns a fleet of per-tenant [`LazySketch`] states
//! cloned from one prototype, so every tenant shares the prototype's hash
//! seeds — which is what keeps any two tenants of a registry mergeable and
//! keeps a tenant mergeable across eviction and restore. Residency is
//! bounded: at most `max_resident` tenants live in memory, ordered by an
//! intrusive LRU list over slab slots; colder tenants are serialized into
//! tenant-tagged envelopes and pushed to a [`SpillBackend`], then restored
//! transparently the next time they are touched.
//!
//! Ingestion is sans-io: [`route`] performs no I/O and returns
//! [`Poll::Pending`] when the eviction outbox has grown past the
//! configured backlog, and [`drain`] flushes the outbox to the backend.
//! Callers that don't care use [`route_blocking`].
//!
//! [`route`]: SketchRegistry::route
//! [`drain`]: SketchRegistry::drain
//! [`route_blocking`]: SketchRegistry::route_blocking

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io;
use std::sync::Arc;
use std::task::Poll;

use lps_engine::ShardIngest;
use lps_sketch::{DecodeError, Mergeable, Persist, WireWriter};
use lps_stream::Update;

use crate::envelope::{decode_tenant_segment, encode_tenant_segment};
use crate::lazy::LazySketch;
use crate::spill::SpillBackend;

/// How [`SketchRegistry::drain`] responds to spill-backend failures.
///
/// The [`SpillBackend`] error contract divides failures into **transient**
/// kinds (`Interrupted`, `WouldBlock`, `TimedOut`, `WriteZero` — the same
/// `put` may be retried verbatim) and **permanent** kinds (everything
/// else). `drain` retries a transient failure up to `max_attempts` times;
/// a permanent failure, or a transient one that exhausts the budget, is
/// escalated (quarantine or a returned error respectively) — in neither
/// case is the segment lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per segment per [`SketchRegistry::drain`] call
    /// (first try included). Must be at least 1.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 3 }
    }
}

impl RetryPolicy {
    /// Whether the [`SpillBackend`] error contract classifies `error` as
    /// retryable.
    pub fn is_transient(error: &io::Error) -> bool {
        matches!(
            error.kind(),
            io::ErrorKind::Interrupted
                | io::ErrorKind::WouldBlock
                | io::ErrorKind::TimedOut
                | io::ErrorKind::WriteZero
        )
    }
}

/// Tuning knobs for a [`SketchRegistry`], built fluently in the
/// [`EngineBuilder`](lps_engine::EngineBuilder) style:
///
/// ```
/// use lps_registry::{RegistryConfig, RetryPolicy};
///
/// let config = RegistryConfig::new()
///     .max_resident(4096)
///     .materialize_threshold(128)
///     .spill_backlog(256)
///     .retry(RetryPolicy { max_attempts: 5 });
/// assert_eq!(config.max_resident, 4096);
/// ```
///
/// The struct is `#[non_exhaustive]`: fields stay readable, but
/// construction outside this crate goes through [`RegistryConfig::new`] /
/// [`RegistryConfig::default`] plus the setters — bare struct literals (the
/// pre-0.3 idiom) no longer compile, so the config surface is one idiom
/// across engine and registry.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RegistryConfig {
    /// Maximum number of tenants resident in memory before LRU eviction.
    pub max_resident: usize,
    /// Sparse-log length above which a tenant materializes its structure.
    pub materialize_threshold: usize,
    /// Outbox depth at which [`SketchRegistry::route`] reports `Pending`
    /// instead of accepting more work.
    pub spill_backlog: usize,
    /// Retry budget and classification for spill failures during
    /// [`SketchRegistry::drain`].
    pub retry: RetryPolicy,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        Self {
            max_resident: 1024,
            materialize_threshold: 64,
            spill_backlog: 64,
            retry: RetryPolicy::default(),
        }
    }
}

impl RegistryConfig {
    /// Start from the default configuration (1024 resident tenants,
    /// materialize at 64 logged updates, 64-segment outbox backlog, 3
    /// retry attempts).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the maximum number of tenants resident in memory before LRU
    /// eviction. Must be at least 1 (validated by `SketchRegistry::new`).
    pub fn max_resident(mut self, max_resident: usize) -> Self {
        self.max_resident = max_resident;
        self
    }

    /// Set the sparse-log length above which a tenant materializes its
    /// full structure.
    pub fn materialize_threshold(mut self, threshold: usize) -> Self {
        self.materialize_threshold = threshold;
        self
    }

    /// Set the outbox depth at which [`SketchRegistry::route`] reports
    /// `Pending` instead of accepting more work.
    pub fn spill_backlog(mut self, backlog: usize) -> Self {
        self.spill_backlog = backlog;
        self
    }

    /// Set the retry budget for spill failures during
    /// [`SketchRegistry::drain`].
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

/// Counters describing a registry's lifetime activity.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RegistryStats {
    /// Tenants serialized and pushed toward the spill backend.
    pub evictions: u64,
    /// Tenants decoded back into residency (from outbox or backend).
    pub restores: u64,
    /// Sparse logs that crossed the density threshold and replayed into a
    /// full structure.
    pub materializations: u64,
    /// Updates accepted through [`SketchRegistry::route`].
    pub routed_updates: u64,
    /// Transient spill-put failures retried during [`SketchRegistry::drain`].
    pub transient_put_retries: u64,
    /// Transient spill-get failures retried during restore or query.
    pub transient_get_retries: u64,
    /// Tenants moved to the quarantine set after a permanent spill failure.
    pub quarantined: u64,
}

/// Errors a registry operation can surface.
#[derive(Debug)]
pub enum RegistryError {
    /// The spill backend failed (transient failures already retried up to
    /// the [`RetryPolicy`] budget).
    Io(std::io::Error),
    /// A spilled segment failed to decode.
    Decode(DecodeError),
    /// The tenant's segment failed its spill permanently and the tenant
    /// was moved to the quarantine set. Its last-known state is held there
    /// (see [`SketchRegistry::take_quarantined`] /
    /// [`SketchRegistry::release_quarantined`]); every other tenant keeps
    /// routing and answering queries.
    Quarantined {
        /// The quarantined tenant id.
        tenant: u64,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Io(e) => write!(f, "spill backend error: {e}"),
            RegistryError::Decode(e) => write!(f, "spilled segment rejected: {e}"),
            RegistryError::Quarantined { tenant } => {
                write!(f, "tenant {tenant} is quarantined after a permanent spill failure")
            }
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::Io(e) => Some(e),
            RegistryError::Decode(e) => Some(e),
            RegistryError::Quarantined { .. } => None,
        }
    }
}

impl From<std::io::Error> for RegistryError {
    fn from(e: std::io::Error) -> Self {
        RegistryError::Io(e)
    }
}

impl From<DecodeError> for RegistryError {
    fn from(e: DecodeError) -> Self {
        RegistryError::Decode(e)
    }
}

/// Sentinel for "no slot" in the intrusive LRU links.
const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Slot<T> {
    tenant: u64,
    state: LazySketch<T>,
    prev: usize,
    next: usize,
}

/// A bounded-residency fleet of per-tenant sketches sharing one prototype.
///
/// See the [module docs](self) for the residency model. The type parameter
/// `T` is any engine-ingestible, persistable sketch ([`ShardIngest`] +
/// [`Persist`]); `B` is the cold-storage policy.
pub struct SketchRegistry<T, B> {
    proto: T,
    config: RegistryConfig,
    /// Seed section of `proto`'s encoding, shared by every sparse tenant so
    /// sparse and dense encodings carry identical merge witnesses.
    seed_bytes: Arc<Vec<u8>>,
    /// Encoded size of the prototype, for the resident-memory estimate.
    proto_encoded_len: usize,
    slots: Vec<Option<Slot<T>>>,
    free: Vec<usize>,
    resident: HashMap<u64, usize>,
    /// Most-recently-used slot (head) … least-recently-used (tail).
    head: usize,
    tail: usize,
    /// Eviction order of outbox tenants, oldest first. May hold stale ids
    /// for tenants already restored or quarantined; [`drain`] skips any id
    /// with no `outbox` entry.
    ///
    /// [`drain`]: SketchRegistry::drain
    outbox_order: VecDeque<u64>,
    /// Evicted segments not yet flushed to the backend, indexed by tenant
    /// so [`query`]/[`digest`]/restore stay O(1) under a deep backlog.
    ///
    /// [`query`]: SketchRegistry::query
    /// [`digest`]: SketchRegistry::digest
    outbox: HashMap<u64, Vec<u8>>,
    /// Tenants whose segments failed their spill permanently, with the
    /// segment (their last-known state — never dropped) and the error.
    quarantine: HashMap<u64, (Vec<u8>, io::Error)>,
    spill: B,
    stats: RegistryStats,
}

impl<T: ShardIngest + Persist, B: SpillBackend> SketchRegistry<T, B> {
    /// Build a registry whose tenants are clones of `proto`.
    pub fn new(proto: T, config: RegistryConfig, spill: B) -> Self {
        assert!(config.max_resident >= 1, "registry needs at least one resident slot");
        let mut seed_bytes = Vec::new();
        proto.encode_seeds(&mut WireWriter::new(&mut seed_bytes));
        let proto_encoded_len = proto.encode_to_vec().len();
        Self {
            proto,
            config,
            seed_bytes: Arc::new(seed_bytes),
            proto_encoded_len,
            slots: Vec::new(),
            free: Vec::new(),
            resident: HashMap::new(),
            head: NIL,
            tail: NIL,
            outbox_order: VecDeque::new(),
            outbox: HashMap::new(),
            quarantine: HashMap::new(),
            spill,
            stats: RegistryStats::default(),
        }
    }

    /// The prototype every tenant is cloned from.
    pub fn prototype(&self) -> &T {
        &self.proto
    }

    /// Lifetime activity counters.
    pub fn stats(&self) -> &RegistryStats {
        &self.stats
    }

    /// Number of tenants currently resident in memory.
    pub fn resident_count(&self) -> usize {
        self.resident.len()
    }

    /// Number of tenants held by the spill backend.
    pub fn spilled_count(&self) -> usize {
        self.spill.spilled()
    }

    /// The spill backend, e.g. to read [`FileSpill`](crate::FileSpill) or
    /// [`FaultySpill`](crate::FaultySpill) statistics.
    pub fn spill(&self) -> &B {
        &self.spill
    }

    /// Mutable access to the spill backend. Intended for fault-injection
    /// harnesses (healing a simulated partition, reconfiguring a
    /// [`FaultySpill`](crate::FaultySpill)); mutating live tenant segments
    /// underneath the registry voids the digest-identity guarantee.
    pub fn spill_mut(&mut self) -> &mut B {
        &mut self.spill
    }

    /// Evicted segments awaiting a [`drain`](Self::drain).
    pub fn outbox_len(&self) -> usize {
        self.outbox.len()
    }

    /// Rough bytes held by resident tenant state: dense tenants are costed
    /// at the prototype's encoded size, sparse tenants at their log bytes.
    /// An estimate (allocator overhead and table capacity are not modeled),
    /// but it moves monotonically with real residency, which is what the
    /// bounded-memory benchmarks track.
    pub fn resident_bytes_estimate(&self) -> usize {
        self.resident
            .values()
            .map(|&slot| match &self.slots[slot].as_ref().expect("resident slot").state {
                LazySketch::Sparse { log, .. } => log.len() * 16,
                LazySketch::Dense(_) => self.proto_encoded_len,
            })
            .sum()
    }

    // ---- intrusive LRU plumbing -------------------------------------------

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = {
            let s = self.slots[slot].as_ref().expect("linked slot");
            (s.prev, s.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.slots[p].as_mut().expect("prev slot").next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].as_mut().expect("next slot").prev = prev,
        }
    }

    fn push_front(&mut self, slot: usize) {
        {
            let s = self.slots[slot].as_mut().expect("slot to link");
            s.prev = NIL;
            s.next = self.head;
        }
        match self.head {
            NIL => self.tail = slot,
            h => self.slots[h].as_mut().expect("old head").prev = slot,
        }
        self.head = slot;
    }

    fn insert_resident(&mut self, tenant: u64, state: LazySketch<T>) -> usize {
        let slot = match self.free.pop() {
            Some(free) => {
                self.slots[free] = Some(Slot { tenant, state, prev: NIL, next: NIL });
                free
            }
            None => {
                self.slots.push(Some(Slot { tenant, state, prev: NIL, next: NIL }));
                self.slots.len() - 1
            }
        };
        self.resident.insert(tenant, slot);
        self.push_front(slot);
        slot
    }

    /// Evict the LRU tail into the outbox. Must not be called while the
    /// registry is empty.
    fn evict_tail(&mut self) {
        let slot = self.tail;
        debug_assert_ne!(slot, NIL, "evict on an empty registry");
        self.unlink(slot);
        let Slot { tenant, state, .. } = self.slots[slot].take().expect("tail slot");
        self.free.push(slot);
        self.resident.remove(&tenant);
        let segment = encode_tenant_segment(tenant, &state.encode_to_vec());
        self.outbox_order.push_back(tenant);
        self.outbox.insert(tenant, segment);
        self.stats.evictions += 1;
    }

    /// Decode a spilled segment back into tenant state, verifying the
    /// stamped tenant id and that the seed section matches this registry's
    /// prototype (a segment from a differently-seeded registry is rejected
    /// with [`DecodeError::SeedMismatch`], not silently merged).
    fn decode_segment(&self, tenant: u64, segment: &[u8]) -> Result<LazySketch<T>, RegistryError> {
        let (stamped, payload) = decode_tenant_segment(segment)?;
        if stamped != tenant {
            return Err(RegistryError::Decode(DecodeError::Corrupt {
                context: "segment stamped with a different tenant id",
            }));
        }
        if lps_sketch::seed_section(payload)? != self.seed_bytes.as_slice() {
            return Err(RegistryError::Decode(DecodeError::SeedMismatch { shard: 0 }));
        }
        let mut state = LazySketch::<T>::decode_state(payload)?;
        // re-link restored sparse tenants to the shared seed bytes so a
        // restore does not duplicate the seed section per tenant
        if let LazySketch::Sparse { seeds, .. } = &mut state {
            *seeds = Arc::clone(&self.seed_bytes);
        }
        Ok(state)
    }

    /// [`SpillBackend::get`] under the retry budget: transient failures are
    /// retried up to `retry.max_attempts` total attempts.
    fn spill_get(&mut self, tenant: u64) -> Result<Option<Vec<u8>>, RegistryError> {
        let mut attempt = 1;
        loop {
            match self.spill.get(tenant) {
                Ok(segment) => return Ok(segment),
                Err(e)
                    if RetryPolicy::is_transient(&e)
                        && attempt < self.config.retry.max_attempts =>
                {
                    attempt += 1;
                    self.stats.transient_get_retries += 1;
                }
                Err(e) => return Err(RegistryError::Io(e)),
            }
        }
    }

    /// Bring `tenant` into residency (restoring or creating as needed) and
    /// return its slot index, evicting LRU tenants beyond the cap.
    fn touch(&mut self, tenant: u64) -> Result<usize, RegistryError> {
        if self.quarantine.contains_key(&tenant) {
            return Err(RegistryError::Quarantined { tenant });
        }
        if let Some(&slot) = self.resident.get(&tenant) {
            self.unlink(slot);
            self.push_front(slot);
            return Ok(slot);
        }
        // not resident: the newest state is in the outbox if it was evicted
        // but not yet drained, else in the backend, else it is a new tenant
        // (the stale id left in `outbox_order` is skipped by `drain`)
        let state = if let Some(segment) = self.outbox.remove(&tenant) {
            self.stats.restores += 1;
            self.decode_segment(tenant, &segment)?
        } else if let Some(segment) = self.spill_get(tenant)? {
            let state = self.decode_segment(tenant, &segment)?;
            self.spill.remove(tenant);
            self.stats.restores += 1;
            state
        } else {
            LazySketch::sparse(Arc::clone(&self.seed_bytes))
        };
        let slot = self.insert_resident(tenant, state);
        // the just-touched tenant sits at the head, so it is never the tail
        // here unless it is the only resident (and then the loop does not run)
        while self.resident.len() > self.config.max_resident {
            self.evict_tail();
        }
        Ok(slot)
    }

    // ---- public surface ---------------------------------------------------

    /// Route a batch of updates to `tenant`, restoring or creating it as
    /// needed. Returns `Poll::Pending` (accepting nothing) when the eviction
    /// outbox is past the configured backlog — call [`drain`](Self::drain)
    /// and retry, or use [`route_blocking`](Self::route_blocking). On
    /// `Ready(n)`, `n` updates were absorbed.
    pub fn route(&mut self, tenant: u64, updates: &[Update]) -> Result<Poll<usize>, RegistryError> {
        if self.outbox.len() > self.config.spill_backlog {
            return Ok(Poll::Pending);
        }
        let slot = self.touch(tenant)?;
        let threshold = self.config.materialize_threshold;
        let entry = self.slots[slot].as_mut().expect("touched slot");
        if entry.state.apply(&self.proto, updates, threshold) {
            self.stats.materializations += 1;
        }
        self.stats.routed_updates += updates.len() as u64;
        Ok(Poll::Ready(updates.len()))
    }

    /// Flush every outbox segment to the spill backend; returns how many
    /// segments were flushed.
    ///
    /// Failure handling follows the [`RetryPolicy`]: a transient `put`
    /// failure is retried in place up to the attempt budget (counted in
    /// [`RegistryStats::transient_put_retries`]); if the budget is
    /// exhausted, `drain` returns the error **with the segment still
    /// queued** — a later `drain` picks it back up, and no outbox segment
    /// is ever lost to an error. A permanent failure moves the tenant and
    /// its segment into the quarantine set (counted in
    /// [`RegistryStats::quarantined`]) and draining continues with the
    /// next tenant, so one bad segment cannot wedge the rest of the fleet.
    pub fn drain(&mut self) -> Result<usize, RegistryError> {
        let mut flushed = 0;
        while let Some(&tenant) = self.outbox_order.front() {
            // stale id: the tenant was restored (or quarantined) since it
            // was queued — nothing left to flush for it
            let Some(segment) = self.outbox.get(&tenant) else {
                self.outbox_order.pop_front();
                continue;
            };
            let mut attempt = 1;
            loop {
                match self.spill.put(tenant, segment) {
                    Ok(()) => {
                        self.outbox_order.pop_front();
                        self.outbox.remove(&tenant);
                        flushed += 1;
                        break;
                    }
                    Err(e) if RetryPolicy::is_transient(&e) => {
                        if attempt >= self.config.retry.max_attempts {
                            // budget exhausted: leave the segment queued at
                            // the front and surface the error
                            return Err(RegistryError::Io(e));
                        }
                        attempt += 1;
                        self.stats.transient_put_retries += 1;
                    }
                    Err(e) => {
                        // permanent: quarantine the tenant with its
                        // last-known state and keep draining the others
                        self.outbox_order.pop_front();
                        let segment = self.outbox.remove(&tenant).expect("segment just seen");
                        self.quarantine.insert(tenant, (segment, e));
                        self.stats.quarantined += 1;
                        break;
                    }
                }
            }
        }
        Ok(flushed)
    }

    /// [`route`](Self::route), draining the outbox whenever it reports
    /// `Pending`.
    pub fn route_blocking(
        &mut self,
        tenant: u64,
        updates: &[Update],
    ) -> Result<usize, RegistryError> {
        loop {
            match self.route(tenant, updates)? {
                Poll::Ready(n) => return Ok(n),
                Poll::Pending => {
                    self.drain()?;
                }
            }
        }
    }

    /// Evaluate `f` against `tenant`'s materialized sketch view without
    /// changing residency: resident tenants are read in place, spilled ones
    /// are decoded into a scratch state. Returns `None` for a tenant the
    /// registry has never seen.
    pub fn query<R>(
        &mut self,
        tenant: u64,
        f: impl FnOnce(&T) -> R,
    ) -> Result<Option<R>, RegistryError> {
        if self.quarantine.contains_key(&tenant) {
            return Err(RegistryError::Quarantined { tenant });
        }
        if let Some(&slot) = self.resident.get(&tenant) {
            let entry = self.slots[slot].as_ref().expect("resident slot");
            return Ok(Some(entry.state.with_state(&self.proto, f)));
        }
        let segment = match self.outbox.get(&tenant) {
            Some(seg) => Some(seg.clone()),
            None => self.spill_get(tenant)?,
        };
        match segment {
            Some(segment) => {
                let state = self.decode_segment(tenant, &segment)?;
                Ok(Some(state.with_state(&self.proto, f)))
            }
            None => Ok(None),
        }
    }

    /// The representation-level state digest of `tenant`'s current state
    /// (resident or spilled), or `None` if never seen. Eviction and restore
    /// preserve this digest bit-for-bit.
    pub fn digest(&mut self, tenant: u64) -> Result<Option<u64>, RegistryError> {
        if self.quarantine.contains_key(&tenant) {
            return Err(RegistryError::Quarantined { tenant });
        }
        if let Some(&slot) = self.resident.get(&tenant) {
            let entry = self.slots[slot].as_ref().expect("resident slot");
            return Ok(Some(entry.state.state_digest()));
        }
        let segment = match self.outbox.get(&tenant) {
            Some(seg) => Some(seg.clone()),
            None => self.spill_get(tenant)?,
        };
        match segment {
            Some(segment) => Ok(Some(self.decode_segment(tenant, &segment)?.state_digest())),
            None => Ok(None),
        }
    }

    // ---- quarantine surface -----------------------------------------------

    /// Number of tenants currently quarantined.
    pub fn quarantined_count(&self) -> usize {
        self.quarantine.len()
    }

    /// Whether `tenant` is quarantined.
    pub fn is_quarantined(&self, tenant: u64) -> bool {
        self.quarantine.contains_key(&tenant)
    }

    /// Iterate the quarantined tenants with the permanent error that put
    /// each one there (arbitrary order).
    pub fn quarantined_tenants(&self) -> impl Iterator<Item = (u64, &io::Error)> + '_ {
        self.quarantine.iter().map(|(&tenant, (_, error))| (tenant, error))
    }

    /// Remove `tenant` from quarantine, handing its last-known encoded
    /// segment and the error to the caller (e.g. to park it in a dead-letter
    /// store). The tenant becomes routable again as a fresh tenant.
    pub fn take_quarantined(&mut self, tenant: u64) -> Option<(Vec<u8>, io::Error)> {
        self.quarantine.remove(&tenant)
    }

    /// Remove `tenant` from quarantine and re-queue its segment into the
    /// outbox for another [`drain`](Self::drain) attempt (after the
    /// operator fixed the backend). Returns `false` if the tenant was not
    /// quarantined.
    pub fn release_quarantined(&mut self, tenant: u64) -> bool {
        match self.quarantine.remove(&tenant) {
            Some((segment, _)) => {
                self.outbox_order.push_back(tenant);
                self.outbox.insert(tenant, segment);
                true
            }
            None => false,
        }
    }

    /// Iterate the resident tenants from most to least recently used.
    pub fn resident_tenants(&self) -> impl Iterator<Item = u64> + '_ {
        std::iter::successors((self.head != NIL).then_some(self.head), move |&slot| {
            let next = self.slots[slot].as_ref().expect("linked slot").next;
            (next != NIL).then_some(next)
        })
        .map(|slot| self.slots[slot].as_ref().expect("linked slot").tenant)
    }
}

impl<T: fmt::Debug, B> fmt::Debug for SketchRegistry<T, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SketchRegistry")
            .field("resident", &self.resident.len())
            .field("outbox", &self.outbox.len())
            .field("quarantined", &self.quarantine.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}
