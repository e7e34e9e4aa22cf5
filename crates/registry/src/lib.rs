//! # lps-registry
//!
//! A multi-tenant sketch registry: millions of keyed sketches behind one
//! engine. Keyed workloads — per-user duplicate detection, per-flow L0
//! sampling, per-key Lp statistics over the turnstile streams of
//! Jowhari–Sağlam–Tardos (PODS 2011) — need one sketch *per key*, and the
//! keys are Zipf-distributed: a handful of tenants are hot, the long tail
//! sees a few updates each. The registry makes that cheap along three axes:
//!
//! * **Shared seeds.** Every tenant is cloned from one prototype, so all
//!   tenants share hash-seed state and any two tenants (and any
//!   evicted-then-restored tenant) stay mutually mergeable.
//! * **Lazy tenants.** A tenant starts as a sorted sparse update log
//!   ([`LazySketch`]) costing tens of bytes and only materializes the full
//!   structure when its log crosses a density threshold — so the Zipf tail
//!   never pays for tables it would leave near-empty.
//! * **Bounded residency.** At most `max_resident` tenants live in memory
//!   (intrusive LRU over a slab); colder tenants serialize into
//!   tenant-tagged envelopes ([`envelope`]) bound for a [`SpillBackend`]
//!   — in-memory or an append-only file whose index survives process
//!   restarts — and restore transparently on the next touch.
//!
//! The ingest surface is sans-io: [`SketchRegistry::route`] reports
//! `Pending` when the eviction outbox is over its backlog, and
//! [`SketchRegistry::drain`] flushes it;
//! [`SketchRegistry::route_blocking`] does both.
//!
//! The durability boundary is crash-safe and fault-tolerant: [`FileSpill`]
//! appends checksummed commit records and recovers every committed record
//! across a crash (truncating a torn tail, see [`spill`]); [`drain`]
//! retries transient backend failures under a bounded
//! [`RetryPolicy`] and quarantines permanently
//! failing tenants instead of wedging the fleet; and the [`fault`] module
//! provides seeded, deterministic fault injection ([`FaultySpill`]) to
//! prove all of it under test.
//!
//! [`drain`]: SketchRegistry::drain

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod envelope;
pub mod fault;
pub mod lazy;
pub mod registry;
pub mod spill;

pub use envelope::{
    decode_tenant_segment, encode_tenant_segment, read_tenant_segment, TENANT_HEADER_LEN,
    TENANT_MAGIC, TENANT_VERSION,
};
pub use fault::{FaultPlan, FaultStats, FaultySpill};
pub use lazy::LazySketch;
pub use registry::{RegistryConfig, RegistryError, RegistryStats, RetryPolicy, SketchRegistry};
pub use spill::{
    record_checksum, FileSpill, MemorySpill, SpillBackend, SpillStats, RECORD_HEADER_LEN,
    RECORD_MAGIC,
};
