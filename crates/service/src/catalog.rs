//! The service catalog: which structures a server hosts, how they are
//! seeded, and how each answers queries.
//!
//! A server and its clients must agree on every random function, or
//! checkpoint uploads would be rejected as `SeedMismatch` and reference
//! digests would be meaningless. [`CatalogPrototypes::standard`] pins that
//! agreement the same way the cross-process checkpoint harness does: all
//! prototypes are drawn, in a fixed order, from one `SeedSequence`, so any
//! two parties constructing the catalog from the same `(dimension, seed)`
//! pair hold bit-identical structures.
//!
//! [`ServeQuery`] is what a catalog structure adds on top of the engine's
//! `ShardIngest` + `Persist`: query answering. (The coalesced windows the
//! catalog's worker pool sends arrive through `ShardIngest::apply_coalesced`,
//! which each catalog structure forwards to its inherent fast path.)
//! Samplers answer
//! [`Query::Sample`], counter sketches answer [`Query::PointEstimate`],
//! sparse recovery answers [`Query::Duplicates`], and everything answers
//! [`Query::Digest`] (the default implementation). Unsupported kinds come
//! back as typed [`ServiceError::Unsupported`] — never a panic, never a
//! silent wrong answer.

use lps_core::{FisL0Sampler, L0Sampler, LpSampler, Mergeable};
use lps_engine::ShardIngest;
use lps_hash::{SeedSequence, MERSENNE_P};
use lps_sketch::persist::tags;
use lps_sketch::{
    AmsSketch, CountMedianSketch, CountMinSketch, CountSketch, Persist, RecoveryOutput,
    SparseRecovery,
};

use crate::proto::{Query, Reply};
use crate::ServiceError;

/// The `(name, Persist tag)` of every structure a standard catalog hosts:
/// the seven exact-arithmetic `ShardIngest` implementors, whose merges are
/// bit-identical to sequential ingestion — the property the loopback CI
/// digest comparison rests on.
pub const CATALOG_STRUCTURES: [(&str, u16); 7] = [
    ("sparse_recovery", tags::SPARSE_RECOVERY),
    ("l0_sampler", tags::L0_SAMPLER),
    ("fis_l0", tags::FIS_L0_SAMPLER),
    ("count_sketch", tags::COUNT_SKETCH),
    ("count_min", tags::COUNT_MIN),
    ("count_median", tags::COUNT_MEDIAN),
    ("ams", tags::AMS),
];

/// How a catalog structure answers service queries.
///
/// The default [`ServeQuery::serve`] answers [`Query::Digest`] via
/// `Mergeable::state_digest` and rejects everything else as
/// [`ServiceError::Unsupported`]; implementors override it to add the
/// kinds their estimator supports.
pub trait ServeQuery: ShardIngest + Persist + Send + Sync + 'static {
    /// Catalog name, used in error details and logs.
    const NAME: &'static str;

    /// Answer `query` from this structure's current state.
    fn serve(&self, query: &Query) -> Result<Reply, ServiceError> {
        match query {
            Query::Digest { .. } => Ok(Reply::Digest { digest: self.state_digest() }),
            other => Err(unsupported(Self::NAME, other)),
        }
    }
}

/// The typed rejection for a query kind a structure does not answer.
fn unsupported(structure: &'static str, query: &Query) -> ServiceError {
    ServiceError::Unsupported {
        structure,
        query: match query {
            Query::Sample { .. } => "sample",
            Query::PointEstimate { .. } => "point-estimate",
            Query::Duplicates { .. } => "duplicates",
            Query::Digest { .. } => "digest",
            Query::TenantDigest { .. } => "tenant-digest",
        },
    }
}

impl ServeQuery for SparseRecovery {
    const NAME: &'static str = "sparse_recovery";

    fn serve(&self, query: &Query) -> Result<Reply, ServiceError> {
        match query {
            Query::Duplicates { .. } => match self.recover() {
                RecoveryOutput::Recovered(entries) => Ok(Reply::Duplicates {
                    entries: entries.into_iter().filter(|&(_, count)| count >= 2).collect(),
                }),
                RecoveryOutput::Dense => Err(ServiceError::Unsupported {
                    structure: Self::NAME,
                    query: "duplicates (recovery saturated: more non-zeros than capacity)",
                }),
            },
            Query::Digest { .. } => Ok(Reply::Digest { digest: self.state_digest() }),
            other => Err(unsupported(Self::NAME, other)),
        }
    }
}

impl ServeQuery for L0Sampler {
    const NAME: &'static str = "l0_sampler";

    fn serve(&self, query: &Query) -> Result<Reply, ServiceError> {
        match query {
            Query::Sample { .. } => {
                Ok(Reply::Sample { sample: LpSampler::sample(self).map(|s| (s.index, s.estimate)) })
            }
            Query::Digest { .. } => Ok(Reply::Digest { digest: self.state_digest() }),
            other => Err(unsupported(Self::NAME, other)),
        }
    }
}

impl ServeQuery for FisL0Sampler {
    const NAME: &'static str = "fis_l0";

    fn serve(&self, query: &Query) -> Result<Reply, ServiceError> {
        match query {
            Query::Sample { .. } => {
                Ok(Reply::Sample { sample: LpSampler::sample(self).map(|s| (s.index, s.estimate)) })
            }
            Query::Digest { .. } => Ok(Reply::Digest { digest: self.state_digest() }),
            other => Err(unsupported(Self::NAME, other)),
        }
    }
}

impl ServeQuery for CountSketch {
    const NAME: &'static str = "count_sketch";

    fn serve(&self, query: &Query) -> Result<Reply, ServiceError> {
        match query {
            Query::PointEstimate { index, .. } => {
                Ok(Reply::Estimate { value: self.estimate(*index) })
            }
            Query::Digest { .. } => Ok(Reply::Digest { digest: self.state_digest() }),
            other => Err(unsupported(Self::NAME, other)),
        }
    }
}

impl ServeQuery for CountMinSketch {
    const NAME: &'static str = "count_min";

    fn serve(&self, query: &Query) -> Result<Reply, ServiceError> {
        match query {
            Query::PointEstimate { index, .. } => {
                Ok(Reply::Estimate { value: self.estimate(*index) as f64 })
            }
            Query::Digest { .. } => Ok(Reply::Digest { digest: self.state_digest() }),
            other => Err(unsupported(Self::NAME, other)),
        }
    }
}

impl ServeQuery for CountMedianSketch {
    const NAME: &'static str = "count_median";

    fn serve(&self, query: &Query) -> Result<Reply, ServiceError> {
        match query {
            Query::PointEstimate { index, .. } => {
                Ok(Reply::Estimate { value: self.estimate(*index) })
            }
            Query::Digest { .. } => Ok(Reply::Digest { digest: self.state_digest() }),
            other => Err(unsupported(Self::NAME, other)),
        }
    }
}

impl ServeQuery for AmsSketch {
    const NAME: &'static str = "ams";
}

/// The identically-seeded structures a standard service hosts, plus the
/// per-tenant registry prototype. Both the server and any client that
/// wants to upload seed-compatible checkpoints (or recompute reference
/// digests) build this from the same `(dimension, seed)` pair.
#[derive(Debug, Clone)]
pub struct CatalogPrototypes {
    /// Exact s-sparse recovery (answers duplicates queries).
    pub sparse_recovery: SparseRecovery,
    /// The paper's zero-error L0 sampler (answers sample queries).
    pub l0_sampler: L0Sampler,
    /// The FIS-style L0 sampler baseline (answers sample queries).
    pub fis_l0: FisL0Sampler,
    /// Count-sketch (answers point-estimate queries).
    pub count_sketch: CountSketch,
    /// Count-min (answers point-estimate queries).
    pub count_min: CountMinSketch,
    /// Count-median (answers point-estimate queries).
    pub count_median: CountMedianSketch,
    /// AMS F2 sketch (digest only).
    pub ams: AmsSketch,
    /// Prototype every registry tenant is cloned from.
    pub tenant_proto: CountMinSketch,
}

impl CatalogPrototypes {
    /// Build the standard catalog over `[0, dimension)` from one master
    /// seed. Draw order is fixed; two calls with equal arguments produce
    /// bit-identical prototypes in every field.
    ///
    /// # Panics
    /// If `dimension` is 0 or above the Mersenne prime `2^61 − 1`: the hash
    /// kernels take every coordinate as a canonical field element, so a
    /// coordinate below `dimension` must be below the prime.
    pub fn standard(dimension: u64, seed: u64) -> Self {
        assert!(
            (1..=MERSENNE_P).contains(&dimension),
            "catalog dimension must lie in [1, 2^61 - 1], got {dimension}"
        );
        let n = dimension;
        let mut seeds = SeedSequence::new(seed);
        CatalogPrototypes {
            sparse_recovery: SparseRecovery::new(n, 8, &mut seeds),
            l0_sampler: L0Sampler::new(n, 0.25, &mut seeds),
            fis_l0: FisL0Sampler::new(n, &mut seeds),
            count_sketch: CountSketch::with_default_rows(n, 16, &mut seeds),
            count_min: CountMinSketch::new(n, 256, 7, &mut seeds),
            count_median: CountMedianSketch::new(n, 256, 7, &mut seeds),
            ams: AmsSketch::with_default_shape(n, &mut seeds),
            tenant_proto: CountMinSketch::new(n, 128, 5, &mut seeds),
        }
    }
}
