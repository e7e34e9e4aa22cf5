//! The three workloads, the seeded request sources they are built from,
//! and the correctness gate that checks the service against sequential
//! ingestion of the same generated streams.

use std::collections::BTreeMap;

use lps_engine::ShardIngest;
use lps_hash::SeedSequence;
use lps_service::{CatalogPrototypes, Query, Reply, ServiceError, CATALOG_STRUCTURES};
use lps_sketch::persist::tags;
use lps_sketch::{CountMinSketch, Mergeable};
use lps_stream::Update;
use lps_workload::generators::ZipfGen;
use lps_workload::{build_generator, GeneratorSpec, UpdateGenerator};

/// Coordinate-space dimension of every catalog structure.
pub const DIMENSION: u64 = 1 << 16;
/// Master seed of the service catalog. It is part of the system under
/// test, not of the input: the workload seed only shapes the requests.
pub const CATALOG_SEED: u64 = 0xC0FE;
/// Zipf exponent of tenant popularity on `tenant_fleet`.
const TENANT_ALPHA: f64 = 1.0;
/// Registry tenants whose id is `1 (mod TENANT_SAMPLE)` are checked
/// against standalone count-min sketches by the correctness gate.
const TENANT_SAMPLE: u64 = 64;

/// What the read stream of a workload asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMix {
    /// Live snapshot queries: `Sample` (l0_sampler, fis_l0),
    /// `PointEstimate` (count_sketch, count_min, count_median) and
    /// `Duplicates` (sparse_recovery), equally weighted.
    Live,
    /// `TenantDigest` of a registry tenant drawn by tenant popularity.
    TenantDigest,
}

/// One workload: its update stream, where writes land, what reads ask, and
/// the fixed open-loop rates.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    generator: GeneratorSpec,
    /// Updates per `UpdateBatch` request.
    pub batch: usize,
    /// Registry tenants written, ids `1..=tenants` drawn by Zipf
    /// popularity; 0 sends every write to the shared catalog (tenant 0).
    pub tenants: u64,
    pub reads: ReadMix,
    /// Closed-loop write batches per second the service sustained over
    /// both connections at the commit that introduced the benchmark, on
    /// a 2-core host; it sizes the closed-loop phase.
    pub capacity_rps: f64,
    /// Open-loop write requests per second.
    pub write_rps: f64,
    /// Open-loop read requests per second, on the second connection.
    pub read_rps: f64,
    /// Write and read requests in the traced pass's request sequence.
    pub trace_writes: usize,
    pub trace_reads: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "ingest_churn",
        generator: GeneratorSpec::Turnstile { strict: true },
        batch: 1024,
        tenants: 0,
        reads: ReadMix::Live,
        capacity_rps: 270.0,
        write_rps: 40.0,
        read_rps: 160.0,
        trace_writes: 240,
        trace_reads: 240,
    },
    Workload {
        name: "query_mix",
        generator: GeneratorSpec::Zipf { alpha: 1.1 },
        batch: 16,
        tenants: 0,
        reads: ReadMix::Live,
        capacity_rps: 13_000.0,
        write_rps: 400.0,
        read_rps: 1600.0,
        trace_writes: 2000,
        trace_reads: 8000,
    },
    Workload {
        name: "tenant_fleet",
        generator: GeneratorSpec::Uniform,
        batch: 64,
        tenants: 16_384,
        reads: ReadMix::TenantDigest,
        capacity_rps: 23_000.0,
        write_rps: 1000.0,
        read_rps: 100.0,
        trace_writes: 12_000,
        trace_reads: 1_200,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Request-stream ids: each thread of each phase draws from its own
/// stream, so the gate can regenerate exactly what was sent.
pub const STREAM_CLOSED: u64 = 0;
pub const STREAM_OPEN: u64 = 16;
pub const STREAM_TRACE: u64 = 32;

fn stream_seed(seed: u64, stream: u64) -> u64 {
    seed ^ (stream + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn tenant_popularity(w: &Workload, seed: u64) -> Option<ZipfGen> {
    (w.tenants > 0).then(|| ZipfGen::new(w.tenants, TENANT_ALPHA, seed ^ 0x7E4A_4E75))
}

/// A seeded, endless sequence of `(tenant, batch)` write requests.
pub struct WriteSource {
    updates: Box<dyn UpdateGenerator>,
    tenants: Option<ZipfGen>,
    batch: usize,
}

impl WriteSource {
    pub fn new(w: &Workload, seed: u64, stream: u64) -> Self {
        let seed = stream_seed(seed, stream);
        WriteSource {
            updates: build_generator(&w.generator, DIMENSION, seed),
            tenants: tenant_popularity(w, seed),
            batch: w.batch,
        }
    }

    pub fn next_request(&mut self) -> (u64, Vec<Update>) {
        let mut batch = vec![Update { index: 0, delta: 0 }; self.batch];
        self.updates.fill(&mut batch);
        let tenant = self.tenants.as_mut().map_or(0, |z| 1 + z.next_update().index);
        (tenant, batch)
    }
}

/// A seeded, endless sequence of read queries.
pub struct ReadSource {
    rng: SeedSequence,
    tenants: Option<ZipfGen>,
}

impl ReadSource {
    pub fn new(w: &Workload, seed: u64, stream: u64) -> Self {
        let seed = stream_seed(seed, stream) ^ 0x5EAD;
        let tenants = match w.reads {
            ReadMix::Live => None,
            ReadMix::TenantDigest => tenant_popularity(w, seed),
        };
        ReadSource { rng: SeedSequence::new(seed), tenants }
    }

    pub fn next_query(&mut self) -> Query {
        if let Some(z) = &mut self.tenants {
            return Query::TenantDigest { tenant: 1 + z.next_update().index };
        }
        live_query(&mut self.rng)
    }
}

/// One equally weighted live query.
pub fn live_query(rng: &mut SeedSequence) -> Query {
    match rng.next_below(6) {
        0 => Query::Sample { structure: tags::L0_SAMPLER },
        1 => Query::Sample { structure: tags::FIS_L0_SAMPLER },
        2 => {
            Query::PointEstimate { structure: tags::COUNT_SKETCH, index: rng.next_below(DIMENSION) }
        }
        3 => Query::PointEstimate { structure: tags::COUNT_MIN, index: rng.next_below(DIMENSION) },
        4 => {
            Query::PointEstimate { structure: tags::COUNT_MEDIAN, index: rng.next_below(DIMENSION) }
        }
        _ => Query::Duplicates { structure: tags::SPARSE_RECOVERY },
    }
}

/// True for the typed "recovery saturated" answer of a sparse-recovery
/// duplicates query: a measured read, not a failure. It arrives as a
/// remote `Unsupported` error over the socket and as a local one
/// in-process.
pub fn is_saturated(e: &ServiceError) -> bool {
    match e {
        ServiceError::Remote { code: lps_service::ErrorCode::Unsupported, detail } => {
            detail.contains("recovery saturated")
        }
        ServiceError::Unsupported { query, .. } => query.contains("recovery saturated"),
        _ => false,
    }
}

/// Sequential reference state: the catalog prototypes fed every tenant-0
/// batch on one thread, and standalone count-min sketches for a sample of
/// registry tenants.
pub struct Reference {
    catalog: CatalogPrototypes,
    tenants: BTreeMap<u64, CountMinSketch>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            catalog: CatalogPrototypes::standard(DIMENSION, CATALOG_SEED),
            tenants: BTreeMap::new(),
        }
    }
}

impl Reference {
    pub fn absorb(&mut self, tenant: u64, updates: &[Update]) {
        let c = &mut self.catalog;
        if tenant == 0 {
            c.sparse_recovery.ingest_batch(updates);
            c.l0_sampler.ingest_batch(updates);
            c.fis_l0.ingest_batch(updates);
            c.count_sketch.ingest_batch(updates);
            c.count_min.ingest_batch(updates);
            c.count_median.ingest_batch(updates);
            c.ams.ingest_batch(updates);
        } else if tenant % TENANT_SAMPLE == 1 {
            let proto = &c.tenant_proto;
            self.tenants.entry(tenant).or_insert_with(|| proto.clone()).ingest_batch(updates);
        }
    }

    /// Absorb the first `batches` requests of each write stream in
    /// `streams` (`(stream, batches)` pairs). Each structure replays the
    /// streams on a thread of its own, in stream order.
    pub fn replay(&mut self, w: &Workload, seed: u64, streams: &[(u64, u64)]) {
        let requests = || {
            streams.iter().flat_map(move |&(stream, batches)| {
                let mut source = WriteSource::new(w, seed, stream);
                (0..batches).map(move |_| source.next_request())
            })
        };
        fn catalog<T: ShardIngest>(s: &mut T, requests: impl Iterator<Item = (u64, Vec<Update>)>) {
            for (_, updates) in requests.filter(|r| r.0 == 0) {
                s.ingest_batch(&updates);
            }
        }
        let (c, tenants) = (&mut self.catalog, &mut self.tenants);
        std::thread::scope(|s| {
            if w.tenants == 0 {
                s.spawn(|| catalog(&mut c.sparse_recovery, requests()));
                s.spawn(|| catalog(&mut c.l0_sampler, requests()));
                s.spawn(|| catalog(&mut c.fis_l0, requests()));
                s.spawn(|| catalog(&mut c.count_sketch, requests()));
                s.spawn(|| catalog(&mut c.count_min, requests()));
                s.spawn(|| catalog(&mut c.count_median, requests()));
                s.spawn(|| catalog(&mut c.ams, requests()));
            } else {
                s.spawn(|| {
                    for (tenant, updates) in requests().filter(|r| r.0 % TENANT_SAMPLE == 1) {
                        let proto = &c.tenant_proto;
                        tenants
                            .entry(tenant)
                            .or_insert_with(|| proto.clone())
                            .ingest_batch(&updates);
                    }
                });
            }
        });
    }

    fn catalog_digests(&self) -> [u64; 7] {
        let c = &self.catalog;
        [
            c.sparse_recovery.state_digest(),
            c.l0_sampler.state_digest(),
            c.fis_l0.state_digest(),
            c.count_sketch.state_digest(),
            c.count_min.state_digest(),
            c.count_median.state_digest(),
            c.ams.state_digest(),
        ]
    }

    /// The correctness gate: the digest of every catalog structure and of
    /// every sampled tenant, as `query` answers them, must equal this
    /// reference. `doctor` flips one bit of one reference digest, which
    /// must make the gate fail. Returns the number of digests compared.
    pub fn verify(
        &self,
        query: &mut dyn FnMut(Query) -> Result<Reply, ServiceError>,
        doctor: bool,
    ) -> Result<usize, String> {
        let wanted = self.catalog_digests();
        for (i, ((name, tag), want)) in CATALOG_STRUCTURES.iter().zip(wanted).enumerate() {
            let want = if doctor && i == 0 { want ^ 1 } else { want };
            match query(Query::Digest { structure: *tag }) {
                Ok(Reply::Digest { digest }) if digest == want => {}
                Ok(reply) => {
                    return Err(format!(
                        "{name}: service answered {reply:?}, reference {want:#018x}"
                    ))
                }
                Err(e) => return Err(format!("{name}: digest query failed: {e}")),
            }
        }
        for (&tenant, sketch) in &self.tenants {
            let want = Some(sketch.state_digest());
            match query(Query::TenantDigest { tenant }) {
                Ok(Reply::TenantDigest { digest }) if digest == want => {}
                Ok(reply) => {
                    return Err(format!(
                        "tenant {tenant}: service answered {reply:?}, reference {want:?}"
                    ))
                }
                Err(e) => return Err(format!("tenant {tenant}: digest query failed: {e}")),
            }
        }
        Ok(CATALOG_STRUCTURES.len() + self.tenants.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lps_service::{Frame, ServiceConfig, ServiceCore};

    fn core_query(core: &mut ServiceCore) -> impl FnMut(Query) -> Result<Reply, ServiceError> + '_ {
        move |q| match core.apply(Frame::Query(q))? {
            Frame::Reply(reply) => Ok(reply),
            other => panic!("unexpected frame {other:?}"),
        }
    }

    #[test]
    fn sources_repeat_for_a_seed_and_differ_across_seeds() {
        for w in &WORKLOADS {
            let a: Vec<_> = (0..4).map(|_| WriteSource::new(w, 1, 0).next_request()).collect();
            let b: Vec<_> = (0..4).map(|_| WriteSource::new(w, 1, 0).next_request()).collect();
            let c = WriteSource::new(w, 2, 0).next_request();
            assert_eq!(a, b, "{}", w.name);
            assert_ne!(a[0], c, "{}", w.name);
        }
    }

    #[test]
    fn gate_passes_on_the_service_and_fails_on_a_doctored_reference() {
        for w in &WORKLOADS {
            let mut core = ServiceCore::new(&ServiceConfig::new(DIMENSION, CATALOG_SEED));
            let mut reference = Reference::default();
            let mut source = WriteSource::new(w, 3, STREAM_OPEN);
            for _ in 0..40 {
                let (tenant, updates) = source.next_request();
                core.apply(Frame::UpdateBatch { tenant, updates: updates.clone() }).unwrap();
                reference.absorb(tenant, &updates);
            }
            assert!(reference.verify(&mut core_query(&mut core), false).is_ok(), "{}", w.name);
            assert!(reference.verify(&mut core_query(&mut core), true).is_err(), "{}", w.name);
        }
    }
}
