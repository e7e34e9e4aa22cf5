//! In-process loopback integration: a real TCP (and Unix-socket) server,
//! real clients, and the digest-identity contract end to end.
//!
//! The load pattern mirrors the CI two-process harness at a smaller scale:
//! streamed update batches, a concurrent tenant feeder on a second
//! connection, live queries mid-ingestion, a complete shard-checkpoint
//! upload set, one deliberately mismatched upload (a shard stamped with
//! the retired key-range strategy) that must come back as a typed
//! `PlanMismatch` error *without* killing the connection, and final digests compared against sequential local
//! references — bit-identical, because every catalog structure merges
//! exactly.

use std::net::TcpStream;
use std::sync::{Arc, Barrier};

use lps_engine::{EngineBuilder, ShardIngest};
use lps_service::proto::tags as frame_tags;
use lps_service::{
    CatalogPrototypes, ErrorCode, Frame, FrameCodec, Query, RunningServer, ServiceClient,
    ServiceConfig, ServiceError, CATALOG_STRUCTURES,
};
use lps_sketch::persist::tags;
use lps_sketch::Mergeable;
use lps_stream::Update;

const DIM: u64 = 1 << 12;
const SEED: u64 = 0x51DE_CA7A;

/// Deterministic splitmix-style workload; `salt` decorrelates streams.
fn workload(n: usize, salt: u64) -> Vec<Update> {
    (0..n as u64)
        .map(|i| {
            let mut x = i.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            x ^= x >> 30;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 27;
            x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^= x >> 31;
            let delta = ((x >> 33) % 5) as i64 - 2;
            Update { index: x % DIM, delta: if delta == 0 { 1 } else { delta } }
        })
        .collect()
}

fn config() -> ServiceConfig {
    ServiceConfig::new(DIM, SEED).shards(2).batch_size(256).publish_interval(4096)
}

/// Every shard count a service may run, publishing rarely (`config`) and
/// every other batch, lands on the sequential bits.
#[test]
fn tcp_loopback_matches_sequential_references() {
    for config in [
        config(),
        config().shards(1).publish_interval(1000),
        config().shards(3).publish_interval(1000),
    ] {
        tcp_loopback_round(config);
    }
}

fn tcp_loopback_round(config: ServiceConfig) {
    let shards = config.shards;
    let main = workload(8_000, 1);
    let side = workload(3_000, 2);
    let tenant_stream = workload(1_000, 3);

    let server = RunningServer::bind_tcp("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().expect("tcp server has an address");
    let mut client = ServiceClient::connect_tcp(addr).expect("connect");

    // A second connection feeds tenant 7 concurrently with the main stream:
    // live ingestion on one socket must not block another.
    let feeder = {
        let tenant_stream = tenant_stream.clone();
        std::thread::spawn(move || {
            let mut client = ServiceClient::connect_tcp(addr).expect("feeder connect");
            for batch in tenant_stream.chunks(250) {
                client.send_updates(7, batch).expect("tenant batch accepted");
            }
        })
    };

    // Stream the main load into the shared catalog (tenant 0), with live
    // queries interleaved mid-ingestion.
    let mut last_accepted = 0;
    for (i, batch) in main.chunks(500).enumerate() {
        let accepted = client.send_updates(0, batch).expect("batch accepted");
        assert!(accepted > last_accepted, "accepted count must be monotone");
        last_accepted = accepted;
        if i == 7 {
            // mid-stream live reads answer from the published snapshot
            // without pausing ingestion; values are checked against the
            // references once the stream completes
            client.sample(tags::L0_SAMPLER).expect("live sample");
            client.point_estimate(tags::COUNT_MIN, main[0].index).expect("live estimate");
            client.duplicates(tags::SPARSE_RECOVERY).ok();
        }
    }
    feeder.join().expect("feeder thread");

    // Shard-checkpoint upload: a 3-shard round-robin session over the
    // identically seeded count-min prototype, checkpointed and uploaded
    // shard by shard. The set completes on the third upload and merges
    // into the service's count-min state.
    let protos = CatalogPrototypes::standard(DIM, SEED);
    let mut session = EngineBuilder::new(&protos.count_min).shards(3).batch_size(128).session();
    session.ingest_blocking(&side);
    let buffers = session.checkpoint().expect("local checkpoint");
    assert_eq!(buffers.len(), 3);
    for buffer in buffers {
        client.upload_checkpoint(buffer).expect("upload accepted");
    }

    // A checkpoint of the retired key-range plan (a round-robin shard whose
    // envelope strategy byte, offset 6, reads 1) violates the service's
    // round-robin plan: the envelope is rejected as a typed PlanMismatch
    // error frame and the connection keeps working.
    let mut wrong = EngineBuilder::new(&protos.count_min).shards(2).batch_size(128).session();
    wrong.ingest_blocking(&side[..64]);
    let mut wrong_buffer = wrong.checkpoint().expect("local checkpoint").swap_remove(0);
    wrong_buffer[6] = 1;
    match client.upload_checkpoint(wrong_buffer) {
        Err(ServiceError::Remote { code: ErrorCode::PlanMismatch, detail }) => {
            assert!(detail.contains("round_robin"), "detail names the expected plan: {detail}");
        }
        other => panic!("key-range upload should be a PlanMismatch error, got {other:?}"),
    }
    // connection survived the rejection:
    client.digest(tags::AMS).expect("connection still serves after a rejected upload");

    // Unknown structure tags and unsupported query kinds are typed, too.
    match client.digest(0x00FF) {
        Err(ServiceError::Remote { code: ErrorCode::UnknownStructure, .. }) => {}
        other => panic!("expected UnknownStructure, got {other:?}"),
    }
    match client.point_estimate(tags::AMS, 3) {
        Err(ServiceError::Remote { code: ErrorCode::Unsupported, .. }) => {}
        other => panic!("expected Unsupported, got {other:?}"),
    }

    // Sequential references: every catalog structure ingests the main
    // stream; count-min additionally absorbs the uploaded side stream; the
    // tenant prototype ingests the tenant stream.
    let mut reference = CatalogPrototypes::standard(DIM, SEED);
    reference.sparse_recovery.ingest_batch(&main);
    reference.l0_sampler.ingest_batch(&main);
    reference.fis_l0.ingest_batch(&main);
    reference.count_sketch.ingest_batch(&main);
    reference.count_min.ingest_batch(&main);
    reference.count_min.ingest_batch(&side);
    reference.count_median.ingest_batch(&main);
    reference.ams.ingest_batch(&main);
    reference.tenant_proto.ingest_batch(&tenant_stream);

    let expected: Vec<(&str, u16, u64)> = vec![
        ("sparse_recovery", tags::SPARSE_RECOVERY, reference.sparse_recovery.state_digest()),
        ("l0_sampler", tags::L0_SAMPLER, reference.l0_sampler.state_digest()),
        ("fis_l0", tags::FIS_L0_SAMPLER, reference.fis_l0.state_digest()),
        ("count_sketch", tags::COUNT_SKETCH, reference.count_sketch.state_digest()),
        ("count_min", tags::COUNT_MIN, reference.count_min.state_digest()),
        ("count_median", tags::COUNT_MEDIAN, reference.count_median.state_digest()),
        ("ams", tags::AMS, reference.ams.state_digest()),
    ];
    assert_eq!(expected.len(), CATALOG_STRUCTURES.len());
    for (name, tag, digest) in expected {
        assert_eq!(
            client.digest(tag).expect("digest query"),
            digest,
            "{name}: service digest diverged from sequential ingestion at {shards} shards"
        );
    }

    // Tenant digests: exact for the fed tenant, absent for a stranger.
    assert_eq!(
        client.tenant_digest(7).expect("tenant digest"),
        Some(reference.tenant_proto.state_digest()),
        "tenant 7 digest diverged from its sequential reference"
    );
    assert_eq!(client.tenant_digest(99).expect("unknown tenant"), None);

    // Clean two-sided teardown: the client's shutdown ack carries the final
    // accepted count, and join() returns the same number.
    let total = (main.len() + tenant_stream.len()) as u64;
    assert_eq!(client.shutdown().expect("shutdown ack"), total);
    assert_eq!(server.join(), total);
}

/// `shards(0)` and `batch_size(0)` are taken as 1, like a zero publish
/// interval or resident cap — also when the pub fields themselves hold 0:
/// the server binds, acks a catalog batch and a tenant batch, and its
/// digests equal sequential ingestion.
#[test]
fn zero_shards_and_zero_batch_size_serve_as_one() {
    let mut config = ServiceConfig::new(DIM, SEED).shards(0).batch_size(0);
    config.max_resident = 0;
    let server = RunningServer::bind_tcp("127.0.0.1:0", config).expect("bind");
    let mut client =
        ServiceClient::connect_tcp(server.local_addr().expect("address")).expect("connect");
    let updates = workload(300, 8);
    assert_eq!(client.send_updates(0, &updates).expect("catalog batch"), updates.len() as u64);
    let tenant_updates = workload(200, 9);
    client.send_updates(5, &tenant_updates).expect("tenant batch");

    let mut reference = CatalogPrototypes::standard(DIM, SEED);
    reference.sparse_recovery.ingest_batch(&updates);
    reference.l0_sampler.ingest_batch(&updates);
    reference.fis_l0.ingest_batch(&updates);
    reference.count_sketch.ingest_batch(&updates);
    reference.count_min.ingest_batch(&updates);
    reference.count_median.ingest_batch(&updates);
    reference.ams.ingest_batch(&updates);
    let expected = [
        (tags::SPARSE_RECOVERY, reference.sparse_recovery.state_digest()),
        (tags::L0_SAMPLER, reference.l0_sampler.state_digest()),
        (tags::FIS_L0_SAMPLER, reference.fis_l0.state_digest()),
        (tags::COUNT_SKETCH, reference.count_sketch.state_digest()),
        (tags::COUNT_MIN, reference.count_min.state_digest()),
        (tags::COUNT_MEDIAN, reference.count_median.state_digest()),
        (tags::AMS, reference.ams.state_digest()),
    ];
    assert_eq!(expected.len(), CATALOG_STRUCTURES.len());
    for (tag, digest) in expected {
        assert_eq!(client.digest(tag).expect("digest"), digest, "structure {tag:#06x} diverged");
    }
    reference.tenant_proto.ingest_batch(&tenant_updates);
    assert_eq!(
        client.tenant_digest(5).expect("tenant digest"),
        Some(reference.tenant_proto.state_digest()),
        "tenant 5 diverged from its sequential count-min"
    );
    client.shutdown().expect("shutdown ack");
    server.join();
}

/// A batch holding any index outside `[0, DIM)` is refused whole, on the
/// catalog (tenant 0) and on the registry (any other tenant): a typed
/// `Proto` error, no catalog or tenant digest moves, the accepted count
/// stays put, and the same connection keeps taking valid batches.
#[test]
fn out_of_range_batches_are_refused_before_anything_is_applied() {
    let server = RunningServer::bind_tcp("127.0.0.1:0", config()).expect("bind");
    let addr = server.local_addr().expect("address");
    let mut client = ServiceClient::connect_tcp(addr).expect("connect");

    let main = workload(600, 5);
    client.send_updates(0, &main).expect("in-range catalog batch");
    let accepted = client.send_updates(7, &main[..100]).expect("in-range tenant batch");
    let catalog_digests = |client: &mut ServiceClient<TcpStream>| -> Vec<u64> {
        CATALOG_STRUCTURES.iter().map(|&(_, tag)| client.digest(tag).expect("digest")).collect()
    };
    let before = catalog_digests(&mut client);
    let tenant_before = client.tenant_digest(7).expect("tenant digest");
    assert!(tenant_before.is_some());

    for (tenant, index) in [(0, u64::MAX), (0, DIM), (7, u64::MAX), (7, DIM), (9, DIM)] {
        // in-range updates on both sides of the bad one must not land either
        let batch = [main[0], Update { index, delta: 3 }, main[1]];
        match client.send_updates(tenant, &batch) {
            Err(ServiceError::Remote { code: ErrorCode::Proto, detail }) => {
                assert!(detail.contains("dimension"), "detail names the violation: {detail}");
            }
            other => {
                panic!("tenant {tenant}, index {index}: expected a Proto error, got {other:?}")
            }
        }
    }

    assert_eq!(catalog_digests(&mut client), before, "a refused batch moved a catalog digest");
    assert_eq!(client.tenant_digest(7).expect("tenant digest"), tenant_before);
    assert_eq!(client.tenant_digest(9).expect("tenant digest"), None);
    let edge = [Update { index: DIM - 1, delta: 1 }, Update { index: 0, delta: -1 }];
    assert_eq!(
        client.send_updates(0, &edge).expect("valid batch after the refusals"),
        accepted + edge.len() as u64,
        "refused batches must not count as accepted"
    );
    client.shutdown().expect("shutdown ack");
    server.join();
}

/// A second buffer for a shard index that is already pending is refused
/// with a typed `Decode` error and leaves the pending set alone: shard 0 of
/// set B must not replace shard 0 of set A, so once A completes the
/// count-min digest is sequential ingestion of A's stream, and the
/// connection keeps serving.
#[test]
fn a_repeated_shard_upload_is_refused_and_keeps_the_first() {
    let server = RunningServer::bind_tcp("127.0.0.1:0", config()).expect("bind");
    let mut client =
        ServiceClient::connect_tcp(server.local_addr().expect("address")).expect("connect");

    let protos = CatalogPrototypes::standard(DIM, SEED);
    let checkpoint_set = |stream: &[Update]| {
        let mut session = EngineBuilder::new(&protos.count_min).shards(2).batch_size(128).session();
        session.ingest_blocking(stream);
        session.checkpoint().expect("local checkpoint")
    };
    let (a_stream, b_stream) = (workload(2_000, 6), workload(2_000, 7));
    let (a, b) = (checkpoint_set(&a_stream), checkpoint_set(&b_stream));

    client.upload_checkpoint(a[0].clone()).expect("A's shard 0 accepted");
    match client.upload_checkpoint(b[0].clone()) {
        Err(ServiceError::Remote { code: ErrorCode::Decode, detail }) => {
            assert!(detail.contains("already pending"), "detail names the violation: {detail}");
        }
        other => panic!("a repeated shard index should be a Decode error, got {other:?}"),
    }
    client.upload_checkpoint(a[1].clone()).expect("A's shard 1 accepted");

    let mut reference = protos.count_min.clone();
    reference.ingest_batch(&a_stream);
    assert_eq!(client.digest(tags::COUNT_MIN).expect("digest"), reference.state_digest());
    client.shutdown().expect("shutdown ack");
    server.join();
}

/// Once a client's `Shutdown` is acknowledged with count N, no other
/// connection's write is applied: it is refused with a typed `Internal`
/// error (or finds the connection closed), never acknowledged, and `join`
/// returns N.
#[test]
fn nothing_is_applied_after_a_shutdown_ack() {
    let server = RunningServer::bind_tcp("127.0.0.1:0", config()).expect("bind");
    let addr = server.local_addr().expect("address");
    let mut a = ServiceClient::connect_tcp(addr).expect("connect A");
    let mut b = ServiceClient::connect_tcp(addr).expect("connect B");

    let stream = workload(1_000, 11);
    a.send_updates(0, &stream[..600]).expect("A's batch");
    b.send_updates(5, &stream[600..]).expect("B's batch");
    let acked = a.shutdown().expect("shutdown ack");
    assert_eq!(acked, stream.len() as u64);

    match b.send_updates(0, &stream[..10]) {
        Err(ServiceError::Remote { code: ErrorCode::Internal, detail }) => {
            assert!(detail.contains("shutting down"), "detail names the refusal: {detail}");
        }
        Err(ServiceError::Closed | ServiceError::Io(_)) => {}
        other => panic!("a write after the shutdown ack must not be applied, got {other:?}"),
    }
    assert_eq!(server.join(), acked, "join must report the acknowledged count");
}

/// Six connections write at once, so every batch contends for the core
/// lock: tenant-0 batches, registry batches (each tenant fed by two
/// connections), and on one connection `Digest` queries in between. Each
/// apply adds to the accepted count under the lock, so acks rise on every
/// connection and never repeat across them; the structures are exact, so
/// any interleaving lands on the sequential digests.
#[test]
fn concurrent_writers_serialize_on_the_core_lock() {
    const WRITERS: u64 = 6;
    const BATCHES: usize = 12;
    let server = RunningServer::bind_tcp("127.0.0.1:0", config()).expect("bind");
    let addr = server.local_addr().expect("address");
    let tenant_of = |writer: u64| 1 + writer % 3;
    let streams: Vec<(Vec<Update>, Vec<Update>)> = (0..WRITERS)
        .map(|w| (workload(BATCHES * 100, 20 + w), workload(BATCHES * 25, 40 + w)))
        .collect();

    let start = Arc::new(Barrier::new(WRITERS as usize));
    let writers: Vec<_> = (0..WRITERS)
        .zip(streams.clone())
        .map(|(w, (catalog, tenant))| {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut client = ServiceClient::connect_tcp(addr).expect("writer connect");
                start.wait();
                let mut acks = Vec::new();
                for (i, (batch, tenant_batch)) in
                    catalog.chunks(100).zip(tenant.chunks(25)).enumerate()
                {
                    acks.push(client.send_updates(0, batch).expect("catalog batch"));
                    acks.push(
                        client.send_updates(tenant_of(w), tenant_batch).expect("tenant batch"),
                    );
                    if w == 0 && i % 3 == 0 {
                        client.digest(tags::COUNT_SKETCH).expect("digest between writes");
                    }
                }
                acks
            })
        })
        .collect();
    let acks: Vec<Vec<u64>> =
        writers.into_iter().map(|h| h.join().expect("writer thread")).collect();

    for (w, acks) in acks.iter().enumerate() {
        assert!(acks.windows(2).all(|p| p[0] < p[1]), "writer {w}: acks must rise: {acks:?}");
    }
    let mut all: Vec<u64> = acks.concat();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), WRITERS as usize * BATCHES * 2, "two applies acked the same count");

    let mut reference = CatalogPrototypes::standard(DIM, SEED);
    let mut tenants = vec![reference.tenant_proto.clone(); 3];
    for (w, (catalog, tenant)) in (0..WRITERS).zip(&streams) {
        reference.sparse_recovery.ingest_batch(catalog);
        reference.l0_sampler.ingest_batch(catalog);
        reference.fis_l0.ingest_batch(catalog);
        reference.count_sketch.ingest_batch(catalog);
        reference.count_min.ingest_batch(catalog);
        reference.count_median.ingest_batch(catalog);
        reference.ams.ingest_batch(catalog);
        tenants[(tenant_of(w) - 1) as usize].ingest_batch(tenant);
    }
    let expected = [
        (tags::SPARSE_RECOVERY, reference.sparse_recovery.state_digest()),
        (tags::L0_SAMPLER, reference.l0_sampler.state_digest()),
        (tags::FIS_L0_SAMPLER, reference.fis_l0.state_digest()),
        (tags::COUNT_SKETCH, reference.count_sketch.state_digest()),
        (tags::COUNT_MIN, reference.count_min.state_digest()),
        (tags::COUNT_MEDIAN, reference.count_median.state_digest()),
        (tags::AMS, reference.ams.state_digest()),
    ];
    assert_eq!(expected.len(), CATALOG_STRUCTURES.len());
    let mut client = ServiceClient::connect_tcp(addr).expect("connect");
    for (tag, digest) in expected {
        assert_eq!(client.digest(tag).expect("digest"), digest, "structure {tag:#06x} diverged");
    }
    for (t, tenant) in tenants.iter().enumerate() {
        assert_eq!(
            client.tenant_digest(t as u64 + 1).expect("tenant digest"),
            Some(tenant.state_digest()),
            "tenant {} diverged",
            t + 1
        );
    }

    let total = streams.iter().map(|(c, t)| (c.len() + t.len()) as u64).sum::<u64>();
    assert_eq!(all.last().copied(), Some(total));
    assert_eq!(client.shutdown().expect("shutdown ack"), total);
    assert_eq!(server.join(), total);
}

/// A catalog over more coordinates than the field has elements would hand
/// the hash kernels non-canonical keys that still pass the service's
/// `index < dimension` check, so the catalog refuses to be built.
#[test]
#[should_panic(expected = "catalog dimension must lie in [1, 2^61 - 1]")]
fn catalog_refuses_a_dimension_above_the_field_prime() {
    CatalogPrototypes::standard(1 << 61, SEED);
}

#[cfg(unix)]
#[test]
fn unix_socket_loopback_smoke() {
    use std::os::unix::net::UnixStream;

    let path = std::env::temp_dir().join(format!("lps-service-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let server = RunningServer::bind_unix(&path, config()).expect("bind unix");

    let updates = workload(2_000, 9);
    let mut reference = CatalogPrototypes::standard(DIM, SEED).count_min;
    reference.ingest_batch(&updates);

    let stream = UnixStream::connect(&path).expect("connect unix");
    let mut client = ServiceClient::handshake(stream).expect("handshake");
    for batch in updates.chunks(400) {
        client.send_updates(0, batch).expect("batch accepted");
    }
    assert_eq!(client.digest(tags::COUNT_MIN).expect("digest"), reference.state_digest());
    client.shutdown().expect("shutdown ack");
    server.join();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn version_mismatch_in_hello_is_rejected_and_closed() {
    use std::io::{Read, Write};
    use std::task::Poll;

    let server = RunningServer::bind_tcp("127.0.0.1:0", config()).expect("bind");
    let addr = server.local_addr().expect("address");

    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut wire = Vec::new();
    FrameCodec::encode(&Frame::Hello { major: 99, minor: 0, token: None }, &mut wire);
    stream.write_all(&wire).expect("write hello");

    let mut codec = FrameCodec::new();
    let mut chunk = [0u8; 4096];
    let reply = loop {
        if let Poll::Ready(frame) = codec.poll().expect("well-framed reply") {
            break frame;
        }
        let n = stream.read(&mut chunk).expect("read");
        assert!(n > 0, "server closed before answering");
        if let Poll::Ready(frame) = codec.feed(&chunk[..n]).expect("well-framed reply") {
            break frame;
        }
    };
    match reply {
        Frame::Error { code: ErrorCode::Unsupported, detail } => {
            assert!(detail.contains("99"), "detail names the offending version: {detail}");
        }
        other => panic!("expected an Unsupported error frame, got {other:?}"),
    }
    // ... and the server hangs up on us.
    assert_eq!(stream.read(&mut chunk).expect("read eof"), 0);

    server.stop();
}

#[test]
fn auth_token_gates_every_frame_until_a_matching_hello() {
    let server =
        RunningServer::bind_tcp("127.0.0.1:0", config().auth_token("open-sesame")).expect("bind");
    let addr = server.local_addr().expect("address");

    // Absent token: rejected with a typed Unauthorized error, then closed.
    match ServiceClient::connect_tcp(addr).err() {
        Some(ServiceError::Remote { code: ErrorCode::Unauthorized, detail }) => {
            assert!(!detail.contains("open-sesame"), "detail must not leak the token: {detail}");
        }
        other => panic!("tokenless handshake should be Unauthorized, got {other:?}"),
    }

    // Mismatched token: same rejection.
    match ServiceClient::connect_tcp_with_token(addr, "wrong").err() {
        Some(ServiceError::Remote { code: ErrorCode::Unauthorized, .. }) => {}
        other => panic!("mismatched token should be Unauthorized, got {other:?}"),
    }

    // A non-hello first frame is rejected and the connection closed.
    {
        use std::io::{Read, Write};
        use std::task::Poll;
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut wire = Vec::new();
        FrameCodec::encode(
            &Frame::UpdateBatch { tenant: 0, updates: vec![Update { index: 1, delta: 1 }] },
            &mut wire,
        );
        stream.write_all(&wire).expect("write batch");
        let mut codec = FrameCodec::new();
        let mut chunk = [0u8; 4096];
        let reply = loop {
            if let Poll::Ready(frame) = codec.poll().expect("well-framed reply") {
                break frame;
            }
            let n = stream.read(&mut chunk).expect("read");
            assert!(n > 0, "server closed before answering");
            if let Poll::Ready(frame) = codec.feed(&chunk[..n]).expect("well-framed reply") {
                break frame;
            }
        };
        assert!(
            matches!(reply, Frame::Error { code: ErrorCode::Unauthorized, .. }),
            "pre-auth batch should be Unauthorized, got {reply:?}"
        );
        assert_eq!(stream.read(&mut chunk).expect("read eof"), 0, "server must hang up");
    }

    // The matching token authenticates and the connection serves normally.
    let updates = workload(1_000, 4);
    let mut reference = CatalogPrototypes::standard(DIM, SEED).count_min;
    reference.ingest_batch(&updates);
    let mut client =
        ServiceClient::connect_tcp_with_token(addr, "open-sesame").expect("authed connect");
    for batch in updates.chunks(250) {
        client.send_updates(0, batch).expect("batch accepted");
    }
    assert_eq!(client.digest(tags::COUNT_MIN).expect("digest"), reference.state_digest());
    client.shutdown().expect("shutdown ack");
    server.join();
}

#[test]
fn query_against_an_empty_service_answers_from_the_zero_snapshot() {
    let server = RunningServer::bind_tcp("127.0.0.1:0", config()).expect("bind");
    let addr = server.local_addr().expect("address");
    let mut client = ServiceClient::connect_tcp(addr).expect("connect");

    // before any update: the published zero-state snapshots answer
    assert_eq!(client.sample(tags::L0_SAMPLER).expect("sample"), None);
    assert_eq!(client.point_estimate(tags::COUNT_MIN, 0).expect("estimate"), 0.0);
    assert_eq!(client.duplicates(tags::SPARSE_RECOVERY).expect("duplicates"), vec![]);
    let zero = CatalogPrototypes::standard(DIM, SEED).ams.state_digest();
    assert_eq!(client.digest(tags::AMS).expect("digest"), zero);

    // raw Query frame kinds route consistently through the typed helper
    let reply = client.query(Query::TenantDigest { tenant: 42 }).expect("query");
    assert_eq!(reply, lps_service::Reply::TenantDigest { digest: None });

    drop(client);
    server.stop();
}

// Keep the frame-tag constants in the public API honest: the loopback
// harness and any external client dispatch on them.
#[test]
fn frame_tags_are_stable() {
    assert_eq!(frame_tags::HELLO, 0x0001);
    assert_eq!(frame_tags::UPDATE_BATCH, 0x0002);
    assert_eq!(frame_tags::CHECKPOINT_UPLOAD, 0x0003);
    assert_eq!(frame_tags::QUERY, 0x0004);
    assert_eq!(frame_tags::REPLY, 0x0005);
    assert_eq!(frame_tags::ERROR, 0x0006);
    assert_eq!(frame_tags::SHUTDOWN, 0x0007);
}
