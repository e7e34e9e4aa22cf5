//! The traced run: the per-layer breakdown.
//!
//! A shortened timed run (tracing off) reports the load generator's
//! health. Then one seeded request sequence is driven through the layers'
//! public functions in-process, with spans recorded here, around each
//! call — never inside the program: frame encode and decode
//! (`FrameCodec`), `ServiceCore::apply`, and `SnapshotHandle::serve`. The
//! same sequence is replayed over the socket, so the part of a round trip
//! the layers do not explain (TCP, connection-thread hand-off, ingest
//! queue wait) shows as `service.unattributed_us`. Finally each catalog
//! structure, the sharded engine and the tenant registry are timed alone
//! on the workload's update stream.
//!
//! A layer the workload's traffic never reaches is still measured, by a
//! probe on the same core after the sequence, so that every metric is a
//! measurement; the table marks those figures `probe`.

use std::fmt::Write as _;
use std::task::Poll;
use std::time::{Duration, Instant};

use lps_engine::{merge_checkpointed, EngineBuilder, ShardIngest};
use lps_hash::SeedSequence;
use lps_registry::{MemorySpill, RegistryConfig, SketchRegistry};
use lps_service::{
    CatalogPrototypes, Frame, FrameCodec, ProtoError, Query, Reply, ServiceConfig, ServiceCore,
    ServiceError, SnapshotHandle,
};
use lps_sketch::Persist;
use lps_stream::Update;

use crate::stats::{Report, Samples};
use crate::timed;
use crate::workload::{
    is_saturated, live_query, ReadSource, Reference, Workload, WriteSource, CATALOG_SEED,
    DIMENSION, STREAM_TRACE,
};
use crate::Outcome;

/// Share of `--seconds` given to the shortened timed run.
const HEALTH_SHARE: f64 = 0.4;
/// Updates each structure and engine session ingests when timed alone.
const STRUCTURE_UPDATES: usize = 1 << 17;
/// Tenant ids the registry probe cycles through: twice the service's
/// resident cap, so the probe evicts, spills and restores.
const PROBE_TENANTS: u64 = 2048;
/// Batches the registry probe routes.
const PROBE_BATCHES: usize = 2560;
/// Queries of each probe that reads.
const PROBE_READS: usize = 600;
/// Where the spans of a traced run are written, relative to the working
/// directory.
const TRACE_DIR: &str = ".bench_trace";

/// One layer call, made for `request`, nested under span `parent`.
struct Span {
    request: u32,
    parent: Option<usize>,
    name: &'static str,
    start: Duration,
    end: Duration,
}

/// Spans kept in memory, written out when the run ends. `None` is the
/// untraced pass: the same calls without a clock read around them.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

fn span<R>(
    tracer: &mut Option<Tracer>,
    request: u32,
    parent: Option<usize>,
    name: &'static str,
    call: impl FnOnce() -> R,
) -> R {
    let Some(t) = tracer else { return call() };
    let start = t.origin.elapsed();
    let out = call();
    let end = t.origin.elapsed();
    t.spans.push(Span { request, parent, name, start, end });
    out
}

/// The seeded request sequence, writes and reads interleaved evenly.
fn sequence(w: &Workload, seed: u64) -> (Vec<Frame>, f64) {
    let mut writes = WriteSource::new(w, seed, STREAM_TRACE);
    let mut reads = ReadSource::new(w, seed, STREAM_TRACE);
    let total = w.trace_writes + w.trace_reads;
    let mut frames = Vec::with_capacity(total);
    let mut generating = Duration::ZERO;
    for i in 0..total {
        if (i + 1) * w.trace_reads / total > i * w.trace_reads / total {
            frames.push(Frame::Query(reads.next_query()));
        } else {
            let t = Instant::now();
            let (tenant, updates) = writes.next_request();
            generating += t.elapsed();
            frames.push(Frame::UpdateBatch { tenant, updates });
        }
    }
    let ns_per_update = generating.as_nanos() as f64 / (w.trace_writes * w.batch).max(1) as f64;
    (frames, ns_per_update)
}

/// The in-process core a pass drives, and what the pass observed.
struct Pass {
    core: ServiceCore,
    snapshots: SnapshotHandle,
    tracer: Option<Tracer>,
    codec: FrameCodec,
    client_codec: FrameCodec,
    /// Tenant-0 updates since the last publish, mirroring the core's own
    /// publish counter from outside.
    since_publish: u64,
    publish_interval: u64,
    typed_errors: u64,
    failed: u64,
}

impl Pass {
    fn new(config: &ServiceConfig, traced: bool) -> Self {
        let core = ServiceCore::new(config);
        Pass {
            snapshots: core.snapshot_handle(),
            core,
            tracer: traced.then(|| Tracer { origin: Instant::now(), spans: Vec::new() }),
            codec: FrameCodec::new(),
            client_codec: FrameCodec::new(),
            since_publish: 0,
            publish_interval: config.publish_interval,
            typed_errors: 0,
            failed: 0,
        }
    }

    /// One request the way a connection thread handles it: decode the
    /// request frame, route it to the core or the snapshot, encode the
    /// reply, and decode it again on the client side.
    fn request(&mut self, i: u32, frame: &Frame) {
        let root = self.tracer.as_mut().map(|t| {
            let start = t.origin.elapsed();
            t.spans.push(Span { request: i, parent: None, name: "request", start, end: start });
            t.spans.len() - 1
        });
        let tr = &mut self.tracer;
        let mut wire = Vec::new();
        span(tr, i, root, "proto.encode", || FrameCodec::encode(frame, &mut wire));
        let codec = &mut self.codec;
        let decoded = match span(tr, i, root, "proto.decode", || codec.feed(&wire)) {
            Ok(Poll::Ready(frame)) => frame,
            _ => {
                self.failed += 1;
                return;
            }
        };
        let name = match &decoded {
            Frame::UpdateBatch { tenant: 0, updates } => {
                self.since_publish += updates.len() as u64;
                if self.since_publish >= self.publish_interval {
                    self.since_publish = 0;
                    "core.publish"
                } else {
                    "core.apply"
                }
            }
            Frame::UpdateBatch { .. } => "core.tenant_apply",
            Frame::Query(Query::TenantDigest { .. }) => "core.tenant_digest",
            Frame::Query(Query::Sample { .. }) => "snapshot.serve.sample",
            Frame::Query(Query::PointEstimate { .. }) => "snapshot.serve.point",
            _ => "snapshot.serve.duplicates",
        };
        let (core, snapshots) = (&mut self.core, &self.snapshots);
        let result = span(tr, i, root, name, || match decoded {
            Frame::Query(q) if name.starts_with("snapshot") => {
                snapshots.serve(&q).map(Frame::Reply)
            }
            frame => core.apply(frame),
        });
        let reply = match result {
            Ok(reply) => reply,
            Err(e) => {
                if is_saturated(&e) {
                    self.typed_errors += 1;
                } else {
                    self.failed += 1;
                }
                e.to_error_frame()
            }
        };
        let mut wire = Vec::new();
        span(tr, i, root, "proto.encode_reply", || FrameCodec::encode(&reply, &mut wire));
        let client_codec = &mut self.client_codec;
        if !matches!(
            span(tr, i, root, "proto.decode_reply", || client_codec.feed(&wire)),
            Ok(Poll::Ready(_))
        ) {
            self.failed += 1;
        }
        if let (Some(t), Some(root)) = (self.tracer.as_mut(), root) {
            t.spans[root].end = t.origin.elapsed();
        }
    }

    fn query(&mut self, q: Query) -> Result<Reply, ServiceError> {
        match self.core.apply(Frame::Query(q))? {
            Frame::Reply(reply) => Ok(reply),
            _ => Err(ServiceError::Proto(ProtoError::Malformed {
                context: "the core answered a query with a non-reply frame",
            })),
        }
    }

    fn spans(&self) -> &[Span] {
        self.tracer.as_ref().map_or(&[], |t| &t.spans)
    }

    /// Durations of every span named `name` among the first `upto` spans.
    fn samples(&self, name: &str, upto: usize) -> Samples {
        let mut s = Samples::default();
        for span in self.spans().iter().take(upto).filter(|s| s.name == name) {
            s.push(span.end - span.start);
        }
        s
    }

    fn count(&self, name: &str) -> usize {
        self.spans().iter().filter(|s| s.name == name).count()
    }
}

/// Drive `frames` through a fresh core; returns the pass and its wall time.
fn drive(config: &ServiceConfig, frames: &[Frame], traced: bool) -> (Pass, Duration) {
    let mut pass = Pass::new(config, traced);
    let start = Instant::now();
    for (i, frame) in frames.iter().enumerate() {
        pass.request(i as u32, frame);
    }
    (pass, start.elapsed())
}

/// Per-request cost the layers explain: the summed child spans of each
/// request's root.
fn layer_costs(pass: &Pass, requests: usize) -> Vec<Duration> {
    let mut costs = vec![Duration::ZERO; requests];
    for s in pass.spans().iter().filter(|s| s.parent.is_some()) {
        costs[s.request as usize] += s.end - s.start;
    }
    costs
}

fn write_spans(pass: &Pass, w: &Workload, seed: u64) -> std::io::Result<()> {
    let mut out = String::from("span\trequest\tparent\tname\tstart_ns\tend_ns\n");
    for (id, s) in pass.spans().iter().enumerate() {
        let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
        let _ = writeln!(
            out,
            "{id}\t{}\t{parent}\t{}\t{}\t{}",
            s.request,
            s.name,
            s.start.as_nanos(),
            s.end.as_nanos()
        );
    }
    std::fs::create_dir_all(TRACE_DIR)?;
    std::fs::write(format!("{TRACE_DIR}/{}-seed{seed}.tsv", w.name), out)
}

/// Time one catalog structure alone: sequential batches on a prototype
/// clone (the digest reference), a default-config engine session, and
/// checkpoint / resume / merge of a second session.
fn structure<T: ShardIngest + Persist + 'static>(
    r: &mut Report,
    name: &str,
    proto: &T,
    batches: &[Vec<Update>],
    config: &ServiceConfig,
) -> Result<(), String> {
    let updates: usize = batches.iter().map(Vec::len).sum();
    let builder = || EngineBuilder::new(proto).shards(config.shards).batch_size(config.batch_size);

    let mut sequential = proto.clone();
    let t = Instant::now();
    for b in batches {
        sequential.ingest_batch(b);
    }
    let elapsed = t.elapsed();
    let want = sequential.state_digest();
    r.add(format!("sketch.{name}.ns_per_update"), elapsed.as_nanos() as f64 / updates as f64, "ns");

    let mut session = builder().session();
    let t = Instant::now();
    for b in batches {
        session.ingest_blocking(b);
    }
    let sealed = session.seal().map_err(|e| format!("{name}: seal: {e}"))?;
    let elapsed = t.elapsed();
    if sealed.state_digest() != want {
        return Err(format!("{name}: engine digest differs from sequential ingestion"));
    }
    r.add(
        format!("engine.{name}.ingest_updates_per_s"),
        updates as f64 / elapsed.as_secs_f64(),
        "1/s",
    );

    let mut session = builder().session();
    for b in batches {
        session.ingest_blocking(b);
    }
    let t = Instant::now();
    let buffers = session.checkpoint().map_err(|e| format!("{name}: checkpoint: {e}"))?;
    let checkpoint = t.elapsed();
    let t = Instant::now();
    let resumed = builder().resume(&buffers).map_err(|e| format!("{name}: resume: {e}"))?;
    let resume = t.elapsed();
    resumed.seal().map_err(|e| format!("{name}: seal after resume: {e}"))?;
    let t = Instant::now();
    let merged: T = merge_checkpointed(&buffers).map_err(|e| format!("{name}: merge: {e}"))?;
    let merge = t.elapsed();
    if merged.state_digest() != want {
        return Err(format!("{name}: merged checkpoint differs from sequential ingestion"));
    }
    let bytes: usize = buffers.iter().map(Vec::len).sum();
    r.add(format!("engine.{name}.checkpoint_ms"), checkpoint.as_secs_f64() * 1e3, "ms");
    r.add(format!("engine.{name}.resume_ms"), resume.as_secs_f64() * 1e3, "ms");
    r.add(format!("engine.{name}.merge_ms"), merge.as_secs_f64() * 1e3, "ms");
    r.add(format!("engine.{name}.checkpoint_bytes"), bytes as f64, "bytes");
    Ok(())
}

pub fn run(w: &Workload, seed: u64, seconds: f64, doctor: bool) -> Result<Outcome, String> {
    let config = timed::service_config();
    let mut r = Report::default();

    // Load-generator health, from a shortened timed run.
    let t = timed::run(w, seed, seconds * HEALTH_SHARE, doctor).map_err(|e| e.to_string())?;
    let mut gate = Ok(0);
    let mut checked = gate_step(&mut gate, t.gate.clone());
    let mut late = t.writes.late.clone();
    late.extend(&t.reads.late);

    let (frames, gen_ns) = sequence(w, seed);

    // In-process passes: untraced, traced, untraced again; the traced
    // pass is compared with the mean of the two untraced ones.
    let (_, plain_a) = drive(&config, &frames, false);
    let (mut pass, traced_wall) = drive(&config, &frames, true);
    let (_, plain_b) = drive(&config, &frames, false);
    let plain = (plain_a + plain_b) / 2;
    let costs = layer_costs(&pass, frames.len());
    let covered: Duration = costs.iter().sum();
    // Spans of the sequence itself; probes append after these.
    let main_spans = pass.spans().len();

    let mut reference = Reference::default();
    for frame in &frames {
        if let Frame::UpdateBatch { tenant, updates } = frame {
            reference.absorb(*tenant, updates);
        }
    }
    checked += gate_step(&mut gate, reference.verify(&mut |q| pass.query(q), doctor));

    // Socket replay of the same sequence, one request at a time.
    let (server, mut clients) = timed::start().map_err(|e| e.to_string())?;
    let (mut write_rtt, mut read_rtt, mut unattributed) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut replay_failed = 0u64;
    let client = &mut clients[0];
    for (frame, cost) in frames.iter().zip(&costs) {
        let t0 = Instant::now();
        let result = match frame {
            Frame::UpdateBatch { tenant, updates } => {
                client.send_updates(*tenant, updates).map(|_| ())
            }
            Frame::Query(q) => client.query(q.clone()).map(|_| ()),
            _ => unreachable!("the sequence holds only update batches and queries"),
        };
        let rtt = t0.elapsed();
        if matches!(&result, Err(e) if !is_saturated(e)) {
            replay_failed += 1;
        }
        match frame {
            Frame::UpdateBatch { .. } => write_rtt.push(rtt),
            _ => read_rtt.push(rtt),
        }
        unattributed.push_ns(rtt.saturating_sub(*cost).as_nanos() as u64);
    }
    checked += gate_step(&mut gate, reference.verify(&mut |q| client.query(q), doctor));
    timed::stop(server, clients);

    // Probes for layers this workload's traffic never reaches.
    let batches: Vec<&Vec<Update>> = frames
        .iter()
        .filter_map(|f| match f {
            Frame::UpdateBatch { updates, .. } => Some(updates),
            _ => None,
        })
        .collect();
    let mut probed: Vec<&str> = Vec::new();
    let mut next = frames.len() as u32;
    let mut probe = |pass: &mut Pass, frame: Frame| {
        pass.request(next, &frame);
        next += 1;
    };
    if pass.count("core.apply") == 0 {
        probed.push("core");
        for b in batches.iter().cycle() {
            probe(&mut pass, Frame::UpdateBatch { tenant: 0, updates: b.to_vec() });
            if pass.count("core.publish") >= 2 {
                break;
            }
        }
    }
    let tenant_writes: Vec<(u64, &Vec<Update>)> = if pass.count("core.tenant_apply") == 0 {
        probed.push("registry");
        let probe_writes: Vec<_> = batches
            .iter()
            .cycle()
            .take(PROBE_BATCHES)
            .enumerate()
            .map(|(i, b)| (1 + i as u64 % PROBE_TENANTS, *b))
            .collect();
        for &(tenant, b) in &probe_writes {
            probe(&mut pass, Frame::UpdateBatch { tenant, updates: b.to_vec() });
        }
        probe_writes
    } else {
        frames
            .iter()
            .filter_map(|f| match f {
                Frame::UpdateBatch { tenant, updates } if *tenant != 0 => Some((*tenant, updates)),
                _ => None,
            })
            .collect()
    };
    if pass.count("core.tenant_digest") == 0 {
        probed.push("tenant digest");
        for tenant in 1..=PROBE_READS as u64 {
            probe(&mut pass, Frame::Query(Query::TenantDigest { tenant }));
        }
    }
    if pass.count("snapshot.serve.sample") == 0 {
        probed.push("snapshot");
        let mut rng = SeedSequence::new(seed);
        for _ in 0..PROBE_READS {
            probe(&mut pass, Frame::Query(live_query(&mut rng)));
        }
    }

    // The registry alone, built exactly as `ServiceCore` builds it.
    let protos = CatalogPrototypes::standard(DIMENSION, CATALOG_SEED);
    let mut registry = SketchRegistry::new(
        protos.tenant_proto.clone(),
        RegistryConfig::new().max_resident(config.max_resident),
        MemorySpill::new(),
    );
    let (mut route, mut drain) = (Samples::default(), Samples::default());
    for (tenant, updates) in &tenant_writes {
        loop {
            let t0 = Instant::now();
            let routed = registry.route(*tenant, updates).map_err(|e| e.to_string())?;
            route.push(t0.elapsed());
            if routed.is_ready() {
                break;
            }
            let t0 = Instant::now();
            registry.drain().map_err(|e| e.to_string())?;
            drain.push(t0.elapsed());
        }
    }
    let stats = registry.stats().clone();

    // The structures and the engine alone, on the workload's update stream.
    let mut source = WriteSource::new(w, seed, STREAM_TRACE + 1);
    let alone: Vec<Vec<Update>> =
        (0..STRUCTURE_UPDATES.div_ceil(w.batch)).map(|_| source.next_request().1).collect();
    let structures = [
        structure(&mut r, "sparse_recovery", &protos.sparse_recovery, &alone, &config),
        structure(&mut r, "l0_sampler", &protos.l0_sampler, &alone, &config),
        structure(&mut r, "fis_l0", &protos.fis_l0, &alone, &config),
        structure(&mut r, "count_sketch", &protos.count_sketch, &alone, &config),
        structure(&mut r, "count_min", &protos.count_min, &alone, &config),
        structure(&mut r, "count_median", &protos.count_median, &alone, &config),
        structure(&mut r, "ams", &protos.ams, &alone, &config),
    ];
    for result in structures {
        // The engine and the merged checkpoint each match the sequential digest.
        checked += gate_step(&mut gate, result.map(|()| 2));
    }

    // Report, in the order of the layer map in README.md.
    let metric = |r: &mut Report, name: &str, s: Samples, q: f64, layer: &str| {
        let mut note = s.note(q);
        if probed.contains(&layer) {
            note.push_str(", probe");
        }
        r.add_noted(name, s.quantile_us(q), "us", note);
    };
    let publish = pass.samples("core.publish", usize::MAX);
    r.add_noted("core.publish_ms.p50", publish.quantile_us(0.5) / 1e3, "ms", publish.note(0.5));
    r.add("core.publish_ms.max", publish.max_us() / 1e3, "ms");
    r.add("core.publish_count", publish.len() as f64, "count");
    metric(&mut r, "core.apply_us.p50", pass.samples("core.apply", usize::MAX), 0.5, "core");
    metric(&mut r, "core.apply_us.p99", pass.samples("core.apply", usize::MAX), 0.99, "core");
    metric(&mut r, "registry.route_us.p50", route.clone(), 0.5, "registry");
    metric(&mut r, "registry.route_us.p99", route, 0.99, "registry");
    metric(&mut r, "registry.drain_us.p50", drain, 0.5, "registry");
    r.add("registry.evictions", stats.evictions as f64, "count");
    r.add("registry.restores", stats.restores as f64, "count");
    r.add("registry.materializations", stats.materializations as f64, "count");
    metric(
        &mut r,
        "core.tenant_apply_us.p50",
        pass.samples("core.tenant_apply", usize::MAX),
        0.5,
        "registry",
    );
    metric(
        &mut r,
        "core.tenant_digest_us.p50",
        pass.samples("core.tenant_digest", usize::MAX),
        0.5,
        "tenant digest",
    );
    for kind in ["sample", "point", "duplicates"] {
        let name = format!("snapshot.serve.{kind}");
        metric(
            &mut r,
            &format!("snapshot.serve_us.{kind}.p50"),
            pass.samples(&name, usize::MAX),
            0.5,
            "snapshot",
        );
    }
    r.add("snapshot.typed_errors", pass.typed_errors as f64, "count");
    metric(&mut r, "proto.encode_us.p50", pass.samples("proto.encode", main_spans), 0.5, "");
    metric(&mut r, "proto.decode_us.p50", pass.samples("proto.decode", main_spans), 0.5, "");
    let request_bytes: usize = frames
        .iter()
        .map(|f| {
            let mut wire = Vec::new();
            FrameCodec::encode(f, &mut wire);
            wire.len()
        })
        .sum();
    r.add("proto.request_bytes.mean", request_bytes as f64 / frames.len() as f64, "bytes");
    metric(&mut r, "client.write_rtt_us.p50", write_rtt, 0.5, "");
    metric(&mut r, "client.read_rtt_us.p50", read_rtt, 0.5, "");
    metric(&mut r, "service.unattributed_us.p50", unattributed, 0.5, "");
    r.add("gen.ns_per_update", gen_ns, "ns");
    r.add_noted("driver.late_us.p99", late.quantile_us(0.99), "us", late.note(0.99));
    r.add("driver.cpu_share", t.driver_cpu_share, "ratio");
    r.add("process.threads", t.writes.threads as f64, "count");
    r.add(
        "trace.unattributed_share",
        1.0 - covered.as_secs_f64() / traced_wall.as_secs_f64(),
        "ratio",
    );
    r.add("trace.overhead_share", traced_wall.as_secs_f64() / plain.as_secs_f64() - 1.0, "ratio");

    if let Err(e) = write_spans(&pass, w, seed) {
        eprintln!("perfbench: could not write spans: {e}");
    }
    let attempted = t.attempted + 2 * frames.len() as u64;
    let failed = t.failed + pass.failed + replay_failed;
    Ok((r, attempted, failed, gate.map(|_| checked)))
}

/// Fold one gate step into the run's verdict (the first mismatch wins);
/// returns the digests the step compared.
fn gate_step(gate: &mut Result<usize, String>, step: Result<usize, String>) -> usize {
    match step {
        Ok(n) => n,
        Err(e) => {
            if gate.is_ok() {
                *gate = Err(e);
            }
            0
        }
    }
}
