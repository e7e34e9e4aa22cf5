//! The two-process service loopback harness (`experiments -- serve`,
//! `-- feed`, `-- servetest`).
//!
//! `servetest` is the CI shape: the parent re-spawns this binary as a
//! `serve` child (the `crashtest` self-respawn pattern), reads the bound
//! address off the child's stdout, then drives a real TCP feed against it —
//! streaming update batches, uploading a complete shard-checkpoint set,
//! firing live queries mid-ingestion, provoking a typed `PlanMismatch`
//! rejection that must not kill the connection, and finally comparing every
//! catalog digest (and the fed tenants' digests) against sequential local
//! references. Exact structures merge bit-identically, so the comparison is
//! `==` on `state_digest`, not a tolerance — any divergence exits non-zero.

use std::io::BufRead;
use std::process::{Command, Stdio};

use lps_engine::{EngineBuilder, KeyRange, ShardIngest};
use lps_service::{
    CatalogPrototypes, ErrorCode, RunningServer, ServiceClient, ServiceConfig, ServiceError,
};
use lps_sketch::persist::tags;
use lps_sketch::Mergeable;
use lps_stream::Update;

use crate::cli::{Args, Flags, UsageError};
use crate::throughput::workload;

/// Catalog dimension of the harness service (`log2 n = 16`).
pub const SERVICE_DIM: u64 = 1 << 16;
/// Master seed both sides build [`CatalogPrototypes`] from.
pub const SERVICE_SEED: u64 = 0x5EBF_1CE5;
/// Master seed of the deterministic feed workloads.
const FEED_SEED: u64 = 0xFEED_5EED;
/// Updates per `UpdateBatch` frame.
const BATCH: usize = 1_000;
/// Tenants the feed spreads registry traffic over.
const TENANTS: u64 = 8;

/// `experiments -- serve [--dim N] [--seed S] [--shards K] [--publish P]
/// [--token T]`: bind a loopback TCP service, announce the address on
/// stdout, and serve until a client sends `Shutdown`. `--shards` and
/// `--publish` default to [`ServiceConfig::new`]'s. With `--token` the
/// server requires that authentication token in every `Hello`. Returns the
/// process exit code, or the refused argument before anything binds.
pub fn serve_main(args: &[String]) -> Result<i32, UsageError> {
    let flags = Flags {
        valued: &["--dim", "--seed", "--shards", "--publish", "--token"],
        switches: &[],
        positional: false,
    };
    let args = Args::parse(args, flags)?;
    let dim = args.parsed("--dim", SERVICE_DIM)?;
    let seed = args.parsed("--seed", SERVICE_SEED)?;
    let defaults = ServiceConfig::new(dim, seed);
    let shards = args.parsed("--shards", defaults.shards)?;
    let publish = args.parsed("--publish", defaults.publish_interval)?;
    let mut config = defaults.shards(shards).publish_interval(publish);
    if let Some(token) = args.value("--token") {
        config = config.auth_token(token);
    }
    let server = match RunningServer::bind_tcp(("127.0.0.1", 0), config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: bind failed: {e}");
            return Ok(1);
        }
    };
    let addr = server.local_addr().expect("tcp server has an address");
    // the parent parses this exact line to find us
    println!("listening on {addr}");
    use std::io::Write;
    let _ = std::io::stdout().flush();
    let accepted = server.join();
    println!("serve: accepted {accepted} updates, shutting down");
    Ok(0)
}

/// `experiments -- feed --addr A [--updates N] [--dim N] [--seed S]
/// [--token T] [--shutdown]`: drive the full feed against an
/// already-running server. Returns the process exit code, or the refused
/// argument before anything connects.
pub fn feed_main(args: &[String]) -> Result<i32, UsageError> {
    let flags = Flags {
        valued: &["--addr", "--updates", "--dim", "--seed", "--token"],
        switches: &["--shutdown"],
        positional: false,
    };
    let args = Args::parse(args, flags)?;
    let addr = args.required("--addr", "host:port")?;
    let updates = args.parsed("--updates", 120_000usize)?;
    let dim = args.parsed("--dim", SERVICE_DIM)?;
    let seed = args.parsed("--seed", SERVICE_SEED)?;
    let shutdown = args.has("--shutdown");
    Ok(match run_feed(addr, updates, dim, seed, shutdown, args.value("--token")) {
        Ok(report) => {
            print!("{report}");
            println!("service loopback: all digests match sequential ingestion");
            0
        }
        Err(e) => {
            eprintln!("service loopback FAILED: {e}");
            1
        }
    })
}

/// `experiments -- servetest [--updates N]`: spawn a `serve` child of this
/// same binary, feed it over real TCP, and tear both down. Returns the
/// process exit code, or the refused argument before anything spawns.
pub fn servetest_main(args: &[String]) -> Result<i32, UsageError> {
    let flags = Flags { valued: &["--updates"], switches: &[], positional: false };
    let updates = Args::parse(args, flags)?.parsed("--updates", 120_000usize)?;
    Ok(servetest(updates))
}

fn servetest(updates: usize) -> i32 {
    let exe = std::env::current_exe().expect("current_exe");
    // The child requires an auth token so the two-process harness also
    // exercises the authenticated handshake end to end.
    let token = "lps-servetest-token";
    let mut child = match Command::new(&exe)
        .args(["serve", "--dim", &SERVICE_DIM.to_string(), "--seed", &SERVICE_SEED.to_string()])
        .args(["--token", token])
        .stdout(Stdio::piped())
        .spawn()
    {
        Ok(c) => c,
        Err(e) => {
            eprintln!("servetest: failed to spawn serve child: {e}");
            return 1;
        }
    };
    let stdout = child.stdout.take().expect("child stdout piped");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let addr = match lines.next() {
        Some(Ok(line)) if line.starts_with("listening on ") => {
            line.trim_start_matches("listening on ").to_string()
        }
        other => {
            eprintln!("servetest: child did not announce an address: {other:?}");
            let _ = child.kill();
            return 1;
        }
    };
    println!("servetest: serve child {} is listening on {addr}", child.id());

    let feed_rc = match run_feed(&addr, updates, SERVICE_DIM, SERVICE_SEED, true, Some(token)) {
        Ok(report) => {
            print!("{report}");
            println!("service loopback: all digests match sequential ingestion");
            0
        }
        Err(e) => {
            eprintln!("service loopback FAILED: {e}");
            1
        }
    };
    // drain the child's remaining stdout so it can exit, then reap it;
    // a read error ends the drain rather than looping on Err forever
    for line in lines.map_while(Result::ok) {
        println!("servetest(child): {line}");
    }
    let status = child.wait().expect("wait for serve child");
    if !status.success() {
        eprintln!("servetest: serve child exited with {status}");
        return 1;
    }
    feed_rc
}

/// The feed proper, shared by `feed` and `servetest`. Returns a printable
/// report on success, the first divergence on failure.
fn run_feed(
    addr: &str,
    updates: usize,
    dim: u64,
    seed: u64,
    shutdown: bool,
    token: Option<&str>,
) -> Result<String, String> {
    let fail = |context: &str, e: ServiceError| format!("{context}: {e}");
    let mut report = String::new();

    // Deterministic workload split: 70% streamed into the shared catalog,
    // 20% checkpoint-uploaded (count-min), 10% spread over registry tenants.
    let streamed_n = updates * 7 / 10;
    let uploaded_n = updates * 2 / 10;
    let tenant_n = updates - streamed_n - uploaded_n;
    let streamed = workload(dim, streamed_n, FEED_SEED);
    let uploaded = workload(dim, uploaded_n, FEED_SEED ^ 0xA5A5);
    let tenant_stream = workload(dim, tenant_n, FEED_SEED ^ 0x5A5A);

    let connect = |context: &str| match token {
        Some(t) => {
            ServiceClient::connect_tcp_with_token(addr, t).map_err(|e| format!("{context}: {e}"))
        }
        None => ServiceClient::connect_tcp(addr).map_err(|e| format!("{context}: {e}")),
    };
    let mut client = connect("connect")?;

    // Stream the catalog load with live queries interleaved: every eighth
    // batch reads the latest published snapshot while ingestion continues.
    let mut live_queries = 0u64;
    for (i, batch) in streamed.chunks(BATCH).enumerate() {
        client.send_updates(0, batch).map_err(|e| fail("update batch", e))?;
        if i % 8 == 7 {
            client.sample(tags::L0_SAMPLER).map_err(|e| fail("live sample", e))?;
            client
                .point_estimate(tags::COUNT_MIN, batch[0].index)
                .map_err(|e| fail("live estimate", e))?;
            live_queries += 2;
        }
    }
    report.push_str(&format!(
        "feed: streamed {} updates in {}-update batches, {} live queries mid-ingestion\n",
        streamed.len(),
        BATCH,
        live_queries
    ));

    // Shard-checkpoint upload: a 4-shard round-robin session over the
    // identically seeded count-min prototype; the set completes on the
    // fourth upload and merges server-side.
    let protos = CatalogPrototypes::standard(dim, seed);
    let mut session = EngineBuilder::new(&protos.count_min).shards(4).session();
    session.ingest_blocking(&uploaded);
    let buffers = session.checkpoint().map_err(|e| format!("local checkpoint: {e}"))?;
    let shard_count = buffers.len();
    for buffer in buffers {
        client.upload_checkpoint(buffer).map_err(|e| fail("checkpoint upload", e))?;
    }
    report.push_str(&format!(
        "feed: uploaded a complete {}-shard checkpoint set ({} updates) for count_min\n",
        shard_count,
        uploaded.len()
    ));

    // A key-range checkpoint must be rejected as a typed PlanMismatch
    // error frame — and the connection must survive it.
    let mut wrong = EngineBuilder::new(&protos.count_min).plan(KeyRange::new(dim, 2)).session();
    wrong.ingest_blocking(&uploaded[..64.min(uploaded.len())]);
    let wrong_buffers = wrong.checkpoint().map_err(|e| format!("key-range checkpoint: {e}"))?;
    match client.upload_checkpoint(wrong_buffers[0].clone()) {
        Err(ServiceError::Remote { code: ErrorCode::PlanMismatch, .. }) => {}
        Ok(_) => return Err("key-range upload was accepted; expected PlanMismatch".into()),
        Err(other) => return Err(format!("key-range upload: expected PlanMismatch, got {other}")),
    }
    client.digest(tags::AMS).map_err(|e| fail("post-rejection query", e))?;
    report.push_str("feed: key-range upload rejected as PlanMismatch, connection survived\n");

    // Registry traffic: round-robin the tenant stream over TENANTS ids.
    let mut per_tenant: Vec<Vec<Update>> = (0..TENANTS).map(|_| Vec::new()).collect();
    for (i, u) in tenant_stream.iter().enumerate() {
        per_tenant[i % TENANTS as usize].push(*u);
    }
    for (t, stream) in per_tenant.iter().enumerate() {
        for batch in stream.chunks(BATCH) {
            client.send_updates(1 + t as u64, batch).map_err(|e| fail("tenant batch", e))?;
        }
    }
    report.push_str(&format!(
        "feed: routed {} updates across {} registry tenants\n",
        tenant_stream.len(),
        TENANTS
    ));

    // Sequential references: each catalog structure ingests the streamed
    // load; count-min additionally absorbs the uploaded side stream.
    let mut reference = CatalogPrototypes::standard(dim, seed);
    reference.sparse_recovery.ingest_batch(&streamed);
    reference.l0_sampler.ingest_batch(&streamed);
    reference.fis_l0.ingest_batch(&streamed);
    reference.count_sketch.ingest_batch(&streamed);
    reference.count_min.ingest_batch(&streamed);
    reference.count_min.ingest_batch(&uploaded);
    reference.count_median.ingest_batch(&streamed);
    reference.ams.ingest_batch(&streamed);

    let expected = [
        ("sparse_recovery", tags::SPARSE_RECOVERY, reference.sparse_recovery.state_digest()),
        ("l0_sampler", tags::L0_SAMPLER, reference.l0_sampler.state_digest()),
        ("fis_l0", tags::FIS_L0_SAMPLER, reference.fis_l0.state_digest()),
        ("count_sketch", tags::COUNT_SKETCH, reference.count_sketch.state_digest()),
        ("count_min", tags::COUNT_MIN, reference.count_min.state_digest()),
        ("count_median", tags::COUNT_MEDIAN, reference.count_median.state_digest()),
        ("ams", tags::AMS, reference.ams.state_digest()),
    ];
    for (name, tag, want) in expected {
        let got = client.digest(tag).map_err(|e| fail("digest query", e))?;
        if got != want {
            return Err(format!(
                "{name}: service digest {got:#018x} != sequential reference {want:#018x}"
            ));
        }
        report.push_str(&format!("feed: {name} digest {got:#018x} matches sequential\n"));
    }

    for (t, stream) in per_tenant.iter().enumerate() {
        let mut tenant_ref = protos.tenant_proto.clone();
        tenant_ref.ingest_batch(stream);
        let got = client.tenant_digest(1 + t as u64).map_err(|e| fail("tenant digest", e))?;
        if got != Some(tenant_ref.state_digest()) {
            return Err(format!(
                "tenant {}: service digest {got:?} != sequential reference",
                1 + t as u64
            ));
        }
    }
    report.push_str(&format!("feed: {TENANTS} tenant digests match sequential\n"));

    if shutdown {
        let accepted = client.shutdown().map_err(|e| fail("shutdown", e))?;
        let fed = (streamed.len() + tenant_stream.len()) as u64;
        if accepted != fed {
            return Err(format!(
                "server accepted {accepted} updates, client fed {fed} (uploads excluded)"
            ));
        }
        report.push_str(&format!("feed: clean shutdown after {accepted} accepted updates\n"));
    }
    Ok(report)
}
