//! Update-path throughput benchmarks (Experiments E13 and E14) and the
//! machine-readable `BENCH_samplers.json` writer that seeds the workspace's
//! performance trajectory.
//!
//! For every structure with a batched ingestion path this module measures
//! updates/second in up to three modes over the same pre-generated update
//! batch:
//!
//! * `reference` — the pre-optimization update path (fingerprint power
//!   `r^index` recomputed per cell by square-and-multiply), retained on the
//!   structures that had one so each PR's speedup is measured against a
//!   faithful baseline rather than a guess;
//! * `sequential` — one `process_update` / `update` call per stream update,
//!   using the hoisted fingerprint terms and power tables;
//! * `batched` — `process_batch` over [`lps_stream::DEFAULT_BATCH_SIZE`]
//!   chunks (coalescing, cached hash evaluations, row-major cell walks).
//!
//! Experiment E14 ([`engine_scaling_suite`]) adds `shards-1/2/4/8` modes:
//! the same workload pushed through the `lps-engine` sharded ingestion
//! pipeline, so the artifact tracks multi-core scaling next to the
//! single-thread numbers. Shard speedups require physical cores; the JSON is
//! stamped with `host_cpus` (and the git commit) so the trajectory across
//! PRs stays interpretable.
//!
//! `cargo run --release -p lps-bench --bin experiments -- bench --json`
//! renders the tables and writes `BENCH_samplers.json`; CI runs the quick
//! variant so every PR leaves a machine-readable perf datapoint, then
//! re-reads the committed baseline with `--check` and fails on a >30%
//! headline regression ([`check_headline_regression`]).

use std::time::Instant;

use lps_core::{AkoSampler, FisL0Sampler, L0Sampler, LpSampler, PrecisionLpSampler};
use lps_engine::parallel_ingest;
use lps_hash::SeedSequence;
use lps_heavy::CountSketchHeavyHitters;
use lps_sketch::{
    AmsSketch, CountMinSketch, CountSketch, LinearSketch, PStableSketch, SparseRecovery,
};
use lps_stream::{Update, DEFAULT_BATCH_SIZE};

use crate::report::{f1, int, Table};

/// One measured (structure, mode) data point.
#[derive(Debug, Clone)]
pub struct ThroughputRecord {
    /// Structure identifier, e.g. `"sparse_recovery"`.
    pub structure: &'static str,
    /// `"reference"`, `"sequential"` or `"batched"`.
    pub mode: &'static str,
    /// Dimension `n` of the underlying vector.
    pub dimension: u64,
    /// Number of stream updates processed.
    pub updates: u64,
    /// Wall-clock nanoseconds for one pass over the updates (in quick
    /// mode, the median of `QUICK_PASSES` passes).
    pub elapsed_ns: u128,
    /// Updates per second.
    pub updates_per_sec: f64,
}

/// Passes each quick-mode E12/E13/E14/E15 record is timed over; the record
/// keeps the median pass. A quick pass lasts only milliseconds, so one pass
/// that lands on a scheduler hiccup or a cold cache would otherwise move a
/// gated headline ratio by itself. Full mode times one pass of a workload
/// ten times larger.
pub(crate) const QUICK_PASSES: usize = 5;

/// Time `passes` runs of `pass`, each `ops` operations on a structure over
/// `[0, dimension)`, and record the median pass. Each pass continues on the
/// state the previous one left: the timed operations cost the same whatever
/// the counter values.
pub(crate) fn time_passes(
    structure: &'static str,
    mode: &'static str,
    dimension: u64,
    ops: usize,
    passes: usize,
    mut pass: impl FnMut(),
) -> ThroughputRecord {
    let mut elapsed: Vec<u128> = (0..passes)
        .map(|_| {
            let start = Instant::now();
            pass();
            start.elapsed().as_nanos().max(1)
        })
        .collect();
    elapsed.sort_unstable();
    let elapsed_ns = elapsed[passes / 2];
    ThroughputRecord {
        structure,
        mode,
        dimension,
        updates: ops as u64,
        elapsed_ns,
        updates_per_sec: ops as f64 / (elapsed_ns as f64 / 1e9),
    }
}

/// A deterministic mixed insert/delete workload over `[0, n)`.
pub fn workload(n: u64, updates: usize, master: u64) -> Vec<Update> {
    let mut seeds = SeedSequence::new(master);
    (0..updates)
        .map(|_| {
            let index = seeds.next_below(n);
            let delta = (seeds.next_below(9) as i64) - 4;
            Update::new(index, if delta == 0 { 1 } else { delta })
        })
        .collect()
}

fn chunked(s: &mut impl LpSampler, batch: &[Update]) {
    for chunk in batch.chunks(DEFAULT_BATCH_SIZE) {
        s.process_batch(chunk);
    }
}

/// Run the full throughput suite. Quick mode shrinks the workload so CI can
/// afford it; full mode measures the headline `n = 2^20`, `10^6`-update
/// configuration the perf trajectory tracks.
pub fn throughput_suite(quick: bool) -> Vec<ThroughputRecord> {
    let n: u64 = 1 << 20;
    let heavy_updates: usize = if quick { 100_000 } else { 1_000_000 };
    let light_updates: usize = if quick { 20_000 } else { 200_000 };
    let batch = workload(n, heavy_updates, 0xBE7C);
    let light = &batch[..light_updates];
    let passes = if quick { QUICK_PASSES } else { 1 };
    let heavy = batch.len();
    let mut out = Vec::new();

    // --- sparse recovery (Lemma 5), the hottest kernel in the workspace ---
    {
        let mut s = SeedSequence::new(1);
        let proto = SparseRecovery::new(n, 8, &mut s);
        let mut a = proto.clone();
        out.push(time_passes("sparse_recovery", "reference", n, heavy, passes, || {
            for u in &batch {
                a.update_reference(u.index, u.delta);
            }
        }));
        let mut b = proto.clone();
        out.push(time_passes("sparse_recovery", "sequential", n, heavy, passes, || {
            for u in &batch {
                b.update(u.index, u.delta);
            }
        }));
        let mut c = proto;
        out.push(time_passes("sparse_recovery", "batched", n, heavy, passes, || {
            for chunk in batch.chunks(DEFAULT_BATCH_SIZE) {
                c.process_batch(chunk);
            }
        }));
    }

    // --- the Theorem 2 L0 sampler ---
    {
        let mut s = SeedSequence::new(2);
        let proto = L0Sampler::new(n, 0.25, &mut s);
        let mut a = proto.clone();
        out.push(time_passes("l0_sampler", "reference", n, heavy, passes, || {
            for u in &batch {
                a.process_update_reference(*u);
            }
        }));
        let mut b = proto.clone();
        out.push(time_passes("l0_sampler", "sequential", n, heavy, passes, || {
            for u in &batch {
                b.process_update(*u);
            }
        }));
        let mut c = proto;
        out.push(time_passes("l0_sampler", "batched", n, heavy, passes, || {
            chunked(&mut c, &batch)
        }));
    }

    // --- FIS-style L0 baseline (shared fingerprint base across all slots) ---
    {
        let mut s = SeedSequence::new(3);
        let proto = FisL0Sampler::new(n, &mut s);
        let mut a = proto.clone();
        out.push(time_passes("fis_l0", "sequential", n, light.len(), passes, || {
            for u in light {
                a.process_update(*u);
            }
        }));
        let mut b = proto;
        out.push(time_passes("fis_l0", "batched", n, light.len(), passes, || {
            chunked(&mut b, light)
        }));
    }

    // --- precision Lp sampler and the AKO baseline (per-update path only:
    // their batch path is the default loop over it) ---
    {
        let mut s = SeedSequence::new(4);
        let mut a = PrecisionLpSampler::new(n, 1.0, 0.25, &mut s);
        out.push(time_passes("precision_lp", "sequential", n, light.len(), passes, || {
            for u in light {
                a.process_update(*u);
            }
        }));
    }
    {
        let mut s = SeedSequence::new(5);
        let mut a = AkoSampler::new(n, 1.0, 0.25, &mut s);
        out.push(time_passes("ako_sampler", "sequential", n, light.len(), passes, || {
            for u in light {
                a.process_update(*u);
            }
        }));
    }

    // --- the plain sketches ---
    {
        let mut s = SeedSequence::new(6);
        let proto = CountSketch::with_default_rows(n, 16, &mut s);
        let mut a = proto.clone();
        out.push(time_passes("count_sketch", "sequential", n, heavy, passes, || {
            for u in &batch {
                a.update_int(*u);
            }
        }));
        let mut b = proto;
        out.push(time_passes("count_sketch", "batched", n, heavy, passes, || {
            for chunk in batch.chunks(DEFAULT_BATCH_SIZE) {
                b.process_batch(chunk);
            }
        }));
    }
    {
        let mut s = SeedSequence::new(7);
        let proto = CountMinSketch::new(n, 1024, 7, &mut s);
        let mut a = proto.clone();
        out.push(time_passes("count_min", "sequential", n, heavy, passes, || {
            for u in &batch {
                a.update(u.index, u.delta);
            }
        }));
        let mut b = proto;
        out.push(time_passes("count_min", "batched", n, heavy, passes, || {
            for chunk in batch.chunks(DEFAULT_BATCH_SIZE) {
                b.process_batch(chunk);
            }
        }));
    }
    {
        let mut s = SeedSequence::new(8);
        let proto = AmsSketch::with_default_shape(n, &mut s);
        let mut a = proto.clone();
        out.push(time_passes("ams_sketch", "sequential", n, light.len(), passes, || {
            for u in light {
                a.update_int(*u);
            }
        }));
        let mut b = proto;
        out.push(time_passes("ams_sketch", "batched", n, light.len(), passes, || {
            for chunk in light.chunks(DEFAULT_BATCH_SIZE) {
                b.process_batch(chunk);
            }
        }));
    }
    {
        let mut s = SeedSequence::new(9);
        let proto = PStableSketch::with_default_rows(n, 1.0, &mut s);
        let mut a = proto.clone();
        out.push(time_passes("pstable_sketch", "sequential", n, light.len(), passes, || {
            for u in light {
                a.update_int(*u);
            }
        }));
        let mut b = proto;
        out.push(time_passes("pstable_sketch", "batched", n, light.len(), passes, || {
            for chunk in light.chunks(DEFAULT_BATCH_SIZE) {
                b.process_batch(chunk);
            }
        }));
    }

    // --- a composite driver: count-sketch heavy hitters ---
    {
        let mut s = SeedSequence::new(10);
        let proto = CountSketchHeavyHitters::new(n, 1.0, 0.125, &mut s);
        let mut a = proto.clone();
        out.push(time_passes("cs_heavy_hitters", "sequential", n, light.len(), passes, || {
            for u in light {
                a.update(u.index, u.delta);
            }
        }));
        let mut b = proto;
        out.push(time_passes("cs_heavy_hitters", "batched", n, light.len(), passes, || {
            for chunk in light.chunks(DEFAULT_BATCH_SIZE) {
                b.process_batch(chunk);
            }
        }));
    }

    out
}

/// The shard counts Experiment E14 sweeps.
pub const ENGINE_SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn shard_mode(shards: usize) -> &'static str {
    match shards {
        1 => "shards-1",
        2 => "shards-2",
        4 => "shards-4",
        8 => "shards-8",
        other => panic!("unsupported shard count {other} (extend ENGINE_SHARD_COUNTS)"),
    }
}

/// Experiment E14: multi-core scaling of the `lps-engine` sharded ingestion
/// pipeline for the two structures whose per-update work dominates the
/// engine's distribution overhead — sparse recovery and the Theorem 2 L0
/// sampler. Each configuration pushes the same workload through
/// [`parallel_ingest`] at 1/2/4/8 shards; `shards-1` is the engine's own
/// single-worker baseline, so the ratios isolate thread scaling from engine
/// overhead. Speedup requires physical cores (see the `host_cpus` stamp in
/// the JSON document).
pub fn engine_scaling_suite(quick: bool) -> Vec<ThroughputRecord> {
    let n: u64 = 1 << 20;
    let heavy_updates: usize = if quick { 100_000 } else { 1_000_000 };
    let batch = workload(n, heavy_updates, 0xE14);
    let passes = if quick { QUICK_PASSES } else { 1 };
    let mut out = Vec::new();

    {
        let mut s = SeedSequence::new(14);
        let proto = SparseRecovery::new(n, 8, &mut s);
        for shards in ENGINE_SHARD_COUNTS {
            out.push(time_passes(
                "sparse_recovery",
                shard_mode(shards),
                n,
                batch.len(),
                passes,
                || {
                    let merged = parallel_ingest(&proto, &batch, shards);
                    std::hint::black_box(&merged);
                },
            ));
        }
    }
    {
        let mut s = SeedSequence::new(15);
        let proto = L0Sampler::new(n, 0.25, &mut s);
        for shards in ENGINE_SHARD_COUNTS {
            out.push(time_passes("l0_sampler", shard_mode(shards), n, batch.len(), passes, || {
                let merged = parallel_ingest(&proto, &batch, shards);
                std::hint::black_box(&merged);
            }));
        }
    }
    out
}

/// Speedup of `mode_a` over `mode_b` for a structure, if both were measured.
pub fn speedup(
    records: &[ThroughputRecord],
    structure: &str,
    fast: &str,
    slow: &str,
) -> Option<f64> {
    let rate = |mode: &str| {
        records
            .iter()
            .find(|r| r.structure == structure && r.mode == mode)
            .map(|r| r.updates_per_sec)
    };
    Some(rate(fast)? / rate(slow)?)
}

/// Render the E14 engine scaling records as an experiment table: one row per
/// (structure, shard count), with the speedup over the engine's own
/// single-shard configuration.
pub fn engine_scaling_table(records: &[ThroughputRecord], host_cpus: usize) -> Table {
    let mut table = Table::new(
        &format!(
            "E14: sharded ingestion engine scaling (updates/sec; host_cpus = {host_cpus}, \
             speedup is vs shards-1)"
        ),
        &["structure", "shards", "log2(n)", "updates", "updates_per_sec", "speedup_vs_1shard"],
    );
    for r in records {
        let vs_one = speedup(records, r.structure, r.mode, "shards-1").unwrap_or(1.0);
        table.row(&[
            r.structure.to_string(),
            r.mode.trim_start_matches("shards-").to_string(),
            int((r.dimension as f64).log2() as u64),
            int(r.updates),
            f1(r.updates_per_sec),
            format!("{vs_one:.2}"),
        ]);
    }
    table
}

/// Render the records as an experiment table.
pub fn throughput_table(records: &[ThroughputRecord]) -> Table {
    let mut table = Table::new(
        "E13: update-path throughput (updates/sec; reference = pre-optimization path)",
        &["structure", "mode", "log2(n)", "updates", "updates_per_sec", "speedup_vs_seq"],
    );
    for r in records {
        let vs_seq = speedup(records, r.structure, r.mode, "sequential").unwrap_or(1.0);
        table.row(&[
            r.structure.to_string(),
            r.mode.to_string(),
            int((r.dimension as f64).log2() as u64),
            int(r.updates),
            f1(r.updates_per_sec),
            format!("{vs_seq:.2}"),
        ]);
    }
    table
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The headline ratio names and the (structure, fast mode, slow mode)
/// triples they are computed from. The first four are the E13 single-thread
/// speedups over the pre-optimization reference path; the next two are the
/// E14 engine scaling ratios (4 shards vs 1 shard); the last two are the
/// E17 lane-kernel speedups ([`crate::kernels`]) for the two hottest field
/// kernels — polynomial hashing and the windowed fingerprint powers.
pub const HEADLINE_RATIOS: [(&str, &str, &str, &str); 8] = [
    ("sparse_recovery_batched_vs_reference", "sparse_recovery", "batched", "reference"),
    ("l0_sampler_batched_vs_reference", "l0_sampler", "batched", "reference"),
    ("sparse_recovery_sequential_vs_reference", "sparse_recovery", "sequential", "reference"),
    ("l0_sampler_sequential_vs_reference", "l0_sampler", "sequential", "reference"),
    ("sparse_recovery_4shard_vs_1shard", "sparse_recovery", "shards-4", "shards-1"),
    ("l0_sampler_4shard_vs_1shard", "l0_sampler", "shards-4", "shards-1"),
    ("kernel_horner_k4_lanes_vs_scalar", "horner_k4", "lanes", "scalar"),
    ("kernel_pow_window_lanes_vs_scalar", "pow_window", "lanes", "scalar"),
];

/// The headline ratios the CI perf gate enforces. The shard-scaling ratios
/// are stamped into the artifact but *not* gated: they measure how many
/// physical cores the host exposes at least as much as they measure the
/// code, so gating them would make CI verdicts depend on runner hardware.
pub const GATED_HEADLINE_KEYS: [&str; 4] = [
    "sparse_recovery_batched_vs_reference",
    "l0_sampler_batched_vs_reference",
    "sparse_recovery_sequential_vs_reference",
    "l0_sampler_sequential_vs_reference",
];

/// Compute every headline ratio from a record set (`None` when one side was
/// not measured or the ratio is non-finite).
pub fn headline_ratios(records: &[ThroughputRecord]) -> Vec<(&'static str, Option<f64>)> {
    HEADLINE_RATIOS
        .iter()
        .map(|&(key, structure, fast, slow)| {
            let v = speedup(records, structure, fast, slow).filter(|v| v.is_finite());
            (key, v)
        })
        .collect()
}

/// Provenance stamped into `BENCH_samplers.json` so the artifact trajectory
/// across PRs stays interpretable: which commit produced the numbers, how
/// many CPUs the host exposed (shard scaling is meaningless without it), and
/// which shard counts E14 swept.
#[derive(Debug, Clone)]
pub struct BenchMeta {
    /// `git rev-parse --short=12 HEAD`, suffixed `-dirty` when a tracked
    /// file other than `BENCH_samplers.json` differs from `HEAD` (see
    /// `commit_stamp`), or `"unknown"` outside a checkout.
    pub git_commit: String,
    /// `std::thread::available_parallelism()` on the measuring host.
    pub host_cpus: usize,
    /// The shard counts the engine scaling records cover.
    pub shard_counts: Vec<usize>,
    /// The runner class measuring (from `LPS_RUNNER_CLASS`, e.g.
    /// `github-ubuntu-latest`; `"unspecified"` when unset). Per-class
    /// quick-mode baselines live under `ci/perf-baselines/<class>.json`, so
    /// the gate compares like hardware against like hardware and quick mode
    /// against quick mode.
    pub runner_class: String,
}

/// The artifact `bench --json` rewrites, so its own change never marks a
/// tree dirty: CI's perf gate runs `bench --json` twice in one checkout.
const ARTIFACT: &str = "BENCH_samplers.json";

/// The commit stamp for `commit`, given `changed`, the output of `git diff
/// --name-only HEAD` (the tracked files that differ from `HEAD`, one path
/// per line): `commit` itself when only [`ARTIFACT`] changed, or nothing
/// did, and `commit-dirty` otherwise.
fn commit_stamp(commit: &str, changed: &str) -> String {
    if changed.lines().any(|path| !path.is_empty() && path != ARTIFACT) {
        format!("{commit}-dirty")
    } else {
        commit.to_string()
    }
}

/// The trimmed standard output of `git args`, if it succeeds.
fn git(args: &[&str]) -> Option<String> {
    std::process::Command::new("git")
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
}

impl BenchMeta {
    /// Collect the metadata from the current environment.
    pub fn collect() -> Self {
        let git_commit = git(&["rev-parse", "--short=12", "HEAD"])
            .filter(|s| !s.is_empty())
            .map(|commit| {
                let changed = git(&["diff", "--name-only", "HEAD"]).unwrap_or_default();
                commit_stamp(&commit, &changed)
            })
            .unwrap_or_else(|| "unknown".to_string());
        let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let runner_class =
            std::env::var("LPS_RUNNER_CLASS").unwrap_or_else(|_| "unspecified".to_string());
        BenchMeta {
            git_commit,
            host_cpus,
            shard_counts: ENGINE_SHARD_COUNTS.to_vec(),
            runner_class,
        }
    }
}

/// Serialize the suite to the `BENCH_samplers.json` document (no external
/// JSON dependency is available in the build environment, so the writer is
/// hand-rolled; the format is plain flat JSON). `registry` holds the E15
/// multi-tenant records ([`crate::e_registry`]); pass an empty slice when
/// the registry suite was not part of the run.
pub fn to_json(
    records: &[ThroughputRecord],
    registry: &[crate::e_registry::RegistryRecord],
    quick: bool,
    meta: &BenchMeta,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"update_throughput\",\n");
    out.push_str(&format!("  \"mode\": \"{}\",\n", if quick { "quick" } else { "full" }));
    out.push_str(
        "  \"command\": \"cargo run --release -p lps-bench --bin experiments -- bench --json\",\n",
    );
    out.push_str(&format!("  \"git_commit\": \"{}\",\n", json_escape(&meta.git_commit)));
    out.push_str(&format!("  \"host_cpus\": {},\n", meta.host_cpus));
    out.push_str(&format!("  \"runner_class\": \"{}\",\n", json_escape(&meta.runner_class)));
    let shard_list = meta.shard_counts.iter().map(|s| s.to_string()).collect::<Vec<_>>().join(", ");
    out.push_str(&format!("  \"engine_shard_counts\": [{shard_list}],\n"));
    // absent (or non-finite) ratios serialize as null, never as a bare NaN
    // token that would make the whole document unparseable
    out.push_str("  \"headline\": {\n");
    let ratios = headline_ratios(records);
    for (i, (key, value)) in ratios.iter().enumerate() {
        let rendered = match value {
            Some(v) => format!("{v:.3}"),
            None => "null".to_string(),
        };
        let comma = if i + 1 == ratios.len() { "" } else { "," };
        out.push_str(&format!("    \"{key}\": {rendered}{comma}\n"));
    }
    out.push_str("  },\n");
    // the E15 multi-tenant registry scenarios: tenants/sec, eviction rate,
    // and the resident-memory stamp alongside the raw throughput records
    out.push_str("  \"registry\": [\n");
    for (i, r) in registry.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"tenants\": {}, \"tenants_touched\": {}, \"updates\": {}, \"elapsed_ns\": {}, \"updates_per_sec\": {:.1}, \"tenants_per_sec\": {:.1}, \"evictions\": {}, \"restores\": {}, \"materializations\": {}, \"eviction_rate\": {:.6}, \"max_resident\": {}, \"resident_bytes\": {}}}{}\n",
            json_escape(r.scenario),
            r.tenants,
            r.tenants_touched,
            r.updates,
            r.elapsed_ns,
            r.updates_per_sec,
            r.tenants_per_sec,
            r.evictions,
            r.restores,
            r.materializations,
            r.eviction_rate,
            r.max_resident,
            r.resident_bytes,
            if i + 1 == registry.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"structure\": \"{}\", \"mode\": \"{}\", \"dimension\": {}, \"updates\": {}, \"elapsed_ns\": {}, \"updates_per_sec\": {:.1}}}{}\n",
            json_escape(r.structure),
            json_escape(r.mode),
            r.dimension,
            r.updates,
            r.elapsed_ns,
            r.updates_per_sec,
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Extract the `"headline"` ratios from a `BENCH_samplers.json` document.
///
/// The workspace has no JSON dependency, so this is a purpose-built scanner
/// for the flat document [`to_json`] writes: it locates the `"headline"`
/// object and reads its `"key": number` pairs (`null` entries are skipped).
pub fn parse_headline(json: &str) -> Vec<(String, f64)> {
    let Some(start) = json.find("\"headline\"") else {
        return Vec::new();
    };
    let Some(open) = json[start..].find('{') else {
        return Vec::new();
    };
    let body_start = start + open + 1;
    let Some(close) = json[body_start..].find('}') else {
        return Vec::new();
    };
    let body = &json[body_start..body_start + close];
    let mut out = Vec::new();
    for entry in body.split(',') {
        let mut parts = entry.splitn(2, ':');
        let (Some(raw_key), Some(raw_value)) = (parts.next(), parts.next()) else {
            continue;
        };
        let key = raw_key.trim().trim_matches('"');
        if key.is_empty() {
            continue;
        }
        if let Ok(value) = raw_value.trim().parse::<f64>() {
            out.push((key.to_string(), value));
        }
    }
    out
}

/// Extract a top-level string field (e.g. `"mode"`, `"runner_class"`) from a
/// benchmark JSON document.
fn parse_string_field(json: &str, field: &str) -> Option<String> {
    let needle = format!("\"{field}\":");
    let start = json.find(&needle)?;
    let rest = &json[start + needle.len()..];
    let open = rest.find('"')?;
    let rest = &rest[open + 1..];
    let close = rest.find('"')?;
    Some(rest[..close].to_string())
}

/// Extract the top-level `"mode"` stamp (`"quick"` / `"full"`) from a
/// `BENCH_samplers.json` document, so the gate can tell the operator when a
/// quick-mode run is being compared against a full-mode baseline.
pub fn parse_mode(json: &str) -> Option<String> {
    parse_string_field(json, "mode")
}

/// Extract the top-level `"runner_class"` stamp, so the gate can tell the
/// operator when the baseline was measured on different hardware than the
/// current run (older documents lack the stamp; `None` then).
pub fn parse_runner_class(json: &str) -> Option<String> {
    parse_string_field(json, "runner_class")
}

/// The default regression tolerance of the CI perf gate: fail when a gated
/// headline ratio drops more than 30% below the committed baseline.
pub const GATE_TOLERANCE: f64 = 0.30;

/// The runner-class stamp of the seed baseline: the quick-mode numbers
/// necessarily measured inside the 1-CPU dev container before any real CI
/// runner had produced an artifact. Comparisons against it are valid
/// (ratios are dimensionless) but noisier than same-hardware comparisons.
pub const SEED_RUNNER_CLASS: &str = "dev-container-seed";

/// Actionable regeneration instructions when a baseline still carries the
/// seed provenance ([`SEED_RUNNER_CLASS`]): which CI artifact to download
/// and where to commit it. `None` for baselines measured on real runners.
pub fn seed_baseline_advice(baseline_runner_class: &str) -> Option<String> {
    (baseline_runner_class == SEED_RUNNER_CLASS).then(|| {
        format!(
            "perf gate note: this baseline still carries the seed provenance \
             (runner_class '{SEED_RUNNER_CLASS}', measured in the 1-CPU dev container).\n\
             To regenerate it from real runner hardware:\n\
             1. open any CI run of the 'quick bench + perf gate' job (it runs with \
             LPS_RUNNER_CLASS=github-ubuntu-latest),\n\
             2. download its 'BENCH_samplers' artifact (BENCH_samplers.json),\n\
             3. commit that file over ci/perf-baselines/github-ubuntu-latest.json.\n\
             The gate will then compare like hardware against like hardware and this \
             note disappears."
        )
    })
}

/// Compare freshly measured headline ratios against a committed baseline
/// document. Returns `Ok` with one human-readable line per gated key, or
/// `Err` with the offending lines when any gated ratio regressed by more
/// than `tolerance` (a fraction, e.g. 0.30 for 30%).
///
/// Only [`GATED_HEADLINE_KEYS`] participate; keys missing from either side
/// are reported but never fail the gate (a brand-new baseline should not
/// brick CI). Improvements never fail.
pub fn check_headline_regression(
    fresh: &[(&'static str, Option<f64>)],
    baseline: &[(String, f64)],
    tolerance: f64,
) -> Result<Vec<String>, Vec<String>> {
    let mut report = Vec::new();
    let mut failures = Vec::new();
    for key in GATED_HEADLINE_KEYS {
        let fresh_value = fresh.iter().find(|(k, _)| *k == key).and_then(|(_, v)| *v);
        let base_value = baseline.iter().find(|(k, _)| k == key).map(|(_, v)| *v);
        match (fresh_value, base_value) {
            (Some(f), Some(b)) => {
                let floor = b * (1.0 - tolerance);
                let change = (f / b - 1.0) * 100.0;
                let line = format!(
                    "{key}: fresh {f:.3} vs baseline {b:.3} ({change:+.1}%, floor {floor:.3})"
                );
                if f < floor {
                    failures.push(format!("REGRESSION {line}"));
                } else {
                    report.push(format!("ok {line}"));
                }
            }
            (None, _) => report.push(format!("skip {key}: not measured in this run")),
            (_, None) => report.push(format!("skip {key}: absent from baseline")),
        }
    }
    if failures.is_empty() {
        Ok(report)
    } else {
        failures.extend(report);
        Err(failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_stamp_marks_a_dirty_tree_but_not_the_rewritten_artifact() {
        assert_eq!(commit_stamp("a809b3bde5c6", ""), "a809b3bde5c6", "clean tree");
        assert_eq!(
            commit_stamp("a809b3bde5c6", "BENCH_samplers.json\n"),
            "a809b3bde5c6",
            "only the artifact changed"
        );
        assert_eq!(
            commit_stamp("a809b3bde5c6", "BENCH_samplers.json\ncrates/engine/src/pool.rs\n"),
            "a809b3bde5c6-dirty",
            "a source file changed"
        );
    }

    #[test]
    fn workload_is_deterministic_and_in_range() {
        let a = workload(1 << 10, 500, 7);
        let b = workload(1 << 10, 500, 7);
        assert_eq!(a, b);
        assert!(a.iter().all(|u| u.index < (1 << 10) && u.delta != 0));
    }

    #[test]
    fn json_writer_produces_balanced_document() {
        let records = vec![
            ThroughputRecord {
                structure: "sparse_recovery",
                mode: "reference",
                dimension: 1 << 10,
                updates: 100,
                elapsed_ns: 2_000_000,
                updates_per_sec: 50_000.0,
            },
            ThroughputRecord {
                structure: "sparse_recovery",
                mode: "batched",
                dimension: 1 << 10,
                updates: 100,
                elapsed_ns: 400_000,
                updates_per_sec: 250_000.0,
            },
        ];
        let meta = BenchMeta {
            git_commit: "abc123def456".to_string(),
            host_cpus: 4,
            shard_counts: vec![1, 2, 4, 8],
            runner_class: "github-ubuntu-latest".to_string(),
        };
        let registry = vec![crate::e_registry::RegistryRecord {
            scenario: "registry-memspill",
            tenants: 100_000,
            tenants_touched: 20_000,
            updates: 60_000,
            elapsed_ns: 1_000_000_000,
            updates_per_sec: 60_000.0,
            tenants_per_sec: 20_000.0,
            evictions: 15_000,
            restores: 9_000,
            materializations: 120,
            eviction_rate: 0.25,
            max_resident: 4096,
            resident_bytes: 1 << 20,
        }];
        let json = to_json(&records, &registry, true, &meta);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"sparse_recovery_batched_vs_reference\": 5.000"));
        // the E15 registry block carries the tenant-fleet stamps
        assert!(json.contains("\"registry\": ["));
        assert!(json.contains("\"scenario\": \"registry-memspill\""));
        assert!(json.contains("\"tenants_per_sec\": 20000.0"));
        assert!(json.contains("\"eviction_rate\": 0.250000"));
        assert!(json.contains("\"max_resident\": 4096"));
        // pairs missing from the records serialize as null, not NaN
        assert!(json.contains("\"sparse_recovery_sequential_vs_reference\": null"));
        assert!(json.contains("\"l0_sampler_batched_vs_reference\": null"));
        assert!(!json.contains("NaN"));
        assert!(json.contains("\"updates_per_sec\": 250000.0"));
        // provenance stamps
        assert!(json.contains("\"git_commit\": \"abc123def456\""));
        assert!(json.contains("\"host_cpus\": 4"));
        assert!(json.contains("\"runner_class\": \"github-ubuntu-latest\""));
        assert_eq!(parse_runner_class(&json).as_deref(), Some("github-ubuntu-latest"));
        assert!(json.contains("\"engine_shard_counts\": [1, 2, 4, 8]"));
        // the writer's own headline block round-trips through the parser
        let parsed = parse_headline(&json);
        assert_eq!(
            parsed,
            vec![("sparse_recovery_batched_vs_reference".to_string(), 5.0)],
            "only the non-null ratio should parse back"
        );
    }

    #[test]
    fn regression_gate_passes_and_fails_correctly() {
        let fresh: Vec<(&'static str, Option<f64>)> = vec![
            ("sparse_recovery_batched_vs_reference", Some(7.5)),
            ("l0_sampler_batched_vs_reference", Some(12.0)),
            ("sparse_recovery_sequential_vs_reference", Some(10.7)),
            ("l0_sampler_sequential_vs_reference", Some(13.1)),
        ];
        let baseline: Vec<(String, f64)> =
            fresh.iter().map(|(k, v)| (k.to_string(), v.unwrap())).collect();
        // identical numbers pass
        assert!(check_headline_regression(&fresh, &baseline, GATE_TOLERANCE).is_ok());
        // a 2x slowdown on one gated ratio fails
        let mut slowed = fresh.clone();
        slowed[0].1 = Some(7.5 / 2.0);
        let err = check_headline_regression(&slowed, &baseline, GATE_TOLERANCE).unwrap_err();
        assert!(err.iter().any(|l| l.starts_with("REGRESSION sparse_recovery_batched")));
        // a 29% drop stays within the 30% tolerance
        let mut borderline = fresh.clone();
        borderline[1].1 = Some(12.0 * 0.71);
        assert!(check_headline_regression(&borderline, &baseline, GATE_TOLERANCE).is_ok());
        // improvements never fail, missing keys are skipped not fatal
        let sparse_baseline = vec![("l0_sampler_batched_vs_reference".to_string(), 1.0)];
        assert!(check_headline_regression(&fresh, &sparse_baseline, GATE_TOLERANCE).is_ok());
    }

    #[test]
    fn seed_baseline_provenance_triggers_regeneration_advice() {
        let advice = seed_baseline_advice(SEED_RUNNER_CLASS).expect("seed provenance advises");
        assert!(advice.contains("BENCH_samplers"), "must name the CI artifact");
        assert!(advice.contains("LPS_RUNNER_CLASS=github-ubuntu-latest"), "must name the env");
        assert!(advice.contains("ci/perf-baselines/github-ubuntu-latest.json"));
        assert!(seed_baseline_advice("github-ubuntu-latest").is_none());
        assert!(seed_baseline_advice("unspecified").is_none());
    }

    #[test]
    fn parse_mode_reads_the_stamp() {
        assert_eq!(parse_mode("{\n  \"mode\": \"full\",\n}").as_deref(), Some("full"));
        assert_eq!(parse_mode("{\"mode\": \"quick\"}").as_deref(), Some("quick"));
        assert_eq!(parse_mode("{}"), None);
    }

    #[test]
    fn parse_headline_reads_the_committed_document_shape() {
        let doc = r#"{
  "benchmark": "update_throughput",
  "headline": {
    "sparse_recovery_batched_vs_reference": 7.568,
    "l0_sampler_batched_vs_reference": 12.033,
    "sparse_recovery_4shard_vs_1shard": null
  },
  "records": []
}"#;
        let parsed = parse_headline(doc);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "sparse_recovery_batched_vs_reference");
        assert!((parsed[0].1 - 7.568).abs() < 1e-9);
        assert!((parsed[1].1 - 12.033).abs() < 1e-9);
        assert!(parse_headline("{}").is_empty());
    }

    #[test]
    fn speedup_reads_the_right_pair() {
        let records = vec![
            ThroughputRecord {
                structure: "x",
                mode: "sequential",
                dimension: 4,
                updates: 1,
                elapsed_ns: 1,
                updates_per_sec: 10.0,
            },
            ThroughputRecord {
                structure: "x",
                mode: "batched",
                dimension: 4,
                updates: 1,
                elapsed_ns: 1,
                updates_per_sec: 30.0,
            },
        ];
        assert_eq!(speedup(&records, "x", "batched", "sequential"), Some(3.0));
        assert_eq!(speedup(&records, "x", "batched", "reference"), None);
    }
}
