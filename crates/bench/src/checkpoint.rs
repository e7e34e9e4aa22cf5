//! The `experiments -- checkpoint` subcommand: the end-to-end proof that
//! sketch state survives leaving the process.
//!
//! The flow is split into two phases that the CI cross-process job runs as
//! **separate OS processes**:
//!
//! 1. `experiments -- checkpoint --dir D [--shards K]` — for every
//!    exact-arithmetic engine structure, ingest a deterministic workload
//!    through a `K`-shard round-robin [`lps_engine::IngestSession`],
//!    checkpoint the un-merged shard states, and write one
//!    `<structure>.shard-<i>.lps` file per shard into `D`.
//! 2. `experiments -- checkpoint --merge --dir D` — in a *fresh process*,
//!    read the shard files back, combine them with
//!    [`lps_engine::merge_checkpointed`] (which validates the stamped plan
//!    and version/seed compatibility before merging), and compare the merged `Mergeable::state_digest` against sequential
//!    single-process ingestion of the same workload. Any digest mismatch
//!    exits non-zero.
//!
//! Everything is derived from fixed master seeds, so the two phases agree on
//! the workload and the sequential reference without sharing any state
//! beyond the shard files — exactly the situation of a distributed deployment
//! checkpointing shards on one set of machines and merging them on another.

use std::path::{Path, PathBuf};

use lps_engine::{merge_checkpointed, EngineBuilder, ShardIngest};
use lps_service::CatalogPrototypes;
use lps_sketch::Persist;
use lps_stream::Update;

use crate::throughput::workload;

/// Dimension of the checkpoint workload vector.
const CHECKPOINT_DIMENSION: u64 = 1 << 14;
/// Number of updates in the checkpoint workload.
const CHECKPOINT_UPDATES: usize = 60_000;
/// Master seed of the workload stream.
const WORKLOAD_SEED: u64 = 0xC4EC;
/// Master seed of [`CatalogPrototypes::standard`], which both phases build
/// the structures from: the service catalog's seven exact-arithmetic
/// [`ShardIngest`] implementors, whose cross-process merge must be
/// bit-identical to sequential ingestion.
const STRUCTURE_SEED: u64 = 0x5EED;

/// The deterministic workload both phases regenerate independently.
fn checkpoint_workload() -> Vec<Update> {
    workload(CHECKPOINT_DIMENSION, CHECKPOINT_UPDATES, WORKLOAD_SEED)
}

fn shard_file(dir: &Path, structure: &str, shard: usize) -> PathBuf {
    dir.join(format!("{structure}.shard-{shard}.lps"))
}

/// Outcome of one structure's write or merge phase, for the report table.
#[derive(Debug)]
pub struct CheckpointOutcome {
    /// Structure identifier (a name in [`lps_service::CATALOG_STRUCTURES`]).
    pub structure: &'static str,
    /// Digest of the merged (or, in the write phase, sequential) state.
    pub digest: u64,
    /// Total encoded bytes across the structure's shard files.
    pub bytes: u64,
    /// Whether the merged digest matched sequential ingestion (always true
    /// in the write phase, which records the expectation).
    pub matched: bool,
}

/// Ingest the workload through a `shards`-worker session and write one
/// plan-enveloped file per shard; returns the outcome (digest = sequential
/// reference the merge phase must reproduce).
fn write_one<T: ShardIngest + Persist + 'static>(
    structure: &'static str,
    proto: &T,
    updates: &[Update],
    shards: usize,
    dir: &Path,
) -> std::io::Result<CheckpointOutcome> {
    let mut session = EngineBuilder::new(proto).shards(shards).session();
    session.ingest_blocking(updates);
    let encoded = session.checkpoint().unwrap();
    let mut bytes = 0u64;
    for (i, buf) in encoded.iter().enumerate() {
        bytes += buf.len() as u64;
        std::fs::write(shard_file(dir, structure, i), buf)?;
    }
    // Remove stale higher-index shard files from a previous run with a
    // larger --shards count: the merge phase scans indices upward until the
    // first missing file, so a leftover shard would be seed-compatible
    // (same fixed master seed) and silently double-count its mass.
    for stale in encoded.len().. {
        let path = shard_file(dir, structure, stale);
        if !path.exists() {
            break;
        }
        std::fs::remove_file(path)?;
    }
    let mut sequential = proto.clone();
    sequential.ingest_batch(updates);
    Ok(CheckpointOutcome { structure, digest: sequential.state_digest(), bytes, matched: true })
}

/// Read a structure's shard files back, merge them across the process
/// boundary, and digest-compare against in-process sequential ingestion.
fn merge_one<T: ShardIngest + Persist + 'static>(
    structure: &'static str,
    proto: &T,
    updates: &[Update],
    dir: &Path,
) -> Result<CheckpointOutcome, String> {
    let mut encoded = Vec::new();
    for shard in 0.. {
        let path = shard_file(dir, structure, shard);
        if !path.exists() {
            break;
        }
        encoded.push(std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?);
    }
    if encoded.is_empty() {
        return Err(format!("no shard files for {structure} in {}", dir.display()));
    }
    let bytes = encoded.iter().map(|b| b.len() as u64).sum();
    let merged: T = merge_checkpointed(&encoded).map_err(|e| format!("merge {structure}: {e}"))?;
    let mut sequential = proto.clone();
    sequential.ingest_batch(updates);
    let digest = merged.state_digest();
    Ok(CheckpointOutcome { structure, digest, bytes, matched: digest == sequential.state_digest() })
}

/// Phase 1: checkpoint every structure's sharded ingestion into `dir`.
pub fn checkpoint_write(dir: &Path, shards: usize) -> std::io::Result<Vec<CheckpointOutcome>> {
    std::fs::create_dir_all(dir)?;
    let updates = checkpoint_workload();
    let protos = CatalogPrototypes::standard(CHECKPOINT_DIMENSION, STRUCTURE_SEED);
    Ok(vec![
        write_one("sparse_recovery", &protos.sparse_recovery, &updates, shards, dir)?,
        write_one("l0_sampler", &protos.l0_sampler, &updates, shards, dir)?,
        write_one("fis_l0", &protos.fis_l0, &updates, shards, dir)?,
        write_one("count_sketch", &protos.count_sketch, &updates, shards, dir)?,
        write_one("count_min", &protos.count_min, &updates, shards, dir)?,
        write_one("count_median", &protos.count_median, &updates, shards, dir)?,
        write_one("ams", &protos.ams, &updates, shards, dir)?,
    ])
}

/// Phase 2: merge the shard files in `dir` and digest-compare against
/// sequential ingestion. Returns one outcome per structure; `matched` tells
/// the caller whether to fail the process.
pub fn checkpoint_merge(dir: &Path) -> Result<Vec<CheckpointOutcome>, String> {
    let updates = checkpoint_workload();
    let protos = CatalogPrototypes::standard(CHECKPOINT_DIMENSION, STRUCTURE_SEED);
    Ok(vec![
        merge_one("sparse_recovery", &protos.sparse_recovery, &updates, dir)?,
        merge_one("l0_sampler", &protos.l0_sampler, &updates, dir)?,
        merge_one("fis_l0", &protos.fis_l0, &updates, dir)?,
        merge_one("count_sketch", &protos.count_sketch, &updates, dir)?,
        merge_one("count_min", &protos.count_min, &updates, dir)?,
        merge_one("count_median", &protos.count_median, &updates, dir)?,
        merge_one("ams", &protos.ams, &updates, dir)?,
    ])
}

/// Render outcomes as the console report both phases print.
pub fn render_outcomes(phase: &str, outcomes: &[CheckpointOutcome]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "checkpoint {phase}: n = {CHECKPOINT_DIMENSION}, {CHECKPOINT_UPDATES} updates\n"
    ));
    for o in outcomes {
        out.push_str(&format!(
            "  {:<16} digest {:016x}  {:>9} bytes  {}\n",
            o.structure,
            o.digest,
            o.bytes,
            if o.matched { "ok" } else { "DIGEST MISMATCH" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_merge_roundtrips_in_process() {
        let dir = std::env::temp_dir().join(format!("lps-checkpoint-test-{}", std::process::id()));
        let written = checkpoint_write(&dir, 3).expect("write phase");
        let names = lps_service::CATALOG_STRUCTURES.map(|(name, _)| name);
        assert!(written.iter().map(|w| w.structure).eq(names), "one outcome per catalog structure");
        let merged = checkpoint_merge(&dir).expect("merge phase");
        for (w, m) in written.iter().zip(merged.iter()) {
            assert_eq!(w.structure, m.structure);
            assert!(m.matched, "{} digest mismatch after disk round-trip", m.structure);
            assert_eq!(w.digest, m.digest, "{} sequential reference drifted", w.structure);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rewriting_with_fewer_shards_removes_stale_files() {
        // a second write with a smaller --shards count must not leave
        // higher-index shard files behind for the merge phase to absorb
        let dir = std::env::temp_dir().join(format!("lps-checkpoint-stale-{}", std::process::id()));
        checkpoint_write(&dir, 4).expect("first write");
        checkpoint_write(&dir, 2).expect("second write");
        assert!(!shard_file(&dir, "sparse_recovery", 2).exists(), "stale shard survived");
        let merged = checkpoint_merge(&dir).expect("merge after shrink");
        for m in merged {
            assert!(m.matched, "{} digest mismatch after shard-count shrink", m.structure);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_fails_cleanly_on_missing_directory() {
        let dir = std::env::temp_dir().join("lps-checkpoint-test-missing");
        std::fs::remove_dir_all(&dir).ok();
        assert!(checkpoint_merge(&dir).is_err());
    }
}
