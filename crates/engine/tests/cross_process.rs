//! A genuine cross-OS-process test of the persistence layer: the parent
//! test re-executes its own test binary as a **child process** that ingests
//! shards and writes their encoded states to disk; the parent then reads the
//! files, merges them with [`merge_checkpointed`] (after validating the
//! shard plan stamped in each envelope), and digest-compares against
//! sequential ingestion computed independently on its side.
//!
//! Both processes derive the workload and seeds from fixed constants, so the
//! only state crossing the boundary is the shard files — exactly the
//! contract of a distributed deployment. (CI additionally runs the
//! `experiments -- checkpoint` pipeline, which does the same through the
//! public CLI.)

use lps_core::{L0Sampler, LpSampler};
use lps_engine::{merge_checkpointed, EngineBuilder};
use lps_hash::SeedSequence;
use lps_sketch::{Mergeable, SparseRecovery};
use lps_stream::Update;

const DIMENSION: u64 = 1 << 12;
const UPDATES: usize = 8000;
const WORKLOAD_SEED: u64 = 0xAB5E;
const STRUCTURE_SEED: u64 = 0x51DE;
const SHARDS: usize = 3;
/// Environment variable carrying the shard-file directory to the child.
const DIR_VAR: &str = "LPS_CROSS_PROCESS_DIR";

fn workload() -> Vec<Update> {
    let mut s = SeedSequence::new(WORKLOAD_SEED);
    (0..UPDATES)
        .map(|_| {
            let delta = (s.next_below(9) as i64) - 4;
            Update::new(s.next_below(DIMENSION), if delta == 0 { 1 } else { delta })
        })
        .collect()
}

fn prototypes() -> (SparseRecovery, L0Sampler) {
    let mut seeds = SeedSequence::new(STRUCTURE_SEED);
    (SparseRecovery::new(DIMENSION, 8, &mut seeds), L0Sampler::new(DIMENSION, 0.25, &mut seeds))
}

/// Child-process half: when the directory variable is set, shard-ingest the
/// workload and write the encoded shard states. When run as a normal test
/// (variable absent) this is a no-op, so plain `cargo test` stays green.
#[test]
fn child_writes_shard_files() {
    let Ok(dir) = std::env::var(DIR_VAR) else {
        return;
    };
    let dir = std::path::PathBuf::from(dir);
    std::fs::create_dir_all(&dir).expect("create shard dir");
    let updates = workload();
    let (sparse, l0) = prototypes();

    // both structures' shards cross the process boundary behind their plan
    // envelopes
    let mut session = EngineBuilder::new(&sparse).shards(SHARDS).session();
    session.ingest_blocking(&updates);
    for (i, buf) in session.checkpoint().unwrap().iter().enumerate() {
        std::fs::write(dir.join(format!("sparse.shard-{i}.lps")), buf).expect("write shard");
    }
    let mut session = EngineBuilder::new(&l0).shards(SHARDS).session();
    session.ingest_blocking(&updates);
    for (i, buf) in session.checkpoint().unwrap().iter().enumerate() {
        std::fs::write(dir.join(format!("l0.shard-{i}.lps")), buf).expect("write shard");
    }
}

/// Parent-process half: spawn the child, read its shard files, merge across
/// the process boundary, and compare digests with sequential ingestion.
#[test]
fn merging_shards_from_another_process_reproduces_sequential_digests() {
    if std::env::var(DIR_VAR).is_ok() {
        // we *are* the child; only child_writes_shard_files should do work
        return;
    }
    let dir = std::env::temp_dir().join(format!("lps-cross-process-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let status = std::process::Command::new(std::env::current_exe().expect("test binary path"))
        .args(["--exact", "child_writes_shard_files", "--nocapture"])
        .env(DIR_VAR, &dir)
        .status()
        .expect("spawn child test process");
    assert!(status.success(), "child shard-writer process failed");

    let read_shards = |prefix: &str| -> Vec<Vec<u8>> {
        (0..SHARDS)
            .map(|i| {
                std::fs::read(dir.join(format!("{prefix}.shard-{i}.lps")))
                    .expect("read shard file written by the child process")
            })
            .collect()
    };

    let updates = workload();
    let (sparse_proto, l0_proto) = prototypes();

    let merged: SparseRecovery = merge_checkpointed(&read_shards("sparse")).expect("merge sparse");
    let mut sequential = sparse_proto.clone();
    sequential.process_batch(&updates);
    assert_eq!(merged.state_digest(), sequential.state_digest(), "sparse recovery digest");
    assert_eq!(merged.recover(), sequential.recover());

    let merged: L0Sampler = merge_checkpointed(&read_shards("l0")).expect("merge l0");
    let mut sequential = l0_proto.clone();
    sequential.process_batch(&updates);
    assert_eq!(merged.state_digest(), sequential.state_digest(), "l0 sampler digest");
    assert_eq!(merged.sample(), sequential.sample());

    std::fs::remove_dir_all(&dir).ok();
}
