//! Parallel sharded ingestion: split one turnstile stream across worker
//! threads, each owning an identically-seeded clone of the sketch, and
//! tree-merge the shards into a state bit-identical to sequential ingestion
//! — plus an approximate-tolerance plan unlocking a float structure.
//!
//! Run with `cargo run --release --example parallel_ingest`.

use std::time::Instant;

use lp_samplers::prelude::*;

fn mixed_workload(n: u64, len: usize, seed: u64) -> Vec<Update> {
    let mut seeds = SeedSequence::new(seed);
    (0..len)
        .map(|_| {
            let delta = (seeds.next_below(9) as i64) - 4;
            Update::new(seeds.next_below(n), if delta == 0 { 1 } else { delta })
        })
        .collect()
}

fn main() {
    let n: u64 = 1 << 18;
    let updates = mixed_workload(n, 200_000, 0xD15);
    let cores = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1);
    println!("{} updates over n = 2^18, host exposes {cores} CPU(s)", updates.len());

    // --- sparse recovery: shard, merge, and prove bit-identical state ---
    let mut seeds = SeedSequence::new(42);
    let proto = SparseRecovery::new(n, 8, &mut seeds);

    let t = Instant::now();
    let mut sequential = proto.clone();
    sequential.process_batch(&updates);
    let seq_elapsed = t.elapsed();

    for shards in [1usize, 2, 4] {
        let t = Instant::now();
        let mut session = EngineBuilder::new(&proto).shards(shards).session();
        session.ingest_blocking(&updates);
        let merged = session.seal().unwrap();
        let elapsed = t.elapsed();
        assert_eq!(
            merged.state_digest(),
            sequential.state_digest(),
            "sharded state must be bit-identical to sequential"
        );
        println!(
            "sparse recovery, {shards} shard(s): {:>7.1?} (sequential {:.1?}), \
             state digest {:#018x} == sequential",
            elapsed,
            seq_elapsed,
            merged.state_digest()
        );
    }

    // --- the Theorem 2 L0 sampler: the sample survives sharding too ---
    let mut seeds = SeedSequence::new(43);
    let l0_proto = L0Sampler::new(n, 0.25, &mut seeds);
    let mut l0_seq = l0_proto.clone();
    l0_seq.process_batch(&updates);
    let l0_merged = parallel_ingest(&l0_proto, &updates, 4);
    assert_eq!(l0_merged.state_digest(), l0_seq.state_digest());
    match (l0_merged.sample(), l0_seq.sample()) {
        (Some(a), Some(b)) => {
            assert_eq!((a.index, a.estimate), (b.index, b.estimate));
            println!(
                "L0 sampler: 4-shard merge samples ({}, {}) — same as sequential",
                a.index, a.estimate
            );
        }
        (a, b) => {
            assert_eq!(a.is_some(), b.is_some());
            println!("L0 sampler: both parallel and sequential failed on this instance");
        }
    }

    // --- float structures shard too, behind an explicit opt-in ---
    let mut seeds = SeedSequence::new(44);
    let pstable = PStableSketch::with_default_rows(n, 1.0, &mut seeds);
    let mut sequential_ps = pstable.clone();
    LinearSketch::process_batch(&mut sequential_ps, &updates);
    let mut session = EngineBuilder::new(&pstable).plan(RoundRobin::approximate(4)).session();
    session.ingest_blocking(&updates);
    let sharded_ps = session.seal().unwrap();
    let (a, b) = (sharded_ps.estimate(), sequential_ps.estimate());
    assert!((a - b).abs() <= 1e-9 * a.abs().max(b.abs()), "drift beyond the documented bound");
    println!(
        "p-stable L1 estimate under Tolerance::Approximate: sharded {a:.6} vs sequential {b:.6}"
    );

    println!("parallel ingestion is exact: linear sketches make sharding free of error");
}
