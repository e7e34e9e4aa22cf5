//! Strategy-driven ingestion through the session API: the same stream
//! pushed through a round-robin plan (replicated shards, additive merge) and
//! a key-range plan (partitioned coordinate space, disjoint-union merge),
//! both landing bit-identically on the sequential state — plus an
//! approximate-tolerance plan unlocking a float structure.
//!
//! Run with `cargo run --release --example partitioned_ingest`.

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
    let updates = mixed_workload(n, 150_000, 0x4E7);
    let shards = 4;

    let mut seeds = SeedSequence::new(42);
    let proto = SparseRecovery::new(n, 8, &mut seeds);
    let mut sequential = proto.clone();
    sequential.process_batch(&updates);
    println!(
        "{} updates over n = 2^18, sequential digest {:#018x}",
        updates.len(),
        sequential.state_digest()
    );

    // --- strategy 1: round robin (replicated shards, additive merge) ---
    let mut session = EngineBuilder::new(&proto).shards(shards).session();
    session.ingest_blocking(&updates);
    let round_robin = session.seal().unwrap();
    assert_eq!(round_robin.state_digest(), sequential.state_digest());
    println!("round-robin  x{shards}: digest {:#018x} == sequential", round_robin.state_digest());

    // --- strategy 2: key range (partitioned space, disjoint-union merge) ---
    let plan = KeyRange::new(n, shards);
    let mut session = EngineBuilder::new(&proto).plan(plan).session();
    session.ingest_blocking(&updates);
    let key_range = session.seal().unwrap();
    assert_eq!(key_range.state_digest(), sequential.state_digest());
    println!("key-range    x{shards}: digest {:#018x} == sequential", key_range.state_digest());

    // --- float structures shard too, behind an explicit opt-in ---
    let mut seeds = SeedSequence::new(43);
    let pstable = PStableSketch::with_default_rows(n, 1.0, &mut seeds);
    let mut sequential_ps = pstable.clone();
    LinearSketch::process_batch(&mut sequential_ps, &updates);
    let mut session = EngineBuilder::new(&pstable).plan(KeyRange::approximate(n, shards)).session();
    session.ingest_blocking(&updates);
    let sharded_ps = session.seal().unwrap();
    let (a, b) = (sharded_ps.estimate(), sequential_ps.estimate());
    assert!((a - b).abs() <= 1e-9 * a.abs().max(b.abs()), "drift beyond the documented bound");
    println!(
        "p-stable L1 estimate under Tolerance::Approximate: sharded {a:.6} vs sequential {b:.6}"
    );

    println!("partitioning strategy is a pure performance choice: the bits agree");
}
