//! Parallel-vs-sequential equivalence, pinned at the bit level for every
//! exact-arithmetic structure the engine supports: for any update stream
//! and any shard count, round-robin ingestion followed by the additive tree
//! merge must reproduce the sequential state digest exactly. This identity (sequential == sharded) is the contract
//! that makes the shard count a pure performance choice: it changes
//! wall-clock time and nothing else.

use lps_core::{FisL0Sampler, L0Sampler, LpSampler};
use lps_engine::{parallel_ingest, EngineBuilder, ShardIngest};
use lps_hash::SeedSequence;
use lps_sketch::{
    AmsSketch, CountMedianSketch, CountMinSketch, CountSketch, LinearSketch, SparseRecovery,
};
use lps_stream::Update;
use proptest::prelude::*;

const DIM: u64 = 512;

fn updates_strategy(max_len: usize) -> impl Strategy<Value = Vec<(u64, i64)>> {
    prop::collection::vec((0..DIM, -30i64..30), 0..max_len)
}

fn to_updates(updates: &[(u64, i64)]) -> Vec<Update> {
    updates.iter().map(|&(i, d)| Update::new(i, d)).collect()
}

/// Sequential ingestion state vs session state at `shards` shards,
/// bit-compared through the state digest.
fn assert_sharded_equals_sequential<T, F>(
    proto: &T,
    sequential_ingest: F,
    ups: &[Update],
    shards: usize,
) where
    T: ShardIngest + 'static,
    F: FnOnce(&mut T, &[Update]),
{
    let mut sequential = proto.clone();
    sequential_ingest(&mut sequential, ups);

    // ragged dispatch batch size exercises uneven shard loads
    let mut round_robin = EngineBuilder::new(proto).shards(shards).batch_size(37).session();
    round_robin.ingest_blocking(ups);
    let round_robin = round_robin.seal().unwrap();
    assert_eq!(
        round_robin.state_digest(),
        sequential.state_digest(),
        "round-robin state diverged from sequential at {shards} shards"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sparse_recovery_equivalence(ups in updates_strategy(200), shards in 1usize..6, seed in any::<u64>()) {
        let mut seeds = SeedSequence::new(seed);
        let proto = SparseRecovery::new(DIM, 6, &mut seeds);
        assert_sharded_equals_sequential(&proto, |s, u| s.process_batch(u), &to_updates(&ups), shards);
    }

    #[test]
    fn l0_sampler_equivalence(ups in updates_strategy(150), shards in 1usize..6, seed in any::<u64>()) {
        let mut seeds = SeedSequence::new(seed);
        let proto = L0Sampler::new(DIM, 0.25, &mut seeds);
        assert_sharded_equals_sequential(&proto, LpSampler::process_batch, &to_updates(&ups), shards);
    }

    #[test]
    fn fis_l0_equivalence(ups in updates_strategy(100), shards in 1usize..6, seed in any::<u64>()) {
        let mut seeds = SeedSequence::new(seed);
        let proto = FisL0Sampler::new(DIM, &mut seeds);
        assert_sharded_equals_sequential(&proto, LpSampler::process_batch, &to_updates(&ups), shards);
    }

    #[test]
    fn count_sketch_equivalence(ups in updates_strategy(200), shards in 1usize..6, seed in any::<u64>()) {
        let mut seeds = SeedSequence::new(seed);
        let proto = CountSketch::new(DIM, 4, 5, &mut seeds);
        assert_sharded_equals_sequential(&proto, LinearSketch::process_batch, &to_updates(&ups), shards);
    }

    #[test]
    fn count_min_equivalence(ups in updates_strategy(200), shards in 1usize..6, seed in any::<u64>()) {
        let mut seeds = SeedSequence::new(seed);
        let proto = CountMinSketch::new(DIM, 32, 5, &mut seeds);
        assert_sharded_equals_sequential(&proto, |s, u| s.process_batch(u), &to_updates(&ups), shards);
    }

    #[test]
    fn count_median_equivalence(ups in updates_strategy(200), shards in 1usize..6, seed in any::<u64>()) {
        let mut seeds = SeedSequence::new(seed);
        let proto = CountMedianSketch::new(DIM, 32, 5, &mut seeds);
        assert_sharded_equals_sequential(&proto, LinearSketch::process_batch, &to_updates(&ups), shards);
    }

    #[test]
    fn ams_equivalence(ups in updates_strategy(150), shards in 1usize..6, seed in any::<u64>()) {
        let mut seeds = SeedSequence::new(seed);
        let proto = AmsSketch::new(DIM, 5, 4, &mut seeds);
        assert_sharded_equals_sequential(&proto, LinearSketch::process_batch, &to_updates(&ups), shards);
    }

    #[test]
    fn decoded_output_survives_sharding(ups in updates_strategy(40), shards in 2usize..6, seed in any::<u64>()) {
        // beyond state bits: the decoded answers agree too
        let mut seeds = SeedSequence::new(seed);
        let proto = SparseRecovery::new(DIM, 24, &mut seeds);
        let updates = to_updates(&ups);
        let mut sequential = proto.clone();
        sequential.process_batch(&updates);
        let merged = parallel_ingest(&proto, &updates, shards);
        prop_assert_eq!(merged.recover(), sequential.recover());
        let mut session = EngineBuilder::new(&proto).shards(shards).batch_size(5).session();
        session.ingest_blocking(&updates);
        prop_assert_eq!(session.seal().unwrap().recover(), sequential.recover());
    }
}
