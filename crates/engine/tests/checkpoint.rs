//! Checkpoint / restore / cross-process-merge equivalence for the engine:
//! every path through the plan-aware envelope codec must land on the same
//! bits as single-process sequential ingestion, and a checkpoint taken
//! under one shard plan must never be silently recombined under another.

use lps_core::L0Sampler;
use lps_engine::{
    merge_checkpointed, parallel_ingest, read_envelope, EngineBuilder, KeyRange, PlanStrategy,
    RoundRobin, Tolerance,
};
use lps_hash::SeedSequence;
use lps_sketch::{
    AmsSketch, CountMedianSketch, CountMinSketch, CountSketch, DecodeError, LinearSketch,
    Mergeable, PStableSketch, Persist, SparseRecovery,
};
use lps_stream::Update;

fn workload(n: u64, len: usize, seed: u64) -> Vec<Update> {
    let mut s = SeedSequence::new(seed);
    (0..len)
        .map(|_| {
            let delta = (s.next_below(9) as i64) - 4;
            Update::new(s.next_below(n), if delta == 0 { 1 } else { delta })
        })
        .collect()
}

#[test]
fn checkpointed_shards_merge_to_the_sequential_digest_under_both_plans() {
    let mut seeds = SeedSequence::new(1);
    let proto = SparseRecovery::new(1 << 12, 8, &mut seeds);
    let updates = workload(1 << 12, 5000, 2);
    let mut sequential = proto.clone();
    sequential.process_batch(&updates);

    for shards in [1, 2, 3, 4] {
        let mut session = EngineBuilder::new(&proto).shards(shards).session();
        session.ingest_blocking(&updates);
        let encoded = session.checkpoint().unwrap();
        assert_eq!(encoded.len(), shards);
        let merged: SparseRecovery = merge_checkpointed(&encoded).expect("round-robin merge");
        assert_eq!(
            merged.state_digest(),
            sequential.state_digest(),
            "round-robin digest mismatch at {shards} shards"
        );

        let mut session = EngineBuilder::new(&proto).plan(KeyRange::new(1 << 12, shards)).session();
        session.ingest_blocking(&updates);
        let encoded = session.checkpoint().unwrap();
        let merged: SparseRecovery = merge_checkpointed(&encoded).expect("key-range merge");
        assert_eq!(
            merged.state_digest(),
            sequential.state_digest(),
            "key-range digest mismatch at {shards} shards"
        );
        assert_eq!(merged.recover(), sequential.recover());
    }
}

#[test]
fn resume_continues_exactly_where_the_checkpoint_stopped() {
    let mut seeds = SeedSequence::new(3);
    let proto = CountMinSketch::new(1 << 10, 64, 5, &mut seeds);
    let updates = workload(1 << 10, 6000, 4);
    let (first_half, second_half) = updates.split_at(updates.len() / 2);
    let mut sequential = proto.clone();
    sequential.process_batch(&updates);

    // round robin, through the builder/session checkpoint surface
    let merged = {
        let mut session = EngineBuilder::new(&proto).shards(3).batch_size(128).session();
        session.ingest_blocking(first_half);
        let encoded = session.checkpoint().unwrap();
        let mut resumed: lps_engine::IngestSession<CountMinSketch, RoundRobin> =
            EngineBuilder::new(&proto).shards(3).batch_size(128).resume(&encoded).expect("resume");
        resumed.ingest_blocking(second_half);
        resumed.seal().unwrap()
    };
    assert_eq!(merged.state_digest(), sequential.state_digest());

    // key range, through the builder/session surface
    let plan = KeyRange::new(1 << 10, 3);
    let mut session = EngineBuilder::new(&proto).plan(plan.clone()).batch_size(128).session();
    session.ingest_blocking(first_half);
    let encoded = session.checkpoint().unwrap();
    let mut resumed =
        EngineBuilder::new(&proto).plan(plan).batch_size(128).resume(&encoded).expect("resume");
    resumed.ingest_blocking(second_half);
    assert_eq!(resumed.seal().unwrap().state_digest(), sequential.state_digest());
}

#[test]
fn merge_checkpointed_covers_every_exact_structure() {
    let n = 1 << 10;
    let updates = workload(n, 4000, 5);
    let mut seeds = SeedSequence::new(6);

    macro_rules! check {
        ($proto:expr, $ty:ty, $ingest:expr) => {{
            let proto = $proto;
            let mut sequential = proto.clone();
            let ingest: fn(&mut $ty, &[Update]) = $ingest;
            ingest(&mut sequential, &updates);
            for encoded in [
                {
                    let mut s = EngineBuilder::new(&proto).shards(4).session();
                    s.ingest_blocking(&updates);
                    s.checkpoint().unwrap()
                },
                {
                    let mut s = EngineBuilder::new(&proto).plan(KeyRange::new(n, 4)).session();
                    s.ingest_blocking(&updates);
                    s.checkpoint().unwrap()
                },
            ] {
                let merged: $ty = merge_checkpointed(&encoded).expect("merge");
                assert_eq!(merged.state_digest(), sequential.state_digest());
            }
        }};
    }

    check!(SparseRecovery::new(n, 8, &mut seeds), SparseRecovery, |s, u| s.process_batch(u));
    check!(L0Sampler::new(n, 0.25, &mut seeds), L0Sampler, |s, u| {
        lps_core::LpSampler::process_batch(s, u)
    });
    check!(CountSketch::with_default_rows(n, 8, &mut seeds), CountSketch, |s, u| {
        LinearSketch::process_batch(s, u)
    });
    check!(CountMinSketch::new(n, 64, 5, &mut seeds), CountMinSketch, |s, u| s.process_batch(u));
    check!(CountMedianSketch::new(n, 64, 5, &mut seeds), CountMedianSketch, |s, u| {
        LinearSketch::process_batch(s, u)
    });
    check!(AmsSketch::with_default_shape(n, &mut seeds), AmsSketch, |s, u| {
        LinearSketch::process_batch(s, u)
    });
}

#[test]
fn key_range_checkpoint_cannot_be_resumed_round_robin() {
    let mut seeds = SeedSequence::new(7);
    let proto = SparseRecovery::new(1 << 10, 6, &mut seeds);
    let updates = workload(1 << 10, 2000, 8);

    let mut session = EngineBuilder::new(&proto).plan(KeyRange::new(1 << 10, 3)).session();
    session.ingest_blocking(&updates);
    let encoded = session.checkpoint().unwrap();

    // the envelope stamps the producing strategy…
    let (envelope, _) = read_envelope(&encoded[0]).expect("read envelope");
    assert_eq!(envelope.strategy, PlanStrategy::KeyRange);
    assert_eq!(envelope.tolerance, Tolerance::Exact);
    assert_eq!(envelope.shard_count, 3);
    assert!(envelope.range.is_some());

    // …so a round-robin resume is rejected as typed, not absorbed
    let err = EngineBuilder::<SparseRecovery, _>::new(&proto)
        .shards(3)
        .resume(&encoded)
        .expect_err("key-range checkpoint must not resume round-robin");
    assert_eq!(err, DecodeError::PlanMismatch { expected: "round_robin", found: "key_range" });

    // and the right plan accepts it
    let resumed = EngineBuilder::new(&proto)
        .plan(KeyRange::new(1 << 10, 3))
        .resume(&encoded)
        .expect("matching plan resumes");
    let _ = resumed.seal().unwrap();
}

#[test]
fn approximate_checkpoint_cannot_be_resumed_under_an_exact_plan() {
    let mut seeds = SeedSequence::new(11);
    let proto = PStableSketch::with_default_rows(1 << 10, 1.0, &mut seeds);
    let updates = workload(1 << 10, 2000, 12);

    let mut session = EngineBuilder::new(&proto).plan(RoundRobin::approximate(2)).session();
    session.ingest_blocking(&updates);
    let encoded = session.checkpoint().unwrap();
    let (envelope, _) = read_envelope(&encoded[0]).expect("read envelope");
    assert_eq!(envelope.tolerance, Tolerance::Approximate);

    // a default (exact) resume would panic at session spawn for a float
    // structure — the envelope's tolerance marker rejects it as typed first
    let err = EngineBuilder::<PStableSketch, _>::new(&proto)
        .shards(2)
        .resume(&encoded)
        .expect_err("approximate checkpoint must not resume under an exact plan");
    assert_eq!(
        err,
        DecodeError::PlanMismatch { expected: "exact tolerance", found: "approximate tolerance" }
    );

    // the explicit opt-in plan resumes fine
    let resumed = EngineBuilder::new(&proto)
        .plan(RoundRobin::approximate(2))
        .resume(&encoded)
        .expect("matching tolerance resumes");
    let _ = resumed.seal().unwrap();
}

#[test]
fn resume_rejects_disagreeing_key_ranges_and_mixed_strategies() {
    let mut seeds = SeedSequence::new(9);
    let proto = SparseRecovery::new(1 << 10, 6, &mut seeds);
    let updates = workload(1 << 10, 2000, 10);

    let mut session = EngineBuilder::new(&proto).plan(KeyRange::new(1 << 10, 2)).session();
    session.ingest_blocking(&updates);
    let encoded = session.checkpoint().unwrap();

    // same strategy, different boundaries: rejected before decoding counters
    let err = EngineBuilder::<SparseRecovery, _>::new(&proto)
        .plan(KeyRange::with_bounds(vec![0, 17, 1 << 10]))
        .resume(&encoded)
        .expect_err("boundary disagreement must be rejected");
    assert!(matches!(err, DecodeError::Corrupt { .. }));

    // mixing strategies inside one checkpoint set: rejected by the merge
    let mut rr = EngineBuilder::new(&proto).shards(2).session();
    rr.ingest_blocking(&updates);
    let rr_encoded = rr.checkpoint().unwrap();
    let mixed = vec![encoded[0].clone(), rr_encoded[1].clone()];
    let err = merge_checkpointed::<SparseRecovery>(&mixed)
        .expect_err("mixed strategies must be rejected");
    assert!(matches!(err, DecodeError::PlanMismatch { .. }));
}

#[test]
fn merge_checkpointed_rejects_mismatched_seeds_and_bare_buffers() {
    let updates = workload(512, 1000, 7);
    let mut s1 = SeedSequence::new(8);
    let mut s2 = SeedSequence::new(9); // different master seed
    let mk = |seeds: &mut SeedSequence| {
        let proto = SparseRecovery::new(512, 4, seeds);
        let mut session = EngineBuilder::new(&proto).shards(1).session();
        session.ingest_blocking(&updates);
        session.checkpoint().unwrap().remove(0)
    };
    let a = mk(&mut s1);
    let b = mk(&mut s2);
    // hand-build a two-shard set out of two singleton checkpoints: fix the
    // stamped shard counts so the seed comparison is what gets exercised
    let restamp = |mut buf: Vec<u8>, shard: u16, count: u16| {
        buf[8..10].copy_from_slice(&shard.to_le_bytes());
        buf[10..12].copy_from_slice(&count.to_le_bytes());
        buf
    };
    let err = merge_checkpointed::<SparseRecovery>(&[restamp(a.clone(), 0, 2), restamp(b, 1, 2)])
        .expect_err("differently-seeded shards must be rejected");
    assert_eq!(err, DecodeError::SeedMismatch { shard: 1 });

    // bare Persist buffers (no envelope) are refused by the checkpoint path
    let mut seeds = SeedSequence::new(10);
    let bare = SparseRecovery::new(512, 4, &mut seeds).encode_to_vec();
    assert!(matches!(
        merge_checkpointed::<SparseRecovery>(&[bare]),
        Err(DecodeError::BadMagic { .. })
    ));
    assert!(matches!(merge_checkpointed::<SparseRecovery>(&[]), Err(DecodeError::Corrupt { .. })));
}

#[test]
fn merge_checkpointed_agrees_with_in_process_seal() {
    // the two merge paths (session seal vs checkpoint→merge_checkpointed)
    // must be bit-identical, since they share the same deterministic tree
    let mut seeds = SeedSequence::new(13);
    let proto = L0Sampler::new(1 << 10, 0.25, &mut seeds);
    let updates = workload(1 << 10, 3000, 14);

    let in_process = parallel_ingest(&proto, &updates, 4);

    let mut session = EngineBuilder::new(&proto).shards(4).session();
    session.ingest_blocking(&updates);
    let cross: L0Sampler = merge_checkpointed(&session.checkpoint().unwrap()).unwrap();

    assert_eq!(in_process.state_digest(), cross.state_digest());
}
