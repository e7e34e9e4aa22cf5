//! Estimator-level bounds for the newly shardable float structures.
//!
//! The p-stable sketch, the precision/AKO samplers and both heavy-hitter
//! drivers hold dense `f64` counters, so sharding them reassociates
//! floating-point sums: the merged state is *not* bit-identical to
//! sequential ingestion (which is why they sit behind
//! `Tolerance::Approximate`). What linearity still guarantees — and what
//! these tests pin — is estimator-level agreement: each merged counter
//! differs from its sequential value by at most `~2kε` relative (`k` =
//! shard count, `ε = 2⁻⁵³`; Kahan compensation keeps the within-shard sums
//! exact to `O(ε)`), so estimates land within a tiny relative
//! tolerance of the sequential ones and threshold decisions with any margin
//! (heavy-hitter reports) are unchanged. The bounds asserted here (1e-9)
//! are ~6 orders of magnitude above the drift observed in
//! `tests/float_drift.rs`, and ~7 below any estimator's accuracy guarantee.
//!
//! Everything is deterministic (fixed seeds, fixed workload, fixed shard
//! count, fixed tree-merge association), so these are regression pins, not
//! flaky statistical tests.
//!
//! One shard reassociates nothing, so there the state must be
//! bit-identical — which also pins that the worker pool feeds a float
//! structure its updates in stream order instead of coalescing them.

use lps_core::{AkoSampler, LpSampler, PrecisionLpSampler};
use lps_engine::{EngineBuilder, RoundRobin, ShardIngest};
use lps_hash::SeedSequence;
use lps_heavy::{CountMinHeavyHitters, CountSketchHeavyHitters};
use lps_sketch::{LinearSketch, Mergeable, PStableSketch};
use lps_stream::Update;

const DIM: u64 = 1 << 12;
const REL_TOL: f64 = 1e-9;

/// A mixed workload with a few strong heavy hitters (indices 3, 700, 2900)
/// so threshold decisions have a wide margin.
fn workload(len: usize, seed: u64) -> Vec<Update> {
    let mut s = SeedSequence::new(seed);
    (0..len)
        .map(|i| {
            if i % 5 == 0 {
                Update::new([3, 700, 2900][i % 3], 25)
            } else {
                let delta = (s.next_below(9) as i64) - 4;
                Update::new(s.next_below(DIM), if delta == 0 { 1 } else { delta })
            }
        })
        .collect()
}

fn rel_close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
}

/// `ups` ingested by a 4-shard approximate-tolerance session, merged.
fn sharded<T: ShardIngest + 'static>(proto: &T, ups: &[Update]) -> T {
    let mut session = EngineBuilder::new(proto).plan(RoundRobin::approximate(4)).session();
    session.ingest_blocking(ups);
    session.seal().unwrap()
}

/// A one-shard session fed in ragged `ingest_blocking` pieces reaches the
/// sequential state bit for bit. Summing the deltas of a coordinate before
/// applying them changes a float structure's rounding (see
/// `PStableSketch::process_batch`): an estimate printed to full precision
/// does not show it, the state digest does.
#[test]
fn one_shard_float_sessions_match_sequential_bit_for_bit() {
    fn ragged<T: ShardIngest + 'static>(proto: &T, ups: &[Update]) -> u64 {
        let mut session = EngineBuilder::new(proto).plan(RoundRobin::approximate(1)).session();
        for piece in ups.chunks(701) {
            session.ingest_blocking(piece);
        }
        session.seal().unwrap().state_digest()
    }
    let ups = workload(20_000, 13);
    let mut seeds = SeedSequence::new(14);

    let proto = PStableSketch::with_default_rows(DIM, 1.0, &mut seeds);
    let mut sequential = proto.clone();
    LinearSketch::process_batch(&mut sequential, &ups);
    assert_eq!(ragged(&proto, &ups), sequential.state_digest(), "p-stable");

    let proto = PrecisionLpSampler::new(DIM, 1.0, 0.25, &mut seeds);
    let mut sequential = proto.clone();
    LpSampler::process_batch(&mut sequential, &ups);
    assert_eq!(ragged(&proto, &ups), sequential.state_digest(), "precision sampler");
}

#[test]
fn pstable_estimate_drift_is_bounded_under_both_plans() {
    let mut seeds = SeedSequence::new(1);
    let proto = PStableSketch::with_default_rows(DIM, 1.0, &mut seeds);
    let ups = workload(20_000, 2);
    let mut sequential = proto.clone();
    LinearSketch::process_batch(&mut sequential, &ups);

    let merged = sharded(&proto, &ups);
    assert!(
        rel_close(merged.estimate(), sequential.estimate(), REL_TOL),
        "sharded estimate {} drifted from sequential {}",
        merged.estimate(),
        sequential.estimate()
    );
}

#[test]
fn precision_sampler_recovery_drift_is_bounded() {
    let mut seeds = SeedSequence::new(3);
    let proto = PrecisionLpSampler::new(DIM, 1.0, 0.25, &mut seeds);
    let ups = workload(8_000, 4);
    let mut sequential = proto.clone();
    LpSampler::process_batch(&mut sequential, &ups);

    let merged = sharded(&proto, &ups);
    let (s, m) = (sequential.recovery_state(), merged.recovery_state());
    assert_eq!(s.best_index, m.best_index, "recovered index flipped");
    assert!(
        rel_close(s.best_zstar, m.best_zstar, REL_TOL),
        "z* {} drifted from sequential {}",
        m.best_zstar,
        s.best_zstar
    );
    assert!(rel_close(s.r, m.r, REL_TOL), "norm estimate drifted");
    assert!(rel_close(s.s, m.s, REL_TOL), "tail estimate drifted");
}

#[test]
fn ako_sampler_sample_survives_sharding() {
    let mut seeds = SeedSequence::new(5);
    let proto = AkoSampler::new(DIM, 1.0, 0.25, &mut seeds);
    let ups = workload(8_000, 6);
    let mut sequential = proto.clone();
    LpSampler::process_batch(&mut sequential, &ups);

    match (sequential.sample(), sharded(&proto, &ups).sample()) {
        (None, None) => {}
        (Some(s), Some(m)) => {
            assert_eq!(s.index, m.index, "sampled index flipped");
            assert!(rel_close(s.estimate, m.estimate, REL_TOL), "sampled estimate drifted");
        }
        (s, m) => panic!("sample presence flipped ({s:?} vs {m:?})"),
    }
}

#[test]
fn heavy_hitter_reports_are_unchanged_by_sharding() {
    let ups = workload(12_000, 8);

    let mut seeds = SeedSequence::new(9);
    let proto = CountSketchHeavyHitters::new(DIM, 1.0, 0.125, &mut seeds);
    let mut sequential = proto.clone();
    sequential.process_batch(&ups);
    assert_eq!(sharded(&proto, &ups).report(), sequential.report());

    let mut seeds = SeedSequence::new(10);
    let proto = CountMinHeavyHitters::new(DIM, 0.125, &mut seeds);
    let mut sequential = proto.clone();
    sequential.process_batch(&ups);
    assert_eq!(sharded(&proto, &ups).report(), sequential.report());
}

#[test]
fn exact_plan_shard_counts_are_free_for_float_structures_too() {
    // shard-count sweep: the drift bound holds at any width
    let mut seeds = SeedSequence::new(11);
    let proto = PStableSketch::with_default_rows(DIM, 1.5, &mut seeds);
    let ups = workload(10_000, 12);
    let mut sequential = proto.clone();
    LinearSketch::process_batch(&mut sequential, &ups);
    for shards in [1, 2, 3, 8] {
        let mut session =
            EngineBuilder::new(&proto).plan(RoundRobin::approximate(shards)).session();
        assert_eq!(session.shards(), shards);
        session.ingest_blocking(&ups);
        let merged = session.seal().unwrap();
        assert!(
            rel_close(merged.estimate(), sequential.estimate(), REL_TOL),
            "drift exceeded bound at {shards} shards"
        );
    }
}
