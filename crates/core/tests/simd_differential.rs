//! Differential tests for the lane-parallel batched update path.
//!
//! The batch kernels in `lps_hash::simd` promise bit-identical results to
//! the scalar walk — canonical Mersenne-61 residues are unique, and every
//! counter mutation replays in the original order. These tests pin that
//! promise at the structure level for all seven exact-arithmetic structures
//! (sparse recovery, count-sketch, count-min, count-median, AMS, L0, FIS-L0):
//!
//! 1. batched ingestion — including batch sizes that do **not** divide the
//!    lane width — produces the same `state_digest` as one-update-at-a-time
//!    sequential ingestion;
//! 2. the digests equal *pinned constants*, so a build with
//!    `--features simd` (AVX2 kernels) and a default build (portable lanes)
//!    are proven bit-identical to each other and to the historical scalar
//!    path. CI runs this file under both feature configurations.
//!
//! A second pinned case runs FIS-L0, AMS and count-sketch over a dimension
//! above `2^32`, so keys five bytes wide reach the tabulation and
//! polynomial kernels, not only the two-byte keys of the first case.

use lps_core::{FisL0Sampler, L0Sampler, LpSampler};
use lps_hash::SeedSequence;
use lps_sketch::{
    AmsSketch, CountMedianSketch, CountMinSketch, CountSketch, LinearSketch, Mergeable,
    SparseRecovery,
};
use lps_stream::Update;

const DIMENSION: u64 = 1 << 12;

/// The wide-key case: coordinates up to five bytes wide.
const WIDE_DIMENSION: u64 = 1 << 40;

/// A deterministic turnstile workload over `[0, dimension)` with duplicate
/// indices, deletions, full cancellations, and boundary coordinates.
fn workload(dimension: u64, len: usize, seed: u64) -> Vec<Update> {
    let mut s = SeedSequence::new(seed);
    let mut updates = Vec::with_capacity(len);
    for k in 0..len {
        let index = match k % 7 {
            0 => 0,
            1 => dimension - 1,
            _ => s.next_below(dimension),
        };
        let delta = (s.next_below(21) as i64) - 10;
        updates.push(Update::new(index, delta));
        if k % 5 == 0 {
            // immediate cancellation pair, so coalescing sees zero sums
            updates.push(Update::new(index, -delta));
        }
    }
    updates
}

/// Digest after sequential one-at-a-time ingestion, and after batched
/// ingestion in chunks of `chunk` (deliberately including sizes that do not
/// divide `lps_hash::simd::LANES`).
fn digests<S: Clone>(
    proto: &S,
    updates: &[Update],
    chunk: usize,
    sequential_step: impl Fn(&mut S, Update),
    batch_step: impl Fn(&mut S, &[Update]),
    digest: impl Fn(&S) -> u64,
) -> (u64, u64) {
    let mut sequential = proto.clone();
    for &u in updates {
        sequential_step(&mut sequential, u);
    }
    let mut batched = proto.clone();
    for c in updates.chunks(chunk) {
        batch_step(&mut batched, c);
    }
    (digest(&sequential), digest(&batched))
}

/// Run one structure across every chunk size and return its sequential
/// digest (asserting the batched digests all match it).
fn check<S: Clone>(
    name: &str,
    proto: &S,
    updates: &[Update],
    sequential_step: impl Fn(&mut S, Update) + Copy,
    batch_step: impl Fn(&mut S, &[Update]) + Copy,
    digest: impl Fn(&S) -> u64 + Copy,
) -> u64 {
    let mut pinned = None;
    // 13 and 5 leave remainder tails; 1 degenerates to per-update batches;
    // 8 and 64 hit the whole-lane path
    for chunk in [1usize, 5, 8, 13, 64] {
        let (seq, bat) = digests(proto, updates, chunk, sequential_step, batch_step, digest);
        assert_eq!(seq, bat, "{name}: batched digest diverged at chunk size {chunk}");
        if let Some(prev) = pinned {
            assert_eq!(prev, seq, "{name}: sequential digest not deterministic");
        }
        pinned = Some(seq);
    }
    pinned.unwrap()
}

/// The digest every build of this workload must produce, regardless of
/// feature flags or backend. Computed from the (long-established) scalar
/// path; a divergence here means a kernel produced a different bit pattern.
const PINNED_DIGESTS: [(&str, u64); 7] = [
    ("sparse_recovery", 0xbc91bdb44dc823f3),
    ("count_sketch", 0x8773974357c3f6fe),
    ("count_min", 0x0b234ba855ee18b4),
    ("count_median", 0x6bb917508a7ab7f3),
    ("ams", 0x842f9d6cb7026926),
    ("l0", 0xc123d8d67d8d5d3f),
    ("fis_l0", 0x05c3775b5d8ce777),
];

fn computed_digests() -> Vec<(&'static str, u64)> {
    let updates = workload(DIMENSION, 400, 0x51AD);
    let mut seeds = SeedSequence::new(0xD1FF);
    let mut out = Vec::new();

    let sparse = SparseRecovery::new(DIMENSION, 8, &mut seeds);
    out.push((
        "sparse_recovery",
        check(
            "sparse_recovery",
            &sparse,
            &updates,
            |s, u| s.update(u.index, u.delta),
            |s, c| s.process_batch(c),
            |s| s.state_digest(),
        ),
    ));

    let cs = CountSketch::new(DIMENSION, 32, 5, &mut seeds);
    out.push((
        "count_sketch",
        check(
            "count_sketch",
            &cs,
            &updates,
            |s, u| s.update_int(u),
            |s, c| s.process_batch(c),
            |s| s.state_digest(),
        ),
    ));

    let cm = CountMinSketch::new(DIMENSION, 64, 4, &mut seeds);
    out.push((
        "count_min",
        check(
            "count_min",
            &cm,
            &updates,
            |s, u| s.update(u.index, u.delta),
            |s, c| s.process_batch(c),
            |s| s.state_digest(),
        ),
    ));

    let cmed = CountMedianSketch::new(DIMENSION, 64, 5, &mut seeds);
    out.push((
        "count_median",
        check(
            "count_median",
            &cmed,
            &updates,
            |s, u| s.update_int(u),
            |s, c| s.process_batch(c),
            |s| s.state_digest(),
        ),
    ));

    let ams = AmsSketch::new(DIMENSION, 8, 16, &mut seeds);
    out.push((
        "ams",
        check(
            "ams",
            &ams,
            &updates,
            |s, u| s.update_int(u),
            |s, c| s.process_batch(c),
            |s| s.state_digest(),
        ),
    ));

    let l0 = L0Sampler::new(DIMENSION, 0.1, &mut seeds);
    out.push((
        "l0",
        check(
            "l0",
            &l0,
            &updates,
            |s, u| s.process_update(u),
            |s, c| s.process_batch(c),
            |s| s.state_digest(),
        ),
    ));

    let fis = FisL0Sampler::new(DIMENSION, &mut seeds);
    out.push((
        "fis_l0",
        check(
            "fis_l0",
            &fis,
            &updates,
            |s, u| s.process_update(u),
            |s, c| s.process_batch(c),
            |s| s.state_digest(),
        ),
    ));

    out
}

/// The wide-key digests, computed at the commit before
/// `TabulationHash::hash_many` and the power-basis `PolyBank` (8-byte
/// tabulation lookups, Horner banks), under both feature configurations;
/// the current kernels must reproduce them.
const PINNED_WIDE_DIGESTS: [(&str, u64); 3] = [
    ("count_sketch", 0xa62f1ee5d66caf02),
    ("ams", 0x4e92569df5cae3fc),
    ("fis_l0", 0x02e2ffae6680981c),
];

fn computed_wide_digests() -> Vec<(&'static str, u64)> {
    let updates = workload(WIDE_DIMENSION, 300, 0x71DE);
    let mut seeds = SeedSequence::new(0xD1FF);
    let cs = CountSketch::new(WIDE_DIMENSION, 32, 5, &mut seeds);
    let ams = AmsSketch::new(WIDE_DIMENSION, 8, 16, &mut seeds);
    let fis = FisL0Sampler::new(WIDE_DIMENSION, &mut seeds);
    vec![
        (
            "count_sketch",
            check(
                "count_sketch",
                &cs,
                &updates,
                |s, u| s.update_int(u),
                |s, c| s.process_batch(c),
                |s| s.state_digest(),
            ),
        ),
        (
            "ams",
            check(
                "ams",
                &ams,
                &updates,
                |s, u| s.update_int(u),
                |s, c| s.process_batch(c),
                |s| s.state_digest(),
            ),
        ),
        (
            "fis_l0",
            check(
                "fis_l0",
                &fis,
                &updates,
                |s, u| s.process_update(u),
                |s, c| s.process_batch(c),
                |s| s.state_digest(),
            ),
        ),
    ]
}

/// Part 1: batched == sequential for every structure and every chunk size
/// (the per-chunk assertions live inside `check`); part 2: the digests match
/// the pinned constants, which a `--features simd` build must reproduce.
#[test]
fn batched_ingestion_digests_are_bit_identical_and_pinned() {
    let computed = computed_digests();
    let formatted: Vec<String> =
        computed.iter().map(|(n, d)| format!("(\"{n}\", {d:#018x})")).collect();
    assert_eq!(
        computed.as_slice(),
        PINNED_DIGESTS.as_slice(),
        "state digests diverged from the pinned scalar-path constants; \
         computed: [{}]",
        formatted.join(", ")
    );
}

/// The same two parts for keys wider than two bytes.
#[test]
fn wide_key_digests_are_bit_identical_and_pinned() {
    let computed = computed_wide_digests();
    let formatted: Vec<String> =
        computed.iter().map(|(n, d)| format!("(\"{n}\", {d:#018x})")).collect();
    assert_eq!(
        computed.as_slice(),
        PINNED_WIDE_DIGESTS.as_slice(),
        "wide-key state digests diverged from the pinned constants; computed: [{}]",
        formatted.join(", ")
    );
}
